"""The method registry, and golden outcomes recorded before the engines
moved onto the shared branching loop.

GOLDEN holds one sha256 per method over canonical JSON of its results on
the bundled fixtures plus a seeded family of small profiles per ballot
kind: sorted committees and the truncated flag (with each committee's
max load for the load-balancing methods), reachable seat vectors for
apportionment, or the error class when the engine refuses the profile.

CLONE_GOLDEN pins the same kind of record, recorded before the engines
branched on clone classes, on a family full of interchangeable names:
party lists, overlapping approval groups and declared candidates no
ballot approves.  There the load-balancing record carries every
committee's full LoadState and sequential addition its winning-score
trail.

The phragmen-u, phragmen-o, thiele-add (every scheme) and thiele-o
digests of both were re-recorded when those engines began to fill the
seats left open once no candidate has a score or a supporter; every
record that changed was a refusal ({"error": "profile"}) before.
"""

import hashlib
import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from multiwin.ballots import (DEFAULT_BRANCH_CAP, CoverageError, ListBallot,
                              PartyBallot, Profile, ProfileError, SetBallot,
                              WeightedBallot, parse_profile)
from multiwin.numerics import format_rational
from multiwin.scenarios import ScenarioId
from multiwin.thresholds import REGISTRY, MethodId, UNKNOWN, threshold
from multiwin.unordered import thiele_addition_paths
from multiwin.witnesses import party_seat_vectors, run_method

LABELS = {
    "set": ("bv", "av", "sntv", "lv:1", "lv:2", "cvq", "phragmen-u",
            "thiele-opt", "thiele-opt:weak", "thiele-add", "thiele-add:weak",
            "thiele-add:explicit(1,1/3;tail=1/4)", "thiele-elim"),
    "list": ("stv:1", "stv:0", "stv:1/2", "phragmen-o", "thiele-o", "borda",
             "borda:weak"),
    "party": ("div:1", "div:1/2", "div:0", "quota:0", "quota:1"),
}
FAMILY_SEEDS = {"set": 11, "list": 12, "party": 13}

GOLDEN = {
    "bv": "6cee5ab0796fa38a886aaa9e7fe65b869fe89eff11cae2c632d345afb2e230a3",
    "av": "4f5169c4a532fd229e0b1efcfaf00f2de6fc9518c1b95c811c19cd0a4b23d627",
    "sntv": "2b49348bd06450b73df11739cceffff7c990178b0ec4b49ae41940066ee4593f",
    "lv:1": "2b49348bd06450b73df11739cceffff7c990178b0ec4b49ae41940066ee4593f",
    "lv:2": "0ea10633314007c1f38846d3052bc58840b9cd0fcd71684e3f20f09d543281b7",
    "cvq": "ac79c4ca7e0c40b946a927a2649e02a848e9373ddf3a8f020224f7b4651f06d5",
    "phragmen-u":
        "e95a03b0ae860c51d961a9676a950ea89f969b9e2db527d0c38e33f5a8759cca",
    "thiele-opt":
        "e6f1c43928b38c6f4f1eb20f93e6d86b7230f6ae88b04240e245efd40a7835d4",
    "thiele-opt:weak":
        "f94994c9fc8d630a70d069e62b94ca6b8f537941865f17408e7b6ab36c6227d0",
    "thiele-add":
        "086c8ee078690aed8c895ea5ee69966a863d03fed1cf6294ea76cfa44641cde7",
    "thiele-add:weak":
        "f6b357e4738b301cb4b8e7a508c5aa8922355d54ebf5773f63b002f2475d963f",
    "thiele-add:explicit(1,1/3;tail=1/4)":
        "02ea56fb37377d9db050baf6c443e00df40aa309da5ec99eccfd06c71bf67aa7",
    "thiele-elim":
        "786df5428cf2d2164653587a0bf897481e43930d72099bcc71274cbea151d9af",
    "stv:1":
        "4f10baa225b4d43392c52a2466a9d1c9d0710d7e40ff5479c16fb8b752890f1a",
    "stv:0":
        "00f92db02822003d90e805f553bd327350be9422d1424314820fb6ccb60bcdb6",
    "stv:1/2":
        "0eee63d1cb2b3b701f643662f7685d273c4c19098a8ce5ebde530ed726fd7a86",
    "phragmen-o":
        "90b610c812c41bab5a9ea6850371aefca00309f20f9b129a7264a10a54300a54",
    "thiele-o":
        "69a704b025cf8307b6ef40eefa941be7971baaeacd7da752a772a48c16e2b888",
    "borda":
        "0dc2a9b08fb091d2a7d367dbbb026eecccda2bd250e215222daadac877ee448e",
    "borda:weak":
        "d7be5f54436bc6a7a5a3995e4365ada9ea843fae1b8a0b402c598acae98631a6",
    "div:1":
        "007cb32689498c8f4ef28a0b95ee88f6b52030896b28bf836f5500ef61fd0459",
    "div:1/2":
        "a05670752505957ee1cd8f8638f8373b6b0b6f08f2157f6bdefc9ed25ff7b543",
    "div:0":
        "e0203ec2786604f3500aae133b1aeb7fd5ea87ee50de34043ac423dc4e66ebb9",
    "quota:0":
        "6cc11d3e5ef5236782d7c7fedadd1f7ab2c001068b69efa84a9e868d8cd8badf",
    "quota:1":
        "e133e9b3cd52ba92ddfaa77c563439267533a3cee9b5bac5ff7819499081af57",
}


def _family(kind, seed, count=30):
    rng = random.Random(seed)
    profiles = []
    for _ in range(count):
        pool = ["C%d" % i for i in range(rng.randint(2, 6))]
        seats = rng.randint(1, min(3, len(pool)))
        ballots = []
        for _ in range(rng.randint(1, 5)):
            weight = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            if kind == "party":
                content = PartyBallot(rng.choice(pool))
            else:
                names = rng.sample(pool, rng.randint(1, min(3, len(pool))))
                content = (SetBallot(names) if kind == "set"
                           else ListBallot(names))
            ballots.append(WeightedBallot(content, weight))
        profiles.append(Profile(ballots, seats, pool))
    return profiles


def _fixtures():
    root = resources.files("multiwin") / "profiles"
    return [parse_profile(path.read_text(encoding="utf-8"))
            for path in sorted(root.iterdir(), key=lambda p: p.name)
            if path.name.endswith(".profile")]


def _record(method, profile):
    try:
        if method.spec.ballot == "party":
            return {"vectors": sorted(party_seat_vectors(method, profile)[1])}
        if method.spec.loads:
            outcome, states = method.spec.engine(method, profile,
                                                 DEFAULT_BRANCH_CAP)
            loads = [format_rational(states[frozenset(c)].max_load)
                     for c in outcome.sorted_committees()]
        else:
            outcome, loads = run_method(method, profile), None
    except ProfileError:
        return {"error": "profile"}
    except ValueError:
        return {"error": "value"}
    data = {"committees": outcome.sorted_committees(),
            "truncated": outcome.truncated}
    if loads is not None:
        data["max_load"] = loads
    return data


def test_golden_outcomes():
    fixtures = _fixtures()
    digests = {}
    for kind, labels in LABELS.items():
        profiles = ([p for p in fixtures if p.kind == kind]
                    + _family(kind, FAMILY_SEEDS[kind]))
        for label in labels:
            method = MethodId.parse(label)
            text = json.dumps([_record(method, p) for p in profiles],
                              sort_keys=True, separators=(",", ":"))
            digests[label] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == GOLDEN


def _with_int_weights(profile):
    """The profile scaled to whole weights, once as Fractions and once with
    the same weights as ints."""
    rational = [WeightedBallot(b.content, b.weight * 2, b.in_w)
                for b in profile.ballots]
    whole = [WeightedBallot(b.content, int(b.weight), b.in_w)
             for b in rational]
    return (Profile(rational, profile.seats, profile.candidates),
            Profile(whole, profile.seats, profile.candidates))


@pytest.mark.parametrize("kind", ["set", "list", "party"])
def test_int_weights_count_as_their_fractions(kind):
    for profile in _family(kind, FAMILY_SEEDS[kind]):
        rational, whole = _with_int_weights(profile)
        assert all(type(b.weight) is int for b in whole.ballots)
        assert whole == rational and hash(whole) == hash(rational)
        for label in LABELS[kind]:
            method = MethodId.parse(label)
            assert _record(method, whole) == _record(method, rational)
            if method.spec.loads:
                engine = method.spec.engine
                assert dict(engine(method, whole, DEFAULT_BRANCH_CAP)[1]) \
                    == dict(engine(method, rational, DEFAULT_BRANCH_CAP)[1])


# ---------------------------------------------------------------------------
# One record per kind


PROFILES = {
    "party": parse_profile("!seats 2\n3 : party P\n2 : party Q\n"),
    "set": parse_profile("!seats 2\n3 : {A}\n2 : {B}\n1 : {C}\n"),
    "list": parse_profile("!seats 2\n3 : [A B]\n2 : [C]\n"),
}


def _examples(kind):
    spec = REGISTRY[kind]
    if spec.param == "limit":
        return [MethodId.parse(kind + ":2")]
    if spec.param is not None:
        return [MethodId.parse(kind + ":1/2"), MethodId.parse(kind + ":1")]
    if spec.scheme:
        return [MethodId.parse(kind),
                MethodId.parse(kind + ":explicit(1,1/2;tail=1/3)")]
    return [MethodId.parse(kind)]


def _count(method, profile):
    if method.spec.ballot == "party":
        return party_seat_vectors(method, profile)[1]
    return run_method(method, profile)


@pytest.mark.parametrize("kind", sorted(REGISTRY))
def test_label_round_trip(kind):
    for method in _examples(kind):
        assert MethodId.parse(method.label()) == method


@pytest.mark.parametrize("kind", sorted(REGISTRY))
def test_threshold_dispatches(kind):
    for method in _examples(kind):
        entries = [threshold(method, sc, 1, 3) for sc in ScenarioId]
        assert any(entry.status != UNKNOWN for entry in entries)


@pytest.mark.parametrize("kind", sorted(REGISTRY))
def test_engine_takes_only_its_ballot_kind(kind):
    for method in _examples(kind):
        for ballot, profile in PROFILES.items():
            if ballot == method.spec.ballot and method.spec.engine:
                assert _count(method, profile)
            else:
                with pytest.raises((ProfileError, CoverageError)):
                    _count(method, profile)


def test_ballot_cap_comes_from_the_record():
    def cap(method, seats):
        return method.spec.cap(method, seats)

    assert cap(MethodId("bv"), 3) == 3
    assert cap(MethodId("sntv"), 3) == 1
    assert cap(MethodId("lv", 2), 3) == 2
    assert cap(MethodId("av"), 3) is None
    assert cap(MethodId("stv", 1), 3) is None
    with pytest.raises(CoverageError):
        cap(MethodId("lv", 2), 1)


# ---------------------------------------------------------------------------
# Clone-heavy family


CLONE_LABELS = {
    "set": ("phragmen-u", "thiele-add", "thiele-elim", "thiele-opt",
            "thiele-opt:weak", "thiele-opt:explicit(1,1/2,1/2;tail=1/3)"),
    "list": ("stv:0", "stv:1/2", "stv:1"),
}

CLONE_GOLDEN = {
    "phragmen-u":
        "b7a4018028efff8dcbcf50ecd09e52fed0022339c35cf7594dd9e656c7112152",
    "thiele-add":
        "cba9788cf307e7c9f785452067400c090c302ff1ba7b73958163356530995951",
    "thiele-elim":
        "d7c310c514c7c8755404085980651656d6ccdae2393917eb0a21752542ba7fbc",
    "thiele-opt":
        "d7c310c514c7c8755404085980651656d6ccdae2393917eb0a21752542ba7fbc",
    "thiele-opt:weak":
        "4a5861b85011d24f9323cf1c3d51042da9b3fe341262826c7da40dc0788b06e6",
    "thiele-opt:explicit(1,1/2,1/2;tail=1/3)":
        "ba123b57cb358a7c55b8d0419c6d0b27777c5c59bb0a5619373161e6163d1af3",
    "stv:0":
        "01c70d05179c97d2cca2a43c3fcc551e0499258faf5cebcf37f238e68b968d88",
    "stv:1/2":
        "d7390f2a280a1b38086302582376aeb15b45969be7c3246a58227ed167266343",
    "stv:1":
        "210a99a701b8c796925efa4364adcae5fc1bd2a5a1aae8898ed0913b1753c8b9",
}


def _clone_family(kind, seed, count=100):
    """Profiles whose ballots approve (or rank) whole groups of names: one
    party list or the union of two, so that ballots overlap, plus groups
    no ballot picks and 0-2 declared candidates on no ballot."""
    rng = random.Random(seed)
    profiles = []
    for _ in range(count):
        groups = [["G%d_%d" % (g, j) for j in range(rng.randint(1, 4))]
                  for g in range(rng.randint(1, 4))]
        silent = ["Z%d" % j for j in range(rng.randint(0, 2))]
        ballots = []
        for _ in range(rng.randint(1, 4)):
            chosen = rng.sample(groups, rng.randint(1, min(2, len(groups))))
            names = [name for group in chosen for name in group]
            content = SetBallot(names) if kind == "set" else ListBallot(names)
            ballots.append(WeightedBallot(content, Fraction(rng.randint(1, 9))))
        pool = sum(groups, []) + silent
        seats = rng.randint(1, min(5, len(pool)))
        profiles.append(Profile(ballots, seats, pool))
    return profiles


def _clone_record(method, profile):
    engine = method.spec.engine
    try:
        if method.spec.loads:
            outcome, states = engine(method, profile, DEFAULT_BRANCH_CAP)
            payloads = {c: [[format_rational(x) for x in state.loads],
                            [format_rational(x) for x in state.history]]
                        for c, state in states.items()}
        elif method.kind == "thiele-add":
            outcome, trails = thiele_addition_paths(method.scheme, profile)
            payloads = {c: [format_rational(x) for x in trail]
                        for c, trail in trails.items()}
        else:
            outcome, payloads = run_method(method, profile), None
    except ProfileError:
        return {"error": "profile"}
    committees = outcome.sorted_committees()
    data = {"committees": committees, "truncated": outcome.truncated}
    if payloads is not None:
        assert set(payloads) == outcome.committees
        data["payloads"] = [payloads[frozenset(c)] for c in committees]
    return data


def test_golden_clone_outcomes():
    digests = {}
    for kind, labels in CLONE_LABELS.items():
        profiles = _clone_family(kind, FAMILY_SEEDS[kind])
        for label in labels:
            method = MethodId.parse(label)
            text = json.dumps([_clone_record(method, p) for p in profiles],
                              sort_keys=True, separators=(",", ":"))
            digests[label] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == CLONE_GOLDEN
