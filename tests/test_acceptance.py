"""End-to-end acceptance checks: reference tables, sequence and LP
values, worked examples, party-list reductions, the corpus audit,
search rediscovery, and engine invariants at scale."""

import hashlib
import json
import random
import time
from fractions import Fraction
from importlib import resources
from math import comb, prod

from multiwin.audit import audit_table, default_scope
from multiwin.ballots import (ListBallot, Profile, ProfileError, SetBallot,
                              WeightScheme, WeightedBallot, parse_profile,
                              scale)
from multiwin.ordered import StvSpec, stv_count, thiele_ordered
from multiwin.party import (DivisorSpec, QuotaSpec, divisor_apportion,
                            quota_apportion)
from multiwin.scenarios import ScenarioId
from multiwin.search import SearchSpec, search_lower_bound
from multiwin.sequences import alpha, seq_a, seq_b, seq_c
from multiwin.thresholds import (REGISTRY, CoverageError, MethodId,
                                 table_grid, threshold)
from multiwin.unordered import (phragmen_unordered, thiele_addition,
                                thiele_addition_paths)
from multiwin.witnesses import _load_fixture, run_method, verify_witness

from test_thresholds import GRIDS

F = Fraction
HARMONIC = WeightScheme.harmonic()


# ---------------------------------------------------------------------------
# 1. Reference tables regenerate bit-exactly.


def test_tables_regenerate_exactly():
    start = time.monotonic()
    for name, golden in sorted(GRIDS.items()):
        grid = table_grid(name, max_seats=5)
        values = {key: entry.value for key, entry in grid.cells.items()}
        assert values == golden, name
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, elapsed


def test_table_spot_cells():
    spots = [
        ("stl", 3, 2, F(3, 5)), ("lr", 4, 2, F(7, 16)),
        ("bv-ejr", 3, 2, F(3, 5)), ("bv-ejr", 3, 1, F(1, 2)),
        ("bv-ejr", 3, 3, F(1, 2)), ("av-ejr", 5, 3, F(5, 8)),
        ("tho-tactic", 5, 1, F(720, 2621)), ("tho-same", 5, 2, F(48, 103)),
        ("tho-wpsc", 5, 3, F(48, 71)), ("borda-tactic", 5, 1, F(137, 437)),
        ("borda-same", 5, 2, F(25, 49)),
    ]
    for name, seats, ell, value in spots:
        assert GRIDS[name][(seats, ell)] == value
    for seats in range(1, 6):
        for ell in range(1, seats + 1):
            assert GRIDS["optimal"][(seats, ell)] == F(ell, seats + 1)


# ---------------------------------------------------------------------------
# 2. Sequence table.


def test_sequence_table():
    start = time.monotonic()
    golden_a = [F(1), F(3, 2), F(23, 12), F(55, 24), F(1901, 720),
                F(4277, 1440)]
    golden_b = [F(1), F(1, 2), F(5, 12), F(3, 8), F(251, 720), F(95, 288)]
    golden_c = [1, 2, 4, 6, 9, 12]
    for n in range(1, 7):
        assert seq_a(n) == golden_a[n - 1]
        assert seq_b(n) == golden_b[n - 1]
        assert seq_c(n) == golden_c[n - 1]
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 3. LP values.


def test_lp_values():
    start = time.monotonic()
    values = {n: alpha(n) for n in range(1, 7)}
    assert [values[n] for n in range(1, 5)] == [F(1), F(2), F(8, 3), F(24, 7)]
    assert abs(values[5] - F(4186, 1000)) <= F(5, 1000)
    assert abs(values[6] - F(490, 100)) <= F(5, 1000)
    assert values[6] <= F(29952, 6103)
    for n in range(1, 7):
        assert n / HARMONIC.psi(n) <= values[n] <= n
        if n > 1:
            assert values[n] >= values[n - 1]
    for m in range(1, 6):
        for n in range(1, 7 - m):
            assert values[m + n] <= values[m] + values[n]
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 4. Worked examples.


def test_split_vote_elects_spoiler_bloc():
    profile = _load_fixture("split_vote_1912.profile")
    out = thiele_addition(HARMONIC, profile)
    assert out.sorted_committees() == [("A", "B", "C")]


def test_counter_profile_restores_two_seats():
    profile = _load_fixture("counter_1912.profile")
    out = thiele_addition(HARMONIC, profile)
    assert len(out) >= 1
    for committee in out.committees:
        assert {"B", "C"} <= set(committee)


def test_ordered_tactic_flips_the_last_seat():
    before = thiele_ordered(_load_fixture("ordered_tactic_before.profile"))
    after = thiele_ordered(_load_fixture("ordered_tactic_after.profile"))
    assert before.sorted_committees() == [("A", "C")]
    assert after.sorted_committees() == [("A", "B")]


def test_ordered_majority_loses_seats():
    out = thiele_ordered(_load_fixture("ordered_majority_loss.profile"))
    assert out.sorted_committees() == [("A", "X", "Y")]


def test_overlap_approvals_shut_out():
    start = time.monotonic()
    profile = _load_fixture("overlap_approvals_2409.profile")
    out, _ = phragmen_unordered(profile)
    assert not out.truncated
    assert any(not ({"A", "B"} & set(c)) for c in out.committees)
    assert profile.w_weight / profile.total_weight == F(409, 2409)
    assert time.monotonic() - start < 60.0


def test_single_list_bloc_shut_out_by_overlaps():
    out = thiele_addition(HARMONIC, _load_fixture("overlapping_lists_shutout.profile"))
    assert frozenset({"B1", "B2", "B3"}) in out


# ---------------------------------------------------------------------------
# 5. Party-list reductions on 200 random profiles.


def _seat_vectors(outcome, parties):
    assert not outcome.truncated
    vectors = set()
    for committee in outcome.committees:
        vectors.add(tuple(sum(1 for c in committee if c.startswith(p + "_"))
                          for p in parties))
    return vectors


def _tie_complete_size(vectors, seats):
    """Committees listing every choice of names within each party list."""
    return sum(prod(comb(seats, k) for k in vector) for vector in vectors)


def _party_list_family():
    """(parties, votes, seats, set profile, list profile) per trial: each
    party casts one ballot naming S interchangeable names."""
    rng = random.Random(20260824)
    for trial in range(200):
        n_parties = rng.randint(1, 4)
        seats = rng.randint(1, 5)
        parties = ["P%d" % i for i in range(n_parties)]
        votes = [rng.randint(1, 20) for _ in parties]
        names = {p: ["%s_%d" % (p, j) for j in range(seats)]
                 for p in parties}
        set_profile = Profile(
            [WeightedBallot(SetBallot(names[p]), F(v))
             for p, v in zip(parties, votes)], seats)
        list_profile = Profile(
            [WeightedBallot(ListBallot(names[p]), F(v))
             for p, v in zip(parties, votes)], seats)
        yield parties, votes, seats, set_profile, list_profile


def test_party_list_reductions():
    # The registry's `dhondt` kinds, at harmonic weights, elect as div:1 on
    # party lists; every other candidate engine fails to on some trial.
    cap = 10 ** 6
    dhondt_kinds = [MethodId(kind) for kind, spec in REGISTRY.items()
                    if spec.dhondt]
    others = {method for method, _ in default_scope()
              if method.spec.ballot != "party" and not method.spec.dhondt
              and method.spec.engine is not None}
    assert {m.spec.ballot for m in dhondt_kinds} == {"set", "list"}
    for parties, votes, seats, set_profile, list_profile in (
            _party_list_family()):
        profiles = {"set": set_profile, "list": list_profile}
        dhondt = divisor_apportion(DivisorSpec(1), votes, seats)
        for method in dhondt_kinds:
            out = run_method(method, profiles[method.spec.ballot], cap)
            assert _seat_vectors(out, parties) == dhondt, method.label()
            if method.spec.ballot == "set":
                assert len(out) == _tie_complete_size(dhondt, seats)
        for method in list(others):
            try:
                out = run_method(method, profiles[method.spec.ballot], cap)
            except (CoverageError, ProfileError):    # a ballot cap below S
                others.discard(method)
                continue
            if _seat_vectors(out, parties) != dhondt:
                others.discard(method)
        for delta in (F(0), F(1, 2), F(1)):
            expected = quota_apportion(QuotaSpec(delta), votes, seats)
            out = stv_count(StvSpec(delta), list_profile, branch_cap=cap)
            assert _seat_vectors(out, parties) == expected
    assert not others, sorted(m.label() for m in others)


# The truncated Phragmén counts of run_method at branch caps 1-3 on the
# bundled fixtures and the party-list family: sorted committees and the
# truncated flag, recorded while both engines still built every LoadState.
COUNT_ONLY_GOLDEN = ("c0d0ccb273baf7907340fd88f0cc2fd3"
                     "bff2753ccef1e1e28e5f6a06477e1667")


def _load_counts():
    """(method, profile) for phragmen-u and phragmen-o on every bundled
    fixture of their ballot kind and every party-list profile."""
    fixtures = resources.files("multiwin") / "profiles"
    profiles = [parse_profile(path.read_text(encoding="utf-8"))
                for path in sorted(fixtures.iterdir(), key=lambda p: p.name)
                if path.name.endswith(".profile")]
    for _, _, _, set_profile, list_profile in _party_list_family():
        profiles += [set_profile, list_profile]
    for label in ("phragmen-u", "phragmen-o"):
        method = MethodId.parse(label)
        for profile in profiles:
            if profile.kind == method.spec.ballot:
                yield method, profile


def test_load_methods_count_only_path():
    records = []
    for method, profile in _load_counts():
        for cap in (1, 2, 3):
            out = run_method(method, profile, cap)
            full, states = method.spec.engine(method, profile, cap)
            assert out == full          # committees and truncated flag
            assert set(states) == out.committees
            assert len(states) == len(out)
            records.append([out.sorted_committees(), out.truncated])
    assert any(truncated for _, truncated in records)
    text = json.dumps(records, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == COUNT_ONLY_GOLDEN


# ---------------------------------------------------------------------------
# 6. Inequality audit over the full exact corpus.


def test_audit_corpus_to_eight_seats():
    report = audit_table(smax=8)
    assert report.passed
    assert not report.failures()


# ---------------------------------------------------------------------------
# 7. Search rediscovery and soundness.


def test_search_rediscovers_known_values():
    start = time.monotonic()
    cases = [
        (MethodId("bv"), "ejr", 2, 3, F(3, 5),
         SearchSpec(max_candidates=5, weight_grid=5)),
        (MethodId("div", 1), "party", 1, 2, F(1, 3),
         SearchSpec(weight_grid=5)),
        (MethodId("sntv"), "tactic", 2, 3, F(3, 5),
         SearchSpec(max_candidates=5, weight_grid=5)),
    ]
    for method, scenario, ell, seats, value, spec in cases:
        best, witness = search_lower_bound(method, scenario, ell, seats, spec)
        assert best == value
        assert witness is not None and verify_witness(witness, method)
    assert time.monotonic() - start < 600.0


def test_search_never_beats_exact_thresholds():
    start = time.monotonic()
    rng = random.Random(20260824)
    labels = ["av", "bv", "sntv", "cvq", "lv:2", "phragmen-u", "thiele-opt",
              "thiele-add", "thiele-elim", "stv:1", "stv:0", "stv:1/2",
              "phragmen-o", "thiele-o", "borda", "div:1", "div:1/2", "div:0",
              "quota:1", "quota:0", "quota:1/2"]
    scenarios = [s.value for s in ScenarioId]
    spec = SearchSpec(max_candidates=4, weight_grid=3)
    done = 0
    while done < 50:
        method = MethodId.parse(rng.choice(labels))
        scenario = rng.choice(scenarios)
        seats = rng.randint(1, 3)
        ell = rng.randint(1, seats)
        try:
            entry = threshold(method, ScenarioId(scenario), ell, seats)
        except CoverageError:
            continue
        if not (entry.is_exact and entry.kind == "pi"):
            continue
        best, _ = search_lower_bound(method, scenario, ell, seats, spec)
        assert best <= entry.value, (method.label(), scenario, ell, seats)
        done += 1
    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# 8. Engine invariants at scale.


def _random_set_profile(rng):
    pool = ["A", "B", "C", "D"][:rng.randint(2, 4)]
    groups = rng.randint(1, 4)
    ballots = []
    for _ in range(groups):
        size = rng.randint(1, len(pool))
        members = rng.sample(pool, size)
        ballots.append(WeightedBallot(SetBallot(members),
                                      F(rng.randint(1, 9), rng.randint(1, 4))))
    return Profile(ballots, rng.randint(1, len(pool)), pool)


def _random_list_profile(rng):
    pool = ["A", "B", "C", "D"][:rng.randint(2, 4)]
    groups = rng.randint(1, 4)
    ballots = []
    for _ in range(groups):
        size = rng.randint(1, len(pool))
        ranking = rng.sample(pool, size)
        ballots.append(WeightedBallot(ListBallot(ranking),
                                      F(rng.randint(1, 9), rng.randint(1, 4))))
    return Profile(ballots, rng.randint(1, len(pool)), pool)


def test_invariant_scale_homogeneity_500():
    rng = random.Random(1)
    engines = [
        lambda p: run_method(MethodId("av"), p),
        lambda p: phragmen_unordered(p)[0],
        lambda p: thiele_addition(HARMONIC, p),
    ]
    for _ in range(500):
        profile = _random_set_profile(rng)
        factor = F(rng.randint(1, 9), rng.randint(1, 4))
        scaled = scale(profile, factor)
        for engine in engines:
            before = engine(profile)
            after = engine(scaled)
            assert before.sorted_committees() == after.sorted_committees()
    rng = random.Random(2)
    for _ in range(500):
        profile = _random_list_profile(rng)
        factor = F(rng.randint(1, 9), rng.randint(1, 4))
        out = stv_count(StvSpec(1), profile)
        scaled_out = stv_count(StvSpec(1), scale(profile, factor))
        assert out.sorted_committees() == scaled_out.sorted_committees()


def test_invariant_load_conservation_500():
    rng = random.Random(3)
    for _ in range(500):
        profile = _random_set_profile(rng)
        _, states = phragmen_unordered(profile)
        weights = [b.weight for b in profile.ballots]
        for state in states.values():
            assert sum(w * l for w, l in zip(weights, state.loads)) \
                == len(state.history)


def test_invariant_addition_scores_non_increasing_500():
    rng = random.Random(4)
    for _ in range(500):
        profile = _random_set_profile(rng)
        paths = thiele_addition_paths(HARMONIC, profile)
        for trail in paths[1].values():
            assert all(a >= b for a, b in zip(trail, trail[1:]))


def test_invariant_permutation_equivariance_500():
    rng = random.Random(5)
    engines = [
        lambda p: run_method(MethodId("av"), p),
        lambda p: phragmen_unordered(p)[0],
        lambda p: thiele_addition(HARMONIC, p),
    ]
    for _ in range(500):
        profile = _random_set_profile(rng)
        pool = sorted(profile.candidates)
        fresh = ["X%d" % i for i in range(len(pool))]
        rng.shuffle(fresh)
        mapping = dict(zip(pool, fresh))
        renamed = Profile(
            [WeightedBallot(SetBallot(mapping[n] for n in b.content.members),
                            b.weight, b.in_w) for b in profile.ballots],
            profile.seats, fresh)
        for engine in engines:
            before = engine(profile)
            after = engine(renamed)
            expected = sorted(tuple(sorted(mapping[n] for n in committee))
                              for committee in before.sorted_committees())
            assert expected == after.sorted_committees()


def test_invariant_sequence_identity_and_decrease():
    previous = None
    for n in range(1, 201):
        assert sum(seq_b(i) / (n + 1 - i) for i in range(1, n + 1)) == 1
        value = seq_b(n)
        assert value > 0
        if previous is not None:
            assert value < previous
        previous = value


def test_invariant_sequence_series_oracle():
    # Independent route: the b's accumulate the coefficients of the
    # reciprocal of the series sum_m x^m / (m + 1).
    count = 51
    series = [F(1, m + 1) for m in range(count)]
    inverse = [F(1)]
    for n in range(1, count):
        inverse.append(-sum(series[k] * inverse[n - k]
                            for k in range(1, n + 1)))
    running = F(0)
    for n in range(1, count):
        running += inverse[n - 1]
        assert seq_b(n) == running
