"""Empirical side of the thresholds: witnesses, search, and audits.

A Witness packages a concrete scenario instance whose profile provably
admits a bad outcome at the claimed vote fraction.  construct_witness()
rebuilds the extremal instances behind each threshold from a catalog of
named constructions; verify_witness() re-runs the election method and
confirms a bad committee is reachable; search_lower_bound() looks for
bad instances by bounded brute force over unit-ballot profiles (and, for
the tactic scenario, over W's strategies); audit_table() machine-checks
the inequality families the threshold corpus must satisfy.  The replay
and the search decide badness with one test, _is_bad(), which runs the
engine as a goal count (`unordered.branch`): it stops at the first
round state that must end bad and drops the states that must end good.
The search skips an instance that a renaming of the targets among
themselves and the decoys among themselves makes of one decided before;
that is sound because the engines are tie-complete, so a renaming
renames the outcome set, and a decided goal verdict is the truth about
the instance.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import chain, combinations, permutations, product, tee
from math import isqrt
from sys import intern
from typing import Optional, Sequence

from .ballots import (DEFAULT_BRANCH_CAP, ListBallot, OutcomeSet, PartyBallot,
                      Profile, ProfileError, SetBallot, WeightedBallot,
                      normalize)
from .party import AdamsIllDefined
from .scenarios import (IndeterminateOutcome, ScenarioId, ScenarioInstance,
                        is_bad_outcome_possible, is_instance, require_kind)
from .sequences import ALPHA_CAP, seq_a, seq_b, seq_c, solve_alpha, subsets
from .thresholds import (REGISTRY, CoverageError, MethodId, PI,
                         generic_bounds, threshold)


# ---------------------------------------------------------------------------
# Witness


@dataclass(frozen=True)
class Witness:
    """A scenario instance together with its claimed bad-outcome fraction."""

    instance: ScenarioInstance
    claimed_fraction: Fraction
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "claimed_fraction",
                          Fraction(self.claimed_fraction))
        if not is_instance(self.instance):
            raise ProfileError(
                "profile violates the %s ballot restriction"
                % self.instance.scenario.value)
        if self.claimed_fraction != self.instance.fraction:
            raise ProfileError(
                "claimed fraction %s differs from the instance fraction %s"
                % (self.claimed_fraction, self.instance.fraction))


# ---------------------------------------------------------------------------
# Running a method on a profile


def run_method(method: MethodId, profile: Profile,
               branch_cap: int = DEFAULT_BRANCH_CAP, goal=None) -> OutcomeSet:
    """The tie-complete OutcomeSet of the method on the profile, or with
    a scenario's goal pairs the engine's goal count: committees that
    decide whether a bad one is reachable (`unordered.branch`)."""
    spec = method.spec
    if spec.ballot == "party":
        raise CoverageError(
            "%s apportions seats to parties; use party_seat_vectors"
            % method.kind)
    _require_engine(method)
    result = spec.engine(method, profile, branch_cap, goal)
    return result[0] if spec.loads else result


def _require_engine(method: MethodId) -> None:
    if method.spec.engine is None:
        raise CoverageError("%s has no counting engine here; only its "
                            "thresholds are tabulated" % method.kind)


def party_seat_vectors(method: MethodId, profile: Profile):
    """(party names, reachable seat vectors) for an apportionment method."""
    if profile.kind != "party":
        raise ProfileError("apportionment needs party ballots")
    if method.spec.ballot != "party":
        raise CoverageError("%s is not an apportionment method" % method.kind)
    weights: dict = {}
    for b in profile.ballots:
        party = b.content.party
        weights[party] = weights.get(party, Fraction(0)) + b.weight
    names = tuple(sorted(weights))
    votes = [weights[name] for name in names]
    return names, method.spec.engine(method, votes, profile.seats)


def _is_bad(method: MethodId, inst: ScenarioInstance,
            branch_cap: int) -> bool:
    """Can the method produce an outcome that is bad for W on the instance?

    On party ballots, bad means W's party can get fewer than ell seats.
    Elsewhere the engine runs a goal count for the instance's goal, which
    answers as the full count wherever that is decided.
    """
    profile = inst.profile
    if profile.kind == "party":
        names, vectors = party_seat_vectors(method, profile)
        (party,) = inst.target
        idx = names.index(party)
        return any(vec[idx] < inst.ell for vec in vectors)
    return is_bad_outcome_possible(
        inst, run_method(method, profile, branch_cap, inst.goal))


def verify_witness(witness: Witness, method: MethodId,
                   branch_cap: int = DEFAULT_BRANCH_CAP) -> bool:
    """True iff the method can produce a bad outcome on the witness."""
    return _is_bad(method, witness.instance, branch_cap)


# ---------------------------------------------------------------------------
# Profile construction helpers


def _names(prefix: str, count: int) -> list:
    return ["%s%d" % (prefix, i + 1) for i in range(count)]


_CONTENT = {cls.kind: cls for cls in (SetBallot, ListBallot, PartyBallot)}


def _profile(kind: str, groups, seats: int, extra=()) -> Profile:
    """A profile of `kind` ballots from (weight, names, in_w) groups, the
    names a party name for party ballots; zero-weight groups are dropped."""
    content = _CONTENT[kind]
    ballots = [WeightedBallot(content(names), weight, in_w)
               for weight, names, in_w in groups if weight > 0]
    return Profile(ballots, seats, extra)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CoverageError(message)


def _default_eps(eps) -> Fraction:
    return Fraction(1, 20) if eps is None else Fraction(eps)


# ---------------------------------------------------------------------------
# The witness catalog


def _symmetric_parties(method, scenario, ell, seats, eps):
    """(S+1)/ell equal parties of ell names each; one short party per branch."""
    _require((seats + 1) % ell == 0,
             "needs (S+1)/ell integral for equal parties")
    blocks = (seats + 1) // ell
    _require(blocks >= 2, "needs at least two parties")
    cap = method.spec.cap(method, seats)
    _require(cap is None or ell <= cap, "party list exceeds the ballot cap")
    kind = method.spec.ballot
    if kind == "party":
        lists = ["P%d" % (p + 1) for p in range(blocks)]
        target = lists[:1]
    else:
        lists = [["P%d_%d" % (p + 1, i + 1) for i in range(ell)]
                 for p in range(blocks)]
        target = lists[0]
    groups = [(Fraction(1), lists[p], p == 0) for p in range(blocks)]
    return _profile(kind, groups, seats), target, Fraction(ell, seats + 1)


def _rival_block(method, ell, seats, w, t):
    """W at weight w against S+1-ell single rivals of weight t each.  On
    party ballots W and each rival are parties; elsewhere W votes one list
    of ell targets and each rival one name.  The fraction is W's share."""
    rest = seats + 1 - ell
    kind = method.spec.ballot
    if kind == "party":
        w_names, target, rivals = "W", ["W"], _names("P", rest)
    else:
        w_names = target = _names("A", ell)
        rivals = [[name] for name in _names("B", rest)]
    groups = [(w, w_names, True)] + [(t, name, False) for name in rivals]
    return _profile(kind, groups, seats), target, w / (w + rest * t)


def _require_harmonic(method):
    _require(method.scheme is None or method.scheme.kind == "harmonic",
             "the ties need harmonic weights")


def _common_list_tie(method, scenario, ell, seats, eps):
    """W (weight ell) on one ell-name list versus S+1-ell unit singletons."""
    _require_harmonic(method)
    return _rival_block(method, ell, seats, Fraction(ell), Fraction(1))


def _divisor_extremes(method, scenario, ell, seats, eps):
    """W at ell-1+gamma against S+1-ell parties of gamma votes each."""
    gamma = method.param
    _require(gamma > 0, "zero first divisor gives every party a free seat")
    return _rival_block(method, ell, seats, ell - 1 + gamma, gamma)


def _quota_boundary(method, scenario, ell, seats, eps):
    """W at ell-1+t against S+1-ell rivals of t votes, t on the rounding
    boundary of the quota."""
    t = Fraction(seats + 1 - ell + method.param, seats + 2 - ell)
    return _rival_block(method, ell, seats, ell - 1 + t, t)


def _equal_split(method, scenario, ell, seats, eps):
    """W splits evenly over its targets; everyone ties at the boundary.
    Each ballot names up to the cap's worth of names, one without a cap."""
    _require_harmonic(method)
    limit = method.spec.cap(method, seats) or 1
    rest = seats + 1 - ell
    u = min(limit, rest)
    v = min(limit, ell)
    targets = _names("A", ell)
    decoys = _names("B", rest)
    if scenario is ScenarioId.TACTIC:
        groups = [(Fraction(u), [targets[(i + j) % ell] for j in range(v)],
                   True) for i in range(ell)]
        groups += [(Fraction(v), [decoys[(i + j) % rest] for j in range(u)],
                    False) for i in range(rest)]
        value = Fraction(ell * u, ell * u + rest * v)
    else:
        _require(ell <= limit, "common list exceeds the ballot cap")
        groups = [(Fraction(u), targets, True)]
        groups += [(Fraction(1), [decoys[(i + j) % rest] for j in range(u)],
                    False) for i in range(rest)]
        value = Fraction(u, u + rest)
    profile = normalize(_profile(method.spec.ballot, groups, seats))
    return profile, targets, value


def _majority_tie(method, scenario, ell, seats, eps):
    """Two blocks of equal weight on disjoint lists; the larger list can
    sweep every seat."""
    targets = _names("A", ell)
    groups = [(Fraction(1), targets, True),
              (Fraction(1), _names("B", seats), False)]
    profile = _profile("set", groups, seats)
    return profile, targets, Fraction(1, 2)


def _ejr_window(method, scenario, ell, seats, eps):
    """W ballots add rotating decoy windows to the common target set; the
    decoys tie everywhere and can fill all seats."""
    cap = method.spec.cap(method, seats)
    if cap is not None:
        _require(2 * ell - 1 <= cap,
                 "window ballots exceed the cap; no construction known")
    window = seats if cap is None else min(cap, seats)
    targets = _names("A", ell)
    decoys = _names("D", seats)
    groups = []
    for i in range(seats):
        ballot = targets + [decoys[(i + j) % seats] for j in range(ell - 1)]
        groups.append((Fraction(window), ballot, True))
    for i in range(seats):
        ballot = [decoys[(i + j) % seats] for j in range(window)]
        groups.append((Fraction(seats + 1 - ell), ballot, False))
    profile = normalize(_profile("set", groups, seats))
    value = Fraction(window, window + seats + 1 - ell)
    return profile, targets, value


def _self_voting(method, scenario, ell, seats, eps):
    """A huge block spreads one split vote per member over its own list
    while each opponent keeps a whole vote; approaches fraction 1."""
    eps = _default_eps(eps)
    _require(0 < eps < 1, "eps must lie in (0, 1)")
    w = max(ell, -(-seats * (1 - eps) // eps))   # ceil(S(1-eps)/eps)
    w = int(w)
    # One name more than the block's weight: each listed name scores
    # w/(w+1) < 1, so the unit opponents win all seats outright.
    block = _names("A", w + 1)
    groups = [(Fraction(w), block, True)]
    groups += [(Fraction(1), ["B%d" % (k + 1)], False) for k in range(seats)]
    profile = _profile("set", groups, seats)
    target = (block if scenario in (ScenarioId.PARTY, ScenarioId.SAME)
              else block[:ell])
    return profile, target, Fraction(w, w + seats)


def _addition_lp_vertex(method, scenario, ell, seats, eps):
    """W holds 1/w_ell votes on its list; the adversary plays a vertex of
    the minimum-mass election program for the other S+1-ell seats."""
    if scenario in (ScenarioId.TACTIC, ScenarioId.EJR):
        _require(ell == 1, "only the one-seat value is known here")
    scheme = method.scheme
    wl = scheme.w(ell)
    _require(wl > 0, "zero list weight saturates the threshold at 1")
    n = seats + 1 - ell
    _require(n <= ALPHA_CAP,
             "vote-mass program capped at order %d" % ALPHA_CAP)
    outcome = solve_alpha(n, scheme)
    targets = _names("A", ell)
    decoys = _names("B", n)
    groups = [(1 / wl, targets, True)]
    for sigma, x in zip(subsets(n), outcome.point):
        if x > 0:
            groups.append((x, [decoys[i] for i in sigma], False))
    profile = _profile("set", groups, seats)
    value = (1 / wl) / (1 / wl + outcome.value)
    return profile, targets, value


def _cyclic_window_opt(method, scenario, ell, seats, eps):
    """One block on a single name against rotating k-windows sized to the
    best satisfaction-per-name ratio."""
    _require(ell == 1, "single-seat construction")
    scheme = method.scheme
    best = max(k * scheme.w(k) for k in range(1, seats + 1))
    _require(best > 0, "all weights vanish")
    star = next(k for k in range(1, seats + 1) if k * scheme.w(k) == best)
    decoys = _names("B", seats)
    groups = [(best, ["A1"], True)]
    groups += [(Fraction(1), [decoys[(i + j) % seats] for j in range(star)],
                False) for i in range(seats)]
    profile = normalize(_profile("set", groups, seats))
    return profile, ["A1"], best / (best + seats)


def _weight_floor(method, scenario, ell, seats, eps):
    """W holds 1/w_ell votes on its list against unit singletons; trading
    the last list seat for an extra singleton is satisfaction-neutral."""
    scheme = method.scheme
    wl = scheme.w(ell)
    if wl == 0:
        # Beyond the last positive weight extra list seats are worthless,
        # so every committee keeping the worthwhile prefix ties; the
        # saturated threshold 1 is attained with silent spare candidates.
        _require(ell >= 2, "the first weight is always positive")
        targets = _names("A", ell)
        spares = _names("B", seats - 1)
        profile = _profile("set", [(Fraction(1), targets, True)], seats,
                           extra=spares)
        return profile, targets, Fraction(1)
    return _rival_block(method, ell, seats, 1 / wl, Fraction(1))


def _elimination_trap(method, scenario, ell, seats, eps):
    """Decoy clusters keep W's candidate at minimum score until it is
    eliminated, after which the clusters collapse one name at a time."""
    _require(ell == 1, "single-seat construction")
    m = max(1, isqrt(seats))
    limit = Fraction(m, m * m + seats)

    def fraction_for(n):
        return Fraction(m * (n + 1), m * (m * n + 1) + (m + n) * seats)

    n = seats
    if eps is not None:
        eps = Fraction(eps)
        _require(eps > 0, "eps must be positive")
        while limit - fraction_for(n) > eps:
            n += 1
    groups = []
    for i in range(m):
        cluster = ["C%d_%d" % (i + 1, j + 1) for j in range(n)]
        groups.append((Fraction(n + 1), ["A"] + cluster, True))
        if m >= 2:
            groups += [(Fraction(m - 1), [name], False) for name in cluster]
    groups += [(Fraction(m + n), ["B%d" % (k + 1)], False)
               for k in range(seats)]
    profile = _profile("set", groups, seats)
    return profile, ["A"], fraction_for(n)


def _suffix_chain(method, scenario, ell, seats, eps):
    """Nested suffix lists weighted by the extremal mass sequence keep
    every next candidate at score exactly one."""
    n = seats + 1 - ell
    targets = _names("A", ell)
    decoys = _names("B", n)
    groups = []
    if scenario is ScenarioId.SAME:
        w_weight = Fraction(ell)
        groups.append((w_weight, targets, True))
    else:
        w_weight = seq_a(ell)
        groups += [(seq_b(i), targets[i - 1:], True)
                   for i in range(1, ell + 1)]
    groups += [(seq_b(i), decoys[i - 1:], False) for i in range(1, n + 1)]
    profile = _profile("list", groups, seats)
    return profile, targets, w_weight / (w_weight + seq_a(n))


def _rotated_start(method, scenario, ell, seats, eps):
    """Every W ballot opens with a fixed prefix and rotates the next name,
    so the late list positions split W's weight as finely as possible."""
    n = seats + 1 - ell
    k = (ell - 1) // 2
    c = Fraction(seq_c(ell))
    targets = _names("A", ell)
    groups = []
    for j in range(k, ell):
        rest = [targets[i] for i in range(k, ell) if i != j]
        ballot = targets[:k] + [targets[j]] + rest
        groups.append((c / (ell - k), ballot, True))
    decoys = _names("B", n)
    groups += [(seq_b(i), decoys[i - 1:], False) for i in range(1, n + 1)]
    profile = _profile("list", groups, seats)
    return profile, targets, c / (c + seq_a(n))


def _self_first_psc(method, scenario, ell, seats, eps):
    """Each W voter ranks a different own-side name first, splitting the
    top-position support; unit opponents with doubled weight sweep."""
    eps = _default_eps(eps)
    _require(0 < eps < 1, "eps must lie in (0, 1)")
    q = max(ell, int(-(-2 * seats * (1 - eps) // eps)))
    targets = _names("A", q)
    groups = [(Fraction(1), targets[i:] + targets[:i], True)
              for i in range(q)]
    groups += [(Fraction(2), ["B%d" % (k + 1)], False) for k in range(seats)]
    profile = _profile("list", groups, seats)
    return profile, targets, Fraction(q, q + 2 * seats)


def _positional_split(method, scenario, ell, seats, eps):
    """Both sides rotate their lists so every candidate earns the average
    positional weight; all S+1 candidates tie."""
    scheme = method.scheme
    n = seats + 1 - ell
    mean_l = scheme.psi(ell) / ell
    mean_n = scheme.psi(n) / n
    targets = _names("A", ell)
    decoys = _names("B", n)
    groups = [(mean_n / ell, targets[i:] + targets[:i], True)
              for i in range(ell)]
    groups += [(mean_l / n, decoys[i:] + decoys[:i], False)
               for i in range(n)]
    profile = normalize(_profile("list", groups, seats))
    return profile, targets, mean_n / (mean_n + mean_l)


def _positional_list(method, scenario, ell, seats, eps):
    """W keeps one common list, so its last name earns only w_ell per
    vote, while the adversary rotates for the average weight."""
    scheme = method.scheme
    n = seats + 1 - ell
    wl = scheme.w(ell)
    mean_n = scheme.psi(n) / n
    targets = _names("A", ell)
    decoys = _names("B", n)
    groups = [(mean_n, targets, True)]
    if wl > 0:
        groups += [(wl / n, decoys[i:] + decoys[:i], False)
                   for i in range(n)]
        profile = normalize(_profile("list", groups, seats))
    else:
        profile = _profile("list", groups, seats, extra=decoys)
    return profile, targets, mean_n / (mean_n + wl)


def _load_fixture(name: str) -> Profile:
    from .ballots import parse_profile
    text = resources.files(__package__).joinpath(
        "profiles", name).read_text(encoding="utf-8")
    return parse_profile(text)


_FIXTURE_WITNESSES = {
    # token: (file, method kind, scenario, ell, seats, target, fraction)
    "overlap-approvals": ("overlap_approvals_2409.profile", "phragmen-u",
                          "ejr", 2, 12, ("A", "B"), Fraction(409, 2409)),
    "vote-splitting": ("split_vote_1912.profile", "thiele-add", "same", 1, 3,
                       ("K", "L", "M"), Fraction(13, 50)),
    "ordered-majority-loss": ("ordered_majority_loss.profile", "thiele-o",
                              "same", 2, 3, ("A", "B", "C"),
                              Fraction(11, 20)),
    "ordered-tactic-split": ("ordered_tactic_after.profile", "thiele-o",
                             "same", 1, 2, ("C", "D"), Fraction(39, 100)),
}


def _fixture_witness(token):
    file_name, _, _, fix_ell, fix_seats, target, frac = \
        _FIXTURE_WITNESSES[token]

    def build(method, scenario, ell, seats, eps):
        _require((ell, seats) == (fix_ell, fix_seats),
                 "fixture parameters are ell=%d, S=%d"
                 % (fix_ell, fix_seats))
        return _load_fixture(file_name), target, frac

    return build


def _covers(kinds, scenarios=None) -> dict:
    """Coverage of the same scenarios (None: every one) for each kind."""
    return dict.fromkeys(kinds, scenarios)


# token -> (builder, {method kind: the scenarios it covers for that kind,
# None meaning every one}, or None for every kind and scenario).
# construct_witness() refuses any other pair; the builder(method,
# scenario, ell, seats, eps) returns (profile, target, fraction) or raises
# CoverageError where a condition on ell, eps, the parameter or the
# weights fails, and construct_witness() makes the Witness.
CATALOG: dict = {
    "divisor-extremes": (_divisor_extremes, _covers(("div",), ("party",))),
    "quota-boundary": (_quota_boundary, {
        "quota": ("party",), "stv": ("party", "same", "psc", "wpsc")}),
    "majority-tie": (_majority_tie, _covers(
        ("bv", "av"), ("party", "same", "tactic", "pjr"))),
    "ejr-window": (_ejr_window, _covers(("bv", "av", "lv"), ("ejr",))),
    "equal-split": (_equal_split, {
        **_covers(("sntv", "cvq", "stv", "phragmen-u", "phragmen-o",
                   "thiele-opt", "thiele-elim")),
        "lv": ("same", "pjr", "ejr", "tactic")}),
    "common-list-tie": (_common_list_tie, {
        **_covers((kind for kind, spec in REGISTRY.items() if spec.dhondt),
                  ("party",)),
        **_covers(("phragmen-u", "thiele-opt", "thiele-elim",
                   "phragmen-o"))}),
    "symmetric-parties": (_symmetric_parties, None),
    "addition-lp-vertex": (_addition_lp_vertex, _covers(
        ("thiele-add",), ("same", "pjr", "tactic", "ejr"))),
    "cyclic-window-opt": (_cyclic_window_opt, _covers(
        ("thiele-opt",), ("same", "pjr", "ejr"))),
    "weight-floor": (_weight_floor, _covers(
        ("thiele-opt",), ("same", "pjr", "ejr"))),
    "suffix-chain": (_suffix_chain, _covers(("thiele-o",),
                                            ("same", "tactic"))),
    "rotated-start": (_rotated_start, _covers(("thiele-o",), ("wpsc",))),
    "positional-split": (_positional_split, _covers(("borda",),
                                                    ("tactic",))),
    "positional-list": (_positional_list, _covers(("borda",),
                                                  ("same", "wpsc"))),
    "self-voting": (_self_voting, _covers(
        ("cvq",), ("party", "same", "pjr", "ejr"))),
    "elimination-trap": (_elimination_trap, _covers(("thiele-elim",),
                                                    ("pjr", "ejr"))),
    "self-first-psc": (_self_first_psc, _covers(("phragmen-o", "thiele-o"),
                                                ("psc",))),
    **{token: (_fixture_witness(token), _covers((kind,), (scenario,)))
       for token, (_, kind, scenario, *_) in _FIXTURE_WITNESSES.items()},
}


def _coverage_text(coverage) -> str:
    """A row's coverage as text, naming together the kinds that share
    their scenarios: "bv, av under party, same; lv under ejr"."""
    shared: dict = {}
    for kind, scenarios in coverage.items():
        shared.setdefault(scenarios, []).append(kind)
    return "; ".join("%s under %s" % (
        ", ".join(kinds),
        "every scenario" if scenarios is None else ", ".join(scenarios))
        for scenarios, kinds in shared.items())


def construct_witness(token: str, method: MethodId, scenario, ell: int,
                      seats: int, eps=None) -> Witness:
    """Rebuild the named extremal construction as a concrete Witness."""
    if token not in CATALOG:
        raise ValueError("unknown construction token %r (choose from %s)"
                         % (token, ", ".join(sorted(CATALOG))))
    if not 1 <= ell <= seats:
        raise ValueError("need 1 <= ell <= seats")
    scenario = ScenarioId(scenario)
    build, coverage = CATALOG[token]
    if coverage is not None and (
            method.kind not in coverage
            or coverage[method.kind] is not None
            and scenario.value not in coverage[method.kind]):
        raise CoverageError("%s covers %s; not %s under %s"
                            % (token, _coverage_text(coverage),
                               method.label(), scenario.value))
    profile, target, claimed = build(method, scenario, ell, seats, eps)
    return Witness(ScenarioInstance(profile, target, ell, scenario), claimed,
                   token)


def covering_token(method: MethodId, scenario, ell: int,
                   seats: int) -> Optional[str]:
    """A catalog token whose witness attains the exact threshold, if any."""
    entry = _entry_or_none(method, scenario, ell, seats)
    if entry is None or not (entry.is_exact and entry.kind == PI):
        return None
    for token in CATALOG:
        try:
            witness = construct_witness(token, method, scenario, ell, seats)
        except (CoverageError, ValueError, ProfileError):
            continue
        if witness.claimed_fraction == entry.value:
            return token
    return None


# ---------------------------------------------------------------------------
# Bounded brute-force search


@dataclass(frozen=True)
class SearchSpec:
    """Bounds for the brute-force enumeration of unit-ballot profiles."""

    max_candidates: int = 5
    weight_grid: int = 5            # largest total number of unit ballots
    max_ballot_groups: int = 8
    max_ballot_length: int = 3
    branch_cap: int = DEFAULT_BRANCH_CAP

    def __post_init__(self):
        for name in ("max_candidates", "weight_grid", "max_ballot_groups",
                     "max_ballot_length", "branch_cap"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        if self.weight_grid < 2:
            raise ValueError("weight_grid must be at least 2: a grid of "
                             "one ballot holds no instance")


# The audit's search spec: smaller than the defaults, so that the search
# over every pi-exact cell at S <= 3 stays affordable.
AUDIT_SPEC = SearchSpec(max_candidates=4, weight_grid=4)


@lru_cache(maxsize=None)
def _fraction_ladder(grid: int) -> tuple:
    """(fraction, total, w_count) triples, largest fraction first."""
    return tuple(sorted(
        ((Fraction(w_count, total), total, w_count)
         for total in range(2, grid + 1) for w_count in range(1, total)),
        key=lambda item: (-item[0], item[1], item[2])))


def _ballot_options(method: MethodId, pool: Sequence[str], spec: SearchSpec,
                    seats: int) -> list:
    """All ballots over `pool` the method accepts, in sorted order."""
    cap = method.spec.cap(method, seats)
    longest = spec.max_ballot_length if cap is None else min(
        spec.max_ballot_length, cap)
    options = []
    if method.spec.ballot == "set":
        for size in range(1, longest + 1):
            options.extend(frozenset(combo)
                           for combo in combinations(sorted(pool), size))
        return sorted(options, key=sorted)
    for size in range(1, longest + 1):
        options.extend(permutations(sorted(pool), size))
    return sorted(options)


def _w_options(method: MethodId, scenario: ScenarioId, targets, decoys,
               spec: SearchSpec, seats: int) -> list:
    """Ballots W members may cast under the scenario's restriction, on a
    scenario the method's ballot kind can express.  Outside tactic, W's
    ballots must name all ell targets; a set-ballot cap below ell raises
    CoverageError."""
    cap = method.spec.cap(method, seats)
    ell = len(targets)
    if scenario is ScenarioId.TACTIC:
        return _ballot_options(method, list(targets) + list(decoys), spec,
                               seats)
    if method.spec.ballot == "set":
        if cap is not None and ell > cap:
            raise CoverageError(
                "the %s ballot cap %d is below ell = %d: W cannot name all "
                "its targets under %s"
                % (method.label(), cap, ell, scenario.value))
        if scenario in (ScenarioId.PARTY, ScenarioId.SAME):
            return [frozenset(targets)]
        base = frozenset(targets)               # pjr, ejr
        # The tactic ballots naming every target, and base, which they
        # lack when ell exceeds max_ballot_length.
        tactic = _ballot_options(method, list(targets) + list(decoys), spec,
                                 seats)
        return sorted({base}.union(option for option in tactic
                                   if base <= option), key=sorted)
    if scenario in (ScenarioId.PARTY, ScenarioId.SAME):
        return [tuple(targets)]
    return sorted(permutations(targets))        # psc, wpsc


def _party_strategies(ell, seats, spec):
    """W's one strategy, a party of its own, and the adversary's answers:
    the orbit firsts of one 1-name ballot per rival party, P1^v1 P2^v2 ...
    with v1 >= v2 >= ..., the partitions of the other votes into at most
    max_candidates - 1 parts in reverse lexicographic order."""
    parties = tuple((name,) for name in _names("P", spec.max_candidates - 1))

    def answers(total, w_votes):
        for counts in copy(_orbit_firsts(parties, total - w_votes, (),
                                         False)):
            groups = [(w_votes, "W", True)]
            groups += [(votes, name, False) for (name,), votes in counts]
            yield ScenarioInstance(_profile("party", groups, seats), {"W"},
                                   ell, ScenarioId.PARTY)

    return lambda total, w_votes: [answers(total, w_votes)]


def _canonical_form(counts, cells: tuple, ordered: bool) -> str:
    """A key for a multiset of (ballot, count) pairs that two multisets
    share iff a renaming of the names within each cell of the ordered
    partition `cells` carries one onto the other; the names in no cell
    form one more cell, after the others.

    Each name is labelled by its place in the order of (cell, incidence
    signature), a cell's names counted from the cell's offset, the sum of
    the sizes of the cells before it; the key is the least relabelled
    multiset over the orders of names whose signatures tie.  A renaming
    carries signatures along, so it leaves the set of relabellings, and
    with it the key, unchanged; and a label tells its name's cell, so an
    equal key gives a renaming within the cells.  Permuting only tied
    names keeps large pools cheap, where the renamings number the product
    of the cells' factorials.
    """
    marks: dict = {}
    for ballot, count in counts:
        size = len(ballot)
        for pos, name in enumerate(ballot):
            marks.setdefault(name, []).append(
                (count, size, pos if ordered else 0))
    where = {name: i for i, cell in enumerate(cells) for name in cell}
    rest = len(cells)
    tied: dict = {}         # (cell, signature) -> the names that carry it
    for name, found in marks.items():
        found.sort()
        tied.setdefault((where.get(name, rest), tuple(found)), []).append(
            name)
    offsets = [0]
    for cell in cells:
        offsets.append(offsets[-1] + len(cell))
    ranked, slots = [], []
    for signature in sorted(tied):
        names = tied[signature]
        ranked.append(names)
        first = offsets[signature[0]]
        slots.extend(range(first, first + len(names)))
        offsets[signature[0]] += len(names)

    def image(names):
        label = dict(zip(names, slots))
        if ordered:
            return sorted([(count, tuple([label[name] for name in ballot]))
                           for ballot, count in counts])
        return sorted([(count, tuple(sorted([label[name] for name in ballot])))
                       for ballot, count in counts])

    # As text, a met key takes a quarter of the memory.
    if len(ranked) == len(marks):       # no two signatures tie
        return repr(image([names[0] for names in ranked]))
    return repr(min(image(chain.from_iterable(choice)) for choice in
                    product(*(permutations(names) for names in ranked))))


def _renamed(ballot, swap: dict):
    """The ballot with each name the swap moves replaced."""
    return type(ballot)([swap.get(name, name) for name in ballot])


def _cells(counts, names) -> tuple:
    """The `names` grouped into the classes of "swapping these two keeps
    the multiset `counts` of (ballot, count) pairs", each class in the
    order of `names`, the classes in the order of their first members.

    The relation is an equivalence, since (x y)(y z)(x y) = (x z); so
    each name is tried only against each class's first member, and the
    renamings within the classes, each of which keeps the multiset, are
    exactly the group that the kept swaps generate.
    """
    kept = set(counts)
    classes: list = []
    for name in names:
        for cls in classes:
            swap = {cls[0]: name, name: cls[0]}
            if all((_renamed(ballot, swap), count) in kept
                   for ballot, count in counts):
                cls.append(name)
                break
        else:
            classes.append([name])
    return tuple(frozenset(cls) for cls in classes)


@lru_cache(maxsize=512)
def _orbit_firsts(options: tuple, size: int, cells: tuple, ordered: bool):
    """The first multiset of each orbit among the sorted multisets of
    `size` options, as ((ballot, count), ...) tuples in
    combinations_with_replacement order, under renaming the names within
    each cell of `cells` (the names in no cell form one more cell): a
    lazily filled sequence, shared by every search in the process and
    read through copy().

    The fill is orderly.  The options must be closed under the renamings
    (the names they use of each cell, and of the rest, form one class of
    _cells), or ValueError is raised: a renaming then permutes the option
    indices, and in combinations_with_replacement order the first member
    of an orbit has the first member of its prefix's orbit as its prefix
    (if a renaming put the prefix earlier, it would put the whole
    multiset earlier).  So level `size` extends only the firsts of level
    size - 1, each by the options at or after its last one, and keys just
    those.

    There is one entry per (options, size, cells, ordered) met, each
    holding its firsts and the keys it has met, and at most 512 entries,
    the least recently used evicted first: more than the audit's search
    or a search at the SearchSpec defaults meets, so neither evicts, and
    a long process searching many grids keeps a bounded cache.  Eviction
    changes no answer: a reader's copy() keeps its own buffer, and an
    entry built again yields the same sequence.
    """
    if size == 0:
        return tee([()], 1)[0]
    once = tuple((option, 1) for option in options)
    named = set().union(*options)
    for part in ([named.intersection(cell) for cell in cells]
                 + [named.difference(*cells)]):
        classes = _cells(once, sorted(part))
        if len(classes) > 1:
            raise ValueError("ballot options are not closed under renaming "
                             "%s and %s" % (min(classes[0]), min(classes[1])))
    index = {option: i for i, option in enumerate(options)}

    def firsts():
        met: set = set()
        for prefix in copy(_orbit_firsts(options, size - 1, cells, ordered)):
            last = index[prefix[-1][0]] if prefix else 0
            for i in range(last, len(options)):
                if prefix and i == last:
                    counts = prefix[:-1] + ((options[i], prefix[-1][1] + 1),)
                else:
                    counts = prefix + ((options[i], 1),)
                key = _canonical_form(counts, cells, ordered)
                if key not in met:
                    met.add(key)
                    yield counts

    return tee(firsts(), 1)[0]


def _ballot_strategies(method, scenario, ell, seats, spec):
    """W's strategies, each a multiset of the ballots the scenario lets W
    cast, and per strategy the adversary's answers: every multiset of
    ballots over the decoys that keeps the profile a scenario instance.

    Both come from the process-wide _orbit_firsts, the first of each
    orbit under renaming within the cells that _cells finds;
    search_lower_bound says why that decides the rest.  W's strategies
    are the orbits under renaming the decoys among themselves and the
    targets within the classes whose swaps keep W's ballot options: one
    class, but one per target for the single list of party and same on
    list ballots.  The answers to a strategy are the orbits under
    renaming within the classes of decoys whose swaps keep W's groups;
    such a renaming R fixes W, so it carries W + X onto W + R(X).  A
    renaming that fixes W only together with one of the targets, as
    (A1 A2)(B1 B2) fixes {A1, B1} + {A2, B2}, is not among them, so such
    a strategy may meet two answers of one orbit.  Both option sets are
    closed under the renamings: the adversary may cast every ballot over
    the decoys, and W every ballot the scenario allows.  Per call, each
    strategy's decoy cells are found once, and each (count, ballot, in_w)
    group becomes a WeightedBallot once.
    """
    pool_size = max(spec.max_candidates, seats)
    targets = tuple(_names("A", ell))
    decoys = tuple(_names("B", pool_size - ell))
    universe = targets + decoys
    target = frozenset(targets)
    kind = method.spec.ballot
    ordered = kind == "list"
    adv_options = tuple(_ballot_options(method, decoys, spec, seats))
    require_kind(scenario, kind)
    w_options = tuple(_w_options(method, scenario, targets, decoys, spec,
                                 seats))
    w_cells = _cells([(option, 1) for option in w_options], targets)
    content = _CONTENT[kind]
    built: dict = {}        # (count, ballot, in_w) -> its WeightedBallot
    decoy_cells: dict = {}  # W's strategy -> _cells(strategy, decoys)

    def instance(groups):
        ballots = []
        for group in groups:
            ballot = built.get(group)
            if ballot is None:
                count, names, in_w = group
                ballot = built[group] = WeightedBallot(content(names), count,
                                                       in_w)
            ballots.append(ballot)
        return ScenarioInstance(Profile(ballots, seats, universe), target,
                                ell, scenario)

    def answers(counts_w, adv_votes):
        cells = decoy_cells.get(counts_w)
        if cells is None:
            cells = decoy_cells[counts_w] = _cells(counts_w, decoys)
        w_groups = [(count, ballot, True) for ballot, count in counts_w]
        room = spec.max_ballot_groups - len(counts_w)
        for counts_adv in copy(_orbit_firsts(adv_options, adv_votes, cells,
                                             ordered)):
            if len(counts_adv) > room:
                # The cap counts distinct ballots, which a renaming keeps,
                # so it drops whole orbits.
                continue
            inst = instance(w_groups + [(count, ballot, False)
                                        for ballot, count in counts_adv])
            if is_instance(inst):
                yield inst

    def strategies(total, w_votes):
        for counts_w in copy(_orbit_firsts(w_options, w_votes, w_cells,
                                           ordered)):
            yield answers(counts_w, total - w_votes)

    return strategies


def _search_bad(method, inst, spec) -> bool:
    """The badness test as the search counts it: an engine refusal
    (AdamsIllDefined) or a truncated count that lists no bad committee
    (IndeterminateOutcome) counts as not bad, here only; any other error
    propagates.  The count is a goal count, and a decided verdict is the
    truth about the instance: a bad one lists a reachable bad committee,
    and a good one comes from a count that cut no round (see
    `unordered.branch`).  So it carries over to every renaming
    of the instance that fixes the target set: the engines are
    tie-complete, so renaming candidates renames the outcome set.  A
    renaming may be decided where the instance was not, which can only
    weaken the bound."""
    try:
        return _is_bad(method, inst, spec.branch_cap)
    except (AdamsIllDefined, IndeterminateOutcome):
        return False


def search_lower_bound(method: MethodId, scenario, ell: int, seats: int,
                       spec: Optional[SearchSpec] = None):
    """Best (largest) W-fraction with a reachable bad outcome in the grid.

    Returns (fraction, witness); (0, None) if no bad instance was found.
    A scenario the method's ballots cannot express (set ballots under
    psc/wpsc, list ballots under pjr/ejr) raises ScenarioTypeError, and a
    set-ballot cap below ell outside tactic raises CoverageError, before
    anything is enumerated.
    Fractions are tried largest first.  For the tactic scenario a fraction
    counts as bad only when every enumerated W strategy admits some
    adversary profile with a bad outcome, and the witness answers the
    first strategy; elsewhere the first bad instance is the witness.
    Outside tactic the enumeration bounds make the result a lower bound on
    the true threshold, with a witness that replays.  A tactic value is
    not a certified lower bound: it means that no W strategy in the grid
    guarantees ell.  A real W can play strategies the grid lacks (unit
    ballots cannot split 3/4 into 3/8 + 3/8), and the witness replays
    only the answer to the first strategy, not the "every strategy" part.
    Each instance is decided by a goal count (`_is_bad`), which stops at
    the first round state that must end bad and drops the states that
    must end good; its verdict is the full count's wherever that one is
    decided.  A count the branch cap truncates is bad when it lists a
    bad committee and not bad when it does not (see _search_bad).

    Instances are decided up to renaming the targets among themselves
    and the decoys among themselves: such a renaming keeps the target
    set, and _search_bad gives every instance of one orbit the same
    verdict.  A later member of a decided orbit is skipped where
    _ballot_strategies finds the renaming, and so is a W strategy whose
    orbit was met before at this fraction.  Either is
    already known not to change the result: an answer met again was not
    bad, or the loop would have left the strategy; a strategy met again
    had a bad answer in the tactic case and none elsewhere.  The first bad
    instance in the search order is the first of its orbit, so whenever
    no count is truncated the fraction and the witness are those of the
    exhaustive loop.  The orbits are cached per process and read in the
    same order either way, so no result depends on earlier searches.
    """
    scenario = ScenarioId(scenario)
    if not 1 <= ell <= seats:
        raise ValueError("need 1 <= ell <= seats")
    if spec is None:
        spec = SearchSpec()
    if method.spec.ballot == "party":
        if scenario is not ScenarioId.PARTY:
            raise CoverageError("apportionment methods use the party scenario")
        strategies = _party_strategies(ell, seats, spec)
    else:
        # Refuse an engine-less method (cv) before anything is
        # enumerated; a cell with no instance would otherwise answer 0.
        _require_engine(method)
        strategies = _ballot_strategies(method, scenario, ell, seats, spec)
    tactic = scenario is ScenarioId.TACTIC
    for fraction, total, w_votes in _fraction_ladder(spec.weight_grid):
        first = None
        for answers in strategies(total, w_votes):
            bad = next((inst for inst in answers
                        if _search_bad(method, inst, spec)), None)
            if bad is None:
                if tactic:          # a strategy no answer beats
                    first = None
                    break
            elif not tactic:
                first = bad
                break
            elif first is None:
                first = bad
        if first is not None:
            return fraction, Witness(first, fraction, "search")
    return Fraction(0), None


# ---------------------------------------------------------------------------
# Inequality audit


@dataclass(frozen=True, slots=True)
class AuditCheck:
    name: str
    subject: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> list:
        return [check for check in self.checks if not check.ok]


def default_scope() -> list:
    """The method/scenario pairs the audit covers by default: every
    registry kind, at each parameter its record is audited at."""
    methods = [MethodId(kind, param) for kind, spec in REGISTRY.items()
               for param in spec.audited]
    return [(m, sc) for m in methods for sc in ScenarioId]


def _entry_or_none(method, scenario, ell, seats):
    """The cell's entry; None if threshold() refuses it or it has no bound."""
    try:
        entry = threshold(method, scenario, ell, seats)
    except (CoverageError, ValueError):
        return None
    return None if entry.lo is None and entry.hi is None else entry


_CHAINS = {     # lower: (higher, ell shift) rows, lo(lower) <= hi(higher)
    ScenarioId.PARTY: ((ScenarioId.SAME, 0), (ScenarioId.PARTY, 1)),
    ScenarioId.SAME: ((ScenarioId.PJR, 0), (ScenarioId.WPSC, 0),
                      (ScenarioId.SAME, 1)),
    ScenarioId.PJR: ((ScenarioId.EJR, 0),),
    ScenarioId.WPSC: ((ScenarioId.PSC, 0),),
    ScenarioId.TACTIC: ((ScenarioId.SAME, 0), (ScenarioId.TACTIC, 1)),
}


def audit_table(scope: Optional[list] = None, smax: int = 5,
                spec: Optional[SearchSpec] = None,
                with_search: bool = False) -> AuditReport:
    """Machine-check the inequality families over the scope.

    Every in-scope entry at S <= smax with a lo or a hi is looked up once,
    into one table keyed (method, scenario, ell, S).  Each family is one
    loop over the table, in turn, and all but the search compare a lo with
    a hi (an exact entry has lo = hi): the `_CHAINS` rows, each bound of
    `generic_bounds(ell, S)` on the pi entries, and tactic subadditivity,
    lo(ell_a + ell_b) <= hi(ell_a) + hi(ell_b).  With with_search=True,
    search_lower_bound probes the exact pi entries at S <= 3: it must not
    exceed the threshold, and must attain it when a catalog witness covers
    the cell inside the search grid.  A pair listed twice is checked once,
    a cell whose search is its twin's (`_search_twin`) is searched once,
    and an smax below 1, which would check nothing, is refused.

    A shifted row checks pi(ell-1, S) <= pi(ell, S) between entries of one
    kind: a W that can be denied ell-1 seats can be denied ell.  Under
    tactic, add a name to the targets: whatever W's strategy, the answer
    that seats at most ell-2 old targets seats at most ell-1 new ones.
    Under party and same, seating at most ell-2 of W's list seats fewer
    than ell; a list of ell-1 names gains a name only W lists (last, if
    ordered), with no more support than W's unseated name, so the bad
    outcome stays reachable.  bv ejr has pi(2, 3) = 3/5 > pi(3, 3) = 1/2,
    so pjr, ejr, psc and wpsc have no shifted row.
    """
    if smax < 1:
        raise ValueError("smax must be >= 1")
    if scope is None:
        scope = default_scope()
    if spec is None:
        spec = AUDIT_SPEC
    pairs = dict.fromkeys((m, ScenarioId(sc)) for m, sc in scope)
    label = {m: m.label() for m, _ in pairs}
    cells = ((m, sc, ell, seats) for m, sc in pairs
             for seats in range(1, smax + 1) for ell in range(1, seats + 1))
    table = {cell: entry for cell in cells
             if (entry := _entry_or_none(*cell)) is not None}
    checks: list = []

    def check(name, subject, ok, fmt, *args):
        """Record a check; repeated names and subjects share one string."""
        checks.append(AuditCheck(intern(name), intern(subject), ok,
                                 "" if ok else fmt % args))

    def side(cell, name, kind=None):
        """The cell's lo or hi, if it has an entry (of that kind)."""
        entry = table.get(cell)
        ok = entry is not None and kind in (None, entry.kind)
        return getattr(entry, name) if ok else None

    for (method, sc, ell, seats), low in table.items():
        for high_sc, shift in _CHAINS.get(sc, ()):
            hi = side((method, high_sc, ell + shift, seats), "hi",
                      low.kind if shift else None)
            if low.lo is not None and hi is not None:
                check("monotone %s" % sc.value if shift
                      else "chain %s<=%s" % (sc.value, high_sc.value),
                      "%s ell=%d S=%d" % (label[method], ell + shift, seats),
                      low.lo <= hi, "%s > %s", low.lo, hi)
    for (method, sc, ell, seats), entry in table.items():
        if entry.kind != PI or entry.hi is None:
            continue
        hi, subject = entry.hi, "%s ell=%d S=%d" % (label[method], ell, seats)
        for bound in generic_bounds(ell, seats):
            name = "%s %s" % (bound.name, sc.value)
            if bound.partner is None:
                check(name, subject, hi >= bound.value, "%s < %s",
                      hi, bound.value)
                continue
            other = side((method, sc, bound.partner, seats), "hi", PI)
            if other is not None:
                check(name, subject, hi + other >= 1, "%s + %s < 1", hi, other)
    for (method, sc, ell_a, seats), a in table.items():
        tactic = sc is ScenarioId.TACTIC and a.hi is not None
        for ell_b in range(1, seats + 1 - ell_a) if tactic else ():
            b = side((method, sc, ell_b, seats), "hi")
            both = side((method, sc, ell_a + ell_b, seats), "lo")
            if b is not None and both is not None:
                check("tactic subadditive",
                      "%s S=%d %d+%d" % (label[method], seats, ell_a, ell_b),
                      both <= a.hi + b, "%s > %s + %s", both, a.hi, b)
    searched: dict = {}     # search cell -> its best fraction, None if refused
    for (method, sc, ell, seats), entry in table.items():
        value = entry.value if entry.is_exact and entry.kind == PI else None
        if not with_search or seats > 3 or value is None:
            continue
        key = (method, _search_twin(sc, ell), ell, seats)
        if key not in searched:
            try:
                searched[key] = search_lower_bound(method, sc, ell, seats,
                                                   spec)[0]
            except CoverageError:
                searched[key] = None
        found = searched[key]
        if found is None:
            continue
        subject = "%s %s ell=%d S=%d" % (label[method], sc.value, ell, seats)
        check("search<=threshold", subject, found <= value,
              "%s > %s", found, value)
        token = covering_token(method, sc, ell, seats)
        if token is not None and _witness_in_grid(
                construct_witness(token, method, sc, ell, seats), spec):
            check("search=threshold", subject, found == value,
                  "found %s, expected %s (via %s)", found, value, token)
    return AuditReport(tuple(checks))


def _search_twin(scenario: ScenarioId, ell: int) -> ScenarioId:
    """The scenario whose search_lower_bound is this one's, step by step.

    ejr at ell = 1 is pjr at ell = 1, and wpsc is psc.  The twins are
    searched over the same W options (_w_options shares their branch), the
    same kind check and cells, and the same is_instance branch: for psc
    and wpsc its extra |A| = ell test always holds, since the search's
    target set has exactly ell names.  Their good-outcome tests agree on
    every committee: at ell = 1 "some W ballot has a name elected" (ejr)
    is "the union of W's ballots has a name elected" (pjr); and with
    |A| = ell, "ell of A are elected" (psc) is "all of A is elected"
    (wpsc).  So every instance gets the same verdict, the search makes
    the same engine calls in the same order, and both return the same
    fraction and a witness with the same profile and target set.
    """
    if scenario is ScenarioId.EJR and ell == 1:
        return ScenarioId.PJR
    if scenario is ScenarioId.WPSC:
        return ScenarioId.PSC
    return scenario


def _witness_in_grid(witness: Witness, spec: SearchSpec) -> bool:
    """Is the witness profile representable as unit ballots in the grid?"""
    profile = witness.instance.profile
    return (profile.total_weight <= spec.weight_grid
            and len(profile.candidates) <= max(spec.max_candidates,
                                               profile.seats)
            and len(profile.ballots) <= spec.max_ballot_groups
            and all(b.weight.denominator == 1
                    and len(b.content.names()) <= spec.max_ballot_length
                    for b in profile.ballots))
