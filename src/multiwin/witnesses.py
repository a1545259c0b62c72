"""Extremal witnesses: engine dispatch, replay, and the catalog.

A Witness packages a concrete scenario instance whose profile provably
admits a bad outcome at the claimed vote fraction.  construct_witness()
rebuilds the extremal instances behind each threshold from a catalog of
named constructions; verify_witness() re-runs the election method and
confirms a bad committee is reachable.  The replay and the search decide
badness with one test, _is_bad(), which runs the engine as a goal count
(`unordered.branch`): it stops at the first round state that must end
bad and drops the states that must end good, and answers from that
verdict without listing a committee.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import isqrt

from .ballots import (DEFAULT_BRANCH_CAP, ListBallot, OutcomeSet, PartyBallot,
                      Profile, ProfileError, SetBallot, WeightedBallot,
                      normalize)
from .scenarios import (ScenarioId, ScenarioInstance, check_ell,
                        is_bad_outcome_possible, is_instance)
from .sequences import ALPHA_CAP, seq_a, seq_b, seq_c, solve_alpha, subsets
from .thresholds import REGISTRY, CoverageError, MethodId


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
    a scenario's goal pairs the engine's goal count: a set that holds
    whether a bad committee is reachable and lists committees that
    decide it only when they are read (`unordered.branch`)."""
    spec = method.spec
    if spec.ballot == "party":
        raise CoverageError(
            "%s apportions seats to parties; use the apportion command "
            "(party_seat_vectors)" % method.kind)
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
    answers as the full count wherever that is decided; the answer is
    read from its verdict, so no committee is listed.
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
    eps = Fraction(1, 20) if eps is None else Fraction(eps)
    _require(0 < eps < 1, "eps must lie in (0, 1)")
    return eps


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
    check_ell(ell, seats)
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
