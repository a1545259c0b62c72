"""Proportionality thresholds pi(ell, S) for every covered method/scenario.

threshold() computes, at query time and in exact rational arithmetic, the
largest vote fraction for which the designated voter group W can still be
denied ell of S seats under the given method and scenario.  Values carry a
kind (pi for the plain supremum, pihat for the large-electorate limit form),
a status (exact, proved bound, conjectured, or unknown with partial
bounds), and an optional attainment side: "plus" means a bad outcome
exists at exactly the threshold fraction, "minus" means it does not.

generic_bounds() lists the method-independent constraints, the one place
they are stated: the audit checks every pi entry against them.
criterion_check() evaluates classical representation criteria (JR, PJR,
EJR, DPC, strong and weak PSC floors) as threshold inequalities.
table_grid() regenerates the named reference grids.

REGISTRY holds one MethodKind record per method kind: its ballot kind,
parameter, weight-scheme flag, counting engine, threshold handler, ballot
cap and whether it elects as D'Hondt on party lists.  The five score
rules share one engine, and each entry supplies the rule's ballot cap
and, for cvq, its split credit.  Adding a method means adding one
registry entry; MethodId (built as MethodId(kind, param, scheme=...) or
parsed from its label), threshold(), witnesses.run_method, the search,
the witness builders and the CLI all read the record.  A witness
construction that covers the new kind also lists it in its
witnesses.CATALOG row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .ballots import CoverageError, WeightScheme
from .numerics import parse_rational, split_arg
from .ordered import (BordaWeights, StvSpec, borda_count, phragmen_ordered,
                      stv_count, thiele_ordered)
from .party import DivisorSpec, QuotaSpec, divisor_apportion, quota_apportion
from .scenarios import ScenarioId, check_ell
from .sequences import ALPHA_CAP, alpha, seq_a, seq_b, seq_c
from .unordered import (phragmen_unordered, score_family_count,
                        thiele_addition, thiele_elimination, thiele_optimize)

PI = "pi"
PIHAT = "pihat"

PLUS = "plus"
MINUS = "minus"
UNSPECIFIED = "unspecified"

EXACT = "exact"
LOWER_BOUND = "lower_bound"
INTERVAL = "interval"
CONJECTURED = "conjectured"
UNKNOWN = "unknown"

@dataclass(frozen=True)
class MethodId:
    """Identifier of an election method, with its parameter if any."""

    kind: str
    param: Optional[Fraction] = None      # gamma, delta, or the LV limit
    scheme: Optional[WeightScheme] = None

    def __post_init__(self):
        if self.kind not in REGISTRY:
            raise ValueError("unknown method kind %r" % self.kind)
        spec = self.spec
        if spec.param is not None:
            if self.param is None:
                raise ValueError("%s requires a parameter" % self.kind)
            object.__setattr__(self, "param", Fraction(self.param))
            if spec.param == "limit":
                if self.param.denominator != 1 or self.param < 1:
                    raise ValueError("limited vote needs an integer limit >= 1")
            elif not 0 <= self.param <= 1:
                raise ValueError("parameter must lie in [0, 1]")
        elif self.param is not None:
            raise ValueError("%s takes no numeric parameter" % self.kind)
        if spec.scheme:
            if self.scheme is None:
                object.__setattr__(self, "scheme", WeightScheme.harmonic())
        elif self.scheme is not None:
            raise ValueError("%s takes no weight scheme" % self.kind)
        # The generated hash, computed once: audit tables key on MethodIds,
        # and rehashing a Fraction parameter runs Python code each time.
        object.__setattr__(self, "_hash",
                           hash((self.kind, self.param, self.scheme)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__, so a copy or an unpickled MethodId
        # hashes under its own process's string hash seed.
        return MethodId, (self.kind, self.param, self.scheme)

    @property
    def spec(self) -> "MethodKind":
        """The registry record of this method's kind."""
        return REGISTRY[self.kind]

    # -- text form --------------------------------------------------------
    def label(self) -> str:
        if self.spec.param is not None:
            return "%s:%s" % (self.kind, self.param)
        if self.spec.scheme and self.scheme.kind != "harmonic":
            return "%s:%s" % (self.kind, self.scheme.label())
        return self.kind

    @staticmethod
    def parse(text: str) -> "MethodId":
        """The method a label names; "stv" alone means stv:1.  A colon with
        nothing after it is refused, and a parameter is a "p/q" rational."""
        kind, arg = split_arg(text)
        kind = kind.strip().lower()
        if kind not in REGISTRY:
            raise ValueError("unknown method %r" % text)
        if REGISTRY[kind].param is not None:
            if not arg and kind != "stv":
                raise ValueError("%s requires a parameter, e.g. %s:1" % (kind, kind))
            return MethodId(kind, parse_rational(arg or "1"))
        if REGISTRY[kind].scheme:
            return MethodId(kind, scheme=WeightScheme.parse(arg))
        if arg:
            raise ValueError("%s takes no parameter" % kind)
        return MethodId(kind)


@dataclass(frozen=True)
class ThresholdValue:
    """A threshold with its precision and provenance metadata.

    For status exact/conjectured, value is the (claimed) threshold.  For
    lower_bound, value is the bound itself.  For interval and
    unknown, value is None and lo/hi carry whatever is proved.  lo and hi
    always bracket the true threshold.
    """

    value: Optional[Fraction]
    kind: str = PI
    side: str = UNSPECIFIED
    status: str = EXACT
    source: str = ""
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    note: str = ""

    def __post_init__(self):
        if self.value is not None:
            if type(self.value) is not Fraction:
                object.__setattr__(self, "value", Fraction(self.value))
            if not 0 <= self.value <= 1:
                raise ValueError("threshold must lie in [0, 1]")
        if self.status == EXACT:
            object.__setattr__(self, "lo", self.value)
            object.__setattr__(self, "hi", self.value)
        elif self.status == LOWER_BOUND and self.lo is None:
            object.__setattr__(self, "lo", self.value)
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError("lower bound exceeds upper bound")

    @property
    def is_exact(self) -> bool:
        return self.status == EXACT


def _exact(value, kind=PI, side=UNSPECIFIED, source="", note="") -> ThresholdValue:
    return ThresholdValue(value, kind, side, EXACT, source, note=note)


def _optimal(ell, seats, kind=PI, source="dhondt-reduction"):
    return _exact(Fraction(ell, seats + 1), kind=kind, source=source)


def _unknown(kind=PI, source="", lo=None, hi=None, note="") -> ThresholdValue:
    return ThresholdValue(None, kind, UNSPECIFIED, UNKNOWN, source,
                          lo=lo, hi=hi, note=note)


def threshold(method: MethodId, scenario, ell: int, seats: int) -> ThresholdValue:
    """The proportionality threshold for (method, scenario, ell, seats)."""
    check_ell(ell, seats)
    scenario = ScenarioId(scenario)
    if (scenario is ScenarioId.PARTY and method.spec.dhondt
            and (method.scheme is None or method.scheme.kind == "harmonic")):
        return _optimal(ell, seats)
    result = method.spec.threshold(method, scenario, ell, seats)
    if result is None:
        return _unknown(source="no-result",
                        note="no proved value for %s under %s"
                        % (method.label(), scenario.value))
    return result


# ---------------------------------------------------------------------------
# Party-ballot apportionment methods


def _div_threshold(method, scenario, ell, seats):
    gamma = method.param
    if scenario is not ScenarioId.PARTY:
        return None
    if gamma == 0:
        if ell == 1:
            return _unknown(
                source="first-seat-guarantee",
                lo=Fraction(1, seats + 1), hi=Fraction(1),
                note="with divisor 0 every listed party gets a seat first; "
                     "the one-seat threshold depends on how the surplus of "
                     "parties over seats is resolved")
        return _exact(1, source="first-seat-guarantee", side=UNSPECIFIED)
    value = (Fraction(ell - 1) + gamma) / (Fraction(ell - 1)
                                           + gamma * (seats + 2 - ell))
    side = UNSPECIFIED
    if gamma == 1:
        # With a fixed tie-break toward the larger side, the extreme profile
        # is bad exactly at the threshold iff W is not the larger side.
        side = PLUS if 2 * ell <= seats + 1 else MINUS
    return _exact(value, source="divisor-party-extremes", side=side)


def _quota_extremes(delta, ell, seats) -> Fraction:
    """W's vote share in the quota-family extreme profile: W holds ell-1+t
    votes against S+1-ell rivals of t each, t on the rounding boundary of
    the quota total/(S+delta)."""
    return Fraction(ell * (seats + 2 - ell) - 1 + delta) \
        / ((seats + delta) * (seats + 2 - ell))


def _quota_threshold(method, scenario, ell, seats):
    if scenario is not ScenarioId.PARTY:
        return None
    return _exact(_quota_extremes(method.param, ell, seats),
                  source="quota-party-extremes")


# ---------------------------------------------------------------------------
# Unordered score-family methods


def _half(kind=PI, source="majority-blocking"):
    return _exact(Fraction(1, 2), kind=kind, source=source)


def _bv_av_threshold(method, scenario, ell, seats):
    if scenario in (ScenarioId.PARTY, ScenarioId.SAME, ScenarioId.TACTIC):
        return _half()
    if scenario is ScenarioId.PJR:
        return _half(source="pjr-union-reduction")
    if scenario is ScenarioId.EJR:
        if method.kind == "av" or ell * 2 <= seats + 1:
            value = Fraction(seats, 2 * seats + 1 - ell)
            return _exact(value, source="ejr-overlap-window")
        value = Fraction(2 * seats + 1 - 2 * ell, 3 * seats + 2 - 3 * ell)
        return _exact(value, source="ejr-overlap-window")
    return None


def _lv_tactic_value(limit: int, ell: int, seats: int) -> Fraction:
    a = min(limit, seats + 1 - ell)
    b = min(limit, ell)
    return Fraction(ell * a, ell * a + (seats + 1 - ell) * b)


def _lv_threshold(method, scenario, ell, seats):
    limit = method.spec.cap(method, seats)   # refuses a limit above S
    if scenario is ScenarioId.TACTIC:
        value = _lv_tactic_value(limit, ell, seats)
        # The equal-split strategy needs no rounding when ballots may
        # simply repeat the same list, so the limit form is attained.
        return _exact(value, kind=PI if ell <= limit else PIHAT,
                      source="equal-split-strategy")
    if ell > limit:
        return None
    if scenario in (ScenarioId.SAME, ScenarioId.PJR):
        value = _lv_tactic_value(limit, ell, seats)
        source = ("pjr-union-reduction" if scenario is ScenarioId.PJR
                  else "equal-split-strategy")
        return _exact(value, source=source)
    if scenario is ScenarioId.EJR:
        if 2 * ell <= seats + 1:
            value = Fraction(limit, seats + limit + 1 - ell)
        else:
            value = Fraction(seats + limit + 1 - 2 * ell,
                             2 * seats + limit + 2 - 3 * ell)
        return _exact(value, source="ejr-overlap-window")
    if scenario is ScenarioId.PARTY and limit == 1:
        return _optimal(ell, seats, source="equal-split-strategy")
    return None


def _sntv_threshold(method, scenario, ell, seats):
    if scenario is ScenarioId.TACTIC:
        return _optimal(ell, seats, PI if ell == 1 else PIHAT,
                        "equal-split-strategy")
    if ell == 1 and scenario in (ScenarioId.PARTY, ScenarioId.SAME,
                                 ScenarioId.PJR, ScenarioId.EJR):
        return _optimal(ell, seats, source="single-name-plurality")
    return None


def _cv_threshold(method, scenario, ell, seats):
    if scenario is ScenarioId.TACTIC:
        return _optimal(ell, seats, PIHAT, "equal-split-strategy")
    return None


def _cvq_threshold(method, scenario, ell, seats):
    if scenario is ScenarioId.TACTIC:
        # The ideal equal-and-even split lets W divide exactly, so the
        # limit value is attained for every electorate size.
        return _optimal(ell, seats, source="equal-split-strategy")
    if scenario in (ScenarioId.PARTY, ScenarioId.SAME,
                    ScenarioId.PJR, ScenarioId.EJR):
        # Self-voting blocks reach any fraction below 1, but at exactly 1
        # there is no adversary left, so the supremum is not attained.
        return _exact(Fraction(1), side=MINUS, source="self-voting-dilution")
    return None


# ---------------------------------------------------------------------------
# Phragmen (unordered) and the Thiele family


def _phragmen_u_threshold(method, scenario, ell, seats):
    if scenario in (ScenarioId.SAME, ScenarioId.TACTIC, ScenarioId.PJR):
        return _optimal(ell, seats, source="free-voting-power")
    if scenario is ScenarioId.EJR:
        if ell == 1:
            return _optimal(ell, seats, source="free-voting-power")
        lo = Fraction(ell, seats + 1)
        note = "open; bad instances exceed ell/(S+1)"
        if (ell, seats) == (2, 12):
            lo = Fraction(409, 2409)
            note = "open; a 12-seat overlap election reaches 409/2409"
        return _unknown(source="overlap-open-problem", lo=lo,
                        hi=Fraction(1), note=note)
    return None


def _max_kw(scheme: WeightScheme, seats: int) -> Fraction:
    return max(k * scheme.w(k) for k in range(1, seats + 1))


def _thiele_opt_threshold(method, scenario, ell, seats):
    scheme = method.scheme
    if scheme.kind == "harmonic":
        if scenario in (ScenarioId.SAME, ScenarioId.TACTIC,
                        ScenarioId.PJR, ScenarioId.EJR):
            return _optimal(ell, seats, source="satisfaction-exchange")
        return None
    if scenario in (ScenarioId.SAME, ScenarioId.PJR, ScenarioId.EJR):
        if ell == 1:
            value = 1 / (1 + Fraction(seats) / _max_kw(scheme, seats))
            return _exact(value, source="satisfaction-exchange")
        wl = scheme.w(ell)
        if wl == 0:
            return _exact(Fraction(1), source="single-bonus-saturation")
        value = 1 / (wl * (seats + 1 - ell) + 1)
        return ThresholdValue(value, PI, UNSPECIFIED, LOWER_BOUND,
                              "weight-floor-extremes", hi=Fraction(1),
                              note="proved lower bound only")
    if scenario is ScenarioId.TACTIC:
        if all(scheme.w(k) <= Fraction(1, k) for k in range(1, seats + 1)):
            return _optimal(ell, seats, PIHAT, "equal-split-strategy")
        return None
    return None


def _gamma_or_none(scheme: WeightScheme, n: int) -> Optional[Fraction]:
    return None if n > ALPHA_CAP else alpha(n, scheme)


def _thiele_add_threshold(method, scenario, ell, seats):
    scheme = method.scheme
    if scheme.kind == "weak":
        if scenario is ScenarioId.TACTIC:
            return _optimal(ell, seats, PI if ell == 1 else PIHAT,
                            "equal-split-strategy")
        if scenario in (ScenarioId.SAME, ScenarioId.PJR, ScenarioId.EJR):
            if ell == 1:
                return _optimal(ell, seats, source="sequential-mass-lp")
            return _exact(Fraction(1), source="single-bonus-saturation")
        return None
    if scenario in (ScenarioId.SAME, ScenarioId.TACTIC,
                    ScenarioId.PJR, ScenarioId.EJR):
        if ell == 1:
            gam = _gamma_or_none(scheme, seats)
            if gam is None:
                psi = scheme.psi(seats)
                return ThresholdValue(
                    None, PI, UNSPECIFIED, INTERVAL, "sequential-mass-bounds",
                    lo=Fraction(1, seats + 1), hi=1 / (1 + seats / psi),
                    note="exact value needs the order-%d vote-mass program"
                         % seats)
            return _exact(1 / (1 + gam), source="sequential-mass-lp")
        gam = _gamma_or_none(scheme, seats + 1 - ell)
        if scenario in (ScenarioId.SAME, ScenarioId.PJR):
            if gam is None:
                return _unknown(source="sequential-mass-bounds",
                                lo=Fraction(ell, seats + 1), hi=Fraction(1))
            wl = scheme.w(ell)
            if wl == 0:
                return _exact(Fraction(1), source="single-bonus-saturation")
            value = (1 / wl) / (1 / wl + gam)
            if scheme.kind == "harmonic":
                return ThresholdValue(
                    value, PI, UNSPECIFIED, CONJECTURED,
                    "sequential-mass-lp", lo=value, hi=Fraction(1),
                    note="proved lower bound; equality conjectured")
            return ThresholdValue(value, PI, UNSPECIFIED, LOWER_BOUND,
                                  "sequential-mass-lp", hi=Fraction(1),
                                  note="proved lower bound only")
        if scenario is ScenarioId.EJR:
            lo = None
            if gam is not None and scheme.w(ell) > 0:
                lo = (1 / scheme.w(ell)) / (1 / scheme.w(ell) + gam)
            return _unknown(source="sequential-mass-bounds", lo=lo,
                            hi=Fraction(1), note="open for ell >= 2")
        # tactic, ell >= 2
        hi = None
        gam_s = _gamma_or_none(scheme, seats)
        if gam_s is not None:
            hi = min(Fraction(1), ell * (1 / (1 + gam_s)))
        return _unknown(kind=PIHAT, source="vote-splitting-cap", hi=hi,
                        note="open for ell >= 2; bounded by ell times the "
                             "one-seat threshold")
    return None


def _thiele_elim_threshold(method, scenario, ell, seats):
    if scenario in (ScenarioId.SAME, ScenarioId.TACTIC):
        return _optimal(ell, seats, source="credit-conservation")
    if scenario in (ScenarioId.PJR, ScenarioId.EJR):
        best = max(Fraction(m, m * m + seats)
                   for m in range(1, seats + 2))
        lo = max(best, Fraction(ell, seats + 1))
        return _unknown(source="decoy-cluster-trap", lo=lo, hi=Fraction(1),
                        note="open; decoy clusters push the bound above "
                             "ell/(S+1)")
    return None


# ---------------------------------------------------------------------------
# Ordered-ballot methods


def _stv_threshold(method, scenario, ell, seats):
    delta = method.param
    if scenario in (ScenarioId.PARTY, ScenarioId.SAME,
                    ScenarioId.WPSC, ScenarioId.PSC):
        return _exact(_quota_extremes(delta, ell, seats),
                      source="quota-transfer-extremes")
    if scenario is ScenarioId.TACTIC:
        if delta == 1 or ell == 1:
            return _optimal(ell, seats, source="equal-split-strategy")
        return ThresholdValue(None, PI, UNSPECIFIED, INTERVAL,
                              "equal-split-strategy",
                              lo=Fraction(ell, seats + 1),
                              hi=_quota_extremes(delta, ell, seats),
                              note="limit form is exactly ell/(S+1)")
    return None


def _phragmen_o_threshold(method, scenario, ell, seats):
    if scenario in (ScenarioId.SAME, ScenarioId.TACTIC, ScenarioId.WPSC):
        return _optimal(ell, seats, source="free-voting-power")
    if scenario is ScenarioId.PSC:
        return _exact(Fraction(1), side=MINUS, source="self-first-burial")
    return None


def _thiele_o_threshold(method, scenario, ell, seats):
    a_rest = seq_a(seats + 1 - ell)
    if scenario is ScenarioId.TACTIC:
        value = seq_a(ell) / (seq_a(ell) + a_rest)
        # For a single seat target the limit value is also attained.
        return _exact(value, kind=PI if ell == 1 else PIHAT,
                      source="suffix-chain-extremes")
    if scenario is ScenarioId.SAME:
        return _exact(Fraction(ell) / (ell + a_rest),
                      source="suffix-chain-extremes")
    if scenario is ScenarioId.WPSC:
        return _exact(Fraction(seq_c(ell)) / (seq_c(ell) + a_rest),
                      source="suffix-chain-extremes")
    if scenario is ScenarioId.PSC:
        return _exact(Fraction(1), side=MINUS, source="self-first-burial")
    return None


def _borda_mean(scheme: WeightScheme, k: int) -> Fraction:
    return scheme.psi(k) / k


def _borda_threshold(method, scenario, ell, seats):
    scheme = method.scheme
    rest = _borda_mean(scheme, seats + 1 - ell)
    if scenario is ScenarioId.TACTIC:
        value = rest / (_borda_mean(scheme, ell) + rest)
        if ell == 1 and scheme.kind == "harmonic":
            return _exact(value, kind=PI, source="positional-averages")
        return _exact(value, kind=PIHAT, source="positional-averages")
    if scenario in (ScenarioId.SAME, ScenarioId.WPSC):
        return _exact(rest / (scheme.w(ell) + rest),
                      source="positional-averages")
    return None


# ---------------------------------------------------------------------------
# The method registry
#
# Engines are called through this module's names at call time (never
# stored as function objects), so wrapping a module attribute, as a
# profiler or tracer does, also sees the calls made through the registry.


@dataclass(frozen=True)
class MethodKind:
    """Everything the package knows about one method kind.

    For candidate ballots, engine(method, profile, branch_cap, goal=None)
    returns the OutcomeSet, or (OutcomeSet, {committee: LoadState}) when
    loads is set; given a scenario's goal pairs, every engine but
    thiele-opt's and thiele-elim's runs a goal count: a round-based one
    returns a set holding its verdict (`unordered.branch`), whose
    committees are listed only when read, and the score family lists
    one committee that decides the goal.  None means no
    engine (only thresholds are tabulated).  For party ballots,
    engine(method, votes, seats) returns the reachable seat vectors.
    threshold(method, scenario, ell, seats) returns a
    ThresholdValue or None; cap(method, seats) is the largest ballot the
    method accepts, or None for no cap.  dhondt says that on party-list
    profiles (each party one ballot naming its own list) the kind elects
    as D'Hondt, at harmonic weights where it takes a scheme, so its party
    threshold is ell/(S+1).  audited lists the parameters the default
    audit scope runs the kind at.
    """

    ballot: str                          # "party" | "set" | "list"
    threshold: Callable
    engine: Optional[Callable] = None
    param: Optional[str] = None          # "gamma" | "delta" | "limit"
    scheme: bool = False                 # takes a weight scheme
    cap: Callable = lambda method, seats: None
    loads: bool = False
    dhondt: bool = False
    audited: tuple = (None,)


def _score_kind(threshold_of, cap=lambda m, seats: None, split=False,
                **fields) -> MethodKind:
    """A score-family kind.  Its ballots name at most cap(method, seats)
    candidates, in counts and searches alike, and give each name the
    ballot's weight, or with split an equal share of it."""
    def engine(method, profile, branch_cap, goal=None):
        # The engine refuses a profile of the wrong ballot kind before
        # cap() can refuse the seat count.
        limit = cap(method, profile.seats) if profile.kind == "set" else None
        return score_family_count(profile, limit, split, branch_cap, goal)

    return MethodKind("set", threshold_of, engine=engine, cap=cap, **fields)


def _lv_cap(method, seats):
    if method.param > seats:
        raise CoverageError("limited vote cap exceeds seat count")
    return int(method.param)


REGISTRY = {
    "div": MethodKind(
        "party", _div_threshold, param="gamma",
        audited=(Fraction(1), Fraction(1, 2)),
        engine=lambda m, votes, seats: divisor_apportion(
            DivisorSpec(m.param), votes, seats)),
    "quota": MethodKind(
        "party", _quota_threshold, param="delta", audited=(0, 1),
        engine=lambda m, votes, seats: quota_apportion(
            QuotaSpec(m.param), votes, seats)),
    "bv": _score_kind(_bv_av_threshold, cap=lambda m, seats: seats),
    "av": _score_kind(_bv_av_threshold),
    "sntv": _score_kind(_sntv_threshold, cap=lambda m, seats: 1),
    "lv": _score_kind(_lv_threshold, cap=_lv_cap, param="limit",
                      audited=(2,)),
    "cv": MethodKind("set", _cv_threshold),
    "cvq": _score_kind(_cvq_threshold, split=True),
    "phragmen-u": MethodKind(
        "set", _phragmen_u_threshold, loads=True, dhondt=True,
        engine=lambda m, p, cap, goal=None: phragmen_unordered(
            p, cap, goal)),
    "thiele-opt": MethodKind(
        "set", _thiele_opt_threshold, scheme=True, dhondt=True,
        engine=lambda m, p, cap, goal=None: thiele_optimize(
            m.scheme, p, cap)),
    "thiele-add": MethodKind(
        "set", _thiele_add_threshold, scheme=True, dhondt=True,
        engine=lambda m, p, cap, goal=None: thiele_addition(
            m.scheme, p, cap, goal)),
    "thiele-elim": MethodKind(
        "set", _thiele_elim_threshold, dhondt=True,
        engine=lambda m, p, cap, goal=None: thiele_elimination(p, cap)),
    "stv": MethodKind(
        "list", _stv_threshold, param="delta", audited=(1, 0),
        engine=lambda m, p, cap, goal=None: stv_count(
            StvSpec(m.param), p, cap, goal)),
    "phragmen-o": MethodKind(
        "list", _phragmen_o_threshold, loads=True, dhondt=True,
        engine=lambda m, p, cap, goal=None: phragmen_ordered(p, cap, goal)),
    "thiele-o": MethodKind(
        "list", _thiele_o_threshold, dhondt=True,
        engine=lambda m, p, cap, goal=None: thiele_ordered(p, cap, goal)),
    "borda": MethodKind(
        "list", _borda_threshold, scheme=True, dhondt=True,
        engine=lambda m, p, cap, goal=None: borda_count(
            BordaWeights(m.scheme), p, cap, goal)),
}


# ---------------------------------------------------------------------------
# Generic, method-independent bounds


@dataclass(frozen=True)
class GenericBound:
    """pi(ell, S) >= value, or pi(ell, S) + pi(partner, S) >= 1, for every
    reasonable method; name is the audit's check name for it."""

    description: str
    name: str
    value: Optional[Fraction] = None
    partner: Optional[int] = None


@lru_cache(maxsize=None)
def generic_bounds(ell: int, seats: int) -> tuple:
    """Method-independent constraints applying at (ell, seats), each fact
    once: closure relates ell and S+1-ell, so only the smaller of the two
    lists it, and at ell = (S+1)/2 it reads pi >= 1/2, the floor there."""
    check_ell(ell, seats)
    bounds = []
    if 2 * ell < seats + 1:
        bounds.append(GenericBound(
            "pi(ell,S) + pi(S+1-ell,S) >= 1: both sides cannot be "
            "guaranteed more than S seats in total", "closure",
            partner=seats + 1 - ell))
    if (seats + 1) % ell == 0:
        bounds.append(GenericBound(
            "pi(ell,S) >= ell/(S+1) when (S+1)/ell is an integer",
            "floor", Fraction(ell, seats + 1)))
    if 2 * ell > seats + 1:
        bounds.append(GenericBound(
            "best achievable pi(ell,S) over all methods is 1/2 for "
            "ell > (S+1)/2", "majority", Fraction(1, 2)))
    return tuple(bounds)


# ---------------------------------------------------------------------------
# Representation criteria


_CRITERION_SCENARIO = {
    "JR": ScenarioId.PJR,
    "PJR": ScenarioId.PJR,
    "EJR": ScenarioId.EJR,
    "DPC": ScenarioId.PSC,
    "PSC-strong": ScenarioId.PSC,
    "wPSC-floor": ScenarioId.WPSC,
}
CRITERIA = tuple(_CRITERION_SCENARIO)


def _compare(entry: ThresholdValue, target: Fraction, allow_equal: bool):
    """Does the entry satisfy `pi < target` (or <= when allow_equal)?

    Returns True/False when decidable from the entry's bounds, else None.
    An exact entry equal to the target passes a strict test only on the
    minus side.
    """
    if entry.hi is not None and (entry.hi < target
                                 or (allow_equal and entry.hi <= target)):
        return True
    if entry.lo is not None and entry.lo > target:
        return False
    return entry.side == MINUS if entry.is_exact else None


def criterion_check(method: MethodId, criterion: str, seats: int):
    """True / False / None (unknown) for a representation criterion."""
    if criterion not in CRITERIA:
        raise ValueError("unknown criterion %r" % criterion)
    if seats < 1:
        raise ValueError("seats must be >= 1")
    scenario = _CRITERION_SCENARIO[criterion]
    # JR tests ell = 1 and DPC every ell; the others test ell < S, and
    # JR too tests nothing at S = 1.
    ells = {"JR": range(1, min(2, seats)),
            "DPC": range(1, seats + 1)}.get(criterion, range(1, seats))
    dpc = criterion == "DPC"        # pi <= ell/(S+1); the others pi < ell/S
    unknown = False
    for ell in ells:
        verdict = _compare(threshold(method, scenario, ell, seats),
                           Fraction(ell, seats + 1 if dpc else seats), dpc)
        if verdict is False:
            return False
        unknown = unknown or verdict is None
    return None if unknown else True


# ---------------------------------------------------------------------------
# Reference grids


_TABLE_SPECS = {
    "optimal": (MethodId("div", 1), ScenarioId.PARTY,
                "threshold ell/(S+1), shared by many methods"),
    "stl": (MethodId("div", Fraction(1, 2)), ScenarioId.PARTY,
            "party threshold of the odd-divisor method"),
    "lr": (MethodId("quota", 0), ScenarioId.PARTY,
           "party threshold of largest remainder with the full quota"),
    "bv-ejr": (MethodId("bv"), ScenarioId.EJR,
               "block vote, per-ballot representation"),
    "av-ejr": (MethodId("av"), ScenarioId.EJR,
               "approval vote, per-ballot representation"),
    "tha-same": (MethodId("thiele-add"), ScenarioId.SAME,
                 "sequential harmonic addition, common list"),
    "tho-tactic": (MethodId("thiele-o"), ScenarioId.TACTIC,
                   "ordered sequential weights, optimal strategy (limit)"),
    "tho-same": (MethodId("thiele-o"), ScenarioId.SAME,
                 "ordered sequential weights, common list"),
    "tho-wpsc": (MethodId("thiele-o"), ScenarioId.WPSC,
                 "ordered sequential weights, common top set"),
    "borda-tactic": (MethodId("borda"), ScenarioId.TACTIC,
                     "harmonic positional scoring, optimal strategy (limit)"),
    "borda-same": (MethodId("borda"), ScenarioId.SAME,
                   "harmonic positional scoring, common list"),
}

TABLE_NAMES = tuple(_TABLE_SPECS) + ("sequences",)


@dataclass(frozen=True)
class TableGrid:
    name: str
    title: str
    row_label: str
    col_label: str
    rows: tuple                 # row keys (S values, or sequence names)
    cols: tuple                 # column keys (ell values, or n values)
    cells: dict                 # (row, col) -> ThresholdValue | Fraction


def table_grid(name: str, max_seats: int = 5) -> TableGrid:
    """Regenerate one of the named reference grids (max_seats >= 1)."""
    if max_seats < 1:
        raise ValueError("max_seats must be >= 1")
    if name == "sequences":
        ns = tuple(range(1, 7))
        cells = {}
        for n in ns:
            cells[("a", n)] = seq_a(n)
            cells[("b", n)] = seq_b(n)
            cells[("c", n)] = Fraction(seq_c(n))
        return TableGrid("sequences", "extremal vote-mass sequences",
                         "sequence", "n", ("a", "b", "c"), ns, cells)
    if name not in _TABLE_SPECS:
        raise ValueError("unknown table %r (choose from %s)"
                         % (name, ", ".join(TABLE_NAMES)))
    method, scenario, title = _TABLE_SPECS[name]
    rows = tuple(range(1, max_seats + 1))
    cells = {}
    for seats in rows:
        for ell in range(1, seats + 1):
            cells[(seats, ell)] = threshold(method, scenario, ell, seats)
    return TableGrid(name, title, "S", "ell", rows,
                     tuple(range(1, max_seats + 1)), cells)
