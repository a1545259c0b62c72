"""The inequality audit of the threshold corpus.

audit_table() machine-checks the inequality families the threshold
corpus must satisfy and, on request, probes the exact entries with the
search and the catalog witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern
from typing import Optional

from .ballots import ProfileError
from .scenarios import ScenarioId, ScenarioTypeError, require_kind
from .search import SearchSpec, search_lower_bound
from .thresholds import (REGISTRY, CoverageError, MethodId, PI,
                         generic_bounds, threshold)
from .witnesses import CATALOG, Witness, construct_witness


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


def _expresses(method: MethodId, scenario: ScenarioId) -> bool:
    try:
        return require_kind(scenario, method.spec.ballot) is None
    except ScenarioTypeError:
        return False


def default_scope() -> list:
    """The method/scenario pairs the audit covers by default: every
    registry kind, at each parameter its record is audited at, under
    each scenario its ballots can express (`scenarios.require_kind`)."""
    methods = [MethodId(kind, param) for kind, spec in REGISTRY.items()
               for param in spec.audited]
    return [(m, sc) for m in methods for sc in ScenarioId
            if _expresses(m, sc)]


# The audit's search spec, smaller than the defaults, and the largest S
# it searches, so that the search over every pi-exact cell stays affordable.
AUDIT_SPEC = SearchSpec(max_candidates=4, weight_grid=4)
SEARCH_SMAX = 3


def _entry_or_none(method, scenario, ell, seats):
    """The cell's entry; None if threshold() refuses it or it has no bound."""
    try:
        entry = threshold(method, scenario, ell, seats)
    except (CoverageError, ValueError):
        return None
    return None if entry.lo is None and entry.hi is None else entry


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


_CHAINS = {     # lower: (higher, ell shift) rows, lo(lower) <= hi(higher)
    ScenarioId.PARTY: ((ScenarioId.SAME, 0), (ScenarioId.PARTY, 1)),
    ScenarioId.SAME: ((ScenarioId.PJR, 0), (ScenarioId.WPSC, 0),
                      (ScenarioId.SAME, 1)),
    ScenarioId.PJR: ((ScenarioId.EJR, 0),),
    ScenarioId.WPSC: ((ScenarioId.PSC, 0),),
    ScenarioId.TACTIC: ((ScenarioId.SAME, 0), (ScenarioId.TACTIC, 1)),
}


def audit_table(scope: Optional[list] = None, smax: int = 5,
                with_search: bool = False) -> AuditReport:
    """Machine-check the inequality families over the scope.

    Every in-scope entry at S <= smax with a lo or a hi is looked up once,
    into one table keyed (method, scenario, ell, S).  Each family is one
    loop over the table, in turn, and all but the search compare a lo with
    a hi (an exact entry has lo = hi): the `_CHAINS` rows, each bound of
    `generic_bounds(ell, S)` on the pi entries, and tactic subadditivity,
    lo(ell_a + ell_b) <= hi(ell_a) + hi(ell_b) for ell_a <= ell_b, so each
    inequality is checked once.  With with_search=True, search_lower_bound
    probes the exact pi entries at S <= SEARCH_SMAX: it must not
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
        for ell_b in range(ell_a, seats + 1 - ell_a) if tactic else ():
            b = side((method, sc, ell_b, seats), "hi")
            both = side((method, sc, ell_a + ell_b, seats), "lo")
            if b is not None and both is not None:
                check("tactic subadditive",
                      "%s S=%d %d+%d" % (label[method], seats, ell_a, ell_b),
                      both <= a.hi + b, "%s > %s + %s", both, a.hi, b)
    searched: dict = {}     # search cell -> its best fraction, None if refused
    for (method, sc, ell, seats), entry in table.items():
        value = entry.value if entry.is_exact and entry.kind == PI else None
        if not with_search or seats > SEARCH_SMAX or value is None:
            continue
        key = (method, _search_twin(sc, ell), ell, seats)
        if key not in searched:
            try:
                searched[key] = search_lower_bound(method, sc, ell, seats,
                                                   AUDIT_SPEC)[0]
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
                construct_witness(token, method, sc, ell, seats), AUDIT_SPEC):
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
