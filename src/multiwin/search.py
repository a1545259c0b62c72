"""Bounded brute-force search for bad instances.

search_lower_bound() looks for bad instances by bounded brute force over
unit-ballot profiles (and, for the tactic scenario, over W's
strategies), deciding each with the witnesses' _is_bad().  It skips an
instance that a renaming of the targets among themselves and the decoys
among themselves makes of one decided before; that is sound because the
engines are tie-complete, so a renaming renames the outcome set, and a
decided goal verdict is the truth about the instance.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations, product, tee
from typing import Optional, Sequence

from .ballots import DEFAULT_BRANCH_CAP, Profile, WeightedBallot
from .party import AdamsIllDefined
from .scenarios import (IndeterminateOutcome, ScenarioId, ScenarioInstance,
                        _goal, check_ell, is_instance, require_kind, settle)
from .thresholds import CoverageError, MethodId
from .witnesses import (_CONTENT, Witness, _is_bad, _names, _profile,
                        _require_engine)


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

    A strategy whose goal every S-member committee of the pool meets
    (`scenarios.settle`, on the goal `ScenarioInstance` builds from W's
    ballots) is settled before any answer is built: every engine
    returns S-subsets of the profile's candidates, the pool, so each of
    its answers is good, truncated or not.  It is yielded with an empty
    answer stream, not dropped, so that under tactic it still ends the
    rung as a strategy no answer beats.  The goal reads the ballots W
    chooses only under pjr and ejr; under tactic, psc and wpsc it reads
    none, and under party and same W has one option, so there one test
    settles every strategy of the call.
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

    pool = frozenset(universe)

    def every_good(w_names) -> bool:
        return settle(_goal(scenario, target, ell, w_names), seats,
                      frozenset(), pool) is True

    per_strategy = scenario in (ScenarioId.PJR, ScenarioId.EJR)
    all_good = not per_strategy and every_good(w_options)

    def strategies(total, w_votes):
        for counts_w in copy(_orbit_firsts(w_options, w_votes, w_cells,
                                           ordered)):
            if all_good or per_strategy and every_good(
                    ballot for ballot, _ in counts_w):
                yield ()
            else:
                yield answers(counts_w, total - w_votes)

    return strategies


def _search_bad(method, inst, spec) -> bool:
    """The badness test as the search counts it: an engine refusal
    (AdamsIllDefined) or a count the branch cap leaves undecided
    (IndeterminateOutcome) counts as not bad, here only; any other error
    propagates.  The count is a goal count, and a decided verdict is the
    truth about the instance: a bad one comes from a state whose
    reachable committees are all bad, and a good one from a count that
    cut no round (see `unordered.branch`).  So it carries over to every
    renaming of the instance that fixes the target set: the engines are
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
    must end good, and is read from its verdict without listing a
    committee; the verdict is the full count's wherever that one is
    decided.  A count the branch cap leaves undecided counts as not bad
    (see _search_bad).

    A W strategy whose goal every S-subset of the pool meets, some goal
    pair having |names| - (|pool| - S) >= ell (`scenarios.settle`), has
    no bad answer, so its answers are never built (_ballot_strategies).
    An instance so skipped is never run, so an error its engine would
    have raised cannot surface (thiele-opt's BudgetExceededError at a
    huge pool, say).  `unordered.branch` keeps its own start-state
    check, which `witness` and `check` still reach.  The party-kind
    search has no such skip: there bad is a seat vector, not a committee.

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
    check_ell(ell, seats)
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
