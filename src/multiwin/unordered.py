"""Counting engines for unordered (approval-style) ballots.

Every engine is tie-complete: wherever the rule's prose says "the
candidate with the largest score" and several candidates tie, all
resolutions are explored and the union of reachable committees is
returned as an OutcomeSet.

Engines: the score family (block vote, approval, SNTV, limited vote,
equal-and-even cumulative), sequential load-balancing (min-max load),
and the sequential-weight family (global optimization, addition,
elimination).  The score family is one engine, `score_family_count`;
each rule's ballot cap and split credit are plain arguments, which the
rule's entry in `thresholds.REGISTRY` supplies.

`branch` is the package's one breadth-first round loop, for full and
goal counts (below) alike: the round-based engines here and in `ordered`
run on it.  An engine supplies only its scoring: a step that maps a
state to its tied successors, in sorted candidate order, or marks the
state final.  A step grows the elected or eliminated set (or shrinks
the remaining set), so every count ends.  Every step but STV's
elimination of zero-vote ties (`ordered._stv_step`) grows it by exactly
one, so a state never recurs in a later round and deduplicating within
a round is global deduplication; an STV state reached again in a later
round is counted again, to the same finals.  A state reached along
several paths keeps the payload of the first path, in production order:
the winning-score trail for sequential addition, the load history for
load balancing: each round's elected level (`_sequential_loads`).
When seats are open but no unelected candidate has a score (sequential
addition) or a supporter (load balancing), every unelected candidate
ties for them (`_fill`), as in the score family and `thiele_optimize`,
which give such seats to zero-score candidates.

Candidates approved by exactly the same ballot groups are clones
(`Clones`), among them every candidate no ballot approves.  No set-ballot
engine can tell clones apart, so the engines branch on clone classes,
not on names: at a tie, each tied class contributes one successor, which
takes its representative, the first member in sorted order not yet
elected (or eliminated).  Each final state then expands into every
committee with the same number of seats per class, all under the final
state's payload (`Clones.expand_all`); `thiele_optimize` likewise scores
one split of the seats over the classes instead of every committee.  The
expanded OutcomeSet is the one branching on every name would give.

`branch_cap` bounds the states kept per round, so with clones it counts
representative states: when a round produces more, the first
`branch_cap` in production order go on, the rest are dropped, and the
result is flagged `truncated`.  The kept states are counted to the end.
`branch_cap` also cuts the expansion of the final states (for
`thiele_optimize`, the best seat splits) to their first `branch_cap`
committees, state by state in lexicographic order of the per-class
picks, and flags `truncated` if there are more.  So a truncated
OutcomeSet is a non-empty subset of the full answer with at most
`branch_cap` committees, each of exactly S members.  Every engine
refuses a `branch_cap` below 1 with the same ValueError.

A count may instead be given a goal: a scenario's good test as (names,
ell) pairs (`scenarios.ScenarioInstance.goal`), as when the verifier
asks whether the method can produce a committee that is bad for W.  Each
branching engine then settles a state (`_count`) by `scenarios.settle`
on the names it has elected and the names it can still elect (STV: its
elected set and the candidates not eliminated; the sequential engines:
the elected set and every candidate).  `branch` drops a state whose
every committee is good, ends the count at the first state whose every
committee is bad, and returns the verdict, bad, good or undecided, with
no step past it; its docstring proves the truncation argument.  The
engine returns an OutcomeSet holding that verdict and the goal
(`OutcomeSet.decided`), which `scenarios.is_bad_outcome_possible`
answers from.  Its committees are listed only when read: those of one
final state, reached from the bad state or from the last dropped one by
first successors, bad ones exactly when the verdict is bad, and
truncated exactly when the verdict is undecided.  The score family
decides its boundary tie for a goal with one committee (`_decide_tie`).
A profile where a clone class straddles a goal set is counted in full.
Without a goal, every engine returns its full OutcomeSet, as
`thiele_elimination` and `thiele_optimize` always do: elimination counts
seldom branch, so bounding their states costs more than it saves, and
optimization scores every seat split anyway.

Load balancing may reach one committee with different loads; its
LoadState keeps the least load vector (compared ballot group by ballot
group) and the history of the first path to those loads.  The score
family resolves its single boundary tie in `boundary_committees`, where
`branch_cap` bounds the committees listed; both apportionments in
`party` list their seat vectors from its top-S `boundary`.

Counting is exact integer arithmetic over a common denominator.  Each
engine scales the ballot weights to ints by the lcm of their
denominators (int weights are taken as they are), once per call, and
its per-position rates (w_k, psi(n), 1/k) by theirs, the w_k once per
scheme and length (`_rates`, the 1/k as the harmonic w_k); scores are
then ints in a fixed unit, which orders them as the rationals would.
Load balancing holds each state's loads as ints over a reduced
per-state denominator (`_sequential_loads`).  Only the reported values
become Fractions: the winning-score trails once per final state, and a
LoadState when a caller reads it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, islice
from math import comb, gcd, lcm
from typing import Callable, Optional

from .ballots import (DEFAULT_BRANCH_CAP, OutcomeSet, Profile, ProfileError,
                      WeightScheme)
from .numerics import common_denominator
from .scenarios import settle

# The most seat splits thiele_optimize scores before it refuses a profile.
OPTIMIZE_BUDGET = 500000


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget."""


@dataclass(frozen=True)
class LoadState:
    """Per-ballot-group loads and the history of elected levels, the
    common load each round's winner gives its supporters."""

    loads: tuple
    history: tuple

    @property
    def max_load(self) -> Fraction:
        return max(self.loads)


class Clones:
    """Clone classes of a set-ballot profile.

    Candidates approved by exactly the same ballot groups form one class;
    `classes` lists each class in sorted name order.  Built from
    (members, weight) ballot pairs and the candidate universe.
    """

    def __init__(self, ballots, candidates):
        approvers = dict.fromkeys(candidates, 0)
        for idx, (members, _) in enumerate(ballots):
            bit = 1 << idx
            for cand in members:
                approvers[cand] |= bit
        by_approvers: dict = {}
        for cand in sorted(candidates):
            by_approvers.setdefault(approvers[cand], []).append(cand)
        self.classes = [tuple(members) for members in by_approvers.values()]
        self._shared = [m for m in self.classes if len(m) > 1]
        self._before = {m[i]: m[i - 1] for m in self._shared
                        for i in range(1, len(m))}

    def heads(self, names, taken) -> list:
        """The names, in their order, that are the first member of their
        class not in `taken`; `taken` holds a leading run of each class,
        as every state of a compressed count does."""
        before = self._before
        return [c for c in names if c not in before or before[c] in taken]

    def expand_all(self, finals: dict, cap: int):
        """Expand {final state: payload} into {committee: payload}: state
        by state, under its payload, every committee with as many members
        per class, in lexicographic order of the per-class picks; no two
        states hold as many of every class (`heads`), so none share one.
        Returns the first `cap` committees and whether more were left.
        A state's committees are the state less the classes it splits
        times each such class's picks (`a | b`): keeping the first `limit`
        (the cap left, plus one) products after each class keeps its first
        `limit`, since the committees sharing their picks in the first
        classes form one run, and needs only a class's first `limit`
        picks.  `limit` only falls, so a class's picks are listed once.
        """
        if not self._shared:
            return dict(islice(finals.items(), cap)), len(finals) > cap
        outcomes: dict = {}
        picks: dict = {}
        for state, payload in finals.items():
            limit = cap + 1 - len(outcomes)
            split = {m: n for m in self._shared
                     if 0 < (n := len(state.intersection(m))) < len(m)}
            committees = [state.difference(*split)]
            for key in split.items():
                if key not in picks:
                    picks[key] = [frozenset(pick) for pick in
                                  islice(combinations(*key), limit)]
                committees = list(islice(
                    (a | b for a in committees for b in picks[key]), limit))
            outcomes.update(dict.fromkeys(committees[:limit - 1], payload))
            if len(committees) == limit:
                return outcomes, True
        return outcomes, False


# Every candidate its own class: the engines shared with ordered ballots
# run uncompressed there.
NO_CLONES = Clones((), ())


@lru_cache(maxsize=None)
def _rates(scheme: WeightScheme, count: int) -> tuple:
    """(w_1..w_count as ints over their least common denominator d, d):
    one table per scheme and length, as every count reads the same."""
    rates, share = common_denominator(scheme.w(k)
                                      for k in range(1, count + 1))
    return tuple(rates), share


def _set_ballots(profile: Profile) -> list:
    if profile.kind != "set":
        raise ProfileError("engine requires unordered (set) ballots")
    return [(b.content.members, b.weight) for b in profile.ballots]


def score_family_count(profile: Profile, cap: Optional[int], split: bool,
                       branch_cap: int = DEFAULT_BRANCH_CAP,
                       goal=None) -> OutcomeSet:
    """Top-S by total score.  A ballot names at most `cap` candidates (no
    cap when None) and gives each its weight, or when `split` an equal
    share of it."""
    ballots = _set_ballots(profile)
    for members, _ in ballots:
        if cap is not None and len(members) > cap:
            raise ProfileError(
                "ballot %s exceeds the %d-name cap" % (sorted(members), cap))
    credits, _ = common_denominator(weight for _, weight in ballots)
    if split:
        # In units of 1 / share, a name gets share / len(members) each.
        share = lcm(*(len(members) for members, _ in ballots))
        credits = [credit * (share // len(members))
                   for (members, _), credit in zip(ballots, credits)]
    scores = dict.fromkeys(profile.candidates, 0)
    for (members, _), credit in zip(ballots, credits):
        for name in members:
            scores[name] += credit
    return boundary_committees(scores, profile.seats, branch_cap, goal)


def boundary(scores: dict, seats: int) -> tuple:
    """The top-`seats` boundary of `scores`: (fixed, tied, need), the keys
    above the `seats`-th highest score, those at it in (-score, key)
    order, and how many of them the seats still take.  The top sets are
    `fixed` plus any `need` of `tied`."""
    ranked = sorted(scores, key=lambda c: (-scores[c], c))
    pivot = scores[ranked[seats - 1]]
    fixed = frozenset(c for c in ranked if scores[c] > pivot)
    tied = [c for c in ranked if scores[c] == pivot]
    return fixed, tied, seats - len(fixed)


def boundary_committees(scores: dict, seats: int,
                        branch_cap: int = DEFAULT_BRANCH_CAP,
                        goal=None) -> OutcomeSet:
    """All top-`seats` sets obtainable by resolving ties at the boundary;
    with a goal, one that decides the goal (`_decide_tie`)."""
    _check_cap(branch_cap)
    fixed, tied, need = boundary(scores, seats)
    if goal is not None and need < len(tied):
        return _decide_tie(fixed, tied, need, branch_cap, goal)
    return OutcomeSet(islice(map(fixed.union, combinations(tied, need)),
                             branch_cap), comb(len(tied), need) > branch_cap)


def _decide_tie(fixed: frozenset, tied: list, need: int, branch_cap: int,
                goal) -> OutcomeSet:
    """The committee of `fixed` and `need` of the `tied` names that decides
    whether one is bad for the goal (`scenarios.settle`).
    - One goal pair: the committee with the fewest of its names decides.
    - Several: the tied names are grouped by the goal sets that hold
      them, so the committees with the same number of seats per group
      are all good or all bad, and the seat splits over the groups
      (`_splits`) are tried in turn, at most branch_cap of them.  There
      are never more splits than committees, so the splits are cut only
      where listing the committees would be cut too.  A tie that
      `settle` decides needs no split tried beyond the first.
    The result is the first bad committee, else the first one tried,
    truncated when some splits were left untried.
    """
    if len(goal) == 1:
        ((names, ell),) = goal
        fewest = fixed.union(sorted(tied, key=names.__contains__)[:need])
        return OutcomeSet((fewest if len(names & fewest) < ell
                           else fixed.union(tied[:need]),))
    groups: dict = {}
    for cand in tied:
        groups.setdefault(tuple(cand in names for names, _ in goal),
                          []).append(cand)
    members = list(groups.values())
    sizes = [len(group) for group in members]
    # A settled tie is all good or all bad, so its first split decides.
    settled = settle(goal, len(fixed) + need, fixed, fixed.union(tied))
    first = None
    for tried, split in enumerate(_splits(sizes, need)):
        if tried == branch_cap or settled and tried:
            return OutcomeSet((first,), not settled)
        committee = fixed.union(chain.from_iterable(
            group[:n] for group, n in zip(members, split)))
        if not any(len(names & committee) >= ell for names, ell in goal):
            return OutcomeSet((committee,))
        first = first or committee
    return OutcomeSet((first,))


def _check_cap(branch_cap: int) -> None:
    if branch_cap < 1:
        raise ValueError("branch_cap must be >= 1")


def branch(start, step, branch_cap: int = DEFAULT_BRANCH_CAP, settle=None):
    """Run a tie-branching count breadth-first from `start`.

    start is a (state, payload) pair.  step(state, payload) returns None
    when the state is final, else the list of its tied (state, payload)
    successors.  A state produced twice in a round keeps its first
    payload.  Returns ({final state: payload}, truncated); see the module
    docstring for the contract.

    With `settle`, the count is a goal count: settle(state) is True when
    every committee the state can reach is good, False when every one is
    bad, and None when it cannot tell.  settle must be monotone (a good
    or bad state has only good or bad successors) and exact on final
    states, so no final state stays on a frontier.  Each produced state
    that settle calls good is dropped, and the count ends at the first
    it calls bad; a settled start state ends it before any round.  It
    returns (bad, origin) and takes no step past its verdict:
    - bad is True after a bad state, False when every state was dropped
      and no round was cut, and None when a round was cut;
    - origin is the (state, payload) a listing starts from: the bad or
      settled start state, or else the last state dropped, which the
      latest round produced and so is nearest its final state.
    A listing (`_count`) follows first successors from origin to one
    final state, whose committees are then bad exactly when bad is True;
    it is truncated exactly when bad is None.

    The verdict is sound: a bad state's committees are all bad and
    reachable.  A good verdict cut no round, so it kept every state that
    is not good, since such a state has only parents that are not good;
    so no final state is bad, and no committee.

    It is the full count's verdict wherever that one is decided.  Let F_r
    and G_r be the frontiers of round r of the full and the goal count.
    By induction, F_r less its good states is a prefix of G_r, with the
    same payloads: a state that is not good has its first parent in that
    prefix, so the full round's produced states, less the good ones, come
    first among the goal round's and in the same order, and cutting both
    at branch_cap keeps the prefix.  Hence:
    - when the full count cuts no round, G_r is F_r less its good
      states, so the goal count cuts none either and decides;
    - a bad committee the full count lists, truncated or not, comes from
      a final state of some F_r that is not good, which the goal count
      produces, so it ends bad there or earlier.
    So the goal verdict equals the full one wherever the full count is
    untruncated, and never contradicts a decided one.
    """
    _check_cap(branch_cap)
    if settle is not None and (good := settle(start[0])) is not None:
        return not good, start
    dropped = None
    frontier = dict((start,))
    finals: dict = {}
    truncated = False
    while frontier:
        produced: dict = {}
        for state, payload in frontier.items():
            successors = step(state, payload)
            if successors is None:
                finals[state] = payload
                continue
            for successor, data in successors:
                if successor in produced:
                    continue
                good = settle and settle(successor)
                if good is None:
                    produced[successor] = data
                elif good:
                    dropped = (successor, data)
                else:
                    return True, (successor, data)
        if len(produced) > branch_cap:
            truncated = True
            produced = dict(islice(produced.items(), branch_cap))
        frontier = produced
    if settle is None:
        return finals, truncated
    return (None if truncated else False), dropped


def _first_final(step, state, payload) -> dict:
    """{final state: payload} reached from (state, payload) by first
    successors."""
    while (successors := step(state, payload)) is not None:
        state, payload = successors[0]
    return {state: payload}


def _count(start, step, branch_cap: int, finish: Callable, goal, seats: int,
           bounds: Callable, clones: Clones = NO_CLONES):
    """A round-based engine's count on `branch`: finish(finals, truncated)
    turns its finals into the engine's (OutcomeSet, {committee: payload}).

    Without a goal it is a full count.  With one it is a goal count,
    whose settle is `scenarios.settle` on bounds(state) = (sure,
    possible): every S-member committee the state can reach holds `sure`
    and lies in `possible`.  That bound tightens as `sure` grows and
    `possible` shrinks, and is exact on a final state.  A clone count
    bounds its representative states, which hold other members of a
    class than some committees they expand into; that is harmless unless
    a class straddles a goal set, so then the count runs in full.

    A goal count returns a decided OutcomeSet with `branch`'s verdict,
    and its payloads.  Both are listed when first read: first successors
    from `branch`'s origin to one final state, finished as a full
    count's finals are, with the flag truncated when the verdict is
    undecided.
    """
    if goal is None or any(
            0 < len(names.intersection(members)) < len(members)
            for members in clones._shared for names, _ in goal):
        return finish(*branch(start, step, branch_cap))
    bad, origin = branch(start, step, branch_cap,
                         lambda state: settle(goal, seats, *bounds(state)))
    listing = _Listing(finish, step, origin, bad is None)
    return OutcomeSet.decided(goal, bad, listing.outcomes), listing


class _Listing(Mapping):
    """A goal count's listing, made when first read: first successors from
    `origin` to one final state, finished as finish(finals, truncated)
    into the engine's (OutcomeSet, {committee: payload}).  Read as a
    Mapping, it is those payloads."""

    def __init__(self, finish: Callable, step: Callable, origin: tuple,
                 truncated: bool):
        self._walk = (finish, step, origin, truncated)
        self._listed = None

    def listed(self) -> tuple:
        if self._listed is None:
            finish, step, origin, truncated = self._walk
            self._listed = finish(_first_final(step, *origin), truncated)
        return self._listed

    def outcomes(self) -> OutcomeSet:
        return self.listed()[0]

    def __getitem__(self, committee):
        return self.listed()[1][committee]

    def __iter__(self):
        return iter(self.listed()[1])

    def __len__(self) -> int:
        return len(self.listed()[1])


def _fill(candidates: frozenset, elected: frozenset, clones: Clones) -> list:
    """The elected sets after one fill round, in a state where no unelected
    candidate has a score or a supporter: they all tie, and each clone
    head takes the seat.  No successor gains a score or a supporter (a
    ballot's credit never rises as its names are elected, and its
    supported names only shrink), so the fill runs until the seats are
    full and lists every way to fill them."""
    return [elected | {cand}
            for cand in clones.heads(sorted(candidates - elected), elected)]


def sequential_max(scores_of: Callable, candidates: frozenset, seats: int,
                   scale: int, branch_cap: int = DEFAULT_BRANCH_CAP,
                   clones: Clones = NO_CLONES, goal=None):
    """Sequential max-score election: each round elects a top scorer of
    scores_of(elected), branching on one head per tied clone class.
    scores_of gives int scores in units of 1 / scale, and omits the
    candidates that score nothing.  When no candidate scores, the open
    seats are filled (`_fill`).  Returns (OutcomeSet, {committee:
    trail}), the trail being the winning score of each scored round as
    Fractions.  A goal makes it a goal count (`_count`)."""

    def step(elected, trail):
        if len(elected) == seats:
            return None
        scores = scores_of(elected)
        if not scores:
            return [(filled, trail)
                    for filled in _fill(candidates, elected, clones)]
        best = max(scores.values())
        trail += (best,)
        tied = sorted([c for c, value in scores.items() if value == best])
        return [(elected | {cand}, trail)
                for cand in clones.heads(tied, elected)]

    def finish(finals, truncated):
        # Converted per final state, not per committee it expands into.
        trails, cut = clones.expand_all(
            {state: tuple(Fraction(x, scale) for x in trail)
             for state, trail in finals.items()}, branch_cap)
        return OutcomeSet(trails, truncated or cut), trails

    return _count((frozenset(), ()), step, branch_cap, finish, goal, seats,
                  lambda elected: (elected, candidates), clones)


def _sequential_loads(profile: Profile, supporters: Callable,
                      branch_cap: int = DEFAULT_BRANCH_CAP,
                      clones: Clones = NO_CLONES, goal=None):
    """Phragmén's min-max-load rule for `phragmen_unordered` and
    `ordered.phragmen_ordered`, which pass their supporter rules:
    supporters(elected) maps each unelected candidate with a supporter to
    the indices of its supporting ballot groups, a set ballot supporting
    every unelected name on it, a list ballot its highest-ranked one.
    Each round elects a candidate of least level, (1 + sum of weight *
    load) / sum of weight over its supporters: the common load they reach
    by sharing one more seat.  Each of its supporters takes exactly that
    load, and the history records it.  Ties branch, on one head per tied
    clone class.  When no unelected candidate has a supporter, the open
    seats are filled (`_fill`); a filled seat changes no load and adds no
    history entry, so sum(weight * load) == len(history) in every
    LoadState.  Returns (OutcomeSet, {committee: LoadState}); a goal makes
    it a goal count (`_count`).

    The level is exact because no supporter is ever above it.  By
    induction on rounds, every load is at most the last elected level L
    (0 at the start) and every level is at least L:
    - set ballots: a candidate's supporters never change and their loads
      only rise, so its level only rises (clones share both);
    - list ballots: c's old supporters keep their loads, and a ballot
      that newly supports c supported the last winner, so its load is L;
      c's level is a mediant of its old level and L, or above L when c
      had no supporters.
    The argument holds for these two rules only, so the function is
    private.

    The ballot weights are ints over their common denominator `unit`.  A
    state is (elected, den, loads), each load an int over den, kept
    reduced (gcd(den, *loads) == 1) so that equal loads share one state;
    a seat is `unit * den` in these units, and levels compare by
    cross-multiplying.  A committee reached with several load vectors
    keeps the least, compared as rationals by their ints over the lcm of
    the final dens; the committees are expanded in that order.  The
    LoadStates are built from the ints only when they are read
    (`_LoadStates`), so a caller that wants only the OutcomeSet builds no
    Fraction.
    """
    weights, unit = common_denominator(b.weight for b in profile.ballots)
    candidates = profile.candidates
    seats = profile.seats

    def step(state, history):
        elected, den, loads = state
        if len(elected) == seats:
            return None
        backers = supporters(elected)
        if not backers:
            return [((filled, den, loads), history)
                    for filled in _fill(candidates, elected, clones)]
        # Levels in units of 1 / den, as (num, q) for num / q.
        best = None
        options = []
        for cand in clones.heads(sorted(backers), elected):
            group = backers[cand]
            num = unit * den + sum(weights[i] * loads[i] for i in group)
            q = sum(weights[i] for i in group)
            if best is None or num * best[1] < best[0] * q:
                best = (num, q)
                options = [(cand, num, q)]
            elif num * best[1] == best[0] * q:
                options.append((cand, num, q))
        history += ((best[0], best[1] * den),)
        successors = []
        for cand, num, q in options:
            new_loads = [load * q for load in loads]
            for i in backers[cand]:
                new_loads[i] = num
            g = gcd(den * q, *new_loads)
            successors.append(((elected | {cand}, den * q // g,
                                tuple(load // g for load in new_loads)),
                               history))
        return successors

    def finish(finals, truncated):
        common = lcm(*(den for _, den, _ in finals))

        def rational_order(item):
            (_, den, loads), _ = item
            return [load * (common // den) for load in loads]

        least: dict = {}
        for state, history in sorted(finals.items(), key=rational_order):
            least.setdefault(state[0], (state, history))
        outcomes, cut = clones.expand_all(least, branch_cap)
        return OutcomeSet(outcomes, truncated or cut), _LoadStates(outcomes)

    start = (frozenset(), 1, (0,) * len(weights))
    return _count((start, ()), step, branch_cap, finish, goal, seats,
                  lambda state: (state[0], candidates), clones)


class _LoadStates(Mapping):
    """{committee: LoadState} over a count's final (state, history) ints;
    each LoadState is built when it is read."""

    def __init__(self, finals: dict):
        self._finals = finals

    def __getitem__(self, committee) -> LoadState:
        (_, den, loads), history = self._finals[committee]
        return LoadState(tuple(Fraction(load, den) for load in loads),
                         tuple(Fraction(num, q) for num, q in history))

    def __iter__(self):
        return iter(self._finals)

    def __len__(self) -> int:
        return len(self._finals)


def phragmen_unordered(profile: Profile,
                       branch_cap: int = DEFAULT_BRANCH_CAP, goal=None):
    """Min-max-load rule on unordered ballots; a ballot supports every
    unelected name on it (with one shared load account per ballot)."""
    ballots = _set_ballots(profile)
    approvers: dict = {}
    for idx, (members, _) in enumerate(ballots):
        for cand in members:
            approvers.setdefault(cand, []).append(idx)

    def supporters(elected):
        return {cand: group for cand, group in approvers.items()
                if cand not in elected}

    return _sequential_loads(profile, supporters, branch_cap,
                             Clones(ballots, profile.candidates), goal)


def thiele_optimize(scheme: WeightScheme, profile: Profile,
                    branch_cap: int = DEFAULT_BRANCH_CAP) -> OutcomeSet:
    """All committees maximizing total satisfaction.

    Clones are interchangeable, so every split of the seats over the
    clone classes is scored once and the best splits expand into their
    committees, at most `branch_cap` of them.  A profile with more than
    OPTIMIZE_BUDGET splits is refused before any is scored.
    """
    _check_cap(branch_cap)
    ballots = _set_ballots(profile)
    seats = profile.seats
    clones = Clones(ballots, profile.candidates)
    classes = clones.classes
    sizes = [len(members) for members in classes]
    if _split_count(sizes, seats) > OPTIMIZE_BUDGET:
        raise BudgetExceededError(
            "%d seats over %d clone classes: more splits than the budget "
            "of %d" % (seats, len(classes), OPTIMIZE_BUDGET))
    rates, _ = _rates(scheme, seats)
    psi = list(accumulate(rates, initial=0))        # scaled psi(0..seats)
    weights, _ = common_denominator(weight for _, weight in ballots)
    class_of = {c: k for k, members in enumerate(classes) for c in members}
    # A class lies wholly on a ballot or off it; a ballot's satisfaction
    # table is indexed by its number of elected names.
    tables = [(tuple({class_of[c] for c in members}),
               [weight * value for value in psi])
              for (members, _), weight in zip(ballots, weights)]
    best = None
    winners: list = []
    for split in _splits(sizes, seats):
        value = sum(table[sum(split[k] for k in on)] for on, table in tables)
        if best is None or value > best:
            best = value
            winners = [split]
        elif value == best:
            winners.append(split)
    return OutcomeSet(*clones.expand_all(
        {frozenset(chain.from_iterable(
            members[:n] for members, n in zip(classes, split))): None
         for split in winners}, branch_cap))


def _split_count(sizes: list, seats: int) -> int:
    """The number of splits _splits(sizes, seats) yields."""
    ways = [1] + [0] * seats          # ways[s]: splits of s seats so far
    for size in sizes:
        below = list(accumulate(ways, initial=0))     # sums of ways[:i]
        ways = [below[s + 1] - below[max(0, s - size)]
                for s in range(seats + 1)]
    return ways[seats]


def _splits(sizes: list, seats: int):
    """Every tuple n with 0 <= n[k] <= sizes[k] and sum(n) == seats, in
    lexicographic order."""
    if seats > sum(sizes):
        return
    after = [0] * len(sizes)          # after[k] = sum(sizes[k + 1:])
    for k in range(len(sizes) - 2, -1, -1):
        after[k] = after[k + 1] + sizes[k + 1]
    split = [0] * len(sizes)

    def fill(start, left):
        # The least suffix from `start` on that places `left` seats.
        for k in range(start, len(sizes)):
            split[k] = max(0, left - after[k])
            left -= split[k]

    fill(0, seats)
    while True:
        yield tuple(split)
        # Move one seat from the suffix onto the last entry with room.
        placed = 0
        for k in range(len(sizes) - 1, -1, -1):
            placed += split[k]
            if placed > split[k] and split[k] < sizes[k]:
                split[k] += 1
                fill(k + 1, placed - split[k])
                break
        else:
            return


def addition_scores(ballots: list, elected: frozenset):
    """Candidate scores for one sequential-addition round; each ballot is
    (members, credits), credits[k] being what it gives every unelected
    name once k of its names are elected."""
    scores: dict = {}
    for members, credits in ballots:
        credit = credits[len(members & elected)]
        if credit == 0:
            continue
        for cand in members:
            if cand not in elected:
                scores[cand] = scores.get(cand, 0) + credit
    return scores


def thiele_addition(scheme: WeightScheme, profile: Profile,
                    branch_cap: int = DEFAULT_BRANCH_CAP,
                    goal=None) -> OutcomeSet:
    """Greedy sequential max-score election with tie branching."""
    return thiele_addition_paths(scheme, profile, branch_cap, goal)[0]


def thiele_addition_paths(scheme: WeightScheme, profile: Profile,
                          branch_cap: int = DEFAULT_BRANCH_CAP, goal=None):
    """Sequential addition as (OutcomeSet, {committee: winning-score trail})."""
    ballots = _set_ballots(profile)
    seats = profile.seats
    weights, unit = common_denominator(weight for _, weight in ballots)
    # w_k for k = 1..seats: a round sees at most seats - 1 elected names.
    rates, share = _rates(scheme, seats)
    credits = [(members, [weight * rate for rate in rates])
               for (members, _), weight in zip(ballots, weights)]
    return sequential_max(
        lambda elected: addition_scores(credits, elected),
        profile.candidates, seats, unit * share, branch_cap,
        Clones(ballots, profile.candidates), goal)


def thiele_elimination(profile: Profile,
                       branch_cap: int = DEFAULT_BRANCH_CAP) -> OutcomeSet:
    """Repeated elimination of a minimum-score candidate (harmonic credit:
    a ballot with k remaining names gives each of them weight/k),
    branching on one head per tied clone class."""
    ballots = _set_ballots(profile)
    seats = profile.seats
    universe = profile.candidates
    clones = Clones(ballots, universe)
    weights, _ = common_denominator(weight for _, weight in ballots)
    # credits[k] is weight / k, a ballot's credit to each of its k
    # remaining names, as an int in a unit common to every ballot.
    rates, _ = _rates(WeightScheme.harmonic(),
                      max(len(members) for members, _ in ballots))
    credits = [(members, [0] + [weight * rate
                                for rate in rates[:len(members)]])
               for (members, _), weight in zip(ballots, weights)]

    def step(remaining, _):
        if len(remaining) == seats:
            return None
        scores = dict.fromkeys(remaining, 0)
        for members, table in credits:
            live = members & remaining
            if live:
                credit = table[len(live)]
                for cand in live:
                    scores[cand] += credit
        worst = min(scores.values())
        tied = sorted([c for c, value in scores.items() if value == worst])
        return [(remaining - {cand}, None)
                for cand in clones.heads(tied, universe - remaining)]

    finals, truncated = branch((universe, None), step, branch_cap)
    outcomes, cut = clones.expand_all(finals, branch_cap)
    return OutcomeSet(outcomes, truncated or cut)
