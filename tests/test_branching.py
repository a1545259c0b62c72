"""The shared tie-branching loop: what a truncated count returns, and
what a goal count decides."""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from multiwin import ordered, unordered
from multiwin.audit import AUDIT_SPEC, audit_table, default_scope
from multiwin.ballots import (DEFAULT_BRANCH_CAP, CoverageError, ListBallot,
                              OutcomeSet, Profile, SetBallot, WeightScheme,
                              WeightedBallot)
from multiwin.ordered import (BordaWeights, StvSpec, borda_count,
                              phragmen_ordered, stv_count, thiele_ordered)
from multiwin.scenarios import (IndeterminateOutcome, ScenarioId,
                                ScenarioInstance, is_bad_outcome_possible,
                                is_good)
from multiwin.search import search_lower_bound
from multiwin.thresholds import MethodId
from multiwin.unordered import (BudgetExceededError, branch,
                                phragmen_unordered,
                                thiele_addition, thiele_addition_paths,
                                thiele_elimination, thiele_optimize)
from multiwin.witnesses import run_method

HARMONIC = WeightScheme.harmonic()
NAMES = ["C%d" % i for i in range(6)]
SEATS = 3
# Six equal singletons: every 3-subset wins, and the largest round holds
# all C(6, 3) = 20 of them.
SET_PROFILE = Profile([WeightedBallot(SetBallot([n]), Fraction(1))
                       for n in NAMES], SEATS)
LIST_PROFILE = Profile([WeightedBallot(ListBallot([n]), Fraction(1))
                        for n in NAMES], SEATS)

ENGINES = {
    "av": lambda cap: run_method(MethodId("av"), SET_PROFILE, cap),
    "thiele-add": lambda cap: thiele_addition(HARMONIC, SET_PROFILE, cap),
    "thiele-add-paths": lambda cap: thiele_addition_paths(
        HARMONIC, SET_PROFILE, cap),
    "thiele-elim": lambda cap: thiele_elimination(SET_PROFILE, cap),
    "thiele-opt": lambda cap: thiele_optimize(HARMONIC, SET_PROFILE, cap),
    "phragmen-u": lambda cap: phragmen_unordered(SET_PROFILE, cap),
    "stv:1": lambda cap: stv_count(StvSpec(1), LIST_PROFILE, cap),
    "stv:0": lambda cap: stv_count(StvSpec(0), LIST_PROFILE, cap),
    "phragmen-o": lambda cap: phragmen_ordered(LIST_PROFILE, cap),
    "thiele-o": lambda cap: thiele_ordered(LIST_PROFILE, cap),
    "borda": lambda cap: borda_count(BordaWeights(HARMONIC), LIST_PROFILE,
                                     cap),
}


def _choose(names, size):
    """A synthetic count for `branch`: each round adds one name not yet
    chosen, in name order, and a set of `size` names is final.  The
    payload is the order in which the names were added."""
    def step(chosen, path):
        if len(chosen) == size:
            return None
        return [(chosen | {name}, path + (name,))
                for name in names if name not in chosen]

    return (frozenset(), ()), step


def _finals(*paths):
    return {frozenset(path): tuple(path) for path in paths}


def test_branch_keeps_the_first_payload_of_a_state():
    # {a, b} comes from {a} and then from {b}; the first path stays.
    finals, truncated = branch(*_choose("abc", 2), 3)
    assert list(finals.items()) == list(_finals("ab", "ac", "bc").items())
    assert not truncated


@pytest.mark.parametrize("cap", range(1, 8))
def test_branch_truncates_exactly_when_a_round_exceeds_the_cap(cap):
    # Choosing 2 of 4 names: the rounds produce 4 and 6 states, and a cut
    # round keeps its first `cap` in production order.
    finals, truncated = branch(*_choose("abcd", 2), cap)
    every = list(_finals("ab", "ac", "ad", "bc", "bd", "cd").items())
    assert truncated == (cap < 6)
    assert list(finals.items()) == every[:cap]


def _counted(count):
    """The (start, step) count with its steps tallied in a list."""
    start, step = count
    steps = []

    def tallied(state, payload):
        steps.append(state)
        return step(state, payload)

    return (start, tallied), steps


def _listed(count, origin):
    """The final state a goal count's listing reaches from its origin."""
    return branch(origin, count[1], 1)[0]


@pytest.mark.parametrize("verdict", [True, False])
def test_goal_count_settled_at_its_start(verdict):
    # Every committee good (or every one bad) from the start: decided
    # before any step, and the listing walks first successors from the
    # start state to one final.
    for cap in (1, DEFAULT_BRANCH_CAP):
        count, steps = _counted(_choose("abcd", 2))
        assert branch(*count, cap, lambda chosen: verdict) == (
            not verdict, count[0])
        assert steps == []
    assert _listed(count, count[0]) == _finals("ab")


def test_goal_count_ends_at_a_bad_state_after_a_cut_round():
    # Good iff "a" is chosen.  Round 1 drops {a} and cuts {b}, {c}, {d}
    # to two; round 2 drops {a, b} and ends at {b, c}, which is bad, so
    # the verdict is bad although a round was cut.  No step is taken
    # from {b, c}; the listing finds it final.
    def settle(chosen):
        if "a" in chosen:
            return True
        return False if len(chosen) == 2 else None

    count, steps = _counted(_choose("abcd", 2))
    bad, origin = branch(*count, 2, settle)
    assert (bad, origin) == (True, (frozenset("bc"), ("b", "c")))
    assert steps == [frozenset(), frozenset("b")]
    assert _listed(count, origin) == _finals("bc")


@pytest.mark.parametrize("cap, last, truncated",
                         [(2, "bc", True), (3, "cb", False)])
def test_goal_count_all_good_returns_the_last_dropped(cap, last, truncated):
    # Every final good, every earlier state undecided: each final is
    # dropped, and the listing starts from the last one dropped, by the
    # last state of round 1 kept.  Good when no round was cut, undecided
    # when round 1 (3 states) was.
    def settle(chosen):
        return True if len(chosen) == 2 else None

    count, steps = _counted(_choose("abc", 2))
    bad, origin = branch(*count, cap, settle)
    assert (bad, origin) == (None if truncated else False,
                             (frozenset(last), tuple(last)))
    assert len(steps) == 1 + min(cap, 3)
    assert _listed(count, origin) == {frozenset(last): tuple(last)}


def _outcome(result):
    """(OutcomeSet, per-committee payloads or None)."""
    if isinstance(result, OutcomeSet):
        return result, None
    return result


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_truncated_outcomes_are_full_sized_subsets(name):
    engine = ENGINES[name]
    full, _ = _outcome(engine(DEFAULT_BRANCH_CAP))
    assert len(full) == 20 and not full.truncated
    for cap in range(1, 26):
        out, payloads = _outcome(engine(cap))
        assert len(out) >= 1
        assert out.committees <= full.committees, cap
        assert all(len(c) == SEATS for c in out.committees), cap
        # The cap cuts something off exactly when it is below the size of
        # the largest round, and then the listed committees are incomplete.
        assert out.truncated == (cap < 20), cap
        assert out.truncated == (out.committees != full.committees), cap
        if payloads is not None:
            assert set(payloads) == out.committees


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_zero_cap_is_refused(name):
    with pytest.raises(ValueError, match="branch_cap must be >= 1"):
        ENGINES[name](0)


def _party_lists(votes, seats, ballot):
    """One ballot per party, naming `seats` candidates of its own."""
    return Profile([WeightedBallot(ballot(["P%d_%d" % (p, j)
                                           for j in range(seats)]),
                                   Fraction(v))
                    for p, v in enumerate(votes)], seats)


def test_clone_classes_count_representative_states():
    # 4 lists of 5 names: D'Hondt gives (2,1,1,1) in some order, so the
    # 4 seat vectors list 4 * C(5,2) * 5**3 = 1,250 committees, more than
    # the representative states any round of the count keeps.
    out = thiele_elimination(_party_lists([18, 12, 14, 14], 5, SetBallot))
    assert len(out) == 1250 and not out.truncated


def test_stv_eliminates_zero_vote_ties_in_one_step():
    # Most names hold 0 votes when the first elimination comes; eliminating
    # them one at a time, in every order, expanded 16,388 states that all
    # count to this one committee.  Eliminated together, the count takes 6.
    out = stv_count(StvSpec(0), _party_lists([8, 17, 13, 9], 5, ListBallot),
                    branch_cap=2)
    assert not out.truncated
    assert out.sorted_committees() == [
        ("P0_0", "P1_0", "P1_1", "P2_0", "P3_0")]


@pytest.mark.parametrize("engine", [
    lambda p, cap: thiele_addition(HARMONIC, p, cap),
    lambda p, cap: thiele_elimination(p, cap),
    lambda p, cap: phragmen_unordered(p, cap)[0],
    lambda p, cap: thiele_optimize(HARMONIC, p, cap),
], ids=["thiele-add", "thiele-elim", "phragmen-u", "thiele-opt"])
def test_expansion_stops_at_the_cap(engine):
    # One list of 30 names, S = 15: one representative state, which
    # expands into C(30, 15) = 155,117,520 committees.  The expansion lists
    # the first branch_cap of them and flags the rest as cut off.
    profile = _party_lists([1], 30, SetBallot)
    profile = Profile(profile.ballots, 15)
    for cap in (1, 7, DEFAULT_BRANCH_CAP):
        out = engine(profile, cap)
        assert out.truncated and len(out) == cap
        assert all(len(c) == 15 for c in out.committees)


def test_optimize_over_a_thousand_clone_classes():
    # 1,001 singleton ballots: 1,001 classes, C(1001, 1) within the budget.
    names = ["C%04d" % i for i in range(1001)]
    out = thiele_optimize(HARMONIC, Profile(
        [WeightedBallot(SetBallot([n]), Fraction(1)) for n in names], 1))
    assert not out.truncated
    assert out.sorted_committees() == [(n,) for n in names]



# ---------------------------------------------------------------------------
# Goal counts: given a scenario's goal pairs, an engine lists only
# committees that decide whether a bad one is reachable.  The verdict must
# be the full count's wherever that is untruncated, and must never
# contradict a decided full verdict at a cap that truncates.

SCENARIOS = {"set": ("party", "same", "tactic", "pjr", "ejr"),
             "list": ("party", "same", "tactic", "psc", "wpsc")}
# Engines on `branch` (and thiele-opt and thiele-elim, which take no goal
# and count in full): each keeps every state the full count keeps that is
# not settled good, so it also decides every verdict the full count
# decides.  The score family (av, bv, sntv, lv, cvq, borda) checks seat
# splits instead of listing committees, so a cap can cut the two at
# different places.
BRANCHING = ("phragmen-u", "thiele-opt", "thiele-add", "thiele-elim", "stv",
             "phragmen-o", "thiele-o")
METHODS = {ballot: list(dict.fromkeys(
    method for method, _ in default_scope()
    if method.spec.ballot == ballot and method.spec.engine is not None))
    for ballot in SCENARIOS}


@st.composite
def goal_instances(draw, ballot):
    """An instance on `ballot` ballots: each ballot names whole blocks of
    2 names or single names, so names of one block are often clones; W
    holds the first ballot group and the target is any set of names, so a
    clone class often straddles a goal set."""
    pool = ["C%d" % i for i in range(draw(st.integers(2, 7)))]
    blocks = [pool[i:i + 2] for i in range(0, len(pool), 2)]
    content = SetBallot if ballot == "set" else ListBallot
    groups = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            chosen = draw(st.lists(st.sampled_from(blocks), min_size=1,
                                   max_size=3, unique_by=tuple))
            names = [name for block in chosen for name in block]
        else:
            names = draw(st.lists(st.sampled_from(pool), min_size=1,
                                  max_size=4, unique=True))
        groups.append((names, draw(st.integers(1, 6))))
    # W is the first group and now and then another, each of weight at
    # most 2, so that bad committees are common.
    in_w = [True] + [draw(st.integers(0, 3)) == 0 for _ in groups[1:]]
    profile = Profile([WeightedBallot(content(names),
                                      Fraction(min(weight, 2) if w
                                               else weight), w)
                       for (names, weight), w in zip(groups, in_w)],
                      draw(st.integers(1, len(pool))), pool)
    target = draw(st.sets(st.sampled_from(pool), min_size=1))
    ell = draw(st.integers(1, profile.seats))
    return ScenarioInstance(profile, target, ell,
                            draw(st.sampled_from(SCENARIOS[ballot])))


def _verdict(method, inst, branch_cap, goal):
    """True or False, None when the count cannot decide, or the type of
    the engine's refusal."""
    try:
        outcome = run_method(method, inst.profile, branch_cap,
                             inst.goal if goal else None)
    except (CoverageError, ValueError, BudgetExceededError) as exc:
        return type(exc)
    try:
        return is_bad_outcome_possible(inst, outcome)
    except IndeterminateOutcome:
        return None


def _assert_goal_verdicts_agree(inst):
    for method in METHODS[inst.profile.kind]:
        full = _verdict(method, inst, DEFAULT_BRANCH_CAP, False)
        assert full is not None
        assert _verdict(method, inst, DEFAULT_BRANCH_CAP, True) == full, \
            method
        for cap in (1, 2, 3):
            full = _verdict(method, inst, cap, False)
            goal = _verdict(method, inst, cap, True)
            if isinstance(full, type):
                assert goal is full, (method, cap)
            elif full is not None and (goal is not None
                                       or method.kind in BRANCHING):
                assert goal == full, (method, cap)


@settings(max_examples=150, deadline=None)
@given(goal_instances("set"))
def test_set_goal_verdicts_agree_with_the_full_count(inst):
    _assert_goal_verdicts_agree(inst)


@settings(max_examples=150, deadline=None)
@given(goal_instances("list"))
def test_list_goal_verdicts_agree_with_the_full_count(inst):
    _assert_goal_verdicts_agree(inst)


@pytest.mark.parametrize("label, ballots, target", [
    ("phragmen-u", [["C0", "C1"], ["D0"]], ["C0", "D0"]),
    ("thiele-add", [["C0", "C1"], ["D0"]], ["C0", "D0"]),
], ids=["phragmen-u", "thiele-add"])
def test_a_clone_class_straddling_a_goal_set_is_counted_in_full(
        label, ballots, target):
    # C0 and C1 are clones, so the count branches on C0 alone.  Only one
    # of them is in the target, so the committees a state holding C0
    # expands into are not all good or all bad; settling it would drop
    # the bad {C1} and end on a good committee.
    profile = Profile([WeightedBallot(SetBallot(names), Fraction(1), True)
                       for names in ballots], 1)
    inst = ScenarioInstance(profile, target, 1, ScenarioId.TACTIC)
    method = MethodId.parse(label)
    assert _verdict(method, inst, DEFAULT_BRANCH_CAP, True) is True
    assert _verdict(method, inst, DEFAULT_BRANCH_CAP, False) is True


def _walk(step, state, payload):
    """The final (state, payload) that first successors reach."""
    while (successors := step(state, payload)) is not None:
        state, payload = successors[0]
    return state, payload


def _eager_branch(start, step, branch_cap=DEFAULT_BRANCH_CAP, settle=None):
    """`branch` as goal counts ran before they decided first: a goal count
    walked first successors to one final state, from the bad state, the
    settled start or the last state dropped, and was truncated only when
    a round was cut and nothing was bad.  That final goes back to the
    engine as its listing's origin, with None for a truncated count and
    False otherwise, so the listing finishes exactly that final under
    that flag."""
    if settle is None:
        return branch(start, step, branch_cap)

    if settle(start[0]) is not None:
        return False, _walk(step, *start)
    dropped, frontier, truncated = None, dict((start,)), False
    while frontier:
        produced: dict = {}
        for state, payload in frontier.items():
            for successor, data in step(state, payload) or ():
                if successor in produced:
                    continue
                good = settle(successor)
                if good is None:
                    produced[successor] = data
                elif good:
                    dropped = (successor, data)
                else:
                    return False, _walk(step, successor, data)
        if len(produced) > branch_cap:
            truncated = True
            produced = dict(islice(produced.items(), branch_cap))
        frontier = produced
    return (None if truncated else False), _walk(step, *dropped)


# The engines whose goal counts run on `branch` and return decided sets.
DECIDED = ("phragmen-u", "thiele-add", "stv", "phragmen-o", "thiele-o")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SCENARIOS)).flatmap(goal_instances),
       st.sampled_from((1, 2, 3, DEFAULT_BRANCH_CAP)))
def test_a_goal_set_lists_the_eager_walk_and_agrees_with_its_verdict(
        inst, cap):
    # Reading a goal count's committees and flag gives exactly what the
    # count gave when it walked to its final before returning, and the
    # listed committees are bad exactly when the verdict is.  A set whose
    # count ran in full (a clone class straddles a goal set) holds no
    # verdict.
    for method in METHODS[inst.profile.kind]:
        if method.kind not in DECIDED:
            continue
        try:
            lazy = run_method(method, inst.profile, cap, inst.goal)
        except (CoverageError, ValueError):
            continue
        if lazy.goal is not None:
            assert "committees" not in vars(lazy), method
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(unordered, "branch", _eager_branch)
            eager = run_method(method, inst.profile, cap, inst.goal)
        assert (lazy.committees, lazy.truncated) == (
            eager.committees, eager.truncated), (method, cap)
        if lazy.goal is not None:
            bad = any(not is_good(inst, c) for c in lazy.committees)
            assert bad == (lazy.bad is True), (method, cap)


def _stepped(method, profile):
    """The (state, payload) pairs that the method's full count steps from,
    each with the engine's step, over every count the engine runs on
    `branch`."""
    stepped = []

    def recording(start, step, *args):
        def tallied(state, payload):
            stepped.append((step, state, payload))
            return step(state, payload)

        return branch(start, tallied, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(unordered, "branch", recording)
        try:
            run_method(method, profile)
        except (CoverageError, ValueError, BudgetExceededError):
            pass
    return stepped


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SCENARIOS)).flatmap(goal_instances),
       st.integers(0, 5), st.integers(0, 5))
def test_a_cap_of_one_lists_the_first_successor_final(inst, names, size):
    # At a cap of 1 each round keeps only its first produced state, which
    # is the first successor, so `branch` walks first successors to one
    # final: a goal count's listing.  Checked from states that the STV,
    # load, sequential and elimination steps reach, and on `_choose`.
    start, step = _choose("abcde"[:names], min(size, names))
    assert branch(start, step, 1)[0] == dict([_walk(step, *start)])
    for method in METHODS[inst.profile.kind]:
        for step, state, payload in _stepped(method, inst.profile)[:12]:
            finals, _ = branch((state, payload), step, 1)
            assert finals == dict([_walk(step, state, payload)]), method


def test_a_goal_count_returns_no_payloads():
    # No caller reads a goal count's payloads, so none are built.
    goal = ScenarioInstance(SET_PROFILE, ["C0", "C1"], 2,
                            ScenarioId.TACTIC).goal
    for out, payloads in (phragmen_unordered(SET_PROFILE, goal=goal),
                          thiele_addition_paths(HARMONIC, SET_PROFILE,
                                                goal=goal),
                          phragmen_ordered(LIST_PROFILE, goal=goal)):
        assert out.bad is True and payloads is None
        assert len(out) == 1 and not out.truncated


@pytest.mark.parametrize("label", ["thiele-add", "phragmen-u"])
def test_a_good_verdict_answers_although_its_listing_is_cut(label):
    # The start state is settled good: every pair of seats holds one of
    # the three clones A1-A3.  The listing's final, {A1, A2}, expands into
    # three committees, which a cap of 2 cuts; read as a plain set, that
    # cut listing of good committees cannot tell, but the verdict can.
    profile = Profile([
        WeightedBallot(SetBallot(["A1", "A2", "A3"]), Fraction(5)),
        WeightedBallot(SetBallot(["B"]), Fraction(1), True)], 2)
    inst = ScenarioInstance(profile, ["A1", "A2", "A3"], 1,
                            ScenarioId.TACTIC)
    out = run_method(MethodId.parse(label), profile, 2, inst.goal)
    assert out.bad is False and not is_bad_outcome_possible(inst, out)
    assert out.sorted_committees() == [("A1", "A2"), ("A1", "A3")]
    assert out.truncated
    with pytest.raises(IndeterminateOutcome):
        is_bad_outcome_possible(inst, OutcomeSet(out.committees, True))


def test_goal_count_lists_one_committee_of_the_verdict():
    # Six equal singletons, S = 3, target {C0, C1} at ell = 2: some
    # committee is bad, and the goal count ends at the first state that
    # must end bad, with the one committee it leads to.
    inst = ScenarioInstance(SET_PROFILE, ["C0", "C1"], 2, ScenarioId.TACTIC)
    for method in METHODS["set"]:
        if method.kind in ("thiele-opt", "thiele-elim"):
            continue
        out = run_method(method, SET_PROFILE, DEFAULT_BRANCH_CAP, inst.goal)
        assert len(out) == 1 and not out.truncated, method
        assert is_bad_outcome_possible(inst, out), method
    # A target all of whose completions are good: the start state is
    # settled good, and its first successors lead to one committee.
    good = ScenarioInstance(SET_PROFILE, NAMES, 1, ScenarioId.TACTIC)
    out = thiele_addition(HARMONIC, SET_PROFILE, DEFAULT_BRANCH_CAP,
                          good.goal)
    assert len(out) == 1 and not is_bad_outcome_possible(good, out)


def test_goal_count_steps_of_the_heaviest_search_cell(monkeypatch):
    # stv:1 tactic ell=3 S=3 is the slowest cell of the audit search.  Its
    # full counts take 18,731 steps.  Ended at the first state that loses
    # a target, or passes for good once all three are elected, they took
    # 7,840 while each count still walked on to a final state; deciding
    # without that walk, 1,964.
    steps = [0]
    make = ordered._stv_step

    def counted(spec, profile):
        start, step = make(spec, profile)

        def wrapped(state, payload):
            steps[0] += 1
            return step(state, payload)

        return start, wrapped

    monkeypatch.setattr(ordered, "_stv_step", counted)
    best, _ = search_lower_bound(MethodId.parse("stv:1"), "tactic", 3, 3,
                                 AUDIT_SPEC)
    assert (best, steps[0]) == (Fraction(3, 4), 1964)


def test_deciding_the_audit_search_cells_lists_no_goal_count(monkeypatch):
    # The search, and the audit's covering witnesses, answer every goal
    # count from its verdict, so no count walks on to a final state.
    listed = []
    decided = OutcomeSet.decided

    def tallied(goal, bad, listing):
        return decided(goal, bad,
                       lambda: listed.append(goal) or listing())

    monkeypatch.setattr(OutcomeSet, "decided", staticmethod(tallied))
    report = audit_table(smax=3, with_search=True)
    assert report.passed and len(report.checks) == 1607
    assert listed == []
