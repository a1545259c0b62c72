"""Randomized invariants shared by every counting engine: scale
invariance (with exactly scaled payloads), load conservation, monotone
greedy scores, neutrality under candidate relabelling, and symmetry
under swapping clones."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from multiwin.audit import default_scope
from multiwin.ballots import (DEFAULT_BRANCH_CAP, ListBallot, Profile,
                              SetBallot, WeightScheme, WeightedBallot, scale)
from multiwin.ordered import (BordaWeights, StvSpec, borda_count,
                              phragmen_ordered, stv_count, thiele_ordered)
from multiwin.thresholds import MethodId
from multiwin.unordered import (LoadState, phragmen_unordered,
                                thiele_addition, thiele_addition_paths,
                                thiele_elimination, thiele_optimize)
from multiwin.witnesses import run_method

NAMES = ("A", "B", "C", "D", "E")

weights = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))
# Denominators such as 3, 7 and 9, which no search profile carries.
rationals = st.builds(Fraction, st.integers(1, 12), st.integers(1, 9))


@st.composite
def set_profiles(draw, weight=weights):
    pool = NAMES[:draw(st.integers(min_value=2, max_value=5))]
    groups = draw(st.lists(
        st.tuples(st.sets(st.sampled_from(pool), min_size=1), weight),
        min_size=1, max_size=4))
    ballots = [WeightedBallot(SetBallot(members), w)
               for members, w in groups]
    seats = draw(st.integers(min_value=1, max_value=len(pool)))
    return Profile(ballots, seats, pool)


@st.composite
def list_profiles(draw, weight=weights):
    pool = NAMES[:draw(st.integers(min_value=2, max_value=5))]
    groups = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(pool), min_size=1,
                           unique=True), weight),
        min_size=1, max_size=4))
    ballots = [WeightedBallot(ListBallot(ranking), w)
               for ranking, w in groups]
    seats = draw(st.integers(min_value=1, max_value=len(pool)))
    return Profile(ballots, seats, pool)


HARMONIC = WeightScheme.harmonic()

SET_ENGINES = [
    lambda p: run_method(MethodId("av"), p),
    lambda p: run_method(MethodId("cvq"), p),
    phragmen_unordered,
    lambda p: thiele_addition(HARMONIC, p),
    lambda p: thiele_optimize(HARMONIC, p),
]

LIST_ENGINES = [
    lambda p: stv_count(StvSpec(1), p),
    lambda p: stv_count(StvSpec(0), p),
    phragmen_ordered,
    thiele_ordered,
    lambda p: borda_count(BordaWeights(HARMONIC), p),
]


def outcome_of(engine, profile):
    result = engine(profile)
    return result[0] if isinstance(result, tuple) else result


# ---------------------------------------------------------------------------
# Scale invariance: multiplying every ballot weight by the same positive
# rational never changes the elected committees.


@settings(max_examples=150, deadline=None)
@given(set_profiles(), weights)
def test_set_engines_scale_invariant(profile, factor):
    scaled = scale(profile, factor)
    for engine in SET_ENGINES:
        before = outcome_of(engine, profile)
        after = outcome_of(engine, scaled)
        assert before.sorted_committees() == after.sorted_committees()


@settings(max_examples=150, deadline=None)
@given(list_profiles(), weights)
def test_list_engines_scale_invariant(profile, factor):
    scaled = scale(profile, factor)
    for engine in LIST_ENGINES:
        before = outcome_of(engine, profile)
        after = outcome_of(engine, scaled)
        assert before.sorted_committees() == after.sorted_committees()


# ---------------------------------------------------------------------------
# Load conservation: the final per-ballot loads of both load-balancing
# engines always sum (weighted) to the number of seats won with support,
# one per history entry; a seat filled when no candidate has a supporter
# adds no load.  The elected
# levels never fall and the last is the maximum load, the invariant that
# makes each round's closed-form level exact.


@settings(max_examples=150, deadline=None)
@given(set_profiles())
def test_unordered_load_conservation(profile):
    _, states = phragmen_unordered(profile)
    ballot_weights = [b.weight for b in profile.ballots]
    for state in states.values():
        total = sum(w * load for w, load in zip(ballot_weights, state.loads))
        assert total == len(state.history)
        assert all(a <= b for a, b in zip(state.history, state.history[1:]))
        assert state.max_load == state.history[-1]


@settings(max_examples=150, deadline=None)
@given(list_profiles())
def test_ordered_load_conservation(profile):
    _, states = phragmen_ordered(profile)
    ballot_weights = [b.weight for b in profile.ballots]
    for state in states.values():
        total = sum(w * load for w, load in zip(ballot_weights, state.loads))
        assert total == len(state.history)
        assert all(a <= b for a, b in zip(state.history, state.history[1:]))
        assert state.max_load == state.history[-1]


# ---------------------------------------------------------------------------
# Greedy addition: the winning score can never rise from one seat to the
# next, on any branch of the tie tree.


@settings(max_examples=150, deadline=None)
@given(set_profiles())
def test_addition_winning_scores_non_increasing(profile):
    paths = thiele_addition_paths(HARMONIC, profile)
    for trail in paths[1].values():
        assert all(a >= b for a, b in zip(trail, trail[1:]))


# ---------------------------------------------------------------------------
# Neutrality: renaming the candidates renames the winners and nothing
# else.


def relabelled(profile, mapping):
    ballots = []
    for b in profile.ballots:
        if isinstance(b.content, SetBallot):
            content = SetBallot(mapping[n] for n in b.content.members)
        else:
            content = ListBallot(mapping[n] for n in b.content.ranking)
        ballots.append(WeightedBallot(content, b.weight, b.in_w))
    return Profile(ballots, profile.seats,
                   [mapping[n] for n in profile.candidates])


@settings(max_examples=150, deadline=None)
@given(set_profiles(), st.randoms(use_true_random=False))
def test_set_engines_permutation_equivariant(profile, rng):
    pool = sorted(profile.candidates)
    fresh = ["X%d" % i for i in range(len(pool))]
    rng.shuffle(fresh)
    mapping = dict(zip(pool, fresh))
    renamed = relabelled(profile, mapping)
    for engine in SET_ENGINES:
        before = outcome_of(engine, profile)
        after = outcome_of(engine, renamed)
        expected = sorted(tuple(sorted(mapping[n] for n in committee))
                          for committee in before.sorted_committees())
        assert expected == after.sorted_committees()


@settings(max_examples=150, deadline=None)
@given(list_profiles(), st.randoms(use_true_random=False))
def test_list_engines_permutation_equivariant(profile, rng):
    pool = sorted(profile.candidates)
    fresh = ["X%d" % i for i in range(len(pool))]
    rng.shuffle(fresh)
    mapping = dict(zip(pool, fresh))
    renamed = relabelled(profile, mapping)
    for engine in LIST_ENGINES:
        before = outcome_of(engine, profile)
        after = outcome_of(engine, renamed)
        expected = sorted(tuple(sorted(mapping[n] for n in committee))
                          for committee in before.sorted_committees())
        assert expected == after.sorted_committees()


# ---------------------------------------------------------------------------
# Clones: two candidates approved by exactly the same ballot groups are
# interchangeable, so swapping them maps every outcome set onto itself.


@st.composite
def clone_profiles(draw):
    """Ballots approve unions of groups of names; declared candidates on
    no ballot, and groups no ballot picks, are clones of each other."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    groups = [["G%d_%d" % (g, j) for j in range(n)]
              for g, n in enumerate(sizes)]
    picks = draw(st.lists(
        st.tuples(st.sets(st.integers(0, len(groups) - 1), min_size=1),
                  weights),
        min_size=1, max_size=4))
    ballots = [WeightedBallot(SetBallot(n for g in sorted(chosen)
                                        for n in groups[g]), w)
               for chosen, w in picks]
    pool = sum(groups, []) + ["Z%d" % j for j in range(draw(st.integers(0, 2)))]
    seats = draw(st.integers(min_value=1, max_value=min(4, len(pool))))
    return Profile(ballots, seats, pool)


CLONE_ENGINES = SET_ENGINES + [thiele_elimination]


@settings(max_examples=150, deadline=None)
@given(clone_profiles(), st.data())
def test_set_engines_symmetric_under_clone_swap(profile, data):
    signature: dict = {}
    for name in sorted(profile.candidates):
        key = tuple(name in b.content.members for b in profile.ballots)
        signature.setdefault(key, []).append(name)
    pairs = [(a, b) for names in signature.values()
             for i, a in enumerate(names) for b in names[i + 1:]]
    assume(pairs)
    a, b = data.draw(st.sampled_from(pairs))
    swap = {a: b, b: a}
    for engine in CLONE_ENGINES:
        outcome = outcome_of(engine, profile)
        swapped = {frozenset(swap.get(n, n) for n in committee)
                   for committee in outcome.committees}
        assert swapped == outcome.committees


# ---------------------------------------------------------------------------
# Renaming: every registry engine is tie-complete, so permuting the
# candidates permutes its OutcomeSet, and whether the branch cap truncates
# depends only on how many states each round produces.  The search decides
# one instance per orbit of renamings on this ground.


def _registry_engines(ballot):
    methods = []
    for method, _ in default_scope():
        if (method.spec.ballot == ballot and method.spec.engine is not None
                and method not in methods):
            methods.append(method)
    return methods


def _attempt(method, profile, branch_cap):
    try:
        return run_method(method, profile, branch_cap)
    except ValueError as exc:
        return type(exc)


def _assert_renaming_renames_outcomes(ballot, profile, data):
    pool = sorted(profile.candidates)
    mapping = dict(zip(pool, data.draw(st.permutations(pool))))
    renamed = relabelled(profile, mapping)
    for method in _registry_engines(ballot):
        for cap in (1, 2, DEFAULT_BRANCH_CAP):
            before = _attempt(method, profile, cap)
            after = _attempt(method, renamed, cap)
            if isinstance(before, type):
                assert before is after, (method, cap)
                continue
            assert before.truncated == after.truncated, (method, cap)
            if not before.truncated:
                assert after.committees == {
                    frozenset(mapping[n] for n in committee)
                    for committee in before.committees}, (method, cap)


@settings(max_examples=100, deadline=None)
@given(set_profiles(), st.data())
def test_set_registry_engines_equivariant_under_renaming(profile, data):
    _assert_renaming_renames_outcomes("set", profile, data)


@settings(max_examples=100, deadline=None)
@given(list_profiles(), st.data())
def test_list_registry_engines_equivariant_under_renaming(profile, data):
    _assert_renaming_renames_outcomes("list", profile, data)


# ---------------------------------------------------------------------------
# Exact scaling: multiplying every weight of a rational profile by q leaves
# every registry engine's OutcomeSet (or its refusal) as it was, multiplies
# sequential addition's winning scores by q and divides the loads and the
# load history of load balancing by q.


def _assert_scaling_scales_payloads(ballot, profile, factor):
    scaled = scale(profile, factor)
    for method in _registry_engines(ballot):
        before = _attempt(method, profile, DEFAULT_BRANCH_CAP)
        assert _attempt(method, scaled, DEFAULT_BRANCH_CAP) == before, method
        if isinstance(before, type):
            continue
        if method.spec.loads:
            _, states = method.spec.engine(method, profile,
                                           DEFAULT_BRANCH_CAP)
            _, scaled_states = method.spec.engine(method, scaled,
                                                  DEFAULT_BRANCH_CAP)
            assert scaled_states == {
                committee: LoadState(
                    tuple(load / factor for load in state.loads),
                    tuple(level / factor for level in state.history))
                for committee, state in states.items()}, method
        if method.kind == "thiele-add":
            _, trails = thiele_addition_paths(method.scheme, profile)
            _, scaled_trails = thiele_addition_paths(method.scheme, scaled)
            assert scaled_trails == {
                committee: tuple(score * factor for score in trail)
                for committee, trail in trails.items()}, method


@settings(max_examples=100, deadline=None)
@given(set_profiles(rationals), rationals)
def test_set_registry_engines_scale_exactly(profile, factor):
    _assert_scaling_scales_payloads("set", profile, factor)


@settings(max_examples=100, deadline=None)
@given(list_profiles(rationals), rationals)
def test_list_registry_engines_scale_exactly(profile, factor):
    _assert_scaling_scales_payloads("list", profile, factor)
