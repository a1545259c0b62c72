"""The shared tie-branching loop: what a truncated count returns."""

from fractions import Fraction

import pytest

from multiwin.ballots import (DEFAULT_BRANCH_CAP, ListBallot, OutcomeSet,
                              Profile, SetBallot, WeightScheme, WeightedBallot)
from multiwin.ordered import (BordaWeights, StvSpec, borda_count,
                              phragmen_ordered, stv_count, thiele_ordered)
from multiwin.thresholds import MethodId
from multiwin.unordered import (phragmen_unordered, thiele_addition,
                                thiele_addition_paths, thiele_elimination,
                                thiele_optimize)
from multiwin.verifier import run_method

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

