"""The shared tie-branching loop: what a truncated count returns."""

from fractions import Fraction

import pytest

from multiwin.ballots import (DEFAULT_BRANCH_CAP, ListBallot, OutcomeSet,
                              Profile, SetBallot, WeightScheme, WeightedBallot)
from multiwin.ordered import (StvSpec, phragmen_ordered, stv_count,
                              thiele_ordered)
from multiwin.unordered import (phragmen_unordered, thiele_addition,
                                thiele_addition_paths, thiele_elimination)

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
    "thiele-add": lambda cap: thiele_addition(HARMONIC, SET_PROFILE, cap),
    "thiele-add-paths": lambda cap: thiele_addition_paths(
        HARMONIC, SET_PROFILE, cap),
    "thiele-elim": lambda cap: thiele_elimination(SET_PROFILE, cap),
    "phragmen-u": lambda cap: phragmen_unordered(SET_PROFILE, cap),
    "stv:1": lambda cap: stv_count(StvSpec(1), LIST_PROFILE, cap),
    "stv:0": lambda cap: stv_count(StvSpec(0), LIST_PROFILE, cap),
    "phragmen-o": lambda cap: phragmen_ordered(LIST_PROFILE, cap),
    "thiele-o": lambda cap: thiele_ordered(LIST_PROFILE, cap),
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
