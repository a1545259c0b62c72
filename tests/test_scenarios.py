"""Scenario membership tests and good/bad outcome classification."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from multiwin.ballots import OutcomeSet, parse_profile
from multiwin.scenarios import (IndeterminateOutcome, ScenarioId,
                                ScenarioInstance, ScenarioTypeError,
                                is_bad_outcome_possible, is_good, is_instance,
                                settle)


def inst(text, target, ell, scenario):
    return ScenarioInstance(parse_profile(text), frozenset(target), ell,
                            ScenarioId(scenario))


def test_fraction_property():
    i = inst("!seats 2\n!W 3 : {A B}\n7 : {C}\n", "AB", 1, "same")
    assert i.fraction == Fraction(3, 10)


def test_ell_bounds_validated():
    with pytest.raises(ValueError):
        inst("!seats 2\n!W 1 : {A B}\n1 : {C}\n", "AB", 3, "same")


# ---------------------------------------------------------------------------
# Ballot restrictions


def test_tactic_accepts_anything():
    assert is_instance(inst("!seats 1\n!W 1 : {A}\n1 : {B}\n", "B", 1,
                            "tactic"))


def test_no_w_ballots_fails_everywhere_but_tactic():
    text = "!seats 1\n1 : {A}\n1 : {B}\n"
    for scenario in ("party", "same", "pjr", "ejr"):
        assert not is_instance(inst(text, "A", 1, scenario))


def test_same_requires_identical_w_ballots():
    good = "!seats 2\n!W 2 : {A B}\n!W 1 : {A B}\n1 : {C}\n"
    mixed = "!seats 2\n!W 2 : {A B}\n!W 1 : {A}\n1 : {C}\n"
    assert is_instance(inst(good, "AB", 2, "same"))
    assert not is_instance(inst(mixed, "AB", 2, "same"))


def test_same_target_must_match_the_common_list():
    text = "!seats 2\n!W 2 : {A B}\n1 : {C}\n"
    assert not is_instance(inst(text, "A", 1, "same"))


def test_w_on_two_party_lists_is_not_a_party_instance():
    text = "!seats 3\n!W 2 : {A1 A2}\n!W 1 : {C1}\n2 : {B1 B2}\n"
    assert not is_instance(inst(text, ["A1", "A2"], 2, "party"))


def test_target_smaller_than_ell_is_refused():
    sets = "!seats 2\n!W 2 : {A B}\n1 : {C}\n"
    assert is_instance(inst(sets, "AB", 2, "pjr"))
    for scenario in ("pjr", "ejr"):
        assert not is_instance(inst(sets, "A", 2, scenario))
    lists = "!seats 2\n!W 2 : [A B]\n1 : [C]\n"
    assert is_instance(inst(lists, "AB", 2, "psc"))
    assert not is_instance(inst(lists, "A", 2, "psc"))


def test_party_requires_disjoint_identical_lists():
    good = "!seats 3\n!W 3 : {A1 A2}\n2 : {B1 B2}\n1 : {C1}\n"
    overlap = "!seats 3\n!W 3 : {A1 A2}\n2 : {A2 B1}\n1 : {C1}\n"
    assert is_instance(inst(good, ["A1", "A2"], 2, "party"))
    assert not is_instance(inst(overlap, ["A1", "A2"], 2, "party"))


def test_party_ordered_lists_must_agree_in_order():
    reordered = "!seats 3\n!W 3 : [A1 A2]\n1 : [B1 B2]\n1 : [B2 B1]\n"
    agreeing = "!seats 3\n!W 3 : [A1 A2]\n1 : [B1 B2]\n1 : [B1 B2]\n"
    assert not is_instance(inst(reordered, ["A1", "A2"], 2, "party"))
    assert is_instance(inst(agreeing, ["A1", "A2"], 2, "party"))


def test_party_scenario_on_party_ballots():
    text = "!seats 2\n!W 3 : party P\n2 : party Q\n"
    assert is_instance(inst(text, "P", 1, "party"))
    assert not is_instance(inst(text, "Q", 1, "party"))


def test_party_ballots_rejected_elsewhere():
    text = "!seats 2\n!W 3 : party P\n2 : party Q\n"
    with pytest.raises(ScenarioTypeError):
        is_instance(inst(text, "P", 1, "same"))


def test_pjr_ejr_require_target_on_every_w_ballot():
    text = "!seats 3\n!W 2 : {A X}\n!W 2 : {A Y}\n1 : {B C D}\n"
    assert is_instance(inst(text, "A", 1, "pjr"))
    assert is_instance(inst(text, "A", 1, "ejr"))
    assert not is_instance(inst(text, "X", 1, "ejr"))


def test_psc_requires_solid_prefixes():
    solid = "!seats 3\n!W 2 : [A1 A2 X]\n!W 1 : [A2 A1]\n1 : [B C D]\n"
    broken = "!seats 3\n!W 2 : [A1 X A2]\n!W 1 : [A2 A1]\n1 : [B C D]\n"
    assert is_instance(inst(solid, ["A1", "A2"], 2, "psc"))
    assert not is_instance(inst(broken, ["A1", "A2"], 2, "psc"))


def test_wpsc_requires_target_of_size_ell():
    solid = "!seats 3\n!W 2 : [A1 A2 X]\n1 : [B C D]\n"
    assert is_instance(inst(solid, ["A1", "A2"], 2, "wpsc"))
    assert is_instance(inst(solid, ["A1"], 1, "wpsc"))
    assert not is_instance(inst(solid, ["A1", "A2"], 1, "wpsc"))


# ---------------------------------------------------------------------------
# Good outcomes


def test_good_same_counts_own_list_members():
    i = inst("!seats 3\n!W 2 : {A B C}\n1 : {D E F}\n", "ABC", 2, "same")
    assert is_good(i, frozenset("ABD"))
    assert not is_good(i, frozenset("ADE"))


def test_good_pjr_counts_union():
    i = inst("!seats 3\n!W 1 : {A X}\n!W 1 : {A Y}\n1 : {B C D}\n",
             "A", 2, "pjr")
    assert is_good(i, frozenset({"X", "Y", "B"}))


def test_good_ejr_needs_one_happy_ballot():
    i = inst("!seats 3\n!W 1 : {A X}\n!W 1 : {A Y}\n1 : {B C D}\n",
             "A", 2, "ejr")
    assert not is_good(i, frozenset({"X", "Y", "B"}))
    assert is_good(i, frozenset({"A", "X", "B"}))


def test_good_wpsc_needs_full_target():
    i = inst("!seats 3\n!W 2 : [A1 A2 X]\n1 : [B C D]\n",
             ["A1", "A2"], 2, "wpsc")
    assert is_good(i, frozenset({"A1", "A2", "B"}))
    assert not is_good(i, frozenset({"A1", "X", "B"}))


def test_good_psc_counts_target_members():
    i = inst("!seats 3\n!W 2 : [A1 A2]\n1 : [B C D]\n",
             ["A1", "A2"], 1, "psc")
    assert is_good(i, frozenset({"A2", "B", "C"}))


def test_bad_outcome_scan():
    i = inst("!seats 2\n!W 3 : {A B}\n1 : {C}\n", "AB", 1, "same")
    good_only = OutcomeSet([frozenset("AB"), frozenset("AC")])
    with_bad = OutcomeSet([frozenset("AB"), frozenset("CD")])
    assert not is_bad_outcome_possible(i, good_only)
    assert is_bad_outcome_possible(i, with_bad)


def test_truncated_outcomes_are_indeterminate():
    i = inst("!seats 2\n!W 3 : {A B}\n1 : {C}\n", "AB", 1, "same")
    truncated = OutcomeSet([frozenset("AB")], truncated=True)
    with pytest.raises(IndeterminateOutcome):
        is_bad_outcome_possible(i, truncated)


def test_truncated_outcomes_listing_a_bad_committee_are_bad():
    # A truncated set lists only reachable committees, so one bad
    # committee on it decides the question.
    i = inst("!seats 2\n!W 3 : {A B}\n1 : {C}\n1 : {D}\n", "AB", 1, "same")
    truncated = OutcomeSet([frozenset("AB"), frozenset("CD")],
                           truncated=True)
    assert is_bad_outcome_possible(i, truncated)


# ---------------------------------------------------------------------------
# The goal bound over an interval of committees


@settings(max_examples=300)
@given(st.data())
def test_settle_matches_brute_force(data):
    # Every seats-set between sure and possible, over at most 6 names,
    # goal names drawn from 7 so that some lie outside possible: True
    # means every set meets some pair, False that none does, and both
    # are exact for one pair; False is exact for several too.
    possible = frozenset(data.draw(st.sets(st.sampled_from("ABCDEF"),
                                           min_size=1)))
    sure = frozenset(data.draw(st.sets(st.sampled_from(sorted(possible)))))
    seats = data.draw(st.integers(max(1, len(sure)), len(possible)))
    pair = st.tuples(st.frozensets(st.sampled_from("ABCDEFG")),
                     st.integers(1, seats + 1))
    goal = tuple(data.draw(st.lists(pair, min_size=1, max_size=3)))
    good = [any(len(names & committee) >= ell for names, ell in goal)
            for committee in (sure.union(extra) for extra in combinations(
                sorted(possible - sure), seats - len(sure)))]
    settled = settle(goal, seats, sure, possible)
    assert settled is not True or all(good)
    assert (settled is False) == (not any(good))
    if len(goal) == 1:
        assert settled is (True if all(good) else False if not any(good)
                           else None)
