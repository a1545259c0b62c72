"""Engines for ordered ballots: transfer counting, ordered load
balancing, sequential position weights, positional scoring."""

from fractions import Fraction
from math import gcd

import pytest

from multiwin.ballots import WeightScheme, parse_profile
from multiwin.ordered import (BordaWeights, StvSpec, _stv_step, borda_count,
                              phragmen_ordered, stv_count, thiele_ordered)
from multiwin.unordered import LoadState


def prof(text):
    return parse_profile(text)


# ---------------------------------------------------------------------------
# Fractional transfer counting


def test_transfer_frozen_surplus():
    # Quota 9/3 = 3; A elected with surplus 1, transferred at 1/4 value
    # to B, lifting B into a tie with C at the quota.
    profile = prof("!seats 2\n4 : [A B]\n3 : [C]\n2 : [B]\n")
    out = stv_count(StvSpec(1), profile)
    assert out.sorted_committees() == [("A", "B"), ("A", "C")]


def test_transfer_elimination_path():
    # Nobody reaches the quota 10/2 = 5; B and C tie for elimination.
    # Dropping C sends its votes to B (elected at 6); dropping B leaves
    # C below A, so A takes the seat.
    profile = prof("!seats 1\n4 : [A]\n3 : [B]\n3 : [C B]\n")
    out = stv_count(StvSpec(1), profile)
    assert out.sorted_committees() == [("A",), ("B",)]


def test_hare_vs_droop_quota_differ():
    # 6:[A B], 3:[C]; S=2.  Droop quota 3: A's surplus 3 lifts B into
    # a tie with C.  Hare quota 9/2: the surplus is only 3/2, so B is
    # eliminated and C takes the seat outright.
    profile = prof("!seats 2\n6 : [A B]\n3 : [C]\n")
    droop = stv_count(StvSpec(1), profile)
    hare = stv_count(StvSpec(0), profile)
    assert droop.sorted_committees() == [("A", "B"), ("A", "C")]
    assert hare.sorted_committees() == [("A", "C")]


def test_transfer_tie_branches_both_ways():
    profile = prof("!seats 1\n2 : [A]\n2 : [B]\n1 : [C A]\n1 : [D B]\n")
    out = stv_count(StvSpec(1), profile)
    assert out.sorted_committees() == [("A",), ("B",)]


def test_transfer_value_conservation():
    profile = prof("!seats 3\n9 : [A B C]\n5 : [B D]\n4 : [C D A]\n2 : [D]\n")
    total = profile.total_weight
    quota = total / (3 + 1)
    start, step = _stv_step(StvSpec(1), profile)
    frontier = [start]
    while frontier:
        state, payload = frontier.pop()
        elected, _, den, groups = state
        values = [value for _, value in groups]
        assert Fraction(sum(values), den) + quota * len(elected) == total
        assert gcd(den, *values) == 1
        frontier.extend(step(state, payload) or ())


def test_transfer_step_two_reachers_behind_an_eliminated_name():
    # Quota 22/3.  E, at 2 the unique minimum, goes first; its [E A] and
    # [E B] groups then count for A and B, which reach the quota together
    # at 8.  Each branch rescales the groups counting for its own reacher,
    # the one behind E among them, by (8 - 22/3) / 8 = 1/12; the other
    # reacher's groups keep their value.
    profile = prof("!seats 2\n7 : [A C]\n7 : [B D]\n1 : [E A]\n"
                   "1 : [E B]\n3 : [C]\n3 : [D]\n")
    start, step = _stv_step(StvSpec(1), profile)
    [(after_e, _)] = step(*start)
    assert after_e[:3] == (frozenset(), frozenset("E"), 1)
    groups = dict(after_e[3])

    def rescaled(*rankings):
        return {ranking: Fraction(value, 12) if ranking in rankings
                else Fraction(value)
                for ranking, value in groups.items()}

    successors = step(after_e, None)
    assert [(state[:2], payload) for state, payload in successors] == [
        ((frozenset("A"), frozenset("E")), None),
        ((frozenset("B"), frozenset("E")), None)]
    expected = [rescaled(("A", "C"), ("E", "A")),
                rescaled(("B", "D"), ("E", "B"))]
    for (state, _), values in zip(successors, expected):
        _, _, den, new_groups = state
        assert den == 12
        assert [ranking for ranking, _ in new_groups] == sorted(groups)
        assert {ranking: Fraction(value, den)
                for ranking, value in new_groups} == values
    assert stv_count(StvSpec(1), profile).sorted_committees() == [("A", "B")]


def test_transfer_orders_meet_in_one_reduced_state():
    # Quota 5/4.  A (3) and B (2) both reach it, so the count branches on
    # who goes first.  B first multiplies B's group by 3/8 (den 1 -> 4),
    # then A's by 7/12 (den 4 -> 12).  A first reaches den 12 at once, and
    # B's transfer grows it to 1152 before the reduction brings it back to
    # 12.  Both orders end in one state, which `branch` keeps once.
    profile = prof("!seats 3\n1 : [A C]\n2 : [A D]\n2 : [B C D]\n")
    start, step = _stv_step(StvSpec(1), profile)
    assert start == ((frozenset(), frozenset(), 1,
                      ((("A", "C"), 1), (("A", "D"), 2),
                       (("B", "C", "D"), 2))), None)
    a_first, b_first = step(*start)
    assert a_first == ((frozenset("A"), frozenset(), 12,
                        ((("A", "C"), 7), (("A", "D"), 14),
                         (("B", "C", "D"), 24))), None)
    assert b_first == ((frozenset("B"), frozenset(), 4,
                        ((("A", "C"), 4), (("A", "D"), 8),
                         (("B", "C", "D"), 3))), None)
    both = ((frozenset("AB"), frozenset(), 12,
             ((("A", "C"), 7), (("A", "D"), 14), (("B", "C", "D"), 9))),
            None)
    assert step(*a_first) == step(*b_first) == [both]
    # C's 16/12 then reaches the quota of 15/12; D holds 14/12.
    assert stv_count(StvSpec(1), profile).sorted_committees() == [
        ("A", "B", "C")]


def test_transfer_fills_trailing_seats():
    # After A's election only B and C remain for two open seats.
    profile = prof("!seats 3\n9 : [A]\n1 : [B]\n1 : [C]\n")
    out = stv_count(StvSpec(1), profile)
    assert out.sorted_committees() == [("A", "B", "C")]


def test_transfer_insufficient_candidates():
    profile = prof("!seats 2\n1 : [A]\n!candidates B\n")
    out = stv_count(StvSpec(1), profile)
    assert out.sorted_committees() == [("A", "B")]


def test_transfer_branch_cap_truncates():
    lines = ["!seats 2"] + ["1 : [C%d]" % i for i in range(8)]
    out = stv_count(StvSpec(1), prof("\n".join(lines) + "\n"), branch_cap=3)
    assert out.truncated


def test_delta_validation():
    with pytest.raises(ValueError):
        StvSpec(2)
    # A negative delta is a spec, but S + delta must stay positive.
    profile = prof("!seats 1\n1 : [A B]\n")
    for delta in (-1, -2):
        with pytest.raises(ValueError, match="S \\+ delta > 0"):
            stv_count(StvSpec(delta), profile)


# ---------------------------------------------------------------------------
# Ordered load balancing


def test_ordered_loads_follow_first_preferences():
    profile = prof("!seats 2\n4 : [A B]\n3 : [C]\n2 : [B]\n")
    out, states = phragmen_ordered(profile)
    # A costs 1/4; then B (shared by two groups, water-filled to 1/3)
    # ties C (1/3) for the second seat.
    assert out.sorted_committees() == [("A", "B"), ("A", "C")]
    assert states[frozenset("AB")].max_load == Fraction(1, 3)
    assert states[frozenset("AC")].max_load == Fraction(1, 3)


def test_ordered_loads_support_shifts_after_election():
    # Once A is seated, the [A B] ballots support B, tying C at 1/3.
    profile = prof("!seats 2\n6 : [A B]\n3 : [C]\n")
    out, _ = phragmen_ordered(profile)
    assert out.sorted_committees() == [("A", "B"), ("A", "C")]


def test_ordered_loads_conservation():
    profile = prof("!seats 3\n9 : [A B C]\n5 : [B D]\n4 : [C D A]\n2 : [D]\n")
    _, states = phragmen_ordered(profile)
    weights = [b.weight for b in profile.ballots]
    for state in states.values():
        assert sum(w * l for w, l in zip(weights, state.loads)) == 3


def test_ordered_loads_exhausted_ballots_fill():
    # Every ballot is exhausted once A is elected: the two open seats go
    # to B, C, D in every way, with no load and no history entry; ordered
    # sequential weights fill them the same way.
    profile = prof("!seats 3\n1 : [A]\n!candidates B C D\n")
    out, states = phragmen_ordered(profile)
    every_fill = [("A", "B", "C"), ("A", "B", "D"), ("A", "C", "D")]
    assert out.sorted_committees() == every_fill
    assert not out.truncated
    assert set(states.values()) == {LoadState((1,), (1,))}
    assert thiele_ordered(profile).sorted_committees() == every_fill


# ---------------------------------------------------------------------------
# Sequential position weights


def test_position_weights_frozen():
    # First round: A scores 61, C scores 39.  After A is elected the
    # 61-group supports B at 1/2 weight: 30.5 < 39, so C takes seat 2.
    profile = prof("!seats 2\n61 : [A B]\n39 : [C D]\n")
    out = thiele_ordered(profile)
    assert out.sorted_committees() == [("A", "C")]


def test_position_weights_use_position_not_elected_count():
    # B sits second on its ballot, so it scores 1/2 even while A is
    # unelected elsewhere.
    profile = prof("!seats 1\n2 : [A B]\n3 : [X]\n")
    out = thiele_ordered(profile)
    assert out.sorted_committees() == [("X",)]


def test_position_weights_majority_can_lose_seats():
    profile = prof("!seats 3\n55 : [A B C]\n30 : [X Y Z]\n15 : [Y Z X]\n")
    out = thiele_ordered(profile)
    assert out.sorted_committees() == [("A", "X", "Y")]


def test_position_weights_tie_branching():
    profile = prof("!seats 1\n1 : [A]\n1 : [B]\n")
    out = thiele_ordered(profile)
    assert out.sorted_committees() == [("A",), ("B",)]


# ---------------------------------------------------------------------------
# Positional scoring


def test_positional_harmonic_frozen():
    # A: 4, B: 4/2 + 2 = 4, C: 3 -> A and B elected.
    profile = prof("!seats 2\n4 : [A B]\n3 : [C]\n2 : [B]\n")
    out = borda_count(BordaWeights(WeightScheme.harmonic()), profile)
    assert out.sorted_committees() == [("A", "B")]


def test_positional_weak_scheme_only_top_counts():
    profile = prof("!seats 2\n4 : [A B]\n3 : [C]\n2 : [B]\n")
    out = borda_count(BordaWeights(WeightScheme.weak()), profile)
    # w_2 = 0: scores A=4, B=2, C=3.
    assert out.sorted_committees() == [("A", "C")]


def test_positional_boundary_ties():
    profile = prof("!seats 1\n1 : [A B]\n1 : [B A]\n")
    out = borda_count(BordaWeights(WeightScheme.harmonic()), profile)
    assert out.sorted_committees() == [("A",), ("B",)]


def test_positional_unranked_candidates_score_zero():
    profile = prof("!seats 1\n1 : [A]\n!candidates Z\n")
    out = borda_count(BordaWeights(WeightScheme.harmonic()), profile)
    assert out.sorted_committees() == [("A",)]


def test_engines_reject_wrong_ballot_kind():
    set_profile = prof("!seats 1\n1 : {A}\n")
    for engine in (lambda p: stv_count(StvSpec(1), p),
                   lambda p: phragmen_ordered(p),
                   thiele_ordered,
                   lambda p: borda_count(
                       BordaWeights(WeightScheme.harmonic()), p)):
        with pytest.raises(Exception):
            engine(set_profile)
