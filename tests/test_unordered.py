"""Engines for unordered ballots: frozen cases and independent oracles."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from multiwin.ballots import DEFAULT_BRANCH_CAP, WeightScheme, parse_profile
from multiwin.thresholds import MethodId
from multiwin.unordered import (BudgetExceededError, Clones, LoadState,
                                boundary_committees, phragmen_unordered,
                                thiele_addition, thiele_addition_paths,
                                thiele_elimination, thiele_optimize)
from multiwin.witnesses import run_method


def prof(text):
    return parse_profile(text)


# ---------------------------------------------------------------------------
# Score family


def test_block_vote_counts_full_weight_per_name():
    profile = prof("!seats 2\n3 : {A B}\n2 : {B C}\n1 : {C}\n")
    out = run_method(MethodId("bv"), profile)
    # scores: A=3 B=5 C=3 -> boundary tie between A and C
    assert out.sorted_committees() == [("A", "B"), ("B", "C")]


def test_block_vote_rejects_oversized_ballot():
    profile = prof("!seats 2\n1 : {A B C}\n")
    with pytest.raises(Exception):
        run_method(MethodId("bv"), profile)


def test_approval_allows_any_ballot_size():
    profile = prof("!seats 1\n1 : {A B C}\n2 : {B}\n")
    out = run_method(MethodId("av"), profile)
    assert out.sorted_committees() == [("B",)]


def test_sntv_single_name_only():
    profile = prof("!seats 2\n5 : {A}\n4 : {B}\n3 : {C}\n")
    out = run_method(MethodId("sntv"), profile)
    assert out.sorted_committees() == [("A", "B")]
    with pytest.raises(Exception):
        run_method(MethodId("sntv"), prof("!seats 2\n1 : {A B}\n"))


def test_limited_vote_cap():
    profile = prof("!seats 3\n5 : {A B}\n4 : {C}\n4 : {D}\n")
    out = run_method(MethodId("lv", 2), profile)
    assert out.sorted_committees() == [("A", "B", "C"), ("A", "B", "D")]
    with pytest.raises(ValueError):
        run_method(MethodId("lv", 3),
                   prof("!seats 2\n1 : {A}\n!candidates B\n"))


def test_cumulative_splits_credit_evenly():
    profile = prof("!seats 1\n3 : {A B C}\n2 : {D}\n!candidates E\n")
    out = run_method(MethodId("cvq"), profile)
    # A, B, C each get 1 < 2; D wins.
    assert out.sorted_committees() == [("D",)]


def test_boundary_tie_enumeration():
    out = boundary_committees({c: Fraction(1) for c in "ABCD"}, 2)
    assert len(out) == 6
    assert not out.truncated


def test_boundary_truncation_flag():
    scores = {"C%d" % i: Fraction(1) for i in range(20)}
    out = boundary_committees(scores, 10, branch_cap=5)
    assert out.truncated
    assert len(out) == 5


# ---------------------------------------------------------------------------
# Load balancing


def test_load_balancing_frozen_two_seats():
    profile = prof("!seats 2\n4 : {A B}\n2 : {A C}\n")
    out, states = phragmen_unordered(profile)
    assert out.sorted_committees() == [("A", "B")]
    state = states[frozenset("AB")]
    assert state.max_load == Fraction(5, 12)
    assert state.history == (Fraction(1, 6), Fraction(5, 12))


def test_load_conservation():
    profile = prof("!seats 3\n5 : {A B C}\n3 : {B D}\n2 : {C D}\n1 : {D}\n")
    _, states = phragmen_unordered(profile)
    for state in states.values():
        weights = [b.weight for b in profile.ballots]
        assert sum(w * l for w, l in zip(weights, state.loads)) == 3


def test_load_balancing_single_group_pays_everything():
    profile = prof("!seats 2\n1 : {A B}\n")
    out, states = phragmen_unordered(profile)
    assert out.sorted_committees() == [("A", "B")]
    assert states[frozenset("AB")].max_load == 2


def test_load_balancing_symmetric_tie_branches():
    profile = prof("!seats 1\n1 : {A}\n1 : {B}\n")
    out, _ = phragmen_unordered(profile)
    assert out.sorted_committees() == [("A",), ("B",)]


def test_load_balancing_no_supporter_fills():
    # Once A is elected no candidate has a supporter: the two open seats
    # go to the unapproved B, C, D in every way, with no load and no
    # history entry.
    profile = prof("!seats 3\n1 : {A}\n!candidates B C D\n")
    out, states = phragmen_unordered(profile)
    assert out.sorted_committees() == [("A", "B", "C"), ("A", "B", "D"),
                                       ("A", "C", "D")]
    assert not out.truncated
    assert set(states.values()) == {LoadState((1,), (1,))}


# ---------------------------------------------------------------------------
# Sequential weights: global optimum


def _psi_oracle(scheme, n):
    return sum((scheme.w(k) for k in range(1, n + 1)), Fraction(0))


def test_optimize_harmonic_frozen():
    profile = prof("!seats 2\n3 : {A B}\n2 : {C}\n")
    out = thiele_optimize(WeightScheme.harmonic(), profile)
    # {A,B}: 3 * 3/2 = 9/2 < {A,C}: 3 + 2 = 5
    assert out.sorted_committees() == [("A", "C"), ("B", "C")]


def test_optimize_matches_direct_satisfaction_scan():
    rng = random.Random(7)
    scheme = WeightScheme.harmonic()
    for _ in range(40):
        names = "ABCDE"[:rng.randint(2, 5)]
        seats = rng.randint(1, len(names))
        lines = ["!seats %d" % seats, "!candidates %s" % " ".join(names)]
        for _ in range(rng.randint(1, 4)):
            ballot = rng.sample(names, rng.randint(1, len(names)))
            lines.append("%d : {%s}" % (rng.randint(1, 5), " ".join(ballot)))
        profile = prof("\n".join(lines) + "\n")
        out = thiele_optimize(scheme, profile)
        best = None
        winners = set()
        for committee in combinations(sorted(profile.candidates), seats):
            value = sum(b.weight * _psi_oracle(
                scheme, len(b.content.members & frozenset(committee)))
                for b in profile.ballots)
            if best is None or value > best:
                best, winners = value, {frozenset(committee)}
            elif value == best:
                winners.add(frozenset(committee))
        assert out.committees == winners


def test_optimize_budget_guard():
    # 34 singleton ballots: 34 clone classes, so C(34, 17) splits, far
    # over the budget; the refusal comes before any split is scored.
    profile = prof("!seats 17\n" + "".join("1 : {C%d}\n" % i
                                            for i in range(34)))
    with pytest.raises(BudgetExceededError):
        thiele_optimize(WeightScheme.harmonic(), profile)


def test_optimize_budget_counts_splits_not_committees():
    # Four party lists of 8 names, S = 8: C(32, 8) = 10,518,300 committees
    # but only 165 seat splits, well within the budget.  PAV gives the
    # D'Hondt split (6, 2, 0, 0): C(8, 6) * C(8, 2) = 784 committees.
    profile = prof("!seats 8\n" + "".join(
        "%d : {%s}\n" % (votes, " ".join("P%d_%d" % (p, j) for j in range(8)))
        for p, votes in enumerate([31, 10, 1, 1])))
    out = thiele_optimize(WeightScheme.harmonic(), profile)
    assert len(out) == 784 and not out.truncated
    assert {tuple(sum(c.startswith("P%d_" % p) for c in committee)
                  for p in range(4)) for committee in out.committees} \
        == {(6, 2, 0, 0)}


# ---------------------------------------------------------------------------
# Sequential weights: addition and elimination


def test_addition_greedy_frozen():
    profile = prof("!seats 2\n3 : {A B}\n2 : {C}\n")
    out = thiele_addition(WeightScheme.harmonic(), profile)
    # Round 1 elects A or B (score 3); the held group then scores 3/2
    # for its second name, beaten by C's 2.
    assert out.sorted_committees() == [("A", "C"), ("B", "C")]


def test_addition_paths_scores_non_increasing():
    profile = prof("!seats 3\n5 : {A B C}\n3 : {B D}\n2 : {C D}\n1 : {D}\n")
    _, trails = thiele_addition_paths(WeightScheme.harmonic(), profile)
    for committee, trail in trails.items():
        assert len(committee) == 3
        assert all(a >= b for a, b in zip(trail, trail[1:]))


def test_addition_no_score_fills():
    # No candidate scores once A is elected: the open seats go to the
    # unapproved B, C, D in every way, adding nothing to the trail.
    profile = prof("!seats 3\n1 : {A}\n!candidates B C D\n")
    out, trails = thiele_addition_paths(WeightScheme.harmonic(), profile)
    assert out.sorted_committees() == [("A", "B", "C"), ("A", "B", "D"),
                                       ("A", "C", "D")]
    assert set(trails.values()) == {(1,)}
    # Under the weak scheme B scores 0 once A is elected, so B ties with
    # the unapproved C although the two are not clones.
    profile = prof("!seats 2\n5 : {A B}\n!candidates C\n")
    out = thiele_addition(WeightScheme.weak(), profile)
    assert out.sorted_committees() == [("A", "B"), ("A", "C"), ("B", "C")]


def test_addition_weak_scheme_stops_crediting_held_groups():
    profile = prof("!seats 2\n5 : {A B}\n1 : {C}\n")
    out = thiele_addition(WeightScheme.weak(), profile)
    # With w_2 = 0 the 5-voter group is exhausted after one seat.
    assert out.sorted_committees() == [("A", "C"), ("B", "C")]


def test_elimination_frozen():
    profile = prof("!seats 2\n6 : {A}\n5 : {B}\n2 : {C}\n")
    out = thiele_elimination(profile)
    assert out.sorted_committees() == [("A", "B")]


def test_elimination_splits_credit_over_live_names():
    # The 4-voter list starts at 2 per name, so one list name falls
    # first; the survivor then holds the full 4 and beats one singleton.
    profile = prof("!seats 2\n4 : {A1 A2}\n3 : {B}\n3 : {C}\n")
    out = thiele_elimination(profile)
    assert out.sorted_committees() == [("A1", "B"), ("A1", "C"),
                                       ("A2", "B"), ("A2", "C")]


def test_elimination_no_shrink_needed():
    profile = prof("!seats 2\n1 : {A B}\n")
    out = thiele_elimination(profile)
    assert out.sorted_committees() == [("A", "B")]


def test_truncation_flags_propagate():
    many = "\n".join("1 : {C%d}" % i for i in range(12))
    profile = prof("!seats 6\n%s\n" % many)
    out = thiele_addition(WeightScheme.harmonic(), profile, branch_cap=3)
    assert out.truncated


# ---------------------------------------------------------------------------
# Clone expansion


def _expansion_case(sizes, ballots, splits, trailing):
    """Classes of the given sizes, the first `ballots` each approved by a
    ballot of its own (the rest by none, so they form one class), and one
    final state per split of the seats over the classes, with payload its
    index: a leading run of each class, as the sequential engines elect,
    or a trailing one, as thiele_elimination leaves."""
    classes = [tuple("%s%d" % (chr(65 + k), i) for i in range(size))
               for k, size in enumerate(sizes)]
    clones = Clones([(frozenset(m), 1) for m in classes[:ballots]],
                    [c for m in classes for c in m])
    finals = {frozenset(c for m, n in zip(classes, split)
                        for c in (m[len(m) - n:] if trailing else m[:n])): i
              for i, split in enumerate(splits)}
    return clones, classes, finals


@st.composite
def expansion_cases(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)
                 .filter(lambda sizes: sum(sizes) <= 12))
    # Several unapproved classes would be one class; keep at most one.
    ballots = draw(st.sampled_from([len(sizes), len(sizes) - 1]))
    seats = draw(st.integers(1, sum(sizes)))
    splits = [split for split in product(*(range(n + 1) for n in sizes))
              if sum(split) == seats]
    chosen = draw(st.lists(st.sampled_from(splits), min_size=1, max_size=4,
                           unique=True))
    return _expansion_case(sizes, ballots, chosen, draw(st.booleans()))


def _expansion_reference(classes, finals):
    """Every (committee, payload) pair by brute force: state by state, the
    sets of the state's size with as many members of every class, in
    lexicographic order of their per-class picks."""
    names = [c for m in classes for c in m]
    listed = []
    for state, payload in finals.items():
        counts = [len(state.intersection(m)) for m in classes]
        same = [frozenset(c) for c in combinations(names, len(state))
                if [len(set(c).intersection(m)) for m in classes] == counts]
        same.sort(key=lambda c: [[i for i, x in enumerate(m) if x in c]
                                 for m in classes])
        listed += [(committee, payload) for committee in same]
    return listed


@settings(max_examples=200, deadline=None)
@given(expansion_cases())
@example(_expansion_case([1, 1, 1], 3, [(1, 1, 0), (0, 1, 1)], False))
@example(_expansion_case([3, 2, 1], 2, [(2, 1, 0), (1, 1, 1)], False))
@example(_expansion_case([3, 2, 1], 2, [(2, 1, 0), (1, 1, 1)], True))
def test_clone_expansion_matches_brute_force(case):
    clones, classes, finals = case
    assert [set(m) for m in clones.classes] == [set(m) for m in classes]
    reference = _expansion_reference(classes, finals)
    for cap in (1, 2, 3, 7, DEFAULT_BRANCH_CAP):
        outcomes, truncated = clones.expand_all(finals, cap)
        assert list(outcomes.items()) == reference[:cap]
        assert truncated == (len(reference) > cap)
