"""Apportionment engines against independent brute-force oracles.

The oracles below re-derive the valid seat vectors from first
principles (global optimality conditions, not the sequential award
loop), so agreement is a genuine cross-check.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from multiwin.ballots import DEFAULT_BRANCH_CAP
from multiwin.party import (AdamsIllDefined, DivisorSpec, QuotaSpec,
                            divisor_apportion, quota_apportion)
from multiwin.thresholds import MethodId


def _vectors_summing_to(parts, total):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _vectors_summing_to(parts - 1, total - head):
            yield (head,) + rest


def _divisor_valid(gamma, votes, vector):
    """No single-seat transfer has a strictly better quotient:
    min_i v_i/d(s_i) >= max_j v_j/d(s_j + 1) with d(n) = n - 1 + gamma
    and x/0 read as +infinity."""
    votes = [Fraction(v) for v in votes]

    def quotient(v, divisor):
        return ("inf",) if divisor == 0 else v / divisor

    def geq(a, b):
        if a == ("inf",):
            return True
        if b == ("inf",):
            return False
        return a >= b

    if any(s > 0 and v == 0 for s, v in zip(vector, votes)):
        return False
    held = [quotient(v, s - 1 + gamma)
            for v, s in zip(votes, vector) if s > 0]
    nxt = [quotient(v, s + gamma)
           for v, s in zip(votes, vector) if v > 0]
    lowest_held = held[0] if held else ("inf",)
    for q in held:
        if geq(lowest_held, q):
            lowest_held = q
    return all(geq(lowest_held, q) for q in nxt)


def _divisor_oracle(gamma, votes, seats):
    """Every vector of `seats` seats that passes `_divisor_valid`."""
    return {vector for vector in _vectors_summing_to(len(votes), seats)
            if _divisor_valid(gamma, votes, vector)}


def _quota_oracle(delta, votes, seats):
    """Largest remainder with tie branching, written independently."""
    votes = [Fraction(v) for v in votes]
    total = sum(votes)
    quota = total / (seats + delta)
    shares = [v / quota for v in votes]
    base = [math.floor(x) for x in shares]
    leftover = seats - sum(base)
    if leftover < 0:
        # Integral shares under the smaller quota: strip seats from
        # parties with zero remainder (any of them may lose one).
        zero = [i for i, x in enumerate(shares) if x == base[i] and base[i] > 0]
        result = set()
        for combo in product(*[zero] * (-leftover)):
            if len(set(combo)) != -leftover:
                continue
            vector = list(base)
            for i in combo:
                vector[i] -= 1
            result.add(tuple(vector))
        return result
    remainders = [x - b for x, b in zip(shares, base)]
    order = sorted(set(remainders), reverse=True)
    result = set()
    for cut in order + [Fraction(-1)]:
        sure = [i for i, r in enumerate(remainders) if r > cut]
        tied = [i for i, r in enumerate(remainders) if r == cut]
        if len(sure) > leftover:
            continue
        need = leftover - len(sure)
        if need > len(tied):
            continue
        for combo in product(*[tied] * need):
            if len(set(combo)) != need:
                continue
            vector = list(base)
            for i in sure:
                vector[i] += 1
            for i in combo:
                vector[i] += 1
            result.add(tuple(vector))
    return result


def test_dhondt_frozen():
    assert divisor_apportion(DivisorSpec(1), [5, 3, 1], 3) == {(2, 1, 0)}


def test_sainte_lague_frozen():
    assert divisor_apportion(DivisorSpec(Fraction(1, 2)),
                             [53, 24, 23], 5) == {(3, 1, 1)}


def test_hare_lr_frozen():
    assert quota_apportion(QuotaSpec(0), [5, 3, 1], 3) == {(2, 1, 0)}


def test_droop_lr_frozen():
    assert quota_apportion(QuotaSpec(1), [5, 3, 1], 3) == {(2, 1, 0)}


def test_divisor_tie_yields_both_vectors():
    # After A's first seat, A's next quotient ties B's first.
    assert divisor_apportion(DivisorSpec(1), [2, 1], 2) == {(2, 0), (1, 1)}


def test_divisor_ties_beyond_the_default_branch_cap():
    # 16 equal parties tie at every one of 8 seats, so every 0/1 vector
    # with 8 ones is reachable: C(16, 8) = 12,870, more than the default
    # branch cap, and none may be cut.
    vectors = divisor_apportion(DivisorSpec(1), [1] * 16, 8)
    assert len(vectors) == math.comb(16, 8) > DEFAULT_BRANCH_CAP
    assert all(set(v) == {0, 1} and sum(v) == 8 for v in vectors)


@pytest.mark.parametrize("label", ["div:1", "div:1/2", "quota:0", "quota:1"])
def test_all_tied_parties_take_every_choice_of_seats(label):
    # 10 equal parties and 5 seats: every party's first claim ties at the
    # boundary and no second claim reaches it, so the vectors are exactly
    # the C(10, 5) = 252 choices of five parties for one seat each.
    method = MethodId.parse(label)
    vectors = method.spec.engine(method, [1] * 10, 5)
    assert vectors == {tuple(int(i in chosen) for i in range(10))
                       for chosen in combinations(range(10), 5)}
    assert len(vectors) == 252


def test_all_tied_parties_leave_adams_ill_defined():
    with pytest.raises(AdamsIllDefined):
        divisor_apportion(DivisorSpec(0), [1] * 10, 5)


def test_quota_tie_yields_both_vectors():
    # Equal parties, odd seats: either party may take the extra seat.
    assert quota_apportion(QuotaSpec(0), [1, 1], 3) == {(2, 1), (1, 2)}


def test_adams_requires_enough_seats():
    with pytest.raises(AdamsIllDefined):
        divisor_apportion(DivisorSpec(0), [3, 2, 1], 2)


def test_adams_all_supported_parties_seated():
    vectors = divisor_apportion(DivisorSpec(0), [9, 5, 1], 3)
    assert vectors == {(1, 1, 1)}


def test_zero_vote_party_gets_nothing():
    for vectors in (divisor_apportion(DivisorSpec(1), [4, 0, 2], 3),
                    quota_apportion(QuotaSpec(0), [4, 0, 2], 3)):
        assert all(v[1] == 0 for v in vectors)


def test_input_validation():
    with pytest.raises(ValueError):
        divisor_apportion(DivisorSpec(1), [-1, 2], 1)
    with pytest.raises(ValueError):
        divisor_apportion(DivisorSpec(1), [0, 0], 1)
    with pytest.raises(ValueError):
        quota_apportion(QuotaSpec(0), [1, 2], 0)
    with pytest.raises(ValueError, match="seats must be positive"):
        divisor_apportion(DivisorSpec(1), [1, 2], 0)
    with pytest.raises(ValueError, match="non-negative"):
        quota_apportion(QuotaSpec(1), [3, Fraction(-1, 2)], 2)
    for votes in ([0, 0], []):
        with pytest.raises(ValueError, match="total votes must be positive"):
            quota_apportion(QuotaSpec(1), votes, 2)
    with pytest.raises(ValueError):
        DivisorSpec(2)
    with pytest.raises(ValueError):
        QuotaSpec(-1)


def _random_votes(rng, parties):
    """Whole and rational votes, some zero, at least one positive."""
    votes = [Fraction(rng.randint(0, 9), rng.choice((1, 1, 2, 3)))
             for _ in range(parties)]
    if not any(votes):
        votes[0] = Fraction(1)
    return votes


@pytest.mark.parametrize("gamma", [Fraction(0), Fraction(1, 2), Fraction(1),
                                   Fraction(1, 3), Fraction(2, 3)])
def test_divisor_matches_oracle_randomized(gamma):
    rng = random.Random(int(gamma * 12) + 7)
    for _ in range(150):
        votes = _random_votes(rng, rng.randint(1, 4))
        seats = rng.randint(1, 5)
        if gamma == 0 and sum(1 for v in votes if v) > seats:
            continue
        engine = divisor_apportion(DivisorSpec(gamma), votes, seats)
        assert engine == _divisor_oracle(gamma, votes, seats)
    # Many parties, too many vectors for the oracle to list: every
    # returned vector must pass its condition.  The valid vectors differ
    # only in seats moved between parties tied at the boundary, so every
    # valid single-seat transfer of a returned vector is returned too.
    votes = rng.sample(range(1, 200), 16)
    seats = rng.randint(16, 40)
    engine = divisor_apportion(DivisorSpec(gamma), votes, seats)
    for vector in engine:
        assert sum(vector) == seats
        assert _divisor_valid(gamma, votes, vector)
        for i, j in product(range(16), repeat=2):
            if i != j and vector[i] > 0:
                moved = list(vector)
                moved[i] -= 1
                moved[j] += 1
                moved = tuple(moved)
                assert (moved in engine) == _divisor_valid(gamma, votes,
                                                           moved)


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 2), Fraction(1),
                                   Fraction(1, 3)])
def test_quota_matches_oracle_randomized(delta):
    rng = random.Random(int(delta * 10) + 3)
    for _ in range(150):
        votes = _random_votes(rng, rng.randint(1, 4))
        seats = rng.randint(1, 5)
        engine = quota_apportion(QuotaSpec(delta), votes, seats)
        assert engine == _quota_oracle(delta, votes, seats)
    # Many parties with distinct votes, where a product over every
    # party's 2-3 candidate seat counts would run to millions of vectors.
    votes = rng.sample(range(1, 200), 16)
    seats = rng.randint(16, 40)
    engine = quota_apportion(QuotaSpec(delta), votes, seats)
    assert engine == _quota_oracle(delta, votes, seats)


def test_homogeneity_under_vote_scaling():
    votes = [7, 4, 2]
    for factor in (2, Fraction(1, 3), 10):
        scaled = [v * factor for v in votes]
        assert divisor_apportion(DivisorSpec(1), votes, 4) == \
            divisor_apportion(DivisorSpec(1), scaled, 4)
        assert quota_apportion(QuotaSpec(1), votes, 4) == \
            quota_apportion(QuotaSpec(1), scaled, 4)


def test_house_monotone_divisor_small():
    # Divisor methods never strip a party's seats when the house grows.
    rng = random.Random(99)
    for _ in range(60):
        votes = [rng.randint(1, 9) for _ in range(3)]
        for seats in range(1, 5):
            small = divisor_apportion(DivisorSpec(1), votes, seats)
            large = divisor_apportion(DivisorSpec(1), votes, seats + 1)
            for before in small:
                assert any(all(b <= a for b, a in zip(before, after))
                           for after in large)
