"""Witness catalog, bounded adversarial search, and the corpus audit."""

import hashlib
import json
import subprocess
import sys
from collections import Counter
from copy import copy
from fractions import Fraction
from itertools import (chain, combinations, combinations_with_replacement,
                       permutations, product)
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from multiwin import audit, search, verifier, witnesses
from multiwin.audit import audit_table, covering_token, default_scope
from multiwin.ballots import (DEFAULT_BRANCH_CAP, Profile, SetBallot,
                              WeightedBallot, format_profile, parse_profile)
from multiwin.party import AdamsIllDefined
from multiwin.scenarios import (ScenarioId, ScenarioInstance,
                                ScenarioTypeError, is_instance, require_kind)
from multiwin.search import SearchSpec, search_lower_bound
from multiwin.thresholds import (REGISTRY, CoverageError, MethodId,
                                 ThresholdValue, threshold)
from multiwin.witnesses import (Witness, construct_witness,
                                party_seat_vectors, run_method,
                                verify_witness)

F = Fraction


# ---------------------------------------------------------------------------
# Witness plumbing


def test_witness_validates_instance_and_fraction():
    profile = parse_profile("!seats 2\n!W 3 : {A B}\n7 : {C}\n")
    inst = ScenarioInstance(profile, "AB", 1, ScenarioId.SAME)
    Witness(inst, F(3, 10))
    with pytest.raises(Exception):
        Witness(inst, F(1, 2))          # fraction mismatch
    bad_inst = ScenarioInstance(profile, "A", 1, ScenarioId.SAME)
    with pytest.raises(Exception):
        Witness(bad_inst, F(3, 10))     # target != common list


def test_run_method_dispatch_and_refusals():
    profile = parse_profile("!seats 1\n2 : {A}\n1 : {B}\n")
    out = run_method(MethodId("av"), profile)
    assert out.sorted_committees() == [("A",)]
    with pytest.raises(CoverageError):
        run_method(MethodId("div", 1), profile)
    with pytest.raises(CoverageError):
        run_method(MethodId("cv"), profile)


def test_search_refuses_limit_above_seats():
    with pytest.raises(CoverageError):
        search_lower_bound(MethodId("lv", 2), "same", 1, 1)
    for ell, seats in ((0, 2), (3, 2)):
        with pytest.raises(ValueError, match="need 1 <= ell <= seats"):
            search_lower_bound(MethodId("bv"), "same", ell, seats)
        with pytest.raises(ValueError, match="need 1 <= ell <= seats"):
            construct_witness("equal-split", MethodId("bv"), "same", ell,
                              seats)
    for field in ("max_candidates", "weight_grid", "max_ballot_groups",
                  "max_ballot_length", "branch_cap"):
        with pytest.raises(ValueError, match="%s must be positive" % field):
            SearchSpec(**{field: 0})
    # A grid of one ballot holds no instance, so it would answer "best 0".
    with pytest.raises(ValueError, match="weight_grid must be at least 2"):
        SearchSpec(weight_grid=1)


def test_party_seat_vectors():
    profile = parse_profile("!seats 3\n5 : party P\n3 : party Q\n"
                            "1 : party R\n")
    names, vectors = party_seat_vectors(MethodId("div", 1), profile)
    assert names == ("P", "Q", "R")
    assert vectors == {(2, 1, 0)}
    with pytest.raises(CoverageError):
        party_seat_vectors(MethodId("bv"), profile)


# ---------------------------------------------------------------------------
# Catalog constructions: every entry must verify, and where it covers an
# exactly-known threshold its fraction must match that value.


CATALOG_CASES = [
    # (token, method, scenario, ell, S, expected fraction or None)
    ("symmetric-parties", "div:1", "party", 1, 3, F(1, 4)),
    ("symmetric-parties", "quota:1", "party", 2, 3, F(1, 2)),
    ("symmetric-parties", "sntv", "same", 1, 3, F(1, 4)),
    ("common-list-tie", "phragmen-u", "same", 2, 3, F(1, 2)),
    ("common-list-tie", "phragmen-o", "same", 2, 3, F(1, 2)),
    ("common-list-tie", "thiele-elim", "same", 2, 3, F(1, 2)),
    ("common-list-tie", "thiele-opt", "same", 2, 3, F(1, 2)),
    ("divisor-extremes", "div:1", "party", 2, 4, F(2, 5)),
    ("divisor-extremes", "div:1/2", "party", 2, 3, F(3, 5)),
    ("quota-boundary", "quota:1/2", "party", 2, 4, F(5, 12)),
    ("quota-boundary", "quota:0", "party", 2, 4, F(7, 16)),
    ("quota-boundary", "stv:1", "same", 2, 3, F(1, 2)),
    ("quota-boundary", "stv:1", "psc", 2, 3, F(1, 2)),
    ("quota-boundary", "stv:1/2", "wpsc", 2, 3, F(11, 21)),
    ("quota-boundary", "stv:0", "same", 2, 3, F(5, 9)),
    ("equal-split", "sntv", "same", 1, 3, F(1, 4)),
    ("equal-split", "phragmen-u", "same", 1, 4, F(1, 5)),
    ("equal-split", "lv:2", "same", 2, 4, F(2, 5)),
    ("equal-split", "lv:2", "tactic", 2, 4, F(2, 5)),
    ("majority-tie", "bv", "same", 1, 1, F(1, 2)),
    ("majority-tie", "av", "pjr", 1, 2, F(1, 2)),
    ("ejr-window", "bv", "ejr", 2, 3, F(3, 5)),
    ("ejr-window", "bv", "ejr", 3, 5, F(5, 8)),
    ("ejr-window", "av", "ejr", 2, 4, F(4, 7)),
    ("ejr-window", "av", "ejr", 4, 5, F(5, 7)),
    ("ejr-window", "lv:2", "ejr", 1, 3, F(2, 5)),
    ("addition-lp-vertex", "thiele-add", "same", 1, 3, F(3, 11)),
    ("addition-lp-vertex", "thiele-add", "same", 1, 4, F(7, 31)),
    ("cyclic-window-opt", "thiele-opt", "same", 1, 4, F(1, 5)),
    ("weight-floor", "thiele-opt", "same", 2, 3, F(1, 2)),
    ("elimination-trap", "thiele-elim", "pjr", 1, 4, F(5, 21)),
    ("suffix-chain", "thiele-o", "same", 2, 4, F(24, 47)),
    ("suffix-chain", "thiele-o", "tactic", 2, 4, F(18, 41)),
    ("rotated-start", "thiele-o", "wpsc", 3, 5, F(48, 71)),
    ("positional-split", "borda", "tactic", 2, 4, F(22, 49)),
    ("positional-list", "borda", "same", 2, 4, F(11, 20)),
    ("positional-list", "borda", "wpsc", 2, 4, F(11, 20)),
    ("common-list-tie", "thiele-add", "party", 3, 4, F(3, 5)),
    ("common-list-tie", "thiele-o", "party", 3, 4, F(3, 5)),
    ("common-list-tie", "borda", "party", 3, 4, F(3, 5)),
]


@pytest.mark.parametrize("token, label, scenario, ell, seats, fraction",
                         CATALOG_CASES)
def test_catalog_witness_verifies(token, label, scenario, ell, seats,
                                  fraction):
    method = MethodId.parse(label)
    witness = construct_witness(token, method, scenario, ell, seats)
    assert witness.claimed_fraction == fraction
    assert verify_witness(witness, method)


@pytest.mark.parametrize("token, label, scenario, ell, seats, fraction",
                         CATALOG_CASES)
def test_catalog_matches_exact_thresholds(token, label, scenario, ell, seats,
                                          fraction):
    entry = threshold(MethodId.parse(label), ScenarioId(scenario), ell, seats)
    if entry.is_exact and entry.side != "minus":
        assert fraction == entry.value


def test_limit_witnesses_approach_from_below():
    # Suprema that are not attained: the witness must sit strictly below
    # the threshold but within the requested closeness.
    method = MethodId("cvq")
    witness = construct_witness("self-voting", method, "same", 1, 3,
                                eps=F(1, 100))
    assert 1 - F(1, 100) <= witness.claimed_fraction < 1
    assert verify_witness(witness, method)


def test_self_first_burial_witness():
    method = MethodId("phragmen-o")
    witness = construct_witness("self-first-psc", method, "psc", 2, 3,
                                eps=F(1, 10))
    assert witness.claimed_fraction >= 1 - F(1, 10)
    assert verify_witness(witness, method)


def test_elimination_trap_closes_in_on_its_limit():
    # m = 2 clusters at S = 4 approach m / (m^2 + S) = 1/4 as the
    # clusters grow; eps asks for a fraction within eps of the limit.
    method = MethodId("thiele-elim")
    for eps, fraction, names in ((None, F(5, 21), 13),
                                 (F(1, 10), F(5, 21), 13),
                                 (F(1, 100), F(6, 25), 15),
                                 (F(1, 1000), F(63, 253), 129)):
        witness = construct_witness("elimination-trap", method, "pjr", 1, 4,
                                    eps)
        assert witness.claimed_fraction == fraction
        assert len(witness.instance.profile.candidates) == names
        if names == 15:
            assert verify_witness(witness, method)
    with pytest.raises(CoverageError, match="eps must be positive"):
        construct_witness("elimination-trap", method, "pjr", 1, 4, F(0))


@pytest.mark.parametrize("scenario", ["same", "wpsc"])
def test_positional_list_with_a_worthless_last_seat(scenario):
    # w_2 = 0: W's second name earns nothing, so the threshold is 1 and
    # the witness is W alone with silent decoys.
    method = MethodId.parse("borda:weak")
    witness = construct_witness("positional-list", method, scenario, 2, 3)
    assert witness.claimed_fraction == 1
    assert format_profile(witness.instance.profile) == (
        "!seats 3\n!candidates B1 B2\n!W 1/2 : [A1 A2]\n")
    assert verify_witness(witness, method)
    assert threshold(method, ScenarioId(scenario), 2, 3).value == 1


def test_fixture_witnesses():
    cases = [
        ("overlap-approvals", "phragmen-u", "ejr", 2, 12, F(409, 2409)),
        ("vote-splitting", "thiele-add", "same", 1, 3, F(13, 50)),
        ("ordered-majority-loss", "thiele-o", "same", 2, 3, F(11, 20)),
        ("ordered-tactic-split", "thiele-o", "same", 1, 2, F(39, 100)),
    ]
    for token, label, scenario, ell, seats, fraction in cases:
        method = MethodId.parse(label)
        witness = construct_witness(token, method, scenario, ell, seats)
        assert witness.claimed_fraction == fraction
        assert verify_witness(witness, method)


def test_unknown_token_rejected():
    with pytest.raises(Exception):
        construct_witness("no-such-token", MethodId("bv"), "same", 1, 1)


def test_hypothesis_guards_fire():
    with pytest.raises(Exception):
        construct_witness("ejr-window", MethodId("lv", 2), "ejr", 2, 3)
    with pytest.raises(Exception):
        construct_witness("symmetric-parties", MethodId("quota", 1), "party",
                          2, 4)
    with pytest.raises(CoverageError, match="harmonic weights"):
        construct_witness("common-list-tie", MethodId.parse("thiele-add:weak"),
                          "party", 2, 3)


@pytest.mark.parametrize("token, label, scenario, covers", [
    ("common-list-tie", "thiele-add", "same",
     "phragmen-u, thiele-opt, thiele-elim, phragmen-o under every scenario; "
     "thiele-add, thiele-o, borda under party"),
    ("quota-boundary", "quota:1", "same",
     "quota under party; stv under party, same, psc, wpsc"),
    ("equal-split", "lv:2", "psc",
     "sntv, cvq, stv, phragmen-u, phragmen-o, thiele-opt, thiele-elim "
     "under every scenario; lv under same, pjr, ejr, tactic"),
    ("equal-split", "lv:2", "party",
     "sntv, cvq, stv, phragmen-u, phragmen-o, thiele-opt, thiele-elim "
     "under every scenario; lv under same, pjr, ejr, tactic"),
])
def test_catalog_row_states_coverage_per_kind(token, label, scenario, covers):
    # The row, not the builder, refuses a kind outside the scenarios it
    # covers for that kind.
    with pytest.raises(CoverageError) as refused:
        construct_witness(token, MethodId.parse(label), scenario,
                          1 if token == "equal-split" else 2, 3)
    assert str(refused.value) == "%s covers %s; not %s under %s" % (
        token, covers, label, scenario)


def test_covering_token_finds_catalog_entries():
    assert covering_token(MethodId("bv"), ScenarioId.EJR, 2, 3) is not None
    assert covering_token(MethodId("div", 1), ScenarioId.PARTY, 1, 2) is not None
    # Every kind that elects as D'Hondt on party lists has a witness for
    # each of its party cells, ell/(S+1).
    for kind, spec in REGISTRY.items():
        if not spec.dhondt:
            continue
        method = MethodId(kind)
        for seats in range(1, 9):
            for ell in range(1, seats + 1):
                token = covering_token(method, ScenarioId.PARTY, ell, seats)
                assert token is not None, (kind, ell, seats)
                witness = construct_witness(token, method, "party", ell,
                                            seats)
                assert witness.claimed_fraction == F(ell, seats + 1)
                assert verify_witness(witness, method)


def test_witness_in_grid_refusals():
    def witness(text, target, fraction):
        inst = ScenarioInstance(parse_profile(text), target, 1, "tactic")
        return Witness(inst, fraction)

    three_groups = witness("!seats 1\n!W 1 : {A}\n1 : {B}\n1 : {C}\n",
                           "A", F(1, 3))
    assert audit._witness_in_grid(three_groups, SearchSpec())
    assert not audit._witness_in_grid(three_groups,
                                      SearchSpec(max_ballot_groups=2))
    long_ballot = witness("!seats 1\n!W 1 : {A B C D}\n1 : {E}\n", "A",
                          F(1, 2))
    assert audit._witness_in_grid(long_ballot,
                                  SearchSpec(max_ballot_length=4))
    assert not audit._witness_in_grid(long_ballot, SearchSpec())


# ---------------------------------------------------------------------------
# Bounded search


def test_search_rediscovers_per_ballot_peak():
    # The equality witness needs two shared names plus three window
    # decoys, so the candidate budget must be at least five.
    best, witness = search_lower_bound(MethodId("bv"), "ejr", 2, 3,
                                       SearchSpec(max_candidates=5,
                                                  weight_grid=5))
    assert best == F(3, 5)
    assert witness is not None
    assert verify_witness(witness, MethodId("bv"))


def test_search_rediscovers_party_floor():
    best, _ = search_lower_bound(MethodId("div", 1), "party", 1, 2,
                                 SearchSpec(weight_grid=5))
    assert best == F(1, 3)


def test_search_rediscovers_strategy_split():
    best, _ = search_lower_bound(MethodId("sntv"), "tactic", 2, 3,
                                 SearchSpec(max_candidates=5, weight_grid=5))
    assert best == F(3, 5)


def test_search_returns_zero_when_nothing_found():
    # A single seat with a lone W voter: no bad outcome at any fraction.
    best, witness = search_lower_bound(MethodId("bv"), "same", 1, 1,
                                       SearchSpec(max_candidates=1,
                                                  weight_grid=2))
    assert (best, witness) == (0, None)


@pytest.mark.parametrize("label, scenario", [
    ("av", "psc"), ("phragmen-u", "wpsc"), ("stv:1", "pjr"),
    ("borda", "ejr"),
])
def test_search_refuses_a_scenario_the_ballots_cannot_express(
        monkeypatch, label, scenario):
    # Set ballots cannot rank the targets first, list ballots carry no
    # approval set: the search refuses, as is_instance does, instead of
    # answering 0 from an empty set of W strategies.
    def enumerating(*args):
        raise AssertionError("enumerated a refused cell")

    monkeypatch.setattr(search, "_orbit_firsts", enumerating)
    with pytest.raises(ScenarioTypeError):
        search_lower_bound(MethodId.parse(label), scenario, 1, 2)


@pytest.mark.parametrize("label, cap, scenario, ell, seats", [
    ("sntv", 1, "party", 2, 2), ("sntv", 1, "same", 2, 2),
    ("sntv", 1, "pjr", 2, 3), ("sntv", 1, "ejr", 3, 3),
    ("lv:2", 2, "same", 3, 3), ("lv:2", 2, "pjr", 3, 4),
])
def test_search_refuses_a_cap_below_ell(monkeypatch, label, cap, scenario,
                                        ell, seats):
    # No W ballot can name all ell targets: the search refuses instead of
    # answering 0 from an empty set of W strategies.
    def enumerating(*args):
        raise AssertionError("enumerated a refused cell")

    monkeypatch.setattr(search, "_orbit_firsts", enumerating)
    with pytest.raises(CoverageError,
                       match="cap %d is below ell = %d" % (cap, ell)):
        search_lower_bound(MethodId.parse(label), scenario, ell, seats)


def test_search_keeps_cells_the_cap_allows():
    # At ell = cap, and in tactic at any ell, W's ballots fit the cap; the
    # search reaches pi there.
    spec = SearchSpec(max_candidates=3, weight_grid=3)
    assert search_lower_bound(MethodId.parse("lv:2"), "same", 2, 2,
                              spec)[0] == Fraction(1, 2)
    assert search_lower_bound(MethodId("sntv"), "tactic", 2, 2,
                              spec)[0] == Fraction(2, 3)


POOL = ("A1", "A2", "B1", "B2")
TARGETS = POOL[:2]
CELLS = (frozenset(TARGETS),)   # the targets, then the decoys as the rest
DECOYS = ("B1", "B2", "B3")     # the decoys of the answer tests


def _multisets(options, size):
    """Sorted multisets of `size` options as ((ballot, count), ...) tuples,
    in combinations_with_replacement order."""
    for combo in combinations_with_replacement(options, size):
        yield tuple((ballot, combo.count(ballot))
                    for ballot in dict.fromkeys(combo))


def _renamings(names=POOL):
    """Every renaming of the targets among themselves and of the other
    names among themselves."""
    for targets in permutations(TARGETS):
        for others in permutations(names[2:]):
            yield dict(zip(names, targets + others))


def _renamed(counts, renaming):
    return Counter((type(ballot)(renaming.get(name, name) for name in ballot),
                    count) for ballot, count in counts)


def _orbit(counts, renamings):
    """Every image of the counts under the renamings, as one hashable set."""
    return frozenset(frozenset(_renamed(counts, renaming).items())
                     for renaming in renamings)


def _ballots(names, ordered, longest=3):
    if ordered:
        return st.lists(st.sampled_from(names), min_size=1, max_size=longest,
                        unique=True).map(tuple)
    return st.frozensets(st.sampled_from(names), min_size=1,
                         max_size=longest)


def _count_lists(ordered):
    # Few counts and names, so that signatures often tie.
    return st.lists(st.tuples(_ballots(POOL, ordered), st.integers(1, 2)),
                    min_size=1, max_size=4)


@st.composite
def _count_pairs(draw):
    ordered = draw(st.booleans())
    first = draw(_count_lists(ordered))
    if draw(st.booleans()):
        renaming = draw(st.sampled_from(list(_renamings())))
        second = list(_renamed(first, renaming).elements())
        second = draw(st.permutations(second))
    else:
        second = draw(_count_lists(ordered))
    return first, second, ordered


@given(_count_pairs())
def test_canonical_form_is_the_renaming_orbit(pair):
    first, second, ordered = pair
    same_orbit = any(_renamed(first, renaming) == Counter(second)
                     for renaming in _renamings())
    assert (search._canonical_form(first, CELLS, ordered)
            == search._canonical_form(second, CELLS, ordered)) \
        == same_orbit


@pytest.mark.parametrize("counts, ordered, key", [
    ([(frozenset({"A1", "A2"}), 2), (frozenset({"B1"}), 1),
      (frozenset({"B2"}), 1)], False,
     "[(1, (2,)), (1, (3,)), (2, (0, 1))]"),
    ([(frozenset({"A2", "B2"}), 1), (frozenset({"B1", "B2"}), 3)],
     False, "[(1, (0, 2)), (3, (2, 3))]"),
    ([(("A2", "A1"), 1), (("A1", "B1"), 1), (("B2",), 2)],
     True, "[(1, (0, 1)), (1, (1, 2)), (2, (3,))]"),
    ([(("B1", "A2"), 2), (("B2", "B1"), 1), (("B1", "B2"), 1)], True,
     "[(1, (2, 3)), (1, (3, 2)), (2, (3, 0))]"),
    ([(("A1",), 2), (("A1", "A2"), 1)], True,
     "[(1, (0, 1)), (2, (0,))]"),
])
def test_canonical_form_text(counts, ordered, key):
    # Keys as the search writes them: a met orbit is found by its text.
    assert search._canonical_form(counts, CELLS, ordered) == key


@st.composite
def _cell_cases(draw):
    ordered = draw(st.booleans())
    ballots = draw(st.lists(_ballots(POOL, ordered), min_size=1, max_size=4,
                            unique=True))
    return [(ballot, draw(st.integers(1, 2))) for ballot in ballots]


@given(_cell_cases())
def test_cells_are_the_classes_of_the_swaps_that_keep_the_multiset(counts):
    cells = search._cells(counts, POOL)
    assert sorted(chain.from_iterable(cells)) == list(POOL)
    cell_of = {name: cell for cell in cells for name in cell}
    for x, y in combinations(POOL, 2):
        keeps = _renamed(counts, {x: y, y: x}) == Counter(counts)
        assert keeps == (cell_of[x] is cell_of[y])
    for orders in product(*(permutations(sorted(cell)) for cell in cells)):
        renaming = {name: image for cell, order in zip(cells, orders)
                    for name, image in zip(sorted(cell), order)}
        assert _renamed(counts, renaming) == Counter(counts)


def test_cells_of_two_strategies_on_decoys():
    # Swapping B1 and B2 keeps W = {A1, B1} + {A2, B2} only together with
    # swapping A1 and A2, so each decoy is a cell of its own, and all 6
    # answers at size 2 are kept, where the orbits of every renaming that
    # fixes W are only 4: {B1}{B1} ~ {B2}{B2}, {B1}{B1B2} ~ {B1B2}{B2}.
    w = ((frozenset({"A1", "B1"}), 1), (frozenset({"A2", "B2"}), 1))
    cells = search._cells(w, DECOYS[:2])
    assert cells == (frozenset({"B1"}), frozenset({"B2"}))
    options = (frozenset({"B1"}), frozenset({"B1", "B2"}), frozenset({"B2"}))
    kept = list(copy(search._orbit_firsts(options, 2, cells, False)))
    assert kept == list(_multisets(options, 2))
    assert len(kept) == 6
    assert len(_keyed_answers(w, options, 2)) == 4
    w = ((frozenset({"A1", "B1", "B2"}), 1), (frozenset({"A1", "B3", "B4"}), 1))
    assert search._cells(w, ("B1", "B2", "B3", "B4")) == (
        frozenset({"B1", "B2"}), frozenset({"B3", "B4"}))


@pytest.mark.parametrize("label, scenario, one_cell", [
    ("stv:1", "party", False), ("stv:1", "same", False),
    ("stv:1", "psc", True), ("thiele-o", "wpsc", True),
    ("borda", "tactic", True), ("av", "party", True), ("av", "same", True),
    ("av", "pjr", True), ("av", "ejr", True), ("av", "tactic", True),
])
def test_target_cells(label, scenario, one_cell):
    # W's one list under party and same fixes the order of the targets,
    # so no swap of two targets keeps it; every other option set is kept
    # by every swap.
    options = search._w_options(MethodId.parse(label), ScenarioId(scenario),
                                TARGETS, DECOYS, audit.AUDIT_SPEC, 3)
    cells = search._cells([(option, 1) for option in options], TARGETS)
    assert cells == (CELLS if one_cell
                     else (frozenset({"A1"}), frozenset({"A2"})))


@pytest.mark.parametrize("label, seats, ell, longest, options", [
    # Caps: none (av), 2 (lv:2) and S (bv); "A1B1" is the ballot {A1, B1}.
    ("av", 3, 1, 1, "A1"),
    ("av", 3, 1, 2, "A1 A1B1 A1B2 A1B3"),
    ("av", 3, 1, 3, "A1 A1B1 A1B1B2 A1B1B3 A1B2 A1B2B3 A1B3"),
    ("av", 3, 2, 1, "A1A2"),
    ("av", 3, 2, 2, "A1A2"),
    ("av", 3, 2, 3, "A1A2 A1A2B1 A1A2B2 A1A2B3"),
    ("av", 3, 3, 2, "A1A2A3"),
    ("av", 3, 3, 3, "A1A2A3"),
    ("lv:2", 3, 1, 1, "A1"),
    ("lv:2", 3, 1, 2, "A1 A1B1 A1B2 A1B3"),
    ("lv:2", 3, 1, 3, "A1 A1B1 A1B2 A1B3"),
    ("lv:2", 3, 2, 1, "A1A2"),
    ("lv:2", 3, 2, 2, "A1A2"),
    ("lv:2", 3, 2, 3, "A1A2"),
    ("bv", 2, 1, 1, "A1"),
    ("bv", 2, 1, 2, "A1 A1B1 A1B2 A1B3"),
    ("bv", 2, 1, 3, "A1 A1B1 A1B2 A1B3"),
    ("bv", 2, 2, 1, "A1A2"),
    ("bv", 2, 2, 3, "A1A2"),
])
def test_pjr_and_ejr_w_options(label, seats, ell, longest, options):
    # Every ballot that names all targets, within max_ballot_length and
    # the cap, sorted; the targets alone when ell exceeds
    # max_ballot_length.  Recorded while these had a loop of their own.
    spec = SearchSpec(max_candidates=4, weight_grid=4,
                      max_ballot_length=longest)
    targets = tuple("A%d" % (i + 1) for i in range(ell))
    for scenario in (ScenarioId.PJR, ScenarioId.EJR):
        found = search._w_options(MethodId.parse(label), scenario, targets,
                                  DECOYS, spec, seats)
        assert " ".join("".join(sorted(ballot)) for ballot in found) == options


def _partitions(votes, parts):
    """The partitions of `votes` into at most `parts` parts, each part
    list non-increasing, in reverse lexicographic order."""
    return sorted((combo for size in range(1, parts + 1)
                   for combo in combinations_with_replacement(
                       range(votes, 0, -1), size) if sum(combo) == votes),
                  reverse=True)


def test_party_answers_are_the_partitions_of_the_rival_votes():
    # The i-th part goes to P<i>, so the answers are named and ordered as
    # when the search enumerated partitions itself.
    for parties in range(7):
        strategies = search._party_strategies(
            1, 1, SearchSpec(max_candidates=parties + 1))
        for votes in range(1, 13):
            (answers,) = strategies(votes + 1, 1)
            found = [[(b.content.party, b.weight)
                      for b in inst.profile.ballots if not b.in_w]
                     for inst in answers]
            assert found == [[("P%d" % (i + 1), part)
                              for i, part in enumerate(parts)]
                             for parts in _partitions(votes, parties)]


@pytest.mark.parametrize("groups, best, ballots", [
    (1, F(0), None),
    (2, F(1, 3), [("W", 1), ("P1", 2)]),
    (3, F(2, 5), [("W", 2), ("P1", 2), ("P2", 1)]),
    (8, F(2, 5), [("W", 2), ("P1", 2), ("P2", 1)]),
])
def test_party_search_keeps_to_the_ballot_group_cap(groups, best, ballots):
    # W's party is one ballot group, so at most groups - 1 rival parties
    # answer it; with one group W stands alone and nothing is bad.
    found, witness = search_lower_bound(
        MethodId.parse("quota:0"), "party", 2, 4,
        SearchSpec(weight_grid=7, max_ballot_groups=groups))
    assert found == best
    if ballots is None:
        assert witness is None
    else:
        assert [(b.content.party, b.weight) for b in
                witness.instance.profile.ballots] == ballots


def _closed(options, renamings, ordered):
    """The options with every renaming of each, sorted as the search
    sorts them: the cache accepts only option sets closed this way."""
    closed = {type(ballot)(renaming.get(name, name) for name in ballot)
              for ballot in options for renaming in renamings}
    return tuple(sorted(closed, key=None if ordered else sorted))


def _fixing(w):
    """Every renaming of the targets among themselves and the decoys among
    themselves that fixes W's (ballot, count) pairs."""
    return [renaming for renaming in _renamings(TARGETS + DECOYS)
            if _renamed(w, renaming) == Counter(w)]


def _keyed_answers(w, options, votes):
    """The first answer of each orbit under the renamings that fix W, by
    trying every renaming: the answers the search kept when it keyed each
    answer with W's groups."""
    fixing = _fixing(w)
    met, kept = set(), []
    for counts in _multisets(options, votes):
        orbit = _orbit(counts, fixing)
        if orbit not in met:
            met.add(orbit)
            kept.append(counts)
    return kept


def _answers(w, options, votes, ordered):
    """The answers the search reads for W's strategy."""
    cells = search._cells(w, DECOYS)
    return list(copy(search._orbit_firsts(options, votes, cells, ordered)))


@st.composite
def _targets_only_strategies(draw):
    """(W's (ballot, count) pairs on targets only, adversary options over
    decoys closed under renaming the decoys, the adversary's vote count,
    ordered)."""
    ordered = draw(st.booleans())
    w = draw(st.lists(st.tuples(_ballots(TARGETS, ordered),
                                st.integers(1, 2)),
                      min_size=1, max_size=2))
    options = draw(st.lists(_ballots(DECOYS, ordered), min_size=1,
                            max_size=3))
    return (w, _closed(options, list(_renamings(TARGETS + DECOYS)), ordered),
            draw(st.integers(1, 3)), ordered)


@given(_targets_only_strategies())
def test_adversary_orbits_answer_a_strategy_on_targets(case):
    # Every renaming of the decoys fixes W, so the answers are the first
    # of each orbit under renaming the decoys alone: the cached sequence.
    w, options, votes, ordered = case
    assert list(copy(search._orbit_firsts(options, votes, (), ordered))) \
        == _keyed_answers(w, options, votes)


@st.composite
def _decoy_strategies(draw):
    """(W's (ballot, count) pairs on distinct ballots over targets and
    decoys, adversary options closed under renaming the decoys, the
    adversary's vote count, ordered)."""
    ordered = draw(st.booleans())
    ballots = draw(st.lists(_ballots(TARGETS + DECOYS, ordered),
                            min_size=1, max_size=3, unique=True))
    w = [(ballot, draw(st.integers(1, 2))) for ballot in ballots]
    options = draw(st.lists(_ballots(DECOYS, ordered), min_size=1,
                            max_size=3))
    return (w, _closed(options, list(_renamings(TARGETS + DECOYS)), ordered),
            draw(st.integers(1, 3)), ordered)


@given(_decoy_strategies())
def test_skipped_answers_are_renamings_of_kept_ones(case):
    # The kept answers come in search order, and each answer skipped
    # between them is the image of an earlier kept one under a renaming
    # that fixes W, so it is the same instance up to renaming.
    w, options, votes, ordered = case
    kept, fixing = _answers(w, options, votes, ordered), _fixing(w)
    earlier: list = []
    images: set = set()     # every image of an earlier kept answer
    for counts in _multisets(options, votes):
        if kept[len(earlier):len(earlier) + 1] == [counts]:
            earlier.append(counts)
            images |= _orbit(counts, fixing)
        else:
            assert frozenset(Counter(counts).items()) in images
    assert earlier == kept


@given(_decoy_strategies())
def test_kept_answers_are_the_orbits_when_swaps_fix_w(case):
    # When every renaming that fixes W moves each decoy within its cell,
    # the swaps that keep W generate those renamings' action on the
    # answers, so the kept answers are the first of each orbit.
    w, options, votes, ordered = case
    cells = search._cells(w, DECOYS)
    assume(all(renaming[name] in cell for renaming in _fixing(w)
               for cell in cells for name in cell))
    assert _answers(w, options, votes, ordered) \
        == _keyed_answers(w, options, votes)


@pytest.mark.parametrize("options, cells", [
    ((frozenset({"B1"}), frozenset({"B1", "B2"})), ()),
    ((("A1", "A2"),), CELLS),
])
def test_orbit_firsts_refuses_options_not_closed(options, cells):
    # The orderly fill is sound only when each renaming within the cells
    # permutes the options.
    with pytest.raises(ValueError, match="not closed under renaming"):
        search._orbit_firsts(options, 2, cells, isinstance(options[0],
                                                           tuple))


@st.composite
def _strategy_options(draw):
    ordered = draw(st.booleans())
    options = draw(st.lists(_ballots(POOL, ordered, longest=2), min_size=1,
                            max_size=3))
    return (_closed(options, list(_renamings()), ordered),
            draw(st.integers(1, 3)), ordered)


@given(_strategy_options())
def test_strategy_orbits_are_the_renaming_orbits(case):
    # The cached strategies are the first multiset of each orbit under
    # renaming the targets among themselves and the decoys among
    # themselves, found here by trying every renaming.
    options, size, ordered = case
    met, kept = set(), []
    for counts in _multisets(options, size):
        orbit = _orbit(counts, _renamings())
        if orbit not in met:
            met.add(orbit)
            kept.append(counts)
    assert list(copy(search._orbit_firsts(options, size, CELLS,
                                          ordered))) == kept


CACHE_CELLS = [("phragmen-u", "tactic", 2, 3), ("stv:1", "tactic", 2, 2),
               ("av", "ejr", 2, 3), ("thiele-o", "wpsc", 2, 3),
               ("borda", "psc", 1, 2), ("phragmen-o", "same", 1, 3),
               ("thiele-add", "pjr", 1, 2)]


def _clear_caches():
    """Empty every cache the search reads, so that the next search starts
    cold."""
    for module in (witnesses, search, audit):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _counting(monkeypatch, module, name):
    """Count the calls to module.<name> from now on."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_search_is_the_same_with_a_cold_or_warm_cache(monkeypatch):
    calls = _counting(monkeypatch, witnesses, "run_method")

    def results(cells):
        found = {}
        for label, scenario, ell, seats in cells:
            before = len(calls)
            best, witness = search_lower_bound(
                MethodId.parse(label), scenario, ell, seats,
                audit.AUDIT_SPEC)
            found[label, scenario] = (best, witness.instance.profile,
                                      len(calls) - before)
        return found

    _clear_caches()
    cold = results(CACHE_CELLS)
    assert results(CACHE_CELLS) == cold
    _clear_caches()
    assert results(CACHE_CELLS[::-1]) == cold


def test_search_strategies_keep_targets_apart():
    # A single av ballot over A1 and three decoys: its orbit is fixed by
    # whether it names A1 and by how many decoys it names, 6 in all.
    strategies = search._ballot_strategies(MethodId("av"), ScenarioId.TACTIC,
                                           1, 1, audit.AUDIT_SPEC)
    assert len(list(strategies(2, 1))) == 6


def test_search_answers_keep_to_the_ballot_group_cap():
    # pjr lets W cast {A1}, whose answers are orbits under renaming the
    # decoys, and {A1, B1}, whose answers are orbits under renaming within
    # its decoy cells {B1} and {B2, B3}; both obey the cap.
    spec = SearchSpec(max_candidates=4, weight_grid=4, max_ballot_groups=2)
    strategies = search._ballot_strategies(MethodId("av"), ScenarioId.PJR,
                                           1, 2, spec)
    sizes = {}
    for answers in strategies(4, 1):
        for inst in answers:
            (w_ballot,) = inst.profile.w_ballots()
            names = w_ballot.content.members
            sizes[names] = max(sizes.get(names, 0), len(inst.profile.ballots))
    assert sizes[frozenset({"A1"})] == sizes[frozenset({"A1", "B1"})] == 2
    assert max(sizes.values()) == 2


def test_search_decides_each_orbit_once(monkeypatch):
    # stv:1 tactic ell=3 S=3 holds 11,480 engine calls in the exhaustive
    # loop but only 1,964 instances distinct up to renaming the targets
    # among themselves and the decoys among themselves.  From a cold
    # cache the orderly fill keys 2,879 multisets (13,326 when every
    # multiset was keyed).
    calls = _counting(monkeypatch, witnesses, "run_method")
    keys = _counting(monkeypatch, search, "_canonical_form")
    _clear_caches()
    best, _ = search_lower_bound(MethodId("stv", 1), "tactic", 3, 3,
                                 audit.AUDIT_SPEC)
    assert best == F(3, 4)
    assert 0 < len(calls) <= 1964
    assert 0 < len(keys) <= 2880


@pytest.mark.parametrize("error, refused", [
    (AdamsIllDefined("a zero divisor"), True),
    (ValueError("an engine fault"), False),
])
def test_search_counts_only_engine_refusals_as_not_bad(monkeypatch, error,
                                                        refused):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(witnesses, "run_method", failing)
    spec = SearchSpec(max_candidates=2, weight_grid=2)
    if refused:
        assert search_lower_bound(MethodId("bv"), "same", 1, 1,
                                  spec) == (0, None)
    else:
        with pytest.raises(ValueError, match="an engine fault"):
            search_lower_bound(MethodId("bv"), "same", 1, 1, spec)


# Two tied 8-name lists give C(16, 8) = 12,870 committees, over the
# default cap, so run_method's full count is truncated.  The verdict is a
# goal count: the score family splits the tied names by the goal sets
# that hold them, and the ejr-window tie is 256 splits over 9 groups, one
# of them bad, where the full count lists 10,000 good committees.
S8_WITNESSES = [("majority-tie", label, scenario, True)
                for label in ("bv", "av")
                for scenario in ("party", "same", "tactic", "pjr")]
S8_WITNESSES.append(("ejr-window", "av", "ejr", True))


@pytest.mark.parametrize("token, label, scenario, bad", S8_WITNESSES)
def test_s8_witnesses_at_the_default_cap(token, label, scenario, bad):
    method = MethodId.parse(label)
    witness = construct_witness(token, method, scenario, 8, 8)
    outcomes = run_method(method, witness.instance.profile)
    assert outcomes.truncated and len(outcomes) == DEFAULT_BRANCH_CAP
    assert verify_witness(witness, method) is bad


def test_search_soundness_small_grid():
    # The search may only find genuine bad outcomes, so it can never
    # exceed an exactly-known threshold.
    spec = SearchSpec(max_candidates=4, weight_grid=3)
    probes = [
        ("av", "ejr"), ("sntv", "same"), ("phragmen-u", "pjr"),
        ("thiele-opt", "same"), ("stv:1", "same"), ("borda", "same"),
        ("thiele-o", "wpsc"), ("quota:0", "party"),
    ]
    for label, scenario in probes:
        method = MethodId.parse(label)
        for seats in (1, 2, 3):
            for ell in range(1, seats + 1):
                try:
                    entry = threshold(method, ScenarioId(scenario), ell,
                                      seats)
                except CoverageError:
                    continue
                if not (entry.is_exact and entry.kind == "pi"):
                    continue
                best, _ = search_lower_bound(method, scenario, ell, seats,
                                             spec)
                assert best <= entry.value


def _exhaustive_fraction(method, scenario, ell, seats, spec):
    """search_lower_bound's non-tactic result from every profile of the
    grid, with no orbits and no strategy skipped.  The grids used hold
    fewer ballot groups than spec.max_ballot_groups, so the cap is not
    applied."""
    targets = ["A%d" % (i + 1) for i in range(ell)]
    decoys = ["B%d" % (i + 1)
              for i in range(max(spec.max_candidates, seats) - ell)]
    w_options = search._w_options(method, scenario, targets, decoys, spec,
                                  seats)
    adv_options = search._ballot_options(method, decoys, spec, seats)
    for fraction, total, w_votes in search._fraction_ladder(
            spec.weight_grid):
        for w_side, adv_side in product(
                combinations_with_replacement(w_options, w_votes),
                combinations_with_replacement(adv_options, total - w_votes)):
            ballots = [WeightedBallot(SetBallot(names), count, in_w)
                       for in_w, side in ((True, w_side), (False, adv_side))
                       for names, count in Counter(side).items()]
            inst = ScenarioInstance(Profile(ballots, seats,
                                            targets + decoys),
                                    targets, ell, scenario)
            if is_instance(inst) and search._search_bad(method, inst, spec):
                return fraction
    return 0


def test_search_matches_the_exhaustive_loop(monkeypatch):
    # Three candidates leave S = 2 one spare name, so W strategies whose
    # ballots name two or three names are skipped on many of these
    # cells; the fraction is the exhaustive loop's on every one.
    settled = []
    real = search.settle

    def recording(*args):
        settled.append(real(*args))
        return settled[-1]

    monkeypatch.setattr(search, "settle", recording)
    spec = SearchSpec(max_candidates=3, weight_grid=3)
    for label in ("av", "phragmen-u", "thiele-opt", "thiele-add"):
        method = MethodId.parse(label)
        for scenario in (ScenarioId.PJR, ScenarioId.EJR):
            for seats in (1, 2):
                for ell in range(1, seats + 1):
                    best, _ = search_lower_bound(method, scenario, ell,
                                                 seats, spec)
                    assert best == _exhaustive_fraction(
                        method, scenario, ell, seats, spec), (
                            label, scenario, ell, seats)
    assert any(settled) and not all(settled)


def test_search_skips_a_pool_of_s_names(monkeypatch):
    # With pool = S every committee is the whole pool, which holds W's
    # target, so every tactic strategy is settled good at once and kept
    # with no answers ({A1}^2, {A1}{B1} and {B1}^2 at two W votes): no
    # rung has a bad answer, and no engine runs.
    calls = _counting(monkeypatch, witnesses, "run_method")
    spec = SearchSpec(max_candidates=2, weight_grid=3)
    strategies = search._ballot_strategies(MethodId("sntv"),
                                           ScenarioId.TACTIC, 1, 2, spec)
    assert [list(answers) for answers in strategies(3, 2)] == [[], [], []]
    assert search_lower_bound(MethodId("sntv"), "tactic", 1, 2,
                              spec) == (0, None)
    assert calls == []


# ---------------------------------------------------------------------------
# Corpus audit


def test_audit_default_scope_clean():
    report = audit_table(smax=5)
    assert report.passed
    assert not report.failures()
    assert len(report.checks) > 1000


@pytest.mark.parametrize("smax", [0, -1])
def test_audit_of_no_cells_rejected(smax):
    # No entry has S < 1, so such an audit would pass with 0 checks.
    with pytest.raises(ValueError, match="smax must be >= 1"):
        audit_table(smax=smax)


def test_audit_with_search_on_restricted_scope():
    scope = [(MethodId("bv"), ScenarioId.EJR),
             (MethodId("div", 1), ScenarioId.PARTY),
             (MethodId("sntv"), ScenarioId.SAME)]
    report = audit_table(scope=scope, smax=3, with_search=True)
    assert report.passed
    names = {c.name for c in report.checks}
    assert "search<=threshold" in names
    assert "search=threshold" in names


# sha256 of the JSON list of [name, subject, ok] over audit_table(smax=8):
# 6,466 checks, every one passing, each inequality checked once.
AUDIT_CHECKS_GOLDEN = (
    "e99b8dfa6b3a269195b586567d34e20479f6f69cab6097c7da37a7b5ab161428")


def test_audit_checks_are_pinned():
    report = audit_table(smax=8)
    text = json.dumps([[c.name, c.subject, c.ok] for c in report.checks],
                      separators=(",", ":"))
    assert len(report.checks) == 6466 and report.passed
    assert hashlib.sha256(text.encode()).hexdigest() == AUDIT_CHECKS_GOLDEN
    assert Counter(c.name.split()[0] for c in report.checks) == {
        "chain": 1738, "closure": 964, "floor": 944, "majority": 964,
        "monotone": 1156, "tactic": 700}


def _bounds(lo, hi, kind="pi"):
    return ThresholdValue(None, kind, status="interval", lo=lo, hi=hi)


# stv:1 same and tactic are ell/(S+1) on every cell; each case swaps some
# S <= 4 cells for bounds that break one family alone, the cells' other
# checks being made vacuous (lo None) or loose (hi 1).
@pytest.mark.parametrize("scenario, cells, failures", [
    ("same", {(3, 4): _bounds(None, F(2, 5)), (2, 4): _bounds(None, F(1))},
     [("majority same", "stv:1 ell=3 S=4", "2/5 < 1/2")]),
    ("same", {(1, 3): _bounds(None, F(1, 5)), (3, 3): _bounds(None, F(1))},
     [("floor same", "stv:1 ell=1 S=3", "1/5 < 1/4")]),
    ("same", {(2, 4): _bounds(None, F(1, 5)), (3, 4): _bounds(None, F(1, 2)),
              (1, 4): _bounds(None, F(1))},
     [("closure same", "stv:1 ell=2 S=4", "1/5 + 1/2 < 1")]),
    ("same", {(2, 4): _bounds(F(7, 10), F(1))},
     [("monotone same", "stv:1 ell=3 S=4", "7/10 > 3/5")]),
    # pi-hat against pi is no monotone pair, and pi-hat has no generic bound
    ("same", {(2, 4): _bounds(F(7, 10), F(1), "pihat")}, []),
    ("tactic", {(3, 4): _bounds(F(9, 10), F(1)), (4, 4): _bounds(None, F(1))},
     [("tactic subadditive", "stv:1 S=4 1+2", "9/10 > 1/5 + 2/5")]),
])
def test_each_audit_family_fails_alone(monkeypatch, scenario, cells,
                                       failures):
    real = audit.threshold

    def patched(method, sc, ell, seats):
        return cells.get((ell, seats)) or real(method, sc, ell, seats)

    monkeypatch.setattr(audit, "threshold", patched)
    report = audit_table(scope=[(MethodId("stv", 1), scenario)], smax=4)
    assert [(c.name, c.subject, c.detail)
            for c in report.failures()] == failures


def test_search_audit_clean(monkeypatch):
    # Every search probe of an exact pi cell at S <= 3 stays at or below
    # pi, and attains it wherever a catalog witness fits the grid.  From
    # a cold cache, the 373 searches make 13,480 engine calls (19,675
    # before W strategies whose every committee is good were skipped) and
    # key 4,408 multisets, 11 of them the party answers' own (4,536 before
    # the transposition classes, 30,943 before the decoy cells and the
    # orderly fill).  Searching each pair of twin cells once saves 2,151
    # of those calls and gives the same report.  Six of the checks are
    # search=threshold on the thiele-add, thiele-o and borda party cells
    # at ell = S in {2, 3}, which the common-list-tie witness reaches on
    # the grid.
    calls = _counting(monkeypatch, witnesses, "run_method")
    keys = _counting(monkeypatch, search, "_canonical_form")
    _clear_caches()
    with monkeypatch.context() as patch:
        patch.setattr(audit, "_search_twin", lambda scenario, ell: scenario)
        every_cell = audit_table(smax=3, with_search=True)
    assert len(calls) == 13480
    assert 0 < len(keys) <= 4536
    del calls[:]
    report = audit_table(smax=3, with_search=True)
    assert len(calls) == 13480 - 2151
    assert report == every_cell
    assert len(report.checks) == 1607
    assert report.passed and not report.failures()


def _twin_pairs():
    """(method, twin, scenario, ell, seats) for every S <= 3 cell whose
    search is its twin's, on the candidate-ballot methods of the default
    scope whose ballot kind expresses the scenario."""
    methods = dict.fromkeys(method for method, _ in default_scope()
                            if method.spec.ballot != "party")
    pairs = []
    for method in methods:
        for seats in (1, 2, 3):
            for ell in range(1, seats + 1):
                for scenario in (ScenarioId.EJR, ScenarioId.WPSC):
                    twin = audit._search_twin(scenario, ell)
                    if twin is scenario or scenario.value not in (
                            ("pjr", "ejr") if method.spec.ballot == "set"
                            else ("psc", "wpsc")):
                        continue
                    pairs.append(pytest.param(
                        method, twin, scenario, ell, seats,
                        id="%s-%s-%d-%d" % (method.label(), scenario.value,
                                            ell, seats)))
    return pairs


@pytest.mark.parametrize("method, twin, scenario, ell, seats", _twin_pairs())
def test_twin_cells_search_alike(method, twin, scenario, ell, seats):
    def searched(sc):
        try:
            best, witness = search_lower_bound(method, sc, ell, seats,
                                               audit.AUDIT_SPEC)
        except (CoverageError, ScenarioTypeError) as exc:
            return type(exc)
        return best, witness and (format_profile(witness.instance.profile),
                                  witness.instance.target)

    assert searched(scenario) == searched(twin)


def test_default_scope_covers_all_scenarios():
    scope = default_scope()
    scenarios = {scenario for _, scenario in scope}
    assert scenarios == set(ScenarioId)


def test_default_scope_holds_the_pairs_the_ballots_can_express():
    # Of the 19 audited methods under 7 scenarios, the 50 pairs whose
    # scenario the method's ballots cannot express are left out; none
    # of their cells has a bound at S <= 10, so the audit loses nothing.
    scope = default_scope()
    assert len(scope) == 83
    for kind, spec in REGISTRY.items():
        for method in (MethodId(kind, param) for param in spec.audited):
            for scenario in ScenarioId:
                try:
                    require_kind(scenario, spec.ballot)
                except ScenarioTypeError:
                    assert (method, scenario) not in scope
                else:
                    assert (method, scenario) in scope
                    continue
                for seats in range(1, 11):
                    for ell in range(1, seats + 1):
                        try:
                            entry = threshold(method, scenario, ell, seats)
                        except CoverageError:
                            continue
                        assert (entry.lo, entry.hi) == (None, None)


# ---------------------------------------------------------------------------
# Module layout


# The names the benchmark reads from verifier, by their home module.
VERIFIER_REEXPORTS = {"run_method": witnesses, "construct_witness": witnesses,
                      "SearchSpec": search, "search_lower_bound": search,
                      "default_scope": audit, "covering_token": audit,
                      "audit_table": audit}


@pytest.mark.parametrize("name", sorted(VERIFIER_REEXPORTS))
def test_verifier_reexports_the_home_object(name):
    assert getattr(verifier, name) is getattr(VERIFIER_REEXPORTS[name], name)


CHECK_MODULES = ("witnesses", "search", "audit")


@pytest.mark.parametrize("index", range(len(CHECK_MODULES)))
def test_each_check_module_imports_first(index):
    # Imported first in a fresh interpreter, a module meets any import
    # cycle it is in; it loads none of the modules after it, nor verifier.
    later = ["multiwin." + name for name in CHECK_MODULES[index + 1:]]
    code = ("import sys; sys.path.insert(0, %r); import multiwin.%s; "
            "assert not set(%r) & set(sys.modules)"
            % (str(Path(audit.__file__).parents[1]), CHECK_MODULES[index],
               later + ["multiwin.verifier"]))
    subprocess.run([sys.executable, "-c", code], check=True)

