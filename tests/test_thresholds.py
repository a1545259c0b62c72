"""Guarantee thresholds: frozen reference grids, spot values across the
method corpus, generic bounds, and representation-criterion verdicts.

All golden rationals below were cross-checked against independent
derivations (closed forms, the LP route, and the witness/search side of
the package) before being frozen.
"""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multiwin import thresholds
from multiwin.ballots import WeightScheme, parse_profile
from multiwin.numerics import format_rational
from multiwin.party import AdamsIllDefined
from multiwin.scenarios import ScenarioId, ScenarioInstance
from multiwin.search import search_lower_bound
from multiwin.thresholds import (INTERVAL, MethodId, TABLE_NAMES,
                                 ThresholdValue, criterion_check,
                                 generic_bounds, table_grid, threshold)
from multiwin.witnesses import construct_witness, verify_witness

F = Fraction


# ---------------------------------------------------------------------------
# Method identifiers


@pytest.mark.parametrize("label", [
    "bv", "av", "sntv", "lv:2", "cv", "cvq", "phragmen-u", "phragmen-o",
    "thiele-opt", "thiele-add", "thiele-elim", "thiele-o", "borda",
    "stv", "stv:1/2", "stv:0", "div:1", "div:1/2", "quota:0", "quota:1",
    "thiele-opt:weak", "borda:constant",
])
def test_method_label_round_trip(label):
    method = MethodId.parse(label)
    assert MethodId.parse(method.label()) == method


def test_method_parse_errors():
    for bad in ("bogus", "lv", "div", "thiele-opt:mystery"):
        with pytest.raises(ValueError):
            MethodId.parse(bad)


@pytest.mark.parametrize("kind", sorted(thresholds.REGISTRY))
def test_method_parse_refuses_a_colon_with_nothing_after_it(kind):
    # Without the colon the label still parses ("stv" means stv:1).
    with pytest.raises(ValueError, match="^nothing after '%s:'" % kind):
        MethodId.parse(kind + ":")
    if thresholds.REGISTRY[kind].param is None or kind == "stv":
        assert MethodId.parse(kind).kind == kind


@pytest.mark.parametrize("kind, param, scheme, message", [
    ("bogus", None, None, "unknown method kind 'bogus'"),
    ("div", None, None, "div requires a parameter"),
    ("lv", F(3, 2), None, "integer limit >= 1"),
    ("lv", 0, None, "integer limit >= 1"),
    ("div", 2, None, "must lie in \\[0, 1\\]"),
    ("stv", F(-1, 2), None, "must lie in \\[0, 1\\]"),
    ("bv", 1, None, "bv takes no numeric parameter"),
    ("phragmen-u", None, WeightScheme.weak(), "takes no weight scheme"),
])
def test_method_id_validation(kind, param, scheme, message):
    with pytest.raises(ValueError, match=message):
        MethodId(kind, param, scheme)


@pytest.mark.parametrize("build, message", [
    (lambda: ThresholdValue(F(3, 2)), "must lie in \\[0, 1\\]"),
    (lambda: ThresholdValue(F(-1, 3)), "must lie in \\[0, 1\\]"),
    (lambda: ThresholdValue(None, status=INTERVAL, lo=F(1, 2), hi=F(1, 3)),
     "lower bound exceeds upper bound"),
])
def test_threshold_value_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("label", [
    "bv:junk", "phragmen-u:weak", "cv:1", "thiele-elim:harmonic"])
def test_method_parse_refuses_an_argument_the_kind_does_not_take(label):
    kind = label.partition(":")[0]
    with pytest.raises(ValueError, match="^%s takes no parameter$" % kind):
        MethodId.parse(label)


def test_method_parse_round_trips_the_default_scope():
    from multiwin.audit import default_scope
    for method, _ in default_scope():
        assert MethodId.parse(method.label()) == method
        # Equal ids hash equal, a pickled copy included; the pickle holds
        # no cached hash, which another hash seed would make stale.
        data = pickle.dumps(method)
        assert b"_hash" not in data
        for copy in (MethodId.parse(method.label()), pickle.loads(data)):
            assert copy == method and hash(copy) == hash(method)


def test_method_constructors_match_parse():
    assert MethodId("bv") == MethodId.parse("bv")
    assert MethodId("stv", F(1, 2)) == MethodId.parse("stv:1/2")
    assert MethodId("div", 1) == MethodId.parse("div:1")
    assert MethodId("stv", 1) == MethodId.parse("stv")
    assert MethodId("thiele-opt", scheme=WeightScheme.weak()) == \
        MethodId.parse("thiele-opt:weak")


# Finite weight sequences 1 = w_1 >= ... >= w_k, the last entry the tail.
finite_weights = st.lists(
    st.builds(F, st.integers(0, 6), st.integers(1, 6)).filter(
        lambda x: x <= 1), max_size=4).map(
    lambda rest: sorted([F(1)] + rest, reverse=True))


def _scheme_texts(weights, extra):
    """Texts naming the sequence, `extra` copies of the tail written
    into the prefix; a text without ";tail=" means tail 0."""
    *prefix, tail = weights
    prefix = ",".join(map(format_rational, prefix + [tail] * extra))
    texts = ["explicit(%s;tail=%s)" % (prefix, format_rational(tail))]
    if tail == 0:
        texts.append("explicit(%s)" % prefix)
    return texts


@settings(max_examples=200, deadline=None)
@given(finite_weights, st.integers(0, 2))
def test_every_spelling_of_a_weight_sequence_is_one_scheme(weights, extra):
    *prefix, tail = weights
    padded = prefix + [tail] * extra
    canonical = WeightScheme.explicit(prefix, tail)
    spellings = [WeightScheme.explicit(padded, tail),
                 WeightScheme("explicit", tuple(padded), tail)]
    spellings += map(WeightScheme.parse, _scheme_texts(weights, extra))
    for name in ("weak", "constant"):
        named = WeightScheme(name)
        if all(named.w(k) == canonical.w(k)
               for k in range(1, len(padded) + 3)):
            spellings += [named, WeightScheme.parse(name)]
            assert canonical.label() == name
    for scheme in spellings:
        assert scheme == canonical and hash(scheme) == hash(canonical)
        assert scheme.label() == canonical.label()
        assert WeightScheme.parse(scheme.label()) == canonical
    for k in range(1, len(padded) + 4):
        assert canonical.w(k) == weights[min(k, len(weights)) - 1]
    assert canonical.prefix[-1:] != (canonical.tail,)
    for kind in ("thiele-opt", "thiele-add", "borda"):
        method = MethodId(kind, scheme=canonical)
        assert MethodId.parse(method.label()) == method
        for text in _scheme_texts(weights, extra):
            copy = MethodId.parse("%s:%s" % (kind, text))
            assert copy == method and hash(copy) == hash(method)
            assert copy.label() == method.label()


SCHEME_SPELLINGS = [
    ("weak", "explicit(1;tail=0)", "explicit(1,0)", "explicit(1,0,0;tail=0)"),
    ("constant", "explicit(1;tail=1)", "explicit(1,1;tail=1)",
     "explicit(;tail=1)"),
    ("explicit(1,1/2;tail=0)", "explicit(1,1/2,0)"),
    ("explicit(1,1/2;tail=1/4)", "explicit(1,1/2,1/4,1/4;tail=1/4)"),
]


@pytest.mark.parametrize("kind", ["thiele-add", "thiele-opt", "borda"])
@pytest.mark.parametrize("texts", SCHEME_SPELLINGS,
                         ids=[texts[0] for texts in SCHEME_SPELLINGS])
def test_spellings_of_one_scheme_answer_alike(kind, texts):
    first, *others = [MethodId.parse("%s:%s" % (kind, text))
                      for text in texts]
    assert [first.label()] * len(others) == [m.label() for m in others]
    assert first.label() == "%s:%s" % (kind, texts[0])
    for scenario in ScenarioId:
        for seats in range(1, 9):
            for ell in range(1, seats + 1):
                entry = threshold(first, scenario, ell, seats)
                for other in others:
                    assert threshold(other, scenario, ell, seats) == entry


def test_weak_addition_single_seat_tactic_is_attained():
    # (1; 0) spelled out once took the finite path, which gives pi here.
    for text in ("weak", "explicit(1;tail=0)"):
        method = MethodId.parse("thiele-add:" + text)
        for seats in range(1, 9):
            entry = threshold(method, ScenarioId.TACTIC, 1, seats)
            assert (entry.kind, entry.status, entry.value) == (
                "pi", "exact", F(1, seats + 1))


@pytest.mark.parametrize("ell, seats", [(0, 2), (3, 2), (-1, 0)])
def test_every_entry_point_refuses_ell_outside_one_to_seats(ell, seats):
    message = r"^need 1 <= ell <= seats \(got ell=%d, S=%d\)$" % (ell, seats)
    method = MethodId("av")
    profile = parse_profile("!seats 2\n!W 1 : {A B}\n1 : {C}\n")
    calls = [lambda: threshold(method, ScenarioId.SAME, ell, seats),
             lambda: generic_bounds(ell, seats),
             lambda: construct_witness("majority-tie", method, "same", ell,
                                       seats),
             lambda: search_lower_bound(method, "same", ell, seats)]
    if seats == 2:
        calls.append(lambda: ScenarioInstance(profile, {"A"}, ell,
                                              ScenarioId.SAME))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_threshold_argument_validation():
    with pytest.raises(ValueError):
        threshold(MethodId("bv"), ScenarioId.SAME, 3, 2)
    with pytest.raises(ValueError):
        threshold(MethodId("bv"), ScenarioId.SAME, 0, 2)


# ---------------------------------------------------------------------------
# Frozen reference grids (values for every 1 <= ell <= S <= 5)


def _grid_values(name):
    grid = table_grid(name)
    return {key: cell.value for key, cell in grid.cells.items()}


OPTIMAL = {  # ell/(S+1), shared by the divisor gamma=1 reduction family
    (S, ell): F(ell, S + 1) for S in range(1, 6) for ell in range(1, S + 1)}

STL = {(1, 1): F(1, 2), (2, 1): F(1, 3), (2, 2): F(3, 4),
       (3, 1): F(1, 4), (3, 2): F(3, 5), (3, 3): F(5, 6),
       (4, 1): F(1, 5), (4, 2): F(1, 2), (4, 3): F(5, 7), (4, 4): F(7, 8),
       (5, 1): F(1, 6), (5, 2): F(3, 7), (5, 3): F(5, 8), (5, 4): F(7, 9),
       (5, 5): F(9, 10)}

LR = {(1, 1): F(1, 2), (2, 1): F(1, 3), (2, 2): F(3, 4),
      (3, 1): F(1, 4), (3, 2): F(5, 9), (3, 3): F(5, 6),
      (4, 1): F(1, 5), (4, 2): F(7, 16), (4, 3): F(2, 3), (4, 4): F(7, 8),
      (5, 1): F(1, 6), (5, 2): F(9, 25), (5, 3): F(11, 20),
      (5, 4): F(11, 15), (5, 5): F(9, 10)}

BV_EJR = {(1, 1): F(1, 2), (2, 1): F(1, 2), (2, 2): F(1, 2),
          (3, 1): F(1, 2), (3, 2): F(3, 5), (3, 3): F(1, 2),
          (4, 1): F(1, 2), (4, 2): F(4, 7), (4, 3): F(3, 5),
          (4, 4): F(1, 2),
          (5, 1): F(1, 2), (5, 2): F(5, 9), (5, 3): F(5, 8),
          (5, 4): F(3, 5), (5, 5): F(1, 2)}

AV_EJR = {(1, 1): F(1, 2), (2, 1): F(1, 2), (2, 2): F(2, 3),
          (3, 1): F(1, 2), (3, 2): F(3, 5), (3, 3): F(3, 4),
          (4, 1): F(1, 2), (4, 2): F(4, 7), (4, 3): F(2, 3),
          (4, 4): F(4, 5),
          (5, 1): F(1, 2), (5, 2): F(5, 9), (5, 3): F(5, 8),
          (5, 4): F(5, 7), (5, 5): F(5, 6)}

THA_SAME = {(1, 1): F(1, 2), (2, 1): F(1, 3), (2, 2): F(2, 3),
            (3, 1): F(3, 11), (3, 2): F(1, 2), (3, 3): F(3, 4),
            (4, 1): F(7, 31), (4, 2): F(3, 7), (4, 3): F(3, 5),
            (4, 4): F(4, 5),
            (5, 1): F(43, 223), (5, 2): F(7, 19), (5, 3): F(9, 17),
            (5, 4): F(2, 3), (5, 5): F(5, 6)}

THO_TACTIC = {(1, 1): F(1, 2), (2, 1): F(2, 5), (2, 2): F(3, 5),
              (3, 1): F(12, 35), (3, 2): F(1, 2), (3, 3): F(23, 35),
              (4, 1): F(24, 79), (4, 2): F(18, 41), (4, 3): F(23, 41),
              (4, 4): F(55, 79),
              (5, 1): F(720, 2621), (5, 2): F(36, 91), (5, 3): F(1, 2),
              (5, 4): F(55, 91), (5, 5): F(1901, 2621)}

THO_SAME = {(1, 1): F(1, 2), (2, 1): F(2, 5), (2, 2): F(2, 3),
            (3, 1): F(12, 35), (3, 2): F(4, 7), (3, 3): F(3, 4),
            (4, 1): F(24, 79), (4, 2): F(24, 47), (4, 3): F(2, 3),
            (4, 4): F(4, 5),
            (5, 1): F(720, 2621), (5, 2): F(48, 103), (5, 3): F(36, 59),
            (5, 4): F(8, 11), (5, 5): F(5, 6)}

THO_WPSC = {(1, 1): F(1, 2), (2, 1): F(2, 5), (2, 2): F(2, 3),
            (3, 1): F(12, 35), (3, 2): F(4, 7), (3, 3): F(4, 5),
            (4, 1): F(24, 79), (4, 2): F(24, 47), (4, 3): F(8, 11),
            (4, 4): F(6, 7),
            (5, 1): F(720, 2621), (5, 2): F(48, 103), (5, 3): F(48, 71),
            (5, 4): F(4, 5), (5, 5): F(9, 10)}

BORDA_TACTIC = {(1, 1): F(1, 2), (2, 1): F(3, 7), (2, 2): F(4, 7),
                (3, 1): F(11, 29), (3, 2): F(1, 2), (3, 3): F(18, 29),
                (4, 1): F(25, 73), (4, 2): F(22, 49), (4, 3): F(27, 49),
                (4, 4): F(48, 73),
                (5, 1): F(137, 437), (5, 2): F(25, 61), (5, 3): F(1, 2),
                (5, 4): F(36, 61), (5, 5): F(300, 437)}

BORDA_SAME = {(1, 1): F(1, 2), (2, 1): F(3, 7), (2, 2): F(2, 3),
              (3, 1): F(11, 29), (3, 2): F(3, 5), (3, 3): F(3, 4),
              (4, 1): F(25, 73), (4, 2): F(11, 20), (4, 3): F(9, 13),
              (4, 4): F(4, 5),
              (5, 1): F(137, 437), (5, 2): F(25, 49), (5, 3): F(11, 17),
              (5, 4): F(3, 4), (5, 5): F(5, 6)}

GRIDS = {"optimal": OPTIMAL, "stl": STL, "lr": LR, "bv-ejr": BV_EJR,
         "av-ejr": AV_EJR, "tha-same": THA_SAME, "tho-tactic": THO_TACTIC,
         "tho-same": THO_SAME, "tho-wpsc": THO_WPSC,
         "borda-tactic": BORDA_TACTIC, "borda-same": BORDA_SAME}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_golden(name):
    assert _grid_values(name) == GRIDS[name]


def test_grid_statuses():
    for (_, _), cell in table_grid("stl").cells.items():
        assert cell.is_exact
    # The sequential-addition diagonal beyond ell = 1 is conjectural.
    grid = table_grid("tha-same")
    assert grid.cells[(3, 2)].status == "conjectured"
    assert grid.cells[(3, 1)].is_exact


def test_grid_sequences_included_in_table_names():
    assert "sequences" in TABLE_NAMES
    grid = table_grid("sequences")
    assert grid.cells[("a", 6)] == F(4277, 1440)
    assert grid.cells[("b", 6)] == F(95, 288)
    assert grid.cells[("c", 6)] == 12


def test_unknown_table_rejected():
    with pytest.raises(ValueError):
        table_grid("mystery")


@pytest.mark.parametrize("max_seats", [0, -1])
def test_empty_table_grid_rejected(max_seats):
    with pytest.raises(ValueError, match="max_seats must be >= 1"):
        table_grid("optimal", max_seats=max_seats)


# ---------------------------------------------------------------------------
# Spot values across the wider corpus


SPOT = [
    ("phragmen-u", "same", 2, 3, F(1, 2)),
    ("phragmen-u", "pjr", 2, 3, F(1, 2)),
    ("phragmen-u", "party", 1, 4, F(1, 5)),
    ("thiele-opt", "same", 2, 3, F(1, 2)),
    ("thiele-opt", "pjr", 2, 5, F(1, 3)),
    ("thiele-opt", "ejr", 2, 5, F(1, 3)),
    ("thiele-elim", "same", 1, 4, F(1, 5)),
    ("thiele-add", "pjr", 1, 4, F(7, 31)),
    ("thiele-add", "party", 2, 4, F(2, 5)),
    ("stv:1", "same", 2, 3, F(1, 2)),
    ("stv:1", "psc", 2, 3, F(1, 2)),
    ("stv:1", "wpsc", 2, 3, F(1, 2)),
    ("stv:1", "party", 2, 3, F(1, 2)),
    ("stv:0", "same", 2, 3, F(5, 9)),
    ("stv:1/2", "wpsc", 2, 3, F(11, 21)),
    ("stv:1", "tactic", 2, 3, F(1, 2)),
    ("phragmen-o", "same", 2, 3, F(1, 2)),
    ("phragmen-o", "wpsc", 2, 3, F(1, 2)),
    ("phragmen-o", "psc", 2, 3, F(1)),
    ("thiele-o", "psc", 2, 3, F(1)),
    ("cvq", "same", 2, 3, F(1)),
    ("cvq", "ejr", 1, 3, F(1)),
    ("cvq", "tactic", 2, 3, F(1, 2)),
    ("sntv", "same", 1, 3, F(1, 4)),
    ("sntv", "party", 1, 3, F(1, 4)),
    ("lv:2", "same", 2, 4, F(2, 5)),
    ("lv:2", "tactic", 2, 4, F(2, 5)),
    ("lv:2", "ejr", 2, 3, F(1, 2)),
    ("bv", "same", 2, 3, F(1, 2)),
    ("bv", "pjr", 2, 3, F(1, 2)),
    ("av", "same", 2, 3, F(1, 2)),
    ("quota:1", "party", 2, 3, F(1, 2)),
    ("quota:1/2", "party", 2, 4, F(5, 12)),
    ("div:1/3", "party", 2, 4, F(4, 7)),
    ("borda", "wpsc", 2, 4, F(11, 20)),
]


@pytest.mark.parametrize("label, scenario, ell, seats, value", SPOT)
def test_spot_values(label, scenario, ell, seats, value):
    entry = threshold(MethodId.parse(label), ScenarioId(scenario), ell, seats)
    assert entry.is_exact
    assert entry.value == value


def test_not_attained_suprema_are_marked():
    for label, scenario in (("cvq", "same"), ("phragmen-o", "psc"),
                            ("thiele-o", "psc")):
        entry = threshold(MethodId.parse(label), ScenarioId(scenario), 2, 3)
        assert entry.value == 1
        assert entry.side == "minus"


def test_large_electorate_limits_use_their_own_kind():
    entry = threshold(MethodId("sntv"), ScenarioId.TACTIC, 2, 3)
    assert entry.kind == "pihat"
    assert entry.value == F(1, 2)
    entry = threshold(MethodId("bv"), ScenarioId.TACTIC, 2, 3)
    assert entry.kind == "pi"


def test_open_problems_carry_bounds():
    entry = threshold(MethodId("phragmen-u"), ScenarioId.EJR, 2, 12)
    assert entry.status == "unknown"
    assert entry.lo == F(409, 2409)
    entry = threshold(MethodId("thiele-elim"), ScenarioId.PJR, 1, 4)
    assert entry.status == "unknown"
    assert entry.lo == F(1, 4)


def test_uncovered_pairs_report_unknown():
    entry = threshold(MethodId("cv"), ScenarioId.SAME, 2, 3)
    assert entry.status == "unknown"
    assert entry.lo is None and entry.hi is None
    entry = threshold(MethodId("div", 1), ScenarioId.EJR, 1, 2)
    assert entry.status == "unknown"


def test_per_ballot_grid_is_non_monotone_in_ell():
    row = [threshold(MethodId("bv"), ScenarioId.EJR, ell, 3).value
           for ell in (1, 2, 3)]
    assert row == [F(1, 2), F(3, 5), F(1, 2)]


def test_per_ballot_grid_peaks_at_middle_ell():
    # S = 2 is flat at 1/2; from S = 3 the peak sits at the middle.
    for seats in range(3, 13):
        values = [threshold(MethodId("bv"), ScenarioId.EJR, ell, seats).value
                  for ell in range(1, seats + 1)]
        peak = max(range(seats), key=lambda i: (values[i], -i))
        assert peak + 1 == (seats + 1 + 1) // 2
        assert values[0] == values[-1] == F(1, 2)


# ---------------------------------------------------------------------------
# Closed forms on branches the grids and spot values do not reach.  Each
# expected value is the handler's cited closed form; where a catalog
# witness attains it, the witness is replayed too.


def _replays(token, label, scenario, ell, seats, value):
    method = MethodId.parse(label)
    witness = construct_witness(token, method, scenario, ell, seats)
    return witness.claimed_fraction == value and verify_witness(witness,
                                                                method)


@pytest.mark.parametrize("seats", range(1, 6))
def test_divisor_zero_first_seat_guarantee(seats):
    method = MethodId("div", 0)
    one = threshold(method, ScenarioId.PARTY, 1, seats)
    assert (one.status, one.lo, one.hi) == ("unknown", F(1, seats + 1), 1)
    for ell in range(2, seats + 1):
        entry = threshold(method, ScenarioId.PARTY, ell, seats)
        assert entry.is_exact and entry.value == 1
    # S + 1 equal parties outnumber the seats, and divisor 0 refuses to
    # apportion them: why the one-seat value stays open.
    witness = construct_witness("symmetric-parties", method,
                                ScenarioId.PARTY, 1, seats)
    with pytest.raises(AdamsIllDefined):
        verify_witness(witness, method)


@pytest.mark.parametrize("seats", range(1, 6))
def test_weak_sequential_addition(seats):
    label = "thiele-add:weak"
    method = MethodId.parse(label)
    for ell in range(1, seats + 1):
        tactic = threshold(method, ScenarioId.TACTIC, ell, seats)
        # At ell = 1, as for sntv, the equal split is attained.
        assert tactic.is_exact and tactic.kind == ("pi" if ell == 1
                                                   else "pihat")
        assert tactic.value == F(ell, seats + 1)
        if ell == 1:
            assert _replays("addition-lp-vertex", label, "tactic", ell,
                            seats, tactic.value)
        for scenario in ("same", "pjr", "ejr"):
            entry = threshold(method, ScenarioId(scenario), ell, seats)
            value = F(1, seats + 1) if ell == 1 else F(1)
            assert entry.is_exact and entry.kind == "pi"
            assert entry.value == value
            if ell == 1:
                assert _replays("symmetric-parties", label, scenario, ell,
                                seats, value)


@pytest.mark.parametrize("label, ell, seats, status, value", [
    ("thiele-opt:weak", 2, 3, "exact", F(1)),
    ("thiele-opt:weak", 4, 4, "exact", F(1)),
    # w_3 = 0: a third list seat is worth nothing, so W is saturated.
    ("thiele-opt:explicit(1,1/2;tail=0)", 3, 4, "exact", F(1)),
    # w_ell > 0: only the floor 1/(w_ell (S + 1 - ell) + 1) is proved.
    ("thiele-opt:explicit(1,1/2;tail=0)", 2, 3, "lower_bound", F(1, 2)),
    ("thiele-opt:explicit(1,1/2;tail=1/4)", 3, 3, "lower_bound", F(4, 5)),
    ("thiele-opt:explicit(1,1/2;tail=1/4)", 3, 4, "lower_bound", F(2, 3)),
])
def test_non_harmonic_optimization(label, ell, seats, status, value):
    method = MethodId.parse(label)
    for scenario in ("same", "pjr", "ejr"):
        entry = threshold(method, ScenarioId(scenario), ell, seats)
        assert (entry.status, entry.value) == (status, value)
        if status == "lower_bound":
            assert (entry.lo, entry.hi) == (value, 1)
        assert _replays("weight-floor", label, scenario, ell, seats, value)


@pytest.mark.parametrize("seats", range(1, 6))
def test_single_vote_limit_party(seats):
    method = MethodId("lv", 1)
    entry = threshold(method, ScenarioId.PARTY, 1, seats)
    assert entry.is_exact and entry.value == F(1, seats + 1)
    assert _replays("symmetric-parties", "lv:1", "party", 1, seats,
                    F(1, seats + 1))
    for ell in range(2, seats + 1):
        entry = threshold(method, ScenarioId.PARTY, ell, seats)
        assert (entry.status, entry.source) == ("unknown", "no-result")


# ---------------------------------------------------------------------------
# Generic bounds and criteria


def test_generic_bounds_single_seat_floor():
    bounds = generic_bounds(1, 4)
    values = [b.value for b in bounds if b.value is not None]
    assert F(1, 5) in values


def test_generic_bounds_divisible_blocks():
    values = [b.value for b in generic_bounds(2, 3) if b.value is not None]
    assert F(1, 2) in values


def test_generic_bounds_majority_floor():
    values = [b.value for b in generic_bounds(3, 4) if b.value is not None]
    assert F(1, 2) in values


def test_generic_bounds_state_each_fact_once():
    for seats in range(1, 11):
        for ell in range(1, seats + 1):
            bounds = generic_bounds(ell, seats)
            names = [b.name for b in bounds]
            values = [b.value for b in bounds if b.value is not None]
            assert len(set(names)) == len(names), (ell, seats)
            assert len(set(values)) == len(values), (ell, seats)
            # closure is listed once per pair, on the smaller side
            assert all(b.partner is None or b.partner > ell
                       for b in bounds), (ell, seats)


CRITERION_GOLDEN = [
    ("bv", "JR", 3, False),
    ("av", "EJR", 5, False),
    ("lv:2", "PJR", 3, False),
    ("cvq", "JR", 3, False),
    ("sntv", "JR", 5, True),
    ("phragmen-u", "JR", 5, True),
    ("phragmen-u", "PJR", 5, True),
    ("phragmen-u", "EJR", 5, None),
    ("thiele-opt", "EJR", 5, True),
    ("thiele-add", "JR", 5, True),
    ("thiele-add", "PJR", 5, None),
    ("thiele-elim", "JR", 5, False),
    ("stv:1", "DPC", 5, True),
    ("stv:1", "PSC-strong", 5, True),
    ("stv:0", "DPC", 5, False),
    ("phragmen-o", "wPSC-floor", 5, True),
    ("phragmen-o", "PSC-strong", 5, False),
    ("thiele-o", "wPSC-floor", 5, False),
    ("borda", "wPSC-floor", 5, False),
]


@pytest.mark.parametrize("label, criterion, seats, verdict", CRITERION_GOLDEN)
def test_criterion_verdicts(label, criterion, seats, verdict):
    assert criterion_check(MethodId.parse(label), criterion, seats) is verdict


def test_criterion_validation():
    with pytest.raises(ValueError):
        criterion_check(MethodId("bv"), "XYZ", 3)
    with pytest.raises(ValueError):
        criterion_check(MethodId("bv"), "JR", 0)


def test_single_seat_criteria_trivially_hold():
    assert criterion_check(MethodId("bv"), "JR", 1) is True
    for criterion in ("PJR", "EJR", "PSC-strong", "wPSC-floor"):
        assert criterion_check(MethodId("bv"), criterion, 1) is True
        assert criterion_check(MethodId("thiele-o"), criterion, 1) is True


def test_criterion_at_the_exact_threshold_follows_its_side():
    # bv's one-seat pjr threshold at S = 2 is 1/2, exactly JR's bar; it
    # is attained (no minus side), so JR fails.
    assert threshold(MethodId("bv"), ScenarioId.PJR, 1, 2).value == F(1, 2)
    assert criterion_check(MethodId("bv"), "JR", 2) is False
    minus = ThresholdValue(F(1, 2), "pi", "minus", "exact", "test")
    assert thresholds._compare(minus, F(1, 2), allow_equal=False) is True


def test_criterion_decided_by_an_upper_bound():
    # Beyond ALPHA_CAP the one-seat entry is an interval; here its hi,
    # 9/73, is below JR's bar 1/8.
    method = MethodId.parse("thiele-add:explicit(1,1/8;tail=0)")
    entry = threshold(method, ScenarioId.PJR, 1, 8)
    assert (entry.status, entry.lo, entry.hi) == (INTERVAL, F(1, 9), F(9, 73))
    assert criterion_check(method, "JR", 8) is True
    # A lo above the bar decides the other way.
    entry = threshold(MethodId("thiele-elim"), ScenarioId.PJR, 1, 5)
    assert (entry.is_exact, entry.lo) == (False, F(2, 9))
    assert criterion_check(MethodId("thiele-elim"), "JR", 5) is False


@pytest.mark.parametrize("label", ["thiele-opt:constant",
                                   "thiele-opt:explicit(1,1;tail=0)"])
def test_optimization_tactic_needs_subharmonic_weights(label):
    for ell in (1, 2):
        entry = threshold(MethodId.parse(label), ScenarioId.TACTIC, ell, 3)
        assert (entry.status, entry.source) == ("unknown", "no-result")


@pytest.mark.parametrize("label", ["thiele-add:weak",
                                   "thiele-add:explicit(1,1/2;tail=1/4)"])
def test_non_harmonic_addition_has_no_party_value(label):
    entry = threshold(MethodId.parse(label), ScenarioId.PARTY, 1, 3)
    assert (entry.status, entry.source) == ("unknown", "no-result")


@pytest.mark.parametrize("scenario", ["same", "pjr"])
def test_non_harmonic_addition_list_values(scenario):
    method = MethodId.parse("thiele-add:explicit(1,1/2;tail=1/4)")
    # Beyond ALPHA_CAP (order S + 1 - ell = 8) only the generic bounds.
    entry = threshold(method, scenario, 2, 9)
    assert (entry.status, entry.source) == ("unknown",
                                            "sequential-mass-bounds")
    assert (entry.lo, entry.hi) == (F(1, 5), 1)
    # A proved lower bound from the vote-mass program.
    for seats, value in ((3, F(1, 2)), (4, F(3, 7))):
        entry = threshold(method, scenario, 2, seats)
        assert (entry.status, entry.value) == ("lower_bound", value)
        assert (entry.lo, entry.hi) == (value, 1)
    # w_3 = 0: a third list seat is worth nothing, so W is saturated.
    saturated = MethodId.parse("thiele-add:explicit(1,1/2;tail=0)")
    for seats in (4, 5):
        entry = threshold(saturated, scenario, 3, seats)
        assert entry.is_exact and entry.value == 1
        assert entry.source == "single-bonus-saturation"
