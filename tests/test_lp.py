"""Exact simplex: optima, certificates, duality, degenerate programs."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from multiwin.ballots import WeightScheme
from multiwin.lp import (RELATIONS, LinearProgram, check_solution,
                         dual_program, format_lp, solve)
from multiwin.sequences import build_alpha_lp


def test_simple_minimum():
    # min x + y s.t. x + 2y >= 4, 3x + y >= 3
    lp = LinearProgram(2, [1, 1], [([1, 2], ">=", 4), ([3, 1], ">=", 3)])
    out = solve(lp)
    assert out.status == "optimal"
    assert out.value == Fraction(11, 5)
    assert check_solution(lp, out.point)


def test_equality_constraint():
    lp = LinearProgram(2, [2, 3], [([1, 1], "=", 5), ([1, 0], "<=", 3)])
    out = solve(lp)
    assert out.value == 2 * 3 + 3 * 2
    assert check_solution(lp, out.point)


def test_infeasible():
    lp = LinearProgram(1, [1], [([1], ">=", 2), ([1], "<=", 1)])
    assert solve(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(1, [-1], [([1], ">=", 0)])
    assert solve(lp).status == "unbounded"


def test_check_solution_of_missing_point():
    for lp in (LinearProgram(1, [1], [([1], ">=", 2), ([1], "<=", 1)]),
               LinearProgram(1, [-1], [([1], ">=", 0)])):
        out = solve(lp)
        assert out.point is None
        assert check_solution(lp, out.point) is False


def test_degenerate_many_ties_terminates():
    # Highly degenerate: every vertex of the simplex is optimal.
    n = 6
    rows = [([1] * n, ">=", 1)]
    rows += [([1 if j == i else 0 for j in range(n)], "<=", 1)
             for i in range(n)]
    lp = LinearProgram(n, [1] * n, rows)
    out = solve(lp)
    assert out.value == 1
    assert check_solution(lp, out.point)


def test_certificate_satisfies_all_constraints_exactly():
    lp = LinearProgram(3, [5, 4, 3],
                       [([2, 3, 1], ">=", 5), ([4, 1, 2], ">=", 11),
                        ([3, 4, 2], ">=", 8)])
    out = solve(lp)
    assert out.status == "optimal"
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum(c * x for c, x in zip(coeffs, out.point))
        assert lhs >= rhs


def test_check_solution_rejects_violations():
    lp = LinearProgram(2, [1, 1], [([1, 1], ">=", 2)])
    assert not check_solution(lp, (Fraction(1, 2), Fraction(1, 2)))
    assert check_solution(lp, (1, 1))
    assert not check_solution(lp, (2,))                 # wrong length
    assert not check_solution(lp, (3, -1))              # negative entry
    capped = LinearProgram(2, [1, 1], [([1, 1], "<=", 2)])
    assert check_solution(capped, (1, 1))
    assert not check_solution(capped, (2, 1))
    fixed = LinearProgram(2, [1, 1], [([1, 2], "=", 3)])
    assert check_solution(fixed, (1, 1))
    assert not check_solution(fixed, (3, 1))


def test_strong_duality_exact():
    lp = LinearProgram(2, [3, 2], [([2, 1], ">=", 4), ([1, 3], ">=", 6)])
    primal = solve(lp)
    dual = solve(dual_program(lp))
    assert primal.status == dual.status == "optimal"
    # The dual is emitted as a minimization of -b.y.
    assert primal.value == -dual.value


def test_strong_duality_random_feasible_programs():
    import random
    rng = random.Random(20260824)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [([Fraction(rng.randint(0, 4)) for _ in range(n)], ">=",
                 Fraction(rng.randint(0, 5))) for _ in range(m)]
        lp = LinearProgram(n, [Fraction(rng.randint(1, 5)) for _ in range(n)],
                           rows)
        primal = solve(lp)
        dual = solve(dual_program(lp))
        if primal.status == "optimal":
            assert dual.status == "optimal"
            assert primal.value == -dual.value
        elif primal.status == "unbounded":
            assert dual.status == "infeasible"


def test_rational_data_stays_rational():
    lp = LinearProgram(2, [Fraction(1, 3), Fraction(1, 7)],
                       [([Fraction(2, 5), 1], ">=", Fraction(9, 11))])
    out = solve(lp)
    assert isinstance(out.value, Fraction)
    assert all(isinstance(x, Fraction) for x in out.point)


def test_format_lp_is_parseable_text():
    lp = LinearProgram(2, [1, 1], [([1, -1], ">=", 0), ([1, 1], ">=", 1)])
    text = format_lp(lp)
    assert "minimize" in text
    assert ">=" in text


def test_constraint_validation():
    with pytest.raises(ValueError, match="at least one variable"):
        LinearProgram(0, [], [])
    with pytest.raises(ValueError, match=">= form"):
        dual_program(LinearProgram(1, [1], [([1], "<=", 2)]))
    with pytest.raises(ValueError):
        LinearProgram(2, [1], [])
    with pytest.raises(ValueError):
        LinearProgram(1, [1], [([1, 2], ">=", 0)])
    with pytest.raises(ValueError):
        LinearProgram(1, [1], [([1], ">", 0)])


def _mixed_program(rng):
    """A small random program and a point known to satisfy it, or None.

    Rows mix the three relations (or are all >=, so the dual applies),
    coefficients carry unlike denominators, and right-hand sides take
    either sign.  Some programs restate an equality at a rational
    multiple, a redundant row the artificial drive-out must delete; some
    add a contradictory pair of rows and have no feasible point.
    """
    def rational():
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 5, 7)))

    n = rng.randint(1, 4)
    relations = rng.choice(((">=",), RELATIONS))
    x0 = [Fraction(rng.randint(0, 3), rng.choice((1, 2, 3))) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = [rational() for _ in range(n)]
        lhs = sum(c * x for c, x in zip(coeffs, x0))
        rel = rng.choice(relations)
        gap = Fraction(rng.randint(0, 2), rng.choice((1, 2)))
        rows.append((coeffs, rel, {">=": lhs - gap, "<=": lhs + gap,
                                   "=": lhs}[rel]))
    equalities = [row for row in rows if row[1] == "="]
    if equalities and rng.random() < 0.5:
        coeffs, _, rhs = rng.choice(equalities)
        k = rational() or Fraction(1, 2)
        rows.insert(rng.randint(0, len(rows)),
                    ([k * c for c in coeffs], "=", k * rhs))
    if rng.random() < 0.2:
        coeffs, t = [rational() for _ in range(n)], rational()
        rows += [(coeffs, ">=", t), ([-c for c in coeffs], ">=", 1 - t)]
        x0 = None
    return LinearProgram(n, [rational() for _ in range(n)], rows), x0


def test_random_mixed_programs():
    rng = random.Random(20261018)
    seen = Counter()
    records = []
    for _ in range(300):
        lp, x0 = _mixed_program(rng)
        out = solve(lp)
        records.append(_outcome_record(out))
        seen[out.status] += 1
        seen["negative rhs"] += any(rhs < 0 for _, _, rhs in lp.constraints)
        if x0 is None:
            assert out.status == "infeasible"
        else:
            assert out.status != "infeasible"
        if out.status == "optimal":
            assert check_solution(lp, out.point)
            assert out.value == sum(c * x for c, x in
                                    zip(lp.objective, out.point))
            if x0 is not None:
                assert out.value <= sum(c * x for c, x in
                                        zip(lp.objective, x0))
        else:
            assert not check_solution(lp, out.point)
        if all(rel == ">=" for _, rel, _ in lp.constraints):
            seen[">= form " + out.status] += 1
            dual_lp = dual_program(lp)
            dual = solve(dual_lp)
            records.append("dual " + _outcome_record(dual))
            if out.status == "optimal":
                assert check_solution(dual_lp, dual.point)
                assert out.value == -dual.value
            elif out.status == "unbounded":
                assert dual.status == "infeasible"
            else:
                assert dual.status in ("infeasible", "unbounded")
    for case in ("optimal", "infeasible", "unbounded", "negative rhs",
                 ">= form optimal", ">= form infeasible",
                 ">= form unbounded"):
        assert seen[case] >= 10, (case, seen)
    # Bland's path beyond the alpha programs: status, value, vertex and
    # pivots of every program and dual above, recorded with the full
    # tableau the multiplier rows replaced.  These reach infeasible and
    # unbounded ends, negative rhs, = rows and the artificial drive-out.
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert (len(records), digest) == (
        477, "095f8ddeeab694e70dd2a9a470d6178d0dd3128f070eddfc26430537fe774cb8")


def _full_check(lp, point):
    """check_solution written out in full: every coefficient of every row
    times every entry of the point."""
    if point is None:
        return False
    point = [Fraction(x) for x in point]
    if len(point) != lp.num_vars or any(x < 0 for x in point):
        return False
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum((c * x for c, x in zip(coeffs, point)), Fraction(0))
        if not {">=": lhs >= rhs, "<=": lhs <= rhs, "=": lhs == rhs}[rel]:
            return False
    return True


def test_check_solution_agrees_with_full_resubstitution():
    # The programs and duals of test_random_mixed_programs, each checked
    # at its own vertex, at the known point, at 0, at random sparse
    # points, with a negative entry, at the wrong length and at None.
    rng, pick = random.Random(20261018), random.Random(20261020)
    seen = Counter()
    for _ in range(300):
        lp, x0 = _mixed_program(rng)
        programs = [(lp, x0)]
        if all(rel == ">=" for _, rel, _ in lp.constraints):
            programs.append((dual_program(lp), None))
        for program, known in programs:
            n = program.num_vars
            sparse = [[Fraction(pick.randint(0, 3), pick.choice((1, 2, 3)))
                       for _ in range(n)] for _ in range(3)]
            negative = list(sparse[0])
            negative[pick.randrange(n)] = Fraction(-1, 2)
            for point in (solve(program).point, known, [0] * n, *sparse,
                          negative, sparse[1] + [1], sparse[2][:-1], None):
                verdict = check_solution(program, point)
                assert verdict == _full_check(program, point), (program, point)
                seen[verdict] += 1
    assert (seen[True], seen[False]) == (1004, 3766)


class _Exact(Fraction):
    """A Fraction subclass, which LinearProgram converts."""


def test_linear_program_stores_plain_fractions():
    values = (Fraction(1), Fraction(1, 2), Fraction(-3), Fraction(0))
    spellings = (values, [str(v) for v in values],
                 [_Exact(v) for v in values],
                 [int(v) if v.denominator == 1 else v for v in values])
    programs = [LinearProgram(2, (a, b), [((c, d), ">=", b), ((a, c), "=", d),
                                         ((b, b), "<=", a)])
                for a, b, c, d in spellings]
    assert all(program == programs[0] for program in programs)
    for program in programs:
        stored = list(program.objective)
        for coeffs, _, rhs in program.constraints:
            stored += [*coeffs, rhs]
        assert all(type(c) is Fraction for c in stored)
    # A Fraction given is kept, not copied.
    assert programs[0].objective[1] is values[1]


def _outcome_record(out):
    point = "-" if out.point is None else ",".join(map(str, out.point))
    return "%s %s %s %d,%d" % (out.status, out.value, point, *out.pivots)


def test_programs_without_rows():
    # No rows, a 0 = 0 row deleted by the drive-out, and a 0 >= 0 row
    # whose surplus column is driven into the basis.
    for lp, expected in (
            (LinearProgram(1, [1], []), ("optimal", 0, (0, 0))),
            (LinearProgram(2, [1, -1], []), ("unbounded", None, (0, 0))),
            (LinearProgram(1, [1], [([0], "=", 0)]), ("optimal", 0, (0, 0))),
            (LinearProgram(2, [1, -1], [([0, 0], ">=", 0)]),
             ("unbounded", None, (1, 0)))):
        out = solve(lp)
        assert (out.status, out.value, out.pivots) == expected


def test_redundant_equality_row_is_deleted():
    # In each program one = row restates another at another scale, so its
    # artificial stays basic at 0 after phase 1 and the drive-out deletes
    # its row; in the second, phase 2 then pivots on the three rows left.
    for lp, value, point, pivots in (
            (LinearProgram(2, [1, 2],
                           [([1, 1], "=", 2),
                            ([Fraction(3, 2), Fraction(3, 2)], "=", 3),
                            ([1, Fraction(-1, 3)], "<=", 1)]),
             Fraction(11, 4), (Fraction(5, 4), Fraction(3, 4)), (2, 0)),
            (LinearProgram(3, [-1, 0, 1],
                           [([1, -1, 0], "=", 0), ([0, 1, -1], ">=", 0),
                            ([Fraction(1, 2), Fraction(-1, 2), 0], "=", 0),
                            ([1, 1, 1], "<=", 3)]),
             Fraction(-3, 2), (Fraction(3, 2), Fraction(3, 2), 0), (3, 1))):
        out = solve(lp)
        assert check_solution(lp, out.point)
        assert (out.value, out.point, out.pivots) == (value, point, pivots)


def test_sparse_column_edge_cases():
    # The solver keeps each column by its nonzeros.  Recorded with the
    # dense columns: (status, value, point, pivots) of
    # - x1 and x4 with one nonzero each (x4's negative), x3 with one
    #   beside a fraction;
    # - an all-zero x2 with negative cost (unbounded), zero cost and
    #   positive cost (x2 stays 0);
    # - a single-nonzero x3 in a row after, and then before, the
    #   redundant = row the drive-out deletes.  The supports index the
    #   starting rows, which the deletion does not renumber; in both,
    #   phase 2 pivots x3 in.
    half = Fraction(1, 2)
    for lp, expected in (
            (LinearProgram(4, [1, 3, 1, 1],
                           [([1, 1, 0, 0], ">=", 2), ([0, 1, 1, -1], ">=", 3),
                            ([0, 0, half, 0], "<=", 4)]),
             ("optimal", 5, (2, 0, 3, 0), (5, 2))),
            (LinearProgram(2, [1, -1], [([1, 0], ">=", 1)]),
             ("unbounded", None, None, (1, 0))),
            (LinearProgram(2, [1, 0], [([1, 0], ">=", 1)]),
             ("optimal", 1, (1, 0), (1, 0))),
            (LinearProgram(2, [1, 2], [([1, 0], ">=", 1)]),
             ("optimal", 1, (1, 0), (1, 0))),
            (LinearProgram(3, [2, 1, -1],
                           [([1, 1, 0], "=", 2), ([3, 3, 0], "=", 6),
                            ([0, 1, half], "<=", 3)]),
             ("optimal", -2, (2, 0, 6), (3, 1))),
            (LinearProgram(3, [2, 1, -1],
                           [([1, 1, 0], "=", 2), ([0, 1, half], "<=", 3),
                            ([3, 3, 0], "=", 6)]),
             ("optimal", -2, (2, 0, 6), (3, 1)))):
        out = solve(lp)
        assert (out.status, out.value, out.point, out.pivots) == expected
        assert check_solution(lp, out.point) == (out.status == "optimal")


# Bland's path on the alpha_n programs, recorded with the Fraction tableau
# the integer rows replaced: for n = 1..7 the optimum, the pivots of phase
# 1 and phase 2, and the sha256 of the vertex written as "x1,x2,...".
ALPHA_PATHS = {
    "harmonic": (
        ("1", (1, 0),
         "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
        ("2", (3, 0),
         "fdcc75483f5e22c93d36a3051dbe0fee0671d3bf55936a099d5724cb3ec307b0"),
        ("8/3", (6, 1),
         "fb36b2fe27c0453483031f286d6b6d3846a6b1a41c5f09188184f4d9ededbb33"),
        ("24/7", (11, 3),
         "cc3b6b9b0834e1ece5f7ae981040d836dbd912707d19baf523902b9cfb363893"),
        ("180/43", (18, 8),
         "67fb730df9609db5b54f9ce88cd38eb1bc7c785f3d0f9cfa8b1d21de75b831c3"),
        ("3240/661", (26, 21),
         "dc81b9f4126e5a165a77da8fce48b5617e7ef6aa06f1c908d7f03830d4565fa4"),
        ("16500/2923", (35, 59),
         "c4c773e914cc0ec4658be5228ab62160d3075d247477d02c29cd8cdfc9d3035b"),
    ),
    "explicit(1,1/2,1/2;tail=1/3)": (
        ("1", (1, 0),
         "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
        ("2", (3, 0),
         "fdcc75483f5e22c93d36a3051dbe0fee0671d3bf55936a099d5724cb3ec307b0"),
        ("2", (6, 2),
         "3a104de2f0c3a70c20ccfcc6f13f7edfce18c6ab3728069959b11995cadcf22e"),
        ("8/3", (11, 7),
         "8ef687936489e49238a41c1b5db35ed14cbe5592b942616c7dd215a50e92a21b"),
        ("3", (18, 19),
         "72657f4cab889657d04561f2118350f6627dee54b94f38f6ebe9e0b8b73ceeda"),
        ("3", (26, 88),
         "be0925d89c5aca5024198e243f6ba5642f758c402aa8fe8751b08a702588babe"),
        ("3", (35, 422),
         "2b357ead38cc7766382f671200c785762cbd07cdfa40c548e286abf4583bed9a"),
    ),
    "explicit(1,1/3;tail=1/5)": (
        ("1", (1, 0),
         "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
        ("2", (3, 0),
         "fdcc75483f5e22c93d36a3051dbe0fee0671d3bf55936a099d5724cb3ec307b0"),
        ("3", (6, 0),
         "894b62a313a15834a2a5cda2dcb303efc5d4fd8871fb6b599dc068ab0f9fa975"),
        ("27/7", (11, 1),
         "1e4e06aeab442305d019ed2ff53644f16a20355089bf99194eb1c311ccb63132"),
        ("24/5", (18, 1),
         "402b5e8efac9cf25d7f9cc99e051f51b839d0c8940c874434071b7f2a86ad771"),
        ("5", (26, 43),
         "b96f0e97b0261083012b28a5f5cd5b36137009fab242f64e46da35a9c40a493c"),
        ("5", (35, 286),
         "a3f5b59f63b93dea795c0067f7b789b014b8c429c3d8e7e30caeff8fca94ee11"),
    ),
    "weak": (
        ("1", (1, 0),
         "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
        ("2", (3, 0),
         "fdcc75483f5e22c93d36a3051dbe0fee0671d3bf55936a099d5724cb3ec307b0"),
        ("3", (6, 0),
         "894b62a313a15834a2a5cda2dcb303efc5d4fd8871fb6b599dc068ab0f9fa975"),
        ("4", (11, 0),
         "e2816220198671a9029b2269b6cb129d619283158a374d6d1ac30f0e263ff26c"),
        ("5", (18, 0),
         "1f0b1cc9d4a0e251759e5ba4179d35674b46c0952dc6cfe233b3383dc77c487f"),
        ("6", (26, 0),
         "7624e1d474fc730dd7c109c56b182f43bcf9f51606c9d36b7e5b115f8af8145b"),
        ("7", (35, 0),
         "379152b4154eb8aa967096ea1ea9a1f7d01535f5179e46f01e7c491295979b55"),
    ),
    "constant": (
        ("1", (1, 0),
         "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
        ("1", (3, 1),
         "d7d89f8004eac51a32627458843cc54c569793313caab5beff91cb8779fd17c4"),
        ("1", (6, 4),
         "ea8105df771802e9b72c3db834ec89ce2ce970ed06d391dc5152490cc6e9446d"),
        ("1", (11, 11),
         "7021ef823796d4631f4477bb95ed139e291252accb298a0a86a96a3044ada1ec"),
        ("1", (18, 25),
         "de8448cc8ac635806b56cbd1ca9450e5be80f131d2f31aef74bb16132dabcc12"),
        ("1", (24, 59),
         "7481ec0dac07f3c1ada19910e2c81e5d5324b9807c1b5876bf872510f2cc56bb"),
        ("1", (34, 123),
         "d6d08b6c79e41bd959922a95c63022c42820c0e0795345178b79457e90e4030c"),
    ),
}
SCHEMES = {scheme.label(): scheme for scheme in (
    WeightScheme.harmonic(), WeightScheme.weak(), WeightScheme.constant(),
    WeightScheme.explicit([1, Fraction(1, 2), Fraction(1, 2)], Fraction(1, 3)),
    WeightScheme.explicit([1, Fraction(1, 3)], Fraction(1, 5)))}


def test_alpha_programs_are_pinned():
    # format_lp of every program test_alpha_bland_path solves (the five
    # schemes by label, n = 1..7): the programs themselves, not only
    # their optima and pivot paths.
    text = "".join(format_lp(build_alpha_lp(n, SCHEMES[label]))
                   for label in sorted(SCHEMES) for n in range(1, 8))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "216684e65732a80e2018b7be5204661e166d6308180572c2f4796af16b114312")


@pytest.mark.parametrize("label", sorted(ALPHA_PATHS))
def test_alpha_bland_path(label):
    for n, expected in enumerate(ALPHA_PATHS[label], start=1):
        out = solve(build_alpha_lp(n, SCHEMES[label]))
        text = ",".join(str(x) for x in out.point)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert (str(out.value), out.pivots, digest) == expected, n
