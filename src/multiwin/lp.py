"""Exact rational linear programming by two-phase simplex.

Minimizes c.x subject to linear constraints (>=, <=, =) and x >= 0.  The
tableau is fraction-free: every row is a list of Python ints that stands
for the exact rational row divided by one positive row denominator, and
that denominator is the row's own entry in its basic column (the basic
variable's coefficient is 1).  A pivot updates each row by integer
cross-multiplication and then divides the row by the gcd of its entries
(Bareiss, Math. Comp. 1968; Applegate, Cook, Dash and Espinoza, Oper.
Res. Lett. 2007), so no Fraction arithmetic runs inside the loop.  The
reduced-cost row is the tableau's last row.  It is built once per phase
and eliminated with the other rows; only its signs are read, so it is
kept up to a positive factor.

Bland's anti-cycling rule picks every pivot, because the programs this
package builds are highly degenerate (many optima); it guarantees
termination without perturbation.  The entering column is the lowest
index with a negative reduced cost.  The ratio test compares rhs_i * a_k
with rhs_k * a_i, where the row denominators cancel, and a tie goes to
the row with the lowest basic variable.  These are exactly the choices a
Fraction tableau makes, so the pivot path and the returned vertex are
the same.  The vertex is a certificate that can be re-substituted into
every constraint exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import format_rational

RELATIONS = (">=", "<=", "=")


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    objective: tuple
    constraints: tuple   # of (coeffs tuple, relation, rhs)

    def __init__(self, num_vars: int, objective: Sequence, constraints):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        objective = tuple(Fraction(c) for c in objective)
        if len(objective) != num_vars:
            raise ValueError("objective length mismatch")
        rows = []
        for coeffs, rel, rhs in constraints:
            coeffs = tuple(Fraction(c) for c in coeffs)
            if len(coeffs) != num_vars:
                raise ValueError("constraint length mismatch")
            if rel not in RELATIONS:
                raise ValueError("bad relation %r" % rel)
            rows.append((coeffs, rel, Fraction(rhs)))
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", tuple(rows))


@dataclass(frozen=True)
class LpOutcome:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    point: Optional[tuple] = None
    # Pivots made in phase 1 (artificial drive-out included) and phase 2.
    pivots: tuple = field(default=(0, 0), compare=False)


def solve(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of the program, with a vertex certificate."""
    n = lp.num_vars
    # Build equality-form rows with rhs >= 0.
    rows = []                        # (coeffs over structural vars, rel, rhs)
    for coeffs, rel, rhs in lp.constraints:
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {">=": "<=", "<=": ">=", "=": "="}[rel]
        rows.append((coeffs, rel, rhs))

    m = len(rows)
    slack_count = sum(1 for _, rel, _ in rows if rel != "=")
    total = n + slack_count + m      # structural + slack/surplus + artificial
    tableau = []
    basis = []
    slack_at = n
    art_at = n + slack_count
    for i, (coeffs, rel, rhs) in enumerate(rows):
        row = list(coeffs) + [0] * (slack_count + m) + [rhs]
        if rel != "=":
            row[slack_at] = 1 if rel == "<=" else -1
            slack_at += 1
        row[art_at + i] = 1
        tableau.append(_integer_row(row))
        basis.append(art_at + i)

    # Phase 1: minimize the sum of artificials.
    tableau.append(_objective_row(tableau, basis, [0] * art_at + [1] * m))
    status, phase1 = _simplex(tableau, basis, total)
    if status != "optimal":          # phase 1 is always bounded below by 0
        raise RuntimeError("phase 1 reported %s" % status)
    if tableau.pop()[-1] != 0:
        return LpOutcome("infeasible", pivots=(phase1, 0))

    # Drive any remaining artificial variables out of the basis.
    for i in range(len(basis) - 1, -1, -1):
        if basis[i] < art_at:
            continue
        pivot_col = next((j for j in range(art_at)
                          if tableau[i][j] != 0), None)
        if pivot_col is None:
            del tableau[i]
            del basis[i]
        else:
            _pivot(tableau, basis, i, pivot_col)
            phase1 += 1

    # Phase 2 on the structural objective.  Artificial columns never
    # enter again, so they are dropped.
    tableau = [row[:art_at] + row[-1:] for row in tableau]
    cost = lp.objective + (0,) * (art_at - n)
    tableau.append(_objective_row(tableau, basis, cost))
    status, phase2 = _simplex(tableau, basis, art_at)
    pivots = (phase1, phase2)
    if status == "unbounded":
        return LpOutcome("unbounded", pivots=pivots)
    point = [Fraction(0)] * n
    for row, var in zip(tableau, basis):
        if var < n:
            point[var] = Fraction(row[-1], row[var])
    value = sum((c * x for c, x in zip(lp.objective, point)), Fraction(0))
    return LpOutcome("optimal", value, tuple(point), pivots)


def _reduced(row):
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(values):
    """Integers proportional to the rational values, by a positive factor."""
    lcm = math.lcm(*(v.denominator for v in values))
    return _reduced([v.numerator * (lcm // v.denominator) for v in values])


def _objective_row(tableau, basis, cost):
    """Reduced costs c_j - c_B B^-1 A_j, then -c_B B^-1 b, as integers."""
    reduced = list(cost) + [0]
    for row, var in zip(tableau, basis):
        if cost[var] != 0:
            factor = Fraction(cost[var]) / row[var]
            reduced = [r - factor * x if x else r
                       for r, x in zip(reduced, row)]
    return _integer_row(reduced)


def _simplex(tableau, basis, width):
    """Bland's rule on the constraint rows; the last row is the objective.

    Columns >= width never enter.  Returns the status and the pivot count.
    """
    pivots = 0
    while True:
        reduced = tableau[-1]
        entering = next((j for j in range(width) if reduced[j] < 0), None)
        if entering is None:
            return "optimal", pivots
        pivot_row = None
        for i in range(len(basis)):
            row = tableau[i]
            a = row[entering]
            if a <= 0:
                continue
            if pivot_row is not None:
                lhs, rhs = row[-1] * best_a, best_rhs * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[pivot_row]):
                    continue
            pivot_row, best_rhs, best_a = i, row[-1], a
        if pivot_row is None:
            return "unbounded", pivots
        _pivot(tableau, basis, pivot_row, entering)
        pivots += 1


def _pivot(tableau, basis, pivot_row, pivot_col):
    """Make pivot_col basic in pivot_row and clear it from every other row.

    The pivot row keeps its integers, negated if its pivot entry p is
    negative, and p becomes its denominator.  Every other row, the
    objective row included, becomes p * row - a * pivot_row, with a its
    entry in pivot_col: the rational update scaled by p times the row's
    old denominator, both positive.
    """
    row = tableau[pivot_row]
    p = row[pivot_col]
    if p < 0:
        row = [-x for x in row]
        p = -p
        tableau[pivot_row] = row
    for i, other in enumerate(tableau):
        a = other[pivot_col]
        if a != 0 and i != pivot_row:
            tableau[i] = _reduced([p * x - a * y for x, y in zip(other, row)])
    basis[pivot_row] = pivot_col


def check_solution(lp: LinearProgram, point: Optional[Sequence]) -> bool:
    """Exact re-substitution of a point into every constraint and bound.

    A missing point, as an infeasible or unbounded outcome carries, fails.
    """
    if point is None:
        return False
    point = [Fraction(x) for x in point]
    if len(point) != lp.num_vars or any(x < 0 for x in point):
        return False
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum((c * x for c, x in zip(coeffs, point)), Fraction(0))
        if rel == ">=" and lhs < rhs:
            return False
        if rel == "<=" and lhs > rhs:
            return False
        if rel == "=" and lhs != rhs:
            return False
    return True


def dual_program(lp: LinearProgram) -> LinearProgram:
    """Dual of a pure >=-form program (min c.x, Ax >= b, x >= 0).

    The dual is max b.y subject to A^T y <= c, y >= 0; it is returned as
    a minimization of -b.y, so the dual optimum is the negation of the
    returned program's optimum.
    """
    if any(rel != ">=" for _, rel, _ in lp.constraints):
        raise ValueError("dual_program expects all constraints in >= form")
    m = len(lp.constraints)
    objective = [-rhs for _, _, rhs in lp.constraints]
    constraints = []
    for j in range(lp.num_vars):
        col = tuple(coeffs[j] for coeffs, _, _ in lp.constraints)
        constraints.append((col, "<=", lp.objective[j]))
    return LinearProgram(m, objective, constraints)


def format_lp(lp: LinearProgram) -> str:
    """Plain-text dump: objective line then one constraint per line, the
    variables named x1, x2, ..."""

    def term_list(coeffs):
        terms = ["%s x%d" % (format_rational(c), j + 1)
                 for j, c in enumerate(coeffs) if c != 0]
        return " + ".join(terms) if terms else "0"

    lines = ["minimize: %s" % term_list(lp.objective)]
    for coeffs, rel, rhs in lp.constraints:
        lines.append("%s %s %s" % (term_list(coeffs), rel, format_rational(rhs)))
    return "\n".join(lines) + "\n"
