"""Exact rational linear programming by two-phase revised simplex.

Minimizes c.x subject to linear constraints (>=, <=, =) and x >= 0.  The
starting rows, with their slack and artificial columns, are scaled to
integers once and stored by column as A, each column by its nonzeros
only (a slack or artificial column has one); A never changes.  Tableau
row i is R_i A, and the solver stores only R_i: one integer multiplier
per starting row (its starting artificial block), followed by the row's
rhs R_i b.  The reduced-cost row is kept as a positive scale f and a
multiplier row y, so that reduced cost j is f c_j + y A_j.  A pivot with
pivot entry p updates every row with a nonzero entry a in the entering
column to (p/h) R_i - (a/h) R_pivot, h = gcd(p, a), and divides it by the
gcd of its entries (Bareiss, Math. Comp. 1968; Applegate, Cook, Dash and
Espinoza, Oper. Res. Lett. 2007).  Dividing by h first gives the same
row, from smaller products, and often leaves no gcd to divide out.  A
pivot so costs 2(m + 1) integer products per row it updates, the
reduced-cost row included (at most m + 1 rows), plus a division pass for
each row whose gcd exceeds 1; no Fraction arithmetic runs inside the
loop (revised simplex: Dantzig and Orchard-Hays 1954).  Reduced costs,
the entering column and the basic entries are integer dot products with
A's columns, computed when read and only over the column's nonzeros:
nnz(A_j) products per reduced cost, m nnz(A_j) for the entering column.

Bland's anti-cycling rule picks every pivot, because the programs this
package builds are highly degenerate (many optima); it guarantees
termination without perturbation.  The entering column is the lowest
index with a negative reduced cost, and pricing stops there.  The ratio
test compares rhs_i * a_k with rhs_k * a_i, where the row scales cancel,
and a tie goes to the row with the lowest basic variable.  Every stored
row is the exact rational tableau row times a positive factor, and each
of these choices reads only signs and cross-multiplied ratios, so they
are exactly the choices a Fraction tableau makes: the pivot path and the
returned vertex are the same.  The vertex is a certificate that can be
re-substituted into every constraint exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import itemgetter, mul
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
        objective = tuple(map(_fraction, objective))
        if len(objective) != num_vars:
            raise ValueError("objective length mismatch")
        rows = []
        for coeffs, rel, rhs in constraints:
            coeffs = tuple(map(_fraction, coeffs))
            if len(coeffs) != num_vars:
                raise ValueError("constraint length mismatch")
            if rel not in RELATIONS:
                raise ValueError("bad relation %r" % rel)
            rows.append((coeffs, rel, _fraction(rhs)))
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", tuple(rows))


def _fraction(value) -> Fraction:
    """The value as a Fraction; a Fraction is immutable, so one is kept
    as it is, and anything else (a subclass included) is converted."""
    return value if type(value) is Fraction else Fraction(value)


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
    # Scale each row, with rhs >= 0, to integers: its structural
    # coefficients, its rhs and its artificial's coefficient k > 0; its
    # slack or surplus, if any, has coefficient k or -k.
    structural, rhs, slacks, artificials = [], [], [], []
    for i, (coeffs, rel, b) in enumerate(lp.constraints):
        if b < 0:
            coeffs = [-c for c in coeffs]
            b = -b
            rel = {">=": "<=", "<=": ">=", "=": "="}[rel]
        *coeffs, b, k = _integer_row([*coeffs, b, 1])
        structural.append(coeffs)
        rhs.append(b)
        if rel != "=":
            slacks.append(_single(i, k if rel == "<=" else -k))
        artificials.append(_single(i, k))
    m = len(rhs)
    art_at = n + len(slacks)         # the first artificial column
    # zip of no rows gives no columns, so n empty ones stand in.
    columns = [_support(column)
               for column in (zip(*structural) if m else [()] * n)]
    tableau = _Tableau(columns + slacks + artificials, rhs)

    # Phase 1: minimize the sum of artificials.
    status, phase1 = tableau.simplex([0] * art_at + [1] * m, art_at + m)
    if status != "optimal":          # phase 1 is always bounded below by 0
        raise RuntimeError("phase 1 reported %s" % status)
    if tableau.objective[-1] != 0:
        return LpOutcome("infeasible", pivots=(phase1, 0))

    # Drive any remaining artificial variables out of the basis.
    basis = tableau.basis
    for i in range(len(basis) - 1, -1, -1):
        if basis[i] < art_at:
            continue
        row = tableau.rows[i]
        pivot_col = next((j for j in range(art_at)
                          if tableau.entry(row, j) != 0), None)
        if pivot_col is None:
            del tableau.rows[i]
            del basis[i]
        else:
            tableau.pivot(i, pivot_col, tableau.column(pivot_col))
            phase1 += 1

    # Phase 2 on the structural objective.  Artificial columns never
    # enter again.
    cost = _integer_row(list(lp.objective) + [0] * len(slacks))
    status, phase2 = tableau.simplex(cost, art_at)
    pivots = (phase1, phase2)
    if status == "unbounded":
        return LpOutcome("unbounded", pivots=pivots)
    point = [Fraction(0)] * n
    for row, var in zip(tableau.rows, basis):
        if var < n:
            point[var] = Fraction(row[-1], tableau.entry(row, var))
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


def _support(column):
    """A column of A by its nonzeros: a getter that picks their rows'
    entries out of a multiplier row, and their values."""
    at = tuple(compress(range(len(column)), column))
    if len(at) == 1:
        return _single(at[0], column[at[0]])
    # itemgetter() raises, so an all-zero column picks an empty slice.
    return (itemgetter(*at) if at else itemgetter(slice(0)),
            tuple(filter(None, column)))


def _single(i, value):
    """A column with one nonzero, value in row i.  itemgetter(i) would
    give a scalar, so it picks the one-entry slice."""
    return itemgetter(slice(i, i + 1)), (value,)


class _Tableau:
    """Revised simplex state over the integer starting rows A.

    `columns[j]` is A_j by its nonzeros (see `_support`), and never
    changes.  Tableau row i is R_i A; `rows[i]` is its integer multiplier
    row R_i, one entry per starting row, followed by its rhs R_i b.  The
    reduced-cost row is scale * c + y A with scale > 0; `objective` is y
    followed by y b.  The basis starts at the artificials, the last m
    columns, with rhs b.
    """

    def __init__(self, columns, rhs):
        m = len(rhs)
        self.columns = columns
        self.rows = [[0] * i + [1] + [0] * (m - i - 1) + [b]
                     for i, b in enumerate(rhs)]
        self.basis = list(range(len(columns) - m, len(columns)))
        self.scale, self.objective = 1, [0] * (m + 1)

    def entry(self, row, col):
        """A multiplier row's tableau entry in a column: R_i . A_col."""
        at, values = self.columns[col]
        return sum(map(mul, at(row), values))

    def column(self, col):
        """The tableau's entries in a column, one per row."""
        at, values = self.columns[col]
        return [sum(map(mul, at(row), values)) for row in self.rows]

    def price(self, cost):
        """Set the reduced-cost row c_j - sum_i c_B(i) T_ij / T_iB(i) of
        the current basis, scaled by the lcm of the T_iB(i)."""
        costed = [(cost[var], row, self.entry(row, var))
                  for row, var in zip(self.rows, self.basis) if cost[var]]
        self.scale = math.lcm(*(d for _, _, d in costed))
        objective = [0] * len(self.objective)
        for c, row, d in costed:
            factor = c * (self.scale // d)
            objective = [y - factor * x for y, x in zip(objective, row)]
        self.objective = objective

    def simplex(self, cost, width):
        """Bland's rule on the reduced costs of cost; columns >= width
        never enter.  Returns the status and the pivot count."""
        self.price(cost)
        columns, rows, basis = self.columns, self.rows, self.basis
        pivots = 0
        while True:
            objective, scale, basic = self.objective, self.scale, set(basis)
            for entering in range(width):
                if entering in basic:
                    continue
                at, values = columns[entering]
                reduced = sum(map(mul, at(objective), values))
                if cost[entering]:
                    reduced += scale * cost[entering]
                if reduced < 0:
                    break
            else:
                return "optimal", pivots
            entries = self.column(entering)
            pivot_row = None
            for i, a in enumerate(entries):
                if a <= 0:
                    continue
                if pivot_row is not None:
                    lhs, rhs = rows[i][-1] * best_a, best_rhs * a
                    if lhs > rhs or (lhs == rhs and
                                     basis[i] > basis[pivot_row]):
                        continue
                pivot_row, best_rhs, best_a = i, rows[i][-1], a
            if pivot_row is None:
                return "unbounded", pivots
            self.pivot(pivot_row, entering, entries, reduced)
            pivots += 1

    def pivot(self, pivot_row, pivot_col, entries, reduced=0):
        """Make pivot_col basic in pivot_row, given the column's entries,
        and clear it from every other row; from the reduced-cost row too
        when `reduced` is its entry there.

        The pivot row keeps its multipliers, negated if its pivot entry p
        is negative.  Every other row becomes (p/h) R_i - (a/h) R_pivot,
        with a its entry in pivot_col and h = gcd(p, a), divided by the
        gcd of its entries: the rational update scaled by a positive
        factor, and the same row as p R_i - a R_pivot over its gcd.
        """
        rows = self.rows
        row = rows[pivot_row]
        p = entries[pivot_row]
        if p < 0:
            row = [-x for x in row]
            p = -p
            rows[pivot_row] = row
        for i, a in enumerate(entries):
            if a != 0 and i != pivot_row:
                h = math.gcd(p, a)
                q, a = p // h, a // h
                rows[i] = _reduced([q * x - a * y
                                    for x, y in zip(rows[i], row)])
        if reduced:
            h = math.gcd(p, reduced)
            q, reduced = p // h, reduced // h
            objective = [q * x - reduced * y
                         for x, y in zip(self.objective, row)]
            scale = q * self.scale
            g = math.gcd(scale, *objective)
            if g > 1:
                objective = [x // g for x in objective]
                scale //= g
            self.objective, self.scale = objective, scale
        self.basis[pivot_row] = pivot_col


def check_solution(lp: LinearProgram, point: Optional[Sequence]) -> bool:
    """Exact re-substitution of a point into every constraint and bound.

    A missing point, as an infeasible or unbounded outcome carries, fails.
    Each row is summed over the point's support, the (j, x_j) with
    x_j != 0, which is exact: the other terms are 0.  A vertex has no
    more nonzeros than the program has rows (20 of 127 at n = 7 for the
    harmonic alpha program), so this skips most products.
    """
    if point is None:
        return False
    point = [_fraction(x) for x in point]
    if len(point) != lp.num_vars or any(x < 0 for x in point):
        return False
    support = [(j, x) for j, x in enumerate(point) if x]
    for coeffs, rel, rhs in lp.constraints:
        lhs = sum((coeffs[j] * x for j, x in support), Fraction(0))
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
