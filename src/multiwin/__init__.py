"""Exact rational computation of multi-winner election methods and their
proportionality guarantees.

The package provides tie-complete counting engines for party, unordered
(approval-style) and ordered (preference-list) ballots, closed-form
representation thresholds for each method/scenario pair, the combinatorial
sequences and linear programs those thresholds are built from, and a
verifier that reconstructs extremal instances and searches for them by
brute force.  All arithmetic is exact: the counting engines work on
integers over a common denominator and report fractions.Fraction values;
no floating point is used in any counting or threshold computation.
"""

__version__ = "0.1.0"
