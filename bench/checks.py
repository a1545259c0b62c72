"""Reference checks.  Each returns None for a correct output, or a reason.

The references: apportionment (`party`) for the party-list engines,
strong duality and known values for the alpha LP, the threshold corpus
for the search, and `run_method` for the CLI.  None of them is the code
the op timed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod
from typing import Optional

from multiwin import lp, party

# alpha_1..alpha_4 under harmonic weights, as the paper states them.
HARMONIC_ALPHA = {1: Fraction(1), 2: Fraction(2), 3: Fraction(8, 3),
                  4: Fraction(24, 7)}
# The dual solve costs 9-11 s at n = 6 and 77-111 s at n = 7.
DUAL_MAX_N = 5
# Engines on set ballots must list every choice of interchangeable names.
SET_ENGINES = frozenset(("phragmen-u", "thiele-opt", "thiele-add", "thiele-elim"))


def party_lists_failure(engines, outcomes, names, votes, seats) -> Optional[str]:
    """engines: (label, delta) per outcome; delta None means D'Hondt."""
    party_of = {name: i for i, group in enumerate(names) for name in group}
    references = {}
    for (label, delta), outcome in zip(engines, outcomes, strict=True):
        if outcome.truncated:
            return "%s: truncated" % label
        vectors = set()
        for committee in outcome.committees:
            if len(committee) != seats:
                return "%s: committee of %d, not %d" % (label, len(committee), seats)
            counts = [0] * len(names)
            for name in committee:
                counts[party_of[name]] += 1
            vectors.add(tuple(counts))
        if delta not in references:
            references[delta] = (
                party.divisor_apportion(party.DivisorSpec(1), votes, seats)
                if delta is None else
                party.quota_apportion(party.QuotaSpec(delta), votes, seats))
        expected = references[delta]
        if vectors != expected:
            return "%s: seat vectors %s, expected %s" % (
                label, sorted(vectors), sorted(expected))
        if label in SET_ENGINES:
            full = sum(prod(comb(seats, k) for k in vector) for vector in expected)
            if len(outcome.committees) != full:
                return "%s: %d committees, tie-complete count is %d" % (
                    label, len(outcome.committees), full)
    return None


def alpha_failure(n, harmonic, program, outcome, feasible) -> Optional[str]:
    if outcome.status != "optimal":
        return "status %s" % outcome.status
    if not feasible:
        return "check_solution rejected the optimum"
    value = outcome.value
    if value != sum(c * x for c, x in zip(program.objective, outcome.point)):
        return "value %s differs from its certificate" % value
    h_n = sum(Fraction(1, k) for k in range(1, n + 1))
    if not n / h_n <= value <= n:
        return "alpha_%d = %s outside [n/H_n, n]" % (n, value)
    if harmonic and n in HARMONIC_ALPHA and value != HARMONIC_ALPHA[n]:
        return "alpha_%d = %s, expected %s" % (n, value, HARMONIC_ALPHA[n])
    if n <= DUAL_MAX_N:
        dual = lp.dual_program(program)
        answer = lp.solve(dual)
        if (answer.status != "optimal" or not lp.check_solution(dual, answer.point)
                or -answer.value != value):
            return "dual optimum %s differs from alpha_%d = %s" % (
                answer.value, n, value)
    return None


def search_failure(found, pi, witness_fits) -> Optional[str]:
    if found > pi:
        return "found %s > pi %s" % (found, pi)
    if witness_fits and found != pi:
        return "found %s, expected %s" % (found, pi)
    return None


def witness_in_grid(witness, spec) -> bool:
    """Can search_lower_bound reach the witness profile under spec?"""
    profile = witness.instance.profile
    return (all(b.weight.denominator == 1 for b in profile.ballots)
            and profile.total_weight <= spec.weight_grid
            and len(profile.candidates) <= max(spec.max_candidates, profile.seats)
            and len(profile.ballots) <= spec.max_ballot_groups
            and all(len(b.content.names()) <= spec.max_ballot_length
                    for b in profile.ballots))


def count_failure(data, reference) -> Optional[str]:
    """data: the CLI's JSON count document; reference: run_method's OutcomeSet."""
    expected = [list(c) for c in reference.sorted_committees()]
    if data["committees"] != expected:
        return "committees %s, run_method gives %s" % (data["committees"], expected)
    if data["truncated"] != reference.truncated:
        return "truncated %s, run_method gives %s" % (data["truncated"],
                                                      reference.truncated)
    return None
