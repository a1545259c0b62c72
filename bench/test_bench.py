"""Self-tests of the benchmark: python3 -m pytest bench -q

They check the benchmark's own parts (reference checks, tail picker, op
list digests), not the library.
"""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from multiwin import lp, sequences  # noqa: E402
from multiwin.ballots import ListBallot, OutcomeSet, Profile, SetBallot, WeightedBallot  # noqa: E402

NAMES = [["A_0", "A_1"], ["B_0", "B_1"]]
VOTES = [1, 1]
SEATS = 2
ENGINES = [(label, delta) for label, delta, _ in workloads.PARTY_ENGINES]


def party_outcomes():
    set_profile = Profile([WeightedBallot(SetBallot(g), Fraction(v))
                           for g, v in zip(NAMES, VOTES)], SEATS)
    list_profile = Profile([WeightedBallot(ListBallot(g), Fraction(v))
                            for g, v in zip(NAMES, VOTES)], SEATS)
    return [engine(set_profile, list_profile)
            for _, _, engine in workloads.PARTY_ENGINES]


def party_failure(outcomes):
    return checks.party_lists_failure(ENGINES, outcomes, NAMES, VOTES, SEATS)


def corrupt(outcomes, index, committees):
    return outcomes[:index] + [OutcomeSet(committees)] + outcomes[index + 1:]


def test_party_check_accepts_engine_answers():
    assert party_failure(party_outcomes()) is None


def test_party_check_flags_a_dropped_committee():
    outcomes = party_outcomes()
    elim = [label for label, _ in ENGINES].index("thiele-elim")
    kept = sorted(outcomes[elim].committees, key=sorted)[1:]
    assert "tie-complete" in party_failure(corrupt(outcomes, elim, kept))


def test_party_check_flags_an_altered_seat_vector():
    outcomes = party_outcomes()
    stv = [label for label, _ in ENGINES].index("stv:1")
    bad = [frozenset(("A_0", "A_1"))]
    assert "seat vectors" in party_failure(corrupt(outcomes, stv, bad))


def test_party_check_flags_a_short_committee():
    outcomes = party_outcomes()
    bad = [frozenset(("A_0",))]
    assert "committee of 1" in party_failure(corrupt(outcomes, 0, bad))


def alpha_answer(n):
    program = sequences.build_alpha_lp(n, workloads.HARMONIC)
    outcome = lp.solve(program)
    return program, outcome, lp.check_solution(program, outcome.point)


def test_alpha_check_accepts_the_solver():
    for n in (1, 4, 5):
        assert checks.alpha_failure(n, True, *alpha_answer(n)) is None


def test_alpha_check_flags_a_perturbed_alpha():
    for n in (4, 5):
        program, outcome, feasible = alpha_answer(n)
        shifted = dataclasses.replace(outcome, value=outcome.value + Fraction(1, 1000))
        assert "certificate" in checks.alpha_failure(n, True, program, shifted, feasible)
        # A consistent but non-optimal certificate: the point scaled up.
        point = tuple(x * Fraction(1001, 1000) for x in outcome.point)
        scaled = dataclasses.replace(outcome, point=point,
                                     value=outcome.value * Fraction(1001, 1000))
        assert checks.alpha_failure(n, True, program, scaled,
                                    lp.check_solution(program, point))


def test_search_and_count_checks_flag_wrong_answers():
    assert checks.search_failure(Fraction(0), Fraction(1, 2), True)
    assert checks.search_failure(Fraction(3, 4), Fraction(1, 2), False)
    assert checks.search_failure(Fraction(1, 2), Fraction(1, 2), True) is None
    reference = OutcomeSet([frozenset("AB"), frozenset("AC")])
    good = {"committees": [["A", "B"], ["A", "C"]], "truncated": False}
    assert checks.count_failure(good, reference) is None
    assert checks.count_failure(dict(good, committees=[["A", "B"]]), reference)


def test_tail_percentile():
    assert run.tail_percentile(21) == ("50", 11)
    assert run.tail_percentile(200) == ("95", 190)
    assert run.tail_percentile(80)[0] == "75"
    assert run.tail_percentile(3)[0] == "50"


def test_stretches_divide_out_the_probe_loop():
    ref = worker.REFERENCE_S
    assert worker.stretches(0.0, 1.0, (-0.1, ref), [], (1.0, ref)) == (1.0, 1.0)
    # Half speed around the op: the loop took twice as long.
    assert worker.stretches(0.0, 1.0, (-0.1, 2 * ref), [], (1.0, 2 * ref)) == (1.0, 0.5)
    # The machine slows to half speed during the op: a probe inside it, whose
    # own time is not op time, splits it into stretches at 1.5x and 2x the
    # loop time.
    probe = 2 * ref
    measured, scaled = worker.stretches(
        0.0, 1.0 + probe, (-0.1, ref), [(0.5, probe)], (1.0 + probe, 2 * ref))
    assert abs(measured - 1.0) < 1e-12
    assert abs(scaled - (0.5 / 1.5 + 0.5 / 2)) < 1e-12


def digests(hash_seed, seed):
    out = {}
    for name in run.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name,
             "--seed", str(seed), "--setup-only", "1", "--t0", "0"],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, check=True, timeout=120)
        out[name] = json.loads(done.stdout.splitlines()[-1])["digest"]
    return out


def test_digest_is_stable_across_processes():
    first = digests("1", 7)
    assert digests("2", 7) == first
    changed = digests("1", 8)
    assert all(changed[name] != first[name] for name in run.WORKLOADS)
