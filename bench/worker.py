"""One pass over a workload's op list, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --t0 T [--trace 1]
                            [--setup-only 1] [--spans PATH]

T is the launching process's time.monotonic() just before it started this
one (CLOCK_MONOTONIC is system-wide, so the two clocks agree).  setup_s
runs from T to the end of set-up: interpreter start, imports, input
generation and fixture reads; it is scaled like the op times below.  With --setup-only 1 the process stops
there.  Otherwise it runs the ops back to back (a closed loop, one
client), checks each output as it comes, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


# A shared machine's speed changes within fractions of a second: the same
# ops ran up to 1.9x slower for seconds at a time.  So the worker measures
# the speed while it times.  A probe times a fixed stdlib-only loop right
# before and right after each op, and from a timer signal every
# PROBE_EVERY_S during it.  Each stretch of an op between two probes is
# scaled by REFERENCE_S over the mean of those two loop times, and probe
# time is taken out of the op's time.  Scaling repeated ops by the probe
# next to them cut the spread of their times from 0.5 to 0.1
# (interquartile range over median).  On a steady machine where the loop
# takes REFERENCE_S, scaled and measured times agree.
REFERENCE_S = 0.004
PROBE_EVERY_S = 0.2
# A probe that ended this recently still stands for the next op.
PROBE_REUSE_S = 0.05
# Short ops are timed REPEATS times and keep the median: one 18 ms op
# alone moved by 12% (interquartile range over median) between runs.
REPEAT_BELOW_S = 0.05
REPEATS = 3
# setup_s is scaled by the median of this many probes taken right after it.
SETUP_PROBES = 3


def probe_loop() -> None:
    """A fixed mix of Fraction, frozenset and dict work; no library code."""
    total = Fraction(0)
    counts = {}
    for i in range(1, 1000):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        key = frozenset((i % 13, i % 17, i % 23))
        counts[key] = counts.get(key, 0) + 1
        counts.get(tuple(sorted(key)))


class SpeedProbe:
    def __init__(self):
        self.samples = []           # (start, loop seconds)

    def sample(self, *_signal) -> None:
        # A collection the probe set off would be taken out of the op's
        # time, though it collects the op's garbage; leave it to the op.
        enabled = gc.isenabled()
        gc.disable()
        began = time.perf_counter()
        probe_loop()
        self.samples.append((began, time.perf_counter() - began))
        if enabled:
            gc.enable()

    def time(self, run) -> tuple:
        """(output, error, measured seconds, seconds at reference speed)."""
        if not self.samples or time.perf_counter() - sum(self.samples[-1]) > PROBE_REUSE_S:
            self.sample()
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        began = time.perf_counter()
        try:
            output, error = run(), None
        except Exception as exc:  # an op that raises counts as failed
            output, error = None, "raised %r" % exc
        finally:
            ended = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = [s for s in self.samples[first:] if began <= s[0] < ended]
        self.sample()
        return (output, error) + stretches(began, ended, self.samples[first - 1],
                                           inside, self.samples[-1])


def stretches(began, ended, before, inside, after) -> tuple:
    """(measured, scaled) seconds of an op from began to ended, given the
    probe samples (start, loop seconds) before it, inside it and after it."""
    measured = scaled = 0.0
    at, loop = began, before[1]
    for start, seconds in inside + [(ended, after[1])]:
        measured += start - at
        scaled += (start - at) * REFERENCE_S * 2 / (loop + seconds)
        at, loop = start + seconds, seconds
    return measured, scaled


def run_pass(ops, tracer=None) -> dict:
    """Time each op, then check its output and drop it before the next op.

    Keeping outputs, or the garbage of earlier ops, would make an op's
    collector work depend on what ran before it, and the seed shuffles
    that order; so the heap is collected between ops, outside the timing.
    An op under REPEAT_BELOW_S runs REPEATS times; the first output is
    checked.  wall_s is the sum of the op times.
    """
    probe = SpeedProbe()
    raw = []
    times = []
    failures = []
    origin = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        gc.collect()
        output, reason, measured, scaled = probe.time(op.run)
        if reason is None and scaled < REPEAT_BELOW_S:
            runs = [(measured, scaled)]
            if tracer is not None:
                tracer.recording = False    # spans and counts cover one run
            for _ in range(REPEATS - 1):
                gc.collect()
                _, error, measured, scaled = probe.time(op.run)
                reason = reason or error
                runs.append((measured, scaled))
            if tracer is not None:
                tracer.recording = True
            measured = statistics.median(m for m, _ in runs)
            scaled = statistics.median(t for _, t in runs)
        raw.append(measured)
        times.append(scaled)
        reason = reason or op.check(output)
        if reason:
            failures.append({"op": index, "key": list(op.key), "reason": reason})
        del output
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": sum(times), "op_s": times, "raw_wall_s": sum(raw),
            "raw_op_s": raw,
            "probe_s": statistics.median(s for _, s in probe.samples),
            "peak_rss_mb": peak_rss_mb, "failures": failures, "origin": origin}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import workloads
    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup = time.monotonic() - args.t0
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    loop = statistics.median(seconds for _, seconds in probe.samples)
    result = {"digest": workloads.digest(ops), "ops": len(ops),
              "setup_s": setup * REFERENCE_S / loop, "raw_setup_s": setup}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        result.update(run_pass(ops, tracer))
        for failure in result["failures"]:
            failure["known"] = tuple(failure["key"]) in workloads.KNOWN_DEFECTS
        if tracer is not None:
            result["layers"] = tracer.metrics()
            if args.spans:
                tracer.write(args.spans, result["origin"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
