"""Benchmark entry point: run one workload (or all) and report its metrics.

    python3 bench/run.py --workload party-lists --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each pass over the seeded op list runs in a fresh `worker.py` process with
PYTHONHASHSEED fixed, so module memos start cold as they do for every CLI
call.  Passes repeat while the next one is expected to end within
--seconds; there is always at least one.  Several extra processes only
set up, so that setup_s is a median.  With --trace 1 the run makes one
untraced and one traced pass and reports the per-layer metrics and the
tracing overhead instead.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("party-lists", "alpha-lp", "corpus-audit")
HASH_SEED = "0"
SETUP_ONLY_PROCESSES = 8
TIME_LIMIT_S = 170
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("max_op_s", "s"), ("peak_rss_mb", "MB"))
TAIL_LADDER = ("99.9", "99", "95", "90", "75", "50")
TAIL_MIN_BEYOND = 10


class BenchError(RuntimeError):
    pass


def tail_percentile(count: int) -> tuple:
    """(percentile, nearest rank): the highest percentile of the ladder with
    at least TAIL_MIN_BEYOND ops beyond it, else the median."""
    for pct in TAIL_LADDER:
        rank = math.ceil(Fraction(pct) * count / 100)
        if count - rank >= TAIL_MIN_BEYOND:
            return pct, rank
    return "50", max(1, math.ceil(count / 2))


def pass_metrics(result: dict) -> dict:
    times = sorted(result["op_s"])
    pct, rank = tail_percentile(len(times))
    return {"wall_s": result["wall_s"],
            "op_p50_ms": statistics.median(times) * 1000,
            "op_tail_ms": times[rank - 1] * 1000,
            "tail": {"percentile": pct, "ops": len(times),
                     "beyond": len(times) - rank},
            "max_op_s": times[-1],
            "peak_rss_mb": result["peak_rss_mb"],
            "raw_wall_s": result["raw_wall_s"], "probe_s": result["probe_s"]}


def _worker(args: list, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py")] + args
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    t0 = time.monotonic()
    try:
        done = subprocess.run(command + ["--t0", repr(t0)], env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s passed the %d s limit" % (args, TIME_LIMIT_S))
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError("worker %s exited %d: %s" % (
            args, done.returncode, done.stderr.strip()[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    setups = [_worker(base + ["--setup-only", "1"], deadline)
              for _ in range(SETUP_ONLY_PROCESSES)]
    started = time.monotonic()
    passes = [_worker(base, deadline)]
    traced = None
    if trace:
        spans = OUT / ("spans-%s-seed%d.csv" % (name, seed))
        traced = _worker(base + ["--trace", "1", "--spans", str(spans)], deadline)
    else:
        while time.monotonic() - started + passes[-1]["elapsed_s"] <= seconds:
            passes.append(_worker(base, deadline))
    measured = passes + ([traced] if traced else [])
    digests = {r["digest"] for r in setups + measured}
    failures = [f for r in measured for f in r["failures"]]
    per_pass = [pass_metrics(r) for r in passes]
    metrics = {"setup_s": statistics.median(r["setup_s"] for r in setups + passes)}
    for metric, _ in END_TO_END[1:]:
        metrics[metric] = statistics.median(p[metric] for p in per_pass)
    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "digest": passes[0]["digest"], "digests_agree": len(digests) == 1,
        "ops": passes[0]["ops"], "passes": per_pass,
        "setup_samples_s": [r["setup_s"] for r in setups + passes],
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setups + passes),
        "attempted": sum(r["ops"] for r in measured),
        "failed": len(failures), "failures": failures,
        "correct": len(digests) == 1 and all(f["known"] for f in failures),
        "metrics": metrics, "meta": metadata(),
    }
    if traced:
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
        record["layers"] = layers
        record["spans"] = str(spans.relative_to(ROOT))
    return record


def metadata() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": _commit(), "source_digest": _source_digest(),
            "loadavg": os.getloadavg(), "pythonhashseed": HASH_SEED}


def _commit():
    """HEAD of the enclosing git checkout, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """Names the library source even where there is no git history."""
    digest = hashlib.sha256()
    package = ROOT / "src" / "multiwin"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".profile"):
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def report(record: dict) -> dict:
    """Print the record for a reader; return the result object."""
    print("%s seed=%d trace=%d PYTHONHASHSEED=%s digest=%s ops=%d passes=%d" % (
        record["workload"], record["seed"], record["trace"], HASH_SEED,
        record["digest"], record["ops"], len(record["passes"])))
    first = record["passes"][0]
    tail = first["tail"]
    notes = {"setup_s": "median of %d process starts, measured %.4f s" % (
                 len(record["setup_samples_s"]), record["raw_setup_s"]),
             "wall_s": "measured %.4f s, probe loop %.3f ms (reference %.3f ms)"
                       % (first["raw_wall_s"], first["probe_s"] * 1000,
                          worker.REFERENCE_S * 1000),
             "op_tail_ms": "p%s of %d ops, %d beyond" % (
                 tail["percentile"], tail["ops"], tail["beyond"])}
    for metric, unit in END_TO_END:
        print("  %-12s %12.4f %-3s %s" % (metric, record["metrics"][metric], unit,
                                          notes.get(metric, "")))
    print("  %-12s %12.4f     (%d of %d ops failed)" % (
        "fail_ratio", record["failed"] / record["attempted"], record["failed"],
        record["attempted"]))
    shown = {}
    for failure in record["failures"]:
        label = (" (known defect)" if failure["known"] else "", str(failure["key"]),
                 failure["reason"])
        shown[label] = shown.get(label, 0) + 1
    for (known, key, reason), passes in shown.items():
        print("  FAILED%s %s: %s (in %d pass%s)" % (known, key, reason, passes,
                                                   "es" if passes > 1 else ""))
    if not record["digests_agree"]:
        print("  ERROR: processes generated different op lists for one seed")
    if "layers" in record:
        for metric in tracer.PER_LAYER:
            print("  %-48s %14.6f %s" % (metric, record["layers"][metric],
                                        tracer.unit(metric)))
        print("  tracing overhead: %.4f s (traced wall_s %.4f, untraced %.4f); "
              "spans in %s" % (record["layers"]["trace.overhead_s"],
                               record["layers"]["trace.wall_s"],
                               record["passes"][0]["wall_s"], record["spans"]))
        metrics = {m: {"value": record["layers"][m], "unit": tracer.unit(m)}
                   for m in tracer.PER_LAYER}
    else:
        metrics = {m: {"value": record["metrics"][m], "unit": unit}
                   for m, unit in END_TO_END}
    print("  meta %s" % json.dumps(record["meta"], sort_keys=True))
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multiwin" / "__init__.py").is_file():
        print("error: no library source at %s" % (ROOT / "src" / "multiwin"),
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  time.monotonic() + TIME_LIMIT_S)
        except BenchError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        path = OUT / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        results[name] = report(record)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
