"""Spans around calls into the library's public functions (traced run only).

`Tracer.install` replaces each traced function with a wrapper in every
loaded `multiwin` module that binds it: on its home module, which the
benchmark's own calls go through, and on the modules that import it,
which is how one layer calls another (`verifier.run_method` inside the
search, `sequences.solve` inside the audit's alpha solve).  Spans
(name, start, end, parent, op) are kept in arrays in memory and written
out once the run is over.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# Public functions the benchmark times, as <module>.<function>.
TRACED = (
    "unordered.phragmen_unordered", "unordered.thiele_optimize",
    "unordered.thiele_addition", "unordered.thiele_elimination",
    "unordered.score_family_count",
    "ordered.stv_count", "ordered.phragmen_ordered", "ordered.thiele_ordered",
    "ordered.borda_count",
    "party.divisor_apportion", "party.quota_apportion",
    "sequences.build_alpha_lp", "lp.solve", "lp.check_solution", "lp.dual_program",
    "verifier.search_lower_bound", "verifier.covering_token",
    "verifier.audit_table", "verifier.run_method",
    "thresholds.threshold", "scenarios.is_bad_outcome_possible",
    "cli.run", "ballots.parse_profile_file",
)
# Functions that call other traced functions; only these get self_s, which
# for the rest equals busy_s.
COMPOSITE = frozenset((
    "verifier.search_lower_bound", "verifier.covering_token",
    "verifier.audit_table", "verifier.run_method", "thresholds.threshold",
    "cli.run"))
# Engines whose OutcomeSets are tallied: committees returned, truncated sets.
COUNTED_ENGINES = (
    "unordered.phragmen_unordered", "unordered.thiele_optimize",
    "unordered.thiele_addition", "unordered.thiele_elimination",
    "ordered.stv_count", "ordered.phragmen_ordered", "ordered.thiele_ordered",
    "ordered.borda_count")
TRACE_METRICS = ("trace.wall_s", "trace.overhead_s")


def _stats(name):
    stats = ["calls", "busy_s"] + (["self_s"] if name in COMPOSITE else [])
    return ["%s.%s" % (name, stat) for stat in stats + ["max_s", "errors"]]


PER_LAYER = tuple(
    [metric for name in TRACED for metric in _stats(name)]
    + ["%s.%s" % (name, count) for name in COUNTED_ENGINES
       for count in ("committees", "truncated")]
    + ["lp.solve.point_bits"] + list(TRACE_METRICS))


def unit(metric: str) -> str:
    return "s" if metric.endswith("_s") else "bits" if metric.endswith("_bits") \
        else "count"


class Tracer:
    def __init__(self):
        self.name_at = array("i")
        self.parent_at = array("i")
        self.op_at = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack = []
        self.op = -1
        self.recording = True
        self.committees = dict.fromkeys(COUNTED_ENGINES, 0)
        self.truncated = dict.fromkeys(COUNTED_ENGINES, 0)
        self.point_bits = 0

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "multiwin" or key.startswith("multiwin.")]
        for index, name in enumerate(TRACED):
            home, attr = name.split(".")
            original = getattr(sys.modules["multiwin." + home], attr)
            wrapper = self._wrap(original, index, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, fn, index, name):
        counted = name in COUNTED_ENGINES
        solver = name == "lp.solve"

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = len(self.start)
            self.name_at.append(index)
            self.parent_at.append(self.stack[-1] if self.stack else -1)
            self.op_at.append(self.op)
            self.failed.append(0)
            self.end.append(0.0)
            self.stack.append(span)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[span] = 1
                raise
            finally:
                self.end[span] = perf_counter()
                self.stack.pop()
            if counted:
                outcome = result[0] if isinstance(result, tuple) else result
                self.committees[name] += len(outcome.committees)
                self.truncated[name] += outcome.truncated
            elif solver and result.point is not None:
                self.point_bits = max(self.point_bits, max(
                    max(x.numerator.bit_length(), x.denominator.bit_length())
                    for x in result.point))
            return result

        return wrapper

    def metrics(self) -> dict:
        """Per-layer metrics by name, except the TRACE_METRICS."""
        count = len(TRACED)
        calls = [0] * count
        busy = [0.0] * count
        longest = [0.0] * count
        errors = [0] * count
        child_time = [0.0] * len(self.start)
        for span in range(len(self.start)):
            duration = self.end[span] - self.start[span]
            parent = self.parent_at[span]
            if parent >= 0:
                child_time[parent] += duration
        own = [0.0] * count
        for span in range(len(self.start)):
            index = self.name_at[span]
            duration = self.end[span] - self.start[span]
            calls[index] += 1
            busy[index] += duration
            own[index] += duration - child_time[span]
            longest[index] = max(longest[index], duration)
            errors[index] += self.failed[span]
        values = {}
        for index, name in enumerate(TRACED):
            values[name + ".calls"] = calls[index]
            values[name + ".busy_s"] = busy[index]
            if name in COMPOSITE:
                values[name + ".self_s"] = own[index]
            values[name + ".max_s"] = longest[index]
            values[name + ".errors"] = errors[index]
        for name in COUNTED_ENGINES:
            values[name + ".committees"] = self.committees[name]
            values[name + ".truncated"] = self.truncated[name]
        values["lp.solve.point_bits"] = self.point_bits
        return values

    def write(self, path, origin: float) -> None:
        """Spans as CSV, times in seconds from origin, the start of the pass."""
        with open(path, "w") as out:
            out.write("span,name,start,end,parent,op,raised\n")
            for span in range(len(self.start)):
                out.write("%d,%s,%.9f,%.9f,%d,%d,%d\n" % (
                    span, TRACED[self.name_at[span]],
                    self.start[span] - origin, self.end[span] - origin,
                    self.parent_at[span], self.op_at[span], self.failed[span]))
