"""Command-line interface.

Subcommands:

- count      run a candidate-ballot counting method on a profile file
- apportion  run a party-seat apportionment method on a party profile
- check      test a scenario over a profile with !W markers
- threshold  look up a guarantee threshold pi(ell, S)
- table      regenerate a named reference grid
- seq        evaluate the extremal sequences a_n / b_n / c_n / alpha_n
- witness    build and verify a cataloged extremal profile
- search     brute-force the best bad-outcome fraction on a small grid
- audit      cross-check the threshold corpus against its inequalities

Exit codes: 0 success, 1 domain failure (a bad outcome exists where the
command asserts none, or an audit inequality fails), 2 usage or parse
errors.  All rationals are emitted as "p/q" text; --decimals, offered
only where it acts (count, check, threshold, seq, witness and search),
adds decimal approximations to human-readable output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .audit import SEARCH_SMAX, audit_table
from .ballots import (DEFAULT_BRANCH_CAP, WeightScheme, format_profile,
                      parse_profile_file)
from .numerics import (format_rational, parse_rational, split_arg,
                       to_decimal_str)
from .scenarios import (IndeterminateOutcome, ScenarioId, ScenarioInstance,
                        ScenarioTypeError, is_instance)
from .search import SearchSpec, search_lower_bound
from .sequences import build_alpha_lp, seq_a, seq_b, seq_c, solve_alpha
from .lp import format_lp
from .thresholds import (CONJECTURED, CRITERIA, LOWER_BOUND, MINUS, PLUS,
                         TABLE_NAMES, MethodId, ThresholdValue,
                         criterion_check, table_grid, threshold)
from .unordered import BudgetExceededError
from .witnesses import (CATALOG, Witness, construct_witness,
                        party_seat_vectors, run_method, verify_witness)


class _CliError(ValueError):
    """Usage-level failure; maps to exit code 2."""


def _frac(value, decimals):
    text = format_rational(value)
    if decimals is not None:
        text += " (%s)" % to_decimal_str(value, decimals)
    return text


# ---------------------------------------------------------------------------
# Output
#
# Each command builds a JSON-safe dict plus a list of human-readable lines
# and optional CSV rows; the chosen --format picks one rendering.


def _emit(fmt: str, data, lines, rows=None) -> None:
    out = sys.stdout
    if fmt == "json":
        json.dump(data, out, indent=2, sort_keys=True)
        out.write("\n")
    elif fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows(
            _kv_rows(data) if rows is None else rows)
    else:
        for line in lines:
            out.write(line + "\n")


def _kv_rows(data, prefix=""):
    rows = []
    for key in sorted(data):
        value = data[key]
        name = "%s%s" % (prefix, key)
        if isinstance(value, dict):
            rows.extend(_kv_rows(value, name + "."))
        elif isinstance(value, list):
            rows.append([name, ";".join(str(v) for v in value)])
        else:
            rows.append([name, value])
    return rows


def _entry_data(entry: ThresholdValue) -> dict:
    data = {"kind": entry.kind, "status": entry.status, "side": entry.side,
            "source": entry.source}
    for field in ("value", "lo", "hi"):
        raw = getattr(entry, field)
        data[field] = None if raw is None else format_rational(raw)
    if entry.note:
        data["note"] = entry.note
    return data


def _entry_cell(entry: ThresholdValue) -> str:
    """Compact single-cell rendering for grids."""
    if entry.is_exact:
        text = format_rational(entry.value)
        if entry.side == MINUS:
            text += "-"
        elif entry.side == PLUS:
            text += "+"
        return text
    if entry.status == CONJECTURED:
        return format_rational(entry.value) + "?"
    if entry.status == LOWER_BOUND:
        return ">=" + format_rational(entry.lo)
    lo = format_rational(entry.lo) if entry.lo is not None else "0"
    hi = format_rational(entry.hi) if entry.hi is not None else "1"
    return "[%s,%s]" % (lo, hi)


# ---------------------------------------------------------------------------
# count / apportion


def _cmd_count(args) -> int:
    profile = parse_profile_file(args.profile)
    method = MethodId.parse(args.method)
    doc_data = {"method": method.label(), "seats": profile.seats}
    if method.spec.loads:
        outcomes, states = method.spec.engine(method, profile,
                                              args.branch_cap)
        load = min(state.max_load for state in states.values())
        doc_data["max_load"] = format_rational(load)
    else:
        outcomes = run_method(method, profile, args.branch_cap)
    committees = outcomes.sorted_committees()
    doc_data["committees"] = [list(c) for c in committees]
    doc_data["truncated"] = outcomes.truncated
    lines = ["%s on %s (%d seats):" % (method.label(), args.profile,
                                       profile.seats)]
    for committee in committees:
        lines.append("  {%s}" % " ".join(committee))
    if "max_load" in doc_data:
        lines.append("max load: %s"
                     % _frac(Fraction(doc_data["max_load"]), args.decimals))
    if outcomes.truncated:
        lines.append("warning: tie branching hit the cap; list incomplete")
    rows = [["committee"]] + [[" ".join(c)] for c in committees]
    rows.append(["truncated", "true" if outcomes.truncated else "false"])
    _emit(args.format, doc_data, lines, rows)
    return 0


def _cmd_apportion(args) -> int:
    profile = parse_profile_file(args.profile)
    method = MethodId.parse(args.method)
    names, vectors = party_seat_vectors(method, profile)
    ordered = sorted(tuple(v) for v in vectors)
    doc_data = {"method": method.label(), "seats": profile.seats,
                "parties": list(names),
                "seat_vectors": [list(v) for v in ordered]}
    lines = ["%s on %s (%d seats):" % (method.label(), args.profile,
                                       profile.seats),
             "  parties: %s" % " ".join(names)]
    for vec in ordered:
        lines.append("  seats:   %s" % " ".join(str(s) for s in vec))
    rows = [["party"] + list(names)]
    rows += [["seats"] + list(v) for v in ordered]
    _emit(args.format, doc_data, lines, rows)
    return 0


# ---------------------------------------------------------------------------
# check


def _default_target(profile, scenario: ScenarioId, ell: int) -> frozenset:
    w_ballots = profile.w_ballots()
    if not w_ballots:
        raise _CliError("profile has no !W ballot groups; pass --target")
    if scenario in (ScenarioId.PJR, ScenarioId.EJR):
        common = frozenset.intersection(*(b.content.members
                                          for b in w_ballots))
        if not common:
            raise _CliError("W ballots share no candidate; pass --target")
        return common
    first = w_ballots[0].content
    if first.kind == "list":                # prefix of the first W list
        return frozenset(first.ranking[:ell])
    return first.members


def _cmd_check(args) -> int:
    profile = parse_profile_file(args.profile)
    method = MethodId.parse(args.method)
    scenario = ScenarioId(args.scenario)
    if args.target:
        target = frozenset(args.target.split(","))
    else:
        target = _default_target(profile, scenario, args.ell)
    inst = ScenarioInstance(profile, target, args.ell, scenario)
    if not is_instance(inst):
        print("not an instance of scenario %r" % scenario.value,
              file=sys.stderr)
        return 2
    witness = Witness(inst, inst.fraction)
    bad = verify_witness(witness, method, args.branch_cap)
    doc_data = {"method": method.label(), "scenario": scenario.value,
                "ell": args.ell, "target": sorted(target),
                "fraction": format_rational(inst.fraction),
                "bad_outcome_possible": bad}
    lines = ["scenario %s, ell=%d, W fraction %s: %s"
             % (scenario.value, args.ell, _frac(inst.fraction, args.decimals),
                "BAD outcome possible" if bad else "good (every outcome)")]
    _emit(args.format, doc_data, lines)
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# threshold / criterion


def _cmd_threshold(args) -> int:
    method = MethodId.parse(args.method)
    if args.criterion:
        if args.ell is not None or args.scenario is not None:
            raise _CliError("--ell and --scenario do not apply with "
                            "--criterion")
        verdict = criterion_check(method, args.criterion, args.seats)
        word = {True: "satisfied", False: "violated", None: "unknown"}[verdict]
        doc_data = {"method": method.label(), "criterion": args.criterion,
                    "seats": args.seats, "verdict": word}
        _emit(args.format, doc_data, ["%s at S=%d under %s: %s"
                                      % (args.criterion, args.seats,
                                         method.label(), word)])
        return 0
    if args.ell is None:
        raise _CliError("--ell is required unless --criterion is used")
    scenario = ScenarioId(args.scenario or "same")
    entry = threshold(method, scenario, args.ell, args.seats)
    doc_data = {"method": method.label(), "scenario": scenario.value,
                "ell": args.ell, "seats": args.seats}
    doc_data.update(_entry_data(entry))
    cell = _entry_cell(entry)
    extra = ("" if entry.value is None or args.decimals is None
             else " (%s)" % to_decimal_str(entry.value, args.decimals))
    lines = ["%s(%d, %d) under %s, scenario %s: %s%s  [%s]" % (
        entry.kind, args.ell, args.seats, method.label(), scenario.value,
        cell, extra, entry.status)]
    if entry.source:
        lines.append("  source: %s" % entry.source)
    if entry.note:
        lines.append("  note: %s" % entry.note)
    _emit(args.format, doc_data, lines)
    return 0


# ---------------------------------------------------------------------------
# table


def _cmd_table(args) -> int:
    grid = table_grid(args.name, max_seats=args.max_seats)
    is_seq = args.name == "sequences"
    header = [grid.row_label + "\\" + grid.col_label] + [str(c) for c in
                                                         grid.cols]
    rows = [header]
    cell_data = {}
    for r in grid.rows:
        line = [str(r)]
        for c in grid.cols:
            cell = grid.cells.get((r, c))
            if cell is None:
                line.append("")
                continue
            if isinstance(cell, ThresholdValue):
                text = _entry_cell(cell)
                cell_data["%s,%s" % (r, c)] = _entry_data(cell)
            else:
                text = format_rational(cell)
                cell_data["%s,%s" % (r, c)] = text
            line.append(text)
        rows.append(line)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["%s -- %s" % (grid.name, grid.title)]
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    if not is_seq:
        lines.append("(suffix -: approached, not attained; +: attained; "
                     "?: conjectured)")
    doc_data = {"name": grid.name, "title": grid.title,
                "rows": [str(r) for r in grid.rows],
                "cols": [str(c) for c in grid.cols], "cells": cell_data}
    _emit(args.format, doc_data, lines, rows)
    return 0


# ---------------------------------------------------------------------------
# seq


def _cmd_seq(args) -> int:
    which, scheme_arg = split_arg(args.which, "no weight scheme")
    n = args.n
    if n < 1:
        raise _CliError("--n must be >= 1")
    solver = {}
    if which == "alpha":
        scheme = WeightScheme.parse(scheme_arg)
        if args.dump_lp:
            print(format_lp(build_alpha_lp(n, scheme)))
        outcome = solve_alpha(n, scheme)
        value = outcome.value
        # Simplex effort and the vertex's largest numerator or denominator.
        solver = {"pivots": list(outcome.pivots),
                  "point_bits": max(max(x.numerator.bit_length(),
                                        x.denominator.bit_length())
                                    for x in outcome.point)}
    else:
        sequence = {"a": seq_a, "b": seq_b, "c": seq_c}.get(which)
        if sequence is None:
            raise _CliError("unknown sequence %r (choose a, b, c or alpha)"
                            % which)
        if scheme_arg:
            raise _CliError("sequence %s takes no weight scheme" % which)
        if args.dump_lp:
            raise _CliError("--dump-lp applies to alpha only")
        value = Fraction(sequence(n))
    doc_data = {"which": args.which, "n": n,
                "value": format_rational(value), **solver}
    _emit(args.format, doc_data,
          ["%s(%d) = %s" % (args.which, n, _frac(value, args.decimals))])
    return 0


# ---------------------------------------------------------------------------
# witness / search / audit


def _witness_data(witness: Witness) -> dict:
    inst = witness.instance
    return {"scenario": inst.scenario.value, "ell": inst.ell,
            "target": sorted(inst.target),
            "fraction": format_rational(witness.claimed_fraction),
            "source": witness.source,
            "profile": format_profile(inst.profile)}


def _cmd_witness(args) -> int:
    method = MethodId.parse(args.method)
    eps = parse_rational(args.eps) if args.eps else None
    witness = construct_witness(args.construction, method, args.scenario,
                                args.ell, args.seats, eps)
    verified = verify_witness(witness, method, args.branch_cap)
    doc_data = {"construction": args.construction, "method": method.label(),
                "verified": verified}
    doc_data.update(_witness_data(witness))
    lines = ["witness %s for %s, scenario %s, ell=%d, S=%d"
             % (args.construction, method.label(), args.scenario, args.ell,
                args.seats),
             "fraction: %s" % _frac(witness.claimed_fraction, args.decimals),
             "bad outcome reached: %s" % verified,
             "profile:"]
    lines += ["  " + line for line in
              format_profile(witness.instance.profile).splitlines()]
    _emit(args.format, doc_data, lines)
    return 0 if verified else 1


def _cmd_search(args) -> int:
    method = MethodId.parse(args.method)
    spec = SearchSpec(max_candidates=args.max_candidates,
                      weight_grid=args.grid,
                      max_ballot_groups=args.max_groups,
                      max_ballot_length=args.max_length,
                      branch_cap=args.branch_cap)
    best, witness = search_lower_bound(method, args.scenario, args.ell,
                                       args.seats, spec)
    tactic = ScenarioId(args.scenario) is ScenarioId.TACTIC
    doc_data = {"method": method.label(), "scenario": args.scenario,
                "ell": args.ell, "seats": args.seats, "certified": not tactic,
                "best_fraction": format_rational(best),
                "witness": _witness_data(witness) if witness else None}
    lines = ["search %s, scenario %s, ell=%d, S=%d, grid %d: best %s"
             % (method.label(), args.scenario, args.ell, args.seats,
                args.grid, _frac(best, args.decimals))]
    if witness is not None:
        lines.append("profile:")
        lines += ["  " + line for line in
                  format_profile(witness.instance.profile).splitlines()]
    else:
        lines.append("no bad-outcome profile found within the grid")
    if tactic:
        lines.append("note: a tactic value means no W strategy in the "
                     "grid guarantees ell; it is not a certified lower bound")
    _emit(args.format, doc_data, lines)
    return 0


def _cmd_audit(args) -> int:
    report = audit_table(smax=args.smax, with_search=args.with_search)
    failures = report.failures()
    doc_data = {"checks": len(report.checks), "passed": report.passed,
                "failures": [{"name": c.name, "subject": c.subject,
                              "detail": c.detail} for c in failures]}
    lines = ["audit: %d checks, %d failures"
             % (len(report.checks), len(failures))]
    for c in failures:
        lines.append("FAIL %s %s: %s" % (c.name, c.subject, c.detail))
    rows = [["name", "subject", "detail"]]
    rows += [[c.name, c.subject, c.detail] for c in failures]
    _emit(args.format, doc_data, lines, rows)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call only: parsing leaves it as it
    was, so every later run() in the process reuses it.  Each flag is
    declared once, on a parent parser that the commands using it share."""
    def parent(*parents):
        return argparse.ArgumentParser(add_help=False, parents=parents)

    common = parent()
    common.add_argument("--format", choices=("human", "json", "csv"),
                        default="human", help="output format")
    decimals = parent(common)
    decimals.add_argument("--decimals", type=int, default=None,
                          help="append decimal approximations (human output)")
    capped = parent(decimals)
    capped.add_argument("--branch-cap", type=int, default=DEFAULT_BRANCH_CAP,
                        help="states kept per round of tie branching, "
                        "and the most committees a count lists")
    method = parent()
    method.add_argument("--method", required=True, help="method label "
                        "(apportion: div:<gamma> or quota:<delta>)")
    scenarios = [s.value for s in ScenarioId]
    cell = parent()
    cell.add_argument("--scenario", required=True, choices=scenarios)
    cell.add_argument("--ell", type=int, required=True)
    cell.add_argument("--seats", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="multiwin",
        description="exact multi-winner election methods and their "
                    "proportionality guarantees")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("count", _cmd_count, "count a candidate-ballot profile",
                capped, method)
    p.add_argument("profile")

    p = command("apportion", _cmd_apportion,
                "apportion seats on a party profile", common, method)
    p.add_argument("profile")

    p = command("check", _cmd_check,
                "test a scenario on a profile with !W markers", capped, method)
    p.add_argument("--scenario", required=True, choices=scenarios)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--target", default=None,
                   help="comma-separated target candidates")
    p.add_argument("profile")

    p = command("threshold", _cmd_threshold, "look up a guarantee threshold",
                decimals, method)
    p.add_argument("--scenario", default=None, help="default same",
                   choices=scenarios)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--seats", type=int, required=True)
    p.add_argument("--criterion", choices=CRITERIA, default=None)

    p = command("table", _cmd_table, "regenerate a named reference grid",
                common)
    p.add_argument("name", choices=TABLE_NAMES)
    p.add_argument("--max-seats", type=int, default=5)

    p = command("seq", _cmd_seq, "evaluate a_n, b_n, c_n or alpha_n",
                decimals)
    p.add_argument("--which", required=True,
                   help="a | b | c | alpha[:scheme]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump-lp", action="store_true",
                   help="emit the LP constraint system (alpha only)")

    p = command("witness", _cmd_witness,
                "build and verify a cataloged extremal profile",
                capped, method, cell)
    p.add_argument("--construction", required=True,
                   choices=sorted(CATALOG))
    p.add_argument("--eps", default=None,
                   help="closeness for limit constructions, e.g. 1/20")

    p = command("search", _cmd_search,
                "brute-force the best bad-outcome fraction",
                capped, method, cell)
    p.add_argument("--grid", type=int, default=SearchSpec.weight_grid,
                   help="weight denominator bound")
    p.add_argument("--max-candidates", type=int,
                   default=SearchSpec.max_candidates)
    p.add_argument("--max-groups", type=int,
                   default=SearchSpec.max_ballot_groups)
    p.add_argument("--max-length", type=int,
                   default=SearchSpec.max_ballot_length)

    p = command("audit", _cmd_audit, "cross-check the threshold corpus",
                common)
    p.add_argument("--smax", type=int, default=5, help="largest S checked "
                   "(the --with-search probe covers S <= %d only)"
                   % SEARCH_SMAX)
    p.add_argument("--with-search", action="store_true")

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if (getattr(args, "decimals", None) or 0) < 0:
            parser.error("--decimals must be >= 0")
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, ScenarioTypeError, IndeterminateOutcome,
            BudgetExceededError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
