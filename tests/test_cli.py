"""Command-line interface: dispatch, formats, exit codes, determinism."""

import argparse
import csv
import io
import json
from importlib import resources

import pytest

from multiwin import cli
from multiwin.audit import AuditCheck, AuditReport
from multiwin.cli import run


@pytest.fixture
def set_profile(tmp_path):
    path = tmp_path / "votes.profile"
    path.write_text("!seats 3\n!W 13 : {K L M}\n1 : {A}\n9 : {A B}\n"
                    "9 : {A C}\n9 : {B}\n9 : {C}\n")
    return str(path)


@pytest.fixture
def party_profile(tmp_path):
    path = tmp_path / "parties.profile"
    path.write_text("!seats 3\n5 : party P\n3 : party Q\n1 : party R\n")
    return str(path)


@pytest.fixture
def list_profile(tmp_path):
    path = tmp_path / "ranked.profile"
    path.write_text("!seats 2\n61 : [A B]\n!W 39 : [C D]\n")
    return str(path)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_human(capsys, set_profile):
    code, out, _ = run_cli(capsys, "count", "--method", "thiele-add",
                           set_profile)
    assert code == 0
    assert "{A B C}" in out


def test_count_json_round_trips_rationals(capsys, set_profile):
    code, out, _ = run_cli(capsys, "count", "--method", "phragmen-u",
                           "--format", "json", set_profile)
    assert code == 0
    doc = json.loads(out)
    assert doc["truncated"] is False
    num, _, den = doc["max_load"].partition("/")
    assert int(num) > 0 and int(den) > 0


def test_count_csv(capsys, set_profile):
    code, out, _ = run_cli(capsys, "count", "--method", "av",
                           "--format", "csv", set_profile)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["committee"]
    assert len(rows) >= 2


@pytest.fixture
def overlap_profile():
    return str(resources.files("multiwin") / "profiles"
               / "overlap_approvals_2409.profile")


@pytest.mark.parametrize("cap,flag", [("1", "true"), ("1000", "false")])
def test_count_csv_carries_the_truncated_flag(capsys, overlap_profile, cap,
                                              flag):
    code, out, _ = run_cli(capsys, "count", "--method", "thiele-elim",
                           "--format", "csv", "--branch-cap", cap,
                           overlap_profile)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["committee"]
    assert rows[-1] == ["truncated", flag]
    if flag == "true":
        assert len(rows) == 3


def test_thiele_opt_honours_the_branch_cap(capsys, overlap_profile):
    code, out, _ = run_cli(capsys, "count", "--method", "thiele-opt",
                           "--format", "json", "--branch-cap", "1",
                           overlap_profile)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["committees"]) == 1 and doc["truncated"] is True


def test_budget_refusal_exits_two(capsys, tmp_path):
    # 34 singleton ballots and 17 seats: C(34, 17) seat splits.
    path = tmp_path / "wide.profile"
    path.write_text("!seats 17\n" + "".join("1 : {C%d}\n" % i
                                            for i in range(34)))
    code, out, err = run_cli(capsys, "count", "--method", "thiele-opt",
                             str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget" in err


def test_apportion(capsys, party_profile):
    code, out, _ = run_cli(capsys, "apportion", "--method", "div:1",
                           "--format", "json", party_profile)
    assert code == 0
    doc = json.loads(out)
    assert doc["parties"] == ["P", "Q", "R"]
    assert doc["seat_vectors"] == [[2, 1, 0]]


def test_apportion_fewer_parties_than_seats(capsys, tmp_path):
    path = tmp_path / "two.profile"
    path.write_text("!seats 5\n3 : party P0\n2 : party P1\n")
    code, out, _ = run_cli(capsys, "apportion", "--method", "div:1",
                           "--format", "json", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["parties"] == ["P0", "P1"]
    assert doc["seat_vectors"] == [[3, 2]]


def test_check_bad_outcome_exit_one(capsys, set_profile):
    code, out, _ = run_cli(capsys, "check", "--method", "thiele-add",
                           "--scenario", "same", "--ell", "1", set_profile)
    assert code == 1
    assert "BAD" in out


def test_check_good_outcome_exit_zero(capsys, tmp_path):
    path = tmp_path / "safe.profile"
    path.write_text("!seats 1\n!W 6 : {A}\n4 : {B}\n")
    code, _, _ = run_cli(capsys, "check", "--method", "av",
                         "--scenario", "same", "--ell", "1", str(path))
    assert code == 0


def test_check_non_instance_exit_two(capsys, tmp_path):
    path = tmp_path / "mixed.profile"
    path.write_text("!seats 2\n!W 1 : {A}\n!W 1 : {B}\n1 : {C}\n")
    code, _, err = run_cli(capsys, "check", "--method", "av",
                           "--scenario", "same", "--ell", "1",
                           "--target", "A", str(path))
    assert code == 2
    assert "instance" in err


def test_check_decides_a_settled_tie_at_cap_one(capsys, tmp_path):
    # All four names tie for the one seat, and each of them is on W's
    # first ballot, so every committee is good; at cap 1 the tie's first
    # seat split is all the count may try, and settling the tie's
    # interval decides it instead of flagging it truncated.
    path = tmp_path / "tie.profile"
    path.write_text("!seats 1\n!W 1 : {A B C D}\n!W 1 : {A B}\n1 : {C}\n"
                    "1 : {D}\n")
    code, out, err = run_cli(capsys, "check", "--method", "av",
                             "--scenario", "ejr", "--ell", "1",
                             "--target", "A,B", "--branch-cap", "1",
                             str(path))
    assert (code, err) == (0, "")
    assert "good (every outcome)" in out


def test_count_of_a_party_method_names_the_apportion_command(
        capsys, party_profile):
    code, out, err = run_cli(capsys, "count", "--method", "quota:1",
                             party_profile)
    assert code == 2 and out == ""
    assert "apportion command" in err


def test_threshold_human(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--method", "bv",
                           "--scenario", "ejr", "--ell", "2", "--seats", "3")
    assert code == 0
    assert "3/5" in out


@pytest.mark.parametrize("argv, lines", [
    (("--method", "thiele-add", "--ell", "2", "--seats", "3", "--decimals",
      "3"),
     ["pi(2, 3) under thiele-add, scenario same: 1/2? (0.500)  [conjectured]",
      "  source: sequential-mass-lp",
      "  note: proved lower bound; equality conjectured"]),
    (("--method", "thiele-opt:explicit(1,1/2;tail=1/3)", "--ell", "2",
      "--seats", "3"),
     ["pi(2, 3) under thiele-opt:explicit(1,1/2;tail=1/3), scenario same: "
      ">=1/2  [lower_bound]",
      "  source: weight-floor-extremes",
      "  note: proved lower bound only"]),
    (("--method", "thiele-add", "--ell", "1", "--seats", "8"),
     ["pi(1, 8) under thiele-add, scenario same: [1/9,761/3001]  [interval]",
      "  source: sequential-mass-bounds",
      "  note: exact value needs the order-8 vote-mass program"]),
    (("--method", "div:1", "--scenario", "party", "--ell", "1", "--seats",
      "2"),
     ["pi(1, 2) under div:1, scenario party: 1/3+  [exact]",
      "  source: divisor-party-extremes"]),
])
def test_threshold_human_cells(capsys, argv, lines):
    # One cell per rendering: conjectured, lower bound, interval, and
    # attained; with --decimals and the note line.
    code, out, _ = run_cli(capsys, "threshold", *argv)
    assert code == 0
    assert out.splitlines() == lines


def test_table_human(capsys):
    code, out, _ = run_cli(capsys, "table", "tha-same", "--max-seats", "3")
    assert code == 0
    assert out == ("tha-same -- sequential harmonic addition, common list\n"
                   "S\\ell     1     2     3\n"
                   "    1   1/2            \n"
                   "    2   1/3  2/3?      \n"
                   "    3  3/11  1/2?  3/4?\n"
                   "(suffix -: approached, not attained; +: attained; "
                   "?: conjectured)\n")


def test_threshold_json_fields(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--method", "cvq",
                           "--scenario", "same", "--ell", "2", "--seats", "3",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "1"
    assert doc["side"] == "minus"
    assert doc["status"] == "exact"


def test_threshold_criterion(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--method", "thiele-opt",
                           "--criterion", "EJR", "--seats", "5")
    assert code == 0
    assert "satisfied" in out


def test_table_contains_known_cell(capsys):
    code, out, _ = run_cli(capsys, "table", "tho-wpsc")
    assert code == 0
    assert "48/71" in out


def test_table_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "table", "borda-same", "--format", "csv")
    _, second, _ = run_cli(capsys, "table", "borda-same", "--format", "csv")
    assert first == second


def test_table_sequences(capsys):
    code, out, _ = run_cli(capsys, "table", "sequences", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cells"]["a,6"] == "4277/1440"


def test_seq_values(capsys):
    for which, n, expected in (("a", 6, "4277/1440"), ("b", 6, "95/288"),
                               ("c", 6, "12"), ("alpha", 4, "24/7")):
        code, out, _ = run_cli(capsys, "seq", "--which", which, "--n", str(n))
        assert code == 0
        assert expected in out


def test_seq_alpha_reports_simplex_effort(capsys):
    code, out, _ = run_cli(capsys, "seq", "--which", "alpha", "--n", "7",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["value"], doc["pivots"], doc["point_bits"]) == (
        "16500/2923", [35, 59], 12)
    code, out, _ = run_cli(capsys, "seq", "--which", "alpha", "--n", "7")
    assert (code, out) == (0, "alpha(7) = 16500/2923\n")


def test_seq_dump_lp(capsys):
    code, out, _ = run_cli(capsys, "seq", "--which", "alpha", "--n", "2",
                           "--dump-lp")
    assert code == 0
    assert "minimize" in out


def test_flags_only_where_they_act(capsys, set_profile):
    assert run_cli(capsys, "table", "optimal", "--dump-lp",
                   "--branch-cap", "3")[0] == 2
    assert run_cli(capsys, "table", "optimal", "--branch-cap", "3")[0] == 2
    assert run_cli(capsys, "threshold", "--method", "bv", "--ell", "1",
                   "--seats", "2", "--dump-lp")[0] == 2
    assert run_cli(capsys, "seq", "--which", "b", "--n", "2",
                   "--branch-cap", "3")[0] == 2
    assert run_cli(capsys, "seq", "--which", "b", "--n", "2",
                   "--dump-lp")[0] == 2
    for which in ("a:junk", "c:weak"):
        assert run_cli(capsys, "seq", "--which", which, "--n", "3")[0] == 2
    for flag in (("--ell", "3"), ("--scenario", "same")):
        assert run_cli(capsys, "threshold", "--method", "bv", "--criterion",
                       "JR", *flag, "--seats", "4")[0] == 2
    assert run_cli(capsys, "count", "--method", "av", "--dump-lp",
                   set_profile)[0] == 2
    assert run_cli(capsys, "audit", "--grid", "4")[0] == 2
    code, out, _ = run_cli(capsys, "count", "--method", "thiele-add",
                           "--branch-cap", "1", "--format", "json",
                           set_profile)
    assert code == 0
    doc = json.loads(out)
    assert doc["truncated"] is True
    assert [len(c) for c in doc["committees"]] == [3]


def test_limited_vote_cap_above_seats_is_refused(capsys):
    common = ("--method", "lv:2", "--scenario", "same", "--ell", "1",
              "--seats", "1")
    for command in ("search", "threshold"):
        code, _, err = run_cli(capsys, command, *common)
        assert code == 2
        assert "limited vote cap exceeds seat count" in err


def test_cap_below_ell_is_refused_by_search(capsys):
    code, out, err = run_cli(capsys, "search", "--method", "sntv",
                             "--scenario", "same", "--ell", "2", "--seats",
                             "2", "--grid", "3")
    assert (code, out) == (2, "")
    assert err == ("error: the sntv ballot cap 1 is below ell = 2: W cannot "
                   "name all its targets under same\n")


def test_grid_of_one_is_refused_by_search(capsys):
    # One ballot holds no instance, so "best 0" would be a vacuous answer.
    code, out, err = run_cli(capsys, "search", "--method", "bv",
                             "--scenario", "same", "--ell", "1", "--seats",
                             "1", "--grid", "1")
    assert (code, out) == (2, "")
    assert err == ("error: weight_grid must be at least 2: a grid of one "
                   "ballot holds no instance\n")


def test_witness_verifies(capsys):
    code, out, _ = run_cli(capsys, "witness", "--construction", "ejr-window",
                           "--method", "bv", "--scenario", "ejr",
                           "--ell", "2", "--seats", "3")
    assert code == 0
    assert "3/5" in out
    assert "True" in out


def test_witness_outside_its_catalog_row_is_refused(capsys):
    code, out, err = run_cli(capsys, "witness", "--construction",
                             "majority-tie", "--method", "stv:1",
                             "--scenario", "same", "--ell", "1",
                             "--seats", "2")
    assert (code, out) == (2, "")
    assert err == ("error: majority-tie covers bv, av under party, same, "
                   "tactic, pjr; not stv:1 under same\n")


def test_search(capsys):
    code, out, _ = run_cli(capsys, "search", "--method", "div:1",
                           "--scenario", "party", "--ell", "1",
                           "--seats", "2", "--grid", "5")
    assert code == 0
    assert "1/3" in out


def test_search_that_finds_nothing_says_so(capsys):
    code, out, _ = run_cli(capsys, "search", "--method", "phragmen-u",
                           "--scenario", "party", "--ell", "1", "--seats",
                           "3", "--grid", "2")
    assert code == 0
    assert out == ("search phragmen-u, scenario party, ell=1, S=3, grid 2: "
                   "best 0\nno bad-outcome profile found within the grid\n")


def test_tactic_search_says_what_its_value_means(capsys):
    argv = ("search", "--method", "av", "--scenario", "tactic", "--ell", "1",
            "--seats", "1", "--grid", "3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "best 1/2" in out
    assert out.splitlines()[-1] == (
        "note: a tactic value means no W strategy in the grid guarantees "
        "ell; it is not a certified lower bound")
    for fmt in ("json", "csv"):
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        assert "note" not in out
    code, out, _ = run_cli(capsys, "search", "--method", "av", "--scenario",
                           "same", "--ell", "1", "--seats", "1", "--grid", "3")
    assert code == 0
    assert "note" not in out


def test_tactic_search_json_is_not_certified(capsys):
    # At the SearchSpec defaults no W strategy in the grid names all four
    # targets, so the tactic search reports 2/3 where pi = 1/2 is exact.
    code, out, _ = run_cli(capsys, "search", "--method", "bv", "--scenario",
                           "tactic", "--ell", "4", "--seats", "4",
                           "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert (doc["best_fraction"], doc["certified"]) == ("2/3", False)
    code, out, _ = run_cli(capsys, "search", "--method", "bv", "--scenario",
                           "same", "--ell", "1", "--seats", "1", "--grid", "3",
                           "--format", "json")
    assert code == 0 and json.loads(out)["certified"] is True


def test_audit_clean(capsys):
    code, out, _ = run_cli(capsys, "audit", "--smax", "4")
    assert code == 0
    assert "0 failures" in out


def test_audit_lists_its_failures(capsys, monkeypatch):
    report = AuditReport((AuditCheck("floor same", "av ell=1 S=1", True),
                          AuditCheck("floor same", "av ell=1 S=2", False,
                                     "1/4 < 1/3")))
    monkeypatch.setattr(cli, "audit_table", lambda **kwargs: report)
    code, out, _ = run_cli(capsys, "audit")
    assert code == 1
    assert out == ("audit: 2 checks, 1 failures\n"
                   "FAIL floor same av ell=1 S=2: 1/4 < 1/3\n")


def test_tactic_target_outside_the_candidates_is_no_instance(capsys,
                                                             tmp_path):
    path = tmp_path / "tactic.profile"
    path.write_text("!seats 2\n!W 3 : {A B}\n2 : {C}\n1 : {D}\n")
    argv = ("check", "--method", "av", "--scenario", "tactic", "--ell", "2",
            str(path), "--target")
    code, out, _ = run_cli(capsys, *argv, "A,B")
    assert (code, out) == (0, "scenario tactic, ell=2, W fraction 1/2: "
                           "good (every outcome)\n")
    for target in ("A, B", "Z"):
        assert run_cli(capsys, *argv, target) == (
            2, "", "not an instance of scenario 'tactic'\n")


def test_decimals_flag(capsys):
    code, out, _ = run_cli(capsys, "seq", "--which", "b", "--n", "2",
                           "--decimals", "3")
    assert code == 0
    assert "0.500" in out


def test_usage_errors_exit_two(capsys, tmp_path):
    assert run_cli(capsys, "count", "--method", "bogus", "x")[0] == 2
    assert run_cli(capsys, "nosuchcommand")[0] == 2
    broken = tmp_path / "broken.profile"
    broken.write_text("!seats 1\nnot a ballot line\n")
    code, _, err = run_cli(capsys, "count", "--method", "av", str(broken))
    assert code == 2
    assert "line 2" in err
    no_w = tmp_path / "no_w.profile"
    no_w.write_text("!seats 1\n1 : {A}\n1 : {B}\n")
    for argv, message in [
            (("check", "--method", "av", "--scenario", "same", "--ell", "1",
              str(no_w)), "no !W ballot groups"),
            (("threshold", "--method", "bv", "--seats", "3"),
             "--ell is required"),
            (("seq", "--which", "a", "--n", "0"), "--n must be >= 1"),
            (("audit", "--smax", "0", "--format", "json"),
             "smax must be >= 1"),
            (("table", "optimal", "--max-seats", "0"),
             "max_seats must be >= 1"),
            (("seq", "--which", "d", "--n", "2"), "unknown sequence 'd'"),
            (("seq", "--which", "a:junk", "--n", "3"),
             "sequence a takes no weight scheme"),
            (("seq", "--which", "c:weak", "--n", "3"),
             "sequence c takes no weight scheme"),
            (("seq", "--which", "b", "--n", "2", "--dump-lp"),
             "--dump-lp applies to alpha only"),
            (("seq", "--which", "alpha:", "--n", "3"),
             "no weight scheme after 'alpha:'"),
            (("threshold", "--method", "thiele-add:", "--scenario", "same",
              "--ell", "1", "--seats", "2"), "nothing after 'thiele-add:'"),
            (("threshold", "--method", "borda:", "--scenario", "same",
              "--ell", "1", "--seats", "2"), "nothing after 'borda:'"),
            (("threshold", "--method", "stv:", "--scenario", "same",
              "--ell", "1", "--seats", "2"), "nothing after 'stv:'"),
            (("threshold", "--method", "bv", "--criterion", "JR", "--ell",
              "3", "--seats", "4"),
             "--ell and --scenario do not apply with --criterion")]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err


@pytest.mark.parametrize("label", ["bv:junk", "phragmen-u:weak"])
def test_stray_method_argument_exits_two(capsys, label):
    code, out, err = run_cli(capsys, "threshold", "--method", label,
                             "--scenario", "ejr", "--ell", "2", "--seats", "3")
    assert (code, out) == (2, "")
    assert err == "error: %s takes no parameter\n" % label.partition(":")[0]


_CELL = ("--scenario", "same", "--ell", "1", "--seats", "2")


@pytest.mark.parametrize("argv", [
    ("threshold", "--method", "div:1/0", "--scenario", "party", "--ell", "1",
     "--seats", "2"),
    ("threshold", "--method", "stv:1/0") + _CELL,
    ("threshold", "--method", "lv:1/0") + _CELL,
    ("threshold", "--method", "thiele-add:explicit(1,1/0)") + _CELL,
    ("seq", "--which", "alpha:explicit(1,1/0)", "--n", "3"),
    ("witness", "--construction", "self-voting", "--method", "cvq")
    + _CELL + ("--eps", "1/0"),
])
def test_zero_denominator_exits_two_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: zero denominator: '1/0'\n")


def test_non_rational_literal_names_the_text_and_the_grammar(capsys,
                                                              tmp_path):
    expected = "bad rational '0.5': expected an integer or p/q"
    code, out, err = run_cli(capsys, "threshold", "--method", "div:0.5",
                             "--scenario", "party", "--ell", "1",
                             "--seats", "2")
    assert (code, out, err) == (2, "", "error: %s\n" % expected)
    path = tmp_path / "decimal.profile"
    path.write_text("!seats 1\n0.5 : {A}\n")
    code, out, err = run_cli(capsys, "count", "--method", "av", str(path))
    assert (code, out, err) == (
        2, "", "error: line 2: bad weight: %s\n" % expected)


@pytest.mark.parametrize("scheme", ["explicit(1,,1/2)", "explicit(1,)",
                                    "explicit(,1)", "explicit(1;tail=)"])
def test_empty_weight_scheme_entry_exits_two(capsys, scheme):
    code, out, err = run_cli(capsys, "threshold", "--method",
                             "thiele-add:" + scheme, *_CELL)
    assert (code, out, err) == (2, "", "error: empty rational literal\n")


_DECIMALS_ARGV = {
    "count": ("--method", "av", "{set}"),
    "check": ("--method", "av", "--scenario", "same", "--ell", "1", "{set}"),
    "threshold": ("--method", "av", "--ell", "1", "--seats", "2"),
    "seq": ("--which", "a", "--n", "2"),
    "witness": ("--construction", "majority-tie", "--method", "av")
    + _CELL,
    "search": ("--method", "sntv") + _CELL[:4] + ("--seats", "1", "--grid",
                                                  "2"),
}

# Commands that never read --decimals, so do not offer it.
_PLAIN_ARGV = {
    "apportion": ("--method", "div:1", "{party}"),
    "table": ("optimal", "--max-seats", "2"),
    "audit": ("--smax", "1"),
}


def _argv(command, table, set_profile, party_profile):
    return [arg.format(set=set_profile, party=party_profile)
            for arg in table[command]]


@pytest.mark.parametrize("command", sorted(_DECIMALS_ARGV))
def test_negative_decimals_refused_before_any_command_runs(
        capsys, command, set_profile, party_profile):
    argv = _argv(command, _DECIMALS_ARGV, set_profile, party_profile)
    code, out, err = run_cli(capsys, command, *argv, "--decimals", "-1")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "multiwin: error: --decimals must be >= 0"
    assert run_cli(capsys, command, *argv, "--decimals", "0")[0] != 2


@pytest.mark.parametrize("command", sorted(_PLAIN_ARGV))
def test_decimals_refused_where_it_never_acted(
        capsys, command, set_profile, party_profile):
    argv = _argv(command, _PLAIN_ARGV, set_profile, party_profile)
    code, out, err = run_cli(capsys, command, *argv, "--decimals", "2")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == ("multiwin: error: unrecognized "
                                    "arguments: --decimals 2")
    assert run_cli(capsys, command, *argv)[0] == 0


_OPTIONS = {
    "count": "--branch-cap --decimals --format --method",
    "apportion": "--format --method",
    "check": "--branch-cap --decimals --ell --format --method --scenario "
             "--target",
    "threshold": "--criterion --decimals --ell --format --method --scenario "
                 "--seats",
    "table": "--format --max-seats",
    "seq": "--decimals --dump-lp --format --n --which",
    "witness": "--branch-cap --construction --decimals --ell --eps --format "
               "--method --scenario --seats",
    "search": "--branch-cap --decimals --ell --format --grid "
              "--max-candidates --max-groups --max-length --method "
              "--scenario --seats",
    "audit": "--format --smax --with-search",
}


def test_each_command_offers_its_own_options():
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    offered = {name: " ".join(sorted(option for action in parser._actions
                                     for option in action.option_strings
                                     if option not in ("-h", "--help")))
               for name, parser in sub.choices.items()}
    assert offered == _OPTIONS


def test_runs_in_one_process_share_one_parser(capsys, set_profile):
    # The parser is built once; a usage error, a help request and a
    # count in between leave the next run's parse as the first one's.
    first = run_cli(capsys, "count", "--method", "av", set_profile,
                    "--format", "json")
    assert run_cli(capsys, "count", "--bogus")[0] == 2
    assert run_cli(capsys, "count", "--help")[0] == 0
    assert run_cli(capsys, "threshold", "--method", "av", "--ell", "1",
                   "--seats", "2")[0] == 0
    assert run_cli(capsys, "count", "--method", "av", set_profile,
                   "--format", "json") == first
    assert cli._build_parser() is cli._build_parser()


def test_missing_file_exit_two(capsys):
    assert run_cli(capsys, "count", "--method", "av", "/no/such/file")[0] == 2


def test_no_engine_refusal_is_the_same_for_search_and_check(capsys,
                                                            set_profile):
    search = run_cli(capsys, "search", "--method", "cv", "--scenario", "same",
                     "--ell", "1", "--seats", "1")
    check = run_cli(capsys, "check", "--method", "cv", "--scenario", "same",
                    "--ell", "1", set_profile)
    assert search[0] == check[0] == 2
    assert search[1] == check[1] == ""
    assert search[2] == check[2] == ("error: cv has no counting engine here; "
                                     "only its thresholds are tabulated\n")


@pytest.mark.parametrize("label, scenario, message", [
    ("stv:1", "pjr", "pjr needs unordered ballots"),
    ("thiele-o", "ejr", "ejr needs unordered ballots"),
    ("av", "psc", "psc needs ordered ballots"),
    ("bv", "wpsc", "wpsc needs ordered ballots"),
])
def test_kind_refusal_is_the_same_for_search_and_check(
        capsys, set_profile, list_profile, label, scenario, message):
    profile = list_profile if scenario in ("pjr", "ejr") else set_profile
    search = run_cli(capsys, "search", "--method", label, "--scenario",
                     scenario, "--ell", "1", "--seats", "2")
    check = run_cli(capsys, "check", "--method", label, "--scenario",
                    scenario, "--ell", "1", profile)
    assert search == check == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv, expected", [
    (("threshold", "--method", "bv", "--scenario", "same", "--ell", "1",
      "--seats", "3"),
     [["ell", "1"], ["hi", "1/2"], ["kind", "pi"], ["lo", "1/2"],
      ["method", "bv"], ["scenario", "same"], ["seats", "3"],
      ["side", "unspecified"], ["source", "majority-blocking"],
      ["status", "exact"], ["value", "1/2"]]),
    # A tie of W's two names with one rival name seats the rival at 1/2.
    (("search", "--method", "bv", "--scenario", "same", "--ell", "2",
      "--seats", "2", "--grid", "2", "--max-candidates", "3"),
     [["best_fraction", "1/2"], ["certified", "True"], ["ell", "2"],
      ["method", "bv"],
      ["scenario", "same"], ["seats", "2"], ["witness.ell", "2"],
      ["witness.fraction", "1/2"],
      ["witness.profile", "!seats 2\n!W 1 : {A1 A2}\n1 : {B1}\n"],
      ["witness.scenario", "same"], ["witness.source", "search"],
      ["witness.target", "A1;A2"]]),
])
def test_csv_of_a_document_without_rows_lists_its_keys(capsys, argv,
                                                       expected):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == expected


@pytest.mark.parametrize("scenario, ell, target, bad", [
    ("psc", 1, ["C"], False),           # 39 votes clear the Droop quota
    ("wpsc", 2, ["C", "D"], True),      # D gets only C's surplus
])
def test_check_defaults_to_a_prefix_of_the_first_w_list(
        capsys, list_profile, scenario, ell, target, bad):
    code, out, _ = run_cli(capsys, "check", "--method", "stv",
                           "--scenario", scenario, "--ell", str(ell),
                           "--format", "json", list_profile)
    doc = json.loads(out)
    assert (doc["target"], doc["bad_outcome_possible"]) == (target, bad)
    assert code == (1 if bad else 0)


def test_check_pjr_defaults_to_the_names_all_w_ballots_share(capsys,
                                                             tmp_path):
    path = tmp_path / "pjr.profile"
    path.write_text("!seats 3\n!W 3 : {A B C}\n!W 2 : {A B D}\n"
                    "4 : {X}\n4 : {Y}\n4 : {Z}\n")
    # AV seats A and B (5 votes each) and one 4-vote rival; sequential
    # PAV halves B's value after A and seats two rivals instead.
    for method, bad in (("av", False), ("thiele-add", True)):
        code, out, _ = run_cli(capsys, "check", "--method", method,
                               "--scenario", "pjr", "--ell", "2",
                               "--format", "json", str(path))
        doc = json.loads(out)
        assert (doc["target"], doc["bad_outcome_possible"]) == (["A", "B"],
                                                                bad)
        assert code == (1 if bad else 0)
    path.write_text("!seats 2\n!W 3 : {A C}\n!W 2 : {B D}\n4 : {X}\n")
    code, _, err = run_cli(capsys, "check", "--method", "av", "--scenario",
                           "pjr", "--ell", "1", str(path))
    assert code == 2 and "share no candidate" in err
