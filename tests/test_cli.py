"""End-to-end command-line tests via ``python -m votemanip``."""

import json
import os
import subprocess
import sys

import pytest

from votemanip import census
from votemanip.cli import main
from votemanip.verify import CENSUS_TARGETS, TARGETS, run_target


def run_cli(*args, env=None):
    merged = {**os.environ, **(env or {})}
    return subprocess.run(
        [sys.executable, "-m", "votemanip", *args],
        capture_output=True,
        text=True,
        env=merged,
    )


@pytest.fixture
def divided(tmp_path):
    path = tmp_path / "divided.txt"
    path.write_text("3 4\na b c\nb c a\nc a b\nc b a\n")
    return str(path)


@pytest.fixture
def divided_json(tmp_path):
    path = tmp_path / "divided.json"
    path.write_text(
        json.dumps(
            {
                "candidates": ["a", "b", "c"],
                "rankings": [
                    ["a", "b", "c"],
                    ["b", "c", "a"],
                    ["c", "a", "b"],
                    ["c", "b", "a"],
                ],
            }
        )
    )
    return str(path)


@pytest.fixture
def unanimous(tmp_path):
    path = tmp_path / "unanimous.txt"
    path.write_text("3 3\nb c a\nb c a\nb c a\n")
    return str(path)


@pytest.fixture
def mixed(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("3 5\nc b a\na c b\nb a c\nc b a\na c b\n")
    return str(path)


class TestWinners:
    def test_pretty_covers_all_methods_by_default(self, divided):
        proc = run_cli("winners", divided)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert "# command=winners" in lines
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert len(rows) == 11
        assert any(ln.startswith("plurality") and ln.endswith(" c") for ln in rows)
        assert any(ln.startswith("maxmin") and ln.endswith(" bc") for ln in rows)

    def test_json_profile_and_json_output(self, divided_json):
        proc = run_cli(
            "winners", divided_json, "--methods", "borda,condorcet",
            "--format", "json",
        )
        doc = json.loads(proc.stdout)
        assert doc["winners"] == {"borda": "c", "condorcet": "abc"}

    def test_pairwise_dictators_keep_their_commas(self, divided):
        proc = run_cli("winners", divided, "--methods", "pdict:a,b,0, borda,pdict:b,c,3")
        rows = [ln.split() for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert rows == [["pdict:a,b,0", "a"], ["borda", "c"], ["pdict:b,c,3", "c"]]

    def test_pairwise_dictator_beyond_the_voters_fails_cleanly(self, divided):
        proc = run_cli("winners", divided, "--methods", "pdict:a,b,5")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: pairwise dictator voter 5 out of range for 4 voters"
        ]

    def test_csv_output(self, divided):
        proc = run_cli("winners", divided, "--methods", "borda", "--format", "csv")
        lines = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert lines == ["method,winners", "borda,c"]

    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_an_empty_method_list_fails_cleanly(self, divided, fmt):
        proc = run_cli("winners", divided, "--methods", "", "--format", fmt)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: an uncertainty set needs at least one method"
        ]


class TestAnalyze:
    def test_reports_a_witness(self, divided):
        proc = run_cli("analyze", divided, "--voter", "0", "--methods", "plurality")
        assert proc.returncode == 0
        assert "voter 0 can switch to bac:" in proc.stdout
        assert "plurality: c -> bc (better)" in proc.stdout

    def test_reports_absence(self, unanimous):
        proc = run_cli("analyze", unanimous, "--methods", "borda,hare")
        assert proc.returncode == 0
        assert "voter 0: no sure-weak manipulation" in proc.stdout

    def test_json_witness_shape(self, divided):
        proc = run_cli(
            "analyze", divided, "--methods", "borda,baldwin",
            "--notion", "harmless", "--format", "json",
        )
        doc = json.loads(proc.stdout)
        assert doc["config"]["notion"] == "harmless"
        assert doc["witness"]["ballot"] == "bac"
        assert [o["relation"] for o in doc["witness"]["outcomes"]] == [
            "better", "neutral",
        ]

    def test_weights_tilt_the_expected_notion(self, mixed):
        uniform = run_cli(
            "analyze", mixed, "--methods", "hare,borda", "--notion", "expected"
        )
        assert "no expected-weak manipulation" in uniform.stdout
        tilted = run_cli(
            "analyze", mixed, "--methods", "hare,borda", "--notion", "expected",
            "--weights", "3/4,1/4",
        )
        assert "voter 0 can switch to bac:" in tilted.stdout
        assert "# weights=['3/4', '1/4']" in tilted.stdout

    def test_unreadable_weights_fail_cleanly(self, divided):
        proc = run_cli(
            "analyze", divided, "--methods", "borda,hare", "--notion", "expected",
            "--weights", "1/0,1",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: weights must be fractions like 1/2,1/2, got '1/0,1'"
        ]

    def test_voter_out_of_range_fails_cleanly(self, divided):
        proc = run_cli("analyze", divided, "--voter", "9")
        assert proc.returncode == 2
        assert "error: voter 9 out of range for 4 voters" in proc.stderr

    def test_csv_witness_rows(self, divided):
        proc = run_cli(
            "analyze", divided, "--methods", "plurality", "--format", "csv"
        )
        lines = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert lines[0] == "voter,ballot,method,before,after,relation"
        assert lines[1] == "0,bac,plurality,c,bc,better"


class TestTable:
    def test_csv_shape_and_counts(self):
        proc = run_cli(
            "table", "-n", "3", "-m", "2", "--methods", "borda,hare",
            "--format", "csv",
        )
        lines = proc.stdout.splitlines()
        assert "# n=3" in lines and "# mode=exhaustive" in lines
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert rows[0].startswith("set,notion,kind")
        assert rows[1] == "borda,sure,weak,3,2,36,6,12,16.6667"
        assert rows[3] == "borda+hare,sure,weak,3,2,36,0,0,0.0000"

    def test_json_flags_pairs_below_both_members(self):
        proc = run_cli(
            "table", "-n", "3", "-m", "6", "--methods", "coombs,hare",
            "--notion", "safe", "--format", "json",
        )
        doc = json.loads(proc.stdout)
        assert doc["below_both_pairs"] == ["coombs+hare"]
        rows = {r["set"]: r["witness_profiles"] for r in doc["results"]}
        assert rows == {"coombs": 11700, "hare": 2880, "coombs+hare": 1440}

    def test_sampled_run_echoes_its_seed(self):
        proc = run_cli(
            "table", "-n", "3", "-m", "5", "--methods", "borda",
            "--samples", "200", "--seed", "77", "--format", "csv",
        )
        lines = proc.stdout.splitlines()
        assert "# mode=sample" in lines
        assert "# samples=200" in lines
        assert "# seed=77" in lines

    def test_a_lone_pairwise_dictator_is_one_method(self):
        proc = run_cli(
            "table", "-n", "3", "-m", "2", "--methods", "pdict:a,b,0",
            "--format", "csv",
        )
        assert proc.returncode == 0, proc.stderr
        rows = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert rows[1:] == ['"pdict:a,b,0",sure,weak,3,2,36,0,0,0.0000']

    def test_a_pairwise_dictator_census_is_budgeted_by_partly_labeled_classes(self):
        # voter 0's 6 rankings times the 56 classes of the others: 336, not
        # the 1,296 labeled profiles
        proc = run_cli(
            "table", "-n", "3", "-m", "4", "--methods", "borda,pdict:a,b,0",
            "--notion", "safe", "--budget", "400", "--format", "csv",
        )
        assert proc.returncode == 0, proc.stderr
        rows = [ln for ln in proc.stdout.splitlines() if not ln.startswith("#")]
        assert rows[1:] == [
            "borda,safe,weak,3,4,1296,378,792,29.1667",
            '"pdict:a,b,0",safe,weak,3,4,1296,0,0,0.0000',
            '"borda+pdict:a,b,0",safe,weak,3,4,1296,366,726,28.2407',
        ]

    def test_pairwise_dictator_beyond_the_voters_fails_cleanly(self):
        proc = run_cli("table", "-n", "3", "-m", "3", "--methods", "borda,pdict:a,b,5")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: pairwise dictator voter 5 out of range for 3 voters"
        ]

    def test_weights_are_rejected(self):
        # Singletons and pairs would need weight vectors of different lengths.
        for command in ("table", "eliminate"):
            proc = run_cli(
                command, "-n", "3", "-m", "3", "--methods", "borda,hare",
                "--notion", "expected", "--weights", "1/2,1/2",
            )
            assert proc.returncode == 2
            assert "error: unrecognized arguments: --weights 1/2,1/2" in proc.stderr
            assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["table", "eliminate"])
    def test_more_than_10_candidates_fail_cleanly(self, command, monkeypatch, capsys):
        # in process, with the census patched to fail, so that nothing of
        # the 11! rankings is ever built
        def refused(spec):
            raise AssertionError("a census ran")

        monkeypatch.setattr(census, "run_census", refused)
        extra = ["--samples", "1", "--seed", "1"] if command == "table" else []
        assert main([command, "-n", "11", "-m", "2", "--methods", "borda,hare", *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: at most 10 candidates are supported, got 11"]

    def test_more_than_255_voters_fail_cleanly(self):
        proc = run_cli(
            "table", "-n", "2", "-m", "600", "--methods", "borda",
            "--samples", "5", "--seed", "1",
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: at most 255 voters are supported, got 600"
        ]

    def test_the_default_budget_counts_classes(self):
        # 2^30 labeled profiles in 31 classes
        proc = run_cli("table", "-n", "2", "-m", "30", "--methods", "borda",
                       "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "borda,sure,weak,2,30,1073741824,0,0,0.0000"

    def test_thirty_voters_over_three_candidates(self):
        # 6^30 labeled profiles in 324,632 classes; the counts need exact integers
        proc = run_cli("table", "-n", "3", "-m", "30", "--methods", "borda",
                       "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == (
            "borda,sure,weak,3,30,221073919720733357899776,"
            "47628363547311466183560,556180741569166282821600,21.5441")

    def test_a_sample_over_eight_candidates(self):
        # 40,320 rankings: every voter has that many alternative ballots
        proc = run_cli("table", "-n", "8", "-m", "2", "--methods", "borda",
                       "--samples", "1", "--seed", "1", "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "borda,sure,weak,8,2,1,1,2,100.0000"

    def test_a_sample_at_the_voter_limit(self):
        # MAX_VOTERS: the most that one-byte holder counts allow
        proc = run_cli("table", "-n", "3", "-m", "255", "--methods", "borda,hare",
                       "--samples", "3", "--seed", "5", "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-3:] == [
            "borda,sure,weak,3,255,3,1,172,33.3333",
            "hare,sure,weak,3,255,3,0,0,0.0000",
            "borda+hare,sure,weak,3,255,3,0,0,0.0000",
        ]

    def test_a_negative_sample_seed_fails_cleanly(self):
        proc = run_cli("table", "-n", "3", "-m", "3", "--samples", "5", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: sample mode needs a non-negative seed, got -1"]

    def test_budget_exceeded_fails_cleanly(self):
        proc = run_cli(
            "table", "-n", "3", "-m", "9", "--methods", "borda",
            "--budget", "1000",
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr and "exceed the budget" in proc.stderr

    @pytest.mark.parametrize("command", ["table", "eliminate", "verify"])
    def test_help_says_what_the_budget_counts(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "an exhaustive census counts its classes, C(n!+m-1, m)," in text
        assert "a sampled census counts the profiles it draws" in text


class TestEliminate:
    def test_finds_the_borda_family_pairs(self):
        proc = run_cli(
            "eliminate", "-n", "3", "-m", "4",
            "--methods", "borda,baldwin,strict_nanson,weak_nanson",
            "--format", "json",
        )
        doc = json.loads(proc.stdout)
        assert doc["eliminating"] == [
            "borda+baldwin",
            "borda+strict_nanson",
            "baldwin+weak_nanson",
            "strict_nanson+weak_nanson",
        ]

    def test_reports_when_nothing_eliminates(self):
        proc = run_cli(
            "eliminate", "-n", "3", "-m", "4", "--methods", "plurality,copeland"
        )
        assert "no subset eliminates manipulation at this size" in proc.stdout


class TestVerify:
    def test_worked_examples_target(self):
        proc = run_cli("verify", "examples")
        assert proc.returncode == 0
        assert "examples: all checks passed" in proc.stdout
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("[")]
        assert lines and all(ln.startswith("[PASS]") for ln in lines)

    def test_json_report(self):
        proc = run_cli("verify", "ten-method-profile", "--format", "json")
        doc = json.loads(proc.stdout)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 11
        assert all(c["passed"] for c in doc["checks"])

    def test_unknown_target_is_rejected_by_the_parser(self):
        proc = run_cli("verify", "nonesuch")
        assert proc.returncode == 2
        assert "invalid choice" in proc.stderr

    @pytest.mark.parametrize(
        "target", ["borda-tiebreaks", "borda-coombs-baldwin", "condorcet-pairs"]
    )
    def test_fast_census_targets_pass(self, target):
        report = run_target(target)
        assert report.passed, [c for c in report.checks if not c.passed]

    @pytest.mark.parametrize("target", ["ten-method-profile", "examples"])
    def test_targets_without_a_census_reject_a_budget(self, target):
        proc = run_cli("verify", target, "--budget", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: verify target {target!r} runs no census")
        assert all(name in line for name in CENSUS_TARGETS)
        with pytest.raises(ValueError, match="runs no census"):
            run_target(target, budget=1)

    def test_budget_environment_variable_leaves_other_targets_alone(self):
        proc = run_cli("verify", "examples", env={"VOTEMANIP_BUDGET": "1"})
        assert proc.returncode == 0
        assert "# budget=None" in proc.stdout
        proc = run_cli("verify", "borda-coombs-baldwin",
                       env={"VOTEMANIP_BUDGET": "1"})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: 2600 classes exceed the budget of 1"
        ]

    def test_run_target_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown verify target"):
            run_target("nonesuch")

    def test_target_registry_is_complete(self):
        assert sorted(TARGETS) == [
            "borda-baldwin-pairs",
            "borda-coombs-baldwin",
            "borda-tiebreaks",
            "condorcet-pairs",
            "examples",
            "ten-method-profile",
            "weak-nanson-pairs",
        ]


class TestPscf:
    def test_pretty_lottery_and_witness(self, tmp_path):
        path = tmp_path / "tied.txt"
        path.write_text("3 4\na b c\na c b\nb a c\nb a c\n")
        proc = run_cli(
            "pscf", str(path), "--methods", "coombs,copeland,hare",
            "--voter", "0",
        )
        assert "lottery: a: 1/2, b: 1/2, c: 0" in proc.stdout
        assert "voter 0 can switch to acb: a: 5/6, b: 1/6, c: 0" in proc.stdout

    def test_json_lottery_without_a_voter(self, unanimous):
        proc = run_cli(
            "pscf", unanimous, "--methods", "borda,hare", "--format", "json"
        )
        doc = json.loads(proc.stdout)
        assert doc["lottery"] == {"a": "0", "b": "1", "c": "0"}
        assert doc["witness"] is None


class TestErrorsAndEnvironment:
    def test_malformed_profile_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\na b c\na a c\n")
        proc = run_cli("winners", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "line 3" in proc.stderr and "not a permutation" in proc.stderr

    def test_missing_file_fails_cleanly(self):
        proc = run_cli("winners", "/nonexistent/profile.txt")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_environment_variable_sets_the_format(self, divided):
        proc = run_cli(
            "winners", divided, "--methods", "borda",
            env={"VOTEMANIP_FORMAT": "json"},
        )
        assert json.loads(proc.stdout)["winners"] == {"borda": "c"}

    def test_non_integer_environment_variable_fails_cleanly(self):
        proc = run_cli("table", "-n", "3", "-m", "2", env={"VOTEMANIP_BUDGET": "x"})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: VOTEMANIP_BUDGET must be an integer, got 'x'"
        ]

    def test_integer_variables_of_other_commands_are_not_read(self):
        # table has no --voter
        proc = run_cli("table", "-n", "3", "-m", "2", "--methods", "borda",
                       env={"VOTEMANIP_VOTER": "x"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_an_explicit_integer_flag_beats_a_bad_variable(self, divided):
        proc = run_cli("analyze", divided, "--voter", "1", env={"VOTEMANIP_VOTER": "x"})
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("analyze", divided, env={"VOTEMANIP_VOTER": "x"})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: VOTEMANIP_VOTER must be an integer, got 'x'"
        ]

    @pytest.mark.parametrize("variable,command,choices", [
        ("VOTEMANIP_FORMAT", "winners", "pretty, csv, json"),
        ("VOTEMANIP_NOTION", "analyze", "single, sure, safe, harmless, expected"),
        ("VOTEMANIP_KIND", "analyze", "weak, opt, pes"),
    ])
    def test_environment_default_outside_the_choices_fails_cleanly(
            self, divided, variable, command, choices):
        proc = run_cli(command, divided, env={variable: "xml"})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: {variable} must be one of {choices}, got 'xml'"
        ]

    def test_environment_value_outside_the_choices_yields_to_a_flag(self, divided):
        proc = run_cli("analyze", divided, "--notion", "safe", "--kind", "opt",
                       env={"VOTEMANIP_NOTION": "xml", "VOTEMANIP_KIND": "xml"})
        assert proc.returncode == 0, proc.stderr
        # winners has no --notion, so the variable does not concern it
        proc = run_cli("winners", divided, env={"VOTEMANIP_NOTION": "xml"})
        assert proc.returncode == 0, proc.stderr

    def test_a_bad_choice_variable_is_reported_before_a_bad_integer(self, divided):
        proc = run_cli("analyze", divided,
                       env={"VOTEMANIP_VOTER": "x", "VOTEMANIP_NOTION": "xml"})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: VOTEMANIP_NOTION must be one of "
            "single, sure, safe, harmless, expected, got 'xml'"
        ]

    def test_budget_is_an_option_of_census_commands_only(self, divided):
        proc = run_cli("winners", divided, "--budget", "5")
        assert proc.returncode == 2
        assert "error: unrecognized arguments: --budget 5" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.skipif(sys.platform != "linux", reason="caps the address space by RLIMIT_AS")
    def test_running_out_of_memory_fails_cleanly(self):
        # one sampled class at n = 10 asks for a 3.5 GB array, more than the
        # child allows itself
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000,) * 2)\n"
                "from votemanip.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, "table", "-n", "10", "-m", "2", "--methods", "hare",
             "--samples", "1", "--seed", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")

    def test_workers_is_not_an_option(self):
        proc = run_cli("table", "-n", "3", "-m", "2", "--methods", "borda",
                       "--workers", "2")
        assert proc.returncode == 2
        assert "error: unrecognized arguments: --workers 2" in proc.stderr

    def test_explicit_flag_beats_the_environment(self, divided):
        proc = run_cli(
            "winners", divided, "--methods", "borda", "--format", "csv",
            env={"VOTEMANIP_FORMAT": "json"},
        )
        assert "method,winners" in proc.stdout
