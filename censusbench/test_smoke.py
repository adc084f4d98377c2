"""Smoke test of the census benchmark at tiny sizes.

    python3 -m pytest censusbench/test_smoke.py

Each workload is shrunk to a few dozen profiles, so the counts come from
the scalar oracle and a whole run takes well under a second of census time.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import time

import pytest

import compare
import run
from workloads import WORKLOADS

from votemanip import census, core, dominance, manipulation
from votemanip.methods import METHODS, parse_method

TINY = {
    "table-3x9": dict(n=3, m=3),
    "table-4x3-all": dict(n=3, m=2),
    "sample-5x7": dict(n=4, m=3, samples=12),
    "direct-3x5-pdict": dict(n=3, m=3),
}
SPEC = run.load_spec()


@pytest.fixture(autouse=True)
def one_probe_between_passes(monkeypatch):
    """Keeps each run short; one probe exercises the same code as five."""
    monkeypatch.setattr(run, "PROBES_PER_PASS", 1)


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def collect(name: str, trace: int, seed: int = 3) -> dict:
    return run.collect(tiny(name), seed, seconds=0, trace=trace)


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(WORKLOADS) >= {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_reported_with_its_unit(name):
    for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        record = collect(name, trace)
        assert record["correct"] and record["failed"] == 0
        assert record["expected_from"] == "oracle"
        assert {k: v["unit"] for k, v in record["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted
        }
        assert all(isinstance(v["value"], (int, float)) for v in record["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_passes_give_identical_counts(name):
    record = collect(name, trace=1)
    kinds = {p["traced"]: p["counts"] for p in record["passes"]}
    assert set(kinds) == {False, True}
    assert kinds[False] == kinds[True] == record["expected"]
    layers = [p["layers"] for p in record["passes"] if p["traced"]][0]
    assert layers["methods.calls"] > 0 and layers["manipulation.verdict_calls"] > 0


def test_traced_run_leaves_no_wrapper_behind():
    collect("direct-3x5-pdict", trace=1)
    collect("table-3x9", trace=1)
    assert census.notion_holds is manipulation.notion_holds
    assert census.dominates_strict is dominance.dominates_strict
    assert census.dominates_nonstrict is dominance.dominates_nonstrict
    assert core.pairwise_tally.__module__ == "votemanip.core"
    wrapped = [f for f in (core.pairwise_tally, census.notion_holds)
               if hasattr(f, "__wrapped__")]
    wrapped += [m.id for m in METHODS.values() if hasattr(m.fn, "__wrapped__")]
    wrapped += [x for x in ("pdict:a,b,0", "borda@acb")
                if hasattr(parse_method(x).fn, "__wrapped__")]
    assert wrapped == []


def test_untimed_rounds_sample_the_whole_pass_and_the_timer_is_restored(monkeypatch):
    monkeypatch.setattr(run, "SAMPLE_EVERY_S", 0.02)
    handler = signal.getsignal(signal.SIGALRM)
    census_pass = tiny("table-3x9").build(0)
    p = run.timed_pass(lambda: (time.sleep(0.3), census_pass())[1])
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert p["rounds"] >= 5 and p["round_s"] > 0
    assert 0 < p["sampling_s"] < 0.3 <= p["seconds"] + p["sampling_s"]
    assert p["counts"] == run.oracle_counts(tiny("table-3x9"), 0)


def test_counts_disagreeing_with_the_oracle_fail_the_run(monkeypatch):
    workload = tiny("table-3x9")
    wrong = {k: (v[0] + 1, v[1]) for k, v in run.oracle_counts(workload, 0).items()}
    monkeypatch.setattr(run, "frozen_counts", lambda w, seed: wrong)
    record = run.collect(workload, 0, seconds=0, trace=0)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] and record["failed_frac"] == 1


def write_side(path, records) -> None:
    path.mkdir()
    for i, record in enumerate(records):
        (path / f"{i}.json").write_text(json.dumps(record))


def compare_rows(tmp_path, capsys, base, change) -> list[str]:
    write_side(tmp_path / "base", base)
    write_side(tmp_path / "change", change)
    assert compare.main(["--base", str(tmp_path / "base"),
                         "--change", str(tmp_path / "change")]) == 0
    return capsys.readouterr().out.splitlines()[1:]


def test_compare_prints_a_verdict_per_workload_and_metric(tmp_path, capsys):
    base = [collect("direct-3x5-pdict", trace=0, seed=s) for s in (1, 11)]
    change = [collect("direct-3x5-pdict", trace=0, seed=s) for s in (2, 12)]
    rows = compare_rows(tmp_path, capsys, base, change)
    assert len(rows) == len(SPEC["end_to_end"])
    assert all(row.split()[-1] in ("better", "worse", "unchanged", "unresolved")
               for row in rows)


def test_compare_never_credits_a_change_with_wrong_counts(tmp_path, capsys):
    base = [collect("direct-3x5-pdict", trace=0, seed=s) for s in (1, 11)]
    change = [dict(r) for r in base]
    # Wrong counts on a pass that was also fast: the change looks quicker
    # on every metric, but one of its runs is not correct.
    for r in change:
        r["metrics"] = {k: {**v, "value": v["value"] * (2 if k == "profiles_per_s" else 0.5)}
                        for k, v in r["metrics"].items()}
    change[1] = {**change[1], "correct": False, "failed": 1}
    rows = compare_rows(tmp_path, capsys, base, change)
    assert len(rows) == len(SPEC["end_to_end"])
    assert all(row.split()[-1] == "failed" for row in rows)
    assert all(f"0/{sum(r['attempted'] for r in base)} 1/" in row for row in rows)
