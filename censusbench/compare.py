"""Compares two sets of untraced benchmark records, one row per workload and
end-to-end metric.

    python3 censusbench/compare.py --base parent/ --change change/

Each side is a list of record files written by ``run.py`` or directories
holding them.  A row gives each side's median and quartiles over its runs,
the share of base/change pairs the change won (runs are paired by seed, in
run order; ties count for neither side), each side's failed passes over
passes attempted, and a verdict against the bound BENCHMARK.json fixes for
the metric:

* ``failed``: a change run is not ``correct``, or the change failed more
  passes than the base; no speed or memory figure of the change counts then;
* ``better``: the change won at least nine tenths of the pairs and its
  median beats the base median by more than the base's quartile distance;
* ``worse``: the change's median is worse than the base's by more than the
  bound;
* ``unresolved``: neither, and one side's quartile distance is wider than
  the bound relative to its median, unless every change run beats every
  base run;
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(paths: list[Path]) -> list[dict]:
    """The untraced records under ``paths``, correct or not."""
    files: list[Path] = []
    for path in paths:
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    return [r for r in records if r.get("trace") == 0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def in_run_order(records: list[dict]) -> list[dict]:
    return sorted(records, key=lambda r: r["meta"]["started_utc"])


def pairs(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Base and change runs of one workload matched by seed, in run order;
    by run order alone when no seed is on both sides."""
    def by_seed(records):
        out: dict[int, list[dict]] = {}
        for r in in_run_order(records):
            out.setdefault(r["meta"]["seed"], []).append(r)
        return out

    b, c = by_seed(base), by_seed(change)
    common = sorted(b.keys() & c.keys())
    if not common:
        return list(zip(in_run_order(base), in_run_order(change)))
    return [p for seed in common for p in zip(b[seed], c[seed])]


def verdict(metric: dict, base: list[float], change: list[float],
            matched: list[tuple[float, float]]) -> tuple[str, int]:
    """The row's verdict (see module docstring) and the pairs the change won."""
    lower = metric["better"] == "lower"
    gain = (lambda old, new: old - new) if lower else (lambda old, new: new - old)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(gain(b, c) > 0 for b, c in matched)
    if matched and wins >= 0.9 * len(matched) and gain(bmed, cmed) > bq3 - bq1:
        return "better", wins
    if -gain(bmed, cmed) > metric["bound"] * abs(bmed):
        return "worse", wins
    wide = max((bq3 - bq1) / abs(bmed), (cq3 - cq1) / abs(cmed)) > metric["bound"]
    if wide and not all(gain(b, c) > 0 for b in base for c in change):
        return "unresolved", wins
    return "unchanged", wins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_FILE.read_text())
    base, change = load_records(args.base), load_records(args.change)
    if not base or not change:
        print("error: each side needs at least one untraced record", file=sys.stderr)
        return 2

    print(f"{'workload':18s} {'metric':15s} {'unit':5s} "
          f"{'base median [q1, q3] n':34s} {'change median [q1, q3] n':34s} "
          f"{'delta':>8s} {'won':>9s} {'failed base change':>18s}  verdict")
    names = {r["workload"]["name"] for r in base} & {r["workload"]["name"] for r in change}
    for workload in sorted(names):
        bs = [r for r in base if r["workload"]["name"] == workload]
        cs = [r for r in change if r["workload"]["name"] == workload]
        matched_runs = pairs(bs, cs)
        failed = {side: (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
                  for side, rs in (("base", bs), ("change", cs))}
        broken = (failed["change"][0] > failed["base"][0]
                  or not all(r["correct"] for r in cs))
        failures = " ".join(f"{f}/{a}" for f, a in failed.values())
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [r["metrics"][name]["value"] for r in bs if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in cs if name in r["metrics"]]
            if not bv or not cv:
                print(f"{workload:18s} {name:15s} missing on one side; failed passes "
                      f"base change {failures}  {'failed' if broken else 'unresolved'}")
                continue
            matched = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                       for b, c in matched_runs
                       if name in b["metrics"] and name in c["metrics"]]
            result, wins = verdict(metric, bv, cv, matched)
            if broken:
                result = "failed"
            (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(bv), quartiles(cv)
            print(f"{workload:18s} {name:15s} {metric['unit']:5s} "
                  f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}] {len(bv)}':34s} "
                  f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}] {len(cv)}':34s} "
                  f"{(cmed - bmed) / bmed:+8.1%} "
                  f"{f'{wins}/{len(matched)}':>9s} {failures:>18s}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
