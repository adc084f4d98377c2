"""Census benchmark: one workload, one process, one caller, ``workers=1``.

    python3 censusbench/run.py --workload table-4x3-all --seed 1 --trace 0

A run makes census passes back to back -- a closed loop with a single
caller -- for about ``run_seconds`` of BENCHMARK.json (no pass is started
that would likely end later), and at least three passes.  ``--seconds`` is
accepted because the benchmark's runner passes it, but it must equal
``run_seconds``: the run length is fixed, the same on every commit.
Before the first pass and after each one, an untraced run times
``PROBES_PER_PASS`` set-up probes (``workloads.py``), each in a fresh
interpreter.  Every pass's exact counts are checked against counts frozen
from the engine (``expected.json``) or, for a sample seed with none
frozen, against the scalar ``find_manipulation`` oracle, run untimed after
the passes.  Only passes with correct counts are timed into the metrics.

The shared host this runs on changes the speed of each virtual CPU by up
to half, for seconds to minutes at a time.  So the run stays on one CPU
and times a fixed pure-Python reference round (``reference_s``,
independent of ``src/``) every ``SAMPLE_EVERY_S`` during each untraced
pass and around every set-up probe.  ``census_s`` and ``setup_s`` are
scaled by ``ROUND_S`` over the round time measured with them: they are
seconds on a machine where a round takes ``ROUND_S``.  The unscaled wall
times are printed and kept in the record.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics; ``trace.overhead_s`` is the traced minus the untraced
median pass time.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the whole
record, with run metadata, also goes to a file under ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from itertools import permutations
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402  (needs HERE on sys.path)
    ROOT, WORKLOADS, Workload, frozen_counts, oracle_counts, report_counts,
)
from tracing import Tracer  # noqa: E402

import numpy  # noqa: E402
from votemanip.census import CensusReport, report_csv, report_json  # noqa: E402

SPEC_FILE = ROOT / "BENCHMARK.json"
MIN_PASSES = {0: 3, 1: 4}  # untraced runs; traced runs (two untraced, two traced)
PROBES_PER_PASS = 5  # so an untraced run takes at least 20 set-up probes
PROBE_TIMEOUT_S = 60
ROUND_S = 0.00215  # a reference round's median time inside runs on a 2-vCPU 2.1 GHz Xeon VM
SAMPLE_EVERY_S = 0.1  # during an untraced pass, one reference round this often
PROBE_ROUNDS = 100  # reference rounds on either side of each set-up probe
PERMS = tuple(permutations(range(5)))


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its census being ready."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--probe", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe {cmd} failed with status {proc.returncode}")
    return elapsed


def reference_s(rounds: int) -> float:
    """Wall time of ``rounds`` rounds of a fixed pure-Python loop shaped
    like census work: permutation tuples, profile slicing, dict tallies
    and a keyed max.  A round tallies 210 seven-voter profiles.

    It uses nothing from ``src/``, so it is the same on every commit; it
    runs with the collector off, so the program's heap cannot slow it; and
    it keeps only a few hundred entries, so it never sets the peak RSS.
    """
    rng = random.Random(12345)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(rounds):
            profile = tuple(rng.choice(PERMS) for _ in range(7))
            seen: dict[tuple, int] = {}
            for voter in range(7):
                for ballot in PERMS[::4]:
                    p = profile[:voter] + (ballot,) + profile[voter + 1:]
                    score: dict[int, int] = {}
                    for b in p:
                        for pos, c in enumerate(b):
                            score[c] = score.get(c, 0) + 4 - pos
                    seen[tuple(sorted(p))] = max(score, key=lambda c: (score[c], -c))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def timed_pass(census_pass: Callable[[], CensusReport]) -> dict:
    """Runs ``census_pass`` with a reference round every ``SAMPLE_EVERY_S``
    of wall time, from a ``SIGALRM`` handler, so the machine's speed is
    sampled all through the pass.

    ``seconds`` is the pass's wall time without those rounds; ``round_s``
    is their median time.  A pass shorter than one interval gets a single
    round right after it.
    """
    rounds: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: rounds.append(
        reference_s(1)))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        t0 = time.perf_counter()
        report = census_pass()
        elapsed = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    sampled = sum(rounds)
    if not rounds:
        rounds.append(reference_s(1))
    return {"traced": False, "seconds": elapsed - sampled, "sampling_s": sampled,
            "rounds": len(rounds), "round_s": statistics.median(rounds),
            "counts": report_counts(report)}


def run_pass(workload: Workload, seed: int, traced: bool) -> dict:
    """One census pass; its wall time, counts and, when traced, layer numbers."""
    gc.collect()
    if not traced:
        return timed_pass(workload.build(seed))
    tracer = Tracer()
    with tracer:
        report = tracer.span(workload.build(seed, tracer.method))
    t0 = time.perf_counter()
    report_csv(report)
    report_json(report)
    render_s = time.perf_counter() - t0
    layers = {**tracer.metrics(), "render.s": render_s}
    return {"traced": True, "seconds": tracer.census_seconds,
            "counts": report_counts(report), "layers": layers}


def time_probes(workload: Workload, seed: int) -> list[dict]:
    """``PROBES_PER_PASS`` set-up probes, each between two pieces of
    ``PROBE_ROUNDS`` reference rounds; each probe records the mean round
    time of the pieces on either side of it."""
    before = reference_s(PROBE_ROUNDS) / PROBE_ROUNDS
    probes = []
    for _ in range(PROBES_PER_PASS):
        seconds = probe_setup(workload.name, seed)
        after = reference_s(PROBE_ROUNDS) / PROBE_ROUNDS
        probes.append({"seconds": seconds, "round_s": (before + after) / 2})
        before = after
    return probes


def run_passes(workload: Workload, seed: int, seconds: float, trace: int
               ) -> tuple[list[dict], list[dict]]:
    """Passes until the next one would end past ``seconds``, judged by the
    slowest pass so far, with at least ``MIN_PASSES[trace]`` of them.

    An untraced run also times set-up probes (``time_probes``) before the
    first pass and after each one, so the probes sample the machine across
    the whole run, not one moment of it.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    slowest = 0.0
    setup = [] if trace else time_probes(workload, seed)
    while (len(passes) < MIN_PASSES[trace]
           or time.perf_counter() - start + slowest <= seconds):
        t0 = time.perf_counter()
        traced = bool(trace) and len(passes) % 2 == 1
        try:
            passes.append(run_pass(workload, seed, traced))
        except Exception:  # a pass that raises is a failed pass, not a crash
            traceback.print_exc()
            passes.append({"traced": traced, "seconds": None, "counts": None,
                           "error": traceback.format_exc(limit=1)})
        if not trace:
            setup += time_probes(workload, seed)
        slowest = max(slowest, time.perf_counter() - t0)
    return passes, setup


def scaled(seconds: float, round_s: float) -> float:
    """``seconds`` measured while a reference round took ``round_s``,
    scaled to a machine where it takes ``ROUND_S``."""
    return seconds * ROUND_S / round_s


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def metadata(seed: int) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workers": 1,
        "seed": seed,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loadavg_start": list(os.getloadavg()),
    }


def collect(workload: Workload, seed: int, seconds: float, trace: int) -> dict:
    """Runs the benchmark and returns its full record (see module docstring)."""
    spec = load_spec()
    meta = metadata(seed)
    passes, setup = run_passes(workload, seed, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected, source = frozen_counts(workload, seed), "frozen"
    if expected is None:
        expected, source = oracle_counts(workload, seed), "oracle"
    for p in passes:
        p["ok"] = p["counts"] == expected
    failed = sum(not p["ok"] for p in passes)

    ok = [p for p in passes if p["ok"]]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    wall_s = statistics.median(p["seconds"] for p in untraced) if untraced else None
    census_s = (statistics.median(scaled(p["seconds"], p["round_s"]) for p in untraced)
                if untraced else None)
    if trace:
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in (traced[0]["layers"] if traced else ())}
        if traced and wall_s is not None:
            values["trace.overhead_s"] = (
                statistics.median(p["seconds"] for p in traced) - wall_s)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(scaled(p["seconds"], p["round_s"]) for p in setup),
            "census_s": census_s,
            "profiles_per_s": workload.profiles / census_s if census_s else None,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}
    meta["loadavg_end"] = list(os.getloadavg())
    return {
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
        "failed_frac": failed / len(passes),
        "census_s_samples": len(untraced),
        "census_wall_s": wall_s,
        "setup_probes": setup,
        "setup_wall_s": statistics.median(p["seconds"] for p in setup) if setup else None,
        "round_s": ROUND_S,
        "expected_from": source,
        "expected": expected,
        "workload": workload.describe(seed),
        "trace": trace,
        "seconds": seconds,
        "meta": meta,
        "passes": passes,
    }


def print_summary(record: dict) -> None:
    w, meta = record["workload"], record["meta"]
    print(f"# workload={w['name']} n={w['n']} m={w['m']} sets={','.join(w['sets'])}")
    print(f"# mode={w['mode']} samples={w['samples']} seed={meta['seed']} workers=1 "
          f"labeled_profiles={w['labeled_profiles']} classes={w['anonymous_classes']}")
    print(f"# commit={meta['commit']} python={meta['python']} numpy={meta['numpy']} "
          f"nproc={meta['nproc']} loadavg={meta['loadavg_start'][0]:.2f}"
          f"->{meta['loadavg_end'][0]:.2f}")
    for i, p in enumerate(record["passes"], 1):
        state = "ok" if p["ok"] else ("raised" if p["counts"] is None else "WRONG COUNTS")
        kind = "traced" if p["traced"] else "untraced"
        secs = "-" if p["seconds"] is None else f"{p['seconds']:.4f} s"
        rounds = (f" (reference round {p['round_s'] * 1e3:.4f} ms, median of {p['rounds']})"
                  if "round_s" in p else "")
        print(f"pass {i} {kind}: {secs} {state}{rounds}")
    for i, p in enumerate(record["setup_probes"], 1):
        print(f"set-up probe {i}: {p['seconds']:.4f} s "
              f"(reference round {p['round_s'] * 1e3:.4f} ms)")
    notes = {
        "census_s": f"  (median of {record['census_s_samples']} passes, scaled; "
                    f"wall median {record['census_wall_s'] or 0:.6g} s)",
        "setup_s": f"  (median of {len(record['setup_probes'])} probes, scaled; "
                   f"wall median {record['setup_wall_s'] or 0:.6g} s)",
    }
    for name, m in record["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{notes.get(name, '')}")
    print(f"{'failed_frac':32s} {record['failed_frac']:.6g} ratio  "
          f"({record['failed']} of {record['attempted']} passes; "
          f"counts checked against {record['expected_from']})")


def main(argv: list[str] | None = None) -> int:
    run_seconds = load_spec()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help=f"must be run_seconds of BENCHMARK.json ({run_seconds})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for the run's full record")
    args = parser.parse_args(argv)
    if args.seconds != run_seconds:
        parser.error(f"--seconds must be {run_seconds}, the run_seconds of BENCHMARK.json")

    # One CPU for the passes, the reference loop and the set-up probes
    # (children inherit it): the host slows each virtual CPU on its own, so
    # the reference must run where the census runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    record = collect(workload, args.seed, run_seconds, args.trace)
    print_summary(record)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / (f"{workload.name}-seed{args.seed}-trace{args.trace}-"
                       f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# record: {path}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
