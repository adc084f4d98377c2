"""The benchmark's census workloads and the counts each must reproduce.

Importing this module puts the checkout's ``src`` first on ``sys.path``
and stops unless ``votemanip`` is then imported from that ``src``, so the
benchmark always measures the code that sits next to it.

Run as a script, this module is the set-up probe: it imports numpy and
votemanip, builds one workload's method sets and spec, prints ``ready``
and exits.  ``run.py`` times that from process start to the ``ready``
line.

    python3 censusbench/workloads.py --probe table-3x9 --seed 1
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

sys.path.insert(0, str(SRC))
try:
    import numpy  # noqa: F401  (set-up cost the census pays through sampling)
    import votemanip
    from votemanip.census import CensusReport, CensusSpec, run_census
    from votemanip.census import enumerate_profiles, sample_profiles
    from votemanip.manipulation import UncertaintySet, find_manipulation
    from votemanip.methods import METHOD_ORDER, VotingMethod, parse_method
except ImportError as exc:
    raise SystemExit(f"error: cannot import votemanip from {SRC}: {exc}") from None
if not Path(votemanip.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"error: votemanip came from {votemanip.__file__}, not {SRC}")

Counts = dict[str, tuple[int, int]]  # set id -> (witness_profiles, witness_pointed)


@dataclass(frozen=True)
class Workload:
    """One ``run_census`` pass over ``sets``, or over every singleton and
    unordered pair of ``pool`` in ``pair_table``'s order; sampled when
    ``samples`` is given, exhaustive otherwise.

    Every pass uses ``workers=1`` and the CLI defaults ``sure``/``weak``.
    """

    name: str
    n: int
    m: int
    pool: tuple[str, ...] = ()
    sets: tuple[tuple[str, ...], ...] = ()
    samples: int | None = None

    @property
    def profiles(self) -> int:
        """Profiles judged per pass: labeled profiles, or samples."""
        return self.samples or math.factorial(self.n) ** self.m

    @property
    def classes(self) -> int:
        """Anonymous classes C(n! + m - 1, m) of the labeled space."""
        return math.comb(math.factorial(self.n) + self.m - 1, self.m)

    def set_ids(self) -> list[str]:
        return [s.id for s in self.method_sets()]

    def method_sets(self, method: Callable[[str], VotingMethod] = parse_method
                    ) -> list[UncertaintySet]:
        """The census's uncertainty sets, in the order it reports them.

        This is the one definition of a workload's sets: the timed pass,
        the frozen-count match and the oracle all read it.
        """
        names = self.pool + tuple(x for s in self.sets for x in s)
        made = {x: method(x) for x in dict.fromkeys(names)}
        if self.pool:
            fs = [made[x] for x in self.pool]
            return ([UncertaintySet((f,)) for f in fs]
                    + [UncertaintySet(pair) for pair in combinations(fs, 2)])
        return [UncertaintySet(tuple(made[x] for x in s)) for s in self.sets]

    def build(self, seed: int,
              wrap: Callable[[VotingMethod], VotingMethod] = lambda f: f,
              ) -> Callable[[], CensusReport]:
        """Method sets and spec for one pass; the returned call runs it.

        ``wrap`` maps each parsed method to the object the census uses,
        which is how a traced pass times winner evaluation.
        """
        spec = CensusSpec(
            n=self.n, m=self.m,
            method_sets=tuple(self.method_sets(lambda x: wrap(parse_method(x)))),
            mode="exhaustive" if self.samples is None else "sample",
            samples=self.samples or 0, seed=seed,
        )
        return lambda: run_census(spec)

    def describe(self, seed: int) -> dict:
        return {
            "name": self.name, "n": self.n, "m": self.m, "sets": self.set_ids(),
            "mode": "exhaustive" if self.samples is None else "sample",
            "samples": self.samples, "seed": seed, "workers": 1,
            "notion": "sure", "kind": "weak",
            "labeled_profiles": math.factorial(self.n) ** self.m,
            "anonymous_classes": self.classes,
        }


WORKLOADS = {w.name: w for w in (
    Workload("table-3x9", 3, 9, pool=("plurality", "borda")),
    Workload("table-4x3-all", 4, 3, pool=METHOD_ORDER),
    Workload("sample-5x7", 5, 7, pool=("borda", "hare"), samples=100),
    Workload("direct-3x5-pdict", 3, 5, sets=(
        ("pdict:a,b,0", "borda"), ("pdict:a,b,0", "hare"), ("borda",), ("hare",),
    )),
)}


def report_counts(report: CensusReport) -> Counts:
    return {r.set_id: (r.witness_profiles, r.witness_pointed) for r in report.results}


def frozen_counts(workload: Workload, seed: int) -> Counts | None:
    """Counts frozen from the engine for this exact workload and seed, if any.

    An entry is used only when its n, m, samples and set ids all match, so
    a resized workload never meets stale counts.
    """
    entry = json.loads(EXPECTED_FILE.read_text()).get(workload.name)
    if entry is None or [entry["n"], entry["m"], entry["samples"], entry["sets"]] != [
        workload.n, workload.m, workload.samples, workload.set_ids()
    ]:
        return None
    if workload.samples is None:
        counts = entry["counts"]
    else:
        counts = entry["counts_by_seed"].get(str(seed))
    return None if counts is None else {k: tuple(v) for k, v in counts.items()}


def oracle_counts(workload: Workload, seed: int) -> Counts:
    """Counts by the scalar search: every profile, voter and set through
    ``find_manipulation``, bypassing the census kernel."""
    if workload.samples is None:
        profiles = list(enumerate_profiles(workload.n, workload.m))
    else:
        profiles = sample_profiles(workload.n, workload.m, workload.samples, seed)
    out = {}
    for s in workload.method_sets():
        hit_profiles = hit_pointed = 0
        for p in profiles:
            hits = sum(find_manipulation(p, v, s) is not None for v in range(p.m))
            hit_profiles += hits > 0
            hit_pointed += hits
        out[s.id] = (hit_profiles, hit_pointed)
    return out


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    WORKLOADS[args.probe].build(args.seed)
    print("ready", flush=True)
