"""Per-layer spans taken from outside ``src/``.

A :class:`Tracer` swaps timing wrappers in for the public functions the
census engine calls, under the names through which ``census`` and ``core``
look them up, and puts the originals back when its ``with`` block ends.
Methods are timed by building new ``VotingMethod`` objects around their
``fn``; the shared method table is never touched.  No private name of the
package is used, so the tracer survives rewrites of the census kernel.

Each wrapper records calls, inclusive time, and self time (inclusive time
minus the time of spans opened inside it), so nested layers -- a winner
evaluation that builds a pairwise tally -- are not counted twice.  What
the census pass spends outside every wrapper is the census module's own
enumeration, transition loop and aggregation, plus the wrappers' own
bookkeeping, which ``trace.overhead_s`` bounds.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Callable

from votemanip import census, core
from votemanip.methods import VotingMethod

# (module, name, layer) for every function a traced pass wraps.
PATCHED = (
    (census, "notion_holds", "manipulation.verdict"),
    (census, "dominates_strict", "dominance"),
    (census, "dominates_nonstrict", "dominance"),
    (core, "pairwise_tally", "core.tally"),
)


class Layer:
    __slots__ = ("calls", "seconds", "self_seconds", "true")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.true = 0  # calls that returned True (verdicts that witness)


class Tracer:
    """Wrappers and counters for one traced census pass."""

    def __init__(self) -> None:
        self.layers = {name: Layer() for name in
                       ("methods", "core.tally", "manipulation.verdict", "dominance")}
        self.census_seconds = 0.0
        self.census_self_seconds = 0.0
        self._child = 0.0  # time covered by finished spans inside the open one
        self._saved: list[tuple[object, str, Callable]] = []

    def _timed(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def timed(*args):
            outer = tracer._child
            tracer._child = 0.0
            t0 = perf_counter()
            try:
                result = fn(*args)
            finally:
                dt = perf_counter() - t0
                layer.calls += 1
                layer.seconds += dt
                layer.self_seconds += dt - tracer._child
                tracer._child = outer + dt
            if result is True:
                layer.true += 1
            return result

        return timed

    def method(self, f: VotingMethod) -> VotingMethod:
        """A copy of ``f`` whose winner evaluations are timed."""
        return VotingMethod(f.id, self._timed(self.layers["methods"], f.fn), f.anonymous)

    def span(self, census_pass: Callable[[], object]) -> object:
        """Runs one census pass as the root span and returns its result."""
        self._child = 0.0
        t0 = perf_counter()
        result = census_pass()
        self.census_seconds = perf_counter() - t0
        self.census_self_seconds = self.census_seconds - self._child
        return result

    def __enter__(self) -> "Tracer":
        for module, name, layer in PATCHED:
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._timed(self.layers[layer], fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of the pass, named as in BENCHMARK.json."""
        methods, tally = self.layers["methods"], self.layers["core.tally"]
        verdict, dominance = self.layers["manipulation.verdict"], self.layers["dominance"]
        return {
            "census.self_s": self.census_self_seconds,
            "methods.calls": methods.calls,
            "methods.self_s": methods.self_seconds,
            "methods.us_per_call": 1e6 * methods.seconds / max(methods.calls, 1),
            "core.tally_calls": tally.calls,
            "core.tally_s": tally.seconds,
            "manipulation.verdict_calls": verdict.calls,
            "manipulation.verdict_s": verdict.seconds,
            "manipulation.verdict_hit_ratio": verdict.true / max(verdict.calls, 1),
            "dominance.calls": dominance.calls,
            "dominance.s": dominance.seconds,
        }

