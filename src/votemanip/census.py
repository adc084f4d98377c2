"""Exhaustive and sampled censuses of manipulable profiles.

A census fixes (n, m), a manipulation notion, a dominance kind, and one or
more uncertainty sets, then reports for each set how many of the (n!)^m
labeled profiles have at least one witnessing voter, along with the number
of witnessing pointed profiles (profile, voter pairs).  Percentages come
from exact integer counts and are rounded only when displayed.

All eleven base methods and the tiebreak extension are anonymous, so a
profile's winners, and hence every witness verdict, depend only on how
many voters hold each ranking.  An exhaustive census therefore walks the
anonymous classes (multisets of m rankings) rather than the labeled
profiles, weighting each class by the number of labeled profiles in it,
the multinomial m!/(c_1! ... c_k!) for holder counts c_i.  The kernel
works per class:

* batched winners: a class is a row of ranking counts, and each method's
  batched form (``fn.on_counts``, see ``methods``) scores a whole block of
  rows in one numpy call, with blocks kept under ``BLOCK_CELLS`` cells.  An
  exhaustive census scores every class this way before its search; a
  sampled census scores each sampled class's neighbourhood (the class and
  every one-voter switch from it) as it reaches the class, and keeps no
  memo of classes between them;
* outcome ids: the tuple of every universe method's winner set on a class
  is interned, only for the distinct rows of winner bitmasks in a block,
  and each class maps to one small integer id;
* verdict table: whether one voter's ballot switch witnesses the notion
  depends only on the voter's ranking and the outcome ids before and after
  it, so that triple maps, memoized, to a bitmask of the sets witnessed
  (bit s for set s).  A miss folds the per-method dominance flags into
  three universe masks (improves, not_worse, worsens), and a second memo
  keyed by those masks calls ``notion_holds`` once per set.

A voter's search is then one table lookup per alternative ballot, OR-ed
together until every set is hit.  Uncertainty sets containing a method
without a batched form (a pairwise dictator, which is not anonymous, or a
custom ``fn``) take a direct per-profile path over the labeled profiles:
the batched methods' part of each outcome still comes from count blocks,
the other methods run on the profile, and the same per-voter search runs
over the interned outcomes.

Sampling draws each voter's ranking independently and uniformly using
numpy's PCG64 generator; the whole sample stream is materialized up front
from the one seed, so sampled counts depend on the seed alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, islice, product
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import Profile, all_rankings
from .manipulation import UncertaintySet, _validate, notion_holds
from .dominance import dominates_nonstrict, dominates_strict
from .methods import VotingMethod

DEFAULT_BUDGET = 20_000_000
# Cells per batched call: each row of a block costs its n! ranking counts
# plus n*n tally cells for every ranking it can hold.  This keeps each
# call's arrays under a MB whatever n and m are; larger blocks gain little
# time and raise a census's peak RSS.
BLOCK_CELLS = 1 << 16
# A class key stores each ranking's holder count in one byte.
MAX_VOTERS = 255


class BudgetExceededError(RuntimeError):
    """A census that would enumerate more profiles than the budget allows."""


@dataclass(frozen=True)
class CensusSpec:
    """A fully resolved census request."""

    n: int
    m: int
    method_sets: tuple[UncertaintySet, ...]
    notion: str = "sure"
    kind: str = "weak"
    weights: tuple[Fraction, ...] | None = None
    mode: str = "exhaustive"
    samples: int = 0
    seed: int | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one candidate and one voter")
        if self.m > MAX_VOTERS:
            raise ValueError(f"at most {MAX_VOTERS} voters are supported, got {self.m}")
        if not self.method_sets:
            raise ValueError("a census needs at least one uncertainty set")
        ids = [s.id for s in self.method_sets]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate uncertainty sets in census")
        if self.mode not in ("exhaustive", "sample"):
            raise ValueError(f"unknown census mode {self.mode!r}")
        if self.mode == "sample":
            if self.samples < 1:
                raise ValueError("sample mode needs a positive sample count")
            if self.seed is None:
                raise ValueError("sample mode needs an explicit seed")
        normalized = None
        for s in self.method_sets:
            normalized = _validate(self.notion, self.kind, s, self.weights)
        object.__setattr__(self, "weights", normalized)

    @property
    def total(self) -> int:
        if self.mode == "sample":
            return self.samples
        return math.factorial(self.n) ** self.m

    def config(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "sets": [s.id for s in self.method_sets],
            "notion": self.notion,
            "kind": self.kind,
            "weights": None if self.weights is None else [str(w) for w in self.weights],
            "mode": self.mode,
            "samples": self.samples if self.mode == "sample" else None,
            "seed": self.seed if self.mode == "sample" else None,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class CensusResult:
    """Witness counts for one uncertainty set."""

    set_id: str
    notion: str
    kind: str
    n: int
    m: int
    total: int
    witness_profiles: int
    witness_pointed: int

    @property
    def percentage(self) -> float:
        return 100.0 * self.witness_profiles / self.total


@dataclass(frozen=True)
class CensusReport:
    spec: CensusSpec
    results: tuple[CensusResult, ...]

    def by_set(self) -> dict[str, CensusResult]:
        return {r.set_id: r for r in self.results}


# --- profile sources --------------------------------------------------------


def enumerate_profiles(n: int, m: int, budget: int = DEFAULT_BUDGET) -> Iterator[Profile]:
    """All (n!)^m labeled profiles in lexicographic order, voter 0 outermost."""
    total = math.factorial(n) ** m
    if total > budget:
        raise BudgetExceededError(f"{total} profiles exceed the budget of {budget}")
    for combo in product(all_rankings(n), repeat=m):
        yield Profile(combo)


def _sample_rows(n: int, m: int, count: int, seed: int) -> list[list[int]]:
    # One materialized stream per seed keeps sampled censuses reproducible.
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.integers(0, math.factorial(n), size=(count, m), dtype=np.int64)
    return rows.tolist()


def sample_profiles(n: int, m: int, count: int, seed: int) -> list[Profile]:
    """``count`` profiles with each voter's ranking drawn i.i.d. uniformly."""
    if count < 1:
        raise ValueError("sample count must be positive")
    rankings = all_rankings(n)
    return [
        Profile(tuple(rankings[d] for d in row))
        for row in _sample_rows(n, m, count, seed)
    ]


# --- the anonymous-class kernel ----------------------------------------------


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def _bitmask(winners: frozenset[int]) -> int:
    return sum(1 << x for x in winners)


class _ClassKernel:
    """Batched winner evaluation, interned outcomes and a memoized verdict
    table for one census.

    An outcome is the tuple of winner sets of every universe method on one
    profile; each distinct outcome gets a small integer id.  A class is
    given by its ranking counts, ``counts[i]`` being the number of voters
    holding the i-th lexicographic ranking: exactly what an anonymous method
    can see.  ``outcome_ids`` takes a block of such rows and has every
    method with a batched form (``fn.on_counts``) score the whole block in
    one call; only the distinct rows of winner bitmasks are interned.
    Classes are keyed by ``bytes(counts)``.

    An exhaustive census first fills a class-key -> id memo for every class
    (``remember``), block by block, and then looks neighbours up in it.  A
    sampled census keeps no memo: each class's neighbourhood (the class and
    every one-voter switch from it) is scored as one block when the class is
    searched, so memory does not grow with the sample.

    The verdict of a ballot switch depends only on the switching voter's
    ranking and the outcome ids before and after it; ``voter_hits`` looks
    that triple up in a memoized table of bitmasks, bit s set when set s
    is witnessed.
    """

    def __init__(self, spec: CensusSpec) -> None:
        self.notion = spec.notion
        self.kind = spec.kind
        self.weights = spec.weights
        self.rankings = all_rankings(spec.n)
        self.fact = len(self.rankings)
        universe: list[VotingMethod] = []
        seen: dict[str, int] = {}
        members: list[tuple[int, ...]] = []
        for s in spec.method_sets:
            idxs = []
            for f in s:
                if f.id not in seen:
                    seen[f.id] = len(universe)
                    universe.append(f)
                idxs.append(seen[f.id])
            members.append(tuple(idxs))
        self.universe = tuple(universe)
        self.set_members = tuple(members)
        self.full_mask = (1 << len(members)) - 1
        batched = [u for u, f in enumerate(self.universe)
                   if f.anonymous and hasattr(f.fn, "on_counts")]
        self.all_batched = len(batched) == len(self.universe)
        self._on_counts = tuple(self.universe[u].fn.on_counts for u in batched)
        # (universe index, fn) of every method without a batched form
        self._scalar = tuple((u, f.fn) for u, f in enumerate(self.universe)
                             if u not in batched)
        self._block_rows = max(1, BLOCK_CELLS // (
            self.fact + min(spec.m, self.fact) * spec.n ** 2))
        # class key -> outcome id, filled by ``remember`` (exhaustive only)
        self._memo: dict[bytes, int] | None = None
        # outcome id per tuple of winner bitmasks; per id, the bitmasks, the
        # winner sets and the candidate every method elects alone (else -1)
        self._outcome_ids: dict[tuple[int, ...], int] = {}
        self._masks: list[tuple[int, ...]] = []
        self._outcomes: list[tuple[frozenset[int], ...]] = []
        self._sole: list[int] = []
        self._flags: dict[tuple, tuple[bool, bool, bool]] = {}
        # (r_idx, base_id) -> {after_id: witnessed-sets mask}
        self._verdicts: dict[tuple[int, int], dict[int, int]] = {}
        # (improves, not_worse, worsens) universe masks -> witnessed-sets mask
        self._by_flags: dict[tuple[int, int, int], int] = {}

    def _intern(self, masks: tuple[int, ...]) -> int:
        oid = self._outcome_ids.get(masks)
        if oid is None:
            oid = self._outcome_ids[masks] = len(self._outcomes)
            self._masks.append(masks)
            self._outcomes.append(tuple(frozenset(_bits(w)) for w in masks))
            elected = 0
            for w in masks:
                elected |= w
            self._sole.append(elected.bit_length() - 1 if elected & (elected - 1) == 0 else -1)
        return oid

    def outcome_ids(self, rows: np.ndarray) -> np.ndarray:
        """Outcome id per row of a ``(k, n!)`` block of ranking counts.

        When some universe method has no batched form, an id stands for the
        batched methods' part of the outcome only (see ``merge``).
        """
        if not self._on_counts:
            return np.full(len(rows), self._intern(()))
        masks = np.stack([f(rows) for f in self._on_counts], axis=1)
        distinct, inverse = np.unique(masks, axis=0, return_inverse=True)
        ids = np.array([self._intern(tuple(w)) for w in distinct.tolist()])
        return ids[inverse.reshape(-1)]

    def remember(self, keys: Iterable[bytes]) -> Iterable[bytes]:
        """Fills the class memo for ``keys``, one block of classes at a time,
        and returns the keys in their original order."""
        self._memo = memo = {}
        keys = iter(keys)
        while chunk := list(islice(keys, self._block_rows)):
            rows = np.frombuffer(b"".join(chunk), np.uint8).reshape(len(chunk), self.fact)
            memo.update(zip(chunk, self.outcome_ids(rows).tolist()))
        return memo.keys()

    def _neighbourhood(self, key: bytes) -> dict[int, list[int]]:
        """Ranking r held on the class -> outcome id after one holder of r
        switches to r2, for every r2 (r2 == r gives the class itself).

        The switches are scored in blocks of at most ``BLOCK_CELLS`` cells.
        """
        base = np.frombuffer(key, np.uint8)
        held = np.flatnonzero(base)
        switches = np.arange(len(held) * self.fact)
        ids = np.empty(len(switches), dtype=np.int64)
        for lo in range(0, len(switches), self._block_rows):
            s = switches[lo:lo + self._block_rows]
            block = np.repeat(base[None], len(s), axis=0)
            at = np.arange(len(s))
            block[at, held[s // self.fact]] -= 1
            block[at, s % self.fact] += 1
            ids[lo:lo + len(s)] = self.outcome_ids(block)
        return dict(zip(held.tolist(), ids.reshape(len(held), self.fact).tolist()))

    def switch_ids(self, key: bytes) -> tuple[int, Callable[[int], Iterable[int]]]:
        """The class's outcome id, and a map from a ranking r it holds to
        the outcome ids after one holder of r switches to each other
        ranking, in ranking order (lazily, when the class memo is filled).
        """
        memo = self._memo
        if memo is not None:
            return memo[key], lambda r: (
                memo[self.neighbour(key, r, r2)] for r2 in range(self.fact) if r2 != r
            )
        after = self._neighbourhood(key)
        r0 = next(iter(after))
        return after[r0][r0], lambda r: after[r][:r] + after[r][r + 1:]

    def merge(self, part_id: int, profile: Profile) -> int:
        """Id of the whole universe's outcome on ``profile``, given the
        batched methods' part of it; the other methods run on the profile."""
        masks = list(self._masks[part_id])
        for u, fn in self._scalar:
            masks.insert(u, _bitmask(fn(profile)))
        return self._intern(tuple(masks))

    def flag(self, r_idx: int, before: frozenset[int], after: frozenset[int]
             ) -> tuple[bool, bool, bool]:
        """(improves, not_worse, worsens) for a winner-set move, memoized."""
        cache_key = (r_idx, before, after)
        f = self._flags.get(cache_key)
        if f is None:
            ranking = self.rankings[r_idx]
            f = self._flags[cache_key] = (
                dominates_strict(self.kind, after, before, ranking),
                dominates_nonstrict(self.kind, after, before, ranking),
                dominates_strict(self.kind, before, after, ranking),
            )
        return f

    def _verdict(self, r_idx: int, base_id: int, after_id: int) -> int:
        base, after = self._outcomes[base_id], self._outcomes[after_id]
        improves = not_worse = worsens = 0
        for u in range(len(self.universe)):
            imp, nw, wor = self.flag(r_idx, base[u], after[u])
            improves |= imp << u
            not_worse |= nw << u
            worsens |= wor << u
        witnessed = self._by_flags.get((improves, not_worse, worsens))
        if witnessed is None:
            witnessed = 0
            for s, members in enumerate(self.set_members):
                fl = [(improves >> u & 1 == 1, not_worse >> u & 1 == 1,
                       worsens >> u & 1 == 1) for u in members]
                if notion_holds(self.notion, fl, self.weights):
                    witnessed |= 1 << s
            self._by_flags[improves, not_worse, worsens] = witnessed
        return witnessed

    def voter_hits(self, r_idx: int, base_id: int, after_ids: Iterable[int]) -> int:
        """Mask of the sets some switch witnesses for a voter with ranking
        ``r_idx``, given the outcome ids of the voter's alternative ballots.

        ``after_ids`` is consumed lazily and abandoned once every set is hit.
        """
        # No outcome beats a unanimous win for this voter's top candidate,
        # so no notion can be witnessed from here.
        if self._sole[base_id] == self.rankings[r_idx].order[0]:
            return 0
        row = self._verdicts.setdefault((r_idx, base_id), {})
        hits = 0
        for after_id in after_ids:
            v = row.get(after_id)
            if v is None:
                v = row[after_id] = self._verdict(r_idx, base_id, after_id)
            hits |= v
            if hits == self.full_mask:
                break
        return hits

    def neighbour(self, key: bytes, r_idx: int, r2: int) -> bytes:
        """The class reached when one holder of ranking r_idx switches to r2."""
        ba = bytearray(key)
        ba[r_idx] -= 1
        ba[r2] += 1
        return bytes(ba)

    def class_hits(self, key: bytes) -> list[tuple[int, int]]:
        """(witnessed-sets mask, holders) per ranking held on an anonymous class."""
        base_id, after = self.switch_ids(key)
        return [(self.voter_hits(r_idx, base_id, after(r_idx)), cnt)
                for r_idx, cnt in enumerate(key) if cnt]


# --- class sources ----------------------------------------------------------


def _class_keys(n: int, m: int) -> Iterator[bytes]:
    """The key of every anonymous class, a multiset of m rankings."""
    fact = math.factorial(n)
    for combo in combinations_with_replacement(range(fact), m):
        counts = [0] * fact
        for d in combo:
            counts[d] += 1
        yield bytes(counts)


def _weighted(keys: Iterable[bytes], m: int) -> Iterator[tuple[bytes, int]]:
    """(class key, labeled profiles in the class) per key.

    The profiles in a class number m!/(c_1! ... c_k!), where c_i voters
    hold ranking i.
    """
    factorials = [math.factorial(c) for c in range(m + 1)]
    for key in keys:
        yield key, factorials[m] // math.prod([factorials[c] for c in key])


def _class_weights(n: int, m: int) -> Iterator[tuple[bytes, int]]:
    """(class key, labeled profiles in the class) for every anonymous class."""
    return _weighted(_class_keys(n, m), m)


def _count_sample_classes(rows: Sequence[Sequence[int]], fact: int) -> dict[bytes, int]:
    out: dict[bytes, int] = {}
    for row in rows:
        counts = [0] * fact
        for d in row:
            counts[d] += 1
        key = bytes(counts)
        out[key] = out.get(key, 0) + 1
    return out


def _results(spec: CensusSpec,
             weighted_hits: Iterable[tuple[int, list[tuple[int, int]]]]
             ) -> tuple[CensusResult, ...]:
    """Per-set counts from (profile weight, [(voter mask, holders), ...]) rows."""
    nsets = len(spec.method_sets)
    profiles = [0] * nsets
    pointed = [0] * nsets
    for weight, voter_hits in weighted_hits:
        any_hit = 0
        for mask, holders in voter_hits:
            any_hit |= mask
            for s in _bits(mask):
                pointed[s] += weight * holders
        for s in _bits(any_hit):
            profiles[s] += weight
    return tuple(
        CensusResult(
            set_id=s.id, notion=spec.notion, kind=spec.kind, n=spec.n, m=spec.m,
            total=spec.total, witness_profiles=profiles[i], witness_pointed=pointed[i],
        )
        for i, s in enumerate(spec.method_sets)
    )


def _direct_hits(spec: CensusSpec, kernel: _ClassKernel
                 ) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Per-profile rows for censuses with a method that has no batched form
    (a pairwise dictator, or a custom ``fn``)."""
    fact = kernel.fact
    rankings = kernel.rankings
    if spec.mode == "sample":
        rows: Iterable[Sequence[int]] = _sample_rows(spec.n, spec.m, spec.samples, spec.seed)
    else:
        rows = product(range(fact), repeat=spec.m)
        kernel.remember(_class_keys(spec.n, spec.m))
    for digits in rows:
        counts = [0] * fact
        for d in digits:
            counts[d] += 1
        profile = Profile(tuple(rankings[d] for d in digits))
        part_id, after = kernel.switch_ids(bytes(counts))
        base_id = kernel.merge(part_id, profile)
        voter_hits = []
        for voter, r_idx in enumerate(digits):
            others = (r2 for r2 in range(fact) if r2 != r_idx)
            after_ids = (
                kernel.merge(part, profile.replace_ranking(voter, rankings[r2]))
                for part, r2 in zip(after(r_idx), others)
            )
            voter_hits.append((kernel.voter_hits(r_idx, base_id, after_ids), 1))
        yield 1, voter_hits


def run_census(spec: CensusSpec) -> CensusReport:
    """Runs the census described by ``spec``; see the module docstring."""
    if spec.total > spec.budget:
        raise BudgetExceededError(
            f"{spec.total} profiles exceed the budget of {spec.budget}"
        )
    kernel = _ClassKernel(spec)
    if not kernel.all_batched:
        return CensusReport(spec, _results(spec, _direct_hits(spec, kernel)))
    if spec.mode == "sample":
        rows = _sample_rows(spec.n, spec.m, spec.samples, spec.seed)
        classes = _count_sample_classes(rows, kernel.fact).items()
    else:
        classes = _weighted(kernel.remember(_class_keys(spec.n, spec.m)), spec.m)
    return CensusReport(spec, _results(
        spec, ((weight, kernel.class_hits(key)) for key, weight in classes)
    ))


# --- tables and scans over families of sets -----------------------------------


def census_counts(
    sets: Sequence[UncertaintySet],
    n: int,
    m: int,
    notion: str = "sure",
    kind: str = "weak",
    basis: str = "profiles",
    samples: int | None = None,
    seed: int | None = None,
    budget: int | None = None,
) -> dict[str, int]:
    """Set id -> witness count from one census over ``sets``.

    ``basis`` selects witnessing profiles or witnessing pointed profiles;
    the census is sampled when ``samples`` is given, and ``budget`` None
    means ``DEFAULT_BUDGET``.
    """
    if basis not in ("profiles", "pointed"):
        raise ValueError(f"unknown count basis {basis!r}")
    spec = CensusSpec(
        n=n, m=m, method_sets=tuple(sets), notion=notion, kind=kind,
        mode="exhaustive" if samples is None else "sample",
        samples=samples or 0, seed=seed,
        budget=DEFAULT_BUDGET if budget is None else budget,
    )
    return {r.set_id: getattr(r, f"witness_{basis}") for r in run_census(spec).results}


@dataclass(frozen=True)
class PairTable:
    """Census results for all singletons and pairs from a method list."""

    methods: tuple[VotingMethod, ...]
    report: CensusReport

    def cell(self, f: VotingMethod, g: VotingMethod) -> CensusResult:
        wanted = f.id if f.id == g.id else UncertaintySet((f, g)).id
        by_id = self.report.by_set()
        if wanted in by_id:
            return by_id[wanted]
        return by_id[UncertaintySet((g, f)).id]

    def below_both(self, f: VotingMethod, g: VotingMethod) -> bool:
        """True if the pair's count is strictly below both singleton counts."""
        if f.id == g.id:
            return False
        pair = self.cell(f, g).witness_profiles
        return (
            pair < self.cell(f, f).witness_profiles
            and pair < self.cell(g, g).witness_profiles
        )


def pair_table(
    methods: Sequence[VotingMethod],
    n: int,
    m: int,
    notion: str = "sure",
    kind: str = "weak",
    samples: int | None = None,
    seed: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PairTable:
    """One census pass covering every singleton and unordered pair."""
    sets = [UncertaintySet((f,)) for f in methods]
    sets += [UncertaintySet(pair) for pair in combinations(methods, 2)]
    spec = CensusSpec(
        n=n, m=m, method_sets=tuple(sets), notion=notion, kind=kind,
        mode="exhaustive" if samples is None else "sample",
        samples=samples or 0, seed=seed, budget=budget,
    )
    return PairTable(tuple(methods), run_census(spec))


@dataclass(frozen=True)
class EliminationScanReport:
    report: CensusReport
    eliminating: tuple[str, ...]  # set ids with zero witnesses but none below


def elimination_scan(
    methods: Sequence[VotingMethod],
    n: int,
    m: int,
    notion: str = "sure",
    kind: str = "weak",
    max_set_size: int = 2,
    budget: int = DEFAULT_BUDGET,
) -> EliminationScanReport:
    """Finds subsets (up to ``max_set_size``) that eliminate manipulation.

    A set qualifies when it has zero witnessing profiles while every
    nonempty proper subset has at least one; all counts come from a single
    exhaustive census over the whole subset family.
    """
    if max_set_size < 2:
        raise ValueError("a set needs at least two methods to eliminate anything")
    family: list[UncertaintySet] = []
    for size in range(1, max_set_size + 1):
        for combo in combinations(methods, size):
            family.append(UncertaintySet(combo))
    spec = CensusSpec(
        n=n, m=m, method_sets=tuple(family), notion=notion, kind=kind,
        budget=budget,
    )
    report = run_census(spec)
    counts = {r.set_id: r.witness_profiles for r in report.results}
    eliminating = []
    for s in family:
        if len(s) < 2 or counts[s.id] != 0:
            continue
        if all(counts[sub.id] >= 1 for sub in s.subsets()):
            eliminating.append(s.id)
    return EliminationScanReport(report, tuple(eliminating))


# --- serialization -------------------------------------------------------------


CSV_COLUMNS = (
    "set", "notion", "kind", "n", "m", "total",
    "witness_profiles", "witness_pointed", "percentage",
)


def report_csv(report: CensusReport) -> str:
    """CSV rows for a census, preceded by '#' config-echo lines."""
    buf = io.StringIO()
    for k, v in report.spec.config().items():
        buf.write(f"# {k}={v}\n")
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in report.results:
        writer.writerow([
            r.set_id, r.notion, r.kind, r.n, r.m, r.total,
            r.witness_profiles, r.witness_pointed, f"{r.percentage:.4f}",
        ])
    return buf.getvalue()


def report_json(report: CensusReport) -> str:
    doc = {
        "config": report.spec.config(),
        "results": [
            {
                "set": r.set_id,
                "notion": r.notion,
                "kind": r.kind,
                "n": r.n,
                "m": r.m,
                "total": r.total,
                "witness_profiles": r.witness_profiles,
                "witness_pointed": r.witness_pointed,
                "percentage": r.percentage,
            }
            for r in report.results
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
