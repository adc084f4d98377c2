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

* outcome ids: the tuple of every universe method's winner set on a class
  is interned, and each class key maps to one small integer id;
* verdict table: whether one voter's ballot switch witnesses the notion
  depends only on the voter's ranking and the outcome ids before and after
  it, so that triple maps, memoized, to a bitmask of the sets witnessed
  (bit s for set s).  A miss folds the per-method dominance flags into
  three universe masks (improves, not_worse, worsens), and a second memo
  keyed by those masks calls ``notion_holds`` once per set.

A voter's search is then one table lookup per alternative ballot, OR-ed
together until every set is hit.  Uncertainty sets containing a pairwise
dictator are not anonymous and take a direct per-profile path over the
labeled profiles, which runs the same per-voter search over interned
outcomes.

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
from itertools import combinations, combinations_with_replacement, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import Profile, all_rankings
from .manipulation import UncertaintySet, _validate, notion_holds
from .dominance import dominates_nonstrict, dominates_strict
from .methods import VotingMethod

DEFAULT_BUDGET = 20_000_000
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


class _ClassKernel:
    """Interned outcomes and a memoized verdict table for one census.

    An outcome is the tuple of winner sets of every universe method on one
    profile; each distinct outcome gets a small integer id.  Winners are
    memoized per class key ``bytes(counts)``, where ``counts[i]`` is the
    number of voters holding the i-th lexicographic ranking: exactly the
    information an anonymous method can see.

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
        self.all_anonymous = all(f.anonymous for f in self.universe)
        self._anon = tuple(u for u, f in enumerate(self.universe) if f.anonymous)
        # class key -> id of the anonymous methods' outcome on that class
        self._winners: dict[bytes, int] = {}
        self._outcomes: list[tuple[frozenset[int], ...]] = []
        self._outcome_ids: dict[tuple[frozenset[int], ...], int] = {}
        # per outcome id: the candidate every method elects alone, else -1
        self._sole: list[int] = []
        self._flags: dict[tuple, tuple[bool, bool, bool]] = {}
        # (r_idx, base_id) -> {after_id: witnessed-sets mask}
        self._verdicts: dict[tuple[int, int], dict[int, int]] = {}
        # (improves, not_worse, worsens) universe masks -> witnessed-sets mask
        self._by_flags: dict[tuple[int, int, int], int] = {}

    def _profile_for(self, key: bytes) -> Profile:
        rs: list = []
        for idx, cnt in enumerate(key):
            if cnt:
                rs.extend((self.rankings[idx],) * cnt)
        return Profile(tuple(rs))

    def _intern(self, outcome: tuple[frozenset[int], ...]) -> int:
        oid = self._outcome_ids.get(outcome)
        if oid is None:
            oid = self._outcome_ids[outcome] = len(self._outcomes)
            self._outcomes.append(outcome)
            elected = frozenset().union(*outcome)
            self._sole.append(next(iter(elected)) if len(elected) == 1 else -1)
        return oid

    def outcome_id(self, key: bytes, profile: Profile | None = None) -> int:
        """Id of the universe's winner sets on a class, or on ``profile``.

        The anonymous methods are evaluated once per class; ``profile``,
        any member of the class, is needed only for the others.
        """
        oid = self._winners.get(key)
        if oid is None:
            synthetic = self._profile_for(key)
            oid = self._winners[key] = self._intern(
                tuple(self.universe[u].fn(synthetic) for u in self._anon)
            )
        if self.all_anonymous:
            return oid
        anon = iter(self._outcomes[oid])
        return self._intern(tuple(
            next(anon) if f.anonymous else f.fn(profile) for f in self.universe
        ))

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
        base_id = self.outcome_id(key)
        out = []
        for r_idx, cnt in enumerate(key):
            if cnt:
                after_ids = (self.outcome_id(self.neighbour(key, r_idx, r2))
                             for r2 in range(self.fact) if r2 != r_idx)
                out.append((self.voter_hits(r_idx, base_id, after_ids), cnt))
        return out


# --- class sources ----------------------------------------------------------


def _class_weights(n: int, m: int) -> Iterator[tuple[bytes, int]]:
    """(class key, labeled profiles in the class) for every anonymous class.

    A class is a multiset of m rankings; the profiles in it number
    m!/(c_1! ... c_k!), where c_i voters hold ranking i.
    """
    fact = math.factorial(n)
    factorials = [math.factorial(c) for c in range(m + 1)]
    for combo in combinations_with_replacement(range(fact), m):
        counts = [0] * fact
        for d in combo:
            counts[d] += 1
        yield bytes(counts), factorials[m] // math.prod([factorials[c] for c in counts])


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
    """Per-profile rows for censuses that include non-anonymous methods."""
    fact = kernel.fact
    rankings = kernel.rankings
    if spec.mode == "sample":
        rows: Iterable[Sequence[int]] = _sample_rows(spec.n, spec.m, spec.samples, spec.seed)
    else:
        rows = product(range(fact), repeat=spec.m)
    for digits in rows:
        counts = [0] * fact
        for d in digits:
            counts[d] += 1
        key = bytes(counts)
        profile = Profile(tuple(rankings[d] for d in digits))
        base_id = kernel.outcome_id(key, profile)
        voter_hits = []
        for voter, r_idx in enumerate(digits):
            after_ids = (
                kernel.outcome_id(kernel.neighbour(key, r_idx, r2),
                                  profile.replace_ranking(voter, rankings[r2]))
                for r2 in range(fact) if r2 != r_idx
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
    if not kernel.all_anonymous:
        return CensusReport(spec, _results(spec, _direct_hits(spec, kernel)))
    if spec.mode == "sample":
        rows = _sample_rows(spec.n, spec.m, spec.samples, spec.seed)
        classes = _count_sample_classes(rows, kernel.fact).items()
    else:
        classes = _class_weights(spec.n, spec.m)
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
