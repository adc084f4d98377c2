"""Exhaustive and sampled censuses of manipulable profiles.

A census fixes (n, m), a manipulation notion, a dominance kind, and one or
more uncertainty sets, then reports for each set how many of the (n!)^m
labeled profiles have at least one witnessing voter, along with the number
of witnessing pointed profiles (profile, voter pairs).  Percentages come
from exact integer counts and are rounded only when displayed.

A census scores methods only through their batched forms
(``fn.on_counts``, see ``methods``), and refuses a set with a member that
has none, such as a custom ``fn``.  All eleven base methods and the
tiebreak extension are anonymous, so a profile's winners, and hence every
witness verdict, depend only on how many voters hold each ranking.  A
pairwise dictator ``pdict:x,y,i`` reads voter i alone, so a census works
on partly labeled classes (h, c) rather than labeled profiles: the
rankings h of the labeled voters L and the anonymous class c (a multiset)
of the u = m - |L| others, weighted by the labeled profiles in it, the
multinomial u!/(c_1! ... c_k!) for the others' holder counts c_i.  The
kernel works on arrays, a chunk of classes at a time:

* class ranks: c is a sorted row of u ranking indices, and its colex rank
  sum_i C(a_i + i, i + 1) numbers the C(n! + u - 1, u) classes without
  gaps (``_Colex``); (h, c) is at h's index in base n!, the first labeled
  voter outermost, times that count plus c's rank;
* batched winners: each method's batched form scores a block of classes
  in one numpy call, from sorted rows while u < n! and holder counts
  beyond, in blocks that ``methods._runs`` keeps under ``BLOCK_CELLS``
  cells.  The tuple of every method's winner set on a class is one
  outcome, interned as a small integer id, and an exhaustive census fills
  one id array indexed by class before its walk.  A sampled census meets
  classes that hardly repeat, so it scores each switch as a correction to
  its class's statistics (``methods._Switched``): O(n^2) per switch for
  tallies, O(n) for Borda scores and first or last places, and for Hare
  n - 1 gathers through a table of each class's elimination steps, one
  per candidate set and pair of first places moved, built once per chunk.
  Its classes are scored as null switches (a voter moved from a ranking to
  itself), so Hare's base winners walk that table too.  It scores no switch
  of a holder who cannot gain, whose top candidate every method already
  elects alone, and judges a holder against its distinct outcomes only;
* judge in the walk, count after it: the exhaustive walk visits (h, o) for
  the classes o of u - 1 others.  An unlabeled voter holding r beside o is
  in (h, o + e_r), and the ranks of o's n! such classes are two running
  sums over o's holder counts, so the voter is judged against that row's
  distinct outcomes only.  The walk counts pointed profiles and ORs each
  (o, r)'s witnessed sets into the bitmap of the unit that (o, r) is in,
  a class or an orbit.  One pass after it counts every unit: each labeled
  voter's n! switches reach classes at a fixed stride from its own, and a
  unit counts its weight for each set they or its bitmap hold;
* neutral relabeling: the eleven base methods are neutral (``fn.neutral``):
  relabeling the candidates relabels their winners, and leaves every
  verdict as it is.  So when every method is neutral the census works on
  orbits under relabeling (``_Orbits``): it finds each class's orbit and
  each orbit's size in one relabeling of every class o + e_0, scores one
  class per orbit, relabels each distinct scored outcome once by each of
  the n! relabelings, fills the id array forwards, each scored class
  writing its n! relabelings' ids from that table, judges only the
  identity beside each o, standing for all n! rankings, and ORs its sets
  into the bitmap of o + e_0's orbit; an orbit counts its
  representative's weight times its size: about n! times fewer verdicts,
  scored classes and bitmaps.  A tiebreak order and a pairwise dictator
  are not neutral;
* verdicts: whether one voter's ballot switch witnesses the notion depends
  only on the voter's ranking and the outcomes before and after it.  A
  chunk's switches are reduced to their distinct (ranking, before, after)
  triples.  Every dominance kind compares one place of each winner set
  under the ranking (the best or the worst), so each method's flags
  (improves, not worse, worsens) come from gathers into a table of each
  candidate set's best and worst place under each distinct ranking.  The
  distinct rows of flags are tested against every set's notion at once,
  as sums of the members (or, for a weighted ``expected``, of their
  weights scaled to integers) that improve, are not worse or worsen,
  giving a bitmap of the sets witnessed (set s at bit s % 8 of byte
  s // 8), OR-ed over a voter's alternative ballots;
* aggregation: weights times witnessed-set bits, in int64 while
  (n!)^m * m fits and in exact Python integers beyond.

The exhaustive walk is budgeted by its classes, and sampling by the
profiles it draws, each voter's ranking independently and uniformly from
numpy's PCG64 generator; the whole stream is materialized up front from
the one seed, so sampled counts depend on the seed alone.  Sampling counts
the distinct partly labeled classes drawn, each weighted by its draws.

``census_of`` is the one place a census request is built from sets and
options.  ``family_census`` runs one census over every nonempty subset of
a method list up to size k, and the paper's census-level results are views
of it: ``pair_table`` (k=2), ``elimination_scan`` (k=``max_set_size``),
and ``eliminates`` and ``improves_on_all_subsets`` for one set S (k=|S|).
The elimination rule (no witness for S, at least one for every nonempty
proper subset) has one definition, ``_eliminates``.  ``less_susceptible``
compares two sets from one census.  ``report_csv`` and ``report_json`` use
the config echo and writers that the command line renders with.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import Profile, all_rankings, ranking_orders, ranking_places, set_extremes
from .manipulation import UncertaintySet, _validate, subset_family
# Bound here only for ``censusbench/tracing.py``, which wraps them by name
# on this module: the census's verdicts are array operations and call none
# of them; they stay the reference behind ``find_manipulation``.
from .dominance import dominates_nonstrict, dominates_strict  # noqa: F401
from .manipulation import notion_holds  # noqa: F401
from .methods import VotingMethod, _Counts, _Switched, _rows, _runs

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_BUDGET = 20_000_000
# A count row stores each ranking's holder count in one byte.
MAX_VOTERS = 255
# A census builds tables with a row per ranking: at n = 10 Borda's pair table
# takes 163 MB and a candidate-set table 3.7 GB per kind, and at n = 11 the
# pair table alone would take 2.2 GB.
MAX_CANDIDATES = 10


class BudgetExceededError(RuntimeError):
    """A census that would judge more classes or profiles than the budget allows."""


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
        if self.n > MAX_CANDIDATES:
            raise ValueError(f"at most {MAX_CANDIDATES} candidates are supported, got {self.n}")
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
            if self.seed < 0:
                raise ValueError(f"sample mode needs a non-negative seed, got {self.seed}")
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

    def counts(self, basis: str = "profiles") -> dict[str, int]:
        """Set id -> witnessing profiles, or pointed profiles for ``basis``
        'pointed'."""
        _check_basis(basis)
        return {r.set_id: getattr(r, f"witness_{basis}") for r in self.results}


# --- profile sources --------------------------------------------------------


def enumerate_profiles(n: int, m: int, budget: int = DEFAULT_BUDGET) -> Iterator[Profile]:
    """All (n!)^m labeled profiles in lexicographic order, voter 0 outermost."""
    total = math.factorial(n) ** m
    if total > budget:
        raise BudgetExceededError(f"{total} profiles exceed the budget of {budget}")
    for combo in product(all_rankings(n), repeat=m):
        yield Profile(combo)


def _sample_rows(n: int, m: int, count: int, seed: int) -> np.ndarray:
    # One materialized stream per seed keeps sampled censuses reproducible.
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, math.factorial(n), size=(count, m), dtype=np.int64)


def sample_profiles(n: int, m: int, count: int, seed: int) -> list[Profile]:
    """``count`` profiles with each voter's ranking drawn i.i.d. uniformly."""
    if count < 1:
        raise ValueError("sample count must be positive")
    rankings = all_rankings(n)
    return [
        Profile(tuple(rankings[d] for d in row))
        for row in _sample_rows(n, m, count, seed).tolist()
    ]


# --- the anonymous-class kernel ----------------------------------------------


def _counts(classes: np.ndarray, fact: int) -> np.ndarray:
    """``(k, fact)`` holder counts, one byte each, of k profiles or classes
    given by their voters' ranking indices."""
    k = len(classes)
    cells = np.arange(k)[:, None] * fact + classes
    return np.bincount(cells.ravel(), minlength=k * fact).reshape(k, fact).astype(np.uint8)


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An index of one row of each distinct row of a 2-D array of
    nonnegative integers, the distinct rows in ``np.unique(axis=0)``'s
    order, and each row's distinct row.  Rows are compared as their
    big-endian bytes, which order them so: as opaque byte strings, which
    sort far faster than ``np.unique(axis=0)``, and as one integer when a
    row fits in eight bytes.  Integers that span at most a few times as
    many values as there are rows need no sort: the distinct ones are the
    marked cells of a table over the span, numbered in order."""
    a = np.ascontiguousarray(a, a.dtype.newbyteorder(">"))
    width = a.itemsize * a.shape[1]
    if width > 8:
        rows = a.view(np.dtype((np.void, width))).ravel()
    else:  # a word of 1, 2, 4 or 8 bytes, zeros ahead of the row's
        size = 1 << (width - 1).bit_length()
        if size != width:
            a = np.c_[np.zeros((len(a), size - width), np.uint8), a.view(np.uint8)]
        rows = a.view(f">u{size}").ravel().astype(np.uint64)
        if len(rows) and int(rows.max() - rows.min()) < 8 * len(rows):
            at = (rows - rows.min()).astype(np.intp)
            seen = np.zeros(at.max() + 1, bool)
            seen[at] = True
            distinct = np.flatnonzero(seen)
            number = np.empty(len(seen), np.intp)
            number[distinct] = np.arange(len(distinct))
            inverse = number[at]
            index = np.empty(len(distinct), np.intp)
            index[inverse] = np.arange(len(rows))
            return index, inverse
    _, index, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return index, inverse.reshape(-1)


def _filled(total: int, cells: int, block: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``block`` of each run of indices below ``total`` (``_runs``, an
    index costing ``cells``), in one array of the narrowest unsigned type
    that holds every value so far."""
    out = np.empty(total, np.uint8)
    for run in _runs(total, cells):
        part = block(np.arange(run.start, run.stop))
        out = out.astype(np.promote_types(out.dtype, np.min_scalar_type(part.max())), copy=False)
        out[run] = part
    return out


class _Colex:
    """The anonymous classes at (n, m) in colex order.

    A class is a sorted row a_0 <= ... <= a_{m-1} of ranking indices below
    ``fact`` = n!, and its rank sum_i C(a_i + i, i + 1) runs over every number
    below C(fact + m - 1, m).  Counted by rankings instead, with s_v voters
    holding a ranking below v, the same rank is the last rank minus
    sum_v C(v + s_v - 1, v) over v >= 1.  Adding a voter with ranking v to a
    class of m - 1 voters (``others``) leaves s_w as it is for w <= v and
    adds one for w > v, so the ranks of all fact classes it can reach are
    two running sums over the smaller class's rankings (``added_ranks``).

    A class is handed around as a sorted row (``rows``) while m < n! and as
    holder counts (``unrank``) beyond, whichever has fewer cells: ``width``
    of them.  ``sorted`` states that form, and only this class reads it:
    ``at``, ``weights_of``, ``block``, ``with_identity``, ``held`` and
    ``relabeled`` work in it.
    """

    def __init__(self, n: int, m: int) -> None:
        self.n, self.m = n, m
        self.fact = fact = math.factorial(n)
        self.sorted = m < fact
        self.width = min(m, fact)
        self.classes = math.comb(fact + m - 1, m)
        # term[i, v]: the rank term of ranking v at place i of a sorted row
        self.term = np.array([[math.comb(v + i, i + 1) for v in range(fact)]
                              for i in range(m)], np.int64).reshape(m, fact)
        # below[v, s]: the term of ranking v with s voters below it
        self.below = np.array([[math.comb(v + s - 1, v) if v else 0 for s in range(m + 1)]
                               for v in range(fact)], np.int64)
        # int64 while every weight, at most fact^m, and every binomial, at
        # most 2^m, fits, and exact Python integers beyond
        self.binomial = np.array([[math.comb(a, b) for b in range(m + 1)]
                                  for a in range(m + 1)],
                                 np.int64 if max(2, fact) ** m < 2 ** 63 else object)

    def weights(self, counts: np.ndarray) -> np.ndarray:
        """m!/(c_1! ... c_k!) per row of holder counts c_i, exact: the labeled
        profiles in each class."""
        row, r = np.nonzero(counts)
        return self._multinomial(len(counts), row, counts[row, r])

    def weights_of(self, classes: np.ndarray) -> np.ndarray:
        """``weights`` of classes in this colex's form: holder counts, or
        sorted rows, whose holders of a ranking are a run of equal places."""
        if not self.sorted:
            return self.weights(classes)
        end = np.ones(classes.shape, bool)  # the last place of each run
        end[:, :-1] = classes[:, 1:] != classes[:, :-1]
        row, place = np.nonzero(end)
        # a run's holders: its last place less the row's previous run's
        first = np.diff(row, prepend=-1) != 0
        return self._multinomial(len(classes), row,
                                 place - np.where(first, -1, np.r_[-1, place[:-1]]))

    def _multinomial(self, k: int, row: np.ndarray, held: np.ndarray) -> np.ndarray:
        """Per row of k, the product of C(e_i, c_i) over its held rankings'
        holder counts c_i, in ranking order, e_i their running sum: 1 for
        the one empty class."""
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        upto = np.cumsum(held, dtype=np.int64)  # then less the rows before
        upto -= np.repeat(upto[starts] - held[starts], np.diff(np.r_[starts, len(row)]))
        weights = np.ones(k, self.binomial.dtype)
        weights[row[starts]] = np.multiply.reduceat(self.binomial[upto, held], starts)
        return weights

    def _cells(self, counts: np.ndarray) -> np.ndarray:
        """Per row of holder counts, each ranking v's cell below[v, s_v] of
        the flat ``below``, s_v voters of the row below v."""
        s = np.cumsum(counts, axis=1, dtype=np.int64)
        s -= counts
        s += np.arange(0, self.below.size, self.m + 1)
        return s

    def rank(self, counts: np.ndarray) -> np.ndarray:
        """The rank of the class of each row of holder counts."""
        return self.classes - 1 - self.below.take(self._cells(counts)).sum(axis=1)

    def rows(self, ranks: np.ndarray) -> np.ndarray:
        """``(len(ranks), m)`` sorted rows of the classes: each place, last
        first, takes the largest ranking whose term fits in what is left of
        the rank."""
        classes = np.empty((len(ranks), self.m), np.int64)
        left = ranks.copy()
        for i in range(self.m - 1, -1, -1):
            classes[:, i] = np.searchsorted(self.term[i], left, side="right") - 1
            left -= self.term[i, classes[:, i]]
        return classes

    def unrank(self, ranks: np.ndarray) -> np.ndarray:
        """``(len(ranks), fact)`` holder counts of the classes: by ``rows``
        while m < n!, and otherwise ranking by ranking, each ranking v from
        the last taking the most voters below it, s_v, whose term
        C(v + s_v - 1, v) fits in what is left of the last rank less the
        rank: n! - 1 steps in place of m."""
        if self.sorted:
            return _counts(self.rows(ranks), self.fact)
        below = np.empty((len(ranks), self.fact + 1), np.int64)
        below[:, 0], below[:, self.fact] = 0, self.m
        left = self.classes - 1 - ranks
        for v in range(self.fact - 1, 0, -1):
            below[:, v] = np.searchsorted(self.below[v], left, side="right") - 1
            left -= self.below[v, below[:, v]]
        return np.diff(below, axis=1).astype(np.uint8)

    def at(self, ranks: np.ndarray) -> np.ndarray:
        """The classes at ``ranks``, in this colex's form."""
        return self.rows(ranks) if self.sorted else self.unrank(ranks)

    def added_ranks(self, others: np.ndarray) -> np.ndarray:
        """``(len(others), fact)``: the rank of the class reached when a voter
        holding each ranking v joins each row of holder counts of m - 1
        voters: the last rank less the terms of the rankings w <= v and,
        with one more voter below, of those past v.  Built in place, in
        about three int64 rows of fact per row of ``others``."""
        s = self._cells(others)
        at = self.below.take(s)
        s += 1  # one more voter below
        # in place: with "clip", which no cell needs, take writes ``out``
        # unbuffered, reading each index before it writes that cell
        past = self.below.take(s, out=s, mode="clip")
        last = self.classes - 1 - past.sum(axis=1, keepdims=True)
        np.cumsum(past, axis=1, out=past)
        past -= np.cumsum(at, axis=1, out=at)
        past += last
        return past

    @cached_property
    def others(self) -> _Colex:
        """The classes of m - 1 voters (of none when m = 0)."""
        return _Colex(self.n, max(self.m - 1, 0))

    def block(self, classes: np.ndarray, held: dict[int, np.ndarray] | None = None) -> _Counts:
        """The ``_Counts`` of classes in this colex's form beside labeled
        voters, ``held[v]`` voter v's ranking index per class: a sorted row
        passes one entry per voter, and holder counts their nonzeros."""
        held = held or {}
        labeled = np.array(list(held.values()), np.int64).reshape(len(held), len(classes)).T
        if not self.sorted:
            return _Counts.of(self.n, classes + _counts(labeled, self.fact), held)
        rows = np.c_[labeled, classes]
        return _Counts(self.n, len(rows), np.repeat(np.arange(len(rows)), rows.shape[1]),
                       rows.ravel(), np.ones(rows.size), held)

    def with_identity(self, o: np.ndarray) -> np.ndarray:
        """o + e_0 for the classes at ``o`` in ``others``: their sorted rows
        with ranking 0 prepended, or their holder counts with one more
        holder of ranking 0."""
        if self.sorted:
            return np.c_[np.zeros(len(o), np.int64), self.others.rows(o)]
        counts = self.others.unrank(o)
        counts[:, 0] += 1
        return counts

    def held(self, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A row of rankings per class that holds the identity, the identity
        first, and which of them the class holds: its sorted row, or every
        ranking."""
        if self.sorted:
            return classes, np.ones(classes.shape, bool)
        return np.broadcast_to(np.arange(self.fact), classes.shape), classes != 0

    @cached_property
    def inverse(self) -> np.ndarray:
        """Per ranking r, the ranking whose order is r's places: sigma_r of
        the identity."""
        return _relabeled(self.n, np.arange(self.fact), 0)

    def relabeled(self, classes: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The rank of sigma_r(o + e_0) = sigma_r(o) + e_{inverse[r]} for
        classes o + e_0 in ``with_identity``'s form and each ranking r of a
        ``(len(classes), j)`` array.  Sorted rows relabel only o's m - 1
        voters, one by one; holder counts gather every (class, r) row's
        counts at once, from the columns that the relabeling moves to each
        column."""
        image = self.inverse[r]
        if self.sorted:
            rows = np.sort(np.concatenate(
                [image[..., None], _relabeled(self.n, r[..., None], classes[:, None, 1:])], axis=-1))
            at = np.zeros(r.shape, np.int64)
            for i in range(self.m):
                at += self.term[i].take(rows[..., i])
            return at
        # column p of sigma_r(c) is column sigma_r^-1(p) of c, and sigma_r^-1
        # is the relabeling by inverse[r]
        back = _relabeled(self.n, image[..., None], np.arange(self.fact))
        counts = classes.take(np.arange(len(classes))[:, None, None] * self.fact + back)
        return self.rank(counts.reshape(-1, self.fact)).reshape(r.shape)


# Relabeling each candidate x by its place in ranking r takes r to the
# identity, ranking index 0; a neutral census judges a holder of r as the
# identity holder of the relabeled class.  Up to n = 6 the relabeled
# indices come from an n! x n! table built on first use (518,400 entries
# at n = 6); at n = 7 such a table would hold 5,040^2 entries, so beyond
# n = 6 each is computed.
TABLE_CANDIDATES = 6


def _relabeled(n: int, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The index of ranking q once candidates are relabeled by their place
    in ranking r, elementwise over the broadcast of ``r`` and ``q``."""
    if n <= TABLE_CANDIDATES:
        table = _relabel_table(n)
        # in intp, as the table, and so indices read from it, may be narrow
        return table.ravel().take(np.multiply(r, len(table), dtype=np.intp) + q)
    return _lehmer(n, r, q)


@lru_cache(maxsize=None)
def _relabel_table(n: int) -> np.ndarray:
    """``(n!, n!)``: entry [r, q] is ``_relabeled(n, r, q)``, in the
    narrowest unsigned type, computed in runs of rows (``_runs``), a row
    costing n places per entry."""
    fact = math.factorial(n)
    table = np.empty((fact, fact), np.min_scalar_type(fact - 1))
    every = np.arange(fact)
    for run in _runs(fact, fact * n):
        table[run] = _lehmer(n, every[run, None], every)
    return table


def _lehmer(n: int, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``_relabeled`` from positions, O(n) per entry: the relabeled order
    is ranking r's place of each candidate of q, best first, and its
    lexicographic index is its Lehmer code, place i counting the later
    entries below it (n - 1 - i)! times: its entry less the earlier
    entries below it, the set bits below it in a mask of those seen."""
    order = ranking_places(n)[np.asarray(r)[..., None], ranking_orders(n)[q]]
    ones = np.zeros(1 << n, np.int64)  # ones[s]: the set bits of s
    for b in range(n):
        ones[1 << b:2 << b] = ones[:1 << b] + 1
    index, seen = np.zeros(order.shape[:-1], np.int64), np.zeros(order.shape[:-1], np.int64)
    for i in range(n - 1):
        place = order[..., i].astype(np.int64)
        bit = 1 << place
        index += (place - ones[seen & (bit - 1)]) * math.factorial(n - 1 - i)
        seen |= bit
    return index


class _Outcomes:
    """Interned outcomes.  An outcome is the tuple of winner bitmasks of
    some methods on one profile; each distinct one gets a small integer id,
    in the order first met, and is kept once: as its key in ``_ids``, whose
    insertion order is id order."""

    def __init__(self) -> None:
        self._ids: dict[tuple[int, ...], int] = {}
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    def ids(self, masks: np.ndarray) -> np.ndarray:
        """Id per row of a ``(k, methods)`` array of winner bitmasks, compared
        in the narrowest unsigned type that holds them."""
        index, inverse = _distinct_rows(masks.astype(np.min_scalar_type(masks.max(initial=0))))
        ids = np.array([self._ids.setdefault(tuple(w), len(self._ids))
                        for w in masks[index].tolist()], np.int32)
        return ids[inverse]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(ids, methods)`` winner bitmasks, in the narrowest unsigned
        type that holds them, and per id the union of its winner sets;
        built again once ``ids`` has added outcomes."""
        if self._arrays is None or len(self._arrays[0]) != len(self._ids):
            masks = np.array(list(self._ids), np.int64)
            masks = masks.astype(np.min_scalar_type(masks.max(initial=0)))
            self._arrays = masks, np.bitwise_or.reduce(masks, axis=1)
        return self._arrays


class _ClassKernel:
    """Batched winner evaluation, interned outcomes and the array verdict
    pass of one census.

    A class is given by its ranking counts, ``counts[i]`` being the number
    of voters holding the i-th lexicographic ranking: exactly what an
    anonymous method can see, beside the ranking of each ``labeled``
    voter: those a pairwise dictator reads (``fn.voter``).  Every method
    is scored through its batched form (``fn.on_counts``), and a universe
    with a member that has none is refused.  ``class_ids`` scores every
    class of an exhaustive census, each block of rows in one ``_Counts``
    that every method's batched form scores in one call; only the distinct
    rows of winner bitmasks are interned, in ``outcomes``.  When every
    method is neutral, ``_Orbits.class_ids`` scores one class per orbit
    under candidate relabeling in its place.  For sampling,
    ``neighbourhood`` scores the switches of a chunk's holders who can
    gain as ``_Switched`` blocks over one ``_Counts`` of its classes.

    ``hits`` takes, per holder ranking, the outcome before its switches and
    the outcomes they reach, and returns the sets some switch witnesses, as
    byte bitmaps (set s at bit s % 8 of byte s // 8).  It judges the
    distinct (ranking, before, after) triples with arrays alone:
    ``_dominance`` reads every method's flags from a table of each
    candidate set's best and worst place under each distinct ranking
    (``core.set_extremes``, rankings x 2^n cells), and ``_witnesses``
    tests every set's notion on the distinct rows of flags against a set x
    method matrix of member weights (``_weight``).

    ``neutral``: every method is neutral (``fn.neutral``), so relabeling
    the candidates of a class relabels its winners, and relabeling those of
    a switch leaves its verdict as it is.
    """

    def __init__(self, spec: CensusSpec) -> None:
        self.notion = spec.notion
        self.kind = spec.kind
        self.n = spec.n
        self.m = spec.m
        self.fact = math.factorial(spec.n)
        universe: list[VotingMethod] = []
        seen: dict[str, int] = {}
        members: list[list[int]] = []
        for s in spec.method_sets:
            idxs = []
            for f in s:
                if f.id not in seen:
                    seen[f.id] = len(universe)
                    universe.append(f)
                idxs.append(seen[f.id])
            members.append(idxs)
        self.universe = tuple(universe)
        self.words = -(-len(members) // 64)  # uint64 words per set mask
        self.nbytes = -(-len(members) // 8)  # bytes per set bitmap
        scalar = [f.id for f in self.universe if not hasattr(f.fn, "on_counts")]
        if scalar:
            raise ValueError(f"a census needs a batched form (fn.on_counts), and "
                             f"{', '.join(scalar)} has none")
        # the labeled voters: those a pairwise dictator reads
        labeled = {f.fn.voter for f in self.universe if hasattr(f.fn, "voter")}
        if max(labeled, default=0) >= spec.m:
            raise ValueError(f"pairwise dictator voter {max(labeled)} out of range "
                             f"for {spec.m} voters")
        self.labeled = tuple(sorted(labeled))
        # an exhaustive census's partly labeled classes, before any n!-sized table
        u = spec.m - len(self.labeled)
        self.classes = self.fact ** len(self.labeled) * math.comb(self.fact + u - 1, u)
        # no neutral method reads a voter, so nothing is labeled then
        self.neutral = all(getattr(f.fn, "neutral", False) for f in self.universe)
        # place value of each labeled voter's ranking in h's index in base n!
        self.place = self.fact ** np.arange(len(self.labeled) - 1, -1, -1)
        # A switched row holds n scores or places and a winner mask per
        # method, or n*n tallies and n places when some method reads
        # tallies (a pairwise one).
        pairwise = any(getattr(f.fn, "pairwise", False) for f in self.universe)
        self._switch_cells = spec.n ** 2 + spec.n if pairwise else spec.n + len(self.universe)
        self.outcomes = _Outcomes()
        # set x universe method: 1 per member, or for a weighted ``expected``
        # each member's weight times the common denominator, so that sums
        # of weights compare as exact integers
        scale = math.lcm(*(w.denominator for w in spec.weights)) if spec.weights else 1
        # A set's weights sum to ``scale`` (or to its size), so every sum is an
        # integer below it: exact in float64, whose matmuls run on BLAS, below
        # 2^53, and in Python integers beyond.
        self._weight = np.zeros((len(members), len(universe)),
                                np.float64 if scale < 2 ** 53 else object)
        for s, idxs in enumerate(members):
            self._weight[s, idxs] = (
                [int(w * scale) for w in spec.weights] if spec.weights else 1)
        self._size = self._weight.sum(axis=1)

    def chunk_cells(self, pairs: int, width: int | None = None, own: int = 0) -> int:
        """Cells per class of a search chunk when each has up to ``pairs``
        holders, each judged against ``width`` outcomes (every ranking by
        default), and ``own`` cells of its own arrays."""
        width = self.fact if width is None else width
        return own + pairs * (width * len(self.universe) + self.m)

    def block_cells(self, colex: _Colex) -> int:
        """Cells per class of a scored block of ``colex``: n*n tally cells
        of its own and n*n for each labeled voter and each of its up to
        ``colex.width`` other entries."""
        return (len(self.labeled) + colex.width + 1) * self.n ** 2

    def _score(self, block: _Counts | _Switched) -> np.ndarray:
        """Outcome id per row of a block that every method shares."""
        return self.outcomes.ids(np.stack([f.fn.on_counts(block) for f in self.universe], axis=1))

    def class_ids(self, colex: _Colex) -> np.ndarray:
        """The outcome id of every class (h, c), at h's index in base n!
        times ``colex.classes`` plus c's rank, scored in runs of classes
        (``block_cells``), in ``colex``'s form: from sorted rows while
        u < n!, so that no n!-wide row is built."""
        def score(index: np.ndarray) -> np.ndarray:
            point, rank = np.divmod(index, colex.classes)
            held = point[:, None] // self.place % self.fact
            return self._score(colex.block(colex.at(rank), dict(zip(self.labeled, held.T))))
        return _filled(self.classes, self.block_cells(colex), score)

    def neighbourhood(self, held: np.ndarray, rest: np.ndarray) -> tuple:
        """The holders of a chunk of sampled classes, given by the ranking
        index of each labeled voter (``held[:, j]`` for voter ``labeled[j]``)
        and the ranking counts of the other voters (``rest``): per holder
        its row, its holders and the sets its switches witness.

        A labeled voter is a holder of its own; the other voters holding a
        ranking are one holder.  No id array holds the classes the switches
        reach, so each is scored as a correction to its class's statistics,
        a labeled voter's switch also moving what that voter holds.  The
        classes are scored first, as null switches (ranking 0 to ranking 0),
        so Hare walks the step table that the switches build anyway.  Only
        the switches of holders who can gain (``_can_gain``) are scored, and
        ``hits`` is given each one's distinct outcomes, a handful of n!.
        """
        k, size = held.shape
        base = _Counts.of(self.n, rest + _counts(held, self.fact), dict(zip(self.labeled, held.T)))
        # a column per labeled voter, then one per ranking the others hold
        holders = np.c_[np.ones((k, size), np.uint8), rest]
        row, col = np.nonzero(holders)
        r = np.c_[held, np.broadcast_to(np.arange(self.fact), (k, self.fact))][row, col]
        stay = np.zeros(k, np.intp)
        before = self._score(_Switched(base, np.arange(k), stay, stay))[row]
        gain = np.flatnonzero(self._can_gain(r, before))
        voter = np.array(self.labeled + (-1,) * self.fact)[col[gain]]
        after = np.empty(len(gain) * self.fact, np.int32)
        for run in _runs(len(after), self._switch_cells):
            pair, r2 = np.divmod(np.arange(run.start, run.stop), self.fact)
            after[run] = self._score(
                _Switched(base, row[gain[pair]], r[gain[pair]], r2, voter[pair]))
        hits = np.zeros((len(r), self.nbytes), np.uint8)
        hits[gain] = self.hits(r[gain], before[gain],
                               _distinct_per_row(after.reshape(len(gain), self.fact)))
        return row, holders[row, col], hits

    def _can_gain(self, r: np.ndarray, base: np.ndarray) -> np.ndarray:
        """Whether a voter with ranking ``r[j]`` facing outcome ``base[j]``
        might gain by a switch: not when every method elects the voter's
        top candidate alone, since no outcome beats that under any kind."""
        top = 1 << ranking_orders(self.n)[r, 0].astype(np.int64)
        return self.outcomes.arrays()[1][base] != top

    def hits(self, r: np.ndarray, base: np.ndarray, after: np.ndarray) -> np.ndarray:
        """``(len(r), bytes)`` set bitmaps, set s at bit s % 8 of byte
        s // 8: the sets witnessed by some switch of a voter with ranking
        ``r[j]`` that takes outcome ``base[j]`` to one of ``after[j]``:
        any row holding each outcome the voter can reach, such as a class
        walk's or a sampled holder's distinct ones (``_distinct_per_row``).

        Only the distinct (ranking, before, after) triples are judged.  An
        unchanged outcome witnesses nothing, and neither does any switch
        of a voter who cannot gain (``_can_gain``).
        """
        masks = self.outcomes.arrays()[0]
        words = np.zeros((len(r), self.words), np.uint64)
        live = (after != base[:, None]) & self._can_gain(r, base)[:, None]
        pair, col = np.nonzero(live)
        if len(pair):
            ids = len(masks)
            triples, inverse = np.unique(
                (r[pair] * ids + base[pair]) * ids + after[pair, col], return_inverse=True)
            rb, after_id = np.divmod(triples, ids)
            r_idx, base_id = np.divmod(rb, ids)
            hit = self._verdicts(r_idx, masks[base_id], masks[after_id])[inverse.reshape(-1)]
            starts = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]])
            words[pair[starts]] = np.bitwise_or.reduceat(hit, starts, axis=0)
        return words.astype("<u8", copy=False).view(np.uint8)[:, :self.nbytes]

    def _verdicts(self, r_idx: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
        """Witnessed-set words per triple, from per-method winner bitmasks:
        each distinct row of dominance flags is judged once."""
        moves = self._dominance(r_idx, before, after)
        index, inverse = _distinct_rows(np.packbits(moves.reshape(len(moves), -1), axis=1))
        # products in runs of rows, a row costing its flag per method and its
        # sum per set
        return np.concatenate([self._witnesses(moves[index[run]]) for run in
                               _runs(len(index), len(self.universe) + len(self._weight))])[inverse]

    def _dominance(self, r_idx: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
        """``(triples, 3, methods)`` bool: whether each method's move from
        ``before`` to ``after`` improves the outcome for a voter with ranking
        ``r_idx``, leaves it not worse, and worsens it.

        Under one ranking each kind compares a place of one winner set with
        a place of the other: X is at least as good as Y for ``weak`` when
        X's worst place is not below Y's best place, for ``opt`` when its
        best place is not below Y's, and for ``pes`` when its worst place
        is not below Y's.  X is strictly better when, in addition, X and Y
        differ (``weak``), or when the compared places differ (the others).
        """
        rankings, ri = np.unique(r_idx, return_inverse=True)
        places = ranking_places(self.n)[rankings].T
        best, worst = set_extremes(places, False), set_extremes(places, True)
        first, second = {"weak": (worst, best), "opt": (best, best), "pes": (worst, worst)}[self.kind]
        # cell [A, i] of the tables, in int64 as the masks are narrow
        b, a = (masks.astype(np.int64) * len(rankings) + ri.reshape(-1, 1)
                for masks in (before, after))
        a1, a2, b1, b2 = first.take(a), second.take(a), first.take(b), second.take(b)
        not_worse = a1 <= b2
        if self.kind == "weak":
            moved = before != after
            improves, worsens = not_worse & moved, (b1 <= a2) & moved
        else:
            improves, worsens = a1 < b2, b1 < a2
        return np.stack((improves, not_worse, worsens), axis=1)

    def _witnesses(self, moves: np.ndarray) -> np.ndarray:
        """Witnessed-set words per ``(3, methods)`` row of dominance flags
        (improves, not worse, worsens), as ``_dominance`` gives them."""
        improves, not_worse, worsens = moves[:, 0], moves[:, 1], moves[:, 2]
        gain = improves @ self._weight.T  # members, or weight, improving per set
        if self.notion in ("sure", "single"):
            holds = gain == self._size
        elif self.notion == "safe":
            holds = (not_worse @ self._weight.T == self._size) & (gain > 0)
        elif self.notion == "harmless":
            holds = (worsens @ self._weight.T == 0) & (gain > 0)
        else:  # expected
            holds = gain > worsens @ self._weight.T
        words = np.zeros((len(moves), 8 * self.words), np.uint8)
        packed = np.packbits(holds, axis=1, bitorder="little")
        words[:, :packed.shape[1]] = packed
        return words.view("<u8").astype(np.uint64)


# --- census passes ----------------------------------------------------------
#
# Each pass yields chunks of (weights, set bits) for witnessing profiles and
# again for witnessing pointed profiles, which ``_results`` sums.


def _distinct_per_row(a: np.ndarray) -> np.ndarray:
    """Each row's distinct values, as wide as the row with the most; a
    shorter row is padded with repeats of its own values."""
    a = np.sort(a, axis=1)
    repeat = np.zeros(a.shape, bool)
    repeat[:, 1:] = a[:, 1:] == a[:, :-1]
    width = a.shape[1] - repeat.sum(axis=1).min(initial=a.shape[1])  # 0 with no rows
    return np.take_along_axis(a, np.argsort(repeat, axis=1, kind="stable")[:, :width], axis=1)


class _Orbits:
    """The anonymous classes of m voters in orbits under candidate
    relabeling, for a census whose methods are all neutral.

    Relabeling acts freely and transitively on rankings: one relabeling,
    sigma_r, each candidate to its place in r, takes ranking r to the
    identity (ranking 0).  So the members of the orbit of c = o + e_0 that
    hold the identity are sigma_r(c) for the rankings r that c holds, and
    ``colex.relabeled`` gives their ranks.  The orbit's representative R
    is the least of them, o* + e_0, and the relabelings that fix c are the
    distinct held rankings that reach c itself, so its orbit has n!/that
    many classes (``canonical``).  Each R is scored, each distinct scored
    outcome is relabeled once by each of the n! relabelings, and each R
    writes the ids of its n! relabelings sigma_r(R), one gather each from
    that table (``class_ids``).
    """

    def __init__(self, colex: _Colex) -> None:
        self.colex, self.others = colex, colex.others

    def canonical(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per class o of ``others``, the index of o + e_0's orbit among the
        representatives, as the key of its bitmap in the walk; the ranks in
        ``others`` of the representatives' o*, ascending; and their orbits'
        sizes, n!/|Stab(R)|, in the narrowest unsigned type."""
        colex, fact, total = self.colex, self.colex.fact, self.others.classes
        key = np.empty(total, np.min_scalar_type(colex.classes - 1))
        reps, sizes = [], []
        for run in _runs(total, colex.width ** 2):
            o = np.arange(run.start, run.stop)
            classes = colex.with_identity(o)
            r, holds = colex.held(classes)
            images = colex.relabeled(classes, r)  # column 0, sigma_0, is o + e_0 itself
            least = key[o] = np.where(holds, images, colex.classes).min(axis=1)
            rep = least == images[:, 0]
            reps.append(o[rep])
            # Stab(R): the held rankings whose relabeling gives R back, each
            # held as often as the identity, which it takes to the identity
            fixed = ((images == images[:, :1]) & holds).sum(axis=1)
            sizes.append((fact * (r == 0).sum(axis=1) // fixed)[rep])
        reps = np.concatenate(reps)
        ranks = key[reps]  # R's own rank, ascending as o + e_0's rank is in o
        for run in _runs(total, colex.width ** 2):
            key[run] = np.searchsorted(ranks, key[run])
        return key, reps, np.concatenate(sizes).astype(np.min_scalar_type(fact))

    def class_ids(self, kernel: _ClassKernel, reps: np.ndarray) -> np.ndarray:
        """The outcome id of every class, by its rank in ``colex``, from
        ``canonical``'s representatives.  Only they are scored, in runs of
        classes (``_ClassKernel.block_cells``).  Then each representative R
        writes the ids of its n! relabelings: sigma_r moves R's winner y to
        candidate order[inverse[r]][y], so sigma_r(R)'s id is one gather
        from ``moved``, the table of every scored outcome relabeled by
        every ranking.  A class of an orbit of s classes is written n!/s
        times, with one id."""
        colex = self.colex
        scored = _filled(len(reps), kernel.block_cells(colex),
                         lambda i: kernel._score(colex.block(colex.with_identity(reps[i]))))
        moved = self.moved(kernel)
        ids = np.empty(colex.classes, moved.dtype)
        # per (R, r) pair its image's row and, past the relabel table, a
        # Lehmer code's n places; a run's few R are unranked once
        for run in _runs(len(reps) * colex.fact, colex.width + colex.n):
            rep, r = np.divmod(np.arange(run.start, run.stop), colex.fact)
            classes = colex.with_identity(reps[rep[0]:rep[-1] + 1]).take(rep - rep[0], axis=0)
            ids[colex.relabeled(classes, r[:, None])[:, 0]] = moved[scored[rep], colex.inverse[r]]
        return ids

    def moved(self, kernel: _ClassKernel) -> np.ndarray:
        """``(D, n!)`` outcome ids for the D outcomes ``kernel`` has interned,
        which, as the census scores nothing before its representatives, are
        the distinct outcomes they scored: entry [d, s] is outcome d with
        each winner y moved to candidate order[s][y], relabeled and
        interned in runs of entries, an entry costing n winner bits per
        method.  Each is the outcome of a class in d's orbit."""
        n, fact = self.colex.n, self.colex.fact
        won = kernel.outcomes.arrays()[0].astype(np.int64)
        order = ranking_orders(n).astype(np.intp)

        def block(index: np.ndarray) -> np.ndarray:
            d, s = np.divmod(index, fact)
            w, masks = won[d], np.zeros((len(index), won.shape[1]), np.int64)
            for y in range(n):
                masks |= (w >> y & 1) << order[s, y, None]
            return kernel.outcomes.ids(masks)
        return _filled(len(won) * fact, n * len(kernel.universe), block).reshape(len(won), fact)


def _class_walk(spec: CensusSpec, kernel: _ClassKernel) -> Iterator[tuple]:
    """Every partly labeled class (h, c): a walk by h and the class o of
    u - 1 unlabeled voters judges, and one pass after it counts.

    (h, o, r) stands for the c_r holders of r in each labeled profile of
    (h, o + e_r), u (u-1)!/(o_1! ... o_k!) pointed profiles; the walk
    counts those and ORs its sets into ``found``, a bitmap per unit, here
    the class (h, o + e_r).  The pass then judges each class's labeled
    voters, each once per labeled profile, and counts the unit's weight
    for each set they or its bitmap hold.  With u = 0 there is no o to walk.

    When every method is neutral (``_Orbits``), a unit is an orbit.  The id
    array is filled from one scored class per orbit, and only (o, identity)
    is judged, standing for the n! rankings' pointed profiles; it ORs its
    sets into the bitmap of o + e_0's orbit, named by ``canonical``'s key.
    A voter of a class c holding r is such an identity beside
    sigma_r(c - e_r), with the same verdict, so an orbit's bitmap holds the
    sets its classes witness.  The pass counts a representative's labeled
    profiles times its orbit's size.
    """
    fact, size = kernel.fact, len(kernel.labeled)
    colex = _Colex(spec.n, spec.m - size)
    nsets = len(spec.method_sets)
    dtype = _count_dtype(spec)
    if kernel.neutral:  # no neutral method reads a voter, so u = m
        orbits = _Orbits(colex)
        key, reps, sizes = orbits.canonical()
        ids = orbits.class_ids(kernel, reps)
    else:
        ids = kernel.class_ids(colex)
    walk = fact ** size * colex.others.classes if colex.m else 0  # no o when u = 0
    judged = np.arange(1 if kernel.neutral else fact)  # the rankings judged beside each o
    found = np.zeros((len(reps) if kernel.neutral else len(ids), kernel.nbytes), np.uint8)
    # Building a chunk (its counts, reached ranks and outcomes, and a sort)
    # peaks at 2.4 rows of n! per o at n = 5 and 3.2 at n = 4, traced; judging
    # holds two (counts, outcomes), and per pair the row ``hits`` is given and
    # its cells per outcome.  A chunk is built for the first, cut to the larger.
    own = 3 * fact
    lo, step = 0, _rows(own)
    while lo < walk:
        point, rank = np.divmod(np.arange(lo, min(lo + step, walk)), colex.others.classes)
        counts = colex.others.unrank(rank)
        ranks = colex.added_ranks(counts)
        if size:  # the labeled voters' place in ids
            ranks += colex.classes * point[:, None]
        reach = ids[ranks]  # reach[o, r]: the outcome when the voter holds r
        if kernel.neutral:
            del ranks
        row = _distinct_per_row(reach)
        # only as many o's as fit are judged against their rows; the next
        # chunk starts with as many
        step = _rows(max(own, kernel.chunk_cells(len(judged), row.shape[1],
                                                 2 * fact + len(judged) * row.shape[1])))
        counts, reach, row = counts[:step], reach[:step], row[:step]
        hits = kernel.hits(np.tile(judged, len(counts)), reach[:, judged].ravel(),
                           np.repeat(row, len(judged), axis=0))
        pointed = colex.m * colex.others.weights(counts).astype(dtype)
        yield ("pointed", pointed * (fact // len(judged)),  # the identity stands for n!
               _set_bits(hits, nsets).reshape(len(counts), len(judged), -1)
               .sum(axis=1, dtype=np.int64))
        unit = (key[lo:lo + len(counts)] if kernel.neutral
                else ranks[:len(counts)].ravel())
        live = hits.any(axis=1)
        np.bitwise_or.at(found, unit[live], hits[live])
        lo += len(counts)
    stride = colex.classes * kernel.place  # a labeled voter's step through ids
    # a unit's own arrays (its row, the runs behind its weight, its sets)
    # are some eight rows of its ``colex.width`` places, and a cell per set
    for run in _runs(len(found), kernel.chunk_cells(size, own=8 * colex.width + nsets)):
        index = np.arange(run.start, run.stop)
        sets = found[index]
        if not size:  # a unit none of whose voters witnesses counts nothing
            live = sets.any(axis=1)
            index, sets = index[live], sets[live]
        if kernel.neutral:  # the representative o* + e_0, for its whole orbit
            weights = colex.weights_of(colex.with_identity(reps[index])) * sizes[index]
        else:
            weights = colex.weights_of(colex.at(index % colex.classes))
        for s in stride:
            held = index // s % fact
            after = ids[index[:, None] + (np.arange(fact) - held[:, None]) * s]
            hits = kernel.hits(held, ids[index], after)
            yield "pointed", weights, _set_bits(hits, nsets)
            sets |= hits
        yield "profiles", weights, _set_bits(sets, nsets)


def _sampled_classes(spec: CensusSpec, kernel: _ClassKernel) -> Iterator[tuple]:
    """The distinct partly labeled classes drawn, each weighted by how
    often it was drawn, every switch of their holders scored as a
    correction to its class (``neighbourhood``)."""
    fact, labeled = kernel.fact, np.array(kernel.labeled, np.intp)
    size = len(labeled)
    sample = _sample_rows(spec.n, spec.m, spec.samples, spec.seed)
    keys = np.c_[sample[:, labeled], np.sort(np.delete(sample, labeled, axis=1), axis=1)]
    index, inverse = _distinct_rows(keys)
    keys, drawn = keys[index], np.bincount(inverse)
    for run in _runs(len(keys), kernel.chunk_cells(size + min(spec.m - size, fact))):
        weights = drawn[run]
        # a class counts its weight for each set any holder witnesses, and a
        # holder its weight times its holders for each set it witnesses
        row, holders, hits = kernel.neighbourhood(keys[run, :size], _counts(keys[run, size:], fact))
        bits = _set_bits(hits, len(spec.method_sets))
        starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        yield "profiles", weights[row[starts]], np.maximum.reduceat(bits, starts)
        yield "pointed", weights[row] * holders, bits


def _set_bits(bitmaps: np.ndarray, nsets: int) -> np.ndarray:
    """``(k, nsets)`` 0/1 per set from ``(k, bytes)`` set bitmaps."""
    return np.unpackbits(bitmaps, axis=1, bitorder="little")[:, :nsets]


def _count_dtype(spec: CensusSpec) -> type:
    # int64 holds every count while the pointed profiles, at most (n!)^m * m, fit
    return np.int64 if spec.total * spec.m < 2 ** 63 else object


def _results(spec: CensusSpec, chunks: Iterable[tuple]) -> tuple[CensusResult, ...]:
    """Per-set counts from chunks of (basis, weights, bits): each row of
    ``(k, sets)`` bits counts its weight times its bit for each set toward
    the witnessing profiles or pointed profiles, as ``basis`` says."""
    dtype = _count_dtype(spec)
    counts = {basis: np.zeros(len(spec.method_sets), object) for basis in ("profiles", "pointed")}
    for basis, weights, bits in chunks:
        counts[basis] += weights.astype(dtype) @ bits
    return tuple(
        CensusResult(
            set_id=s.id, notion=spec.notion, kind=spec.kind, n=spec.n, m=spec.m,
            total=spec.total, witness_profiles=int(counts["profiles"][i]),
            witness_pointed=int(counts["pointed"][i]),
        )
        for i, s in enumerate(spec.method_sets)
    )


def run_census(spec: CensusSpec) -> CensusReport:
    """Runs the census described by ``spec``; see the module docstring."""
    kernel = _ClassKernel(spec)
    if spec.mode == "sample":
        work, unit, census = spec.samples, "profiles", _sampled_classes
    else:
        work, census = kernel.classes, _class_walk
        unit = "partly labeled classes" if kernel.labeled else "classes"
    if work > spec.budget:
        raise BudgetExceededError(f"{work} {unit} exceed the budget of {spec.budget}")
    return CensusReport(spec, _results(spec, census(spec, kernel)))


# --- censuses over families of sets -----------------------------------------


def census_of(
    sets: Sequence[UncertaintySet],
    n: int,
    m: int,
    notion: str = "sure",
    kind: str = "weak",
    samples: int | None = None,
    seed: int | None = None,
    budget: int | None = None,
) -> CensusReport:
    """One census over ``sets``: sampled when ``samples`` is given, and
    ``budget`` None means ``DEFAULT_BUDGET``."""
    return run_census(CensusSpec(
        n=n, m=m, method_sets=tuple(sets), notion=notion, kind=kind,
        mode="exhaustive" if samples is None else "sample",
        samples=samples or 0, seed=seed,
        budget=DEFAULT_BUDGET if budget is None else budget,
    ))


def family_census(
    methods: Sequence[VotingMethod],
    k: int,
    n: int,
    m: int,
    notion: str = "sure",
    kind: str = "weak",
    samples: int | None = None,
    seed: int | None = None,
    budget: int | None = None,
) -> CensusReport:
    """One census over every nonempty subset of ``methods`` with at most
    ``k`` members, by size and then in ``combinations`` order
    (``subset_family``).  The pair table (k=2), the elimination scan
    (k=``max_set_size``) and the judgments on one set S (k=|S|) below are
    views of it."""
    return census_of(subset_family(methods, k), n, m, notion, kind, samples, seed, budget)


def _check_basis(basis: str) -> None:
    if basis not in ("profiles", "pointed"):
        raise ValueError(f"unknown count basis {basis!r}")


def _eliminates(s: UncertaintySet, counts: dict[str, int]) -> bool:
    """The elimination rule: S has no witnessing profile while every
    nonempty proper subset has at least one (so S has two or more members)."""
    return len(s) > 1 and counts[s.id] == 0 and all(
        counts[sub.id] >= 1 for sub in s.subsets())


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

    def below_both_pairs(self) -> list[str]:
        """Ids of the pairs strictly below both singletons, in table order."""
        return [UncertaintySet(pair).id for pair in combinations(self.methods, 2)
                if self.below_both(*pair)]


def pair_table(
    methods: Sequence[VotingMethod],
    n: int,
    m: int,
    notion: str = "sure",
    kind: str = "weak",
    samples: int | None = None,
    seed: int | None = None,
    budget: int | None = None,
) -> PairTable:
    """One census pass covering every singleton and unordered pair."""
    return PairTable(tuple(methods),
                     family_census(methods, 2, n, m, notion, kind, samples, seed, budget))


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
    budget: int | None = None,
) -> EliminationScanReport:
    """Finds subsets (up to ``max_set_size``) that eliminate manipulation,
    by the elimination rule, from one exhaustive census of the family."""
    if max_set_size < 2:
        raise ValueError("a set needs at least two methods to eliminate anything")
    report = family_census(methods, max_set_size, n, m, notion, kind, budget=budget)
    counts = report.counts()
    return EliminationScanReport(report, tuple(
        s.id for s in report.spec.method_sets if _eliminates(s, counts)))


@dataclass
class EliminationReport:
    """Whether a set has no witnesses while every proper subset has some."""

    set_id: str
    eliminates: bool
    vacuous: bool  # singleton sets have no proper nonempty subsets
    counts: dict[str, int]  # set id -> witnessing-profile count


@dataclass
class ImprovementReport:
    """Whether a set has strictly fewer witnesses than all proper subsets."""

    set_id: str
    improves: bool
    vacuous: bool
    counts: dict[str, int]


def eliminates(
    methods: UncertaintySet,
    n: int,
    m: int,
    notion: str = "sure",
    kind: str = "weak",
    budget: int | None = None,
) -> EliminationReport:
    """Exhaustively checks whether S eliminates manipulation at (n, m), by
    the elimination rule.  Singletons are reported as a vacuous False."""
    counts = family_census(methods, len(methods), n, m, notion, kind,
                           budget=budget).counts()
    return EliminationReport(methods.id, _eliminates(methods, counts),
                             len(methods) == 1, counts)


def improves_on_all_subsets(
    methods: UncertaintySet,
    n: int,
    m: int,
    notion: str = "sure",
    kind: str = "weak",
    basis: str = "profiles",
    budget: int | None = None,
) -> ImprovementReport:
    """Exhaustively checks S against every nonempty proper subset.

    Singletons hold vacuously and are flagged as such.
    """
    _check_basis(basis)  # before the census runs
    counts = family_census(methods, len(methods), n, m, notion, kind,
                           budget=budget).counts(basis)
    # the family is S's proper subsets followed by S itself
    ok = all(counts[sid] > counts[methods.id] for sid in counts if sid != methods.id)
    return ImprovementReport(methods.id, ok, len(methods) == 1, counts)


def less_susceptible(
    set1: UncertaintySet,
    set2: UncertaintySet,
    n: int,
    m: int,
    notion: str = "sure",
    kind: str = "weak",
    basis: str = "profiles",
    samples: int | None = None,
    seed: int | None = None,
    budget: int | None = None,
) -> bool:
    """True if set1 has strictly fewer witnesses than set2 at (n, m).

    ``basis`` selects witnessing profiles or witnessing pointed profiles;
    with ``samples`` set this is an estimate over a sampled census rather
    than a certificate.
    """
    _check_basis(basis)  # before the census runs
    counts = census_of((set1, set2), n, m, notion, kind, samples, seed,
                       budget).counts(basis)
    return counts[set1.id] < counts[set2.id]


# --- serialization -----------------------------------------------------------


CSV_COLUMNS = (
    "set", "notion", "kind", "n", "m", "total",
    "witness_profiles", "witness_pointed", "percentage",
)


def config_echo(config: dict) -> str:
    """The '# key=value' lines that open every csv and pretty output."""
    return "".join(f"# {k}={v}\n" for k, v in config.items())


def csv_text(config: dict, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The config echo, then ``columns`` and ``rows`` as CSV."""
    import csv  # a census that writes no CSV does not load it

    buf = io.StringIO()
    buf.write(config_echo(config))
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(config: dict, body: dict) -> str:
    """One JSON document: the config, then the entries of ``body``."""
    import json  # a census that writes no JSON does not load it

    return json.dumps({"config": config, **body}, indent=2) + "\n"


def _values(r: CensusResult) -> tuple:
    """``r`` in ``CSV_COLUMNS`` order, up to the percentage."""
    return (r.set_id, r.notion, r.kind, r.n, r.m, r.total,
            r.witness_profiles, r.witness_pointed)


def report_rows(report: CensusReport) -> list[tuple]:
    """One CSV row per set, the percentage to four places."""
    return [(*_values(r), f"{r.percentage:.4f}") for r in report.results]


def report_body(report: CensusReport) -> dict:
    """The JSON body of a census: one object per set, keyed by column."""
    return {"results": [dict(zip(CSV_COLUMNS, (*_values(r), r.percentage)))
                        for r in report.results]}


def report_csv(report: CensusReport) -> str:
    """CSV rows for a census, preceded by '#' config-echo lines."""
    return csv_text(report.spec.config(), CSV_COLUMNS, report_rows(report))


def report_json(report: CensusReport) -> str:
    return json_text(report.spec.config(), report_body(report))
