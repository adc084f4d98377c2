"""The voting methods under analysis.

Every method maps a :class:`~votemanip.core.Profile` to the full set of
tied winners, returned as a ``frozenset`` of candidate ids.  Ties are never
broken silently; the tiebreak extension below is the only thing that turns
a tied set into a singleton.

Conventions shared by the elimination methods (Hare, Coombs, Baldwin and
the two Nanson variants):

* every round works on the profile restricted to the still-alive
  candidates, which for score purposes only needs the full pairwise tally
  because restriction preserves relative order;
* in Hare and Coombs, a candidate ranked first by a strict majority of all
  voters wins immediately, and this check runs before any elimination,
  including in the first round;
* if every alive candidate ties on the round's statistic, the alive set is
  returned as-is rather than eliminating everyone.

Average comparisons in the Nanson variants are exact: ``k * score`` is
compared against the integer score total of the ``k`` alive candidates.

Each of the eleven methods, the tiebroken form of each and every pairwise
dictator also carries a batched form ``fn.on_counts`` that the census
engine uses on blocks of classes (see "batched forms" below).  A census
scores methods through ``fn.on_counts`` only, so it refuses a custom
method that lacks one, tiebroken or not; ``find_manipulation`` and
``VotingMethod.winners`` still take it.  The scalar functions stay the
reference: the batched forms must agree with them on every class.  The
eleven methods are also marked neutral (``fn.neutral``): relabeling the
candidates relabels their winners alike.  Those whose batched form reads
a block's pairwise tallies are marked ``fn.pairwise``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    Profile, Ranking, alive_extremes, default_labels, pairs_above, ranking_places, set_extremes,
)

MethodFn = Callable[[Profile], frozenset[int]]

# Cells per block of a bounded pass.  ``_rows`` is its only reader, and
# ``_runs`` cuts a pass into blocks by it; each caller states what one row
# of its arrays costs in cells, so that a block's arrays stay under
# 2 * BLOCK_CELLS int64 cells whatever n and m are, as
# tests/test_census.py::TestWalkChunks checks for class-walk chunks (a one-
# or two-method walk's reach 1.66 times BLOCK_CELLS: see the FOUND line on
# the walk's judging charge in CHANGES.md).  Larger blocks raise a census's
# peak RSS, but each block also pays about a hundred numpy calls: at n = 5,
# switched rows without tallies come in a quarter as many blocks, which
# made a sampled census 11% faster (BENCH_sampled_switch_rows.json).
BLOCK_CELLS = 1 << 16


def _rows(cells: int) -> int:
    """Rows per block when each row costs ``cells`` cells: at least one."""
    return max(1, BLOCK_CELLS // cells)


def _runs(total: int, cells: int) -> Iterator[slice]:
    """The consecutive slices of ``_rows(cells)`` indices below ``total``."""
    step = _rows(cells)
    for lo in range(0, total, step):
        yield slice(lo, min(lo + step, total))


def _argmax(scores: Mapping[int, int]) -> frozenset[int]:
    best = max(scores.values())
    return frozenset(x for x, s in scores.items() if s == best)


def _argmin(scores: Mapping[int, int]) -> frozenset[int]:
    worst = min(scores.values())
    return frozenset(x for x, s in scores.items() if s == worst)


def _first_place_counts(profile: Profile, alive: Iterable[int]) -> dict[int, int]:
    counts = dict.fromkeys(alive, 0)
    for r in profile.rankings:
        counts[r.best_of(counts)] += 1
    return counts


def _last_place_counts(profile: Profile, alive: Iterable[int]) -> dict[int, int]:
    counts = dict.fromkeys(alive, 0)
    for r in profile.rankings:
        counts[r.worst_of(counts)] += 1
    return counts


def _restricted_borda(profile: Profile, alive: Sequence[int]) -> dict[int, int]:
    # With scores <k-1, ..., 0> a candidate's restricted Borda score equals
    # the sum of its pairwise counts against the other alive candidates.
    tally = profile.tally
    return {
        x: sum(tally.count(x, y) for y in alive if y != x) for x in alive
    }


def plurality(profile: Profile) -> frozenset[int]:
    """Candidates ranked first by the most voters."""
    return _argmax(_first_place_counts(profile, profile.candidates))


def borda(profile: Profile) -> frozenset[int]:
    """Highest total score under the vector <n-1, n-2, ..., 0>."""
    return _argmax(_restricted_borda(profile, tuple(profile.candidates)))


def condorcet(profile: Profile) -> frozenset[int]:
    """The candidate beating every other head-to-head, else all candidates."""
    tally = profile.tally
    for x in profile.candidates:
        if all(tally.net(x, y) > 0 for y in profile.candidates if y != x):
            return frozenset({x})
    return frozenset(profile.candidates)


def copeland(profile: Profile) -> frozenset[int]:
    """Best head-to-head record (wins minus losses)."""
    tally = profile.tally
    scores = {}
    for x in profile.candidates:
        nets = [tally.net(x, y) for y in profile.candidates if y != x]
        scores[x] = sum(v > 0 for v in nets) - sum(v < 0 for v in nets)
    return _argmax(scores)


def maxmin(profile: Profile) -> frozenset[int]:
    """Best worst head-to-head support, i.e. argmax of min count(x, y)."""
    if profile.n == 1:
        return frozenset({0})
    tally = profile.tally
    scores = {
        x: min(tally.count(x, y) for y in profile.candidates if y != x)
        for x in profile.candidates
    }
    return _argmax(scores)


def plurality_with_runoff(profile: Profile) -> frozenset[int]:
    """Plurality among the runoff finalists.

    The finalists are all candidates tied for the top plurality score if
    two or more tie there, otherwise the unique top scorer together with
    everyone tied at the second-highest score.
    """
    firsts = _first_place_counts(profile, profile.candidates)
    top = _argmax(firsts)
    if len(top) >= 2:
        finalists = top
    else:
        rest = {x: s for x, s in firsts.items() if x not in top}
        if not rest:
            return top
        second = max(rest.values())
        finalists = top | frozenset(x for x, s in rest.items() if s == second)
    return _argmax(_first_place_counts(profile, finalists))


def _iterated_elimination(
    profile: Profile,
    round_counts: Callable[[Profile, frozenset[int]], dict[int, int]],
    drop_max: bool,
    majority_check: bool,
) -> frozenset[int]:
    alive = frozenset(profile.candidates)
    m = profile.m
    while len(alive) > 1:
        if majority_check:
            for x, cnt in _first_place_counts(profile, alive).items():
                if 2 * cnt > m:
                    return frozenset({x})
        counts = round_counts(profile, alive)
        eliminated = _argmax(counts) if drop_max else _argmin(counts)
        if eliminated == alive:
            return alive
        alive -= eliminated
    return alive


def hare(profile: Profile) -> frozenset[int]:
    """Repeatedly drops all candidates with the fewest first places.

    A candidate ranked first by a strict majority wins immediately; if all
    alive candidates tie on first places, all of them win.
    """
    return _iterated_elimination(profile, _first_place_counts, False, True)


def coombs(profile: Profile) -> frozenset[int]:
    """Repeatedly drops all candidates with the most last places.

    The strict-majority check and the all-tied clause work as in Hare,
    with ties measured on last places.
    """
    return _iterated_elimination(profile, _last_place_counts, True, True)


def baldwin(profile: Profile) -> frozenset[int]:
    """Repeatedly drops all candidates with the lowest restricted Borda score."""
    return _iterated_elimination(
        profile, lambda p, alive: _restricted_borda(p, tuple(alive)), False, False
    )


def strict_nanson(profile: Profile) -> frozenset[int]:
    """Repeatedly drops candidates with strictly below-average Borda score."""
    alive = tuple(profile.candidates)
    while len(alive) > 1:
        scores = _restricted_borda(profile, alive)
        total = sum(scores.values())
        k = len(alive)
        surviving = tuple(x for x in alive if k * scores[x] >= total)
        if len(surviving) == len(alive):  # nobody strictly below average
            return frozenset(alive)
        alive = surviving
    return frozenset(alive)


def weak_nanson(profile: Profile) -> frozenset[int]:
    """Repeatedly drops candidates with at-most-average Borda score."""
    alive = tuple(profile.candidates)
    while len(alive) > 1:
        scores = _restricted_borda(profile, alive)
        total = sum(scores.values())
        k = len(alive)
        surviving = tuple(x for x in alive if k * scores[x] > total)
        if not surviving:  # everyone at (hence exactly on) the average
            return frozenset(alive)
        alive = surviving
    return frozenset(alive)


# --- batched forms on ranking counts -------------------------------------------
#
# ``f.on_counts(block)`` is f evaluated on a whole block of anonymous classes
# at once, and the result is f's winner sets as int64 bitmasks (bit x for
# candidate x), one per row.  The block is a ``_Counts`` of k classes, given
# by how many voters of each row hold each ranking of ``ranking_orders(n)``,
# which every method of a census shares, so its
# memoized tallies are computed once, or a ``_Switched`` block of one-voter
# switches, whose statistics are corrections to its base block's.  Each
# block type gives its own Hare winners (``hare()``): a ``_Counts`` runs
# rounds, for the exhaustive fill, and a ``_Switched`` walks a table of its
# base block's elimination steps (``_Counts.hare_steps``); a sampled census
# scores its classes too as switches, null ones, and so runs no rounds.
# A row forgets which voter holds what, except for the labeled voters a
# block is given (``held_by``): a pairwise dictator, which reads one voter,
# sets ``fn.voter`` and reads that voter's ranking per row.  All arithmetic
# is on exact integers.
#
# Every per-candidate statistic of a block is candidate-major: its candidate
# axes lead and its k rows are the last, contiguous axis (``(n, n, k)``
# tallies, ``(n, k)`` scores and places).  A reduction over the candidates,
# such as a row's top scorers or its winner bitmask, is then n elementwise
# passes over k-long rows rather than k reductions of n entries each.


def _members(masks: np.ndarray, n: int) -> np.ndarray:
    """``(n,) + masks.shape`` booleans: [x, ...] is whether candidate x is
    in the set with bitmask ``masks[...]``."""
    return (masks >> np.arange(n, dtype=masks.dtype).reshape((n,) + (1,) * masks.ndim)) & 1 == 1


def _bitmask(hits: np.ndarray, dtype: type = np.int64) -> np.ndarray:
    """The bitmask of the x with ``hits[x]``, per entry of the other axes:
    n shifted ORs over the leading candidate axis, exact in ``dtype``."""
    mask = hits[0].astype(dtype)
    for x in range(1, len(hits)):
        mask |= hits[x].astype(dtype) << x
    return mask


def _top(scores: np.ndarray, alive: np.ndarray | None = None,
         dtype: type = np.int64) -> np.ndarray:
    """The bitmask of the highest scorers over the leading candidate axis,
    among the ``alive`` ones if given."""
    if alive is not None:
        scores = np.where(alive, scores, np.iinfo(scores.dtype).min)
    return _bitmask(scores == scores.max(axis=0), dtype)


class _Counts:
    """A block of k classes as (row, ranking, holders) entries, ``holders``
    voters of row ``row`` holding ranking ``ranking``, so the work per row
    follows the entries it has, not n!, and the ranking index per row of
    each labeled voter in ``held``.  A row's entries may repeat a ranking:
    a sorted row of ranking indices passes one entry per voter, and count
    rows pass their nonzeros (``of``).

    Sums run through ``np.bincount`` with float64 weights, so repeated
    entries add up; every total is an integer far below 2**53, so they are
    exact and cast back losslessly.  Each statistic is candidate-major,
    its k rows last.  Tallies and the places under every candidate set are
    memoized, read-only, for the methods and switched blocks that share
    the block.
    """

    def __init__(self, n: int, k: int, row: np.ndarray, ranking: np.ndarray,
                 holders: np.ndarray, held: Mapping[int, np.ndarray] | None = None) -> None:
        self.n, self.k = n, k
        self.row, self.ranking = row, ranking
        self.holders = holders.astype(np.float64)
        self.held = held or {}
        self.full = np.full(k, (1 << n) - 1, dtype=np.int64)
        self._tallies: np.ndarray | None = None
        self._scores: np.ndarray | None = None
        self._by_set: dict[bool, np.ndarray] = {}
        self._hare_steps: np.ndarray | None = None

    @classmethod
    def of(cls, n: int, rows: np.ndarray, held: Mapping[int, np.ndarray] | None = None) -> _Counts:
        """The block of ``(k, n!)`` count rows: their nonzero entries."""
        row, ranking = np.nonzero(rows)
        return cls(n, len(rows), row, ranking, rows[row, ranking], held)

    def _sum(self, cells: np.ndarray, holders: np.ndarray, size: int) -> np.ndarray:
        return np.bincount(cells, holders, minlength=size).astype(np.int64)

    def voters(self) -> np.ndarray:
        """Voters per row."""
        return self._sum(self.row, self.holders, self.k)

    def held_by(self, voter: int) -> np.ndarray:
        """The ranking index per row of a labeled voter."""
        return self.held[voter]

    def tallies(self) -> np.ndarray:
        """``(n, n, k)``: entry [x, y, i] counts row i's voters ranking x
        above y, i.e. the block times the pairwise indicator matrix."""
        if self._tallies is None:
            n = self.n
            pairs = pairs_above(n)
            cells = pairs[self.ranking].astype(np.int64) * self.k
            cells += self.row[:, None]
            holders = np.repeat(self.holders, pairs.shape[1])
            self._tallies = _frozen(self._sum(cells.ravel(), holders, n * n * self.k)
                                    .reshape(n, n, self.k))
        return self._tallies

    def scores(self) -> np.ndarray:
        """``(n, k)``: the Borda score of x in row i, the voters ranking x
        above each other candidate, summed."""
        if self._scores is None:
            self._scores = _frozen(self.tallies().sum(axis=1))
        return self._scores

    def places(self, alive: np.ndarray, worst: bool = False) -> np.ndarray:
        """``(n, k)``: row i's voters whose best (or worst) member of the set
        with bitmask ``alive[i]`` is x."""
        table = alive_extremes(self.n, worst)
        cells = table[alive[self.row], self.ranking].astype(np.int64) * self.k + self.row
        return self._sum(cells, self.holders, self.n * self.k).reshape(self.n, self.k)

    def places_by_set(self, worst: bool) -> np.ndarray:
        """``(n, k, 2^n)``: ``places`` under every candidate set at once,
        entry [x, i, A] under the set with bitmask A."""
        if worst not in self._by_set:
            table = alive_extremes(self.n, worst)
            sets = 1 << self.n
            # cell (x, i, A) of entry j under set A, x its extreme member
            cells = table[:, self.ranking].astype(np.int64) * (self.k * sets) + self.row * sets
            cells += np.arange(sets)[:, None]
            holders = np.tile(self.holders, sets)
            self._by_set[worst] = _frozen(self._sum(
                cells.ravel(), holders, self.n * self.k * sets
            ).reshape(self.n, self.k, sets))
        return self._by_set[worst]

    def hare_steps(self) -> np.ndarray:
        """Hare's step from every candidate set of each row under every
        one-voter switch (``_hare_steps``), for the switched blocks."""
        if self._hare_steps is None:
            self._hare_steps = _frozen(_hare_steps(self.places_by_set(False), self.voters()))
        return self._hare_steps

    def hare(self) -> np.ndarray:
        """Hare's winners per row, in elimination rounds."""
        return _first_or_last_elimination(self, worst=False)


class _Switched:
    """A block of one-voter switches: row i is base class ``cls[i]`` with one
    holder of ranking ``a[i]`` moved to ranking ``b[i]``, that holder being
    labeled voter ``voter[i]``, or an unlabeled one (-1).

    Its statistics are the base block's with two corrections per row: the
    tallies lose ranking a's ``pairs_above`` cells and gain b's, the Borda
    scores gain x's place under a and lose its place under b, and the
    places under set A lose a voter at a's extreme member of A and gain one
    at b's.  So a switched row's tallies cost O(n^2), built only when a
    pairwise method asks for them, and its scores and places O(n), not the
    O(n! + m n^2) of a count row scored from scratch.  The
    statistics have ``_Counts``' candidate-major shapes, ``(n, n, k)``
    tallies and ``(n, k)`` scores and places, each a gather of the base's
    columns ``cls`` (of ``places_by_set``'s (class, set) columns for
    places) with the corrections written in place.

    Hare runs no rounds on it: its next alive set from A depends only on
    the class, A and the two best members of A that move, so ``hare``
    walks the base block's table of steps (``_Counts.hare_steps``), one
    gather per round.
    """

    def __init__(self, base: _Counts, cls: np.ndarray, a: np.ndarray, b: np.ndarray,
                 voter: np.ndarray | int = -1) -> None:
        self.base, self.cls, self.a, self.b, self.voter = base, cls, a, b, voter
        self.k = len(cls)
        self.n = base.n
        self.full = np.full(self.k, (1 << self.n) - 1, dtype=np.int64)
        self._tallies: np.ndarray | None = None

    def voters(self) -> np.ndarray:
        return self.base.voters()[self.cls]

    def held_by(self, voter: int) -> np.ndarray:
        return np.where(self.voter == voter, self.b, self.base.held_by(voter)[self.cls])

    def tallies(self) -> np.ndarray:
        if self._tallies is None:
            n = self.n
            pairs = pairs_above(n)
            tallies = self.base.tallies().reshape(n * n, -1).take(self.cls, axis=1)
            flat = tallies.reshape(-1)  # a view: the gather made a new array
            col = np.arange(self.k)[:, None]
            # a row's cells are distinct, so plain fancy updates are exact
            flat[pairs[self.a].astype(np.int64) * self.k + col] -= 1
            flat[pairs[self.b].astype(np.int64) * self.k + col] += 1
            self._tallies = _frozen(tallies.reshape(n, n, self.k))
        return self._tallies

    def scores(self) -> np.ndarray:
        place = ranking_places(self.n).T  # [x, r]: candidate x's place in ranking r
        return (self.base.scores().take(self.cls, axis=1)
                + place.take(self.a, axis=1) - place.take(self.b, axis=1))

    def places(self, alive: np.ndarray, worst: bool = False) -> np.ndarray:
        table = alive_extremes(self.n, worst)
        # one gather of column (class, set) of the base's places
        places = self.base.places_by_set(worst).reshape(self.n, -1).take(
            self.cls * (1 << self.n) + alive, axis=1)
        flat = places.reshape(-1)  # a view: the gather made a new array
        col = np.arange(self.k)
        flat[table[alive, self.a].astype(np.int64) * self.k + col] -= 1
        flat[table[alive, self.b].astype(np.int64) * self.k + col] += 1
        return places

    def hare(self) -> np.ndarray:
        """Hare's winners per row: n - 1 gathers through the base block's
        steps, each at the alive set and its best members under rankings a
        and b.  A majority winner and an all-tied set step to themselves."""
        n = self.n
        steps = self.base.hare_steps().reshape(-1)
        best = alive_extremes(n, False)
        best, fact = best.reshape(-1), best.shape[1]
        at, alive = self.cls << n, self.full
        for _ in range(n - 1):
            row = alive * fact
            cell = at + alive
            cell *= n
            cell += best.take(row + self.a)
            cell *= n
            cell += best.take(row + self.b)
            alive = steps.take(cell).astype(np.int64)
        return alive


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only because every method of a block shares it."""
    a.flags.writeable = False
    return a


def _eliminate(block: _Counts | _Switched,
               step: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Masked elimination rounds from the full candidate set.

    ``step(alive)`` gives every row's next alive bitmask; a row stops where
    its set steps to itself or one candidate is left.  Each round drops at
    least one candidate from every open row, so there are at most n - 1
    rounds.
    """
    alive = block.full
    open_ = alive & (alive - 1) != 0
    while open_.any():
        after = np.where(open_, step(alive), alive)
        open_ &= (after != alive) & (after & (after - 1) != 0)
        alive = after
    return alive


def _borda_within(tallies: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """``(n, k)`` Borda scores restricted to each row's ``inside``
    candidates, from ``(n, n, k)`` tallies and ``(n, k)`` members."""
    return (tallies * inside).sum(axis=1)


def _plurality_on_counts(block: _Counts | _Switched) -> np.ndarray:
    return _top(block.places(block.full))


def _borda_on_counts(block: _Counts | _Switched) -> np.ndarray:
    return _top(block.scores())


def _condorcet_on_counts(block: _Counts | _Switched) -> np.ndarray:
    tallies = block.tallies()
    beats = tallies > tallies.transpose(1, 0, 2)
    winner = _bitmask(beats.sum(axis=1) == block.n - 1)
    return np.where(winner == 0, block.full, winner)


def _copeland_on_counts(block: _Counts | _Switched) -> np.ndarray:
    tallies = block.tallies()
    net = tallies - tallies.transpose(1, 0, 2)
    return _top((net > 0).sum(axis=1) - (net < 0).sum(axis=1))


def _maxmin_on_counts(block: _Counts | _Switched) -> np.ndarray:
    tallies = block.tallies()
    own = np.eye(block.n, dtype=bool)[:, :, None]
    return _top(np.where(own, np.iinfo(np.int64).max, tallies).min(axis=1))


def _runoff_on_counts(block: _Counts | _Switched) -> np.ndarray:
    firsts = block.places(block.full)
    top = _top(firsts)
    second = _top(firsts, ~_members(top, block.n))
    finalists = np.where(top & (top - 1) != 0, top, top | second)
    return _top(block.places(finalists), _members(finalists, block.n))


def _first_or_last_step(alive: np.ndarray, firsts: np.ndarray, voters: np.ndarray,
                        drop: np.ndarray) -> np.ndarray:
    """One round of Hare or Coombs from the alive bitmasks ``alive``, with
    the candidate axis leading: ``firsts[x]`` is x's first places among the
    alive and ``drop[x]`` the statistic whose highest alive scorers go
    (Hare: ``-firsts``; Coombs: last places).  A candidate first for a
    strict majority of ``voters`` wins alone; otherwise the highest scorers
    are dropped, unless they are every alive candidate, and the set stays.
    """
    majority = _bitmask(2 * firsts > voters, alive.dtype)
    dropped = _top(drop, _members(alive, len(firsts)), alive.dtype)
    return np.where(majority != 0, majority,
                    np.where(dropped == alive, alive, alive & ~dropped))


def _hare_steps(firsts_by_set: np.ndarray, voters: np.ndarray) -> np.ndarray:
    """``(k, 2^n, n, n)`` int16 masks: Hare's step (``_first_or_last_step``)
    from set A in row c, whose first places under A are
    ``firsts_by_set[:, c, A]``, when one of them moves from x to y, at
    [c, A, x, y].  A set of at most one member steps to itself.  Of the
    other sets only the moves between two members are built
    (``_moves_within``), as no walk reads any other cell, which is left
    unset; in runs of rows (``_runs``), a row costing n first places per
    move.  int16 holds every count, as m <= 255, and mask."""
    n, k, sets = firsts_by_set.shape
    table = np.empty((k, sets, n, n), np.int16)
    every = np.arange(sets)
    small = every & (every - 1) == 0
    table[:, small] = every[small, None, None]
    within, cells, moved = _moves_within(n)
    rows = table.reshape(k, -1)
    firsts_of = firsts_by_set.astype(np.int16)
    voters = voters.astype(np.int16)[:, None]
    alive = within.astype(np.int16)[None, :]
    for run in _runs(k, n * len(within)):
        firsts = firsts_of[:, run].take(within, axis=2)
        firsts += moved[:, None, :]
        rows[run, cells] = _first_or_last_step(alive, firsts, voters[run], -firsts)
    return table


@lru_cache(maxsize=None)
def _moves_within(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every move of one voter's first place from x to y, both members of a
    candidate set A of two or more members: per move its A, its cell
    ``(A * n + x) * n + y`` of a row of Hare's step table, and as an
    ``(n, moves)`` int16 change of first places (+1 at y, -1 at x)."""
    every = np.arange(1 << n)
    inside = _members(every, n) & (every & (every - 1) != 0)
    x, y, within = np.nonzero(inside[:, None] & inside[None])
    eye = np.eye(n, dtype=np.int16)
    return within, (within * n + x) * n + y, eye[:, y] - eye[:, x]


def _first_or_last_elimination(block: _Counts | _Switched, worst: bool) -> np.ndarray:
    """Hare (drop the fewest first places) or Coombs (the most last places)
    in rounds, each with the strict-majority check on first places."""
    voters = block.voters()

    def step(alive):
        firsts = block.places(alive)
        return _first_or_last_step(alive, firsts, voters,
                                   block.places(alive, worst=True) if worst else -firsts)

    return _eliminate(block, step)


def _baldwin_on_counts(block: _Counts | _Switched) -> np.ndarray:
    tallies = block.tallies()

    def step(alive):
        inside = _members(alive, block.n)
        dropped = _top(-_borda_within(tallies, inside), inside)
        return np.where(dropped == alive, alive, alive & ~dropped)

    return _eliminate(block, step)


def _nanson_on_counts(block: _Counts | _Switched, strict: bool) -> np.ndarray:
    """Strict Nanson keeps scores at or above the average, weak Nanson only
    those strictly above it; all compared exactly as size * score vs total."""
    tallies = block.tallies()

    def step(alive):
        inside = _members(alive, block.n)
        scores = _borda_within(tallies, inside)
        size = inside.sum(axis=0)
        total = np.where(inside, scores, 0).sum(axis=0)
        kept = _bitmask(inside & (size * scores >= total if strict
                                  else size * scores > total))
        return kept if strict else np.where(kept == 0, alive, kept)

    return _eliminate(block, step)


plurality.on_counts = _plurality_on_counts
borda.on_counts = _borda_on_counts
condorcet.on_counts = _condorcet_on_counts
copeland.on_counts = _copeland_on_counts
maxmin.on_counts = _maxmin_on_counts
plurality_with_runoff.on_counts = _runoff_on_counts
hare.on_counts = lambda block: block.hare()
coombs.on_counts = lambda block: _first_or_last_elimination(block, worst=True)
baldwin.on_counts = _baldwin_on_counts
strict_nanson.on_counts = lambda block: _nanson_on_counts(block, strict=True)
weak_nanson.on_counts = lambda block: _nanson_on_counts(block, strict=False)
# Pairwise: the batched form reads the block's (n, n, k) tallies, which a
# switched block builds only when asked, so the census sizes its switched
# blocks by whether some method carries the mark.
for _fn in (condorcet, copeland, maxmin, baldwin, strict_nanson, weak_nanson):
    _fn.pairwise = True
del _fn


@lru_cache(maxsize=None)
def _tiebreak_table(order: Ranking) -> np.ndarray:
    """For every nonempty candidate bitmask, the bitmask of its best member
    under ``order``."""
    return 1 << np.array(order.order, np.int64)[set_extremes(np.array(order.position), False)]


@lru_cache(maxsize=None)
def _dictator_table(x: int, y: int, n: int) -> np.ndarray:
    """For every ranking index, the bitmask of whichever of x and y it ranks
    higher."""
    places = ranking_places(n)
    return np.where(places[:, x] < places[:, y], 1 << x, 1 << y)


@dataclass(frozen=True)
class VotingMethod:
    """A named resolution-procedure; equality and hashing go by id."""

    id: str
    fn: MethodFn = field(compare=False, repr=False)
    anonymous: bool = field(default=True, compare=False)

    def winners(self, profile: Profile) -> frozenset[int]:
        return self.fn(profile)


METHODS: dict[str, VotingMethod] = {
    "plurality": VotingMethod("plurality", plurality),
    "borda": VotingMethod("borda", borda),
    "condorcet": VotingMethod("condorcet", condorcet),
    "copeland": VotingMethod("copeland", copeland),
    "maxmin": VotingMethod("maxmin", maxmin),
    "plurality_runoff": VotingMethod("plurality_runoff", plurality_with_runoff),
    "hare": VotingMethod("hare", hare),
    "coombs": VotingMethod("coombs", coombs),
    "baldwin": VotingMethod("baldwin", baldwin),
    "strict_nanson": VotingMethod("strict_nanson", strict_nanson),
    "weak_nanson": VotingMethod("weak_nanson", weak_nanson),
}
METHOD_ORDER = tuple(METHODS)
# Neutral: relabeling a profile's candidates relabels these methods' winners
# the same way, which the census's neutral walk relies on.  A tiebreak order
# and a dictator's pair favour some candidates, so neither carries the mark.
for _method in METHODS.values():
    _method.fn.neutral = True
del _method


def tiebroken(inner: VotingMethod, order: Ranking) -> VotingMethod:
    """A copy of ``inner`` whose ties are broken by ``order``."""
    order_text = "".join(default_labels(order.n)[x] for x in order.order)

    def fn(profile: Profile) -> frozenset[int]:
        return frozenset({order.best_of(inner.fn(profile))})

    inner_on_counts = getattr(inner.fn, "on_counts", None)
    if inner_on_counts is not None:
        fn.on_counts = lambda block: _tiebreak_table(order)[inner_on_counts(block)]
    if hasattr(inner.fn, "voter"):
        fn.voter = inner.fn.voter
    if hasattr(inner.fn, "pairwise"):
        fn.pairwise = inner.fn.pairwise
    return VotingMethod(id=f"{inner.id}@{order_text}", fn=fn, anonymous=inner.anonymous)


def pairwise_dictator(x: int, y: int, voter: int, labels: Sequence[str]) -> VotingMethod:
    """The method electing whichever of x and y the given voter prefers."""
    if x == y:
        raise ValueError("pairwise dictator needs two distinct candidates")
    if voter < 0:
        raise ValueError("voter index must be nonnegative")

    def fn(profile: Profile) -> frozenset[int]:
        if voter >= profile.m:
            raise ValueError(
                f"pairwise dictator voter {voter} out of range for {profile.m} voters"
            )
        return frozenset({x if profile.rankings[voter].prefers(x, y) else y})

    fn.voter = voter
    fn.on_counts = lambda block: _dictator_table(x, y, block.n)[block.held_by(voter)]
    return VotingMethod(id=f"pdict:{labels[x]},{labels[y]},{voter}", fn=fn, anonymous=False)


def parse_method(text: str, labels: Sequence[str] | None = None) -> VotingMethod:
    """Resolves a method name.

    Accepts the plain names in :data:`METHOD_ORDER`, a tiebroken form
    ``inner@order`` where ``order`` concatenates single-character labels
    best first (e.g. ``borda@acb``), and a pairwise-dictator form
    ``pdict:x,y,i`` naming two candidates and a 0-based voter index.
    """
    text = text.strip()
    if "@" in text:
        inner_name, _, order_text = text.partition("@")
        if inner_name not in METHODS:
            raise ValueError(f"unknown method {inner_name!r}")
        labs = tuple(labels) if labels is not None else default_labels(len(order_text))
        if sorted(order_text) != sorted(labs) or len(set(order_text)) != len(order_text):
            raise ValueError(f"tiebreak order {order_text!r} must permute all labels")
        order = Ranking(tuple(labs.index(ch) for ch in order_text))
        return tiebroken(METHODS[inner_name], order)
    if text.startswith("pdict:"):
        parts = text[len("pdict:") :].split(",")
        if len(parts) != 3:
            raise ValueError("pairwise dictator form is pdict:x,y,i")
        x_lab, y_lab, voter_text = (p.strip() for p in parts)
        try:
            voter = int(voter_text)
        except ValueError:
            raise ValueError(f"voter index {voter_text!r} is not an integer") from None
        labs = tuple(labels) if labels is not None else default_labels(26)
        if x_lab not in labs or y_lab not in labs:
            raise ValueError(f"unknown candidate in {text!r}")
        return pairwise_dictator(labs.index(x_lab), labs.index(y_lab), voter, labs)
    if text not in METHODS:
        raise ValueError(f"unknown method {text!r}")
    return METHODS[text]
