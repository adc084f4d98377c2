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

Each of the eleven methods, and the tiebroken form of each, also carries a
batched form ``fn.on_counts`` that the census engine uses on blocks of
anonymous classes (see "batched forms" below).  The scalar functions stay
the reference: the batched forms must agree with them on every class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import Profile, Ranking, alive_extremes, default_labels, pairs_above

MethodFn = Callable[[Profile], frozenset[int]]


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


def tiebroken_winners(
    inner: MethodFn, order: Ranking, profile: Profile
) -> frozenset[int]:
    """The inner method's winning set reduced to its best member under ``order``."""
    return frozenset({order.best_of(inner(profile))})


def pairwise_dictator_winners(
    x: int, y: int, voter: int, profile: Profile
) -> frozenset[int]:
    """Whichever of x and y the given voter ranks higher."""
    if voter >= profile.m:
        raise ValueError(
            f"pairwise dictator voter {voter} out of range for {profile.m} voters"
        )
    return frozenset({x if profile.rankings[voter].prefers(x, y) else y})


# --- batched forms on ranking counts -------------------------------------------
#
# ``f.on_counts(rows)`` is f evaluated on a whole block at once: row i of the
# (k, n!) integer array ``rows`` holds how many voters hold each ranking of
# ``all_rankings(n)``, and the result is f's k winner sets as int64 bitmasks
# (bit x for candidate x).  Only anonymous methods can have one, since a row
# forgets which voter holds what.  All arithmetic is on exact integers.


def _degree(width: int) -> int:
    """The n with n! == width."""
    n = fact = 1
    while fact < width:
        n += 1
        fact *= n
    if fact != width:
        raise ValueError(f"{width} ranking counts per row is not n! for any n")
    return n


def _members(masks: np.ndarray, n: int) -> np.ndarray:
    """``(k, n)`` booleans: candidate x is in the set with bitmask ``masks[i]``."""
    return (masks[:, None] >> np.arange(n)) & 1 == 1


def _bitmask(hits: np.ndarray) -> np.ndarray:
    """Bitmask per row of a ``(k, n)`` boolean array."""
    return np.where(hits, 1 << np.arange(hits.shape[1]), 0).sum(axis=1)


def _top(scores: np.ndarray, alive: np.ndarray | None = None) -> np.ndarray:
    """Bitmask per row of the highest scorers, among ``alive`` ones if given."""
    if alive is not None:
        scores = np.where(alive, scores, np.iinfo(np.int64).min)
    return _bitmask(scores == scores.max(axis=1, keepdims=True))


class _Counts:
    """A block's nonzero ranking counts, one (row, ranking, holders) entry
    each, so the work per row follows the rankings held, not n!.

    Sums run through ``np.bincount`` with float64 weights; every total is
    an integer far below 2**53, so they are exact and cast back losslessly.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.k = len(rows)
        self.n = _degree(rows.shape[1])
        self.full = np.full(self.k, (1 << self.n) - 1, dtype=np.int64)
        flat = rows.ravel()
        cells = np.flatnonzero(flat)
        self.holders = flat[cells].astype(np.float64)
        self.row, self.ranking = np.divmod(cells, rows.shape[1])

    def _sum(self, cells: np.ndarray, holders: np.ndarray, size: int) -> np.ndarray:
        return np.bincount(cells, holders, minlength=size).astype(np.int64)

    def voters(self) -> np.ndarray:
        """Voters per row."""
        return self._sum(self.row, self.holders, self.k)

    def tallies(self) -> np.ndarray:
        """``(k, n, n)``: entry [i, x, y] counts row i's voters ranking x
        above y, i.e. the block times the pairwise indicator matrix."""
        n = self.n
        pairs = pairs_above(n)
        cells = pairs[self.ranking]
        cells += (self.row * n * n)[:, None]
        holders = np.repeat(self.holders, pairs.shape[1])
        return self._sum(cells.ravel(), holders, self.k * n * n).reshape(self.k, n, n)

    def places(self, alive: np.ndarray, worst: bool = False) -> np.ndarray:
        """``(k, n)``: row i's voters whose best (or worst) member of the set
        with bitmask ``alive[i]`` is x."""
        table = alive_extremes(self.n)[worst]
        cells = self.row * self.n + table[alive[self.row], self.ranking]
        return self._sum(cells, self.holders, self.k * self.n).reshape(self.k, self.n)


def _eliminate(block: _Counts,
               step: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
               ) -> np.ndarray:
    """Masked elimination rounds from the full candidate set.

    ``step(alive)`` gives every row's next alive bitmask and whether the row
    stops there; rows stop for good once one candidate is left.  Each round
    drops at least one candidate from every open row, so there are at most
    n - 1 rounds.
    """
    alive = block.full
    open_ = alive & (alive - 1) != 0
    while open_.any():
        after, stop = step(alive)
        alive = np.where(open_, after, alive)
        open_ &= ~stop & (alive & (alive - 1) != 0)
    return alive


def _borda_within(tallies: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Borda scores restricted to each row's ``inside`` candidates."""
    return (tallies * inside[:, None, :]).sum(axis=2)


def _plurality_on_counts(rows: np.ndarray) -> np.ndarray:
    block = _Counts(rows)
    return _top(block.places(block.full))


def _borda_on_counts(rows: np.ndarray) -> np.ndarray:
    return _top(_Counts(rows).tallies().sum(axis=2))


def _condorcet_on_counts(rows: np.ndarray) -> np.ndarray:
    block = _Counts(rows)
    tallies = block.tallies()
    beats = tallies > tallies.transpose(0, 2, 1)
    winner = _bitmask(beats.sum(axis=2) == block.n - 1)
    return np.where(winner == 0, block.full, winner)


def _copeland_on_counts(rows: np.ndarray) -> np.ndarray:
    tallies = _Counts(rows).tallies()
    net = tallies - tallies.transpose(0, 2, 1)
    return _top((net > 0).sum(axis=2) - (net < 0).sum(axis=2))


def _maxmin_on_counts(rows: np.ndarray) -> np.ndarray:
    tallies = _Counts(rows).tallies()
    own = np.eye(tallies.shape[1], dtype=bool)
    return _top(np.where(own, np.iinfo(np.int64).max, tallies).min(axis=2))


def _runoff_on_counts(rows: np.ndarray) -> np.ndarray:
    block = _Counts(rows)
    firsts = block.places(block.full)
    top = _top(firsts)
    second = _top(firsts, ~_members(top, block.n))
    finalists = np.where(top & (top - 1) != 0, top, top | second)
    return _top(block.places(finalists), _members(finalists, block.n))


def _first_or_last_elimination(rows: np.ndarray, worst: bool) -> np.ndarray:
    """Hare (drop the fewest first places) or Coombs (the most last places),
    each with the strict-majority check on first places."""
    block = _Counts(rows)
    voters = block.voters()[:, None]

    def step(alive):
        inside = _members(alive, block.n)
        firsts = block.places(alive)
        majority = _bitmask(2 * firsts > voters)
        if worst:
            dropped = _top(block.places(alive, worst=True), inside)
        else:
            dropped = _top(-firsts, inside)
        tied = dropped == alive
        won = majority != 0
        after = np.where(won, majority, np.where(tied, alive, alive & ~dropped))
        return after, won | tied

    return _eliminate(block, step)


def _baldwin_on_counts(rows: np.ndarray) -> np.ndarray:
    block = _Counts(rows)
    tallies = block.tallies()

    def step(alive):
        inside = _members(alive, block.n)
        dropped = _top(-_borda_within(tallies, inside), inside)
        tied = dropped == alive
        return np.where(tied, alive, alive & ~dropped), tied

    return _eliminate(block, step)


def _nanson_on_counts(rows: np.ndarray, strict: bool) -> np.ndarray:
    """Strict Nanson keeps scores at or above the average, weak Nanson only
    those strictly above it; all compared exactly as size * score vs total."""
    block = _Counts(rows)
    tallies = block.tallies()

    def step(alive):
        inside = _members(alive, block.n)
        scores = _borda_within(tallies, inside)
        size = inside.sum(axis=1)[:, None]
        total = np.where(inside, scores, 0).sum(axis=1)[:, None]
        kept = _bitmask(inside & (size * scores >= total if strict
                                  else size * scores > total))
        if strict:
            return kept, kept == alive
        return np.where(kept == 0, alive, kept), kept == 0

    return _eliminate(block, step)


plurality.on_counts = _plurality_on_counts
borda.on_counts = _borda_on_counts
condorcet.on_counts = _condorcet_on_counts
copeland.on_counts = _copeland_on_counts
maxmin.on_counts = _maxmin_on_counts
plurality_with_runoff.on_counts = _runoff_on_counts
hare.on_counts = lambda rows: _first_or_last_elimination(rows, worst=False)
coombs.on_counts = lambda rows: _first_or_last_elimination(rows, worst=True)
baldwin.on_counts = _baldwin_on_counts
strict_nanson.on_counts = lambda rows: _nanson_on_counts(rows, strict=True)
weak_nanson.on_counts = lambda rows: _nanson_on_counts(rows, strict=False)


@lru_cache(maxsize=None)
def _tiebreak_table(order: Ranking) -> np.ndarray:
    """For every candidate bitmask, the bitmask of its best member under
    ``order`` (0 for the empty set)."""
    table = [0] * (1 << order.n)
    for x in reversed(order.order):
        for mask in range(1 << order.n):
            if mask >> x & 1:
                table[mask] = 1 << x
    return np.array(table, dtype=np.int64)


@dataclass(frozen=True)
class VotingMethod:
    """A named resolution-procedure; equality and hashing go by id."""

    id: str
    fn: MethodFn = field(compare=False, repr=False)
    anonymous: bool = field(default=True, compare=False)

    def winners(self, profile: Profile) -> frozenset[int]:
        return self.fn(profile)


METHOD_ORDER = (
    "plurality",
    "borda",
    "condorcet",
    "copeland",
    "maxmin",
    "plurality_runoff",
    "hare",
    "coombs",
    "baldwin",
    "strict_nanson",
    "weak_nanson",
)

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


def tiebroken(inner: VotingMethod, order: Ranking) -> VotingMethod:
    """A copy of ``inner`` whose ties are broken by ``order``."""
    order_text = "".join(default_labels(order.n)[x] for x in order.order)

    def fn(profile: Profile) -> frozenset[int]:
        return tiebroken_winners(inner.fn, order, profile)

    inner_on_counts = getattr(inner.fn, "on_counts", None)
    if inner_on_counts is not None:
        fn.on_counts = lambda rows: _tiebreak_table(order)[inner_on_counts(rows)]
    return VotingMethod(id=f"{inner.id}@{order_text}", fn=fn, anonymous=inner.anonymous)


def pairwise_dictator(x: int, y: int, voter: int, labels: Sequence[str]) -> VotingMethod:
    """The method electing whichever of x and y the given voter prefers."""
    if x == y:
        raise ValueError("pairwise dictator needs two distinct candidates")
    if voter < 0:
        raise ValueError("voter index must be nonnegative")
    return VotingMethod(
        id=f"pdict:{labels[x]},{labels[y]},{voter}",
        fn=lambda profile: pairwise_dictator_winners(x, y, voter, profile),
        anonymous=False,
    )


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
