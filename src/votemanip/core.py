"""Rankings, profiles, and pairwise tallies.

Candidates are the integers ``0 .. n-1`` and a ranking is a strict linear
order over all of them, stored best-first.  Everything in this module works
on candidate ids; display labels (``a``, ``b``, ``c``, ... by default) only
enter at the parsing/formatting boundary.

Two interchangeable file formats are supported.  The text format is a
header line ``n m`` followed by one ballot line per voter, each a
space-separated permutation of the labels, best first::

    3 4
    a b c
    b c a
    c a b
    c b a

The JSON format is ``{"candidates": [...], "rankings": [[...], ...]}`` with
the same best-first convention.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np


class ProfileFormatError(ValueError):
    """A profile file or document that cannot be parsed."""


def default_labels(n: int) -> tuple[str, ...]:
    """Display labels a, b, c, ... for n candidates (n <= 26)."""
    if not 1 <= n <= 26:
        raise ValueError(f"default labels cover 1..26 candidates, got n={n}")
    return tuple(string.ascii_lowercase[:n])


@dataclass(frozen=True)
class Ranking:
    """A strict ranking of candidates ``0 .. n-1``, best first."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        n = len(self.order)
        if n == 0 or sorted(self.order) != list(range(n)):
            raise ValueError(f"not a permutation of 0..n-1: {self.order!r}")

    @cached_property
    def position(self) -> tuple[int, ...]:
        """``position[x]`` is x's 0-based place in the order (0 = best)."""
        pos = [0] * len(self.order)
        for place, x in enumerate(self.order):
            pos[x] = place
        return tuple(pos)

    @property
    def n(self) -> int:
        return len(self.order)

    def rank_of(self, x: int) -> int:
        """1-based rank of candidate x (1 = best)."""
        return self.position[x] + 1

    def top(self) -> int:
        return self.order[0]

    def bottom(self) -> int:
        return self.order[-1]

    def prefers(self, x: int, y: int) -> bool:
        """True if x is ranked strictly above y."""
        return self.position[x] < self.position[y]

    def best_of(self, xs: Iterable[int]) -> int:
        """The highest-ranked member of the nonempty set xs."""
        return min(xs, key=self.position.__getitem__)

    def worst_of(self, xs: Iterable[int]) -> int:
        """The lowest-ranked member of the nonempty set xs."""
        return max(xs, key=self.position.__getitem__)

    def restrict(self, alive: Iterable[int]) -> tuple[int, ...]:
        """The order restricted to ``alive``, still best first.

        Restriction keeps relative positions, so restricting is idempotent
        and commutes with intersecting the alive sets.
        """
        members = frozenset(alive)
        if not members:
            raise ValueError("cannot restrict to an empty candidate set")
        if not members <= frozenset(self.order):
            raise ValueError(f"unknown candidates in {sorted(members)!r}")
        return tuple(x for x in self.order if x in members)


@lru_cache(maxsize=None)
def all_rankings(n: int) -> tuple[Ranking, ...]:
    """All n! rankings of ``0 .. n-1`` in lexicographic order."""
    return tuple(Ranking(p) for p in permutations(range(n)))


@lru_cache(maxsize=None)
def ranking_index(n: int) -> dict[tuple[int, ...], int]:
    """Maps a ranking's order tuple to its index in :func:`all_rankings`."""
    return {r.order: i for i, r in enumerate(all_rankings(n))}


@lru_cache(maxsize=None)
def pairs_above(n: int) -> np.ndarray:
    """``(n!, n(n-1)/2)`` array: row r lists ``x * n + y`` for every pair
    (x, y) that ranking r puts x above y.

    A voter holding ranking r adds one to each listed cell of the flattened
    ``n * n`` tally, so a block's tallies (its ranking counts times the
    pairwise indicator matrix) need only the rankings actually held.
    """
    rankings = all_rankings(n)
    return np.array(
        [[x * n + y for i, x in enumerate(r.order) for y in r.order[i + 1:]]
         for r in rankings],
        dtype=np.int64,
    ).reshape(len(rankings), n * (n - 1) // 2)


@lru_cache(maxsize=None)
def alive_extremes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(best, worst)``, each ``(2^n, n!)`` of ``uint8``: ``best[A, r]`` is
    ranking r's highest member of the candidate set with bitmask A, and
    ``worst[A, r]`` its lowest (both 0 for the empty set)."""
    order = np.array([r.order for r in all_rankings(n)], dtype=np.uint8)
    best = np.zeros((1 << n, len(order)), dtype=np.uint8)
    worst = np.zeros_like(best)
    rows = np.arange(len(order))
    for alive in range(1, 1 << n):
        member = (alive >> order.astype(np.int64)) & 1 == 1  # by place
        best[alive] = order[rows, member.argmax(axis=1)]
        worst[alive] = order[rows, n - 1 - member[:, ::-1].argmax(axis=1)]
    return best, worst


@dataclass(frozen=True)
class PairwiseTally:
    """The margin matrix of a profile.

    ``counts[x][y]`` is the number of voters ranking x above y; the
    diagonal is zero.
    """

    counts: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.counts)

    def count(self, x: int, y: int) -> int:
        """Number of voters ranking x above y (0 when x == y)."""
        return self.counts[x][y]

    def net(self, x: int, y: int) -> int:
        """Margin of x over y: count(x, y) - count(y, x)."""
        if x == y:
            raise ValueError("net margin needs two distinct candidates")
        return self.counts[x][y] - self.counts[y][x]

    def majority_prefers(self, x: int, y: int) -> bool:
        """True if strictly more voters rank x above y than y above x."""
        return self.net(x, y) > 0


@dataclass(frozen=True)
class Profile:
    """An ordered tuple of voter rankings over a common candidate set.

    Voters are indexed ``0 .. m-1`` by their position.  Profiles are
    immutable; :meth:`replace_ranking` returns a fresh profile.
    """

    rankings: tuple[Ranking, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rankings", tuple(self.rankings))
        if not self.rankings:
            raise ValueError("a profile needs at least one voter")
        n = self.rankings[0].n
        if any(r.n != n for r in self.rankings):
            raise ValueError("all voters must rank the same candidates")

    @property
    def n(self) -> int:
        return self.rankings[0].n

    @property
    def m(self) -> int:
        return len(self.rankings)

    @property
    def candidates(self) -> range:
        return range(self.n)

    @cached_property
    def tally(self) -> PairwiseTally:
        return pairwise_tally(self)

    def replace_ranking(self, voter: int, new_ranking: Ranking) -> "Profile":
        """The profile with ``voter``'s ballot swapped for ``new_ranking``."""
        if not 0 <= voter < self.m:
            raise IndexError(f"voter index {voter} out of range 0..{self.m - 1}")
        if new_ranking.n != self.n:
            raise ValueError("replacement ranking covers a different candidate set")
        rs = list(self.rankings)
        rs[voter] = new_ranking
        return Profile(tuple(rs))


def pairwise_tally(profile: Profile) -> PairwiseTally:
    """Counts, for every ordered pair (x, y), the voters ranking x above y."""
    n = profile.n
    counts = [[0] * n for _ in range(n)]
    for r in profile.rankings:
        order = r.order
        for i, x in enumerate(order):
            row = counts[x]
            for y in order[i + 1 :]:
                row[y] += 1
    return PairwiseTally(tuple(tuple(row) for row in counts))


# --- parsing and formatting ---------------------------------------------


def _ranking_from_labels(
    tokens: Sequence[str], label_to_id: dict[str, int], where: str
) -> Ranking:
    ids = []
    for tok in tokens:
        if tok not in label_to_id:
            raise ProfileFormatError(f"{where}: unknown candidate {tok!r}")
        ids.append(label_to_id[tok])
    if sorted(ids) != list(range(len(label_to_id))):
        raise ProfileFormatError(
            f"{where}: ballot is not a permutation of all {len(label_to_id)} candidates"
        )
    return Ranking(tuple(ids))


def parse_profile_text(text: str) -> tuple[Profile, tuple[str, ...]]:
    """Parses the ``n m`` text format; returns the profile and its labels."""
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise ProfileFormatError("line 1: expected header 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise ProfileFormatError("line 1: expected header 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ProfileFormatError("line 1: expected two integers 'n m'") from None
    if n < 1 or m < 1:
        raise ProfileFormatError("line 1: n and m must be positive")
    labels = default_labels(n)
    label_to_id = {lab: i for i, lab in enumerate(labels)}
    ballots = [(no, line.split()) for no, line in enumerate(lines[1:], start=2) if line.split()]
    if len(ballots) != m:
        raise ProfileFormatError(f"expected {m} ballot lines, found {len(ballots)}")
    rankings = [
        _ranking_from_labels(tokens, label_to_id, f"line {no}") for no, tokens in ballots
    ]
    return Profile(tuple(rankings)), labels


def parse_profile_json(text: str) -> tuple[Profile, tuple[str, ...]]:
    """Parses the JSON format; returns the profile and its labels."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileFormatError(f"line {exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(doc, dict) or "candidates" not in doc or "rankings" not in doc:
        raise ProfileFormatError("expected an object with 'candidates' and 'rankings'")
    labels = tuple(str(lab) for lab in doc["candidates"])
    if len(set(labels)) != len(labels) or not labels:
        raise ProfileFormatError("'candidates' must be a nonempty list of distinct labels")
    label_to_id = {lab: i for i, lab in enumerate(labels)}
    rows = doc["rankings"]
    if not isinstance(rows, list) or not rows:
        raise ProfileFormatError("'rankings' must be a nonempty list of ballots")
    rankings = []
    for k, row in enumerate(rows):
        if not isinstance(row, list):
            raise ProfileFormatError(f"ballot {k}: expected a list of labels")
        rankings.append(
            _ranking_from_labels([str(t) for t in row], label_to_id, f"ballot {k}")
        )
    return Profile(tuple(rankings)), labels


def format_profile_text(profile: Profile, labels: Sequence[str] | None = None) -> str:
    """Renders a profile in the ``n m`` text format."""
    labels = tuple(labels) if labels is not None else default_labels(profile.n)
    lines = [f"{profile.n} {profile.m}"]
    for r in profile.rankings:
        lines.append(" ".join(labels[x] for x in r.order))
    return "\n".join(lines) + "\n"


def format_profile_json(profile: Profile, labels: Sequence[str] | None = None) -> str:
    """Renders a profile in the JSON format."""
    labels = tuple(labels) if labels is not None else default_labels(profile.n)
    doc = {
        "candidates": list(labels),
        "rankings": [[labels[x] for x in r.order] for r in profile.rankings],
    }
    return json.dumps(doc, indent=2) + "\n"


def read_profile_file(path: str) -> tuple[Profile, tuple[str, ...]]:
    """Reads a profile from ``path`` (JSON if the suffix is .json, else text)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".json"):
        return parse_profile_json(text)
    return parse_profile_text(text)
