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

import math
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
    return tuple("abcdefghijklmnopqrstuvwxyz"[:n])


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

    def top(self) -> int:
        return self.order[0]

    def prefers(self, x: int, y: int) -> bool:
        """True if x is ranked strictly above y."""
        return self.position[x] < self.position[y]

    def best_of(self, xs: Iterable[int]) -> int:
        """The highest-ranked member of the nonempty set xs."""
        return min(xs, key=self.position.__getitem__)

    def worst_of(self, xs: Iterable[int]) -> int:
        """The lowest-ranked member of the nonempty set xs."""
        return max(xs, key=self.position.__getitem__)


@lru_cache(maxsize=None)
def all_rankings(n: int) -> tuple[Ranking, ...]:
    """All n! rankings of ``0 .. n-1`` in lexicographic order."""
    return tuple(Ranking(p) for p in permutations(range(n)))


@lru_cache(maxsize=None)
def ranking_orders(n: int) -> np.ndarray:
    """``(n!, n)`` array of ``uint8``: row r is ranking r's order, best first."""
    return np.fromiter(permutations(range(n)), np.dtype((np.uint8, n)), math.factorial(n))


@lru_cache(maxsize=None)
def ranking_places(n: int) -> np.ndarray:
    """``(n!, n)`` array of ``uint8``: entry [r, x] is candidate x's place
    in ranking r, 0 best."""
    return np.argsort(ranking_orders(n), axis=1).astype(np.uint8)


@lru_cache(maxsize=None)
def pairs_above(n: int) -> np.ndarray:
    """``(n!, n(n-1)/2)`` array of ``uint8``: row r lists ``x * n + y`` for
    every pair (x, y) that ranking r puts x above y, ordered by the places
    of x and then y.  Every cell is below n * n <= 100.

    A voter holding ranking r adds one to each listed cell of the flattened
    ``n * n`` tally, so a block's tallies (its ranking counts times the
    pairwise indicator matrix) need only the rankings actually held.
    """
    order = ranking_orders(n)
    above, below = np.triu_indices(n, 1)
    pairs = order[:, above] * n
    pairs += order[:, below]
    return pairs


def set_extremes(places: np.ndarray, worst: bool) -> np.ndarray:
    """``(2^n, k)``: under each column of ``places``, the ``(n, k)`` places
    (0 best) of the candidates in k rankings, the place of the best member
    of each candidate set, or with ``worst`` of its worst member (0 for the
    empty set).  Any keys that order the candidates as their places do
    serve as well.  A set whose highest-numbered member is x is x added to a
    set below 2^x, so the rows fill in n steps."""
    table = np.zeros((1 << len(places),) + places.shape[1:], places.dtype)
    extreme = np.maximum if worst else np.minimum
    for x in range(len(places)):
        table[1 << x] = places[x]
        extreme(table[1:1 << x], places[x], out=table[(1 << x) + 1:2 << x])
    return table


@lru_cache(maxsize=None)
def alive_extremes(n: int, worst: bool) -> np.ndarray:
    """``(2^n, n!)`` of ``uint8``: entry [A, r] is ranking r's highest
    member of the candidate set with bitmask A, or with ``worst`` its lowest
    (0 for the empty set)."""
    # a candidate's key, its place times n plus itself, orders it as its
    # place does, and the candidate is the key mod n; n * n fits in a byte
    keys = ranking_places(n).T * n + np.arange(n, dtype=np.uint8)[:, None]
    table = set_extremes(keys, worst)
    table %= n
    return table


@dataclass(frozen=True)
class PairwiseTally:
    """The margin matrix of a profile.

    ``counts[x][y]`` is the number of voters ranking x above y; the
    diagonal is zero.
    """

    counts: tuple[tuple[int, ...], ...]

    def count(self, x: int, y: int) -> int:
        """Number of voters ranking x above y (0 when x == y)."""
        return self.counts[x][y]

    def net(self, x: int, y: int) -> int:
        """Margin of x over y: count(x, y) - count(y, x)."""
        if x == y:
            raise ValueError("net margin needs two distinct candidates")
        return self.counts[x][y] - self.counts[y][x]


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
    import json  # only profile files in JSON need it

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
    import json  # only profile files in JSON need it

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
