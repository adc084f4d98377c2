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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .core import Profile, Ranking, default_labels

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
    return VotingMethod(
        id=f"{inner.id}@{order_text}",
        fn=lambda profile: tiebroken_winners(inner.fn, order, profile),
        anonymous=inner.anonymous,
    )


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
