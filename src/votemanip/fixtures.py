"""Worked examples shared by the test-suite and the verify command.

Each example is a small profile with frozen winner sets and, where the
example is about a strategic move, one or more ballot switches with the
frozen winner sets after the switch.  Ballot strings use the default
single-character labels, best first, voters separated by spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import Profile, Ranking, default_labels
from .methods import METHOD_ORDER


def ranking_of(text: str) -> Ranking:
    """Ranking from a label string like ``"bca"`` (best first)."""
    labels = default_labels(len(text))
    return Ranking(tuple(labels.index(ch) for ch in text))


def profile_of(text: str) -> Profile:
    """Profile from space-separated ballot strings like ``"abc bca cab"``."""
    ballots = text.split()
    return Profile(tuple(ranking_of(b) for b in ballots))


def set_of(text: str, n: int) -> frozenset[int]:
    """Candidate set from a label string like ``"bc"``."""
    labels = default_labels(n)
    return frozenset(labels.index(ch) for ch in text)


@dataclass(frozen=True, eq=False)
class Move:
    voter: int
    ballot: str
    after: Mapping[str, str]  # method id -> winner labels


@dataclass(frozen=True, eq=False)
class Example:
    name: str
    ballots: str
    winners: Mapping[str, str]  # method id -> winner labels
    moves: tuple[Move, ...] = ()

    @property
    def profile(self) -> Profile:
        return profile_of(self.ballots)


_TEN = tuple(mid for mid in METHOD_ORDER if mid != "condorcet")


def _spread(winners: str, methods=_TEN) -> dict[str, str]:
    return {mid: winners for mid in methods}


EXAMPLES: dict[str, Example] = {
    # A divided 4-voter profile where one pessimist's switch to bac turns
    # every base method's winners into {b, c}, a sure improvement over {c}
    # in the weak sense for a voter whose sincere ranking is abc.
    "sure-weak-34": Example(
        name="sure-weak-34",
        ballots="abc bca cab cba",
        winners={
            "plurality": "c", "borda": "c", "condorcet": "abc", "copeland": "c",
            "maxmin": "bc", "plurality_runoff": "c", "hare": "c", "coombs": "bc",
            "baldwin": "bc", "strict_nanson": "bc", "weak_nanson": "c",
        },
        moves=(Move(0, "bac", _spread("bc") | {"condorcet": "abc"}),),
    ),
    # Swapping one voter's b and c breaks all ties in a's favor, a sure
    # improvement for a pessimist (and a weak one) with sincere ranking abc.
    "sure-pes-34": Example(
        name="sure-pes-34",
        ballots="abc acb bac cba",
        winners={
            "plurality": "a", "borda": "a", "condorcet": "abc", "copeland": "a",
            "maxmin": "ab", "plurality_runoff": "a", "hare": "a", "coombs": "ab",
            "baldwin": "ab", "strict_nanson": "ab", "weak_nanson": "a",
        },
        moves=(Move(0, "acb", _spread("a") | {"condorcet": "abc"}),),
    ),
    # Dropping b to last flattens the Borda scores, turning {b} into a full
    # tie: an optimist's sure improvement under the Borda-based methods.
    "sure-opt-35": Example(
        name="sure-opt-35",
        ballots="abc abc bac cba cba",
        winners={"borda": "b", "baldwin": "b", "strict_nanson": "b",
                 "weak_nanson": "b"},
        moves=(
            Move(0, "acb", {"borda": "abc", "baldwin": "abc",
                            "strict_nanson": "abc", "weak_nanson": "abc"}),
        ),
    ),
    # Four candidates, three voters: pushing d above b hands the Borda
    # family strictly better sets for the abcd voter.
    "sure-weak-43": Example(
        name="sure-weak-43",
        ballots="abcd bdca cabd",
        winners={"borda": "b", "baldwin": "abc", "strict_nanson": "abc",
                 "weak_nanson": "abc"},
        moves=(
            Move(0, "adbc", {"borda": "ab", "baldwin": "a",
                             "strict_nanson": "a", "weak_nanson": "a"}),
        ),
    ),
    # The profile behind the safe/expected contrasts: voter 0 (cba) moving
    # to bac helps Hare, hurts Borda, and leaves MaxMin incomparable.
    "unsafe-35": Example(
        name="unsafe-35",
        ballots="cba acb bac cba acb",
        winners={"hare": "a", "borda": "c", "maxmin": "ac", "baldwin": "a"},
        moves=(
            Move(0, "bac", {"hare": "b", "borda": "a", "maxmin": "ab",
                            "baldwin": "b"}),
        ),
    ),
    # Voter 0 can nudge Borda from {a} to {a, c} by swapping a and b, while
    # Coombs stays put; the move flips exactly one adjacent pair.
    "pdict-35": Example(
        name="pdict-35",
        ballots="cab cab acb acb acb",
        winners={"borda": "a", "coombs": "a"},
        moves=(Move(0, "cba", {"borda": "ac", "coombs": "a"}),),
    ),
    # Lottery example: the cab move trades a {a,b} tie under Coombs and
    # Copeland for {a} while Hare slides to {b}; the induced lottery over
    # {Coombs, Copeland, Hare} moves from (1/2, 1/2, 0) to (2/3, 1/3, 0).
    "sd-not-safe-34": Example(
        name="sd-not-safe-34",
        ballots="abc acb bac bac",
        winners={"coombs": "ab", "copeland": "ab", "hare": "ab"},
        moves=(Move(0, "cab", {"coombs": "a", "copeland": "a", "hare": "b"}),),
    ),
    # A single profile witnessing sure-weak manipulation for every nonempty
    # subset of the ten base methods at once, via the move to bdca.
    "ten-method-44": Example(
        name="ten-method-44",
        ballots="abcd bdca cabd cabd",
        winners=_spread("c"),
        moves=(Move(0, "bdca", _spread("bc")),),
    ),
}
