"""Strategic-voting detectors under uncertainty about the voting method.

A voter who knows everyone's ballots but not which method from an
uncertainty set S will be applied can grade an insincere ballot in several
ways, all judged against the voter's sincere ranking and a dominance kind
from :mod:`votemanip.dominance`:

* ``sure``: every method in S yields a strictly better outcome;
* ``safe``: no method yields a worse-or-incomparable outcome and at least
  one yields a strictly better one;
* ``harmless``: no method yields a strictly worse outcome and at least one
  yields a strictly better one;
* ``expected``: under a probability weighting of S (uniform by default),
  the weight of strictly-better methods strictly exceeds the weight of
  strictly-worse ones;
* ``single``: the one-method special case, where all of the above agree.

``find_manipulation`` searches one voter's ballots for a witness of any
notion; it is the scalar reference the census engine is tested against.
``subset_family`` lists the sets a family census covers.  The census-level
judgments (does S eliminate manipulation outright, is one set less
susceptible than another) live in :mod:`votemanip.census`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from .core import Profile, Ranking, all_rankings
from .dominance import KINDS, dominates_nonstrict, dominates_strict
from .methods import VotingMethod, parse_method

if TYPE_CHECKING:
    from fractions import Fraction

NOTIONS = ("single", "sure", "safe", "harmless", "expected")


@dataclass(frozen=True)
class UncertaintySet:
    """A nonempty ordered set of methods the vote might be counted with."""

    methods: tuple[VotingMethod, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise ValueError("an uncertainty set needs at least one method")
        ids = [f.id for f in self.methods]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate methods in uncertainty set: {ids}")

    @property
    def id(self) -> str:
        return "+".join(f.id for f in self.methods)

    def __iter__(self):
        return iter(self.methods)

    def __len__(self) -> int:
        return len(self.methods)

    def subsets(self) -> list["UncertaintySet"]:
        """All nonempty proper subsets, in size order, preserving method order."""
        return subset_family(self.methods, len(self.methods) - 1)


def subset_family(methods: Sequence[VotingMethod], k: int) -> list[UncertaintySet]:
    """Every nonempty subset of ``methods`` with at most ``k`` members, by
    size and then in ``combinations`` order."""
    return [UncertaintySet(combo) for size in range(1, k + 1)
            for combo in combinations(methods, size)]


def method_set(*names: str, labels: Sequence[str] | None = None) -> UncertaintySet:
    """Builds an uncertainty set from method names (see ``parse_method``)."""
    return UncertaintySet(tuple(parse_method(name, labels) for name in names))


@dataclass(frozen=True)
class MethodOutcome:
    """How one method's winners move under a single ballot change."""

    method_id: str
    before: frozenset[int]
    after: frozenset[int]
    improves: bool  # after strictly dominates before
    not_worse: bool  # after nonstrictly dominates before
    worsens: bool  # before strictly dominates after

    @property
    def relation(self) -> str:
        if self.improves:
            return "better"
        if self.worsens:
            return "worse"
        return "neutral"


@dataclass(frozen=True)
class Witness:
    """A successful manipulation: one voter's switch to an insincere ballot."""

    voter: int
    true_ranking: Ranking
    new_ranking: Ranking
    outcomes: tuple[MethodOutcome, ...]


def _validate(notion: str, kind: str, methods: UncertaintySet,
              weights: Sequence[Fraction] | None) -> tuple[Fraction, ...] | None:
    if notion not in NOTIONS:
        raise ValueError(f"unknown notion {notion!r}, expected one of {NOTIONS}")
    if kind not in KINDS:
        raise ValueError(f"unknown dominance kind {kind!r}, expected one of {KINDS}")
    if notion == "single" and len(methods) != 1:
        raise ValueError("the 'single' notion applies to one-method sets only")
    if weights is None:
        return None
    if notion != "expected":
        raise ValueError("weights only apply to the 'expected' notion")
    from fractions import Fraction  # only weighted sets need it

    ws = tuple(Fraction(w) for w in weights)
    if len(ws) != len(methods):
        raise ValueError(f"{len(ws)} weights for {len(methods)} methods")
    if any(w < 0 for w in ws) or sum(ws) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    return ws


def notion_holds(
    notion: str,
    flags: Sequence[tuple[bool, bool, bool]],
    weights: Sequence[Fraction] | None = None,
) -> bool:
    """Whether per-method (improves, not_worse, worsens) flags witness ``notion``.

    With no weights, ``expected`` compares how many methods improve versus
    worsen; ties in either comparison are never witnesses.
    """
    if notion in ("sure", "single"):
        return all(f[0] for f in flags)
    if notion == "safe":
        return all(f[1] for f in flags) and any(f[0] for f in flags)
    if notion == "harmless":
        return not any(f[2] for f in flags) and any(f[0] for f in flags)
    if notion == "expected":
        if weights is None:
            return sum(f[0] for f in flags) > sum(f[2] for f in flags)
        better = sum(w for f, w in zip(flags, weights) if f[0])
        worse = sum(w for f, w in zip(flags, weights) if f[2])
        return better > worse
    raise ValueError(f"unknown notion {notion!r}")


def _outcome(
    method: VotingMethod,
    before: frozenset[int],
    after: frozenset[int],
    true_ranking: Ranking,
    kind: str,
) -> MethodOutcome:
    return MethodOutcome(
        method_id=method.id,
        before=before,
        after=after,
        improves=dominates_strict(kind, after, before, true_ranking),
        not_worse=dominates_nonstrict(kind, after, before, true_ranking),
        worsens=dominates_strict(kind, before, after, true_ranking),
    )


def classify_transition(
    profile: Profile,
    voter: int,
    new_ranking: Ranking,
    methods: UncertaintySet,
    kind: str = "weak",
) -> tuple[MethodOutcome, ...]:
    """Grades one voter's switch to ``new_ranking`` under every method in S."""
    true_ranking = profile.rankings[voter]
    if new_ranking == true_ranking:
        raise ValueError("the new ranking must differ from the sincere one")
    changed = profile.replace_ranking(voter, new_ranking)
    return tuple(
        _outcome(f, f.winners(profile), f.winners(changed), true_ranking, kind)
        for f in methods
    )


def find_manipulation(
    profile: Profile,
    voter: int,
    methods: UncertaintySet,
    notion: str = "sure",
    kind: str = "weak",
    weights: Sequence[Fraction] | None = None,
) -> Witness | None:
    """The voter's first witnessing ballot change, or None.

    Alternative ballots are tried in lexicographic order of their id
    sequences, so the returned witness is deterministic.
    """
    ws = _validate(notion, kind, methods, weights)
    true_ranking = profile.rankings[voter]
    befores = [f.winners(profile) for f in methods]
    for alt in all_rankings(profile.n):
        if alt == true_ranking:
            continue
        changed = profile.replace_ranking(voter, alt)
        outcomes = tuple(
            _outcome(f, before, f.winners(changed), true_ranking, kind)
            for f, before in zip(methods, befores)
        )
        flags = [(o.improves, o.not_worse, o.worsens) for o in outcomes]
        if notion_holds(notion, flags, ws):
            return Witness(voter, true_ranking, alt, outcomes)
    return None


def profile_witnesses(
    profile: Profile,
    notion: str,
    methods: UncertaintySet,
    kind: str = "weak",
    weights: Sequence[Fraction] | None = None,
) -> tuple[int, Witness] | None:
    """The first (voter, witness) pair on this profile, scanning voters 0..m-1."""
    for voter in range(profile.m):
        witness = find_manipulation(profile, voter, methods, notion, kind, weights)
        if witness is not None:
            return voter, witness
    return None


# --- profile constructions that preserve winners ---------------------------


def add_two_voters(profile: Profile) -> Profile:
    """Appends two opposed voters (abc and cba) to a 3-candidate profile.

    The appended pair cancels in every pairwise count, so tally-based
    winners are unchanged.
    """
    if profile.n != 3:
        raise ValueError("this construction is defined for 3 candidates")
    return Profile(profile.rankings + (Ranking((0, 1, 2)), Ranking((2, 1, 0))))


def add_24_voters(profile: Profile) -> Profile:
    """Appends one voter per ranking of 4 candidates.

    The block is balanced — every pairwise margin is unchanged and every
    candidate gains exactly six first places — so margin- and score-based
    winners are unchanged.
    """
    if profile.n != 4:
        raise ValueError("this construction is defined for 4 candidates")
    return Profile(profile.rankings + all_rankings(4))


def add_bottom_candidate(profile: Profile) -> Profile:
    """Appends a new candidate ranked last by every voter."""
    n = profile.n
    return Profile(tuple(Ranking(r.order + (n,)) for r in profile.rankings))
