"""Named verification targets for the command line.

Each target re-derives a frozen claim from scratch (winner sets on the
bundled example profiles, or witness counts over exhaustively enumerated
profile spaces) and reports one pass/fail line per component check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .census import DEFAULT_BUDGET, census_of, family_census
from .dominance import dominates_strict
from .fixtures import EXAMPLES, ranking_of, set_of
from .manipulation import UncertaintySet, find_manipulation, method_set
from .methods import METHODS, parse_method


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    target: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _claims(prefix: str, counts: dict, free, susceptible) -> list[Check]:
    """Checks that each set id in ``free`` has no witnessing profile and
    each in ``susceptible`` has one, named ``prefix`` and the id."""
    checks = [Check(f"{prefix} {sid}: no witnesses", counts[sid] == 0,
                    f"witnessing profiles = {counts[sid]}") for sid in free]
    return checks + [Check(f"{prefix} {sid}: susceptible", counts[sid] >= 1,
                           f"witnessing profiles = {counts[sid]}") for sid in susceptible]


def _pairs_eliminate(target, lead, partners, runs):
    """A target claiming that ``lead`` paired with each of ``partners`` has
    no witnesses while each method alone is susceptible, at n = 3 in one
    census per run ``(m, notion, kind, label)``."""
    pairs = [method_set(lead, p) for p in partners]
    singles = [method_set(name) for name in (lead,) + partners]

    def run(budget: int) -> VerifyReport:
        checks = []
        for m, notion, kind, label in runs:
            counts = census_of(pairs + singles, 3, m, notion, kind, budget=budget).counts()
            checks += _claims(f"(3,{m}) {label}", counts,
                              [s.id for s in pairs], [s.id for s in singles])
        return VerifyReport(target, tuple(checks))

    return run


def _target_borda_tiebreaks(budget: int) -> VerifyReport:
    orders = ("abc", "acb", "bac", "bca", "cab", "cba")
    variants = [parse_method(f"borda@{o}") for o in orders]
    family = UncertaintySet(tuple(variants))
    sets = [family] + [UncertaintySet((v,)) for v in variants]
    checks = []
    for m in (4, 5, 6):
        counts = census_of(sets, 3, m, budget=budget).counts()
        checks.append(Check(
            f"(3,{m}) all six tiebreakings together: no witnesses",
            counts[family.id] == 0, f"witnessing profiles = {counts[family.id]}",
        ))
        least = min(counts[v.id] for v in variants)
        checks.append(Check(
            f"(3,{m}) each tiebreaking alone: susceptible",
            least >= 1, f"min witnessing profiles over the six = {least}",
        ))
    return VerifyReport("borda-tiebreaks", tuple(checks))


def _target_borda_coombs_baldwin(budget: int) -> VerifyReport:
    family = method_set("borda", "coombs", "baldwin")
    counts = family_census(family, len(family), 4, 3, budget=budget).counts()
    return VerifyReport("borda-coombs-baldwin", tuple(_claims(
        "(4,3)", counts, [family.id], [sub.id for sub in family.subsets()])))


def _target_ten_method_profile() -> VerifyReport:
    ex = EXAMPLES["ten-method-44"]
    profile = ex.profile
    move = ex.moves[0]
    changed = profile.replace_ranking(move.voter, ranking_of(move.ballot))
    voter_ranking = profile.rankings[move.voter]
    checks = []
    ten = [METHODS[mid] for mid in ex.winners]
    for f in ten:
        before, after = f.winners(profile), f.winners(changed)
        ok = (
            before == set_of(ex.winners[f.id], 4)
            and after == set_of(move.after[f.id], 4)
            and dominates_strict("weak", after, before, voter_ranking)
        )
        checks.append(Check(
            f"{f.id}: {move.ballot} strictly improves the winners",
            ok, f"{sorted(before)} -> {sorted(after)}",
        ))
    # One shared improving transition witnesses every nonempty subset, so
    # checking the full set certifies the sweep; the detector must agree.
    witness = find_manipulation(profile, move.voter, UncertaintySet(tuple(ten)),
                                "sure", "weak")
    checks.append(Check(
        "detector finds a sure-weak witness for all ten methods at once",
        witness is not None,
        "none found" if witness is None else
        f"voter {witness.voter} -> {''.join('abcd'[x] for x in witness.new_ranking.order)}",
    ))
    return VerifyReport("ten-method-profile", tuple(checks))


def _target_examples() -> VerifyReport:
    checks = []
    for ex in EXAMPLES.values():
        cases = [(f"{ex.name}: sincere winners", ex.profile, ex.winners)] + [
            (f"{ex.name}: winners after voter {move.voter} -> {move.ballot}",
             ex.profile.replace_ranking(move.voter, ranking_of(move.ballot)), move.after)
            for move in ex.moves]
        for name, profile, winners in cases:
            bad = []
            for mid, expect in winners.items():
                got = METHODS[mid].winners(profile)
                if got != set_of(expect, profile.n):
                    bad.append(f"{mid}: got {sorted(got)}, expected {expect!r}")
            checks.append(Check(name, not bad,
                                "; ".join(bad) or f"{len(winners)} methods as recorded"))
    return VerifyReport("examples", tuple(checks))


# Targets that run a census; each takes the census budget.
CENSUS_TARGETS: dict[str, Callable[[int], VerifyReport]] = {
    "borda-baldwin-pairs": _pairs_eliminate(
        "borda-baldwin-pairs", "borda", ("baldwin", "strict_nanson"),
        [(m, "sure", "weak", "weak") for m in range(4, 9)]),
    "weak-nanson-pairs": _pairs_eliminate(
        "weak-nanson-pairs", "weak_nanson", ("baldwin", "strict_nanson"),
        [(m, "sure", "weak", "weak") for m in range(4, 9)]),
    "borda-tiebreaks": _target_borda_tiebreaks,
    "borda-coombs-baldwin": _target_borda_coombs_baldwin,
    "condorcet-pairs": _pairs_eliminate(
        "condorcet-pairs", "condorcet",
        ("baldwin", "copeland", "maxmin", "strict_nanson", "weak_nanson"),
        [(6, "sure", kind, f"sure-{kind}") for kind in ("opt", "pes")]),
}

TARGETS: dict[str, Callable[..., VerifyReport]] = {
    **CENSUS_TARGETS,
    "ten-method-profile": _target_ten_method_profile,
    "examples": _target_examples,
}


def run_target(target: str, budget: int | None = None) -> VerifyReport:
    """Runs one named verification target.

    ``budget`` caps the census of a census target (None means
    ``DEFAULT_BUDGET``); the other targets run no census and reject one.
    """
    if target not in TARGETS:
        raise ValueError(
            f"unknown verify target {target!r}; expected one of {sorted(TARGETS)}"
        )
    if target in CENSUS_TARGETS:
        return CENSUS_TARGETS[target](DEFAULT_BUDGET if budget is None else budget)
    if budget is not None:
        raise ValueError(
            f"verify target {target!r} runs no census, so it takes no budget; "
            f"the census targets are {', '.join(sorted(CENSUS_TARGETS))}"
        )
    return TARGETS[target]()
