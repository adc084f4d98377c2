"""Named verification targets for the command line.

Each target re-derives a frozen claim from scratch (winner sets on the
bundled example profiles, or witness counts over exhaustively enumerated
profile spaces) and reports one pass/fail line per component check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .census import DEFAULT_BUDGET, census_counts
from .dominance import dominates_strict
from .fixtures import EXAMPLES, ranking_of, set_of
from .manipulation import UncertaintySet, find_sure, method_set
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


def _pairs_eliminate(target, n, ms, pairs, singles, notion, kind, budget):
    checks = []
    sets = [method_set(*pair) for pair in pairs]
    sets += [method_set(name) for name in singles]
    for m in ms:
        counts = census_counts(sets, n, m, notion, kind, budget=budget)
        for pair in pairs:
            sid = "+".join(pair)
            checks.append(Check(
                f"({n},{m}) {kind} {sid}: no witnesses",
                counts[sid] == 0, f"witnessing profiles = {counts[sid]}",
            ))
        for name in singles:
            checks.append(Check(
                f"({n},{m}) {kind} {name}: susceptible",
                counts[name] >= 1, f"witnessing profiles = {counts[name]}",
            ))
    return VerifyReport(target, tuple(checks))


def _target_borda_vs_baldwin(budget: int) -> VerifyReport:
    return _pairs_eliminate(
        "borda-baldwin-pairs", 3, range(4, 9),
        [("borda", "baldwin"), ("borda", "strict_nanson")],
        ["borda", "baldwin", "strict_nanson"],
        "sure", "weak", budget,
    )


def _target_weak_nanson(budget: int) -> VerifyReport:
    return _pairs_eliminate(
        "weak-nanson-pairs", 3, range(4, 9),
        [("weak_nanson", "baldwin"), ("weak_nanson", "strict_nanson")],
        ["weak_nanson", "baldwin", "strict_nanson"],
        "sure", "weak", budget,
    )


def _target_borda_tiebreaks(budget: int) -> VerifyReport:
    orders = ("abc", "acb", "bac", "bca", "cab", "cba")
    variants = [parse_method(f"borda@{o}") for o in orders]
    family = UncertaintySet(tuple(variants))
    sets = [family] + [UncertaintySet((v,)) for v in variants]
    checks = []
    for m in (4, 5, 6):
        counts = census_counts(sets, 3, m, budget=budget)
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
    trio = ("borda", "coombs", "baldwin")
    family = method_set(*trio)
    sets = [family] + family.subsets()
    counts = census_counts(sets, 4, 3, budget=budget)
    checks = [Check(
        "(4,3) borda+coombs+baldwin: no witnesses",
        counts[family.id] == 0, f"witnessing profiles = {counts[family.id]}",
    )]
    for sub in family.subsets():
        checks.append(Check(
            f"(4,3) {sub.id}: susceptible",
            counts[sub.id] >= 1, f"witnessing profiles = {counts[sub.id]}",
        ))
    return VerifyReport("borda-coombs-baldwin", tuple(checks))


def _target_condorcet_pairs(budget: int) -> VerifyReport:
    partners = ("baldwin", "copeland", "maxmin", "strict_nanson", "weak_nanson")
    checks = []
    for kind in ("opt", "pes"):
        sets = [method_set("condorcet", p) for p in partners]
        sets += [method_set(name) for name in ("condorcet",) + partners]
        counts = census_counts(sets, 3, 6, "sure", kind, budget=budget)
        for p in partners:
            sid = f"condorcet+{p}"
            checks.append(Check(
                f"(3,6) sure-{kind} condorcet+{p}: no witnesses",
                counts[sid] == 0, f"witnessing profiles = {counts[sid]}",
            ))
        for name in ("condorcet",) + partners:
            checks.append(Check(
                f"(3,6) sure-{kind} {name}: susceptible",
                counts[name] >= 1, f"witnessing profiles = {counts[name]}",
            ))
    return VerifyReport("condorcet-pairs", tuple(checks))


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
    witness = find_sure(profile, move.voter, UncertaintySet(tuple(ten)), "weak")
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
        profile = ex.profile
        n = profile.n
        bad = []
        for mid, expect in ex.winners.items():
            got = METHODS[mid].winners(profile)
            if got != set_of(expect, n):
                bad.append(f"{mid}: got {sorted(got)}, expected {expect!r}")
        checks.append(Check(
            f"{ex.name}: sincere winners",
            not bad, "; ".join(bad) or f"{len(ex.winners)} methods as recorded",
        ))
        for move in ex.moves:
            changed = profile.replace_ranking(move.voter, ranking_of(move.ballot))
            bad = []
            for mid, expect in move.after.items():
                got = METHODS[mid].winners(changed)
                if got != set_of(expect, n):
                    bad.append(f"{mid}: got {sorted(got)}, expected {expect!r}")
            checks.append(Check(
                f"{ex.name}: winners after voter {move.voter} -> {move.ballot}",
                not bad, "; ".join(bad) or f"{len(move.after)} methods as recorded",
            ))
    return VerifyReport("examples", tuple(checks))


# Targets that run a census; each takes the census budget.
CENSUS_TARGETS: dict[str, Callable[[int], VerifyReport]] = {
    "borda-baldwin-pairs": _target_borda_vs_baldwin,
    "weak-nanson-pairs": _target_weak_nanson,
    "borda-tiebreaks": _target_borda_tiebreaks,
    "borda-coombs-baldwin": _target_borda_coombs_baldwin,
    "condorcet-pairs": _target_condorcet_pairs,
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
