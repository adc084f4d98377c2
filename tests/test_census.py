"""Census engine: counts, determinism, sampling, serialization."""

import json
import math
import sys
import tracemalloc
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, wraps
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from votemanip import census, methods
from votemanip.census import (
    CSV_COLUMNS,
    BudgetExceededError,
    CensusSpec,
    elimination_scan,
    enumerate_profiles,
    pair_table,
    report_csv,
    report_json,
    run_census,
    sample_profiles,
    _ClassKernel,
    _Colex,
    _Orbits,
    _sample_rows,
)
from votemanip.core import (
    Profile, Ranking, all_rankings, default_labels, ranking_orders, ranking_places,
)
from votemanip.dominance import KINDS, dominates_nonstrict, dominates_strict
from votemanip.manipulation import (
    NOTIONS, UncertaintySet, find_manipulation, method_set, notion_holds, subset_family,
)
from votemanip.methods import (
    METHOD_ORDER, METHODS, VotingMethod, _Counts, parse_method, tiebroken,
)


def naive_counts(spec: CensusSpec) -> dict[str, tuple[int, int]]:
    """Witness counts by direct per-profile, per-voter search.  In an
    exhaustive census a set of anonymous methods is judged on one profile
    per anonymous class (``class_counts``); any other set, such as one with
    a pairwise dictator, and every set of a sampled census, on every
    labeled or sampled profile (``labeled_counts``)."""
    exhaustive = spec.mode == "exhaustive"
    by_class = [s for s in spec.method_sets if exhaustive and all(f.anonymous for f in s)]
    labeled = [s for s in spec.method_sets if s not in by_class]
    return {**(class_counts(spec, by_class) if by_class else {}),
            **(labeled_counts(spec, labeled) if labeled else {})}


def memoized(sets: Sequence[UncertaintySet]) -> list[UncertaintySet]:
    """``sets`` with each method's winners cached: they are a function of
    the profile alone, so sharing them across sets only saves time."""
    memo = {f.id: VotingMethod(f.id, cache(f.fn), f.anonymous) for s in sets for f in s}
    return [UncertaintySet(tuple(memo[f.id] for f in s)) for s in sets]


def labeled_counts(spec: CensusSpec, sets: Sequence[UncertaintySet]
                   ) -> dict[str, tuple[int, int]]:
    """Witness counts of ``sets`` over every labeled profile, or every
    sampled one, searching each voter's alternative ballots."""
    if spec.mode == "sample":
        profiles = sample_profiles(spec.n, spec.m, spec.samples, spec.seed)
    else:
        profiles = list(enumerate_profiles(spec.n, spec.m))
    out = {}
    for s in memoized(sets):
        n_profiles = 0
        n_pointed = 0
        for p in profiles:
            hits = sum(
                1
                for voter in range(spec.m)
                if find_manipulation(
                    p, voter, s, spec.notion, spec.kind, spec.weights
                )
            )
            n_profiles += bool(hits)
            n_pointed += hits
        out[s.id] = (n_profiles, n_pointed)
    return out


def class_counts(spec: CensusSpec, sets: Sequence[UncertaintySet]
                 ) -> dict[str, tuple[int, int]]:
    """Witness counts of ``sets`` of anonymous methods in an exhaustive
    census: one profile per multiset of rankings, standing for its
    m!/(c_1! ... c_k!) labeled profiles, and one search per distinct
    ranking held, standing for its c_r holders in each of them."""
    sets = memoized(sets)
    out = {s.id: (0, 0) for s in sets}
    for combo in combinations_with_replacement(all_rankings(spec.n), spec.m):
        p = Profile(combo)
        holders = Counter(combo)
        weight = math.factorial(spec.m) // math.prod(map(math.factorial, holders.values()))
        for s in sets:
            pointed = sum(c for r, c in holders.items() if find_manipulation(
                p, combo.index(r), s, spec.notion, spec.kind, spec.weights))
            n_profiles, n_pointed = out[s.id]
            out[s.id] = (n_profiles + weight * bool(pointed), n_pointed + weight * pointed)
    return out


def engine_counts(spec: CensusSpec) -> dict[str, tuple[int, int]]:
    report = run_census(spec)
    return {r.set_id: (r.witness_profiles, r.witness_pointed) for r in report.results}


def non_anonymous_sets(family: str) -> tuple[UncertaintySet, ...]:
    """Sets with pairwise dictators, plain or tiebroken, beside anonymous
    methods."""
    if family == "tiebroken-dictator":
        # a tiebreak copies the dictator's batched form and the voter it reads
        return (UncertaintySet((tiebroken(parse_method("pdict:a,b,1"), Ranking((2, 1, 0))),
                                METHODS["borda"])), method_set("borda"))
    return tuple(method_set(*names) for names in {
        "dictator": (("borda", "pdict:a,b,0"), ("borda",)),
        "dictator-on-1": (("borda", "pdict:a,c,1"),),
        # at m = 2 every voter is labeled
        "every-voter-dictated": (("pdict:a,b,0", "pdict:b,c,1"), ("borda", "pdict:a,c,1")),
        "two-dictators": (("borda", "pdict:a,b,0"), ("hare", "pdict:b,c,2"),
                          ("pdict:a,b,0", "pdict:b,c,2"), ("borda", "hare")),
    }[family])


def refuse_ranking_tables(monkeypatch) -> None:
    """Makes the census fail if it builds a table of every ranking."""
    def refuse(n):
        raise AssertionError(f"ranking table of n={n} built before the census was refused")
    monkeypatch.setattr(census, "ranking_orders", refuse)
    monkeypatch.setattr(census, "all_rankings", refuse)


class TestAgainstNaiveSearch:
    @pytest.mark.parametrize(
        "n,m,names,notion,kind",
        [
            (3, 3, ("borda",), "sure", "weak"),
            (3, 3, ("borda", "hare"), "sure", "weak"),
            (3, 2, ("coombs",), "safe", "weak"),
            (3, 2, ("plurality", "maxmin"), "harmless", "opt"),
            (3, 2, ("copeland", "hare"), "expected", "pes"),
            (2, 4, ("plurality",), "sure", "weak"),
            # moves that differ only in whether a method worsens (weak
            # dominance leaves some moves incomparable) must not share a verdict
            (3, 4, ("plurality", "borda"), "harmless", "weak"),
        ],
    )
    def test_exhaustive_matches(self, n, m, names, notion, kind):
        spec = CensusSpec(
            n=n, m=m, method_sets=(method_set(*names),), notion=notion, kind=kind
        )
        assert engine_counts(spec) == naive_counts(spec)

    def test_weighted_expected_matches(self):
        spec = CensusSpec(
            n=3,
            m=3,
            method_sets=(method_set("borda", "hare"),),
            notion="expected",
            weights=(Fraction(3, 4), Fraction(1, 4)),
        )
        assert engine_counts(spec) == naive_counts(spec)

    def test_weighted_expected_past_float64_matches(self):
        # a common denominator of 3^35, beyond float64's exact integers, so
        # the kernel's member weights are Python integers
        spec = CensusSpec(
            n=3,
            m=3,
            method_sets=(method_set("borda", "hare"),),
            notion="expected",
            weights=(Fraction(1, 3 ** 35), 1 - Fraction(1, 3 ** 35)),
        )
        assert engine_counts(spec) == naive_counts(spec) == {"borda+hare": (54, 72)}

    # Under ``safe`` a set with a dictator counts nonzero, so the labeled
    # voters' switches are pinned by more than zeros: borda+pdict:a,b,0 at
    # (3,3) counts (50, 64) and borda+pdict:a,c,1 at (3,2) (6, 10).
    # ``harmless`` is judged under ``opt`` and ``expected`` under ``pes``.
    @pytest.mark.parametrize("notion", ["sure", "safe", "harmless", "expected"])
    @pytest.mark.parametrize("m,family", [
        (3, "dictator"), (3, "two-dictators"), (4, "two-dictators"),
        (3, "tiebroken-dictator"), (2, "every-voter-dictated"),
    ])
    def test_non_anonymous_sets_match(self, m, family, notion):
        kind = {"harmless": "opt", "expected": "pes"}.get(notion, "weak")
        spec = CensusSpec(n=3, m=m, method_sets=non_anonymous_sets(family), notion=notion,
                          kind=kind)
        assert engine_counts(spec) == naive_counts(spec)

    def test_only_a_sampled_census_scores_switches(self, monkeypatch):
        # An exhaustive census reads every switch's outcome, a labeled
        # voter's too, from its id array; sampling scores switched blocks.
        sets = non_anonymous_sets("two-dictators")
        exhaustive = CensusSpec(n=3, m=3, method_sets=sets, notion="safe")
        sampled = CensusSpec(n=3, m=3, method_sets=sets, notion="safe",
                             mode="sample", samples=100, seed=7)

        def switched(*args):
            raise AssertionError("a switched block was scored")

        with monkeypatch.context() as patch:
            patch.setattr(census, "_Switched", switched)
            assert engine_counts(exhaustive) == naive_counts(exhaustive)
            with pytest.raises(AssertionError, match="switched block"):
                run_census(sampled)
        assert engine_counts(sampled) == naive_counts(sampled)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("notion", NOTIONS)
    @pytest.mark.parametrize("n,m", [(3, 1), (4, 1), (3, 2), (4, 2), (3, 3)])
    def test_few_voters_match_both_oracles(self, n, m, notion, kind):
        # With one voter the class walk's only class of other voters is empty.
        # The class oracle, one profile per anonymous class weighted by its
        # labeled profiles and each ranking by its holders, counts what
        # judging every labeled profile counts.
        names = [("borda",), ("hare",)] if notion == "single" else [("borda", "hare")]
        spec = CensusSpec(n=n, m=m, method_sets=tuple(method_set(*s) for s in names),
                          notion=notion, kind=kind)
        sets = spec.method_sets
        assert engine_counts(spec) == class_counts(spec, sets) == labeled_counts(spec, sets)

    def test_sampled_census_matches(self):
        spec = CensusSpec(
            n=3, m=4, method_sets=(method_set("borda"),),
            mode="sample", samples=300, seed=99,
        )
        assert engine_counts(spec) == naive_counts(spec)

    def test_sampled_census_with_wide_rows_matches(self):
        # 720-wide rows: each class's 1,440 switches are scored in several blocks
        spec = CensusSpec(
            n=6, m=2, method_sets=(method_set("borda"), method_set("hare"),
                                   method_set("borda", "hare")),
            mode="sample", samples=20, seed=5,
        )
        assert engine_counts(spec) == naive_counts(spec)

    @pytest.mark.parametrize("m,family", [
        (3, "dictator-on-1"), (3, "two-dictators"), (4, "two-dictators"),
        (2, "every-voter-dictated"),
    ])
    def test_sampled_non_anonymous_census_matches(self, m, family):
        spec = CensusSpec(
            n=3, m=m, method_sets=non_anonymous_sets(family),
            mode="sample", samples=200, seed=7,
        )
        assert engine_counts(spec) == naive_counts(spec)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("notion", NOTIONS)
    def test_sampled_census_scores_only_holders_who_can_gain(self, monkeypatch, notion, kind):
        # A holder whose top candidate every method elects alone witnesses
        # nothing, so its switches are not scored.  Counted from the scalar
        # methods: the holders of the distinct classes drawn (each labeled
        # voter, and each ranking the others hold), and those who can gain.
        # Each class is scored once more, as a null switch of its own.
        names = ([("borda",), ("hare",), ("pdict:a,b,0",)] if notion == "single" else
                 [("borda",), ("hare",), ("borda", "hare"), ("borda", "pdict:a,b,0")])
        spec = CensusSpec(n=3, m=4, method_sets=tuple(method_set(*s) for s in names),
                          notion=notion, kind=kind, mode="sample", samples=60, seed=3)
        universe = {f.id: f for s in spec.method_sets for f in s}.values()
        classes = {(p.rankings[0], tuple(sorted(r.order for r in p.rankings[1:]))): p
                   for p in sample_profiles(spec.n, spec.m, spec.samples, spec.seed)}
        holders = gain = 0
        for p in classes.values():
            winners = {f.fn(p) for f in universe}
            for r in [p.rankings[0], *set(p.rankings[1:])]:
                holders += 1
                gain += winners != {frozenset({r.order[0]})}
        assert 0 < gain < holders
        scored = []

        def spy(base, cls, *args):
            scored.append(len(cls))
            return switched(base, cls, *args)

        switched = census._Switched
        monkeypatch.setattr(census, "_Switched", spy)
        assert engine_counts(spec) == naive_counts(spec)
        assert sum(scored) == math.factorial(spec.n) * gain + len(classes)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("notion", ["sure", "safe", "expected"])
    def test_sampled_hare_walks_one_table_per_base_block(self, monkeypatch, notion, kind):
        # Hare on a switched block reads no places: it walks its base
        # block's steps, built once per chunk and shared by the chunk's
        # switched blocks.  Borda and a pairwise dictator read no places
        # either, so no switched block of this census calls ``places``.
        # With no pairwise method a switched block holds 8,192 rows at
        # n = 4, so it takes 120 samples for the one chunk to span two.
        names = [("hare",), ("hare@dcba",), ("borda", "hare"), ("hare", "pdict:a,b,0")]
        spec = CensusSpec(n=4, m=4, method_sets=tuple(method_set(*s) for s in names),
                          notion=notion, kind=kind, mode="sample", samples=120, seed=11)
        walked, built = [], []

        def places(self, *args):
            raise AssertionError("a switched block's places were read")

        def hare(self):
            walked.append(self)  # held, so that ids stay distinct
            return switched_hare(self)

        def steps(*args):
            built.append(1)
            return build(*args)

        switched_hare, build = methods._Switched.hare, methods._hare_steps
        monkeypatch.setattr(methods._Switched, "places", places)
        monkeypatch.setattr(methods._Switched, "hare", hare)
        monkeypatch.setattr(methods, "_hare_steps", steps)
        assert engine_counts(spec) == naive_counts(spec)
        blocks = {id(block): block.base for block in walked}
        assert len(built) == len({id(base) for base in blocks.values()}) < len(blocks)


class TestOthersClassWalk:
    """The exhaustive walk visits each class of m - 1 voters, o, and reaches
    class o + e_v when one more voter holds ranking v."""

    # o as sorted rows while m - 1 < n!, as holder counts beyond, at (2,3)
    # to (2,6) and (3,7), and the one empty class at m = 1
    @pytest.mark.parametrize("n,m", [*((2, m) for m in range(1, 7)),
                                     *((3, m) for m in range(1, 8)),
                                     *((4, m) for m in range(1, 4))])
    def test_added_ranks_and_pointed_weights_match_the_explicit_classes(self, n, m):
        fact = math.factorial(n)
        colex, others = _Colex(n, m), _Colex(n, m - 1)
        counts = others.unrank(np.arange(others.classes))
        ranks = colex.added_ranks(counts).ravel()
        o, v = np.divmod(np.arange(len(ranks)), fact)
        joined = counts[o] + np.eye(fact, dtype=np.uint8)[v]  # o + e_v
        assert ranks.tolist() == colex.rank(joined).tolist()
        # the pair (o, v) stands for the c_v holders of v in each labeled
        # profile of o + e_v: m (m-1)!/(o_1! ... o_k!) = c_v m!/(c_1! ... c_k!)
        assert (m * others.weights(counts)[o] == joined[np.arange(len(o)), v]
                * colex.weights(joined)).all()
        # Each class has one pair with no voter of o below v, and of the
        # class's pairs it has the o walked last.
        last = (np.cumsum(counts, axis=1) == counts).ravel()
        assert sorted(ranks[last].tolist()) == list(range(colex.classes))
        walked = np.zeros(colex.classes, np.int64)
        np.maximum.at(walked, ranks, o)
        assert (walked[ranks[last]] == o[last]).all()

    def test_added_ranks_are_exact_at_five_candidates(self):
        # 871,200 pairs (o, v) at (5,3): each ranking v's column at a time
        colex = _Colex(5, 3)
        counts = colex.others.unrank(np.arange(colex.others.classes))
        ranks = colex.added_ranks(counts)
        for v in range(colex.fact):
            joined = counts.copy()
            joined[:, v] += 1  # o + e_v
            assert np.array_equal(ranks[:, v], colex.rank(joined)), v


class TestColexBlocks:
    """``_Colex.block`` builds the block of its classes in its own form:
    one entry per voter of a sorted row while m < n!, and the nonzero
    holder counts of a count row beyond."""

    @pytest.mark.parametrize("labeled", [0, 2])
    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 5), (3, 6), (3, 7), (4, 3)])
    def test_a_block_has_the_statistics_of_its_count_rows(self, n, m, labeled):
        # Every class, beside ``labeled`` voters holding seeded rankings,
        # against the same classes as dense count rows: (3, 5) and (4, 3)
        # are sorted rows, (3, 6) and (3, 7) holder counts.
        colex = _Colex(n, m)
        index = np.arange(colex.classes)
        rng = np.random.default_rng(n * 10 + m)
        held = {v: rng.integers(0, colex.fact, colex.classes) for v in range(labeled)}
        classes = colex.at(index)
        assert classes.shape == (colex.classes, min(m, colex.fact))
        rows = colex.unrank(index)
        for rankings in held.values():
            rows[index, rankings] += 1
        block, dense = colex.block(classes, held), _Counts.of(n, rows, held)
        assert np.array_equal(block.voters(), np.full(colex.classes, m + labeled))
        assert np.array_equal(block.voters(), dense.voters())
        assert np.array_equal(block.tallies(), dense.tallies())
        assert np.array_equal(block.scores(), dense.scores())
        for mask, worst in product(range(1 << n), (False, True)):
            alive = np.full(colex.classes, mask)
            assert np.array_equal(block.places(alive, worst), dense.places(alive, worst))
        for v, rankings in held.items():
            assert np.array_equal(block.held_by(v), rankings)


ALL_METHODS = tuple(METHODS[name] for name in METHOD_ORDER)


def unmarked(sets) -> tuple[UncertaintySet, ...]:
    """``sets`` with each method's ``fn`` copied without its neutral mark,
    so that a census of them judges every ranking beside each class."""
    copies: dict[str, VotingMethod] = {}
    for f in (f for s in sets for f in s if f.id not in copies):
        fn = wraps(f.fn)(lambda profile, f=f: f.fn(profile))
        del fn.neutral
        copies[f.id] = VotingMethod(f.id, fn)
    return tuple(UncertaintySet(tuple(copies[f.id] for f in s)) for s in sets)


class TestNeutralWalk:
    """With every method neutral, the class walk judges only the identity
    ranking beside each class of the other voters and relabels; it must
    count what the walk judging every ranking counts."""

    def check(self, n, m, sets, notion="sure", kind="weak", weights=None):
        spec = CensusSpec(n=n, m=m, method_sets=tuple(sets), notion=notion, kind=kind,
                          weights=weights)
        present = CensusSpec(n=n, m=m, method_sets=unmarked(sets), notion=notion, kind=kind,
                             weights=weights)
        assert _ClassKernel(spec).neutral and not _ClassKernel(present).neutral
        assert engine_counts(spec) == engine_counts(present), (n, m, notion, kind)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("notion", NOTIONS)
    def test_the_pair_family_matches(self, notion, kind):
        sets = subset_family(ALL_METHODS, 1 if notion == "single" else 2)
        for n, m in [*((3, m) for m in range(1, 9)), *((4, m) for m in range(1, 4))]:
            self.check(n, m, sets, notion, kind)

    # each kind once at (4,4), and the CLI defaults at (4,5): the walk
    # judging every ranking takes about 0.7 s and 2.8 s there
    @pytest.mark.parametrize("n,m,notion,kind", [
        (4, 4, "harmless", "weak"), (4, 4, "safe", "pes"), (4, 4, "expected", "opt"),
        (4, 5, "sure", "weak"),
    ])
    def test_the_pair_family_matches_at_four_candidates(self, n, m, notion, kind):
        self.check(n, m, subset_family(ALL_METHODS, 1 if notion == "single" else 2),
                   notion, kind)

    @pytest.mark.parametrize("notion", ["sure", "safe"])
    def test_every_subset_matches(self, notion):
        sets = subset_family(ALL_METHODS, len(ALL_METHODS))
        for n, m in [(3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2)]:
            self.check(n, m, sets, notion)

    @pytest.mark.parametrize("n,m", [(3, 4), (4, 3)])
    def test_weighted_expected_matches(self, n, m):
        pairs = [s for s in subset_family(ALL_METHODS, 2) if len(s) == 2]
        self.check(n, m, pairs, "expected", weights=(Fraction(1, 3), Fraction(2, 3)))

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 7])
    def test_one_voter_matches(self, n):
        # one voter: the other voters' only class is the empty one; at
        # n = 7 rankings are relabeled from positions, with no table
        self.check(n, 1, subset_family(ALL_METHODS, 2), "safe")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_relabeling_takes_each_ranking_to_the_identity(self, n):
        rankings = all_rankings(n)
        index = {r.order: i for i, r in enumerate(rankings)}
        r, q = np.divmod(np.random.default_rng(n).integers(0, len(rankings) ** 2, 500),
                         len(rankings))
        expected = [index[tuple(rankings[a].position[x] for x in rankings[b].order)]
                    for a, b in zip(r.tolist(), q.tolist())]
        assert census._relabeled(n, r, q).tolist() == expected
        assert not census._relabeled(n, r, r).any()

    def test_only_an_all_neutral_universe_is_relabeled(self, monkeypatch):
        # the walk relabels classes only when every method is neutral: a
        # tiebreak or a dictator keeps the walk that judges every ranking,
        # and a functools.wraps copy of a base method, as a timing wrapper
        # makes, stays neutral
        relabeled = []

        def spy(*args, **kwargs):
            relabeled.append(True)
            return census_relabeled(*args, **kwargs)

        census_relabeled = _Colex.relabeled
        monkeypatch.setattr(_Colex, "relabeled", spy)
        borda = METHODS["borda"]
        wrapped = VotingMethod("borda", wraps(borda.fn)(lambda profile: borda.fn(profile)))
        for extra, relabels in ((parse_method("borda@acb"), False),
                                (parse_method("pdict:a,b,0"), False), (wrapped, True)):
            sets = (UncertaintySet((extra,)), method_set("hare"),
                    UncertaintySet((extra, METHODS["hare"])))
            spec = CensusSpec(n=3, m=3, method_sets=sets, notion="safe")
            relabeled.clear()
            assert engine_counts(spec) == naive_counts(spec), extra.id
            assert bool(relabeled) is relabels, extra.id

    def test_one_voter_at_eight_candidates_scores_one_class(self, monkeypatch):
        # the 8! one-voter classes are one orbit: one row is scored, and
        # every other class's winners are relabeled from it
        rows = []

        def spy(kernel, block):
            ids = census_score(kernel, block)
            rows.append(len(ids))
            return ids

        census_score = _ClassKernel._score
        monkeypatch.setattr(_ClassKernel, "_score", spy)
        spec = CensusSpec(n=8, m=1, method_sets=(method_set("borda"),))
        assert engine_counts(spec) == {"borda": (0, 0)}
        assert rows == [1]

    def test_one_voter_at_eight_candidates_scores_classes_in_blocks(self, monkeypatch):
        # a tiebreak is not neutral, so each of the 8! classes is scored,
        # but from sorted rows of one voter, many to a block
        rows = []

        def spy(kernel, block):
            ids = census_score(kernel, block)
            rows.append(len(ids))
            return ids

        census_score = _ClassKernel._score
        monkeypatch.setattr(_ClassKernel, "_score", spy)
        spec = CensusSpec(n=8, m=1, method_sets=(method_set("borda@abcdefgh"),))
        assert engine_counts(spec) == {"borda@abcdefgh": (0, 0)}
        assert sum(rows) == math.factorial(8)
        assert len(rows) < 100


def relabeling_orbits(n: int, m: int) -> int:
    """Burnside's count of the classes of m voters up to candidate
    relabeling: a relabeling of order d moves every ranking in cycles of
    length d, so it fixes C(n!/d + m/d - 1, m/d) classes when d divides m."""
    fact, fixed = math.factorial(n), 0
    for sigma in permutations(range(n)):
        cycles = []
        for x in range(n):
            if all(x not in c for c in cycles):
                cycle = [x]
                while sigma[cycle[-1]] != x:
                    cycle.append(sigma[cycle[-1]])
                cycles.append(cycle)
        d = math.lcm(*map(len, cycles))
        if m % d == 0:
            fixed += math.comb(fact // d + m // d - 1, m // d)
    return fixed // fact


class TestOrbits:
    """A neutral census scores one class per orbit under candidate
    relabeling and relabels the winners of every other class from it."""

    @pytest.mark.parametrize("n,m", [*((3, m) for m in range(1, 9)),
                                     *((4, m) for m in range(1, 6)),
                                     *((5, m) for m in range(1, 4)), (3, 30)])
    def test_representatives_count_the_orbits(self, n, m):
        colex = _Colex(n, m)
        _, reps, sizes = _Orbits(colex).canonical()
        assert len(reps) == len(sizes) == relabeling_orbits(n, m)
        # each orbit's classes and labeled profiles, over all the orbits
        weights = colex.weights_of(colex.with_identity(reps))
        assert sizes.sum() == math.comb(math.factorial(n) + m - 1, m)
        assert (weights * sizes.astype(weights.dtype)).sum() == math.factorial(n) ** m

    @pytest.mark.parametrize("n,m", [(3, 4), (3, 7), (4, 3)])
    def test_each_orbit_size_counts_the_relabeled_classes(self, n, m):
        # a relabeling sigma of the candidates moves ranking q to the ranking
        # whose order is sigma of q's order; (3,7) holds its classes as
        # holder counts
        colex = _Colex(n, m)
        _, reps, sizes = _Orbits(colex).canonical()
        orders = ranking_orders(n)
        index = {tuple(order): q for q, order in enumerate(orders.tolist())}
        moves = np.array([[index[tuple(np.array(sigma)[order].tolist())] for order in orders]
                          for sigma in permutations(range(n))])
        classes = colex.with_identity(reps)
        if not colex.sorted:  # holder counts to sorted rows
            classes = np.array([np.repeat(np.arange(len(orders)), c) for c in classes])
        for rep, size in zip(classes, sizes.tolist()):
            images = {tuple(np.sort(move[rep]).tolist()) for move in moves}
            assert len(images) == size, (rep, size)

    @pytest.mark.parametrize("n,m", [*((3, m) for m in range(1, 9)),
                                     *((4, m) for m in range(1, 5)),
                                     (5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (8, 1)])
    def test_relabeled_winners_are_the_scored_winners(self, n, m):
        colex = _Colex(n, m)
        # every class is relabeled, but past 10^7 count cells a seeded few
        # are scored: a count row has 8! cells at n = 8
        ranks = (np.random.default_rng(m).choice(colex.classes, 40 if n == 8 else 2000,
                                                 replace=False)
                 if colex.classes * colex.fact > 10 ** 7 else np.arange(colex.classes))
        for sets in [*(method_set(name) for name in METHOD_ORDER), method_set(*METHOD_ORDER)]:
            kernel = _ClassKernel(CensusSpec(n=n, m=m, method_sets=(sets,)))
            orbits = _Orbits(colex)
            _, reps, _ = orbits.canonical()
            ids = orbits.class_ids(kernel, reps)
            # one interner, so equal ids are equal winner-mask tuples
            scored = kernel._score(_Counts.of(n, colex.unrank(ranks)))
            assert np.array_equal(ids[ranks], scored), (sets.id, n, m)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_a_relabeling_moves_the_identity_and_the_winners(self, n):
        # sigma_r takes each candidate y to its place in r, so R's winner y
        # to order[inverse[r]][y], and the identity voter to the one-voter
        # class inverse[r]; n = 7 is past the relabel table and runs on
        # Lehmer codes
        colex, order = _Colex(n, 1), ranking_orders(n)
        r = np.random.default_rng(n).integers(0, colex.fact, 500)
        assert np.array_equal(order[colex.inverse[r]], ranking_places(n)[r])
        identity = colex.with_identity(np.zeros(len(r), np.int64))
        assert np.array_equal(colex.relabeled(identity, r[:, None])[:, 0], colex.inverse[r])

    @pytest.mark.parametrize("n,m", [(3, 4), (4, 3), (3, 6), (3, 7), (3, 30)])
    def test_the_fill_writes_each_class_once_per_stabilizing_relabeling(self, n, m):
        # sorted rows at (3,4) and (4,3), m = n! at (3,6), holder counts at
        # (3,7) and (3,30): the n! relabelings of each representative reach
        # every class of its orbit, n!/size times each
        colex = _Colex(n, m)
        orbits = _Orbits(colex)
        key, reps, sizes = orbits.canonical()
        images = colex.relabeled(colex.with_identity(reps),
                                 np.broadcast_to(np.arange(colex.fact), (len(reps), colex.fact)))
        written = np.bincount(images.ravel(), minlength=colex.classes)
        assert len(written) == colex.classes
        orbit = np.zeros(colex.classes, np.int64)
        orbit[images.ravel()] = np.repeat(np.arange(len(reps)), colex.fact)
        assert np.array_equal(written, colex.fact // sizes.astype(np.int64)[orbit])
        # and each o + e_0, its own image under sigma_0, is in the orbit of its key
        classes = colex.with_identity(np.arange(colex.others.classes))
        own = colex.relabeled(classes, np.zeros((len(classes), 1), np.int64))[:, 0]
        assert np.array_equal(orbit[own], key)

    def test_the_fill_interns_each_relabeled_outcome_once(self, monkeypatch):
        # the representatives are interned as they are scored, then each
        # distinct scored outcome once per relabeling, and no class alone
        rows = []

        def spy(outcomes, masks):
            ids = census_ids(outcomes, masks)
            rows.append(ids)
            return ids

        census_ids = census._Outcomes.ids
        monkeypatch.setattr(census._Outcomes, "ids", spy)
        colex = _Colex(4, 5)
        kernel = _ClassKernel(CensusSpec(n=4, m=5, method_sets=(method_set(*METHOD_ORDER),)))
        orbits = _Orbits(colex)
        _, reps, _ = orbits.canonical()
        orbits.class_ids(kernel, reps)
        interned = np.concatenate(rows)
        scored = len(np.unique(interned[:len(reps)]))
        assert len(interned) == len(reps) + scored * colex.fact
        assert len(interned) * 5 < colex.classes == 98_280


class TestMethodRouting:
    """Every method is scored through its batched form on count blocks; a
    census refuses a universe with a method that has none."""

    @pytest.mark.parametrize("samples", [None, 40])
    @pytest.mark.parametrize("tiebreak", [False, True])
    def test_a_method_without_a_batched_form_is_refused(self, monkeypatch, samples, tiebreak):
        # refused at n = 9 before any n!-sized table is built
        refuse_ranking_tables(monkeypatch)
        custom = VotingMethod("my_top", lambda profile: frozenset({0}))
        if tiebreak:
            custom = tiebroken(custom, Ranking(tuple(range(8, -1, -1))))
        spec = CensusSpec(
            n=9, m=3, mode="exhaustive" if samples is None else "sample",
            samples=samples or 0, seed=3,
            method_sets=(method_set("hare"), UncertaintySet((custom, METHODS["hare"]))),
        )
        with pytest.raises(ValueError, match=f"batched form .* and {custom.id} has none$"):
            run_census(spec)

    @pytest.mark.parametrize("n,m,samples", [(3, 4, None), (4, 3, 60)])
    def test_wrapped_methods_keep_the_batched_path(self, n, m, samples):
        calls = 0

        def counted(f: VotingMethod) -> VotingMethod:
            # wraps copies fn.on_counts, as a timing wrapper would
            @wraps(f.fn)
            def fn(profile):
                nonlocal calls
                calls += 1
                return f.fn(profile)
            return VotingMethod(f.id, fn, f.anonymous)

        names = (("borda",), ("hare", "copeland"), ("borda@" + "cabd"[:n],))
        plain = [method_set(*s) for s in names]

        def spec(sets):
            return CensusSpec(n=n, m=m, method_sets=tuple(sets),
                              mode="exhaustive" if samples is None else "sample",
                              samples=samples or 0, seed=8)

        wrapped = engine_counts(spec(UncertaintySet(tuple(counted(f) for f in s)) for s in plain))
        assert calls == 0
        assert wrapped == engine_counts(spec(plain)) == naive_counts(spec(plain))


    @pytest.mark.parametrize("samples", [None, 30])
    def test_a_batched_census_builds_no_ranking_objects(self, samples):
        # Every method below has a batched form, so the census reads ranking
        # tables only; ``all_rankings`` is cached, so its calls show in its
        # cache statistics wherever it is called from.
        names = ("hare", "coombs", "borda@cbad", "pdict:a,b,1", "plurality_runoff")
        spec = CensusSpec(n=4, m=3, method_sets=(method_set(*names), method_set("hare")),
                          mode="exhaustive" if samples is None else "sample",
                          samples=samples or 0, seed=2)
        all_rankings.cache_clear()
        run_census(spec)
        info = all_rankings.cache_info()
        assert info.hits == info.misses == 0


class TestSwitchedBlocks:
    """A sampled census scores switches in ``_Switched`` blocks, whose rows
    hold n*n tallies only when some method reads them, so switched blocks
    of other universes hold more rows.  Where the blocks end must not move
    a count."""

    def test_a_switched_row_holds_tallies_only_for_a_pairwise_member(self):
        def rows(*members):
            spec = CensusSpec(n=5, m=3, method_sets=(UncertaintySet(members),),
                              mode="sample", samples=1, seed=1)
            return methods._rows(_ClassKernel(spec)._switch_cells)

        borda, hare = METHODS["borda"], METHODS["hare"]
        assert rows(borda, hare) == methods.BLOCK_CELLS // (5 + 2)
        assert rows(borda, hare, parse_method("pdict:a,b,0")) == methods.BLOCK_CELLS // (5 + 3)
        # n*n tallies and n places for a pairwise member, tiebroken or not
        for other in (METHODS["copeland"], parse_method("maxmin@edcba")):
            assert rows(borda, hare, other) == methods.BLOCK_CELLS // (25 + 5), other.id

    @pytest.mark.parametrize("n,m,samples", [(4, 4, 30), (5, 3, 12)])
    @pytest.mark.parametrize("names", [
        (("borda",), ("hare",), ("borda", "hare"), ("plurality_runoff", "coombs")),
        (("hare", "copeland"), ("borda", "strict_nanson"), ("maxmin",)),
    ], ids=["no-pairwise", "pairwise"])
    def test_small_switched_blocks_keep_the_counts(self, monkeypatch, n, m, samples, names):
        # A few hundred cells per block, so a chunk's switches span many
        # switched blocks, each cut at ``_rows(_switch_cells)`` rows.
        monkeypatch.setattr(methods, "BLOCK_CELLS", 1 << 9)
        spec = CensusSpec(n=n, m=m, method_sets=tuple(method_set(*s) for s in names),
                          notion="safe", kind="weak", mode="sample", samples=samples, seed=5)
        scored = []

        def spy(base, cls, *args):
            scored.append((base, len(cls)))  # held, so that ids stay distinct
            return switched(base, cls, *args)

        switched = census._Switched
        monkeypatch.setattr(census, "_Switched", spy)
        assert engine_counts(spec) == naive_counts(spec)
        bases = {id(base) for base, _ in scored}
        assert 1 < len(bases) < len(scored)
        assert max(k for _, k in scored) == methods._rows(_ClassKernel(spec)._switch_cells)


class TestBlockRuns:
    """Every pass bounded by ``methods.BLOCK_CELLS`` is cut into runs by
    ``methods._runs``; where a run ends must not move a count."""

    def test_every_pass_in_many_runs_keeps_the_counts(self, monkeypatch):
        # 448 cells: a sampled chunk of (4,4) hare and copeland holds two
        # classes of 208 cells, so Hare's step table, 304 cells a class,
        # takes two runs, while the 56 classes of three others at (3,4),
        # 9 cells each, still take two runs of the orbit key.
        table = census._relabel_table(4)
        monkeypatch.setattr(methods, "BLOCK_CELLS", 448)
        runs, calls = methods._runs, []

        def spy(total, cells):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "_filled":
                caller = caller.f_back
            out = list(runs(total, cells))
            calls.append((caller.f_code.co_name, len(out)))
            return iter(out)

        monkeypatch.setattr(methods, "_runs", spy)
        monkeypatch.setattr(census, "_runs", spy)
        three = tuple(METHODS[name] for name in ("borda", "hare", "copeland"))
        six = three + tuple(METHODS[name] for name in ("coombs", "plurality", "maxmin"))
        censuses = [
            # the orbit key's two loops, the orbit scoring and fill, the
            # moved table and the count pass over the orbits
            (CensusSpec(n=3, m=4, method_sets=subset_family(three, 2)),
             {"canonical": 2, "class_ids": 2, "moved": 1, "_class_walk": 1}),
            # the class fill and the labeled voter's stride pass
            (CensusSpec(n=3, m=4, method_sets=(method_set("borda@acb"),
                                               method_set("borda", "pdict:a,b,0"))),
             {"class_ids": 1, "_class_walk": 1}),
            # the sampled chunks, the switched blocks and Hare's step table
            (CensusSpec(n=4, m=4, method_sets=(method_set("hare"), method_set("hare", "copeland")),
                        mode="sample", samples=30, seed=5),
             {"_sampled_classes": 1, "neighbourhood": 1, "_hare_steps": 1}),
            # the verdict products, once a chunk's triples have more distinct
            # rows of flags than a run holds
            (CensusSpec(n=4, m=4, method_sets=subset_family(six, 2), mode="sample", samples=30,
                        seed=5),
             {"_verdicts": 1}),
        ]
        for spec, passes in censuses:
            calls.clear()
            assert engine_counts(spec) == naive_counts(spec)
            split = Counter(name for name, count in calls if count > 1)
            assert split >= Counter(passes), (spec, calls)
        calls.clear()
        assert np.array_equal(census._relabel_table.__wrapped__(4), table)
        assert calls == [("_relabel_table", 6)]


class TestWalkChunks:
    """The class walk builds a chunk of o's sized by what building holds,
    then judges as many of them as judging holds (``methods._rows``); the
    next chunk starts after the judged ones."""

    @staticmethod
    def from_walk() -> bool:
        """Whether the spy calling this was called by the walk."""
        return sys._getframe(2).f_code.co_name == "_class_walk"

    def chunks(self, monkeypatch) -> list[tuple[int, int]]:
        """Filled during a census: (o's built, o's judged) per walk chunk."""
        unrank, hits, built, chunks = _Colex.unrank, _ClassKernel.hits, [], []

        def spy_unrank(colex, ranks):
            if self.from_walk():
                built.append(len(ranks))
            return unrank(colex, ranks)

        def spy_hits(kernel, r, base, after):
            if self.from_walk() and built:  # not the pass after the walk
                chunks.append((built.pop(), len(r) if kernel.neutral else len(r) // kernel.fact))
            return hits(kernel, r, base, after)

        monkeypatch.setattr(_Colex, "unrank", spy_unrank)
        monkeypatch.setattr(_ClassKernel, "hits", spy_hits)
        return chunks

    # neutral, then with a labeled voter: a pairwise dictator's and a
    # tiebreak's, so that the walk judges every ranking beside each o
    @pytest.mark.parametrize("names", [[("borda",), ("hare",), ("borda", "hare")],
                                       [("borda", "pdict:a,b,0"), ("borda@acb",)]])
    def test_cut_chunks_keep_the_counts(self, monkeypatch, names):
        spec = CensusSpec(n=3, m=4, method_sets=tuple(method_set(*s) for s in names))
        monkeypatch.setattr(methods, "BLOCK_CELLS", 300)
        chunks = self.chunks(monkeypatch)
        assert engine_counts(spec) == naive_counts(spec)
        assert any(judged < built for built, judged in chunks), chunks

    def test_cut_chunks_keep_the_counts_at_four_candidates(self, monkeypatch):
        # The naive search takes half a minute at (4,3), so (4,4) is checked
        # against the walk judging every ranking and the default chunks.
        sets = (method_set("borda"), method_set("hare"), method_set("borda", "hare"))
        spec = CensusSpec(n=4, m=4, method_sets=sets)
        expected = engine_counts(spec)
        monkeypatch.setattr(methods, "BLOCK_CELLS", 2000)
        chunks = self.chunks(monkeypatch)
        assert engine_counts(spec) == expected
        assert any(judged < built for built, judged in chunks), chunks
        chunks.clear()
        assert engine_counts(CensusSpec(n=4, m=4, method_sets=unmarked(sets))) == expected
        assert any(judged < built for built, judged in chunks), chunks

    # neutral at (5,3), where building holds the most, and judging every
    # ranking beside each o at (4,4)
    @pytest.mark.parametrize("n,m,name", [(5, 3, "borda"), (4, 4, "borda@abcd")])
    def test_each_chunk_stays_under_twice_the_block(self, monkeypatch, n, m, name):
        unrank, runs, start, peaks = _Colex.unrank, census._runs, [], []

        def close():
            if start:
                peaks.append(tracemalloc.get_traced_memory()[1] - start.pop())

        def spy_unrank(colex, ranks):
            if self.from_walk():
                close()
                start.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            return unrank(colex, ranks)

        def spy_runs(total, cells):  # the pass after the walk ends its last chunk
            if sys._getframe(1).f_code.co_name == "_class_walk":
                close()
            return runs(total, cells)

        monkeypatch.setattr(_Colex, "unrank", spy_unrank)
        monkeypatch.setattr(census, "_runs", spy_runs)
        tracemalloc.start()
        try:
            run_census(CensusSpec(n=n, m=m, method_sets=(method_set(name),)))
        finally:
            tracemalloc.stop()
        assert len(peaks) > 1 and not start
        assert max(peaks) <= 2 * methods.BLOCK_CELLS * 8, max(peaks)


def mixed_family(n: int, notion: str, weighted: bool, direct: bool) -> tuple:
    """Singletons, pairs and a triple over shared methods, borda@... included;
    ``direct`` adds a pairwise dictator.  ``single`` takes the singletons
    and weights (one per member) the pairs only."""
    tiebroken = "borda@" + "acbd"[:n]
    singletons = [("borda",), ("hare",), ("copeland",), (tiebroken,)]
    pairs = [("borda", "hare"), ("hare", "copeland"), ("borda", tiebroken)]
    if direct:
        singletons.append(("pdict:a,b,0",))
        pairs.append(("borda", "pdict:a,b,0"))
    if notion == "single":
        names = singletons
    elif weighted:
        names = pairs
    else:
        names = singletons + pairs + [("borda", "hare", "copeland")]
    return tuple(method_set(*s) for s in names)


class TestSharedUniverse:
    """One census over a family of sets that share methods, against the
    per-set naive search, so a mix-up of set or method bits in the verdict
    table shows up as a wrong count.  The family with a pairwise dictator
    takes the direct scan; its naive counts cover the anonymous family too.
    (4, 2) is sampled to keep the naive search affordable."""

    @pytest.mark.parametrize("n,m,samples", [(3, 3, None), (4, 2, 32)])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("notion,weighted", [
        *((notion, False) for notion in NOTIONS), ("expected", True),
    ])
    def test_family_census_matches_naive_search(self, n, m, samples, kind,
                                                notion, weighted):
        def spec(direct):
            sets = mixed_family(n, notion, weighted, direct)
            return CensusSpec(
                n=n, m=m, method_sets=sets, notion=notion, kind=kind,
                weights=(Fraction(3, 4), Fraction(1, 4)) if weighted else None,
                mode="exhaustive" if samples is None else "sample",
                samples=samples or 0, seed=11,
            )

        expected = naive_counts(spec(direct=True))
        anonymous = engine_counts(spec(direct=False))
        assert anonymous == {k: expected[k] for k in anonymous}
        assert engine_counts(spec(direct=True)) == expected


# The naive search judges about this many (set, profile, voter, ballot)
# moves per generated spec, which keeps each example near a tenth of a second.
NAIVE_MOVES = 10_000


@st.composite
def census_specs(draw, wide: bool = False) -> CensusSpec:
    """Small censuses of every notion and kind, exhaustive or sampled, over
    plain, ``inner@order`` and ``pdict:`` members.  A ``wide`` spec has more
    than 64 sets, so its set masks take two words."""
    # With fewer than three candidates or two voters nobody can manipulate.
    n = draw(st.sampled_from((3,) if wide else (3, 3, 2)))
    fact = math.factorial(n)
    sampled = draw(st.booleans())
    samples = draw(st.integers(1, 8 if wide else 20)) if sampled else 0
    m = draw(st.integers(2, 4 if sampled or n < 3 else 2 if wide else 3))
    labels = default_labels(n)
    orders = st.permutations(labels).map("".join)
    extended = st.tuples(st.sampled_from(METHOD_ORDER), orders).map("@".join)
    if n > 1:
        extended |= st.tuples(orders, st.integers(0, m - 1)).map(
            lambda t: f"pdict:{t[0][0]},{t[0][1]},{t[1]}")
    notion, weighted = draw(st.sampled_from([
        *((x, False) for x in NOTIONS if not wide or x != "single"), ("expected", True)]))
    kind = draw(st.sampled_from(KINDS))
    if wide:
        # Twelve or more methods give at least 66 pairs.  The singletons,
        # which most often have witnesses, go last, into the second word.
        extra = draw(st.lists(extended, min_size=1, max_size=2, unique=True))
        methods = [parse_method(x, labels) for x in (*METHOD_ORDER, *extra)]
        sets, weights = subset_family(methods, 2)[::-1], None
        if weighted:
            sets, weights = [s for s in sets if len(s) == 2], (Fraction(2, 3), Fraction(1, 3))
    else:
        methods = [parse_method(x, labels) for x in draw(st.lists(
            st.sampled_from(METHOD_ORDER) | extended, min_size=1, max_size=4, unique=True))]
        weights = None
        if notion == "single":
            sets = subset_family(methods, 1)
        elif weighted:
            size = draw(st.integers(1, len(methods)))
            sets = [s for s in subset_family(methods, size) if len(s) == size]
            parts = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)
                         .filter(any))
            weights = tuple(Fraction(w, sum(parts)) for w in parts)
        else:
            sets = subset_family(methods, draw(st.integers(1, len(methods))))
        moves = (samples or fact ** m) * m * max(fact - 1, 1)
        sets = sets[:max(1, NAIVE_MOVES // moves)]
    return CensusSpec(
        n=n, m=m, method_sets=tuple(sets), notion=notion, kind=kind,
        weights=weights, mode="sample" if sampled else "exhaustive",
        samples=samples, seed=draw(st.integers(0, 2 ** 16)) if sampled else None,
    )


class TestOutcomes:
    """Interned outcomes: each distinct row of winner bitmasks gets an id in
    the order first met, and keeps it."""

    def test_ids_are_kept_across_calls_and_arrays_follow_them(self):
        outcomes = census._Outcomes()
        rows = np.array([[1, 2], [3, 1], [1, 2]])
        first = outcomes.ids(rows)
        assert first[0] == first[2] and sorted(set(first.tolist())) == [0, 1]
        masks, elected = outcomes.arrays()
        assert masks[first].tolist() == rows.tolist()
        assert outcomes.arrays()[0] is masks  # nothing added, nothing rebuilt
        rows = np.array([[3, 1], [4, 4], [4, 4], [1, 2]])
        second = outcomes.ids(rows)
        assert second.tolist() == [first[1], 2, 2, first[0]]  # the new row comes next
        masks, elected = outcomes.arrays()
        assert len(masks) == 3 and masks[second].tolist() == rows.tolist()
        assert elected[second].tolist() == [3, 4, 4, 3]


class TestDistinctRows:
    """``_distinct_rows`` finds the distinct rows of packed words that span
    few values with a table and no sort, and all others by sorting; both
    give the rows in ``np.unique(axis=0)``'s order."""

    rng = np.random.default_rng(2020)
    CASES = {
        # name: (rows, whether a sort finds them)
        "narrow": (rng.integers(1, 32, size=(2000, 2)).astype(np.uint8), False),
        "narrow_three_bytes": (np.c_[np.full(500, 5), rng.integers(0, 2, size=500),
                                     rng.integers(0, 256, size=500)].astype(np.uint8), False),
        "wide": (rng.integers(0, 1 << 16, size=(300, 2)).astype(np.uint16), True),
        "wide_three_bytes": (rng.integers(0, 256, size=(300, 3)).astype(np.uint8), True),
        "past_eight_bytes": (rng.integers(0, 3, size=(400, 11)).astype(np.uint8), True),
        "int64_keys": (rng.integers(0, 1 << 40, size=(200, 3)), True),
        "one_row": (np.array([[7, 1]], np.uint8), False),
        "one_wide_row": (np.arange(11, dtype=np.uint8)[None], True),
        "no_rows": (np.zeros((0, 2), np.uint8), True),
        "no_wide_rows": (np.zeros((0, 11), np.uint8), True),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_rows_at_index_are_the_distinct_rows_in_order(self, monkeypatch, name):
        a, sorts = self.CASES[name]
        a = np.r_[a, a[::3]]  # rows that repeat
        calls = []

        def unique(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        original = np.unique
        monkeypatch.setattr(np, "unique", unique)
        index, inverse = census._distinct_rows(a)
        monkeypatch.undo()
        assert bool(calls) == sorts
        assert np.array_equal(a[index][inverse], a)
        assert len({tuple(row) for row in a[index].tolist()}) == len(index)
        assert np.array_equal(a[index], np.unique(a, axis=0))


class TestArrayVerdicts:
    """The kernel's table-lookup flags and array notion test against the
    scalar dominance and notion definitions, on every input they take."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_flags_match_dominance_on_every_move(self, n, kind):
        kernel = _ClassKernel(CensusSpec(n=n, m=1, method_sets=(method_set("borda"),),
                                         kind=kind))
        rankings = all_rankings(n)
        masks = range(1, 1 << n)
        moves = np.array(list(product(range(len(rankings)), masks, masks)))
        flags = kernel._dominance(moves[:, 0], moves[:, 1:2], moves[:, 2:3])
        assert flags.shape == (len(moves), 3, 1) and flags.dtype == bool

        def members(mask):
            return frozenset(x for x in range(n) if mask >> x & 1)

        for (r, before, after), got in zip(moves.tolist(), flags[:, :, 0].tolist()):
            ranking, b, a = rankings[r], members(before), members(after)
            assert got == [dominates_strict(kind, a, b, ranking),
                           dominates_nonstrict(kind, a, b, ranking),
                           dominates_strict(kind, b, a, ranking)], (ranking, b, a)

    @pytest.mark.parametrize("notion, weights", [
        *((notion, None) for notion in NOTIONS),
        ("expected", (Fraction(3, 4), Fraction(1, 4))),
        ("expected", (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
        # common denominators beyond float64's exact integers, and beyond int64
        ("expected", (Fraction(1, 3 ** 35), 1 - Fraction(1, 3 ** 35))),
        ("expected", (Fraction(1, 3 ** 40), 1 - Fraction(1, 3 ** 40))),
    ])
    def test_notions_match_on_every_row_of_flags(self, notion, weights):
        names = ("borda", "hare", "coombs")
        sizes = [len(weights)] if weights else [1] if notion == "single" else [1, 2, 3]
        sets = [method_set(*s) for k in sizes for s in combinations(names, k)]
        kernel = _ClassKernel(CensusSpec(n=3, m=1, method_sets=tuple(sets),
                                         notion=notion, weights=weights))
        universe = [f.id for f in kernel.universe]
        # every (improves, not worse, worsens) triple of bools per method
        rows = np.array(list(product(product((False, True), repeat=3), repeat=len(universe))))
        words = kernel._witnesses(rows.transpose(0, 2, 1))
        assert words.shape == (len(rows), 1) and words.dtype == np.uint64
        for row, word in zip(rows.tolist(), words[:, 0].tolist()):
            flags = dict(zip(universe, map(tuple, row)))
            for i, s in enumerate(sets):
                held = notion_holds(notion, [flags[f.id] for f in s], weights)
                assert (word >> i & 1 == 1) == held, (s.id, row)


class TestGeneratedSpecs:
    """The engine against the naive per-voter search on generated specs."""

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(census_specs())
    def test_generated_specs_match_the_naive_search(self, spec):
        assert engine_counts(spec) == naive_counts(spec)

    @settings(max_examples=6, derandomize=True, deadline=None)
    @given(census_specs(wide=True))
    def test_more_than_64_sets_match_the_naive_search(self, spec):
        assert len(spec.method_sets) > 64
        assert engine_counts(spec) == naive_counts(spec)


class TestFrozenCounts:
    def test_borda_at_3_3(self):
        spec = CensusSpec(n=3, m=3, method_sets=(method_set("borda"),))
        report = run_census(spec)
        r = report.results[0]
        assert (r.witness_profiles, r.witness_pointed) == (54, 72)
        assert r.total == 216
        assert r.percentage == pytest.approx(25.0)

    def test_every_method_alone_at_3_4(self):
        sets = tuple(method_set(mid) for mid in METHODS)
        report = run_census(CensusSpec(n=3, m=4, method_sets=sets))
        got = {r.set_id: r.witness_profiles for r in report.results}
        assert got == {
            "plurality": 432,
            "borda": 378,
            "condorcet": 0,
            "copeland": 360,
            "maxmin": 216,
            "plurality_runoff": 432,
            "hare": 432,
            "coombs": 360,
            "baldwin": 216,
            "strict_nanson": 216,
            "weak_nanson": 360,
        }

    def test_pairing_with_seven_voters_can_leave_one_method_in_charge(self):
        sets = (
            method_set("plurality"),
            method_set("hare"),
            method_set("plurality", "hare"),
        )
        report = run_census(CensusSpec(n=3, m=7, method_sets=sets))
        got = {r.set_id: (r.witness_profiles, r.witness_pointed)
               for r in report.results}
        assert got["plurality"] == (129360, 215040)
        assert got["hare"] == (35280, 80640)
        # every Hare witness survives the pairing: the pair sits exactly at Hare
        assert got["plurality+hare"] == got["hare"]

    def test_safe_manipulation_landscape_at_3_6(self):
        sets = (
            method_set("borda"),
            method_set("coombs"),
            method_set("hare"),
            method_set("coombs", "hare"),
            method_set("borda", "hare"),
        )
        report = run_census(
            CensusSpec(n=3, m=6, method_sets=sets, notion="safe")
        )
        got = {r.set_id: (r.witness_profiles, r.witness_pointed)
               for r in report.results}
        assert got["borda"] == (15450, 38520)
        assert got["coombs"] == (11700, 12240)
        assert got["hare"] == (2880, 5760)
        # pairing can land below both members ...
        assert got["coombs+hare"] == (1440, 1800)
        # ... or between them ...
        assert got["borda+hare"] == (4050, 9000)

    def test_safe_pairing_can_also_land_above_both_members(self):
        sets = (
            method_set("borda"),
            method_set("hare"),
            method_set("borda", "hare"),
        )
        report = run_census(
            CensusSpec(n=3, m=7, method_sets=sets, notion="safe")
        )
        got = {r.set_id: (r.witness_profiles, r.witness_pointed)
               for r in report.results}
        assert got["borda"] == (94080, 252000)
        assert got["hare"] == (35280, 80640)
        assert got["borda+hare"] == (106680, 286020)
        assert got["borda+hare"][0] > max(got["borda"][0], got["hare"][0])


class TestPairTable:
    def setup_method(self):
        self.f = METHODS["borda"]
        self.g = METHODS["coombs"]
        self.h = METHODS["hare"]
        self.table = pair_table([self.f, self.g, self.h], 3, 6, notion="safe")

    def test_cells_cover_singletons_and_unordered_pairs(self):
        assert self.table.cell(self.f, self.f).witness_profiles == 15450
        assert self.table.cell(self.g, self.h).set_id == "coombs+hare"
        assert (
            self.table.cell(self.h, self.g).witness_profiles
            == self.table.cell(self.g, self.h).witness_profiles
            == 1440
        )

    def test_below_both(self):
        assert self.table.below_both(self.g, self.h)
        assert not self.table.below_both(self.f, self.h)  # lands between
        assert not self.table.below_both(self.f, self.f)


class TestEliminationScan:
    def test_borda_family_pairs_at_3_4(self):
        methods = [METHODS[mid] for mid in
                   ("borda", "baldwin", "strict_nanson", "weak_nanson")]
        scan = elimination_scan(methods, 3, 4)
        assert scan.eliminating == (
            "borda+baldwin",
            "borda+strict_nanson",
            "baldwin+weak_nanson",
            "strict_nanson+weak_nanson",
        )
        counts = {r.set_id: r.witness_profiles for r in scan.report.results}
        assert counts["borda"] == 378 and counts["weak_nanson"] == 360

    def test_scan_needs_room_for_pairs(self):
        with pytest.raises(ValueError, match="at least two"):
            elimination_scan([METHODS["borda"]], 3, 4, max_set_size=1)


class TestDeterminism:
    def test_same_seed_same_sample_counts(self):
        def run(seed):
            return run_census(
                CensusSpec(
                    n=3, m=5, method_sets=(method_set("borda"),),
                    mode="sample", samples=500, seed=seed,
                )
            ).results[0]

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestSampling:
    def test_rows_are_uniform_over_rankings(self):
        rows = _sample_rows(3, 1, 60000, seed=2026)
        counts = [0] * 6
        for (d,) in rows:
            counts[d] += 1
        expected = 10000
        sigma = math.sqrt(60000 * (1 / 6) * (5 / 6))
        for c in counts:
            assert abs(c - expected) < 4 * sigma

    def test_sample_profiles_shape(self):
        ps = sample_profiles(3, 4, 25, seed=1)
        assert len(ps) == 25
        assert all(p.n == 3 and p.m == 4 for p in ps)

    def test_sample_count_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            sample_profiles(3, 4, 0, seed=1)


class TestBudgets:
    def test_enumeration_respects_the_budget(self):
        with pytest.raises(BudgetExceededError, match="exceed"):
            list(enumerate_profiles(3, 12))
        with pytest.raises(BudgetExceededError, match="exceed the budget of 100"):
            list(enumerate_profiles(3, 3, budget=100))

    def test_census_respects_the_budget(self):
        # (3,4) has 126 anonymous classes
        spec = CensusSpec(
            n=3, m=4, method_sets=(method_set("borda"),), budget=100
        )
        with pytest.raises(BudgetExceededError,
                           match="^126 classes exceed the budget of 100$"):
            run_census(spec)

    def test_a_labeled_census_is_budgeted_by_partly_labeled_classes(self):
        # voter 0's 6 rankings times the C(8, 3) = 56 classes of the other three
        spec = CensusSpec(n=3, m=4, method_sets=(method_set("borda", "pdict:a,b,0"),),
                          budget=335)
        with pytest.raises(BudgetExceededError,
                           match="^336 partly labeled classes exceed the budget of 335$"):
            run_census(spec)

    @pytest.mark.parametrize("names", [("borda",), ("borda", "pdict:a,b,0")])
    def test_an_over_budget_census_builds_no_ranking_table(self, monkeypatch, names):
        # 9! rankings: a census refused by its budget must not build them first
        refuse_ranking_tables(monkeypatch)
        sets = (method_set(*names),)
        for mode, samples in (("exhaustive", 0), ("sample", 11)):
            spec = CensusSpec(n=9, m=2, method_sets=sets, mode=mode, samples=samples,
                              seed=1, budget=10)
            with pytest.raises(BudgetExceededError, match="exceed the budget of 10$"):
                run_census(spec)

    def test_sampling_escapes_the_labeled_space_size(self):
        # 24^10 labeled profiles, but only the 50 samples count
        spec = CensusSpec(
            n=4, m=10, method_sets=(method_set("plurality"),),
            mode="sample", samples=50, seed=3,
        )
        assert run_census(spec).results[0].total == 50


class TestSpecValidation:
    def test_needs_candidates_voters_and_sets(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            CensusSpec(n=0, m=4, method_sets=(method_set("borda"),))
        with pytest.raises(ValueError, match="at least one uncertainty set"):
            CensusSpec(n=3, m=4, method_sets=())

    def test_rejects_duplicate_sets_and_unknown_modes(self):
        with pytest.raises(ValueError, match="duplicate"):
            CensusSpec(
                n=3, m=4,
                method_sets=(method_set("borda"), method_set("borda")),
            )
        with pytest.raises(ValueError, match="unknown census mode"):
            CensusSpec(n=3, m=4, method_sets=(method_set("borda"),), mode="guess")

    def test_sample_mode_needs_count_and_seed(self):
        with pytest.raises(ValueError, match="positive sample count"):
            CensusSpec(
                n=3, m=4, method_sets=(method_set("borda"),), mode="sample",
                seed=1,
            )
        with pytest.raises(ValueError, match="explicit seed"):
            CensusSpec(
                n=3, m=4, method_sets=(method_set("borda"),), mode="sample",
                samples=10,
            )

    def test_sample_mode_needs_a_non_negative_seed(self):
        # numpy's PCG64 refuses a negative seed in words that name no option
        with pytest.raises(ValueError, match="non-negative seed, got -1"):
            CensusSpec(n=3, m=4, method_sets=(method_set("borda"),), mode="sample",
                       samples=5, seed=-1)
        assert CensusSpec(n=3, m=4, method_sets=(method_set("borda"),), mode="sample",
                          samples=5, seed=0).seed == 0

    def test_more_than_10_candidates_are_rejected(self):
        # A census builds all n! rankings, which past 10! do not fit; the
        # spec refuses before anything is built.
        for mode, samples in (("exhaustive", 0), ("sample", 1)):
            with pytest.raises(ValueError, match="at most 10 candidates are supported, got 11"):
                CensusSpec(n=11, m=2, method_sets=(method_set("borda"),), mode=mode,
                           samples=samples, seed=1)
        assert CensusSpec(n=10, m=2, method_sets=(method_set("borda"),)).n == 10

    def test_more_than_255_voters_are_rejected(self):
        # A count row stores each ranking's holder count in one byte.
        with pytest.raises(ValueError, match="at most 255 voters"):
            CensusSpec(
                n=2, m=256, method_sets=(method_set("borda"),), mode="sample",
                samples=5, seed=1,
            )
        at_limit = run_census(CensusSpec(
            n=2, m=255, method_sets=(method_set("borda"),), mode="sample",
            samples=5, seed=1,
        ))
        assert at_limit.results[0].total == 5

    def test_notions_are_validated(self):
        with pytest.raises(ValueError, match="unknown notion"):
            CensusSpec(n=3, m=4, method_sets=(method_set("borda"),), notion="x")
        with pytest.raises(ValueError, match="one-method"):
            CensusSpec(
                n=3, m=4, method_sets=(method_set("borda", "hare"),),
                notion="single",
            )


class TestSerialization:
    def setup_method(self):
        spec = CensusSpec(
            n=3, m=3,
            method_sets=(method_set("borda"), method_set("borda", "hare")),
        )
        self.report = run_census(spec)

    def test_csv_shape(self):
        text = report_csv(self.report)
        lines = text.splitlines()
        config_lines = [ln for ln in lines if ln.startswith("# ")]
        assert "# n=3" in config_lines and "# m=3" in config_lines
        assert "# notion=sure" in config_lines
        header_at = len(config_lines)
        assert lines[header_at] == ",".join(CSV_COLUMNS)
        first = lines[header_at + 1].split(",")
        assert first[0] == "borda"
        assert first[5] == "216" and first[6] == "54"
        assert first[8] == "25.0000"

    def test_json_shape(self):
        doc = json.loads(report_json(self.report))
        assert doc["config"]["sets"] == ["borda", "borda+hare"]
        assert doc["config"]["mode"] == "exhaustive"
        assert doc["config"]["samples"] is None
        rows = {r["set"]: r for r in doc["results"]}
        assert rows["borda"]["witness_profiles"] == 54
        assert rows["borda"]["witness_pointed"] == 72
        assert rows["borda"]["percentage"] == pytest.approx(25.0)
        assert report_json(self.report).endswith("\n")
