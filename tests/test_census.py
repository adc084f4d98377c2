"""Census engine: counts, determinism, sampling, serialization."""

import json
import math
from fractions import Fraction
from functools import cache, wraps

import pytest

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
    _sample_rows,
)
from votemanip.dominance import KINDS
from votemanip.manipulation import NOTIONS, UncertaintySet, find_manipulation, method_set
from votemanip.methods import METHODS, VotingMethod


def naive_counts(spec: CensusSpec) -> dict[str, tuple[int, int]]:
    """Witness counts by direct per-profile, per-voter search."""
    if spec.mode == "sample":
        profiles = sample_profiles(spec.n, spec.m, spec.samples, spec.seed)
    else:
        profiles = list(enumerate_profiles(spec.n, spec.m))
    # Winners are a function of the profile alone; sharing them across sets
    # only saves time.
    memo = {f.id: VotingMethod(f.id, cache(f.fn), f.anonymous)
            for s in spec.method_sets for f in s}
    out = {}
    for s in (UncertaintySet(tuple(memo[f.id] for f in s)) for s in spec.method_sets):
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


def engine_counts(spec: CensusSpec) -> dict[str, tuple[int, int]]:
    report = run_census(spec)
    return {r.set_id: (r.witness_profiles, r.witness_pointed) for r in report.results}


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

    def test_non_anonymous_sets_match(self):
        spec = CensusSpec(
            n=3,
            m=3,
            method_sets=(
                method_set("borda", "pdict:a,b,0"),
                method_set("borda"),
            ),
        )
        assert engine_counts(spec) == naive_counts(spec)

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

    def test_sampled_non_anonymous_census_matches(self):
        spec = CensusSpec(
            n=3, m=3, method_sets=(method_set("borda", "pdict:a,c,1"),),
            mode="sample", samples=200, seed=7,
        )
        assert engine_counts(spec) == naive_counts(spec)


class TestMethodRouting:
    """Methods with a batched form are scored on count blocks; a method
    without one sends the census down the per-profile direct scan."""

    @pytest.mark.parametrize("samples", [None, 40])
    def test_a_method_without_a_batched_form_takes_the_direct_scan(self, samples):
        borda = METHODS["borda"]
        custom = VotingMethod("my_borda", lambda profile: borda.fn(profile))
        spec = CensusSpec(
            n=3, m=3, mode="exhaustive" if samples is None else "sample",
            samples=samples or 0, seed=3,
            method_sets=(UncertaintySet((custom,)), UncertaintySet((custom, METHODS["hare"])),
                         method_set("hare")),
        )
        assert not _ClassKernel(spec).all_batched
        counts = engine_counts(spec)
        assert counts == naive_counts(spec)
        batched = engine_counts(CensusSpec(
            n=3, m=3, mode=spec.mode, samples=spec.samples, seed=spec.seed,
            method_sets=(method_set("borda"), method_set("borda", "hare"), method_set("hare")),
        ))
        assert list(counts.values()) == list(batched.values())

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
        spec = CensusSpec(
            n=3, m=4, method_sets=(method_set("borda"),), budget=500
        )
        with pytest.raises(BudgetExceededError):
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

    def test_more_than_255_voters_are_rejected(self):
        # A class key stores each ranking's holder count in one byte.
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
