"""Manipulation detectors, profile constructions, and census-level judgments."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from votemanip.census import (
    CensusSpec,
    _ClassKernel,
    eliminates,
    improves_on_all_subsets,
    less_susceptible,
)
from votemanip.core import Profile, Ranking, all_rankings
from votemanip.fixtures import EXAMPLES, profile_of, ranking_of, set_of
from votemanip.manipulation import (
    NOTIONS,
    UncertaintySet,
    add_24_voters,
    add_bottom_candidate,
    add_two_voters,
    classify_transition,
    find_manipulation,
    method_set,
    notion_holds,
    profile_witnesses,
)
from votemanip.methods import METHODS


def ballot(witness):
    return "".join("abcd"[c] for c in witness.new_ranking.order)


class TestUncertaintySet:
    def test_id_joins_method_ids_in_order(self):
        s = method_set("borda", "hare", "coombs")
        assert s.id == "borda+hare+coombs"
        assert len(s) == 3
        assert [f.id for f in s] == ["borda", "hare", "coombs"]

    def test_subsets_in_size_order(self):
        s = method_set("borda", "hare", "coombs")
        assert [u.id for u in s.subsets()] == [
            "borda", "hare", "coombs",
            "borda+hare", "borda+coombs", "hare+coombs",
        ]

    def test_anonymous_unless_a_member_is_not(self):
        def labeled(s):
            return _ClassKernel(CensusSpec(n=3, m=2, method_sets=(s,))).labeled

        assert labeled(method_set("borda", "hare")) == ()
        assert labeled(method_set("borda", "pdict:a,b,1")) == (1,)

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError, match="at least one"):
            UncertaintySet(())
        with pytest.raises(ValueError, match="duplicate"):
            method_set("borda", "borda")

    @given(st.integers(1, 4))
    def test_subset_count(self, size):
        names = ("plurality", "borda", "hare", "coombs")[:size]
        assert len(method_set(*names).subsets()) == 2**size - 2


class TestNotionFlags:
    BETTER = (True, True, False)
    NOT_WORSE = (False, True, False)
    NEUTRAL = (False, False, False)
    WORSE = (False, False, True)

    def test_sure_needs_every_method_to_improve(self):
        assert notion_holds("sure", [self.BETTER, self.BETTER])
        assert not notion_holds("sure", [self.BETTER, self.NOT_WORSE])

    def test_safe_needs_not_worse_everywhere_and_one_gain(self):
        assert notion_holds("safe", [self.BETTER, self.NOT_WORSE])
        assert not notion_holds("safe", [self.NOT_WORSE, self.NOT_WORSE])
        assert not notion_holds("safe", [self.BETTER, self.NEUTRAL])

    def test_harmless_tolerates_incomparable_outcomes(self):
        assert notion_holds("harmless", [self.BETTER, self.NEUTRAL])
        assert not notion_holds("harmless", [self.BETTER, self.WORSE])
        assert not notion_holds("harmless", [self.NEUTRAL, self.NEUTRAL])

    def test_expected_counts_methods_when_unweighted(self):
        assert notion_holds("expected", [self.BETTER, self.BETTER, self.WORSE])
        assert not notion_holds("expected", [self.BETTER, self.WORSE])
        assert not notion_holds("expected", [self.NEUTRAL, self.NEUTRAL])

    def test_expected_weighs_methods_when_weighted(self):
        flags = [self.BETTER, self.WORSE]
        assert notion_holds("expected", flags, (Fraction(3, 4), Fraction(1, 4)))
        assert not notion_holds(
            "expected", flags, (Fraction(1, 2), Fraction(1, 2))
        )

    def test_unknown_notion_raises(self):
        with pytest.raises(ValueError, match="unknown notion"):
            notion_holds("plausible", [self.BETTER])


class TestValidation:
    def setup_method(self):
        self.p = profile_of("abc bca cab")
        self.pair = method_set("borda", "hare")

    def test_unknown_notion_and_kind(self):
        with pytest.raises(ValueError, match="unknown notion"):
            find_manipulation(self.p, 0, self.pair, notion="bold")
        with pytest.raises(ValueError, match="unknown dominance kind"):
            find_manipulation(self.p, 0, self.pair, kind="best")

    def test_single_requires_a_one_method_set(self):
        with pytest.raises(ValueError, match="one-method"):
            find_manipulation(self.p, 0, self.pair, notion="single")
        assert (
            find_manipulation(self.p, 0, method_set("borda"), notion="single")
            is not None
        ) in (True, False)

    def test_weights_only_with_expected(self):
        half = (Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError, match="weights only apply"):
            find_manipulation(self.p, 0, self.pair, notion="sure", weights=half)

    def test_weights_must_be_a_distribution(self):
        with pytest.raises(ValueError, match="weights for"):
            find_manipulation(self.p, 0, self.pair, "expected", weights=(Fraction(1),))
        with pytest.raises(ValueError, match="sum to 1"):
            find_manipulation(self.p, 0, self.pair, "expected",
                              weights=(Fraction(1), Fraction(1)))
        with pytest.raises(ValueError, match="nonnegative"):
            find_manipulation(
                self.p, 0, self.pair, "expected",
                weights=(Fraction(3, 2), Fraction(-1, 2)),
            )

    def test_classify_rejects_the_sincere_ballot(self):
        with pytest.raises(ValueError, match="must differ"):
            classify_transition(self.p, 0, self.p.rankings[0], self.pair)


class TestDividedProfile:
    """abc bca cab cba: voter 0 can help Borda without moving Baldwin."""

    def setup_method(self):
        self.p = EXAMPLES["sure-weak-34"].profile
        self.pair = method_set("borda", "baldwin")

    def test_no_sure_or_safe_witness_for_the_pair(self):
        assert find_manipulation(self.p, 0, self.pair, "sure") is None
        assert find_manipulation(self.p, 0, self.pair, "safe") is None

    def test_harmless_witness_is_bac(self):
        w = find_manipulation(self.p, 0, self.pair, "harmless")
        assert ballot(w) == "bac"
        assert [o.relation for o in w.outcomes] == ["better", "neutral"]

    def test_classification_of_the_bac_move(self):
        borda, baldwin = classify_transition(
            self.p, 0, ranking_of("bac"), self.pair
        )
        assert (borda.improves, borda.not_worse, borda.worsens) == (
            True, True, False,
        )
        assert borda.before == set_of("c", 3)
        assert borda.after == set_of("bc", 3)
        # Baldwin stays at {b, c}, which does not weakly dominate itself
        assert baldwin.before == baldwin.after == set_of("bc", 3)
        assert (baldwin.improves, baldwin.not_worse, baldwin.worsens) == (
            False, False, False,
        )

    def test_profile_scan_returns_the_first_voter_with_a_witness(self):
        voter, w = profile_witnesses(self.p, "sure", method_set("plurality"))
        assert voter == 0 and ballot(w) == "bac"
        assert w.outcomes[0].before == set_of("c", 3)
        assert w.outcomes[0].after == set_of("bc", 3)


class TestMixedOutcomeProfile:
    """cba acb bac cba acb: helping Hare hurts Borda for voter 0."""

    def setup_method(self):
        self.p = EXAMPLES["unsafe-35"].profile
        self.trio = method_set("baldwin", "borda", "hare")
        self.pair = method_set("hare", "borda")

    def test_expected_witness_under_the_uniform_trio(self):
        w = find_manipulation(self.p, 0, self.trio, "expected")
        assert ballot(w) == "bac"
        assert [o.relation for o in w.outcomes] == ["better", "worse", "better"]

    def test_one_for_one_trade_fails_the_uniform_pair(self):
        assert find_manipulation(self.p, 0, self.pair, "expected") is None

    def test_tilted_weights_rescue_the_pair(self):
        w = find_manipulation(
            self.p, 0, self.pair, "expected",
            weights=(Fraction(3, 4), Fraction(1, 4)),
        )
        assert ballot(w) == "bac"
        assert [o.relation for o in w.outcomes] == ["better", "worse"]

    def test_stronger_notions_fail_for_voter_0(self):
        assert find_manipulation(self.p, 0, self.pair, "sure") is None
        assert find_manipulation(self.p, 0, self.pair, "safe") is None
        assert find_manipulation(self.p, 0, self.pair, "harmless") is None

    def test_voter_2_has_a_safe_witness_instead(self):
        w = find_manipulation(self.p, 2, self.pair, "safe")
        assert ballot(w) == "abc"
        assert [o.relation for o in w.outcomes] == ["neutral", "better"]
        assert find_manipulation(self.p, 2, self.pair, "sure") is None


class TestDictatorBlocksSafety:
    """cab cab acb acb acb: a pairwise dictator removes the safe witness."""

    def setup_method(self):
        self.p = EXAMPLES["pdict-35"].profile
        self.pair = method_set("borda", "coombs")
        self.with_dictator = method_set("borda", "coombs", "pdict:a,b,0")

    def test_cba_is_the_only_borda_improving_ballot(self):
        borda = METHODS["borda"]
        before = borda.winners(self.p)
        assert before == set_of("a", 3)
        from votemanip.dominance import dominates_strict

        improving = [
            alt
            for alt in all_rankings(3)
            if alt != self.p.rankings[0]
            and dominates_strict(
                "weak",
                borda.winners(self.p.replace_ranking(0, alt)),
                before,
                self.p.rankings[0],
            )
        ]
        assert [ballot_text(a) for a in improving] == ["cba"]

    def test_safe_and_harmless_for_the_pair(self):
        for notion in ("safe", "harmless"):
            w = find_manipulation(self.p, 0, self.pair, notion)
            assert ballot(w) == "cba"
            assert [o.relation for o in w.outcomes] == ["better", "neutral"]

    def test_adding_the_dictator_blocks_safe(self):
        assert find_manipulation(self.p, 0, self.with_dictator, "safe") is None

    def test_sure_fails_even_for_the_pair(self):
        assert find_manipulation(self.p, 0, self.pair, "sure") is None


def ballot_text(r: Ranking) -> str:
    return "".join("abcd"[c] for c in r.order)


class TestNotionRelationships:
    """Flag-level and existence-level relationships over all (3,3) transitions."""

    PAIR = ("borda", "hare")

    def _transitions(self):
        pair = method_set(*self.PAIR)
        for rs in product(all_rankings(3), repeat=3):
            p = Profile(rs)
            for voter in range(3):
                for alt in all_rankings(3):
                    if alt == rs[voter]:
                        continue
                    outs = classify_transition(p, voter, alt, pair)
                    yield [(o.improves, o.not_worse, o.worsens) for o in outs]

    def test_implication_chain_on_every_transition(self):
        for flags in self._transitions():
            sure = notion_holds("sure", flags)
            safe = notion_holds("safe", flags)
            harmless = notion_holds("harmless", flags)
            expected = notion_holds("expected", flags)
            assert not sure or safe
            assert not safe or harmless
            assert not harmless or expected
            # for two methods the last arrow reverses as well
            assert harmless == expected

    def test_optimist_and_pessimist_collapse_safe_into_harmless(self):
        pair = method_set(*self.PAIR)
        for kind in ("opt", "pes"):
            for rs in product(all_rankings(3), repeat=2):
                p = Profile(rs)
                for voter in range(2):
                    safe = find_manipulation(p, voter, pair, "safe", kind)
                    harmless = find_manipulation(p, voter, pair, "harmless", kind)
                    assert (safe is None) == (harmless is None)

    def test_single_method_sets_collapse_every_notion(self):
        single = method_set("borda")
        for rs in product(all_rankings(3), repeat=2):
            p = Profile(rs)
            for voter in range(2):
                found = {
                    notion: find_manipulation(p, voter, single, notion)
                    for notion in NOTIONS
                }
                ballots = {
                    None if w is None else w.new_ranking for w in found.values()
                }
                assert len(ballots) == 1

    def test_sure_witnesses_survive_shrinking_the_set(self):
        pair = method_set("plurality", "copeland")
        hits = 0
        for rs in product(all_rankings(3), repeat=4):
            p = Profile(rs)
            for voter in range(4):
                w = find_manipulation(p, voter, pair, "sure")
                if w is None:
                    continue
                hits += 1
                for sub in pair.subsets():
                    outs = classify_transition(p, voter, w.new_ranking, sub)
                    assert notion_holds(
                        "sure", [(o.improves, o.not_worse, o.worsens) for o in outs]
                    )
        assert hits > 0

    def test_one_ballot_witnesses_every_subset_of_a_larger_set(self):
        p = EXAMPLES["ten-method-44"].profile
        quad = method_set("plurality", "borda", "hare", "coombs")
        move = Ranking(tuple("abcd".index(ch) for ch in "bdca"))
        for subset in quad.subsets() + [quad]:
            outs = classify_transition(p, 0, move, subset)
            assert notion_holds(
                "sure", [(o.improves, o.not_worse, o.worsens) for o in outs]
            )


class TestConstructions:
    def test_two_opposed_voters_cancel_in_the_tally(self):
        p = EXAMPLES["sure-weak-34"].profile
        p2 = add_two_voters(p)
        assert p2.m == p.m + 2
        assert p2.rankings[-2:] == (ranking_of("abc"), ranking_of("cba"))
        assert p.tally.counts != p2.tally.counts
        for x in range(3):
            for y in range(3):
                if x != y:
                    assert p.tally.net(x, y) == p2.tally.net(x, y)

    def test_two_voters_preserve_margin_based_winners_exhaustively(self):
        family = [METHODS[mid] for mid in
                  ("borda", "baldwin", "strict_nanson", "weak_nanson",
                   "condorcet", "copeland", "maxmin")]
        for rs in product(all_rankings(3), repeat=2):
            p = Profile(rs)
            p2 = add_two_voters(p)
            for f in family:
                assert f.winners(p) == f.winners(p2)

    def test_two_voters_can_move_first_place_counts(self):
        p = profile_of("abc bac")
        p2 = add_two_voters(p)
        assert METHODS["plurality"].winners(p) == set_of("ab", 3)
        assert METHODS["plurality"].winners(p2) == set_of("a", 3)

    def test_24_voter_block_is_balanced(self):
        p = EXAMPLES["sure-weak-43"].profile
        p2 = add_24_voters(p)
        assert p2.m == p.m + 24
        for x in range(4):
            for y in range(4):
                if x != y:
                    assert p.tally.net(x, y) == p2.tally.net(x, y)
        firsts = [sum(1 for r in p2.rankings if r.top() == c) for c in range(4)]
        base = [sum(1 for r in p.rankings if r.top() == c) for c in range(4)]
        assert firsts == [b + 6 for b in base]

    def test_24_voters_preserve_every_method_but_coombs(self):
        import random

        rng = random.Random(11)
        preserved = [f for mid, f in METHODS.items() if mid != "coombs"]
        for _ in range(150):
            p = Profile(
                tuple(
                    rng.choice(all_rankings(4))
                    for _ in range(rng.randint(1, 5))
                )
            )
            p2 = add_24_voters(p)
            for f in preserved:
                assert f.winners(p) == f.winners(p2)

    def test_coombs_is_not_preserved_by_the_24_voter_block(self):
        # the balanced block defuses the majority guard and levels the
        # last-place counts, freezing a tie that the base profile breaks
        p = profile_of("dacb dabc abcd")
        p2 = add_24_voters(p)
        assert METHODS["coombs"].winners(p) != METHODS["coombs"].winners(p2)

    def test_ten_method_profile_is_preserved_under_every_method(self):
        p = EXAMPLES["ten-method-44"].profile
        p2 = add_24_voters(p)
        for f in METHODS.values():
            assert f.winners(p) == f.winners(p2)

    def test_bottom_candidate_shape(self):
        p = EXAMPLES["sure-weak-34"].profile
        p2 = add_bottom_candidate(p)
        assert (p2.n, p2.m) == (4, 4)
        assert all(r.order[-1] == 3 for r in p2.rankings)
        assert all(r.order[:-1] == s.order for r, s in zip(p2.rankings, p.rankings))

    def test_bottom_candidate_never_scores_or_wins(self):
        for rs in product(all_rankings(3), repeat=2):
            p2 = add_bottom_candidate(Profile(rs))
            tally = p2.tally
            assert all(tally.counts[3][y] == 0 for y in range(3))
            for mid in ("borda", "baldwin", "strict_nanson", "weak_nanson"):
                assert 3 not in METHODS[mid].winners(p2)

    def test_bottom_candidate_preserves_most_of_the_borda_family(self):
        for m in (2, 3):
            for rs in product(all_rankings(3), repeat=m):
                p = Profile(rs)
                p2 = add_bottom_candidate(p)
                for mid in ("borda", "baldwin", "strict_nanson"):
                    assert METHODS[mid].winners(p) == METHODS[mid].winners(p2)

    def test_bottom_candidate_can_move_weak_nanson_at_even_sizes(self):
        # scores shift by m but the average by m/2, so a candidate within
        # m/2 below the old average clears the new one and an all-removal
        # tie can freeze it in
        p = profile_of("abc bca")
        p2 = add_bottom_candidate(p)
        assert METHODS["weak_nanson"].winners(p) == set_of("b", 3)
        assert METHODS["weak_nanson"].winners(p2) == set_of("ab", 4)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="3 candidates"):
            add_two_voters(EXAMPLES["sure-weak-43"].profile)
        with pytest.raises(ValueError, match="4 candidates"):
            add_24_voters(EXAMPLES["sure-weak-34"].profile)


class TestCensusJudgments:
    def test_borda_strict_nanson_pair_eliminates_at_3_4(self):
        report = eliminates(method_set("borda", "strict_nanson"), 3, 4)
        assert report.eliminates and not report.vacuous
        assert report.counts == {
            "borda": 378,
            "strict_nanson": 216,
            "borda+strict_nanson": 0,
        }

    def test_singletons_are_vacuously_non_eliminating(self):
        report = eliminates(method_set("borda"), 3, 4)
        assert not report.eliminates and report.vacuous
        assert report.counts == {"borda": 378}

    def test_a_pair_with_surviving_witnesses_does_not_eliminate(self):
        report = eliminates(method_set("plurality", "copeland"), 3, 4)
        assert not report.eliminates
        assert report.counts == {
            "plurality": 432,
            "copeland": 360,
            "plurality+copeland": 144,
        }

    def test_eliminating_pair_is_less_susceptible_than_its_members(self):
        assert less_susceptible(
            method_set("borda", "strict_nanson"), method_set("borda"), 3, 4
        )

    def test_comparing_a_set_against_itself_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            less_susceptible(method_set("borda"), method_set("borda"), 3, 4)

    def test_unknown_count_basis_is_rejected(self):
        with pytest.raises(ValueError, match="unknown count basis 'voters'"):
            less_susceptible(method_set("borda", "hare"), method_set("borda"), 3, 2,
                             basis="voters")

    def test_adding_a_dictator_lowers_expected_susceptibility(self):
        pair = method_set("borda", "coombs")
        trio = method_set("borda", "coombs", "pdict:a,b,0")
        assert less_susceptible(trio, pair, 3, 5, notion="expected")
        assert less_susceptible(
            trio, pair, 3, 5, notion="expected", basis="pointed"
        )

    def test_improvement_over_all_subsets(self):
        report = improves_on_all_subsets(method_set("borda", "strict_nanson"), 3, 4)
        assert report.improves and not report.vacuous
        report = improves_on_all_subsets(method_set("borda"), 3, 4)
        assert report.improves and report.vacuous
