"""Winner sets of the eleven methods and the two extensions."""

from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from votemanip.census import BLOCK_CELLS, CensusSpec, _ClassKernel
from votemanip.core import Profile, Ranking, all_rankings, default_labels
from votemanip.fixtures import EXAMPLES, profile_of, ranking_of, set_of
from votemanip.manipulation import UncertaintySet
from votemanip.methods import (
    METHOD_ORDER,
    METHODS,
    VotingMethod,
    pairwise_dictator,
    parse_method,
    plurality,
    plurality_with_runoff,
    tiebroken,
)


def winners_by_name(name: str, profile: Profile) -> frozenset[int]:
    return METHODS[name].winners(profile)


def relabel_profile(profile: Profile, sigma) -> Profile:
    return Profile(
        tuple(Ranking(tuple(sigma[x] for x in r.order)) for r in profile.rankings)
    )


class TestWorkedExamples:
    """Every frozen winner set, before and after each recorded move."""

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_sincere_winners(self, name):
        ex = EXAMPLES[name]
        p = ex.profile
        for method_id, expect in ex.winners.items():
            assert winners_by_name(method_id, p) == set_of(expect, p.n), method_id

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_winners_after_each_move(self, name):
        ex = EXAMPLES[name]
        for move in ex.moves:
            changed = ex.profile.replace_ranking(move.voter, ranking_of(move.ballot))
            for method_id, expect in move.after.items():
                assert winners_by_name(method_id, changed) == set_of(
                    expect, changed.n
                ), (move.ballot, method_id)


class TestHandWorkedCases:
    def test_condorcet_winner_is_a_singleton(self):
        assert winners_by_name("condorcet", profile_of("abc abc bca")) == {0}

    def test_condorcet_defaults_to_everyone(self):
        # the sure-weak-34 profile has a c/b majority tie
        assert winners_by_name("condorcet", profile_of("abc bca cab cba")) == {0, 1, 2}

    def test_mirror_profile_outcomes(self):
        mirror = profile_of("abc cba")
        for name in ("condorcet", "copeland", "maxmin", "borda", "baldwin",
                     "strict_nanson", "weak_nanson"):
            assert winners_by_name(name, mirror) == {0, 1, 2}, name
        # the positional methods still see asymmetry: b is never ranked
        # first and is the only candidate never ranked last
        assert plurality(mirror) == {0, 2}
        assert winners_by_name("hare", mirror) == {0, 2}
        assert winners_by_name("coombs", mirror) == {1}

    def test_unanimous_profile_elects_the_top(self):
        p = profile_of("bca bca bca")
        for name in METHOD_ORDER:
            assert winners_by_name(name, p) == {1}, name

    def test_single_candidate_profile(self):
        p = Profile((Ranking((0,)), Ranking((0,))))
        for name in METHOD_ORDER:
            assert winners_by_name(name, p) == {0}, name

    def test_runoff_recounts_on_the_restriction(self):
        # a and b tie for the top plurality score; the cba ballot then
        # counts for b among the finalists
        p = profile_of("abc abc bca bca cba")
        assert plurality(p) == {0, 1}
        assert plurality_with_runoff(p) == {1}

    def test_runoff_transfers_can_overturn_a_unique_leader(self):
        # a leads the first round 3-2-1 but the eliminated cba voter
        # breaks for b in the runoff
        p = profile_of("abc abc abc bca bca cba")
        assert plurality(p) == {0}
        assert plurality_with_runoff(p) == {0, 1}

    def test_majority_winner_short_circuits_hare_and_coombs(self):
        p = profile_of("abc abc abc bca cba")
        assert winners_by_name("hare", p) == {0}
        assert winners_by_name("coombs", p) == {0}


def majority_maximal(profile: Profile, alive: frozenset[int]) -> frozenset[int]:
    tally = profile.tally
    best = frozenset(
        x for x in alive
        if not any(tally.net(y, x) > 0 for y in alive if y != x)
    )
    return best or alive  # a perfect cycle leaves the round's survivors tied


def one_round_then_majority(profile: Profile, strict_below_average: bool) -> frozenset[int]:
    """Oracle for the three-candidate shortcut of the Borda-elimination methods."""
    tally = profile.tally
    alive = frozenset(profile.candidates)
    scores = {
        x: sum(tally.count(x, y) for y in alive if y != x) for x in alive
    }
    if strict_below_average:
        total, k = sum(scores.values()), len(alive)
        survivors = frozenset(x for x in alive if k * scores[x] >= total)
    else:
        low = min(scores.values())
        survivors = frozenset(x for x in alive if scores[x] > low)
    if not survivors or survivors == alive:
        return alive
    return majority_maximal(profile, survivors)


class TestThreeCandidateStructure:
    @pytest.mark.parametrize("m", [4, 5])
    def test_hare_equals_runoff(self, m):
        for combo in product(all_rankings(3), repeat=m):
            p = Profile(combo)
            assert winners_by_name("hare", p) == plurality_with_runoff(p)

    @pytest.mark.parametrize("m", [4, 5])
    def test_baldwin_is_one_round_then_majority(self, m):
        for combo in product(all_rankings(3), repeat=m):
            p = Profile(combo)
            assert winners_by_name("baldwin", p) == one_round_then_majority(p, False)

    @pytest.mark.parametrize("m", [4, 5])
    def test_strict_nanson_is_one_round_then_majority(self, m):
        for combo in product(all_rankings(3), repeat=m):
            p = Profile(combo)
            assert winners_by_name("strict_nanson", p) == one_round_then_majority(p, True)


class TestStructuralInvariants:
    def test_every_method_returns_nonempty_winner_subsets(self):
        for combo in product(all_rankings(3), repeat=3):
            p = Profile(combo)
            for name in METHOD_ORDER:
                w = winners_by_name(name, p)
                assert w and w <= frozenset(p.candidates), name

    @settings(max_examples=60)
    @given(
        st.lists(st.sampled_from(all_rankings(3)), min_size=1, max_size=5),
        st.sampled_from(list(permutations(range(3)))),
    )
    def test_neutrality(self, rs, sigma):
        p = Profile(tuple(rs))
        relabeled = relabel_profile(p, sigma)
        for name in METHOD_ORDER:
            expect = frozenset(sigma[x] for x in winners_by_name(name, p))
            assert winners_by_name(name, relabeled) == expect, name

    @settings(max_examples=60)
    @given(
        st.lists(st.sampled_from(all_rankings(3)), min_size=2, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_anonymity(self, rs, rnd):
        p = Profile(tuple(rs))
        shuffled = list(rs)
        rnd.shuffle(shuffled)
        q = Profile(tuple(shuffled))
        for name in METHOD_ORDER:
            assert winners_by_name(name, p) == winners_by_name(name, q), name


class TestTiebreakExtension:
    def test_reduces_ties_by_the_given_order(self):
        p = profile_of("abc bca cab cba")  # baldwin ties {b, c}
        assert tiebroken(METHODS["baldwin"], ranking_of("abc")).winners(p) == {1}
        assert tiebroken(METHODS["baldwin"], ranking_of("cba")).winners(p) == {2}

    def test_leaves_singletons_alone(self):
        p = profile_of("abc bca cab cba")
        for order in ("abc", "cba", "bca"):
            assert tiebroken(METHODS["borda"], ranking_of(order)).winners(p) == {2}

    def test_is_always_resolute(self):
        f = tiebroken(METHODS["maxmin"], ranking_of("bac"))
        for combo in product(all_rankings(3), repeat=3):
            assert len(f.winners(Profile(combo))) == 1

    def test_id_and_anonymity(self):
        f = tiebroken(METHODS["borda"], ranking_of("acb"))
        assert f.id == "borda@acb"
        assert f.anonymous


class TestPairwiseDictator:
    def test_follows_the_named_voter(self):
        f = pairwise_dictator(0, 1, 0, ("a", "b", "c"))
        assert f.winners(profile_of("abc bca")) == {0}
        assert f.winners(profile_of("bca abc")) == {1}

    def test_ignores_everything_else(self):
        f = pairwise_dictator(0, 2, 1, ("a", "b", "c"))
        for tail in ("abc", "cba", "bac"):
            assert f.winners(profile_of(f"cab acb {tail}")) == {0}

    def test_rejects_degenerate_pairs(self):
        with pytest.raises(ValueError):
            pairwise_dictator(1, 1, 0, ("a", "b"))
        with pytest.raises(ValueError):
            pairwise_dictator(0, 1, -1, ("a", "b"))

    def test_names_the_voter_missing_from_a_short_profile(self):
        f = pairwise_dictator(0, 1, 5, ("a", "b", "c"))
        with pytest.raises(ValueError, match="voter 5 out of range for 2 voters"):
            f.winners(profile_of("abc bca"))

    def test_id_and_anonymity(self):
        f = pairwise_dictator(0, 1, 2, ("a", "b", "c"))
        assert f.id == "pdict:a,b,2"
        assert not f.anonymous


class TestMethodRegistry:
    def test_order_and_ids_agree(self):
        assert len(METHOD_ORDER) == 11
        assert set(METHOD_ORDER) == set(METHODS)
        for name, method in METHODS.items():
            assert method.id == name

    def test_equality_goes_by_id(self):
        clone = VotingMethod("borda", METHODS["plurality"].fn)
        assert clone == METHODS["borda"]

    @pytest.mark.parametrize("name", METHOD_ORDER)
    def test_parse_plain_names(self, name):
        assert parse_method(name) is METHODS[name]
        assert parse_method(f"  {name} ") is METHODS[name]

    def test_parse_tiebroken_form(self):
        f = parse_method("borda@acb")
        assert f.id == "borda@acb"
        p = profile_of("abc bca cab cba")
        assert f.winners(p) == {2}

    def test_parse_dictator_form(self):
        f = parse_method("pdict:a,b,0")
        assert f.id == "pdict:a,b,0"
        assert f.winners(profile_of("abc bca")) == {0}

    @pytest.mark.parametrize(
        "text",
        ["bordaa", "borda@aab", "borda@axc", "nope@abc", "pdict:a,b",
         "pdict:a,b,x", "pdict:a,Z,0", ""],
    )
    def test_parse_rejections(self, text):
        with pytest.raises(ValueError):
            parse_method(text)

    def test_parse_checks_candidates_against_given_labels(self):
        with pytest.raises(ValueError):
            parse_method("pdict:a,q,0", labels=("a", "b", "c"))
        assert parse_method("borda@ba", labels=("a", "b")).id == "borda@ba"


def batched_methods(n: int) -> list[VotingMethod]:
    """The eleven methods and two tiebroken forms (borda@acb, hare@cab at n=3)."""
    labels = "".join(default_labels(n))
    return [METHODS[name] for name in METHOD_ORDER] + [
        parse_method(f"borda@{labels[0]}{labels[:0:-1]}"),
        parse_method(f"hare@{labels[-1]}{labels[:-1]}"),
    ]


def count_row(n: int, combo) -> list[int]:
    row = [0] * len(all_rankings(n))
    for d in combo:
        row[d] += 1
    return row


def member(n: int, combo) -> Profile:
    return Profile(tuple(all_rankings(n)[d] for d in combo))


def bitmask(winners) -> int:
    return sum(1 << x for x in winners)


class TestBatchedForms:
    """``fn.on_counts`` on a class's ranking-count row against the scalar
    ``fn`` on a member profile of the class."""

    def check(self, n, combos):
        rows = np.array([count_row(n, c) for c in combos], dtype=np.uint8)
        profiles = [member(n, c) for c in combos]
        for f in batched_methods(n):
            got = f.fn.on_counts(rows).tolist()
            assert got == [bitmask(f.fn(p)) for p in profiles], f.id

    @pytest.mark.parametrize("n,m", [
        (1, 1), (1, 3),
        *((2, m) for m in range(1, 7)),
        *((3, m) for m in range(1, 7)),
        *((4, m) for m in range(1, 5)),
        (5, 1), (5, 2),
    ])
    def test_every_class_matches_the_scalar_method(self, n, m):
        self.check(n, list(combinations_with_replacement(range(len(all_rankings(n))), m)))

    @pytest.mark.parametrize("n,m,count", [(5, 7, 300), (6, 3, 200)])
    def test_random_classes_match_the_scalar_method(self, n, m, count):
        rng = np.random.default_rng(n * 100 + m)
        self.check(n, rng.integers(0, len(all_rankings(n)), size=(count, m)).tolist())

    def test_a_class_memo_past_the_block_limit_matches(self):
        # The kernel scores classes in blocks of a fixed size, so more
        # classes than fit in one block cross chunk boundaries.
        n, m = 6, 3
        methods = batched_methods(n)
        spec = CensusSpec(n=n, m=m, method_sets=tuple(UncertaintySet((f,)) for f in methods))
        kernel = _ClassKernel(spec)
        rows_per_block = kernel._block_rows
        assert rows_per_block * 720 < BLOCK_CELLS
        combos = np.random.default_rng(7).integers(0, 720, size=(2 * rows_per_block + 50, m))
        keys = {bytes(count_row(n, c)): c for c in combos.tolist()}
        assert len(keys) > 2 * rows_per_block
        kernel.remember(keys)
        for key, combo in keys.items():
            outcome = kernel._outcomes[kernel.switch_ids(key)[0]]
            assert outcome == tuple(f.fn(member(n, combo)) for f in methods)

    def test_tiebroken_custom_methods_have_no_batched_form(self):
        custom = VotingMethod("custom", lambda profile: frozenset(profile.candidates))
        assert not hasattr(tiebroken(custom, ranking_of("abc")).fn, "on_counts")
        assert hasattr(tiebroken(METHODS["borda"], ranking_of("abc")).fn, "on_counts")
