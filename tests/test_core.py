"""Rankings, profiles, tallies, and the two file formats."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from votemanip.core import (
    Profile,
    ProfileFormatError,
    Ranking,
    alive_extremes,
    all_rankings,
    default_labels,
    format_profile_json,
    format_profile_text,
    pairs_above,
    pairwise_tally,
    parse_profile_json,
    parse_profile_text,
    ranking_orders,
    ranking_places,
)
from votemanip.fixtures import profile_of, ranking_of
from votemanip.methods import _dictator_table, _tiebreak_table


def rankings(n_max=4):
    return st.integers(1, n_max).flatmap(
        lambda n: st.permutations(range(n)).map(lambda p: Ranking(tuple(p)))
    )


def profiles(n=3, m_max=5):
    return st.lists(
        st.sampled_from(all_rankings(n)), min_size=1, max_size=m_max
    ).map(lambda rs: Profile(tuple(rs)))


class TestRanking:
    def test_rejects_non_permutations(self):
        for bad in ((), (0, 0), (1, 2), (0, 2)):
            with pytest.raises(ValueError):
                Ranking(bad)

    def test_position_inverts_order(self):
        r = ranking_of("cab")
        assert r.order == (2, 0, 1)
        assert r.position == (1, 2, 0)
        assert r.top() == 2

    def test_prefers_matches_positions(self):
        r = ranking_of("bca")
        assert r.prefers(1, 2) and r.prefers(2, 0) and not r.prefers(0, 1)

    def test_best_and_worst_of(self):
        r = ranking_of("bca")
        assert r.best_of({0, 2}) == 2
        assert r.worst_of({0, 2}) == 0
        assert r.best_of({0}) == r.worst_of({0}) == 0

    def test_all_rankings_is_lexicographic(self):
        rs = all_rankings(3)
        assert len(rs) == 6
        assert [r.order for r in rs] == sorted(r.order for r in rs)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pairs_above_matches_the_nested_list_form(self, n):
        nested = [[x * n + y for i, x in enumerate(r.order) for y in r.order[i + 1:]]
                  for r in all_rankings(n)]
        table = pairs_above(n)
        assert table.dtype == np.uint8  # every cell is below n * n <= 100
        assert table.shape == (len(nested), n * (n - 1) // 2)
        assert table.tolist() == nested


def picked(n: int) -> list[int]:
    """Every ranking index up to n = 5, and 40 seeded ones beyond."""
    fact = len(all_rankings(n))
    if n <= 5:
        return list(range(fact))
    return sorted(np.random.default_rng(n).choice(fact, 40, replace=False).tolist())


def members(n: int) -> list[list[int]]:
    """The members of every nonempty candidate set, by bitmask from 1."""
    return [[x for x in range(n) if mask >> x & 1] for mask in range(1, 1 << n)]


class TestRankingTables:
    """The array tables against the scalar ``Ranking`` they stand for."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_orders_and_places_are_the_lexicographic_rankings(self, n):
        assert ranking_orders(n).dtype == ranking_places(n).dtype == np.uint8
        assert ranking_orders(n).tolist() == [list(r.order) for r in all_rankings(n)]
        assert ranking_places(n).tolist() == [list(r.position) for r in all_rankings(n)]

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("worst", [False, True])
    def test_alive_extremes_are_each_sets_best_or_worst_member(self, n, worst):
        table = alive_extremes(n, worst)
        rankings = all_rankings(n)
        assert table.shape == (1 << n, len(rankings)) and table.dtype == np.uint8
        assert not table[0].any()
        for r in picked(n):
            pick = rankings[r].worst_of if worst else rankings[r].best_of
            assert table[1:, r].tolist() == [pick(xs) for xs in members(n)]
        if n <= 7:  # the per-set search the table was built by before, on every ranking
            order = ranking_orders(n)
            for alive in range(1, 1 << n):
                member = (alive >> order.astype(np.int64)) & 1 == 1  # by place
                place = (n - 1 - member[:, ::-1].argmax(axis=1) if worst
                         else member.argmax(axis=1))
                assert (table[alive] == order[np.arange(len(order)), place]).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_tiebreak_table_is_each_sets_best_member(self, n):
        for r in picked(n):
            order = all_rankings(n)[r]
            assert _tiebreak_table(order)[1:].tolist() == [1 << order.best_of(xs)
                                                           for xs in members(n)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_dictator_table_is_each_rankings_preferred_candidate(self, n):
        rankings = all_rankings(n)
        for x, y in permutations(range(n), 2):
            table = _dictator_table(x, y, n)
            assert [table[r] for r in picked(n)] == [
                1 << (x if rankings[r].prefers(x, y) else y) for r in picked(n)]


class TestProfile:
    def test_needs_voters_and_common_candidates(self):
        with pytest.raises(ValueError):
            Profile(())
        with pytest.raises(ValueError):
            Profile((ranking_of("abc"), Ranking((0, 1))))

    def test_shape_properties(self):
        p = profile_of("abc bca cab cba")
        assert (p.n, p.m) == (3, 4)
        assert list(p.candidates) == [0, 1, 2]

    def test_replace_ranking_is_pure(self):
        p = profile_of("abc bca")
        q = p.replace_ranking(0, ranking_of("bac"))
        assert q.rankings[0] == ranking_of("bac")
        assert p.rankings[0] == ranking_of("abc")
        with pytest.raises(IndexError):
            p.replace_ranking(2, ranking_of("abc"))
        with pytest.raises(ValueError):
            p.replace_ranking(0, Ranking((1, 0)))

    @given(profiles(), st.data())
    def test_replace_then_restore_roundtrips(self, p, data):
        voter = data.draw(st.integers(0, p.m - 1))
        new = data.draw(st.sampled_from(all_rankings(p.n)))
        restored = p.replace_ranking(voter, new).replace_ranking(
            voter, p.rankings[voter]
        )
        assert restored == p


class TestPairwiseTally:
    def test_counts_and_net_on_worked_profile(self):
        t = pairwise_tally(profile_of("abc bca cab cba"))
        assert t.count(2, 0) == 3
        assert t.count(1, 2) == 2
        assert t.net(2, 0) == 2

    def test_single_ballot(self):
        t = pairwise_tally(profile_of("abc"))
        assert t.count(0, 1) == t.count(0, 2) == t.count(1, 2) == 1
        assert t.count(1, 0) == t.count(2, 0) == t.count(2, 1) == 0

    def test_diagonal_and_bad_pairs(self):
        t = pairwise_tally(profile_of("abc bca"))
        assert t.count(1, 1) == 0
        with pytest.raises(ValueError):
            t.net(1, 1)

    def test_mirror_ballots_cancel(self):
        t = pairwise_tally(profile_of("abc cba"))
        assert t.net(0, 2) == t.net(0, 1) == t.net(1, 2) == 0

    @given(profiles())
    def test_total_comparisons_fixed_by_shape(self, p):
        t = pairwise_tally(p)
        total = sum(
            t.count(x, y) for x in range(p.n) for y in range(p.n) if x != y
        )
        assert total == p.m * p.n * (p.n - 1) // 2

    @given(profiles())
    def test_net_is_antisymmetric(self, p):
        t = pairwise_tally(p)
        for x in range(p.n):
            for y in range(x + 1, p.n):
                assert t.net(x, y) == -t.net(y, x)


class TestParsing:
    def test_text_roundtrip(self):
        p = profile_of("abc bca cab cba")
        text = format_profile_text(p)
        assert text.splitlines()[0] == "3 4"
        parsed, labels = parse_profile_text(text)
        assert parsed == p and labels == ("a", "b", "c")

    def test_json_roundtrip(self):
        p = profile_of("abcd bdca cabd")
        parsed, labels = parse_profile_json(format_profile_json(p))
        assert parsed == p and labels == default_labels(4)

    def test_json_custom_labels(self):
        doc = '{"candidates": ["x", "y"], "rankings": [["y", "x"], ["x", "y"]]}'
        p, labels = parse_profile_json(doc)
        assert labels == ("x", "y")
        assert p.rankings[0].order == (1, 0)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "line 1"),
            ("3\na b c", "line 1"),
            ("x y\na b", "line 1"),
            ("0 2\n\n", "positive"),
            ("3 2\na b c", "expected 2 ballot lines"),
            ("3 1\na b q", "line 2"),
            ("3 1\na b b", "line 2"),
            ("3 1\na b", "line 2"),
        ],
    )
    def test_text_errors_name_the_line(self, text, fragment):
        with pytest.raises(ProfileFormatError, match=fragment):
            parse_profile_text(text)

    @pytest.mark.parametrize(
        "doc",
        [
            "not json",
            "[]",
            '{"candidates": ["a", "a"], "rankings": [["a", "a"]]}',
            '{"candidates": ["a", "b"], "rankings": []}',
            '{"candidates": ["a", "b"], "rankings": [["a"]]}',
            '{"candidates": ["a", "b"], "rankings": ["ab"]}',
        ],
    )
    def test_json_errors(self, doc):
        with pytest.raises(ProfileFormatError):
            parse_profile_json(doc)

    @given(profiles(n=3), st.booleans())
    def test_both_formats_roundtrip_any_profile(self, p, as_json):
        if as_json:
            parsed, _ = parse_profile_json(format_profile_json(p))
        else:
            parsed, _ = parse_profile_text(format_profile_text(p))
        assert parsed == p

    def test_default_labels_bounds(self):
        assert default_labels(3) == ("a", "b", "c")
        with pytest.raises(ValueError):
            default_labels(0)
        with pytest.raises(ValueError):
            default_labels(27)
