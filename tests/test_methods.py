"""Winner sets of the eleven methods and the two extensions."""

from functools import wraps
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from votemanip.census import CensusSpec, _ClassKernel, _Colex, _row_wise
from votemanip.core import Profile, Ranking, all_rankings, default_labels
from votemanip.fixtures import EXAMPLES, profile_of, ranking_of, set_of
from votemanip.manipulation import UncertaintySet
from votemanip.methods import (
    METHOD_ORDER,
    METHODS,
    VotingMethod,
    _Counts,
    _Switched,
    _bitmask,
    _hare_steps,
    _members,
    _rows,
    _top,
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


class TestCandidateMajorHelpers:
    """``_members``, ``_bitmask`` and ``_top`` take the candidate axis
    first and the rows last, and agree with a per-row Python reference,
    also past eight candidates, where masks are wider than a byte."""

    @staticmethod
    def columns(n, k, seed):
        # scores drawn from a narrow range, so that rows tie, and one row
        # where every candidate ties
        rng = np.random.default_rng(seed)
        scores = rng.integers(-2, 3, size=(n, k))
        scores[:, 0] = 1
        alive = rng.integers(1, 1 << n, size=k)
        alive[1] = 1 << (n - 1)  # a single candidate alive
        return scores, alive

    @pytest.mark.parametrize("n", range(2, 11))
    def test_members_and_bitmask_invert_each_other(self, n):
        masks = np.arange(1 << n)
        inside = _members(masks, n)
        assert inside.shape == (n, 1 << n)
        assert [[x for x in range(n) if inside[x, i]] for i in range(1 << n)] == [
            [x for x in range(n) if mask >> x & 1] for mask in range(1 << n)]
        for dtype in (np.int16, np.int64):
            assert _bitmask(inside, dtype).dtype == dtype
            assert _bitmask(inside, dtype).tolist() == masks.tolist()
        # more leading-axis shapes: (n, 2, 2^n / 2)
        assert _bitmask(inside.reshape(n, 2, -1)).ravel().tolist() == masks.tolist()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_top_matches_a_per_row_reference(self, n):
        scores, alive = self.columns(n, 300, n)
        best = [max(row) for row in scores.T.tolist()]
        assert _top(scores).tolist() == [
            bitmask(x for x in range(n) if row[x] == top)
            for row, top in zip(scores.T.tolist(), best)]
        assert _top(scores)[0] == (1 << n) - 1  # the all-tied row
        expected = []
        for row, mask in zip(scores.T.tolist(), alive.tolist()):
            inside = [x for x in range(n) if mask >> x & 1]
            top = max(row[x] for x in inside)
            expected.append(bitmask(x for x in inside if row[x] == top))
        got = _top(scores, _members(alive, n))
        assert got.tolist() == expected
        assert got[1] == alive[1]
        assert _top(scores, _members(alive, n), np.int16).tolist() == expected


class TestBatchedForms:
    """``fn.on_counts`` on a class's ranking-count row against the scalar
    ``fn`` on a member profile of the class."""

    def check(self, n, combos):
        block = _Counts.of(n, np.array([count_row(n, c) for c in combos], dtype=np.uint8))
        profiles = [member(n, c) for c in combos]
        for f in batched_methods(n):
            got = f.fn.on_counts(block).tolist()
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
        # The kernel fills its rank-indexed id array in blocks of a fixed
        # size, so more classes than fit in one block cross block boundaries.
        n, m = 4, 3
        methods = batched_methods(n)
        spec = CensusSpec(n=n, m=m, method_sets=tuple(UncertaintySet((f,)) for f in methods))
        kernel = _ClassKernel(spec)
        colex = _Colex(n, m)
        ids = kernel.class_ids(colex)
        assert len(ids) == colex.classes > 2 * _rows(kernel.block_cells(colex))
        counts = colex.unrank(np.arange(colex.classes))
        combos = [tuple(np.repeat(np.arange(24), row).tolist()) for row in counts]
        assert combos == sorted(combinations_with_replacement(range(24), m),
                                key=lambda c: c[::-1])
        assert colex.rank(counts).tolist() == list(range(colex.classes))
        for combo, oid in zip(combos, ids.tolist()):
            outcome = tuple(frozenset(x for x in range(n) if w >> x & 1)
                            for w in kernel.outcomes.arrays()[0][oid].tolist())
            assert outcome == tuple(f.fn(member(n, combo)) for f in methods)

    @pytest.mark.parametrize("n,m,count", [
        *((2, m, None) for m in range(1, 5)),
        *((3, m, None) for m in range(1, 6)),
        *((4, m, None) for m in range(1, 4)),
        (5, 7, 30), (6, 3, 20), (7, 2, 3),
    ])
    def test_switched_blocks_match_count_rows_and_the_scalar_method(self, n, m, count):
        # Every one-voter switch of every class (or of ``count`` seeded random
        # classes), scored as a correction to its base class in ``_Switched``,
        # against the same switches as count rows: the winners, and the
        # statistics themselves (Borda scores, tallies, and places under
        # every candidate set, each row meeting every set), so that a wrong
        # statistic that leaves the winners as they are still fails.  Both
        # kinds of block give the statistics candidate-major, the rows
        # last.  A seeded subset of the switched classes also against the
        # scalar method.
        fact = len(all_rankings(n))
        rng = np.random.default_rng(n * 100 + m)
        if count is None:
            combos = list(combinations_with_replacement(range(fact), m))
        else:
            combos = rng.integers(0, fact, size=(count, m)).tolist()
        counts = np.array([count_row(n, c) for c in combos], dtype=np.uint8)
        cls, a = np.nonzero(counts)
        cls, a = np.repeat(cls, fact), np.repeat(a, fact)
        b = np.tile(np.arange(fact), len(cls) // fact)
        assert (a == b).any() and ((a != b) & (counts[cls, a] == 1)).any()  # stay, vacate
        labels = "".join(default_labels(n))
        methods = batched_methods(n) + [parse_method(f"{name}@{labels[::-1]}")
                                        for name in ("coombs", "copeland", "strict_nanson")]
        base = _Counts.of(n, counts)
        step = max(1, (1 << 20) // fact)  # switches materialized at once
        for lo in range(0, len(cls), step):
            at = np.arange(lo, min(lo + step, len(cls)))
            block = _Switched(base, cls[at], a[at], b[at])
            rows = counts[cls[at]]
            rows[np.arange(len(at)), a[at]] -= 1
            rows[np.arange(len(at)), b[at]] += 1
            dense = _Counts.of(n, rows)
            assert block.scores().shape == dense.scores().shape == (n, len(at))
            assert block.tallies().shape == dense.tallies().shape == (n, n, len(at))
            assert np.array_equal(block.scores(), dense.scores())
            assert np.array_equal(block.tallies(), dense.tallies())
            for mask, worst in product(range(1 << n), (False, True)):
                alive = (np.arange(len(at)) + mask) % (1 << n)
                assert block.places(alive, worst).shape == (n, len(at))
                assert np.array_equal(block.places(alive, worst), dense.places(alive, worst))
            for f in methods:
                assert f.fn.on_counts(block).tolist() == f.fn.on_counts(dense).tolist(), f.id
        pick = np.sort(rng.choice(len(cls), size=min(len(cls), 300), replace=False))
        block = _Switched(base, cls[pick], a[pick], b[pick])
        switched = [member(n, np.repeat(np.arange(fact), row - (np.arange(fact) == r)
                                        + (np.arange(fact) == r2)).tolist())
                    for row, r, r2 in zip(counts[cls[pick]].astype(int), a[pick], b[pick])]
        for f in methods:
            assert f.fn.on_counts(block).tolist() == [
                bitmask(f.fn(p)) for p in switched], f.id

    def test_hare_and_coombs_on_switches_past_seven_candidates(self):
        # n = 8 and an even m = 8: seeded classes, which tie on fewest first
        # places; a 4-4 split of first places, which stays tied until a
        # switch gives one side a majority; and a class whose switch ties
        # all eight (first places 2 for a, 1 each for b to g, none for h,
        # until one of a's voters puts h first).  Seeded switches of every
        # holder, against the same switches as count rows and the scalar
        # methods.
        n, m = 8, 8
        rankings = all_rankings(n)
        fact = len(rankings)
        index = {r.order: i for i, r in enumerate(rankings)}
        rng = np.random.default_rng(808)

        def led(x):
            return index[(x, *rng.permutation([y for y in range(n) if y != x]).tolist())]

        tie, split = [led(x) for x in (0, 0, 1, 2, 3, 4, 5, 6)], [led(x // 4) for x in range(m)]
        combos = [tie, split, *rng.integers(0, fact, size=(3, m)).tolist()]
        moves = [(0, tie[0], led(7)), (1, split[4], led(0))] + [
            (c, x, y) for c, combo in enumerate(combos) for x in sorted(set(combo))
            for y in rng.integers(0, fact, size=6).tolist()]
        cls, a, b = (np.array(col) for col in zip(*moves))
        counts = np.array([count_row(n, c) for c in combos], np.uint8)
        base = _Counts.of(n, counts)
        block = _Switched(base, cls, a, b)
        rows = counts[cls]
        rows[np.arange(len(cls)), a] -= 1
        rows[np.arange(len(cls)), b] += 1
        dense = _Counts.of(n, rows)
        switched = []
        for c, x, y in moves:
            held = list(combos[c])
            held[held.index(x)] = y
            switched.append(member(n, held))
        labels = "".join(default_labels(n))
        hare = METHODS["hare"].fn.on_counts
        assert hare(base)[:2].tolist() == [0b1, 0b11]  # a after two rounds; a tie
        assert hare(block)[:2].tolist() == [(1 << n) - 1, 0b1]  # all tied; a majority
        for f in (METHODS["hare"], parse_method(f"hare@{labels[::-1]}"), METHODS["coombs"]):
            assert f.fn.on_counts(block).tolist() == f.fn.on_counts(dense).tolist() == [
                bitmask(f.fn(p)) for p in switched], f.id

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 4), (4, 5), (5, 7)])
    def test_hare_steps_keep_sets_of_at_most_one_member(self, n, m):
        # The step table is built only for moves within sets of two or
        # more members; a set of at most one member steps to itself under
        # every move, as the walk reads it.
        rng = np.random.default_rng(n)
        block = _Counts.of(n, np.array(
            [count_row(n, c) for c in rng.integers(0, len(all_rankings(n)), size=(6, m))],
            np.uint8))
        steps = block.hare_steps()
        assert steps.shape == (6, 1 << n, n, n)
        small = [0, *(1 << x for x in range(n))]
        assert (steps[:, small] == np.array(small)[:, None, None]).all()
        # every other set steps to a nonempty subset of itself when a voter
        # moves between two of its members
        for a in range(1 << n):
            if a not in small:
                xs = [x for x in range(n) if a >> x & 1]
                got = steps[:, a][:, xs][:, :, xs]
                assert ((got != 0) & (got & ~a == 0)).all()

    def test_hare_steps_past_eight_bits(self):
        # n = 10, whose 10! rankings no test builds: each class's first
        # places under every candidate set are counted from its voters'
        # rankings, and walking the steps from the full set, by the best
        # alive member under the ranking left and under the one taken, gives
        # the scalar Hare winners of each seeded switch.  Classes as at
        # n = 8: seeded ones, a 5-5 split, and one whose switch ties all ten,
        # a winner mask wider than a byte.
        n, m = 10, 10
        rng = np.random.default_rng(1010)

        def led(x):
            return Ranking((x, *rng.permutation([y for y in range(n) if y != x]).tolist()))

        tie, split = [led(x) for x in (0, 0, *range(1, 9))], [led(x // 5) for x in range(m)]
        classes = [tie, split, *([Ranking(tuple(rng.permutation(n).tolist())) for _ in range(m)]
                                 for _ in range(2))]
        members = [frozenset(x for x in range(n) if alive >> x & 1) for alive in range(1 << n)]
        firsts = np.zeros((n, len(classes), 1 << n), np.int64)
        for c, held in enumerate(classes):
            for alive in range(1, 1 << n):
                for r in held:
                    firsts[r.best_of(members[alive]), c, alive] += 1
        steps = _hare_steps(firsts, np.full(len(classes), m))
        moves = [(0, 0, led(9)), (1, 5, led(0))] + [
            (c, j, Ranking(tuple(rng.permutation(n).tolist())))
            for c in range(len(classes)) for j in range(m) for _ in range(3)]
        got = []
        for c, j, r in moves:
            alive = (1 << n) - 1
            for _ in range(n - 1):
                left, taken = (q.best_of(members[alive]) for q in (classes[c][j], r))
                alive = int(steps[c, alive, left, taken])
            got.append(alive)
        assert got[:2] == [(1 << n) - 1, 0b1]  # all tied; a majority
        assert got == [bitmask(METHODS["hare"].fn(Profile(
            (*classes[c][:j], r, *classes[c][j + 1:])))) for c, j, r in moves]

    @pytest.mark.parametrize("n,m,count", [(3, 4, 60), (4, 5, 60), (5, 7, 40)])
    def test_null_switches_keep_their_class_winners(self, n, m, count):
        # A sampled census scores its classes as switches that move a voter
        # from a ranking to the same ranking, held or not: every batched
        # form (the eleven methods, tiebroken forms, a pairwise dictator and
        # a custom method scored row by row) must give the class's own
        # winners.  Every voter is held, as the row-by-row form reads them.
        fact = len(all_rankings(n))
        labels = "".join(default_labels(n))
        rng = np.random.default_rng(n * 100 + m)
        profiles = rng.integers(0, fact, size=(count, m))
        base = _Counts.of(n, np.array([count_row(n, p) for p in profiles], np.uint8),
                          dict(enumerate(profiles.T)))
        custom = VotingMethod("last_top", lambda profile: frozenset({profile.rankings[-1].order[0]}))
        forms = [(f.id, f.fn.on_counts) for f in batched_methods(n)] + [
            ("pdict", parse_method(f"pdict:{labels[0]},{labels[1]},0").fn.on_counts),
            ("custom", _row_wise(custom.fn, m))]
        for stay in (np.zeros(count, np.intp), rng.integers(0, fact, size=count)):
            null = _Switched(base, np.arange(count), stay, stay)
            for name, on_counts in forms:
                assert on_counts(null).tolist() == on_counts(base).tolist(), name

    @pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_pairwise_dictators_read_their_voter(self, n, m):
        # Every labeled profile as a count row with every voter held; then
        # one more voter, not labeled, holding ranking 0, and every switch of
        # the dictator, of another labeled voter or of that voter (-1).
        fact = len(all_rankings(n))
        labels = default_labels(n)
        methods = [pairwise_dictator(x, y, i, labels)
                   for x, y in combinations(range(n), 2) for i in range(m)]
        profiles = np.array(list(product(range(fact), repeat=m)))
        held = dict(enumerate(profiles.T))
        base = _Counts.of(n, np.array([count_row(n, p) for p in profiles], np.uint8), held)
        members = [member(n, p) for p in profiles]
        for f in methods:
            assert f.fn.on_counts(base).tolist() == [bitmask(f.fn(p)) for p in members], f.id
        extra = np.c_[profiles, np.zeros(len(profiles), int)]
        base = _Counts.of(n, np.array([count_row(n, p) for p in extra], np.uint8), held)
        cls, voter, b = (a.ravel() for a in np.meshgrid(
            np.arange(len(extra)), np.r_[np.arange(m), -1], np.arange(fact), indexing="ij"))
        block = _Switched(base, cls, extra[cls, voter], b, voter)
        switched = extra[cls]
        switched[np.arange(len(cls)), voter] = b  # voter -1 is the last column
        members = [member(n, p) for p in switched]
        for f in methods:
            assert f.fn.on_counts(block).tolist() == [bitmask(f.fn(p)) for p in members], f.id

    def test_a_wrapped_pairwise_dictator_keeps_its_batched_form(self):
        # a timing wrapper is a functools.wraps copy of fn
        fn = pairwise_dictator(0, 2, 1, ("a", "b", "c")).fn
        copy = wraps(fn)(lambda profile: fn(profile))
        assert copy.voter == 1 and copy.on_counts is fn.on_counts

    def test_tiebroken_custom_methods_have_no_batched_form(self):
        custom = VotingMethod("custom", lambda profile: frozenset(profile.candidates))
        assert not hasattr(tiebroken(custom, ranking_of("abc")).fn, "on_counts")
        assert hasattr(tiebroken(METHODS["borda"], ranking_of("abc")).fn, "on_counts")


class TestPairwiseMark:
    """``fn.pairwise`` marks the batched forms that read a block's tallies,
    which a switched block builds only when one asks for them."""

    def test_switched_tallies_are_read_exactly_by_pairwise_forms(self, monkeypatch):
        n = 4
        fact = len(all_rankings(n))
        rng = np.random.default_rng(404)
        counts = np.array([count_row(n, c) for c in rng.integers(0, fact, size=(20, 5)).tolist()],
                          np.uint8)
        cls, a = np.nonzero(counts)
        b = rng.integers(0, fact, size=len(cls))
        read = []

        def spy(self):
            read.append(self)
            return tallies(self)

        tallies = _Switched.tallies
        monkeypatch.setattr(_Switched, "tallies", spy)
        labels = "".join(default_labels(n))
        pairwise = {"condorcet", "copeland", "maxmin", "baldwin", "strict_nanson", "weak_nanson"}
        for name in METHOD_ORDER:
            # a tiebroken form copies the mark
            for f in (METHODS[name], parse_method(f"{name}@{labels[::-1]}")):
                read.clear()
                f.fn.on_counts(_Switched(_Counts.of(n, counts), cls, a, b))
                marked = getattr(f.fn, "pairwise", False)
                assert bool(read) == marked == (name in pairwise), f.id
        # a timing wrapper is a functools.wraps copy of fn
        fn = METHODS["copeland"].fn
        assert wraps(fn)(lambda profile: fn(profile)).pairwise


class TestNeutralBatchedForms:
    """The census judges only the identity ranking's switches when every
    method is neutral (``fn.neutral``): relabeling a class's candidates by
    sigma must relabel each method's winners by sigma."""

    def check(self, n, combos):
        rankings = all_rankings(n)
        index = {r.order: i for i, r in enumerate(rankings)}
        sigmas = list(permutations(range(n)))
        rows = np.array([count_row(n, c) for c in combos], dtype=np.uint8)
        # under sigma, ranking q becomes the ranking listing sigma[x] for
        # each x of q, so count column q moves to that ranking's column
        moved = np.zeros((len(sigmas), *rows.shape), np.uint8)
        for s, sigma in enumerate(sigmas):
            column = [index[tuple(sigma[x] for x in r.order)] for r in rankings]
            moved[s][:, column] = rows
        block = _Counts.of(n, moved.reshape(-1, rows.shape[1]))
        for name in METHOD_ORDER:
            fn = METHODS[name].fn
            assert fn.neutral
            plain = fn.on_counts(_Counts.of(n, rows)).tolist()
            relabeled = fn.on_counts(block).reshape(len(sigmas), len(combos)).tolist()
            for s, sigma in enumerate(sigmas):
                expected = [sum(1 << sigma[x] for x in range(n) if w >> x & 1) for w in plain]
                assert relabeled[s] == expected, (name, sigma)

    @pytest.mark.parametrize("n,m", [*((3, m) for m in range(1, 6)),
                                     *((4, m) for m in range(1, 4))])
    def test_every_class_relabels_its_winners(self, n, m):
        self.check(n, list(combinations_with_replacement(range(len(all_rankings(n))), m)))

    def test_random_classes_relabel_their_winners(self):
        rng = np.random.default_rng(507)
        self.check(5, rng.integers(0, len(all_rankings(5)), size=(40, 7)).tolist())

    def test_only_the_eleven_methods_are_marked_neutral(self):
        # a tiebreak order and a dictator's pair favour some candidates
        for text in ("borda@acb", "hare@cab", "pdict:a,b,0"):
            assert not hasattr(parse_method(text, ("a", "b", "c")).fn, "neutral"), text
        custom = VotingMethod("custom", lambda profile: frozenset(profile.candidates))
        assert not hasattr(custom.fn, "neutral")
        # a timing wrapper is a functools.wraps copy of fn
        fn = METHODS["borda"].fn
        assert wraps(fn)(lambda profile: fn(profile)).neutral
