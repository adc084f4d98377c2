"""Golden exact counts for every singleton and pair of the eleven methods.

``golden_counts.json`` holds ``[witness_profiles, witness_pointed]`` per set
for every notion (``single`` on singletons only) and dominance kind at
(3,3), (3,4), (3,5), (3,6) and (4,3), keyed ``"n,m,notion,kind"``.  It was
frozen from the census engine; any rewrite of the engine must reproduce
it exactly.  A (3,3) slice is checked against the naive per-voter search.
"""

import json
from itertools import product
from pathlib import Path

import pytest

from test_census import naive_counts
from votemanip.census import CensusSpec, family_census
from votemanip.dominance import KINDS
from votemanip.manipulation import NOTIONS, subset_family
from votemanip.methods import METHOD_ORDER, METHODS

GOLDEN = json.loads(Path(__file__).with_name("golden_counts.json").read_text())
SIZES = ((3, 3), (3, 4), (3, 5), (3, 6), (4, 3))
ALL = [METHODS[mid] for mid in METHOD_ORDER]


def largest(notion: str) -> int:
    return 1 if notion == "single" else 2


def test_the_file_covers_the_grid():
    assert list(GOLDEN) == [
        f"{n},{m},{notion},{kind}"
        for (n, m), notion, kind in product(SIZES, NOTIONS, KINDS)
    ]
    for key, counts in GOLDEN.items():
        notion = key.split(",")[2]
        assert list(counts) == [s.id for s in subset_family(ALL, largest(notion))]


@pytest.mark.parametrize("key", list(GOLDEN))
def test_family_census_reproduces_the_golden_counts(key):
    n, m, notion, kind = key.split(",")
    report = family_census(ALL, largest(notion), int(n), int(m), notion, kind)
    got = {r.set_id: [r.witness_profiles, r.witness_pointed] for r in report.results}
    assert got == GOLDEN[key]


@pytest.mark.parametrize("notion", NOTIONS)
def test_a_3_3_slice_matches_naive_search(notion):
    # every singleton and pair of four methods, one kind per notion in turn
    kind = KINDS[NOTIONS.index(notion) % len(KINDS)]
    four = [METHODS[mid] for mid in ("plurality", "borda", "copeland", "hare")]
    sets = tuple(subset_family(four, largest(notion)))
    naive = naive_counts(CensusSpec(n=3, m=3, method_sets=sets, notion=notion, kind=kind))
    golden = GOLDEN[f"3,3,{notion},{kind}"]
    assert {sid: list(c) for sid, c in naive.items()} == {s.id: golden[s.id] for s in sets}
