"""The engine's pair search against the per-combination reference: the
same result, the same budget exhaustion and the same charge, always."""

from random import Random

import pytest

from drgcert.certify import _PAIR_FIELDS, _Budget, _BudgetExceeded, _pair_search
from drgcert.families import build
from drgcert.graph import distances
from oracles import pair_search_reference

BUDGETS = (0, 1, 7, 50, 300, 2_000, 10**4, 10**5, 10**8)


def _run(search, dd, m, j, l, certified, limit, rule):
    """(result, raised, used) of one search under a fresh budget."""
    bud = _Budget(limit)
    try:
        return search(dd, m, j, l, certified, bud, rule), False, bud.used
    except _BudgetExceeded:
        return None, True, bud.used


def _cases(dd, rng):
    """Up to three classes, two pairs each, under the classes below m as
    the engine certifies them, under the least other class alone (H(3,3)
    then needs three pivots on class 3) and under a random set of other
    classes."""
    diam = dd.diameter
    for m in sorted(rng.sample(range(1, diam + 1), min(3, diam))):
        others = [c for c in range(1, diam + 1) if c != m]
        drawn = {c for c in others if rng.random() < 0.5}
        choices = (set(range(1, m)), set(others[:1]), drawn)
        pairs = dd.pairs_at_distance(m)
        for j, l in rng.sample(pairs, min(2, len(pairs))):
            for certified in choices:
                yield m, j, l, certified


@pytest.mark.parametrize(
    "key",
    [
        "hamming:3:3",
        "paley:13",
        "paley:17",
        "named:petersen",
        "named:heawood",
        "named:foster",
        "johnson:6:3",
    ],
)
def test_pair_search_matches_reference(key):
    dd = distances(build(key))
    rng = Random(f"pair-search {key}")
    checked = 0
    for m, j, l, certified in _cases(dd, rng):
        for rule in _PAIR_FIELDS:
            for limit in BUDGETS:
                args = (dd, m, j, l, certified, limit, rule)
                assert _run(_pair_search, *args) == _run(pair_search_reference, *args), (
                    m, j, l, sorted(certified), rule, limit,
                )
                checked += 1
    assert checked
