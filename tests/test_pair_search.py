"""The engine's pair search and witness test against the references that
test one pivot combination at a time and scan the witness's sphere: the
same result, the same budget exhaustion and the same charge, always."""

from random import Random

import pytest

from drgcert.certify import (
    _PAIR_FIELDS,
    _Budget,
    _BudgetExceeded,
    _pair_search,
    _witness_valid,
)
from drgcert.families import build
from drgcert.graph import distances
from oracles import pair_search_reference, witness_valid_reference

BUDGETS = (0, 1, 7, 50, 300, 2_000, 10**4, 10**5, 10**8)


def _run(call, limit):
    """(result, raised, used) of call(bud) under a fresh budget of limit."""
    bud = _Budget(limit)
    try:
        return call(bud), False, bud.used
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
                got, want = (
                    _run(lambda bud: search(dd, m, j, l, certified, bud, rule), limit)
                    for search in (_pair_search, pair_search_reference)
                )
                assert got == want, (m, j, l, sorted(certified), rule, limit)
                checked += 1
    assert checked


@pytest.mark.parametrize("key", ["hamming:3:3", "paley:13", "named:petersen", "named:foster"])
def test_witness_valid_matches_reference(key):
    """Every class m, pair (j, l), rival p and candidate q, at budgets that
    stop at the separation test, at the sphere and never.  On Foster
    (90 vertices) j is 0 alone: both tests read distances only, which
    automorphisms keep, and the graph is vertex-transitive."""
    dd = distances(build(key))
    n = len(dd.dist)
    outcomes = set()
    for m in range(1, dd.diameter + 1):
        for j in range(n) if n < 50 else (0,):
            for l in dd.at_distance(j, m):
                for p in dd.at_distance(l, m):
                    if p == j:
                        continue
                    for q in range(n):
                        for limit in (0, 1, 7, 10**8):
                            got, want = (
                                _run(lambda bud: valid(dd, m, j, l, p, q, bud), limit)
                                for valid in (_witness_valid, witness_valid_reference)
                            )
                            assert got == want, (m, j, l, p, q, limit)
                            outcomes.add(got[:2])
    assert outcomes == {(True, False), (False, False), (None, True)}
