"""The engine's pair search, first-witness scan and witness test against
the references that test one pivot combination and one candidate witness
at a time and scan the witness's sphere: the same result, the same budget
exhaustion and, when the search completes, the same charge, always."""

from collections import Counter
from functools import reduce
from importlib import import_module
from itertools import combinations
from operator import and_, or_
from random import Random

import pytest

from drgcert.autgroup import automorphism_group, covered_pairs
from drgcert.certify import (
    _CLASS_RULES,
    _PAIR_FIELDS,
    _Budget,
    _BudgetExceeded,
    _class_search,
    _first_meet,
    _first_witness,
    _witness_of,
    _witness_valid,
)
from drgcert.families import build
from drgcert.graph import distances
from oracles import (
    PAIR_RULES,
    first_witness_reference,
    pair_search_reference,
    pairs_at_distance,
    sphere,
    witness_valid_reference,
)

BUDGETS = (0, 1, 7, 50, 300, 2_000, 10**4, 10**5, 10**8)


def _run(call, limit):
    """(result, raised, used) of call(bud) under a fresh budget of limit;
    (None, True, None) when the budget runs out, as what a class spends
    after that is not defined."""
    bud = _Budget(limit)
    try:
        return call(bud), False, bud.used
    except _BudgetExceeded:
        return None, True, None


def _class_reference(dd, m, pairs, certified, bud, rule):
    """pair_search_reference pair by pair under the one budget, as the
    engine once searched a class: the entries, or None at the first pair
    it cannot pin."""
    found = []
    for j, l in pairs:
        pinned = pair_search_reference(dd, m, j, l, certified, bud, rule)
        if pinned is None:
            return None
        found.append([j, l, *(pinned[k] for k in PAIR_RULES[rule][1])])
    return found


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
        pairs = pairs_at_distance(dd, m)
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
        "paley:29",
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
                    _run(lambda bud: search(dd, m, [(j, l)], certified, bud, rule), limit)
                    for search in (_class_search, _class_reference)
                )
                assert got == want, (m, j, l, sorted(certified), rule, limit)
                checked += 1
    assert checked


def _reference_charge(search):
    """What search(bud) spends under an unlimited budget."""
    got, raised, used = _run(search, 10**12)
    assert not raised
    return used


@pytest.mark.parametrize(
    "key, m, certified",
    [
        ("hamming:4:3", 3, {1, 2}),  # pivot-intersection hits at size-2 ranks up to 359
        ("named:foster", 3, {1, 2}),  # distance-witness
        ("paley:29", 2, {1}),  # long witness scans that fail
        ("paley:29", 1, set()),
    ],
)
def test_pair_search_budget_boundary(key, m, certified):
    """Budgets that land on the boundary: at every limit from C - 3 to
    C + 1, where C is the reference's full charge of the search, the
    engine stops, or does not, exactly where the reference does."""
    dd = distances(build(key))
    rng = Random(f"boundary {key} {m}")
    for j, l in rng.sample(pairs_at_distance(dd, m), 6):
        for rule in _PAIR_FIELDS:
            searches = [
                lambda bud, search=search: search(dd, m, [(j, l)], certified, bud, rule)
                for search in (_class_search, _class_reference)
            ]
            full = _reference_charge(searches[1])
            for limit in range(max(0, full - 3), full + 2):
                got, want = (_run(search, limit) for search in searches)
                assert got == want, (j, l, rule, limit)


@pytest.mark.parametrize(
    "key, m, certified, count",
    [
        ("hamming:3:3", 3, {1}, None),  # pivot-intersection needs three pivots
        ("paley:17", 1, set(), None),  # distance-witness, every rival killed
        ("named:foster", 3, {1, 2}, 24),  # distance-witness, the pairs of j = 0 and 1
    ],
)
def test_class_search_matches_reference_pair_by_pair(key, m, certified, count):
    """The whole class in one pass against the reference run pair by pair
    under one shared budget, for every pair rule: at every limit from C - 3
    to C + 1, where C is the reference's full charge of the class, the same
    entries, the same pair where the search stops (the last one it drew)
    and, when it completes, the same budget spent."""
    dd = distances(build(key))
    pairs = pairs_at_distance(dd, m)[:count]
    outcomes = set()
    for rule in _PAIR_FIELDS:
        def runs(limit):
            for search in (_class_search, _class_reference):
                drawn = []
                drawing = (drawn.append(pair) or pair for pair in pairs)
                result = _run(lambda bud: search(dd, m, drawing, certified, bud, rule), limit)
                yield result, drawn[-1]

        full = _reference_charge(lambda bud: _class_reference(dd, m, pairs, certified, bud, rule))
        for limit in range(max(0, full - 3), full + 2):
            got, want = runs(limit)
            assert got == want, (rule, limit)
            outcomes.add((got[0][0] is None, got[0][1]))
    # every case pins the whole class and runs out of budget; on Paley(17)
    # and Foster some rule stops at a pair it cannot pin
    assert outcomes >= {(False, False), (True, True)}
    assert (True, False) in outcomes or key == "hamming:3:3"


def _rules_in_turn(search, dd, m, pairs, certified, drawn):
    """search(bud) trying the pair rules of a class beyond the first in
    turn under the one budget, as certify does: (rule, entries) of the
    first that pins every pair, or None.  drawn gets (rule, pair) for each
    pair a rule's search draws."""

    def run(bud):
        for rule in [r for r in _CLASS_RULES[1] if r in _PAIR_FIELDS]:
            drawing = (drawn.append((rule, pair)) or pair for pair in pairs)
            found = search(dd, m, drawing, certified, bud, rule)
            if found is not None:
                return rule, found
        return None

    return run


@pytest.mark.parametrize(
    "key, mode, m, certified, scans",
    [
        # as certify reaches it: no rule pins the one pair, and
        # pivot-witness reads the 13 scans distance-witness made
        ("paley:29", "auto", 2, set(), 13),
        # distance-witness pins the class; the pair (p, l) with rival j
        # reads the scan of (j, l) with rival p: 11880 rivals, 5940 scans
        ("named:foster", "all-pairs", 3, {1, 2}, 5940),
    ],
)
def test_class_rules_share_witness_scans(key, mode, m, certified, scans, monkeypatch):
    """The pair rules of a class in turn under one budget, which keeps
    each witness scan for every rule tried on the class, against the
    reference run rule by rule and pair by pair under one budget: at every
    limit from C - 3 to C + 1, where C is the reference's full charge, and
    at one in the second half, the same result, the same pair where the
    search stops, also when the budget runs out on a scan read back, and
    the same budget spent when it completes; and no key (l, j, p), j < p,
    is scanned twice."""
    dd = distances(g := build(key))
    pairs = covered_pairs(automorphism_group(g).generators if mode == "auto" else (), dd)(m)
    calls = []

    def counted(*args):
        calls.append(args)
        return _first_witness(*args)

    # the module, which the package's certify function shadows
    monkeypatch.setattr(import_module("drgcert.certify"), "_first_witness", counted)

    def run(search, limit):
        drawn = []
        return _run(_rules_in_turn(search, dd, m, pairs, certified, drawn), limit), drawn[-1]

    full = _reference_charge(_rules_in_turn(_class_reference, dd, m, pairs, certified, []))
    # and one in the second half, which stops inside a scan read back
    below = Random(f"shared scans {key}").randrange(full // 2, full)
    for limit in (below, *range(full - 3, full + 2)):
        calls.clear()
        got, want = run(_class_search, limit), run(_class_reference, limit)
        assert got == want, limit
        assert got[0][1] == (limit < full), limit
        assert limit < full or len(calls) == scans
        keys = Counter((l, min(j, p), max(j, p)) for _, _, j, l, p in calls)
        assert max(keys.values(), default=0) <= 1, limit


@pytest.mark.parametrize("key", ["hamming:3:3", "paley:13", "named:petersen", "named:foster"])
def test_first_witness_matches_reference(key):
    """The engine's first-witness scan, over the separating vertices only,
    against the scan of every candidate: the same witness and full charge,
    and, read through _witness_of under a fresh budget, the same witness
    and exhaustion at small budgets, around the full charge and at a
    random limit below it.  On Foster j is 0 alone, as in the witness test
    below."""
    dd = distances(build(key))
    n = len(dd.sphere_masks)
    rng = Random(f"first witness {key}")
    outcomes = set()
    for m in range(1, dd.diameter + 1):
        for j in range(n) if n < 50 else (0,):
            for l in sphere(dd, j, m):
                for p in sphere(dd, l, m):
                    if p == j:
                        continue
                    scans = [
                        lambda bud, scan=scan: scan(dd, m, j, l, p, bud)
                        for scan in (_witness_of, first_witness_reference)
                    ]
                    witness, raised, full = _run(scans[1], 10**12)
                    assert not raised and _first_witness(dd, m, j, l, p) == (witness, full), (m, j, l, p)
                    limits = {0, 1, 7, *range(max(0, full - 3), full + 2), rng.randrange(full)}
                    for limit in limits:
                        got, want = (_run(scan, limit) for scan in scans)
                        assert got == want, (m, j, l, p, limit)
                        outcomes.add((got[0] is None, got[1]))
    # every rival of Paley(13) has a witness; the other graphs have scans that fail
    assert outcomes >= {(False, False), (True, True)}
    assert (True, False) in outcomes or key == "paley:13"


def _dense_bits(rng, width: int, dense: int) -> int:
    """width random bits, each set with probability 1 - 2**-dense."""
    return reduce(or_, (rng.getrandbits(width) for _ in range(dense)))


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_first_meet_matches_combinations(size):
    """The rank and members of the first pivot set whose AND with top is
    0, against itertools.combinations folded with functools.reduce from
    top, at every limit from 0 to C(E, size) + 1.  The seeded random masks
    spill outside top, as _first_meet ANDs with top itself, each bit set
    with probability 1/2, 3/4 or 7/8, so that some first sets are found
    past the sets of the first member."""
    rng = Random(f"first meet {size}")
    hits = misses = late = 0
    for count in range(13):
        for _ in range(6):
            width = rng.randint(1, 8)
            top = rng.getrandbits(width)
            dense = rng.randint(1, 3)
            masks = [_dense_bits(rng, width + 2, dense) for _ in range(count)]
            sets = list(combinations(range(count), size))
            meets = [i for i, c in enumerate(sets) if reduce(and_, map(masks.__getitem__, c), top) == 0]
            for limit in range(len(sets) + 2):
                first = next((i for i in meets if i < limit), None)
                want = None if first is None else (first, sets[first])
                assert _first_meet(masks, size, limit, top) == want, (masks, top, limit)
                hits += want is not None
                misses += want is None
                late += want is not None and size > 1 and want[1][0] > 0
    assert hits and misses
    assert late or size < 2


@pytest.mark.parametrize("key", ["hamming:3:3", "paley:13", "named:petersen", "named:foster"])
def test_witness_valid_matches_reference(key):
    """Every class m, pair (j, l), rival p and candidate q.  On Foster
    (90 vertices) j is 0 alone: both tests read distances only, which
    automorphisms keep, and the graph is vertex-transitive."""
    dd = distances(build(key))
    n = len(dd.sphere_masks)
    outcomes = set()
    for m in range(1, dd.diameter + 1):
        for j in range(n) if n < 50 else (0,):
            for l in sphere(dd, j, m):
                for p in sphere(dd, l, m):
                    if p == j:
                        continue
                    for q in range(n):
                        got = _witness_valid(dd, m, j, l, p, q)
                        assert got == witness_valid_reference(dd, m, j, l, p, q), (m, j, l, p, q)
                        outcomes.add(got)
    assert outcomes == {True, False}
