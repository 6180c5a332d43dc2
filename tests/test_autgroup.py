"""Automorphism groups, group order, distance-transitivity, isomorphism."""

import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

import drgcert
from drgcert import autgroup
from drgcert.autgroup import (
    SearchBudgetExceeded,
    _orbit,
    _refine,
    automorphism_group,
    covered_pairs,
    is_automorphism,
    is_distance_transitive,
)
from drgcert.certify import _Invariants
from drgcert.families import build
from drgcert.graph import Graph, distances
from oracles import (
    BENCHMARK_GRAPHS,
    are_isomorphic,
    automorphism_group_reference,
    brute_automorphism_count,
    catalogue_keys,
    latin_square_graph,
    latin_square_inputs,
    oracle_inputs,
    pair_orbit,
    pairs_at_distance,
    random_connected_graph,
    refine_reference,
    schreier_sims_order,
    vertex_orbits_reference,
)


def test_small_known_orders():
    assert automorphism_group(Graph(1)).order == 1
    assert automorphism_group(Graph(2, [(0, 1)])).order == 2
    assert automorphism_group(Graph(3, [(0, 1), (1, 2)])).order == 2
    k4 = build("complete:4")
    assert automorphism_group(k4).order == 24
    c5 = build("cycle:5")
    assert automorphism_group(c5).order == 10


def test_generators_are_automorphisms():
    g = build("named:petersen")
    aut = automorphism_group(g)
    for p in aut.generators:
        assert is_automorphism(g, p)
    # and a non-automorphism is rejected
    assert not is_automorphism(g, tuple([1, 0] + list(range(2, 10))))


@pytest.mark.parametrize(
    "perm",
    [
        None,
        3,
        "0123456789",
        {v: v for v in range(10)},
        [False, True] + list(range(2, 10)),
        [float(v) for v in range(10)],
        [list(range(10))],
        [[v] for v in range(10)],
        list(range(9)),
        list(range(11)),
        [0, 0] + list(range(2, 10)),
    ],
    ids=[
        "none", "int", "str", "dict", "bools", "floats", "nested", "nested-each",
        "too-short", "too-long", "repeated",
    ],
)
def test_is_automorphism_is_false_on_anything_but_a_permutation(perm):
    # the audit hands recorded JSON values straight to is_automorphism
    g = build("named:petersen")
    assert is_automorphism(g, list(range(10))) and is_automorphism(g, tuple(range(10)))
    assert is_automorphism(g, perm) is False


def test_catalog_orders():
    expectations = {
        "named:petersen": 120,
        "named:heawood": 336,
        "named:pappus": 216,
        "named:desargues": 240,
        "named:dodecahedron": 120,
        "named:coxeter": 336,
        "named:tutte_8_cage": 1440,
        "named:icosahedron": 120,
        "named:shrikhande": 192,
        "named:clebsch": 1920,
        "named:co_heawood": 336,
        "named:line_petersen": 120,
        "complete_bipartite:3": 72,
        "cube:3": 48,
        "cube:4": 384,
        "hamming:2:4": 1152,
        "johnson:6:3": 1440,
        "paley:9": 72,
        "paley:13": 78,
        "paley:17": 136,
        "johnson:4:2": 48,
    }
    for key, order in expectations.items():
        start = time.monotonic()
        aut = automorphism_group(build(key))
        assert aut.order == order, key
        assert time.monotonic() - start < 60, key


def test_large_catalog_orders():
    assert automorphism_group(build("named:foster")).order == 4320
    assert automorphism_group(build("named:biggs_smith")).order == 2448


def test_brute_force_agreement():
    rng = Random(717001)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n)
        assert automorphism_group(g).order == brute_automorphism_count(g)


def test_schreier_sims_known_groups():
    # S_4 from a transposition and a 4-cycle
    assert schreier_sims_order(4, [(1, 0, 2, 3), (1, 2, 3, 0)]) == 24
    # cyclic group of order 6
    assert schreier_sims_order(6, [(1, 2, 3, 4, 5, 0)]) == 6
    # trivial group
    assert schreier_sims_order(5, []) == 1
    # Klein four-group from two commuting involutions
    assert schreier_sims_order(4, [(1, 0, 3, 2), (2, 3, 0, 1)]) == 4


def test_cover_roots_the_vertex_orbits():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])  # path: ends and middles
    inv = _Invariants(g)
    assert list(inv.roots) == [0, 1, 2, 3]
    inv.cover(automorphism_group(g).generators)
    assert inv.roots == [0, 1]


def test_pair_orbit_covers_class():
    g = build("named:petersen")
    aut = automorphism_group(g)
    dd = distances(g)
    for m in (1, 2):
        pairs = pairs_at_distance(dd, m)
        assert pair_orbit(g.n, aut.generators, pairs[0]) == set(pairs)


def test_distance_transitivity():
    assert is_distance_transitive(build("named:petersen"))
    assert is_distance_transitive(build("named:foster"))
    assert is_distance_transitive(build("hamming:3:3"))
    assert is_distance_transitive(build("paley:13"))
    # Shrikhande is vertex-transitive but not distance-transitive
    assert not is_distance_transitive(build("named:shrikhande"))
    # a path is not even vertex-transitive
    assert not is_distance_transitive(Graph(3, [(0, 1), (1, 2)]))


def test_isomorphism_positive_negative():
    rng = Random(717002)
    for _ in range(25):
        n = rng.randint(2, 10)
        g = random_connected_graph(rng, n)
        relabel = list(range(n))
        rng.shuffle(relabel)
        h = Graph(n, [(relabel[u], relabel[v]) for u, v in g.edges])
        assert are_isomorphic(g, h)
    # same degree sequence, different structure
    c6 = build("cycle:6")
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not are_isomorphic(c6, two_triangles)
    assert are_isomorphic(two_triangles, two_triangles)
    # disconnected pairs compare componentwise
    assert not are_isomorphic(c6, build("cycle:7"))


def test_node_budget_raises():
    g = build("named:biggs_smith")
    with pytest.raises(SearchBudgetExceeded):
        automorphism_group(g, node_budget=10)


def _least_pair_of_each_orbit(n, generators, pairs):
    """The least pair of each orbit of the generators on a class, by a sweep
    of its pairs in increasing order: each new orbit starts at its least."""
    least, seen = [], set()
    for pair in pairs:
        if pair not in seen:
            least.append(pair)
            seen |= pair_orbit(n, generators, pair)
    return least


def test_search_tree_order_and_transitivity_match_oracles():
    # the order read off the base against an independent stabilizer chain,
    # the covered-pairs test against the pair-orbit definition, and, on
    # every connected input, the pairs covering each class against the pair
    # orbits: the orbits of the covered pairs are exactly the class, and
    # under generators transitive on vertices the covered pairs are the
    # least pair of each pair orbit
    transitive, vertex_transitive, swept, several_roots = set(), set(), set(), set()
    for label, g in oracle_inputs():
        aut = automorphism_group(g)
        assert aut.order == schreier_sims_order(g.n, aut.generators), label
        dd = distances(g)
        classes = [pairs_at_distance(dd, m) for m in range(1, dd.diameter + 1)]
        by_pairs = g.n >= 2 and dd.connected and all(
            pair_orbit(g.n, aut.generators, pairs[0]) == set(pairs) for pairs in classes
        )
        assert is_distance_transitive(g, aut=aut, dd=dd) == by_pairs, label
        if by_pairs:
            transitive.add(label)
        if not dd.connected:
            continue
        covered = covered_pairs(aut.generators, dd)
        one_orbit = len(vertex_orbits_reference(g.n, aut.generators)) == 1
        for m, pairs in enumerate(classes, start=1):
            reached = set().union(*(pair_orbit(g.n, aut.generators, p) for p in covered(m)))
            assert reached == set(pairs), (label, m)
            if one_orbit:
                least = _least_pair_of_each_orbit(g.n, aut.generators, pairs)
                assert covered(m) == least, (label, m)
        swept.add(label)
        if one_orbit:
            vertex_transitive.add(label)
        elif aut.generators:
            several_roots.add(label)
    assert {"named:hoffman_singleton", "odd:5", "K_2"} <= transitive
    assert "K_1" not in transitive
    assert "named:shrikhande" not in transitive
    assert transitive < vertex_transitive < swept and "named:shrikhande" in vertex_transitive
    # a nontrivial group with several vertex orbits
    assert several_roots
    assert not any(label.startswith("two copies") for label in transitive)
    # the seed must reach transitive and non-transitive circulants
    circulants = [label for label in transitive if label.startswith("circulant")]
    assert 0 < len(circulants) < 60


def _is_subsequence(short, long) -> bool:
    rest = iter(long)
    return all(x in rest for x in short)


def test_search_matches_reference_search():
    # returning to the first path drops generators but never the base or
    # the order: each generator list is a subsequence of the reference's
    for label, g in oracle_inputs():
        aut, ref = automorphism_group(g), automorphism_group_reference(g)
        assert (aut.base, aut.order) == (ref.base, ref.order), label
        assert _is_subsequence(aut.generators, ref.generators), label


def _redundant(generators, base) -> int | None:
    """Index of the first generator that maps base[i], for the first i it
    moves, into the orbit of base[i] under the generators before it that
    fix base[:i]; None when no generator does."""
    for k, s in enumerate(generators):
        i = next(i for i, b in enumerate(base) if s[b] != b)
        if s[base[i]] in _orbit(generators[:k], base[:i], [base[i]]):
            return k
    return None


@pytest.mark.parametrize("key", BENCHMARK_GRAPHS)
def test_search_records_no_redundant_generator(key):
    g = build(key)
    aut = automorphism_group(g)
    assert _redundant(aut.generators, aut.base) is None
    if key in ("named:hoffman_singleton", "paley:109", "kneser:10:2"):
        # the reference search, which does not return to the first path,
        # records generators the earlier ones already reach
        ref = automorphism_group_reference(g)
        assert _redundant(ref.generators, ref.base) is not None


def _is_equitable(g, cells):
    cell_of = {v: i for i, c in enumerate(cells) for v in c}
    for c in cells:
        vectors = {
            tuple(sum(cell_of[w] == i for w in g.neighbors(v)) for i in range(len(cells)))
            for v in c
        }
        if len(vectors) != 1:
            return False
    return True


@pytest.mark.parametrize("spec", ["complete:200", "complete_bipartite:130"])
def test_refine_equitable_at_high_degree(spec):
    # neighbor counts of 128 and more, which a narrow integer type wraps
    g = build(spec)
    for start in ([list(range(g.n))], [[0], list(range(1, g.n))]):
        cells = _refine(g, start, [0])
        assert sorted(v for c in cells for v in c) == list(range(g.n))
        assert _is_equitable(g, cells)


def test_refine_orders_parts_by_true_counts():
    # the star's leaves (1 neighbor) come before its centre (130)
    star = Graph(131, [(0, v) for v in range(1, 131)])
    cells = _refine(star, [list(range(131))], [0])
    assert cells == [list(range(1, 131)), [0]]


def _oracle_refinements():
    """(label, graph, neighbor sets, cells, pushed): the root partition of
    every oracle graph, and every child of its fixpoint with the hint the
    search passes."""
    for label, g in oracle_inputs():
        adj = [g.neighbors(v) for v in range(g.n)]
        root = [list(range(g.n))]
        yield label, g, adj, root, [0]
        cells, _ = refine_reference(adj, root)
        for ti, cell in enumerate(cells):
            for v in cell if len(cell) > 1 else ():
                child = cells[:ti] + [[v], [u for u in cell if u != v]] + cells[ti + 1 :]
                yield (label, ti, v), g, adj, child, [ti]


def test_refine_matches_reference_on_oracle_inputs():
    # the same cells in the same order
    children = 0
    for label, g, adj, cells, pushed in _oracle_refinements():
        assert _refine(g, cells, pushed) == refine_reference(adj, cells)[0], label
        children += len(cells) > 1
    assert children > 3000


def test_refine_kernels_agree_on_every_round(monkeypatch):
    # every round of the sweep is counted both ways, whichever way the
    # round's sizes pick: the same cells split into the same parts in the
    # same order
    walk, count = autgroup._split_by_walk, autgroup._split_by_count
    picked = {"walk": 0, "count": 0}

    def by_walk(adj, cells, cell_of, pushed):
        splits = walk(adj, cells, cell_of, pushed)
        masks = [sum(1 << w for w in nbrs) for nbrs in adj]
        assert splits == count(masks, cells, pushed), (cells, pushed)
        picked["walk"] += 1
        return splits

    def by_count(masks, cells, pushed):
        splits = count(masks, cells, pushed)
        adj = [[w for w in range(len(masks)) if mask >> w & 1] for mask in masks]
        cell_of = [0] * len(masks)
        for i, c in enumerate(cells):
            for v in c:
                cell_of[v] = -i
        assert splits == walk(adj, cells, cell_of, pushed), (cells, pushed)
        picked["count"] += 1
        return splits

    monkeypatch.setattr(autgroup, "_split_by_walk", by_walk)
    monkeypatch.setattr(autgroup, "_split_by_count", by_count)
    for label, g, adj, cells, pushed in _oracle_refinements():
        assert _refine(g, cells, pushed) == refine_reference(adj, cells)[0], label
    assert min(picked.values()) > 1000, picked


def _search_nodes(monkeypatch, g, refine):
    """The group the search gives with refine as the refinement, and its
    node count, which is the least node budget that does not raise."""
    calls = [0]

    def counting(g, cells, pushed):
        calls[0] += 1
        return refine(g, cells, pushed)

    monkeypatch.setattr(autgroup, "_refine", counting)
    aut = automorphism_group(g)
    nodes = calls[0]
    assert automorphism_group(g, node_budget=nodes) == aut
    with pytest.raises(SearchBudgetExceeded):
        automorphism_group(g, node_budget=nodes - 1)
    return aut, nodes


LATIN_SQUARE_GRAPHS = dict(latin_square_inputs())


@pytest.mark.parametrize("key", catalogue_keys() + list(LATIN_SQUARE_GRAPHS))
def test_search_same_with_reference_refinement(monkeypatch, key):
    g = LATIN_SQUARE_GRAPHS[key] if key in LATIN_SQUARE_GRAPHS else build(key)
    adj = [g.neighbors(v) for v in range(g.n)]
    refine = autgroup._refine
    got = _search_nodes(monkeypatch, g, refine)
    want = _search_nodes(monkeypatch, g, lambda g, cells, pushed: refine_reference(adj, cells)[0])
    assert got == want


# the search's node counts; without a node test every one is larger (83,
# 82, 52, 393, 448, 228, 2228 and 1129 nodes)
LATIN_SQUARE_NODES = {
    "latin 5 0": 27, "latin 5 1": 27, "latin 5 2": 30,
    "latin 6 0": 202, "latin 6 1": 198, "latin 6 2": 93,
    "latin 7 0": 932, "latin 7 1": 515,
}


@pytest.mark.parametrize("key", list(LATIN_SQUARE_GRAPHS))
def test_search_prunes_by_shape_on_latin_square_graphs(monkeypatch, key):
    # strongly regular, so refinement splits nothing at the root and the
    # shape test prunes below it
    g = LATIN_SQUARE_GRAPHS[key]
    aut, nodes = _search_nodes(monkeypatch, g, autgroup._refine)
    ref = automorphism_group_reference(g)
    assert (aut.base, aut.order) == (ref.base, ref.order)
    assert _is_subsequence(aut.generators, ref.generators)
    assert nodes == LATIN_SQUARE_NODES[key]


def test_latin_square_of_the_ci_step():
    # the CI step runs drgcert analyze on this square's graph, latin 7 1,
    # and asserts |Aut| = 2
    rows = "0264315 4016523 3651402 2305164 6143250 1532046 5420631".split()
    g = latin_square_graph(rows)
    assert g == LATIN_SQUARE_GRAPHS["latin 7 1"]
    assert automorphism_group_reference(g).order == 2


def test_cli_import_does_not_load_numpy():
    src = str(Path(drgcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, drgcert.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("key", ["complete:12", "crown:10", "complete_bipartite:8"])
def test_disjoint_pair_search_stops_at_its_first_generator(monkeypatch, key):
    # tau is the first generator the full search of the stabilizer of supp
    # sigma finds, and the search for it stops there
    g = build(key)
    generators = automorphism_group(g).generators
    searches = []
    search = autgroup._search_generators

    def recording(*args, **kwargs):
        searches.append((search(*args, **kwargs)[0], search(*args)[0]))
        return search(*args, **kwargs)

    monkeypatch.setattr(autgroup, "_search_generators", recording)
    sigma, tau = autgroup.disjoint_automorphisms(g, generators)
    [(found, full)] = searches
    assert found == [tau] == full[:1] and len(full) > 1
