"""Graph container, distances, girth, cliques, derived constructions."""

from functools import reduce
from random import Random

import pytest

from drgcert.graph import (
    INFINITE,
    DisconnectedGraphError,
    DistanceData,
    Graph,
    _adjacency,
    _bits,
    bipartite_complement,
    cartesian_product,
    clique_number,
    complement,
    distances,
    from_edge_list,
    girth,
    is_connected,
    line_graph,
)
from drgcert.autgroup import automorphism_group
from drgcert.families import build
from oracles import (
    clique_number_reference,
    enumerate_girth,
    floyd_warshall,
    oracle_inputs,
    pairs_at_distance,
    random_connected_graph,
    vertex_orbits_reference,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4
    assert g.num_edges == 4
    assert g.degree(0) == 2
    assert g.adjacent(0, 1) and not g.adjacent(0, 2)
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.degrees() == (2, 2, 2, 2)
    assert g.regular_degree() == 2
    assert sorted(g.sorted_edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 1), (1, 0)])


def test_from_edge_list_accepts_generator():
    g = from_edge_list(3, ((i, i + 1) for i in range(2)))
    assert g.num_edges == 2


@pytest.mark.parametrize(
    "key",
    [
        "named:petersen",
        "named:foster",
        "hamming:4:3",
        "paley:17",
        "johnson:6:3",
        "odd:4",
        "crown:10",
        "complete:7",
    ],
)
def test_adjacency_from_edges_matches_masks(key):
    """The neighbour tuples built from the edges are those read off
    the neighbour masks, also on a relabelled copy whose edges come in
    another order; they are built once and kept."""
    g = build(key)
    perm = list(range(g.n))
    Random(f"adjacency {key}").shuffle(perm)
    for h in (g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])):
        adj = _adjacency(h)
        assert adj == tuple(tuple(_bits(mask)) for mask in h.masks)
        assert _adjacency(h) is adj
    assert _adjacency(Graph(3)) == ((), (), ())


def test_irregular_degree():
    assert path(3).regular_degree() is None


def test_distances_path():
    dd = distances(path(4))
    assert dd.connected
    assert dd.diameter == 3
    assert dd.d(0, 3) == 3
    assert dd.sphere_masks[0][2] == 1 << 2
    assert pairs_at_distance(dd, 3) == [(0, 3), (3, 0)]
    assert tuple(mask.bit_count() for mask in dd.sphere_masks[0]) == (1, 1, 1, 1)
    assert tuple(mask.bit_count() for mask in dd.sphere_masks[1]) == (1, 2, 1, 0)


def test_distances_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    dd = distances(g)
    assert not dd.connected
    assert not is_connected(g)


def test_distances_build_rows_and_spheres_on_first_use():
    dd = distances(build("hamming:6:3"))
    assert not dd._rows
    row = dd.row(5)
    assert isinstance(row, tuple) and dd.row(5) is row
    assert dd.d(5, 6) == row[6]
    assert set(dd._rows) == {5}


def test_distances_share_no_rows():
    g = build("hamming:3:3")
    a, b = distances(g), distances(g)
    assert a == b
    for v in range(g.n):
        assert a.row(v) == b.row(v) and a.row(v) is not b.row(v)


def test_distances_match_floyd_warshall():
    rng = Random(414001)
    for _ in range(60):
        n = rng.randint(2, 11)
        g = random_connected_graph(rng, n)
        dd = distances(g)
        fw = floyd_warshall(g)
        for u in range(n):
            for v in range(n):
                assert dd.d(u, v) == fw[u][v]


def test_distances_match_floyd_warshall_on_oracle_inputs():
    # the two-copy disjoint unions cover disconnected graphs
    for label, g in oracle_inputs():
        dd = distances(g)
        fw = floyd_warshall(g)
        expected = tuple(
            tuple(INFINITE if x == float("inf") else x for x in row) for row in fw
        )
        assert tuple(map(dd.row, range(g.n))) == expected, label
        reached = [x for row in expected for x in row if x != INFINITE]
        assert dd.diameter == max(reached, default=0), label
        assert dd.connected == (len(reached) == g.n**2), label
        for v in range(g.n):
            assert len(dd.sphere_masks[v]) == dd.diameter + 1, (label, v)
            for m, mask in enumerate(dd.sphere_masks[v]):
                for w in range(g.n):
                    assert (mask >> w & 1) == (expected[v][w] == m), (label, v, m, w)


@pytest.mark.parametrize(
    "g, masks, diameter, connected",
    [
        (Graph(0), (), 0, True),
        (Graph(1), ((1,),), 0, True),
        (Graph(2), ((1,), (2,)), 0, False),
        (Graph(2, [(0, 1)]), ((1, 2), (2, 1)), 1, True),
        (path(4), ((1, 2, 4, 8), (2, 5, 8, 0), (4, 10, 1, 0), (8, 4, 2, 1)), 3, True),
        (Graph(4, [(0, 1), (1, 2)]), ((1, 2, 4), (2, 5, 0), (4, 2, 1), (8, 0, 0)), 2, False),
    ],
    ids=["n=0", "n=1", "two-isolated", "K2", "path", "isolated-vertex"],
)
def test_distances_exact_small_cases(g, masks, diameter, connected):
    # every vertex has diameter + 1 masks, also in a component that ends sooner
    assert distances(g) == DistanceData(masks, diameter, connected)


@pytest.mark.parametrize(
    "g, diameter",
    [
        (build("paley:109"), 2),
        (build("complete:5"), 1),
        (build("named:foster"), 8),
        (path(4), 3),
        (Graph(1), 0),
    ],
    ids=["paley:109", "K5", "foster", "path", "n=1"],
)
def test_distances_sweep_to_the_diameter(g, diameter, monkeypatch):
    """Sphere 1 is read off the masks and the sweeps stop once every
    vertex's spheres cover the graph: a connected graph of diameter d
    takes d - 1 neighbor sweeps, of one reduce per vertex each."""
    import drgcert.graph

    calls = []
    monkeypatch.setattr(drgcert.graph, "reduce", lambda *args: calls.append(1) or reduce(*args))
    assert distances(g).diameter == diameter
    assert len(calls) == max(diameter - 1, 0) * g.n


def test_sphere_masks():
    # bit w of sphere_masks[v][m] is set exactly when d(v, w) == m, so the
    # masks of v are disjoint and cover what v reaches; built once per dd
    for label, g in oracle_inputs():
        dd = distances(g)
        masks = dd.sphere_masks
        assert dd.sphere_masks is masks, label
        assert len(masks) == g.n, label
        for v in range(g.n):
            row = dd.row(v)
            assert len(masks[v]) == dd.diameter + 1, label
            for m, mask in enumerate(masks[v]):
                assert mask == sum(1 << w for w in range(g.n) if row[w] == m), (label, v, m)
            union = 0
            for mask in masks[v]:
                assert not union & mask, (label, v)
                union |= mask
            assert union == sum(1 << w for w in range(g.n) if row[w] != INFINITE), (label, v)


def test_girth_known_values():
    assert girth(path(5)) is None
    assert girth(cycle(3)) == 3
    assert girth(cycle(9)) == 9
    assert girth(Graph(1)) is None
    # two triangles sharing a vertex
    g = Graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert girth(g) == 3


def test_girth_matches_cycle_enumeration():
    rng = Random(414002)
    for _ in range(120):
        n = rng.randint(3, 11)
        p = rng.uniform(0.15, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        assert girth(g) == enumerate_girth(g)


def test_girth_matches_cycle_enumeration_on_oracle_inputs():
    # Clebsch and several circulants hold vertices with both two neighbors
    # in the sphere below and one in their own sphere, where only the even
    # bound is the girth
    for label, g in oracle_inputs():
        if g.n <= 30:
            assert girth(g) == enumerate_girth(g), label


def test_clique_number_known():
    assert clique_number(Graph(1)) == 1
    assert clique_number(cycle(5)) == 2
    assert clique_number(cycle(3)) == 3
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert clique_number(k5) == 5
    assert clique_number(complement(k5)) == 1


def test_clique_number_random_vs_brute():
    from itertools import combinations

    rng = Random(414003)
    for _ in range(40):
        n = rng.randint(2, 9)
        p = rng.uniform(0.2, 0.8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        brute = 1
        for size in range(2, n + 1):
            for sub in combinations(range(n), size):
                if all(g.adjacent(a, b) for a, b in combinations(sub, 2)):
                    brute = size
                    break
        assert clique_number(g) == brute


def _roots(g, gens):
    return [orbit[0] for orbit in vertex_orbits_reference(g.n, gens)]


def test_clique_number_matches_reference_on_oracle_inputs():
    # rooted at the least vertex of each orbit of Aut, and of the subgroup
    # generated by the generators fixing vertex 0, whose orbits are finer
    # than those of Aut whenever it moves 0
    for label, g in oracle_inputs():
        omega = clique_number_reference(g)
        gens = automorphism_group(g).generators
        assert clique_number(g) == omega, label
        assert clique_number(g, _roots=_roots(g, gens)) == omega, label
        fixing = [s for s in gens if s[0] == 0]
        assert clique_number(g, _roots=_roots(g, fixing)) == omega, label


def test_clique_number_makes_no_distance_pass(monkeypatch):
    # the search reads the neighbor masks of g, so it needs no distances
    import drgcert.graph

    cases = []
    for key in ("named:petersen", "paley:29", "hamming:3:3", "named:clebsch", "johnson:7:3"):
        g = build(key)
        roots = _roots(g, automorphism_group(g).generators)
        cases.append((key, g, roots, clique_number_reference(g)))

    def no_distances(g):
        raise AssertionError("clique_number computed distances")

    monkeypatch.setattr(drgcert.graph, "distances", no_distances)
    for key, g, roots, omega in cases:
        assert clique_number(g) == omega, key
        assert clique_number(g, _roots=roots) == omega, key


def test_complement_involution():
    rng = Random(414004)
    for _ in range(20):
        n = rng.randint(1, 10)
        g = random_connected_graph(rng, n)
        cc = complement(complement(g))
        assert set(cc.edges) == set(g.edges)
        assert g.num_edges + complement(g).num_edges == n * (n - 1) // 2


def test_line_graph_of_triangle_is_triangle():
    lg = line_graph(cycle(3))
    assert lg.n == 3 and lg.num_edges == 3


def test_line_graph_handshake():
    # number of edges in L(G) is sum of C(deg, 2)
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    lg = line_graph(g)
    assert lg.n == 4
    assert lg.num_edges == 3 + 1


def test_cartesian_product_grid():
    g = cartesian_product(path(2), path(3))
    assert g.n == 6
    assert g.num_edges == 3 + 4
    dd = distances(g)
    assert dd.diameter == 3


def test_cartesian_product_cube():
    k2 = path(2)
    q3 = cartesian_product(cartesian_product(k2, k2), k2)
    assert q3.n == 8
    assert q3.regular_degree() == 3
    assert girth(q3) == 4


def test_bipartite_complement_crown():
    # K_{3,3} minus a perfect matching is the 6-cycle
    k33 = Graph(6, [(a, b + 3) for a in range(3) for b in range(3)])
    crown = bipartite_complement(
        Graph(6, [(i, i + 3) for i in range(3)]), range(3), range(3, 6)
    )
    assert crown.regular_degree() == 2
    assert girth(crown) == 6
    assert distances(crown).diameter == 3
    assert k33.num_edges - 3 == crown.num_edges


def test_disconnected_error_type():
    assert issubclass(DisconnectedGraphError, ValueError)
