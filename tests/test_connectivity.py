"""Connectivity structure against networkx as an independent oracle.

Blocks of a multigraph have the same vertex sets as blocks of its
underlying simple graph, so nx comparisons run on the simplification
while edge-level invariants are checked directly.
"""

import random

import networkx as nx
import pytest

import helpers
from sgties import (
    BadEdge,
    NotTwoConnected,
    SignedGraph,
    blocks,
    components,
    find_proper_2_separation,
    is_2_connected,
    is_3_connected,
    side_vertices,
)
from sgties.search import SearchBudget, disjoint_paths


def to_nx(g: SignedGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(tuple(sorted(g.endpoints(e))) for e in range(g.m))
    return h


def random_multigraph(rng: random.Random, n: int, m: int) -> SignedGraph:
    items = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        items.append((u, v, rng.choice((1, -1))))
    return SignedGraph.build(n, items)


def test_components_match_nx():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randrange(2, 9)
        g = random_multigraph(rng, n, rng.randrange(0, n + 3))
        mine = sorted(sorted(c) for c in components(g))
        ref = sorted(sorted(c) for c in nx.connected_components(to_nx(g)))
        assert mine == ref


def test_blocks_vertex_sets_and_cuts_match_nx():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randrange(3, 9)
        g = random_multigraph(rng, n, rng.randrange(2, n + 4))
        bt = blocks(g)
        ref = to_nx(g)
        for u in range(n):
            rest = ref.copy()
            rest.remove_node(u)
            cuts = blocks(g, frozenset({u})).cut_vertices
            assert sorted(cuts) == sorted(nx.articulation_points(rest))
        want_blocks = sorted(
            sorted(set(v for e in comp for v in e))
            for comp in nx.biconnected_component_edges(ref)
        )
        got_blocks = sorted(
            sorted(side_vertices(g, blk)) for blk in bt.blocks
        )
        assert got_blocks == want_blocks
        assert sorted(bt.cut_vertices) == sorted(nx.articulation_points(ref))


def test_blocks_edge_sets_order_and_cuts_match_nx():
    """Edge-level oracle with removed vertices: each block of g minus
    ``removed`` is a biconnected component of the simple graph minus
    ``removed``, with every parallel copy joining its pair's block;
    blocks come sorted by smallest edge id."""
    rng = random.Random(53)
    doubled = with_removed = 0
    for _ in range(300):
        n = rng.randrange(2, 10)
        base = random_multigraph(rng, n, rng.randrange(1, 2 * n + 2))
        items = [(e.u, e.v, e.sign) for e in base.edges]
        for i in rng.sample(range(base.m), rng.randrange(0, min(3, base.m) + 1)):
            u, v, s = items[i]
            items.append((v, u, -s))  # a doubled edge, listed from its other end
        g = SignedGraph.build(n, items)
        removed = frozenset(rng.sample(range(n), rng.randrange(0, min(2, n - 1) + 1)))
        doubled += g.m > base.m
        with_removed += bool(removed)
        ids: dict[tuple[int, int], list[int]] = {}
        for e in range(g.m):
            ids.setdefault(tuple(sorted(g.endpoints(e))), []).append(e)
        ref = to_nx(g)
        ref.remove_nodes_from(removed)
        want = sorted(
            (
                frozenset(e for u, v in comp for e in ids[tuple(sorted((u, v)))])
                for comp in nx.biconnected_component_edges(ref)
            ),
            key=min,
        )
        bt = blocks(g, removed)
        assert bt.blocks == tuple(want)
        assert bt.cut_vertices == frozenset(nx.articulation_points(ref))
        for blk in bt.blocks:
            assert not side_vertices(g, blk) & removed
    assert doubled > 100 and with_removed > 100


@pytest.mark.parametrize("closed", [True, False], ids=["cycle", "path"])
def test_blocks_walk_deep_inputs_without_recursion(closed):
    """A 20,000-vertex cycle or path under the default recursion limit:
    the lowpoint walk keeps its own stack."""
    n = 20_000
    items = [(i, i + 1, 1) for i in range(n - 1)] + ([(n - 1, 0, 1)] if closed else [])
    g = SignedGraph.build(n, items)
    bt = blocks(g)
    if closed:
        assert bt.blocks == (frozenset(range(n)),)
        assert bt.cut_vertices == frozenset()
    else:
        assert bt.blocks == tuple(frozenset({e}) for e in range(n - 1))
        assert bt.cut_vertices == frozenset(range(1, n - 1))
    assert is_2_connected(g) == closed


def test_blocks_partition_the_edges():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randrange(2, 8)
        g = random_multigraph(rng, n, rng.randrange(1, n + 4))
        bt = blocks(g)
        seen = [e for blk in bt.blocks for e in sorted(blk)]
        assert sorted(seen) == list(range(g.m))
        for e in range(g.m):
            assert e in bt.block_of(e)


def test_parallel_edges_share_a_block():
    g = SignedGraph.build(3, [(0, 1, 1), (0, 1, -1), (1, 2, 1)])
    bt = blocks(g)
    assert bt.block_of(0) == bt.block_of(1) == frozenset({0, 1})
    assert bt.block_of(2) == frozenset({2})
    assert bt.cut_vertices == frozenset({1})


def test_two_triangles_give_two_blocks():
    bt = blocks(helpers.two_triangles_shared_vertex())
    assert len(bt.blocks) == 2
    assert bt.cut_vertices == frozenset({2})
    assert bt.block_of(0) == frozenset({0, 1, 2})
    assert bt.block_of(4) == frozenset({3, 4, 5})


def test_is_2_connected():
    assert is_2_connected(helpers.prism())
    assert is_2_connected(SignedGraph.build(2, [(0, 1, 1), (0, 1, -1)]))
    assert not is_2_connected(SignedGraph.build(2, [(0, 1, 1)]))
    assert not is_2_connected(helpers.two_triangles_shared_vertex())
    assert not is_2_connected(SignedGraph.build(3, [(0, 1, 1), (1, 2, 1)]))
    # an isolated vertex beside a 2-connected block
    assert not is_2_connected(SignedGraph.build(4, [(0, 1, 1), (1, 2, 1), (2, 0, 1)]))


def test_is_2_connected_matches_nx_on_simple_graphs():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randrange(3, 9)
        ref = nx.gnp_random_graph(n, rng.choice((0.3, 0.5, 0.7)), seed=rng.randrange(10**6))
        g = SignedGraph.build(n, [(u, v, 1) for u, v in ref.edges()])
        assert is_2_connected(g) == (ref.number_of_nodes() > 2 and nx.is_biconnected(ref))


def test_is_3_connected_matches_nx_on_simple_graphs():
    rng = random.Random(37)
    hits = 0
    for _ in range(60):
        n = rng.randrange(4, 8)
        ref = nx.gnp_random_graph(n, rng.choice((0.5, 0.7, 0.9)), seed=rng.randrange(10**6))
        g = SignedGraph.build(n, [(u, v, 1) for u, v in ref.edges()])
        want = nx.node_connectivity(ref) >= 3 if ref.number_of_edges() else False
        got = is_3_connected(g)
        assert got == want
        hits += got
    assert hits > 0  # the sample actually exercises both answers


def test_parallel_edges_do_not_make_a_graph_3_connected():
    g = SignedGraph.build(2, [(0, 1, 1), (0, 1, -1), (0, 1, 1)])
    assert not is_3_connected(g)
    assert not is_3_connected(helpers.cycle_graph(4))
    assert is_3_connected(helpers.k4())
    assert is_3_connected(helpers.wheel(5))
    assert is_3_connected(helpers.prism())


def test_separation_none_iff_3_connected():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randrange(4, 8)
        g = helpers.random_2_connected(rng, n, rng.randrange(0, 6))
        sep = find_proper_2_separation(g)
        assert (sep is None) == is_3_connected(g)


def test_separation_is_proper():
    rng = random.Random(43)
    found = 0
    for _ in range(60):
        g = helpers.random_2_connected(rng, rng.randrange(4, 8), rng.randrange(0, 5))
        sep = find_proper_2_separation(g)
        if sep is None:
            continue
        found += 1
        assert sorted(sep.side1 | sep.side2) == list(range(g.m))
        assert not (sep.side1 & sep.side2)
        u, v = sep.boundary
        assert u != v
        v1 = side_vertices(g, sep.side1)
        v2 = side_vertices(g, sep.side2)
        assert v1 & v2 == {u, v}
        # proper: both sides hide at least one private vertex
        assert v1 - {u, v}
        assert v2 - {u, v}
    assert found > 10


def test_side_vertices_checks_edge_ids():
    g = helpers.k4()
    assert side_vertices(g, frozenset((0, 1))) == g.endpoints(0) | g.endpoints(1)
    with pytest.raises(BadEdge):
        side_vertices(g, frozenset((0, g.m)))


def test_separation_picks_the_smallest_cut_pair_and_side():
    """The boundary is the lexicographically first disconnecting pair and
    side1 the smallest component side, checked by brute force."""
    rng = random.Random(47)
    found = 0
    for _ in range(80):
        n = rng.randrange(4, 9)
        base = helpers.random_2_connected(rng, n, rng.randrange(0, 6))
        items = [(e.u, e.v, e.sign) for e in base.edges]
        for i in rng.sample(range(base.m), rng.randrange(0, 3)):
            u, v, s = items[i]
            items.append((u, v, -s))  # a doubled edge
        g = SignedGraph.build(n, items)
        ref = to_nx(g)
        want = None
        for u in range(n):
            for v in range(u + 1, n):
                rest = ref.copy()
                rest.remove_nodes_from((u, v))
                if not nx.is_connected(rest):
                    want = (u, v)
                    break
            if want:
                break
        sep = find_proper_2_separation(g)
        if want is None:
            assert sep is None
            continue
        found += 1
        assert sep.boundary == want
        rest = ref.copy()
        rest.remove_nodes_from(want)
        sides = [
            frozenset(i for i in range(g.m) if g.endpoints(i) & comp)
            for comp in nx.connected_components(rest)
        ]
        assert sep.side1 == min(sides, key=lambda s: (len(s), sorted(s)))
        assert sep.side2 == frozenset(range(g.m)) - sep.side1
    assert found > 20


@pytest.mark.parametrize("joins", [0, 1, 3])
def test_theta_separation_sides_match_the_per_component_scan(joins):
    """A theta graph (paths of length 2-4 between vertices 0 and 1, edges
    shuffled) splits at {0, 1}.  side1 is the smallest component side,
    each side being the edges with an endpoint in one component of
    G-{0, 1}; edges joining 0 and 1 stay in side2."""
    rng = random.Random(59 + joins)
    pairs, n = [], 2
    for _ in range(12):
        inner = list(range(n, n + rng.randrange(1, 4)))
        n += len(inner)
        walk = [0, *inner, 1]
        pairs += list(zip(walk, walk[1:]))
    pairs += [(1, 0)] * joins
    rng.shuffle(pairs)
    g = SignedGraph.build(n, [(u, v, rng.choice((1, -1))) for u, v in pairs])
    sep = find_proper_2_separation(g)
    assert sep.boundary == (0, 1)
    sides = [
        frozenset(i for i, e in enumerate(g.edges) if e.u in comp or e.v in comp)
        for comp in components(g, frozenset((0, 1)))
    ]
    assert len(sides) == 12
    assert sep.side1 == min(sides, key=lambda s: (len(s), sorted(s)))
    assert sep.side2 == frozenset(range(g.m)) - sep.side1
    assert {i for i in range(g.m) if g.endpoints(i) == {0, 1}} <= sep.side2


def test_separation_is_deterministic():
    g = helpers.two_k4_on_boundary()
    a = find_proper_2_separation(g)
    b = find_proper_2_separation(g)
    assert a == b
    assert set(a.boundary) == {0, 1}


def test_separation_requires_2_connected():
    with pytest.raises(NotTwoConnected):
        find_proper_2_separation(helpers.two_triangles_shared_vertex())
    with pytest.raises(NotTwoConnected):
        find_proper_2_separation(SignedGraph.build(3, [(0, 1, 1), (1, 2, 1)]))


def test_small_graphs_have_no_proper_separation():
    assert find_proper_2_separation(helpers.triangle()) is None
    g = SignedGraph.build(2, [(0, 1, 1), (0, 1, -1), (0, 1, 1)])
    assert find_proper_2_separation(g) is None


def test_disjoint_paths_reach_the_max_flow_of_the_split_graph():
    """Menger: the number of paths equals the maximum flow through unit
    vertex capacities, with banned vertices and edges left out, and the
    paths are genuine, start at distinct sources, end at distinct
    targets, meet no other source or target and share no vertex.  A
    source that is also a target may stand as a path of its own.  With
    k = 3 the later augmentations often have to reroute earlier paths.
    With no budget the flow runs uncapped and finds the same paths."""
    rng = random.Random(5)
    full = overlap = 0
    for i in range(1500):
        n = rng.randint(7, 16)
        g = random_multigraph(rng, n, rng.randint(n, 2 * n))
        k = rng.randint(1, 3)
        picked = rng.sample(range(n), 2 * k + 1)
        srcs, tgts = picked[:k], picked[k : 2 * k]
        if i % 4 == 0:
            tgts[0] = srcs[-1]
        bv = frozenset(picked[2 * k :])
        be = frozenset(rng.sample(range(g.m), 2))
        b = SearchBudget()
        paths = disjoint_paths(
            g, srcs, tgts, k, banned_vertices=bv, banned_edges=be, budget=b
        )
        assert b.spent <= 2 * k * g.m
        uncapped = disjoint_paths(g, srcs, tgts, k, banned_vertices=bv, banned_edges=be)
        assert uncapped == paths
        seen = set()
        for edges, verts in paths:
            assert verts[0] in srcs and verts[-1] in tgts
            assert not set(verts[1:]) & set(srcs) and not set(verts[:-1]) & set(tgts)
            overlap += not edges
            assert not set(edges) & be
            for i, eid in enumerate(edges):
                assert g.endpoints(eid) == {verts[i], verts[i + 1]}
            assert not seen & set(verts) and not bv & set(verts)
            seen |= set(verts)
        ref = nx.DiGraph()
        for eid, e in enumerate(g.edges):
            if eid not in be:
                ref.add_edge((e.u, 1), (e.v, 0), capacity=1)
                ref.add_edge((e.v, 1), (e.u, 0), capacity=1)
        for v in set(range(n)) - bv:
            ref.add_edge((v, 0), (v, 1), capacity=1)
        ref.add_edges_from((("S", (s, 0)) for s in srcs), capacity=1)
        ref.add_edges_from((((t, 1), "T") for t in tgts), capacity=1)
        flow = nx.maximum_flow_value(ref, "S", "T")
        assert len(paths) == flow
        full += flow == k == 3
    assert full > 100
    assert overlap > 100

