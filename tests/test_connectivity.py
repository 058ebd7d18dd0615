"""Connectivity structure against networkx as an independent oracle.

Blocks of a multigraph have the same vertex sets as blocks of its
underlying simple graph, so nx comparisons run on the simplification
while edge-level invariants are checked directly.
"""

import random
from collections import Counter

import networkx as nx
import pytest

import helpers
import sgties.connectivity
import sgties.decide
from sgties import (
    BadEdge,
    BadVertex,
    NotTwoConnected,
    SignedGraph,
    blocks,
    components,
    compose_tied_instance,
    decide_tied,
    find_proper_2_separation,
    is_2_connected,
    is_3_connected,
    ladder,
    random_3_connected,
    random_recipe,
    side_vertices,
)
from sgties.connectivity import _separation_pair
from sgties.search import disjoint_paths


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


@pytest.mark.parametrize("x", [-1, True, 4, 1.0])
def test_removed_vertices_must_be_vertex_ids(x):
    """-1 indexed the last vertex and True vertex 1, so a bad id in
    ``removed`` took another vertex out of the walk."""
    g = SignedGraph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, -1), (0, 2, 1)])
    with pytest.raises(BadVertex):
        components(g, frozenset({x}))
    with pytest.raises(BadVertex):
        blocks(g, frozenset({x}))


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


def test_an_edge_at_a_removed_vertex_is_in_no_block():
    """Removing vertex 0 leaves edge (1, 2) a bridge, its own block, and
    edge (0, 1) in none."""
    bt = blocks(helpers.two_triangles_shared_vertex(), frozenset({0}))
    assert bt.block_of(1) == frozenset({1})
    with pytest.raises(KeyError, match="edge 0 is in no block"):
        bt.block_of(0)


def test_is_2_connected():
    assert is_2_connected(helpers.prism())
    assert is_2_connected(SignedGraph.build(2, [(0, 1, 1), (0, 1, -1)]))
    assert not is_2_connected(SignedGraph.build(2, [(0, 1, 1)]))
    assert not is_2_connected(helpers.two_triangles_shared_vertex())
    assert not is_2_connected(SignedGraph.build(3, [(0, 1, 1), (1, 2, 1)]))
    # an isolated vertex beside a 2-connected block
    assert not is_2_connected(SignedGraph.build(4, [(0, 1, 1), (1, 2, 1), (2, 0, 1)]))


@pytest.mark.parametrize("n", [0, 1])
def test_a_graph_below_two_vertices_is_not_2_connected(n):
    assert not is_2_connected(SignedGraph.build(n, []))


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


def test_separation_picks_a_cut_pair_and_the_smallest_side():
    """The boundary is a disconnecting pair, found exactly when one exists,
    and side1 the smallest component side, checked by brute force."""
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
        cuts = []
        for u in range(n):
            for v in range(u + 1, n):
                rest = ref.copy()
                rest.remove_nodes_from((u, v))
                if not nx.is_connected(rest):
                    cuts.append((u, v))
        sep = find_proper_2_separation(g)
        if not cuts:
            assert sep is None
            continue
        found += 1
        assert sep.boundary in cuts
        rest = ref.copy()
        rest.remove_nodes_from(sep.boundary)
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
    shuffled) splits at the 2-cut the linear pass names: {0, 1}, or the
    two neighbours of an inner vertex.  side1 is the smallest component
    side, each side being the edges with an endpoint in one component of
    G minus the boundary; edges joining the boundary stay in side2."""
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
    boundary = frozenset(sep.boundary)
    sides = [
        frozenset(i for i, e in enumerate(g.edges) if e.u in comp or e.v in comp)
        for comp in components(g, boundary)
    ]
    assert len(sides) >= 2
    if boundary == {0, 1}:
        assert len(sides) == 12
    assert sep.side1 == min(sides, key=lambda s: (len(s), sorted(s)))
    assert sep.side2 == frozenset(range(g.m)) - sep.side1
    assert {i for i in range(g.m) if g.endpoints(i) == boundary} <= sep.side2


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


def _shuffled(rng: random.Random, g: SignedGraph) -> SignedGraph:
    """g with its vertices renamed at random and its edges reordered, so
    that DFS order is not id order."""
    perm = rng.sample(range(g.n), g.n)
    items = [(perm[e.u], perm[e.v], e.sign) for e in g.edges]
    rng.shuffle(items)
    return SignedGraph.build(g.n, items)


def _ring_with_chords(rng: random.Random, n: int, doubled: bool) -> SignedGraph:
    """A cycle through all n vertices in random order plus up to n random
    chords, which may be parallel; ``doubled`` adds 1-4 opposite-sign
    copies of edges, listed from their other end."""
    ring = rng.sample(range(n), n)
    items = [(ring[i - 1], ring[i], 1) for i in range(n)]
    for _ in range(rng.randint(0, n)):
        u = rng.randrange(n)
        v = (u + rng.randrange(1, n)) % n
        items.append((u, v, 1))
    if doubled:
        items += [(v, u, -s) for u, v, s in rng.sample(items, rng.randint(1, 4))]
    rng.shuffle(items)
    return SignedGraph.build(n, items)


def _subdivided(rng: random.Random, g: SignedGraph) -> SignedGraph:
    items = [(e.u, e.v, e.sign) for e in g.edges]
    u, v, s = items.pop(rng.randrange(len(items)))
    return SignedGraph.build(g.n + 1, items + [(u, g.n, s), (g.n, v, 1)])


def _small_n(rng: random.Random, lo: int, hi: int) -> int:
    """Mostly small sizes, now and then up to hi."""
    return min(hi, lo + int(rng.expovariate(1 / 3)))


def _k4_ring(k: int, rng: random.Random) -> SignedGraph:
    """k K4 blocks in a ring, block i on {s(i-1), s(i), x(i), y(i)}, each
    s shared by two neighbouring blocks.  Every pair of s vertices is a
    2-cut, and 0 = x(0), 1 = y(0) lie in none.  The edges listed first,
    in order, make the path 0, s(0), x(1), y(1), s(1), ..., s(k-1), 1
    the tree of the DFS from vertex 0 in edge-id order.  Each suffix of
    that path reaches back to both 0 and s(0), so no subtree hangs on a
    2-cut alone and every 2-cut of this tree is of type 2."""
    ids = list(range(2, 3 * k))
    rng.shuffle(ids)
    s = ids[:k]
    x = [0] + ids[k : 2 * k - 1]
    y = [1] + ids[2 * k - 1 :]
    path = [0, s[0]]
    for i in range(1, k):
        path += [x[i], y[i], s[i]]
    path.append(1)
    pairs = list(zip(path, path[1:]))
    for i in range(k):
        quad = (s[i - 1], s[i], x[i], y[i])
        pairs += [
            (a, b)
            for j, a in enumerate(quad)
            for b in quad[j + 1 :]
            if (a, b) not in pairs and (b, a) not in pairs
        ]
    return SignedGraph.build(3 * k, [(a, b, rng.choice((1, -1))) for a, b in pairs])


def _reduction_slices(rng: random.Random, count: int):
    """Every graph the reduction searches for a 2-cut while it decides
    ``count`` composed tied instances."""
    seen: list[SignedGraph] = []
    real = sgties.decide._separation_pair

    def recording(g):
        seen.append(g)
        return real(g)

    sgties.decide._separation_pair = recording
    try:
        for _ in range(count):
            seed = rng.randrange(10**6)
            decide_tied(*compose_tied_instance(random_recipe(seed, rng.choice((2, 3, 4))), seed))
    finally:
        sgties.decide._separation_pair = real
    return [g for g in seen if g.n >= 4]


def _two_connected_graphs(rng: random.Random):
    """2-connected graphs with 4 to 60 vertices: rings with chords, some
    with doubled edges; random 3-connected graphs, half with one edge
    subdivided; wheels, K4 and prisms; ladders; K4 rings, whose 2-cuts
    only the path search finds; the slices of reductions."""
    for i in range(15900):
        yield _ring_with_chords(rng, _small_n(rng, 4, 60), doubled=i % 3 == 2)
    for i in range(3000):
        n = _small_n(rng, 4, 59)
        g = random_3_connected(n, rng.randint(0, n), 0.5, rng.randrange(10**6))
        yield _shuffled(rng, _subdivided(rng, g) if i % 2 else g)
    for i in range(150):
        yield _shuffled(rng, helpers.wheel(3 + i % 57) if i % 4 else helpers.k4())
        yield _shuffled(rng, _prism(3 + i % 28))
    for i in range(600):
        g, _, _ = ladder(2 + i % 29, i)
        yield _shuffled(rng, g)
    for k in range(2, 21):
        for _ in range(5):
            yield _k4_ring(k, rng)
    yield from _reduction_slices(rng, 100)


def _prism(k: int) -> SignedGraph:
    """Two k-cycles joined by a perfect matching; k = 3 is helpers.prism."""
    items = [(i, (i + 1) % k, 1) for i in range(k)]
    items += [(k + i, k + (i + 1) % k, 1) for i in range(k)]
    items += [(i, k + i, 1) for i in range(k)]
    return SignedGraph.build(2 * k, items)


def test_linear_cut_search_matches_the_scan_and_networkx():
    """is_3_connected and _separation_pair say whether the scan finds a
    2-cut, on 20,000 2-connected graphs.  A pair _separation_pair names
    is a 2-cut, never below the smallest.  networkx.node_connectivity, a
    flow per vertex pair, checks the verdict on every 100th graph.  The
    smallest 2-cut starts at u = 0, at u = 1 and further up (every K4
    ring) at least 100 times each, and at least 100 graphs have none."""
    rng = random.Random(61)
    branches: Counter = Counter()
    for i, g in enumerate(_two_connected_graphs(rng)):
        assert 4 <= g.n <= 60
        want = helpers.first_cut_pair_by_scan(g)
        assert is_3_connected(g) == (want is None), (i, g)
        pair = _separation_pair(g)
        assert (pair is None) == (want is None), (i, g)
        if pair is not None:
            assert want <= pair and pair[0] < pair[1]
            assert len(components(g, frozenset(pair))) > 1, (i, g, pair)
        if i % 100 == 0:
            assert (nx.node_connectivity(to_nx(g)) >= 3) == (want is None), (i, g)
        branches["none" if want is None else min(want[0], 2)] += 1
    assert sum(branches.values()) >= 20_000
    assert min(branches[k] for k in ("none", 0, 1, 2)) >= 100, branches


def _not_2_connected_graphs(rng: random.Random):
    """Graphs with 4 to 21 vertices that are not 2-connected: two random
    3-connected pieces glued at one vertex or left disjoint, sparse
    random multigraphs, and graphs whose vertex 0 is isolated."""
    for i in range(3000):
        kind = i % 4
        if kind < 2:
            a, b = (
                random_3_connected(
                    rng.randint(4, 10), rng.randint(0, 6), 0.5, rng.randrange(10**6)
                )
                for _ in range(2)
            )
            shift = a.n - (kind == 0)
            items = [(e.u, e.v, e.sign) for e in a.edges]
            items += [(e.u + shift, e.v + shift, e.sign) for e in b.edges]
            yield _shuffled(rng, SignedGraph.build(shift + b.n, items))
        elif kind == 2:
            n = rng.randint(4, 12)
            g = random_multigraph(rng, n, rng.randint(0, n + 2))
            if not is_2_connected(g):
                yield g
        else:
            n = rng.randint(4, 12)
            g = random_multigraph(rng, n - 1, rng.randint(0, 2 * n))
            yield SignedGraph.build(n, [(e.u + 1, e.v + 1, e.sign) for e in g.edges])


def test_linear_cut_search_answers_graphs_that_are_not_2_connected():
    """The pass names a vertex cut of size <= 2 on any graph with n >= 4:
    a cut vertex (c, c), vertex 0 of a disconnected graph, or a 2-cut.
    Removing it leaves more than one component, or g was disconnected
    already, and is_3_connected says no."""
    rng = random.Random(83)
    count = 0
    for i, g in enumerate(_not_2_connected_graphs(rng)):
        assert g.n >= 4 and not is_2_connected(g), (i, g)
        pair = _separation_pair(g)
        assert pair is not None, (i, g)
        assert len(components(g)) > 1 or len(components(g, frozenset(pair))) > 1, (i, g, pair)
        assert not is_3_connected(g), (i, g)
        count += 1
    assert count >= 2500


def test_linear_cut_search_names_the_cut_vertex_of_a_deep_path():
    """A 20,000-vertex path under the default recursion limit: the first
    DFS stops at n-2, whose child's subtree hangs on it alone."""
    n = 20_000
    g = SignedGraph.build(n, [(i, i + 1, 1) for i in range(n - 1)])
    assert _separation_pair(g) == (n - 2, n - 2)
    assert not is_3_connected(g)


def test_3_connectivity_counts_walks_not_vertices(monkeypatch):
    """On random_3_connected(n, n, 0, 1), is_3_connected makes one linear
    pass, which proves 2-connectivity on the way; find_proper_2_separation
    walks blocks once (its guard) and makes one linear pass."""
    calls: Counter = Counter()
    real_blocks = sgties.connectivity.blocks
    real_pass = sgties.connectivity._separation_pair

    def counting_blocks(*args, **kwargs):
        calls["blocks"] += 1
        return real_blocks(*args, **kwargs)

    def counting_pass(g):
        calls["pass"] += 1
        return real_pass(g)

    monkeypatch.setattr(sgties.connectivity, "blocks", counting_blocks)
    monkeypatch.setattr(sgties.connectivity, "_separation_pair", counting_pass)
    for n in (80, 640, 1280):
        g = random_3_connected(n, n, 0, 1)
        calls.clear()
        assert is_3_connected(g)
        assert calls == {"pass": 1}
        calls.clear()
        assert find_proper_2_separation(g) is None
        assert calls == {"blocks": 1, "pass": 1}


def test_linear_cut_search_walks_deep_inputs_without_recursion():
    """A 20,000-vertex wheel under the default recursion limit."""
    g = helpers.wheel(19_999)
    assert _separation_pair(g) is None
    assert _separation_pair(_subdivided(random.Random(71), g)) is not None


def test_disjoint_paths_reach_the_max_flow_of_the_split_graph():
    """Menger: the number of paths equals the maximum flow through unit
    vertex capacities, with banned vertices and edges left out, and the
    paths are genuine, start at distinct sources, end at distinct
    targets, meet no other source or target and share no vertex.  A
    source that is also a target may stand as a path of its own.  With
    k = 3 the later augmentations often have to reroute earlier paths.
    Each augmentation scans every adjacency list at most once, so a call
    reads at most 2·k·m adjacency entries."""
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
        reads = helpers.count_adjacency_reads(g)
        paths = disjoint_paths(g, srcs, tgts, k, banned_vertices=bv, banned_edges=be)
        assert reads["reads"] <= 2 * k * g.m
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

