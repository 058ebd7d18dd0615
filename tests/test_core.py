import random

import pytest

import helpers
from sgties import (
    Cycle,
    LoopRejected,
    BadEdge,
    BadParams,
    BadVertex,
    NotACycle,
    SignedGraph,
    Slice,
    add_edge,
    build_hat,
    build_hedgehog,
    build_target,
    contract_edge,
    cycle_sign,
    delete_edge,
    delete_edges,
    delete_vertex,
    new_graph,
    parallel_class,
    random_signed_graph,
    switch,
)
from sgties.core import char_sign, sign_char


def test_build_basic():
    g = helpers.triangle()
    assert g.n == 3
    assert g.m == 3
    assert g.endpoints(0) == frozenset({0, 1})
    assert g.sign(2) == 1
    assert g.degree(1) == 2


def test_build_rejects_loops():
    with pytest.raises(LoopRejected):
        SignedGraph.build(3, [(1, 1, 1)])


def test_build_rejects_bad_vertex():
    with pytest.raises(BadVertex):
        SignedGraph.build(2, [(0, 2, 1)])
    with pytest.raises(BadVertex):
        SignedGraph.build(2, [(-1, 0, 1)])


def test_build_rejects_bad_sign():
    with pytest.raises(BadParams):
        SignedGraph.build(2, [(0, 1, 0)])
    with pytest.raises(BadParams):
        SignedGraph.build(2, [(0, 1, 2)])


@pytest.mark.parametrize("sign", [1.0, -1.0, True])
def test_build_rejects_a_sign_that_is_not_an_int(sign):
    """1.0, -1.0 and True compare equal to a sign but are not one: a
    float sign would reach a tied verdict's common_sign, which the
    verifier then rejects."""
    with pytest.raises(BadParams):
        SignedGraph.build(3, [(0, 1, 1), (1, 2, sign), (2, 0, 1)])
    with pytest.raises(BadParams):
        add_edge(helpers.triangle(), 0, 1, sign)


@pytest.mark.parametrize("ends", [(0.0, 1), (0, 1.0), (True, 2)])
def test_build_rejects_a_vertex_id_that_is_not_an_int(ends):
    with pytest.raises(BadVertex):
        SignedGraph.build(3, [(*ends, 1)])
    with pytest.raises(BadVertex):
        add_edge(helpers.triangle(), *ends, 1)


def test_edge_id_out_of_range():
    g = helpers.triangle()
    with pytest.raises(BadEdge):
        g.edge(3)
    with pytest.raises(BadEdge):
        g.sign(-1)


def test_add_edge_appends():
    g = new_graph(3)
    assert g.m == 0
    g, e = add_edge(g, 0, 1, -1)
    assert e == 0
    assert g.sign(0) == -1
    g, e = add_edge(g, 0, 1, 1)
    assert e == 1
    assert parallel_class(g, 0) == frozenset({0, 1})


def test_adjacency_lists_every_incidence():
    g = helpers.theta()
    adj = g.adjacency
    assert sorted(eid for eid, _ in adj[0]) == [0, 1, 3]
    assert {w for _, w in adj[0]} == {1, 2, 3}
    assert g.degree(0) == 3


def test_parallel_class_includes_self():
    g = helpers.triangle()
    assert parallel_class(g, 1) == frozenset({1})


def test_parallel_class_matches_a_full_edge_scan():
    """Reading one endpoint's adjacency finds the same class as
    comparing the endpoints of every edge."""
    rng = random.Random(71)
    for seed in range(1000):
        n = rng.randrange(2, 7)
        g = random_signed_graph(n, rng.randrange(1, 3 * n), 0.5, seed)
        for e in range(g.m):
            ends = g.endpoints(e)
            scan = frozenset(i for i in range(g.m) if g.endpoints(i) == ends)
            assert parallel_class(g, e) == scan


def test_switch_empty_is_identity():
    g = helpers.k4(signs=[1, -1, 1, -1, 1, 1])
    assert switch(g, ()) == g


def test_switch_is_an_involution():
    g = helpers.prism(signs=[1, -1, 1, 1, 1, -1, 1, 1, -1])
    assert switch(switch(g, {0, 4}), {0, 4}) == g


def test_switch_flips_exactly_the_cut():
    g = helpers.triangle(1, 1, 1)
    h = switch(g, {0})
    # edges 0 and 2 touch vertex 0, edge 1 does not
    assert h.sign(0) == -1
    assert h.sign(1) == 1
    assert h.sign(2) == -1


def test_switching_shares_what_the_source_has_built():
    """Switching changes signs only.  A switched graph shares the
    adjacency its source has built, and builds none the source lacks; a
    switched slice shares the reference maps its source has built."""
    g = helpers.prism(signs=[1, -1, 1, 1, 1, -1, 1, 1, -1])
    assert "adjacency" not in switch(g, {0}).__dict__
    adj = g.adjacency
    h = switch(g, {0})
    assert h.adjacency is adj and h.sign(0) == -g.sign(0)
    sl = Slice.identity(g)
    idx = sl.edge_index
    out = sl.switched({0})
    assert out.g == h and out.g.adjacency is adj
    assert (out.eref, out.vref) == (sl.eref, sl.vref)
    assert out.edge_index is idx and "vert_index" not in out.__dict__


def test_switch_preserves_every_cycle_sign():
    """Signs of edge subsets forming cycles are switching invariants."""
    g = helpers.wheel(4, spoke_signs=[1, -1, 1, -1], rim_signs=[-1, 1, 1, 1])
    h = switch(g, {0, 2, 3})
    before = {s: helpers.set_sign(g, s) for s in helpers.subset_cycles(g)}
    after = {s: helpers.set_sign(h, s) for s in helpers.subset_cycles(h)}
    assert before == after


def test_delete_edge_map():
    g = helpers.k4()
    h, emap = delete_edge(g, 2)
    assert h.m == 5
    assert 2 not in emap
    assert emap[3] == 2
    assert h.endpoints(emap[5]) == g.endpoints(5)


def test_delete_edges_map():
    g = helpers.k4()
    h, emap = delete_edges(g, {0, 4})
    assert h.m == 4
    assert set(emap) == {1, 2, 3, 5}
    for old, new in emap.items():
        assert h.endpoints(new) == g.endpoints(old)
        assert h.sign(new) == g.sign(old)


def _random_keep(rng, g):
    return sorted(rng.sample(range(g.m), rng.randrange(1, g.m + 1)))


def test_slice_sub_is_edge_deletion_minus_isolated_vertices():
    rng = random.Random(41)
    for _ in range(60):
        g = helpers.random_2_connected(rng, rng.randrange(3, 9), rng.randrange(0, 8))
        keep = _random_keep(rng, g)
        sub = Slice.identity(g).sub(keep)
        h, _ = delete_edges(g, set(range(g.m)) - set(keep))
        isolated = [v for v in range(h.n) if h.degree(v) == 0]
        for v in reversed(isolated):
            h, _, _ = delete_vertex(h, v)
        assert sub.g == h
        assert sub.eref == tuple(keep)
        assert sub.vref == tuple(v for v in range(g.n) if v not in isolated)


def test_slice_sub_appends_markers_without_new_vertices():
    rng = random.Random(43)
    for _ in range(40):
        g = helpers.random_2_connected(rng, rng.randrange(3, 9), rng.randrange(0, 8))
        keep = _random_keep(rng, g)
        plain = Slice.identity(g).sub(keep)
        ends = sorted({x for i in keep for x in g.endpoints(i)})
        markers = [
            (f"m{k}", *rng.sample(ends, 2), rng.choice((1, -1))) for k in range(3)
        ]
        sub = Slice.identity(g).sub(keep, markers)
        assert sub.vref == plain.vref
        assert sub.g.edges[: len(keep)] == plain.g.edges
        assert sub.eref == plain.eref + ("m0", "m1", "m2")
        for (name, u, v, s), eid in zip(markers, range(len(keep), sub.g.m)):
            e = sub.g.edge(eid)
            assert (sub.vref[e.u], sub.vref[e.v], e.sign) == (u, v, s)


def test_slice_sub_of_sub_maps_back_to_original_ids():
    rng = random.Random(47)
    for _ in range(40):
        g = helpers.random_2_connected(rng, rng.randrange(4, 9), rng.randrange(2, 8))
        keep = _random_keep(rng, g)
        ends = sorted({x for i in keep for x in g.endpoints(i)})
        if len(ends) < 2:
            continue
        u, v = rng.sample(ends, 2)
        first = Slice.identity(g).sub(keep, [("m0", u, v, -1)])
        vidx = first.vert_index
        second = first.sub(
            _random_keep(rng, first.g), [("m1", vidx[u], vidx[v], 1)]
        )
        for eid, ref in enumerate(second.eref):
            e = second.g.edge(eid)
            back = frozenset((second.vref[e.u], second.vref[e.v]))
            if ref == "m0":
                assert (back, e.sign) == (frozenset((u, v)), -1)
            elif ref == "m1":
                assert (back, e.sign) == (frozenset((u, v)), 1)
            else:
                assert (back, e.sign) == (g.endpoints(ref), g.sign(ref))
        assert second.eref[-1] == "m1"
        assert list(second.vref) == sorted(second.vref)


def test_slice_sub_validates_markers_and_kept_ids():
    """Each kept id is bounds-checked by g.edge and each marker is
    validated like a new edge."""
    sl = Slice.identity(helpers.k4())
    with pytest.raises(LoopRejected):
        sl.sub([0, 1], [("m0", 0, 0, 1)])
    with pytest.raises(BadParams):
        sl.sub([0, 1], [("m0", 0, 1, 2)])
    with pytest.raises(BadEdge):
        sl.sub([0, sl.g.m])


def test_a_full_cut_returns_the_slice_itself():
    """Every edge id in order, no marker and no isolated vertex would
    copy an equal slice, so sub returns the slice itself with the maps
    it has built; an isolated vertex, a marker, a missing edge or a
    repeated id still gets a fresh, renumbered slice."""
    g = helpers.k4()
    sl = Slice.identity(g)
    idx = sl.edge_index
    assert sl.sub(range(g.m)) is sl and sl.sub(list(range(g.m))) is sl
    assert sl.edge_index is idx
    marked = sl.sub([0, 1, 2, 3], [("m0", 0, 1, -1)])
    assert marked.sub(range(marked.g.m)) is marked
    isolated = Slice.identity(SignedGraph.build(5, [(e.u, e.v, e.sign) for e in g.edges]))
    fresh = {
        "isolated vertex": (isolated, isolated.sub(range(g.m))),
        "marker": (sl, sl.sub(range(g.m), [("m1", 0, 1, 1)])),
        "missing edge": (sl, sl.sub(range(1, g.m))),
        "repeated id": (sl, sl.sub([0, 1, 2, 3, 4, 4])),
    }
    for what, (base, out) in fresh.items():
        assert out is not base and out.g is not base.g, what
    assert fresh["isolated vertex"][1].vref == (0, 1, 2, 3)
    assert fresh["isolated vertex"][1].g == g
    assert fresh["marker"][1].eref == tuple(range(g.m)) + ("m1",)
    assert fresh["missing edge"][1].eref == tuple(range(1, g.m))
    assert fresh["repeated id"][1].eref == (0, 1, 2, 3, 4, 4)


def test_a_full_cut_checks_no_id(monkeypatch):
    """A full cut is told apart before any id is checked, so it makes no
    SignedGraph.edge call; a full-length keep holding True or 1.0 is no
    full cut, and its ids are checked one by one."""
    g = helpers.k4()
    sl = Slice.identity(g)
    calls = [0]
    real = SignedGraph.edge

    def counting(graph, e):
        calls[0] += 1
        return real(graph, e)

    monkeypatch.setattr(SignedGraph, "edge", counting)
    assert sl.sub(range(g.m)) is sl and sl.sub(list(range(g.m))) is sl
    assert calls == [0]
    for bad in (True, 1.0):
        with pytest.raises(BadEdge):
            sl.sub([0, bad, 2, 3, 4, 5])
    assert sl.sub(range(1, g.m)).eref == tuple(range(1, g.m))
    assert calls[0] > 0


@pytest.mark.parametrize("bad", [True, 1.0, -1, "m"], ids=["True", "1.0", "-1", "m"])
def test_a_partial_cut_checks_every_id(bad):
    sl = Slice.identity(helpers.k4())
    bad = sl.g.m if bad == "m" else bad
    with pytest.raises(BadEdge, match="out of range"):
        sl.sub([0, bad])


def test_edge_is_an_immutable_record():
    """Edge is a named tuple: its fields cannot be assigned, it keeps
    its methods and its repr, and it equals the plain (u, v, sign)."""
    e = SignedGraph.build(2, [(0, 1, 1)]).edge(0)
    with pytest.raises(AttributeError):
        e.u = 1
    with pytest.raises(AttributeError):
        e.sign = -1
    assert repr(e) == "Edge(u=0, v=1, sign=1)"
    assert e.endpoints() == frozenset((0, 1))
    assert (e.other(0), e.other(1)) == (1, 0)
    assert e.touches(1) and not e.touches(2)
    with pytest.raises(BadVertex):
        e.other(2)
    assert e == (0, 1, 1) and tuple(e) == (0, 1, 1)


@pytest.mark.parametrize("name", [0, 5, True, None, 1.0, "m0"])
def test_slice_sub_takes_only_fresh_string_marker_names(name):
    """Every reference of a slice names exactly one edge: a marker name
    is a string that is neither a reference of the slice being cut, kept
    or not, nor another marker's name."""
    first = Slice.identity(helpers.k4()).sub([0, 1, 2, 3], [("m0", 0, 1, -1)])
    assert first.edge_index is first.edge_index
    with pytest.raises(BadParams, match="marker"):
        first.sub([0, 1], [(name, 0, 1, 1)])
    with pytest.raises(BadParams, match="marker"):
        first.sub([0, 1], [("m1", 0, 1, 1), ("m1", 0, 1, -1)])
    assert first.sub([0, 1], [("m1", 0, 1, 1), ("m2", 0, 1, -1)]).eref[-2:] == ("m1", "m2")


def test_delete_vertex_compacts_ids():
    g = helpers.prism()
    h, vmap, emap = delete_vertex(g, 2)
    assert h.n == 5
    assert vmap == {0: 0, 1: 1, 3: 2, 4: 3, 5: 4}
    # edges 1, 2, 8 touch vertex 2 and must be gone
    assert set(emap) == {0, 3, 4, 5, 6, 7}
    for old, new in emap.items():
        u, v = g.endpoints(old)
        assert h.endpoints(new) == frozenset({vmap[u], vmap[v]})


def test_contract_positive_edge_merges_and_drops_parallels():
    g = SignedGraph.build(3, [(0, 1, 1), (0, 1, -1), (1, 2, 1), (2, 0, 1)])
    h, vmap, emap = contract_edge(g, 0)
    assert h.n == 2
    assert vmap[0] == vmap[1] == 0
    # the whole parallel class at 0-1 disappears, not just edge 0
    assert set(emap) == {2, 3}
    assert h.m == 2


def test_contract_negative_edge_keeps_cycle_signs():
    """Contracting one triangle edge leaves a 2-cycle of the same sign."""
    g = helpers.triangle(1, -1, 1)  # triangle sign -1
    h, _, emap = contract_edge(g, 1)
    assert h.n == 2
    rest = frozenset(emap.values())
    assert helpers.is_cycle_set(h, rest)
    assert helpers.set_sign(h, rest) == -1


def test_contract_preserves_subset_cycle_signs():
    g = helpers.wheel(4, spoke_signs=[1, 1, -1, 1], rim_signs=[1, -1, 1, 1])
    h, _, emap = contract_edge(g, 2)
    survivors = set(emap)
    for old_set in helpers.subset_cycles(g):
        if not old_set <= survivors:
            continue
        new_set = frozenset(emap[e] for e in old_set)
        if helpers.is_cycle_set(h, new_set):
            assert helpers.set_sign(h, new_set) == helpers.set_sign(g, old_set)


def test_cycle_from_edges_triangle():
    g = helpers.triangle()
    c = Cycle.from_edges(g, [1, 2, 0])
    assert c.edges[0] == 0
    assert len(c) == 3
    assert 1 in c
    assert set(c.vertices) == {0, 1, 2}


def test_cycle_canonical_under_rotation_and_reflection():
    g = helpers.cycle_graph(5)
    base = Cycle.from_edges(g, [0, 1, 2, 3, 4])
    for rot in range(5):
        seq = [(i + rot) % 5 for i in range(5)]
        assert Cycle.from_edges(g, seq) == base
        assert Cycle.from_edges(g, list(reversed(seq))) == base


def test_cycle_vertex_alignment():
    # edges[i] joins vertices[i] to vertices[i+1], cyclically
    g = helpers.cycle_graph(4)
    c = Cycle.from_edges(g, [0, 1, 2, 3])
    k = len(c)
    for i in range(k):
        ends = g.endpoints(c.edges[i])
        assert ends == frozenset({c.vertices[i], c.vertices[(i + 1) % k]})


def test_two_parallel_edges_form_a_cycle():
    g = SignedGraph.build(2, [(0, 1, 1), (0, 1, -1)])
    c = Cycle.from_edges(g, [1, 0])
    assert c.edges == (0, 1)
    assert cycle_sign(g, c) == -1


def test_cycle_rejections():
    g = helpers.theta()
    with pytest.raises(NotACycle):
        Cycle.from_edges(g, [0])
    with pytest.raises(NotACycle):
        Cycle.from_edges(g, [0, 0])
    with pytest.raises(NotACycle):
        Cycle.from_edges(g, [0, 2])  # not parallel
    with pytest.raises(NotACycle):
        Cycle.from_edges(g, [1, 2, 3])  # does not close
    g2 = SignedGraph.build(6, [(i, (i + 1) % 3, 1) for i in range(3)]
                           + [(i + 3, (i + 1) % 3 + 3, 1) for i in range(3)])
    with pytest.raises(NotACycle):
        Cycle.from_edge_set(g2, range(6))  # two disjoint triangles


def test_cycle_from_edge_set_matches_subset_oracle():
    g = helpers.k4(signs=[1, 1, -1, 1, -1, 1])
    for s in helpers.subset_cycles(g):
        c = Cycle.from_edge_set(g, s)
        assert frozenset(c.edges) == s
        assert cycle_sign(g, c) == helpers.set_sign(g, s)


def test_cycle_sign_validates_graph_match():
    g = helpers.triangle()
    other = helpers.cycle_graph(4)
    c = Cycle.from_edges(other, [0, 1, 2, 3])
    with pytest.raises((NotACycle, BadEdge)):
        cycle_sign(g, c)


# a triangle on 0, 1, 2 and one on 1, 2, 3: the same edge ids, other vertices
_SHIFTED = SignedGraph.build(4, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])


@pytest.mark.parametrize(
    "make, message",
    [
        # edges (0, 2) and (3, 1) share no vertex
        (lambda: Cycle.from_edges(helpers.theta(), [1, 4, 3]), "consecutive edges do not chain"),
        (lambda: Cycle.from_edge_set(helpers.theta(), [0]), "a cycle needs at least 2 edges"),
        (
            lambda: cycle_sign(helpers.triangle(), Cycle.from_edges(_SHIFTED, [0, 1, 2])),
            "cycle does not match this graph",
        ),
    ],
    ids=["not-chained", "one-edge-set", "other-vertices"],
)
def test_cycle_rejections_name_the_fault(make, message):
    with pytest.raises(NotACycle, match=message):
        make()


def test_sign_characters_round_trip_and_reject_others():
    assert [char_sign(sign_char(s)) for s in (1, -1)] == [1, -1]
    with pytest.raises(ValueError, match="sign must be '\\+' or '-', got 'x'"):
        char_sign("x")


def test_hat_gadget_layout():
    gi = build_hat()
    g = gi.graph
    assert (g.n, g.m) == (3, 4)
    assert parallel_class(g, 0) == frozenset({0, 1})
    assert {g.sign(0), g.sign(1)} == {1, -1}
    assert (gi.e1, gi.e2) == (2, 3)
    assert g.endpoints(gi.e1) == frozenset({0, 2})
    assert g.endpoints(gi.e2) == frozenset({1, 2})
    assert cycle_sign(g, gi.distinguished_cycle) == -1


def test_target_gadget_layout():
    gi = build_target()
    g = gi.graph
    assert (g.n, g.m) == (4, 6)
    assert (gi.e1, gi.e2) == (4, 5)
    # the rim 4-cycle is negative, the two chords cross it
    rim = frozenset({0, 1, 2, 3})
    assert helpers.is_cycle_set(g, rim)
    assert helpers.set_sign(g, rim) == -1
    assert frozenset(gi.distinguished_cycle.edges) == rim
    assert g.endpoints(4) & g.endpoints(5) == frozenset()


def test_hedgehog_gadget_layout():
    gi = build_hedgehog()
    g = gi.graph
    assert (g.n, g.m) == (5, 9)
    tri = frozenset({0, 1, 2})
    assert helpers.is_cycle_set(g, tri)
    assert helpers.set_sign(g, tri) == -1
    assert frozenset(gi.distinguished_cycle.edges) == tri
    # three spokes to each of the two apex vertices
    assert g.degree(3) == 3
    assert g.degree(4) == 3
    assert g.endpoints(gi.e1) <= frozenset({0, 1, 2, 3})
    assert g.endpoints(gi.e2) <= frozenset({0, 1, 2, 4})
