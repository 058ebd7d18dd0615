import random

import pytest

import helpers
import sgties.connectivity
import sgties.decide
from sgties import (
    KIND_TIED,
    KIND_UNTIED,
    KIND_VACUOUS,
    SMALL_LEAF,
    NotTwoConnected,
    PreconditionViolated,
    ReductionLeaf,
    ReductionSplit,
    SameEdge,
    SignedGraph,
    Slice,
    add_edge,
    blocks,
    build_hat,
    build_hedgehog,
    build_target,
    check_leaf,
    compose_tied_instance,
    cycle_sign,
    cycle_through_three,
    decide_tied,
    delete_edges,
    enumerate_common_cycles,
    find_signed_path,
    is_2_connected,
    is_3_connected,
    ladder,
    lovasz_three_edges,
    oracle_tied,
    parallel_class,
    random_3_connected,
    random_recipe,
    random_signed_graph,
    reduce,
    switch,
    verdict_to_doc,
    verify_certificate,
)


def k4_case3() -> SignedGraph:
    """A 4-cycle 0-2-1-3 of positive edges plus the chords as the pair."""
    return SignedGraph.build(
        4,
        [(0, 2, 1), (2, 1, 1), (1, 3, 1), (3, 0, 1), (0, 1, -1), (2, 3, 1)],
    )


def assert_untied_witness(g, v, e1, e2):
    assert v.kind == KIND_UNTIED
    p, n = v.witness
    assert cycle_sign(g, p) == 1
    assert cycle_sign(g, n) == -1
    for c in (p, n):
        assert e1 in c and e2 in c


# --- decide_tied end to end -------------------------------------------------


def test_decide_hat():
    gi = build_hat()
    v = decide_tied(gi.graph, gi.e1, gi.e2)
    assert_untied_witness(gi.graph, v, gi.e1, gi.e2)
    assert {frozenset(c.edges) for c in v.witness} == {
        frozenset({0, 2, 3}),
        frozenset({1, 2, 3}),
    }


def test_decide_target_and_hedgehog():
    for gi in (build_target(), build_hedgehog()):
        v = decide_tied(gi.graph, gi.e1, gi.e2)
        assert_untied_witness(gi.graph, v, gi.e1, gi.e2)


def test_decide_k4_case3_tied_negative():
    g = k4_case3()
    v = decide_tied(g, 4, 5)
    assert v.kind == KIND_TIED
    assert v.common_sign == -1
    assert len(v.witness) == 1
    assert verify_certificate(g, 4, 5, v) == (True, "ok")


def test_decide_k4_all_positive_tied():
    g = helpers.k4()
    v = decide_tied(g, 0, 5)
    assert (v.kind, v.common_sign) == (KIND_TIED, 1)


def test_decide_k4_unbalanced_remainder_untied():
    # nonadjacent pair whose removal leaves an unbalanced 4-cycle
    g = helpers.k4(signs=[1, -1, 1, 1, 1, 1])
    v = decide_tied(g, 0, 5)
    assert_untied_witness(g, v, 0, 5)


def test_decide_parallel_pair():
    gi = build_hat()
    v = decide_tied(gi.graph, 0, 1)
    assert (v.kind, v.common_sign) == (KIND_TIED, -1)
    (c,) = v.witness
    assert frozenset(c.edges) == frozenset({0, 1})
    assert v.certificate == {"kind": "parallel-pair", "sign": -1}
    assert verify_certificate(gi.graph, 0, 1, v)[0]


def test_decide_vacuous_across_blocks():
    g = helpers.two_triangles_shared_vertex()
    v = decide_tied(g, 0, 4)
    assert v.kind == KIND_VACUOUS
    assert v.common_sign is None
    assert not v.witness
    assert "block" in v.reason
    assert v.certificate["kind"] == "blocks"
    assert verify_certificate(g, 0, 4, v)[0]


def test_decide_strips_edges_parallel_to_the_pair():
    g, extra = add_edge(k4_case3(), 0, 1, 1)  # parallel to e1 = 4
    v = decide_tied(g, 4, 5)
    assert (v.kind, v.common_sign) == (KIND_TIED, -1)
    assert v.certificate["kind"] == "preprocess"
    assert extra in v.certificate["removed"]
    assert verify_certificate(g, 4, 5, v)[0]


def test_decide_same_edge_rejected():
    with pytest.raises(SameEdge):
        decide_tied(helpers.k4(), 3, 3)


def test_decide_works_outside_2_connected_graphs():
    # a bridge hangs off a square; the pair sits inside the square block
    g = SignedGraph.build(
        5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, -1), (0, 4, 1)]
    )
    v = decide_tied(g, 0, 2)
    assert (v.kind, v.common_sign) == (KIND_TIED, -1)
    assert verify_certificate(g, 0, 2, v)[0]
    w = oracle_tied(g, 0, 2)
    assert w.kind == v.kind


def test_decide_is_deterministic():
    g = helpers.two_k4_on_boundary([1, -1, 1, 1, 1, 1, 1, -1, 1, 1])
    a = decide_tied(g, 4, 9)
    b = decide_tied(g, 4, 9)
    assert verdict_to_doc(a, 4, 9) == verdict_to_doc(b, 4, 9)


@pytest.mark.parametrize(
    "args, pair, searches, witness",
    [
        ((6, 10, 0.5, 11), (7, 8), 1, [(0, 6, 5, 8, 7), (0, 6, 4, 8, 7)]),
        (
            (8, 14, 0.5, 24),
            (5, 12),
            3,
            [(0, 2, 5, 4, 7, 12, 3), (0, 2, 5, 10, 7, 12, 3)],
        ),
    ],
    ids=["part2", "part3"],
)
def test_part23_lift_searches_each_marker_path_once(monkeypatch, args, pair, searches, witness):
    """Both witness cycles pass through one marker of a part-2/3 split
    (twice m0 under a part-2 root; twice m2, then m0 and m1 under a
    part-3 root), so the path standing in for it is searched once and
    spliced into both; a lift that searched per cycle would count 2 and
    4."""
    calls = []
    original = sgties.decide._marker_path

    def counting(split, marker):
        calls.append((id(split), marker[0]))
        return original(split, marker)

    monkeypatch.setattr(sgties.decide, "_marker_path", counting)
    g = random_signed_graph(*args)
    v = decide_tied(g, *pair)
    assert len(calls) == len(set(calls)) == searches
    assert [c.edges for c in v.witness] == witness


def _outer_cycle_sign(g, rungs):
    s = g.sign(0) * g.sign(rungs - 1)
    for eid in range(rungs, 3 * rungs - 2):
        s *= g.sign(eid)
    return s


def test_long_ladder_is_tied_with_its_outer_cycle_sign():
    """80 rungs nest 156 part-1 splits; the common cycle is the outer one."""
    g, e1, e2 = ladder(80, 5)
    v = decide_tied(g, e1, e2)
    assert v.kind == KIND_TIED
    assert v.common_sign == _outer_cycle_sign(g, 80)
    (c,) = v.witness
    assert len(c.edges) == 2 * 80
    assert verify_certificate(g, e1, e2, verdict_to_doc(v, e1, e2)) == (True, "ok")


def test_doubled_ladder_is_untied_with_a_verified_pair():
    """The sibling cycle at each part-1 lift is the rest of the outer cycle.

    Both outer cycles run along rung 0, the top rail (40..78), rung 39
    and the bottom rail back; the negative one takes the doubled copy
    118 of rail edge 53.  Both are pinned edge for edge and vertex for
    vertex through the 76 nested lifts."""
    g, e1, e2 = ladder(40, 5, doubled=True)
    v = decide_tied(g, e1, e2)
    assert_untied_witness(g, v, e1, e2)
    outer = [0, *range(40, 79), 39, *range(117, 78, -1)]
    assert [list(c.edges) for c in v.witness] == [
        outer,
        [118 if e == 53 else e for e in outer],
    ]
    ring = [40, *range(40), *range(79, 40, -1)]
    assert [list(c.vertices) for c in v.witness] == [ring, ring]
    assert verify_certificate(g, e1, e2, verdict_to_doc(v, e1, e2)) == (True, "ok")


# --- untied witnesses built by flow and fans -----------------------------------


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the untied leaves whose second cycle needed self-reduction."""
    calls = []
    original = sgties.decide._self_reduce

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sgties.decide, "_self_reduce", counting)
    return calls


@pytest.mark.parametrize("seed", [430892094, 222406854, 529756440, 1385408903])
def test_large_untied_leaf_gets_its_pair_from_one_ear(fallbacks, seed):
    """3-connected n=80 leaves where a depth-first search of the
    opposite-sign cycle ran out of a 10^6 budget: the flow cycle plus
    one ear through the unbalanced rest of the graph gives the pair."""
    g = random_3_connected(80, 80, 0.5, seed)
    e1, e2 = 0, g.m - 1
    v = decide_tied(g, e1, e2)
    assert_untied_witness(g, v, e1, e2)
    assert verify_certificate(g, e1, e2, verdict_to_doc(v, e1, e2)) == (True, "ok")
    assert fallbacks == []


def test_leaf_without_a_single_ear_falls_back_to_self_reduction(fallbacks):
    """In the target gadget the pair is a perfect matching of K4: the flow
    cycle's halves are single edges and both chords cross between them,
    so the other common cycle differs from it by two crossing ears."""
    gi = build_target()
    v = decide_tied(gi.graph, gi.e1, gi.e2)
    assert_untied_witness(gi.graph, v, gi.e1, gi.e2)
    assert verify_certificate(gi.graph, gi.e1, gi.e2, v) == (True, "ok")
    assert len(fallbacks) == 1


def test_untied_witnesses_are_opposite_sign_common_cycles(fallbacks):
    """Over every way two edges can meet, an untied verdict's cycles are
    genuine common cycles of opposite signs, as the enumerator lists
    them, and tied verdicts agree with it."""
    meets = {"parallel": 0, "shared": 0, "disjoint": 0}
    untied = 0
    for seed in range(2400):
        rng = random.Random(seed)
        n = rng.randint(5, 8)
        m = rng.randint(n, 2 * n + 2)
        g = random_signed_graph(n, m, 0.5, seed)
        e1, e2 = rng.sample(range(m), 2)
        ends1, ends2 = g.endpoints(e1), g.endpoints(e2)
        meets[
            "parallel" if ends1 == ends2 else "shared" if ends1 & ends2 else "disjoint"
        ] += 1
        rep = enumerate_common_cycles(g, e1, e2)
        v = decide_tied(g, e1, e2)
        assert v.tied == (not (rep.positive_count and rep.negative_count)), seed
        if not v.tied:
            untied += 1
            assert_untied_witness(g, v, e1, e2)
            assert all(c in rep.cycles for c in v.witness), seed
    assert min(meets.values()) >= 100
    assert untied >= 500
    assert 0 < len(fallbacks) < untied // 10


# --- reduction trees ---------------------------------------------------------


def test_reduce_3_connected_is_a_single_leaf():
    g = helpers.k4()
    tree = reduce(g, 0, 5)
    assert isinstance(tree, ReductionLeaf)
    assert tree.sl == Slice.identity(g)
    assert (tree.e1, tree.e2) == (0, 5)


def test_reduce_two_k4_part1():
    """A straddling pair over the unique 2-separation splits once; each
    child keeps one side plus a positive marker standing in for the other."""
    g = helpers.two_k4_on_boundary()
    tree = reduce(g, 4, 9)
    assert isinstance(tree, ReductionSplit)
    assert tree.part == 1
    assert set(tree.boundary) == {0, 1}
    assert len(tree.children) == 2
    pairs = sorted(ch.pair_refs for ch in tree.children)
    assert pairs == [(4, "m0"), (9, "m1")]
    for ch in tree.children:
        assert isinstance(ch.node, ReductionLeaf)
        ((_, u, v, sign),) = ch.markers
        assert sign == 1
        assert {tree.sl.vref[u], tree.sl.vref[v]} == {0, 1}
        assert ch.removed == ()


def test_reduce_part2_balanced_far_side():
    g = helpers.two_k4_on_boundary()  # all positive, pair in the left piece
    tree = reduce(g, 4, 0)
    assert tree.part == 2
    assert tree.kept in (1, 2)
    assert tree.resign == ()  # far side already all positive
    assert tree.neg_cycle is None
    (ch,) = tree.children
    ((_, _, _, sign),) = ch.markers
    assert sign == 1


def test_reduce_part3_unbalanced_far_side():
    signs = [1] * 10
    signs[9] = -1  # a negative triangle in the right piece
    g = helpers.two_k4_on_boundary(signs)
    tree = reduce(g, 4, 0)
    assert tree.part == 3
    assert tree.neg_cycle is not None
    (ch,) = tree.children
    assert sorted(sign for _, _, _, sign in ch.markers) == [-1, 1]
    assert isinstance(ch.node, ReductionLeaf)


def test_reduce_preconditions():
    with pytest.raises(NotTwoConnected):
        reduce(helpers.two_triangles_shared_vertex(), 0, 4)
    g, extra = add_edge(helpers.k4(), 0, 1, -1)
    with pytest.raises(PreconditionViolated):
        reduce(g, 0, 5)  # edge parallel to the pair was not stripped


def test_reduce_leaves_above_small_leaf_are_3_connected():
    """The leaf evaluation trusts the reduction: a leaf above SMALL_LEAF
    vertices is one where no 2-separation was found, no leaf's pair is
    mutually parallel, and every replaced side joins its boundary by a
    path of each of its markers' signs (so every marker can be lifted)."""
    roots = []
    for seed in range(40):
        g, e1, e2 = compose_tied_instance(random_recipe(seed, max_depth=3), seed)
        drop = (parallel_class(g, e1) | parallel_class(g, e2)) - {e1, e2}
        h, emap = delete_edges(g, sorted(drop))
        assert h.endpoints(emap[e1]) != h.endpoints(emap[e2])
        roots.append((h, emap[e1], emap[e2]))
    # random pairs where one edge joins a 2-cut, which a part-1 split
    # must keep on the other edge's side
    for seed in range(100):
        g = random_signed_graph(8, 14, 0.5, seed)
        for e1, e2 in ((1, 5), (0, 13)):
            drop = (parallel_class(g, e1) | parallel_class(g, e2)) - {e1, e2}
            h, emap = delete_edges(g, sorted(drop))
            if h.endpoints(emap[e1]) != h.endpoints(emap[e2]) and is_2_connected(h):
                roots.append((h, emap[e1], emap[e2]))
    big = replaced = 0
    for root in roots:
        stack = [reduce(*root)]
        while stack:
            node = stack.pop()
            if isinstance(node, ReductionLeaf):
                assert node.sl.g.endpoints(node.e1) != node.sl.g.endpoints(node.e2)
                if node.sl.g.n > SMALL_LEAF:
                    big += 1
                    assert is_3_connected(node.sl.g)
                continue
            stack.extend(ch.node for ch in node.children)
            if node.part == 1:
                continue
            vidx = node.discard.vert_index()
            for _, u, v, sign in node.children[0].markers:
                replaced += 1
                res = find_signed_path(
                    node.discard.g, vidx[node.sl.vref[u]], vidx[node.sl.vref[v]], sign
                )
                assert res.complete and res.path is not None
    assert big > 20
    assert replaced > 20


def _random_block_roots(count):
    """Reduction inputs from seeded random pairs, preprocessed as
    decide_tied does: edges parallel to the pair dropped, then the graph
    cut down to the pair's block."""
    roots, seed = [], 0
    while len(roots) < count:
        rng = random.Random(seed)
        n = rng.randrange(5, 10)
        g = random_signed_graph(n, rng.randrange(n, 2 * n + 1), 0.5, seed)
        seed += 1
        e1, e2 = rng.sample(range(g.m), 2)
        if g.endpoints(e1) == g.endpoints(e2):
            continue
        drop = (parallel_class(g, e1) | parallel_class(g, e2)) - {e1, e2}
        h, emap = delete_edges(g, sorted(drop))
        block = blocks(h).block_of(emap[e1])
        if emap[e2] not in block:
            continue
        blk = Slice.identity(h).sub(sorted(block))
        idx = blk.edge_index()
        roots.append((blk.g, idx[emap[e1]], idx[emap[e2]]))
    return roots


def test_part2_discard_is_the_far_side_of_the_switched_graph():
    """A part-2 split switches its far side on its own; that slice equals
    the far side cut out of the whole switched graph."""
    part2 = 0
    for root in _random_block_roots(200):
        stack = [reduce(*root)]
        while stack:
            node = stack.pop()
            if isinstance(node, ReductionLeaf):
                continue
            stack.extend(ch.node for ch in node.children)
            if node.part == 2:
                part2 += 1
                sl = node.sl
                work = Slice(switch(sl.g, node.resign), sl.eref, sl.vref)
                far = node.side2 if node.kept == 1 else node.side1
                assert node.discard == work.sub(far)
    assert part2 > 20


def test_every_reduction_slice_is_2_connected_with_a_parallel_free_pair():
    """The reduction searches for separations without re-proving
    2-connectivity at each level.  That rests on every slice it reaches
    being 2-connected, and on no child's pair edge keeping a parallel
    companion; both are checked at every node here."""
    roots = _random_block_roots(200)
    for rungs in (10, 40):
        roots += [ladder(rungs, 3), ladder(rungs, 4, doubled=True)]
    splits = 0
    for root in roots:
        stack = [reduce(*root)]
        while stack:
            node = stack.pop()
            g = node.sl.g
            assert is_2_connected(g)
            for eid in (node.e1, node.e2):
                assert parallel_class(g, eid) == frozenset((eid,))
            if isinstance(node, ReductionSplit):
                splits += 1
                stack.extend(ch.node for ch in node.children)
    assert splits > 300


def test_ladder_decide_block_searches_are_pinned(monkeypatch):
    """A 40-rung ladder nests 76 splits.  Each level costs only the
    cut-pair search's calls to blocks; a 2-connectivity re-proof per
    level would add about one call each."""
    calls = []
    real = sgties.connectivity.blocks

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (sgties.connectivity, sgties.decide):
        monkeypatch.setattr(mod, "blocks", counting)
    g, e1, e2 = ladder(40, 1)
    assert decide_tied(g, e1, e2).kind == KIND_TIED
    assert len(calls) == 117


def test_reduce_marker_names_are_fresh_per_call():
    g = helpers.two_k4_on_boundary()
    t1 = reduce(g, 4, 9)
    t2 = reduce(g, 4, 9)
    names = lambda t: [mk[0] for ch in t.children for mk in ch.markers]
    assert names(t1) == names(t2) == ["m0", "m1"]


# --- leaf characterization ----------------------------------------------------


def test_check_leaf_case1_doubled_rung():
    g = helpers.prism_doubled_rung()
    lv = check_leaf(g, 8, 9)
    assert lv.tied
    assert lv.case == "case1"
    assert lv.node["F"] == [6, 7]
    # X and its complement split the graph so that F plus the pair is
    # exactly the crossing edge set
    x = set(lv.node["X"])
    cut = {
        e for e in range(g.m) if len(g.endpoints(e) & x) == 1
    }
    assert cut == {6, 7, 8, 9}
    assert verify_certificate(g, 8, 9, decide_tied(g, 8, 9))[0]


def test_check_leaf_case2_shared_hub():
    g = helpers.wheel(5, spoke_signs=[1, -1, 1, 1, -1])
    lv = check_leaf(g, 0, 2)
    assert lv.tied
    assert lv.case == "case2"
    assert lv.node["v"] == 0


def test_check_leaf_case3():
    lv = check_leaf(k4_case3(), 4, 5)
    assert lv.tied
    assert lv.case == "case3"
    assert "switch" in lv.node


def test_check_leaf_case_order_prefers_case2():
    # an all-positive wheel satisfies both the shared-vertex and the
    # balanced-remainder conditions; the earlier case must be reported
    lv = check_leaf(helpers.wheel(5), 0, 2)
    assert lv.case == "case2"


def test_check_leaf_untied():
    gi = build_hedgehog()
    lv = check_leaf(gi.graph, gi.e1, gi.e2)
    assert not lv.tied
    assert lv.case is None
    assert lv.node is None
    assert not check_leaf(helpers.k4([1, -1, 1, 1, 1, 1]), 0, 5).tied


def test_check_leaf_requires_3_connected():
    with pytest.raises(PreconditionViolated):
        check_leaf(helpers.cycle_graph(4), 0, 2)


# --- witness lifting ----------------------------------------------------------


def test_lift_witness_through_part1_split():
    """The left child of a part-1 root is untied; decide lifts its leaf
    witnesses through the split, splicing in the sibling's common cycle
    for the marker."""
    signs = [1] * 10
    signs[0] = -1  # makes the left child untied
    g = helpers.two_k4_on_boundary(signs)
    tree = reduce(g, 4, 9)
    assert isinstance(tree, ReductionSplit)
    assert tree.part == 1
    v = decide_tied(g, 4, 9)
    assert v.kind == KIND_UNTIED
    p, n = v.witness
    for c, want in ((p, 1), (n, -1)):
        assert cycle_sign(g, c) == want
        assert 4 in c and 9 in c
    assert verify_certificate(g, 4, 9, v)[0]


# --- three edges --------------------------------------------------------------


def test_lovasz_spec_shapes():
    g = k4_case3()
    r = lovasz_three_edges(g, 0, 1, 5)
    assert not r.cycle_exists
    assert r.reason == "common_vertex"
    r = lovasz_three_edges(g, 0, 2, 4)
    assert r.cycle_exists
    assert r.reason is None


def test_lovasz_disconnecting_matching():
    r = lovasz_three_edges(helpers.prism(), 6, 7, 8)
    assert not r.cycle_exists
    assert r.reason == "disconnecting"


def test_lovasz_common_vertex_takes_priority():
    # three edges at one vertex of K4 also disconnect it; the shared
    # vertex is the reported reason
    r = lovasz_three_edges(helpers.k4(), 0, 1, 2)
    assert r.reason == "common_vertex"


def test_lovasz_matches_enumeration():
    import itertools

    for g in (helpers.k4(), helpers.prism(), helpers.wheel(4)):
        for trip in itertools.combinations(range(g.m), 3):
            want, done = cycle_through_three(g, *trip)
            assert done
            assert lovasz_three_edges(g, *trip).cycle_exists == (want is not None)


def test_lovasz_preconditions():
    with pytest.raises(SameEdge):
        lovasz_three_edges(helpers.k4(), 1, 1, 2)
    with pytest.raises(SameEdge):
        cycle_through_three(helpers.k4(), 2, 1, 2)
    with pytest.raises(PreconditionViolated):
        lovasz_three_edges(helpers.cycle_graph(5), 0, 1, 2)
    gi = build_hat()  # parallel edges: not simple
    with pytest.raises(PreconditionViolated):
        lovasz_three_edges(gi.graph, 0, 2, 3)


# --- agreement with the oracle on assorted instances --------------------------


def test_decide_agrees_with_oracle_on_fixtures():
    fixtures = [
        (helpers.prism_doubled_rung(), 8, 9),
        (helpers.theta((1, 1, 1, 1, 1)), 0, 2),
        (helpers.theta((-1, 1, 1, 1, 1)), 0, 2),
        (helpers.wheel(4, spoke_signs=[1, 1, -1, 1]), 0, 2),
        (helpers.two_k4_on_boundary([1, -1, 1, 1, 1, 1, 1, 1, 1, -1]), 4, 9),
        (helpers.cycle_graph(5, [1, -1, 1, 1, 1]), 0, 2),
    ]
    for g, e1, e2 in fixtures:
        v = decide_tied(g, e1, e2)
        w = oracle_tied(g, e1, e2)
        assert v.kind == w.kind
        assert v.common_sign == w.common_sign
        ok, why = verify_certificate(g, e1, e2, v)
        assert ok, why
