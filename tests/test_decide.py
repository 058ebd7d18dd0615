import dataclasses
import random
import sys

import pytest

import helpers
import sgties.connectivity
import sgties.decide
import sgties.oracle
from sgties import (
    Cycle,
    KIND_TIED,
    KIND_UNTIED,
    KIND_VACUOUS,
    SMALL_LEAF,
    Leaf,
    NotTwoConnected,
    PreconditionViolated,
    ReductionLeaf,
    ReductionSplit,
    SameEdge,
    SignedGraph,
    Slice,
    Splice,
    add_edge,
    blocks,
    build_hat,
    build_hedgehog,
    build_target,
    check_leaf,
    components,
    compose_tied_instance,
    cycle_sign,
    cycle_through_three,
    decide_tied,
    delete_edges,
    enumerate_common_cycles,
    find_common_cycle,
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
    side_vertices,
    switch,
    verdict_to_doc,
    verify_certificate,
)
from sgties.core import sign_product


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
            (8, 14, 0.5, 53),
            (7, 10),
            2,
            [(1, 8, 13, 5, 7, 10), (1, 8, 13, 3, 7, 10)],
        ),
    ],
    ids=["part2", "part3"],
)
def test_part23_lift_searches_each_marker_path_once(monkeypatch, args, pair, searches, witness):
    """Both witness cycles pass through one marker of a part-2/3 split
    (twice m0 under a part-2 root; twice m2 under a part-3 child, then
    twice m0 under the part-3 root), so the path standing in for it is
    searched once and spliced into both; a lift that searched per cycle
    would count 2 and 4."""
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
    """80 rungs take 93 part-1 splits, nested 7 deep; the common cycle is
    the outer one."""
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
    vertex through the 6 nested lifts."""
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


def test_untied_leaf_with_an_unbalanced_component_and_no_fan():
    """The flow cycle of this leaf leaves an unbalanced component with
    no two attachments on one half that reach its negative cycle by
    disjoint paths, so that component gives no ear; the second cycle
    still comes out as a common cycle of the other sign."""
    g = random_signed_graph(9, 16, 0.5, 12260)
    v = decide_tied(g, 6, 14)
    assert_untied_witness(g, v, 6, 14)
    rep = enumerate_common_cycles(g, 6, 14)
    assert all(c in rep.cycles for c in v.witness)
    assert verify_certificate(g, 6, 14, verdict_to_doc(v, 6, 14)) == (True, "ok")


def _seeded_pairs():
    """2,400 random pairs, n 5..8, over every way two edges can meet."""
    for seed in range(2400):
        rng = random.Random(seed)
        n = rng.randint(5, 8)
        m = rng.randint(n, 2 * n + 2)
        g = random_signed_graph(n, m, 0.5, seed)
        e1, e2 = rng.sample(range(m), 2)
        yield seed, g, e1, e2


def _calls_from(monkeypatch, module, name):
    """Wraps module.name to record, per call, the names of its calling
    function and of that function's caller."""
    callers = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        caller = sys._getframe(1)
        callers.append((caller.f_code.co_name, caller.f_back.f_code.co_name))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return callers


def test_untied_witnesses_are_opposite_sign_common_cycles(fallbacks, monkeypatch):
    """Over every way two edges can meet, an untied verdict's cycles are
    genuine common cycles of opposite signs, as the enumerator lists
    them, and tied verdicts agree with it.  Some second cycles come from
    the signed path through a fan."""
    signed = _calls_from(monkeypatch, sgties.decide, "find_signed_path")
    meets = {"parallel": 0, "shared": 0, "disjoint": 0}
    untied = 0
    for seed, g, e1, e2 in _seeded_pairs():
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
    assert sum(caller == "_component_ear" for caller, _ in signed) >= 40


def test_self_reduction_builds_no_certificate(fallbacks, monkeypatch):
    """Self-reduction reads each trial's verdict off its leaves alone:
    while it runs, no split's certificate node is built.  The m=198
    instance is random_3_connected(80, 40, 0, 16) with edges 55 and 135
    made negative and the pair (55, 138), whose leaf has no single ear;
    the 2,400 seeded pairs fall back 40 times."""
    inside = []
    built = []
    real_self_reduce = sgties.decide._self_reduce
    real_split_doc = sgties.decide._split_doc

    def self_reduce(*args):
        inside.append(1)
        try:
            return real_self_reduce(*args)
        finally:
            inside.pop()

    def split_doc(*args):
        if inside:
            built.append(args)
        return real_split_doc(*args)

    monkeypatch.setattr(sgties.decide, "_self_reduce", self_reduce)
    monkeypatch.setattr(sgties.decide, "_split_doc", split_doc)
    g = random_3_connected(80, 40, 0, 16)
    flip = (55, 135)
    g = SignedGraph.build(
        g.n, [(e.u, e.v, -e.sign if i in flip else e.sign) for i, e in enumerate(g.edges)]
    )
    assert g.m == 198
    v = decide_tied(g, 55, 138)
    assert_untied_witness(g, v, 55, 138)
    assert verify_certificate(g, 55, 138, verdict_to_doc(v, 55, 138)) == (True, "ok")
    assert len(fallbacks) == 1
    for _, g, e1, e2 in _seeded_pairs():
        decide_tied(g, e1, e2)
    assert len(fallbacks) == 41
    assert built == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_deep_untied_ladder_lifts_at_the_default_recursion_limit(seed):
    """A doubled 200-rung ladder reduces through 255 part-1 splits, nested
    8 deep, and its first untied leaf lies under all 8.  With its first
    two rungs as the pair and an opposite-sign copy of the top rail edge
    between them, a ladder reduces through 396 part-2/3 splits, nested
    396 deep, to its one untied leaf.  The leaf's witnesses are built and
    lifted inside the evaluation's recursion, which stays within the
    default limit of 1,000 frames."""
    plain, first, _ = ladder(200, seed)
    rail = plain.edge(200)
    near, _ = add_edge(plain, rail.u, rail.v, -rail.sign)
    for g, e1, e2 in (ladder(200, seed, doubled=True), (near, first, first + 1)):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            v = decide_tied(g, e1, e2)
        finally:
            sys.setrecursionlimit(limit)
        assert_untied_witness(g, v, e1, e2)
        assert verify_certificate(g, e1, e2, verdict_to_doc(v, e1, e2)) == (True, "ok")


def test_decide_enumerates_common_cycles_only_in_enum_leaves(monkeypatch):
    """Every witness is built, not searched for: during decide the
    depth-first common-cycle search runs only where an enum leaf lists
    its cycles.  The flat graphs are those of
    test_large_untied_leaf_gets_its_pair_from_one_ear."""
    seen = _calls_from(monkeypatch, sgties.oracle, "_iter_common_cycles")
    instances = [(g, e1, e2) for _, g, e1, e2 in _seeded_pairs()]
    for seed in (430892094, 222406854, 529756440, 1385408903):
        g = random_3_connected(80, 80, 0.5, seed)
        instances.append((g, 0, g.m - 1))
    for g, e1, e2 in instances:
        decide_tied(g, e1, e2)
    assert set(seen) == {("enumerate_common_cycles", "_evaluate_leaf")}


def test_leaves_of_one_shape_with_different_pairs_get_their_own_cycles():
    """The memo's key holds the pair as well as the shape.  On one
    diamond the pair (0-1, 1-2) closes only a negative triangle and the
    pair (0-1, 2-3) only a positive 4-cycle.  Sharing one memo, decide
    and verify each keep an entry per pair, and each leaf gets its own
    cycles."""
    g = SignedGraph.build(4, [(0, 1, 1), (0, 2, 1), (1, 2, -1), (1, 3, 1), (2, 3, 1)])
    sl = Slice.identity(g)
    pairs = ((0, 2), (0, 4))
    shapes = {}
    nodes = [sgties.decide._evaluate_leaf(ReductionLeaf(sl, *p), shapes) for p in pairs]
    assert len(shapes) == 2
    assert [(n["cycles"], n["sign"]) for n in nodes] == [
        ([{"edges": [0, 1, 2], "vertices": [1, 0, 2]}], -1),
        ([{"edges": [0, 1, 4, 3], "vertices": [1, 0, 2, 3]}], 1),
    ]
    assert nodes == [sgties.decide._evaluate_leaf(ReductionLeaf(sl, *p), {}) for p in pairs]
    replayed = {}
    for p, node in zip(pairs, nodes):
        sgties.oracle._replay_enum(sl, *p, node, replayed)
    assert len(replayed) == 2
    with pytest.raises(sgties.oracle._Fail, match="enum: recorded sign mismatch"):
        sgties.oracle._replay_enum(sl, *pairs[1], nodes[0], replayed)


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
    roots = _composed_roots(40)
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
            sl = node.sl
            if node.part == 2:
                sl = Slice(switch(sl.g, node.resign), sl.eref, sl.vref)
            drop = sl.sub(node.side2 if node.kept == 1 else node.side1)
            vidx = drop.vert_index
            for _, u, v, sign in node.children[0].markers:
                replaced += 1
                res = find_signed_path(drop.g, vidx[sl.vref[u]], vidx[sl.vref[v]], sign)
                assert res.complete and res.path is not None
    assert big > 20
    assert replaced > 20


def _composed_roots(count):
    """Reduction inputs from seeded composed tied instances, with the
    edges parallel to the pair dropped."""
    roots = []
    for seed in range(count):
        g, e1, e2 = compose_tied_instance(random_recipe(seed, max_depth=3), seed)
        drop = (parallel_class(g, e1) | parallel_class(g, e2)) - {e1, e2}
        h, emap = delete_edges(g, sorted(drop))
        assert h.endpoints(emap[e1]) != h.endpoints(emap[e2])
        roots.append((h, emap[e1], emap[e2]))
    return roots


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
        idx = blk.edge_index
        roots.append((blk.g, idx[emap[e1]], idx[emap[e2]]))
    return roots


def _path_between(g, edges, u, v):
    """Whether the edge ids form one simple u..v path of g."""
    left = set(edges)
    at = u
    while left:
        step = [i for i in left if at in g.endpoints(i)]
        if len(step) != 1:
            return False
        left.remove(step[0])
        at = g.edge(step[0]).other(at)
    return at == v and len(set(edges)) == len(edges)


def test_part23_far_side_is_read_in_the_split_slice():
    """Parts 2 and 3 decide and lift the replaced side inside the split's
    own slice: the switch set makes the far side all-positive there, the
    negative cycle is a cycle of that slice through far-side edges, and
    each marker path runs from boundary to boundary through the far side
    with the marker's sign (in the switched slice for part 2)."""
    seen = {2: 0, 3: 0}
    for root in _random_block_roots(200) + _composed_roots(40):
        stack = [reduce(*root)]
        while stack:
            node = stack.pop()
            if isinstance(node, ReductionLeaf):
                continue
            stack.extend(ch.node for ch in node.children)
            if node.part == 1:
                continue
            seen[node.part] += 1
            sl = node.sl
            far = set(node.side2 if node.kept == 1 else node.side1)
            g = sl.g
            if node.part == 2:
                g = switch(g, node.resign)
                assert all(g.sign(i) == 1 for i in far)
            else:
                nc = node.neg_cycle
                assert set(nc.edges) <= far
                assert Cycle.from_edges(g, nc.edges) == nc
                assert cycle_sign(g, nc) == -1
            idx = sl.edge_index
            for marker in node.children[0].markers:
                _, u, v, sign = marker
                path = [idx[r] for r in sgties.decide._marker_path(node, marker)]
                assert set(path) <= far
                assert _path_between(g, path, u, v)
                assert sign_product(g, path) == sign
    assert min(seen.values()) >= 20


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
    """A 40-rung ladder takes 45 splits, nested 6 deep.  The cut-pair
    search walks no blocks, and a 2-connectivity re-proof per split
    would add about one call each; preprocessing walks blocks once to find the pair's block,
    and the small leaf's 3-connectivity test walks none."""
    calls = []
    real = sgties.connectivity.blocks

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (sgties.connectivity, sgties.decide):
        monkeypatch.setattr(mod, "blocks", counting)
    g, e1, e2 = ladder(40, 1)
    assert decide_tied(g, e1, e2).kind == KIND_TIED
    assert len(calls) == 1


@pytest.mark.parametrize("n", [320, 640, 1280])
def test_subdivided_rim_splits_in_one_pass(monkeypatch, n):
    """random_3_connected(n, n, 0, 1) with edge 0 flipped and its rim edge
    (n-2, n-1) subdivided has that pair as its only 2-cut, far from
    vertex 0.  The pair (0, m-2) decides tied with sign -1 in one blocks
    walk (preprocessing) and two linear passes (the split and the large
    child), however large the smaller end of the cut; a scan of G-u for
    u = 0, 1, ... up to it would walk blocks about n times."""
    g = random_3_connected(n, n, 0, 1)
    items = [(e.u, e.v, e.sign) for e in g.edges]
    items[0] = (items[0][0], items[0][1], -items[0][2])
    u, v, s = items.pop(n - 3)  # the rim edge (n-2, n-1)
    assert (u, v) == (n - 2, n - 1)
    g = SignedGraph.build(n + 1, items + [(u, n, s), (n, v, 1)])
    calls = {"blocks": 0, "pass": 0}
    real_blocks = sgties.connectivity.blocks
    real_pass = sgties.connectivity._separation_pair

    def counting_blocks(*args, **kwargs):
        calls["blocks"] += 1
        return real_blocks(*args, **kwargs)

    def counting_pass(h):
        calls["pass"] += 1
        return real_pass(h)

    for mod in (sgties.connectivity, sgties.decide):
        monkeypatch.setattr(mod, "blocks", counting_blocks)
        monkeypatch.setattr(mod, "_separation_pair", counting_pass)
    v = decide_tied(g, 0, g.m - 2)
    assert (v.kind, v.common_sign) == (KIND_TIED, -1)
    assert calls == {"blocks": 1, "pass": 2}


def _splits(node):
    stack = [node]
    while stack:
        node = stack.pop()
        if node["kind"] == "preprocess":
            stack.append(node["inner"])
        elif node["kind"] == "split":
            yield node
            stack.extend(child["node"] for child in node["children"])


@pytest.mark.parametrize("doubled", [False, True])
def test_each_slice_builds_its_edge_map_once(monkeypatch, doubled):
    """Deciding and verifying a 40-rung ladder, and the part-2 split of
    two_k4_on_boundary()'s pair (4, 0), builds the edge map of each
    reference tuple at most once (a switched slice shares its parent's),
    and no more map entries than the slices cut out hold edges; a map
    rebuilt at every lookup costs verify about 2.7 times that."""
    built, cut = [], []
    build = Slice.__dict__["edge_index"].func
    real_sub = Slice.sub

    def counting_build(sl):
        built.append(sl)  # held, so that no id is reused
        return build(sl)

    def counting_sub(sl, *args, **kwargs):
        out = real_sub(sl, *args, **kwargs)
        cut.append(out.g.m)
        return out

    monkeypatch.setattr(Slice.__dict__["edge_index"], "func", counting_build)
    monkeypatch.setattr(Slice, "sub", counting_sub)
    cases = [
        (ladder(40, 1, doubled=doubled), KIND_UNTIED if doubled else KIND_TIED),
        ((helpers.two_k4_on_boundary(), 4, 0), KIND_TIED),
    ]
    for (g, e1, e2), kind in cases:
        doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
        assert doc["kind"] == kind
        assert verify_certificate(g, e1, e2, doc) == (True, "ok")
    assert next(_splits(doc["certificate"]))["part"] == 2
    erefs = [id(sl.eref) for sl in built]
    assert len(set(erefs)) == len(erefs), "a reference tuple had its map built twice"
    assert cut and sum(len(sl.eref) for sl in built) <= sum(cut)


def _last_edge_pair(g):
    return g, 0, g.m - 1


CUT_CASES = {
    "ladder-40": lambda: ladder(40, 1),
    "ladder-160": lambda: ladder(160, 1),
    "part-2": lambda: (helpers.two_k4_on_boundary(), 4, 0),
    "part-3": lambda: compose_tied_instance(Splice(Leaf("case1"), balanced=False), 0),
    "child-removed": lambda: (random_signed_graph(9, 9, 0.5, 4), 2, 5),
    "root-removed": lambda: _last_edge_pair(random_3_connected(8, 6, 0.0, 0)),
    "vacuous-removed": lambda: (random_signed_graph(8, 12, 0.5, 0), 1, 4),
}


@pytest.mark.parametrize("case", list(CUT_CASES))
def test_each_slice_is_cut_once(monkeypatch, case):
    """Decide and verify each cut the pair's block of the input once,
    without the edges parallel to the pair, and each child once, without
    the edges and markers parallel to its own pair: 1 + (child nodes of
    the document) Slice.sub calls each, and none for a vacuous pair,
    whose recorded parallels verify checks without a cut.  The slices
    those calls return, a root cut that keeps everything included, hold
    916 edges in all on each side for a 40-rung ladder and 4,748 for a
    160-rung ladder, cutting each part-1 split at the median straddling
    2-cut."""
    cuts = []
    real_sub = Slice.sub

    def counting_sub(sl, *args, **kwargs):
        out = real_sub(sl, *args, **kwargs)
        cuts.append(out.g.m)
        return out

    monkeypatch.setattr(Slice, "sub", counting_sub)
    g, e1, e2 = CUT_CASES[case]()
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    decided, cuts[:] = list(cuts), []
    assert verify_certificate(g, e1, e2, doc) == (True, "ok")
    root = doc["certificate"]
    if case == "vacuous-removed":
        assert root["kind"] == "blocks" and root["removed"]
        assert decided == cuts == []
        return
    assert root["kind"] == "preprocess"
    splits = list(_splits(root))
    children = [child for split in splits for child in split["children"]]
    assert len(decided) == len(cuts) == 1 + len(children)
    copies = {"ladder-40": 916, "ladder-160": 4_748}
    if case in copies:
        assert sum(decided) == sum(cuts) == copies[case]
    if case.startswith("part-"):
        assert splits[0]["part"] == int(case[-1])
    if case == "child-removed":
        assert any(child["removed"] for child in children)
    if case == "root-removed":
        assert root["removed"]


@pytest.mark.parametrize("case", ["ladder-40", "part-2", "part-3", "root-removed"])
def test_a_root_cut_that_keeps_everything_copies_nothing(monkeypatch, case):
    """When the pair's block is the whole input and no edge is parallel
    to the pair, the root cut of decide and of verify returns the
    input's identity slice itself, so both go on with the input graph
    and the adjacency it has built; a root cut that removes a parallel
    still returns a fresh slice."""
    roots = []
    real_sub = Slice.sub

    def recording_sub(sl, *args, **kwargs):
        out = real_sub(sl, *args, **kwargs)
        roots.append((sl, out))
        return out

    monkeypatch.setattr(Slice, "sub", recording_sub)
    g, e1, e2 = CUT_CASES[case]()
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    decided, roots[:] = roots[0], []
    assert verify_certificate(g, e1, e2, doc) == (True, "ok")
    for base, root in (decided, roots[0]):
        assert base.g is g
        if case == "root-removed":
            assert root is not base and root.g.m < g.m
        else:
            assert root is base


def _brute_straddling_cuts(g, e1, e2):
    """Every vertex pair whose removal separates an end of e1 outside it
    from an end of e2 outside it."""
    out = set()
    for a in range(g.n):
        for b in range(a + 1, g.n):
            comp = {x: c for c, cp in enumerate(components(g, frozenset((a, b)))) for x in cp}
            ends1 = {comp[x] for x in g.endpoints(e1) - {a, b}}
            ends2 = {comp[x] for x in g.endpoints(e2) - {a, b}}
            if any(c1 != c2 for c1 in ends1 for c2 in ends2):
                out.add(frozenset((a, b)))
    return out


def _allowed_cuts(g, e1, e2, cuts):
    """The vertex pairs a cut table allows, each with its (i, j), once
    the table's count is checked to be their number and the pairs to be
    exactly the straddling 2-cuts plus the pair's own ends."""
    allowed = [
        (i, j) for i in range(len(cuts.p)) for j in range(len(cuts.q)) if cuts.allowed(i, j)
    ]
    assert cuts.upto(len(cuts.p) + len(cuts.q) - 2) == len(allowed)
    pairs = {frozenset((cuts.p[i], cuts.q[j])): (i, j) for i, j in allowed}
    ends = {g.endpoints(e1), g.endpoints(e2)}
    assert ends <= set(pairs)
    assert set(pairs) - ends == _brute_straddling_cuts(g, e1, e2)
    return pairs


def test_straddling_cut_sweep_matches_brute_force():
    """The bridge sweep allows exactly the straddling 2-cuts, plus the
    pair's own ends, on 2,000 random block pairs: 2,286 cuts, none at
    825 pairs, and 1,121 pairs share a vertex.  Its count is the number
    allowed, and the part-1 cut is the median of the cuts in the order
    (i + j, i), with e1 and e2 on different sides.  Flipped, the table
    names the median in the order (i + j, -i)."""
    total = 0
    for g, e1, e2 in _random_block_roots(2000):
        cuts = sgties.decide._straddling_cuts(g, find_common_cycle(g, e1, e2), e1, e2)
        at = {v: i for i, v in enumerate(cuts.p)} | {v: j for j, v in enumerate(cuts.q)}
        pairs = _allowed_cuts(g, e1, e2, cuts)
        brute = set(pairs) - {g.endpoints(e1), g.endpoints(e2)}
        total += len(brute)
        if not brute:
            continue
        order = sorted((at[a] + at[b], pairs[frozenset((a, b))]) for a, b in brute)
        i, j = cuts.median()
        side1, side2, boundary = sgties.decide._cut_at(g, e1, cuts.p[i], cuts.q[j])
        i, j = order[(len(order) - 1) // 2][1]
        assert set(boundary) == {cuts.p[i], cuts.q[j]}
        assert (e1 in side1) != (e2 in side1)
        assert sorted(side1 + side2) == list(range(g.m))
        v1, v2 = side_vertices(g, frozenset(side1)), side_vertices(g, frozenset(side2))
        assert v1 & v2 == set(boundary)
        flipped = sorted((d, -i, (i, j)) for d, (i, j) in order)
        assert cuts._replace(flip=True).median() == flipped[(len(order) - 1) // 2][2]
    assert total == 2_286


def test_bridges_split_the_edges_off_the_common_cycle():
    """The one sweep that the cut table and the untied leaf's ear share
    lays the canonical common cycle out from e1 and lists its bridges:
    every edge of g is an edge of C, a chord, or an inner or attachment
    edge of exactly one component; attachment edges join their
    component to C; chords come in id order.  On 2,000 random block
    pairs and plain and doubled ladders."""
    roots = _random_block_roots(2000)
    roots += [ladder(k, s, doubled=d) for k in (12, 24) for s in range(3) for d in (False, True)]
    for g, e1, e2 in roots:
        c = find_common_cycle(g, e1, e2)
        b = sgties.decide._bridges(g, c, e1, e2)
        assert Cycle.from_edges(g, (*b.pe, e2, *b.qe[::-1], e1)) == c
        assert g.endpoints(e1) == {b.p[0], b.q[0]} and g.endpoints(e2) == {b.p[-1], b.q[-1]}
        assert b.at == {v: (h, i) for h, half in enumerate((b.p, b.q)) for i, v in enumerate(half)}
        listed = [*c.edges, *(eid for eid, _, _ in b.chords)]
        outside = set()
        for inner, attach in b.comps:
            ks = {x for eid in inner for x in g.endpoints(eid)} | {v for _, v, _ in attach}
            assert not ks & outside and not ks & set(b.at)
            outside |= ks
            for eid, v, x in attach:
                assert g.endpoints(eid) == {v, x} and x in b.at
            listed += [*inner, *(eid for eid, _, _ in attach)]
        assert sorted(listed) == list(range(g.m))
        assert [eid for eid, _, _ in b.chords] == sorted(eid for eid, _, _ in b.chords)
        assert all({u, v} == g.endpoints(eid) for eid, u, v in b.chords)
        assert outside == set(range(g.n)) - set(b.at)


def _check_inherited_table(g, e1, e2, cuts):
    """An inherited table is a cycle of g through the pair, laid out as
    _bridges lays out its canonical Cycle, with the halves swapped when
    the table is flipped; it allows exactly g's straddling 2-cuts plus
    the pair's own ends.  When there are any, its median is the median
    of those cuts in _bridges' layout, in the order (i + j, i); an empty
    table, which comes only from a child that brute force finds no
    straddling cut in, has none."""
    walk = (*cuts.pe, e2, *cuts.qe[::-1], e1)
    c = Cycle.from_edges(g, walk)
    assert c == Cycle.unchecked(walk, (*cuts.p, *cuts.q[::-1]))
    b = sgties.decide._bridges(g, c, e1, e2)
    halves = (cuts.q, cuts.p, cuts.qe, cuts.pe) if cuts.flip else (cuts.p, cuts.q, cuts.pe, cuts.qe)
    assert halves == (b.p, b.q, b.pe, b.qe)
    order = []
    for pair in set(_allowed_cuts(g, e1, e2, cuts)) - {g.endpoints(e1), g.endpoints(e2)}:
        (_, i), (_, j) = sorted(b.at[x] for x in pair)
        order.append((i + j, i, pair))
    if order:
        i, j = cuts.median()
        assert sorted(order)[(len(order) - 1) // 2][2] == {cuts.p[i], cuts.q[j]}
    else:
        assert cuts.median() is None


def test_part1_children_inherit_the_cut_table(monkeypatch):
    """A part-1 split hands each child its side's arc of the split's
    common cycle, closed by the child's marker, with the cut table cut
    down to that arc; a child whose table allows a cut splits part 1
    again at its median, with no 2-cut pass, flow or bridge sweep of its
    own.  Deciding the 2,000 random block pairs and plain and doubled
    ladders, each of the 812 tables read so allows exactly the
    straddling 2-cuts of the child's slice, lays its cycle out as
    _bridges does that cycle's canonical Cycle (halves swapped when
    flipped), and, unless it is empty (310 are), names the median that a
    sweep of that cycle would give.  Of the 2,870 parts handed down,
    1,435 are far children's (numbered from the split's e2), and 413
    tables read were flipped (the canonical order swaps P and Q)."""
    seen = {"read": 0, "far": 0, "flipped": 0}
    real_inherited = sgties.decide._inherited
    real_part = sgties.decide._Cuts.part

    def checking_inherited(parent, half, sl, e1, e2):
        cuts = real_inherited(parent, half, sl, e1, e2)
        _check_inherited_table(sl.g, e1, e2, cuts)
        seen["read"] += 1
        seen["flipped"] += cuts.flip
        return cuts

    def counting_part(cuts, i, j, far):
        seen["far"] += far
        return real_part(cuts, i, j, far)

    monkeypatch.setattr(sgties.decide, "_inherited", checking_inherited)
    monkeypatch.setattr(sgties.decide._Cuts, "part", counting_part)
    roots = _random_block_roots(2000)
    roots += [ladder(k, s, doubled=d) for k in (12, 24) for s in range(3) for d in (False, True)]
    for g, e1, e2 in roots:
        decide_tied(g, e1, e2)
    assert seen == {"read": 812, "far": 1_435, "flipped": 413}


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


def test_a_small_leaf_enumeration_cut_short_raises(monkeypatch):
    """A small leaf that is not 3-connected is settled by listing its
    common cycles; a list the budget cut short proves neither verdict,
    so decide_tied raises.  The parallel-heavy 4-cycle exhausts the
    budget only at sizes far too slow for the suite, so here the report
    of the plain 4-cycle's one leaf is marked incomplete instead."""
    real = sgties.decide.enumerate_common_cycles
    monkeypatch.setattr(
        sgties.decide,
        "enumerate_common_cycles",
        lambda g, e1, e2: dataclasses.replace(real(g, e1, e2), complete=False),
    )
    with pytest.raises(PreconditionViolated, match="leaf enumeration exceeded its budget"):
        decide_tied(helpers.cycle_graph(4), 0, 2)


def test_check_leaf_requires_a_pair_without_parallel_companions():
    """A doubled pair edge keeps K4 3-connected, but the leaf test reads
    the pair's parallel classes as singletons, so it refuses."""
    g, _ = add_edge(helpers.k4(), 0, 1, -1)
    assert is_3_connected(g)
    with pytest.raises(PreconditionViolated, match="edge 0 has parallel companions"):
        check_leaf(g, 0, 5)


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
