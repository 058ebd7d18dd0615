import ast
import itertools
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import helpers
from sgties import (
    BudgetExhausted,
    Cycle,
    DEFAULT_BUDGET,
    KIND_TIED,
    KIND_UNTIED,
    KIND_VACUOUS,
    Leaf,
    SameEdge,
    SearchBudget,
    SignedGraph,
    Slice,
    Splice,
    build_hat,
    build_hedgehog,
    build_target,
    compose_tied_instance,
    cycle_sign,
    cycle_through_three,
    decide_tied,
    enumerate_common_cycles,
    find_common_cycle,
    ladder,
    oracle_tied,
    random_3_connected,
    random_recipe,
    random_signed_graph,
    verdict_from_doc,
    verdict_to_doc,
    verify_certificate,
)


def test_enumeration_matches_subset_oracle():
    """The path-based enumerator and the naive subset oracle must agree
    on the exact family of common cycles, not just counts."""
    rng = random.Random(101)
    for t in range(150):
        g = random_signed_graph(
            rng.randrange(3, 7), rng.randrange(2, 11), rng.choice((0.2, 0.5)), seed=t
        )
        e1 = rng.randrange(g.m)
        e2 = rng.randrange(g.m - 1)
        if e2 >= e1:
            e2 += 1
        rep = enumerate_common_cycles(g, e1, e2)
        assert rep.complete
        got = {frozenset(c.edges) for c in rep.cycles}
        want = set(helpers.common_cycle_sets(g, e1, e2))
        assert got == want
        assert len(rep.cycles) == len(got)  # no duplicates
        pos = sum(1 for s in want if helpers.set_sign(g, s) == 1)
        assert (rep.positive_count, rep.negative_count) == (pos, len(want) - pos)


@pytest.mark.parametrize("limit", [DEFAULT_BUDGET, 6])
def test_enumeration_reads_no_sign(limit):
    """Re-signing a graph leaves its common cycles, their order and the
    complete flag as they were, so decide and verify may share one
    enumeration among leaves of one unsigned shape."""
    rng = random.Random(303)
    for t in range(150):
        g = random_signed_graph(rng.randrange(3, 7), rng.randrange(2, 11), 0.5, seed=t)
        e1, e2 = rng.sample(range(g.m), 2)
        h = SignedGraph.build(g.n, [(e.u, e.v, rng.choice((1, -1))) for e in g.edges])
        a = enumerate_common_cycles(g, e1, e2, SearchBudget(limit=limit))
        b = enumerate_common_cycles(h, e1, e2, SearchBudget(limit=limit))
        assert (a.cycles, a.complete) == (b.cycles, b.complete)


def test_enumeration_order_is_deterministic():
    g = helpers.wheel(5)
    a = enumerate_common_cycles(g, 0, 2)
    b = enumerate_common_cycles(g, 0, 2)
    assert a == b
    keys = [tuple(sorted(c.edges)) for c in a.cycles]
    assert keys == sorted(keys)


def test_hat_report():
    gi = build_hat()
    rep = enumerate_common_cycles(gi.graph, gi.e1, gi.e2)
    assert rep.complete
    assert (rep.positive_count, rep.negative_count) == (1, 1)
    assert {frozenset(c.edges) for c in rep.cycles} == {
        frozenset({0, 2, 3}),
        frozenset({1, 2, 3}),
    }


def test_target_report():
    gi = build_target()
    rep = enumerate_common_cycles(gi.graph, gi.e1, gi.e2)
    assert rep.complete
    assert (rep.positive_count, rep.negative_count) == (1, 1)
    a, b = (frozenset(c.edges) for c in rep.cycles)
    # the two common cycles differ exactly in the negative rim
    assert a ^ b == frozenset(gi.distinguished_cycle.edges)


def test_hedgehog_report():
    gi = build_hedgehog()
    rep = enumerate_common_cycles(gi.graph, gi.e1, gi.e2)
    assert rep.complete
    assert len(rep.cycles) == 4
    assert (rep.positive_count, rep.negative_count) == (3, 1)


def test_all_positive_k4_nonadjacent_pair():
    g = helpers.k4()
    rep = enumerate_common_cycles(g, 0, 5)  # (0,1) and (2,3)
    assert (rep.positive_count, rep.negative_count) == (2, 0)
    assert all(len(c) == 4 for c in rep.cycles)


def test_enumeration_budget_cuts_off():
    g = helpers.wheel(6)
    rep = enumerate_common_cycles(g, 0, 3, SearchBudget(limit=4))
    assert not rep.complete


def test_unsigned_common_cycle_exists_exactly_when_enumeration_finds_one():
    """The flow construction against the enumerator, over every way
    two edges can meet: mutually parallel, sharing one vertex, disjoint."""
    meets = {"parallel": 0, "shared": 0, "disjoint": 0}
    for seed in range(2400):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        m = rng.randint(2, 2 * n + 2)
        g = random_signed_graph(n, m, 0.5, seed)
        e1, e2 = rng.sample(range(m), 2)
        ends1, ends2 = g.endpoints(e1), g.endpoints(e2)
        meets[
            "parallel" if ends1 == ends2 else "shared" if ends1 & ends2 else "disjoint"
        ] += 1
        rep = enumerate_common_cycles(g, e1, e2)
        c = find_common_cycle(g, e1, e2)
        assert rep.complete
        if rep.cycles:
            assert c in rep.cycles, seed
        else:
            assert c is None, seed
    assert min(meets.values()) >= 500


def _meet(g, e1, e2):
    ends1, ends2 = g.endpoints(e1), g.endpoints(e2)
    return "parallel" if ends1 == ends2 else "shared" if ends1 & ends2 else "disjoint"


def _marker_slice(rng, seed):
    """A slice of a random 2-connected graph with three marker edges,
    each parallel to a kept edge or joining two kept vertices."""
    g = helpers.random_2_connected(rng, rng.randint(4, 8), rng.randint(1, 6))
    keep = sorted(rng.sample(range(g.m), rng.randint(g.m // 2 + 1, g.m)))
    ends = sorted({x for i in keep for x in g.endpoints(i)})
    markers = [(f"m{k}", *rng.sample(ends, 2), rng.choice((1, -1))) for k in range(3)]
    return Slice.identity(g).sub(keep, markers).g


def test_found_cycles_are_canonical_as_built():
    """The flow and both depth-first forms lay each common cycle out as
    they walk it, with no re-walk of its edge set: each equals, in edges
    and vertices, what from_edge_set rebuilds from its edges, and passes
    from_edges.  Random signed graphs and marker slices, over all three
    ways two edges meet."""
    rng = random.Random(2024)
    meets, cycles = Counter(), 0
    for seed in range(600):
        if seed % 2:
            g = _marker_slice(rng, seed)
        else:
            n = rng.randint(2, 8)
            g = random_signed_graph(n, rng.randint(2, 2 * n + 2), 0.5, seed)
        e1, e2 = rng.sample(range(g.m), 2)
        meets[_meet(g, e1, e2)] += 1
        c = find_common_cycle(g, e1, e2)
        rep = enumerate_common_cycles(g, e1, e2)
        assert rep.complete
        for cyc in rep.cycles + ((c,) if c is not None else ()):
            rebuilt = Cycle.from_edge_set(g, cyc.edges)
            assert (cyc.edges, cyc.vertices) == (rebuilt.edges, rebuilt.vertices), seed
            assert Cycle.from_edges(g, cyc.edges) == cyc, seed
            cycles += 1
    assert min(meets.values()) >= 50 and cycles > 2000, (meets, cycles)


@pytest.mark.parametrize("rungs", [10, 40, 80])
def test_unsigned_common_cycle_spends_a_linear_budget(rungs):
    """Two augmentations scan each adjacency list at most twice, so the
    flow reads at most 4m adjacency entries; the depth-first search spent
    a whole 10**6 budget here from 20 rungs on."""
    g, e1, e2 = ladder(rungs, rungs)
    reads = helpers.count_adjacency_reads(g)
    c = find_common_cycle(g, e1, e2)
    assert len(c.edges) == 2 * rungs  # the outer cycle
    assert 0 < reads["reads"] <= 4 * g.m


def test_unsigned_common_cycle_without_a_budget_charges_none(monkeypatch):
    """The flow takes no budget, so no cap can make the linear
    construction give up."""

    def charge(self):
        raise AssertionError("an unbudgeted flow charged a budget")

    monkeypatch.setattr(SearchBudget, "charge", charge)
    for rungs in (10, 80):
        g, e1, e2 = ladder(rungs, rungs)
        c = find_common_cycle(g, e1, e2)
        assert len(c.edges) == 2 * rungs
        c = find_common_cycle(g, 0, rungs)  # a rung and a rail edge
        assert c is not None
    # edges of two blocks meeting at a cut vertex: absence, proven
    assert find_common_cycle(helpers.two_triangles_shared_vertex(), 0, 4) is None


def test_oracle_tied_kinds():
    assert oracle_tied(helpers.k4(), 0, 5).kind == KIND_TIED
    hat = build_hat()
    v = oracle_tied(hat.graph, hat.e1, hat.e2)
    assert v.kind == KIND_UNTIED
    p, n = v.witness
    assert cycle_sign(hat.graph, p) == 1
    assert cycle_sign(hat.graph, n) == -1
    far = helpers.two_triangles_shared_vertex()
    assert oracle_tied(far, 0, 4).kind == KIND_VACUOUS


def test_oracle_tied_common_sign():
    g = helpers.k4()
    v = oracle_tied(g, 0, 5)
    assert v.common_sign == 1
    assert len(v.witness) == 1


def test_oracle_tied_raises_on_budget():
    g = helpers.wheel(6)
    with pytest.raises(BudgetExhausted):
        oracle_tied(g, 0, 3, SearchBudget(limit=3))


def test_cycle_through_three_k4_triangle():
    g = helpers.k4()
    c, done = cycle_through_three(g, 0, 1, 3)  # triangle 0-1-2
    assert done
    assert frozenset(c.edges) == frozenset({0, 1, 3})


def test_cycle_through_three_common_vertex():
    g = helpers.k4()
    c, done = cycle_through_three(g, 0, 1, 2)  # all touch vertex 0
    assert c is None
    assert done


def test_cycle_through_three_cut():
    # the prism matching is a 3-edge cut; cycles cross cuts evenly
    g = helpers.prism()
    c, done = cycle_through_three(g, 6, 7, 8)
    assert c is None
    assert done


def test_cycle_through_three_rejects_duplicates():
    with pytest.raises(SameEdge):
        cycle_through_three(helpers.k4(), 0, 0, 1)


def test_verdict_doc_round_trip():
    gi = build_target()
    v = decide_tied(gi.graph, gi.e1, gi.e2)
    doc = verdict_to_doc(v, gi.e1, gi.e2)
    back, e1, e2 = verdict_from_doc(doc)
    assert (e1, e2) == (gi.e1, gi.e2)
    assert back.kind == v.kind
    ok, why = verify_certificate(gi.graph, e1, e2, back)
    assert ok, why


def test_verify_rejects_swapped_kind():
    gi = build_hat()
    v = decide_tied(gi.graph, gi.e1, gi.e2)
    doc = verdict_to_doc(v, gi.e1, gi.e2)
    doc["kind"] = KIND_TIED
    ok, why = verify_certificate(gi.graph, gi.e1, gi.e2, doc)
    assert not ok
    assert why


def test_verify_rejects_tampered_witness():
    gi = build_hat()
    v = decide_tied(gi.graph, gi.e1, gi.e2)
    doc = verdict_to_doc(v, gi.e1, gi.e2)
    doc["witness"][0]["edges"][0] = 1 - doc["witness"][0]["edges"][0]
    ok, why = verify_certificate(gi.graph, gi.e1, gi.e2, doc)
    assert not ok


def test_verify_accepts_dict_or_verdict():
    g = helpers.k4()
    v = decide_tied(g, 0, 5)
    assert verify_certificate(g, 0, 5, v)[0]
    assert verify_certificate(g, 0, 5, verdict_to_doc(v, 0, 5))[0]


def test_verify_replays_a_deep_certificate_at_the_default_recursion_limit():
    """A 250-rung ladder whose pair is its first and last rung takes 255
    part-1 splits, nested 8 deep; with its first two rungs as the pair
    it takes 496 part-2/3 splits, nested 496 deep, and deciding it needs
    a raised recursion limit.  Replaying either document walks a
    worklist and needs none."""
    g, first, last = ladder(250, 0)
    for e1, e2 in ((first, last), (first, first + 1)):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)
        try:
            doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
        finally:
            sys.setrecursionlimit(limit)
        assert verify_certificate(g, e1, e2, doc) == (True, "ok")


# --- rejection reasons ----------------------------------------------------


def _vacuous_case():
    # edges 7 and 4 of this graph lie in different blocks
    g = random_signed_graph(9, 10, 0.5, seed=6)
    doc = verdict_to_doc(decide_tied(g, 7, 4), 7, 4)
    assert doc["certificate"]["kind"] == "blocks"
    return g, 7, 4, doc


def _preprocess_case():
    # an all-positive wheel with chords: tied, and edges parallel to the
    # pair are stripped before the block is reduced
    g = random_3_connected(8, 6, 0.0, seed=0)
    e1, e2 = 0, g.m - 1
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    assert doc["certificate"]["kind"] == "preprocess"
    assert doc["certificate"]["removed"]
    return g, e1, e2, doc


def _reason(g, e1, e2, doc):
    ok, why = verify_certificate(g, e1, e2, doc)
    assert not ok
    return why


def _not_parallel(g, e1, e2):
    ends = {g.endpoints(e1), g.endpoints(e2)}
    return next(i for i in range(g.m) if g.endpoints(i) not in ends)


@pytest.mark.parametrize("case", [_vacuous_case, _preprocess_case])
def test_verify_names_bad_removed_entries(case):
    g, e1, e2, doc = case()
    assert verify_certificate(g, e1, e2, doc)[0]
    for bad in (g.m + 5, _not_parallel(g, e1, e2), e1, e2):
        mutated = json.loads(json.dumps(doc))
        mutated["certificate"]["removed"].append(bad)
        assert _reason(g, e1, e2, mutated).startswith("removed:"), bad


def test_verify_names_a_padded_block():
    g, e1, e2, doc = _preprocess_case()
    # the graph is 3-connected, so only a stripped edge lies outside the block
    node = doc["certificate"]
    node["block"] = sorted(node["block"] + node["removed"][:1])
    assert _reason(g, e1, e2, doc) == "preprocess: recorded block mismatch"


def _first_split(node):
    while node["kind"] != "split":
        node = node["inner"]
    return node


def _side_with_1(split):
    side = next(s for s in (split["side1"], split["side2"]) if 1 in s)
    return side, side.index(1)


def _list_with_1(ids):
    return ids, ids.index(1)


def _composed_tied():
    return compose_tied_instance(random_recipe(0, 2), 0)


def _random_tied(n, m, seed, e1, e2):
    return lambda: (random_signed_graph(n, m, 0.5, seed), e1, e2)


# field -> (a tied instance, where a 1 stands in its document: (container, key))
ONES = {
    "common-sign": (_composed_tied, lambda doc: (doc, "common_sign")),
    "witness-vertex": (_composed_tied, lambda doc: _list_with_1(doc["witness"][0]["vertices"])),
    "side-entry": (_composed_tied, lambda doc: _side_with_1(_first_split(doc["certificate"]))),
    "block-entry": (_composed_tied, lambda doc: _list_with_1(doc["certificate"]["block"])),
    "part": (_composed_tied, lambda doc: (_first_split(doc["certificate"]), "part")),
    "marker-sign": (
        _composed_tied,
        lambda doc: (_first_split(doc["certificate"])["children"][0]["markers"][0], "sign"),
    ),
    "boundary-vertex": (
        _random_tied(8, 13, 6, 0, 2),
        lambda doc: _list_with_1(_first_split(doc["certificate"])["boundary"]),
    ),
    "enum-sign": (_random_tied(5, 5, 1, 0, 2), lambda doc: (doc["certificate"]["inner"], "sign")),
    "parallel-pair-sign": (_random_tied(5, 5, 0, 0, 1), lambda doc: (doc["certificate"], "sign")),
}


def _reason_with_1_as(field, value):
    """Decide a field's instance, put ``value`` in place of its 1, and
    verify the document as JSON gives it back."""
    make, where = ONES[field]
    g, e1, e2 = make()
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    assert verify_certificate(g, e1, e2, doc) == (True, "ok")
    box, key = where(doc)
    assert type(box[key]) is int and box[key] == 1
    box[key] = value
    return _reason(g, e1, e2, json.loads(json.dumps(doc)))


@pytest.mark.parametrize("field", list(ONES))
def test_verify_never_reads_a_json_true_as_1(field):
    """bool is an int subclass and True == 1, so a document read without
    type checks takes JSON true for edge or vertex 1, sign +1 or part 1.
    Each such edit of a tied document must be rejected."""
    assert _reason_with_1_as(field, True)


@pytest.mark.parametrize("field", list(ONES))
def test_verify_never_reads_a_json_float_as_an_int(field):
    """1.0 == 1 and hashes like 1, so a dict lookup, ``==`` or ``in``
    takes a JSON 1.0 for edge or vertex 1, sign +1 or part 1.  Every id
    and sign must be an int, and every edge reference an int or a
    string."""
    assert _reason_with_1_as(field, 1.0)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda md: md.update(v=md["u"]),
        lambda md: md.update(sign=0),
        lambda md: md.update(u=10**6),
    ],
    ids=["loop", "bad-sign", "unknown-endpoint"],
)
def test_verify_names_bad_markers(mutate):
    g, e1, e2 = compose_tied_instance(random_recipe(0, 3), 0)
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    assert verify_certificate(g, e1, e2, doc)[0]
    mutate(_first_split(doc["certificate"])["children"][0]["markers"][0])
    assert "marker" in _reason(g, e1, e2, doc)


def _marker_count_case(part):
    if part == 3:
        return compose_tied_instance(Splice(Leaf("case1"), balanced=False), 0)
    return (helpers.two_k4_on_boundary(), 4, 9 if part == 1 else 0)


@pytest.mark.parametrize("change", ["extra", "dropped"])
@pytest.mark.parametrize("part", [1, 2, 3])
def test_verify_names_a_wrong_marker_count(part, change):
    g, e1, e2 = _marker_count_case(part)
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    assert verify_certificate(g, e1, e2, doc)[0]
    split = _first_split(doc["certificate"])
    assert split["part"] == part
    markers = split["children"][0]["markers"]
    if change == "extra":
        markers.append(dict(markers[0], name="extra"))
    else:
        markers.pop()
    assert "marker" in _reason(g, e1, e2, doc)


def test_verify_rejects_a_marker_named_like_an_edge_of_its_slice():
    """A marker named 0 would shadow edge 0 in the child's references,
    turning the child's pair into (marker, edge 2): a K4 in which case 3
    holds.  The pair (0, 2) is untied, so the document must fail, at the
    marker.  Named m0, the marker leaves the pair on edges 0 and 2, and
    the dropped m1 is parallel to neither."""
    g = helpers.forged_marker_graph()
    assert oracle_tied(g, 0, 2).kind == decide_tied(g, 0, 2).kind == KIND_UNTIED
    assert "marker" in _reason(g, 0, 2, helpers.forged_marker_document(0))
    assert _reason(g, 0, 2, helpers.forged_marker_document("m0"))


@pytest.mark.parametrize("name", [True, 1, 3, None])
def test_verify_rejects_a_marker_name_that_is_not_a_fresh_string(name):
    g = helpers.two_k4_on_boundary()
    doc = verdict_to_doc(decide_tied(g, 4, 0), 4, 0)
    assert verify_certificate(g, 4, 0, doc) == (True, "ok")
    (marker,) = _first_split(doc["certificate"])["children"][0]["markers"]
    assert marker["name"] == "m0"
    marker["name"] = name
    assert "marker" in _reason(g, 4, 0, doc)


def test_verify_rejects_two_markers_of_one_child_that_share_a_name():
    g, e1, e2 = _marker_count_case(3)
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    first, second = _first_split(doc["certificate"])["children"][0]["markers"]
    second["name"] = first["name"]
    assert "marker" in _reason(g, e1, e2, doc)


@pytest.mark.parametrize(
    "vertices",
    [[True, 2, 3, 0], [0, 1, 2, 99], [0, 1, 2]],
    ids=["json-true", "alien-vertex", "missing-vertex"],
)
def test_verify_checks_the_vertices_of_enum_cycles(vertices):
    g = helpers.cycle_graph(4)
    doc = verdict_to_doc(decide_tied(g, 0, 2), 0, 2)
    (cycle,) = doc["certificate"]["inner"]["cycles"]
    assert cycle == {"edges": [0, 1, 2, 3], "vertices": [0, 1, 2, 3]}
    assert verify_certificate(g, 0, 2, doc) == (True, "ok")
    cycle["vertices"] = vertices
    assert "enum" in _reason(g, 0, 2, doc)


def test_verify_rejects_a_side_that_repeats_an_edge_in_place_of_another():
    """The pair (6, 0) of random_signed_graph(7, 11, 0.5, 7) is untied:
    edge 10 doubles edge 7 with the other sign.  The tied certificate of
    the graph without edge 10, without its witness and sign, is stretched
    over the full graph by listing 10 in the block and repeating a side1
    entry: the sides then count as many entries as the slice has edges
    but leave edge 10 out of both, and the document must not verify."""
    g = random_signed_graph(7, 11, 0.5, 7)
    assert oracle_tied(g, 6, 0).kind == KIND_UNTIED
    h = SignedGraph.build(g.n, [(e.u, e.v, e.sign) for e in g.edges[:10]])
    doc = verdict_to_doc(decide_tied(h, 6, 0), 6, 0)
    doc["witness"], doc["common_sign"] = [], None
    doc["certificate"]["block"].append(10)
    split = _first_split(doc["certificate"])
    split["side1"].append(split["side1"][0])
    assert _reason(g, 6, 0, doc) == "split: sides do not partition the edges"


@pytest.mark.parametrize("part", [1, 2, 3])
def test_verify_rejects_every_side_entry_repeated_in_place_of_another(part):
    g, e1, e2 = _marker_count_case(part)
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    split = _first_split(doc["certificate"])
    assert split["part"] == part
    tried = 0
    for key in ("side1", "side2"):
        for i, j in itertools.permutations(range(len(split[key])), 2):
            mutated = json.loads(json.dumps(doc))
            side = _first_split(mutated["certificate"])[key]
            side[j] = side[i]
            assert _reason(g, e1, e2, mutated) == "split: sides do not partition the edges"
            tried += 1
    assert tried >= 20


def _flip_pairs():
    for seed in range(100):
        yield compose_tied_instance(random_recipe(seed, 3), seed)
    for seed in range(600):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        m = rng.randint(n, 2 * n + 2)
        yield (random_signed_graph(n, m, 0.5, seed), *rng.sample(range(m), 2))


def test_verify_rejects_a_tied_certificate_replayed_on_a_flipped_sign():
    """A tied certificate, without its witness and sign, replayed on the
    graph with one edge's sign flipped, may verify only when the flipped
    pair is still tied."""
    tied = accepted = rejected = 0
    for g, e1, e2 in _flip_pairs():
        doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
        if doc["kind"] != KIND_TIED:
            continue
        tied += 1
        doc["witness"], doc["common_sign"] = [], None
        for flip in range(g.m):
            h = SignedGraph.build(
                g.n,
                [(e.u, e.v, -e.sign if i == flip else e.sign) for i, e in enumerate(g.edges)],
            )
            if verify_certificate(h, e1, e2, doc)[0]:
                accepted += 1
                assert oracle_tied(h, e1, e2).kind == KIND_TIED, (g, e1, e2, flip)
            else:
                rejected += 1
    assert tied > 300
    assert accepted > 1000 and rejected > 1000


# --- independence of the verifier ---------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _relative_imports(module):
    """Names a module of the package imports, by the sibling they come from."""
    tree = ast.parse((ROOT / "src" / "sgties" / f"{module}.py").read_text(encoding="utf-8"))
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                source = node.module or alias.name
                names.setdefault(source, set()).add(alias.name)
    return names


def _shared_primitives():
    """README's certificate section lists, per module, the names the
    verifier shares with the prover, as ``- `module`: `name`, ...``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Certificates\n")[1].split("\n## ")[0]
    listed = {}
    for item in section.split("\n- ")[1:]:
        item = item.split("\n\n")[0]
        head = re.match(r"`(\w+)`:", item)
        if head:
            listed[head[1]] = set(re.findall(r"`(\w+)`", item[head.end():]))
    return listed


def test_the_verifier_and_the_prover_share_only_the_listed_primitives():
    """The verifier must check a document with its own code: it imports
    nothing from the prover, the prover only the oracle's enumerator and
    flow search, and the verifier from the graph, connectivity and search
    modules exactly the primitives README lists."""
    oracle, decide = _relative_imports("oracle"), _relative_imports("decide")
    assert "decide" not in oracle
    assert decide["oracle"] == {"enumerate_common_cycles", "find_common_cycle"}
    shared = _shared_primitives()
    assert set(shared) == {"core", "connectivity", "search"}
    assert shared == {module: oracle.get(module, set()) for module in shared}
