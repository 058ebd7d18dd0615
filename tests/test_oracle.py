import json
import random
import sys

import pytest

import helpers
from sgties import (
    BudgetExhausted,
    KIND_TIED,
    KIND_UNTIED,
    KIND_VACUOUS,
    Leaf,
    SameEdge,
    SearchBudget,
    SignedGraph,
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


def test_find_common_cycle_sign_filter():
    gi = build_hat()
    g = gi.graph
    pos, done = find_common_cycle(g, gi.e1, gi.e2, sign=1)
    assert done and cycle_sign(g, pos) == 1
    neg, done = find_common_cycle(g, gi.e1, gi.e2, sign=-1)
    assert done and cycle_sign(g, neg) == -1
    assert gi.e1 in pos and gi.e2 in pos and gi.e1 in neg and gi.e2 in neg


def test_find_common_cycle_absence_proof():
    g = helpers.k4()
    c, done = find_common_cycle(g, 0, 5, sign=-1)
    assert c is None
    assert done
    c, done = find_common_cycle(g, 0, 5, sign=-1, budget=SearchBudget(limit=1))
    assert c is None
    assert not done


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
        c, done = find_common_cycle(g, e1, e2)
        assert done and rep.complete
        if rep.cycles:
            assert c in rep.cycles, seed
        else:
            assert c is None, seed
    assert min(meets.values()) >= 500


def test_unsigned_common_cycle_reports_a_starved_budget():
    g, e1, e2 = ladder(10, 0)
    for pair in ((e1, e2), (0, 10)):  # disjoint rungs; a rung and a rail edge
        assert find_common_cycle(g, *pair, budget=SearchBudget(1)) == (None, False)


@pytest.mark.parametrize("rungs", [10, 40, 80])
def test_unsigned_common_cycle_spends_a_linear_budget(rungs):
    """Two augmentations scan each adjacency list at most twice; the
    depth-first search spent its whole 10**6 here from 20 rungs on."""
    g, e1, e2 = ladder(rungs, rungs)
    b = SearchBudget()
    c, done = find_common_cycle(g, e1, e2, budget=b)
    assert done and len(c.edges) == 2 * rungs  # the outer cycle
    assert b.spent <= 4 * g.m


def test_unsigned_common_cycle_without_a_budget_charges_none(monkeypatch):
    """The flow runs uncapped unless its caller passes a budget, so no
    default cap can make the linear construction give up."""

    def charge(self, amount=1):
        raise AssertionError("an unbudgeted flow charged a budget")

    monkeypatch.setattr(SearchBudget, "charge", charge)
    for rungs in (10, 80):
        g, e1, e2 = ladder(rungs, rungs)
        c, done = find_common_cycle(g, e1, e2)
        assert done and len(c.edges) == 2 * rungs
        c, done = find_common_cycle(g, 0, rungs)  # a rung and a rail edge
        assert done and c is not None
    # edges of two blocks meeting at a cut vertex: absence, proven
    assert find_common_cycle(helpers.two_triangles_shared_vertex(), 0, 4) == (None, True)


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
    """A 250-rung ladder nests 496 part-1 splits.  Deciding it needs a
    raised recursion limit; replaying its document walks a worklist and
    needs none."""
    g, e1, e2 = ladder(250, 0)
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
