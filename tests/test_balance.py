import random

import pytest

import helpers
from sgties import (
    BadParams,
    BadVertex,
    DomainMismatch,
    NotTwoConnected,
    SearchBudget,
    SignedGraph,
    build_hat,
    cycle_sign,
    edge_in_both_signs,
    find_signed_path,
    is_balanced,
    random_3_connected,
    signatures_equivalent,
    switch,
)


def oracle_balanced(g):
    """Balance by brute force: no cycle edge set has negative sign."""
    return all(helpers.set_sign(g, s) == 1 for s in helpers.subset_cycles(g))


def test_all_positive_is_balanced():
    r = is_balanced(helpers.prism())
    assert r.balanced
    assert r.negative_cycle is None
    assert r.switch == frozenset()


def test_an_unbalanced_result_has_no_switch():
    assert is_balanced(helpers.triangle(1, -1, 1)).switch is None


@pytest.mark.parametrize("banned", [0, 2], ids=["start", "goal"])
def test_a_path_search_from_or_to_a_banned_vertex_finds_none(banned):
    """No path leaves or reaches a banned vertex, so the search ends at
    once, complete and with no path."""
    r = find_signed_path(helpers.k4(), 0, 2, 1, banned_vertices=frozenset({banned}))
    assert (r.path, r.complete) == (None, True)


def test_single_negative_triangle():
    r = is_balanced(helpers.triangle(1, -1, 1))
    assert not r.balanced
    assert r.signing is None
    c = r.negative_cycle
    assert cycle_sign(helpers.triangle(1, -1, 1), c) == -1


def test_balanced_but_not_all_positive():
    # switch an all-positive graph: still balanced, nontrivial signing
    g = switch(helpers.wheel(4), {2, 4})
    r = is_balanced(g)
    assert r.balanced
    assert switch(g, r.switch) == helpers.wheel(4)


def test_signing_realizes_the_signature():
    g = helpers.random_2_connected(random.Random(5), 6, 4)
    r = is_balanced(g)
    if not r.balanced:
        g = switch(g, set(range(0, g.n, 2)))  # try a different face of it
        r = is_balanced(g)
    if r.balanced:
        th = r.signing
        for e in range(g.m):
            u, v = g.endpoints(e)
            assert g.sign(e) == th[u] * th[v]


def test_balance_matches_subset_oracle():
    rng = random.Random(11)
    for t in range(120):
        g = helpers.random_2_connected(rng, rng.randrange(3, 7), rng.randrange(0, 5))
        r = is_balanced(g)
        assert r.balanced == oracle_balanced(g)
        if r.balanced:
            assert all(s == 1 for s in (switch(g, r.switch).sign(e) for e in range(g.m)))
        else:
            assert helpers.set_sign(g, frozenset(r.negative_cycle.edges)) == -1


def test_balance_ignores_isolated_vertices():
    g = SignedGraph.build(4, [(0, 1, -1), (1, 2, -1), (2, 0, 1)])
    r = is_balanced(g)
    assert r.balanced
    assert len(r.signing) == 4


def test_balance_checks_no_id(monkeypatch):
    """is_balanced reads every edge it walks off the graph's own edge
    table and adjacency, so a flat graph, balanced with both signs,
    costs no SignedGraph.edge call."""
    g = switch(random_3_connected(40, 40, 0.0, 3), range(0, 40, 3))
    calls = [0]
    real = SignedGraph.edge

    def counting(graph, e):
        calls[0] += 1
        return real(graph, e)

    monkeypatch.setattr(SignedGraph, "edge", counting)
    r = is_balanced(g)
    assert calls == [0]
    assert r.balanced and {e.sign for e in g.edges} == {1, -1}
    assert all(e.sign == r.signing[e.u] * r.signing[e.v] for e in g.edges)


def test_signatures_equivalent_accepts_switches():
    g = helpers.k4(signs=[1, -1, 1, 1, -1, 1])
    h = switch(g, {1, 3})
    sw, bad = signatures_equivalent(g, [h.sign(e) for e in range(h.m)])
    assert bad is None
    assert switch(g, sw) == h


def test_signatures_equivalent_detects_difference():
    g = helpers.k4()
    signs = [1] * 6
    signs[3] = -1  # flips the sign of every cycle through edge 3
    h = helpers.k4(signs)
    sw, bad = signatures_equivalent(g, signs)
    assert sw is None
    assert cycle_sign(g, bad) * cycle_sign(h, bad) == -1


def test_signatures_equivalent_needs_matching_edge_count():
    with pytest.raises(DomainMismatch):
        signatures_equivalent(helpers.triangle(), [1, 1, 1, 1])


def test_edge_in_both_signs_matches_subset_oracle():
    rng = random.Random(23)
    for t in range(60):
        g = helpers.random_2_connected(rng, rng.randrange(3, 6), rng.randrange(1, 5))
        for e in range(g.m):
            through = [s for s in helpers.subset_cycles(g) if e in s]
            want = len({helpers.set_sign(g, s) for s in through}) == 2
            assert edge_in_both_signs(g, e) == want


def test_edge_in_both_signs_requires_2_connected():
    g = SignedGraph.build(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(NotTwoConnected):
        edge_in_both_signs(g, 0)


def test_find_signed_path_hat():
    g = build_hat().graph
    pos = find_signed_path(g, 0, 1, 1)
    assert pos.path is not None
    assert pos.path.sign == 1
    neg = find_signed_path(g, 0, 1, -1)
    assert neg.path.sign == -1
    assert neg.path.vertices[0] == 0
    assert neg.path.vertices[-1] == 1


def test_find_signed_path_respects_bans():
    g = helpers.theta()
    r = find_signed_path(g, 0, 1, 1, banned_vertices=frozenset({2, 3}))
    assert r.path.edges == (0,)
    r = find_signed_path(
        g, 0, 1, 1, banned_vertices=frozenset({2, 3}), banned_edges=frozenset({0})
    )
    assert r.path is None
    assert r.complete


def test_find_signed_path_absence_is_proven():
    g = helpers.prism()  # all positive
    r = find_signed_path(g, 0, 5, -1)
    assert r.path is None
    assert r.complete


def test_find_signed_path_budget_exhaustion():
    g = helpers.prism()
    r = find_signed_path(g, 0, 5, -1, budget=SearchBudget(limit=2))
    assert r.path is None
    assert not r.complete


def test_find_signed_path_validation():
    g = helpers.triangle()
    with pytest.raises(BadVertex):
        find_signed_path(g, 0, 9, 1)
    with pytest.raises(BadParams):
        find_signed_path(g, 1, 1, 1)
