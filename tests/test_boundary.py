"""Every library entry point rejects an ill-typed or out-of-range id.

Vertex and edge ids are ints.  True, False and 1.0 compare equal to 1
or 0 and hash alike, so an entry point that only range-checked an id
read them as another id; "1" and None raised a bare TypeError.  Each
id is now checked once, where it enters (``check_vertex``,
``SignedGraph.edge``, ``check_edges``), and raises a typed error.
"""

import pytest

from sgties import (
    BadEdge,
    BadParams,
    BadVertex,
    Cycle,
    SameEdge,
    SignedGraph,
    add_edge,
    blocks,
    check_leaf,
    components,
    contract_edge,
    cycle_through_three,
    decide_tied,
    delete_edge,
    delete_edges,
    delete_vertex,
    edge_in_both_signs,
    enumerate_common_cycles,
    find_common_cycle,
    find_signed_path,
    lovasz_three_edges,
    oracle_tied,
    parallel_class,
    reduce,
    side_vertices,
    switch,
    verdict_to_doc,
    verify_certificate,
)
from sgties.core import check_edges

ITEMS = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, -1), (0, 2, 1)]
BAD = [True, False, 1.0, "1", None, -1]

# each entry point with the bad value x in one id position, and the
# error that position raises
ENTRIES = {
    "decide_tied": (lambda g, x: decide_tied(g, x, 2), BadEdge),
    "reduce": (lambda g, x: reduce(g, x, 2), BadEdge),
    "check_leaf": (lambda g, x: check_leaf(g, 2, x), BadEdge),
    "lovasz_three_edges": (lambda g, x: lovasz_three_edges(g, 2, 3, x), BadEdge),
    "oracle_tied": (lambda g, x: oracle_tied(g, x, 2), BadEdge),
    "enumerate_common_cycles": (lambda g, x: enumerate_common_cycles(g, 2, x), BadEdge),
    "find_common_cycle": (lambda g, x: find_common_cycle(g, x, 2), BadEdge),
    "cycle_through_three": (lambda g, x: cycle_through_three(g, 2, 3, x), BadEdge),
    "edge_in_both_signs": (edge_in_both_signs, BadEdge),
    "find_signed_path": (lambda g, x: find_signed_path(g, x, 2, 1), BadVertex),
    "find_signed_path-banned_vertices": (
        lambda g, x: find_signed_path(g, 0, 2, 1, banned_vertices=frozenset({x})),
        BadVertex,
    ),
    "find_signed_path-banned_edges": (
        lambda g, x: find_signed_path(g, 0, 2, 1, banned_edges=frozenset({x})),
        BadEdge,
    ),
    "parallel_class": (parallel_class, BadEdge),
    "delete_edge": (delete_edge, BadEdge),
    "delete_edges": (lambda g, x: delete_edges(g, [x]), BadEdge),
    "delete_edges-after_1": (lambda g, x: delete_edges(g, [1, x]), BadEdge),
    "contract_edge": (contract_edge, BadEdge),
    "delete_vertex": (delete_vertex, BadVertex),
    "switch": (lambda g, x: switch(g, [x]), BadVertex),
    "Cycle.from_edges": (lambda g, x: Cycle.from_edges(g, (4, 2, x)), BadEdge),
    "add_edge": (lambda g, x: add_edge(g, x, 1, 1), BadVertex),
    "SignedGraph.edge": (lambda g, x: g.edge(x), BadEdge),
    "SignedGraph.degree": (lambda g, x: g.degree(x), BadVertex),
    "SignedGraph.build-count": (lambda g, x: SignedGraph.build(x, ITEMS), BadVertex),
    "SignedGraph.build-end": (lambda g, x: SignedGraph.build(4, [(x, 1, 1)]), BadVertex),
    "components": (lambda g, x: components(g, frozenset({x})), BadVertex),
    "blocks": (lambda g, x: blocks(g, frozenset({x})), BadVertex),
    "side_vertices": (lambda g, x: side_vertices(g, frozenset({x})), BadEdge),
}


def probe() -> SignedGraph:
    """A 4-cycle with one negative edge and the chord (0, 2)."""
    return SignedGraph.build(4, ITEMS)


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("entry", ENTRIES)
def test_an_ill_typed_id_raises_a_typed_error(entry, bad):
    call, error = ENTRIES[entry]
    with pytest.raises(error):
        call(probe(), bad)


@pytest.mark.parametrize("item", [(0, 1), (0, 1, 1, 1), 5, None])
def test_build_rejects_an_item_that_is_not_a_triple(item):
    with pytest.raises(BadParams):
        SignedGraph.build(3, [item])


def test_build_takes_lists_as_items():
    assert SignedGraph.build(4, [list(t) for t in ITEMS]) == probe()


@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_verify_names_a_bad_id_and_does_not_raise(bad):
    g = probe()
    v = decide_tied(g, 1, 2)
    for given in (v, verdict_to_doc(v, 1, 2)):
        ok, reason = verify_certificate(g, bad, 2, given)
        assert not ok
        assert reason.startswith(f"edge id {bad!r} ")


def test_check_edges_checks_each_id_before_asking_for_distinct_ones():
    g = probe()
    assert check_edges(g, 1, 2) == [g.edge(1), g.edge(2)]
    with pytest.raises(SameEdge, match="^need two distinct edges, got 2 twice$"):
        check_edges(g, 2, 2)
    with pytest.raises(SameEdge, match="^need three distinct edges, got 1 twice$"):
        check_edges(g, 1, 2, 1)
    # True == 1, but it is not an edge id, so it is not a repeat of 1
    with pytest.raises(BadEdge):
        check_edges(g, 1, True)
