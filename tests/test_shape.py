"""Shape-independence gates: the input's size, not its shape, sets the cost.

Each family is a seeded graph kind with a size parameter.  The gate is a
count, not a timing, so it does not depend on the machine's load: the
count at size 2s may be at most GROWTH times the count at size s, which
an O(m log m) cost meets and a quadratic one (about 4) does not.
"""

import random

import pytest

import sgties.connectivity
import sgties.decide
import sgties.oracle
from sgties import (
    SignedGraph,
    Slice,
    decide_tied,
    ladder,
    random_3_connected,
    verdict_to_doc,
    verify_certificate,
)

GROWTH = 2.5


def _copied_edges(monkeypatch, instances):
    """For each (g, e1, e2), the edges of the slices Slice.sub returns
    while deciding it, the root slice included."""
    copied = [0]
    real_sub = Slice.sub

    def counting_sub(sl, *args, **kwargs):
        out = real_sub(sl, *args, **kwargs)
        copied[0] += out.g.m
        return out

    monkeypatch.setattr(Slice, "sub", counting_sub)
    counts = []
    for g, e1, e2 in instances:
        copied[0] = 0
        decide_tied(g, e1, e2)
        counts.append(copied[0])
    return counts


def _assert_growth(counts):
    for small, large in zip(counts, counts[1:]):
        assert large <= GROWTH * small, counts


def _flat(n, subdivided):
    """random_3_connected(n, n, 0, 1) with edge 0 flipped, and the pair
    (0, m-1); when ``subdivided``, every other edge is subdivided once,
    so that each becomes a far side of its own.  Tied either way."""
    g = random_3_connected(n, n, 0, 1)
    (u, v, s), *rest = [(e.u, e.v, e.sign) for e in g.edges]
    items = [(u, v, -s)]
    for w, (u, v, s) in enumerate(rest[:-1], start=g.n):
        items += [(u, w, s), (w, v, 1)] if subdivided else [(u, v, s)]
    items.append(rest[-1])
    h = SignedGraph.build(g.n + (len(rest) - 1 if subdivided else 0), items)
    return h, 0, h.m - 1


@pytest.mark.parametrize("doubled", [False, True], ids=["plain", "doubled"])
def test_part1_chain_copies_grow_no_faster_than_m_log_m(monkeypatch, doubled):
    """A ladder whose pair is its first and last rung reduces by a chain
    of part-1 splits.  The edges of the slices Slice.sub returns while
    deciding it, the root slice included, grow 2.18 to 2.23 times per
    doubling of the rungs, from 3,459 at 125 rungs to 36,912 at 1,000
    (plain)."""
    rungs = (125, 250, 500, 1000)
    _assert_growth(_copied_edges(monkeypatch, (ladder(k, 1, doubled=doubled) for k in rungs)))


def _calls_per_ladder_decide(monkeypatch, module, name):
    """The calls of ``module.name`` while deciding ladder(k, 1), whose
    pair is its first and last rung, for k = 40, 80, 160 and 320."""
    calls = [0]
    real = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    counts = []
    for rungs in (40, 80, 160, 320):
        calls[0] = 0
        decide_tied(*ladder(rungs, 1))
        counts.append(calls[0])
    return counts


def test_part1_chain_runs_one_flow(monkeypatch):
    """Only the first split of a part-1 chain runs a flow and a bridge
    sweep; each child inherits its side's arc of the common cycle and of
    the cut table.  A chain that starts at the root keeps its flow
    cycle, which also shows the tied sign, so deciding a ladder whose
    pair is its first and last rung calls find_common_cycle once at
    every size.  A second flow for the tied sign made it 2, and one flow
    per split 46, 94, 190 and 382 at these sizes."""
    counts = _calls_per_ladder_decide(monkeypatch, sgties.decide, "find_common_cycle")
    assert counts == [1] * 4, counts


def test_part1_chain_runs_one_2_cut_pass(monkeypatch):
    """A part-1 child whose inherited cut table still allows a cut splits
    at its median without the linear 2-cut pass, so deciding a ladder
    whose pair is its first and last rung runs the pass once, at the
    root, at every size.  A pass per split made 45, 93, 189 and 381."""
    counts = _calls_per_ladder_decide(monkeypatch, sgties.decide, "_separation_pair")
    assert counts == [counts[0]] * 4, counts


def _enumerations(monkeypatch):
    """A one-element list counting the oracle's depth-first common-cycle
    searches, one per enumeration."""
    calls = [0]
    real = sgties.oracle._iter_common_cycles

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(sgties.oracle, "_iter_common_cycles", counting)
    return calls


def _decide_and_verify_enumerations(calls, g, e1, e2):
    """The enumerations of one decide_tied and of one verify_certificate
    of its document."""
    calls[0] = 0
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    decided = calls[0]
    calls[0] = 0
    assert verify_certificate(g, e1, e2, doc) == (True, "ok")
    return decided, calls[0]


def test_leaf_shapes_are_enumerated_once_per_call(monkeypatch):
    """A part-1 chain cuts a ladder whose pair is its first and last
    rung into enum leaves of 10 unsigned shapes at every size.  decide
    and verify each enumerate every shape once per call; one enumeration
    per enum leaf made 22, 46, 94 and 190 at these sizes."""
    calls = _enumerations(monkeypatch)
    counts = [
        _decide_and_verify_enumerations(calls, *ladder(rungs, 1)) for rungs in (20, 40, 80, 160)
    ]
    assert counts == [(10, 10)] * 4, counts


def test_no_leaf_shape_outlives_its_call(monkeypatch):
    """Back-to-back calls on one ladder enumerate as much as the first
    did: each decide_tied and each verify_certificate starts from an
    empty memo, as a fresh process would."""
    calls = _enumerations(monkeypatch)
    g, e1, e2 = ladder(40, 1)
    first = _decide_and_verify_enumerations(calls, g, e1, e2)
    assert _decide_and_verify_enumerations(calls, g, e1, e2) == first == (10, 10)


def test_a_split_builds_the_sides_of_one_cut(monkeypatch):
    """A part-1 split cuts at the median straddling 2-cut and builds the
    sides of that cut only.  Deciding ladder(40, 1), 45 part-1 splits,
    builds sides 46 times: once per split, and once at the cut the
    chain's one linear pass names, which shows that the pair straddles
    it.  A split that also built the sides of the cut the pass names
    would build them 90 times."""
    calls = [0]
    real = sgties.connectivity._component_sides

    def counting(*args):
        calls[0] += 1
        return real(*args)

    for mod in (sgties.connectivity, sgties.decide):
        monkeypatch.setattr(mod, "_component_sides", counting)
    g, e1, e2 = ladder(40, 1)
    stack, parts = [verdict_to_doc(decide_tied(g, e1, e2), e1, e2)["certificate"]], []
    while stack:
        node = stack.pop()
        if node["kind"] == "preprocess":
            stack.append(node["inner"])
        elif node["kind"] == "split":
            parts.append(node["part"])
            stack.extend(child["node"] for child in node["children"])
    assert parts == [1] * 45
    assert calls == [46]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: each part-2/3 split replaces one rung, so copies grow 4 times",
)
def test_adjacent_rung_ladder_copies_grow_no_faster_than_m_log_m(monkeypatch):
    """A ladder whose pair is two adjacent rungs, (0, 1), reduces by a
    chain of part-2/3 splits that each replace the far end of the
    ladder, one rung per level: 1,886, 7,536, 30,082 and 120,178 edges
    copied at 25, 50, 100 and 200 rungs."""
    rungs = (25, 50, 100, 200)
    _assert_growth(_copied_edges(monkeypatch, ((ladder(k, 1)[0], 0, 1) for k in rungs)))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 14, 12 and 4: one nested part-2 split per subdivided edge",
)
def test_subdivided_flat_graph_copies_grow_no_faster_than_m_log_m(monkeypatch):
    """A 3-connected graph with every edge but the pair subdivided
    nests one part-2 split per subdivided edge, m/2 deep, and each level
    copies the kept side: 4,890, 20,553 and 84,372 edges copied at
    n = 20, 40 and 80."""
    counts = _copied_edges(monkeypatch, (_flat(n, True) for n in (20, 40, 80)))
    _assert_growth(counts)


def _theta(k, seed):
    """Vertices 0 and 1 joined by three internally disjoint paths of k
    edges each, with seeded random signs; the pair is the first edge of
    the first path and the first edge of the second."""
    rng = random.Random(seed)
    items, n = [], 2
    for _ in range(3):
        path = [0, *range(n, n + k - 1), 1]
        n += k - 1
        items += [(u, v, rng.choice((1, -1))) for u, v in zip(path, path[1:])]
    return SignedGraph.build(n, items), 0, k


def test_long_path_theta_copies_grow_no_faster_than_m_log_m(monkeypatch):
    """A theta graph whose three paths have k edges each reduces by
    part-1 chains, and a child splits part 1 again while its inherited
    table allows a cut: 567, 1,293, 2,897 and 6,407 edges copied at
    k = 25, 50, 100 and 200, with splits nested 9 deep at k = 200.  When
    each child ran the 2-cut pass first, it found a 2-edge far side and
    nested one part-2 split per path edge: 1,387, 4,763, 17,242 and
    64,902 edges, 207 deep."""
    _assert_growth(_copied_edges(monkeypatch, (_theta(k, 1) for k in (25, 50, 100, 200))))


def test_flat_graph_copies_grow_no_faster_than_m_log_m(monkeypatch):
    """The control for the subdivided family: the same 3-connected
    graphs, unsubdivided, are one leaf each and copy only their root
    slice, without the edges parallel to the pair: 57, 117 and 238
    edges."""
    _assert_growth(_copied_edges(monkeypatch, (_flat(n, False) for n in (20, 40, 80))))


def _mixed(n):
    """random_3_connected(n, n, 0, 1) with the pair (0, m-1), and each
    edge but the pair given a parallel copy of the opposite sign: one
    3-connected leaf with m/2 - 1 parallel classes that hold both signs.
    Untied."""
    g = random_3_connected(n, n, 0, 1)
    items = [(e.u, e.v, e.sign) for e in g.edges]
    h = SignedGraph.build(g.n, items + [(u, v, -s) for u, v, s in items[1:-1]])
    return h, 0, g.m - 1


def test_mixed_class_leaf_deletes_no_faster_than_m_log_m(monkeypatch):
    """Case 1 is tried only when the leaf has exactly one parallel class
    with both signs: every other one would stay in G - F - pair as a
    negative 2-cycle.  The edges that delete_edges returns per decide of
    the mixed-class leaf are 230, 472, 952 and 1,912 at n = 40 to 320,
    its one case-3 test; one case-1 test per mixed class copied 25,760,
    109,504, 450,296 and 1,818,312."""
    copied = [0]
    real = sgties.decide.delete_edges

    def counting(*args):
        out = real(*args)
        copied[0] += out[0].m
        return out

    monkeypatch.setattr(sgties.decide, "delete_edges", counting)
    counts = []
    for n in (40, 80, 160, 320):
        copied[0] = 0
        decide_tied(*_mixed(n))
        counts.append(copied[0])
    _assert_growth(counts)
