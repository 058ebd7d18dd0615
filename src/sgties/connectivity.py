"""Connectivity structure: components, blocks, 2-separations, 3-connectivity.

All routines treat the graph as a multigraph; parallel edges matter for
blocks (a doubled edge is a 2-connected block) but never for vertex cuts.
``components`` and ``blocks`` take a set of removed vertices and walk the
graph as if those vertices and their edges were absent.

2-cuts rest on one fact: in a 2-connected graph, {u, v} is a vertex cut
exactly when v is a cut vertex of G-u.  One lowpoint search of G-u per
vertex u finds the lexicographically smallest 2-cut, or proves there is
none, in O(n(n+m)) time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import EdgeId, SignedGraph, VertexId
from .errors import NotTwoConnected


def components(
    g: SignedGraph, removed: frozenset[VertexId] = frozenset()
) -> list[frozenset[VertexId]]:
    """Connected components of g minus ``removed``, ordered by smallest member."""
    seen = [False] * g.n
    for x in removed:
        seen[x] = True
    out: list[frozenset[int]] = []
    for root in range(g.n):
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        queue = [root]
        while queue:
            v = queue.pop()
            for _, w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


@dataclass(frozen=True)
class BlockTree:
    """Blocks (edge-id sets partitioning E) and cut vertices.

    Isolated vertices belong to no block.
    """

    blocks: tuple[frozenset[EdgeId], ...]
    cut_vertices: frozenset[VertexId]

    def block_of(self, e: EdgeId) -> frozenset[EdgeId]:
        for b in self.blocks:
            if e in b:
                return b
        raise KeyError(f"edge {e} is in no block")


def blocks(g: SignedGraph, removed: frozenset[VertexId] = frozenset()) -> BlockTree:
    """Biconnected components of g minus ``removed``, by iterative lowpoint search.

    Each DFS frame is (vertex, entry edge id, adjacency iterator).  Only
    the entry edge's own id is skipped: an id occurs once in each
    endpoint's adjacency (loops are rejected at build), and parallel
    edges back to the parent count as genuine back edges.  A tree edge is
    pushed on the edge stack when it discovers a vertex, a back edge when
    seen from its deeper end, so each edge is pushed once.  When a child v
    closes with low[v] >= disc[parent], its block is the slice of the edge
    stack from v's tree edge up, taken as one frozenset and deleted in one
    step.  Edges at removed vertices belong to no block.
    """
    n = g.n
    adjacency = g.adjacency
    disc = [-1] * n
    # a removed vertex looks discovered after every real one, so edges to
    # it are neither tree edges nor back edges
    for x in removed:
        disc[x] = n
    low = [0] * n
    at = [0] * n  # edge-stack position of each vertex's tree edge
    cuts: set[int] = set()
    estack: list[int] = []
    push = estack.append
    out: list[frozenset[int]] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(adjacency[root]))]
        while stack:
            v, entry, it = stack[-1]
            dv = disc[v]
            for eid, w in it:
                dw = disc[w]
                if dw == -1:
                    at[w] = len(estack)
                    push(eid)
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, eid, iter(adjacency[w])))
                    break
                if dw < dv and eid != entry:
                    push(eid)
                    if dw < low[v]:
                        low[v] = dw
            else:
                stack.pop()
                if not stack:
                    break
                p = stack[-1][0]
                lv = low[v]
                if lv < low[p]:
                    low[p] = lv
                if lv >= disc[p]:
                    # v's subtree hangs off p: pop one block.
                    i = at[v]
                    out.append(frozenset(estack[i:]))
                    del estack[i:]
                    if p == root:
                        root_children += 1
                    else:
                        cuts.add(p)
        if root_children > 1:
            cuts.add(root)
    if len(out) > 1:  # every G-u of a 3-connected scan has a lone block
        out.sort(key=min)
    return BlockTree(tuple(out), frozenset(cuts))


def is_2_connected(g: SignedGraph) -> bool:
    """Connected, at least 2 vertices, and a single cycle-bearing block."""
    if g.n < 2:
        return False
    bt = blocks(g)
    # with one block and no isolated vertex, the block spans g
    return len(bt.blocks) == 1 and len(bt.blocks[0]) >= 2 and all(g.adjacency)


@dataclass(frozen=True)
class Separation:
    """An edge bipartition meeting only at the two boundary vertices."""

    side1: frozenset[EdgeId]
    side2: frozenset[EdgeId]
    boundary: tuple[VertexId, VertexId]


def side_vertices(g: SignedGraph, side: frozenset[EdgeId]) -> frozenset[VertexId]:
    ends = [g.edge(e) for e in side]
    return frozenset([e.u for e in ends] + [e.v for e in ends])


def _first_cut_pair(g: SignedGraph) -> Optional[tuple[VertexId, VertexId]]:
    """Lexicographically smallest 2-cut (u < v) of a 2-connected graph.

    The first u whose G-u has a cut vertex has only cut vertices above
    it: a cut vertex w < u of G-u would make u a cut vertex of G-w, and
    the scan would have stopped at w.
    """
    for u in range(g.n):
        cuts = blocks(g, frozenset((u,))).cut_vertices
        if cuts:
            return u, min(cuts)
    return None


def find_proper_2_separation(g: SignedGraph) -> Optional[Separation]:
    """Deterministic proper 2-separation of a 2-connected graph, if any.

    The boundary is the lexicographically smallest vertex pair whose
    removal disconnects g, found as the first cut vertex of some G-u in
    O(n(n+m)); side1 is the smallest single-component side (fewest
    edges, then smallest ids).  Returns None exactly when no cut pair
    exists, i.e. when g is 3-connected or too small to separate properly.

    This is the guarded entry: it first proves g 2-connected and raises
    NotTwoConnected otherwise.  The search itself is
    ``_proper_2_separation``, which skips that proof; only a caller that
    already knows its graph is 2-connected may call it, as the reduction
    does on every slice it splits.
    """
    if not is_2_connected(g):
        raise NotTwoConnected("find_proper_2_separation needs a 2-connected graph")
    return _proper_2_separation(g)


def _proper_2_separation(g: SignedGraph) -> Optional[Separation]:
    """find_proper_2_separation without its 2-connectivity guard."""
    if g.n < 4:
        return None
    pair = _first_cut_pair(g)
    if pair is None:
        return None
    # one edge pass: an edge joins the side of its non-boundary endpoint;
    # edges joining the boundary pair join no component side, so side2
    comps = components(g, frozenset(pair))
    label = [-1] * g.n
    for c, comp in enumerate(comps):
        for x in comp:
            label[x] = c
    sides: list[list[EdgeId]] = [[] for _ in comps]
    for i, e in enumerate(g.edges):
        c = label[e.u] if label[e.u] >= 0 else label[e.v]
        if c >= 0:
            sides[c].append(i)
    # each side lists its ids in ascending order, so it is its own sort key
    side1 = frozenset(min(sides, key=lambda s: (len(s), s)))
    side2 = frozenset(range(g.m)) - side1
    return Separation(side1, side2, pair)


def is_3_connected(g: SignedGraph) -> bool:
    """At least 4 vertices and no vertex cut of size <= 2."""
    return g.n >= 4 and is_2_connected(g) and _first_cut_pair(g) is None
