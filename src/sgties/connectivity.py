"""Connectivity structure: components, blocks, 2-separations, 3-connectivity.

All routines treat the graph as a multigraph; parallel edges matter for
blocks (a doubled edge is a 2-connected block) but never for vertex cuts.
``components`` and ``blocks`` take a set of removed vertices, each checked
by check_vertex, and walk the graph as if they and their edges were absent.

Whether a graph has a vertex cut of at most 2 vertices, and which
2-cut a separation uses, is one linear pass, ``_separation_pair``
(Hopcroft & Tarjan's path search, cut down to detection): a separation
splits at the first 2-cut that pass names, so finding one costs O(n+m)
whatever the graph's shape.  ``_sides`` is the one rule that turns a
2-cut into the two sides of a separation, for the prover's splits too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import EdgeId, SignedGraph, VertexId, check_vertex
from .errors import NotTwoConnected


def components(
    g: SignedGraph, removed: frozenset[VertexId] = frozenset()
) -> list[frozenset[VertexId]]:
    """Connected components of g minus ``removed``, ordered by smallest member."""
    seen = [False] * g.n
    for x in removed:
        seen[check_vertex(g.n, x)] = True
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
        disc[check_vertex(n, x)] = n
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
    if len(out) > 1:  # a 2-connected graph, the common case, has a lone block
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


def _separation_pair(g: SignedGraph) -> Optional[tuple[VertexId, VertexId]]:
    """A vertex cut (u <= v) of a graph with n >= 4, or None if it is 3-connected.

    A pair (c, c) is a cut vertex c, or c = 0 when g is disconnected;
    the first DFS below stops there when g is not 2-connected.

    Hopcroft & Tarjan's triconnectivity search (1973, as corrected by
    Gutwenger & Mutzel 2000), cut down to detection: it stops at the
    first separation pair and splits nothing, in O(n+m) and without
    recursion.  It runs on the graph with parallel edges collapsed,
    since they never make a vertex cut.  Every 2-cut {a, b} of a
    2-connected graph is an ancestor-descendant pair of any DFS tree,
    a above b, and the search meets one in one of three ways:

    - the two neighbours of a vertex of degree 2;
    - type 1: a tree edge b->w with lowpt1(w) = a and lowpt2(w) >= b,
      so T(w) hangs on a and b alone, and some vertex lies outside
      T(w) and the pair;
    - type 2: a is not the root, b lies below a child r != b of a, no
      frond from T(r) outside T(b) goes above a, and no child subtree
      of b has fronds both above a and strictly between a and b.  The
      path search finds these.

    One DFS from vertex 0, taking each vertex's edges in id order,
    numbers the vertices in preorder (numbers are 1-based, 0 means
    "none"), takes lowpt1/lowpt2 and checks type 1.  Each vertex's arcs
    (tree edges to children, fronds to ancestors) are then bucket-sorted
    by phi: 3 lowpt1(w) for a tree arc v->w with lowpt2(w) < v,
    3 lowpt1(w) + 2 for one with lowpt2(w) >= v, 3 w + 1 for a frond
    v->w.  A second walk in that order renumbers the vertices so that
    each subtree holds a range whose first child's subtree is at the
    top, splits the walk into paths (a path ends at a frond, so every
    arc but a vertex's first starts one), and notes high(v), the new
    number of the source of the first frond into v.  The path search
    replays that walk with a stack of triples (h, a, b), each a
    candidate type-2 pair {a, b} whose split-off part spans the new
    numbers a..h; the first triple that closes at a = v with b not a
    child of v is the answer.

    Gutwenger & Mutzel also pop a triple that closes at a = v with b a
    child of v; none exists here.  A triple with b = x has a above x: a
    frond's head (an edge to the parent is no frond) or lowpt1 of a
    child of x, and a pop only moves a up.  So such a triple comes from
    an arc b->w with lowpt1(w) = v; then lowpt2(w) >= b, and the first
    DFS returned {v, b} as a type-1 pair unless v is the root, where the
    loop is not entered.  Seeded searches over 148,544 2-connected
    graphs with n <= 12 never pop it.  Gutwenger & Mutzel also start a
    path at the root's first arc; here it starts none, as no vertex's
    first arc does.  The root of a 2-connected graph has one child, and
    the triple (h, 1, 0) that arc would push is never read: a push pops
    only larger a's and no a is below 1, the type-2 test skips the root,
    and the root's return comes last.  Their pop on the return to v also
    stops at a triple with a = v, and none is left there: between
    end-of-stack marks the a's never decrease toward the top (a push
    pops every larger a), and each return has popped the triples with
    a = its vertex.  That pop is skipped at the root, the last return.
    """
    n = g.n
    adjacency = g.adjacency
    num = [0] * n
    at = [0] * (n + 1)  # the vertex with each preorder number
    parent = [-1] * n
    low1 = [0] * n
    low2 = [0] * n
    nd = [1] * n
    # every arc lands in its phi bucket as soon as its key is known:
    # bucket 3x+1 holds the sources of fronds into the vertex numbered
    # x, buckets 3x and 3x+2 the heads of tree arcs with lowpt1 = x
    bucket: list[list[int]] = [[] for _ in range(3 * n + 3)]
    num[0] = low1[0] = low2[0] = 1
    count = 1
    stack = [(0, iter(adjacency[0]))]
    while stack:
        v, it = stack[-1]
        nv = num[v]
        pv = parent[v]
        for _, w in it:
            nw = num[w]
            if not nw:
                count += 1
                num[w] = low1[w] = low2[w] = count
                at[count] = w
                parent[w] = v
                stack.append((w, iter(adjacency[w])))
                break
            if nw < nv and w != pv:
                bucket[3 * nw + 1].append(v)
                if nw < low1[v]:
                    low2[v] = low1[v]
                    low1[v] = nw
                elif low1[v] < nw < low2[v]:
                    low2[v] = nw
        else:
            stack.pop()
            if not stack:
                break
            np_ = num[pv]
            l1, l2 = low1[v], low2[v]
            if l1 >= np_ and (np_ > 1 or nd[v] < n - 1):
                return pv, pv  # T(v) hangs on pv alone
            if l1 < np_ <= l2 and nd[v] < n - 2:
                a = at[l1]  # type 1
                return (a, pv) if a < pv else (pv, a)
            bucket[3 * l1 + (2 if l2 >= np_ else 0)].append(v)
            if l1 < low1[pv]:
                low2[pv] = min(low1[pv], l2)
                low1[pv] = l1
            elif l1 == low1[pv]:
                if l2 < low2[pv]:
                    low2[pv] = l2
            elif l1 < low2[pv]:
                low2[pv] = l1
            nd[pv] += nd[v]
    if count < n:
        return 0, 0  # vertex 0 reaches no other vertex
    arcs: list[list[int]] = [[] for _ in range(n)]
    into = [0] * n  # fronds into each vertex
    for k, heads in enumerate(bucket):
        if k % 3 == 1:
            w = at[k // 3]
            for v in heads:
                out = arcs[v]
                if not out or out[-1] != w:  # parallel fronds arrive in a row
                    out.append(w)
                    into[w] += 1
        else:
            for w in heads:
                arcs[parent[w]].append(w)
    for v in range(n):
        if len(arcs[v]) + into[v] + (v > 0) == 2:
            ends = set(arcs[v]).union(bucket[3 * num[v] + 1])
            if v:
                ends.add(parent[v])
            a, b = ends
            return (a, b) if a < b else (b, a)
    # The path finder walk keeps what the search acts on: (v, a, h) for
    # an arc out of v that starts a path and would push (h, a, v), and
    # (v, None, starts) for the return to v over a tree arc.
    new = [0] * n
    high = [0] * n
    new[0] = 1
    top = n
    steps: list[tuple[int, Optional[int], int]] = []
    walk = [(0, iter(arcs[0]), True)]
    while walk:
        v, it, _ = walk[-1]
        first = arcs[v][0]
        nv = new[v]
        for w in it:
            if parent[w] == v:
                new[w] = top - nd[w] + 1
                if w != first:
                    steps.append((v, new[at[low1[w]]], new[w] + nd[w] - 1))
                walk.append((w, iter(arcs[w]), w != first))
                break
            if not high[w]:
                high[w] = nv
            if w != first:
                steps.append((v, new[w], -nv))  # a frond: -h
        else:
            _, _, starts = walk.pop()
            if walk:
                top -= 1
                steps.append((walk[-1][0], None, starts))
    eos = (n + 1, 0, -1)  # end-of-stack mark: h above and a below every vertex
    ts = [eos]
    for v, a, h in steps:
        if a is None:
            nv = new[v]
            while ts[-1][1] == nv and nv != 1:
                b = ts[-1][2]
                if parent[b] != v:
                    return (v, b) if v < b else (b, v)  # type 2
                ts.pop()
            if h:  # the arc started a path: drop its triples
                while ts.pop() is not eos:
                    pass
            hv = high[v]
            while ts[-1][2] != v and hv > ts[-1][0]:
                ts.pop()
            continue
        y, b = 0, -1
        while ts[-1][1] > a:
            th, _, b = ts.pop()
            if th > y:
                y = th
        if h < 0:  # a frond
            ts.append((-h, a, v) if b == -1 else (y, a, b))
        else:
            ts.append((h, a, v) if b == -1 else (max(y, h), a, b))
            ts.append(eos)
    return None


def find_proper_2_separation(g: SignedGraph) -> Optional[Separation]:
    """Deterministic proper 2-separation of a 2-connected graph, if any.

    The boundary is a 2-cut the linear pass ``_separation_pair`` names,
    O(n+m); side1 is its component side with fewest edges (``_sides``).
    Returns None exactly when no cut pair exists, i.e. when g is
    3-connected or too small to separate properly.

    It first proves g 2-connected and raises NotTwoConnected otherwise.
    """
    if not is_2_connected(g):
        raise NotTwoConnected("find_proper_2_separation needs a 2-connected graph")
    if g.n < 4:
        return None
    pair = _separation_pair(g)
    if pair is None:
        return None
    side1, side2 = _sides(g, min(_component_sides(g, pair), key=len))
    return Separation(frozenset(side1), frozenset(side2), pair)


def _component_sides(g: SignedGraph, pair: tuple[VertexId, VertexId]) -> list[list[EdgeId]]:
    """The edges of each component of g less the 2-cut pair, in ascending
    order, the sides by their smallest edge: the first side with fewest
    edges is then the one with the smallest ids.

    One edge pass: an edge joins the side of its non-boundary endpoint,
    and an edge joining the pair joins none.
    """
    comps = components(g, frozenset(pair))
    assert len(comps) > 1, f"{pair} is not a 2-cut"
    label = [-1] * g.n
    for c, comp in enumerate(comps):
        for x in comp:
            label[x] = c
    sides: list[list[EdgeId]] = [[] for _ in comps]
    for i, e in enumerate(g.edges):
        c = label[e.u] if label[e.u] >= 0 else label[e.v]
        if c >= 0:
            sides[c].append(i)
    return sorted(sides)  # disjoint, so by smallest edge


def _sides(g: SignedGraph, near: Sequence[EdgeId]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sides of a 2-cut, from ``near``, one of its component sides
    in ascending ids: ``near`` and the rest, as ascending tuples, the
    smaller first (fewest edges, then smallest ids).  Edges joining the
    boundary pair join no component side, so they go with the rest.
    """
    near = tuple(near)
    rest = tuple(sorted(set(range(g.m)).difference(near)))
    return (near, rest) if (len(near), near) < (len(rest), rest) else (rest, near)


def is_3_connected(g: SignedGraph) -> bool:
    """At least 4 vertices and no vertex cut of size <= 2: one O(n+m) pass."""
    return g.n >= 4 and _separation_pair(g) is None
