"""Path searches: budgeted depth-first enumeration and linear disjoint paths.

iter_paths enumerates simple paths depth first; the balance layer
(signed path search) and the oracle (exhaustive common-cycle
enumeration) share it.  It is exponential in the worst case, so it
always runs against a budget.  disjoint_paths finds k vertex-disjoint
paths between two vertex sets by unit-capacity flow in O(k·m); the
common-cycle search and the decision procedure's witness constructions
ask for at most two.  A flow runs uncapped unless its caller passes a
budget.  Everything here is exact and deterministic; a budget only caps
how much work is done.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .core import EdgeId, SignedGraph, VertexId

DEFAULT_BUDGET = 1_000_000


@dataclass
class SearchBudget:
    """Mutable step counter capping path searches.

    One unit is charged per adjacency entry a search considers.  The
    depth-first enumeration always takes a budget, since it may need
    exponentially many units; a disjoint-path search takes one only when
    its caller wants it counted or capped, and then needs at most
    2·k·m.  Once ``spent`` passes ``limit`` the search stops early and
    the caller must treat its result as incomplete.
    """

    limit: int = DEFAULT_BUDGET
    spent: int = field(default=0, compare=False)

    def charge(self, amount: int = 1) -> bool:
        """Consume budget; False means the budget is now exhausted."""
        self.spent += amount
        return self.spent <= self.limit

    @property
    def exhausted(self) -> bool:
        return self.spent > self.limit


def iter_paths(
    g: SignedGraph,
    start: VertexId,
    goal: VertexId,
    *,
    banned_vertices: frozenset[VertexId] = frozenset(),
    banned_edges: frozenset[EdgeId] = frozenset(),
    budget: SearchBudget,
) -> Iterator[tuple[tuple[EdgeId, ...], tuple[VertexId, ...]]]:
    """Yield every simple start..goal path as (edge ids, vertex sequence).

    Paths are generated in depth-first order following adjacency lists,
    which are sorted by edge id, so the order is deterministic.  Parallel
    edges give distinct paths.  ``start == goal`` is not supported.
    Stops yielding once ``budget`` is exhausted; check ``budget.exhausted``
    afterwards to learn whether the enumeration was complete.
    """
    if start in banned_vertices or goal in banned_vertices:
        return
    on_path = [False] * g.n
    on_path[start] = True
    path_verts: list[VertexId] = [start]
    path_edges: list[EdgeId] = []
    cursors = [0]  # adjacency index per path vertex
    while cursors:
        v = path_verts[-1]
        adj = g.adjacency[v]
        i = cursors[-1]
        if i >= len(adj):
            cursors.pop()
            on_path[v] = False
            path_verts.pop()
            if path_edges:
                path_edges.pop()
            continue
        cursors[-1] = i + 1
        eid, w = adj[i]
        if eid in banned_edges:
            continue
        if not budget.charge():
            return
        if w == goal:
            yield tuple(path_edges) + (eid,), tuple(path_verts) + (w,)
            continue
        if on_path[w] or w in banned_vertices:
            continue
        on_path[w] = True
        path_verts.append(w)
        path_edges.append(eid)
        cursors.append(0)


Path = tuple[tuple[EdgeId, ...], tuple[VertexId, ...]]
# residual-graph arc (from node, to node, edge id or -1); node 2v is v's
# in node, 2v+1 its out node, and -1 the source side of the flow
_Arc = tuple[int, int, int]
_Flow = list[Optional[tuple[EdgeId, VertexId]]]

# pred of a path's first vertex and succ of its last
_TERMINAL = (-1, -1)


def disjoint_paths(
    g: SignedGraph,
    sources: Iterable[VertexId],
    targets: Iterable[VertexId],
    k: int,
    *,
    banned_vertices: frozenset[VertexId] = frozenset(),
    banned_edges: frozenset[EdgeId] = frozenset(),
    budget: Optional[SearchBudget] = None,
) -> list[Path]:
    """Up to k vertex-disjoint source-to-target paths, as (edges, vertices).

    Unit-capacity flow on the vertex-split graph (every vertex an in
    node and an out node joined by one unit of capacity), grown by k
    breadth-first augmentations over the residual graph.  Each path
    starts at its own source, ends at its own target and shares no
    vertex with another.  By Menger's theorem fewer than k paths come
    back only when no k such paths exist, or when a given budget ran out
    (check ``budget.exhausted``).  Each augmentation scans every
    adjacency list at most once, so a call considers at most 2·k·m
    entries.  With no budget it neither caps nor counts them; a given
    budget is charged one unit per entry.  A path meets the sources only
    at its start and the targets only at its end, so a path from a
    source that is also a target has no edges.  Paths are listed in the
    order of their sources.
    """
    srcs = [s for s in dict.fromkeys(sources) if s not in banned_vertices]
    tgts = {t for t in targets if t not in banned_vertices}
    # the flow through each vertex, as (edge id, neighbour) along its path
    pred: _Flow = [None] * g.n
    succ: _Flow = [None] * g.n
    for _ in range(k):
        arcs = _augmenting_path(g, srcs, tgts, pred, succ, banned_vertices, banned_edges, budget)
        if arcs is None:
            break
        _augment(arcs, pred, succ)
    out = []
    for s in srcs:
        if pred[s] != _TERMINAL:
            continue
        edges: list[EdgeId] = []
        verts = [s]
        while succ[verts[-1]] != _TERMINAL:
            eid, w = succ[verts[-1]]
            edges.append(eid)
            verts.append(w)
        out.append((tuple(edges), tuple(verts)))
    return out


def _augmenting_path(
    g: SignedGraph,
    srcs: list[VertexId],
    tgts: set[VertexId],
    pred: _Flow,
    succ: _Flow,
    banned_vertices: frozenset[VertexId],
    banned_edges: frozenset[EdgeId],
    budget: Optional[SearchBudget],
) -> Optional[list[_Arc]]:
    """Breadth-first search of the residual graph for one augmenting path.

    Returns its arcs from the target's out node back to the source
    side, or None when no path exists or a given budget ran out.
    """
    back: dict[int, tuple[int, int]] = {}  # node -> (previous node, edge id)
    queue: deque[int] = deque()
    for s in srcs:
        if pred[s] != _TERMINAL:
            back[2 * s] = (-1, -1)
            queue.append(2 * s)
    while queue:
        x = queue.popleft()
        v = x >> 1
        if not x & 1:
            p = pred[v]
            if p is None:
                steps = ((2 * v + 1, -1),)  # through the unused vertex
            elif p == _TERMINAL:
                steps = ()
            else:
                steps = ((2 * p[1] + 1, p[0]),)  # undo the flow into v
        elif v in tgts and succ[v] != _TERMINAL:
            arcs = []
            y = x
            while y != -1:
                x, eid = back[y]
                arcs.append((x, y, eid))
                y = x
            return arcs
        else:
            steps = []
            if pred[v] is not None:
                steps.append((2 * v, -1))  # undo the flow through v
            for eid, w in g.adjacency[v]:
                if eid in banned_edges:
                    continue
                if budget is not None and not budget.charge():
                    return None
                # the flow's edge out of v is full; its edge into v leads
                # back to w, whose in node v's in node reaches anyway
                if w in banned_vertices or succ[v] == (eid, w) or pred[v] == (eid, w):
                    continue
                steps.append((2 * w, eid))
        for y, eid in steps:
            if y not in back:
                back[y] = (x, eid)
                queue.append(y)
    return None


def _augment(arcs: list[_Arc], pred: _Flow, succ: _Flow) -> None:
    """Push one unit along an augmenting path: cancels first, then pushes."""
    for x, y, eid in arcs:
        if eid >= 0 and not x & 1:
            # the arc in(w) -> out(p) undoes the flow p -> w
            pred[x >> 1] = None
            succ[y >> 1] = None
    succ[arcs[0][1] >> 1] = _TERMINAL
    for x, y, eid in arcs:
        if x == -1:
            pred[y >> 1] = _TERMINAL
        elif eid >= 0 and x & 1:
            v, w = x >> 1, y >> 1
            succ[v] = (eid, w)
            pred[w] = (eid, v)
