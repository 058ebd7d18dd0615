"""Balance testing and signed path search.

A signed graph is balanced when every cycle has positive sign, which
happens exactly when some switching makes every edge positive.  The
test builds a spanning forest, assigns each vertex the potential that
would make its tree path all-positive, and looks for a non-tree edge
whose sign disagrees with its endpoint potentials.  Such an edge closes
a negative cycle; otherwise switching at the negative-potential
vertices positivizes everything.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .connectivity import is_2_connected
from .core import (
    Cycle,
    EdgeId,
    Sign,
    SignedGraph,
    VertexId,
    check_sign,
    check_vertex,
    delete_edge,
    sign_product,
)
from .errors import BadParams, DomainMismatch, NotTwoConnected
from .search import SearchBudget, iter_paths


# theta per vertex; certifies balance when every edge uv has sign theta(u)*theta(v)
VertexSigning = tuple[Sign, ...]


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of a balance test, with a checkable witness either way.

    Balanced: ``signing`` gives a vertex potential realizing the
    signature (sigma(uv) = signing[u] * signing[v]); switching at the
    negative-potential vertices makes every edge positive.
    Unbalanced: ``negative_cycle`` is a cycle of negative sign.
    """

    balanced: bool
    signing: Optional[VertexSigning]
    negative_cycle: Optional[Cycle]

    @property
    def switch(self) -> Optional[frozenset[VertexId]]:
        """Vertices to switch so that every edge becomes positive."""
        if self.signing is None:
            return None
        return frozenset(v for v, s in enumerate(self.signing) if s == -1)


def is_balanced(g: SignedGraph) -> BalanceResult:
    """Test balance, returning a vertex signing or a negative cycle."""
    theta = [0] * g.n
    parent_vertex = [-1] * g.n
    parent_edge = [-1] * g.n
    depth = [0] * g.n
    tree = [False] * g.m
    for root in range(g.n):
        if theta[root] != 0:
            continue
        theta[root] = 1
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for eid, w in g.adjacency[v]:
                if theta[w] != 0:
                    continue
                theta[w] = theta[v] * g.edges[eid].sign
                parent_vertex[w] = v
                parent_edge[w] = eid
                depth[w] = depth[v] + 1
                tree[eid] = True
                queue.append(w)
    for eid, e in enumerate(g.edges):
        if tree[eid]:
            continue
        if e.sign * theta[e.u] * theta[e.v] == 1:
            continue
        cycle = _fundamental_cycle(g, parent_vertex, parent_edge, depth, eid)
        return BalanceResult(False, None, cycle)
    return BalanceResult(True, tuple(theta), None)


def _fundamental_cycle(
    g: SignedGraph,
    parent_vertex: list[int],
    parent_edge: list[int],
    depth: list[int],
    eid: EdgeId,
) -> Cycle:
    # non-tree edge plus the tree path between its endpoints
    e = g.edges[eid]
    ids = {eid}
    a, b = e.u, e.v
    while depth[a] > depth[b]:
        ids.add(parent_edge[a])
        a = parent_vertex[a]
    while depth[b] > depth[a]:
        ids.add(parent_edge[b])
        b = parent_vertex[b]
    while a != b:
        ids.add(parent_edge[a])
        a = parent_vertex[a]
        ids.add(parent_edge[b])
        b = parent_vertex[b]
    return Cycle.from_edge_set(g, frozenset(ids))


def signatures_equivalent(
    g: SignedGraph, other: Sequence[Sign]
) -> tuple[Optional[frozenset[VertexId]], Optional[Cycle]]:
    """Compare g's signature with another signature on the same edges.

    Two signatures are switching-equivalent exactly when they agree on
    the sign of every cycle, which happens exactly when their pointwise
    product is a balanced signature.  Returns ``(switch, None)`` with a
    switching set taking g's signature to ``other``, or ``(None, cycle)``
    with a cycle whose sign differs under the two signatures.
    """
    if len(other) != g.m:
        raise DomainMismatch(
            f"signature covers {len(other)} edges, graph has {g.m}"
        )
    items = []
    for eid in range(g.m):
        e = g.edge(eid)
        items.append((e.u, e.v, e.sign * check_sign(other[eid])))
    diff = SignedGraph.build(g.n, items)
    res = is_balanced(diff)
    if res.balanced:
        return res.switch, None
    return None, res.negative_cycle


def edge_in_both_signs(g: SignedGraph, eid: EdgeId) -> bool:
    """Does this edge lie on both a positive and a negative cycle?

    Requires a 2-connected graph, where the answer reduces to one
    balance test: the edge sees both signs iff deleting it leaves an
    unbalanced graph.
    """
    g.edge(eid)
    if not is_2_connected(g):
        raise NotTwoConnected("edge sign test needs a 2-connected graph")
    rest, _ = delete_edge(g, eid)
    return not is_balanced(rest).balanced


@dataclass(frozen=True)
class SignedPath:
    """Simple path with its sign (product of edge signs)."""

    edges: tuple[EdgeId, ...]
    vertices: tuple[VertexId, ...]
    sign: Sign


@dataclass(frozen=True)
class PathSearchResult:
    """``path`` when found; ``complete`` tells whether absence is proven.

    ``path is None and complete`` means no such path exists.  With
    ``complete`` False the search ran out of budget before deciding.
    """

    path: Optional[SignedPath]
    complete: bool


def find_signed_path(
    g: SignedGraph,
    u: VertexId,
    v: VertexId,
    sign: Sign,
    *,
    banned_vertices: frozenset[VertexId] = frozenset(),
    banned_edges: frozenset[EdgeId] = frozenset(),
    budget: Optional[SearchBudget] = None,
) -> PathSearchResult:
    """Search for a simple u..v path of the requested sign, u and v distinct."""
    check_sign(sign)
    if check_vertex(g.n, u) == check_vertex(g.n, v):
        raise BadParams("path endpoints must differ")
    for x in banned_vertices:
        check_vertex(g.n, x)
    for e in banned_edges:
        g.edge(e)
    b = budget if budget is not None else SearchBudget()
    for edges, verts in iter_paths(
        g, u, v, banned_vertices=banned_vertices, banned_edges=banned_edges, budget=b
    ):
        if sign_product(g, edges) == sign:
            return PathSearchResult(SignedPath(edges, verts, sign), True)
    return PathSearchResult(None, not b.exhausted)
