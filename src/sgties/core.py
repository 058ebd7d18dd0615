"""Signed multigraph model: graphs, slices, cycles, switching, minors, gadgets.

Vertices are dense ints 0..n-1, edge ids dense ints 0..m-1 in insertion
order.  Graphs are immutable values; every mutating operation returns a new
graph, together with relabeling maps whenever ids are compacted.

A slice is a subgraph together with the map back to the original ids;
the decision procedure and the certificate verifier both cut the graph
along 2-separations into slices, and marker edges added across a
separation are named instead of numbered.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import BadEdge, BadParams, BadVertex, LoopRejected, NotACycle

POSITIVE = 1
NEGATIVE = -1

Sign = int
VertexId = int
EdgeId = int
# reference into the original graph: edge id, or a marker edge name
Ref = Union[int, str]


def check_sign(s: int) -> Sign:
    if s not in (POSITIVE, NEGATIVE):
        raise BadParams(f"sign must be +1 or -1, got {s!r}")
    return s


def sign_char(s: Sign) -> str:
    return "+" if check_sign(s) == POSITIVE else "-"


def char_sign(c: str) -> Sign:
    if c == "+":
        return POSITIVE
    if c == "-":
        return NEGATIVE
    raise ValueError(f"sign must be '+' or '-', got {c!r}")


@dataclass(frozen=True)
class Edge:
    u: VertexId
    v: VertexId
    sign: Sign

    def endpoints(self) -> frozenset[VertexId]:
        return frozenset((self.u, self.v))

    def other(self, x: VertexId) -> VertexId:
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise BadVertex(f"vertex {x} is not an endpoint of this edge")

    def touches(self, x: VertexId) -> bool:
        return x == self.u or x == self.v


@dataclass(frozen=True)
class SignedGraph:
    n: int
    edges: tuple[Edge, ...]

    @classmethod
    def build(cls, n: int, items: Iterable[tuple[int, int, int]] = ()) -> "SignedGraph":
        """Construct a graph on n vertices from (u, v, sign) triples."""
        if n < 0:
            raise BadVertex(f"vertex count must be nonnegative, got {n}")
        out: list[Edge] = []
        for u, v, s in items:
            _check_ends(n, u, v)
            out.append(Edge(u, v, check_sign(s)))
        return cls(n, tuple(out))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, e: EdgeId) -> Edge:
        if not 0 <= e < len(self.edges):
            raise BadEdge(f"edge id {e} out of range 0..{len(self.edges) - 1}")
        return self.edges[e]

    def sign(self, e: EdgeId) -> Sign:
        return self.edge(e).sign

    def endpoints(self, e: EdgeId) -> frozenset[VertexId]:
        return self.edge(e).endpoints()

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[EdgeId, VertexId], ...], ...]:
        """adjacency[v] lists (edge id, other endpoint) in edge-id order."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            adj[e.u].append((i, e.v))
            adj[e.v].append((i, e.u))
        return tuple(tuple(a) for a in adj)

    def degree(self, v: VertexId) -> int:
        if not 0 <= v < self.n:
            raise BadVertex(f"vertex id {v} out of range 0..{self.n - 1}")
        return len(self.adjacency[v])


@dataclass(frozen=True)
class Slice:
    """A working subgraph plus maps back into the original graph.

    eref sends local edge ids to original edge ids or marker names;
    vref sends local vertex ids to original vertex ids (markers never
    introduce vertices).
    """

    g: SignedGraph
    eref: tuple[Ref, ...]
    vref: tuple[VertexId, ...]

    @classmethod
    def identity(cls, g: SignedGraph) -> "Slice":
        return cls(g, tuple(range(g.m)), tuple(range(g.n)))

    def edge_index(self) -> dict[Ref, EdgeId]:
        return {r: i for i, r in enumerate(self.eref)}

    def vert_index(self) -> dict[VertexId, VertexId]:
        return {r: i for i, r in enumerate(self.vref)}

    def sub(
        self,
        keep: Sequence[EdgeId],
        markers: Sequence[tuple[str, VertexId, VertexId, Sign]] = (),
    ) -> "Slice":
        """The slice induced by sorted local edge ids, plus marker edges.

        Each marker is (name, local u, local v, sign); markers follow the
        kept edges in the given order and are referenced by name.  The
        vertices are those the kept edges and markers touch, in order.
        Kept edges come from a valid graph and are copied unchecked;
        markers are validated like any new edge.
        """
        kept = [self.g.edge(i) for i in keep]
        verts = sorted(
            {x for e in kept for x in (e.u, e.v)}
            | {x for _, u, v, _ in markers for x in (u, v)}
        )
        vmap = {old: new for new, old in enumerate(verts)}
        edges = [Edge(vmap[e.u], vmap[e.v], e.sign) for e in kept]
        for _, u, v, s in markers:
            _check_ends(len(verts), vmap[u], vmap[v])
            edges.append(Edge(vmap[u], vmap[v], check_sign(s)))
        eref = [self.eref[i] for i in keep] + [name for name, _, _, _ in markers]
        return Slice(
            SignedGraph(len(verts), tuple(edges)),
            tuple(eref),
            tuple(self.vref[v] for v in verts),
        )


def _check_ends(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise BadVertex(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
    if u == v:
        raise LoopRejected(f"loop at vertex {u} rejected")


def new_graph(n: int) -> SignedGraph:
    """An edgeless graph on n vertices."""
    return SignedGraph.build(n)


def add_edge(g: SignedGraph, u: int, v: int, s: int) -> tuple[SignedGraph, EdgeId]:
    """Append an edge; the new edge id equals the old edge count."""
    _check_ends(g.n, u, v)
    return SignedGraph(g.n, g.edges + (Edge(u, v, check_sign(s)),)), g.m


def parallel_class(g: SignedGraph, e: EdgeId) -> frozenset[EdgeId]:
    """All edge ids sharing e's endpoint pair (including e itself)."""
    ed = g.edge(e)
    return frozenset(i for i, w in g.adjacency[ed.u] if w == ed.v)


def switch(g: SignedGraph, s: Iterable[VertexId]) -> SignedGraph:
    """Flip the sign of every edge with exactly one endpoint in s."""
    sset = frozenset(s)
    for v in sset:
        if not 0 <= v < g.n:
            raise BadVertex(f"switch set contains vertex {v} outside 0..{g.n - 1}")
    out = tuple(
        Edge(e.u, e.v, -e.sign if (e.u in sset) != (e.v in sset) else e.sign)
        for e in g.edges
    )
    return SignedGraph(g.n, out)


def delete_edge(g: SignedGraph, e: EdgeId) -> tuple[SignedGraph, dict[EdgeId, EdgeId]]:
    """Remove edge e.  Returns (graph, old id -> new id for survivors)."""
    return delete_edges(g, (e,))


def delete_edges(
    g: SignedGraph, ids: Iterable[EdgeId]
) -> tuple[SignedGraph, dict[EdgeId, EdgeId]]:
    """Remove several edges at once; map covers surviving ids."""
    drop = set(ids)
    for e in drop:
        g.edge(e)
    emap: dict[int, int] = {}
    out: list[Edge] = []
    for i, ed in enumerate(g.edges):
        if i in drop:
            continue
        emap[i] = len(out)
        out.append(ed)
    return SignedGraph(g.n, tuple(out)), emap


def delete_vertex(
    g: SignedGraph, v: VertexId
) -> tuple[SignedGraph, dict[VertexId, VertexId], dict[EdgeId, EdgeId]]:
    """Remove vertex v and all incident edges; ids are compacted."""
    if not 0 <= v < g.n:
        raise BadVertex(f"vertex id {v} out of range 0..{g.n - 1}")
    vmap = {x: (x if x < v else x - 1) for x in range(g.n) if x != v}
    emap: dict[int, int] = {}
    out: list[Edge] = []
    for i, ed in enumerate(g.edges):
        if ed.touches(v):
            continue
        emap[i] = len(out)
        out.append(Edge(vmap[ed.u], vmap[ed.v], ed.sign))
    return SignedGraph(g.n - 1, tuple(out)), vmap, emap


def contract_edge(
    g: SignedGraph, e: EdgeId
) -> tuple[SignedGraph, dict[VertexId, VertexId], dict[EdgeId, EdgeId]]:
    """Contract edge e, preserving all surviving cycle signs.

    If e is negative the graph is first switched at one endpoint so that
    sigma(e) = +1; then e's endpoints merge and every edge parallel to e
    (which would become a loop) is removed.  The vertex map sends both old
    endpoints to the merged vertex; the edge map covers survivors only.
    """
    ed = g.edge(e)
    if ed.sign == NEGATIVE:
        g = switch(g, {ed.u})
        ed = g.edge(e)
    keep, gone = min(ed.u, ed.v), max(ed.u, ed.v)
    vmap: dict[int, int] = {}
    for x in range(g.n):
        y = x if x != gone else keep
        vmap[x] = y if y < gone else y - 1
    dropped = parallel_class(g, e)
    emap: dict[int, int] = {}
    out: list[Edge] = []
    for i, old in enumerate(g.edges):
        if i in dropped:
            continue
        emap[i] = len(out)
        out.append(Edge(vmap[old.u], vmap[old.v], old.sign))
    return SignedGraph(g.n - 1, tuple(out)), vmap, emap


# ---------------------------------------------------------------------------
# Cycles


@dataclass(frozen=True)
class Cycle:
    """A simple cycle, stored as a canonical cyclic edge-id sequence.

    edges[i] joins vertices[i] to vertices[(i+1) % k]; no vertex repeats.
    Two parallel edges form the shortest legal cycle (k = 2).
    """

    edges: tuple[EdgeId, ...]
    vertices: tuple[VertexId, ...]

    @classmethod
    def from_edges(cls, g: SignedGraph, edge_ids: Sequence[EdgeId]) -> "Cycle":
        """Validate a cyclically ordered edge-id sequence against g."""
        ids = tuple(edge_ids)
        if len(ids) < 2:
            raise NotACycle(f"a cycle needs at least 2 edges, got {len(ids)}")
        if len(set(ids)) != len(ids):
            raise NotACycle("repeated edge id")
        eds = [g.edge(i) for i in ids]
        if len(ids) == 2:
            if eds[0].endpoints() != eds[1].endpoints():
                raise NotACycle("a 2-edge cycle needs two parallel edges")
            verts = tuple(sorted(eds[0].endpoints()))
            return cls(*_canonical(ids, verts))
        # Walk the sequence: consecutive edges must share exactly the joint
        # vertex, and no vertex may repeat.
        first, second = eds[0].endpoints(), eds[1].endpoints()
        joint = first & second
        if len(joint) != 1:
            raise NotACycle("consecutive edges do not chain")
        start = next(iter(first - joint))
        verts = [start]
        cur = start
        for ed in eds:
            if not ed.touches(cur):
                raise NotACycle("consecutive edges do not chain")
            cur = ed.other(cur)
            verts.append(cur)
        if verts[-1] != start:
            raise NotACycle("edge sequence does not close")
        verts.pop()
        if len(set(verts)) != len(verts):
            raise NotACycle("repeated vertex")
        return cls(*_canonical(ids, tuple(verts)))

    @classmethod
    def from_edge_set(cls, g: SignedGraph, ids: Iterable[EdgeId]) -> "Cycle":
        """Reconstruct the cyclic order of an unordered simple-cycle edge set."""
        idset = sorted(set(ids))
        if len(idset) < 2:
            raise NotACycle(f"a cycle needs at least 2 edges, got {len(idset)}")
        incident: dict[int, list[int]] = {}
        for i in idset:
            for x in g.endpoints(i):
                incident.setdefault(x, []).append(i)
        if any(len(es) != 2 for es in incident.values()):
            raise NotACycle("edge set is not 2-regular on its vertices")
        first = idset[0]
        order = [first]
        cur = max(g.endpoints(first))
        prev = first
        while True:
            a, b = incident[cur]
            nxt = b if a == prev else a
            if nxt == first:
                break
            order.append(nxt)
            cur = g.edge(nxt).other(cur)
            prev = nxt
        if len(order) != len(idset):
            raise NotACycle("edge set is not a single cycle")
        return cls.from_edges(g, order)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, e: EdgeId) -> bool:
        return e in self.edges


def _canonical(
    ids: tuple[int, ...], verts: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Smallest edge id first; direction chosen by the smaller neighbour id.
    k = len(ids)
    pivot = ids.index(min(ids))
    fwd = tuple(ids[(pivot + i) % k] for i in range(k))
    fv = tuple(verts[(pivot + i) % k] for i in range(k))
    rev = (fwd[0],) + tuple(reversed(fwd[1:]))
    rv = (fv[1],) + tuple(reversed(fv[2:] + (fv[0],)))
    # 2-cycles reverse to the same edge tuple; break the tie on vertices
    # so both input orders canonicalize identically
    if rev < fwd or (rev == fwd and rv < fv):
        return rev, rv
    return fwd, fv


def sign_product(g: SignedGraph, edge_ids: Iterable[EdgeId]) -> Sign:
    """Product of the signs of the given edges (no structure is checked)."""
    s = POSITIVE
    for e in edge_ids:
        s *= g.sign(e)
    return s


def cycle_sign(g: SignedGraph, c: Cycle) -> Sign:
    """Product of edge signs around c; validates c against g."""
    check = Cycle.from_edges(g, c.edges)
    if check.vertices != c.vertices:
        raise NotACycle("cycle does not match this graph")
    return sign_product(g, c.edges)


# ---------------------------------------------------------------------------
# Gadgets: small fixed untied instances used throughout the tests.


@dataclass(frozen=True)
class GadgetInstance:
    graph: SignedGraph
    e1: EdgeId
    e2: EdgeId
    distinguished_cycle: Cycle


def build_hat() -> GadgetInstance:
    """Negative 2-cycle on {0,1} plus an apex joined to both by e1, e2."""
    g = SignedGraph.build(
        3,
        [
            (0, 1, POSITIVE),
            (0, 1, NEGATIVE),
            (0, 2, POSITIVE),  # e1
            (1, 2, POSITIVE),  # e2
        ],
    )
    return GadgetInstance(g, 2, 3, Cycle.from_edges(g, (0, 1)))


def build_target() -> GadgetInstance:
    """Negative 4-cycle with two positive crossing chords e1, e2."""
    g = SignedGraph.build(
        4,
        [
            (0, 1, NEGATIVE),
            (1, 2, POSITIVE),
            (2, 3, POSITIVE),
            (3, 0, POSITIVE),
            (0, 2, POSITIVE),  # e1
            (1, 3, POSITIVE),  # e2
        ],
    )
    return GadgetInstance(g, 4, 5, Cycle.from_edges(g, (0, 1, 2, 3)))


def build_hedgehog() -> GadgetInstance:
    """Negative triangle plus two spine vertices joined to all of it.

    Spine edges are fixed positive; e1 = (0,3), e2 = (1,4).
    """
    g = SignedGraph.build(
        5,
        [
            (0, 1, NEGATIVE),
            (1, 2, POSITIVE),
            (2, 0, POSITIVE),
            (0, 3, POSITIVE),  # e1
            (1, 3, POSITIVE),
            (2, 3, POSITIVE),
            (0, 4, POSITIVE),
            (1, 4, POSITIVE),  # e2
            (2, 4, POSITIVE),
        ],
    )
    return GadgetInstance(g, 3, 7, Cycle.from_edges(g, (0, 1, 2)))
