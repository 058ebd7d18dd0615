"""Brute-force ground truth, common-cycle search and certificate verification.

The oracle enumerates every simple cycle containing both distinguished
edges by case analysis on how their endpoints meet: a mutually parallel
pair has exactly one common cycle (their 2-cycle); edges sharing one
vertex v need a path between their far endpoints avoiding v; disjoint
edges need two vertex-disjoint paths pairing up their endpoints, in one
of two patterns.  Every qualifying cycle is produced exactly once, so
the report doubles as a reference count.  The enumeration is depth
first and exponential in the worst case.  A single common cycle follows
the same case analysis but needs only one such path or pair of paths,
which find_common_cycle builds by unit-capacity flow in linear time;
it takes no sign, so the enumeration is the only exhaustive search
here.

verify_certificate replays a tied certificate from the root down
against the input graph using only primitive checks (cut arithmetic,
sign arithmetic, block recomputation, small re-enumeration), trusting
nothing from the decision procedure that produced it.  The root is cut
out of the input once.  Below it, a node holds its edges as a dict from
reference (an input edge id or a marker name) to (u, v, sign), the ends
input vertex ids and the sign as the splits above switched it.  Each
reference list is read once, each entry's type tested and then its
membership.  A split labels each parent edge with its side once, which
checks the partition, and one pass over the parent cuts both sides;
each child is made once as a new dict: its side, in the parent's order,
then its markers, less its ``removed``.  Only a leaf gets a graph,
laid out once by core's renumbered, the one layout of every cut, so
leaf checks and their local-id messages read the graph the prover
cut; a part-3 split also builds one of its cycle's own edges.  An
enum leaf's re-enumeration reads only its vertex count, the ends of its edges and its pair, never
a sign, so one call runs it once per such shape and keeps the cycles
and the complete flag in a dict keyed by (n, the (u, v) of every edge
in local id order, e1, e2) that lives for that call.  Each leaf's cycle
signs, its recorded sign and its recorded cycles are still checked
against its own graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Optional, Union

from . import certificate as cert
from .certificate import Verdict
from .connectivity import blocks, is_3_connected
from .core import (
    Cycle,
    EdgeId,
    NEGATIVE,
    POSITIVE,
    Ref,
    Sign,
    SignedGraph,
    Slice,
    VertexId,
    check_edges,
    renumbered,
    sign_product,
)
from .errors import BudgetExhausted, SgError
from .search import SearchBudget, disjoint_paths, iter_paths

__all__ = [
    "CommonCycleReport",
    "enumerate_common_cycles",
    "find_common_cycle",
    "oracle_tied",
    "cycle_through_three",
    "verify_certificate",
]


@dataclass(frozen=True)
class CommonCycleReport:
    """All cycles through both distinguished edges, classified by sign.

    complete=False means the search budget ran out; the list is then a
    subset and the counts are lower bounds.
    """

    cycles: tuple[Cycle, ...]
    positive_count: int
    negative_count: int
    complete: bool


_Ends = tuple[VertexId, ...]
# a path as the searches give it: (edge ids, vertex sequence)
_Path = tuple[tuple[EdgeId, ...], _Ends]


def _meeting(
    g: SignedGraph, e1: EdgeId, e2: EdgeId
) -> tuple[Optional[Cycle], frozenset[VertexId], _Ends, _Ends]:
    """How the pair's edges meet: (2-cycle, shared vertices, sources, targets).

    A mutually parallel pair gives its 2-cycle, the only candidate, since
    a simple cycle cannot visit their shared endpoints twice.  Otherwise
    every common cycle is e1, e2 and vertex-disjoint paths avoiding the
    shared vertices that join the sources to the targets: one path
    between the far ends when the edges share a vertex, two paths from
    (u1, v1) to (u2, v2) in either pairing when they are disjoint.
    """
    d1, d2 = check_edges(g, e1, e2)
    ends1, ends2 = d1.endpoints(), d2.endpoints()
    if ends1 == ends2:
        return Cycle.from_edges(g, (e1, e2)), frozenset(), (), ()
    shared = ends1 & ends2
    if shared:
        (v,) = shared
        return None, shared, (d1.other(v),), (d2.other(v),)
    return None, shared, (d1.u, d1.v), (d2.u, d2.v)


def _iter_common_cycles(
    g: SignedGraph, e1: EdgeId, e2: EdgeId, budget: SearchBudget
) -> Iterator[Cycle]:
    two_cycle, shared, sources, targets = _meeting(g, e1, e2)
    if two_cycle is not None:
        yield two_cycle
        return
    banned = frozenset((e1, e2))
    if shared:
        for p in iter_paths(
            g, sources[0], targets[0],
            banned_vertices=shared, banned_edges=banned, budget=budget,
        ):
            yield _close(e1, e2, p, ((), tuple(shared)))
        return
    a1, b1 = sources
    for t1, t2 in (targets, targets[::-1]):
        # first path from a1 to t1, second from b1 to t2, disjoint
        for pe, pv in iter_paths(
            g,
            a1,
            t1,
            banned_vertices=frozenset((b1, t2)),
            banned_edges=banned,
            budget=budget,
        ):
            for q in iter_paths(
                g,
                b1,
                t2,
                banned_vertices=frozenset(pv),
                banned_edges=banned,
                budget=budget,
            ):
                yield _close(e1, e2, (pe, pv), q)


def _close(e1: EdgeId, e2: EdgeId, p: _Path, q: _Path) -> Cycle:
    """The common cycle of e1, e2 and two disjoint paths, each from an
    end of e1 to an end of e2, in canonical order as found: p, e2, q
    reversed, e1.  A vertex the pair shares is a path with no edges."""
    (pe, pv), (qe, qv) = p, q
    return Cycle.unchecked(pe + (e2,) + qe[::-1] + (e1,), pv + qv[::-1])


def enumerate_common_cycles(
    g: SignedGraph,
    e1: EdgeId,
    e2: EdgeId,
    budget: Optional[SearchBudget] = None,
) -> CommonCycleReport:
    """Enumerate all simple cycles containing both edges.

    Deterministic: the report lists cycles in lexicographic order of
    their sorted edge-id tuples.
    """
    b = budget if budget is not None else SearchBudget()
    found = set(_iter_common_cycles(g, e1, e2, b))
    cycles = tuple(sorted(found, key=lambda c: tuple(sorted(c.edges))))
    pos = sum(1 for c in cycles if sign_product(g, c.edges) == POSITIVE)
    return CommonCycleReport(cycles, pos, len(cycles) - pos, not b.exhausted)


def find_common_cycle(
    g: SignedGraph,
    e1: EdgeId,
    e2: EdgeId,
) -> Optional[Cycle]:
    """A common cycle, built in linear time, or None when there is none.

    A mutually parallel pair gives its 2-cycle, edges sharing a vertex v
    one path between their far ends in G−v, and disjoint edges two
    vertex-disjoint paths from {u1, v1} to {u2, v2}, found by
    unit-capacity flow; by Menger's theorem these exist exactly when a
    common cycle does, so None proves absence.  The flow reads at most
    4m adjacency entries.
    """
    two_cycle, shared, sources, targets = _meeting(g, e1, e2)
    if two_cycle is not None:
        return two_cycle
    banned = frozenset((e1, e2))
    k = len(sources)
    paths = disjoint_paths(
        g, sources, targets, k, banned_vertices=shared, banned_edges=banned
    )
    if len(paths) < k:
        return None
    return _close(e1, e2, paths[0], paths[1] if k == 2 else ((), tuple(shared)))


def oracle_tied(
    g: SignedGraph,
    e1: EdgeId,
    e2: EdgeId,
    budget: Optional[SearchBudget] = None,
) -> Verdict:
    """Ground-truth verdict by exhaustive enumeration.

    Raises BudgetExhausted unless the enumeration provably covered the
    whole cycle space.
    """
    rep = enumerate_common_cycles(g, e1, e2, budget)
    if not rep.complete:
        raise BudgetExhausted(
            f"common-cycle enumeration for edges {e1},{e2} hit its budget"
        )
    if rep.positive_count and rep.negative_count:
        pos = next(c for c in rep.cycles if sign_product(g, c.edges) == POSITIVE)
        neg = next(c for c in rep.cycles if sign_product(g, c.edges) == NEGATIVE)
        return Verdict(kind=cert.KIND_UNTIED, witness=(pos, neg))
    if not rep.cycles:
        return Verdict(kind=cert.KIND_VACUOUS, reason="no cycle contains both edges")
    s = sign_product(g, rep.cycles[0].edges)
    return Verdict(kind=cert.KIND_TIED, common_sign=s, witness=(rep.cycles[0],))


def cycle_through_three(
    g: SignedGraph,
    e1: EdgeId,
    e2: EdgeId,
    e3: EdgeId,
    budget: Optional[SearchBudget] = None,
) -> tuple[Optional[Cycle], bool]:
    """Search for a simple cycle through three distinct edges.

    Returns (cycle, completeness); absence is proven only when the
    underlying enumeration completed.
    """
    check_edges(g, e1, e2, e3)
    b = budget if budget is not None else SearchBudget()
    for c in _iter_common_cycles(g, e1, e2, b):
        if e3 in c.edges:
            return c, True
    return None, not b.exhausted


# --- certificate verification -------------------------------------------


class _Fail(Exception):
    pass


def _need(cond: bool, reason: str) -> None:
    if not cond:
        raise _Fail(reason)


def _edge_refs(edges: Collection[Ref], refs, what: str) -> list[Ref]:
    """``refs`` as a list, each an int or a string that ``edges`` holds,
    read in one pass that tests each entry's exact type, then whether
    it is held.  True == 1 == 1.0 and all three hash alike, so ``in``,
    ``==`` or a lookup would read JSON true or 1.0 as id 1, sign +1 or
    part 1: every check that reads a document value tests its type."""
    refs = list(refs)
    for r in refs:
        if type(r) is not int and type(r) is not str:
            raise _Fail(f"{what}: edge reference is neither an int nor a string")
        if r not in edges:
            raise _Fail(f"{what}: unknown edge reference {r!r}")
    return refs


def _vertex_refs(verts: Collection[VertexId], refs, what: str) -> list[VertexId]:
    """``refs`` as a list, each an int that ``verts`` holds, read as
    _edge_refs reads."""
    refs = list(refs)
    for r in refs:
        if type(r) is not int:
            raise _Fail(f"{what}: vertex reference is not an int")
        if r not in verts:
            raise _Fail(f"{what}: unknown vertex reference {r!r}")
    return refs


def _resolve_edges(sl: Slice, refs, what: str) -> list[int]:
    idx = sl.edge_index
    return [idx[r] for r in _edge_refs(idx, refs, what)]


def _resolve_verts(sl: Slice, refs, what: str) -> list[int]:
    idx = sl.vert_index
    return [idx[r] for r in _vertex_refs(idx, refs, what)]


def _switched_positive(
    g: SignedGraph,
    skip_edges: set[int],
    skip_vertices: set[int],
    switch_local: set[int],
    what: str,
) -> None:
    # balance claim: after switching, every surviving edge is positive
    for eid, (u, v, s) in enumerate(g.edges):
        if eid in skip_edges or u in skip_vertices or v in skip_vertices:
            continue
        if (s == POSITIVE) == ((u in switch_local) != (v in switch_local)):
            raise _Fail(f"{what}: signing violated at edge {eid}")


# the edges of one node, by reference (an input edge id or a marker
# name), each (u, v, sign) with its ends input vertex ids and its sign
# as the splits above switched it; in the order Slice.sub would give
_Edges = dict[Ref, tuple[VertexId, VertexId, Sign]]


def _child(parent: Collection[Ref], side: _Edges, markers: list, pair: list, removed) -> _Edges:
    """One child, made of ``side`` in place: the edges of one side of
    ``parent``'s split in the parent's order, then the ``markers`` in
    the given order, less what ``removed`` lists.  Each marker name must
    be a string fresh in ``parent``, the pair must name edges of the
    child, and each entry of ``removed`` an edge or marker of the child
    that is no pair edge but has the ends of one."""
    names = [name for name, _, _, _ in markers]
    for name in names:
        _need(
            type(name) is str and name not in parent and names.count(name) == 1,
            f"marker name {name!r} is not a fresh string",
        )
    side.update((name, (u, v, s)) for name, u, v, s in markers)
    pair_ends = [frozenset(side[r][:2]) for r in _edge_refs(side, pair, "child pair")]
    removed = _edge_refs(side, removed or [], "removed")
    for r in removed:
        _need(r not in pair, "removed: lists a distinguished edge")
        _need(
            frozenset(side[r][:2]) in pair_ends,
            f"removed: edge {r!r} is not parallel to the pair",
        )
    for r in removed:
        side.pop(r, None)
    return side


def _graph(edges: _Edges) -> Slice:
    """The slice that holds ``edges``, laid out once by renumbered."""
    g, verts = renumbered(list(edges.values()))
    return Slice(g, tuple(edges), verts)


# one node still to replay: its edges, distinguished pair and document
_Job = tuple[_Edges, Ref, Ref, dict]

# an enum leaf's unsigned shape (n, the ends of each edge, e1, e2) -> its
# common cycles, each cycle's edges -> its vertices, and whether their
# enumeration completed; one dict per verify_certificate call
_Shapes = dict[tuple, tuple[dict[frozenset[EdgeId], frozenset[VertexId]], bool]]


def _replay_leaf(sl: Slice, e1: int, e2: int, node: dict, shapes: _Shapes) -> None:
    """Check one leaf, on its own graph."""
    kind = node.get("kind")
    if kind in (cert.NODE_CASE1, cert.NODE_CASE2, cert.NODE_CASE3):
        _replay_case(sl, e1, e2, node)
    elif kind == cert.NODE_ENUM:
        _replay_enum(sl, e1, e2, node, shapes)
    elif kind == cert.NODE_PARALLEL_PAIR:
        _need(
            sl.g.endpoints(e1) == sl.g.endpoints(e2),
            "parallel-pair: edges are not mutually parallel",
        )
        _need(
            type(node.get("sign")) is int and node.get("sign") == sl.g.sign(e1) * sl.g.sign(e2),
            "parallel-pair: recorded sign mismatch",
        )
    else:
        raise _Fail(f"unexpected node kind {kind!r}")


def _replay_split(edges: _Edges, r1: Ref, r2: Ref, node: dict) -> list[_Job]:
    """Check a split node on its parent's edges; its children come back
    as jobs, in document order.

    Each parent edge is labelled 1 or 2 by its side once, and one pass
    over the parent cuts both sides in its order.  Each part plans its
    children as (side, sorted marker signs): part 1 both sides, part 2
    the kept side flipped by the recorded switch, part 3 the kept side.
    One loop cuts every child.  No graph is built but the part-3 cycle's.
    """
    part = node.get("part")
    _need(type(part) is int and part in (1, 2, 3), f"split: unknown part {part!r}")
    side1 = _edge_refs(edges, node["side1"], "side1")
    side2 = _edge_refs(edges, node["side2"], "side2")
    label = dict.fromkeys(side1, 1)
    label.update(dict.fromkeys(side2, 2))
    # distinct references of the parent, as many as it has edges, cover it once
    _need(
        len(label) == len(side1) + len(side2) == len(edges),
        "split: sides do not partition the edges",
    )
    _need(len(side1) >= 1 and len(side2) >= 1, "split: empty side")
    cut: dict[int, _Edges] = {1: {}, 2: {}}
    ends: dict[int, set[VertexId]] = {1: set(), 2: set()}
    for r, e in edges.items():
        k = label[r]
        cut[k][r] = e
        ends[k].update(e[:2])
    v1, v2 = ends[1], ends[2]
    verts = v1 | v2
    bu, bv = _vertex_refs(verts, node["boundary"], "split boundary")
    _need(bu != bv, "split: boundary vertices coincide")
    _need(v1 & v2 == {bu, bv}, "split: sides meet outside the boundary pair")
    _need(v1 - {bu, bv} and v2 - {bu, bv}, "split: separation is not proper")
    children = node.get("children") or []
    if part == 1:
        _need(len(children) == 2, "part 1 needs two children")
        plan = [(cut[1], [POSITIVE]), (cut[2], [POSITIVE])]
    else:
        kept = node.get("kept")
        _need(type(kept) is int and kept in (1, 2), f"split: bad kept side {kept!r}")
        _need(
            label[r1] == kept == label[r2],
            "split: kept side must contain both distinguished edges",
        )
        _need(len(children) == 1, "parts 2 and 3 take a single child")
        _need(
            (children[0].get("pair") or []) == [r1, r2],
            "split: child pair must repeat the distinguished pair",
        )
        if part == 2:
            raw = node.get("switch")
            _need(isinstance(raw, list), "part 2: missing resign switch")
            flip = set(_vertex_refs(verts, raw, "resign switch"))
            for u, v, s in cut[3 - kept].values():
                _need(
                    (s == POSITIVE) != ((u in flip) != (v in flip)),
                    "part 2: discarded side is not all-positive after the switch",
                )
            side = {
                r: (u, v, -s if (u in flip) != (v in flip) else s)
                for r, (u, v, s) in cut[kept].items()
            }
            plan = [(side, [POSITIVE])]
        else:
            nc = node.get("neg_cycle")
            _need(isinstance(nc, dict), "part 3: missing negative cycle")
            ids = _edge_refs(edges, nc.get("edges") or [], "neg_cycle")
            _need(all(label[r] != kept for r in ids), "part 3: cycle leaves the discarded side")
            own = _graph({r: edges[r] for r in ids})
            cyc = Cycle.from_edge_set(own.g, range(own.g.m))
            _need(
                sign_product(own.g, cyc.edges) == NEGATIVE,
                "part 3: recorded cycle is not negative",
            )
            vs = _vertex_refs(verts, nc.get("vertices") or [], "neg_cycle vertices")
            _need(set(own.vref) == set(vs), "part 3: cycle vertices mismatch")
            plan = [(cut[kept], [NEGATIVE, POSITIVE])]
    jobs, heads = [], set()
    for (side, signs), child in zip(plan, children):
        mds = child.get("markers") or []
        got = [md["sign"] for md in mds]
        _need(
            all(type(s) is int for s in got) and sorted(got) == signs,
            f"part {part}: child markers must carry the signs {signs}",
        )
        # the boundary is two distinct vertices, so markers can be
        # neither loops nor strays
        markers = []
        for md in mds:
            u, v = _vertex_refs(verts, (md["u"], md["v"]), "marker ends")
            _need({u, v} == {bu, bv}, "marker endpoints differ from the split boundary")
            markers.append((md["name"], u, v, md["sign"]))
        pair = child.get("pair") or []
        _need(len(pair) == 2, "child: malformed pair")
        sub = _child(edges, side, markers, pair, child.get("removed"))
        p1, p2 = pair
        _need(p1 != p2, "child: malformed pair")
        if part == 1:
            _need(p2 == mds[0]["name"], "part 1: pair must end with the marker")
            heads.add(p1)
        jobs.append((sub, p1, p2, child["node"]))
    if part == 1:
        _need(heads == {r1, r2}, "part 1: children do not cover the pair")
    return jobs


def _leaf_preconditions(sl: Slice, what: str) -> None:
    _need(is_3_connected(sl.g), f"{what}: leaf graph is not 3-connected")


def _replay_case(sl: Slice, e1: int, e2: int, node: dict) -> None:
    """A balance-case leaf.  No case needs the pair free of parallels.  In
    case 1 a common cycle crosses the cut of X at e1, at e2 and at an even
    number of F edges; two edges with one pair of endpoints close only
    their own 2-cycle, so it uses no F edge, and the switch fixes its sign."""
    kind = node["kind"]
    _leaf_preconditions(sl, kind)
    switch_local = set(_resolve_verts(sl, node.get("switch") or [], f"{kind} switch"))
    if kind == cert.NODE_CASE1:
        f_ids = _resolve_edges(sl, node.get("F") or [], "case1 F")
        _need(not ({e1, e2} & set(f_ids)), "case1: F contains a distinguished edge")
        signs = {sl.g.sign(i) for i in f_ids}
        _need(signs == {POSITIVE, NEGATIVE}, "case1: F lacks one of the signs")
        _need(
            len({sl.g.endpoints(i) for i in f_ids}) == 1,
            "case1: F edges do not share their endpoints",
        )
        x = set(_resolve_verts(sl, node.get("X") or [], "case1 X"))
        fplus = set(f_ids) | {e1, e2}
        cut = {
            eid
            for eid in range(sl.g.m)
            if len(sl.g.endpoints(eid) & x) == 1
        }
        _need(cut == fplus, "case1: F plus the pair is not the cut of X")
        _switched_positive(sl.g, fplus, set(), switch_local, "case1")
    elif kind == cert.NODE_CASE2:
        (v,) = _resolve_verts(sl, [node.get("v")], "case2 v")
        _need(
            v in sl.g.endpoints(e1) and v in sl.g.endpoints(e2),
            "case2: v is not shared by both edges",
        )
        _need(v not in switch_local, "case2: switch mentions the deleted vertex")
        _switched_positive(sl.g, set(), {v}, switch_local, "case2")
    else:
        _switched_positive(sl.g, {e1, e2}, set(), switch_local, "case3")


def _replay_enum(sl: Slice, e1: int, e2: int, node: dict, shapes: _Shapes) -> None:
    """An enum leaf.  Its common cycles read no sign, so they are
    enumerated once per shape in ``shapes``, and each recorded cycle is
    looked up there; every sign is read off this leaf's own graph."""
    g = sl.g
    key = (g.n, tuple(e[:2] for e in g.edges), e1, e2)
    if key not in shapes:
        rep = enumerate_common_cycles(g, e1, e2)
        shapes[key] = {frozenset(c.edges): frozenset(c.vertices) for c in rep.cycles}, rep.complete
    cycles, complete = shapes[key]
    _need(complete, "enum: re-enumeration hit its budget")
    _need(len(cycles) >= 1, "enum: leaf has no common cycle")
    signs = {sign_product(g, c) for c in cycles}
    _need(len(signs) == 1, "enum: leaf cycles carry both signs")
    _need(
        type(node.get("sign")) is int and node.get("sign") in signs,
        "enum: recorded sign mismatch",
    )
    recorded = set()
    for cd in node.get("cycles") or []:
        ids = frozenset(_resolve_edges(sl, cd.get("edges") or [], "enum cycle"))
        vs = _resolve_verts(sl, cd.get("vertices") or [], "enum cycle vertices")
        _need(ids not in cycles or set(vs) == cycles[ids], "enum: cycle vertices mismatch")
        recorded.add(ids)
    _need(recorded == cycles.keys(), "enum: recorded cycles differ from re-enumeration")


def _check_witness_cycle(g: SignedGraph, c: Cycle, e1: int, e2: int, what: str) -> Sign:
    try:
        rebuilt = Cycle.from_edges(g, c.edges)
    except SgError as exc:
        raise _Fail(f"{what}: not a cycle ({exc})")
    _need(set(rebuilt.vertices) == set(c.vertices), f"{what}: vertex list mismatch")
    _need(e1 in c.edges, f"{what}: witness not a cycle containing e1")
    _need(e2 in c.edges, f"{what}: witness not a cycle containing e2")
    return sign_product(g, c.edges)


def verify_certificate(
    g: SignedGraph, e1: EdgeId, e2: EdgeId, v: Union[Verdict, dict]
) -> tuple[bool, str]:
    """Independently check a verdict against the graph.

    Returns (ok, reason).  Untied verdicts are checked through their
    witness cycles; tied verdicts by replaying the certificate tree,
    node by node from a worklist in document order, so that tree depth
    is bounded by memory and not by the recursion limit; vacuous
    verdicts by recomputing the block decomposition.  Never raises on
    malformed input or a bad id; the reason names the first failure.
    """
    try:
        check_edges(g, e1, e2)
        if isinstance(v, dict):
            v, de1, de2 = cert.verdict_from_doc(v)
            _need(de1 == e1 and de2 == e2, "document names a different edge pair")
        if v.kind == cert.KIND_UNTIED:
            _need(len(v.witness) == 2, "untied verdict needs two witness cycles")
            s0 = _check_witness_cycle(g, v.witness[0], e1, e2, "witness 1")
            s1 = _check_witness_cycle(g, v.witness[1], e1, e2, "witness 2")
            _need(
                (s0, s1) == (POSITIVE, NEGATIVE),
                "untied witnesses must be (positive, negative)",
            )
            return True, "ok"
        if v.kind == cert.KIND_VACUOUS:
            node = v.certificate or {}
            _need(node.get("kind") == cert.NODE_BLOCKS, "vacuous verdict needs a blocks record")
            # no common cycle: each lies in one block (see the preprocess root)
            _child(range(g.m), dict(enumerate(g.edges)), [], [e1, e2], node.get("removed"))
            bt = blocks(g)
            _need(
                bt.block_of(e1) != bt.block_of(e2),
                "blocks: edges share a block after preprocessing",
            )
            return True, "ok"
        _need(v.kind == cert.KIND_TIED, f"unknown verdict kind {v.kind!r}")
        if v.common_sign is not None:
            _need(len(v.witness) >= 1, "tied verdict claims a sign without a witness")
            s = _check_witness_cycle(g, v.witness[0], e1, e2, "common witness")
            _need(s == v.common_sign, "common witness sign mismatch")
        node = v.certificate
        _need(isinstance(node, dict), "tied verdict is missing its certificate")
        shapes: _Shapes = {}
        if node.get("kind") == cert.NODE_PARALLEL_PAIR:
            _replay_leaf(Slice.identity(g), e1, e2, node, shapes)
            return True, "ok"
        _need(
            node.get("kind") == cert.NODE_PREPROCESS,
            f"unexpected root node {node.get('kind')!r}",
        )
        # every common cycle lies in one block and uses no edge parallel
        # to e1 or e2 (with its partner such an edge closes only their
        # 2-cycle, which misses the other pair edge); so each is a common
        # cycle of the root, the pair's block of the input less the
        # removed edges, cut once
        b = blocks(g).block_of(e1)
        _need(e2 in b, "preprocess: edges are in different blocks")
        inner, removed = node["inner"], node.get("removed")
        root: _Edges = {}
        ids = sorted(b)
        if removed or inner.get("kind") == cert.NODE_SPLIT:
            # only a split and a removed list read the root's edges by
            # reference; a leaf root with none is replayed on the cut alone
            root = _child(range(g.m), {i: g.edges[i] for i in ids}, [], [e1, e2], removed)
            ids = list(root)
        sli = Slice.identity(g).sub(ids)
        block = node.get("block") or []
        _need(
            all(type(i) is int for i in block) and sorted(block) == list(sli.eref),
            "preprocess: recorded block mismatch",
        )
        # splits are checked on their edges by reference; a leaf gets one
        # graph, the root's leaf the root cut itself
        jobs: list[_Job] = [(root, e1, e2, inner)]
        while jobs:
            edges, r1, r2, inner = jobs.pop()
            if inner.get("kind") == cert.NODE_SPLIT:
                jobs.extend(reversed(_replay_split(edges, r1, r2, inner)))
            else:
                sl = sli if edges is root else _graph(edges)
                _replay_leaf(sl, sl.edge_index[r1], sl.edge_index[r2], inner, shapes)
        return True, "ok"
    except (_Fail, SgError) as exc:
        return False, str(exc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return False, f"malformed certificate: {exc!r}"
