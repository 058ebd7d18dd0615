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
nothing from the decision procedure that produced it.  An enum leaf's
re-enumeration reads only its vertex count, the ends of its edges and
its pair, never a sign, so one call runs it once per such shape and
keeps the cycles and the complete flag in a dict keyed by (n, the
(u, v) of every edge in local id order, e1, e2) that lives for that
call.  Each leaf's cycle signs, its recorded sign and its recorded
cycles are still checked against its own graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Optional, Union

from . import certificate as cert
from .certificate import Verdict
from .connectivity import blocks, is_3_connected, side_vertices
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


def _plain(values, kinds: frozenset[type] = frozenset((int,))) -> bool:
    """Every value's type is one of the kinds: int, or int and str for
    edge references.  True == 1 == 1.0, and all three hash alike, so a
    dict lookup, ``==`` or ``in`` would read JSON true or 1.0 as id 1,
    sign +1 or part 1; every check that reads a document value rules
    them out."""
    return set(map(type, values)) <= kinds


_REFS = frozenset((int, str))


def _resolve_edges(sl: Slice, refs, what: str) -> list[int]:
    idx = sl.edge_index
    _need(_plain(refs, _REFS), f"{what}: edge reference is neither an int nor a string")
    try:
        return [idx[r] for r in refs]
    except KeyError as exc:
        raise _Fail(f"{what}: unknown edge reference {exc.args[0]!r}") from None


def _resolve_verts(sl: Slice, refs, what: str) -> list[int]:
    idx = sl.vert_index
    _need(_plain(refs), f"{what}: vertex reference is not an int")
    try:
        return [idx[r] for r in refs]
    except KeyError as exc:
        raise _Fail(f"{what}: unknown vertex reference {exc.args[0]!r}") from None


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


def _dropped(
    base: Slice, keep: Collection[int], markers: list, pair: list, removed
) -> set[Ref]:
    """The ids of ``keep`` and the marker names that ``removed`` lists,
    each checked to name one of them, not a pair edge, with the ends of
    a pair edge.  A marker left out never reaches ``Slice.sub``, so every
    marker name is checked here as ``sub`` checks those it adds."""
    if not removed:
        return set()
    idx = base.edge_index
    names = [name for name, _, _, _ in markers]
    for name in names:
        _need(
            type(name) is str and name not in idx and names.count(name) == 1,
            f"marker name {name!r} is not a fresh string",
        )

    def ends(r, what: str) -> frozenset[int]:
        if r in names:
            return frozenset(markers[names.index(r)][1:3])
        (i,) = _resolve_edges(base, [r], what)
        _need(i in keep, f"{what}: unknown edge reference {r!r}")
        return base.g.endpoints(i)

    pair_ends = [ends(r, "child pair") for r in pair]
    for r in removed:
        at = ends(r, "removed")
        _need(r not in pair, "removed: lists a distinguished edge")
        _need(at in pair_ends, f"removed: edge {r!r} is not parallel to the pair")
    return {idx.get(r, r) for r in removed}


def _cut(
    base: Slice, keep: Collection[int], markers: list, pair: list, removed
) -> tuple[Slice, int, int]:
    """One child of ``base`` by one ``sub``: the edges ``keep`` and the
    ``markers``, less what ``removed`` lists; with its pair's ids."""
    drop = _dropped(base, keep, markers, pair, removed)
    kept = sorted(set(keep) - drop) if drop else sorted(keep)
    sub = base.sub(kept, [m for m in markers if m[0] not in drop])
    p1, p2 = _resolve_edges(sub, pair, "child pair")
    return sub, p1, p2


# one node still to replay: its slice, distinguished pair and document
_Job = tuple[Slice, int, int, dict]

# an enum leaf's unsigned shape (n, the ends of each edge, e1, e2) -> its
# common cycles and whether their enumeration completed; one dict per
# verify_certificate call
_Shapes = dict[tuple, tuple[tuple[Cycle, ...], bool]]


def _replay_node(sl: Slice, e1: int, e2: int, node: dict, shapes: _Shapes) -> list[_Job]:
    """Check one node; its children come back as jobs, in document order."""
    kind = node.get("kind")
    if kind == cert.NODE_SPLIT:
        return _replay_split(sl, e1, e2, node)
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
            _plain([node.get("sign")]) and node.get("sign") == sl.g.sign(e1) * sl.g.sign(e2),
            "parallel-pair: recorded sign mismatch",
        )
    else:
        raise _Fail(f"unexpected node kind {kind!r}")
    return []


def _replay_split(sl: Slice, e1: int, e2: int, node: dict) -> list[_Job]:
    """Check a split node; its children come back as jobs.

    Each part plans its children as (side, base slice, sorted marker
    signs): part 1 both sides of ``sl``, part 2 the kept side of ``sl``
    after the recorded switch, part 3 the kept side of ``sl``.  One loop
    cuts every child out of its base, the one place a side is cut out.
    """
    part = node.get("part")
    _need(type(part) is int and part in (1, 2, 3), f"split: unknown part {part!r}")
    bu, bv = _resolve_verts(sl, node["boundary"], "split boundary")
    _need(bu != bv, "split: boundary vertices coincide")
    side1 = _resolve_edges(sl, node["side1"], "side1")
    side2 = _resolve_edges(sl, node["side2"], "side2")
    # distinct ids of the slice, as many as it has edges, cover it once
    _need(
        len(set(side1 + side2)) == len(side1) + len(side2) == sl.g.m,
        "split: sides do not partition the edges",
    )
    _need(len(side1) >= 1 and len(side2) >= 1, "split: empty side")
    v1 = side_vertices(sl.g, side1)
    v2 = side_vertices(sl.g, side2)
    _need(v1 & v2 == {bu, bv}, "split: sides meet outside the boundary pair")
    _need(v1 - {bu, bv} and v2 - {bu, bv}, "split: separation is not proper")
    sides = {1: side1, 2: side2}
    children = node.get("children") or []
    if part == 1:
        _need(len(children) == 2, "part 1 needs two children")
        plan = [(side1, sl, [POSITIVE]), (side2, sl, [POSITIVE])]
    else:
        kept = node.get("kept")
        _need(type(kept) is int and kept in (1, 2), f"split: bad kept side {kept!r}")
        keep_side = sides[kept]
        drop_side = sides[3 - kept]
        _need(
            e1 in set(keep_side) and e2 in set(keep_side),
            "split: kept side must contain both distinguished edges",
        )
        _need(len(children) == 1, "parts 2 and 3 take a single child")
        _need(
            (children[0].get("pair") or []) == [sl.eref[e1], sl.eref[e2]],
            "split: child pair must repeat the distinguished pair",
        )
        if part == 2:
            raw = node.get("switch")
            _need(isinstance(raw, list), "part 2: missing resign switch")
            switch_local = set(_resolve_verts(sl, raw, "resign switch"))
            work = sl.switched(switch_local)
            for eid in drop_side:
                _need(
                    work.g.sign(eid) == POSITIVE,
                    "part 2: discarded side is not all-positive after the switch",
                )
            plan = [(keep_side, work, [POSITIVE])]
        else:
            nc = node.get("neg_cycle")
            _need(isinstance(nc, dict), "part 3: missing negative cycle")
            ids = _resolve_edges(sl, nc.get("edges") or [], "neg_cycle")
            _need(set(ids) <= set(drop_side), "part 3: cycle leaves the discarded side")
            cyc = Cycle.from_edge_set(sl.g, frozenset(ids))
            _need(
                sign_product(sl.g, cyc.edges) == NEGATIVE,
                "part 3: recorded cycle is not negative",
            )
            vs = _resolve_verts(sl, nc.get("vertices") or [], "neg_cycle vertices")
            _need(set(cyc.vertices) == set(vs), "part 3: cycle vertices mismatch")
            plan = [(keep_side, sl, [NEGATIVE, POSITIVE])]
    jobs, heads = [], set()
    for (side, base, signs), child in zip(plan, children):
        mds = child.get("markers") or []
        got = [md["sign"] for md in mds]
        _need(
            _plain(got) and sorted(got) == signs,
            f"part {part}: child markers must carry the signs {signs}",
        )
        # the boundary is two distinct vertices, so markers can be
        # neither loops nor strays
        markers = []
        for md in mds:
            u, v = _resolve_verts(sl, (md["u"], md["v"]), "marker ends")
            _need({u, v} == {bu, bv}, "marker endpoints differ from the split boundary")
            markers.append((md["name"], u, v, md["sign"]))
        pair = child.get("pair") or []
        _need(len(pair) == 2, "child: malformed pair")
        sub, p1, p2 = _cut(base, side, markers, pair, child.get("removed"))
        _need(p1 != p2, "child: malformed pair")
        if part == 1:
            _need(sub.eref[p2] == mds[0]["name"], "part 1: pair must end with the marker")
            heads.add(sub.eref[p1])
        jobs.append((sub, p1, p2, child["node"]))
    if part == 1:
        _need(heads == {sl.eref[e1], sl.eref[e2]}, "part 1: children do not cover the pair")
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
    enumerated once per shape in ``shapes``; every sign is read off this
    leaf's own graph."""
    g = sl.g
    key = (g.n, tuple(e[:2] for e in g.edges), e1, e2)
    if key not in shapes:
        rep = enumerate_common_cycles(g, e1, e2)
        shapes[key] = rep.cycles, rep.complete
    cycles, complete = shapes[key]
    _need(complete, "enum: re-enumeration hit its budget")
    _need(len(cycles) >= 1, "enum: leaf has no common cycle")
    signs = {sign_product(g, c.edges) for c in cycles}
    _need(len(signs) == 1, "enum: leaf cycles carry both signs")
    _need(
        _plain([node.get("sign")]) and node.get("sign") in signs,
        "enum: recorded sign mismatch",
    )
    recorded = set()
    for cd in node.get("cycles") or []:
        ids = _resolve_edges(sl, cd.get("edges") or [], "enum cycle")
        vs = _resolve_verts(sl, cd.get("vertices") or [], "enum cycle vertices")
        _need(set(vs) == side_vertices(sl.g, ids), "enum: cycle vertices mismatch")
        recorded.add(frozenset(ids))
    _need(
        recorded == {frozenset(c.edges) for c in cycles},
        "enum: recorded cycles differ from re-enumeration",
    )


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
            _dropped(Slice.identity(g), range(g.m), [], [e1, e2], node.get("removed"))
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
            _replay_node(Slice.identity(g), e1, e2, node, shapes)
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
        sli, p1, p2 = _cut(Slice.identity(g), b, [], [e1, e2], node.get("removed"))
        block = node.get("block") or []
        _need(
            _plain(block) and sorted(block) == list(sli.eref),
            "preprocess: recorded block mismatch",
        )
        jobs = [(sli, p1, p2, node["inner"])]
        while jobs:
            jobs.extend(reversed(_replay_node(*jobs.pop(), shapes)))
        return True, "ok"
    except (_Fail, SgError) as exc:
        return False, str(exc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return False, f"malformed certificate: {exc!r}"
