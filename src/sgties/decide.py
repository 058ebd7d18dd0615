"""The decision procedure for tied edge pairs.

Pipeline: a mutually parallel pair is answered directly (its 2-cycle is
the only common cycle).  Otherwise edges parallel to either
distinguished edge are deleted (no common cycle can use them), the
graph is restricted to the block containing both edges (different
blocks means no common cycle at all), and the block is reduced
recursively: every proper 2-separation is split off, with the far side
replaced by marker edges across the boundary.  A balanced far side
becomes one positive marker; an unbalanced one becomes a positive and a
negative marker in parallel; when the distinguished edges fall on
different sides, each side is asked whether its own edge is tied with
its marker.  Leaves are 3-connected (or have at most SMALL_LEAF
vertices) and are answered by the three-case characterization, falling
back to exhaustive enumeration on the tiny non-3-connected ones.

Untied witnesses found at a leaf are lifted back through the splits by
replacing marker edges with boundary-to-boundary paths of the marker's
sign inside the replaced side.

All certificate references use original edge ids and marker names; see
the certificate module for the document schema.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from . import certificate as cert
from .balance import find_signed_path, is_balanced
from .certificate import Verdict
from .connectivity import (
    blocks,
    components,
    find_proper_2_separation,
    is_2_connected,
    is_3_connected,
)
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
    delete_edges,
    delete_vertex,
    parallel_class,
    sign_product,
    switch,
)
from .errors import (
    BadParams,
    BudgetExhausted,
    NotTwoConnected,
    PreconditionViolated,
    SameEdge,
)
from .oracle import enumerate_common_cycles, find_common_cycle
from .search import DEFAULT_BUDGET, SearchBudget

# leaves this small skip the separation search entirely
SMALL_LEAF = 4


@dataclass(frozen=True)
class ReductionLeaf:
    """Reduction endpoint: no further split is taken at this graph."""

    sl: Slice
    e1: EdgeId
    e2: EdgeId


@dataclass(frozen=True)
class ChildSpec:
    """One child subproblem of a split, in certificate reference space."""

    pair_refs: tuple[Ref, Ref]
    markers: tuple[dict, ...]  # {"name","u","v","sign"} docs
    removed: tuple[Ref, ...]  # parallel-to-pair edges dropped from the child
    node: "ReductionTree"


@dataclass(frozen=True)
class ReductionSplit:
    """One 2-separation reduction step.

    part 1: the pair straddles the boundary; two children, each keeping
    one side plus a positive marker.  part 2: the far side is balanced
    and is replaced (after a whole-graph switch making it all-positive)
    by one positive marker.  part 3: the far side is unbalanced and is
    replaced by a positive and a negative marker.  ``discard`` keeps the
    replaced side (switched, for part 2) so witnesses can be lifted.
    """

    sl: Slice
    e1: EdgeId
    e2: EdgeId
    part: int
    boundary: tuple[VertexId, VertexId]  # local
    side1: tuple[EdgeId, ...]  # local
    side2: tuple[EdgeId, ...]
    children: tuple[ChildSpec, ...]
    kept: Optional[int] = None  # parts 2/3: 1 or 2
    resign: Optional[tuple[VertexId, ...]] = None  # part 2: local switch set
    neg_cycle_doc: Optional[dict] = None  # part 3: reference-space cycle doc
    discard: Optional[Slice] = None


ReductionTree = Union[ReductionLeaf, ReductionSplit]


@dataclass(frozen=True)
class LeafVerdict:
    """Outcome of the three-case leaf test (or a leaf enumeration)."""

    tied: bool
    case: Optional[str]  # node kind when tied
    node: Optional[dict]  # certificate node when tied


@dataclass(frozen=True)
class LovaszResult:
    """Whether some cycle passes through three given edges.

    When none does, ``reason`` says which structural obstruction holds:
    "common_vertex" (checked first) or "disconnecting".
    """

    cycle_exists: bool
    reason: Optional[str] = None


# --- reduction ------------------------------------------------------------


def reduce(g: SignedGraph, e1: EdgeId, e2: EdgeId) -> ReductionTree:
    """Build the reduction tree for a 2-connected graph.

    Requires that neither distinguished edge has a parallel companion
    (run the preprocessing in decide_tied first if it might).
    """
    _check_pair(g, e1, e2)
    if not is_2_connected(g):
        raise NotTwoConnected("reduction needs a 2-connected graph")
    for eid in (e1, e2):
        if parallel_class(g, eid) != frozenset((eid,)):
            raise PreconditionViolated(
                f"edge {eid} has parallel companions; preprocess first"
            )
    return _reduce(Slice.identity(g), e1, e2, itertools.count())


def _check_pair(g: SignedGraph, e1: EdgeId, e2: EdgeId) -> None:
    g.edge(e1)
    g.edge(e2)
    if e1 == e2:
        raise SameEdge(f"need two distinct edges, got {e1} twice")


def _reduce(sl: Slice, e1: int, e2: int, names: Iterator[int]) -> ReductionTree:
    if sl.g.n <= SMALL_LEAF:
        return ReductionLeaf(sl, e1, e2)
    sep = find_proper_2_separation(sl.g)
    if sep is None:
        return ReductionLeaf(sl, e1, e2)
    bu, bv = sep.boundary
    s1, s2 = set(sep.side1), set(sep.side2)
    bset = frozenset((bu, bv))
    # an edge joining the boundary pair may sit on either side; keep the
    # distinguished edges together when one of them is such an edge
    for own, other in ((e1, e2), (e2, e1)):
        if sl.g.endpoints(own) == bset:
            want = s1 if other in s1 else s2
            (s1 if own in s1 else s2).discard(own)
            want.add(own)
    side1 = tuple(sorted(s1))
    side2 = tuple(sorted(s2))
    sides = {1: side1, 2: side2}
    in1 = (e1 in s1, e2 in s1)
    if in1[0] != in1[1]:
        return _split_part1(sl, e1, e2, (bu, bv), sides, names)
    kept = 1 if in1[0] else 2
    return _split_part23(sl, e1, e2, (bu, bv), sides, kept, names)


def _normalize_child(
    sub: Slice, p1: int, p2: int
) -> tuple[Slice, int, int, tuple[Ref, ...]]:
    """Drop edges parallel to either distinguished edge of a slice."""
    drop = (parallel_class(sub.g, p1) | parallel_class(sub.g, p2)) - {p1, p2}
    if not drop:
        return sub, p1, p2, ()
    removed = tuple(sorted((sub.eref[i] for i in drop), key=cert._ref_key))
    slim = sub.sub([i for i in range(sub.g.m) if i not in drop])
    idx = slim.edge_index()
    return slim, idx[sub.eref[p1]], idx[sub.eref[p2]], removed


def _make_child(
    sl: Slice,
    side: tuple[int, ...],
    pair: tuple[Ref, Ref],
    markers: tuple[tuple[str, int, int, Sign], ...],
    names: Iterator[int],
) -> ChildSpec:
    """Build one child slice, normalize it, and recurse.

    ``pair`` names the child's distinguished edges by reference: an
    original edge id or one of the new markers.
    """
    sub = sl.sub(side, markers)
    idx = sub.edge_index()
    slim, p1, p2, removed = _normalize_child(sub, idx[pair[0]], idx[pair[1]])
    node = _reduce(slim, p1, p2, names)
    marker_docs = tuple(
        cert.marker_doc(name, sl.vref[u], sl.vref[v], s) for name, u, v, s in markers
    )
    return ChildSpec(
        pair_refs=(slim.eref[p1], slim.eref[p2]),
        markers=marker_docs,
        removed=removed,
        node=node,
    )


def _split_part1(
    sl: Slice,
    e1: int,
    e2: int,
    boundary: tuple[int, int],
    sides: dict[int, tuple[int, ...]],
    names: Iterator[int],
) -> ReductionSplit:
    bu, bv = boundary
    children = []
    for snum in (1, 2):
        own = e1 if e1 in sides[snum] else e2
        name = f"m{next(names)}"
        children.append(
            _make_child(
                sl,
                sides[snum],
                (sl.eref[own], name),
                ((name, bu, bv, POSITIVE),),
                names,
            )
        )
    return ReductionSplit(
        sl=sl,
        e1=e1,
        e2=e2,
        part=1,
        boundary=boundary,
        side1=sides[1],
        side2=sides[2],
        children=tuple(children),
    )


def _split_part23(
    sl: Slice,
    e1: int,
    e2: int,
    boundary: tuple[int, int],
    sides: dict[int, tuple[int, ...]],
    kept: int,
    names: Iterator[int],
) -> ReductionSplit:
    bu, bv = boundary
    drop_ids = sides[3 - kept]
    drop = sl.sub(drop_ids)
    bal = is_balanced(drop.g)
    if bal.balanced:
        # part 2: switch the whole graph so the far side is all-positive,
        # then stand it in with a single positive marker
        vidx = sl.vert_index()
        resign = tuple(sorted(vidx[drop.vref[v]] for v in bal.switch))
        work = Slice(switch(sl.g, set(resign)), sl.eref, sl.vref)
        part, discard, doc = 2, work.sub(drop_ids), None
        signs = (POSITIVE,)
    else:
        # part 3: the far side holds a negative cycle, so a positive and a
        # negative marker stand in for it
        nc = bal.negative_cycle
        assert nc is not None
        work, part, discard, resign = sl, 3, drop, None
        doc = cert.cycle_doc(
            [drop.eref[i] for i in nc.edges], [drop.vref[x] for x in nc.vertices]
        )
        signs = (POSITIVE, NEGATIVE)
    markers = tuple((f"m{next(names)}", bu, bv, s) for s in signs)
    child = _make_child(work, sides[kept], (sl.eref[e1], sl.eref[e2]), markers, names)
    return ReductionSplit(
        sl=sl,
        e1=e1,
        e2=e2,
        part=part,
        boundary=boundary,
        side1=sides[1],
        side2=sides[2],
        children=(child,),
        kept=kept,
        resign=resign,
        neg_cycle_doc=doc,
        discard=discard,
    )


# --- leaf checks ----------------------------------------------------------


def check_leaf(g: SignedGraph, e1: EdgeId, e2: EdgeId) -> LeafVerdict:
    """Decide a 3-connected instance by the three-case characterization.

    Tied exactly when one of the cases holds: (1) some parallel class F
    with both signs makes F plus the pair an exact edge cut whose
    removal leaves a balanced graph; (2) the pair shares a vertex whose
    deletion leaves a balanced graph; (3) deleting the pair leaves a
    balanced graph.
    """
    _check_pair(g, e1, e2)
    if not is_3_connected(g):
        raise PreconditionViolated("leaf test needs a 3-connected graph")
    for eid in (e1, e2):
        if parallel_class(g, eid) != frozenset((eid,)):
            raise PreconditionViolated(f"edge {eid} has parallel companions")
    return _check_cases(Slice.identity(g), e1, e2)


def _check_cases(sl: Slice, e1: int, e2: int) -> LeafVerdict:
    node = _try_case1(sl, e1, e2)
    if node is None:
        node = _try_case2(sl, e1, e2)
    if node is None:
        node = _try_case3(sl, e1, e2)
    if node is None:
        return LeafVerdict(False, None, None)
    return LeafVerdict(True, node["kind"], node)


def _switch_refs(sl: Slice, signing, vmap=None) -> list[int]:
    # vertices with negative potential, in original-vertex references;
    # vmap translates ids of a derived graph back to sl's locals
    out = []
    for v, s in enumerate(signing):
        if s == NEGATIVE:
            out.append(sl.vref[v if vmap is None else vmap[v]])
    return sorted(out)


def _try_case1(sl: Slice, e1: int, e2: int) -> Optional[dict]:
    g = sl.g
    # parallel classes, in order of their smallest edge id
    classes: dict[frozenset[int], list[int]] = {}
    for eid, e in enumerate(g.edges):
        classes.setdefault(e.endpoints(), []).append(eid)
    for f in classes.values():
        if len(f) < 2 or e1 in f or e2 in f:
            continue
        if {g.sign(i) for i in f} != {POSITIVE, NEGATIVE}:
            continue
        fplus = frozenset(f) | {e1, e2}
        x = _exact_cut_side(g, fplus)
        if x is None:
            continue
        rest, emap = delete_edges(g, fplus)
        bal = is_balanced(rest)
        if not bal.balanced:
            continue
        return cert.case1_node(
            [sl.eref[i] for i in sorted(f)],
            sorted(sl.vref[v] for v in x),
            _switch_refs(sl, bal.signing),
        )
    return None


def _exact_cut_side(g: SignedGraph, cut: frozenset[int]) -> Optional[set[int]]:
    """Vertex set X with delta(X) equal to the given edges, if one exists.

    Removing the edges leaves components; the cut is exact for some X
    iff no removed edge has both ends in one component and the quotient
    of components by the removed edges is bipartite.  X is then one
    color class (components without removed edges go to color 0).
    """
    comps = components(delete_edges(g, cut)[0])
    comp = [0] * g.n
    for i, members in enumerate(comps):
        for v in members:
            comp[v] = i
    nc = len(comps)
    quotient: list[list[int]] = [[] for _ in range(nc)]
    for eid in cut:
        a, b = sorted(g.endpoints(eid))
        ca, cb = comp[a], comp[b]
        if ca == cb:
            return None
        quotient[ca].append(cb)
        quotient[cb].append(ca)
    color = [-1] * nc
    for root in range(nc):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            a = queue.popleft()
            for b in quotient[a]:
                if color[b] == -1:
                    color[b] = 1 - color[a]
                    queue.append(b)
                elif color[b] == color[a]:
                    return None
    return {v for v in range(g.n) if color[comp[v]] == 1}


def _try_case2(sl: Slice, e1: int, e2: int) -> Optional[dict]:
    g = sl.g
    shared = g.endpoints(e1) & g.endpoints(e2)
    if len(shared) != 1:
        return None
    (v,) = shared
    rest, vmap, _ = delete_vertex(g, v)
    bal = is_balanced(rest)
    if not bal.balanced:
        return None
    back = {new: old for old, new in vmap.items()}
    return cert.case2_node(sl.vref[v], _switch_refs(sl, bal.signing, back))


def _try_case3(sl: Slice, e1: int, e2: int) -> Optional[dict]:
    rest, _ = delete_edges(sl.g, (e1, e2))
    bal = is_balanced(rest)
    if not bal.balanced:
        return None
    return cert.case3_node(_switch_refs(sl, bal.signing))


# --- evaluation and witness lifting ---------------------------------------

# witnesses travel in reference space until the very end
_RefCycle = tuple[tuple[Ref, ...], tuple[int, ...]]


@dataclass(frozen=True)
class _Eval:
    tied: bool
    node: Optional[dict] = None  # certificate node when tied
    witness: Optional[tuple[_RefCycle, _RefCycle]] = None  # when untied
    error: Optional[str] = None  # witness search failures; verdict unaffected


def _ref_cycle(sl: Slice, c: Cycle) -> _RefCycle:
    return (
        tuple(sl.eref[i] for i in c.edges),
        tuple(sl.vref[x] for x in c.vertices),
    )


def _splice_path(
    rc: _RefCycle, name: str, path: tuple[tuple[Ref, ...], tuple[int, ...]]
) -> _RefCycle:
    """Replace marker ``name`` in a cycle by a path with matching ends."""
    edges, verts = rc
    pe, pv = path
    i = edges.index(name)
    a, b = verts[i], verts[(i + 1) % len(edges)]
    if pv[0] == b and pv[-1] == a:
        pe = tuple(reversed(pe))
        pv = tuple(reversed(pv))
    assert pv[0] == a and pv[-1] == b, "marker path endpoints mismatch"
    return (
        edges[:i] + pe + edges[i + 1 :],
        verts[: i + 1] + pv[1:-1] + verts[i + 1 :],
    )


def _cycle_minus_edge(rc: _RefCycle, name: str) -> tuple[tuple[Ref, ...], tuple[int, ...]]:
    """Open a cycle at one edge, returning the complementary path."""
    edges, verts = rc
    i = edges.index(name)
    k = len(edges)
    pe = tuple(edges[(i + 1 + j) % k] for j in range(k - 1))
    pv = tuple(verts[(i + 1 + j) % k] for j in range(k))
    return pe, pv


def _evaluate(tree: ReductionTree, limit: int) -> _Eval:
    if isinstance(tree, ReductionLeaf):
        return _evaluate_leaf(tree, limit)
    if tree.part == 1:
        first = _evaluate(tree.children[0].node, limit)
        if not first.tied:
            return _lift_part1(tree, 0, first, limit)
        second = _evaluate(tree.children[1].node, limit)
        if not second.tied:
            return _lift_part1(tree, 1, second, limit)
        return _Eval(True, node=_split_doc(tree, (first.node, second.node)))
    ev = _evaluate(tree.children[0].node, limit)
    if ev.tied:
        return _Eval(True, node=_split_doc(tree, (ev.node,)))
    return _lift_part23(tree, ev, limit)


def _split_doc(tree: ReductionSplit, child_nodes: tuple[Optional[dict], ...]) -> dict:
    sl = tree.sl
    children = [
        cert.child_doc(spec.pair_refs, list(spec.markers), list(spec.removed), node)
        for spec, node in zip(tree.children, child_nodes)
    ]
    return cert.split_node(
        tree.part,
        (sl.vref[tree.boundary[0]], sl.vref[tree.boundary[1]]),
        [sl.eref[i] for i in tree.side1],
        [sl.eref[i] for i in tree.side2],
        children,
        kept=tree.kept,
        switch=(
            sorted(sl.vref[v] for v in tree.resign) if tree.resign is not None else None
        ),
        neg_cycle=tree.neg_cycle_doc,
    )


def _evaluate_leaf(leaf: ReductionLeaf, limit: int) -> _Eval:
    sl, e1, e2 = leaf.sl, leaf.e1, leaf.e2
    g = sl.g
    if g.endpoints(e1) == g.endpoints(e2):
        return _Eval(True, node=cert.parallel_pair_node(g.sign(e1) * g.sign(e2)))
    # _reduce stops above SMALL_LEAF only where no 2-cut exists
    if g.n > SMALL_LEAF or is_3_connected(g):
        lv = _check_cases(sl, e1, e2)
        if lv.tied:
            return _Eval(True, node=lv.node)
        return _leaf_untied_witness(sl, e1, e2, limit)
    # the budget parameter caps witness searches only; leaf enumeration is
    # decision-critical, so never let a small witness budget starve it
    rep = enumerate_common_cycles(g, e1, e2, SearchBudget(max(limit, DEFAULT_BUDGET)))
    if not rep.complete:
        raise PreconditionViolated("leaf enumeration exceeded its budget")
    if rep.positive_count and rep.negative_count:
        pos = next(c for c in rep.cycles if sign_product(g, c.edges) == POSITIVE)
        neg = next(c for c in rep.cycles if sign_product(g, c.edges) == NEGATIVE)
        return _Eval(False, witness=(_ref_cycle(sl, pos), _ref_cycle(sl, neg)))
    assert rep.cycles, "a 2-connected leaf always has a common cycle"
    sign = sign_product(g, rep.cycles[0].edges)
    docs = [
        cert.cycle_doc([sl.eref[i] for i in c.edges], [sl.vref[x] for x in c.vertices])
        for c in rep.cycles
    ]
    return _Eval(True, node=cert.enum_node(docs, sign))


def _leaf_untied_witness(sl: Slice, e1: int, e2: int, limit: int) -> _Eval:
    pos, ok_p = find_common_cycle(sl.g, e1, e2, sign=POSITIVE, budget=SearchBudget(limit))
    neg, ok_n = find_common_cycle(sl.g, e1, e2, sign=NEGATIVE, budget=SearchBudget(limit))
    if pos is None or neg is None:
        if ok_p and ok_n:
            raise AssertionError("untied leaf lacks an opposite-sign cycle pair")
        return _Eval(False, error="witness search budget exhausted at a leaf")
    return _Eval(False, witness=(_ref_cycle(sl, pos), _ref_cycle(sl, neg)))


def _marker_path(
    split: ReductionSplit, md: dict, limit: int
) -> tuple[Optional[tuple[tuple[Ref, ...], tuple[int, ...]]], Optional[str]]:
    """A boundary path of the marker's sign inside the discarded side."""
    discard = split.discard
    assert discard is not None
    vidx = discard.vert_index()
    res = find_signed_path(
        discard.g,
        vidx[md["u"]],
        vidx[md["v"]],
        md["sign"],
        budget=SearchBudget(limit),
    )
    if res.path is None:
        if res.complete:
            return None, "replaced side lacks a boundary path of the marker sign"
        return None, "marker path search budget exhausted"
    pe = tuple(discard.eref[i] for i in res.path.edges)
    pv = tuple(discard.vref[x] for x in res.path.vertices)
    return (pe, pv), None


def _lift_part23(split: ReductionSplit, ev: _Eval, limit: int) -> _Eval:
    if ev.witness is None:
        return ev
    spec = split.children[0]
    lifted = []
    for rc in ev.witness:
        for md in spec.markers:
            if md["name"] in rc[0]:
                path, err = _marker_path(split, md, limit)
                if path is None:
                    return _Eval(False, error=err)
                rc = _splice_path(rc, md["name"], path)
        lifted.append(rc)
    return _Eval(False, witness=(lifted[0], lifted[1]))


def _lift_part1(split: ReductionSplit, child_idx: int, ev: _Eval, limit: int) -> _Eval:
    if ev.witness is None:
        return ev
    own_spec = split.children[child_idx]
    sib_spec = split.children[1 - child_idx]
    sib_sl = sib_spec.node.sl
    pidx = sib_sl.edge_index()
    p1 = pidx[sib_spec.pair_refs[0]]
    p2 = pidx[sib_spec.pair_refs[1]]
    c2, complete = find_common_cycle(sib_sl.g, p1, p2, budget=SearchBudget(limit))
    if c2 is None:
        if complete:
            raise AssertionError("2-connected sibling lacks a common cycle")
        return _Eval(False, error="sibling cycle search budget exhausted")
    sib_rc = _ref_cycle(sib_sl, c2)
    marker = sib_spec.markers[0]["name"]
    path = _cycle_minus_edge(sib_rc, marker)
    own_marker = own_spec.markers[0]["name"]
    lifted = tuple(_splice_path(rc, own_marker, path) for rc in ev.witness)
    return _Eval(False, witness=(lifted[0], lifted[1]))


def lift_witness(
    tree: ReductionTree,
    leaf_witness: tuple[Cycle, Cycle],
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Cycle, Cycle]:
    """Lift a leaf's opposite-sign cycle pair to the tree's root graph.

    The witness cycles are given in the local edge ids of the leaf they
    were found at (for a single-leaf tree this is the root graph
    itself, and lifting is the identity).  Returns the pair ordered
    (positive, negative) in the root graph's local ids.  Raises
    BudgetExhausted when a marker path search fails.
    """
    leaf, ancestry = _locate_leaf(tree, leaf_witness)
    ev = _Eval(
        False,
        witness=(
            _ref_cycle(leaf.sl, leaf_witness[0]),
            _ref_cycle(leaf.sl, leaf_witness[1]),
        ),
    )
    for split, child_idx in reversed(ancestry):
        if split.part == 1:
            ev = _lift_part1(split, child_idx, ev, budget)
        else:
            ev = _lift_part23(split, ev, budget)
        if ev.witness is None:
            raise BudgetExhausted(ev.error or "witness lifting failed")
    assert ev.witness is not None
    return _finalize_pair(tree.sl, ev.witness)


def _locate_leaf(
    tree: ReductionTree, witness: tuple[Cycle, Cycle]
) -> tuple[ReductionLeaf, list[tuple[ReductionSplit, int]]]:
    stack: list[tuple[ReductionTree, list]] = [(tree, [])]
    while stack:
        node, anc = stack.pop()
        if isinstance(node, ReductionLeaf):
            if all(_valid_witness_at(node, c) for c in witness):
                return node, anc
            continue
        for i in reversed(range(len(node.children))):
            stack.append((node.children[i].node, anc + [(node, i)]))
    raise BadParams("witness cycles match no leaf of this tree")


def _valid_witness_at(leaf: ReductionLeaf, c: Cycle) -> bool:
    try:
        rebuilt = Cycle.from_edges(leaf.sl.g, c.edges)
    except Exception:
        return False
    return (
        set(rebuilt.vertices) == set(c.vertices)
        and leaf.e1 in c.edges
        and leaf.e2 in c.edges
    )


def _finalize_pair(
    root: Slice, witness: tuple[_RefCycle, _RefCycle]
) -> tuple[Cycle, Cycle]:
    idx = root.edge_index()
    out = []
    for edges, _ in witness:
        ids = tuple(idx[r] for r in edges)
        out.append(Cycle.from_edges(root.g, ids))
    s0 = sign_product(root.g, out[0].edges)
    s1 = sign_product(root.g, out[1].edges)
    if {s0, s1} != {POSITIVE, NEGATIVE}:
        raise BadParams("witness cycles are not an opposite-sign pair")
    if s0 == NEGATIVE:
        out.reverse()
    return out[0], out[1]


# --- the full pipeline ----------------------------------------------------


def decide_tied(
    g: SignedGraph, e1: EdgeId, e2: EdgeId, *, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Decide whether two edges are tied, with a verifiable certificate.

    Tied verdicts carry a certificate tree plus (budget permitting) one
    common cycle exhibiting the shared sign; untied verdicts carry a
    positive and a negative common cycle.  ``budget`` caps each
    individual witness search, never the decision itself.
    """
    _check_pair(g, e1, e2)
    if g.endpoints(e1) == g.endpoints(e2):
        two = Cycle.from_edges(g, (e1, e2))
        s = g.sign(e1) * g.sign(e2)
        return Verdict(
            kind=cert.KIND_TIED,
            common_sign=s,
            witness=(two,),
            certificate=cert.parallel_pair_node(s),
        )
    slim, p1, p2, removed = _normalize_child(Slice.identity(g), e1, e2)
    b = blocks(slim.g).block_of(p1)
    if p2 not in b:
        return Verdict(
            kind=cert.KIND_VACUOUS,
            reason="the edges lie in different blocks; no cycle contains both",
            certificate=cert.blocks_node(list(removed)),
        )
    sl = slim.sub(sorted(b))
    idx = sl.edge_index()
    tree = _reduce(sl, idx[e1], idx[e2], itertools.count())
    ev = _evaluate(tree, budget)
    if ev.tied:
        assert ev.node is not None
        doc = cert.preprocess_node(list(removed), list(sl.eref), ev.node)
        c, complete = find_common_cycle(g, e1, e2, budget=SearchBudget(budget))
        if c is None:
            err = (
                "common-cycle search budget exhausted"
                if not complete
                else "no common cycle found despite a shared block"
            )
            return Verdict(kind=cert.KIND_TIED, certificate=doc, witness_error=err)
        return Verdict(
            kind=cert.KIND_TIED,
            common_sign=sign_product(g, c.edges),
            witness=(c,),
            certificate=doc,
        )
    if ev.witness is None:
        return Verdict(kind=cert.KIND_UNTIED, witness_error=ev.error)
    pos, neg = _finalize_pair(Slice.identity(g), ev.witness)
    return Verdict(kind=cert.KIND_UNTIED, witness=(pos, neg))


# --- three edges on one cycle ---------------------------------------------


def lovasz_three_edges(
    g: SignedGraph, e1: EdgeId, e2: EdgeId, e3: EdgeId
) -> LovaszResult:
    """Is there a cycle through three given edges of a simple 3-connected graph?

    No cycle exists iff the edges share a vertex (reported first) or
    their removal disconnects the graph.
    """
    if len({e1, e2, e3}) != 3:
        raise SameEdge("the three edges must be distinct")
    for eid in (e1, e2, e3):
        g.edge(eid)
    if len({e.endpoints() for e in g.edges}) < g.m:
        raise PreconditionViolated("the three-edge test needs a simple graph")
    if not is_3_connected(g):
        raise PreconditionViolated("the three-edge test needs a 3-connected graph")
    common = g.endpoints(e1) & g.endpoints(e2) & g.endpoints(e3)
    if common:
        return LovaszResult(False, "common_vertex")
    rest, _ = delete_edges(g, (e1, e2, e3))
    if len(components(rest)) > 1:
        return LovaszResult(False, "disconnecting")
    return LovaszResult(True, None)
