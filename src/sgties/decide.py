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

Witness searches are budgeted; the decision is not.  Two of them are
linear, built by two-path flow: the common cycle that shows a tied
verdict's sign, and the sibling's common cycle that lifts a witness
through a part-1 split.  Two stay exhaustive depth-first searches: the
opposite-sign cycle pair at an untied 3-connected leaf, and the signed
boundary path that replaces a marker at a part-2/3 split.  A search
that runs out of budget raises BudgetExhausted, which passes unchanged
through evaluation and lifting; decide_tied catches it in one place and
keeps the proven verdict, with the exception's text as its
witness_error.

All certificate references use original edge ids and marker names; see
the certificate module for the document schema.
"""

from __future__ import annotations

import itertools
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
        # the leaf is 3-connected, so its simple graph is 3-edge-connected
        # and losing F and the pair (three simple edges) leaves at most two
        # components; the cut is exact iff there are two and all three cross
        fplus = frozenset(f) | {e1, e2}
        rest, _ = delete_edges(g, fplus)
        comps = components(rest)
        if len(comps) != 2 or any(len(g.endpoints(i) & comps[1]) != 1 for i in fplus):
            continue
        bal = is_balanced(rest)
        if not bal.balanced:
            continue
        return cert.case1_node(
            [sl.eref[i] for i in sorted(f)],
            sorted(sl.vref[v] for v in comps[1]),
            _switch_refs(sl, bal.signing),
        )
    return None


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

# witnesses travel in reference space until the very end; a path has the
# same shape as a cycle, with one more vertex than edges
_RefCycle = tuple[tuple[Ref, ...], tuple[int, ...]]
_Witness = tuple[_RefCycle, _RefCycle]


def _ref_cycle(sl: Slice, c: Cycle) -> _RefCycle:
    return (
        tuple(sl.eref[i] for i in c.edges),
        tuple(sl.vref[x] for x in c.vertices),
    )


def _splice_path(rc: _RefCycle, name: str, path: _RefCycle) -> _RefCycle:
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


def _cycle_minus_edge(rc: _RefCycle, name: str) -> _RefCycle:
    """Open a cycle at one edge, returning the complementary path."""
    edges, verts = rc
    i = edges.index(name)
    k = len(edges)
    pe = tuple(edges[(i + 1 + j) % k] for j in range(k - 1))
    pv = tuple(verts[(i + 1 + j) % k] for j in range(k))
    return pe, pv


def _evaluate(tree: ReductionTree, limit: int) -> Union[dict, _Witness]:
    """The certificate node of a tied subtree, or the untied witness pair.

    Children are evaluated in order; the first untied one decides the
    split, and its witness is lifted through it.
    """
    if isinstance(tree, ReductionLeaf):
        return _evaluate_leaf(tree, limit)
    nodes = []
    for i, spec in enumerate(tree.children):
        res = _evaluate(spec.node, limit)
        if not isinstance(res, dict):
            return _lift(tree, i, res, limit)
        nodes.append(res)
    return _split_doc(tree, nodes)


def _split_doc(tree: ReductionSplit, child_nodes: list[dict]) -> dict:
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


def _evaluate_leaf(leaf: ReductionLeaf, limit: int) -> Union[dict, _Witness]:
    sl, e1, e2 = leaf.sl, leaf.e1, leaf.e2
    g = sl.g
    # _reduce stops above SMALL_LEAF only where no 2-cut exists
    if g.n > SMALL_LEAF or is_3_connected(g):
        lv = _check_cases(sl, e1, e2)
        if lv.tied:
            return lv.node
        return _leaf_untied_witness(sl, e1, e2, limit)
    # the budget parameter caps witness searches only; leaf enumeration is
    # decision-critical, so never let a small witness budget starve it
    rep = enumerate_common_cycles(g, e1, e2, SearchBudget(max(limit, DEFAULT_BUDGET)))
    if not rep.complete:
        raise PreconditionViolated("leaf enumeration exceeded its budget")
    if rep.positive_count and rep.negative_count:
        pos = next(c for c in rep.cycles if sign_product(g, c.edges) == POSITIVE)
        neg = next(c for c in rep.cycles if sign_product(g, c.edges) == NEGATIVE)
        return _ref_cycle(sl, pos), _ref_cycle(sl, neg)
    assert rep.cycles, "a 2-connected leaf always has a common cycle"
    sign = sign_product(g, rep.cycles[0].edges)
    docs = [
        cert.cycle_doc([sl.eref[i] for i in c.edges], [sl.vref[x] for x in c.vertices])
        for c in rep.cycles
    ]
    return cert.enum_node(docs, sign)


def _leaf_untied_witness(sl: Slice, e1: int, e2: int, limit: int) -> _Witness:
    pos, ok_p = find_common_cycle(sl.g, e1, e2, sign=POSITIVE, budget=SearchBudget(limit))
    neg, ok_n = find_common_cycle(sl.g, e1, e2, sign=NEGATIVE, budget=SearchBudget(limit))
    if pos is None or neg is None:
        assert not (ok_p and ok_n), "untied leaf lacks an opposite-sign cycle pair"
        raise BudgetExhausted("witness search budget exhausted at a leaf")
    return _ref_cycle(sl, pos), _ref_cycle(sl, neg)


def _marker_path(split: ReductionSplit, md: dict, limit: int) -> _RefCycle:
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
        # a side of a 2-separation joins its boundary by paths of each
        # sign its markers carry, so only the budget can stop the search
        assert not res.complete, "replaced side lacks a boundary path of the marker sign"
        raise BudgetExhausted("marker path search budget exhausted")
    pe = tuple(discard.eref[i] for i in res.path.edges)
    pv = tuple(discard.vref[x] for x in res.path.vertices)
    return pe, pv


def _lift(split: ReductionSplit, child_idx: int, w: _Witness, limit: int) -> _Witness:
    """Lift a witness of one child to the split's own slice."""
    if split.part == 1:
        return _lift_part1(split, child_idx, w, limit)
    return _lift_part23(split, w, limit)


def _lift_part23(split: ReductionSplit, w: _Witness, limit: int) -> _Witness:
    # both cycles may pass through one marker; search its path once
    paths: dict[str, _RefCycle] = {}
    lifted = []
    for rc in w:
        for md in split.children[0].markers:
            name = md["name"]
            if name in rc[0]:
                if name not in paths:
                    paths[name] = _marker_path(split, md, limit)
                rc = _splice_path(rc, name, paths[name])
        lifted.append(rc)
    return lifted[0], lifted[1]


def _lift_part1(split: ReductionSplit, child_idx: int, w: _Witness, limit: int) -> _Witness:
    own_spec = split.children[child_idx]
    sib_spec = split.children[1 - child_idx]
    sib_sl = sib_spec.node.sl
    pidx = sib_sl.edge_index()
    p1 = pidx[sib_spec.pair_refs[0]]
    p2 = pidx[sib_spec.pair_refs[1]]
    c2, complete = find_common_cycle(sib_sl.g, p1, p2, budget=SearchBudget(limit))
    if c2 is None:
        assert not complete, "2-connected sibling lacks a common cycle"
        raise BudgetExhausted("sibling cycle search budget exhausted")
    path = _cycle_minus_edge(_ref_cycle(sib_sl, c2), sib_spec.markers[0]["name"])
    own_marker = own_spec.markers[0]["name"]
    return _splice_path(w[0], own_marker, path), _splice_path(w[1], own_marker, path)


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
    BudgetExhausted when any witness search on the way up runs out of
    budget: a sibling's common cycle at a part-1 split or a marker path
    at a part-2/3 split.
    """
    leaf, ancestry = _locate_leaf(tree, leaf_witness)
    w = (_ref_cycle(leaf.sl, leaf_witness[0]), _ref_cycle(leaf.sl, leaf_witness[1]))
    for split, child_idx in reversed(ancestry):
        w = _lift(split, child_idx, w, budget)
    return _finalize_pair(tree.sl, w)


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


def _finalize_pair(root: Slice, witness: _Witness) -> tuple[Cycle, Cycle]:
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

    Tied verdicts carry a certificate tree plus one common cycle
    exhibiting the shared sign, built by two-path flow, so only a budget
    below 4m withholds it; untied verdicts carry a positive and a
    negative common cycle.  ``budget`` caps each individual witness
    search, never the decision itself.
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
    doc = None
    try:
        res = _evaluate(tree, budget)
        if not isinstance(res, dict):
            return Verdict(
                kind=cert.KIND_UNTIED, witness=_finalize_pair(Slice.identity(g), res)
            )
        doc = cert.preprocess_node(list(removed), list(sl.eref), res)
        c, complete = find_common_cycle(g, e1, e2, budget=SearchBudget(budget))
        if c is None:
            # the pair shares a 2-connected block, so a common cycle exists
            assert not complete, "no common cycle found despite a shared block"
            raise BudgetExhausted("common-cycle search budget exhausted")
    except BudgetExhausted as exc:
        kind = cert.KIND_UNTIED if doc is None else cert.KIND_TIED
        return Verdict(kind=kind, certificate=doc, witness_error=str(exc))
    return Verdict(
        kind=cert.KIND_TIED,
        common_sign=sign_product(g, c.edges),
        witness=(c,),
        certificate=doc,
    )


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
