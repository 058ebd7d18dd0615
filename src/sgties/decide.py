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

Evaluation settles the verdict and builds the certificate without
looking for witnesses.  The witnesses of an untied verdict are then
built at its first untied leaf and lifted back through the splits by
replacing marker edges with boundary-to-boundary paths of the marker's
sign inside the replaced side.  They travel as unordered sets of edge
references: a lift swaps a marker for a path's edges, and each cycle is
put back in cyclic order once, at the root.

No witness is found by exhaustive search, so decide takes no budget and
every verdict carries its evidence.  Common cycles (the one showing a
tied verdict's sign, the sibling's at a part-1 lift, the first cycle at
an untied leaf) are built by two-path flow.  A cycle or path of a
required sign is searched only in a piece with at most three
candidates, one of them of that sign, so the search is linear.  Where
the sign must be switched, the piece holds a fan: two disjoint paths
from two vertices to a negative cycle, which close two paths between
those vertices of opposite signs (Menger's fan lemma).  A part-3 marker
path lies in the fan from the boundary to the split's negative cycle; a
part-2 side is all-positive after its switch, so one BFS path will do.
At an untied leaf the second cycle lies in the flow cycle plus one ear;
when no single ear changes the sign it comes from self-reduction, which
deletes every edge whose loss keeps a common cycle of the wanted sign,
at one verdict per edge.

All certificate references use original edge ids and marker names; see
the certificate module for the document schema.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import certificate as cert
from .balance import find_signed_path, is_balanced
from .certificate import Verdict
from .connectivity import (
    _proper_2_separation,
    blocks,
    components,
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
    parallel_class,
    sign_product,
    switch,
)
from .errors import (
    NotTwoConnected,
    PreconditionViolated,
    SameEdge,
)
from .oracle import enumerate_common_cycles, find_common_cycle
from .search import disjoint_paths

# leaves this small skip the separation search entirely
SMALL_LEAF = 4


@dataclass(frozen=True)
class ReductionLeaf:
    """Reduction endpoint: no further split is taken at this graph."""

    sl: Slice
    e1: EdgeId
    e2: EdgeId


# a marker edge: (name, u, v, sign), its ends in a slice's local ids
_Marker = tuple[str, VertexId, VertexId, Sign]


@dataclass(frozen=True)
class ChildSpec:
    """One child subproblem of a split.

    ``pair_refs`` and ``removed`` are certificate references; ``markers``
    are the ``(name, u, v, sign)`` edges the child's slice was built
    with, their ends in the parent slice's local vertex ids.
    """

    pair_refs: tuple[Ref, Ref]
    markers: tuple[_Marker, ...]
    removed: tuple[Ref, ...]  # parallel-to-pair edges dropped from the child
    node: "ReductionTree"


@dataclass(frozen=True)
class ReductionSplit:
    """One 2-separation reduction step.

    part 1: the pair straddles the boundary; two children, each keeping
    one side plus a positive marker.  part 2: the far side is balanced
    and is replaced (after a whole-graph switch making it all-positive)
    by one positive marker.  part 3: the far side is unbalanced and is
    replaced by a positive and a negative marker.  ``kept`` comes from
    ``_reduce``; ``resign``, ``neg_cycle`` and ``discard`` are
    ``_split_part23``'s decision on the far side, all None in part 1.
    ``discard`` keeps the replaced side (switched, for part 2) so
    witnesses can be lifted, and ``neg_cycle`` is the part-3 side's
    negative cycle in its local ids.
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
    neg_cycle: Optional[Cycle] = None  # part 3: in discard's local ids
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
    """Reduce a slice at its first proper 2-separation, or stop at a leaf.

    A split plans its children as (side, head of the pair), all cut from
    one base slice with markers of the same signs: ``sl`` and one
    positive marker in part 1, ``_split_part23``'s choice in parts 2/3.
    Each child's marker names are drawn just before its recursion.
    """
    # sl is 2-connected: reduce checks its input, _block_tree passes a
    # block, and a side plus its markers, less the edges parallel to the
    # pair, stays 2-connected; so the separation search skips that proof
    if sl.g.n <= SMALL_LEAF:
        return ReductionLeaf(sl, e1, e2)
    sep = _proper_2_separation(sl.g)
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
    sides = {1: tuple(sorted(s1)), 2: tuple(sorted(s2))}
    kept = None
    if (e1 in s1) != (e2 in s1):
        # part 1: each side keeps its own distinguished edge, paired with
        # a positive marker that stands in for the other side
        part, base, signs, resign, neg_cycle, discard = 1, sl, (POSITIVE,), None, None, None
        head1, head2 = (e1, e2) if e1 in s1 else (e2, e1)
        plan = ((1, head1), (2, head2))
    else:
        kept = 1 if e1 in s1 else 2
        part, base, signs, resign, neg_cycle, discard = _split_part23(sl, sides[3 - kept])
        plan = ((kept, e1),)
    children = []
    for snum, head in plan:
        markers = tuple((f"m{next(names)}", bu, bv, s) for s in signs)
        tail = markers[0][0] if part == 1 else sl.eref[e2]
        children.append(_make_child(base, sides[snum], (sl.eref[head], tail), markers, names))
    return ReductionSplit(
        sl, e1, e2, part, (bu, bv), sides[1], sides[2], tuple(children),
        kept, resign, neg_cycle, discard,
    )


def _normalize_child(
    sub: Slice, p1: int, p2: int
) -> tuple[Slice, int, int, tuple[Ref, ...]]:
    """Drop edges parallel to either distinguished edge of a slice."""
    drop = (parallel_class(sub.g, p1) | parallel_class(sub.g, p2)) - {p1, p2}
    if not drop:
        return sub, p1, p2, ()
    removed = tuple(sub.eref[i] for i in drop)
    slim = sub.sub([i for i in range(sub.g.m) if i not in drop])
    idx = slim.edge_index()
    return slim, idx[sub.eref[p1]], idx[sub.eref[p2]], removed


def _make_child(
    sl: Slice,
    side: tuple[int, ...],
    pair: tuple[Ref, Ref],
    markers: tuple[_Marker, ...],
    names: Iterator[int],
) -> ChildSpec:
    """Build one child slice, normalize it, and recurse.

    ``pair`` names the child's distinguished edges by reference: an
    original edge id or one of the new markers.  Normalization drops
    only edges parallel to the pair, never the pair itself.
    """
    sub = sl.sub(side, markers)
    idx = sub.edge_index()
    slim, p1, p2, removed = _normalize_child(sub, idx[pair[0]], idx[pair[1]])
    return ChildSpec(
        pair_refs=pair,
        markers=markers,
        removed=removed,
        node=_reduce(slim, p1, p2, names),
    )


def _split_part23(sl: Slice, far: tuple[int, ...]) -> tuple[
    int, Slice, tuple[Sign, ...], Optional[tuple[VertexId, ...]], Optional[Cycle], Slice
]:
    """How the far side of a split, the one without the pair, is replaced.

    Returns ``(part, base, signs, resign, neg_cycle, discard)``: the
    part, the slice the kept side is cut from, the signs of the markers
    that stand in for the far side, the part-2 switch set (local ids of
    ``sl``), the part-3 negative cycle (in ``discard``'s ids) and the
    far side itself, switched for part 2, kept for lifting.
    """
    drop = sl.sub(far)
    bal = is_balanced(drop.g)
    if not bal.balanced:
        # part 3: the far side holds a negative cycle, so a positive and a
        # negative marker stand in for it
        return 3, sl, (POSITIVE, NEGATIVE), None, bal.negative_cycle, drop
    # part 2: switch the whole graph so the far side is all-positive,
    # then stand it in with a single positive marker
    vidx = sl.vert_index()
    resign = tuple(sorted(vidx[drop.vref[v]] for v in bal.switch))
    work = Slice(switch(sl.g, set(resign)), sl.eref, sl.vref)
    discard = Slice(switch(drop.g, bal.switch), drop.eref, drop.vref)
    return 2, work, (POSITIVE,), resign, None, discard


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
            [sl.eref[i] for i in f],
            [sl.vref[v] for v in comps[1]],
            [sl.vref[v] for v in bal.switch],
        )
    return None


def _try_case2(sl: Slice, e1: int, e2: int) -> Optional[dict]:
    g = sl.g
    shared = g.endpoints(e1) & g.endpoints(e2)
    if len(shared) != 1:
        return None
    (v,) = shared
    # v keeps potential +1 once isolated, so the switch set is that of G - v
    rest, _ = delete_edges(g, (i for i, _ in g.adjacency[v]))
    bal = is_balanced(rest)
    if not bal.balanced:
        return None
    return cert.case2_node(sl.vref[v], [sl.vref[x] for x in bal.switch])


def _try_case3(sl: Slice, e1: int, e2: int) -> Optional[dict]:
    rest, _ = delete_edges(sl.g, (e1, e2))
    bal = is_balanced(rest)
    if not bal.balanced:
        return None
    return cert.case3_node([sl.vref[v] for v in bal.switch])


# --- evaluation and witness lifting ---------------------------------------

# witnesses travel as unordered edge-reference sets until the very end
_Witness = tuple[frozenset[Ref], frozenset[Ref]]
# the splits above a leaf, root first, each with the index of the child
# on the way down
_Ancestry = tuple[tuple[ReductionSplit, int], ...]


def _refs(sl: Slice, ids: Iterable[EdgeId]) -> frozenset[Ref]:
    return frozenset(sl.eref[i] for i in ids)


def _block_tree(sl: Slice, e1: int, e2: int) -> Optional[ReductionTree]:
    """The reduction tree of the pair's common block; None for different blocks."""
    b = blocks(sl.g).block_of(e1)
    if e2 not in b:
        return None
    blk = sl.sub(sorted(b))
    idx = blk.edge_index()
    return _reduce(blk, idx[sl.eref[e1]], idx[sl.eref[e2]], itertools.count())


def _evaluate(tree: ReductionTree) -> Union[dict, tuple[ReductionLeaf, _Ancestry]]:
    """The certificate node of a tied subtree, or where it is untied.

    Children are evaluated in order; the first untied one decides the
    split.  An untied result is the first untied leaf with its ancestry.
    No witness is searched for here.
    """
    if isinstance(tree, ReductionLeaf):
        node = _evaluate_leaf(tree)
        return (tree, ()) if node is None else node
    nodes = []
    for i, spec in enumerate(tree.children):
        res = _evaluate(spec.node)
        if not isinstance(res, dict):
            leaf, ancestry = res
            return leaf, ((tree, i),) + ancestry
        nodes.append(res)
    return _split_doc(tree, nodes)


def _split_doc(tree: ReductionSplit, child_nodes: list[dict]) -> dict:
    sl = tree.sl
    children = [
        cert.child_doc(
            spec.pair_refs,
            [cert.marker_doc(n, sl.vref[u], sl.vref[v], s) for n, u, v, s in spec.markers],
            spec.removed,
            node,
        )
        for spec, node in zip(tree.children, child_nodes)
    ]
    nc, d = tree.neg_cycle, tree.discard
    nc_doc = None
    if nc is not None and d is not None:
        nc_doc = cert.cycle_doc(
            [d.eref[i] for i in nc.edges], [d.vref[x] for x in nc.vertices]
        )
    return cert.split_node(
        tree.part,
        (sl.vref[tree.boundary[0]], sl.vref[tree.boundary[1]]),
        [sl.eref[i] for i in tree.side1],
        [sl.eref[i] for i in tree.side2],
        children,
        kept=tree.kept,
        switch=[sl.vref[v] for v in tree.resign] if tree.resign is not None else None,
        neg_cycle=nc_doc,
    )


def _evaluate_leaf(leaf: ReductionLeaf) -> Optional[dict]:
    """The certificate node of a tied leaf; None when it is untied."""
    sl, e1, e2 = leaf.sl, leaf.e1, leaf.e2
    g = sl.g
    # _reduce stops above SMALL_LEAF only where no 2-cut exists
    if g.n > SMALL_LEAF or is_3_connected(g):
        return _check_cases(sl, e1, e2).node
    rep = enumerate_common_cycles(g, e1, e2)
    if not rep.complete:
        raise PreconditionViolated("leaf enumeration exceeded its budget")
    if rep.positive_count and rep.negative_count:
        return None
    assert rep.cycles, "a 2-connected leaf always has a common cycle"
    sign = sign_product(g, rep.cycles[0].edges)
    docs = [
        cert.cycle_doc([sl.eref[i] for i in c.edges], [sl.vref[x] for x in c.vertices])
        for c in rep.cycles
    ]
    return cert.enum_node(docs, sign)


def _common_signs(g: SignedGraph, e1: int, e2: int) -> frozenset[Sign]:
    """The signs of the pair's common cycles, read off its verdict.

    Reduces and evaluates without searching for a witness; a tied
    verdict takes its sign from the flow cycle.  Neither edge may have a
    parallel companion.
    """
    tree = _block_tree(Slice.identity(g), e1, e2)
    if tree is None:
        return frozenset()
    if not isinstance(_evaluate(tree), dict):
        return frozenset((POSITIVE, NEGATIVE))
    c, _ = find_common_cycle(g, e1, e2)
    assert c is not None, "no common cycle found despite a shared block"
    return frozenset((sign_product(g, c.edges),))


def _fan(
    g: SignedGraph,
    sources: Sequence[VertexId],
    cycle: Cycle,
    banned: frozenset[VertexId] = frozenset(),
) -> Optional[tuple[EdgeId, ...]]:
    """Edges of a negative cycle plus two disjoint paths to it from two sources.

    The two paths end at distinct vertices of the cycle, which close
    exactly two paths between their starts, one along each arc; the
    cycle is negative, so these have opposite signs (the fan form of
    Menger's theorem).  None when no two such paths exist.
    """
    paths = disjoint_paths(g, sources, cycle.vertices, 2, banned_vertices=banned)
    if len(paths) < 2:
        return None
    return cycle.edges + paths[0][0] + paths[1][0]


def _ear(g: SignedGraph, e1: int, e2: int, c: Cycle) -> Optional[tuple[EdgeId, ...]]:
    """Edges outside the common cycle c that make a common cycle of the other sign.

    c minus the pair falls into two halves.  A path outside c whose ends
    x != y lie on one half can replace that half's x..y segment, and the
    new common cycle has the other sign when the path's sign differs from
    the segment's.  Such a path runs along a chord of c, or through a
    component K of G - V(c), entering and leaving by attachment edges.  If
    K is balanced with potential t, a path entering by edge a at vertex
    p of K has sign sign(a)·t(p)·sign(b)·t(q) when it leaves by edge b at
    q, whatever route it takes inside K.  If K is unbalanced, the fan from
    two attachment vertices on one half to a negative cycle of K holds x..y
    paths of both signs.  None when no chord or component gives an ear.
    """
    # each vertex of c: (its half, sign of the half from its start to the vertex)
    k = len(c.edges)
    i = c.edges.index(e1)
    place: dict[VertexId, tuple[int, Sign]] = {}
    half, s = 0, POSITIVE
    for j in range(1, k + 1):
        place[c.vertices[(i + j) % k]] = (half, s)
        eid = c.edges[(i + j) % k]
        half, s = (1, POSITIVE) if eid == e2 else (half, s * g.sign(eid))
    in_c = frozenset(c.edges)
    for eid, e in enumerate(g.edges):
        if eid in in_c or e.u not in place or e.v not in place:
            continue
        (hu, su), (hv, sv) = place[e.u], place[e.v]
        if hu == hv and e.sign != su * sv:
            return (eid,)
    on_c = frozenset(place)
    for comp in components(g, on_c):
        ear = _component_ear(g, comp, place, on_c)
        if ear is not None:
            return ear
    return None


def _component_ear(
    g: SignedGraph,
    comp: frozenset[VertexId],
    place: dict[VertexId, tuple[int, Sign]],
    on_c: frozenset[VertexId],
) -> Optional[tuple[EdgeId, ...]]:
    """An ear of _ear's kind through one component of G - V(c), or None."""
    inner, attach = [], []
    for v in comp:
        for eid, w in g.adjacency[v]:
            if w in on_c:
                attach.append((eid, v, w))
            elif v < w:
                inner.append(eid)
    ks = Slice.identity(g).sub(sorted(inner))
    bal = is_balanced(ks.g)
    nc = bal.negative_cycle
    if nc is not None:
        d = Cycle(
            tuple(ks.eref[i] for i in nc.edges), tuple(ks.vref[x] for x in nc.vertices)
        )
        by_half: dict[int, set[VertexId]] = {}
        for _, _, x in attach:
            by_half.setdefault(place[x][0], set()).add(x)
        for xs in by_half.values():
            if len(xs) > 1:
                fan = _fan(g, sorted(xs), d, on_c - xs)
                if fan is not None:
                    return fan
        return None
    # (half, sign an ear would carry from the half's start) ->
    # attachment vertex -> (attachment edge, its end in K)
    kv = ks.vert_index()
    ends: dict[tuple[int, Sign], dict[VertexId, tuple[EdgeId, VertexId]]] = {}
    for eid, v, x in attach:
        hx, sx = place[x]
        t = bal.signing[kv[v]] if v in kv else POSITIVE
        ends.setdefault((hx, g.sign(eid) * t * sx), {}).setdefault(x, (eid, v))
    for (hx, val), xs in ends.items():
        for x, (a, p) in xs.items():
            for y, (b, q) in ends.get((hx, -val), {}).items():
                if x != y:
                    ((inside, _),) = disjoint_paths(g, (p,), (q,), 1, banned_vertices=on_c)
                    return (a, b, *inside)
    return None


def _self_reduce(sl: Slice, e1: int, e2: int, sign: Sign) -> frozenset[Ref]:
    """A common cycle of the given sign, by deleting every edge it can spare.

    Deleting edges never adds a common cycle, so an edge kept because
    its deletion would leave none of the sign stays needed to the end;
    after one pass the edges left are exactly such a cycle.  Costs one
    verdict per edge.
    """
    base = Slice.identity(sl.g)
    keep = list(range(sl.g.m))
    for eid in range(sl.g.m):
        if eid in (e1, e2):
            continue
        trial = [i for i in keep if i != eid]
        sub = base.sub(trial)
        idx = sub.edge_index()
        if sign in _common_signs(sub.g, idx[e1], idx[e2]):
            keep = trial
    return _refs(sl, keep)


def _leaf_untied_witness(sl: Slice, e1: int, e2: int) -> _Witness:
    """An opposite-sign pair of common cycles of an untied leaf.

    The first is the flow cycle C.  The second is searched in C plus one
    ear, which holds at most three common cycles, or found by
    self-reduction when no single ear changes the sign.
    """
    c, _ = find_common_cycle(sl.g, e1, e2)
    assert c is not None, "a 2-connected leaf always has a common cycle"
    other = -sign_product(sl.g, c.edges)
    ear = _ear(sl.g, e1, e2, c)
    if ear is None:
        return _refs(sl, c.edges), _self_reduce(sl, e1, e2, other)
    h = sl.sub(sorted(c.edges + ear))
    idx = h.edge_index()
    d, _ = find_common_cycle(h.g, idx[sl.eref[e1]], idx[sl.eref[e2]], sign=other)
    assert d is not None, "an ear of the other sign closes no common cycle"
    return _refs(sl, c.edges), _refs(h, d.edges)


def _marker_path(split: ReductionSplit, marker: _Marker) -> frozenset[Ref]:
    """A boundary path of the marker's sign inside the discarded side.

    ``marker`` is one of the kept child's ``(name, u, v, sign)`` tuples,
    its ends in the split slice's local ids.  The path is searched in a
    piece whose only boundary path has the sign, or which holds exactly
    two, of opposite signs.  Part 2: the side is all-positive after its
    switch, so the piece is one BFS path.  Part 3: the piece is the fan
    from the boundary to the side's ``neg_cycle``; the side plus a
    boundary edge is 2-connected, so it exists.
    """
    _, u, v, sign = marker
    ru, rv = split.sl.vref[u], split.sl.vref[v]
    discard = split.discard
    assert discard is not None
    vidx = discard.vert_index()
    ends = (vidx[ru], vidx[rv])
    if split.part == 2:
        ((piece, _),) = disjoint_paths(discard.g, ends[:1], ends[1:], 1)
    else:
        assert split.neg_cycle is not None
        piece = _fan(discard.g, ends, split.neg_cycle)
        assert piece is not None, "replaced side has no fan from its boundary"
    h = discard.sub(sorted(piece))
    hidx = h.vert_index()
    res = find_signed_path(h.g, hidx[ru], hidx[rv], sign)
    assert res.path is not None, "replaced side lacks a boundary path of the marker sign"
    return _refs(h, res.path.edges)


def _lift_part23(split: ReductionSplit, w: _Witness) -> _Witness:
    # both cycles may pass through one marker; search its path once
    paths: dict[str, frozenset[Ref]] = {}
    lifted = []
    for refs in w:
        for marker in split.children[0].markers:
            name = marker[0]
            if name in refs:
                if name not in paths:
                    paths[name] = _marker_path(split, marker)
                refs = (refs - {name}) | paths[name]
        lifted.append(refs)
    return lifted[0], lifted[1]


def _lift_part1(split: ReductionSplit, child_idx: int, w: _Witness) -> _Witness:
    sib_spec = split.children[1 - child_idx]
    sib = sib_spec.node
    c2, _ = find_common_cycle(sib.sl.g, sib.e1, sib.e2)
    assert c2 is not None, "2-connected sibling lacks a common cycle"
    ((sib_marker, *_),) = sib_spec.markers
    ((own_marker, *_),) = split.children[child_idx].markers
    path = _refs(sib.sl, c2.edges) - {sib_marker}
    return (w[0] - {own_marker}) | path, (w[1] - {own_marker}) | path


def _lift_up(ancestry: _Ancestry, w: _Witness) -> _Witness:
    """Lift a leaf's witness through the splits above it to the root."""
    for split, child_idx in reversed(ancestry):
        if split.part == 1:
            w = _lift_part1(split, child_idx, w)
        else:
            w = _lift_part23(split, w)
    return w


def _finalize_pair(root: Slice, witness: _Witness) -> tuple[Cycle, Cycle]:
    idx = root.edge_index()
    out = [Cycle.from_edge_set(root.g, (idx[r] for r in refs)) for refs in witness]
    s0 = sign_product(root.g, out[0].edges)
    s1 = sign_product(root.g, out[1].edges)
    assert {s0, s1} == {POSITIVE, NEGATIVE}, "lifted witnesses share a sign"
    if s0 == NEGATIVE:
        out.reverse()
    return out[0], out[1]


# --- the full pipeline ----------------------------------------------------


def decide_tied(g: SignedGraph, e1: EdgeId, e2: EdgeId) -> Verdict:
    """Decide whether two edges are tied, with a verifiable certificate.

    Tied verdicts carry a certificate tree plus one common cycle
    exhibiting the shared sign; untied verdicts carry a positive and a
    negative common cycle.  Every witness is built by two-path flow and
    fans in polynomial time, so no verdict ships without its evidence.
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
    tree = _block_tree(slim, p1, p2)
    if tree is None:
        return Verdict(
            kind=cert.KIND_VACUOUS,
            reason="the edges lie in different blocks; no cycle contains both",
            certificate=cert.blocks_node(list(removed)),
        )
    res = _evaluate(tree)
    if not isinstance(res, dict):
        leaf, ancestry = res
        w = _lift_up(ancestry, _leaf_untied_witness(leaf.sl, leaf.e1, leaf.e2))
        return Verdict(kind=cert.KIND_UNTIED, witness=_finalize_pair(Slice.identity(g), w))
    c, _ = find_common_cycle(g, e1, e2)
    # the pair shares a 2-connected block, so a common cycle exists
    assert c is not None, "no common cycle found despite a shared block"
    return Verdict(
        kind=cert.KIND_TIED,
        common_sign=sign_product(g, c.edges),
        witness=(c,),
        certificate=cert.preprocess_node(list(removed), list(tree.sl.eref), res),
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
