"""The decision procedure for tied edge pairs.

Pipeline: a mutually parallel pair is answered directly (its 2-cycle is
the only common cycle).  Otherwise the pair's block of the input is
found (different blocks means no common cycle at all) and cut out once,
without the edges parallel to either distinguished edge (no common
cycle can use them), and the block is reduced recursively: every proper
2-separation is split off, with the far side replaced by marker edges
across the boundary.  Each child is cut once too, without the edges and
markers parallel to its own pair.  A balanced far side
becomes one positive marker; an unbalanced one becomes a positive and a
negative marker in parallel; when the distinguished edges fall on
different sides, each side is asked whether its own edge is tied with
its marker.  Every split takes its two sides from connectivity's
``_sides``, the one side rule.  A part-1 split does not cut where the
linear 2-cut pass found a cut but at the median of all the 2-cuts that
separate the pair, read off the bridges of a common cycle; each child
keeps at most half of them, so a chain of part-1 splits nests about
log2 of its length deep.  Only a chain's first split runs the 2-cut
pass, the flow for that cycle and the sweep over its bridges: each
child inherits its side's arc of the cycle, closed by the child's
marker, and the cuts on its side, and splits at their median while any
is left.  When the chain starts at the root, its flow cycle also shows
a tied verdict's sign, so a tied part-1 chain runs one flow.
Leaves are 3-connected (or have at most SMALL_LEAF vertices) and are
answered by the three-case characterization, falling back to
exhaustive enumeration on the tiny non-3-connected ones.  A part-1
chain cuts a repetitive graph into many tiny leaves of one shape.
Whether such a leaf is 3-connected, and its common cycles, read only
its vertex count, the ends of its edges and its pair, never a sign; so
decide_tied works them out once per shape, in a dict keyed by (n, the
(u, v) of every edge in local id order, e1, e2) that lives for that
one call.  Each leaf still reads its cycles' signs off its own graph.

Evaluation settles the verdict and builds the certificate of a tied
one.  Its first untied leaf builds the witnesses of an untied verdict
instead, and each split lifts them on the way back up by
replacing marker edges with boundary-to-boundary paths of the marker's
sign through the replaced side, searched in the split's own slice with
the kept side's edges banned.  They travel as unordered sets of edge
references: a lift swaps a marker for a path's edges, and each cycle is
put back in cyclic order once, at the root.

No witness is found by exhaustive search, so decide takes no budget and
every verdict carries its evidence.  Common cycles (the one showing a
tied verdict's sign, the sibling's at a part-1 lift, the first cycle at
an untied leaf) are built by two-path flow.  At an untied leaf the
second cycle is the flow cycle with one segment of a half swapped for
an ear whose sign differs from the segment's: a chord, a path through a
balanced component, or a path through a fan.  One sweep (_bridges) lays
a common cycle out from e1 and lists its bridges, the chords and the
components off it; the part-1 cut table and the leaf's ear both read
it.  A path of a required sign is searched only on a fan: two disjoint
paths from two vertices to a negative cycle, which close exactly two
paths between those vertices, of opposite signs (Menger's fan lemma),
so the search is linear.  A part-3 marker path lies in the fan from the
boundary to the split's negative cycle.  A part-2 side is balanced, so
every boundary path through it is positive once the split's switch is
applied, and its marker path is one BFS path.  When no single ear
changes the sign of the flow cycle, the second cycle comes from
self-reduction, which deletes every edge whose loss keeps a common
cycle of the wanted sign, at one verdict per edge.

All certificate references use original edge ids and marker names; see
the certificate module for the document schema.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from . import certificate as cert
from .balance import find_signed_path, is_balanced
from .certificate import Verdict
from .connectivity import (
    _component_sides,
    _separation_pair,
    _sides,
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
    check_edges,
    delete_edges,
    parallel_class,
    sign_product,
)
from .errors import NotTwoConnected, PreconditionViolated
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
    removed: tuple[Ref, ...]  # parallel to the pair, left out of the child's one cut
    node: "ReductionTree"


@dataclass(frozen=True)
class ReductionSplit:
    """One 2-separation reduction step.

    part 1: the pair straddles the boundary; two children, each keeping
    one side plus a positive marker.  part 2: the far side is balanced
    and is replaced (after a whole-graph switch making it all-positive)
    by one positive marker.  part 3: the far side is unbalanced and is
    replaced by a positive and a negative marker.  ``kept`` comes from
    ``_reduce``; ``resign`` and ``neg_cycle`` are ``_split_part23``'s
    decision on the far side, both None in part 1.  ``cycle`` is the
    flow cycle whose bridges the first split of a part-1 chain swept for
    its cut table, None at every other split.  Every id is local to
    ``sl``: witnesses are lifted through the replaced side inside it.
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
    neg_cycle: Optional[Cycle] = None  # part 3: local, far-side edges only
    cycle: Optional[Cycle] = None  # a part-1 chain's first split: local


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
    check_edges(g, e1, e2)
    if not is_2_connected(g):
        raise NotTwoConnected("reduction needs a 2-connected graph")
    for eid in (e1, e2):
        if parallel_class(g, eid) != frozenset((eid,)):
            raise PreconditionViolated(
                f"edge {eid} has parallel companions; preprocess first"
            )
    return _reduce(Slice.identity(g), e1, e2, itertools.count())


def _reduce(
    sl: Slice,
    e1: int,
    e2: int,
    names: Iterator[int],
    inherited: Optional[tuple[Slice, _Cuts]] = None,
) -> ReductionTree:
    """Reduce a slice at a proper 2-separation, or stop at a leaf.

    A part-1 child reads its cut table off ``inherited``, its parent's
    slice and its part of the parent's table, and splits at the table's
    median straddling 2-cut while the table allows one; so a part-1
    chain runs the linear 2-cut pass once, at its first split.  Any
    other slice, and a child whose table is empty, cuts where the pass
    names a cut; when the pair straddles it (part 1), it builds the
    table and cuts at the median instead, from the bridges of its flow
    cycle, which it keeps on the split.

    A split plans its children as (side, head of the pair), all cut from
    one base slice with markers of the same signs: ``sl`` and one
    positive marker in part 1, ``_split_part23``'s choice in parts 2/3.
    Each child's marker names are drawn just before its recursion.
    """
    # sl is 2-connected: reduce checks its input, _block_tree passes a
    # block, and a side plus its markers, less the edges parallel to the
    # pair, stays 2-connected; so the 2-cut search skips that proof
    if sl.g.n <= SMALL_LEAF:
        return ReductionLeaf(sl, e1, e2)
    cuts = at = cycle = None
    if inherited is not None:
        cuts = _inherited(*inherited, sl, e1, e2)
        at = cuts.median()  # None when no 2-cut straddles the pair
    if at is None:
        pair = _separation_pair(sl.g)
        if pair is None:
            return ReductionLeaf(sl, e1, e2)
        sep = _unstraddled_sides(sl.g, pair, e1, e2)
        if sep is None:
            assert inherited is None, "an empty inherited table missed a straddling cut"
            cycle = find_common_cycle(sl.g, e1, e2)
            assert cycle is not None, "a 2-connected slice has a common cycle"
            cuts = _straddling_cuts(sl.g, cycle, e1, e2)
            at = cuts.median()
            assert at is not None, "the pair straddles no 2-cut"
    if at is not None:
        # part 1: the pair straddles a 2-cut, so cut at the median of all
        # the 2-cuts that do; no pair edge joins that boundary pair
        sep = _cut_at(sl.g, e1, cuts.p[at[0]], cuts.q[at[1]])
    s1, s2, (bu, bv) = sep
    sides = {1: s1, 2: s2}
    kept = None
    if (e1 in s1) != (e2 in s1):
        # each side keeps its own distinguished edge, paired with a
        # positive marker that stands in for the other side
        part, base, signs, resign, neg_cycle = 1, sl, (POSITIVE,), None, None
        head1, head2 = (e1, e2) if e1 in s1 else (e2, e1)
        plan = ((1, head1), (2, head2))
    else:
        kept = 1 if e1 in s1 else 2
        part, base, signs, resign, neg_cycle = _split_part23(sl, sides[3 - kept])
        plan = ((kept, e1),)
    children = []
    for snum, head in plan:
        markers = tuple((f"m{next(names)}", bu, bv, s) for s in signs)
        tail = markers[0][0] if part == 1 else sl.eref[e2]
        half = cuts.part(*at, far=head != e1) if at is not None else None
        children.append(
            _make_child(base, sides[snum], (sl.eref[head], tail), markers, names, half)
        )
    return ReductionSplit(
        sl, e1, e2, part, (bu, bv), sides[1], sides[2], tuple(children),
        kept, resign, neg_cycle, cycle,
    )


def _make_child(
    sl: Slice,
    side: tuple[int, ...],
    pair: tuple[Ref, Ref],
    markers: tuple[_Marker, ...],
    names: Iterator[int],
    cuts: Optional[_Cuts] = None,
) -> ChildSpec:
    """Cut one child slice out of ``sl`` and recurse.

    ``pair`` names the child's distinguished edges by reference: an
    original edge id or one of the new markers.  What the child leaves
    out is read from ``sl`` before its one cut: the edges of ``side``
    parallel to a pair edge, found in ``sl``'s adjacency, and the
    markers with a pair edge's ends, never the pair itself.  A part-1
    child is handed its part of the split's cut table, ``cuts``, in
    ``sl``'s ids.
    """
    idx = sl.edge_index
    heads = [idx[r] for r in pair if r in idx]
    ends = {sl.g.endpoints(i) for i in heads}
    ends.update(frozenset((u, v)) for name, u, v, _ in markers if name in pair)
    # the pair's parallel classes in sl, less the pair; some may lie on
    # the other side when the boundary pair are their ends
    par = {i for a, b in map(tuple, ends) for i, w in sl.g.adjacency[a] if w == b}
    par.difference_update(heads)
    gone = [i for i in side if i in par] if par else []
    lost = [m for m in markers if m[0] not in pair and frozenset(m[1:3]) in ends]
    keep = [i for i in side if i not in par] if gone else side
    sub = sl.sub(keep, [m for m in markers if m not in lost])
    cidx = sub.edge_index
    return ChildSpec(
        pair_refs=pair,
        markers=markers,
        removed=tuple(sl.eref[i] for i in gone) + tuple(m[0] for m in lost),
        node=_reduce(
            sub, cidx[pair[0]], cidx[pair[1]], names, None if cuts is None else (sl, cuts)
        ),
    )


def _split_part23(sl: Slice, far: tuple[int, ...]) -> tuple[
    int, Slice, tuple[Sign, ...], Optional[tuple[VertexId, ...]], Optional[Cycle]
]:
    """How the far side of a split, the one without the pair, is replaced.

    Returns ``(part, base, signs, resign, neg_cycle)``: the part, the
    slice the kept side is cut from, the signs of the markers that stand
    in for the far side, the part-2 switch set and the part-3 negative
    cycle, both in ``sl``'s ids.  Balance is tested on the far side's
    edges over all of ``sl``'s vertices, so its edge i is ``far[i]``.
    """
    bal = is_balanced(SignedGraph(sl.g.n, tuple(sl.g.edges[i] for i in far)))
    nc = bal.negative_cycle
    if nc is not None:
        # part 3: the far side holds a negative cycle, so a positive and a
        # negative marker stand in for it
        # far is sorted, so renaming its edges keeps the cycle canonical
        cycle = Cycle(tuple(far[i] for i in nc.edges), nc.vertices)
        return 3, sl, (POSITIVE, NEGATIVE), None, cycle
    # part 2: switch the whole graph so the far side is all-positive,
    # then stand it in with a single positive marker
    resign = tuple(sorted(bal.switch))
    return 2, sl.switched(resign), (POSITIVE,), resign, None


class _Cuts(NamedTuple):
    """The vertex pairs {p_i, q_j} that straddle a pair, by _straddling_cuts.

    ``p`` and ``q`` are the two halves of a common cycle, both numbered
    from e1, and ``pe[i]`` joins p_i to p_(i+1), ``qe[j]`` q_j to q_(j+1).
    (i, j) is allowed when lo[i] <= j <= hi[i] and j is open, that is
    below[j] < below[j + 1]: ``below[j]`` counts the open j under j.  A
    bridge that rules out i for every j empties its interval, hi[i] <
    lo[i], and one that rules out j for every i closes j.  (0, 0) and
    (s, t) are allowed too; they are the pair's own ends, not cuts, and
    come first and last in the order (i + j, i).  ``flip`` says that the
    cycle's canonical direction runs Q before P; median() reads it, and
    no table is rebuilt with the halves swapped.
    """

    p: tuple[VertexId, ...]
    q: tuple[VertexId, ...]
    pe: tuple[EdgeId, ...]
    qe: tuple[EdgeId, ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    below: tuple[int, ...]
    flip: bool = False

    def allowed(self, i: int, j: int) -> bool:
        return self.lo[i] <= j <= self.hi[i] and self.below[j] < self.below[j + 1]

    def upto(self, d: int) -> int:
        """How many allowed (i, j) have i + j <= d."""
        n = 0
        for i, (lo, hi) in enumerate(zip(self.lo[: d + 1], self.hi)):
            hi = min(hi, d - i)
            if hi >= lo:
                n += self.below[hi + 1] - self.below[lo]
        return n

    def median(self) -> Optional[tuple[int, int]]:
        """The median (i, j) of the cuts in the order (i + j, i), or
        (i + j, j) when ``flip`` is set.  On a diagonal i + j = d that
        order is (d, -i), and both orders count the same cuts per
        diagonal, so the flipped median is on the same diagonal with the
        same rank, read from the largest i.

        A child keeps only the cuts on its side of it, at most half of
        them, so part-1 splits nest about log2 of their number deep.
        Found by counting, not by listing the cuts: a bare cycle has
        Θ(s·t) of them.  O(s log |C|).  None when there is no cut.
        """
        s, t = len(self.p) - 1, len(self.q) - 1
        # (0, 0) comes first, so the median of the n cuts has rank r
        n = self.upto(s + t) - 2
        if n == 0:
            return None
        r = (n - 1) // 2 + 1
        d_lo, d_hi = 0, s + t
        while d_lo < d_hi:
            mid = (d_lo + d_hi) // 2
            if self.upto(mid) > r:
                d_hi = mid
            else:
                d_lo = mid + 1
        r -= self.upto(d_lo - 1)
        diagonal = range(max(0, d_lo - t), min(s, d_lo) + 1)
        on_diagonal = (
            i for i in (diagonal[::-1] if self.flip else diagonal) if self.allowed(i, d_lo - i)
        )
        i = next(itertools.islice(on_diagonal, r, None))
        return i, d_lo - i

    def part(self, i: int, j: int, far: bool) -> "_Cuts":
        """The table of one child of the cut {p_i, q_j}, in this table's ids.

        The child's cycle is its side's arc of this one, closed by the
        child's marker p_i q_j.  The near child, e1's, keeps the indices up
        to i and j; the far child, e2's, keeps those from i and j, reversed
        so that they run from e2, which turns hi into its lo, lo into its
        hi, and the count of open indices of Q under each index into the
        count over it.  A bridge lies on one side of the cut and attaches
        only at that side's indices (up to i and j near, from i and j far),
        so the other side's bridges rule out none of the child's cuts; at
        most they leave a bound beyond the child's last index, which is
        clipped to it.  An empty interval stays empty: near,
        min(hi, j) <= hi < lo; far, t - max(lo, j) <= t - lo < t - hi.
        """
        if not far:
            return _Cuts(
                self.p[: i + 1], self.q[: j + 1], self.pe[:i], self.qe[:j],
                self.lo[: i + 1], tuple(min(h, j) for h in self.hi[: i + 1]),
                self.below[: j + 2],
            )
        t = len(self.q) - 1
        return _Cuts(
            self.p[i:][::-1], self.q[j:][::-1], self.pe[i:][::-1], self.qe[j:][::-1],
            tuple(t - h for h in self.hi[i:][::-1]),
            tuple(t - max(lo, j) for lo in self.lo[i:][::-1]),
            tuple(self.below[-1] - b for b in self.below[j:][::-1]),
        )


def _inherited(parent: Slice, half: _Cuts, sl: Slice, e1: int, e2: int) -> _Cuts:
    """The straddling-cut table of a part-1 child ``sl`` with the pair
    (e1, e2), from ``half``, its part of the split's table in the ids of
    the split's slice ``parent`` (_Cuts.part).

    ``sl`` keeps every edge of the cycle, as none joins the ends of a
    pair edge.  The halves keep the parent's layout, and ``flip`` is set
    when _bridges would lay the canonical Cycle of the cycle out with
    the halves swapped, so that median() reads its diagonal from the
    other end; no table is rebuilt.  Walked P, e2, Q backwards, e1, the
    canonical order starts at the smallest edge id and goes on toward
    its smaller neighbour, so P is _bridges' P exactly when that is this
    walk's direction.  The cycle has at least three edges, as a cut is
    neither end pair.
    """
    v, e = sl.vert_index, sl.edge_index
    cuts = half._replace(
        p=tuple(v[parent.vref[x]] for x in half.p),
        q=tuple(v[parent.vref[x]] for x in half.q),
        pe=tuple(e[parent.eref[x]] for x in half.pe),
        qe=tuple(e[parent.eref[x]] for x in half.qe),
    )
    walk = (*cuts.pe, e2, *cuts.qe[::-1], e1)
    k = walk.index(min(walk))
    return cuts._replace(flip=walk[k + 1 - len(walk)] > walk[k - 1])


class _Bridges(NamedTuple):
    """A common cycle C laid out from e1, and its bridges, by _bridges.

    ``p``, ``q``, ``pe`` and ``qe`` are C's halves as _Cuts holds them;
    ``at`` maps each vertex of C to (its half, 0 or 1, its index).
    ``chords`` are the edges off C with both ends on it, as (edge, end,
    end) in id order.  ``comps`` holds each component K of G - V(C), in
    components() order, as its inner edges and its attachment edges
    (edge, end in K, end on C), read vertex by vertex off K's adjacency.
    """

    p: tuple[VertexId, ...]
    q: tuple[VertexId, ...]
    pe: tuple[EdgeId, ...]
    qe: tuple[EdgeId, ...]
    at: dict[VertexId, tuple[int, int]]
    chords: list[tuple[EdgeId, VertexId, VertexId]]
    comps: list[tuple[list[EdgeId], list[tuple[EdgeId, VertexId, VertexId]]]]


def _bridges(g: SignedGraph, c: Cycle, e1: int, e2: int) -> _Bridges:
    """The layout of the common cycle c from e1 and its bridges: the
    cut table (_straddling_cuts) and the untied leaf's ear (_ear) both
    read this one sweep.  O(m)."""
    # c from e1's end on: P, e2, Q backwards, e1
    r = c.edges.index(e1) + 1
    vs, es = c.vertices[r:] + c.vertices[:r], c.edges[r:] + c.edges[:r]
    k = es.index(e2)
    p, q = vs[: k + 1], vs[k + 1 :][::-1]
    at = {v: (0, i) for i, v in enumerate(p)} | {v: (1, j) for j, v in enumerate(q)}
    in_c = frozenset(c.edges)
    chords = [
        (eid, e.u, e.v)
        for eid, e in enumerate(g.edges)
        if e.u in at and e.v in at and eid not in in_c
    ]
    comps = []
    for comp in components(g, frozenset(at)):
        inner, attach = [], []
        for v in comp:
            for eid, w in g.adjacency[v]:
                if w in at:
                    attach.append((eid, v, w))
                elif v < w:
                    inner.append(eid)
        comps.append((inner, attach))
    return _Bridges(p, q, es[:k], es[k + 1 : -1][::-1], at, chords, comps)


def _straddling_cuts(g: SignedGraph, c: Cycle, e1: int, e2: int) -> _Cuts:
    """Every 2-cut that separates e1 from e2, by one sweep of the bridges
    of the common cycle c.

    Let C be any common cycle, P = p0..ps its half from e1's end to e2's
    and Q = q0..qt the other, both numbered from e1.  The first split of
    a part-1 chain passes its flow cycle; a part-1 child inherits its
    side's arc of its parent's C and the table cut down to it instead
    (_Cuts.part).  Such a cut takes one vertex of each half (Menger), so
    it is some {p_i, q_j}.  C less it falls into the arc A of the p_x,
    x < i, and q_y, y < j, and the arc B of the rest; the cut separates
    the pair exactly when A and B are both nonempty and no bridge of C (a
    chord, or a component of G - V(C) with its attachment edges) is
    attached in both.  So a bridge attached to P from a to b rules out
    every i strictly between, for every j; likewise on Q.  One attached
    to both halves rules out the j below its largest Q attachment when i
    is above its smallest P one, and the j above its smallest when i is
    below its largest.  For each i the allowed j thus lie in an interval,
    from a prefix maximum and a suffix minimum over i.  An i ruled out
    for every j gets the empty interval from t + 1, and a j ruled out for
    every i is left out of the count ``below``.  O(m).
    """
    p, q, pe, qe, at, chords, comps = _bridges(g, c, e1, e2)
    s, t = len(p) - 1, len(q) - 1
    # dead[h]: difference array of the indices of half h ruled out for
    # every index of the other; j < lo[i] and j > hi[i] are ruled out
    dead = ([0] * (s + 1), [0] * (t + 1))
    lo, hi = [0] * (s + 1), [t] * (s + 1)
    ends = [(u, v) for _, u, v in chords] + [[x for _, _, x in att] for _, att in comps]
    for bridge in ends:
        # the bridge's attachment indices on P and on Q
        att: tuple[list[int], list[int]] = ([], [])
        for x in bridge:
            h, i = at[x]
            att[h].append(i)
        for h in (0, 1):
            if att[h]:
                a, b = min(att[h]), max(att[h])
                if b > a + 1:
                    dead[h][a + 1] += 1
                    dead[h][b] -= 1
        if att[0] and att[1]:
            a, b = min(att[0]), max(att[0])
            if a < s:
                lo[a + 1] = max(lo[a + 1], max(att[1]))
            if b > 0:
                hi[b - 1] = min(hi[b - 1], min(att[1]))
    dead_p, dead_q = (itertools.accumulate(dh) for dh in dead)
    return _Cuts(
        p, q, pe, qe,
        tuple(t + 1 if d else x for d, x in zip(dead_p, itertools.accumulate(lo, max))),
        tuple(itertools.accumulate(reversed(hi), min))[::-1],
        (0, *itertools.accumulate(int(d == 0) for d in dead_q)),
    )


def _unstraddled_sides(
    g: SignedGraph, pair: tuple[VertexId, VertexId], e1: int, e2: int
) -> Optional[tuple[tuple[int, ...], ...]]:
    """The two sides of the 2-cut ``pair``, ``_sides`` of its component
    side with fewest edges, and ``pair``; or None when the pair
    straddles them.  A pair edge joining the boundary pair may sit on
    either side, so it joins its partner's.
    """
    # that component side is the smaller side, so it is s1, and an edge
    # joining the boundary pair is in s2
    s1, s2 = _sides(g, min(_component_sides(g, pair), key=len))
    bset = frozenset(pair)
    for own, other in ((e1, e2), (e2, e1)):
        if g.endpoints(own) == bset and other in s1:
            s1 = tuple(sorted(s1 + (own,)))
            s2 = tuple(i for i in s2 if i != own)
    return None if (e1 in s1) != (e2 in s1) else (s1, s2, pair)


def _cut_at(g: SignedGraph, e1: int, a: VertexId, b: VertexId) -> tuple[tuple[int, ...], ...]:
    """The sides of the straddling 2-cut {a, b}, ``_sides`` of e1's
    component side, and its boundary pair, the smaller vertex first."""
    # a cut is not e1's ends, so e1 has an end outside it and lies on one side
    near = next(side for side in _component_sides(g, (a, b)) if e1 in side)
    return (*_sides(g, near), (min(a, b), max(a, b)))


# --- leaf checks ----------------------------------------------------------


def check_leaf(g: SignedGraph, e1: EdgeId, e2: EdgeId) -> LeafVerdict:
    """Decide a 3-connected instance by the three-case characterization.

    Tied exactly when one of the cases holds: (1) some parallel class F
    with both signs makes F plus the pair an exact edge cut whose
    removal leaves a balanced graph; (2) the pair shares a vertex whose
    deletion leaves a balanced graph; (3) deleting the pair leaves a
    balanced graph.
    """
    check_edges(g, e1, e2)
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
    """Case 1, tried only on a lone mixed class: a parallel class F with
    both signs such that F plus the pair is an exact edge cut and
    G - F - pair is balanced.  G - F - pair keeps every other class, and
    two parallel edges of opposite signs close a negative 2-cycle, so it
    is unbalanced whenever a second mixed class exists.  The pair has no
    parallel companion, so its classes never count.  One O(m) test."""
    g = sl.g
    classes: dict[tuple[int, int], list[int]] = {}
    for eid, (u, v, _) in enumerate(g.edges):
        classes.setdefault((u, v) if u < v else (v, u), []).append(eid)
    mixed = [
        f for f in classes.values() if len(f) > 1 and len({g.edges[i].sign for i in f}) == 2
    ]
    if len(mixed) != 1:
        return None
    (f,) = mixed
    # the leaf is 3-connected, so its simple graph is 3-edge-connected
    # and losing F and the pair (three simple edges) leaves at most two
    # components; the cut is exact iff there are two and all three cross
    fplus = frozenset(f) | {e1, e2}
    rest, _ = delete_edges(g, fplus)
    comps = components(rest)
    if len(comps) != 2 or any(len(g.endpoints(i) & comps[1]) != 1 for i in fplus):
        return None
    bal = is_balanced(rest)
    if not bal.balanced:
        return None
    return cert.case1_node(
        [sl.eref[i] for i in f],
        [sl.vref[v] for v in comps[1]],
        [sl.vref[v] for v in bal.switch],
    )


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

# a small leaf's unsigned shape (n, the ends of each edge, e1, e2) ->
# None when it is 3-connected, else its common cycles and whether their
# enumeration completed; one dict per decide_tied call
_Shapes = dict[tuple, Optional[tuple[tuple[Cycle, ...], bool]]]


def _refs(sl: Slice, ids: Iterable[EdgeId]) -> frozenset[Ref]:
    return frozenset(sl.eref[i] for i in ids)


def _block_tree(
    g: SignedGraph, e1: int, e2: int
) -> tuple[frozenset[EdgeId], Optional[ReductionTree]]:
    """The edges parallel to the pair, and the reduction tree of the
    pair's block cut out once without them; None for different blocks.
    Every common cycle lies in that block and uses none of those edges
    (see the verifier's preprocess root)."""
    removed = (parallel_class(g, e1) | parallel_class(g, e2)) - {e1, e2}
    b = blocks(g).block_of(e1)
    if e2 not in b:
        return removed, None
    blk = Slice.identity(g).sub(sorted(b - removed))
    idx = blk.edge_index
    return removed, _reduce(blk, idx[e1], idx[e2], itertools.count())


def _evaluate(tree: ReductionTree, shapes: _Shapes) -> Union[dict, _Witness]:
    """The certificate node of a tied subtree, or the witness of an untied one.

    Children are evaluated in order; the first untied one decides the
    split.  The first untied leaf builds its witness, and each split
    lifts the witness its child returned on the way back up.
    """
    if isinstance(tree, ReductionLeaf):
        node = _evaluate_leaf(tree, shapes)
        return _leaf_untied_witness(tree.sl, tree.e1, tree.e2, shapes) if node is None else node
    nodes = []
    for i, spec in enumerate(tree.children):
        res = _evaluate(spec.node, shapes)
        if not isinstance(res, dict):
            return _lift_part1(tree, i, res) if tree.part == 1 else _lift_part23(tree, res)
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
    nc = tree.neg_cycle
    nc_doc = None
    if nc is not None:
        nc_doc = cert.cycle_doc([sl.eref[i] for i in nc.edges], [sl.vref[x] for x in nc.vertices])
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


def _evaluate_leaf(leaf: ReductionLeaf, shapes: _Shapes) -> Optional[dict]:
    """The certificate node of a tied leaf; None when it is untied.

    A small leaf's 3-connectivity and common cycles read no sign, so
    they are worked out once per shape in ``shapes``; the cycles' signs
    are read off this leaf's own graph.
    """
    sl, e1, e2 = leaf.sl, leaf.e1, leaf.e2
    g = sl.g
    # _reduce stops above SMALL_LEAF only where no 2-cut exists
    if g.n > SMALL_LEAF:
        return _check_cases(sl, e1, e2).node
    key = (g.n, tuple(e[:2] for e in g.edges), e1, e2)
    if key not in shapes:
        if is_3_connected(g):
            shapes[key] = None
        else:
            rep = enumerate_common_cycles(g, e1, e2)
            shapes[key] = rep.cycles, rep.complete
    known = shapes[key]
    if known is None:
        return _check_cases(sl, e1, e2).node
    cycles, complete = known
    if not complete:
        raise PreconditionViolated("leaf enumeration exceeded its budget")
    assert cycles, "a 2-connected leaf always has a common cycle"
    signs = {sign_product(g, c.edges) for c in cycles}
    if len(signs) == 2:
        return None
    docs = [
        cert.cycle_doc([sl.eref[i] for i in c.edges], [sl.vref[x] for x in c.vertices])
        for c in cycles
    ]
    return cert.enum_node(docs, signs.pop())


def _common_signs(g: SignedGraph, e1: int, e2: int, shapes: _Shapes) -> frozenset[Sign]:
    """The signs of the pair's common cycles, read off its verdict.

    It is untied when a leaf is: leaves are tested in order up to the
    first untied one, building no certificate node and no witness.  A
    tied verdict takes its sign from the flow cycle, the root split's
    when the root splits part 1.
    """
    _, tree = _block_tree(g, e1, e2)
    if tree is None:
        return frozenset()
    stack = [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, ReductionSplit):
            stack.extend(spec.node for spec in reversed(t.children))
        elif _evaluate_leaf(t, shapes) is None:
            return frozenset((POSITIVE, NEGATIVE))
    if isinstance(tree, ReductionSplit) and tree.cycle is not None:
        return frozenset((sign_product(tree.sl.g, tree.cycle.edges),))
    c = find_common_cycle(g, e1, e2)
    assert c is not None, "no common cycle found despite a shared block"
    return frozenset((sign_product(g, c.edges),))


def _fan(
    g: SignedGraph,
    sources: Sequence[VertexId],
    cycle: Cycle,
    banned: frozenset[VertexId] = frozenset(),
    banned_edges: frozenset[EdgeId] = frozenset(),
) -> Optional[tuple[frozenset[EdgeId], tuple[VertexId, VertexId]]]:
    """A negative cycle plus two disjoint paths to it from two sources.

    The two paths end at distinct vertices of the cycle, which close
    exactly two paths between their starts, one along each arc; the
    cycle is negative, so these have opposite signs (the fan form of
    Menger's theorem).  Returns the edges outside the fan, for a signed
    search to ban, and the two sources its paths start from; None when
    no two such paths exist.
    """
    paths = disjoint_paths(
        g, sources, cycle.vertices, 2, banned_vertices=banned, banned_edges=banned_edges
    )
    if len(paths) < 2:
        return None
    (p, (x, *_)), (q, (y, *_)) = paths
    return frozenset(range(g.m)).difference(cycle.edges, p, q), (x, y)


def _ear(g: SignedGraph, e1: int, e2: int, c: Cycle) -> Optional[frozenset[EdgeId]]:
    """A common cycle of the other sign than c: c with one segment swapped for an ear.

    c minus the pair falls into two halves.  A path outside c whose ends
    x != y lie on one half can replace that half's x..y segment, and the
    new common cycle has the other sign when the path's sign differs from
    the segment's.  Such a path runs along a chord of c, or through a
    component K of G - V(c), entering and leaving by attachment edges.  If
    K is balanced with potential t, a path entering by edge a at vertex
    p of K has sign sign(a)·t(p)·sign(b)·t(q) when it leaves by edge b at
    q, whatever route it takes inside K.  If K is unbalanced, the fan from
    two attachment vertices on one half to a negative cycle of K holds x..y
    paths of both signs.  Signs along a half are measured from e1, so
    the segment from x to y has sign place[x]·place[y].  The segment is
    read off the indices of x and y, so the swap costs O(|c| + |ear|).
    None when no chord or component gives an ear.
    """
    p, q, pe, qe, at, chords, comps = _bridges(g, c, e1, e2)
    # each vertex of c: (its half, the sign of its half from e1 up to it)
    place: dict[VertexId, tuple[int, Sign]] = {}
    for h, (vs, es) in enumerate(((p, pe), (q, qe))):
        signs = itertools.accumulate((g.edges[i].sign for i in es), operator.mul, initial=POSITIVE)
        place.update((v, (h, s)) for v, s in zip(vs, signs))
    on_c = frozenset(at)
    by_chord = (
        (u, v, (eid,))
        for eid, u, v in chords
        if place[u][0] == place[v][0] and g.edges[eid].sign != place[u][1] * place[v][1]
    )
    through = (_component_ear(g, inner, attach, place, on_c) for inner, attach in comps)
    ear = next(itertools.chain(by_chord, filter(None, through)), None)
    if ear is None:
        return None
    x, y, path = ear
    (h, i), (_, j) = sorted((at[x], at[y]))
    return frozenset(c.edges).difference((pe, qe)[h][i:j]).union(path)


def _component_ear(
    g: SignedGraph,
    inner: list[EdgeId],
    attach: list[tuple[EdgeId, VertexId, VertexId]],
    place: dict[VertexId, tuple[int, Sign]],
    on_c: frozenset[VertexId],
) -> Optional[tuple[VertexId, VertexId, tuple[EdgeId, ...]]]:
    """An ear of _ear's kind through one component K of G - V(c), as its
    ends x, y on c and its edges, or None.  ``inner`` and ``attach`` are
    K's inner and attachment edges as _bridges lists them; K's balance
    is tested over all of g's vertices, so its edge i is ``inner[i]``."""
    inner = sorted(inner)
    bal = is_balanced(SignedGraph(g.n, tuple(g.edges[i] for i in inner)))
    nc = bal.negative_cycle
    if nc is not None:
        # inner is sorted, so renaming its edges keeps the cycle canonical
        d = Cycle(tuple(inner[i] for i in nc.edges), nc.vertices)
        by_half: dict[int, set[VertexId]] = {}
        for _, _, x in attach:
            by_half.setdefault(place[x][0], set()).add(x)
        for xs in by_half.values():
            if len(xs) > 1:
                fan = _fan(g, sorted(xs), d, on_c - xs)
                if fan is not None:
                    outside, (x, y) = fan
                    # the fan's x..y path whose sign differs from the segment's
                    want = -place[x][1] * place[y][1]
                    res = find_signed_path(g, x, y, want, banned_edges=outside)
                    assert res.path is not None, "a fan lacks a path of each sign"
                    return x, y, res.path.edges
        return None
    # (half, sign an ear would carry from the half's start) ->
    # attachment vertex -> (attachment edge, its end in K)
    ends: dict[tuple[int, Sign], dict[VertexId, tuple[EdgeId, VertexId]]] = {}
    for eid, v, x in attach:
        hx, sx = place[x]
        ends.setdefault((hx, g.sign(eid) * bal.signing[v] * sx), {}).setdefault(x, (eid, v))
    for (hx, val), xs in ends.items():
        for x, (a, p) in xs.items():
            for y, (b, q) in ends.get((hx, -val), {}).items():
                if x != y:
                    ((inside, _),) = disjoint_paths(g, (p,), (q,), 1, banned_vertices=on_c)
                    return x, y, (a, b, *inside)
    return None


def _self_reduce(sl: Slice, e1: int, e2: int, sign: Sign, shapes: _Shapes) -> frozenset[Ref]:
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
        idx = sub.edge_index
        if sign in _common_signs(sub.g, idx[e1], idx[e2], shapes):
            keep = trial
    return _refs(sl, keep)


def _leaf_untied_witness(sl: Slice, e1: int, e2: int, shapes: _Shapes) -> _Witness:
    """An opposite-sign pair of common cycles of an untied leaf.

    The first is the flow cycle C.  The second is C with one segment
    swapped for an ear, or found by self-reduction when no single ear
    changes the sign.
    """
    c = find_common_cycle(sl.g, e1, e2)
    assert c is not None, "a 2-connected leaf always has a common cycle"
    d = _ear(sl.g, e1, e2, c)
    if d is None:
        return _refs(sl, c.edges), _self_reduce(sl, e1, e2, -sign_product(sl.g, c.edges), shapes)
    return _refs(sl, c.edges), _refs(sl, d)


def _marker_path(split: ReductionSplit, marker: _Marker) -> frozenset[Ref]:
    """A boundary path of the marker's sign through the replaced side.

    ``marker`` is one of the kept child's ``(name, u, v, sign)`` tuples,
    its ends in the split slice's local ids.  The path is searched in
    ``split.sl`` with the kept side's edges banned.  Part 2: the side is
    balanced, so every boundary path through it is positive once the
    split's switch is applied, and one BFS path is the answer.  Part 3:
    the path is picked from the fan from the boundary to the side's
    ``neg_cycle``, which holds exactly two boundary paths, of opposite
    signs; the side plus a boundary edge is 2-connected, so it exists.
    """
    _, u, v, sign = marker
    sl = split.sl
    kept = frozenset(split.side1 if split.kept == 1 else split.side2)
    if split.part == 2:
        ((path, _),) = disjoint_paths(sl.g, (u,), (v,), 1, banned_edges=kept)
        return _refs(sl, path)
    assert split.neg_cycle is not None
    fan = _fan(sl.g, (u, v), split.neg_cycle, banned_edges=kept)
    assert fan is not None, "replaced side has no fan from its boundary"
    outside, _ = fan
    res = find_signed_path(sl.g, u, v, sign, banned_edges=outside)
    assert res.path is not None, "replaced side lacks a boundary path of the marker sign"
    return _refs(sl, res.path.edges)


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
    c2 = find_common_cycle(sib.sl.g, sib.e1, sib.e2)
    assert c2 is not None, "2-connected sibling lacks a common cycle"
    ((sib_marker, *_),) = sib_spec.markers
    ((own_marker, *_),) = split.children[child_idx].markers
    path = _refs(sib.sl, c2.edges) - {sib_marker}
    return (w[0] - {own_marker}) | path, (w[1] - {own_marker}) | path


def _finalize_pair(g: SignedGraph, witness: _Witness) -> tuple[Cycle, Cycle]:
    # lifted to the root, every reference is an input edge id
    out = [Cycle.from_edge_set(g, refs) for refs in witness]
    s0 = sign_product(g, out[0].edges)
    s1 = sign_product(g, out[1].edges)
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
    check_edges(g, e1, e2)
    if g.endpoints(e1) == g.endpoints(e2):
        two = Cycle.from_edges(g, (e1, e2))
        s = g.sign(e1) * g.sign(e2)
        return Verdict(
            kind=cert.KIND_TIED,
            common_sign=s,
            witness=(two,),
            certificate=cert.parallel_pair_node(s),
        )
    removed, tree = _block_tree(g, e1, e2)
    if tree is None:
        return Verdict(
            kind=cert.KIND_VACUOUS,
            reason="the edges lie in different blocks; no cycle contains both",
            certificate=cert.blocks_node(list(removed)),
        )
    res = _evaluate(tree, {})
    if not isinstance(res, dict):
        return Verdict(kind=cert.KIND_UNTIED, witness=_finalize_pair(g, res))
    blk = tree.sl
    if isinstance(tree, ReductionSplit) and tree.cycle is not None:
        # the root split part 1: its flow cycle shows the sign too
        c = Cycle.unchecked(
            [blk.eref[i] for i in tree.cycle.edges], [blk.vref[v] for v in tree.cycle.vertices]
        )
    else:
        c = find_common_cycle(g, e1, e2)
        # the pair shares a 2-connected block, so a common cycle exists
        assert c is not None, "no common cycle found despite a shared block"
    return Verdict(
        kind=cert.KIND_TIED,
        common_sign=sign_product(g, c.edges),
        witness=(c,),
        certificate=cert.preprocess_node(list(removed), list(blk.eref), res),
    )


# --- three edges on one cycle ---------------------------------------------


def lovasz_three_edges(
    g: SignedGraph, e1: EdgeId, e2: EdgeId, e3: EdgeId
) -> LovaszResult:
    """Is there a cycle through three distinct edges of a simple 3-connected graph?

    No cycle exists iff the edges share a vertex (reported first) or
    their removal disconnects the graph.
    """
    check_edges(g, e1, e2, e3)
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
