"""Shared test utilities: an independent cycle oracle and small builders.

The oracle here is deliberately naive and shares no code path with the
library's traversal machinery.  A simple cycle is recognized as an edge
subset whose vertex degrees are all exactly 2 and whose edges hang
together in one piece; everything cycle-shaped in the package gets
checked against that definition.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from sgties import SignedGraph, blocks

SUBSET_LIMIT = 16  # 2^16 subsets is the most the brute force should chew


def is_cycle_set(g: SignedGraph, ids) -> bool:
    """Edge subset test: 2-regular on its vertices and connected."""
    ids = tuple(ids)
    if len(ids) < 2:
        return False
    deg: Counter = Counter()
    adj: dict[int, list[int]] = {}
    for eid in ids:
        u, v = sorted(g.endpoints(eid))
        deg[u] += 1
        deg[v] += 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(d != 2 for d in deg.values()):
        return False
    start = next(iter(deg))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(deg)


def subset_cycles(g: SignedGraph) -> list[frozenset]:
    """Every simple-cycle edge set of g, by brute force over subsets."""
    assert g.m <= SUBSET_LIMIT, "graph too large for the subset oracle"
    out = []
    for r in range(2, g.m + 1):
        for combo in itertools.combinations(range(g.m), r):
            if is_cycle_set(g, combo):
                out.append(frozenset(combo))
    return out


def set_sign(g: SignedGraph, ids) -> int:
    s = 1
    for eid in ids:
        s *= g.sign(eid)
    return s


def common_cycle_sets(g: SignedGraph, e1: int, e2: int) -> list[frozenset]:
    return [s for s in subset_cycles(g) if e1 in s and e2 in s]


def subset_kind(g: SignedGraph, e1: int, e2: int) -> tuple[str, int | None]:
    """(verdict kind, common sign or None) straight from the subset oracle."""
    sets = common_cycle_sets(g, e1, e2)
    if not sets:
        return "tied_vacuous", None
    signs = {set_sign(g, s) for s in sets}
    if len(signs) == 2:
        return "untied", None
    return "tied", signs.pop()


# --- small fixed graphs ----------------------------------------------------


def triangle(s0=1, s1=1, s2=1) -> SignedGraph:
    return SignedGraph.build(3, [(0, 1, s0), (1, 2, s1), (2, 0, s2)])


def cycle_graph(n: int, signs=None) -> SignedGraph:
    signs = signs or [1] * n
    return SignedGraph.build(
        n, [(i, (i + 1) % n, signs[i]) for i in range(n)]
    )


K4_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def k4(signs=None) -> SignedGraph:
    signs = signs or [1] * 6
    return SignedGraph.build(4, [(u, v, s) for (u, v), s in zip(K4_PAIRS, signs)])


def wheel(k: int, spoke_signs=None, rim_signs=None) -> SignedGraph:
    """Hub 0, rim 1..k; spokes get ids 0..k-1, rim edges k..2k-1."""
    spoke_signs = spoke_signs or [1] * k
    rim_signs = rim_signs or [1] * k
    items = [(0, i + 1, spoke_signs[i]) for i in range(k)]
    items += [(i, i % k + 1, rim_signs[i - 1]) for i in range(1, k + 1)]
    return SignedGraph.build(k + 1, items)


def theta(signs=(1, 1, 1, 1, 1)) -> SignedGraph:
    """Two branch vertices 0,1 joined by a direct edge and two 2-paths."""
    return SignedGraph.build(
        4,
        [
            (0, 1, signs[0]),
            (0, 2, signs[1]),
            (2, 1, signs[2]),
            (0, 3, signs[3]),
            (3, 1, signs[4]),
        ],
    )


def prism(signs=None) -> SignedGraph:
    """Triangles 0-1-2 and 3-4-5, matching edges (i, i+3) with ids 6..8."""
    signs = signs or [1] * 9
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    return SignedGraph.build(6, [(u, v, s) for (u, v), s in zip(pairs, signs)])


def two_triangles_shared_vertex() -> SignedGraph:
    # Two blocks meeting at the cut vertex 2.
    return SignedGraph.build(
        5,
        [(0, 1, 1), (1, 2, 1), (2, 0, 1), (2, 3, 1), (3, 4, -1), (4, 2, 1)],
    )


def two_k4_on_boundary(signs=None) -> SignedGraph:
    """Two K4-minus-an-edge pieces sharing the missing edge's ends {0, 1}.

    Edge ids 0..4 form the left piece (on 0,1,2,3), 5..9 the right
    (on 0,1,4,5).  The pair (4, 9) = ((2,3), (4,5)) straddles the only
    proper 2-separation, so reduce() must open with a part-1 split.
    """
    pairs = [
        (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (0, 4), (0, 5), (1, 4), (1, 5), (4, 5),
    ]
    signs = signs or [1] * 10
    return SignedGraph.build(6, [(u, v, s) for (u, v), s in zip(pairs, signs)])


def prism_doubled_rung() -> SignedGraph:
    """Prism with the 0-3 rung doubled in both signs: a case-1 leaf.

    The parallel class {6, 7} carries both signs, the remaining matching
    edges (1,4) and (2,5) are the distinguished pair (ids 8, 9).
    """
    pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    items = [(u, v, 1) for u, v in pairs]
    items += [(0, 3, 1), (0, 3, -1), (1, 4, 1), (2, 5, 1)]
    return SignedGraph.build(6, items)


def forged_marker_graph() -> SignedGraph:
    """A K4 on {0, 1, 2, 3} and an unbalanced side on {0, 1, 4, 5} that
    share the boundary {0, 1}; the pair (0, 2) is untied."""
    return SignedGraph.build(6, [
        (0, 2, 1), (2, 3, 1), (3, 1, 1), (0, 3, 1), (1, 2, 1),
        (0, 4, 1), (4, 1, 1), (0, 5, 1), (5, 1, -1),
    ])


def forged_marker_document(name) -> dict:
    """A tied document for forged_marker_graph's pair (0, 2), without
    witness or sign.  Its part-3 split keeps the K4 and replaces the
    other side by a positive marker named ``name`` and a negative one,
    which the child drops as parallel to its pair."""
    side1 = [5, 6, 7, 8]
    child = {
        "pair": [0, 2],
        "markers": [
            {"name": name, "u": 0, "v": 1, "sign": 1},
            {"name": "m1", "u": 0, "v": 1, "sign": -1},
        ],
        "removed": ["m1"],
        "node": {"kind": "case3", "switch": []},
    }
    split = {
        "kind": "split", "part": 3, "boundary": [0, 1],
        "side1": side1, "side2": [0, 1, 2, 3, 4], "kept": 2, "switch": None,
        "neg_cycle": {"edges": side1, "vertices": [0, 1, 4, 5]},
        "children": [child],
    }
    return {
        "format": "sg-tied/1", "kind": "tied", "e1": 0, "e2": 2,
        "common_sign": None, "witness": [],
        "certificate": {
            "kind": "preprocess", "removed": [], "block": list(range(9)), "inner": split,
        },
    }


def random_2_connected(rng: random.Random, n: int, extra: int) -> SignedGraph:
    """Ring 0..n-1 plus `extra` random chords/parallels, random signs.

    A cycle through every vertex keeps the result 2-connected no matter
    what gets added.
    """
    items = [(i, (i + 1) % n, rng.choice((1, -1))) for i in range(n)]
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        items.append((u, v, rng.choice((1, -1))))
    return SignedGraph.build(n, items)


def first_cut_pair_by_scan(g: SignedGraph):
    """Lexicographically smallest 2-cut (u < v) of a 2-connected graph, or
    None: the first cut vertex of G-u over every u in turn, O(n(n+m)).

    The oracle for ``connectivity._separation_pair`` and
    ``is_3_connected``: the pass finds a 2-cut exactly when the scan
    does, and never one below the scan's.  The first u whose G-u has a
    cut vertex has only cut vertices above it: a cut vertex w < u of G-u
    would make u a cut vertex of G-w, and the scan would have stopped at
    w.
    """
    for u in range(g.n):
        cuts = blocks(g, frozenset((u,))).cut_vertices
        if cuts:
            return u, min(cuts)
    return None


def count_adjacency_reads(g: SignedGraph) -> Counter:
    """Make g count the adjacency entries its searches iterate over.

    Puts per-vertex tuples into g's cached adjacency that add one to the
    returned counter's ``"reads"`` for each entry iterated, so a test can
    bound a search's work without a budget.  Indexing is not counted.
    """
    reads = Counter()

    class Counted(tuple):
        def __iter__(self):
            for entry in tuple.__iter__(self):
                reads["reads"] += 1
                yield entry

    g.__dict__["adjacency"] = tuple(Counted(adj) for adj in g.adjacency)
    return reads
