"""Instance generators: random graphs, exhaustive streams, composed tied pairs.

The composed generator runs the 2-separation reduction backwards.  Each
recipe leaf is a 3-connected instance that is tied by one of the three
characterization cases; splice steps then graft new material onto it in
ways the reduction provably undoes: a positive edge may be replaced by
a balanced all-positive side (the balanced-side step), an opposite-sign
parallel pair by an unbalanced side (the unbalanced-side step), and two
tied instances may be joined by deleting one distinguished edge of each
and gluing at the freed endpoints (the straddling step).  Every output
is tied by construction, which the acceptance suite cross-checks
against the enumeration oracle.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .core import (
    NEGATIVE,
    POSITIVE,
    EdgeId,
    SignedGraph,
    delete_edges,
    switch,
)
from .core import build_hat, build_hedgehog, build_target
from .errors import BadParams, BadRecipe

LEAF_CASES = ("case1", "case2", "case2d", "case3")


# --- random graphs ----------------------------------------------------------


def random_signed_graph(n: int, m: int, p_neg: float, seed: int) -> SignedGraph:
    """Seeded uniform multigraph: m non-loop endpoint pairs, signs iid."""
    if type(n) is not int or type(m) is not int or n < 0 or m < 0:
        raise BadParams(f"need int n, m >= 0, got n={n!r} m={m!r}")
    if not 0.0 <= p_neg <= 1.0:
        raise BadParams(f"p_neg must lie in [0, 1], got {p_neg}")
    if m > 0 and n < 2:
        raise BadParams(f"cannot place {m} non-loop edges on {n} vertices")
    rng = random.Random(seed)
    items = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        items.append((u, v, NEGATIVE if rng.random() < p_neg else POSITIVE))
    return SignedGraph.build(n, items)


def random_3_connected(
    n: int, extra_edges: int, p_neg: float, seed: int, *, simple: bool = False
) -> SignedGraph:
    """Wheel on n vertices plus random chords, then random signs.

    The wheel is 3-connected and extra edges cannot hurt that.  With
    ``simple`` set, chords avoid existing endpoint pairs (and each
    other), so every parallel class stays a singleton.
    """
    if type(n) is not int or n < 4:
        raise BadParams(f"a wheel needs an int of at least 4 vertices, got {n!r}")
    if type(extra_edges) is not int or extra_edges < 0:
        raise BadParams(f"extra_edges must be a nonnegative int, got {extra_edges!r}")
    if not 0.0 <= p_neg <= 1.0:
        raise BadParams(f"p_neg must lie in [0, 1], got {p_neg}")
    rng = random.Random(seed)
    pairs = [(i, i % (n - 1) + 1) for i in range(1, n)]  # rim
    pairs += [(0, i) for i in range(1, n)]  # spokes
    used = {frozenset(p) for p in pairs}
    placed = 0
    attempts = 0
    while placed < extra_edges:
        attempts += 1
        if attempts > 100 * extra_edges + 100:
            raise BadParams("ran out of room for distinct extra chords")
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        if simple and frozenset((u, v)) in used:
            continue
        used.add(frozenset((u, v)))
        pairs.append((u, v))
        placed += 1
    items = [
        (u, v, NEGATIVE if rng.random() < p_neg else POSITIVE) for u, v in pairs
    ]
    return SignedGraph.build(n, items)


def ladder(
    rungs: int, seed: int, doubled: bool = False
) -> tuple[SignedGraph, EdgeId, EdgeId]:
    """Seeded ladder with random signs; the pair is the first and last rung.

    Edge ids: rungs 0..k-1 (rung i joins i and k+i), then the top rail
    (i, i+1), then the bottom rail (k+i, k+i+1), then, when ``doubled``,
    a copy of one rail edge with the opposite sign.  Every cycle of a
    ladder uses exactly two rungs, so the outer cycle is the only
    common cycle of a plain ladder's pair and its sign is the common
    sign; the doubled rail edge gives a second outer cycle of the other
    sign, so that pair is untied.  The rungs between make the reduction
    a chain of part-1 splits, about k of them, nested about log2 k deep.
    """
    if type(rungs) is not int or rungs < 2:
        raise BadParams(f"a ladder needs an int of at least 2 rungs, got {rungs!r}")
    rng = random.Random(seed)
    k = rungs
    pairs = [(i, k + i) for i in range(k)]
    pairs += [(i, i + 1) for i in range(k - 1)]
    pairs += [(k + i, k + i + 1) for i in range(k - 1)]
    items = [(u, v, NEGATIVE if rng.random() < 0.5 else POSITIVE) for u, v in pairs]
    if doubled:
        u, v, s = items[k + rng.randrange(2 * (k - 1))]
        items.append((u, v, -s))
    return SignedGraph.build(2 * k, items), 0, k - 1


# --- composed tied instances ------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """A 3-connected tied instance; case2d doubles one non-distinguished
    wheel spoke into an opposite-sign parallel pair (splice fodder)."""

    case: str


@dataclass(frozen=True)
class Splice:
    """Replace marker material of the base instance by a new side.

    balanced: a positive non-distinguished edge becomes a balanced
    all-positive side.  Otherwise an opposite-sign parallel pair
    becomes an unbalanced side; the base must have one to give.
    """

    base: "Recipe"
    balanced: bool


@dataclass(frozen=True)
class Join:
    """Glue two tied instances at the endpoints of their deleted second
    distinguished edges; the two first edges become the new pair."""

    left: "Recipe"
    right: "Recipe"


Recipe = Union[Leaf, Splice, Join]


def compose_tied_instance(
    recipe: Recipe, seed: int
) -> tuple[SignedGraph, EdgeId, EdgeId]:
    """A signed graph with a distinguished pair that is tied by construction."""
    rng = random.Random(seed)
    return _build(recipe, rng)


def _build(recipe: Recipe, rng: random.Random) -> tuple[SignedGraph, EdgeId, EdgeId]:
    if isinstance(recipe, Leaf):
        return _build_leaf(recipe.case, rng)
    if isinstance(recipe, Splice):
        if recipe.balanced:
            return _splice_balanced(recipe.base, rng)
        return _splice_unbalanced(recipe.base, rng)
    if isinstance(recipe, Join):
        return _join(recipe.left, recipe.right, rng)
    raise BadRecipe(f"unknown recipe node {recipe!r}")


def _rng_sign(rng: random.Random) -> int:
    return NEGATIVE if rng.random() < 0.5 else POSITIVE


def _random_switch(g: SignedGraph, rng: random.Random) -> SignedGraph:
    return switch(g, {v for v in range(g.n) if rng.random() < 0.5})


def _build_leaf(case: str, rng: random.Random) -> tuple[SignedGraph, EdgeId, EdgeId]:
    if case == "case3":
        # K4; deleting the two disjoint distinguished edges leaves an
        # all-positive 4-cycle
        items = [
            (0, 2, POSITIVE),
            (2, 1, POSITIVE),
            (1, 3, POSITIVE),
            (3, 0, POSITIVE),
            (0, 1, _rng_sign(rng)),
            (2, 3, _rng_sign(rng)),
        ]
        g = SignedGraph.build(4, items)
        return _random_switch(g, rng), 4, 5
    if case in ("case2", "case2d"):
        # wheel with hub 0; the pair shares the hub and the rim stays
        # all-positive, so deleting the hub leaves a balanced graph
        k = rng.choice((3, 4, 5))
        items = [(i, i % k + 1, POSITIVE) for i in range(1, k + 1)]
        spoke_of = {}
        for i in range(1, k + 1):
            spoke_of[i] = len(items)
            items.append((0, i, _rng_sign(rng)))
        j = rng.choice(range(2, k + 1))
        e1, e2 = spoke_of[1], spoke_of[j]
        if case == "case2d":
            t = rng.choice([i for i in range(1, k + 1) if i not in (1, j)])
            items.append((0, t, -items[spoke_of[t]][2]))
        g = SignedGraph.build(k + 1, items)
        return _random_switch(g, rng), e1, e2
    if case == "case1":
        # prism with one doubled rung: the opposite-sign rung pair plus
        # the two distinguished rungs cut off one all-positive triangle
        # from the other
        items = [
            (0, 1, POSITIVE),
            (1, 2, POSITIVE),
            (2, 0, POSITIVE),
            (3, 4, POSITIVE),
            (4, 5, POSITIVE),
            (5, 3, POSITIVE),
            (0, 3, POSITIVE),
            (0, 3, NEGATIVE),
            (1, 4, _rng_sign(rng)),
            (2, 5, _rng_sign(rng)),
        ]
        g = SignedGraph.build(6, items)
        return _random_switch(g, rng), 8, 9
    raise BadRecipe(f"unknown leaf case {case!r}")


def _glue(
    a: SignedGraph, b: SignedGraph, ua: int, va: int, ub: int, vb: int
) -> SignedGraph:
    """Disjoint union of a and b with b's (ub, vb) fused onto a's (ua, va).

    a's vertex and edge ids survive unchanged; b's edges follow a's.
    """
    vmap = {}
    nxt = a.n
    for x in range(b.n):
        if x == ub:
            vmap[x] = ua
        elif x == vb:
            vmap[x] = va
        else:
            vmap[x] = nxt
            nxt += 1
    items = [(e.u, e.v, e.sign) for e in a.edges]
    items += [(vmap[e.u], vmap[e.v], e.sign) for e in b.edges]
    return SignedGraph.build(nxt, items)


def _balanced_side(rng: random.Random) -> SignedGraph:
    # generalized theta between vertices 0 and 1, all positive
    k = rng.choice((2, 3))
    items = []
    for i in range(k):
        items.append((0, 2 + i, POSITIVE))
        items.append((2 + i, 1, POSITIVE))
    if k >= 2 and rng.random() < 0.5:
        items.append((2, 3, POSITIVE))
    return SignedGraph.build(2 + k, items)


def _unbalanced_side(rng: random.Random) -> SignedGraph:
    # 4-cycle through vertices 0 and 1 carrying exactly one negative edge
    items = [
        (0, 2, POSITIVE),
        (2, 1, POSITIVE),
        (0, 3, POSITIVE),
        (3, 1, NEGATIVE),
    ]
    if rng.random() < 0.5:
        items.append((2, 3, _rng_sign(rng)))
    return SignedGraph.build(4, items)


def _splice_balanced(
    base: Recipe, rng: random.Random
) -> tuple[SignedGraph, EdgeId, EdgeId]:
    g, e1, e2 = _build(base, rng)
    # every recipe builds at least 6 edges, so one lies beside the pair
    p = rng.choice([i for i in range(g.m) if i not in (e1, e2)])
    ed = g.edge(p)
    if ed.sign == NEGATIVE:
        # tiedness is switch-invariant, so make the marker positive first
        g = switch(g, {ed.u})
    h, emap = delete_edges(g, (p,))
    out = _glue(h, _balanced_side(rng), ed.u, ed.v, 0, 1)
    return out, emap[e1], emap[e2]


def _splice_unbalanced(
    base: Recipe, rng: random.Random
) -> tuple[SignedGraph, EdgeId, EdgeId]:
    g, e1, e2 = _build(base, rng)
    candidates = []
    for i in range(g.m):
        if i in (e1, e2):
            continue
        for j in range(i + 1, g.m):
            if j in (e1, e2):
                continue
            if (
                g.endpoints(i) == g.endpoints(j)
                and g.sign(i) != g.sign(j)
            ):
                candidates.append((i, j))
    if not candidates:
        raise BadRecipe("no opposite-sign parallel pair available to replace")
    i, j = rng.choice(candidates)
    (u, v) = sorted(g.endpoints(i))
    h, emap = delete_edges(g, (i, j))
    out = _glue(h, _unbalanced_side(rng), u, v, 0, 1)
    return out, emap[e1], emap[e2]


def _join(
    left: Recipe, right: Recipe, rng: random.Random
) -> tuple[SignedGraph, EdgeId, EdgeId]:
    g1, a1, f1 = _build(left, rng)
    g2, a2, f2 = _build(right, rng)
    if g1.sign(f1) == NEGATIVE:
        g1 = switch(g1, {g1.edge(f1).u})
    if g2.sign(f2) == NEGATIVE:
        g2 = switch(g2, {g2.edge(f2).u})
    u1, v1 = g1.edge(f1).u, g1.edge(f1).v
    u2, v2 = g2.edge(f2).u, g2.edge(f2).v
    if rng.random() < 0.5:
        u2, v2 = v2, u2
    h1, em1 = delete_edges(g1, (f1,))
    h2, em2 = delete_edges(g2, (f2,))
    out = _glue(h1, h2, u1, v1, u2, v2)
    return out, em1[a1], h1.m + em2[a2]


def random_recipe(seed: int, max_depth: int = 2) -> Recipe:
    """A random valid recipe; unbalanced splices sit directly on a leaf
    that carries the parallel pair they consume."""
    rng = random.Random(seed)

    def gen(depth: int) -> Recipe:
        if depth <= 0:
            return Leaf(rng.choice(LEAF_CASES))
        r = rng.random()
        if r < 0.30:
            return Leaf(rng.choice(LEAF_CASES))
        if r < 0.55:
            return Splice(gen(depth - 1), balanced=True)
        if r < 0.75:
            return Splice(Leaf(rng.choice(("case1", "case2d"))), balanced=False)
        return Join(gen(depth - 1), gen(depth - 1))

    return gen(max_depth)


# --- exhaustive enumeration -------------------------------------------------


def enumerate_small(
    n_max: int,
    m_max: int,
    *,
    simple: bool = False,
    dedup_iso: bool = False,
) -> Iterator[SignedGraph]:
    """All small (multi)graphs, one signature per switching class.

    Underlying graphs are enumerated labeled (optionally deduplicated up
    to isomorphism); for each, a spanning forest is pinned positive and
    the remaining edges range over all sign patterns, which hits every
    switching class exactly once.
    """
    if type(n_max) is not int or n_max < 1:
        raise BadParams(f"need an int n_max >= 1, got {n_max!r}")
    if type(m_max) is not int or m_max < 0:
        raise BadParams(f"need an int m_max >= 0, got {m_max!r}")
    for n in range(1, n_max + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        seen: set[tuple] = set()
        for edges in _underlying(pairs, m_max, simple):
            if dedup_iso:
                key = _iso_key(n, edges)
                if key in seen:
                    continue
                seen.add(key)
            yield from _signature_reps(n, edges)


def _underlying(
    pairs: list[tuple[int, int]], m_max: int, simple: bool
) -> Iterator[tuple[tuple[int, int], ...]]:
    for m in range(m_max + 1):
        if simple:
            if m > len(pairs):
                break
            for combo in itertools.combinations(pairs, m):
                yield combo
        else:
            for combo in itertools.combinations_with_replacement(pairs, m):
                yield combo


def _iso_key(n: int, edges: tuple[tuple[int, int], ...]) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        )
        if best is None or mapped < best:
            best = mapped
    return (n,) + best


def _signature_reps(
    n: int, edges: tuple[tuple[int, int], ...]
) -> Iterator[SignedGraph]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((i, v))
        adj[v].append((i, u))
    tree: set[int] = set()
    visited = [False] * n
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for eid, y in adj[x]:
                if not visited[y]:
                    visited[y] = True
                    tree.add(eid)
                    queue.append(y)
    free = [i for i in range(len(edges)) if i not in tree]
    for signs in itertools.product((POSITIVE, NEGATIVE), repeat=len(free)):
        assign = dict(zip(free, signs))
        items = [
            (u, v, assign.get(i, POSITIVE)) for i, (u, v) in enumerate(edges)
        ]
        yield SignedGraph.build(n, items)


# --- one-stop spec ----------------------------------------------------------


@dataclass(frozen=True)
class GenSpec:
    """A reproducible generation request; equal specs give equal output."""

    kind: str  # random | random_3connected | exhaustive | composed_tied | ladder | gadget
    n: int = 0  # vertices, n_max, or ladder rungs
    m: int = 0
    p_neg: float = 0.0
    seed: int = 0
    extra_edges: int = 0
    simple: bool = False
    dedup_iso: bool = False
    gadget: str = "hat"
    recipe: Optional[Recipe] = field(default=None, compare=False)


GADGETS = {
    "hat": build_hat,
    "target": build_target,
    "hedgehog": build_hedgehog,
}


def generate(
    spec: GenSpec,
) -> Iterator[tuple[SignedGraph, Optional[tuple[EdgeId, EdgeId]]]]:
    """Stream (graph, distinguished pair or None) for a GenSpec."""
    if spec.kind == "random":
        yield random_signed_graph(spec.n, spec.m, spec.p_neg, spec.seed), None
    elif spec.kind == "random_3connected":
        yield (
            random_3_connected(
                spec.n, spec.extra_edges, spec.p_neg, spec.seed, simple=spec.simple
            ),
            None,
        )
    elif spec.kind == "exhaustive":
        for g in enumerate_small(
            spec.n, spec.m, simple=spec.simple, dedup_iso=spec.dedup_iso
        ):
            yield g, None
    elif spec.kind == "composed_tied":
        recipe = spec.recipe if spec.recipe is not None else random_recipe(spec.seed)
        g, e1, e2 = compose_tied_instance(recipe, spec.seed)
        yield g, (e1, e2)
    elif spec.kind == "ladder":
        g, e1, e2 = ladder(spec.n, spec.seed)
        yield g, (e1, e2)
    elif spec.kind == "gadget":
        if spec.gadget not in GADGETS:
            raise BadParams(f"unknown gadget {spec.gadget!r}")
        inst = GADGETS[spec.gadget]()
        yield inst.graph, (inst.e1, inst.e2)
    else:
        raise BadParams(f"unknown generator kind {spec.kind!r}")
