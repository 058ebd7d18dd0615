"""Metamorphic tests: verdicts kept under transformations, at sizes the
enumeration oracle cannot reach.

Each relation maps an instance (g, e1, e2) to one whose answer is known
to be the same: the kind and common sign must not move, and the
documents decided for both must verify.

- Relabelling vertices and permuting edge ids changes no cycle.
- Subdividing a non-pair edge with a new positive edge keeps every
  cycle's sign.
- A same-sign parallel copy of a non-pair edge doubles the cycles
  through that edge without a new sign, and its 2-cycle misses the pair.
- Switching a vertex set keeps every cycle's sign.

The families are flat 3-connected graphs with about 1% negative edges,
a plain (tied) and a doubled (untied) 120-rung ladder, and depth-4
composed tied instances; they reach large leaves, long chains of
part-1 splits and mixed part-2/3 splits.
"""

import random

import pytest

from sgties import (
    SignedGraph,
    compose_tied_instance,
    decide_tied,
    ladder,
    random_3_connected,
    random_recipe,
    switch,
    verdict_to_doc,
    verify_certificate,
)


def _flat(seed):
    g = random_3_connected(300, 150, 0.01, seed)
    return g, 0, g.m - 1


FAMILIES = {
    "flat": [_flat(seed) for seed in range(6)],
    "ladder": [ladder(120, 0), ladder(120, 1, doubled=True)],
    "composed": [compose_tied_instance(random_recipe(seed, 4), seed) for seed in range(30)],
}


def _items(g):
    return [(e.u, e.v, e.sign) for e in g.edges]


def _non_pair_edge(rng, g, e1, e2):
    return rng.choice([i for i in range(g.m) if i not in (e1, e2)])


def relabel(rng, g, e1, e2):
    perm = rng.sample(range(g.n), g.n)
    order = rng.sample(range(g.m), g.m)  # new id i holds old edge order[i]
    items = [(perm[e.u], perm[e.v], e.sign) for e in (g.edges[i] for i in order)]
    return SignedGraph.build(g.n, items), order.index(e1), order.index(e2)


def subdivide(rng, g, e1, e2):
    items = _items(g)
    i = _non_pair_edge(rng, g, e1, e2)
    u, v, s = items[i]
    items[i] = (u, g.n, s)
    items.append((g.n, v, 1))
    return SignedGraph.build(g.n + 1, items), e1, e2


def parallel_copy(rng, g, e1, e2):
    items = _items(g)
    items.append(items[_non_pair_edge(rng, g, e1, e2)])
    return SignedGraph.build(g.n, items), e1, e2


def switch_set(rng, g, e1, e2):
    return switch(g, [x for x in range(g.n) if rng.random() < 0.5]), e1, e2


RELATIONS = [relabel, subdivide, parallel_copy, switch_set]


def _decided(g, e1, e2):
    v = decide_tied(g, e1, e2)
    assert verify_certificate(g, e1, e2, verdict_to_doc(v, e1, e2)) == (True, "ok")
    return v.kind, v.common_sign


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verdicts_survive_the_relations(family):
    for k, (g, e1, e2) in enumerate(FAMILIES[family]):
        want = _decided(g, e1, e2)
        for relation in RELATIONS:
            rng = random.Random(f"{family}/{k}/{relation.__name__}")
            got = _decided(*relation(rng, g, e1, e2))
            assert got == want, (family, k, relation.__name__)
