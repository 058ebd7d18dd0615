"""Seeded instance streams for the benchmark workloads.

Every workload is an endless, deterministic sequence of instances: the
i-th instance depends only on (workload, seed, i).  Instances come in
cycles of three, two of a majority class and one of a minority class,
so that medians sit inside the majority class instead of on the gap
between two classes.  Each instance carries the answer known from its
construction; only the random graphs of ``small-mix`` need the
enumeration oracle for that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from sgties.certificate import KIND_TIED, KIND_UNTIED
from sgties.core import NEGATIVE, POSITIVE, SignedGraph
from sgties.gen import (
    compose_tied_instance,
    random_3_connected,
    random_recipe,
    random_signed_graph,
)
from sgties.oracle import oracle_tied

CYCLE = 3  # instances per mix cycle: two majority, one minority

FLAT_N = 80
FLAT_CHORDS = 80
LADDER_RUNGS = 40

# Distinct instances a run takes, per second of ``--seconds`` of plain
# (untraced) measuring: about half of what an idle 2-vCPU 2.1 GHz Xeon
# gets through, so the first pass over them ends well inside the run
# even when the host is busy.  A fixed count makes the ops a seed
# attempts, and the ones that fail, the same on every run.
POOL_RATE = {"flat3c": 1.25, "ladder": 0.6, "small-mix": 25.0}


@dataclass(frozen=True)
class Instance:
    """One decide/verify job with its expected answer.

    ``expect`` is a verdict kind of the certificate module; ``sign`` is
    the common sign of a non-vacuous tied pair when it is known.
    """

    graph: SignedGraph
    e1: int
    e2: int
    expect: str
    sign: Optional[int]


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


def ladder(rungs: int, rng: random.Random, doubled: bool) -> Instance:
    """Ladder with random signs; the pair is the first and last rung.

    Edge ids: rungs 0..k-1, then the top rail, then the bottom rail,
    then (when ``doubled``) a copy of one rail edge with the opposite
    sign.  Every cycle of a ladder uses exactly two rungs, so the outer
    cycle is the only common cycle of a plain ladder and its sign is
    the common sign.  The doubled rail edge gives a second outer cycle
    of the other sign, so the pair is untied.
    """
    k = rungs
    pairs = [(i, k + i) for i in range(k)]
    pairs += [(i, i + 1) for i in range(k - 1)]
    pairs += [(k + i, k + i + 1) for i in range(k - 1)]
    items = [(u, v, NEGATIVE if rng.random() < 0.5 else POSITIVE) for u, v in pairs]
    e1, e2 = 0, k - 1
    if doubled:
        u, v, s = items[k + rng.randrange(2 * (k - 1))]
        items.append((u, v, -s))
        return Instance(SignedGraph.build(2 * k, items), e1, e2, KIND_UNTIED, None)
    sign = items[e1][2] * items[e2][2]
    for _, _, s in items[k:]:
        sign *= s
    return Instance(SignedGraph.build(2 * k, items), e1, e2, KIND_TIED, sign)


def _flat3c(rng: random.Random, minority: bool) -> Instance:
    seed = rng.randrange(2**31)
    if minority:
        # random signs on 238 edges: each of the three tied cases asks a
        # graph with over 100 independent cycles to be balanced, which
        # has probability below 2**-100, and verify checks the two
        # opposite-sign witness cycles that prove the answer
        g = random_3_connected(FLAT_N, FLAT_CHORDS, 0.5, seed)
        return Instance(g, 0, g.m - 1, KIND_UNTIED, None)
    g = random_3_connected(FLAT_N, FLAT_CHORDS, 0.0, seed)
    items = [(e.u, e.v, e.sign) for e in g.edges]
    items[0] = (items[0][0], items[0][1], NEGATIVE)
    # deleting the pair leaves an all-positive graph (case 3), and every
    # common cycle holds the one negative edge
    return Instance(SignedGraph.build(g.n, items), 0, g.m - 1, KIND_TIED, NEGATIVE)


def _small_mix(rng: random.Random, minority: bool) -> Instance:
    seed = rng.randrange(2**31)
    if not minority:
        depth = rng.choice((2, 3, 4))
        g, e1, e2 = compose_tied_instance(random_recipe(seed, depth), seed)
        return Instance(g, e1, e2, KIND_TIED, None)
    n = rng.randint(5, 10)
    m = rng.randint(n, 2 * n)
    g = random_signed_graph(n, m, 0.5, seed)
    e1, e2 = rng.sample(range(m), 2)
    truth = oracle_tied(g, e1, e2)
    sign = truth.common_sign if truth.kind == KIND_TIED else None
    return Instance(g, e1, e2, truth.kind, sign)


WORKLOADS = ("flat3c", "ladder", "small-mix")


def pool_size(workload: str, seconds: float, rounds: int = 1) -> int:
    """Distinct instances of one run: whole mix cycles, at least one.
    A run that takes each instance through ``rounds`` rounds gets
    proportionally fewer."""
    cycles = round(POOL_RATE[workload] * seconds / rounds / CYCLE)
    return CYCLE * max(1, cycles)


def instance(workload: str, seed: int, i: int) -> Instance:
    """The i-th instance of a workload's stream for a given seed."""
    rng = _rng(workload, seed, i)
    minority = i % CYCLE == CYCLE - 1
    if workload == "flat3c":
        return _flat3c(rng, minority)
    if workload == "ladder":
        return ladder(LADDER_RUNGS, rng, doubled=minority)
    if workload == "small-mix":
        return _small_mix(rng, minority)
    raise ValueError(f"unknown workload {workload!r}")

