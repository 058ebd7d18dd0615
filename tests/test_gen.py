import itertools
import random

import pytest

import helpers
import sgties.gen
from sgties import (
    BadParams,
    BadRecipe,
    GenSpec,
    Join,
    Leaf,
    SignedGraph,
    Splice,
    compose_tied_instance,
    enumerate_common_cycles,
    enumerate_small,
    generate,
    is_2_connected,
    is_3_connected,
    ladder,
    oracle_tied,
    parallel_class,
    random_3_connected,
    random_recipe,
    random_signed_graph,
    signatures_equivalent,
)
from sgties.gen import LEAF_CASES


def test_random_graph_is_deterministic():
    a = random_signed_graph(6, 10, 0.4, seed=99)
    b = random_signed_graph(6, 10, 0.4, seed=99)
    assert a == b
    c = random_signed_graph(6, 10, 0.4, seed=100)
    assert a != c  # astronomically unlikely to collide


def test_random_graph_shape():
    g = random_signed_graph(5, 12, 0.5, seed=1)
    assert (g.n, g.m) == (5, 12)
    g = random_signed_graph(4, 20, 0.0, seed=2)
    assert all(g.sign(e) == 1 for e in range(g.m))
    g = random_signed_graph(4, 20, 1.0, seed=3)
    assert all(g.sign(e) == -1 for e in range(g.m))


def test_random_graph_validation():
    with pytest.raises(BadParams):
        random_signed_graph(2, -1, 0.5, seed=1)
    with pytest.raises(BadParams):
        random_signed_graph(2, 1, 1.5, seed=1)
    with pytest.raises(BadParams):
        random_signed_graph(1, 1, 0.5, seed=1)  # no loops allowed


def test_random_3_connected():
    for seed in range(25):
        g = random_3_connected(4 + seed % 4, seed % 3, 0.4, seed)
        assert is_3_connected(g)


def test_random_3_connected_simple():
    for seed in range(15):
        g = random_3_connected(6, 3, 0.5, seed, simple=True)
        assert is_3_connected(g)
        assert all(parallel_class(g, e) == frozenset({e}) for e in range(g.m))


def test_random_3_connected_validation():
    with pytest.raises(BadParams):
        random_3_connected(3, 0, 0.5, seed=1)
    with pytest.raises(BadParams):
        # a simple graph on 5 vertices has no room for 4 extra chords
        random_3_connected(5, 4, 0.5, seed=1, simple=True)


@pytest.mark.parametrize("p_neg", [-0.1, 1.5])
def test_random_3_connected_rejects_p_neg_outside_0_1(p_neg):
    with pytest.raises(BadParams, match="p_neg must lie in"):
        random_3_connected(5, 0, p_neg, seed=1)


def test_leaf_instances_are_tied_3_connected():
    for case in LEAF_CASES:
        for seed in range(8):
            g, e1, e2 = compose_tied_instance(Leaf(case), seed)
            assert is_3_connected(g), case
            v = oracle_tied(g, e1, e2)
            assert v.tied, (case, seed)
            assert v.kind == "tied"  # leaves always carry a common cycle


def test_case2d_leaf_offers_a_parallel_pair():
    g, e1, e2 = compose_tied_instance(Leaf("case2d"), 4)
    classes = {parallel_class(g, e) for e in range(g.m) if len(parallel_class(g, e)) == 2}
    assert classes
    pc = classes.pop()
    assert not pc & {e1, e2}
    assert {g.sign(e) for e in pc} == {1, -1}


def test_unknown_leaf_case_rejected():
    with pytest.raises(BadRecipe):
        compose_tied_instance(Leaf("case9"), 0)


def test_unknown_recipe_node_rejected():
    with pytest.raises(BadRecipe, match="unknown recipe node 'case1'"):
        compose_tied_instance("case1", 0)


def test_a_balanced_splice_needs_an_edge_beside_the_pair(monkeypatch):
    """Every recipe's graph has an edge besides its pair, so the guard
    is reached only through a base built as the pair alone."""
    pair_only = SignedGraph.build(2, [(0, 1, 1), (0, 1, -1)])
    monkeypatch.setattr(sgties.gen, "_build", lambda recipe, rng: (pair_only, 0, 1))
    with pytest.raises(BadRecipe, match="no edge available for a balanced-side splice"):
        sgties.gen._splice_balanced(Leaf("case1"), random.Random(0))


def test_splice_balanced_keeps_ties():
    for seed in range(12):
        recipe = Splice(Leaf(LEAF_CASES[seed % 4]), balanced=True)
        g, e1, e2 = compose_tied_instance(recipe, seed)
        assert is_2_connected(g)
        assert oracle_tied(g, e1, e2).tied, seed


def test_splice_unbalanced_needs_a_pair_to_consume():
    with pytest.raises(BadRecipe):
        compose_tied_instance(Splice(Leaf("case3"), balanced=False), 5)


def test_splice_unbalanced_over_pair_leaves():
    for case in ("case1", "case2d"):
        for seed in range(8):
            g, e1, e2 = compose_tied_instance(Splice(Leaf(case), balanced=False), seed)
            assert is_2_connected(g)
            assert oracle_tied(g, e1, e2).tied, (case, seed)


def test_join_keeps_ties():
    for seed in range(10):
        recipe = Join(Leaf("case3"), Leaf(LEAF_CASES[seed % 4]))
        g, e1, e2 = compose_tied_instance(recipe, seed)
        assert is_2_connected(g)
        assert oracle_tied(g, e1, e2).tied, seed


def test_nested_recipes():
    recipe = Join(Splice(Leaf("case2d"), balanced=False), Splice(Leaf("case2"), balanced=True))
    for seed in range(6):
        g, e1, e2 = compose_tied_instance(recipe, seed)
        assert oracle_tied(g, e1, e2).tied, seed


def test_compose_is_deterministic():
    recipe = Join(Leaf("case1"), Splice(Leaf("case2"), balanced=True))
    assert compose_tied_instance(recipe, 7) == compose_tied_instance(recipe, 7)


def test_random_recipe_round_trip():
    for seed in range(30):
        recipe = random_recipe(seed)
        assert recipe == random_recipe(seed)
        g, e1, e2 = compose_tied_instance(recipe, seed)
        assert e1 != e2
        assert oracle_tied(g, e1, e2).tied, seed


# --- exhaustive enumeration ---------------------------------------------------


def brute_force_classes(n, edges):
    """Group all 2^m signings of a fixed underlying graph by switching."""
    m = len(edges)
    graphs = []
    for signs in itertools.product((1, -1), repeat=m):
        graphs.append(
            __import__("sgties").SignedGraph.build(
                n, [(u, v, s) for (u, v), s in zip(edges, signs)]
            )
        )
    classes = []
    for g in graphs:
        for rep in classes:
            sw, _ = signatures_equivalent(rep, [g.sign(e) for e in range(g.m)])
            if sw is not None:
                break
        else:
            classes.append(g)
    return classes


def test_enumerate_small_triangle_has_two_classes():
    tris = [
        g
        for g in enumerate_small(3, 3, simple=True)
        if g.n == 3 and g.m == 3
    ]
    assert len(tris) == 2
    signs = sorted(helpers.set_sign(g, frozenset(range(3))) for g in tris)
    assert signs == [-1, 1]


def test_enumerate_small_count_matches_simple_spec_example():
    assert sum(1 for _ in enumerate_small(3, 3, simple=True)) == 12


def test_enumerate_small_reps_hit_every_class_once():
    """For every underlying graph: one representative per switching class."""
    for n, m_max in ((3, 3), (4, 4)):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for m in range(m_max + 1):
            for edges in itertools.combinations_with_replacement(pairs, m):
                reps = [
                    g
                    for g in enumerate_small(n, m_max)
                    if g.n == n
                    and g.m == m
                    and tuple(sorted(tuple(sorted(g.endpoints(e))) for e in range(g.m)))
                    == tuple(sorted(edges))
                ]
                want = brute_force_classes(n, edges)
                assert len(reps) == len(want), (n, edges)
                # pairwise inequivalent
                for a, b in itertools.combinations(reps, 2):
                    if [a.endpoints(e) for e in range(m)] == [
                        b.endpoints(e) for e in range(m)
                    ]:
                        sw, _ = signatures_equivalent(
                            a, [b.sign(e) for e in range(m)]
                        )
                        assert sw is None


def test_enumerate_small_dedup_iso():
    # three labeled single-edge graphs on 3 vertices, one up to isomorphism
    plain = [g for g in enumerate_small(3, 1) if g.n == 3 and g.m == 1]
    deduped = [g for g in enumerate_small(3, 1, dedup_iso=True) if g.n == 3 and g.m == 1]
    assert len(plain) == 3
    assert len(deduped) == 1


def test_enumerate_small_simple_flag():
    assert all(
        parallel_class(g, e) == frozenset({e})
        for g in enumerate_small(3, 4, simple=True)
        for e in range(g.m)
    )
    assert any(
        len(parallel_class(g, e)) > 1
        for g in enumerate_small(3, 4)
        for e in range(g.m)
    )


def test_enumerate_small_validation():
    with pytest.raises(BadParams):
        list(enumerate_small(0, 3))
    with pytest.raises(BadParams):
        list(enumerate_small(3, -1))


@pytest.mark.parametrize("rungs", [2, 3, 6])
def test_ladder_pair_is_tied_by_the_outer_cycle(rungs):
    for seed in range(5):
        g, e1, e2 = ladder(rungs, seed)
        assert (g.n, g.m, e1, e2) == (2 * rungs, 3 * rungs - 2, 0, rungs - 1)
        assert is_2_connected(g)
        rep = enumerate_common_cycles(g, e1, e2)
        (outer,) = rep.cycles
        assert sorted(outer.edges) == [e1, e2] + list(range(rungs, g.m))
        d, f1, f2 = ladder(rungs, seed, doubled=True)
        assert (f1, f2) == (e1, e2) and d.m == g.m + 1
        assert d.edges[: g.m] == g.edges
        extra = d.edge(g.m)
        twin = next(i for i in range(rungs, g.m) if g.endpoints(i) == extra.endpoints())
        assert extra.sign == -g.sign(twin)
        assert not oracle_tied(d, e1, e2).tied


def test_ladder_is_seeded_and_validated():
    assert ladder(12, 7) == ladder(12, 7)
    assert ladder(12, 7) != ladder(12, 8)
    with pytest.raises(BadParams):
        ladder(1, 0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_signed_graph(4.0, 5, 0.5, 1),
        lambda: random_signed_graph(4, 5.0, 0.5, 1),
        lambda: random_signed_graph(True, 0, 0.5, 1),
        lambda: random_3_connected(6.0, 2, 0.5, 1),
        lambda: random_3_connected(6, 2.0, 0.5, 1),
        lambda: ladder(3.0, 1),
        lambda: list(enumerate_small(3.0, 2)),
        lambda: list(enumerate_small(3, 2.0)),
    ],
)
def test_generator_counts_must_be_ints(make):
    """A float count is not a count: randrange warns on 4.0 (and
    Python 3.12 raises TypeError there), and range() raises TypeError."""
    with pytest.raises(BadParams):
        make()


# --- GenSpec dispatch ----------------------------------------------------------


def test_generate_random():
    (g, pair), = list(generate(GenSpec(kind="random", n=5, m=8, p_neg=0.5, seed=4)))
    assert pair is None
    assert (g.n, g.m) == (5, 8)
    assert g == random_signed_graph(5, 8, 0.5, seed=4)


def test_generate_gadget():
    (g, pair), = list(generate(GenSpec(kind="gadget", gadget="target")))
    assert (g.n, g.m) == (4, 6)
    assert pair == (4, 5)


def test_generate_composed_uses_seeded_recipe():
    a = list(generate(GenSpec(kind="composed_tied", seed=3)))
    b = list(generate(GenSpec(kind="composed_tied", seed=3)))
    assert a == b
    (g, pair), = a
    assert pair is not None
    assert oracle_tied(g, *pair).tied


def test_generate_composed_with_explicit_recipe():
    spec = GenSpec(kind="composed_tied", seed=11, recipe=Leaf("case1"))
    (g, pair), = list(generate(spec))
    assert g == compose_tied_instance(Leaf("case1"), 11)[0]


def test_generate_exhaustive_streams_all():
    got = [g for g, pair in generate(GenSpec(kind="exhaustive", n=3, m=3, simple=True))]
    assert len(got) == 12


def test_generate_ladder():
    (g, pair), = list(generate(GenSpec(kind="ladder", n=5, seed=2)))
    assert (g, *pair) == ladder(5, 2)


def test_generate_unknown_kind():
    with pytest.raises(BadParams):
        list(generate(GenSpec(kind="wat")))


def test_generate_unknown_gadget():
    with pytest.raises(BadParams):
        list(generate(GenSpec(kind="gadget", gadget="beanie")))
