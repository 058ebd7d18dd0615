"""Replay checks what each node's soundness argument needs, no more, and
each rejection branch of the verifier is reached by some document.

A case leaf's pair may have parallel companions: such an edge closes
only a 2-cycle with its partner, which misses the other pair edge, so
it lies on no common cycle and no case's argument needs it gone.
"""

import copy
import random

import pytest

import helpers
import sgties.oracle
from sgties import (
    Join,
    Leaf,
    SignedGraph,
    Splice,
    compose_tied_instance,
    decide_tied,
    ladder,
    oracle_tied,
    random_3_connected,
    verdict_to_doc,
    verify_certificate,
)


def _preprocess_to(g, e1, e2, inner):
    """decide's document for the pair, its certificate replaced by the
    whole graph as the block and ``inner`` as its only node."""
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    doc["certificate"] = {
        "kind": "preprocess",
        "removed": [],
        "block": list(range(g.m)),
        "inner": inner,
    }
    return doc


# each graph's pair (4, 5) has a parallel companion, edge m-1, of the
# other sign; the leaf is 3-connected and tied with sign -1
LEAVES = {
    "case3": (
        SignedGraph.build(
            4, [(0, 2, 1), (2, 1, 1), (1, 3, 1), (3, 0, 1), (0, 1, -1), (2, 3, 1), (0, 1, 1)]
        ),
        {"kind": "case3", "switch": []},
    ),
    "case2": (
        SignedGraph.build(
            5,
            [
                (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (0, 1, -1),
                (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 1, 1),
            ],
        ),
        {"kind": "case2", "v": 0, "switch": []},
    ),
}


@pytest.mark.parametrize("kind", LEAVES)
def test_a_case_leaf_whose_pair_has_a_parallel_companion_verifies(kind):
    g, inner = LEAVES[kind]
    tied = oracle_tied(g, 4, 5)
    assert (tied.kind, tied.common_sign) == ("tied", -1)
    assert verify_certificate(g, 4, 5, _preprocess_to(g, 4, 5, inner)) == (True, "ok")


def test_a_case_leaf_that_keeps_its_pairs_parallels_verifies_only_when_tied():
    """decide's case-leaf documents with ``removed`` moved into the block:
    the leaf then holds the pair's parallels.  Every one that verifies
    is tied, and most do (the rest fail a balance or cut check, since
    the recorded switch and cut did not see the edges put back)."""
    kept = verified = 0
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        g = random_3_connected(n, rng.randint(2, 8), rng.choice((0.0, 0.2, 0.5)), seed)
        e1, e2 = rng.sample(range(g.m), 2)
        doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
        node = doc["certificate"] or {}
        if not (
            doc["kind"] == "tied"
            and node.get("kind") == "preprocess"
            and node["removed"]
            and node["inner"]["kind"] in ("case1", "case2", "case3")
        ):
            continue
        kept += 1
        node["block"] = sorted(node["block"] + node["removed"])
        node["removed"] = []
        if verify_certificate(g, e1, e2, doc)[0]:
            verified += 1
            assert oracle_tied(g, e1, e2).kind == "tied", (seed, e1, e2)
    assert kept == 850
    assert verified >= 800


def _case1():
    """A 4-vertex leaf settled by case 1: F = edges 0 and 7, the two
    signs of (1, 2), cut off with the pair by X = {1}."""
    g = SignedGraph.build(
        4,
        [
            (1, 2, -1), (2, 3, -1), (3, 1, -1), (0, 1, 1), (0, 2, -1),
            (0, 3, 1), (0, 1, -1), (1, 2, 1), (0, 2, -1),
        ],
    )
    doc = verdict_to_doc(decide_tied(g, 2, 6), 2, 6)
    assert doc["certificate"]["inner"] == {"kind": "case1", "F": [0, 7], "X": [1], "switch": [2]}
    return g, doc


@pytest.mark.parametrize(
    "f, reason",
    [
        ([0, 7], "ok"),
        ([0, 7, 4], "case1: F edges do not share their endpoints"),
        ([0], "case1: F lacks one of the signs"),
        ([], "case1: F lacks one of the signs"),
        ([0, 7, 2], "case1: F contains a distinguished edge"),
    ],
)
def test_case1_needs_F_to_hold_both_signs_of_one_pair_of_endpoints(f, reason):
    g, doc = _case1()
    doc["certificate"]["inner"]["F"] = f
    assert verify_certificate(g, 2, 6, doc) == (reason == "ok", reason)


# --- untied witnesses and malformed documents -----------------------------


def _triangles():
    """Triangles 0-1-2 (negative) and 0-3-4 at vertex 0, and the chord
    (1, 3); the pair (0, 3) is tied."""
    return SignedGraph.build(
        5, [(0, 1, 1), (1, 2, 1), (2, 0, -1), (0, 3, 1), (3, 4, 1), (4, 0, 1), (1, 3, 1)]
    )


def _untied(first):
    return {
        "format": "sg-tied/1",
        "kind": "untied",
        "e1": 0,
        "e2": 3,
        "witness": [first, {"edges": [0, 6, 3], "vertices": [0, 1, 3]}],
    }


@pytest.mark.parametrize(
    "first, reason",
    [
        (
            # a figure eight through both triangles
            {"edges": [0, 1, 2, 3, 4, 5], "vertices": [0, 1, 2, 0, 3, 4]},
            "witness 1: not a cycle (repeated vertex)",
        ),
        (
            # an open walk through both pair edges
            {"edges": [0, 6, 4], "vertices": [0, 1, 3, 4]},
            "witness 1: not a cycle (edge sequence does not close)",
        ),
    ],
    ids=["figure-eight", "open-walk"],
)
def test_an_untied_witness_must_be_a_simple_closed_cycle(first, reason):
    assert verify_certificate(_triangles(), 0, 3, _untied(first)) == (False, reason)


def test_a_certificate_missing_a_field_is_malformed():
    g = _triangles()
    doc = verdict_to_doc(decide_tied(g, 0, 3), 0, 3)
    assert verify_certificate(g, 0, 3, doc) == (True, "ok")
    bad = copy.deepcopy(doc)
    del bad["certificate"]["inner"]
    assert verify_certificate(g, 0, 3, bad) == (False, "malformed certificate: KeyError('inner')")


def test_a_wrong_case3_switch_names_the_local_edge():
    """The signing replay names the edge it rejects by its id in the
    leaf's slice.  Preprocessing drops edge 0, parallel to e1, so each
    leaf id is one less than the input's: switching at vertex 3 makes
    input edge 3, (1, 3), negative, and the reason names leaf edge 2."""
    g = SignedGraph.build(
        4, [(0, 1, 1), (0, 2, 1), (2, 1, 1), (1, 3, 1), (3, 0, 1), (0, 1, -1), (2, 3, 1)]
    )
    doc = verdict_to_doc(decide_tied(g, 5, 6), 5, 6)
    leaf = doc["certificate"]["inner"]
    assert (doc["certificate"]["removed"], leaf) == ([0], {"kind": "case3", "switch": []})
    assert verify_certificate(g, 5, 6, doc) == (True, "ok")
    leaf["switch"] = [3]
    assert verify_certificate(g, 5, 6, doc) == (False, "case3: signing violated at edge 2")


def test_a_flipped_sign_fails_its_own_enum_leaf_after_its_shape_is_memoized(monkeypatch):
    """An enum leaf's common cycles are enumerated once per unsigned
    shape, but each leaf's signs are read off its own graph.  Take the
    last ladder leaf whose shape an earlier leaf had, and flip an input
    edge on its common cycle; with the document's common sign and
    witness nulled, so that only the leaves read signs, that leaf fails
    its sign check though its cycles come from the memo."""
    g, e1, e2 = ladder(40, 1)
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    doc["common_sign"], doc["witness"] = None, []
    leaves = []  # (unsigned shape, document node) of each enum leaf replayed
    real_replay = sgties.oracle._replay_enum

    def recording(sl, p1, p2, node, shapes):
        leaves.append(((sl.g.n, tuple(e[:2] for e in sl.g.edges), p1, p2), node))
        return real_replay(sl, p1, p2, node, shapes)

    enumerated = []
    real_enumerate = sgties.oracle.enumerate_common_cycles

    def counting(*args):
        enumerated.append(args)
        return real_enumerate(*args)

    monkeypatch.setattr(sgties.oracle, "_replay_enum", recording)
    monkeypatch.setattr(sgties.oracle, "enumerate_common_cycles", counting)
    assert verify_certificate(g, e1, e2, doc) == (True, "ok")
    shapes = [shape for shape, _ in leaves]
    last = max(i for i, shape in enumerate(shapes) if shape in shapes[:i])
    flip = next(r for r in leaves[last][1]["cycles"][0]["edges"] if type(r) is int)
    h = SignedGraph.build(
        g.n, [(e.u, e.v, -e.sign if i == flip else e.sign) for i, e in enumerate(g.edges)]
    )
    leaves.clear()
    enumerated.clear()
    ok, reason = verify_certificate(h, e1, e2, doc)
    assert not ok
    assert reason in ("enum: leaf cycles carry both signs", "enum: recorded sign mismatch")
    assert len(leaves) == last + 1
    assert len(enumerated) == len(set(shapes[: last + 1])) < last + 1


def _splits(node):
    """Each split of a certificate with the names of the markers its
    ancestors added, the edges it may refer to besides input ids."""
    stack = [(node, frozenset())]
    while stack:
        node, names = stack.pop()
        if node["kind"] == "preprocess":
            stack.append((node["inner"], names))
        elif node["kind"] == "split":
            yield node, names
            for child in node["children"]:
                added = {md["name"] for md in child["markers"]}
                stack.append((child["node"], names | added))


def _flipped(g, i):
    return SignedGraph.build(
        g.n, [(e.u, e.v, -e.sign if j == i else e.sign) for j, e in enumerate(g.edges)]
    )


@pytest.mark.parametrize(
    "instance",
    [
        lambda: ladder(40, 1),
        lambda: compose_tied_instance(Join(Leaf("case1"), Leaf("case3")), 0),
        lambda: (helpers.two_k4_on_boundary(), 4, 0),
        lambda: compose_tied_instance(Splice(Leaf("case1"), balanced=False), 0),
    ],
    ids=["part-1-enum", "part-1-case", "part-2", "part-3"],
)
def test_a_document_with_its_sides_permuted_replays_alike(instance):
    """A child holds its side's edges in its parent's order, whatever
    order the document lists them in.  With every split's side1 and
    side2 shuffled, the document still verifies, and on the graph with
    any one edge's sign flipped it gets the reason the unshuffled
    document gets, local edge ids included."""
    g, e1, e2 = instance()
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    shuffled = copy.deepcopy(doc)
    rng = random.Random(5)
    for split, _ in _splits(shuffled["certificate"]):
        for key in ("side1", "side2"):
            rng.shuffle(split[key])
    assert shuffled != doc
    assert verify_certificate(g, e1, e2, shuffled) == (True, "ok")
    for i in range(g.m):
        h = _flipped(g, i)
        assert verify_certificate(h, e1, e2, shuffled) == verify_certificate(h, e1, e2, doc)


def test_a_marker_unknown_two_splits_down_is_an_unknown_edge_reference():
    """Below the root a split refers to the input edges and ancestor
    markers its parent holds, and to nothing else.  A split two levels
    below the first whose side1 names a marker added in another branch
    of the document, one its parent does not hold, is rejected."""
    g, e1, e2 = ladder(40, 1)
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    everywhere = {name for _, names in _splits(doc["certificate"]) for name in names}
    split, names = next(
        (split, names)
        for split, names in _splits(doc["certificate"])
        if len(names) >= 2 and names & set(split["side1"])
    )
    stranger = min(everywhere - names)
    side1 = split["side1"]
    side1[side1.index(min(names & set(side1)))] = stranger
    assert verify_certificate(g, e1, e2, doc) == (
        False,
        f"side1: unknown edge reference {stranger!r}",
    )


# --- every reason a split's replay gives ------------------------------------

# a small document per part, its top split the preprocess root's inner node:
# part 1 nests two more part-1 splits a side, part 2 keeps side 1 with an
# empty switch, part 3 keeps side 2 and records the negative cycle (0, 6, 3, 7)
_SPLIT_INSTANCES = {
    1: lambda: ladder(6, 1),
    2: lambda: (helpers.two_k4_on_boundary(), 4, 0),
    3: lambda: compose_tied_instance(Splice(Leaf("case1"), balanced=False), 0),
}


def _split_doc(part):
    g, e1, e2 = _SPLIT_INSTANCES[part]()
    doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
    assert doc["certificate"]["inner"]["part"] == part
    assert verify_certificate(g, e1, e2, doc) == (True, "ok")
    return g, e1, e2, doc


def _set(node, path, value):
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


# below a part-1 split: the first child's split, and that split's second child
_C0 = ("children", 0, "node")
_C01 = (*_C0, "children", 1)

def _marker_split(side1, side2):
    return {"kind": "split", "part": 1, "boundary": [0, 3], "side1": side1, "side2": side2}


# (part, [(path from the top split, new value)], reason); every case but
# those marked is a single-field mutation of _split_doc(part)
SPLIT_REASONS = {
    "part-unknown": (1, [(("part",), 4)], "split: unknown part 4"),
    "part-true": (1, [(("part",), True)], "split: unknown part True"),
    "side1-type": (
        1, [(("side1", 0), True)], "side1: edge reference is neither an int nor a string"
    ),
    "side1-unknown": (1, [(("side1", 0), 99)], "side1: unknown edge reference 99"),
    "side1-not-a-list": (
        1, [(("side1",), 5)], "malformed certificate: TypeError(\"'int' object is not iterable\")"
    ),
    "side2-type": (
        1, [(("side2", 0), None)], "side2: edge reference is neither an int nor a string"
    ),
    "side2-unknown": (1, [(("side2", 0), "m9")], "side2: unknown edge reference 'm9'"),
    "side2-repeats": (1, [(("side2", 0), 0)], "split: sides do not partition the edges"),
    # two fields: one side takes every edge
    "empty-side": (
        1,
        [(("side1",), [0, 1, 2, 6, 7, 11, 12, 13, 3, 4, 5, 8, 9, 10, 14, 15]), (("side2",), [])],
        "split: empty side",
    ),
    "boundary-type": (
        1, [(("boundary", 1), True)], "split boundary: vertex reference is not an int"
    ),
    "boundary-unknown": (
        1, [(("boundary", 1), 99)], "split boundary: unknown vertex reference 99"
    ),
    "boundary-short": (
        1,
        [(("boundary",), [2])],
        "malformed certificate: ValueError('not enough values to unpack (expected 2, got 1)')",
    ),
    "boundary-coincide": (1, [(("boundary", 1), 2)], "split: boundary vertices coincide"),
    "boundary-meet": (
        1, [(("boundary", 1), 8)], "split: sides meet outside the boundary pair"
    ),
    # crafted nodes: the child's split puts one of its two markers, each
    # between the boundary pair, on a side of its own
    "not-proper-side1": (
        3, [(_C0, _marker_split(["m0"], [*range(8), "m1"]))], "split: separation is not proper"
    ),
    "not-proper-side2": (
        3, [(_C0, _marker_split([*range(8), "m0"], ["m1"]))], "split: separation is not proper"
    ),
    "part1-children": (1, [(("children",), None)], "part 1 needs two children"),
    "part1-child-not-a-dict": (
        1,
        [(("children", 0), None)],
        "malformed certificate: AttributeError(\"'NoneType' object has no attribute 'get'\")",
    ),
    "marker-sign": (
        1,
        [(("children", 0, "markers", 0, "sign"), -1)],
        "part 1: child markers must carry the signs [1]",
    ),
    "marker-sign-true": (
        1,
        [(("children", 1, "markers", 0, "sign"), True)],
        "part 1: child markers must carry the signs [1]",
    ),
    "marker-ends-type": (
        1,
        [(("children", 0, "markers", 0, "u"), True)],
        "marker ends: vertex reference is not an int",
    ),
    "marker-ends-unknown": (
        1,
        [(("children", 0, "markers", 0, "v"), 99)],
        "marker ends: unknown vertex reference 99",
    ),
    "marker-ends-boundary": (
        1,
        [(("children", 0, "markers", 0, "u"), 3)],
        "marker endpoints differ from the split boundary",
    ),
    "marker-name-int": (
        1,
        [(("children", 0, "markers", 0, "name"), 5)],
        "marker name 5 is not a fresh string",
    ),
    "marker-name-stale": (
        1,
        [((*_C0, "children", 0, "markers", 0, "name"), "m0")],
        "marker name 'm0' is not a fresh string",
    ),
    "pair-short": (1, [(("children", 0, "pair"), [0])], "child: malformed pair"),
    "pair-repeats": (1, [(("children", 0, "pair", 1), 0)], "child: malformed pair"),
    "pair-type": (
        1,
        [(("children", 0, "pair", 0), True)],
        "child pair: edge reference is neither an int nor a string",
    ),
    "pair-unknown": (
        1, [(("children", 0, "pair", 0), 5)], "child pair: unknown edge reference 5"
    ),
    "pair-no-marker": (
        1, [(("children", 0, "pair", 1), 1)], "part 1: pair must end with the marker"
    ),
    "pair-uncovered": (
        1, [(("children", 0, "pair", 0), 1)], "part 1: children do not cover the pair"
    ),
    "removed-type": (
        1,
        [((*_C01, "removed", 0), True)],
        "removed: edge reference is neither an int nor a string",
    ),
    "removed-unknown": (
        1, [((*_C01, "removed", 0), 99)], "removed: unknown edge reference 99"
    ),
    "removed-distinguished": (
        1, [((*_C01, "removed", 0), "m0")], "removed: lists a distinguished edge"
    ),
    "removed-not-parallel": (
        1, [((*_C01, "removed", 0), 2)], "removed: edge 2 is not parallel to the pair"
    ),
    "kept-unknown": (2, [(("kept",), 3)], "split: bad kept side 3"),
    "kept-true": (2, [(("kept",), True)], "split: bad kept side True"),
    "kept-drops-the-pair": (
        2, [(("kept",), 2)], "split: kept side must contain both distinguished edges"
    ),
    "part2-children": (2, [(("children",), [])], "parts 2 and 3 take a single child"),
    "part2-pair": (
        2,
        [(("children", 0, "pair"), [0, 4])],
        "split: child pair must repeat the distinguished pair",
    ),
    "switch-missing": (2, [(("switch",), None)], "part 2: missing resign switch"),
    "switch-type": (2, [(("switch",), [True])], "resign switch: vertex reference is not an int"),
    "switch-unknown": (2, [(("switch",), [99])], "resign switch: unknown vertex reference 99"),
    "switch-breaks-balance": (
        2, [(("switch",), [4])], "part 2: discarded side is not all-positive after the switch"
    ),
    "part2-marker-sign": (
        2,
        [(("children", 0, "markers", 0, "sign"), -1)],
        "part 2: child markers must carry the signs [1]",
    ),
    "cycle-missing": (3, [(("neg_cycle",), None)], "part 3: missing negative cycle"),
    "cycle-type": (
        3,
        [(("neg_cycle", "edges", 0), True)],
        "neg_cycle: edge reference is neither an int nor a string",
    ),
    "cycle-unknown": (3, [(("neg_cycle", "edges", 0), 99)], "neg_cycle: unknown edge reference 99"),
    "cycle-leaves": (
        3, [(("neg_cycle", "edges", 0), 0)], "part 3: cycle leaves the discarded side"
    ),
    "cycle-not-closed": (
        3, [(("neg_cycle", "edges"), [8, 9, 10])], "edge set is not 2-regular on its vertices"
    ),
    "cycle-positive": (
        3, [(("neg_cycle", "edges"), [8, 12, 10])], "part 3: recorded cycle is not negative"
    ),
    "cycle-vertices-type": (
        3,
        [(("neg_cycle", "vertices", 0), True)],
        "neg_cycle vertices: vertex reference is not an int",
    ),
    "cycle-vertices-unknown": (
        3,
        [(("neg_cycle", "vertices", 0), 99)],
        "neg_cycle vertices: unknown vertex reference 99",
    ),
    "cycle-vertices": (
        3, [(("neg_cycle", "vertices", 0), 1)], "part 3: cycle vertices mismatch"
    ),
    "part3-marker-signs": (
        3,
        [(("children", 0, "markers", 1, "sign"), 1)],
        "part 3: child markers must carry the signs [-1, 1]",
    ),
    # two faults in one list: each list is read in one pass, so the
    # earlier entry names the fault, and every entry of ``removed`` is
    # read before any is checked against the pair
    "unknown-before-type": (
        1, [(("side1", 0), 99), (("side1", 1), True)], "side1: unknown edge reference 99"
    ),
    "removed-unknown-after-unparallel": (
        1, [((*_C01, "removed"), [2, 99])], "removed: unknown edge reference 99"
    ),
}


@pytest.mark.parametrize("case", SPLIT_REASONS)
def test_each_split_reason_is_given_verbatim(case):
    """Each reason the split replay and its reference readers give, from
    a document with one field changed (two, or one crafted node, where
    marked): the exact result, so a rework that moves a check or rewords
    a reason shows here."""
    part, edits, reason = SPLIT_REASONS[case]
    g, e1, e2, doc = _split_doc(part)
    for path, value in edits:
        _set(doc["certificate"]["inner"], path, value)
    assert verify_certificate(g, e1, e2, doc) == (False, reason)


# --- every field replaced by a value of the wrong type ----------------------

_STAND_INS = (None, True, 1.0, "x", [], {})

# the split fields a part does not read
_UNREAD = {1: {"kept", "switch", "neg_cycle"}, 2: {"neg_cycle"}, 3: {"switch"}}


def _fields(node, path=()):
    """The path of every field below the top of a document: each dict
    value and each list entry."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*path, key)
        if isinstance(value, (dict, list)):
            yield from _fields(value, (*path, key))


def _harmless(doc, path, new):
    """Whether replacing the field at ``path`` by ``new`` leaves the
    document meaning what it did: one empty value for another, an
    unknown common sign, a fresh marker name nothing refers to, or a
    field the split's part does not read."""
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    field = path[-1]
    old = holder[field]
    return (
        (old in (None, []) and new in (None, [], {}))
        or (field == "common_sign" and new is None)
        or (field == "name" and new == "x")
        or (
            isinstance(holder, dict)
            and holder.get("kind") == "split"
            and field in _UNREAD[holder["part"]]
        )
    )


@pytest.mark.parametrize("part", _SPLIT_INSTANCES)
def test_a_field_of_the_wrong_type_is_rejected_and_never_raises(part):
    """Every field of a small document per part (seeded instances: the
    ladder at seed 1, the composed part-3 instance at seed 0), replaced
    in turn by null, true, 1.0, "x", [] and {}: verify returns a result,
    never raises, and accepts only where the document's meaning is
    unchanged; every rejection has a reason."""
    g, e1, e2, doc = _split_doc(part)
    tried = rejected = 0
    for path in _fields(doc):
        for new in _STAND_INS:
            bad = copy.deepcopy(doc)
            _set(bad, path, new)
            ok, reason = verify_certificate(g, e1, e2, bad)
            tried += 1
            if ok:
                assert reason == "ok"
                assert _harmless(doc, path, new), (path, new)
            else:
                rejected += 1
                assert isinstance(reason, str) and reason and reason != "ok", (path, new)
    assert rejected >= 0.9 * tried
