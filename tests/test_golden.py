"""Golden certificates: decide output pinned byte for byte.

Each case is a fixed, seeded instance; the test hashes the JSON of its
verdict document (keys sorted) and compares with a recorded digest, so
any change to verdicts, witnesses or certificates fails here.  The list
is chosen to reach every certificate node kind and a witness lifted
through each split part; the coverage test keeps it that way.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from sgties import (
    ReductionSplit,
    compose_tied_instance,
    decide_tied,
    random_3_connected,
    random_recipe,
    random_signed_graph,
    reduce,
    verdict_to_doc,
)
from sgties.cli import parse

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _corpus(name):
    path = CORPUS / f"{name}.sg"
    head = path.read_text(encoding="utf-8").splitlines()[0]
    e1, e2 = map(int, re.match(r"# e1=(\d+) e2=(\d+)", head).groups())
    return parse(str(path)), e1, e2


def _composed(depth, seed):
    return compose_tied_instance(random_recipe(seed, depth), seed)


def _flat(p_neg, seed):
    g = random_3_connected(8, 6, p_neg, seed)
    return g, 0, g.m - 1


def _random(n, m, seed, e1, e2):
    return random_signed_graph(n, m, 0.5, seed), e1, e2


# label -> (instance, sha256 of the sorted-key JSON of its verdict document)
CASES = {
    "corpus/hat": (
        lambda: _corpus("hat"),
        "e4bdf919d886af416e3ce8fe4f7c6e4f8682fa94fde013dab65c149ddb65dc77",
    ),
    "corpus/hedgehog": (
        lambda: _corpus("hedgehog"),
        "9f8ac5c2d6397e87e95bc2a22743e9e28966ced025790fc0a9fb451909493246",
    ),
    "corpus/k4-case3": (
        lambda: _corpus("k4-case3"),
        "ee2e9418763050c012a8de7acf18caf57aa2c6083e0b67ed3a96210818aea95a",
    ),
    "corpus/target": (
        lambda: _corpus("target"),
        "e7deea1f7816b5e2cdbd437a7db9451dc373a14afa433c1ded4d5cabb0abc670",
    ),
    "composed/d2s10": (
        lambda: _composed(2, 10),
        "b04da500a4616d9f63cb5de949442bec6d4629246b92dfa012f2d13d96359a77",
    ),
    "composed/d3s0": (
        lambda: _composed(3, 0),
        "16265b5dc2fe19ed5a4bf2d9e386e6da8b36b26c0d2960edb3cde9d5732803bf",
    ),
    "composed/d4s6": (
        lambda: _composed(4, 6),
        "54514c089c15268c6cc55fe248d3b60c53e61c21ac5f49ef0ac42234d7211f3a",
    ),
    "flat/tied-s0": (
        lambda: _flat(0.0, 0),
        "97d6de6cab0445b09f19e3b9b117fea4f177e1f7f77a2207c88304b65b8896fe",
    ),
    "flat/untied-s0": (
        lambda: _flat(0.5, 0),
        "6045a676f53fa48d87c3947508c973b7f4806781b8d14ef94f59bc6629d3e8fb",
    ),
    "random/parallel-pair": (
        lambda: _random(5, 5, 2, 0, 2),
        "240ef0f3eb9a6bf8643be5ebb17f1c1add1198c624bb2a1c86b36ed49f9b5642",
    ),
    "random/blocks": (
        lambda: _random(9, 10, 6, 7, 4),
        "905d485cb672d7831b9beec2ac3d549ebc2aa7ddc53f5cc82bd191186db3e823",
    ),
    "random/enum": (
        lambda: _random(8, 13, 9, 4, 2),
        "5cc894b8f45733cc67977783a24ec96c9a886e2cbbefa13a52f438403031341f",
    ),
    "random/child-removed": (
        lambda: _random(9, 9, 10, 6, 7),
        "185ca8fd7e15d020d1d5bb01a4e3176732f08048729c493fc9954f3e4b2fdbc5",
    ),
    "random/untied-part1": (
        lambda: _random(8, 14, 38, 12, 11),
        "54f8627c8abc64d3e84c210f0ba21c3520621754fbe31894ac9f5473b70a7a5d",
    ),
    "random/untied-part2": (
        lambda: _random(5, 7, 57, 4, 6),
        "b5e444819e1577e240bce12e0b2a8ff0cce9ad50a260cfd713aca428ad213874",
    ),
    "random/untied-part3": (
        lambda: _random(9, 15, 17, 12, 4),
        "f6d22e45de199e59e6f9cc9086e180a363cca5fe01ff0030826cbae03d0bb14a",
    ),
}

# untied cases whose witnesses are lifted through a root split of this part
LIFTED = {"random/untied-part1": 1, "random/untied-part2": 2, "random/untied-part3": 3}

ALL_KINDS = {
    "parallel-pair",
    "blocks",
    "preprocess",
    "preprocess-removed",
    "split1",
    "split2",
    "split3",
    "case1",
    "case2",
    "case3",
    "enum",
    "child-removed",
}


def _doc(label):
    g, e1, e2 = CASES[label][0]()
    return verdict_to_doc(decide_tied(g, e1, e2), e1, e2)


def _kinds(node, out):
    kind = node["kind"]
    if kind == "split":
        out.add(f"split{node['part']}")
        for child in node["children"]:
            if child["removed"]:
                out.add("child-removed")
            _kinds(child["node"], out)
    elif kind == "preprocess":
        out.add("preprocess-removed" if node["removed"] else "preprocess")
        _kinds(node["inner"], out)
    else:
        out.add(kind)
    return out


@pytest.mark.parametrize("label", sorted(CASES))
def test_verdict_document_is_pinned(label):
    text = json.dumps(_doc(label), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CASES[label][1]


def test_cases_reach_every_node_kind():
    seen = set()
    for label in CASES:
        cert = _doc(label)["certificate"]
        if cert is not None:
            _kinds(cert, seen)
    assert seen == ALL_KINDS


@pytest.mark.parametrize("label", sorted(LIFTED))
def test_untied_witnesses_are_lifted(label):
    g, e1, e2 = CASES[label][0]()
    tree = reduce(g, e1, e2)
    assert isinstance(tree, ReductionSplit) and tree.part == LIFTED[label]
    doc = _doc(label)
    assert doc["kind"] == "untied" and len(doc["witness"]) == 2
