"""Golden certificates: decide output pinned byte for byte.

Each case is a fixed, seeded instance; the test hashes the JSON of its
verdict document (keys sorted) and compares with a recorded digest, so
any change to verdicts, witnesses or certificates fails here.  A second
table pins each document with its witness removed, so a change that
only picks other witness cycles re-pins the first table and leaves the
second untouched.  The list
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
    ladder,
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
        "c777e2bf7b66556b93c28a44a31ab587156a8e550d8e839a710bc70ea028075f",
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
        "fa77268c71b475e49fd414c0c30084547783c907cabf6c7b613cfba6b68115b6",
    ),
    "composed/d3s0": (
        lambda: _composed(3, 0),
        "686374afbf1a6c85848ff54f09b9e19c72904012a3fe0ce195bfbdeb457724a1",
    ),
    "composed/d4s6": (
        lambda: _composed(4, 6),
        "d0ff31ceb91b08e825404f10fa5744e6c6d7095bb751f1849e5f29da6b20c00a",
    ),
    "flat/tied-s0": (
        lambda: _flat(0.0, 0),
        "70fa5b74c184fcd7d27f1774b3b8d61fc82692cb595c3d7d0c662d8b9c292eac",
    ),
    "flat/untied-s0": (
        lambda: _flat(0.5, 0),
        "116dec24e1d22e93ea63e7f5380ee4d22997b2dd335efb8d3ad017ea116cc1dc",
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
    # no child of this case drops an edge parallel to its pair;
    # random/child-removed-s4 reaches that node kind
    "random/child-removed": (
        lambda: _random(9, 9, 10, 6, 7),
        "5b89cd9e79c6153e7952ae19c257d0f51552d29c0681863922f384b27e4224a5",
    ),
    "random/child-removed-s4": (
        lambda: _random(9, 9, 4, 2, 5),
        "89899776c5976cf81d02bc60eb8982c4a6ffb742a66a5cb937d4577390f3b03a",
    ),
    "random/untied-part1": (
        lambda: _random(8, 14, 38, 12, 11),
        "a865340e4a2ce349b6ad08e664f2cb8a768eca7f74c7978701d4b20250da2023",
    ),
    "random/untied-part2": (
        lambda: _random(5, 7, 57, 4, 6),
        "b5e444819e1577e240bce12e0b2a8ff0cce9ad50a260cfd713aca428ad213874",
    ),
    "random/untied-part3": (
        lambda: _random(7, 12, 107, 2, 9),
        "8bd847da2b82656aeddd3b212e8a9df4e59368a18e01d975421e619de1b6894b",
    ),
    # its leaf's second cycle swaps in an ear through the fan of an
    # unbalanced component, the one ear kind no other case reaches
    "random/untied-fan": (
        lambda: _random(6, 14, 3, 2, 5),
        "692fa47bbb52dd8d6cce193c6f102196245c3d8fffc99ac9d575e9b37e00fca8",
    ),
}

# label -> sha256 of the same JSON with the "witness" key removed, so the
# verdict, sign and certificate stay pinned when only a witness changes
BODIES = {
    "composed/d2s10": "1eac9bd57c9a1570956d90eb5f725bfb0d57cc62aa17ae36d13b2c54e55247fe",
    "composed/d3s0": "d0766f1523d1ec6b0f0afdd4df7b1168f18bdc4ef9cc89680e3941369011522a",
    "composed/d4s6": "14a3f30ee8ae027cf3cbe316822111ace44a3989884f055eec2d9b9b0d8e6347",
    "corpus/hat": "3551303928ab6990ff0f392cc5449c12531b05990d105b82b1b4d5292d3388f2",
    "corpus/hedgehog": "dbab81f026228aa4c8456d6f186b75ad73b8c108d7f99a2754bb4ca610ec9498",
    "corpus/k4-case3": "6809da3077bd8fb5f227aebe80bcf45b620bad9a5490faa3b56ad2cce4e77ab0",
    "corpus/target": "52f627bdd3d82b03f055a4d397a59ac8a198388339de85d0392a276bda862d6c",
    "flat/tied-s0": "c931e82edff2780d3fb5577534fc0062e9397d8f17ba08081c9ddd966c3c83af",
    "flat/untied-s0": "383068f79340976b89b51dd5ca899f394d75d95531853ce4eda5ae77d29294c4",
    "random/blocks": "5f655ad70ad49ff828d38f528c8d1a7933d162e2d6a1a0d733bd7fcc65c8a767",
    "random/child-removed": "e9f1ab126d767fe2753c7a7744767f3d2e6f79ee60442836c2b0b1c6b4f76128",
    "random/child-removed-s4": "85191b0e4ce1c60d9d248d5ee97583da513c82ba0541bfd7bdeed041f862f428",
    "random/enum": "97369f6a2e4752a5b56f5b8fc4f6fd3fe7dded63536099eee6eda4c999e7df03",
    "random/parallel-pair": "9c87be40d1d621863132c16f48950e346a0dacf33039000a02c6311d5cb83433",
    "random/untied-part1": "195624033001e12562c367fe79eb0983c80617d7dff3674207cafba50db744af",
    "random/untied-part2": "b686ea8c6f264c615de9b1137c143f8dc36c855e5cf47fa91fa3d7a9700c1c05",
    "random/untied-part3": "33b440b43d957a8dbec9ed19cce2db1e8f01c64ae4251f542cc8cf63001dc7a2",
    "random/untied-fan": "32db3785c1168b0b5f9b273e8742821588aafedf6b9f13d5df84d67957bf9384",
}

# sha256 over the sorted-key JSON verdict documents of ladder(k, s), in the
# order k in (10, 40), s in 0..9, plain then doubled, concatenated
LADDERS = "4343cec2fd76537bc41ef72ce24579a15115c6f40b2ef3418d25b531b04576d3"

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


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(CASES))
def test_verdict_document_is_pinned(label):
    assert _digest(_doc(label)) == CASES[label][1]


@pytest.mark.parametrize("label", sorted(CASES))
def test_verdict_document_body_is_pinned(label):
    doc = _doc(label)
    del doc["witness"]
    assert _digest(doc) == BODIES[label]


def test_cases_reach_every_node_kind():
    seen = set()
    for label in CASES:
        cert = _doc(label)["certificate"]
        if cert is not None:
            _kinds(cert, seen)
    assert seen == ALL_KINDS


def test_ladder_documents_are_pinned():
    """Ladders whose pair is their first and last rung reduce by chains
    of part-1 splits, whose children read their median cuts off a table
    inherited from the split above, oriented as their own common cycle;
    these 40 documents, tied and untied, are pinned together."""
    h = hashlib.sha256()
    for k in (10, 40):
        for s in range(10):
            for doubled in (False, True):
                g, e1, e2 = ladder(k, s, doubled=doubled)
                doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
                h.update(json.dumps(doc, sort_keys=True).encode())
    assert h.hexdigest() == LADDERS


@pytest.mark.parametrize("label", sorted(LIFTED))
def test_untied_witnesses_are_lifted(label):
    g, e1, e2 = CASES[label][0]()
    tree = reduce(g, e1, e2)
    assert isinstance(tree, ReductionSplit) and tree.part == LIFTED[label]
    doc = _doc(label)
    assert doc["kind"] == "untied" and len(doc["witness"]) == 2
