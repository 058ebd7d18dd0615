"""Verdicts and the certificate document schema.

A decision about an edge pair is reported as a Verdict.  Untied
verdicts carry a pair of opposite-sign witness cycles; tied verdicts
carry a certificate tree that an independent checker can replay
against the input graph without trusting the decision procedure.

Certificates are plain dicts (JSON-ready).  All edge references inside
a certificate are either original edge ids (ints) or marker names
("m0", "m1", ...) for edges introduced across separation boundaries
during the reduction; vertex references are always original vertex
ids.  Marker names are unique within one certificate, and verify
requires each to be fresh within its slice: a string that is neither a
reference of the slice the child is cut from nor the name of another
marker of the same child.  So every reference names one edge.

Node kinds:
  parallel-pair  the two distinguished edges are mutually parallel;
                 their 2-cycle is the unique common cycle
  blocks         the edges lie in different blocks; no common cycle
  preprocess     deletion of edges parallel to the pair, then
                 restriction to the common block; wraps an inner node
  split          one 2-separation reduction step with marker
                 bookkeeping and per-child subtrees
  case1          leaf: both-signs parallel class F with F + pair an
                 exact edge cut, rest balanced
  case2          leaf: pair shares a vertex v, graph minus v balanced
  case3          leaf: graph minus the pair balanced
  enum           small leaf: explicit list of all common cycles
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Cycle, EdgeId, Ref, Sign
from .errors import BadParams

FORMAT = "sg-tied/1"

KIND_TIED = "tied"
KIND_UNTIED = "untied"
KIND_VACUOUS = "tied_vacuous"

NODE_PARALLEL_PAIR = "parallel-pair"
NODE_BLOCKS = "blocks"
NODE_PREPROCESS = "preprocess"
NODE_SPLIT = "split"
NODE_CASE1 = "case1"
NODE_CASE2 = "case2"
NODE_CASE3 = "case3"
NODE_ENUM = "enum"

@dataclass(frozen=True)
class Verdict:
    """Decision outcome for one distinguished edge pair.

    kind "untied":       witness = (positive cycle, negative cycle),
                         both containing the pair.
    kind "tied":         common_sign is the shared sign of all common
                         cycles, witness = (one common cycle of that
                         sign,), certificate = replayable proof tree.
    kind "tied_vacuous": no cycle contains both edges; certificate
                         records why (different blocks).

    decide_tied always sets the sign and witness of a tied verdict; one
    read from a document may lack them, and verify_certificate then
    checks its certificate alone.
    """

    kind: str
    common_sign: Optional[Sign] = None
    witness: tuple[Cycle, ...] = ()
    certificate: Optional[dict] = None
    reason: Optional[str] = None

    @property
    def tied(self) -> bool:
        return self.kind in (KIND_TIED, KIND_VACUOUS)


def cycle_doc(edges: Sequence[Ref], vertices: Sequence[int]) -> dict:
    return {"edges": list(edges), "vertices": list(vertices)}


def parallel_pair_node(sign: Sign) -> dict:
    return {"kind": NODE_PARALLEL_PAIR, "sign": sign}


def blocks_node(removed: list[EdgeId]) -> dict:
    return {"kind": NODE_BLOCKS, "removed": sorted(removed)}


def preprocess_node(removed: list[EdgeId], block: list[EdgeId], inner: dict) -> dict:
    return {
        "kind": NODE_PREPROCESS,
        "removed": sorted(removed),
        "block": sorted(block),
        "inner": inner,
    }


def marker_doc(name: str, u: int, v: int, sign: Sign) -> dict:
    return {"name": name, "u": u, "v": v, "sign": sign}


def child_doc(
    pair: tuple[Ref, Ref],
    markers: list[dict],
    removed: list[Ref],
    node: dict,
) -> dict:
    """One child of a split: its pair, the markers it adds, the edges
    parallel to its pair that it drops (listed in reference order, as
    every edge list of a document is) and its own node."""
    return {
        "pair": list(pair),
        "markers": list(markers),
        "removed": sorted(removed, key=_ref_key),
        "node": node,
    }


def split_node(
    part: int,
    boundary: tuple[int, int],
    side1: list[Ref],
    side2: list[Ref],
    children: list[dict],
    *,
    kept: Optional[int] = None,
    switch: Optional[list[int]] = None,
    neg_cycle: Optional[dict] = None,
) -> dict:
    return {
        "kind": NODE_SPLIT,
        "part": part,
        "boundary": list(boundary),
        "side1": sorted(side1, key=_ref_key),
        "side2": sorted(side2, key=_ref_key),
        "kept": kept,
        "switch": sorted(switch) if switch is not None else None,
        "neg_cycle": neg_cycle,
        "children": children,
    }


def case1_node(f: list[Ref], x: list[int], switch: list[int]) -> dict:
    return {
        "kind": NODE_CASE1,
        "F": sorted(f, key=_ref_key),
        "X": sorted(x),
        "switch": sorted(switch),
    }


def case2_node(v: int, switch: list[int]) -> dict:
    return {"kind": NODE_CASE2, "v": v, "switch": sorted(switch)}


def case3_node(switch: list[int]) -> dict:
    return {"kind": NODE_CASE3, "switch": sorted(switch)}


def enum_node(cycles: list[dict], sign: Optional[Sign]) -> dict:
    # cycles: cycle_doc entries for every common cycle of the leaf pair
    return {"kind": NODE_ENUM, "cycles": cycles, "sign": sign}


def _ref_key(r: Ref) -> tuple[int, int, str]:
    # ints before marker names, each group ordered naturally
    if isinstance(r, bool) or not isinstance(r, int):
        return (1, 0, str(r))
    return (0, r, "")


def verdict_to_doc(v: Verdict, e1: EdgeId, e2: EdgeId) -> dict:
    """Serialize a verdict to one self-describing document."""
    doc: dict = {
        "format": FORMAT,
        "kind": v.kind,
        "e1": e1,
        "e2": e2,
        "common_sign": v.common_sign,
        "witness": [cycle_doc(c.edges, c.vertices) for c in v.witness],
        "certificate": v.certificate,
    }
    if v.reason is not None:
        doc["reason"] = v.reason
    return doc


def _field(d: dict, key: str, kind: type, where: str):
    if key not in d:
        raise BadParams(f"{where} lacks the field {key!r}")
    val = d[key]
    # bool is an int subclass, so JSON true would pass as edge 1
    if not isinstance(val, kind) or (isinstance(val, bool) and kind is not bool):
        raise BadParams(f"{where} has a non-{kind.__name__} field {key!r}")
    return val


def _ids(d: dict, key: str, where: str) -> tuple[int, ...]:
    ids = tuple(_field(d, key, list, where))
    if not all(type(x) is int for x in ids):
        raise BadParams(f"{where} has a non-int entry in {key!r}")
    return ids


def verdict_from_doc(doc: dict) -> tuple[Verdict, EdgeId, EdgeId]:
    """Parse a verdict document back into a Verdict and its edge pair.

    Raises BadParams naming the first required field that is missing or
    of the wrong type.
    """
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise BadParams(f"not a {FORMAT} document")
    kind = doc.get("kind")
    if kind not in (KIND_TIED, KIND_UNTIED, KIND_VACUOUS):
        raise BadParams(f"unknown verdict kind {kind!r}")
    cycles = doc.get("witness", [])
    if not isinstance(cycles, list) or not all(isinstance(c, dict) for c in cycles):
        raise BadParams("witness is not a list of cycles")
    witness = tuple(
        Cycle(_ids(c, "edges", f"witness cycle {i}"), _ids(c, "vertices", f"witness cycle {i}"))
        for i, c in enumerate(cycles, start=1)
    )
    common_sign = doc.get("common_sign")
    if common_sign is not None and (type(common_sign) is not int or common_sign not in (1, -1)):
        raise BadParams("common_sign must be null, 1 or -1")
    v = Verdict(
        kind=kind,
        common_sign=common_sign,
        witness=witness,
        certificate=doc.get("certificate"),
        reason=doc.get("reason"),
    )
    return v, _field(doc, "e1", int, "document"), _field(doc, "e2", int, "document")
