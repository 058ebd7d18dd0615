"""Command line front end and the on-disk graph format.

Graph files are plain text: a header line "sg <n> <m>" followed by m
edge lines "e <u> <v> <+|->" with 0-based vertex ids.  Edge ids are the
0-based order of the edge lines, so certificates stay meaningful
without a separate id map.  Blank lines and lines starting with "#" are
ignored.

Exit codes everywhere: 0 for tied/success, 1 for untied or another
negative outcome, 2 for any error.  Only the oracle's exhaustive
enumeration is budgeted: SG_BUDGET (an integer) overrides its default
budget, and an explicit --budget flag wins over both.  decide takes no
budget; every verdict it prints comes with its witnesses.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from .balance import is_balanced
from .certificate import (
    KIND_VACUOUS,
    Verdict,
    verdict_from_doc,
    verdict_to_doc,
)
from .connectivity import blocks
from .core import NEGATIVE, POSITIVE, Edge, SignedGraph, sign_char, sign_product
from .decide import decide_tied, lovasz_three_edges
from .errors import BadParams, LoopRejected, ParseError, SgError
from .gen import GenSpec, generate, random_recipe
from .oracle import enumerate_common_cycles, verify_certificate
from .search import DEFAULT_BUDGET, SearchBudget


# --- graph files ------------------------------------------------------------

_SIGNS = {"+": POSITIVE, "-": NEGATIVE}


def parse_text(text: str) -> SignedGraph:
    n: Optional[int] = None
    m: Optional[int] = None
    edges: list[Edge] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split()
        if not tok or tok[0].startswith("#"):
            continue
        if n is None or m is None:
            if tok[0] != "sg" or len(tok) != 3:
                raise ParseError("expected header 'sg <n> <m>'", lineno)
            try:
                n, m = int(tok[1]), int(tok[2])
            except ValueError:
                raise ParseError("header counts must be integers", lineno)
            if n < 0 or m < 0:
                raise ParseError("header counts must be nonnegative", lineno)
            continue
        if tok[0] != "e" or len(tok) != 4:
            raise ParseError("expected edge line 'e <u> <v> <+|->'", lineno)
        try:
            u, v = int(tok[1]), int(tok[2])
        except ValueError:
            raise ParseError("vertex ids must be integers", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex id outside 0..{n - 1}", lineno)
        if u == v:
            raise LoopRejected(f"line {lineno}: loop at vertex {u} rejected")
        s = _SIGNS.get(tok[3])
        if s is None:
            raise ParseError(f"sign must be '+' or '-', got {tok[3]!r}", lineno)
        if len(edges) == m:
            raise ParseError(f"more than the {m} promised edge lines", lineno)
        edges.append(Edge(u, v, s))
    if n is None or m is None:
        raise ParseError("missing 'sg <n> <m>' header", lineno + 1)
    if len(edges) != m:
        raise ParseError(
            f"header promised {m} edges, found {len(edges)}", lineno + 1
        )
    # every line above is checked as SignedGraph.build would check it
    return SignedGraph(n, tuple(edges))


def _read_utf8(path: str, what: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} {path} is not UTF-8 text ({exc.reason})")


def parse(path: str) -> SignedGraph:
    return parse_text(_read_utf8(path, "graph file"))


def serialize_text(g: SignedGraph, *, comment: Optional[str] = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"sg {g.n} {g.m}")
    for e in g.edges:
        lines.append(f"e {e.u} {e.v} {sign_char(e.sign)}")
    return "\n".join(lines) + "\n"


def serialize(g: SignedGraph, path: str, *, comment: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_text(g, comment=comment))


# --- shared bits ------------------------------------------------------------


def _fmt_ids(ids) -> str:
    return "[" + ",".join(str(i) for i in sorted(ids)) + "]"


def _fmt_cycle(edges) -> str:
    # cyclic order as stored, not sorted
    return "[" + ",".join(str(i) for i in edges) + "]"


def _budget_value(args) -> int:
    if args.budget is not None:
        value, source = args.budget, "--budget"
    else:
        env = os.environ.get("SG_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        try:
            value, source = int(env), "SG_BUDGET"
        except ValueError:
            raise ParseError(f"SG_BUDGET must be an integer, got {env!r}")
    if value < 0:
        raise ParseError(f"{source} must not be negative, got {value}")
    return value


def _tied_label(v: Verdict) -> str:
    if v.kind == KIND_VACUOUS:
        return "vacuous"
    return sign_char(v.common_sign)


# --- subcommands ------------------------------------------------------------


def cmd_decide(args) -> int:
    g = parse(args.file)
    v = decide_tied(g, args.e1, args.e2)
    if args.certificate:
        # written before the verdict is printed, so a failed write leaves
        # stdout empty; one compact dumps call runs the C encoder
        text = json.dumps(
            verdict_to_doc(v, args.e1, args.e2), sort_keys=True, separators=(",", ":")
        )
        with open(args.certificate, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if v.tied:
        print(f"TIED {_tied_label(v)}")
    else:
        print("UNTIED")
    if args.witness:
        for c in v.witness:
            print(f"cycle {sign_char(sign_product(g, c.edges))} {_fmt_cycle(c.edges)}")
    return 0 if v.tied else 1


def cmd_balance(args) -> int:
    g = parse(args.file)
    res = is_balanced(g)
    if res.balanced:
        print(f"BALANCED switch={_fmt_ids(res.switch)}")
        return 0
    assert res.negative_cycle is not None
    print(f"UNBALANCED witness={_fmt_ids(res.negative_cycle.edges)}")
    return 1


def cmd_blocks(args) -> int:
    g = parse(args.file)
    bt = blocks(g)
    print(f"blocks={len(bt.blocks)} cut_vertices={_fmt_ids(bt.cut_vertices)}")
    for i, b in enumerate(bt.blocks):
        print(f"block {i}: edges={_fmt_ids(b)}")
    return 0


def cmd_oracle(args) -> int:
    g = parse(args.file)
    rep = enumerate_common_cycles(
        g, args.e1, args.e2, SearchBudget(_budget_value(args))
    )
    flag = "true" if rep.complete else "false"
    print(
        f"cycles={len(rep.cycles)} pos={rep.positive_count}"
        f" neg={rep.negative_count} complete={flag}"
    )
    if args.list:
        for c in rep.cycles:
            print(f"cycle {sign_char(sign_product(g, c.edges))} {_fmt_cycle(c.edges)}")
    return 0


def cmd_lovasz(args) -> int:
    g = parse(args.file)
    res = lovasz_three_edges(g, args.e1, args.e2, args.e3)
    if res.cycle_exists:
        print("CYCLE")
        return 0
    print(f"NO-CYCLE {res.reason}")
    return 1


SEEDED_KINDS = ("random", "random_3connected", "composed_tied", "ladder")


def _gen_spec(args, seed: int) -> GenSpec:
    recipe = None
    if args.kind == "composed_tied":
        recipe = random_recipe(seed, args.depth)
    return GenSpec(
        kind=args.kind,
        n=args.n,
        m=args.m,
        p_neg=args.p_neg,
        seed=seed,
        extra_edges=args.extra_edges,
        simple=args.simple,
        dedup_iso=args.dedup_iso,
        gadget=args.gadget,
        recipe=recipe,
    )


def cmd_gen(args) -> int:
    if args.kind in SEEDED_KINDS:
        # one instance per seed: --limit asks for a batch seeded
        # seed, seed+1, ... rather than capping a one-item stream
        if args.limit < 1:
            raise BadParams(f"--limit 0 means no cap, which kind {args.kind!r} cannot honor")
        stream = (
            item
            for i in range(args.limit)
            for item in generate(_gen_spec(args, args.seed + i))
        )
    else:
        stream = generate(_gen_spec(args, args.seed))
    produced = 0
    for g, pair in stream:
        comment = f"e1={pair[0]} e2={pair[1]}" if pair is not None else None
        if args.out:
            path = args.out
            if args.limit != 1:
                root, ext = os.path.splitext(args.out)
                path = f"{root}-{produced}{ext or '.sg'}"
            serialize(g, path, comment=comment)
            print(f"wrote {path}")
        else:
            sys.stdout.write(serialize_text(g, comment=comment))
        produced += 1
        if args.limit and produced >= args.limit:
            break
    return 0


def cmd_verify(args) -> int:
    g = parse(args.file)
    try:
        doc = json.loads(_read_utf8(args.cert, "certificate file"))
    except RecursionError:
        # json.loads recurses per nesting level; verify itself runs no reduction
        raise ParseError(f"certificate file {args.cert} is nested too deeply to read") from None
    v, e1, e2 = verdict_from_doc(doc)
    ok, reason = verify_certificate(g, e1, e2, v)
    if ok:
        print("OK")
        return 0
    print(f"FAIL: {reason}")
    return 1


# --- wiring -----------------------------------------------------------------


def _add_pair(p: argparse.ArgumentParser) -> None:
    p.add_argument("--e1", type=int, required=True, help="first edge id")
    p.add_argument("--e2", type=int, required=True, help="second edge id")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was, and
    # in-process callers would otherwise pay for a build on every call;
    # each subcommand's handler is cmd_<command>, see main
    top = argparse.ArgumentParser(
        prog="sgties",
        description="decide whether two edges of a signed graph are tied",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="tied / untied verdict with certificate")
    p.add_argument("file", help="graph file")
    _add_pair(p)
    p.add_argument("--certificate", metavar="OUT", help="write certificate JSON here")
    p.add_argument("--witness", action="store_true", help="print witness cycles")

    p = sub.add_parser("balance", help="balance check with switch or witness")
    p.add_argument("file")

    p = sub.add_parser("blocks", help="block decomposition summary")
    p.add_argument("file")

    p = sub.add_parser("oracle", help="exhaustive common-cycle enumeration")
    p.add_argument("file")
    _add_pair(p)
    p.add_argument("--budget", type=int, help="enumeration budget")
    p.add_argument("--list", action="store_true", help="print each cycle")

    p = sub.add_parser("lovasz", help="cycle through three edges test")
    p.add_argument("file")
    _add_pair(p)
    p.add_argument("--e3", type=int, required=True, help="third edge id")

    p = sub.add_parser("gen", help="generate instances")
    p.add_argument(
        "--kind",
        required=True,
        choices=[
            "random", "random_3connected", "exhaustive", "composed_tied", "ladder", "gadget"
        ],
    )
    p.add_argument("--n", type=int, default=6, help="vertices (or n_max, or ladder rungs)")
    p.add_argument("--m", type=int, default=10, help="edges (or m_max)")
    p.add_argument("--p-neg", dest="p_neg", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extra-edges", dest="extra_edges", type=int, default=0)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--dedup-iso", dest="dedup_iso", action="store_true")
    p.add_argument("--gadget", default="hat", choices=["hat", "target", "hedgehog"])
    p.add_argument("--depth", type=int, default=2, help="composition recipe depth")
    p.add_argument("--limit", type=int, default=1, help="max graphs (0 = no cap)")
    p.add_argument("--out", help="output file (indexed when several)")

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("file")
    p.add_argument("cert", help="certificate JSON produced by decide")

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up at call time, not bound into the cached parser, so that a
    # handler wrapped after the first call (as by perfbench's tracer) runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except SgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: bad certificate JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # exit 1 means UNTIED, so a reduction too deep for the stack is an error
        print("error: recursion limit exceeded; the reduction is too deep", file=sys.stderr)
        return 2
    except Exception as exc:
        # likewise for a failed internal assertion or any other defect;
        # traceback is imported here so that startup does not pay for it
        import traceback

        print(f"error: internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
