import io
import contextlib
import dataclasses
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import helpers
import sgties.certificate
import sgties.cli
import sgties.decide
from sgties import (
    LoopRejected,
    ParseError,
    SignedGraph,
    decide_tied,
    ladder,
    random_signed_graph,
    verdict_to_doc,
    verify_certificate,
)
from sgties.cli import main, parse, parse_text, serialize, serialize_text
from sgties.core import char_sign, sign_char
from sgties.gen import GADGETS, GenSpec, generate

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
HAT = str(CORPUS / "hat.sg")
K4C3 = str(CORPUS / "k4-case3.sg")
TARGET = str(CORPUS / "target.sg")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


# --- file format ---------------------------------------------------------------


def test_round_trip_text():
    g = random_signed_graph(6, 11, 0.5, seed=8)
    assert parse_text(serialize_text(g)) == g


def test_round_trip_file(tmp_path):
    g = random_signed_graph(5, 9, 0.3, seed=9)
    p = tmp_path / "g.sg"
    serialize(g, str(p), comment="e1=0 e2=1")
    assert parse(str(p)) == g
    assert serialize_text(g, comment="x").startswith("# x\n")


def test_parse_ignores_comments_and_blank_lines():
    g = parse_text("# hello\n\nsg 2 1\n# mid\ne 0 1 -\n\n")
    assert (g.n, g.m) == (2, 1)
    assert g.sign(0) == -1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match=r"line 1: expected header"):
        parse_text("hello\n")
    with pytest.raises(ParseError, match=r"line 2: vertex id outside"):
        parse_text("sg 3 1\ne 0 5 +\n")
    with pytest.raises(ParseError, match=r"line 2: sign must be"):
        parse_text("sg 3 1\ne 0 1 x\n")
    with pytest.raises(ParseError, match=r"header promised 2 edges, found 1"):
        parse_text("sg 3 2\ne 0 1 +\n")
    with pytest.raises(ParseError, match=r"line 3: more than the 1 promised"):
        parse_text("sg 3 1\ne 0 1 +\ne 1 2 -\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("sg x 1\n", "line 1: header counts must be integers"),
        ("sg 3 -1\n", "line 1: header counts must be nonnegative"),
        ("sg 3 1\nf 0 1 +\n", "line 2: expected edge line 'e <u> <v> <+|->'"),
        ("sg 3 1\ne 0 b +\n", "line 2: vertex ids must be integers"),
        ("# only a comment\n", "line 2: missing 'sg <n> <m>' header"),
    ],
    ids=["count", "negative", "edge-line", "vertex", "no-header"],
)
def test_cli_parse_errors_exit_2_with_the_message(tmp_path, text, message):
    p = tmp_path / "g.sg"
    p.write_text(text)
    assert run("decide", str(p), "--e1", "0", "--e2", "1") == (2, "", f"error: {message}\n")


def test_parse_rejects_loops_with_position():
    with pytest.raises(LoopRejected, match=r"line 2"):
        parse_text("sg 3 1\ne 1 1 +\n")


_TRIANGLE = SignedGraph.build(3, [(0, 1, 1), (1, 2, -1)])


@pytest.mark.parametrize(
    "text, want",
    [
        ("sg 3 2\n \t \ne 0 1 +\ne 1 2 -\n", _TRIANGLE),
        ("sg 3 3\n \t \ne 0 1 +\ne 1 2 -\n", (ParseError, 5, "header promised 3 edges, found 2")),
        ("  # note\nsg 3 2\n\t# note\ne 0 1 +\ne 1 2 -\n", _TRIANGLE),
        ("sg 3 2\n  # note\ne 0 0 +\n", (LoopRejected, 3, "loop at vertex 0 rejected")),
        ("sg\t3\t2\ne\t0\t1\t+\ne 1\t2 \t-\n", _TRIANGLE),
        ("sg\t3\t1\ne\t0\t5\t+\n", (ParseError, 2, "vertex id outside 0..2")),
        ("sg 3 1\ne 0 1 +1\n", (ParseError, 2, "sign must be '+' or '-', got '+1'")),
        ("sg 3 1\ne 0 1 + x\n", (ParseError, 2, "expected edge line 'e <u> <v> <+|->'")),
        ("e 0 1 +\nsg 3 1\n", (ParseError, 1, "expected header 'sg <n> <m>'")),
        ("sg 3 1\ne 0 1 +\ne 1 2 -\n", (ParseError, 3, "more than the 1 promised edge lines")),
        ("sg 3 3\ne 0 1 +\ne 1 2 -\n", (ParseError, 4, "header promised 3 edges, found 2")),
    ],
    ids=[
        "blank", "blank-counts", "indented-comment", "indented-comment-counts", "tabs",
        "tabs-range", "sign-plus-one", "five-tokens", "edge-before-header", "one-too-many",
        "one-too-few",
    ],
)
def test_parse_error_table(text, want):
    """Whitespace-only lines and indented comments are skipped but
    counted, tabs separate tokens, and each bad line earns its exact
    message and line number."""
    if isinstance(want, SignedGraph):
        assert parse_text(text) == want
        return
    kind, line, message = want
    with pytest.raises(kind) as info:
        parse_text(text)
    assert type(info.value) is kind
    assert str(info.value) == f"line {line}: {message}"
    if kind is ParseError:
        assert info.value.line == line


_ID_TOKENS = ("-1", "x", "1.0", "True", "0x1", "+1", "01", "1_0", "\u0663")
_SIGN_TOKENS = ("x", "1", "-1", "+-", "\u2212", "++")


def _parse_outcome(text):
    try:
        return parse_text(text)
    except (ParseError, LoopRejected) as exc:
        return type(exc), str(exc)


def _id_outcome(line, n, row):
    """What an edge line with these id tokens earns, in the order the
    parser checks: integers, then the range, then loops."""
    try:
        u, v = int(row[1]), int(row[2])
    except ValueError:
        return ParseError, f"line {line}: vertex ids must be integers"
    if not (0 <= u < n and 0 <= v < n):
        return ParseError, f"line {line}: vertex id outside 0..{n - 1}"
    if u == v:
        return LoopRejected, f"line {line}: loop at vertex {u} rejected"
    return None


def test_parse_accepts_only_what_build_accepts():
    """Seeded one-line mutations of serialized graphs, each on edge line
    k + 2 or in the header's edge count: every text is refused with the
    message its bad line earns, or parses to the graph SignedGraph.build
    makes of its lines, so the parser's own checks leave build nothing
    to refuse."""
    rng = random.Random(24)
    seen = Counter()
    for trial in range(1200):
        n = rng.randint(2, 8)
        g = random_signed_graph(n, rng.randint(1, 12), 0.5, trial)
        rows = [["e", str(e.u), str(e.v), sign_char(e.sign)] for e in g.edges]
        k, m = rng.randrange(g.m), g.m
        line = k + 2
        kind = rng.choice(("id", "loop", "sign", "tokens", "count"))
        if kind == "id":
            rows[k][rng.choice((1, 2))] = rng.choice(_ID_TOKENS + (str(n), str(rng.randrange(n))))
            want = _id_outcome(line, n, rows[k])
        elif kind == "loop":
            rows[k][2] = rows[k][1]
            want = LoopRejected, f"line {line}: loop at vertex {rows[k][1]} rejected"
        elif kind == "sign":
            rows[k][3] = tok = rng.choice(_SIGN_TOKENS)
            want = ParseError, f"line {line}: sign must be '+' or '-', got {tok!r}"
        elif kind == "tokens":
            if rng.random() < 0.5:
                rows[k].append(rng.choice(("+", "0", "#")))
            else:
                rows[k].pop(rng.randrange(1, 4))
            want = ParseError, f"line {line}: expected edge line 'e <u> <v> <+|->'"
        else:
            m += rng.choice((-1, 1))
            if m < g.m:
                want = ParseError, f"line {g.m + 1}: more than the {m} promised edge lines"
            else:
                want = ParseError, f"line {g.m + 2}: header promised {m} edges, found {g.m}"
        got = _parse_outcome(f"sg {n} {m}\n" + "".join(" ".join(r) + "\n" for r in rows))
        if want is None:
            items = [(int(u), int(v), char_sign(s)) for _, u, v, s in rows]
            assert got == SignedGraph.build(n, items), (trial, rows)
        else:
            assert got == want, (trial, rows)
        seen[kind, want is None] += 1
    assert seen["id", True] and seen["id", False]
    assert all(seen[kind, False] for kind in ("loop", "sign", "tokens", "count"))


def test_parse_round_trips_the_corpus_and_every_gen_kind():
    """Every corpus file and every generator kind parses to the graph
    SignedGraph.build makes of the same triples, and back again."""
    graphs = [parse(str(p)) for p in sorted(CORPUS.glob("*.sg"))]
    assert len(graphs) == 4
    specs = [
        GenSpec("random", n=7, m=12, p_neg=0.5, seed=3),
        GenSpec("random_3connected", n=9, p_neg=0.5, seed=2, extra_edges=4),
        GenSpec("exhaustive", n=4, m=5),
        GenSpec("composed_tied", seed=5),
        GenSpec("ladder", n=6, seed=1),
    ] + [GenSpec("gadget", gadget=name) for name in GADGETS]
    for spec in specs:
        graphs.extend(g for g, _ in generate(spec))
    assert len(graphs) > len(specs) + 4
    for g in graphs:
        assert g == SignedGraph.build(g.n, [(e.u, e.v, e.sign) for e in g.edges])
        assert parse_text(serialize_text(g)) == g


# --- decide --------------------------------------------------------------------


def test_cli_decide_untied():
    rc, out, err = run("decide", HAT, "--e1", "2", "--e2", "3")
    assert rc == 1
    assert out == "UNTIED\n"


def test_cli_decide_untied_witness():
    rc, out, _ = run("decide", HAT, "--e1", "2", "--e2", "3", "--witness")
    assert rc == 1
    assert out.splitlines() == ["UNTIED", "cycle + [0,2,3]", "cycle - [1,2,3]"]


def test_cli_decide_tied_negative():
    rc, out, _ = run("decide", K4C3, "--e1", "4", "--e2", "5")
    assert rc == 0
    assert out == "TIED -\n"


def test_cli_decide_tied_witness_lists_common_cycle():
    rc, out, _ = run("decide", K4C3, "--e1", "4", "--e2", "5", "--witness")
    lines = out.splitlines()
    assert lines[0] == "TIED -"
    assert len(lines) == 2
    assert lines[1].startswith("cycle - [")


def test_cli_decide_parallel_pair_label():
    rc, out, _ = run("decide", HAT, "--e1", "0", "--e2", "1")
    assert rc == 0
    assert out == "TIED -\n"


def test_cli_decide_vacuous(tmp_path):
    p = tmp_path / "blocks.sg"
    serialize(helpers.two_triangles_shared_vertex(), str(p))
    rc, out, _ = run("decide", str(p), "--e1", "0", "--e2", "4")
    assert rc == 0
    assert out == "TIED vacuous\n"


def test_cli_decide_same_edge_is_an_error():
    rc, out, err = run("decide", HAT, "--e1", "2", "--e2", "2")
    assert rc == 2
    assert out == ""
    assert err == "error: need two distinct edges, got 2 twice\n"


def test_cli_decide_missing_file():
    rc, out, err = run("decide", "no-such.sg", "--e1", "0", "--e2", "1")
    assert rc == 2
    assert err.startswith("error:")


def test_cli_decide_deep_reduction_never_exits_untied(tmp_path):
    """A 200-rung ladder with the first and last rung as the pair takes
    255 part-1 splits, nested 8 deep.  Seeded signs and the first two
    rungs as the pair make 396 part-2/3 splits, nested 396 deep.
    Running out of stack is an error, not UNTIED."""
    k = 200
    items = [(i, i + 1, 1) for i in range(k - 1)]
    items += [(k + i, k + i + 1, 1) for i in range(k - 1)]
    items += [(i, k + i, 1) for i in range(k)]
    p, q = tmp_path / "ladder.sg", tmp_path / "signed.sg"
    serialize(SignedGraph.build(2 * k, items), str(p))
    first, last = 2 * (k - 1), 2 * (k - 1) + k - 1
    g, rung0, _ = ladder(k, 0)
    serialize(g, str(q))
    for path, e1, e2 in ((p, first, last), (q, rung0, rung0 + 1)):
        rc, out, err = run("decide", str(path), "--e1", str(e1), "--e2", str(e2))
        assert rc in (0, 2)
        if rc == 2:
            assert out == ""
            assert err.startswith("error:")
        else:
            assert out.startswith("TIED")


def test_cli_decide_internal_error_never_exits_untied(monkeypatch):
    """An impossible state is an assertion; it must not read as UNTIED."""

    def broken(*args, **kwargs):
        raise AssertionError("untied leaf lacks an opposite-sign cycle pair")

    monkeypatch.setattr("sgties.cli.decide_tied", broken)
    rc, out, err = run("decide", K4C3, "--e1", "4", "--e2", "5")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert "opposite-sign cycle pair" in err


def test_cli_decide_cut_short_leaf_enumeration_exits_2(monkeypatch, tmp_path):
    """A leaf enumeration that ran out of budget is an error, not a verdict."""
    real = sgties.decide.enumerate_common_cycles
    monkeypatch.setattr(
        sgties.decide,
        "enumerate_common_cycles",
        lambda g, e1, e2: dataclasses.replace(real(g, e1, e2), complete=False),
    )
    p = tmp_path / "c4.sg"
    serialize(helpers.cycle_graph(4), str(p))
    assert run("decide", str(p), "--e1", "0", "--e2", "2") == (
        2,
        "",
        "error: leaf enumeration exceeded its budget\n",
    )


def test_cli_decide_recursion_error_exits_2_not_untied(monkeypatch):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("sgties.cli.decide_tied", too_deep)
    assert run("decide", K4C3, "--e1", "4", "--e2", "5") == (
        2,
        "",
        "error: recursion limit exceeded; the reduction is too deep\n",
    )


# --- certificates ---------------------------------------------------------------


def test_cli_certificate_round_trip(tmp_path):
    cert = tmp_path / "cert.json"
    rc, _, _ = run("decide", K4C3, "--e1", "4", "--e2", "5", "--certificate", str(cert))
    assert rc == 0
    doc = json.loads(cert.read_text())
    assert doc["format"] == "sg-tied/1"
    rc, out, _ = run("verify", K4C3, str(cert))
    assert rc == 0
    assert out == "OK\n"


def test_cli_calls_in_one_process_share_one_parser(tmp_path, monkeypatch):
    """The parser is built once per process.  Each call must still print
    what it prints alone, with no option left over from the call before,
    and reach a handler wrapped after the parser was built."""
    cert = str(tmp_path / "cert.json")
    pair = ("--e1", "2", "--e2", "3")
    calls = [
        ("decide", HAT, *pair, "--witness", "--certificate", cert),
        ("decide", HAT, *pair),
        ("verify", HAT, cert),
    ]
    alone = []
    for argv in calls:
        sgties.cli._build_parser.cache_clear()
        alone.append(run(*argv))
    assert alone[0][1].startswith("UNTIED\ncycle + ")
    assert alone[1] == (1, "UNTIED\n", "")
    assert alone[2] == (0, "OK\n", "")
    sgties.cli._build_parser.cache_clear()
    assert [run(*argv) for argv in calls] == alone
    assert sgties.cli._build_parser.cache_info().misses == 1
    seen = []

    def wrapped(args):
        seen.append(args.command)
        return 0

    monkeypatch.setattr(sgties.cli, "cmd_verify", wrapped)
    assert run(*calls[2]) == (0, "", "")
    assert seen == ["verify"]


@pytest.mark.parametrize(
    "path, e1, e2", [(K4C3, 4, 5), (HAT, 2, 3)], ids=["tied", "untied"]
)
def test_cli_certificate_is_one_compact_sorted_line(tmp_path, path, e1, e2):
    cert = tmp_path / "cert.json"
    run("decide", path, "--e1", str(e1), "--e2", str(e2), "--certificate", str(cert))
    doc = verdict_to_doc(decide_tied(parse(path), e1, e2), e1, e2)
    want = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert cert.read_text(encoding="utf-8") == want


def test_cli_long_ladder_certificate_is_small_and_verifies(tmp_path):
    """160 rungs take 189 splits, nested 8 deep.  The document is one
    compact line, about 0.10 MB; indented, every nested line would pay
    for its depth."""
    k = 160
    g, e1, e2 = ladder(k, 1)
    outer = g.sign(e1) * g.sign(e2)
    for eid in range(k, 3 * k - 2):
        outer *= g.sign(eid)
    p, cert = tmp_path / "ladder.sg", tmp_path / "cert.json"
    serialize(g, str(p))
    rc, out, err = run(
        "decide", str(p), "--e1", str(e1), "--e2", str(e2), "--certificate", str(cert)
    )
    assert (rc, out, err) == (0, "TIED -\n" if outer < 0 else "TIED +\n", "")
    assert cert.stat().st_size < 500_000
    assert run("verify", str(p), str(cert)) == (0, "OK\n", "")


@pytest.mark.parametrize("doubled", [False, True], ids=["tied", "untied"])
def test_cli_1000_rung_ladder_decides_and_verifies_at_the_default_recursion_limit(
    tmp_path, doubled
):
    """A 1,000-rung ladder whose pair is its first and last rung takes
    1,023 part-1 splits, nested 10 deep, each cut at the median straddling
    2-cut.  The plain ladder is tied with a certificate under 1 MB (about
    0.62 MB); the doubled one is untied, and the witnesses its document
    carries verify."""
    g, e1, e2 = ladder(1000, 1, doubled=doubled)
    p, cert = tmp_path / "ladder.sg", tmp_path / "cert.json"
    serialize(g, str(p))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        decided = run(
            "decide", str(p), "--e1", str(e1), "--e2", str(e2), "--certificate", str(cert)
        )
        verified = run("verify", str(p), str(cert))
    finally:
        sys.setrecursionlimit(limit)
    if doubled:
        assert decided == (1, "UNTIED\n", "")
        doc = json.loads(cert.read_text(encoding="utf-8"))
        assert doc["kind"] == "untied" and len(doc["witness"]) == 2
    else:
        assert decided[0] == 0 and decided[1] in ("TIED +\n", "TIED -\n")
        assert cert.stat().st_size < 1_000_000
    assert verified == (0, "OK\n", "")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 14: a pair of adjacent rungs reduces by a chain of "
    "part-2/3 splits, one per rung, and 300 rungs exceed the recursion limit",
)
def test_cli_300_rung_ladder_with_adjacent_rungs_as_the_pair_decides(tmp_path):
    """The pair (0, 1), two adjacent rungs, straddles no 2-cut, so the
    median cut never applies: each split replaces the far end of the
    ladder, and the CLI exits 2 with "recursion limit exceeded"."""
    g, _, _ = ladder(300, 1)
    p = tmp_path / "ladder.sg"
    serialize(g, str(p))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        rc, out, err = run("decide", str(p), "--e1", "0", "--e2", "1")
    finally:
        sys.setrecursionlimit(limit)
    assert (rc, err) == (0, "")


def test_cli_decide_unwritable_certificate_prints_no_verdict(tmp_path):
    """The document is written before the verdict is printed, so a
    failed write never shows a verdict next to exit code 2."""
    bad = tmp_path / "no-such-dir" / "cert.json"
    rc, out, err = run("decide", K4C3, "--e1", "4", "--e2", "5", "--certificate", str(bad))
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("which", ["graph", "certificate"])
def test_cli_non_utf8_file_is_a_parse_error(tmp_path, which):
    good = tmp_path / "cert.json"
    run("decide", K4C3, "--e1", "4", "--e2", "5", "--certificate", str(good))
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfesg 4 6\n")
    if which == "graph":
        results = [
            run("decide", str(bad), "--e1", "4", "--e2", "5"),
            run("verify", str(bad), str(good)),
        ]
    else:
        results = [run("verify", K4C3, str(bad))]
    for rc, out, err in results:
        assert (rc, out) == (2, "")
        assert err == f"error: {which} file {bad} is not UTF-8 text (invalid start byte)\n"


def test_cli_verify_rejects_tampering(tmp_path):
    cert = tmp_path / "cert.json"
    run("decide", K4C3, "--e1", "4", "--e2", "5", "--certificate", str(cert))
    doc = json.loads(cert.read_text())
    doc["common_sign"] = 1
    cert.write_text(json.dumps(doc))
    rc, out, _ = run("verify", K4C3, str(cert))
    assert rc == 1
    assert out.startswith("FAIL: ")


def test_cli_verify_fails_a_certificate_missing_a_node(tmp_path):
    g = SignedGraph.build(
        5, [(0, 1, 1), (1, 2, 1), (2, 0, -1), (0, 3, 1), (3, 4, 1), (4, 0, 1), (1, 3, 1)]
    )
    path, cert = tmp_path / "g.sg", tmp_path / "cert.json"
    serialize(g, str(path))
    assert run("decide", str(path), "--e1", "0", "--e2", "3", "--certificate", str(cert))[0] == 0
    doc = json.loads(cert.read_text())
    del doc["certificate"]["inner"]
    cert.write_text(json.dumps(doc))
    assert run("verify", str(path), str(cert)) == (
        1,
        "FAIL: malformed certificate: KeyError('inner')\n",
        "",
    )


def test_cli_verify_garbage_json(tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text("{nope")
    rc, _, err = run("verify", K4C3, str(cert))
    assert rc == 2
    assert err.startswith("error:")


def test_cli_verify_too_deeply_nested_certificate_is_a_parse_error(tmp_path):
    """json.loads recurses per level; verify runs no reduction, so its
    error names the certificate file, not the reduction."""
    cert = tmp_path / "cert.json"
    cert.write_text('{"a":' * 50000 + "1" + "}" * 50000)
    rc, out, err = run("verify", K4C3, str(cert))
    assert (rc, out) == (2, "")
    assert err == f"error: certificate file {cert} is nested too deeply to read\n"


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda doc: doc.pop("e1"), "error: document lacks the field 'e1'"),
        (
            lambda doc: doc["witness"][1].pop("vertices"),
            "error: witness cycle 2 lacks the field 'vertices'",
        ),
        (
            lambda doc: doc["witness"][0].update(edges=5),
            "error: witness cycle 1 has a non-list field 'edges'",
        ),
        (lambda doc: doc.update(kind="tie"), "error: unknown verdict kind 'tie'"),
        (lambda doc: doc.update(witness={}), "error: witness is not a list of cycles"),
    ],
    ids=["e1", "vertices", "edges-type", "kind", "witness-type"],
)
def test_cli_verify_names_a_missing_or_mistyped_field(tmp_path, damage, message):
    cert = tmp_path / "cert.json"
    run("decide", HAT, "--e1", "2", "--e2", "3", "--certificate", str(cert))
    doc = json.loads(cert.read_text())
    damage(doc)
    cert.write_text(json.dumps(doc))
    rc, out, err = run("verify", HAT, str(cert))
    assert (rc, out) == (2, "")
    assert err.splitlines() == [message]


def test_verify_rejects_a_boolean_edge_id(tmp_path):
    """JSON true is not edge 1, though Python's bool is an int."""
    g = random_signed_graph(6, 10, 0.5, 3)
    v = decide_tied(g, 1, 2)
    assert v.kind == "untied"
    doc = verdict_to_doc(v, 1, 2)
    doc["e1"] = True
    ok, reason = verify_certificate(g, 1, 2, doc)
    assert not ok
    assert "'e1'" in reason
    p, cert = tmp_path / "g.sg", tmp_path / "cert.json"
    serialize(g, str(p))
    cert.write_text(json.dumps(doc))
    rc, out, err = run("verify", str(p), str(cert))
    assert (rc, out) == (2, "")
    assert err.splitlines() == ["error: document has a non-int field 'e1'"]


def test_cli_verify_rejects_a_marker_that_shadows_an_edge(tmp_path):
    p, cert = tmp_path / "g.sg", tmp_path / "cert.json"
    serialize(helpers.forged_marker_graph(), str(p))
    cert.write_text(json.dumps(helpers.forged_marker_document(0)))
    rc, out, err = run("verify", str(p), str(cert))
    assert (rc, err) == (1, "")
    assert out.startswith("FAIL: ") and "marker" in out


def test_cli_verify_parses_the_document_once(tmp_path, monkeypatch):
    cert = tmp_path / "cert.json"
    run("decide", K4C3, "--e1", "4", "--e2", "5", "--certificate", str(cert))
    calls = []
    original = sgties.certificate.verdict_from_doc

    def counting(doc):
        calls.append(doc)
        return original(doc)

    monkeypatch.setattr(sgties.certificate, "verdict_from_doc", counting)
    monkeypatch.setattr(sgties.cli, "verdict_from_doc", counting)
    assert run("verify", K4C3, str(cert)) == (0, "OK\n", "")
    assert len(calls) == 1


def test_cli_untied_certificate_verifies(tmp_path):
    cert = tmp_path / "cert.json"
    rc, _, _ = run("decide", HAT, "--e1", "2", "--e2", "3", "--certificate", str(cert))
    assert rc == 1
    rc, out, _ = run("verify", HAT, str(cert))
    assert (rc, out) == (0, "OK\n")


# --- balance, blocks, oracle, lovasz ---------------------------------------------


def test_cli_balance():
    rc, out, _ = run("balance", HAT)
    assert rc == 1
    assert out == "UNBALANCED witness=[0,1]\n"
    rc, out, _ = run("balance", K4C3)
    assert rc == 1
    assert out == "UNBALANCED witness=[0,1,4]\n"


def test_cli_balance_balanced(tmp_path):
    p = tmp_path / "k4.sg"
    serialize(helpers.k4(), str(p))
    rc, out, _ = run("balance", str(p))
    assert rc == 0
    assert out.startswith("BALANCED")


def test_cli_blocks():
    rc, out, _ = run("blocks", HAT)
    assert rc == 0
    assert out.splitlines() == ["blocks=1 cut_vertices=[]", "block 0: edges=[0,1,2,3]"]


def test_cli_blocks_cut_vertex(tmp_path):
    p = tmp_path / "two.sg"
    serialize(helpers.two_triangles_shared_vertex(), str(p))
    rc, out, _ = run("blocks", str(p))
    lines = out.splitlines()
    assert lines[0] == "blocks=2 cut_vertices=[2]"
    assert len(lines) == 3


def test_cli_oracle():
    rc, out, _ = run("oracle", TARGET, "--e1", "4", "--e2", "5")
    assert rc == 0
    assert out == "cycles=2 pos=1 neg=1 complete=true\n"


def test_cli_oracle_list():
    rc, out, _ = run("oracle", TARGET, "--e1", "4", "--e2", "5", "--list")
    assert out.splitlines() == [
        "cycles=2 pos=1 neg=1 complete=true",
        "cycle - [0,4,2,5]",
        "cycle + [1,4,3,5]",
    ]


def test_cli_lovasz():
    rc, out, _ = run("lovasz", K4C3, "--e1", "0", "--e2", "1", "--e3", "5")
    assert (rc, out) == (1, "NO-CYCLE common_vertex\n")
    rc, out, _ = run("lovasz", K4C3, "--e1", "0", "--e2", "2", "--e3", "4")
    assert (rc, out) == (0, "CYCLE\n")


def test_cli_lovasz_disconnecting(tmp_path):
    p = tmp_path / "prism.sg"
    serialize(helpers.prism(), str(p))
    rc, out, _ = run("lovasz", str(p), "--e1", "6", "--e2", "7", "--e3", "8")
    assert (rc, out) == (1, "NO-CYCLE disconnecting\n")


# --- gen -------------------------------------------------------------------------


def test_cli_gen_exhaustive_count():
    rc, out, _ = run("gen", "--kind", "exhaustive", "--n", "3", "--m", "3", "--simple", "--limit", "0")
    assert rc == 0
    assert out.count("sg ") == 12


def test_cli_gen_is_deterministic():
    a = run("gen", "--kind", "random", "--n", "6", "--m", "9", "--p-neg", "0.5", "--seed", "5")
    b = run("gen", "--kind", "random", "--n", "6", "--m", "9", "--p-neg", "0.5", "--seed", "5")
    assert a == b
    assert a[0] == 0


def test_cli_gen_output_parses_back():
    rc, out, _ = run("gen", "--kind", "random", "--n", "5", "--m", "7", "--seed", "3")
    g = parse_text(out)
    assert (g.n, g.m) == (5, 7)


def test_cli_gen_gadget_records_pair_in_comment():
    rc, out, _ = run("gen", "--kind", "gadget", "--gadget", "target")
    assert out.startswith("# e1=4 e2=5\n")
    assert parse_text(out).m == 6


def test_cli_gen_ladder_batch():
    rc, out, _ = run("gen", "--kind", "ladder", "--n", "7", "--seed", "3", "--limit", "2")
    assert rc == 0
    want = "".join(
        serialize_text(ladder(7, seed)[0], comment="e1=0 e2=6") for seed in (3, 4)
    )
    assert out == want


def test_cli_gen_to_files(tmp_path):
    out_base = tmp_path / "batch.sg"
    rc, out, _ = run(
        "gen", "--kind", "composed_tied", "--seed", "2", "--limit", "3",
        "--out", str(out_base),
    )
    assert rc == 0
    files = sorted(tmp_path.glob("*.sg"))
    assert len(files) == 3
    for f in files:
        parse(str(f))


def test_cli_gen_rejects_bad_params():
    rc, _, err = run("gen", "--kind", "random", "--n", "1", "--m", "2")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("kind", sgties.cli.SEEDED_KINDS)
def test_cli_gen_seeded_kind_rejects_limit_0(kind):
    assert run("gen", "--kind", kind, "--limit", "0") == (
        2,
        "",
        f"error: --limit 0 means no cap, which kind {kind!r} cannot honor\n",
    )


# --- budget ----------------------------------------------------------------------


@pytest.fixture
def deep_untied(tmp_path):
    """Untied across a 2-separation: the witnesses are lifted through it."""
    signs = [1] * 10
    signs[0] = -1
    p = tmp_path / "deep.sg"
    serialize(helpers.two_k4_on_boundary(signs), str(p))
    return str(p)


def test_cli_budget_env(monkeypatch, deep_untied):
    monkeypatch.setenv("SG_BUDGET", "2")
    rc, out, _ = run("oracle", deep_untied, "--e1", "4", "--e2", "9")
    assert rc == 0
    assert out.split()[-1] == "complete=false"


def test_cli_budget_flag_beats_env(monkeypatch, deep_untied):
    monkeypatch.setenv("SG_BUDGET", "2")
    rc, out, _ = run("oracle", deep_untied, "--e1", "4", "--e2", "9", "--budget", "100000")
    assert rc == 0
    assert out.split()[-1] == "complete=true"
    monkeypatch.delenv("SG_BUDGET")
    assert run("oracle", deep_untied, "--e1", "4", "--e2", "9") == (rc, out, "")


def test_cli_budget_rejects_nonsense(monkeypatch):
    monkeypatch.setenv("SG_BUDGET", "zero")
    rc, _, err = run("oracle", HAT, "--e1", "2", "--e2", "3")
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("source", ["flag", "env"])
def test_cli_budget_rejects_negative(monkeypatch, source):
    argv = ["oracle", HAT, "--e1", "2", "--e2", "3"]
    if source == "flag":
        argv += ["--budget", "-5"]
    else:
        monkeypatch.setenv("SG_BUDGET", "-3")
    rc, out, err = run(*argv)
    assert (rc, out) == (2, "")
    assert "must not be negative" in err


def test_cli_budget_zero_is_valid(monkeypatch):
    monkeypatch.setenv("SG_BUDGET", "0")
    rc, out, _ = run("oracle", HAT, "--e1", "2", "--e2", "3")
    assert rc == 0
    assert out.split()[-1] == "complete=false"


def test_cli_decide_takes_no_budget_flag():
    with pytest.raises(SystemExit) as exc:
        run("decide", HAT, "--e1", "2", "--e2", "3", "--budget", "5")
    assert exc.value.code == 2


def test_cli_decide_ignores_the_budget_variable(monkeypatch, deep_untied):
    monkeypatch.setenv("SG_BUDGET", "2")
    rc, out, err = run("decide", deep_untied, "--e1", "4", "--e2", "9", "--witness")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "UNTIED"
    assert len(lines) == 3
    assert lines[1].startswith("cycle + [") and lines[2].startswith("cycle - [")
    assert err == ""


def test_cli_tiny_budget_never_hides_small_witnesses(monkeypatch):
    # the budget variable reaches only the oracle; decide prints the
    # hat's witnesses whatever it holds
    monkeypatch.setenv("SG_BUDGET", "2")
    rc, out, err = run("decide", HAT, "--e1", "2", "--e2", "3", "--witness")
    assert rc == 1
    assert out.splitlines() == ["UNTIED", "cycle + [0,2,3]", "cycle - [1,2,3]"]
