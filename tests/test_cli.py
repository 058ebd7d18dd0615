import io
import contextlib
import json
from pathlib import Path

import pytest

import helpers
import sgties.certificate
import sgties.cli
from sgties import (
    LoopRejected,
    ParseError,
    SignedGraph,
    decide_tied,
    ladder,
    random_signed_graph,
    verdict_to_doc,
)
from sgties.cli import main, parse, parse_text, serialize, serialize_text

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


def test_parse_rejects_loops_with_position():
    with pytest.raises(LoopRejected, match=r"line 2"):
        parse_text("sg 3 1\ne 1 1 +\n")


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
    """A 200-rung ladder with the first and last rung as the pair nests
    about 400 splits; running out of stack is an error, not UNTIED."""
    k = 200
    items = [(i, i + 1, 1) for i in range(k - 1)]
    items += [(k + i, k + i + 1, 1) for i in range(k - 1)]
    items += [(i, k + i, 1) for i in range(k)]
    p = tmp_path / "ladder.sg"
    serialize(SignedGraph.build(2 * k, items), str(p))
    first, last = 2 * (k - 1), 2 * (k - 1) + k - 1
    rc, out, err = run("decide", str(p), "--e1", str(first), "--e2", str(last))
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
    """160 rungs nest 316 splits.  Indentation made every nested line pay
    for its depth (about 70 MB here); the compact line is about 0.43 MB."""
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


def test_cli_verify_garbage_json(tmp_path):
    cert = tmp_path / "cert.json"
    cert.write_text("{nope")
    rc, _, err = run("verify", K4C3, str(cert))
    assert rc == 2
    assert err.startswith("error:")


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
    ],
    ids=["e1", "vertices", "edges-type"],
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
