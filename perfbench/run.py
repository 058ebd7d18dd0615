"""Decide/verify benchmark for sgties.

Run from the repository root:

    python3 perfbench/run.py --workload flat3c --seed 1 --seconds 36 --trace 0

The benchmark drives the command line front end in-process, one
instance at a time: a closed loop with one client and no threads.  Each
instance is written as a graph file, decided with ``sgties decide FILE
--e1 A --e2 B --certificate OUT``, and the document is checked with
``sgties verify FILE OUT``.  Every op is checked against the answer
known from the instance's construction.  A run takes a fixed pool of
instances made from the seed, so the ops it attempts, and the ones that
fail, are the same on every run with that seed; it then repeats the
pool while time is left, and every repeat must print and write what the
first pass did.  The default witness budget and the default recursion
limit stay in force, so defects that depend on them are counted, not
hidden.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs each
instance once plain and once under the span tracer, requires both runs
to print the same verdicts and write byte-identical certificates, and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "sgties" / "cli.py").is_file():
    sys.exit(f"perfbench: no sgties package under {SRC}")
sys.path.insert(0, str(SRC))

from sgties import cli  # noqa: E402
from sgties.certificate import KIND_TIED, KIND_UNTIED, KIND_VACUOUS  # noqa: E402

from spans import CertCounts, Tracer  # noqa: E402
from workloads import CYCLE, WORKLOADS, Instance, instance, pool_size  # noqa: E402

SETUP_RUNS = 41
ROUND_SECONDS = 2.0  # shortest round of a block; a traced round repeats it

# On a machine shared with other tenants the same Python work runs 20%
# or more slower for seconds to minutes at a time.  Right before and
# right after every timed op the benchmark times REF_LOOPS of fixed dict
# churn, and scales the op's time by REF_SECONDS / (the mean of the two
# reference times): times read as they would with the reference at
# REF_SECONDS, its median on an idle 2-vCPU Xeon at 2.1 GHz under
# CPython 3.11.  Load from outside then cancels, while a change to
# sgties moves only the op times.  The raw medians and the median
# reference time are printed too.
REF_LOOPS = 16000
REF_SECONDS = 0.0022

# first line of decide's output -> (verdict kind, printed sign)
PRINTED = {
    "UNTIED": (KIND_UNTIED, None),
    "TIED vacuous": (KIND_VACUOUS, None),
    "TIED +": (KIND_TIED, 1),
    "TIED -": (KIND_TIED, -1),
    "TIED unknown-sign": (KIND_TIED, None),
}

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sgties.cli
build = getattr(sgties.cli, "_build_parser", None)
if build is not None:
    build()
print(time.perf_counter() - t0)
"""


def reference_seconds() -> float:
    """Wall time of a fixed piece of pure-Python work, right now."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(REF_LOOPS):
        d[i % 977] = d.get(i % 977, 0) + i
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Op:
    """One CLI call: exit code (None when it raised), stdout, wall time,
    and the mean of the reference times taken just before and after it."""

    code: Optional[int]
    out: str
    seconds: float
    error: Optional[str]
    ref_seconds: float

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * REF_SECONDS / self.ref_seconds

    @property
    def first_line(self) -> str:
        return self.out.split("\n", 1)[0]


def call_cli(argv: list[str]) -> Op:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    ref = reference_seconds()
    # each CLI call starts with no garbage and no young objects, as in
    # a fresh process; freezing keeps the benchmark's own records out of
    # every collection the call triggers
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # a failed op; the loop goes on
        error = f"{type(exc).__name__}: {str(exc)[:80]}"
    seconds = time.perf_counter() - t0
    ref = (ref + reference_seconds()) / 2
    return Op(code, out.getvalue(), seconds, error, ref)


@dataclass(frozen=True)
class Result:
    """One instance taken through decide and, when a document was
    written, verify.  A failure names the op it is counted against."""

    decide: Op
    verify: Optional[Op]
    cert_digest: str  # sha256 of the document; "" when none was written
    cert_size: int
    decide_failure: Optional[str]
    verify_failure: Optional[str]
    wrong: bool  # the printed verdict or sign contradicts the known answer
    printed: Optional[tuple[str, Optional[int]]]

    @property
    def scaled_seconds(self) -> float:
        v = self.verify
        return self.decide.scaled_seconds + (v.scaled_seconds if v else 0.0)

    def outputs(self) -> tuple:
        """Everything the two CLI calls produced, for run-to-run comparison."""
        v = self.verify
        return (
            self.decide.code,
            self.decide.out,
            self.decide.error,
            self.cert_digest,
            v and (v.code, v.out, v.error),
        )


def _expected_text(inst: Instance) -> str:
    if inst.expect != KIND_TIED:
        return inst.expect
    return {None: "tied", 1: "tied +", -1: "tied -"}[inst.sign]


def run_instance(
    inst: Instance, workdir: Path, counts: Optional[CertCounts] = None
) -> Result:
    """Decide one instance and verify its document; ``counts``, when
    given, walks the document."""
    graph_path = workdir / "g.sg"
    cert_path = workdir / "c.json"
    graph_path.write_text(cli.serialize_text(inst.graph), encoding="utf-8")
    cert_path.unlink(missing_ok=True)
    d = call_cli(
        [
            "decide",
            str(graph_path),
            "--e1",
            str(inst.e1),
            "--e2",
            str(inst.e2),
            "--certificate",
            str(cert_path),
        ]
    )
    printed = PRINTED.get(d.first_line) if d.error is None else None
    wrong = False
    if d.error is not None:
        decide_failure = f"decide raised {d.error}"
    else:
        want_code = 1 if inst.expect == KIND_UNTIED else 0
        wrong = (
            printed is None
            or printed[0] != inst.expect
            or d.code != want_code
            or None not in (printed[1], inst.sign) and printed[1] != inst.sign
        )
        decide_failure = (
            f"decide printed {d.first_line!r} with exit {d.code},"
            f" expected {_expected_text(inst)}"
            if wrong
            else None
        )
    if not cert_path.exists():
        failure = decide_failure or "decide wrote no certificate"
        return Result(d, None, "", 0, failure, None, wrong, printed)
    cert = cert_path.read_bytes()
    if counts is not None:
        counts.add(json.loads(cert))
    v = call_cli(["verify", str(graph_path), str(cert_path)])
    verify_failure = None
    if v.error is not None:
        verify_failure = f"verify raised {v.error}"
    elif v.code == 1:
        decide_failure = decide_failure or (
            f"verify rejected the document: {v.first_line}"
        )
    elif v.code != 0:
        verify_failure = f"verify exited {v.code}: {v.first_line}"
    digest = hashlib.sha256(cert).hexdigest()
    return Result(d, v, digest, len(cert), decide_failure, verify_failure, wrong, printed)


def _quantile(xs: list[float], q: int) -> float:
    """The q-th percentile, interpolated; 0.0 when there are no samples."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def setup_times(runs: int) -> list[tuple[float, float]]:
    """Seconds a fresh interpreter takes to import sgties.cli and build
    its argument parser, each with the mean reference time around it.
    An untimed first run writes the bytecode cache, as any earlier CLI
    call would have."""
    times = []
    for k in range(runs + 1):
        ref = reference_seconds()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if k:
            times.append((float(proc.stdout), (ref + reference_seconds()) / 2))
    return times


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sgties").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def measure(
    workload: str,
    seed: int,
    seconds: float,
    workdir: Path,
    rounds,
    counts: Optional[CertCounts] = None,
) -> list[tuple[bool, list[Result]]]:
    """Every instance's results, one per round, for about ``seconds``,
    each flagged with whether it is the instance's first pass.

    The run takes a fixed pool of ``pool_size`` instances, all of them
    at least once, and then starts over from the first while time is
    left.  Instances run in blocks of whole 2:1 mix cycles.  A block
    grows while its first round lasts under ROUND_SECONDS; each later
    round runs the whole block again.  ``rounds`` holds the context each
    round runs in; ``counts`` walks the documents of the first pass.  A
    new block starts while the pool is unfinished or at least half of
    one more block fits in the time left.
    """
    size = pool_size(workload, seconds, len(rounds))
    pool: list[Instance] = []
    out: list[tuple[bool, list[Result]]] = []
    deadline = time.perf_counter() + seconds
    block_s = 0.0
    while len(out) < size or time.perf_counter() + block_s / 2 <= deadline:
        t0 = time.perf_counter()
        block: list[tuple[Instance, bool, list[Result]]] = []
        with rounds[0]:
            while len(block) % CYCLE or time.perf_counter() < t0 + ROUND_SECONDS:
                k = len(out) + len(block)
                first = k < size
                if first:
                    pool.append(instance(workload, seed, k))
                inst = pool[k % size]
                walk = counts if first else None
                block.append((inst, first, [run_instance(inst, workdir, walk)]))
        for ctx in rounds[1:]:
            with ctx:
                for inst, _, results in block:
                    results.append(run_instance(inst, workdir))
        out.extend((first, results) for _, first, results in block)
        block_s = time.perf_counter() - t0
    return out


def summarize(runs: list[tuple[bool, list[Result]]]) -> dict:
    """Op counts over every round of the pool's first pass.  Any other
    run of an instance, a repeat or a traced round, whose outputs differ
    from the instance's first run counts as a mismatch."""
    passes = [rs for first, rs in runs if first]
    flat = [r for results in passes for r in results]
    tied = [r for r in flat if r.printed is not None and r.printed[0] == KIND_TIED]
    reasons = Counter(why for r in flat for why in (r.decide_failure, r.verify_failure) if why)
    size = len(passes)
    mismatched = 0
    for k, (first, results) in enumerate(runs):
        want = passes[k % size][0].outputs()
        mismatched += sum(r.outputs() != want for r in results[1 if first else 0 :])
    return {
        "instances": size,
        "attempted": len(flat) + sum(r.verify is not None for r in flat),
        "failed": sum(r.decide_failure is not None for r in flat)
        + sum(r.verify_failure is not None for r in flat),
        "wrong": sum(r.wrong for r in flat),
        "mismatched": mismatched,
        "tied": len(tied),
        "sign_missing": sum(r.printed[1] is None for r in tied),
        "reasons": reasons,
    }


def end_to_end(
    runs: list[tuple[bool, list[Result]]], s: dict, setup: list[tuple[float, float]]
) -> tuple[dict[str, tuple[float, str]], dict[str, tuple[float, str]]]:
    """The gated metrics of the JSON result, and the ones printed beside
    them.

    On flat3c about one instance in six exhausts a witness search and
    takes several times as long as the rest.  The 90th percentile of
    decide sits on the edge of that group, and a mean-based rate moves
    with its share, so both swing by more than any bound from seed to
    seed; they are printed only.  So are the ratios: they are 0 on most
    workloads, where a bound relative to the parent means nothing, and
    the JSON carries the failure count.  The raw times are medians
    before the reference scaling.  Times come from every plain run of an
    instance, repeats too; certificate sizes from the first pass.
    """
    dec = [rs[0].decide for _, rs in runs]
    ver = [rs[0].verify for _, rs in runs if rs[0].verify is not None]
    dec_s = [op.scaled_seconds for op in dec]
    ver_s = [op.scaled_seconds for op in ver]
    certs = [rs[0].cert_size for first, rs in runs if first and rs[0].verify is not None]
    gated = {
        "decide_s.p50": (_quantile(dec_s, 50), "s"),
        "verify_s.p50": (_quantile(ver_s, 50), "s"),
        "verify_s.p90": (_quantile(ver_s, 90), "s"),
        "setup_s": (statistics.median(t * REF_SECONDS / ref for t, ref in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cert_bytes.mean": (statistics.fmean(certs) if certs else 0.0, "bytes"),
    }
    printed = {
        "decide_s.p90": (_quantile(dec_s, 90), "s"),
        "instances_per_s": (len(runs) / (sum(dec_s) + sum(ver_s)), "1/s"),
        **ratios(s),
        "raw.decide_s.p50": (_quantile([op.seconds for op in dec], 50), "s"),
        "raw.verify_s.p50": (_quantile([op.seconds for op in ver], 50), "s"),
        "raw.setup_s": (statistics.median(t for t, _ in setup), "s"),
        "ref_s.p50": (statistics.median(op.ref_seconds for op in dec + ver), "s"),
    }
    return gated, printed


def ratios(s: dict) -> dict[str, tuple[float, str]]:
    return {
        "failed_ratio": (s["failed"] / s["attempted"], "ratio"),
        "sign_missing_ratio": (s["sign_missing"] / s["tied"] if s["tied"] else 0.0, "ratio"),
    }


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("SG_BUDGET", None)

    print(
        f"perfbench workload={args.workload} seed={args.seed}"
        f" seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}"
        f" commit={commit()} src_sha256={src_digest()}"
    )
    setup = [] if args.trace else setup_times(SETUP_RUNS)
    tracer, counts = Tracer(), CertCounts()
    rounds = (contextlib.nullcontext(), tracer) if args.trace else (contextlib.nullcontext(),)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runs = measure(args.workload, args.seed, args.seconds, Path(tmp), rounds, counts)

    s = summarize(runs)
    n, pool = len(runs), s["instances"]
    if args.trace:
        plain_s = sum(rs[0].scaled_seconds for _, rs in runs)
        traced_s = sum(rs[1].scaled_seconds for _, rs in runs)
        refs = [op.ref_seconds for _, rs in runs for op in (rs[1].decide, rs[1].verify) if op]
        metrics = tracer.metrics(n, REF_SECONDS / statistics.median(refs))
        metrics.update(counts.metrics(pool))
        metrics.update(ratios(s))
        metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "ratio")
        print(f"samples: instances={pool} plain_runs={n} traced_runs={n}")
        shown = metrics
    else:
        metrics, printed = end_to_end(runs, s, setup)
        n_verify = sum(rs[0].verify is not None for _, rs in runs)
        print(
            f"samples: instances={pool} decide={n} verify={n_verify} setup={len(setup)}"
        )
        shown = {**metrics, **printed}
    print(
        f"ops: attempted={s['attempted']} failed={s['failed']} wrong={s['wrong']}"
        f" mismatched_runs={s['mismatched']}"
        f" tied_verdicts={s['tied']} unknown_sign={s['sign_missing']}"
    )
    for why, k in s["reasons"].most_common():
        print(f"failure x{k}: {why}")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": s["wrong"] == 0 and s["mismatched"] == 0,
                "attempted": s["attempted"],
                "failed": s["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
