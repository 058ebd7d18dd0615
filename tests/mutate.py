"""Operator mutation analysis of ``src/sgties``, run on a copy of the tree.

A mutant changes one operator in one module: it swaps a comparison
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``in`` and
``not in``, ``is`` and ``is not``), drops a unary minus, swaps
``POSITIVE`` and ``NEGATIVE``, or shifts a slice bound by one either
way.  Comparisons inside ``assert`` statements and anything inside an
f-string are left alone: an assertion checks a result and does not make
it.  The mutants are listed in file and line order, a seeded sample of
them is taken, and each is applied on its own to a copy of the
repository in a temporary directory, never to the working tree:

1. the fast kill suite (``test_golden``, ``test_decide``,
   ``test_connectivity`` and ``test_verify_replay``) runs, stopping at
   the first failure;
2. a mutant that passes it runs full tier-1, and then
   ``tests/pool_digest.py --expect`` with the digests of the unmutated
   copy.

A run that exceeds ten times the unmutated copy's time counts as a
kill.  Each mutant's outcome is printed as it finishes, and each
survivor again at the end, as ``file:line  operator  old -> new``.

Not collected by pytest.  Run from the repository root:

    python tests/mutate.py [--count N] [--seed S] [--list] [TARGET ...]

A TARGET is a module under ``src/sgties``, optionally limited to a line
range, such as ``decide.py`` or ``decide.py:350-460``; the default is
``decide.py``, ``connectivity.py``, ``oracle.py`` and ``balance.py``
whole.  ``--count`` takes that many mutants (default 40, all when there
are fewer) and ``--seed`` seeds the sample (default 1).  ``--list``
prints every mutant of the targets and runs nothing.  It exits 1 when a
mutant survives, else 0.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "sgties"
DEFAULT_TARGETS = ("decide.py", "connectivity.py", "oracle.py", "balance.py")
PYTEST = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider")
FAST = (
    *PYTEST,
    "tests/test_golden.py",
    "tests/test_decide.py",
    "tests/test_connectivity.py",
    "tests/test_verify_replay.py",
)
TIER_1 = (*PYTEST, "--continue-on-collection-errors")
DIGEST = (sys.executable, "tests/pool_digest.py")

_SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
}
_SIGNS = {"POSITIVE": "NEGATIVE", "NEGATIVE": "POSITIVE"}


class Mutant(NamedTuple):
    """One operator change: the source span it replaces, in bytes of
    ``path``'s text, and the text that takes its place."""

    path: Path  # relative to the repository root
    line: int
    start: int
    end: int
    replacement: str
    operator: str
    old: str
    new: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}  {self.operator}  {self.old} -> {self.new}"


def _nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Every node under ``node`` that is outside assert statements and f-strings."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.Assert, ast.JoinedStr)):
            yield from _nodes(child)


def _span(node: ast.expr, text: str) -> str:
    """``text`` in parentheses, padded with the newlines ``node`` spans,
    so that every line after it keeps its number."""
    return f"({text}{chr(10) * (node.end_lineno - node.lineno)})"


def mutants(path: Path, first: int = 1, last: Optional[int] = None) -> list[Mutant]:
    """The mutants of the module at ``path`` (relative to the repository
    root) whose node starts on a line from ``first`` to ``last``."""
    source = (ROOT / path).read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    last = len(starts) if last is None else last

    def at(node, replacement, operator, old, new):
        return Mutant(
            path,
            node.lineno,
            starts[node.lineno - 1] + node.col_offset,
            starts[node.end_lineno - 1] + node.end_col_offset,
            replacement,
            operator,
            old,
            new,
        )

    out = []
    for node in _nodes(ast.parse(source)):
        if not first <= getattr(node, "lineno", 0) <= last:
            continue
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    swapped = ast.Compare(
                        node.left,
                        [*node.ops[:k], _SWAPS[type(op)](), *node.ops[k + 1 :]],
                        node.comparators,
                    )
                    new = ast.unparse(swapped)
                    out.append(at(node, _span(node, new), "compare", ast.unparse(node), new))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            new = ast.unparse(node.operand)
            out.append(at(node, _span(node, new), "minus", ast.unparse(node), new))
        elif isinstance(node, ast.Name) and node.id in _SIGNS and isinstance(node.ctx, ast.Load):
            new = _SIGNS[node.id]
            out.append(at(node, new, "sign", node.id, new))
        elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
            for bound in (node.slice.lower, node.slice.upper):
                if bound is None:
                    continue
                for shift in ("+ 1", "- 1"):
                    new_bound = f"{ast.unparse(bound)} {shift}"
                    shifted = f"{ast.unparse(node.value)}[{_shifted(node.slice, bound, new_bound)}]"
                    out.append(
                        at(bound, _span(bound, new_bound), "slice", ast.unparse(node), shifted)
                    )
    return sorted(out, key=lambda m: (m.line, m.start, m.new))


def _shifted(sl: ast.Slice, bound: ast.expr, new_bound: str) -> str:
    """The slice ``sl`` written out with ``bound`` replaced, for display."""
    parts = [
        "" if b is None else (new_bound if b is bound else ast.unparse(b))
        for b in (sl.lower, sl.upper)
    ]
    if sl.step is not None:
        parts.append(ast.unparse(sl.step))
    return ":".join(parts)


def _target(spec: str) -> tuple[Path, int, Optional[int]]:
    name, _, lines = spec.partition(":")
    if not lines:
        return PACKAGE / name, 1, None
    first, _, last = lines.partition("-")
    return PACKAGE / name, int(first), int(last or first)


class Copy:
    """The repository copied to a temporary directory, with its runs.

    Runs write no bytecode, so a mutant of the same size and time stamp
    as the module it replaces is never read from a stale cache.
    """

    def __init__(self, where: Path):
        self.root = where / "repo"
        shutil.copytree(
            ROOT,
            self.root,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*"
            ),
        )
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"), PYTHONDONTWRITEBYTECODE="1")
        self.limits: dict[str, float] = {}
        self.digests: Optional[list[str]] = None

    def run(self, name: str, cmd: tuple[str, ...]) -> tuple[bool, list[str]]:
        """Whether ``cmd`` passes in the copy, and its output lines.  The
        first run of each ``name`` is the unmutated baseline: it must
        pass, and sets that name's time limit."""
        t = time.perf_counter()
        try:
            res = subprocess.run(
                cmd,
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=self.limits.get(name),
            )
        except subprocess.TimeoutExpired:
            return False, [f"timed out after {self.limits[name]:.0f} s"]
        lines = res.stdout.strip().splitlines() or [""]
        if name not in self.limits:
            if res.returncode != 0:
                sys.exit(f"the unmutated copy fails {name}: {lines[-1]}\n{res.stderr}")
            self.limits[name] = 10 * (time.perf_counter() - t) + 30
        return res.returncode == 0, lines

    @contextlib.contextmanager
    def applied(self, mutant: Mutant) -> Iterator[None]:
        """The copy with ``mutant`` written into its module."""
        path = self.root / mutant.path
        original = path.read_bytes()
        path.write_bytes(original[: mutant.start] + mutant.replacement.encode() + original[mutant.end :])
        try:
            yield
        finally:
            path.write_bytes(original)

    def outcome(self, mutant: Mutant) -> str:
        """What kills ``mutant`` in the copy, or "survived"."""
        with self.applied(mutant):
            ok, out = self.run("fast", FAST)
        if not ok:
            return f"killed by the fast suite: {out[-1]}"
        if self.digests is None:
            # the unmutated baselines, run for the first mutant that needs them
            self.run("tier-1", TIER_1)
            self.digests = self.run("digest", DIGEST)[1][0].split()[1:3]
        with self.applied(mutant):
            ok, out = self.run("tier-1", TIER_1)
            if not ok:
                return f"killed by tier-1: {out[-1]}"
            ok, out = self.run("digest", (*DIGEST, "--expect", *self.digests))
            if not ok:
                return f"killed by the pool digest: {out[0]}"
        return "survived"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("targets", nargs="*", default=DEFAULT_TARGETS, metavar="TARGET")
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args(argv)
    pool = [m for spec in args.targets for m in mutants(*_target(spec))]
    if args.list:
        for m in pool:
            print(m)
        print(f"{len(pool)} mutants")
        return 0
    chosen = sorted(
        random.Random(args.seed).sample(pool, min(args.count, len(pool))),
        key=lambda m: (str(m.path), m.line, m.start, m.new),
    )
    survivors = []
    with tempfile.TemporaryDirectory(prefix="sgties-mutate-") as where:
        copy = Copy(Path(where))
        print(f"unmutated fast suite: {copy.run('fast', FAST)[1][-1]}", flush=True)
        for k, m in enumerate(chosen, start=1):
            t = time.perf_counter()
            result = copy.outcome(m)
            print(f"[{k}/{len(chosen)}] {m}\n    {result} ({time.perf_counter() - t:.0f} s)", flush=True)
            if result == "survived":
                survivors.append(m)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed; survivors:")
    for m in survivors:
        print(f"  {m}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
