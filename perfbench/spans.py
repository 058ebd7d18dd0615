"""Per-layer spans recorded from outside the package.

The tracer swaps selected public functions of ``sgties`` for timing
wrappers, in every ``sgties`` module namespace that holds them (a
function imported with ``from .x import f`` is looked up in the
importer's namespace, so patching only the defining module would miss
those calls).  Nothing under ``src/`` changes.

Each span records its calls and its self time: its own duration minus
the durations of the wrapped spans nested inside it.  Spans that take
a ``SearchBudget`` also record the budget spent and whether the search
finished before the budget ran out.  Spans split by caller carry a
suffix named after the function that called them; the suffix is joined
with ``-`` because metric names cannot hold ``@``.

A name that no longer exists in the package is skipped and reports 0
calls, so later refactors keep the benchmark runnable.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from sgties.search import SearchBudget


@dataclass(frozen=True)
class Span:
    """A wrapped function: metric prefix, home module and function name.

    ``callers`` maps a calling function's name to the suffix its calls
    are reported under; calls from other functions are timed (so they
    count as children of the spans around them) but not reported.
    """

    name: str
    module: str
    func: str
    callers: Optional[dict[str, str]] = None
    search: bool = False

    def labels(self) -> list[str]:
        if self.callers is None:
            return [self.name]
        return [f"{self.name}-{s}" for s in dict.fromkeys(self.callers.values())]


SPANS = (
    Span("cli.cmd_decide", "sgties.cli", "cmd_decide"),
    Span("cli.cmd_verify", "sgties.cli", "cmd_verify"),
    Span("cli.parse_text", "sgties.cli", "parse_text"),
    Span("decide.decide_tied", "sgties.decide", "decide_tied"),
    Span("certificate.verdict_to_doc", "sgties.certificate", "verdict_to_doc"),
    Span("oracle.verify_certificate", "sgties.oracle", "verify_certificate"),
    Span(
        "connectivity.find_proper_2_separation",
        "sgties.connectivity",
        "find_proper_2_separation",
    ),
    Span(
        "connectivity.is_3_connected",
        "sgties.connectivity",
        "is_3_connected",
        callers={"_evaluate_leaf": "decide", "_leaf_preconditions": "verify"},
    ),
    Span("connectivity.blocks", "sgties.connectivity", "blocks"),
    Span("core.parallel_class", "sgties.core", "parallel_class"),
    Span(
        "balance.is_balanced",
        "sgties.balance",
        "is_balanced",
        callers={
            "_split_part23": "split",
            "_try_case1": "leaf",
            "_try_case2": "leaf",
            "_try_case3": "leaf",
        },
    ),
    Span(
        "oracle.find_common_cycle",
        "sgties.oracle",
        "find_common_cycle",
        callers={
            "decide_tied": "tied_sign",
            "_lift_part1": "sibling_lift",
            "_leaf_untied_witness": "leaf_witness",
        },
        search=True,
    ),
    Span(
        "oracle.enumerate_common_cycles",
        "sgties.oracle",
        "enumerate_common_cycles",
        callers={"_evaluate_leaf": "decide", "_replay_enum": "verify"},
        search=True,
    ),
    Span(
        "balance.find_signed_path",
        "sgties.balance",
        "find_signed_path",
        callers={"_marker_path": "marker_lift"},
        search=True,
    ),
)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    budget_spent: int = 0
    complete: int = 0


class Tracer:
    """Installs span wrappers while used as a context manager."""

    def __init__(self, spans=SPANS):
        self.spans = tuple(spans)
        self.stats: dict[str, SpanStats] = {}
        self._open: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, Callable, Callable]] = []
        for span in self.spans:
            home = sys.modules.get(span.module)
            orig = getattr(home, span.func, None)
            if orig is None:
                continue
            wrapper = self._wrap(span, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("sgties"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig, wrapper))

    def __enter__(self) -> "Tracer":
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    def _wrap(self, span: Span, orig: Callable) -> Callable:
        stats = self.stats
        open_spans = self._open
        budget_at = None
        if span.search:
            params = list(inspect.signature(orig).parameters)
            budget_at = params.index("budget") if "budget" in params else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if span.callers is None:
                label = span.name
            else:
                caller = sys._getframe(1).f_code.co_name
                label = f"{span.name}-{span.callers.get(caller, 'other')}"
            budget = None
            if budget_at is not None:
                # an omitted budget becomes the default SearchBudget the
                # function would build itself, so its spending is visible
                if len(args) > budget_at:
                    budget = args[budget_at]
                    if budget is None:
                        budget = SearchBudget()
                        args = args[:budget_at] + (budget,) + args[budget_at + 1 :]
                else:
                    budget = kwargs.get("budget")
                    if budget is None:
                        budget = kwargs["budget"] = SearchBudget()
            spent0 = budget.spent if budget is not None else 0
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                rec = stats.get(label)
                if rec is None:
                    rec = stats[label] = SpanStats()
                rec.calls += 1
                rec.self_s += dt - child
                if budget is not None:
                    rec.budget_spent += budget.spent - spent0
                    rec.complete += not budget.exhausted

        return wrapper

    def metrics(self, instances: int, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-instance span metrics, by name, as (value, unit); self
        times are multiplied by ``scale``."""
        out: dict[str, tuple[float, str]] = {}
        for span in self.spans:
            for label in span.labels():
                rec = self.stats.get(label, SpanStats())
                out[f"{label}.calls"] = (rec.calls / instances, "calls/inst")
                out[f"{label}.self_s"] = (rec.self_s * scale / instances, "s/inst")
                if span.search:
                    out[f"{label}.budget_spent"] = (rec.budget_spent / instances, "steps/inst")
                    # with no call, no search gave up
                    ratio = rec.complete / rec.calls if rec.calls else 1.0
                    out[f"{label}.complete_ratio"] = (ratio, "ratio")
        return out


# --- certificate shape --------------------------------------------------------

SPLIT_PARTS = (1, 2, 3)
LEAF_KINDS = ("case1", "case2", "case3", "enum", "parallel-pair", "blocks")


@dataclass
class CertCounts:
    """Node kinds and split depth summed over emitted documents."""

    nodes: Counter = field(default_factory=Counter)
    depth_max: int = 0

    def add(self, doc: dict) -> None:
        """Walk one verdict document; depth counts nested split nodes."""
        root = doc.get("certificate")
        stack = [(root, 0)] if isinstance(root, dict) else []
        while stack:
            node, depth = stack.pop()
            kind = node.get("kind")
            if kind == "preprocess":
                stack.append((node["inner"], depth))
            elif kind == "split":
                self.nodes[f"split.part{node['part']}"] += 1
                stack.extend((child["node"], depth + 1) for child in node["children"])
            else:
                self.nodes[f"leaf.{kind}"] += 1
                self.depth_max = max(self.depth_max, depth)

    def metrics(self, instances: int) -> dict[str, tuple[float, str]]:
        out = {
            f"cert.split.part{p}": (self.nodes[f"split.part{p}"] / instances, "nodes/inst")
            for p in SPLIT_PARTS
        }
        for kind in LEAF_KINDS:
            out[f"cert.leaf.{kind}"] = (self.nodes[f"leaf.{kind}"] / instances, "nodes/inst")
        out["cert.depth.max"] = (self.depth_max, "levels")
        return out

