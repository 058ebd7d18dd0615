"""The benchmark's per-layer spans name functions that exist.

perfbench/spans.py wraps package functions by name and splits some of
them by the name of the function that calls them.  A name that no
longer exists is skipped and reports 0 calls, so a rename or a new
helper between caller and callee would quietly empty a layer; this test
makes it fail instead.  A traced decide must also give the plain
verdict and charge no budget to a flow.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import sgties
from sgties import decide_tied, ladder

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def _package_functions():
    """Module-level functions of every sgties module, by name."""
    out = {}
    for info in pkgutil.iter_modules(sgties.__path__):
        if info.name.startswith("__"):
            continue  # a __main__ would run on import
        mod = importlib.import_module(f"sgties.{info.name}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.setdefault(name, []).append(obj)
    return out


def test_spans_name_package_functions_and_their_direct_callers():
    funcs = _package_functions()
    spans = _spans_module().SPANS
    assert spans
    for span in spans:
        home = importlib.import_module(span.module)
        assert inspect.isfunction(getattr(home, span.func, None)), span.name
        for caller in span.callers or {}:
            assert caller in funcs, f"{span.name}: no function named {caller}"
            assert any(span.func in f.__code__.co_names for f in funcs[caller]), (
                f"{span.name}: {caller} does not call {span.func} directly"
            )


def test_traced_flows_are_neither_charged_nor_capped():
    """The flows take no budget, so tracing a decide leaves them uncapped:
    the verdict is the untraced one and no common-cycle flow span spends
    a unit."""
    g, e1, e2 = ladder(40, 1)
    plain = decide_tied(g, e1, e2)
    with _spans_module().Tracer() as tracer:
        traced = decide_tied(g, e1, e2)
    assert traced == plain
    flows = {
        label: rec
        for label, rec in tracer.stats.items()
        if label.startswith("oracle.find_common_cycle-")
    }
    assert sum(rec.calls for rec in flows.values()) > 0
    assert all(rec.budget_spent == 0 for rec in flows.values()), flows
