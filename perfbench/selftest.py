"""Self-test of the benchmark code.

Run from the repository root:

    python3 perfbench/selftest.py

Checks the answers the workload generators claim against the
enumeration oracle, that tracing changes no output, that the tracer
survives a renamed function, that the printed result matches
BENCHMARK.json, and that ops are counted over the seed's pool only.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
import unittest
from pathlib import Path

import run  # puts this checkout's src/ on the import path
import sgties.connectivity
import sgties.decide
import sgties.oracle
from sgties.certificate import KIND_TIED, verdict_to_doc
from sgties.decide import decide_tied
from sgties.oracle import oracle_tied
from spans import SPANS, CertCounts, Span, Tracer
from workloads import instance, ladder, pool_size


class WorkloadAnswers(unittest.TestCase):
    def test_small_ladders_match_the_oracle(self):
        for k in range(2, 9):
            for doubled in (False, True):
                for seed in range(4):
                    inst = ladder(k, random.Random(seed), doubled)
                    truth = oracle_tied(inst.graph, inst.e1, inst.e2)
                    self.assertEqual(truth.kind, inst.expect, (k, doubled, seed))
                    sign = truth.common_sign if truth.kind == KIND_TIED else None
                    self.assertEqual(sign, inst.sign, (k, doubled, seed))

    def test_composed_instances_match_the_oracle(self):
        for i in range(15):
            inst = instance("small-mix", 4, i)
            truth = oracle_tied(inst.graph, inst.e1, inst.e2)
            self.assertEqual(truth.kind, inst.expect, i)

    def test_flat3c_tied_class_has_one_negative_edge(self):
        inst = instance("flat3c", 4, 0)
        signs = [e.sign for e in inst.graph.edges]
        self.assertEqual(signs[0], -1)
        self.assertEqual(set(signs[1:]), {1})


class CertificateWalk(unittest.TestCase):
    def test_ladder_certificate_is_a_chain_of_part1_splits(self):
        k = 6
        inst = ladder(k, random.Random(0), doubled=False)
        counts = CertCounts()
        counts.add(verdict_to_doc(decide_tied(inst.graph, inst.e1, inst.e2), inst.e1, inst.e2))
        metrics = counts.metrics(1)
        self.assertEqual(metrics["cert.split.part1"][0], 2 * k - 4)
        self.assertEqual(metrics["cert.leaf.enum"][0], 2 * k - 3)
        self.assertEqual(metrics["cert.depth.max"][0], 2 * k - 4)


class Tracing(unittest.TestCase):
    def test_traced_and_plain_runs_write_the_same_outputs(self):
        tracer = Tracer()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
            for workload, count in (("flat3c", 3), ("ladder", 3), ("small-mix", 30)):
                for i in range(count):
                    inst = instance(workload, 2, i)
                    plain = run.run_instance(inst, Path(tmp))
                    with tracer:
                        traced = run.run_instance(inst, Path(tmp))
                    self.assertEqual(plain.outputs(), traced.outputs(), (workload, i))
        self.assertEqual(tracer.stats["decide.decide_tied"].calls, 36)

    def test_wrappers_cover_every_import_and_are_removed(self):
        orig = sgties.connectivity.is_3_connected
        with Tracer():
            self.assertIsNot(sgties.decide.is_3_connected, orig)
            self.assertIs(sgties.decide.is_3_connected, sgties.oracle.is_3_connected)
            self.assertIs(sgties.decide.is_3_connected, sgties.connectivity.is_3_connected)
        self.assertIs(sgties.decide.is_3_connected, orig)
        self.assertIs(sgties.oracle.is_3_connected, orig)

    def test_missing_function_reports_zero_calls(self):
        gone = Span("decide.gone", "sgties.decide", "no_such_function", search=True)
        tracer = Tracer(SPANS + (gone,))
        with tracer:
            pass
        metrics = tracer.metrics(1)
        self.assertEqual(metrics["decide.gone.calls"][0], 0)
        self.assertEqual(metrics["decide.gone.complete_ratio"][0], 1.0)


class OutputContract(unittest.TestCase):
    def _result(self, trace: int) -> dict:
        out = io.StringIO()
        argv = ["--workload", "small-mix", "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
        with contextlib.redirect_stdout(out):
            self.assertEqual(run.main(argv), 0)
        return json.loads(out.getvalue().strip().split("\n")[-1])

    def test_printed_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = self._result(trace)
            self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(res["correct"])
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in res["metrics"].items()}
            self.assertEqual(printed, declared)

    def test_counts_cover_the_seeds_pool_only(self):
        # 0.2 s of small-mix is a pool of two mix cycles; the run repeats
        # them while its first 2 s block lasts, and the repeats are checked
        # against the first pass but not counted again
        res = self._result(0)
        self.assertEqual(res["attempted"], 2 * pool_size("small-mix", 0.2))
        self.assertEqual(res["failed"], 0)


if __name__ == "__main__":
    unittest.main()
