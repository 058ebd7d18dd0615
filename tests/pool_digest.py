"""Two digests over the documents and verify results of 6,464 decides.

A refactor that should change no output can run this before and after
and compare the line it prints: the instance count, the document
digest and the verdict digest.  The document digest is a sha256 over
every certificate document (``json.dumps`` with sorted keys) followed
by ``repr`` of its ``verify_certificate`` result.  The verdict digest
takes, per instance, ``json.dumps([kind, common_sign])`` of the document
and then the same ``repr`` bytes, so a change that moves certificates
but not verdicts shows that in one run.  The instances, in this order:

- the seed 1-4 pools of perfbench's workloads, flat3c, ladder and
  small-mix, ``pool_size(workload, 36)`` instances each, built by
  ``perfbench/workloads.py``;
- the 2,400 seeded pairs of ``tests/test_decide.py``;
- ``random_3_connected(40, 40, 0.1, s)`` for s = 0..199, with the pair
  (0, m-1).

Not collected by pytest.  Run from the repository root:

    PYTHONPATH=src python tests/pool_digest.py [--expect DOC_DIGEST VERDICT_DIGEST]

Every document must verify: if any does not, it prints how many do not
and the first one's instance index and reason, and exits 1.  With
``--expect`` it also prints the expected digests on a second line and
exits 1 unless both match.  A last line gives the mean bytes of the
documents of each perfbench pool, as ``workload/seed=mean``, each
document encoded as ``sgties decide --certificate`` writes it; this is
the pool's ``cert_bytes.mean``, so a change that moves documents shows
at once how far that metric moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from test_decide import _seeded_pairs  # noqa: E402
from workloads import WORKLOADS, instance, pool_size  # noqa: E402

from sgties import (  # noqa: E402
    decide_tied,
    random_3_connected,
    verdict_to_doc,
    verify_certificate,
)


def instances():
    """(pool, g, e1, e2), where pool is "workload/seed" for an instance
    of a perfbench pool and None for the others."""
    for seed in range(1, 5):
        for workload in WORKLOADS:
            for i in range(pool_size(workload, 36)):
                inst = instance(workload, seed, i)
                yield f"{workload}/{seed}", inst.graph, inst.e1, inst.e2
    for _, g, e1, e2 in _seeded_pairs():
        yield None, g, e1, e2
    for s in range(200):
        g = random_3_connected(40, 40, 0.1, s)
        yield None, g, 0, g.m - 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--expect", nargs=2, metavar=("DOC_DIGEST", "VERDICT_DIGEST"),
        help="exit 1 unless the two digests match these",
    )
    args = parser.parse_args()
    docs, verdicts = hashlib.sha256(), hashlib.sha256()
    count = 0
    failed: list[tuple[int, str]] = []
    pool_bytes: dict[str, list[int]] = {}
    for pool, g, e1, e2 in instances():
        doc = verdict_to_doc(decide_tied(g, e1, e2), e1, e2)
        if pool is not None:
            # the CLI's encoding plus its trailing newline
            text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            pool_bytes.setdefault(pool, []).append(len(text.encode()) + 1)
        ok, reason = verify_certificate(g, e1, e2, doc)
        if not ok:
            failed.append((count, reason))
        checked = repr((ok, reason)).encode()
        docs.update(json.dumps(doc, sort_keys=True).encode())
        docs.update(checked)
        verdicts.update(json.dumps([doc["kind"], doc["common_sign"]]).encode())
        verdicts.update(checked)
        count += 1
    got = [docs.hexdigest(), verdicts.hexdigest()]
    print(count, *got)
    if args.expect is not None:
        print("expected", *args.expect)
    print(
        "cert_bytes.mean",
        *(f"{pool}={statistics.fmean(sizes):.2f}" for pool, sizes in pool_bytes.items()),
    )
    if failed:
        index, reason = failed[0]
        sys.exit(f"{len(failed)} documents do not verify; first: instance {index}: {reason}")
    if args.expect is not None and got != args.expect:
        sys.exit("digest mismatch")


if __name__ == "__main__":
    main()
