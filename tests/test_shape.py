"""Shape-independence gates: the input's size, not its shape, sets the cost.

Each family is a seeded graph kind with a size parameter.  The gate is a
count, not a timing, so it does not depend on the machine's load: the
count at size 2s may be at most GROWTH times the count at size s, which
an O(m log m) cost meets and a quadratic one (about 4) does not.
"""

import pytest

from sgties import Slice, decide_tied, ladder

GROWTH = 2.5


@pytest.mark.parametrize("doubled", [False, True], ids=["plain", "doubled"])
def test_part1_chain_copies_grow_no_faster_than_m_log_m(monkeypatch, doubled):
    """A ladder whose pair is its first and last rung reduces by a chain
    of part-1 splits.  The edges of the slices Slice.sub returns while
    deciding it, the root slice included, grow 2.18 to 2.23 times per
    doubling of the rungs, from 3,459 at 125 rungs to 36,912 at 1,000
    (plain)."""
    copied = [0]
    real_sub = Slice.sub

    def counting_sub(sl, *args, **kwargs):
        out = real_sub(sl, *args, **kwargs)
        copied[0] += out.g.m
        return out

    monkeypatch.setattr(Slice, "sub", counting_sub)
    counts = []
    for rungs in (125, 250, 500, 1000):
        copied[0] = 0
        decide_tied(*ladder(rungs, 1, doubled=doubled))
        counts.append(copied[0])
    for small, large in zip(counts, counts[1:]):
        assert large <= GROWTH * small, counts
