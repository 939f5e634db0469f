"""The per-metric verdict of tests/bench_pairs.py, on synthetic pairs."""

import resource
import sys

import numpy as np
import pytest

from bench_pairs import run_child, verdict

PARENT = 100.0 + np.arange(10.0)  # median 104.5, IQR 4.5


@pytest.mark.parametrize(
    "after, better, bound, expected",
    [
        (PARENT + 8.0, "higher", 0.25, "gain"),  # 10/10 wins, gap 8 > IQR 4.5
        (PARENT - 8.0, "lower", 0.25, "gain"),
        (PARENT + 3.0, "higher", 0.25, "same"),  # every pair won, gap within the IQR
        (np.r_[PARENT[:8] + 8.0, PARENT[8:] - 1.0], "higher", 0.25, "same"),  # 8/10 wins
        (PARENT * 0.7, "higher", 0.25, "worse"),  # median 30% lower
        (PARENT * 1.3, "lower", 0.25, "worse"),
        (PARENT * 0.8, "higher", 0.25, "same"),  # 20% worse, within the bound
        (PARENT + 8.0, "higher", None, "gain"),
        (PARENT - 8.0, "higher", None, "unbounded"),
    ],
)
def test_verdict(after, better, bound, expected):
    assert verdict(PARENT, after, better, bound) == expected


def test_spread_wider_than_bound_is_unresolved():
    parent = np.array([60.0, 80.0, 100.0, 120.0, 140.0] * 2)  # IQR 40 > 25% of 100
    assert verdict(parent, parent * 0.95, "higher", 0.25) == "unresolved"
    assert verdict(parent, parent * 0.5, "higher", 0.25) == "worse"


def test_child_usage_records_faults_and_system_time():
    # a child that touches 32 MiB faults in at least that many pages' worth
    proc, usage = run_child([sys.executable, "-c", "b = b'x' * (32 << 20)"], ".")
    assert proc.returncode == 0
    assert set(usage) == {"minor_faults", "system_s"}
    assert usage["minor_faults"] >= (32 << 20) // resource.getpagesize() // 2
    assert isinstance(usage["system_s"], float) and usage["system_s"] >= 0.0
