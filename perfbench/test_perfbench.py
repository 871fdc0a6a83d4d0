"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench

They check that the per-layer counts repeat across traced runs, that tracing
does not change any command's output, and that the theta counter reads 0 on
the rational flow while it counts on the elliptic one.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (benchmark module, found through HERE)

SEED = 3


def traced_run(workload):
    """One short traced run.  Its untraced warm-up pass fixes the reference
    bytes of every command's output (report, and the CSV for simulate), and
    the run is only correct if every untraced and traced pass after it
    reproduces them."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stderr
    assert result["failed"] == 0
    return result


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs with the same seed for every workload."""
    return {w: (traced_run(w), traced_run(w)) for w in run.WORKLOADS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_counts_repeat(traced_pairs, workload):
    first, second = traced_pairs[workload]
    counts = run.counts_of(first["metrics"])
    assert counts, "no per-layer counts reported"
    assert counts["tensor.calls"] > 0, "tracer recorded no spans"
    assert counts == run.counts_of(second["metrics"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_outputs_match_untraced(traced_pairs, workload):
    """Every traced pass was checked against the untraced warm-up bytes:
    two commands in the warm-up and in at least two untraced and two traced
    passes, none failed."""
    for result in traced_pairs[workload]:
        assert result["attempted"] >= 2 * 5
        assert result["failed"] == 0


def test_theta_counter(traced_pairs):
    def theta_calls(workload):
        metrics = traced_pairs[workload][0]["metrics"]
        return metrics["specfun.theta.calls"]["value"]

    assert theta_calls("xxx_flow") == 0
    assert theta_calls("bb_flow") > 0
    assert theta_calls("bb_certify") > 0
