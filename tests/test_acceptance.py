"""Paper-scale acceptance runs, deselected by default.

Run them with::

    PYTHONPATH=src python -m pytest -m acceptance
"""

import json

import pytest

from rmps.cli import main

pytestmark = pytest.mark.acceptance


def test_mean_trace_long_chain_at_large_bond_dimension(tmp_path):
    # 10^4 sites at D=256: every fold past convergence takes the held U's
    # fixed point, so a sample costs the same as at n=6
    summary = tmp_path / "mean-trace.json"
    code = main(["experiment", "mean-trace", "--d", "2", "--D", "256", "--n", "10002",
                 "--l", "2", "--samples", "100", "--seed", "61",
                 "--summary", str(summary)])
    results = json.loads(summary.read_text())["results"]
    assert code == 0
    assert results["n_degenerate"] == 0
    assert abs(results["mean"] - 0.5) <= 5 * results["stderr"]
