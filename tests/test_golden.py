"""Golden-file tests: seeded and exact CLI runs against their committed outputs.

Each entry of ``RUNS`` is one ``rmps`` invocation, run through
``rmps.cli.main`` with a scratch directory as the working directory.  Its
outputs are kept under ``tests/golden/<name>/``:

- ``exit``: the exit code;
- ``stdout``: everything the run printed;
- ``records.csv``: the per-record CSV, for runs that write one;
- ``results.json``: the ``results`` block of the summary JSON, serialized as
  the summary serializes it;
- for ``sample``, the sample JSON, the window-state JSON and its spectrum.

Floats (CSV cells, JSON numbers, spectrum lines) must agree to a relative
1e-12, the allowance for floating-point reassociation; everything else,
``stdout`` included, must match exactly.

The files were written with numpy 2.4.6 and OpenBLAS 0.3.31.  To rewrite
them from ``RUNS`` with the current code, run from the repository root::

    PYTHONPATH=src python3 tests/test_golden.py [NAME ...]

With names, only those runs are rewritten; with none, all of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from rmps.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
REL_TOL = 1e-12

_OUTPUTS = ["--out", "records.csv", "--summary", "summary.json"]

RUNS = {
    "mean-trace-fixed": [
        "experiment", "mean-trace", "--d", "2", "--D", "4", "--n", "6", "--l", "2",
        "--samples", "40", "--seed", "7", *_OUTPUTS,
    ],
    "mean-trace-resampled": [
        "experiment", "mean-trace", "--d", "2", "--D", "4", "--n", "6", "--l", "2",
        "--samples", "40", "--seed", "7", "--resample-u", "--resample-omega",
        "--omega-dist", "uniform-normalized", *_OUTPUTS,
    ],
    "purity-grid": [
        "experiment", "purity", "--d", "2", "--D", "2,4,8", "--n", "6", "--l", "2",
        "--samples", "30", "--seed", "11", *_OUTPUTS,
    ],
    "purity-single-D": [
        "experiment", "purity", "--d", "2", "--D", "4", "--n", "6", "--l", "2",
        "--samples", "30", "--seed", "11", *_OUTPUTS,
    ],
    "averages": [
        "experiment", "averages", "--D", "4", "--samples", "200", "--seed", "5",
        "--summary", "summary.json",
    ],
    "lipschitz": [
        "experiment", "lipschitz", "--d", "2", "--D", "3", "--n", "4", "--l", "2",
        "--seed", "13", "--pairs", "15", *_OUTPUTS,
    ],
    "tails": [
        "experiment", "tails", "--d", "2", "--D", "4,8", "--n", "4", "--l", "2",
        "--samples", "40", "--seed", "17", *_OUTPUTS,
    ],
    "sample": [
        "sample", "--d", "2", "--D", "3", "--n", "4", "--l", "2", "--seed", "5",
        "--out", "sample.json", "--dump-state", "state.json",
    ],
    "moment-mixed": [
        "moment", "--n", "4", "--i", "1,2,1", "--j", "1,1,2",
        "--iprime", "1,1,2", "--jprime", "2,1,1",
    ],
    "moment-degree-four": [
        "moment", "--n", "5", "--i", "1,1,1,1", "--j", "1,1,1,1",
        "--iprime", "1,1,1,1", "--jprime", "1,1,1,1",
    ],
    "wg-two-cycles": ["wg", "--n", "6", "--sigma", "(1 2)(3 4 5)"],
}


def run_into(argv: list[str], workdir: Path) -> None:
    """Run one invocation in ``workdir`` and leave its golden files there."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    (workdir / "exit").write_text(f"{code}\n")
    (workdir / "stdout").write_text(stdout.getvalue())
    summary = workdir / "summary.json"
    if summary.exists():
        results = json.loads(summary.read_text())["results"]
        (workdir / "results.json").write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n")
        summary.unlink()


def _same_scalar(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)
    return a == b


def _same_tree(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_tree(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_tree(x, y) for x, y in zip(a, b))
    return _same_scalar(a, b)


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _same_cells(a: str, b: str) -> bool:
    rows_a, rows_b = a.splitlines(), b.splitlines()
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if len(cells_a) != len(cells_b):
            return False
        if not all(_same_scalar(_cell(x), _cell(y)) for x, y in zip(cells_a, cells_b)):
            return False
    return True


def same_output(name: str, got: str, want: str) -> bool:
    if name.endswith(".json"):
        return _same_tree(json.loads(got), json.loads(want))
    if name.endswith((".csv", ".txt")):
        return _same_cells(got, want)
    return got == want


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden(name, tmp_path):
    run_into(RUNS[name], tmp_path)
    golden = GOLDEN_DIR / name
    want = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for file_name in want:
        got_text = (tmp_path / file_name).read_text()
        want_text = (golden / file_name).read_text()
        assert same_output(file_name, got_text, want_text), f"{name}/{file_name} differs"


def rewrite_goldens(names=None) -> None:
    """Replace the named golden directories (default: all) with fresh runs."""
    names = list(RUNS) if not names else list(names)
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        raise SystemExit(f"unknown run(s) {unknown}; known: {sorted(RUNS)}")
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            run_into(RUNS[name], Path(tmp))
            target = GOLDEN_DIR / name
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(tmp, target)
        print(f"wrote {target}")


if __name__ == "__main__":
    rewrite_goldens(sys.argv[1:])
