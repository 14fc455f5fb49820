"""The benchmark workloads: what each one runs, and why it was chosen.

Three workloads are fixed ``rmps experiment`` invocations; ``exact-wg`` runs
``exact_wg.py``, the benchmark's own program for the exact Weingarten layer.
Every workload runs with one worker in one process, with BLAS and OpenMP
pinned to one thread (see ``run.py``).  The seed is the only input that
varies between runs; it reaches the program as ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    # arguments after the interpreter, run from the checkout's root, without
    # seed and output paths
    args: tuple[str, ...]
    # Monte Carlo samples over the whole D grid; for exact-wg, the exact
    # values one execution returns
    samples: int
    # the per-record CSV, compared byte for byte between executions
    writes_csv: bool


WORKERS = 1
SHORT_CHAIN_SAMPLES = 400
SHORT_CHAIN_D = (4, 8, 16, 32)
LONG_CHAIN_SAMPLES = 10
WIDE_WINDOW_SAMPLES = 60
WIDE_WINDOW_D = (16, 64)

# exact-wg monomial: E |U_11|^(2p) over U(n), whose closed form is
# 1/C(n+p-1, p), 1/462 here
MONOMIAL_DEGREE = 6
MONOMIAL_DIM = 6
# exact-wg table grid: degree p over dimensions n (see exact_wg.py)
WG_TABLE = ((8, range(8, 41)), (10, range(10, 21)))
# partitions of 8 and of 10
_PARTITION_COUNTS = {8: 22, 10: 42}
WG_TABLE_SIZE = sum(_PARTITION_COUNTS[p] * len(ns) for p, ns in WG_TABLE)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


WORKLOADS = {
    w.name: w
    for w in (
        # Fresh U, V and W at small D in every sample, 18 fold steps each:
        # Haar QR, stream set-up, per-sample dispatch and the CSV write
        # dominate, and the fold is too short to converge, so a
        # fold-to-convergence change should show no gain here.
        Workload(
            name="short-chain",
            args=("-m", "rmps.cli", "experiment", "purity", "--d", "2",
                  "--D", _csv(SHORT_CHAIN_D), "--n", "20", "--l", "2",
                  "--samples", str(SHORT_CHAIN_SAMPLES)),
            samples=SHORT_CHAIN_SAMPLES * len(SHORT_CHAIN_D),
            writes_csv=True,
        ),
        # 998 fold steps per sample at D=64 with U held fixed: the channel
        # folds take nearly all the time and Haar work almost none; n is far
        # past the fold's convergence length, so this is where fold kernels
        # and fold-to-convergence show.
        Workload(
            name="long-chain",
            args=("-m", "rmps.cli", "experiment", "mean-trace", "--d", "2",
                  "--D", "64", "--n", "1000", "--l", "2",
                  "--samples", str(LONG_CHAIN_SAMPLES)),
            samples=LONG_CHAIN_SAMPLES,
            writes_csv=True,
        ),
        # l=4 windows: 16 window products and 256 blocks per sample, two
        # fold steps; the window build, the closing contraction and the
        # 16x16 observables dominate, which long-chain barely touches.
        Workload(
            name="wide-window",
            args=("-m", "rmps.cli", "experiment", "tails", "--d", "2",
                  "--D", _csv(WIDE_WINDOW_D), "--n", "6", "--l", "4",
                  "--samples", str(WIDE_WINDOW_SAMPLES)),
            samples=WIDE_WINDOW_SAMPLES * len(WIDE_WINDOW_D),
            writes_csv=False,
        ),
        # The only workload that calls weingarten and symgroup: the
        # Collins-Sniady double sums of a monomial and a trace expression,
        # then a wg table written to a new disk cache and read back.
        Workload(
            name="exact-wg",
            args=("perfbench/exact_wg.py",),
            samples=2 + 2 * WG_TABLE_SIZE,
            writes_csv=False,
        ),
    )
}


def execution_args(workload: Workload, seed: int, out_dir: Path) -> list[str]:
    """Interpreter arguments for one execution writing into ``out_dir``."""
    args = list(workload.args) + ["--seed", str(seed)]
    if workload.name == "exact-wg":
        return args + ["--cache", str(out_dir / "wg.cache"),
                       "--out", str(out_dir / "values.json")]
    args += ["--workers", str(WORKERS), "--summary", str(out_dir / "summary.json")]
    if workload.writes_csv:
        args += ["--out", str(out_dir / "records.csv")]
    return args
