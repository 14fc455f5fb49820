"""The rmps benchmark: one workload, measured end to end or layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload short-chain --seed 1 --seconds 20 --trace 0

Each execution of the workload is a fresh process with one worker and BLAS,
OpenMP and MKL pinned to one thread, importing ``rmps`` from ``src``.  The
workloads are defined in ``workloads.py`` and the metrics, with their units,
in ``BENCHMARK.json``.

One run:

1. times ``rmps --version`` ``SETUP_REPEATS`` times (``setup_s``);
2. runs ``rmps check oracle`` once, untimed, and for exact-wg the untimed
   Monte Carlo estimate of its trace expression;
3. repeats the workload for ``--seconds`` seconds, at least
   ``MIN_ROUNDS`` times.  With ``--trace 1`` each round is an untraced
   execution followed by a traced one (``tracer.py``).  Whatever hangs is
   killed once the run has taken ``RUN_LIMIT_S`` seconds.

Every execution passes the correctness gate or counts as failed: exit code
0, no band ``FAIL``, summary JSON that parses strictly, per-record CSV and
results identical across executions of the seed, traced or not, and on
exact-wg the closed-form monomial, warm pass equal to cold pass and the
expression within five standard errors of Monte Carlo.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics (medians over rounds)
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A results
file with the environment, every execution and, when traced, each layer's
self time and share goes to ``.perfbench_out/``.  Runs in one checkout must
not overlap: they share ``.perfbench_out/work``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import tracer
from workloads import (
    MONOMIAL_DEGREE,
    MONOMIAL_DIM,
    WORKERS,
    WORKLOADS,
    execution_args,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 11
MIN_ROUNDS = {0: 3, 1: 1}
# a run ends within this many seconds even if executions hang
RUN_LIMIT_S = 170
# Haar draws for the untimed check of the exact-wg trace expression
MONTE_CARLO_DRAWS = 4000
MONTE_CARLO_SIGMAS = 5.0
EXPECTED_MONOMIAL = Fraction(
    1, math.comb(MONOMIAL_DIM + MONOMIAL_DEGREE - 1, MONOMIAL_DEGREE))


@dataclass
class Execution:
    kind: str
    wall_s: float
    peak_rss_mib: float
    returncode: int
    ok: bool = True
    reason: str = ""


class Ledger:
    """Every gated operation of a run, in order."""

    def __init__(self):
        self.executions: list[Execution] = []

    def record(self, execution: Execution, reason: str | None) -> None:
        execution.ok = reason is None
        execution.reason = reason or ""
        self.executions.append(execution)

    @property
    def attempted(self) -> int:
        return len(self.executions)

    @property
    def failed(self) -> int:
        return sum(not e.ok for e in self.executions)

    def of_kind(self, kind: str) -> list[Execution]:
        return [e for e in self.executions if e.kind == kind]


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(kind: str, args: list[str], work: Path,
          timeout: float) -> tuple[Execution, str]:
    """Run the interpreter on ``args`` from the root; wall time, peak RSS, stdout.

    ``work``, emptied first, receives the child's standard output and error.
    A child still running after ``timeout`` seconds is killed.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stdout_path = work / "stdout.txt"
    with open(stdout_path, "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    execution = Execution(kind, wall, usage.ru_maxrss / 1024.0, proc.returncode)
    return execution, stdout_path.read_text(errors="replace")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_monte_carlo_run(execution: Execution, stdout: str, work: Path) -> dict:
    """Outputs of one execution that must repeat across executions of a seed.

    Raises ``ValueError`` naming the first failed check.
    """
    if execution.returncode != 0:
        raise ValueError(f"exit code {execution.returncode}")
    if "FAIL" in stdout:
        raise ValueError("a band printed FAIL")
    summary = strict_json(work / "summary.json")
    digests = {"results": _sha256(json.dumps(summary["results"], sort_keys=True).encode())}
    csv = work / "records.csv"
    if csv.exists():
        digests["csv"] = _sha256(csv.read_bytes())
    return digests


def check_exact_run(execution: Execution, work: Path, monte_carlo: dict) -> dict:
    """As :func:`check_monte_carlo_run`, for an exact-wg execution."""
    if execution.returncode != 0:
        raise ValueError(f"exit code {execution.returncode}")
    values = strict_json(work / "values.json")
    if Fraction(values["monomial"]) != EXPECTED_MONOMIAL:
        raise ValueError(f"monomial {values['monomial']} != {EXPECTED_MONOMIAL}")
    if values["warm_sha256"] != values["cold_sha256"]:
        raise ValueError("warm-pass wg table differs from the cold pass")
    deviation = abs(float(Fraction(values["expression"])) - monte_carlo["mean"])
    if deviation > MONTE_CARLO_SIGMAS * monte_carlo["stderr"]:
        raise ValueError(
            f"expression {values['expression']} is {deviation:.3g} from the Monte "
            f"Carlo mean, beyond {MONTE_CARLO_SIGMAS:g} standard errors "
            f"({monte_carlo['stderr']:.3g})")
    return {"expression": values["expression"], "table": values["cold_sha256"]}


def git_commit() -> str | None:
    """HEAD of the checkout when it is the top of a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **PINNED_THREADS,
        "workers": WORKERS,
        "git_commit": git_commit(),
    }


def layer_value(metric: str, spans: dict) -> float:
    """A per-layer metric of ``BENCHMARK.json`` from one traced execution."""
    lookup = spans["weingarten.cache.lookup"]
    derived = {
        "weingarten.cache.hits": lookup["value"],
        "weingarten.cache.misses": lookup["calls"] - lookup["value"],
        "weingarten.cache.stores": spans["weingarten.cache.store"]["calls"],
        "weingarten.cache.load_s": spans["weingarten.cache.load"]["self_s"],
    }
    if metric in derived:
        return derived[metric]
    span, field = metric.rsplit(".", 1)
    return spans[span]["value" if field in ("bytes", "degenerate") else field]


def counts_of(summary: dict) -> dict:
    """Call counts and values, which must repeat exactly across executions."""
    return {name: (s["calls"], s["value"]) for name, s in summary["spans"].items()}


class Run:
    """One benchmark run: its executions, gate results and traced summaries."""

    def __init__(self, workload, seed: int, seconds: float, trace: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.trace = trace
        self.work = work
        self.ledger = Ledger()
        self.reference: dict | None = None
        self.monte_carlo: dict | None = None
        self.summaries: list[dict] = []

    def spawn(self, kind: str, args: list[str], work: Path) -> tuple[Execution, str]:
        return spawn(kind, args, work, max(self.deadline - time.perf_counter(), 1.0))

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            execution, stdout = self.spawn(
                "setup", ["-m", "rmps.cli", "--version"], self.work / "setup")
            ok = execution.returncode == 0 and stdout.startswith("rmps ")
            self.ledger.record(execution, None if ok else "rmps --version failed")

    def checks(self) -> None:
        execution, stdout = self.spawn(
            "oracle", ["-m", "rmps.cli", "check", "oracle", "--seed", str(self.seed)],
            self.work / "oracle")
        ok = execution.returncode == 0 and "FAIL" not in stdout
        self.ledger.record(execution, None if ok else "rmps check oracle failed")
        if self.workload.name != "exact-wg":
            return
        out = self.work / "monte-carlo" / "mc.json"
        execution, _ = self.spawn(
            "monte-carlo",
            ["perfbench/exact_wg.py", "--seed", str(self.seed),
             "--monte-carlo", str(MONTE_CARLO_DRAWS), "--out", str(out)],
            out.parent)
        reason = None
        try:
            if execution.returncode != 0:
                raise ValueError(f"exit code {execution.returncode}")
            self.monte_carlo = strict_json(out)
        except (OSError, ValueError) as exc:
            reason = f"Monte Carlo estimate: {exc}"
        self.ledger.record(execution, reason)

    def execute(self, kind: str) -> None:
        """One gated execution, ``plain`` or ``traced``."""
        # the same relative output paths in every execution of a kind, so
        # that the summary's embedded config repeats byte for byte
        work = self.work / kind
        args = execution_args(self.workload, self.seed, work.relative_to(ROOT))
        spans = work / "spans.npz"
        if kind == "traced":
            args = ["perfbench/tracer.py", "--spans", str(spans), "--", *args]
        execution, stdout = self.spawn(kind, args, work)
        reasons = []
        try:
            if self.workload.name == "exact-wg":
                if self.monte_carlo is None:
                    raise ValueError("no Monte Carlo estimate to compare with")
                digests = check_exact_run(execution, work, self.monte_carlo)
            else:
                digests = check_monte_carlo_run(execution, stdout, work)
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                raise ValueError(f"outputs differ from the first execution: "
                                 f"{digests} != {self.reference}")
        except (OSError, ValueError, KeyError) as exc:
            reasons.append(f"{type(exc).__name__}: {exc}")
        if kind == "traced":
            # layer metrics are reported even when the outputs are wrong
            try:
                summary = tracer.summarize(spans)
            except (OSError, ValueError) as exc:
                reasons.append(f"spans: {exc}")
            else:
                if self.summaries and counts_of(summary) != counts_of(self.summaries[0]):
                    reasons.append("traced counts differ from the first traced execution")
                self.summaries.append(summary)
        self.ledger.record(execution, "; ".join(reasons) or None)

    def measure(self) -> None:
        start = time.perf_counter()
        rounds = 0
        while True:
            self.execute("plain")
            if self.trace:
                self.execute("traced")
            rounds += 1
            elapsed = time.perf_counter() - start
            if time.perf_counter() >= self.deadline or (
                    rounds >= MIN_ROUNDS[self.trace]
                    and elapsed * (rounds + 1) / rounds > self.seconds):
                break

    def end_to_end(self) -> dict:
        plain = self.ledger.of_kind("plain")
        wall = statistics.median(e.wall_s for e in plain)
        setup = statistics.median(e.wall_s for e in self.ledger.of_kind("setup"))
        return {
            "wall_s": wall,
            "samples_per_s": self.workload.samples / (wall - setup),
            "setup_s": setup,
            "peak_rss_mib": statistics.median(e.peak_rss_mib for e in plain),
            "pass_frac": 1.0 - self.ledger.failed / self.ledger.attempted,
        }

    def per_layer(self, names: list[str]) -> dict:
        if not self.summaries:
            return {}
        out = {name: statistics.median(layer_value(name, s["spans"]) for s in self.summaries)
               for name in names if not name.startswith("trace.")}
        out["trace.overhead_s"] = (
            statistics.median(e.wall_s for e in self.ledger.of_kind("traced"))
            - statistics.median(e.wall_s for e in self.ledger.of_kind("plain")))
        return out

    def layer_shares(self) -> dict:
        """Median self time of each span and its share of the median base."""
        base = statistics.median(s["base_s"] for s in self.summaries)
        spans = {}
        for name in self.summaries[0]["spans"]:
            self_s = statistics.median(s["spans"][name]["self_s"] for s in self.summaries)
            spans[name] = {"calls": self.summaries[0]["spans"][name]["calls"],
                           "self_s": self_s, "share": self_s / base}
        layers: dict[str, float] = {}
        for name, s in spans.items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + s["share"]
        return {
            "base": "root span 'workload': the traced in-process call of the "
                    "workload's entry point, median over traced executions",
            "base_s": base,
            "spans": spans,
            "layers": layers,
            "by_phase": self.summaries[0]["by_phase"],
        }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum, frame):
    # unwinds through spawn, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "rmps" / "__init__.py").is_file():
        print(f"error: no rmps package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    work = OUT_DIR / "work"
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work)
    try:
        run.setup()
        run.checks()
        run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = run.per_layer(list(units)) if args.trace else run.end_to_end()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "command": ["python3", *execution_args(run.workload, args.seed, Path("OUT"))],
        "correct": run.ledger.failed == 0 and len(metrics) == len(units),
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": metrics,
        "executions": [asdict(e) for e in run.ledger.executions],
    }
    if args.trace and run.summaries:
        results["layer_targets"] = json.loads((HERE / "layer_targets.json").read_text())
        results["shares"] = run.layer_shares()
    OUT_DIR.mkdir(exist_ok=True)
    results_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=2) + "\n")

    for e in run.ledger.executions:
        if not e.ok:
            print(f"FAILED {e.kind}: {e.reason}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if "shares" in results:
        shares = results["shares"]
        print(f"self time as a share of {shares['base_s']:.3f} s, the traced "
              f"in-process call of the workload:")
        for name, span in sorted(shares["spans"].items(), key=lambda kv: -kv[1]["share"]):
            if span["calls"]:
                print(f"  {name:46s} {span['share']:7.2%}  ({span['calls']} calls)")
    print(f"results in {results_path.relative_to(ROOT)}")
    print(json.dumps({key: results[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
