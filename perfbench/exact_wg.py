"""The ``exact-wg`` workload: the exact Weingarten layer, end to end.

One execution runs, in order:

1. ``integrate_monomial`` at n = p = 6 with every index 1, whose closed form
   is ``1/C(n+p-1, p) = 1/462``;
2. ``evaluate_trace_expression`` on ``tr((U L U^dag W)^4)`` at n = 4, with
   rational diagonal constants ``L`` and ``W`` drawn from the seed;
3. the cold pass: every ``wg_from_cycle_type`` of the table grid into a new
   disk cache;
4. the warm pass: the same table from a fresh ``WeingartenCache`` on that
   file, which only reads.

It writes the two exact values and a digest of each pass as JSON.  With
``--monte-carlo K`` it instead writes a seeded Monte Carlo estimate of the
trace expression from ``K`` Haar draws, the untimed cross-check.

Phases call the ``rmps.weingarten`` functions through the module, so a tracer
that rebinds them there sees every call.

Usage::

    PYTHONPATH=src python3 perfbench/exact_wg.py --seed 1 \
        --cache wg.cache --out values.json
    PYTHONPATH=src python3 perfbench/exact_wg.py --seed 1 \
        --monte-carlo 4000 --out mc.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from rmps import ensembles, symgroup, weingarten
from workloads import MONOMIAL_DEGREE, MONOMIAL_DIM, WG_TABLE

EXPRESSION_DIM = 4
EXPRESSION_POWER = 4


def trace_expression(seed: int) -> weingarten.TraceExpression:
    """``tr((U L U^dag W)^4)`` with diagonal entries ``k/8``, k in 1..8."""
    rng = random.Random(seed)
    n = EXPRESSION_DIM

    def diagonal():
        entries = [Fraction(rng.randint(1, 8), 8) for _ in range(n)]
        return [[entries[r] if r == c else Fraction(0) for c in range(n)]
                for r in range(n)]

    word = []
    for k in range(1, EXPRESSION_POWER + 1):
        word += [("U", k), ("C", "L"), ("Ubar", k), ("C", "W")]
    return weingarten.TraceExpression(
        n=n, words=[word], constants={"L": diagonal(), "W": diagonal()})


def monomial() -> Fraction:
    ones = (1,) * MONOMIAL_DEGREE
    return weingarten.integrate_monomial(
        MONOMIAL_DIM, ones, ones, ones, ones, cache=weingarten.WeingartenCache())


def expression(seed: int) -> Fraction:
    return weingarten.evaluate_trace_expression(
        trace_expression(seed), cache=weingarten.WeingartenCache())


def _table(cache) -> str:
    lines = []
    for p, dims in WG_TABLE:
        for n in dims:
            for ct in symgroup.partitions(p):
                value = weingarten.wg_from_cycle_type(n, ct, cache)
                lines.append(f"{p};{symgroup.partition_str(ct)};{n};{value}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cold_pass(path: Path) -> str:
    """Digest of the wg table computed into a new cache file at ``path``."""
    if path.exists():
        raise FileExistsError(f"cold pass needs a new cache file, {path} exists")
    return _table(weingarten.WeingartenCache(path))


def warm_pass(path: Path) -> str:
    """Digest of the wg table read back from the cache file at ``path``."""
    return _table(weingarten.WeingartenCache(path))


def run(seed: int, cache_path: Path) -> dict:
    mono = monomial()
    expr = expression(seed)
    cold = cold_pass(cache_path)
    warm = warm_pass(cache_path)
    return {"monomial": str(mono), "expression": str(expr),
            "cold_sha256": cold, "warm_sha256": warm}


def monte_carlo(seed: int, samples: int) -> dict:
    """Mean and standard error of the expression over seeded Haar draws.

    The expression is the trace of a power of a product of two Hermitian
    matrices, so each draw is real up to rounding; the real parts are kept.
    """
    expr = trace_expression(seed)
    rng = ensembles.stream(seed, 0)
    values = [expr.evaluate_at(u).real for u in
              ensembles.haar_unitaries(EXPRESSION_DIM, samples, rng)]
    mean = math.fsum(values) / samples
    var = math.fsum((v - mean) ** 2 for v in values) / (samples - 1)
    return {"mean": mean, "stderr": math.sqrt(var / samples)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cache", type=Path, help="new cache file for the passes")
    parser.add_argument("--monte-carlo", type=int, metavar="K",
                        help="estimate the expression from K draws instead")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.monte_carlo is not None:
        if args.monte_carlo < 2:
            raise SystemExit("--monte-carlo needs at least 2 draws")
        doc = monte_carlo(args.seed, args.monte_carlo)
    elif args.cache is None:
        raise SystemExit("--cache is required unless --monte-carlo is given")
    else:
        doc = run(args.seed, args.cache)
    args.out.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
