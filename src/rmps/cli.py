"""Command-line surface.

Subcommands:
  wg          exact Weingarten value for a permutation in cycle notation
  wg-bound    decay-envelope ratios of |wg| over a dimension grid
  moment      exact Haar average of a matrix-entry monomial
  sample      draw one ensemble sample; optionally dump its window state
  experiment  Monte Carlo runs: mean-trace | purity | averages | lipschitz | tails
  check       verifications: lemma-gamma | characters | oracle

Exit codes: 0 success, 1 an asserted band failed, 2 usage error.

All randomness flows from --seed.  The Weingarten cache file is chosen by
--cache, falling back to $RMPS_CACHE_DIR/weingarten.cache when that
environment variable is set, else kept in memory only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .engine import LIMIT_TOL, oracle_sweep, reduced_density
from .ensembles import OMEGA_DISTS, EnsembleParams, sample_mps, stream
from .experiments import (
    DEFAULT_SCALES,
    boundary_averages_experiment,
    concentration_tail_experiment,
    lipschitz_probe,
    mean_trace_experiment,
    purity_scaling_experiment,
)
from .persist import write_records_csv, write_summary
from .symgroup import (
    Permutation,
    character,
    cycle_type,
    dimension,
    lemma_gamma_check,
    partition_str,
    partitions,
)
from .weingarten import (
    WeingartenCache,
    integrate_monomial,
    wg,
    wg_bound_ratio,
    wg_log_slopes,
)


def _int_list(text: str) -> list[int]:
    return _nonempty([int(tok) for tok in text.split(",") if tok.strip()], text)


def _float_list(text: str) -> list[float]:
    return _nonempty([float(tok) for tok in text.split(",") if tok.strip()], text)


def _nonempty(values: list, text: str) -> list:
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _open_cache(args) -> WeingartenCache:
    if getattr(args, "cache", None):
        return WeingartenCache(args.cache)
    env_dir = os.environ.get("RMPS_CACHE_DIR")
    if env_dir:
        return WeingartenCache(Path(env_dir) / "weingarten.cache")
    return WeingartenCache()


def _config_of(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func"}


def _emit(args, subcommand: str, results, records=None) -> None:
    if records is not None and getattr(args, "out", None):
        write_records_csv(records, args.out)
    if getattr(args, "summary", None):
        write_summary(args.summary, subcommand, _config_of(args), results)


# ---------------------------------------------------------------------------
# combinatorics commands


def cmd_wg(args) -> int:
    sigma = Permutation.parse(args.sigma, degree=args.p)
    value = wg(args.n, sigma, cache=_open_cache(args))
    print(value)
    return 0


def cmd_wg_bound(args) -> int:
    cache = _open_cache(args)
    report = wg_bound_ratio(args.p, args.k, args.n_grid, cache=cache)
    slopes = wg_log_slopes(args.p, args.n_grid, cache=cache)
    print(f"p={args.p} k={args.k} grid={args.n_grid}")
    for row in report.rows:
        print(f"  n={row.n:<6d} max ratio {row.max_ratio:.6f}")
    print("cycle-type log-log slopes (expected -p-|sigma|):")
    for ct, slope in slopes.items():
        moved = args.p - len(ct)
        print(f"  {partition_str(ct):<12s} slope {slope:+.4f} expected {-args.p - moved}")
    print(f"no growth across grid: {report.no_growth}")
    return 0 if report.no_growth else 1


def cmd_moment(args) -> int:
    value = integrate_monomial(
        args.n, args.i, args.j, args.iprime, args.jprime, cache=_open_cache(args)
    )
    print(value)
    return 0


def cmd_sample(args) -> int:
    params = EnsembleParams(d=args.d, D=args.D, n=args.n, l=args.l, seed=args.seed)
    sample = sample_mps(params.d, params.D, stream(params.seed, 0), args.omega_dist)
    iso_err = float(
        np.abs(
            sum(a.conj().T @ a for a in sample.tensors) - np.eye(params.D)
        ).max()
    )
    print(f"sampled d={params.d} D={params.D} seed={params.seed}: "
          f"isometry residual {iso_err:.3e}, tr R = {np.trace(sample.r_mat).real:.12f}")
    rho = reduced_density(sample, params.n, params.l) if args.dump_state else None
    if args.out:
        Path(args.out).write_text(json.dumps(sample.to_json()) + "\n")
        print(f"wrote sample to {args.out}")
    if rho is not None:
        Path(args.dump_state).write_text(json.dumps(rho.to_json()) + "\n")
        eig_path = Path(str(args.dump_state) + ".eigs.txt")
        eig_path.write_text(
            "\n".join(repr(float(x)) for x in rho.eigenvalues()) + "\n"
        )
        print(f"wrote window state to {args.dump_state} and spectrum to {eig_path}")
    return 0


# ---------------------------------------------------------------------------
# experiments


def cmd_mean_trace(args) -> int:
    params = EnsembleParams(d=args.d, D=args.D, n=args.n, l=args.l, seed=args.seed)
    report = mean_trace_experiment(
        params, args.samples,
        fixed_u=not args.resample_u,
        fixed_omega=not args.resample_omega,
        fixed_variant=args.fixed_variant,
        omega_dist=args.omega_dist,
        workers=args.workers,
    )
    ok = report.consistent_with_half()
    print(f"mean tr rho = {report.mean:.6f} +- {report.stderr:.6f} "
          f"(target 0.5, {report.n_degenerate} degenerate) -> {'ok' if ok else 'FAIL'}")
    _emit(args, "experiment mean-trace", report_without_records(report), records=report.records)
    return 0 if ok else 1


def cmd_purity(args) -> int:
    params = EnsembleParams(d=args.d, D=args.D[0], n=args.n, l=args.l, seed=args.seed)
    report = purity_scaling_experiment(
        params, args.D, args.samples, omega_dist=args.omega_dist, workers=args.workers
    )
    mixed = 1.0 / args.d ** args.l
    for s in report.per_D:
        print(f"  D={s.D:<5d} mean tr rho^2 {s.mean_purity_unnorm:.6f} "
              f"margin {s.purity_margin:+.6f} "
              f"median |purity_norm - {mixed:g}| {s.median_purity_dev:.6f} "
              f"median sup dist {s.median_sup_dist:.6f}")
    print(f"slope of purity deviation {report.slope_purity_dev:+.3f}, "
          f"sup distance {report.slope_sup_dist:+.3f}")
    ok = _no_degenerate_D(report) and (
        report.margins_decreasing and report.median_dev_decreasing
        and report.slope_purity_dev < 0)
    print(f"bands (margins decreasing, deviation decreasing, negative slope): "
          f"{'ok' if ok else 'FAIL'}")
    _emit(args, "experiment purity", report_without_records(report), records=report.records)
    return 0 if ok else 1


def cmd_averages(args) -> int:
    report = boundary_averages_experiment(
        args.D, args.samples, args.seed, omega_dist=args.omega_dist, workers=args.workers
    )
    for row in report.rows:
        ref = "" if row.oracle is None else f" oracle {row.oracle:.6f}"
        bnd = "" if row.bound is None else f" bound {row.bound:.6f}"
        alt = "" if row.quoted is None else f" (quoted reference {row.quoted:g} differs)"
        print(f"  {row.name:<8s} {row.estimate:.6f} +- {row.stderr:.6f}"
              f"{ref}{bnd}{alt} -> {'ok' if row.passed else 'FAIL'}")
    _emit(args, "experiment averages", report)
    return 0 if report.all_passed else 1


def cmd_lipschitz(args) -> int:
    params = EnsembleParams(d=args.d, D=args.D, n=args.n, l=args.l, seed=args.seed)
    report = lipschitz_probe(
        params, args.pairs, scales=args.scales,
        omega_dist=args.omega_dist, workers=args.workers,
    )
    print(f"max |Delta (tr rho)^2| / dist = {report.max_ratio_f:.4f} ({report.argmax_mode_f}), "
          f"max |Delta tr rho^2| / dist = {report.max_ratio_g:.4f} ({report.argmax_mode_g}), "
          f"bound {report.bound:g}, skipped {report.n_skipped}")
    _emit(args, "experiment lipschitz", report_without_records(report, "pairs"),
          records=report.pairs)
    return 0 if report.within_bound else 1


def cmd_tails(args) -> int:
    if len(args.D) < 2:
        # one D leaves only the tails' monotonicity in r, true by construction
        raise ValueError(f"tails needs at least two D values, got --D {args.D[0]}")
    params = EnsembleParams(d=args.d, D=args.D[0], n=args.n, l=args.l, seed=args.seed)
    report = concentration_tail_experiment(
        params, args.samples, r_grid=args.r_grid, D_grid=args.D,
        omega_dist=args.omega_dist, workers=args.workers,
    )
    ok = True
    for table in report.tables:
        print(f"  D={table.D}: monotone tails "
              f"trace={table.monotone_trace} purity={table.monotone_purity}")
        ok = ok and table.monotone_trace and table.monotone_purity
    if report.decay_in_D:
        r_ref = min(report.decay_in_D, key=lambda r: abs(r - 0.05))
        print(f"  decay in D at r={r_ref:g}: {report.decay_in_D[r_ref]}")
        ok = ok and report.decay_in_D[r_ref]
    ok = _no_degenerate_D(report) and ok
    _emit(args, "experiment tails", report_without_records(report), records=report.records)
    return 0 if ok else 1


def _no_degenerate_D(report) -> bool:
    """Print each D whose samples were all degenerate; True if there is none."""
    for D in report.degenerate_D:
        print(f"  D={D}: every sample degenerate, statistics are NaN -> FAIL")
    return not report.degenerate_D


def report_without_records(report, attr: str = "records"):
    doc = {f: getattr(report, f) for f in report.__dataclass_fields__ if f != attr}
    return doc


# ---------------------------------------------------------------------------
# checks


def cmd_lemma_gamma(args) -> int:
    report = lemma_gamma_check(args.n)
    print(f"n={report.n} alphas={report.alphas_checked} "
          f"parity={'ok' if report.parity_ok else 'FAIL'} "
          f"injective={'ok' if report.injective_ok else 'FAIL'}")
    for line in report.counterexamples:
        print(f"  counterexample: {line}")
    return 0 if report.ok else 1


def cmd_characters(args) -> int:
    ok = True
    for p in range(1, args.orthogonality_max_p + 1):
        parts = partitions(p)
        table: dict[tuple[int, ...], list[int]] = {}
        counts: dict[tuple[int, ...], int] = {}
        for perm in itertools.permutations(range(1, p + 1)):
            ct = cycle_type(Permutation(perm))
            counts[ct] = counts.get(ct, 0) + 1
        for ct in counts:
            table[ct] = [character(lam, ct) for lam in parts]
        for a, lam in enumerate(parts):
            for b, mu in enumerate(parts):
                total = sum(c * table[ct][a] * table[ct][b] for ct, c in counts.items())
                expected = math.factorial(p) if lam == mu else 0
                if total != expected:
                    ok = False
                    print(f"  orthogonality FAIL p={p} {lam} {mu}: {total} != {expected}")
        print(f"  orthogonality p={p}: ok")
    for p in range(1, args.burnside_max_p + 1):
        total = sum(dimension(lam) ** 2 for lam in partitions(p))
        if total != math.factorial(p):
            ok = False
            print(f"  dimension-square sum FAIL p={p}: {total} != {math.factorial(p)}")
    print(f"  dimension-square sums up to p={args.burnside_max_p}: ok" if ok else "FAIL")
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    report = oracle_sweep(args.instances, args.seed)
    print(f"{report.n_comparisons} window comparisons over {report.n_instances} "
          f"instances: max entry error {report.max_abs_err:.3e} (tol {report.tol:g}); "
          f"{report.n_limit_comparisons} limit comparisons "
          f"({report.n_limit_converged} converged): max entry error "
          f"{report.limit_max_rel_err:.3e} of tr rho (tol {LIMIT_TOL:g})")
    for line in report.failures:
        print(f"  FAIL {line}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmps",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"rmps {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_wg = sub.add_parser("wg", help="exact Weingarten value")
    p_wg.add_argument("--n", type=int, required=True, help="dimension parameter")
    p_wg.add_argument("--sigma", required=True,
                      help="permutation in cycle notation, e.g. '(1 2)'; '()' needs --p")
    p_wg.add_argument("--p", type=int, default=None,
                      help="degree (default: largest point in --sigma)")
    p_wg.add_argument("--cache", default=None, help="Weingarten cache file")
    p_wg.set_defaults(func=cmd_wg)

    p_bound = sub.add_parser("wg-bound", help="decay-envelope ratios over a grid")
    p_bound.add_argument("--p", type=int, required=True)
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--n-grid", type=_int_list, required=True,
                         help="comma-separated dimensions, requires p^k <= min")
    p_bound.add_argument("--cache", default=None)
    p_bound.set_defaults(func=cmd_wg_bound)

    p_mom = sub.add_parser("moment", help="exact Haar monomial average")
    p_mom.add_argument("--n", type=int, required=True)
    p_mom.add_argument("--i", type=_int_list, required=True)
    p_mom.add_argument("--j", type=_int_list, required=True)
    p_mom.add_argument("--iprime", type=_int_list, required=True)
    p_mom.add_argument("--jprime", type=_int_list, required=True)
    p_mom.add_argument("--cache", default=None)
    p_mom.set_defaults(func=cmd_moment)

    p_sample = sub.add_parser("sample", help="draw one ensemble sample")
    _add_chain_args(p_sample)
    p_sample.add_argument("--out", default=None, help="write the sample as JSON")
    p_sample.add_argument(
        "--dump-state", default=None,
        help="write the window density matrix as JSON and its spectrum "
             "to the same path with suffix .eigs.txt")
    p_sample.set_defaults(func=cmd_sample)

    p_exp = sub.add_parser("experiment", help="Monte Carlo experiments")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)

    p_mt = exp_sub.add_parser("mean-trace", help="mean window trace vs 1/2")
    _add_chain_args(p_mt)
    _add_run_args(p_mt)
    p_mt.add_argument("--resample-u", action="store_true",
                      help="redraw U per sample instead of holding it fixed")
    p_mt.add_argument("--resample-omega", action="store_true",
                      help="redraw omega per sample instead of holding it fixed")
    p_mt.add_argument("--fixed-variant", type=int, default=0,
                      help="select an independent held-fixed U/omega draw")
    p_mt.set_defaults(func=cmd_mean_trace)

    p_pu = exp_sub.add_parser("purity", help="purity scaling over a D grid")
    _add_chain_args(p_pu, D_grid="one or more")
    _add_run_args(p_pu)
    p_pu.set_defaults(func=cmd_purity)

    p_av = exp_sub.add_parser("averages", help="boundary-matrix trace averages")
    p_av.add_argument("--D", type=int, required=True)
    p_av.add_argument("--seed", type=int, required=True)
    p_av.add_argument("--omega-dist", choices=OMEGA_DISTS, default="dirichlet")
    _add_run_args(p_av, out=False)
    p_av.set_defaults(func=cmd_averages)

    p_li = exp_sub.add_parser("lipschitz", help="finite-difference ratio probe")
    _add_chain_args(p_li)
    p_li.add_argument("--pairs", type=int, required=True)
    p_li.add_argument("--scales", type=_float_list, default=list(DEFAULT_SCALES),
                      help="comma-separated perturbation scales")
    _add_run_args(p_li, samples=False)
    p_li.set_defaults(func=cmd_lipschitz)

    p_ta = exp_sub.add_parser("tails", help="concentration tail probabilities")
    _add_chain_args(p_ta, D_grid="two or more")
    p_ta.add_argument("--r-grid", type=_float_list, default=None,
                      help="deviation radii (default: 10 log points in [1e-3, 0.5])")
    _add_run_args(p_ta)
    p_ta.set_defaults(func=cmd_tails)

    p_check = sub.add_parser("check", help="exact and oracle verifications")
    check_sub = p_check.add_subparsers(dest="check", required=True)

    p_lg = check_sub.add_parser(
        "lemma-gamma",
        help="parity and injectivity of the gamma pairing map, exact over "
             "all (2n)! alphas")
    p_lg.add_argument("--n", type=int, required=True)
    p_lg.set_defaults(func=cmd_lemma_gamma)

    p_ch = check_sub.add_parser("characters",
                                help="character orthogonality and dimension sums")
    p_ch.add_argument("--orthogonality-max-p", type=int, default=6)
    p_ch.add_argument("--burnside-max-p", type=int, default=10)
    p_ch.set_defaults(func=cmd_characters)

    p_or = check_sub.add_parser("oracle",
                                help="folded vs brute-force window matrices")
    p_or.add_argument("--instances", type=_positive_int, default=50)
    p_or.add_argument("--seed", type=int, default=7)
    p_or.set_defaults(func=cmd_oracle)

    return parser


def _add_chain_args(p: argparse.ArgumentParser, D_grid: str | None = None) -> None:
    """``D_grid`` says how many values a grid ``--D`` takes; None takes one int."""
    p.add_argument("--d", type=int, required=True, help="physical dimension")
    if D_grid:
        p.add_argument("--D", type=_int_list, required=True,
                       help=f"{D_grid} bond dimensions, comma separated, "
                            "strictly increasing")
    else:
        p.add_argument("--D", type=int, required=True, help="bond dimension")
    p.add_argument("--n", type=int, required=True, help="number of sites")
    p.add_argument("--l", type=int, required=True, help="window size, n - l even")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--omega-dist", choices=OMEGA_DISTS, default="dirichlet")


def _add_run_args(p: argparse.ArgumentParser, samples: bool = True, out: bool = True) -> None:
    """``out`` adds ``--out`` for commands that produce per-record rows."""
    if samples:
        p.add_argument("--samples", type=int, required=True)
    p.add_argument("--workers", type=_positive_int, default=1)
    if out:
        p.add_argument("--out", default=None, help="per-record CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
