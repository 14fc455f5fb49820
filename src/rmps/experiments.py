"""Monte Carlo experiments on the random MPS ensemble.

Each experiment draws per-sample streams keyed by ``(seed, sample index)``,
so reports are identical at any worker count; aggregation is compensated
(``math.fsum``) and order-fixed.  Experiment functions only measure and
report; callers (CLI, tests) decide which bands to assert.

Held-fixed coordinates (the "for any fixed U / omega" forms of the mean
claims) are drawn once from reserved stream indices; ``fixed_variant``
selects independent such draws.  A held U also fixes the channel, so its
fixed point is found once per run and every fold past convergence takes
the closed form (see :mod:`rmps.engine`).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .engine import (
    ChannelLimit,
    DegenerateSampleError,
    fixed_point,
    normalize,
    purity,
    reduced_density,
    renyi2,
    sup_distance_to_mixed,
)
from .ensembles import (
    FIXED_DRAW_BASE,
    EnsembleParams,
    assemble_sample,
    haar_unitary,
    mps_tensors,
    sample_boundaries,
    sample_mps,
    stream,
    _complex_gaussian,
    _increasing_grid,
    _phase_fixed_q,
    _sample_simplex,
)
from .weingarten import wg_from_cycle_type

DEFAULT_SCALES = (1e-3, 1e-2, 1e-1)
PERTURB_TARGETS = ("u", "v", "w", "lam", "joint")


@dataclass
class ExperimentRecord:
    """One Monte Carlo observation of the window density matrix."""

    d: int
    D: int
    n: int
    l: int
    seed: int
    sample: int
    trace: float
    purity_unnorm: float
    purity_norm: float
    sup_dist: float
    renyi2: float
    degenerate: bool


def _record_worker(
    d: int,
    D: int,
    n: int,
    l: int,
    seed: int,
    omega_dist: str,
    fixed_u: np.ndarray | None,
    fixed_omega: np.ndarray | None,
    limit: ChannelLimit | None,
    index: int,
) -> ExperimentRecord:
    rng = stream(seed, index)
    sample = sample_mps(d, D, rng, omega_dist, fixed_u=fixed_u, fixed_omega=fixed_omega)
    rho = reduced_density(sample, n, l, limit=limit)
    trace = rho.trace
    pu = purity(rho)
    try:
        rho_norm = normalize(rho)
        pn = purity(rho_norm)
        sd = sup_distance_to_mixed(rho_norm)
        r2 = renyi2(rho_norm)
        degenerate = False
    except DegenerateSampleError:
        pn = sd = r2 = float("nan")
        degenerate = True
    return ExperimentRecord(
        d=d, D=D, n=n, l=l, seed=seed, sample=index,
        trace=trace, purity_unnorm=pu, purity_norm=pn,
        sup_dist=sd, renyi2=r2, degenerate=degenerate,
    )


def _run_indexed(worker, count: int, workers: int) -> list:
    if workers <= 1:
        return [worker(i) for i in range(count)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunksize = max(1, count // (workers * 8))
        return list(pool.map(worker, range(count), chunksize=chunksize))


def collect_records(
    params: EnsembleParams,
    n_samples: int,
    omega_dist: str = "dirichlet",
    workers: int = 1,
    fixed_u: bool = False,
    fixed_omega: bool = False,
    fixed_variant: int = 0,
) -> list[ExperimentRecord]:
    """Per-sample records, in sample order.

    With ``fixed_u``/``fixed_omega`` those coordinates are drawn once from
    reserved streams and held across all samples.  A held U also gets its
    channel's fixed point, capped at half the fold length of a side, so the
    power iteration never costs more than the folds it replaces.
    """
    u0 = None
    om0 = None
    limit = None
    base = FIXED_DRAW_BASE + 2 * fixed_variant
    if not (FIXED_DRAW_BASE <= base and base + 1 < 2 ** 64):
        raise ValueError(
            f"fixed variant {fixed_variant} puts the held draws outside the reserved "
            f"stream indices [2^62, 2^64)"
        )
    if fixed_u:
        u0 = haar_unitary(params.d * params.D, stream(params.seed, base))
        limit = fixed_point(mps_tensors(u0, params.d, params.D),
                            (params.n - params.l) // 4)
    if fixed_omega:
        om0 = _sample_simplex(params.D, stream(params.seed, base + 1), omega_dist)
    worker = partial(
        _record_worker,
        params.d, params.D, params.n, params.l, params.seed,
        omega_dist, u0, om0, limit,
    )
    return _run_indexed(worker, n_samples, workers)


def _records_per_D(
    params: EnsembleParams, D_grid, n_samples: int, omega_dist: str, workers: int
) -> dict[int, list[ExperimentRecord]]:
    """Records for each D of a strictly increasing grid, in grid order."""
    D_grid = _increasing_grid(D_grid, "D", 1)
    return {D: collect_records(replace(params, D=D), n_samples, omega_dist=omega_dist,
                               workers=workers) for D in D_grid}


def _mean_stderr(xs) -> tuple[float, float]:
    """Mean and its standard error; NaN where there are too few values.

    No values at all happens when every sample at a D is degenerate.
    """
    xs = list(xs)
    count = len(xs)
    if not count:
        return float("nan"), float("nan")
    mean = math.fsum(xs) / count
    if count > 1:
        var = math.fsum((x - mean) ** 2 for x in xs) / (count - 1)
        err = math.sqrt(var / count)
    else:
        err = float("nan")
    return mean, err


def _median(xs) -> float:
    xs = list(xs)
    return float(np.median(xs)) if xs else float("nan")


def _log_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])


# ---------------------------------------------------------------------------
# mean window trace


@dataclass
class MeanTraceReport:
    """Mean of ``tr rho_l`` over fresh ``(lam, V, W)``; the claim is 1/2."""

    d: int
    D: int
    n: int
    l: int
    seed: int
    n_samples: int
    fixed_u: bool
    fixed_omega: bool
    fixed_variant: int
    omega_dist: str
    mean: float
    stderr: float
    n_degenerate: int
    records: list[ExperimentRecord] = field(repr=False, default_factory=list)

    def consistent_with_half(self, k: float = 5.0) -> bool:
        return abs(self.mean - 0.5) <= k * self.stderr


def mean_trace_experiment(
    params: EnsembleParams,
    n_samples: int,
    fixed_u: bool = True,
    fixed_omega: bool = True,
    fixed_variant: int = 0,
    omega_dist: str = "dirichlet",
    workers: int = 1,
) -> MeanTraceReport:
    """Estimate the mean window trace; defaults exercise the strong form
    where U and omega are held fixed and only ``(lam, V, W)`` resample."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    records = collect_records(
        params, n_samples, omega_dist=omega_dist, workers=workers,
        fixed_u=fixed_u, fixed_omega=fixed_omega, fixed_variant=fixed_variant,
    )
    mean, err = _mean_stderr(r.trace for r in records)
    return MeanTraceReport(
        d=params.d, D=params.D, n=params.n, l=params.l, seed=params.seed,
        n_samples=n_samples, fixed_u=fixed_u, fixed_omega=fixed_omega,
        fixed_variant=fixed_variant, omega_dist=omega_dist,
        mean=mean, stderr=err,
        n_degenerate=sum(r.degenerate for r in records),
        records=records,
    )


# ---------------------------------------------------------------------------
# purity scaling over a bond-dimension grid


@dataclass
class DSummary:
    D: int
    n_samples: int
    n_degenerate: int
    mean_trace: float
    stderr_trace: float
    mean_purity_unnorm: float
    stderr_purity_unnorm: float
    purity_margin: float  # mean_purity_unnorm - 1/(4 d^l)
    mean_purity_norm: float
    median_purity_norm: float
    median_purity_dev: float  # median |purity_norm - 1/d^l|
    median_sup_dist: float


@dataclass
class ScalingReport:
    """Per-D summaries plus log-log slopes of the deviation observables.

    The deviation medians carry a clean signal and are compared strictly;
    the unnormalized purity margins sit at the Monte Carlo noise floor, so
    ``margins_decreasing`` allows five pooled standard errors of slack.
    ``slope_ratio`` is ``slope_sup_dist / slope_purity_dev``; the square-root
    relation between the two deviations predicts one half.
    """

    d: int
    n: int
    l: int
    seed: int
    n_samples: int
    omega_dist: str
    D_grid: list[int]
    per_D: list[DSummary]
    slope_purity_dev: float
    slope_sup_dist: float
    slope_ratio: float
    margins_decreasing: bool
    median_dev_decreasing: bool
    median_sup_dist_decreasing: bool
    records: list[ExperimentRecord] = field(repr=False, default_factory=list)

    @property
    def degenerate_D(self) -> list[int]:
        """Bond dimensions at which every sample was degenerate."""
        return [s.D for s in self.per_D if s.n_degenerate == s.n_samples]


def purity_scaling_experiment(
    params: EnsembleParams,
    D_grid,
    n_samples: int,
    omega_dist: str = "dirichlet",
    workers: int = 1,
) -> ScalingReport:
    """Sample the window purity across increasing bond dimensions.

    The expectation is ``1/d^l`` up to a deviation decaying in D; both the
    unnormalized purity margin above ``1/(4 d^l)`` and the normalized
    deviation from ``1/d^l`` are summarized per D and slope-fitted.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples per D")
    runs = _records_per_D(params, D_grid, n_samples, omega_dist, workers)
    D_grid = list(runs)
    mixed = 1.0 / params.d ** params.l
    all_records: list[ExperimentRecord] = []
    summaries: list[DSummary] = []
    for D, records in runs.items():
        all_records.extend(records)
        good = [r for r in records if not r.degenerate]
        mean_tr, err_tr = _mean_stderr(r.trace for r in records)
        mean_pu, err_pu = _mean_stderr(r.purity_unnorm for r in records)
        mean_pn, _ = _mean_stderr(r.purity_norm for r in good)
        summaries.append(DSummary(
            D=D,
            n_samples=len(records),
            n_degenerate=len(records) - len(good),
            mean_trace=mean_tr,
            stderr_trace=err_tr,
            mean_purity_unnorm=mean_pu,
            stderr_purity_unnorm=err_pu,
            purity_margin=mean_pu - mixed / 4.0,
            mean_purity_norm=mean_pn,
            median_purity_norm=_median(r.purity_norm for r in good),
            median_purity_dev=_median(abs(r.purity_norm - mixed) for r in good),
            median_sup_dist=_median(r.sup_dist for r in good),
        ))
    devs = [s.median_purity_dev for s in summaries]
    sups = [s.median_sup_dist for s in summaries]
    margins = [s.purity_margin for s in summaries]
    errs = [s.stderr_purity_unnorm for s in summaries]
    slope_dev = _log_slope(D_grid, devs) if len(D_grid) > 1 else float("nan")
    slope_sup = _log_slope(D_grid, sups) if len(D_grid) > 1 else float("nan")
    return ScalingReport(
        d=params.d, n=params.n, l=params.l, seed=params.seed,
        n_samples=n_samples, omega_dist=omega_dist,
        D_grid=D_grid, per_D=summaries,
        slope_purity_dev=slope_dev,
        slope_sup_dist=slope_sup,
        slope_ratio=slope_sup / slope_dev if slope_dev else float("nan"),
        margins_decreasing=all(
            margins[i + 1] <= margins[i] + 5.0 * math.hypot(errs[i], errs[i + 1])
            for i in range(len(margins) - 1)
        ),
        median_dev_decreasing=all(b < a for a, b in zip(devs, devs[1:])),
        median_sup_dist_decreasing=all(b < a for a, b in zip(sups, sups[1:])),
        records=all_records,
    )


# ---------------------------------------------------------------------------
# boundary-matrix averages


AVERAGE_NAMES = (
    "tr_L", "tr_L2", "tr_R", "tr_R2", "tr_LR",
    "tr_LRR", "tr_LLR", "tr_LLRR", "tr_LRLR",
)


def _averages_worker(D: int, seed: int, omega_dist: str, index: int) -> tuple:
    rng = stream(seed, index)
    l_mat, r_mat, _, _, _, _ = sample_boundaries(D, rng, omega_dist)
    lr = l_mat @ r_mat
    llr = l_mat @ lr
    return (
        float(np.trace(l_mat).real),
        float(np.trace(l_mat @ l_mat).real),
        float(np.trace(r_mat).real),
        float(np.trace(r_mat @ r_mat).real),
        float(np.trace(lr).real),
        float(np.trace(lr @ r_mat).real),
        float(np.trace(llr).real),
        float(np.trace(llr @ r_mat).real),
        float(np.trace(lr @ lr).real),
    )


def boundary_average_oracle(D: int, omega_dist: str = "dirichlet") -> dict[str, Fraction | None]:
    """Exact means of the boundary traces under the sampled measures.

    ``lam`` uniform on [0,1]^D gives ``E sum(lam) = D/2``,
    ``E sum(lam^2) = D/3`` and ``E (sum lam)^2 = D/12 + D^2/4``; the Haar
    conjugations reduce mixed traces to these and to the simplex moments.
    Entries are ``None`` where the omega distribution has no closed form
    here (everything omega-dependent for uniform-normalized with D > 1).
    """
    e_lam = Fraction(D, 2)
    e_lam2 = Fraction(D, 3)
    e_lam_sq = Fraction(D, 12) + Fraction(D * D, 4)
    if D == 1:
        e_om2 = Fraction(1)
    elif omega_dist == "dirichlet":
        e_om2 = Fraction(2, D + 1)
    else:
        e_om2 = None
    oracle: dict[str, Fraction | None] = {
        "tr_L": e_lam,
        "tr_L2": e_lam2,
        "tr_R": Fraction(1),
        "tr_R2": e_om2,
        "tr_LR": Fraction(1, 2),
        "tr_LRR": None if e_om2 is None else e_om2 / 2,
        "tr_LLR": Fraction(1, 3),
        "tr_LLRR": None if e_om2 is None else e_om2 / 3,
    }
    if e_om2 is None:
        oracle["tr_LRLR"] = None
    elif D == 1:
        oracle["tr_LRLR"] = Fraction(1, 3)
    else:
        # fourth-degree Haar average of tr((U lam U^dag omega)^2): the
        # two-permutation-pair sum with exact degree-2 Weingarten weights
        wg_id = wg_from_cycle_type(D, (1, 1))
        wg_sw = wg_from_cycle_type(D, (2,))
        oracle["tr_LRLR"] = (e_lam_sq * e_om2 + e_lam2) * wg_id + (
            e_lam_sq + e_lam2 * e_om2
        ) * wg_sw
    return oracle


def boundary_average_bounds(D: int) -> dict[str, Fraction]:
    """One-sided thresholds that hold for every permutation-invariant omega."""
    return {
        "tr_R2": Fraction(1),
        "tr_LRR": Fraction(1, 2),
        "tr_LLRR": Fraction(1, 4),
        "tr_LRLR": Fraction(1, 4) + Fraction(1, 4 * D),
    }


@dataclass
class AveragesRow:
    name: str
    estimate: float
    stderr: float
    oracle: float | None
    bound: float | None
    quoted: float | None
    kind: str  # "equality" | "inequality"
    passed: bool


@dataclass
class AveragesReport:
    D: int
    seed: int
    n_samples: int
    omega_dist: str
    rows: list[AveragesRow]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def boundary_averages_experiment(
    D: int,
    n_samples: int,
    seed: int,
    omega_dist: str = "dirichlet",
    workers: int = 1,
) -> AveragesReport:
    """Monte Carlo means of the nine boundary traces against exact references.

    Equality rows must sit within five standard errors of the oracle;
    inequality rows must not exceed their threshold by more than five
    standard errors.  Rows with a ``quoted`` value also carry a differing
    reference in circulation; those are reported, not asserted.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    worker = partial(_averages_worker, D, seed, omega_dist)
    data = _run_indexed(worker, n_samples, workers)
    oracle = boundary_average_oracle(D, omega_dist)
    bounds = boundary_average_bounds(D)
    quoted_values = {"tr_L2": D / 4.0, "tr_LLR": 0.25}
    rows = []
    for col, name in enumerate(AVERAGE_NAMES):
        est, err = _mean_stderr(row[col] for row in data)
        orac = oracle[name]
        bound = bounds.get(name)
        kind = "inequality" if bound is not None else "equality"
        passed = True
        if orac is not None:
            passed = abs(est - float(orac)) <= 5.0 * err + 1e-9
        if bound is not None:
            passed = passed and est <= float(bound) + 5.0 * err + 1e-9
        rows.append(AveragesRow(
            name=name, estimate=est, stderr=err,
            oracle=None if orac is None else float(orac),
            bound=None if bound is None else float(bound),
            quoted=quoted_values.get(name),
            kind=kind, passed=passed,
        ))
    return AveragesReport(D=D, seed=seed, n_samples=n_samples,
                          omega_dist=omega_dist, rows=rows)


# ---------------------------------------------------------------------------
# Lipschitz probing


@dataclass
class LipschitzPair:
    d: int
    D: int
    n: int
    l: int
    seed: int
    pair: int
    mode: str
    scale: float
    dist: float
    ratio_f: float
    ratio_g: float
    skipped: bool


@dataclass
class LipschitzReport:
    """Finite-difference ratios of ``(tr rho)^2`` and ``tr rho^2``.

    ``bound`` is the asserted ceiling ``4n + 10`` on both ratios.
    """

    d: int
    D: int
    n: int
    l: int
    seed: int
    n_pairs: int
    n_skipped: int
    bound: float
    max_ratio_f: float
    max_ratio_g: float
    argmax_mode_f: str
    argmax_mode_g: str
    pairs: list[LipschitzPair] = field(repr=False, default_factory=list)

    @property
    def within_bound(self) -> bool:
        return self.max_ratio_f <= self.bound and self.max_ratio_g <= self.bound


def _perturb_unitary(u: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    return _phase_fixed_q(u + scale * _complex_gaussian(u.shape, rng))


def pair_ratios(base, other, n: int, l: int):
    """Distance and finite-difference ratios for one pair; None if identical.

    The distance is the l1 combination of Frobenius distances of the three
    unitaries and the sup distance of the spectra vectors.
    """
    dist = (
        float(np.linalg.norm(base.u - other.u))
        + float(np.linalg.norm(base.v - other.v))
        + float(np.linalg.norm(base.w - other.w))
        + float(np.abs(base.lam - other.lam).max())
    )
    if dist == 0.0:
        return None
    rho1 = reduced_density(base, n, l)
    rho2 = reduced_density(other, n, l)
    f1, f2 = rho1.trace ** 2, rho2.trace ** 2
    g1, g2 = purity(rho1), purity(rho2)
    return dist, abs(f1 - f2) / dist, abs(g1 - g2) / dist


def _lipschitz_worker(
    d: int, D: int, n: int, l: int, seed: int, omega_dist: str,
    modes: tuple, index: int,
) -> LipschitzPair:
    rng = stream(seed, index)
    base = sample_mps(d, D, rng, omega_dist)
    target, scale = modes[index % len(modes)]
    u2, v2, w2, lam2 = base.u, base.v, base.w, base.lam
    if target in ("u", "joint"):
        u2 = _perturb_unitary(base.u, scale, rng)
    if target in ("v", "joint"):
        v2 = _perturb_unitary(base.v, scale, rng)
    if target in ("w", "joint"):
        w2 = _perturb_unitary(base.w, scale, rng)
    if target in ("lam", "joint"):
        lam2 = np.clip(base.lam + scale * rng.uniform(-1.0, 1.0, size=D), 0.0, 1.0)
    other = assemble_sample(d, D, u2, v2, w2, lam2, base.omega)
    result = pair_ratios(base, other, n, l)
    dist, ratio_f, ratio_g = result if result is not None else (0.0, float("nan"), float("nan"))
    return LipschitzPair(d, D, n, l, seed, index, target, scale,
                         dist, ratio_f, ratio_g, result is None)


def lipschitz_probe(
    params: EnsembleParams,
    n_pairs: int,
    scales=DEFAULT_SCALES,
    omega_dist: str = "dirichlet",
    workers: int = 1,
) -> LipschitzReport:
    """Probe the Lipschitz bound with structured perturbation pairs.

    Each pair perturbs one coordinate (U, V, W or lam) or all jointly, at one
    of ``scales``; omega stays fixed within a pair since the metric does not
    include it.  Zero-distance pairs are skipped.  Every scale must be
    positive: at scale 0 every pair would be skipped and the probe would pass
    without testing anything.
    """
    if n_pairs < 1:
        raise ValueError("need at least 1 pair")
    if any(not s > 0 for s in scales):
        raise ValueError(f"perturbation scales must be positive, got {list(scales)}")
    modes = tuple((target, float(s)) for s in scales for target in PERTURB_TARGETS)
    worker = partial(
        _lipschitz_worker,
        params.d, params.D, params.n, params.l, params.seed, omega_dist, modes,
    )
    pairs = _run_indexed(worker, n_pairs, workers)
    kept = [p for p in pairs if not p.skipped]
    if kept:
        best_f = max(kept, key=lambda p: p.ratio_f)
        best_g = max(kept, key=lambda p: p.ratio_g)
        max_f, mode_f = best_f.ratio_f, f"{best_f.mode}@{best_f.scale:g}"
        max_g, mode_g = best_g.ratio_g, f"{best_g.mode}@{best_g.scale:g}"
    else:
        max_f = max_g = 0.0
        mode_f = mode_g = "none"
    return LipschitzReport(
        d=params.d, D=params.D, n=params.n, l=params.l, seed=params.seed,
        n_pairs=n_pairs, n_skipped=len(pairs) - len(kept),
        bound=4.0 * params.n + 10.0,
        max_ratio_f=max_f, max_ratio_g=max_g,
        argmax_mode_f=mode_f, argmax_mode_g=mode_g,
        pairs=pairs,
    )


# ---------------------------------------------------------------------------
# concentration tails


def default_r_grid(count: int = 10, lo: float = 1e-3, hi: float = 0.5) -> list[float]:
    return [float(x) for x in np.logspace(np.log10(lo), np.log10(hi), count)]


@dataclass
class TailTable:
    D: int
    n_samples: int
    n_degenerate: int
    mean_trace: float
    mean_purity_norm: float
    r_grid: list[float]
    tail_trace: list[float]
    tail_purity: list[float]
    monotone_trace: bool
    monotone_purity: bool


@dataclass
class TailsReport:
    d: int
    n: int
    l: int
    seed: int
    n_samples: int
    omega_dist: str
    tables: list[TailTable]
    # per r: tail at the largest D <= tail at the smallest D (set when the
    # grid has at least two entries)
    decay_in_D: dict[float, bool] = field(default_factory=dict)
    records: list[ExperimentRecord] = field(repr=False, default_factory=list)

    @property
    def degenerate_D(self) -> list[int]:
        """Bond dimensions at which every sample was degenerate."""
        return [t.D for t in self.tables if t.n_degenerate == t.n_samples]


def _tails(values: np.ndarray, center: float, r_grid) -> list[float]:
    """Fraction of ``values`` farther than r from ``center``; NaN if none."""
    if not len(values):
        return [float("nan")] * len(r_grid)
    return [float(np.mean(np.abs(values - center) > r)) for r in r_grid]


def concentration_tail_experiment(
    params: EnsembleParams,
    n_samples: int,
    r_grid=None,
    D_grid=None,
    omega_dist: str = "dirichlet",
    workers: int = 1,
) -> TailsReport:
    """Empirical tail probabilities of the trace and the normalized purity.

    Tails are centered at the empirical mean; they are non-increasing in r by
    construction, and across a D grid the large-D tails should sit below the
    small-D ones at fixed r.  Where every sample at a D is degenerate, that
    D's purity mean and tails are NaN.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    r_grid = [float(r) for r in (r_grid if r_grid is not None else default_r_grid())]
    if any(r <= 0 for r in r_grid) or sorted(r_grid) != r_grid:
        raise ValueError("r grid must be positive and increasing")
    runs = _records_per_D(params, D_grid if D_grid is not None else [params.D],
                          n_samples, omega_dist, workers)
    all_records: list[ExperimentRecord] = []
    tables = []
    for D, records in runs.items():
        all_records.extend(records)
        good = [r for r in records if not r.degenerate]
        traces = np.array([r.trace for r in records])
        purities = np.array([r.purity_norm for r in good])
        mean_tr, _ = _mean_stderr(traces)
        mean_pn, _ = _mean_stderr(purities)
        tail_tr = _tails(traces, mean_tr, r_grid)
        tail_pn = _tails(purities, mean_pn, r_grid)
        tables.append(TailTable(
            D=D, n_samples=len(records), n_degenerate=len(records) - len(good),
            mean_trace=mean_tr, mean_purity_norm=mean_pn,
            r_grid=r_grid, tail_trace=tail_tr, tail_purity=tail_pn,
            monotone_trace=all(b <= a for a, b in zip(tail_tr, tail_tr[1:])),
            monotone_purity=all(b <= a for a, b in zip(tail_pn, tail_pn[1:])),
        ))
    decay = {}
    if len(tables) >= 2:
        lo, hi = tables[0], tables[-1]
        for i, r in enumerate(r_grid):
            decay[r] = (hi.tail_trace[i] <= lo.tail_trace[i]
                        and hi.tail_purity[i] <= lo.tail_purity[i])
    return TailsReport(
        d=params.d, n=params.n, l=params.l, seed=params.seed,
        n_samples=n_samples, omega_dist=omega_dist,
        tables=tables, decay_in_D=decay, records=all_records,
    )
