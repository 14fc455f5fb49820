"""Experiment-harness tests on small seeded runs, far below the sample
counts and bond dimensions of the paper-scale bands."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rmps import engine, experiments
from rmps.engine import DegenerateSampleError, reduced_density
from rmps.ensembles import EnsembleParams, sample_mps, stream
from rmps.experiments import (
    DEFAULT_SCALES,
    boundary_average_bounds,
    boundary_average_oracle,
    boundary_averages_experiment,
    collect_records,
    concentration_tail_experiment,
    default_r_grid,
    lipschitz_probe,
    mean_trace_experiment,
    pair_ratios,
    purity_scaling_experiment,
)


# ---------------------------------------------------------------------------
# records


def test_record_invariants():
    params = EnsembleParams(d=2, D=8, n=6, l=2, seed=101)
    records = collect_records(params, 40)
    mixed = 1.0 / 4.0
    for r in records:
        assert not r.degenerate
        assert r.purity_norm == pytest.approx(r.purity_unnorm / r.trace ** 2, abs=1e-9)
        assert mixed - 1e-9 <= r.purity_norm <= 1.0 + 1e-9
        # eigenvalue bound: sup distance below sqrt(dim * purity excess)
        assert r.sup_dist <= math.sqrt(4.0 * (r.purity_norm - mixed)) + 1e-9
        assert r.renyi2 == pytest.approx(-math.log(r.purity_norm))


def test_degenerate_rate_small_at_moderate_bond_dimension():
    params = EnsembleParams(d=2, D=16, n=8, l=2, seed=102)
    records = collect_records(params, 200)
    assert sum(r.degenerate for r in records) / len(records) < 0.01


def test_records_reproducible_across_workers():
    params = EnsembleParams(d=2, D=6, n=6, l=2, seed=103)
    one = collect_records(params, 24, workers=1)
    four = collect_records(params, 24, workers=4)
    assert one == four


# ---------------------------------------------------------------------------
# mean trace


def test_mean_trace_bond_dimension_one_is_uniform():
    # D = 1 collapses the trace to the single boundary eigenvalue
    params = EnsembleParams(d=2, D=1, n=6, l=2, seed=104)
    report = mean_trace_experiment(params, 3000, fixed_u=False, fixed_omega=False)
    assert report.consistent_with_half()
    assert report.stderr == pytest.approx(1.0 / math.sqrt(12 * 3000), rel=0.1)
    traces = [r.trace for r in report.records]
    assert min(traces) >= -1e-12 and max(traces) <= 1 + 1e-12


def test_mean_trace_fixed_u_small_run():
    params = EnsembleParams(d=2, D=8, n=6, l=2, seed=105)
    report = mean_trace_experiment(params, 300)
    assert report.fixed_u and report.fixed_omega
    assert report.consistent_with_half()


def test_mean_trace_two_fixed_omegas_agree():
    params = EnsembleParams(d=2, D=8, n=6, l=2, seed=106)
    a = mean_trace_experiment(params, 300, fixed_variant=0)
    b = mean_trace_experiment(params, 300, fixed_variant=1)
    band = 5 * math.hypot(a.stderr, b.stderr)
    assert abs(a.mean - b.mean) < band


def test_mean_trace_resample_mode():
    params = EnsembleParams(d=2, D=8, n=6, l=2, seed=107)
    report = mean_trace_experiment(params, 300, fixed_u=False, fixed_omega=False)
    assert report.consistent_with_half()


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(engine, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(engine, name, counted)
    return calls


def test_mean_trace_held_u_folds_no_sample_past_convergence(monkeypatch):
    # with U held, the fixed point is found once and both sides of every
    # sample take the closed form; at n=6 the fold is too short for it
    adjoint = _count_calls(monkeypatch, "channel_apply_adjoint")
    forward = _count_calls(monkeypatch, "channel_apply")
    long_chain = EnsembleParams(d=2, D=8, n=1000, l=2, seed=109)
    report = mean_trace_experiment(long_chain, 4)
    assert len(adjoint) == 0
    assert len(forward) <= (long_chain.n - long_chain.l) // 4
    assert not any(r.degenerate for r in report.records)
    del adjoint[:], forward[:]
    short = EnsembleParams(d=2, D=8, n=6, l=2, seed=109)
    mean_trace_experiment(short, 4)
    assert len(adjoint) == 4 * (short.n - short.l) // 2


def test_mean_trace_held_u_matches_plain_folding():
    params = EnsembleParams(d=2, D=16, n=402, l=2, seed=110)
    records = collect_records(params, 3, fixed_u=True, fixed_omega=True)
    base = experiments.FIXED_DRAW_BASE
    u0 = experiments.haar_unitary(32, stream(110, base))
    om0 = experiments._sample_simplex(16, stream(110, base + 1), "dirichlet")
    # the shortcut fires: the limit converges within the cap
    limit = engine.fixed_point(experiments.mps_tensors(u0, 2, 16),
                               (params.n - params.l) // 4)
    assert limit.converged
    for r in records:
        sample = sample_mps(2, 16, stream(110, r.sample), fixed_u=u0, fixed_omega=om0)
        folded = reduced_density(sample, params.n, params.l)
        assert abs(r.trace - folded.trace) <= 1e-12 * folded.trace


# ---------------------------------------------------------------------------
# purity scaling


def test_purity_scaling_bond_dimension_one():
    params = EnsembleParams(d=2, D=1, n=6, l=2, seed=108)
    report = purity_scaling_experiment(params, [1], 50)
    for r in report.records:
        assert r.purity_norm == pytest.approx(1.0, abs=1e-9)


def test_purity_scaling_directional_small_grid():
    params = EnsembleParams(d=2, D=4, n=8, l=2, seed=109)
    report = purity_scaling_experiment(params, [4, 8, 16, 32], 60)
    assert report.median_dev_decreasing
    assert report.median_sup_dist_decreasing
    assert report.slope_purity_dev < 0
    assert report.slope_sup_dist < 0
    assert report.margins_decreasing  # with stderr slack
    assert [s.D for s in report.per_D] == [4, 8, 16, 32]
    assert all(s.n_samples == 60 for s in report.per_D)


def test_purity_scaling_reproducible_across_workers():
    params = EnsembleParams(d=2, D=4, n=6, l=2, seed=110)
    one = purity_scaling_experiment(params, [4, 8], 20, workers=1)
    two = purity_scaling_experiment(params, [4, 8], 20, workers=2)
    assert one.records == two.records
    assert one.per_D == two.per_D


def test_purity_scaling_grid_validation():
    params = EnsembleParams(d=2, D=4, n=6, l=2, seed=111)
    with pytest.raises(ValueError):
        purity_scaling_experiment(params, [8, 4], 10)


# ---------------------------------------------------------------------------
# boundary averages


def test_boundary_average_oracle_values():
    oracle = boundary_average_oracle(32)
    assert oracle["tr_L"] == 16
    assert oracle["tr_L2"] == Fraction(32, 3)
    assert oracle["tr_R"] == 1
    assert oracle["tr_R2"] == Fraction(2, 33)
    assert oracle["tr_LR"] == Fraction(1, 2)
    assert oracle["tr_LLR"] == Fraction(1, 3)
    # degree-two closed form stays below the worst-case threshold
    assert oracle["tr_LRLR"] < boundary_average_bounds(32)["tr_LRLR"]
    one = boundary_average_oracle(1)
    assert one["tr_LRLR"] == Fraction(1, 3)
    free = boundary_average_oracle(8, "uniform-normalized")
    assert free["tr_R2"] is None and free["tr_LR"] == Fraction(1, 2)


def test_boundary_averages_match_oracle():
    report = boundary_averages_experiment(16, 4000, seed=112)
    assert report.all_passed
    rows = {r.name: r for r in report.rows}
    assert rows["tr_R"].estimate == pytest.approx(1.0, abs=1e-9)
    assert rows["tr_L"].estimate == pytest.approx(8.0, abs=5 * rows["tr_L"].stderr)
    # the quoted alternative for tr_L2 differs from the oracle and from data
    assert rows["tr_L2"].quoted == pytest.approx(4.0)
    assert abs(rows["tr_L2"].estimate - 16 / 3) < 5 * rows["tr_L2"].stderr
    assert abs(rows["tr_L2"].estimate - 4.0) > 5 * rows["tr_L2"].stderr
    assert rows["tr_LRLR"].bound == pytest.approx(0.25 + 1 / 64)


def test_boundary_averages_uniform_normalized():
    report = boundary_averages_experiment(8, 2000, seed=113, omega_dist="uniform-normalized")
    assert report.all_passed
    rows = {r.name: r for r in report.rows}
    assert rows["tr_R2"].oracle is None
    assert rows["tr_R2"].estimate <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# lipschitz probe


def test_lipschitz_small_run_within_bound():
    params = EnsembleParams(d=2, D=8, n=6, l=2, seed=114)
    report = lipschitz_probe(params, 300)
    assert report.bound == 34.0
    assert report.n_skipped == 0
    assert 0 < report.max_ratio_f <= report.bound
    assert 0 < report.max_ratio_g <= report.bound
    modes = {p.mode for p in report.pairs}
    assert modes == {"u", "v", "w", "lam", "joint"}
    scales = {p.scale for p in report.pairs}
    assert scales == set(DEFAULT_SCALES)


def test_lipschitz_identical_pair_skipped():
    sample = sample_mps(2, 4, stream(115, 0))
    assert pair_ratios(sample, sample, 6, 2) is None
    # scale 0 would make every pair identical, so the probe refuses it
    params = EnsembleParams(d=2, D=4, n=6, l=2, seed=115)
    for scales in [(0.0,), (1e-2, -1e-2)]:
        with pytest.raises(ValueError, match="positive"):
            lipschitz_probe(params, 10, scales=scales)


def test_lipschitz_ratio_against_direct_recomputation():
    params = EnsembleParams(d=2, D=4, n=6, l=2, seed=116)
    report = lipschitz_probe(params, 5)
    pair = report.pairs[0]
    assert not pair.skipped
    # recompute the f ratio for the recorded pair deterministically
    rng = stream(params.seed, 0)
    base = sample_mps(2, 4, rng)
    rho = reduced_density(base, 6, 2)
    assert pair.ratio_f >= 0 and pair.dist > 0
    assert rho.trace > 0


def test_lipschitz_reproducible_across_workers():
    params = EnsembleParams(d=2, D=4, n=6, l=2, seed=117)
    one = lipschitz_probe(params, 30, workers=1)
    two = lipschitz_probe(params, 30, workers=2)
    assert one.pairs == two.pairs


# ---------------------------------------------------------------------------
# concentration tails


def test_default_r_grid():
    grid = default_r_grid()
    assert len(grid) == 10
    assert grid[0] == pytest.approx(1e-3) and grid[-1] == pytest.approx(0.5)
    assert grid == sorted(grid)


def test_tails_monotone_and_edge_cases():
    params = EnsembleParams(d=2, D=8, n=6, l=2, seed=118)
    report = concentration_tail_experiment(params, 400, r_grid=[0.01, 0.05, 0.1, 5.0])
    table = report.tables[0]
    assert table.monotone_trace and table.monotone_purity
    assert table.tail_trace[-1] == 0.0  # radius beyond the range
    assert table.tail_purity[-1] == 0.0
    assert all(0.0 <= t <= 1.0 for t in table.tail_trace)


def test_tails_decay_in_bond_dimension():
    params = EnsembleParams(d=2, D=8, n=12, l=2, seed=119)
    report = concentration_tail_experiment(
        params, 400, r_grid=[0.02, 0.05, 0.1], D_grid=[8, 64]
    )
    assert [t.D for t in report.tables] == [8, 64]
    assert report.decay_in_D[0.05]
    for table in report.tables:
        assert table.monotone_trace and table.monotone_purity


def test_tails_validation():
    params = EnsembleParams(d=2, D=4, n=6, l=2, seed=120)
    with pytest.raises(ValueError):
        concentration_tail_experiment(params, 50, r_grid=[0.2, 0.1])
    with pytest.raises(ValueError):
        concentration_tail_experiment(params, 1)
    for grid in ([64, 16], [16, 16]):
        with pytest.raises(ValueError, match="strictly increasing"):
            concentration_tail_experiment(params, 50, D_grid=grid)


# ---------------------------------------------------------------------------
# every sample degenerate


def _always_degenerate(rho):
    raise DegenerateSampleError("forced")


def test_all_degenerate_D_reports_nan(monkeypatch):
    monkeypatch.setattr(experiments, "normalize", _always_degenerate)
    params = EnsembleParams(d=2, D=2, n=4, l=2, seed=121)

    scaling = purity_scaling_experiment(params, [2, 4], 5)
    assert scaling.degenerate_D == [2, 4]
    for s in scaling.per_D:
        assert s.n_degenerate == s.n_samples == 5
        assert math.isfinite(s.mean_trace) and math.isfinite(s.mean_purity_unnorm)
        for value in (s.mean_purity_norm, s.median_purity_norm,
                      s.median_purity_dev, s.median_sup_dist):
            assert math.isnan(value)
    assert math.isnan(scaling.slope_purity_dev)

    tails = concentration_tail_experiment(params, 5, r_grid=[0.01, 0.1], D_grid=[2, 4])
    assert tails.degenerate_D == [2, 4]
    for table in tails.tables:
        assert math.isfinite(table.mean_trace)
        assert math.isnan(table.mean_purity_norm)
        assert all(math.isnan(t) for t in table.tail_purity)


def test_degenerate_D_empty_on_healthy_runs():
    params = EnsembleParams(d=2, D=2, n=4, l=2, seed=122)
    assert purity_scaling_experiment(params, [2, 4], 5).degenerate_D == []
    assert concentration_tail_experiment(params, 5, D_grid=[2, 4]).degenerate_D == []
