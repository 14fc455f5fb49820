"""Sampler tests: unitarity, block conventions, boundary laws, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from rmps.ensembles import (
    EnsembleParams,
    MpsSample,
    assemble_sample,
    haar_unitaries,
    haar_unitary,
    mps_tensors,
    sample_boundaries,
    sample_mps,
    stream,
)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 17])
def test_haar_unitarity(dim):
    u = haar_unitary(dim, stream(1, dim))
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-10


def test_haar_dim_one_is_uniform_phase():
    rng = stream(2, 0)
    us = haar_unitaries(1, 4000, rng)[:, 0, 0]
    assert np.abs(np.abs(us) - 1.0).max() < 1e-12
    # mean of a uniform phase vanishes like 1/sqrt(N)
    assert abs(us.mean()) < 5 / math.sqrt(4000)


def test_haar_entry_second_moment_matches_exact():
    # |U_11|^2 has mean 1/dim; the exact value also falls out of the
    # degree-one monomial integral
    dim, count = 8, 100_000
    us = haar_unitaries(dim, count, stream(3, 0))
    sq = np.abs(us[:, 0, 0]) ** 2
    err = sq.std(ddof=1) / math.sqrt(count)
    assert abs(sq.mean() - 1.0 / dim) < 5 * err


def test_haar_left_invariance_two_sample():
    dim, count = 4, 10_000
    us = haar_unitaries(dim, count, stream(4, 0))
    fixed = haar_unitary(dim, stream(4, 1))
    plain = np.einsum("kii->k", us).real
    rotated = np.einsum("ij,kji->k", fixed, us).real
    err = math.hypot(plain.std(ddof=1), rotated.std(ddof=1)) / math.sqrt(count)
    assert abs(plain.mean() - rotated.mean()) < 5 * err
    var_err = 5 * math.sqrt(2.0 / count)  # crude band for unit-variance stats
    assert abs(plain.var(ddof=1) - rotated.var(ddof=1)) < 5 * var_err


def test_stream_determinism_and_independence():
    a = stream(42, 7).uniform(size=4)
    b = stream(42, 7).uniform(size=4)
    c = stream(42, 8).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_keys_negative_and_large_seeds_apart():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no lossy cast of the key on the way
        firsts = {seed: stream(seed, 0).standard_normal()
                  for seed in (0, -1, -2, -3, 2**63, 2**63 + 1)}
        last_index = stream(5, -1).standard_normal()
    assert len(set(firsts.values())) == len(firsts)
    # nonnegative seeds keep the streams they always had
    assert firsts[0] == 0.15929546600623282
    assert last_index == stream(5, 2**64 - 1).standard_normal()


def test_mps_tensor_block_convention():
    d, D = 2, 3
    u = haar_unitary(d * D, stream(5, 0))
    tensors = mps_tensors(u, d, D)
    assert tensors.shape == (d, D, D)
    for i in range(d):
        assert np.array_equal(tensors[i], u[i * D:(i + 1) * D, :D])
    iso = sum(a.conj().T @ a for a in tensors)
    assert np.abs(iso - np.eye(D)).max() < 1e-10


def test_mps_tensor_degenerate_dims():
    u1 = haar_unitary(3, stream(6, 0))
    only = mps_tensors(u1, 1, 3)
    assert np.array_equal(only[0], u1)
    u2 = haar_unitary(2, stream(6, 1))
    scalars = mps_tensors(u2, 2, 1)
    assert abs(abs(scalars[0, 0, 0]) ** 2 + abs(scalars[1, 0, 0]) ** 2 - 1) < 1e-12
    with pytest.raises(ValueError):
        mps_tensors(u2, 2, 2)


@pytest.mark.parametrize("omega_dist", ["dirichlet", "uniform-normalized"])
def test_boundaries_shape_and_laws(omega_dist):
    D = 6
    l_mat, r_mat, lam, omega, v, w = sample_boundaries(D, stream(7, 0), omega_dist)
    eig_l = np.linalg.eigvalsh(l_mat)
    assert eig_l.min() > -1e-12 and eig_l.max() < 1 + 1e-12
    assert abs(np.trace(r_mat).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(r_mat).min() > -1e-12
    assert np.abs(l_mat - (v * lam) @ v.conj().T).max() < 1e-12
    assert np.abs(r_mat - (w * omega) @ w.conj().T).max() < 1e-12


def test_boundaries_dimension_one():
    l_mat, r_mat, lam, omega, _, _ = sample_boundaries(1, stream(8, 0))
    assert 0.0 <= l_mat[0, 0].real <= 1.0
    assert abs(r_mat[0, 0] - 1.0) < 1e-12
    assert omega[0] == pytest.approx(1.0)


def test_mean_trace_of_left_boundary():
    # E tr L = D/2, checked at D=16 over many draws
    D, count = 16, 30_000
    totals = np.empty(count)
    rng = stream(9, 0)
    for k in range(count):
        totals[k] = rng.uniform(0.0, 1.0, size=D).sum()
    err = totals.std(ddof=1) / math.sqrt(count)
    assert abs(totals.mean() - D / 2) < 5 * err


@pytest.mark.parametrize("omega_dist", ["dirichlet", "uniform-normalized"])
def test_omega_coordinates_exchangeable(omega_dist):
    D, count = 5, 20_000
    rng = stream(10, 0)
    from rmps.ensembles import _sample_simplex

    draws = np.stack([_sample_simplex(D, rng, omega_dist) for _ in range(count)])
    means = draws.mean(axis=0)
    err = draws.std(ddof=1, axis=0).max() / math.sqrt(count)
    assert np.abs(means - 1.0 / D).max() < 5 * err
    assert np.abs(draws.sum(axis=1) - 1.0).max() < 1e-12


def test_sample_mps_determinism_and_fields():
    sample = sample_mps(2, 4, stream(11, 3))
    again = sample_mps(2, 4, stream(11, 3))
    assert np.array_equal(sample.u, again.u)
    assert np.array_equal(sample.lam, again.lam)
    assert np.array_equal(sample.l_mat, again.l_mat)
    rebuilt = assemble_sample(2, 4, sample.u, sample.v, sample.w, sample.lam, sample.omega)
    assert np.array_equal(rebuilt.tensors, sample.tensors)
    assert np.array_equal(rebuilt.r_mat, sample.r_mat)


def test_sample_mps_fixed_coordinates():
    u0 = haar_unitary(8, stream(12, 100))
    om0 = np.array([0.5, 0.25, 0.125, 0.125])
    a = sample_mps(2, 4, stream(12, 0), fixed_u=u0, fixed_omega=om0)
    b = sample_mps(2, 4, stream(12, 1), fixed_u=u0, fixed_omega=om0)
    assert np.array_equal(a.u, u0) and np.array_equal(b.u, u0)
    assert np.array_equal(a.omega, om0)
    assert not np.array_equal(a.lam, b.lam)


def test_mps_sample_json_round_trip():
    sample = sample_mps(2, 3, stream(13, 0))
    doc = json.loads(json.dumps(sample.to_json()))
    back = MpsSample.from_json(doc)
    for attr in ("u", "v", "w", "lam", "omega", "tensors", "l_mat", "r_mat"):
        assert np.array_equal(getattr(back, attr), getattr(sample, attr)), attr


def test_ensemble_params_validation():
    EnsembleParams(d=2, D=4, n=8, l=2, seed=0)
    with pytest.raises(ValueError):
        EnsembleParams(d=2, D=4, n=8, l=3, seed=0)  # n - l odd
    with pytest.raises(ValueError):
        EnsembleParams(d=2, D=4, n=2, l=4, seed=0)  # l > n
    with pytest.raises(ValueError):
        EnsembleParams(d=0, D=4, n=2, l=2, seed=0)
    with pytest.raises(ValueError):
        sample_boundaries(3, stream(0, 0), "not-a-dist")
