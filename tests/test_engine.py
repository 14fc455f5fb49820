"""Engine tests: channel identities, window reduction vs brute force,
observables on hand-built matrices."""

import functools
import inspect
import itertools
import math

import numpy as np
import pytest

from rmps.engine import (
    DegenerateSampleError,
    DensityMatrix,
    brute_force_reduced_density,
    channel_apply,
    channel_apply_adjoint,
    normalize,
    oracle_sweep,
    purity,
    reduced_density,
    renyi2,
    sup_distance_to_mixed,
    window_products,
)
from rmps.ensembles import assemble_sample, haar_unitary, sample_mps, stream


def random_psd(D, rng):
    m = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return m @ m.conj().T


# ---------------------------------------------------------------------------
# channel


def test_channel_preserves_trace_and_psd():
    rng = stream(20, 0)
    sample = sample_mps(3, 4, rng)
    x = random_psd(4, rng)
    out = channel_apply(sample.tensors, x)
    assert abs(np.trace(out) - np.trace(x)) < 1e-9
    assert np.linalg.eigvalsh(out).min() > -1e-12


def test_channel_adjoint_is_adjoint():
    rng = stream(21, 0)
    sample = sample_mps(2, 5, rng)
    x, y = random_psd(5, rng), random_psd(5, rng)
    lhs = np.trace(y.conj().T @ channel_apply(sample.tensors, x))
    rhs = np.trace(channel_apply_adjoint(sample.tensors, y).conj().T @ x)
    assert abs(lhs - rhs) < 1e-9


def test_channel_single_tensor_is_conjugation():
    u = haar_unitary(4, stream(22, 0))
    tensors = u[None, :, :]
    x = random_psd(4, stream(22, 1))
    out = channel_apply(tensors, x)
    assert np.allclose(sorted(np.linalg.eigvalsh(out)), sorted(np.linalg.eigvalsh(x)))


def test_channel_bond_dimension_one():
    sample = sample_mps(2, 1, stream(23, 0))
    x = np.array([[2.5]])
    out = channel_apply(sample.tensors, x)
    assert abs(out[0, 0] - 2.5) < 1e-12  # sum |a_i|^2 = 1


def test_channel_shape_guard():
    sample = sample_mps(2, 3, stream(24, 0))
    with pytest.raises(ValueError):
        channel_apply(sample.tensors, np.eye(4))


# ---------------------------------------------------------------------------
# reduced density


def test_full_window_trace_is_boundary_overlap():
    # l = n with L = identity: trace equals tr R = 1 by trace preservation
    D = 3
    sample = sample_mps(2, D, stream(25, 0))
    ones = np.ones(D)
    with_l_identity = assemble_sample(
        2, D, sample.u, np.eye(D, dtype=complex), sample.w, ones, sample.omega
    )
    rho = reduced_density(with_l_identity, 4, 4)
    assert abs(rho.trace - 1.0) < 1e-9


def test_bond_dimension_one_is_rank_one():
    sample = sample_mps(2, 1, stream(26, 0))
    rho = normalize(reduced_density(sample, 4, 2))
    assert purity(rho) == pytest.approx(1.0, abs=1e-9)


def test_physical_dimension_one_is_scalar():
    sample = sample_mps(1, 3, stream(27, 0))
    rho = reduced_density(sample, 5, 1, t_left=2)
    assert rho.mat.shape == (1, 1)
    a = sample.tensors[0]
    chain = np.linalg.matrix_power(a, 5)
    direct = np.trace(sample.l_mat @ chain @ sample.r_mat @ chain.conj().T)
    assert abs(rho.mat[0, 0] - direct) < 1e-10
    assert rho.mat[0, 0].real >= 0


@pytest.mark.parametrize("D,n", [(1, 4), (2, 4), (3, 6)])
def test_matches_brute_force(D, n):
    sample = sample_mps(2, D, stream(28, D * 10 + n))
    for l in range(1, n + 1):
        for t_left in range(0, n - l + 1):
            fast = reduced_density(sample, n, l, t_left=t_left).mat
            slow = brute_force_reduced_density(sample, n, l, t_left=t_left).mat
            assert np.abs(fast - slow).max() < 1e-9


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_matches_brute_force_at_blocked_bond_dimension(l):
    # D=16 is large enough for BLAS to block the window products and the
    # closing GEMM; the D <= 3 sweep above never reaches that
    n = 6
    sample = sample_mps(2, 16, stream(36, l))
    for t_left in range(0, n - l + 1):
        fast = reduced_density(sample, n, l, t_left=t_left).mat
        slow = brute_force_reduced_density(sample, n, l, t_left=t_left).mat
        assert np.abs(fast - slow).max() < 1e-12 * abs(np.trace(slow))


def test_oracle_sweep_reaches_blocked_bond_dimension():
    # the default grid must reach a D at which BLAS blocks the window GEMMs
    D_values = inspect.signature(oracle_sweep).parameters["D_values"].default
    assert max(D_values) >= 16
    report = oracle_sweep(3 * len(D_values), seed=32)
    assert report.ok
    assert report.n_comparisons == len(D_values) * (3 + 10 + 21)


def test_oracle_sweep_clean():
    report = oracle_sweep(6, seed=31)
    assert report.ok
    assert report.max_abs_err < 1e-9


def test_partial_trace_consistency():
    sample = sample_mps(2, 3, stream(29, 0))
    n = 6
    for l in (1, 2, 3):
        for t_left in range(0, n - l):
            wide = reduced_density(sample, n, l + 1, t_left=t_left).mat
            narrow = reduced_density(sample, n, l, t_left=t_left).mat
            d_l = 2 ** l
            traced = np.einsum("aibi->ab", wide.reshape(d_l, 2, d_l, 2))
            assert np.abs(traced - narrow).max() < 1e-9


def test_scale_covariance_in_left_boundary():
    sample = sample_mps(2, 3, stream(30, 0))
    scaled = assemble_sample(
        2, 3, sample.u, sample.v, sample.w, 0.5 * sample.lam, sample.omega
    )
    rho = reduced_density(sample, 4, 2)
    rho_scaled = reduced_density(scaled, 4, 2)
    assert np.abs(rho_scaled.mat - 0.5 * rho.mat).max() < 1e-10
    n1, n2 = normalize(rho), normalize(rho_scaled)
    assert np.abs(n1.mat - n2.mat).max() < 1e-10


def test_hermitian_psd_on_samples():
    for idx in range(5):
        sample = sample_mps(2, 4, stream(31, idx))
        rho = reduced_density(sample, 6, 2)
        assert np.abs(rho.mat - rho.mat.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho.mat).min() > -1e-9


@pytest.mark.parametrize("d,D,l", [(2, 16, 4), (3, 5, 3), (2, 64, 2)])
def test_hermitian_to_rounding(d, D, l):
    sample = sample_mps(d, D, stream(37, D))
    rho = reduced_density(sample, l + 2, l).mat
    assert np.abs(rho - rho.conj().T).max() <= 1e-14 * np.trace(rho).real


def test_window_products_ordering():
    sample = sample_mps(2, 3, stream(33, 0))
    a = sample.tensors
    prods = window_products(a, 3)
    # row-major with the first site most significant: index 6 = (1,1,0)
    assert np.allclose(prods[6], a[1] @ a[1] @ a[0])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("D", [1, 5])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_window_products_are_the_ordered_products(d, D, l):
    a = sample_mps(d, D, stream(38, 10 * d + D)).tensors
    prods = window_products(a, l)
    strings = list(itertools.product(range(d), repeat=l))  # row-major
    assert prods.shape == (len(strings), D, D)
    for index, string in enumerate(strings):
        naive = functools.reduce(np.matmul, [a[s] for s in string])
        assert np.abs(prods[index] - naive).max() < 1e-13


def test_window_guard():
    sample = sample_mps(2, 1, stream(34, 0))
    with pytest.raises(ValueError, match="guard"):
        reduced_density(sample, 8, 7, t_left=0)
    with pytest.raises(ValueError):
        reduced_density(sample, 4, 3)  # centered window needs n - l even
    with pytest.raises(ValueError):
        reduced_density(sample, 4, 2, t_left=3)


def test_brute_force_guard():
    sample = sample_mps(2, 1, stream(35, 0))
    with pytest.raises(ValueError, match="guard"):
        brute_force_reduced_density(sample, 14, 2)


# ---------------------------------------------------------------------------
# observables


def test_normalize_examples():
    rho = DensityMatrix(np.diag([3.0, 1.0]).astype(complex))
    out = normalize(rho)
    assert np.allclose(out.mat, np.diag([0.75, 0.25]))
    assert out.normalized
    again = normalize(out)
    assert np.allclose(again.mat, out.mat)
    with pytest.raises(DegenerateSampleError):
        normalize(DensityMatrix(np.zeros((2, 2), dtype=complex)))


def test_observables_on_known_matrices():
    mixed = DensityMatrix(np.eye(4, dtype=complex) / 4.0, normalized=True)
    assert purity(mixed) == pytest.approx(0.25)
    assert renyi2(mixed) == pytest.approx(2 * math.log(2))
    assert sup_distance_to_mixed(mixed) == pytest.approx(0.0, abs=1e-12)

    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    state = DensityMatrix(pure, normalized=True)
    assert purity(state) == pytest.approx(1.0)
    assert sup_distance_to_mixed(state) == pytest.approx(0.75)

    skew = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), normalized=True)
    assert purity(skew) == pytest.approx(5.0 / 8.0)


def test_normalized_only_observables_reject_raw_input():
    rho = DensityMatrix(np.diag([3.0, 1.0]).astype(complex))
    with pytest.raises(ValueError):
        renyi2(rho)
    with pytest.raises(ValueError):
        sup_distance_to_mixed(rho)
    assert purity(rho) == pytest.approx(10.0)  # fine unnormalized


def test_density_matrix_export():
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), normalized=True)
    doc = rho.to_json()
    assert doc["dim"] == 2 and doc["normalized"]
    assert doc["mat"][0] == [0.75, 0.0]
    eigs = rho.eigenvalues()
    assert np.allclose(eigs, [0.25, 0.75])
