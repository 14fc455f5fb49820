"""Window reduced-density computation by channel folding.

The chain state never materializes: the right boundary is folded inward by
the traced transfer channel, the left boundary by its adjoint, and only the
D x D blocks per window index pair are formed.  Cost is
``O(n d D^3 + d^l D^3 + d^(2l) D^2)``; the full ``d^n`` construction exists
only in :func:`brute_force_reduced_density`, the independent cross-check.

Past convergence a fold has a closed form.  The channel is trace
preserving, so ``E^t(R) -> tr(R) rho_inf`` and ``E*^t(L) -> tr(L rho_inf) I``
with ``rho_inf`` the channel's fixed point (:func:`fixed_point`).  Given a
converged limit, :func:`reduced_density` takes that closed form for every
side whose fold length is at least twice the steps the power iteration
needed.  Convergence asks that the estimated distance still left to
``rho_inf``, not only the last step, be at most ``FOLD_TOL``; while the fold
converges geometrically, the term neglected at twice the steps is then of
order ``FOLD_TOL^2``.  A channel too slow to get there within the step cap
stays unconverged and every side folds as before.  A run that holds U fixed
finds the limit once and the per-sample cost no longer grows with ``n``.

Site order is left to right; window strings are row-major with the leftmost
window site most significant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ensembles import MpsSample, _window_split, sample_mps, stream
from .persist import matrix_to_pairs

# largest d^(2l) the window builder will materialize
WINDOW_GUARD = 4096
# largest d^n the brute-force path will build
BRUTE_FORCE_GUARD = 4096

MIN_TRACE = 1e-14
# distance to the fixed point at which the power iteration counts as converged
FOLD_TOL = 1e-14
# largest window entry error, relative to tr rho, the oracle allows the shortcut
LIMIT_TOL = 1e-12


class DegenerateSampleError(RuntimeError):
    """Raised when a window matrix has numerically zero trace."""


@dataclass
class DensityMatrix:
    """A (possibly unnormalized) window density matrix."""

    mat: np.ndarray
    normalized: bool = False

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> float:
        return float(self.mat.trace().real)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "normalized": self.normalized,
            "mat": matrix_to_pairs(self.mat),
        }

    def eigenvalues(self) -> np.ndarray:
        """Spectrum of the Hermitized matrix, ascending."""
        return np.linalg.eigvalsh((self.mat + self.mat.conj().T) / 2.0)


def channel_apply(tensors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Traced transfer channel ``X -> sum_i A_i X A_i^dag``."""
    a = np.asarray(tensors)
    _check_square(x, a.shape[1])
    return (a @ x @ a.conj().transpose(0, 2, 1)).sum(axis=0)


def channel_apply_adjoint(tensors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Adjoint channel ``X -> sum_i A_i^dag X A_i``."""
    a = np.asarray(tensors)
    _check_square(x, a.shape[1])
    return (a.conj().transpose(0, 2, 1) @ x @ a).sum(axis=0)


def _check_square(x: np.ndarray, D: int) -> None:
    if np.asarray(x).shape != (D, D):
        raise ValueError(f"expected a {D}x{D} matrix, got {np.asarray(x).shape}")


class ChannelLimit(NamedTuple):
    """Fixed point of the traced channel from :func:`fixed_point`."""

    rho: np.ndarray
    steps: int
    residual: float
    converged: bool


def fixed_point(tensors: np.ndarray, max_steps: int) -> ChannelLimit:
    """Power iteration of :func:`channel_apply` from ``I/D``.

    Step ``k`` has the relative residual ``r_k = |E(X) - X| / |E(X)|``
    (Frobenius); the last one is returned, ``inf`` when no step was taken.
    The iteration counts as converged once ``r_k <= FOLD_TOL`` and the
    geometric tail ``r_k q / (1 - q)`` is too, and stops there or after
    ``max_steps`` steps.  The tail estimates the distance still left to
    ``rho_inf``, which ``r_k`` alone understates by ``1 / (1 - |lambda_2|)``
    on a slowly mixing channel.  ``q`` is the mean contraction per step over
    the second half of the iteration, ``(r_k / r_h)^(1 / (k - h))`` with
    ``h = k // 2``, which stays meaningful where the ratio of two successive
    residuals is rounding noise.  The returned ``rho`` is Hermitized and
    scaled to unit trace.
    """
    D = np.asarray(tensors).shape[1]
    x = np.eye(D, dtype=complex) / D
    residuals = [float("inf")]  # residuals[k] belongs to step k
    converged = False
    while len(residuals) <= max_steps and not converged:
        y = channel_apply(tensors, x)
        residuals.append(float(np.linalg.norm(y - x) / np.linalg.norm(y)))
        x = y
        converged = _converged(residuals)
    x = (x + x.conj().T) / 2.0
    return ChannelLimit(x / x.trace().real, len(residuals) - 1, residuals[-1], converged)


def _converged(residuals: list[float]) -> bool:
    k = len(residuals) - 1
    r = residuals[-1]
    if r == 0.0:
        return True
    h = k // 2
    if r > FOLD_TOL or h == 0:
        return False
    q = (r / residuals[h]) ** (1.0 / (k - h))
    return q < 1.0 and r * q <= FOLD_TOL * (1.0 - q)


def window_products(tensors: np.ndarray, l: int) -> np.ndarray:
    """All ordered products ``A_{s_1} ... A_{s_l}``, shape ``(d^l, D, D)``.

    String index is row-major with site 1 most significant.  Each extension
    by one site is one broadcast matmul, ``(s, 1, D, D) @ (1, d, D, D)``.
    """
    a = np.asarray(tensors)
    D = a.shape[1]
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    out = a
    for _ in range(l - 1):
        out = (out[:, None] @ a[None]).reshape(-1, D, D)
    return out


def reduced_density(
    sample: MpsSample,
    n: int,
    l: int,
    t_left: int | None = None,
    limit: ChannelLimit | None = None,
) -> DensityMatrix:
    """Unnormalized window density matrix of ``l`` sites out of ``n``.

    The window is centered by default (requires ``n - l`` even); pass
    ``t_left`` for an asymmetric split.  Entry ``(s, t)`` equals
    ``tr(L_env B_s R_env B_t^dag)`` where ``B_s`` is the window product,
    ``R_env`` the right boundary folded ``t_right`` times through the channel
    and ``L_env`` the left boundary folded ``t_left`` times through its
    adjoint.

    ``limit`` is the channel's fixed point for ``sample.tensors``.  When it
    converged, a side with fold length ``t >= 2 * limit.steps`` takes the
    closed form instead of folding: ``R_env = tr(R) rho_inf`` and
    ``L_env = tr(L rho_inf) I``.
    """
    t_left, t_right = _window_split(n, l, t_left)
    d = sample.d
    if d ** (2 * l) > WINDOW_GUARD:
        raise ValueError(
            f"window needs d^2l = {d ** (2 * l)} blocks, above the guard {WINDOW_GUARD}"
        )

    converged = limit is not None and limit.converged
    if converged and t_right >= 2 * limit.steps:
        r_env = np.trace(sample.r_mat) * limit.rho
    else:
        r_env = sample.r_mat
        for _ in range(t_right):
            r_env = channel_apply(sample.tensors, r_env)
    if converged and t_left >= 2 * limit.steps:
        l_env = np.einsum("ab,ba->", sample.l_mat, limit.rho) * np.eye(sample.D)
    else:
        l_env = sample.l_mat
        for _ in range(t_left):
            l_env = channel_apply_adjoint(sample.tensors, l_env)

    b = window_products(sample.tensors, l)
    c = l_env @ b @ r_env
    # rho[s, t] = sum_ab c[s, a, b] conj(b[t, a, b]): one GEMM on flat blocks
    rho = c.reshape(len(c), -1) @ b.reshape(len(b), -1).conj().T
    return DensityMatrix(rho, normalized=False)


def normalize(rho: DensityMatrix) -> DensityMatrix:
    """Scale to unit trace; degenerate (near-zero trace) input raises."""
    tr = rho.mat.trace().real
    if tr <= MIN_TRACE:
        raise DegenerateSampleError(f"trace {tr!r} at or below {MIN_TRACE}")
    return DensityMatrix(rho.mat / tr, normalized=True)


def purity(rho: DensityMatrix) -> float:
    """``tr(rho^2)``, real part."""
    return float(np.einsum("ab,ba->", rho.mat, rho.mat).real)


def renyi2(rho: DensityMatrix) -> float:
    """``-log tr(rho^2)`` of a normalized matrix."""
    _require_normalized(rho)
    return float(-np.log(purity(rho)))


def sup_distance_to_mixed(rho: DensityMatrix) -> float:
    """Operator-norm distance to the maximally mixed state, via eigenvalues."""
    _require_normalized(rho)
    return float(np.abs(rho.eigenvalues() - 1.0 / rho.dim).max())


def _require_normalized(rho: DensityMatrix) -> None:
    if not rho.normalized:
        raise ValueError("observable defined for normalized density matrices only")


def brute_force_reduced_density(
    sample: MpsSample, n: int, l: int, t_left: int | None = None
) -> DensityMatrix:
    """Cross-check path: build the full ``d^n`` chain state, then trace out.

    Independent of :func:`reduced_density`: every amplitude
    ``tr(L A_{s_1} ... A_{s_n} R A_{t_n}^dag ... A_{t_1}^dag)`` is formed
    explicitly.  Guarded to small ``d^n``.
    """
    t_left, t_right = _window_split(n, l, t_left)
    d = sample.d
    if d ** n > BRUTE_FORCE_GUARD:
        raise ValueError(
            f"brute force needs d^n = {d ** n} strings, above the guard {BRUTE_FORCE_GUARD}"
        )
    chains = window_products(sample.tensors, n)  # all length-n products
    lc = sample.l_mat @ chains @ sample.r_mat
    full = np.einsum("sab,tab->st", lc, chains.conj())
    shape = (d ** t_left, d ** l, d ** t_right) * 2
    reduced = np.einsum("abcaec->be", full.reshape(shape))
    return DensityMatrix(reduced, normalized=False)


@dataclass
class OracleSweepReport:
    """Entrywise agreement of the folded and brute-force window matrices,
    and of the converged-limit shortcut with plain folding."""

    n_instances: int
    n_comparisons: int
    max_abs_err: float
    tol: float
    # relative to tr rho; an unconverged limit compares folding with itself
    n_limit_comparisons: int = 0
    n_limit_converged: int = 0
    limit_max_rel_err: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def oracle_sweep(
    n_instances: int,
    seed: int,
    d: int = 2,
    D_values=(1, 2, 3, 16),
    n_values=(2, 4, 6),
    tol: float = 1e-9,
) -> OracleSweepReport:
    """Compare :func:`reduced_density` against the brute-force path.

    Each instance draws a fresh sample at a (D, n) cycled from the given
    grids and checks every window, centered and asymmetric alike.  It then
    checks the converged-limit shortcut: the centered two-site window at
    ``n = 402`` with the limit against plain folding, relative to the
    window's trace.
    """
    combos = list(itertools.product(D_values, n_values))
    report = OracleSweepReport(n_instances=n_instances, n_comparisons=0,
                               max_abs_err=0.0, tol=tol)
    for i in range(n_instances):
        D, n = combos[i % len(combos)]
        sample = sample_mps(d, D, stream(seed, i))
        for l in range(1, n + 1):
            for t_left in range(0, n - l + 1):
                fast = reduced_density(sample, n, l, t_left=t_left).mat
                slow = brute_force_reduced_density(sample, n, l, t_left=t_left).mat
                err = float(np.abs(fast - slow).max())
                report.max_abs_err = max(report.max_abs_err, err)
                report.n_comparisons += 1
                if err > tol:
                    report.failures.append(
                        f"instance {i} (D={D}, n={n}, l={l}, t_left={t_left}): "
                        f"max entry error {err:.3e}"
                    )
        _compare_limit(report, i, sample)
    return report


def _compare_limit(report: OracleSweepReport, i: int, sample: MpsSample) -> None:
    # with the cap collect_records uses, every side folds at least twice
    # the fixed point's steps whenever the iteration converges
    n, l = 402, 2
    limit = fixed_point(sample.tensors, (n - l) // 4)
    fast = reduced_density(sample, n, l, limit=limit).mat
    slow = reduced_density(sample, n, l).mat
    err = float(np.abs(fast - slow).max() / abs(np.trace(slow)))
    report.limit_max_rel_err = max(report.limit_max_rel_err, err)
    report.n_limit_comparisons += 1
    report.n_limit_converged += limit.converged
    if not err <= LIMIT_TOL:
        report.failures.append(
            f"instance {i} (D={sample.D}, n={n}, l={l}, limit after {limit.steps} "
            f"steps, residual {limit.residual:.1e}): max entry error "
            f"{err:.3e} of tr rho"
        )
