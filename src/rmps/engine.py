"""Window reduced-density computation by channel folding.

The chain state never materializes: the right boundary is folded inward by
the traced transfer channel, the left boundary by its adjoint, and only the
D x D blocks per window index pair are formed.  Cost is
``O(n d D^3 + d^l D^3 + d^(2l) D^2)``; the full ``d^n`` construction exists
only in :func:`brute_force_reduced_density`, the independent cross-check.

Site order is left to right; window strings are row-major with the leftmost
window site most significant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .ensembles import MpsSample, _window_split, sample_mps, stream
from .persist import matrix_to_pairs

# largest d^(2l) the window builder will materialize
WINDOW_GUARD = 4096
# largest d^n the brute-force path will build
BRUTE_FORCE_GUARD = 4096

MIN_TRACE = 1e-14


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
    sample: MpsSample, n: int, l: int, t_left: int | None = None
) -> DensityMatrix:
    """Unnormalized window density matrix of ``l`` sites out of ``n``.

    The window is centered by default (requires ``n - l`` even); pass
    ``t_left`` for an asymmetric split.  Entry ``(s, t)`` equals
    ``tr(L_env B_s R_env B_t^dag)`` where ``B_s`` is the window product,
    ``R_env`` the right boundary folded ``t_right`` times through the channel
    and ``L_env`` the left boundary folded ``t_left`` times through its
    adjoint.
    """
    t_left, t_right = _window_split(n, l, t_left)
    d = sample.d
    if d ** (2 * l) > WINDOW_GUARD:
        raise ValueError(
            f"window needs d^2l = {d ** (2 * l)} blocks, above the guard {WINDOW_GUARD}"
        )

    r_env = sample.r_mat
    for _ in range(t_right):
        r_env = channel_apply(sample.tensors, r_env)
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
    """Entrywise agreement of the folded and brute-force window matrices."""

    n_instances: int
    n_comparisons: int
    max_abs_err: float
    tol: float
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
    grids and checks every window, centered and asymmetric alike.
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
    return report
