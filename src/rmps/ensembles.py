"""Sampling of the random MPS ensemble.

One draw is the tuple ``(U, V, W, lam, omega)``: ``U`` Haar on the unitary
group of size d*D, ``V, W`` Haar on size D, ``lam`` i.i.d. uniform on [0, 1],
``omega`` a point of the probability simplex.  The derived pieces are the
site tensors ``A_i`` (blocks of ``U``) and the boundary matrices
``L = V diag(lam) V^dag`` and ``R = W diag(omega) W^dag``.

Randomness is counter-based: :func:`stream` keys a Philox generator by
``(seed, index)``, so per-sample draws are reproducible bit for bit at any
worker count.  Indices at or above ``FIXED_DRAW_BASE`` are reserved for
held-fixed draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .persist import matrix_to_pairs, pairs_to_matrix, vector_to_list

_UINT64 = (1 << 64) - 1
FIXED_DRAW_BASE = 1 << 62
OMEGA_DISTS = ("dirichlet", "uniform-normalized")


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one Monte Carlo sample."""
    key = np.array([seed & _UINT64, index & _UINT64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EnsembleParams:
    """Chain and sampling parameters: d physical, D bond, n sites, l window."""

    d: int
    D: int
    n: int
    l: int
    seed: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")
        if self.D < 1:
            raise ValueError(f"need D >= 1, got {self.D}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        _window_split(self.n, self.l, None)


def _window_split(n: int, l: int, t_left: int | None) -> tuple[int, int]:
    """Sites ``(t_left, t_right)`` left and right of an ``l``-site window.

    ``t_left=None`` centers the window, which needs ``n - l`` even.
    """
    if not 1 <= l <= n:
        raise ValueError(f"need 1 <= l <= n, got l={l}, n={n}")
    if t_left is None:
        if (n - l) % 2 != 0:
            raise ValueError(f"centered window needs n - l even, got n={n}, l={l}")
        t_left = (n - l) // 2
    t_right = n - l - t_left
    if t_left < 0 or t_right < 0:
        raise ValueError(f"window [{t_left}+{l}+{t_right}] does not fit n={n}")
    return t_left, t_right


def _increasing_grid(values, what: str, min_len: int) -> list[int]:
    """``values`` as ints; raises unless there are at least ``min_len`` of
    them, strictly increasing."""
    grid = [int(v) for v in values]
    if len(grid) < min_len or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(
            f"{what} grid must hold at least {min_len} strictly increasing values, "
            f"got {grid}"
        )
    return grid


def haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar unitaries of size ``dim``, shape ``(count, dim, dim)``.

    QR of a complex standard-Gaussian matrix with the R-diagonal phase fix,
    which makes the factorization unique and the law exactly Haar.
    """
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    return _phase_fixed_q(_complex_gaussian((count, dim, dim), rng))


def _complex_gaussian(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian entries; all real parts are drawn first."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _phase_fixed_q(z: np.ndarray) -> np.ndarray:
    """Q factor of ``z = QR`` (batched over leading axes), with each column
    multiplied by the phase of its R-diagonal entry so the factor is unique."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return haar_unitaries(dim, 1, rng)[0]


def mps_tensors(u: np.ndarray, d: int, D: int) -> np.ndarray:
    """Site tensors from a unitary: ``A_i`` is the ``(i, 0)`` block of ``u``.

    Row blocks are indexed by the physical basis, so the first D columns of
    ``u`` stack the ``A_i`` and ``sum_i A_i^dag A_i = 1`` exactly: the traced
    map ``X -> sum_i A_i X A_i^dag`` is trace preserving.  Returns shape
    ``(d, D, D)``.
    """
    u = np.asarray(u)
    if u.shape != (d * D, d * D):
        raise ValueError(f"expected a {d * D}x{d * D} matrix, got {u.shape}")
    return np.stack([u[i * D:(i + 1) * D, :D] for i in range(d)])


def _sample_simplex(D: int, rng: np.random.Generator, omega_dist: str) -> np.ndarray:
    if omega_dist == "dirichlet":
        return rng.dirichlet(np.ones(D))
    if omega_dist == "uniform-normalized":
        u = rng.uniform(size=D)
        return u / u.sum()
    raise ValueError(f"omega_dist must be one of {OMEGA_DISTS}, got {omega_dist!r}")


def sample_boundaries(D: int, rng: np.random.Generator, omega_dist: str = "dirichlet"):
    """Draw the boundary pair: returns ``(L, R, lam, omega, V, W)``.

    ``lam`` is uniform on ``[0, 1]^D`` and ``omega`` permutation-invariant on
    the simplex (flat Dirichlet by default); ``V, W`` are independent Haar.
    """
    lam, v, omega, w = _draw_boundary_coords(D, rng, omega_dist)
    l_mat = (v * lam) @ v.conj().T
    r_mat = (w * omega) @ w.conj().T
    return l_mat, r_mat, lam, omega, v, w


def _draw_boundary_coords(
    D: int, rng: np.random.Generator, omega_dist: str, fixed_omega: np.ndarray | None = None
):
    """Draw ``(lam, V, omega, W)`` in that order; a held omega is not drawn."""
    lam = rng.uniform(0.0, 1.0, size=D)
    v = haar_unitary(D, rng)
    omega = fixed_omega if fixed_omega is not None else _sample_simplex(D, rng, omega_dist)
    w = haar_unitary(D, rng)
    return lam, v, omega, w


@dataclass
class MpsSample:
    """One ensemble draw plus its derived tensors and boundary matrices."""

    d: int
    D: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    lam: np.ndarray
    omega: np.ndarray
    tensors: np.ndarray  # (d, D, D)
    l_mat: np.ndarray
    r_mat: np.ndarray

    def to_json(self) -> dict:
        dim = self.d * self.D
        return {
            "d": self.d,
            "D": self.D,
            "u": matrix_to_pairs(self.u),
            "v": matrix_to_pairs(self.v),
            "w": matrix_to_pairs(self.w),
            "lam": vector_to_list(self.lam),
            "omega": vector_to_list(self.omega),
            "u_dim": dim,
        }

    @staticmethod
    def from_json(doc: dict) -> "MpsSample":
        d, D = int(doc["d"]), int(doc["D"])
        dim = d * D
        return assemble_sample(
            d,
            D,
            pairs_to_matrix(doc["u"], dim, dim),
            pairs_to_matrix(doc["v"], D, D),
            pairs_to_matrix(doc["w"], D, D),
            np.array(doc["lam"], dtype=float),
            np.array(doc["omega"], dtype=float),
        )


def assemble_sample(
    d: int,
    D: int,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    lam: np.ndarray,
    omega: np.ndarray,
) -> MpsSample:
    """Build an :class:`MpsSample` from explicit ensemble coordinates."""
    return MpsSample(
        d=d,
        D=D,
        u=u,
        v=v,
        w=w,
        lam=np.asarray(lam, dtype=float),
        omega=np.asarray(omega, dtype=float),
        tensors=mps_tensors(u, d, D),
        l_mat=(v * lam) @ v.conj().T,
        r_mat=(w * omega) @ w.conj().T,
    )


def sample_mps(
    d: int,
    D: int,
    rng: np.random.Generator,
    omega_dist: str = "dirichlet",
    fixed_u: np.ndarray | None = None,
    fixed_omega: np.ndarray | None = None,
) -> MpsSample:
    """Draw one sample; ``fixed_u``/``fixed_omega`` hold those coordinates.

    Draw order is fixed (U, lam, V, omega, W); held coordinates are skipped,
    not drawn-and-discarded, so a run is deterministic for a given flag set.
    """
    u = fixed_u if fixed_u is not None else haar_unitary(d * D, rng)
    lam, v, omega, w = _draw_boundary_coords(D, rng, omega_dist, fixed_omega)
    return assemble_sample(d, D, u, v, w, lam, omega)
