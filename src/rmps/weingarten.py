"""Exact Weingarten calculus for Haar averages over the unitary group.

``wg`` and ``integrate_monomial`` return exact ``Fraction`` values;
``evaluate_trace_expression`` stays exact while every constant matrix has
integer/rational entries and degrades to complex floats otherwise.

Degree guards are hard limits: the sums here are over one or two copies of
S_p, so cost grows like p! and (p!)^2.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .symgroup import (
    Permutation,
    _cycle_type_images,
    character,
    cycle_type,
    dimension,
    partition_str,
    parse_partition,
    partitions,
    schur_dim,
)

MAX_WG_DEGREE = 10
MAX_MONOMIAL_DEGREE = 6
MAX_EXPRESSION_DEGREE = 5


class SingularDimensionError(ValueError):
    """Raised when the dimension is too small for the requested degree."""


class MalformedExpressionError(ValueError):
    """Raised for trace expressions whose wiring or constants are invalid."""


# ---------------------------------------------------------------------------
# cache


class WeingartenCache:
    """Exact values keyed by ``(p, cycle_type, n)``, optionally disk-backed.

    File format is one record per line::

        p;cycle_type;n;numerator/denominator

    e.g. ``2;1,1;8;1/63``.  Values are appended as they are computed; reads
    are lock-free (plain dict lookups), writes are serialized.
    """

    def __init__(self, path: str | Path | None = None):
        self._values: dict[tuple[int, tuple[int, ...], int], Fraction] = {}
        self._lock = threading.Lock()
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            self._values.update(load_cache(self.path))

    def lookup(self, p: int, ct: tuple[int, ...], n: int) -> Fraction | None:
        return self._values.get((p, ct, n))

    def store(self, p: int, ct: tuple[int, ...], n: int, value: Fraction) -> None:
        with self._lock:
            if (p, ct, n) in self._values:
                return
            self._values[(p, ct, n)] = value
            if self.path is not None:
                with open(self.path, "a", encoding="ascii") as fh:
                    fh.write(f"{p};{partition_str(ct)};{n};"
                             f"{value.numerator}/{value.denominator}\n")


def load_cache(path: str | Path) -> dict[tuple[int, tuple[int, ...], int], Fraction]:
    """Parse a cache file; malformed lines raise naming the line number."""
    out: dict[tuple[int, tuple[int, ...], int], Fraction] = {}
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                p_str, ct_str, n_str, frac_str = line.split(";")
                num_str, den_str = frac_str.split("/")
                key = (int(p_str), parse_partition(ct_str), int(n_str))
                out[key] = Fraction(int(num_str), int(den_str))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}: malformed cache line {lineno}: {line!r}") from exc
    return out


_default_cache = WeingartenCache()


# ---------------------------------------------------------------------------
# the Weingarten function


def wg(n: int, sigma: Permutation, cache: WeingartenCache | None = None) -> Fraction:
    """Exact Weingarten value for a permutation in S_p at dimension ``n``.

    Depends on ``sigma`` only through its cycle type.  Requires ``n >= p`` so
    that every Schur dimension in the defining sum is positive.
    """
    return wg_from_cycle_type(n, cycle_type(sigma), cache)


def wg_from_cycle_type(
    n: int, ct: Sequence[int], cache: WeingartenCache | None = None
) -> Fraction:
    ct = tuple(ct)
    p = sum(ct)
    if not 1 <= p <= MAX_WG_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_WG_DEGREE}, got {p}")
    if n < p:
        raise SingularDimensionError(
            f"dimension n={n} < degree p={p}: a Schur dimension in the sum vanishes"
        )
    cache = cache if cache is not None else _default_cache
    hit = cache.lookup(p, ct, n)
    if hit is not None:
        return hit
    total = Fraction(0)
    for lam in partitions(p):
        total += Fraction(dimension(lam) ** 2 * character(lam, ct)) / schur_dim(lam, n)
    value = total / math.factorial(p) ** 2
    cache.store(p, ct, n, value)
    return value


def integrate_monomial(
    n: int,
    i: Sequence[int],
    j: Sequence[int],
    i_prime: Sequence[int],
    j_prime: Sequence[int],
    cache: WeingartenCache | None = None,
) -> Fraction:
    """Haar average of ``U_{i1 j1} ... U_{ip jp} conj(U_{i'1 j'1}) ...``.

    Double sum over S_p x S_p with delta matching of the row and column
    tuples; exact.  Guarded to ``p <= 6``.
    """
    i, j, i_prime, j_prime = (tuple(int(x) for x in t) for t in (i, j, i_prime, j_prime))
    p = len(i)
    if not (len(j) == len(i_prime) == len(j_prime) == p):
        raise ValueError("index tuples must all have the same length")
    if not 1 <= p <= MAX_MONOMIAL_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_MONOMIAL_DEGREE}, got {p}")
    for t in (i, j, i_prime, j_prime):
        if any(not 1 <= x <= n for x in t):
            raise ValueError(f"indices must lie in 1..{n}: {t}")

    # sigma in 0-indexed image form: position k maps to sigma[k]
    sigmas = [
        s for s in itertools.permutations(range(p))
        if all(i[k] == i_prime[s[k]] for k in range(p))
    ]
    if not sigmas:
        return Fraction(0)
    taus = [
        t for t in itertools.permutations(range(p))
        if all(j[k] == j_prime[t[k]] for k in range(p))
    ]
    total = Fraction(0)
    for s in sigmas:
        s_inv = [0] * p
        for k, v in enumerate(s):
            s_inv[v] = k
        for t in taus:
            composed = tuple(t[s_inv[x]] + 1 for x in range(p))
            total += wg_from_cycle_type(n, _cycle_type_images(composed), cache)
    return total


# ---------------------------------------------------------------------------
# trace expressions and their Haar averages

# tokens: ("U", k), ("Ubar", k), ("C", name)
Token = tuple[str, int | str]


@dataclass
class TraceExpression:
    """Product of traces of words in Haar-unitary slots and constants.

    Each word is a cyclic matrix product.  ``("U", k)`` is the k-th unitary
    factor; ``("Ubar", k)`` is the k-th conjugated factor and enters the
    product as the adjoint; ``("C", name)`` is the fixed matrix
    ``constants[name]``.  Every U slot and every Ubar slot in ``1..p`` must
    appear exactly once across all words, and all constants must be ``n x n``.
    """

    n: int
    words: list[list[Token]]
    constants: dict[str, object] = field(default_factory=dict)

    def validate(self) -> int:
        """Check slot coverage and constant shapes; return the degree p."""
        u_slots, ubar_slots, const_names = [], [], set()
        for word in self.words:
            for token in word:
                kind, ref = token
                if kind == "U":
                    u_slots.append(ref)
                elif kind == "Ubar":
                    ubar_slots.append(ref)
                elif kind == "C":
                    const_names.add(ref)
                else:
                    raise MalformedExpressionError(f"unknown token kind {kind!r}")
        p = len(u_slots)
        if sorted(u_slots) != list(range(1, p + 1)):
            raise MalformedExpressionError(
                f"U slots must be 1..{p} each exactly once, got {sorted(u_slots)}"
            )
        if sorted(ubar_slots) != list(range(1, p + 1)):
            raise MalformedExpressionError(
                f"Ubar slots must match U slots 1..{p}, got {sorted(ubar_slots)}"
            )
        missing = const_names - set(self.constants)
        if missing:
            raise MalformedExpressionError(f"constants not provided: {sorted(missing)}")
        for name in const_names:
            mat = self.constants[name]
            rows = list(mat)
            if len(rows) != self.n or any(len(list(r)) != self.n for r in rows):
                raise MalformedExpressionError(
                    f"constant {name!r} is not {self.n}x{self.n}"
                )
        return p

    def is_exact(self) -> bool:
        """True when every referenced constant has int/Fraction entries."""
        used = {ref for w in self.words for kind, ref in w if kind == "C"}
        for name in used:
            for row in self.constants[name]:
                for x in row:
                    if not isinstance(x, (int, Fraction)):
                        return False
        return True

    def evaluate_at(self, u: np.ndarray) -> complex:
        """Value of the expression at a concrete unitary (no averaging)."""
        self.validate()
        u = np.asarray(u, dtype=complex)
        total = 1.0 + 0.0j
        for word in self.words:
            prod = np.eye(self.n, dtype=complex)
            for kind, ref in word:
                if kind == "U":
                    prod = prod @ u
                elif kind == "Ubar":
                    prod = prod @ u.conj().T
                else:
                    prod = prod @ np.array(
                        [[complex(x) for x in row] for row in self.constants[ref]]
                    )
            total *= np.trace(prod)
        return complex(total)


def evaluate_trace_expression(
    expr: TraceExpression, cache: WeingartenCache | None = None
) -> Fraction | complex:
    """Haar average of a trace expression via loop decomposition.

    For each pair of permutations the unitary boxes are deleted, row sides
    rejoined by the first permutation and column sides by the second; the
    wiring then falls apart into loops, each contributing the trace of the
    constant matrices along it (an empty loop contributes ``n``), and the
    loop product is weighted by the Weingarten value of the relative
    permutation.  Exact when the constants are rational.
    """
    p = expr.validate()
    if p > MAX_EXPRESSION_DEGREE:
        raise ValueError(f"degree must be <= {MAX_EXPRESSION_DEGREE}, got {p}")
    exact = expr.is_exact()

    # occurrence table: one entry per token; each has a row node and col node
    occ_kind: list[str] = []
    occ_ref: list[object] = []
    u_occ: dict[int, int] = {}
    ubar_occ: dict[int, int] = {}
    words_occs: list[list[int]] = []
    for word in expr.words:
        if not word:
            raise MalformedExpressionError("empty word")
        occs = []
        for kind, ref in word:
            o = len(occ_kind)
            occ_kind.append(kind)
            occ_ref.append(ref)
            if kind == "U":
                u_occ[ref] = o
            elif kind == "Ubar":
                ubar_occ[ref] = o
            occs.append(o)
        words_occs.append(occs)

    if exact:
        const_mats: dict[object, list[list[Fraction]]] = {
            name: [[Fraction(x) for x in row] for row in mat]
            for name, mat in expr.constants.items()
        }
    else:
        const_mats = {
            name: np.array([[complex(x) for x in row] for row in mat])
            for name, mat in expr.constants.items()
        }

    # static edges: word adjacency (col of one factor to row of the next,
    # cyclically) and the through-the-matrix edge of each constant, whose
    # a-end is by convention the row side.
    static_edges: list[tuple[tuple[int, str], tuple[int, str], object]] = []
    for occs in words_occs:
        m = len(occs)
        for t in range(m):
            static_edges.append(((occs[t], "c"), (occs[(t + 1) % m], "r"), None))
    for o, kind in enumerate(occ_kind):
        if kind == "C":
            static_edges.append(((o, "r"), (o, "c"), occ_ref[o]))

    def loop_values(sigma: tuple[int, ...], tau: tuple[int, ...]):
        """Loop factor lists for one permutation pair (0-indexed images)."""
        edges = list(static_edges)
        for k in range(p):
            # row of U_k joins the column node of the adjoint box it maps to,
            # and vice versa for the column side
            edges.append(((u_occ[k + 1], "r"), (ubar_occ[sigma[k] + 1], "c"), None))
            edges.append(((u_occ[k + 1], "c"), (ubar_occ[tau[k] + 1], "r"), None))
        incident: dict[tuple[int, str], list[int]] = {}
        for eid, (a, b, _) in enumerate(edges):
            incident.setdefault(a, []).append(eid)
            incident.setdefault(b, []).append(eid)
        visited = [False] * len(edges)
        loops = []
        for start in range(len(edges)):
            if visited[start]:
                continue
            factors = []  # (name, entered_at_row_end)
            eid, node = start, edges[start][0]
            while True:
                visited[eid] = True
                a, b, payload = edges[eid]
                if payload is not None:
                    factors.append((payload, node == a))
                node = b if node == a else a
                e1, e2 = incident[node]
                eid = e2 if e1 == eid else e1
                if eid == start:
                    break
            loops.append(factors)
        return loops

    def loop_value(factors) -> object:
        if not factors:
            return Fraction(expr.n) if exact else complex(expr.n)
        mats = []
        for name, forward in factors:
            mat = const_mats[name]
            if exact:
                mats.append(mat if forward else _transpose_exact(mat))
            else:
                mats.append(mat if forward else mat.T)
        if exact:
            prod = mats[0]
            for m in mats[1:]:
                prod = _matmul_exact(prod, m)
            return sum(prod[i][i] for i in range(len(prod)))
        prod = mats[0]
        for m in mats[1:]:
            prod = prod @ m
        return complex(np.trace(prod))

    total: object = Fraction(0) if exact else 0j
    perms = list(itertools.permutations(range(p)))
    for sigma in perms:
        sigma_inv = [0] * p
        for k, v in enumerate(sigma):
            sigma_inv[v] = k
        for tau in perms:
            rel = tuple(tau[sigma_inv[x]] + 1 for x in range(p))
            weight = wg_from_cycle_type(expr.n, _cycle_type_images(rel), cache) if p else Fraction(1)
            coeff: object = Fraction(1) if exact else 1.0 + 0j
            for factors in loop_values(sigma, tau):
                coeff = coeff * loop_value(factors)
            total = total + coeff * (weight if exact else float(weight))
    return total


def _transpose_exact(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    return [list(col) for col in zip(*mat)]


def _matmul_exact(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


# ---------------------------------------------------------------------------
# asymptotic-envelope reporting


@dataclass
class WgBoundRow:
    n: int
    ratios: dict[tuple[int, ...], float]
    max_ratio: float


@dataclass
class WgBoundReport:
    """Normalized magnitudes ``|wg(n, s)| * n^(p + |s|(1 - 2/k))`` over a grid.

    ``no_growth`` records whether the per-n maximum never exceeds its value
    at the smallest n, i.e. the grid is bounded by a common constant.
    """

    p: int
    k: int
    rows: list[WgBoundRow]
    no_growth: bool


def wg_bound_ratio(
    p: int, k: int, n_grid: Sequence[int], cache: WeingartenCache | None = None
) -> WgBoundReport:
    """Evaluate the decay-envelope ratios over ``n_grid``.

    Requires ``p^k <= min(n_grid)``; raises otherwise, naming both sides.
    """
    n_grid = [int(n) for n in n_grid]
    if p < 1 or k < 1 or not n_grid:
        raise ValueError("need p >= 1, k >= 1 and a non-empty grid")
    if p > 8:
        raise ValueError(f"degree must be <= 8, got {p}")
    if p ** k > min(n_grid):
        raise ValueError(
            f"hypothesis p^k <= n violated: {p}^{k} = {p ** k} > min(grid) = {min(n_grid)}"
        )
    rows = []
    for n in n_grid:
        ratios = {}
        for ct in partitions(p):
            moved = p - len(ct)  # |sigma| for this cycle type
            value = wg_from_cycle_type(n, ct, cache)
            ratios[ct] = abs(float(value)) * float(n) ** (p + moved * (1.0 - 2.0 / k))
        rows.append(WgBoundRow(n=n, ratios=ratios, max_ratio=max(ratios.values())))
    first = rows[0].max_ratio
    no_growth = all(row.max_ratio <= first * (1.0 + 1e-9) for row in rows)
    return WgBoundReport(p=p, k=k, rows=rows, no_growth=no_growth)


def wg_log_slopes(
    p: int, n_grid: Sequence[int], cache: WeingartenCache | None = None
) -> dict[tuple[int, ...], float]:
    """Least-squares slope of ``log |wg|`` against ``log n`` per cycle type.

    The expected slope is ``-p - |sigma|``: lower-order coefficients vanish.
    """
    n_grid = [int(n) for n in n_grid]
    logs_n = np.log(np.array(n_grid, dtype=float))
    out = {}
    for ct in partitions(p):
        vals = [wg_from_cycle_type(n, ct, cache) for n in n_grid]
        if any(v == 0 for v in vals):
            raise ValueError(f"wg vanishes on the grid for cycle type {ct}")
        logs_w = np.log(np.abs(np.array([float(v) for v in vals])))
        out[ct] = float(np.polyfit(logs_n, logs_w, 1)[0])
    return out
