"""Exact Weingarten calculus for Haar averages over the unitary group.

``wg`` and ``integrate_monomial`` return exact ``Fraction`` values;
``evaluate_trace_expression`` stays exact while every constant matrix has
integer/rational entries and degrades to complex floats otherwise.

Cost: each degree p gets its character table of S_p, and each (p, n) its
integer Weingarten weights over one common denominator, both built on first
use; a ``wg`` value is then one integer dot product.  A pair sum makes
|Sigma| * |T| lookups in a per-degree table from permutation code to cycle
type, one ``tau`` row at a time, so it still grows like (p!)^2; the degree
guards are hard limits.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .ensembles import _increasing_grid
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
                p, ct, n = int(p_str), parse_partition(ct_str), int(n_str)
                if not 1 <= p <= MAX_WG_DEGREE:
                    raise ValueError(f"degree must be in 1..{MAX_WG_DEGREE}, got {p}")
                if sum(ct) != p:
                    raise ValueError(f"cycle type {ct} does not partition {p}")
                if n < p:
                    raise ValueError(f"dimension n={n} < degree p={p}")
                if int(den_str) == 0:
                    raise ValueError("zero denominator")
                out[p, ct, n] = Fraction(int(num_str), int(den_str))
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
    column = character_table(p).get(ct)
    if column is None:
        raise ValueError(f"cycle type {ct} is not a partition of {p}")
    numerators, denominator = _wg_weights(p, n)
    value = Fraction(sum(map(operator.mul, numerators, column)), denominator)
    cache.store(p, ct, n, value)
    return value


# per-degree tables, each built on first use


@functools.lru_cache(maxsize=None)
def character_table(p: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Characters of S_p by class: ``table[mu][a] == character(lam_a, mu)``.

    Classes and the index ``a`` both run over ``partitions(p)``.  The dict is
    shared by every caller and must not be modified.
    """
    parts = partitions(p)
    return {mu: tuple(character(lam, mu) for lam in parts) for mu in parts}


@functools.lru_cache(maxsize=None)
def _wg_weights(p: int, n: int) -> tuple[tuple[int, ...], int]:
    """``d_lam^2 / s_lam(n)`` over ``partitions(p)`` as integer numerators.

    The second item is their common denominator times ``p!^2``, so that
    ``wg(n, mu)`` is the dot product of the numerators with the character
    column of ``mu``, over it.  Needs ``n >= p``, where every ``s_lam(n) > 0``.
    """
    weights = [dimension(lam) ** 2 / schur_dim(lam, n) for lam in partitions(p)]
    common = math.lcm(*(w.denominator for w in weights))
    numerators = tuple(w.numerator * (common // w.denominator) for w in weights)
    return numerators, common * math.factorial(p) ** 2


@functools.lru_cache(maxsize=None)
def _symmetric_group(p: int) -> tuple[np.ndarray, tuple[tuple[int, ...], ...], np.ndarray]:
    """S_p as 0-based image rows in lexicographic order, its cycle types, and
    a table from the code ``sum_k images[k] * p**k`` to the type's index.

    The table has ``p**p`` entries (-1 where the code is no permutation), so
    it serves the pair sums, whose degree is at most ``MAX_MONOMIAL_DEGREE``.
    """
    perms = np.array(list(itertools.permutations(range(p))), dtype=np.intp)
    perms = perms.reshape(math.factorial(p), p)
    types = tuple(partitions(p)) if p else ((),)
    type_index = {ct: t for t, ct in enumerate(types)}
    code_type = np.full(p ** p, -1, dtype=np.int8)
    code_type[perms @ p ** np.arange(p)] = [
        type_index[_cycle_type_images(tuple(x + 1 for x in row))] for row in perms.tolist()
    ]
    perms.flags.writeable = code_type.flags.writeable = False
    return perms, types, code_type


def integrate_monomial(
    n: int,
    i: Sequence[int],
    j: Sequence[int],
    i_prime: Sequence[int],
    j_prime: Sequence[int],
    cache: WeingartenCache | None = None,
) -> Fraction:
    """Haar average of ``U_{i1 j1} ... U_{ip jp} conj(U_{i'1 j'1}) ...``.

    Double sum over the permutations that match the row tuples and those
    that match the column tuples; exact.  Guarded to ``p <= 6``.
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
    return _pair_sum(n, _matchings(i, i_prime), _matchings(j, j_prime), None, cache)


def _matchings(a: tuple[int, ...], b: tuple[int, ...]) -> np.ndarray:
    """Rows ``s`` of S_p (0-based images) with ``a[k] == b[s[k]]`` for every k."""
    perms = _symmetric_group(len(a))[0]
    return perms[(np.array(b)[perms] == np.array(a)).all(axis=1)]


def _pair_sum(n, sigmas, taus, term, cache) -> Fraction | complex:
    """``sum over sigma, tau of term(sigma, tau) * wg(n, tau sigma^-1)``.

    ``sigmas`` and ``taus`` are arrays of 0-based image rows in S_p, and
    ``term`` gets each pair as two lists; ``term=None`` stands for unit terms.
    One ``tau`` row at a time, the cycle types of ``tau sigma^-1`` over all
    ``sigma`` are read from the code table of S_p and counted, and terms are
    added per type, so ``wg`` is looked up once per type that occurs.  The
    empty type (degree 0) has weight 1.
    """
    p = sigmas.shape[1]
    _, types, code_type = _symmetric_group(p)
    sigma_inv = np.argsort(sigmas, axis=1)
    place = p ** np.arange(p)
    counts = np.zeros(len(types), dtype=np.int64)
    sums: list = [0] * len(types)
    sigma_rows = sigmas.tolist()
    for tau in taus:
        type_ids = code_type[tau[sigma_inv] @ place]
        counts += np.bincount(type_ids, minlength=len(types))
        if term is not None:
            tau_row = tau.tolist()
            for sigma, t in zip(sigma_rows, type_ids.tolist()):
                sums[t] += term(sigma, tau_row)
    total = Fraction(0)
    for t in np.flatnonzero(counts).tolist():
        value = int(counts[t]) if term is None else sums[t]
        total += value * (wg_from_cycle_type(n, types[t], cache) if types[t] else 1)
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
    ``constants[name]``.  Every word must be non-empty, every U slot and every
    Ubar slot in ``1..p`` must appear exactly once across all words, and all
    constants must be ``n x n``.
    """

    n: int
    words: list[list[Token]]
    constants: dict[str, object] = field(default_factory=dict)

    def validate(self) -> int:
        """Check words, slot coverage and constant shapes; return the degree p."""
        if not all(self.words):
            raise MalformedExpressionError("empty word")
        refs: dict[str, list] = {"U": [], "Ubar": [], "C": []}
        for word in self.words:
            for kind, ref in word:
                if kind not in refs:
                    raise MalformedExpressionError(f"unknown token kind {kind!r}")
                refs[kind].append(ref)
        u_slots, ubar_slots, const_names = refs["U"], refs["Ubar"], set(refs["C"])
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
        return all(isinstance(x, (int, Fraction))
                   for name in used for row in self.constants[name] for x in row)

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

    Tokens are numbered across all words; ``succ`` takes each to the next
    one in its word, cyclically.  For a pair ``(sigma, tau)`` the deltas of
    the Weingarten formula join ``U_k`` to ``Ubar_sigma(k)`` and
    ``Ubar_tau(k)`` to ``U_k``; call that map ``jump`` (it fixes constants).
    The index loops are then the cycles of ``o -> succ[jump[o]]``, which run
    in word order, so each loop is worth the trace of its constants in visit
    order, or ``n`` when it holds none.  The loop product is weighted by the
    Weingarten value of ``tau sigma^-1``.  Exact when the constants are
    rational.
    """
    p = expr.validate()
    if p > MAX_EXPRESSION_DEGREE:
        raise ValueError(f"degree must be <= {MAX_EXPRESSION_DEGREE}, got {p}")
    exact = expr.is_exact()

    tokens = [(kind, ref) for word in expr.words for kind, ref in word]
    pos = {token: o for o, token in enumerate(tokens)}  # U and Ubar tokens are unique
    const_at = {o: ref for o, (kind, ref) in enumerate(tokens) if kind == "C"}
    succ: list[int] = []
    for word in expr.words:
        first = len(succ)
        succ += range(first + 1, first + len(word))
        succ.append(first)
    entry = Fraction if exact else complex
    mats = {
        name: np.array([[entry(x) for x in row] for row in expr.constants[name]],
                       dtype=object if exact else complex)
        for name in set(const_at.values())
    }
    loop_values: dict[tuple, object] = {(): expr.n}

    def loop_value(names: tuple) -> object:
        key = min((names[r:] + names[:r] for r in range(len(names))), default=())
        if key not in loop_values:
            product = functools.reduce(operator.matmul, (mats[x] for x in key))
            loop_values[key] = entry(product.trace())
        return loop_values[key]

    u_at = [pos["U", k] for k in range(1, p + 1)]
    ubar_at = [pos["Ubar", k] for k in range(1, p + 1)]

    def term(sigma: list[int], tau: list[int]) -> object:
        jump = list(range(len(tokens)))
        for k in range(p):
            jump[u_at[k]] = ubar_at[sigma[k]]
            jump[ubar_at[tau[k]]] = u_at[k]
        seen = [False] * len(tokens)
        value = 1
        for start in range(len(tokens)):
            if seen[start]:
                continue
            names = []
            o = start
            while not seen[o]:
                seen[o] = True
                if o in const_at:
                    names.append(const_at[o])
                o = succ[jump[o]]
            value *= loop_value(tuple(names))
        return value

    perms = _symmetric_group(p)[0]
    return _pair_sum(expr.n, perms, perms, term, cache)


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
    # one value, or a repeat, would let the growth check pass vacuously
    n_grid = _increasing_grid(n_grid, "dimension", 2)
    if p < 1 or k < 1:
        raise ValueError("need p >= 1 and k >= 1")
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
    n_grid = _increasing_grid(n_grid, "dimension", 2)
    logs_n = np.log(np.array(n_grid, dtype=float))
    out = {}
    for ct in partitions(p):
        vals = [wg_from_cycle_type(n, ct, cache) for n in n_grid]
        if any(v == 0 for v in vals):
            raise ValueError(f"wg vanishes on the grid for cycle type {ct}")
        logs_w = np.log(np.abs(np.array([float(v) for v in vals])))
        out[ct] = float(np.polyfit(logs_n, logs_w, 1)[0])
    return out
