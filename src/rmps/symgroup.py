"""Exact symmetric-group combinatorics: partitions, permutations, characters.

Everything in this module is exact integer/rational arithmetic; floating
point is deliberately banned here because downstream consumers build
alternating sums that cancel catastrophically in floats.

Conventions:
  * Partitions are non-increasing tuples of positive ints, e.g. ``(3, 2)``;
    the canonical enumeration order is lexicographic descending.
  * Permutations act on ``{1..p}`` and parse/print in cycle notation,
    ``"(1 2 3)(4 5)"``; the identity prints ``"()"``.

All functions are pure and all values immutable; the memo tables behind
:func:`character` and :func:`partitions` are ``functools.lru_cache`` tables,
safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

MAX_PARTITION_DEGREE = 30
MAX_CHARACTER_DEGREE = 14


# ---------------------------------------------------------------------------
# partitions


def check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalize a partition to a tuple; raise on bad input."""
    parts = tuple(int(x) for x in parts)
    if any(x < 1 for x in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition parts must be non-increasing: {parts}")
    return parts


def partitions(p: int) -> list[tuple[int, ...]]:
    """All partitions of ``p``, each once, lexicographically descending.

    ``(p)`` comes first and ``(1,...,1)`` last.  Guarded to ``p <= 30``.
    """
    if not 1 <= p <= MAX_PARTITION_DEGREE:
        raise ValueError(
            f"partition degree must be in 1..{MAX_PARTITION_DEGREE}, got {p}"
        )
    return list(_partitions_bounded(p, p))


@lru_cache(maxsize=None)
def _partitions_bounded(p: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if p == 0:
        return ((),)
    out = []
    for first in range(min(p, max_part), 0, -1):
        for rest in _partitions_bounded(p - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate_partition(lam: Sequence[int]) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


def partition_str(lam: Sequence[int]) -> str:
    """Comma-joined parts, e.g. ``"2,1"``."""
    return ",".join(str(x) for x in lam)


def parse_partition(text: str) -> tuple[int, ...]:
    return check_partition(int(tok) for tok in text.split(","))


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{1..p}`` stored as its image tuple.

    ``images[i - 1]`` is the image of ``i``.  Composition is function
    composition: ``(a * b)(i) == a(b(i))``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection on 1..{len(images)}: {images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    @staticmethod
    def identity(p: int) -> "Permutation":
        return Permutation(tuple(range(1, p + 1)))

    @staticmethod
    def from_cycles(p: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles on ``{1..p}``; fixed points may be omitted."""
        images = list(range(1, p + 1))
        seen: set[int] = set()
        for cyc in cycles:
            cyc = list(cyc)
            for x in cyc:
                if not 1 <= x <= p:
                    raise ValueError(f"cycle entry {x} outside 1..{p}")
                if x in seen:
                    raise ValueError(f"entry {x} repeated across cycles")
                seen.add(x)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return Permutation(tuple(images))

    @staticmethod
    def parse(text: str, degree: int | None = None) -> "Permutation":
        """Parse cycle notation like ``"(1 2 3)(4 5)"`` (commas also allowed).

        The degree defaults to the largest point mentioned; ``"()"`` needs an
        explicit ``degree``.
        """
        if not re.fullmatch(r"\s*(\([0-9,\s]*\)\s*)*", text):
            raise ValueError(f"not cycle notation: {text!r}")
        cycles = []
        for body in re.findall(r"\(([^()]*)\)", text):
            entries = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
            if entries:
                cycles.append(entries)
        maxpoint = max((x for c in cycles for x in c), default=0)
        if degree is None:
            if maxpoint == 0:
                raise ValueError("identity '()' needs an explicit degree")
            degree = maxpoint
        if maxpoint > degree:
            raise ValueError(f"cycle entry {maxpoint} exceeds degree {degree}")
        return Permutation.from_cycles(degree, cycles)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial disjoint cycles, each from its least element, sorted by it."""
        out = []
        seen = [False] * self.degree
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = []
            x = start
            while not seen[x - 1]:
                seen[x - 1] = True
                cyc.append(x)
                x = self.images[x - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """Function composition: ``compose(sigma, tau)(i) == sigma(tau(i))``."""
    if sigma.degree != tau.degree:
        raise ValueError(f"degree mismatch: {sigma.degree} vs {tau.degree}")
    return Permutation(_compose_images(sigma.images, tau.images))


def inverse(sigma: Permutation) -> Permutation:
    return Permutation(_inverse_images(sigma.images))


def cycle_type(sigma: Permutation) -> tuple[int, ...]:
    """Cycle lengths including fixed points, sorted descending."""
    return _cycle_type_images(sigma.images)


# image-tuple kernels, shared with the hot loops below


def _compose_images(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[x - 1] for x in b)


def _inverse_images(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x - 1] = i + 1
    return tuple(inv)


def _cycle_type_images(a: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(a)
    lengths = []
    for i in range(len(a)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = a[j] - 1
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# characters and dimensions


def character(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Irreducible character of S_p at cycle type ``mu``, exact integer.

    Evaluated by the rim-hook (border-strip) recursion, memoized on
    ``(lam, mu)``.  Both arguments must partition the same ``p <= 14``.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    p = sum(lam)
    if sum(mu) != p:
        raise ValueError(f"degree mismatch: {lam} partitions {p}, {mu} partitions {sum(mu)}")
    if p > MAX_CHARACTER_DEGREE:
        raise ValueError(f"character degree limited to {MAX_CHARACTER_DEGREE}, got {p}")
    return _character(lam, tuple(sorted(mu, reverse=True)))


@lru_cache(maxsize=None)
def _character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    strip, rest = mu[0], mu[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(
            part
            for i, x in enumerate(new_beta)
            if (part := x - (k - 1 - i)) > 0
        )
        total += (-1) ** height * _character(new_lam, rest)
    return total


def dimension(lam: Sequence[int]) -> int:
    """Dimension of the irreducible representation: hook-length formula."""
    lam = check_partition(lam)
    p = sum(lam)
    conj = conjugate_partition(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(p) // hooks


def class_size(mu: Sequence[int]) -> int:
    """Number of permutations of cycle type ``mu``: ``p! / z_mu``.

    ``z_mu = prod_k k^(m_k) m_k!`` over the multiplicities ``m_k`` of the parts.
    """
    mu = check_partition(mu)
    z = math.prod(k ** m * math.factorial(m) for k, m in Counter(mu).items())
    return math.factorial(sum(mu)) // z


def schur_dim(lam: Sequence[int], n: int) -> Fraction:
    """Schur polynomial of shape ``lam`` at ``n`` variables all equal to 1.

    Content-product evaluation: ``dim(lam)/p! * prod_{(i,j)} (n + j - i)``
    over 0-indexed cells.  Zero exactly when ``lam`` has more than ``n`` rows.
    """
    lam = check_partition(lam)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    content = 1
    for i, row in enumerate(lam):
        for j in range(row):
            content *= n + j - i
    return Fraction(dimension(lam) * content, math.factorial(sum(lam)))


# ---------------------------------------------------------------------------
# the gamma permutation and its pairing map


def gamma_permutation(n: int) -> Permutation:
    """The distinguished pair of (n+2)-cycles on ``{1..2n+4}``.

    ``(2n+1, 1, 2, ..., n, 2n+3)(2n+2, n+1, ..., 2n, 2n+4)``.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    first = (2 * n + 1,) + tuple(range(1, n + 1)) + (2 * n + 3,)
    second = (2 * n + 2,) + tuple(range(n + 1, 2 * n + 1)) + (2 * n + 4,)
    return Permutation.from_cycles(2 * n + 4, [first, second])


@dataclass
class GammaCheckReport:
    """Outcome of :func:`lemma_gamma_check`; empty counterexamples on success."""

    n: int
    alphas_checked: int
    parity_ok: bool
    injective_ok: bool
    counterexamples: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.parity_ok and self.injective_ok


def lemma_gamma_check(n: int) -> GammaCheckReport:
    """Check the two combinatorial facts behind the gamma pairing map.

    With ``gamma = gamma_permutation(n)``, ``g = gamma^-1 a gamma a^-1`` and
    ``h = b a^-1``, over ``a`` ranging over the copy of S_{2n} fixing the four
    points ``2n+1..2n+4`` and ``b`` over all of S_{2n+4}:

      * parity: ``|g b| + |b|`` is even for every pair;
      * injectivity: ``(a, b) -> (g, h)`` is one to one.

    Both are settled exactly by one pass over all ``(2n)!`` values of ``a``.
    Parity: ``|x| = p - #cycles(x)`` has the parity of ``sign(x)``, and the
    sign is multiplicative, so ``|g b| + |b| = |g| + 2|b| = |g| (mod 2)``
    for every ``b``; the fact holds exactly when every ``g`` is even.
    Injectivity: ``h = b a^-1`` is a bijection in ``b`` at fixed ``a``, so
    the pair map is one to one exactly when ``a -> g`` is.  At most ten
    counterexamples are kept.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    p = 2 * n + 4
    gamma = gamma_permutation(n).images
    gamma_inv = _inverse_images(gamma)
    tail = tuple(range(2 * n + 1, p + 1))
    report = GammaCheckReport(n=n, alphas_checked=0, parity_ok=True, injective_ok=True)

    def fail(message: str) -> None:
        if len(report.counterexamples) < 10:
            report.counterexamples.append(message)

    seen_g: dict[tuple[int, ...], tuple[int, ...]] = {}
    for alpha_small in itertools.permutations(range(1, 2 * n + 1)):
        alpha = alpha_small + tail
        g = _compose_images(
            gamma_inv,
            _compose_images(alpha, _compose_images(gamma, _inverse_images(alpha))),
        )
        if (p - len(_cycle_type_images(g))) % 2:
            report.parity_ok = False
            fail(f"odd g={g} from alpha={alpha}")
        if g in seen_g:
            report.injective_ok = False
            fail(f"g collision: alpha={seen_g[g]} and alpha'={alpha} give g={g}")
        else:
            seen_g[g] = alpha
        report.alphas_checked += 1
    return report
