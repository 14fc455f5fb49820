"""Exact combinatorics tests; every derived value is recomputed here by an
independent oracle (counting recurrences, orthogonality, tableau counting)
rather than copied from the implementation."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from rmps.symgroup import (
    GammaCheckReport,
    Permutation,
    character,
    class_size,
    compose,
    conjugate_partition,
    cycle_type,
    dimension,
    gamma_permutation,
    inverse,
    lemma_gamma_check,
    parse_partition,
    partition_str,
    partitions,
    schur_dim,
)


# ---------------------------------------------------------------------------
# oracles


def partition_count_oracle(p: int) -> int:
    """Independent count via the bounded-part recurrence."""

    def count(remaining, max_part):
        if remaining == 0:
            return 1
        return sum(count(remaining - k, k) for k in range(min(remaining, max_part), 0, -1))

    return count(p, p)


def centralizer_order(mu: tuple[int, ...]) -> int:
    """z_mu = prod k^{m_k} m_k! for cycle type mu."""
    out = 1
    for k in set(mu):
        m = mu.count(k)
        out *= k ** m * math.factorial(m)
    return out


def ssyt_count_oracle(lam: tuple[int, ...], n: int) -> int:
    """Count column-strict fillings with entries in 1..n by brute force."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]

    def fill(idx, values):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        total = 0
        for v in range(1, n + 1):
            if j > 0 and values[(i, j - 1)] > v:
                continue
            if i > 0 and values[(i - 1, j)] >= v:
                continue
            values[(i, j)] = v
            total += fill(idx + 1, values)
            del values[(i, j)]
        return total

    return fill(0, {})


def random_permutation(p: int, rng: random.Random) -> Permutation:
    images = list(range(1, p + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# partitions


def test_partitions_small_literals():
    assert partitions(1) == [(1,)]
    assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions(5)) == 7


@pytest.mark.parametrize("p", range(1, 13))
def test_partition_counts_match_recurrence(p):
    parts = partitions(p)
    assert len(parts) == partition_count_oracle(p)
    assert len(set(parts)) == len(parts)
    for lam in parts:
        assert sum(lam) == p
        assert all(a >= b for a, b in zip(lam, lam[1:]))
    # canonical order: lexicographic descending
    assert parts == sorted(parts, reverse=True)


def test_partitions_bounds():
    with pytest.raises(ValueError):
        partitions(0)
    with pytest.raises(ValueError):
        partitions(31)


def test_partition_string_round_trip():
    assert partition_str((2, 1)) == "2,1"
    assert parse_partition("3,2,2") == (3, 2, 2)
    with pytest.raises(ValueError):
        parse_partition("1,2")


# ---------------------------------------------------------------------------
# permutations


def transpositions(sigma: Permutation) -> int:
    """|sigma|, the least number of transpositions multiplying to sigma."""
    return sigma.degree - len(cycle_type(sigma))


def test_cycle_type_examples():
    assert cycle_type(Permutation.identity(4)) == (1, 1, 1, 1)
    assert transpositions(Permutation.identity(4)) == 0
    swap = Permutation.parse("(1 2)", degree=3)
    assert cycle_type(swap) == (2, 1)
    assert transpositions(swap) == 1
    sigma = Permutation.parse("(1 2 3)(4 5)")
    assert cycle_type(sigma) == (3, 2)
    assert transpositions(sigma) == 5 - 2


def test_compose_inverse_examples():
    sigma = Permutation.parse("(1 2 3)", degree=3)
    ident = Permutation.identity(3)
    assert compose(sigma, ident) == sigma
    assert inverse(sigma) == Permutation.parse("(1 3 2)", degree=3)
    swap = Permutation.parse("(1 2)", degree=2)
    assert compose(swap, swap) == Permutation.identity(2)
    assert compose(sigma, inverse(sigma)) == ident
    with pytest.raises(ValueError):
        compose(sigma, swap)


def test_compose_is_function_composition():
    rng = random.Random(1)
    for _ in range(50):
        p = rng.randint(1, 8)
        a, b = random_permutation(p, rng), random_permutation(p, rng)
        ab = compose(a, b)
        for i in range(1, p + 1):
            assert ab(i) == a(b(i))


def test_parse_and_print():
    assert str(Permutation.identity(4)) == "()"
    sigma = Permutation.parse("(1 2 3)(4 5)")
    assert str(sigma) == "(1 2 3)(4 5)"
    assert Permutation.parse(str(sigma)) == sigma
    assert Permutation.parse("(2,4)(1 3)").images == (3, 4, 1, 2)
    assert Permutation.parse("()", degree=3) == Permutation.identity(3)
    # whitespace is free around and between cycles as well as inside them
    assert Permutation.parse("(1 2) (3 4)") == Permutation.parse("(1 2)(3 4)")
    assert Permutation.parse(" ( 1\t2 )\n(3,4) ").images == (2, 1, 4, 3)
    assert Permutation.parse("() ()", degree=2) == Permutation.identity(2)
    with pytest.raises(ValueError):
        Permutation.parse("()")  # identity needs a degree
    for junk in ("1 2", "(1 2", "(1 2))", "(1 a)", "(1 2) x", "((1 2))"):
        with pytest.raises(ValueError):
            Permutation.parse(junk, degree=4)
    with pytest.raises(ValueError):
        Permutation.parse("(1 2)(2 3)")  # repeated entry
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_cycle_type_conjugation_invariant():
    rng = random.Random(2)
    for _ in range(100):
        p = rng.randint(1, 8)
        sigma, pi = random_permutation(p, rng), random_permutation(p, rng)
        conj = compose(compose(pi, sigma), inverse(pi))
        assert cycle_type(conj) == cycle_type(sigma)


def test_transposition_norm_subadditive_and_parity():
    rng = random.Random(3)
    for _ in range(200):
        p = rng.randint(1, 8)
        a, b = random_permutation(p, rng), random_permutation(p, rng)
        nab = transpositions(compose(a, b))
        na, nb = transpositions(a), transpositions(b)
        assert nab <= na + nb
        assert (nab - na - nb) % 2 == 0


# ---------------------------------------------------------------------------
# characters


def test_trivial_and_sign_characters():
    for p in range(1, 7):
        for mu in partitions(p):
            sign = (-1) ** (p - len(mu))  # |sigma| = p - #cycles
            assert character((p,), mu) == 1
            assert character(tuple([1] * p), mu) == sign


def test_character_21_at_3_cycle_via_column_orthogonality():
    # column orthogonality: sum_lam chi(mu) chi(nu) = z_mu delta_{mu nu};
    # with the trivial and sign rows known, the (2,1) entry at mu=(3,) is
    # forced: 1 + 1 + x^2 = z_(3) = 3 and the sign choice follows from
    # orthogonality against the identity column.
    assert character((2, 1), (3,)) == -1
    for mu in partitions(3):
        for nu in partitions(3):
            total = sum(character(lam, mu) * character(lam, nu) for lam in partitions(3))
            assert total == (centralizer_order(mu) if mu == nu else 0)


@pytest.mark.parametrize("p", range(1, 7))
def test_column_orthogonality(p):
    for mu in partitions(p):
        for nu in partitions(p):
            total = sum(character(lam, mu) * character(lam, nu) for lam in partitions(p))
            assert total == (centralizer_order(mu) if mu == nu else 0)


@pytest.mark.parametrize("p", range(1, 7))
def test_row_orthogonality_exhaustive_over_permutations(p):
    parts = partitions(p)
    table = {}
    for perm in itertools.permutations(range(1, p + 1)):
        ct = cycle_type(Permutation(perm))
        if ct not in table:
            table[ct] = {lam: character(lam, ct) for lam in parts}
    counts = {}
    for perm in itertools.permutations(range(1, p + 1)):
        ct = cycle_type(Permutation(perm))
        counts[ct] = counts.get(ct, 0) + 1
    for lam in parts:
        for mu in parts:
            total = sum(c * table[ct][lam] * table[ct][mu] for ct, c in counts.items())
            assert total == (math.factorial(p) if lam == mu else 0)


def test_character_errors():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))  # different degrees
    with pytest.raises(ValueError):
        character((15,), (15,))  # above the guard


# ---------------------------------------------------------------------------
# dimensions


def test_dimension_examples():
    for p in range(1, 11):
        assert dimension((p,)) == 1
        assert dimension(tuple([1] * p)) == 1
    assert dimension((2, 1)) == 2  # 3!/(3*1*1) by hooks; also forced by sum of squares


@pytest.mark.parametrize("p", range(1, 11))
def test_dimension_square_sum(p):
    assert sum(dimension(lam) ** 2 for lam in partitions(p)) == math.factorial(p)


@pytest.mark.parametrize("p", range(1, 8))
def test_class_sizes_count_permutations(p):
    counts = {}
    for images in itertools.permutations(range(1, p + 1)):
        ct = cycle_type(Permutation(images))
        counts[ct] = counts.get(ct, 0) + 1
    assert counts == {mu: class_size(mu) for mu in partitions(p)}


@pytest.mark.parametrize("p", range(1, 9))
def test_dimension_equals_character_at_identity(p):
    ident = tuple([1] * p)
    for lam in partitions(p):
        assert dimension(lam) == character(lam, ident)


# ---------------------------------------------------------------------------
# Schur dimensions


def test_schur_dim_closed_forms():
    for n in range(1, 10):
        assert schur_dim((1,), n) == n
        assert schur_dim((2,), n) == Fraction(n * (n + 1), 2)
        assert schur_dim((1, 1), n) == Fraction(n * (n - 1), 2)


def test_schur_dim_counts_tableaux():
    for n in range(1, 6):
        for p in range(1, 5):
            for lam in partitions(p):
                assert schur_dim(lam, n) == ssyt_count_oracle(lam, n)


def test_schur_dim_zero_iff_too_many_rows():
    for n in range(1, 5):
        for p in range(1, 7):
            for lam in partitions(p):
                if len(lam) > n:
                    assert schur_dim(lam, n) == 0
                else:
                    assert schur_dim(lam, n) > 0


def test_schur_dim_content_identity():
    # schur_dim(lam, n) * p! / dimension(lam) equals the content product
    for p in range(1, 9):
        for lam in partitions(p):
            for n in (1, 3, 7, 12):
                content = Fraction(1)
                for i, row in enumerate(lam):
                    for j in range(row):
                        content *= n + j - i
                assert schur_dim(lam, n) * math.factorial(p) / dimension(lam) == content


def test_conjugate_partition():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition(()) == ()


# ---------------------------------------------------------------------------
# the gamma permutation


def test_gamma_permutation_literals():
    assert gamma_permutation(1) == Permutation.from_cycles(6, [(3, 1, 5), (4, 2, 6)])
    assert gamma_permutation(2) == Permutation.from_cycles(
        8, [(5, 1, 2, 7), (6, 3, 4, 8)]
    )
    for n in range(1, 6):
        gamma = gamma_permutation(n)
        assert cycle_type(gamma) == (n + 2, n + 2)


def test_gamma_identity_pair_is_even():
    for n in (1, 2, 3):
        gamma = gamma_permutation(n)
        ident = Permutation.identity(2 * n + 4)
        # alpha = beta = identity: the composite reduces to the identity
        composite = compose(compose(inverse(gamma), gamma), ident)
        assert transpositions(composite) % 2 == 0


def test_lemma_gamma_exhaustive_n1():
    report = lemma_gamma_check(1)
    assert isinstance(report, GammaCheckReport)
    assert report.alphas_checked == 2
    assert report.parity_ok and report.injective_ok
    assert report.counterexamples == []
    # the check tests |g| alone; here |g b| + |b| is checked over every pair
    gamma = gamma_permutation(1)
    betas = [Permutation(b) for b in itertools.permutations(range(1, 7))]
    for alpha_small in itertools.permutations((1, 2)):
        alpha = Permutation(alpha_small + (3, 4, 5, 6))
        g = compose(compose(inverse(gamma), alpha), compose(gamma, inverse(alpha)))
        assert transpositions(g) % 2 == 0
        for beta in betas:
            assert (transpositions(compose(g, beta)) + transpositions(beta)) % 2 == 0


def test_lemma_gamma_exhaustive_n3():
    report = lemma_gamma_check(3)
    assert report.alphas_checked == math.factorial(6)
    assert report.parity_ok and report.injective_ok
    assert report.counterexamples == []
