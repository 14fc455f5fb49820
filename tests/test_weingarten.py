"""Weingarten calculus tests.

The low-degree closed forms asserted here are coded from scratch (they come
out of the two- and three-partition sums evaluated by hand) and the moment
machinery is additionally cross-checked against seeded Haar Monte Carlo and
against itself through two independent routes (entry monomials vs wired
trace expressions)."""

import itertools
import math
import threading
import random
from fractions import Fraction

import numpy as np
import pytest

from rmps.ensembles import haar_unitaries, stream
from rmps.symgroup import (
    Permutation,
    character,
    cycle_type,
    dimension,
    inverse,
    partitions,
    schur_dim,
)
from rmps.weingarten import (
    MalformedExpressionError,
    SingularDimensionError,
    TraceExpression,
    WeingartenCache,
    evaluate_trace_expression,
    integrate_monomial,
    load_cache,
    wg,
    wg_bound_ratio,
    wg_from_cycle_type,
    wg_log_slopes,
)


# independently coded closed forms for degrees 1 and 2


def wg1_oracle(n: int) -> Fraction:
    return Fraction(1, n)


def wg2_identity_oracle(n: int) -> Fraction:
    return Fraction(1, n * n - 1)


def wg2_swap_oracle(n: int) -> Fraction:
    return Fraction(-1, n * (n * n - 1))


def random_permutation(p, rng):
    images = list(range(1, p + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# wg


def test_wg_degree_one():
    for n in range(1, 12):
        assert wg(n, Permutation.identity(1)) == wg1_oracle(n)


def test_wg_degree_two_closed_forms():
    swap = Permutation.parse("(1 2)")
    for n in range(2, 11):
        assert wg(n, Permutation.identity(2)) == wg2_identity_oracle(n)
        assert wg(n, swap) == wg2_swap_oracle(n)


def test_wg_invariance_under_inverse_and_conjugation():
    rng = random.Random(4)
    for p in range(1, 7):
        for _ in range(10):
            sigma = random_permutation(p, rng)
            pi = random_permutation(p, rng)
            conj = pi * sigma * inverse(pi)
            assert cycle_type(inverse(sigma)) == cycle_type(sigma)
            n = p + 3
            assert wg(n, sigma) == wg(n, inverse(sigma)) == wg(n, conj)


def test_wg_guards():
    with pytest.raises(SingularDimensionError):
        wg(1, Permutation.identity(2))
    with pytest.raises(ValueError):
        wg_from_cycle_type(20, tuple([1] * 11))


@pytest.mark.parametrize("ct", [(2, 0), (1, 2)])
def test_wg_rejects_a_cycle_type_that_is_no_partition(ct):
    with pytest.raises(ValueError, match="not a partition"):
        wg_from_cycle_type(4, ct, WeingartenCache())


def test_wg_matches_the_textbook_character_sum():
    # term by term, without the per-degree tables:
    # wg(n, mu) = sum_lam d_lam^2 chi_lam(mu) / (p!^2 s_lam(n))
    for p in range(1, 11):
        for n in (p, p + 1, p + 9):
            cache = WeingartenCache()
            for mu in partitions(p):
                textbook = sum(
                    Fraction(dimension(lam) ** 2 * character(lam, mu))
                    / (math.factorial(p) ** 2 * schur_dim(lam, n))
                    for lam in partitions(p))
                assert wg_from_cycle_type(n, mu, cache) == textbook, (p, n, mu)


def test_wg_identity_leading_coefficient():
    # n^p wg(n, id) tends to 1, monotonically closer along a doubling grid
    # (for p = 1 it is exactly 1 already)
    assert wg_from_cycle_type(2, (1,)) * 2 == 1
    for p in range(2, 5):
        gaps = []
        for n in (p * p, 2 * p * p, 4 * p * p):
            value = float(wg_from_cycle_type(n, tuple([1] * p))) * n ** p
            gaps.append(abs(value - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.05


def test_wg_inverts_the_gram_matrix():
    # second oracle: wg is the inverse of G(sigma, tau) = n^{#cycles(sigma tau^-1)},
    # so sum_tau wg(n, sigma tau^-1) n^{#cycles(tau)} is 1 at the identity, else 0
    for p in range(1, 6):
        perms = [Permutation(t) for t in itertools.permutations(range(1, p + 1))]
        identity = Permutation.identity(p)
        for n in (p, p + 1, p + 3):
            for sigma in perms:
                total = sum(wg(n, sigma * inverse(tau)) * n ** len(cycle_type(tau))
                            for tau in perms)
                assert total == (1 if sigma == identity else 0), (p, n, sigma)


def test_wg_log_slopes_match_vanishing_orders():
    for p in range(1, 5):
        grid = [p * p, 2 * p * p, 4 * p * p, 8 * p * p]
        slopes = wg_log_slopes(p, grid)
        for ct, slope in slopes.items():
            moved = p - len(ct)
            assert abs(slope - (-p - moved)) < 0.1, (p, ct, slope)


# ---------------------------------------------------------------------------
# monomial integration


def test_monomial_degree_one():
    for n in range(1, 9):
        assert integrate_monomial(n, [1], [1], [1], [1]) == Fraction(1, n)
    assert integrate_monomial(4, [1], [1], [2], [2]) == 0


def test_monomial_degree_two_fourth_moment():
    # E |U_11|^{2p} = 1 / C(n + p - 1, p); p = 2 is 2 / (n (n + 1))
    for p in range(1, 5):
        ones = [1] * p
        for n in range(p, 10):
            value = integrate_monomial(n, ones, ones, ones, ones)
            assert value == Fraction(1, math.comb(n + p - 1, p)), (p, n)


def monomial_oracle(n, i, j, ip, jp):
    """Plain double loop over the matchings sigma of the rows, tau of the columns."""
    perms = [Permutation(t) for t in itertools.permutations(range(1, len(i) + 1))]
    sigmas = [s for s in perms if all(i[k] == ip[s(k + 1) - 1] for k in range(len(i)))]
    taus = [t for t in perms if all(j[k] == jp[t(k + 1) - 1] for k in range(len(j)))]
    return sum((wg(n, tau * inverse(sigma)) for sigma in sigmas for tau in taus),
               Fraction(0))


def test_monomial_matches_a_plain_double_loop():
    rng = random.Random(11)
    cases = [(3, (1, 1), (1, 2), (1, 2), (1, 2))]  # no row matching: the value is 0
    for _ in range(30):
        p = rng.randint(1, 5)
        n = rng.randint(p, p + 2)
        m = rng.randint(1, min(n, 3))
        i, j = ([rng.randint(1, m) for _ in range(p)] for _ in range(2))
        cases.append((n, i, j, rng.sample(i, p), rng.sample(j, p)))
        cases.append((n, i, j, *([rng.randint(1, m) for _ in range(p)] for _ in range(2))))
    values = [integrate_monomial(*case) for case in cases]
    assert values[0] == 0
    assert sum(1 for v in values if v) > len(cases) // 2
    for case, value in zip(cases, values):
        assert value == monomial_oracle(*case), case


def test_monomial_all_ones_degree_six():
    ones = [1] * 6
    for n in (6, 7, 9):
        value = integrate_monomial(n, ones, ones, ones, ones, cache=WeingartenCache())
        assert value == Fraction(1, math.comb(n + 5, 6))


def test_monomial_row_orthonormality():
    for n in range(2, 9):
        same = sum(integrate_monomial(n, [1], [j], [1], [j]) for j in range(1, n + 1))
        cross = sum(integrate_monomial(n, [1], [j], [2], [j]) for j in range(1, n + 1))
        assert same == 1
        assert cross == 0


def test_monomial_errors():
    with pytest.raises(ValueError):
        integrate_monomial(4, [1, 2], [1], [1, 2], [1, 1])
    with pytest.raises(ValueError):
        integrate_monomial(2, [3], [1], [3], [1])  # index above n
    with pytest.raises(ValueError):
        integrate_monomial(50, [1] * 7, [1] * 7, [1] * 7, [1] * 7)


def test_monomial_matches_monte_carlo():
    n, count = 5, 200_000
    us = haar_unitaries(n, count, stream(77, 0))
    samples = us[:, 0, 0] * np.conj(us[:, 1, 1]) * np.conj(us[:, 0, 0]) * us[:, 1, 1]
    exact = integrate_monomial(n, [1, 2], [1, 2], [1, 2], [1, 2])
    err = samples.real.std(ddof=1) / math.sqrt(count)
    assert abs(samples.mean().real - float(exact)) < 5 * err


# ---------------------------------------------------------------------------
# trace expressions


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_expression_conjugation_pair():
    a = [[1, 2, 0], [0, 3, 1], [2, 0, 1]]
    b = [[2, 0, 1], [1, 1, 0], [0, 0, 4]]
    expr = TraceExpression(
        n=3,
        words=[[("U", 1), ("C", "A"), ("Ubar", 1), ("C", "B")]],
        constants={"A": a, "B": b},
    )
    tr_a = sum(a[i][i] for i in range(3))
    tr_b = sum(b[i][i] for i in range(3))
    assert evaluate_trace_expression(expr) == Fraction(tr_a * tr_b, 3)


def test_expression_identity_constants_give_n():
    for n in (2, 3, 5):
        expr = TraceExpression(
            n=n,
            words=[[("U", 1), ("C", "A"), ("Ubar", 1), ("C", "B")]],
            constants={"A": identity_matrix(n), "B": identity_matrix(n)},
        )
        assert evaluate_trace_expression(expr) == n


def test_expression_trace_times_conjugate_trace():
    for n in (2, 4, 7):
        expr = TraceExpression(n=n, words=[[("U", 1)], [("Ubar", 1)]], constants={})
        assert evaluate_trace_expression(expr) == 1


def test_expression_degree_five_product_of_unit_traces():
    # tr(U_k U_k^dag) = n for every k, so the product of five is n^5
    for n in (5, 6):
        expr = TraceExpression(n=n, words=[[("U", k), ("Ubar", k)] for k in range(1, 6)])
        assert evaluate_trace_expression(expr) == n ** 5


def test_expression_without_unitaries_is_a_product_of_traces():
    a = [[1, 2, 0], [0, 2, 0], [4, 0, 5]]
    expr = TraceExpression(n=3, words=[[("C", "A")], [("C", "A"), ("C", "A")]],
                           constants={"A": a})
    value = evaluate_trace_expression(expr)
    assert isinstance(value, Fraction)
    assert value == 8 * int(np.trace(np.array(a) @ np.array(a)))


def test_expression_ignores_unreferenced_constants():
    expr = TraceExpression(
        n=2, words=[[("U", 1), ("Ubar", 1)]], constants={"A": [[0.5j, 0], [0, 1]]}
    )
    value = evaluate_trace_expression(expr)
    assert isinstance(value, Fraction) and value == 2


def test_expression_degree_two_boundary_word():
    # E[tr(U Lam Udag Om U Lam Udag Om)] against the two-weight closed form
    lam, om = [3, 1, 2], [2, 5, 1]
    diag = lambda xs: [[xs[i] if i == j else 0 for j in range(3)] for i in range(3)]
    expr = TraceExpression(
        n=3,
        words=[[("U", 1), ("C", "Lam"), ("Ubar", 1), ("C", "Om"),
                ("U", 2), ("C", "Lam"), ("Ubar", 2), ("C", "Om")]],
        constants={"Lam": diag(lam), "Om": diag(om)},
    )
    tr_l, tr_l2 = sum(lam), sum(x * x for x in lam)
    tr_o, tr_o2 = sum(om), sum(x * x for x in om)
    expected = (
        (tr_l ** 2 * tr_o2 + tr_l2 * tr_o ** 2) * wg2_identity_oracle(3)
        + (tr_l ** 2 * tr_o ** 2 + tr_l2 * tr_o2) * wg2_swap_oracle(3)
    )
    assert evaluate_trace_expression(expr) == expected


def basis_matrix(n, r, c):
    mat = [[0] * n for _ in range(n)]
    mat[r - 1][c - 1] = 1
    return mat


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expression_cross_checks_monomials(seed):
    # picking entries with rank-one constants must reproduce the monomial
    # integrals: tr(U E_{ji}) = U_{ij} and tr(Udag E_{lk}) = conj(U_{kl})
    rng = random.Random(seed)
    n = 4
    for p in (1, 2):
        i, j, ip, jp = ([rng.randint(1, n) for _ in range(p)] for _ in range(4))
        words = []
        constants = {}
        for k in range(p):
            constants[f"P{k}"] = basis_matrix(n, j[k], i[k])
            words.append([("U", k + 1), ("C", f"P{k}")])
        for k in range(p):
            constants[f"Q{k}"] = basis_matrix(n, jp[k], ip[k])
            words.append([("Ubar", k + 1), ("C", f"Q{k}")])
        expr = TraceExpression(n=n, words=words, constants=constants)
        assert evaluate_trace_expression(expr) == integrate_monomial(n, i, j, ip, jp)


def test_expression_monte_carlo_agreement():
    rng = stream(123, 1)
    n, count = 3, 100_000
    a = np.array([[1, 2, 0], [0, 3, 1], [5, 0, 1]], dtype=float)
    b = np.array([[2, 0, 7], [1, 1, 0], [0, 3, 4]], dtype=float)
    expr = TraceExpression(
        n=n,
        words=[[("U", 1), ("C", "A"), ("Ubar", 1), ("C", "B")]],
        constants={"A": a.tolist(), "B": b.tolist()},
    )
    us = haar_unitaries(n, count, rng)
    values = np.array([expr.evaluate_at(u) for u in us[:2000]])
    bulk = np.einsum("kab,bc,kdc,da->k", us, a.astype(complex), us.conj(), b.astype(complex))
    assert np.allclose(values, bulk[:2000])
    exact = complex(evaluate_trace_expression(expr))
    err = bulk.real.std(ddof=1) / math.sqrt(count)
    assert abs(bulk.mean() - exact) < 5 * err + 1e-8


def test_expression_float_mode_matches_exact():
    a = [[1, 2], [0, 3]]
    exact_expr = TraceExpression(
        n=2, words=[[("U", 1), ("C", "A"), ("Ubar", 1), ("C", "A")]], constants={"A": a}
    )
    float_expr = TraceExpression(
        n=2,
        words=[[("U", 1), ("C", "A"), ("Ubar", 1), ("C", "A")]],
        constants={"A": [[1.0, 2.0], [0.0, 3.0]]},
    )
    exact = evaluate_trace_expression(exact_expr)
    assert isinstance(exact, Fraction)
    loose = evaluate_trace_expression(float_expr)
    assert isinstance(loose, complex)
    assert abs(loose - float(exact)) < 1e-12


def test_expression_validation_errors():
    with pytest.raises(MalformedExpressionError):
        TraceExpression(n=2, words=[[("U", 1)]], constants={}).validate()  # no Ubar 1
    with pytest.raises(MalformedExpressionError):
        TraceExpression(
            n=2, words=[[("U", 1), ("U", 1), ("Ubar", 1), ("Ubar", 2)]], constants={}
        ).validate()
    with pytest.raises(MalformedExpressionError):
        TraceExpression(
            n=2, words=[[("U", 1), ("Ubar", 1), ("C", "A")]], constants={"A": [[1]]}
        ).validate()
    with pytest.raises(ValueError):
        evaluate_trace_expression(
            TraceExpression(
                n=7,
                words=[[("U", k), ("Ubar", k)] for k in range(1, 7)],
                constants={},
            )
        )


def test_expression_empty_word_rejected_everywhere():
    # an empty word would read as tr(I) = n in evaluate_at but has no place
    # in the exact loop sum; all three entry points must refuse it alike
    expr = TraceExpression(n=2, words=[[("U", 1), ("Ubar", 1)], []])
    with pytest.raises(MalformedExpressionError, match="empty word"):
        expr.validate()
    with pytest.raises(MalformedExpressionError, match="empty word"):
        expr.evaluate_at(np.eye(2))
    with pytest.raises(MalformedExpressionError, match="empty word"):
        evaluate_trace_expression(expr)


# ---------------------------------------------------------------------------
# decay envelope


def test_wg_bound_ratio_degree_one_is_flat():
    report = wg_bound_ratio(1, 1, [2, 4, 8, 16])
    for row in report.rows:
        assert row.max_ratio == pytest.approx(1.0)
    assert report.no_growth


def test_wg_bound_ratio_degree_two_identity_decreases_to_one():
    report = wg_bound_ratio(2, 2, [4, 8, 16, 32])
    ratios = [row.ratios[(1, 1)] for row in report.rows]
    for n, ratio in zip([4, 8, 16, 32], ratios):
        assert ratio == pytest.approx(n * n / (n * n - 1.0))
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_wg_bound_ratio_acceptance_grid():
    report = wg_bound_ratio(3, 2, [9, 16, 25, 36, 49, 64])
    assert report.no_growth
    assert report.rows[0].max_ratio < 10.0


def test_wg_bound_ratio_hypothesis_guard():
    with pytest.raises(ValueError, match="9"):
        wg_bound_ratio(3, 2, [8, 16])


# ---------------------------------------------------------------------------
# cache


def test_cache_round_trip(tmp_path):
    path = tmp_path / "wg.cache"
    cache = WeingartenCache(path)
    swap = Permutation.parse("(1 2)")
    value = wg(9, swap, cache=cache)
    assert value == wg2_swap_oracle(9)
    # string-exact reload
    table = load_cache(path)
    assert table[(2, (2,), 9)] == value
    cache2 = WeingartenCache(path)
    assert cache2.lookup(2, (2,), 9) == value


def test_cache_malformed_line(tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text("2;2;9;-1/648\nnot a record\n")
    with pytest.raises(ValueError, match="line 2"):
        load_cache(path)


BAD_CACHE_VALUES = [
    pytest.param("2;1,1;8;1/0", "zero denominator", id="zero-denominator"),
    pytest.param("2;3;8;1/2", "does not partition", id="cycle-type-not-of-p"),
    pytest.param("11;11;12;1/2", "degree must be in", id="degree-too-high"),
    pytest.param("2;1,1;1;1/2", "n=1 < degree p=2", id="dimension-below-degree"),
]


@pytest.mark.parametrize("line, reason", BAD_CACHE_VALUES)
def test_cache_bad_value_names_the_line(tmp_path, line, reason):
    path = tmp_path / "bad.cache"
    path.write_text(f"2;2;9;-1/648\n{line}\n")
    with pytest.raises(ValueError, match="line 2") as exc:
        load_cache(path)
    assert reason in str(exc.value.__cause__)


def test_cache_concurrent_reads():
    cache = WeingartenCache()
    results = []

    def worker(n):
        results.append(wg_from_cycle_type(n, (2, 1), cache))

    threads = [threading.Thread(target=worker, args=(n,)) for n in (5, 6, 7, 5, 6, 7)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 6
    assert results.count(wg_from_cycle_type(5, (2, 1))) == 2
