"""Polynomial arithmetic, basis enumeration, and Lie derivatives."""

import math
import random

import numpy as np
import pytest

import _oracles as ref
from barrierlp import load_problem
from barrierlp.polyring import (
    MAX_EXPONENT,
    Polynomial,
    PolyMatrix,
    evaluate,
    grlex_key,
    lie_derivative_drift,
    lie_derivative_input,
    monomial_basis,
    monomial_basis_on_support,
    mul,
    partial_derivative,
)
from barrierlp.satbench import CwParams, build_cw_system, build_inspection_cbf
from test_assembly import corpus_documents


def random_poly(rng, nvars, maxdeg, nterms=5, scale=3.0):
    terms = {}
    for _ in range(nterms):
        exps = [0] * nvars
        budget = rng.randrange(maxdeg + 1)
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0.0) + rng.uniform(-scale, scale)
    return Polynomial(terms, nvars)


def test_basis_univariate_degree_four():
    """Degree-4 univariate basis is [1, x, x^2, x^3, x^4]."""
    assert monomial_basis(1, 4) == [(0,), (1,), (2,), (3,), (4,)]


def test_basis_degree_zero():
    assert monomial_basis(2, 0) == [(0, 0)]


def test_basis_three_vars_degree_two_count():
    assert len(monomial_basis(3, 2)) == 10


def test_basis_length_matches_binomial():
    for n in range(1, 5):
        for d in range(0, 5):
            assert len(monomial_basis(n, d)) == math.comb(n + d, n)


def test_basis_order_two_vars():
    # x1-major within each degree.
    assert monomial_basis(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]


def test_basis_strictly_increasing_in_term_order():
    for n, d in [(1, 6), (2, 4), (3, 3), (4, 2)]:
        basis = monomial_basis(n, d)
        keys = [grlex_key(m) for m in basis]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_basis_on_support_matches_full_when_all_active():
    assert monomial_basis_on_support(3, 2, [0, 1, 2]) == monomial_basis(3, 2)


def test_basis_on_support_restricts_variables():
    basis = monomial_basis_on_support(3, 2, [1])
    assert basis == [(0, 0, 0), (0, 1, 0), (0, 2, 0)]


def test_mul_difference_of_squares():
    x = Polynomial.variable(0, 1)
    assert (x + 1) * (x - 1) == x**2 - 1


def test_mul_by_zero_annihilates():
    x = Polynomial.variable(0, 1)
    p = 3 * x**2 + x - 7
    assert p * Polynomial.zero(1) == Polynomial.zero(1)


def test_mul_symbolic_coefficient_row():
    # Ring (c1, c2, c3, x): (c1 + c2 x + c3 x^2)(x^2 - 4) expands to
    # -4c1 - 4c2 x + (c1 - 4c3) x^2 + c2 x^3 + c3 x^4.
    c1 = Polynomial.variable(0, 4)
    c2 = Polynomial.variable(1, 4)
    c3 = Polynomial.variable(2, 4)
    x = Polynomial.variable(3, 4)
    prod = mul(c1 + c2 * x + c3 * x**2, x**2 - 4)
    expected = -4 * c1 - 4 * c2 * x + (c1 - 4 * c3) * x**2 + c2 * x**3 + c3 * x**4
    assert prod == expected


def test_mul_commutes_and_respects_evaluation():
    rng = random.Random(20260816)
    for _ in range(20):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n, 3)
        q = random_poly(rng, n, 2)
        # Accumulation order differs, so compare up to roundoff.
        assert mul(p, q).almost_equal(mul(q, p), tol=1e-12)
        for _ in range(5):
            pt = [rng.uniform(-2, 2) for _ in range(n)]
            lhs = evaluate(mul(p, q), pt)
            rhs = evaluate(p, pt) * evaluate(q, pt)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def test_product_degree_adds():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 4)
        p = random_poly(rng, n, 3)
        q = random_poly(rng, n, 3)
        if p.is_zero() or q.is_zero():
            continue
        assert mul(p, q).degree() == p.degree() + q.degree()


def test_ring_mismatch_rejected():
    p = Polynomial.variable(0, 1)
    q = Polynomial.variable(0, 2)
    with pytest.raises(ValueError):
        mul(p, q)


def test_partial_derivative_basic():
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    assert partial_derivative(x1**2 * x2, 0) == 2 * x1 * x2


def test_partial_derivative_of_constant_is_zero():
    c = Polynomial.constant(5.0, 3)
    for i in range(3):
        assert partial_derivative(c, i).is_zero()


def test_partial_derivative_quadratic_form():
    # r = (x1, x2, x3): d(r.r)/dx1 = 2 x1.
    xs = [Polynomial.variable(i, 3) for i in range(3)]
    rtr = xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2
    assert partial_derivative(rtr, 0) == 2 * xs[0]


def test_partial_derivative_index_out_of_range():
    p = Polynomial.variable(0, 2)
    with pytest.raises(ValueError):
        partial_derivative(p, 2)


def test_lie_drift_examples():
    x = Polynomial.variable(0, 1)
    assert lie_derivative_drift(x**2, PolyMatrix([[x]])) == 2 * x**2
    assert lie_derivative_drift(1 - x**2, PolyMatrix([[Polynomial.zero(1)]])).is_zero()
    assert lie_derivative_drift(x, PolyMatrix([[Polynomial.constant(-1, 1)]])) == Polynomial.constant(-1, 1)


def test_lie_input_examples():
    x = Polynomial.variable(0, 1)
    row = lie_derivative_input(1 - x**2, PolyMatrix([[Polynomial.one(1)]]))
    assert row.rows == 1 and row.cols == 1
    assert row[0, 0] == -2 * x

    b = Polynomial.variable(0, 2) + Polynomial.variable(1, 2)
    g = PolyMatrix(
        [
            [Polynomial.one(2), Polynomial.zero(2)],
            [Polynomial.zero(2), Polynomial.one(2)],
        ]
    )
    row = lie_derivative_input(b, g)
    assert row[0, 0] == Polynomial.one(2)
    assert row[0, 1] == Polynomial.one(2)

    gz = PolyMatrix.zeros(2, 2, 2)
    row = lie_derivative_input(b, gz)
    assert row[0, 0].is_zero() and row[0, 1].is_zero()


def test_lie_drift_matches_finite_differences():
    """d/dt b(x + t f(x)) at t=0 equals the drift Lie derivative."""
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randrange(1, 4)
        b = random_poly(rng, n, 3)
        f = PolyMatrix.column([random_poly(rng, n, 2, nterms=3) for _ in range(n)])
        lfb = lie_derivative_drift(b, f)
        for _ in range(5):
            x = np.array([rng.uniform(-1, 1) for _ in range(n)])
            fx = np.array([evaluate(f[i, 0], x) for i in range(n)])
            h = 1e-6
            fd = (evaluate(b, x + h * fx) - evaluate(b, x - h * fx)) / (2 * h)
            ref = evaluate(lfb, x)
            assert abs(fd - ref) <= 1e-5 * (1 + abs(ref))


def assert_lie_matches_reference(cand):
    """cand's Lie derivatives equal the term-by-term reference: values and term order."""
    lfb, lgb = ref.lie_derivatives(cand.b, cand.sys)
    assert list(cand.lfb.terms.items()) == list(lfb.terms.items())
    assert [list(p.terms.items()) for p in cand.lgb.entry_list()] == [
        list(p.terms.items()) for p in lgb]


@pytest.mark.parametrize("params", [
    CwParams(L=6),
    CwParams(L=12),
    CwParams(masses=(3.0,), thrusts=(0.75,)).with_L(2),
], ids=["fleet-L6", "fleet-L12", "stall-L2"])
def test_lie_derivatives_match_the_reference_on_the_fleet(params):
    sys = build_cw_system(params)
    for i in range(params.L):
        cand = build_inspection_cbf(params, i, sys)
        assert_lie_matches_reference(cand)


def test_lie_derivatives_match_the_reference_on_the_corpus():
    count = 0
    for doc in corpus_documents(150):
        for cand in load_problem(doc).candidates:
            assert_lie_matches_reference(cand)
            count += 1
    assert count > 150


def test_lie_dimension_mismatch():
    b = Polynomial.variable(0, 2)
    with pytest.raises(ValueError):
        lie_derivative_drift(b, PolyMatrix([[Polynomial.zero(1)]]))
    with pytest.raises(ValueError):
        lie_derivative_input(b, PolyMatrix([[Polynomial.zero(1)]]))


def test_evaluate_examples():
    x = Polynomial.variable(0, 1)
    assert evaluate(x**2 - 4, [2.0]) == 0.0
    assert evaluate(Polynomial.zero(3), [1.0, 2.0, 3.0]) == 0.0
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    assert evaluate(x1 * x2 + 1, [3.0, -1.0]) == -2.0


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(Polynomial.variable(0, 2), [1.0])


def test_power_zero_convention():
    # p**0 = 1 for every p, including the zero polynomial.
    assert Polynomial.zero(2) ** 0 == Polynomial.one(2)
    x = Polynomial.variable(0, 1)
    assert (x - 1) ** 0 == Polynomial.one(1)
    assert x**3 == x * x * x
    assert (x + 1) ** 2 == x**2 + 2 * x + 1


def test_coefficient_pruning():
    x = Polynomial.variable(0, 1)
    p = (x + 1) - x - 1
    assert p.is_zero()
    tiny = Polynomial({(0,): 1e-15}, 1)
    assert tiny.is_zero()


def test_cancelling_arithmetic_prunes_and_keeps_term_order():
    x = Polynomial.variable(0, 1)
    # 0.1 + 0.2 - 0.3 leaves 5.6e-17 of rounding, under PRUNE_TOL.
    assert (0.1 * x + 0.2 * x - 0.3 * x).is_zero()
    p = (x + 1) * (x - 1)
    assert (p - x**2 + 1).is_zero()
    assert (p + -p).terms == {}
    # The surviving terms keep their insertion order.
    assert list(((x**2 + x + 1) - x).terms.items()) == [((2,), 1.0), ((0,), 1.0)]


def test_exponent_cap_enforced():
    with pytest.raises(ValueError):
        Polynomial({(MAX_EXPONENT + 1,): 1.0}, 1)


def test_products_keep_the_exponent_cap():
    x = Polynomial.variable(0, 1)
    top = x**MAX_EXPONENT
    assert top.terms == {(MAX_EXPONENT,): 1.0}
    with pytest.raises(ValueError, match="exceeds the cap"):
        top * x
    with pytest.raises(ValueError, match="exceeds the cap"):
        (x**40000) ** 2


def test_non_integral_exponents_rejected():
    with pytest.raises(ValueError, match="integers"):
        Polynomial({(0.9, 0): 2.0}, 2)
    with pytest.raises(ValueError, match="integers"):
        Polynomial.monomial([1.5], 1)
    with pytest.raises(ValueError, match="integers"):
        Polynomial({("1",): 1.0}, 1)
    # NumPy integers are integers, stored as Python ints.
    p = Polynomial({(np.int64(2), np.uint8(1)): 1.0}, 2)
    assert p.terms == {(2, 1): 1.0}
    assert all(type(e) is int for e in next(iter(p.terms)))


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ValueError):
        Polynomial({(1,): float("nan")}, 1)
    with pytest.raises(ValueError):
        Polynomial({(1,): float("inf")}, 1)


def test_arithmetic_results_refuse_non_finite_coefficients():
    x = Polynomial.variable(0, 1)
    c = Polynomial.constant(1e200, 1)
    big = Polynomial.constant(1.5e308, 1)
    results = [
        lambda: c * c,
        lambda: c**2,
        lambda: c * 1e200,
        lambda: (x + 1) * float("nan"),
        lambda: (x + 1) * float("inf"),
        lambda: big + big,
        lambda: big - -big,
        lambda: partial_derivative(Polynomial({(1000,): 1e306}, 1), 0),
    ]
    for result in results:
        with pytest.raises(ValueError, match="non-finite"):
            result()


def test_polynomials_are_immutable():
    p = Polynomial.variable(0, 1)
    with pytest.raises(AttributeError):
        p.nvars = 2


def test_polymatrix_shape_validation():
    z = Polynomial.zero(2)
    with pytest.raises(ValueError):
        PolyMatrix([[z], [z, z]])
    with pytest.raises(ValueError):
        PolyMatrix([[z, Polynomial.zero(3)]])


def test_support_vars():
    x1 = Polynomial.variable(0, 3)
    x3 = Polynomial.variable(2, 3)
    assert (x1 * x3 + x3**2).support_vars() == (0, 2)
    assert Polynomial.constant(2.0, 3).support_vars() == ()
