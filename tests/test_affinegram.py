"""Decision-coefficient polynomials, DSOS variables in extreme-ray form, sign rows."""

import math
import random

import numpy as np
import pytest

from barrierlp.affinegram import (
    DecisionAllocator,
    MonomialCodes,
    coefficient_system,
    dd_linear_constraints,
    fresh_dsos_poly,
    fresh_free_poly,
    gram_expansion,
    is_diagonally_dominant,
    linear_sum,
    mul_fixed,
)
from barrierlp.polyring import Polynomial, grlex_key, monomial_basis

from _oracles import decode, fold, instantiate, ray_weights


def row_value(coefs, z):
    return sum(c * z[i] for i, c in coefs.items())


def random_dd_matrix(rng, k, scale=2.0):
    M = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            M[i, j] = M[j, i] = rng.uniform(-scale, scale)
    for i in range(k):
        off = sum(abs(M[i, j]) for j in range(k) if j != i)
        M[i, i] = off + rng.uniform(0.0, scale)
    return M


def test_monomial_codes_are_additive_and_sorted_in_term_order():
    for nvars, top in [(1, 4), (2, 3), (3, 4), (2, 0)]:
        codes = MonomialCodes(nvars, top)
        monos = monomial_basis(nvars, top)
        K = codes.encode(monos).tolist()
        # Ascending codes are the global term order, and each code decodes back.
        assert [m for _, m in sorted(zip(K, monos))] == sorted(monos, key=grlex_key)
        assert [decode(k, codes) for k in K] == monos
        with pytest.raises(ValueError):
            codes.encode([(top + 1,) + (0,) * (nvars - 1)])
        # A sum of codes is the product's code, and below the limit exactly
        # when the product's degree is at most top.
        for mu in monos:
            for nu in monos:
                total = codes.encode([mu])[0] + codes.encode([nu])[0]
                assert (total < codes.limit) == (sum(mu) + sum(nu) <= top)
                if total < codes.limit:
                    assert total == codes.encode([tuple(a + b for a, b in zip(mu, nu))])[0]


def test_monomial_codes_outgrowing_int64_use_python_ints():
    # Two codes below the limit may sum past int64: the same codes, held in
    # object arrays.
    codes = MonomialCodes(36, 4)
    assert codes.weights.dtype == object
    monos = [(0,) * 36, (1,) + (0,) * 35, (0,) * 35 + (4,), (2,) + (0,) * 34 + (2,)]
    K = codes.encode(monos)
    assert K.dtype == object
    assert [decode(k, codes) for k in K] == monos
    assert sorted(K.tolist()) == [K[i] for i in (0, 1, 3, 2)]
    assert MonomialCodes(6, 4).weights.dtype == np.int64


def test_fresh_free_poly_univariate_quadratic():
    alloc = DecisionAllocator()
    ap = fresh_free_poly(alloc, monomial_basis(1, 2), MonomialCodes(1, 2))
    assert alloc.count == 3
    # One fresh variable per basis monomial, in basis order.
    assert ap.col.tolist() == [0, 1, 2] and ap.coef.tolist() == [1.0, 1.0, 1.0]
    assert fold(ap) == {(0,): {0: 1.0}, (1,): {1: 1.0}, (2,): {2: 1.0}}


def test_fresh_free_poly_counts():
    alloc = DecisionAllocator()
    codes = MonomialCodes(2, 1)
    fresh_free_poly(alloc, monomial_basis(2, 0), codes)
    assert alloc.count == 1
    fresh_free_poly(alloc, monomial_basis(2, 1), codes)
    assert alloc.count == 4


def test_fresh_dsos_expansion_univariate():
    alloc = DecisionAllocator()
    codes = MonomialCodes(1, 2)
    v = fresh_dsos_poly(alloc, monomial_basis(1, 1), codes)
    # Basis [1, x]; weights a1, a+ and a2, then a-: the expansion is
    # a1 + a+ (1 + x)^2 + a2 x^2 + a- (1 - x)^2.
    assert v.basis == [(0,), (1,)]
    assert v.rays == {0: (0, 0, 1.0), 1: (0, 1, 1.0), 2: (1, 1, 1.0), 3: (0, 1, -1.0)}
    # A diagonal ray is one term; a pair ray three, at 2b_i, 2b_j and b_i + b_j.
    exp = v.expansion
    assert [decode(k, codes) for k in exp.mono] == [(0,), (0,), (2,), (1,), (2,), (0,), (2,), (1,)]
    assert exp.col.tolist() == [0, 1, 1, 1, 2, 3, 3, 3]
    assert exp.coef.tolist() == [1.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, -2.0]
    assert fold(exp) == {
        (0,): {0: 1.0, 1: 1.0, 3: 1.0},
        (1,): {1: 2.0, 3: -2.0},
        (2,): {1: 1.0, 2: 1.0, 3: 1.0},
    }


def test_fresh_dsos_degree_zero():
    alloc = DecisionAllocator()
    v = fresh_dsos_poly(alloc, monomial_basis(2, 0), MonomialCodes(2, 0))
    rows = dd_linear_constraints(v)
    # Single ray e_1 e_1^T, single sign row -a1 <= 0.
    assert v.dim == 1
    assert v.rays == {0: (0, 0, 1.0)}
    assert rows == [({0: -1.0}, 0.0)]


def test_fresh_dsos_variable_counts():
    alloc = DecisionAllocator()
    v = fresh_dsos_poly(alloc, monomial_basis(2, 1), MonomialCodes(2, 2))
    assert v.dim == 3
    # k diagonal rays and k(k-1)/2 pairs of each sign.
    assert alloc.count == 9
    assert sorted(v.rays) == list(range(9))


def test_mul_fixed_reproduces_multiplier_row():
    # (c1 + c2 x + c3 x^2)(x^2 - 4): exact symbolic coefficients.
    alloc = DecisionAllocator()
    ap = fresh_free_poly(alloc, monomial_basis(1, 2), MonomialCodes(1, 4))
    x = Polynomial.variable(0, 1)
    prod = mul_fixed(ap, x**2 - 4)
    assert fold(prod) == {
        (0,): {0: -4.0},
        (1,): {1: -4.0},
        (2,): {0: 1.0, 2: -4.0},
        (3,): {1: 1.0},
        (4,): {2: 1.0},
    }
    # One term per pair of terms, the left operand's first: nothing is summed.
    assert prod.col.tolist() == [0, 0, 1, 1, 2, 2]
    assert prod.coef.tolist() == [1.0, -4.0, 1.0, -4.0, 1.0, -4.0]


def test_mul_fixed_identity_and_zero():
    alloc = DecisionAllocator()
    ap = fresh_free_poly(alloc, monomial_basis(2, 1), MonomialCodes(2, 2))
    one = Polynomial.one(2)
    assert fold(mul_fixed(ap, one)) == fold(ap)
    assert mul_fixed(ap, Polynomial.zero(2)).mono.size == 0
    with pytest.raises(ValueError):
        mul_fixed(ap, Polynomial.one(3))
    # A product beyond the code's top degree has no code.
    with pytest.raises(ValueError):
        mul_fixed(ap, Polynomial.variable(0, 2) ** 2)


def test_coefficient_system_examples():
    alloc = DecisionAllocator()
    ap = fresh_free_poly(alloc, monomial_basis(1, 2), MonomialCodes(1, 4))
    x = Polynomial.variable(0, 1)
    prod = mul_fixed(ap, x**2 - 4)
    system = coefficient_system(prod, Polynomial.zero(1))
    assert len(system) == 5
    # Third entry is the x^2 coefficient c1 - 4 c3.
    assert system[2] == ({0: 1.0, 2: -4.0}, 0.0)
    # Without a fixed term the right-hand side is -0.0.
    assert all(math.copysign(1.0, rhs) == -1.0 for _, rhs in system)

    empty = fresh_free_poly(DecisionAllocator(), [], MonomialCodes(3, 0))
    assert coefficient_system(empty, Polynomial.zero(3)) == []

    # 1 + s0 == 0: the fixed 1 moves to the right-hand side.
    alloc = DecisionAllocator()
    s0 = fresh_dsos_poly(alloc, monomial_basis(1, 0), MonomialCodes(1, 0))
    system = coefficient_system(s0.expansion, Polynomial.one(1))
    assert system == [({0: 1.0}, -1.0)]


def test_dd_rows_k2_exact_set():
    alloc = DecisionAllocator()
    v = fresh_dsos_poly(alloc, monomial_basis(1, 1), MonomialCodes(1, 2))
    rows = dd_linear_constraints(v)
    # One sign row per ray weight, in allocation order, with right-hand side +0.
    assert rows == [({0: -1.0}, 0.0), ({1: -1.0}, 0.0), ({2: -1.0}, 0.0), ({3: -1.0}, 0.0)]
    assert all(math.copysign(1.0, rhs) == 1.0 for _, rhs in rows)


def test_dd_row_count_formula():
    for halfdeg, nvars in [(1, 2), (2, 1), (1, 3)]:
        alloc = DecisionAllocator()
        codes = MonomialCodes(nvars, 2 * halfdeg)
        v = fresh_dsos_poly(alloc, monomial_basis(nvars, halfdeg), codes)
        k = v.dim
        assert len(dd_linear_constraints(v)) == k * k


def test_pruned_pairs_get_no_ray():
    alloc = DecisionAllocator()
    v = fresh_dsos_poly(alloc, monomial_basis(1, 2), MonomialCodes(1, 4),
                        keep_pair=lambda i, j: (i + j) % 2 == 0)
    # Basis [1, x, x^2]: only the pair (1, x^2) survives, once per sign.
    assert v.rays == {0: (0, 0, 1.0), 1: (0, 2, 1.0), 2: (1, 1, 1.0), 3: (2, 2, 1.0),
                      4: (0, 2, -1.0)}
    Q = v.gram([1.0] * 5)
    assert Q[0, 1] == Q[1, 2] == 0.0
    assert Q[0, 2] == 0.0 and Q[0, 0] == 3.0


def test_dd_feasible_assignment_is_dd():
    # Any non-negative ray weights build a diagonally dominant Gram matrix,
    # whose entries are the rows entries() gives.
    rng = random.Random(3)
    for k, nvars, halfdeg in [(3, 2, 1), (6, 2, 2)]:
        alloc = DecisionAllocator()
        codes = MonomialCodes(nvars, 2 * halfdeg)
        v = fresh_dsos_poly(alloc, monomial_basis(nvars, halfdeg), codes)
        assert v.dim == k
        for _ in range(20):
            z = [rng.choice([0.0, rng.uniform(0.0, 3.0)]) for _ in range(alloc.count)]
            for coefs, rhs in dd_linear_constraints(v):
                assert row_value(coefs, z) <= rhs
            Q = v.gram(z)
            assert is_diagonally_dominant(Q, tol=1e-12)
            for (i, j), coefs in v.entries().items():
                assert Q[i, j] == Q[j, i] == pytest.approx(row_value(coefs, z), abs=1e-12)


def test_is_diagonally_dominant_examples():
    assert is_diagonally_dominant(np.eye(3))
    assert not is_diagonally_dominant(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert is_diagonally_dominant(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_is_diagonally_dominant_rejects_nonsquare():
    with pytest.raises(ValueError):
        is_diagonally_dominant(np.ones((2, 3)))


def test_decomposition_examples():
    # Reading the weights off a DD matrix: the diagonal margins and the
    # positive and negative parts of the off-diagonal entries.
    v = fresh_dsos_poly(DecisionAllocator(), monomial_basis(1, 1), MonomialCodes(1, 2))
    assert ray_weights(v, np.diag([2.0, 3.0])) == [2.0, 0.0, 3.0, 0.0]
    assert ray_weights(v, np.array([[1.0, 1.0], [1.0, 1.0]])) == [0.0, 1.0, 0.0, 0.0]
    assert ray_weights(v, np.array([[1.0, -1.0], [-1.0, 1.0]])) == [0.0, 0.0, 0.0, 1.0]
    x = Polynomial.variable(0, 1)
    z = ray_weights(v, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert instantiate(fold(v.expansion), z, 1) == (1 - x) ** 2


def test_decomposition_requires_dd():
    # A matrix that is not diagonally dominant leaves a negative margin.
    v = fresh_dsos_poly(DecisionAllocator(), monomial_basis(1, 1), MonomialCodes(1, 2))
    z = ray_weights(v, np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert min(z) == -1.0


def test_decomposition_round_trip_random():
    # The ray form is exactly the DD cone: the weights read off a DD matrix
    # are >= 0, and the Gram matrix and the expansion they build are the
    # matrix's own.
    rng = random.Random(20260816)
    for _ in range(100):
        nvars = rng.randrange(1, 3)
        halfdeg = rng.randrange(0, 3)
        basis = monomial_basis(nvars, halfdeg)
        M = random_dd_matrix(rng, len(basis))
        v = fresh_dsos_poly(DecisionAllocator(), basis, MonomialCodes(nvars, 2 * halfdeg))
        z = ray_weights(v, M)
        assert min(z) >= 0.0
        assert np.allclose(v.gram(z), M, rtol=0.0, atol=1e-12)
        direct = gram_expansion(M, basis)
        assert instantiate(fold(v.expansion), z, nvars).almost_equal(direct, tol=1e-9)


def test_linearity_is_preserved_everywhere():
    # No operation multiplies two decision-dependent expressions: instantiate
    # then evaluate must agree with evaluating coefficient expressions.
    rng = random.Random(5)
    alloc = DecisionAllocator()
    codes = MonomialCodes(2, 4)
    ap = fresh_free_poly(alloc, monomial_basis(2, 2), codes)
    v = fresh_dsos_poly(alloc, monomial_basis(2, 1), codes)
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    fixed = 2 * x1**2 - x2 + 0.5
    # e = (ap + s) * fixed - fixed
    lin = mul_fixed(linear_sum([(1.0, ap), (1.0, v.expansion)]), fixed)
    z = [rng.uniform(-2, 2) for _ in range(alloc.count)]
    inst = instantiate(fold(lin), z, 2) - fixed
    monos = sorted(set(fold(lin)) | set(fixed.terms), key=grlex_key)
    rows = coefficient_system(lin, -fixed)
    assert len(rows) == len(monos)
    for mono, (coefs, rhs) in zip(monos, rows):
        assert abs(inst.coefficient(mono) - (row_value(coefs, z) - rhs)) <= 1e-12


def test_coefficient_system_zero_implies_zero_polynomial():
    rng = random.Random(11)
    alloc = DecisionAllocator()
    ap = fresh_free_poly(alloc, monomial_basis(1, 1), MonomialCodes(1, 2))
    x = Polynomial.variable(0, 1)
    # e = (c0 + c1 x)(x - 1) + (x^2 - x) c with c fixed to 1: solving the
    # coefficient system forces e to vanish identically.
    lin = mul_fixed(ap, x - 1)
    fixed = x**2 - x
    system = coefficient_system(lin, fixed)
    # c0 = 0, c1 = -1 solves the system.
    z = [0.0, -1.0]
    assert all(abs(row_value(coefs, z) - rhs) <= 1e-12 for coefs, rhs in system)
    inst = instantiate(fold(lin), z, 1) + fixed
    for _ in range(100):
        pt = [rng.uniform(-3, 3)]
        assert abs(inst(pt)) <= 1e-8


def test_linear_sum_prunes_cancelled_entries():
    # linear_sum only concatenates; coefficient_system sums and drops what cancels.
    codes = MonomialCodes(1, 0)
    alloc = DecisionAllocator()
    c0, c1 = (fresh_free_poly(alloc, [(0,)], codes) for _ in range(2))
    one = linear_sum([(1.0, c0), (2.0, c1)])
    both = linear_sum([(1.0, one), (-1.0, one)])
    assert both.col.tolist() == [0, 1, 0, 1] and both.coef.tolist() == [1.0, 2.0, -1.0, -2.0]
    zero = Polynomial.zero(1)
    assert coefficient_system(both, zero) == []
    assert coefficient_system(linear_sum([(1.0, one), (-1.0, c0)]), zero) == [({1: 2.0}, -0.0)]
    # A sum below the pruning tolerance is dropped as well.
    near = linear_sum([(1.0, c0), (-(1.0 - 1e-15), c0)])
    assert coefficient_system(near, zero) == []
    # A monomial whose columns cancel still gets a row from its fixed term.
    assert coefficient_system(both, Polynomial.one(1)) == [({}, -1.0)]


def test_coefficient_system_refuses_non_finite_sums():
    codes = MonomialCodes(1, 0)
    c0 = fresh_free_poly(DecisionAllocator(), [(0,)], codes)
    # Finite terms whose sum overflows, and a term that is not finite.
    for parts in ([(1e308, c0), (1e308, c0)], [(math.inf, c0)]):
        with pytest.raises(ValueError, match="non-finite"):
            coefficient_system(linear_sum(parts), Polynomial.zero(1))
