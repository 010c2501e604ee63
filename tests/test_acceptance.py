"""Acceptance gate: one test per shipping criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
criterion lines as they print). Each test covers exactly one numbered
criterion and is independent of the others.
"""

import dataclasses
import functools
import random
import time

import numpy as np

from _oracles import counterexample_holds, fm_feasible, fold, instantiate, ray_weights
from _oracles import full_ring_emptiness_lp, full_ring_single_lp
from _oracles import rows as rows_of
from barrierlp.affinegram import (
    DecisionAllocator,
    MonomialCodes,
    coefficient_system,
    dd_linear_constraints,
    fresh_dsos_poly,
    fresh_free_poly,
    gram_expansion,
    is_diagonally_dominant,
    mul_fixed,
)
from barrierlp.lpsolve import LpProblem, LpStatus, solve_feasibility, validate_farkas
from barrierlp.polyring import Polynomial, PolyMatrix, evaluate, grlex_key, monomial_basis
from barrierlp.satbench import CwParams, build_cw_system, build_inspection_cbf
from barrierlp.verifier import (
    CandidateCbf,
    Certificate,
    ControlAffineSystem,
    Verdict,
    VerifierOptions,
    _run_schedule,
    _single_rungs,
    assemble_emptiness_lp,
    assemble_single_lp,
    certificate_residual,
    verify_multi,
    verify_single,
)


def criterion(num, label):
    """Print the per-criterion verdict line whichever way the body ends."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print("criterion %2d  %-52s FAIL" % (num, label))
                raise
            print("criterion %2d  %-52s PASS" % (num, label))

        return run

    return wrap


def single_integrator(n=1, m=None):
    """Zero drift with a constant input matrix of ones on the diagonal."""
    if m is None:
        m = n
    zero = Polynomial.zero(n)
    one = Polynomial.one(n)
    f = PolyMatrix([[zero] for _ in range(n)])
    g = PolyMatrix([[one if i == j else zero for j in range(m)] for i in range(n)])
    return ControlAffineSystem(f=f, g=g)


def _x(i, n):
    return Polynomial.variable(i, n)


@criterion(1, "fixed-multiplication coefficient rows are exact")
def test_criterion_01_gram_example_fidelity():
    # (c1 + c2 x + c3 x^2) * (x^2 - 4): each product monomial must carry an
    # exactly reproduced linear form in (c1, c2, c3), with no tolerance.
    alloc = DecisionAllocator()
    codes = MonomialCodes(1, 4)
    c = fresh_free_poly(alloc, monomial_basis(1, 2), codes)  # c1 <-> z0, c2 <-> z1, c3 <-> z2
    x = _x(0, 1)
    prod = mul_fixed(c, x * x - 4.0 * Polynomial.one(1))
    expected = {
        (0,): {0: -4.0},
        (1,): {1: -4.0},
        (2,): {0: 1.0, 2: -4.0},
        (3,): {1: 1.0},
        (4,): {2: 1.0},
    }
    assert fold(prod) == expected
    # The equality rows carry the same forms in term order, with zero right-hand sides.
    rows = rows_of(coefficient_system(prod, Polynomial.zero(1)))
    assert [coefs for coefs, _ in rows] == [expected[m] for m in sorted(expected, key=grlex_key)]
    assert all(rhs == 0.0 for _, rhs in rows)


@criterion(2, "dominance rows agree with the direct test, 200 cases")
def test_criterion_02_dd_linearization_correctness():
    # Fix the Gram entries of a fresh DSOS variable to a random symmetric
    # matrix and let only the ray weights vary: the row system must be
    # feasible exactly when the matrix is diagonally dominant.
    rng = np.random.default_rng(20260816)
    n_dominant = 0
    for trial in range(200):
        k = int(rng.integers(1, 7))
        M = rng.uniform(-1.0, 1.0, (k, k))
        M = (M + M.T) / 2.0
        if rng.random() < 0.5:
            for i in range(k):
                off = sum(abs(M[i, j]) for j in range(k) if j != i)
                M[i, i] = off + rng.uniform(0.0, 1.0)
        alloc = DecisionAllocator()
        v = fresh_dsos_poly(alloc, monomial_basis(1, k - 1), MonomialCodes(1, 2 * k - 2))
        assert v.dim == k
        lp = LpProblem(alloc.count)
        lp.add_rows(ub=[dd_linear_constraints(v)])
        for (i, j), row in v.entries().items():
            lp.add_eq(row, float(M[i, j]))
        out = solve_feasibility(lp)
        assert out.status in (LpStatus.FEASIBLE, LpStatus.INFEASIBLE), "trial %d" % trial
        dominant = is_diagonally_dominant(M, 1e-9)
        assert (out.status is LpStatus.FEASIBLE) == dominant, "trial %d" % trial
        n_dominant += dominant
    # Both answers must actually occur.
    assert 40 <= n_dominant <= 160


@criterion(3, "dominant-Gram decompositions round-trip, 100 cases")
def test_criterion_03_decomposition_round_trip():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(0, 3))
        basis = monomial_basis(n, d)
        k = len(basis)
        M = rng.uniform(-1.0, 1.0, (k, k))
        M = (M + M.T) / 2.0
        for i in range(k):
            off = sum(abs(M[i, j]) for j in range(k) if j != i)
            M[i, i] = off + rng.uniform(0.0, 1.0)
        v = fresh_dsos_poly(DecisionAllocator(), basis, MonomialCodes(n, 2 * d))
        z = np.array(ray_weights(v, M))
        assert z.min() >= 0.0, "trial %d" % trial
        assert np.allclose(v.gram(z), M, rtol=0.0, atol=1e-12), "trial %d" % trial
        expanded = instantiate(fold(v.expansion), z, n)
        target = gram_expansion(M, basis)
        diff = expanded - target
        worst = max((abs(c) for c in diff.terms.values()), default=0.0)
        assert worst <= 1e-9, "trial %d: drift %g" % (trial, worst)


@criterion(4, "solver status matches the exact oracle, 50 programs")
def test_criterion_04_solver_oracle_equivalence():
    rng = random.Random(416)
    n_infeasible = 0
    for trial in range(50):
        n = rng.randrange(1, 7)
        lp = LpProblem(n)
        for _ in range(rng.randrange(1, 11)):
            coefs = {}
            for i in range(n):
                if rng.random() < 0.6:
                    # Quarter integers are exactly representable.
                    coefs[i] = rng.randrange(-8, 9) / 4.0
            coefs = {i: c for i, c in coefs.items() if c != 0.0}
            rhs = rng.randrange(-8, 9) / 4.0
            if rng.random() < 0.3:
                lp.add_eq(coefs, rhs)
            else:
                lp.add_ub(coefs, rhs)
        out = solve_feasibility(lp)
        expected = fm_feasible(lp.eq_rows, lp.ub_rows, lp.nvars)
        if expected:
            assert out.status is LpStatus.FEASIBLE, "trial %d" % trial
            assert lp.max_violation(out.point) <= 1e-8
        else:
            assert out.status is LpStatus.INFEASIBLE, "trial %d" % trial
            max_coef, rhs = validate_farkas(lp, out.farkas)
            assert max_coef <= 1e-9
            assert rhs <= -1e-9
            n_infeasible += 1
    assert 5 <= n_infeasible <= 45


@criterion(5, "positive single candidate verifies under a second")
def test_criterion_05_single_positive_case():
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    t0 = time.perf_counter()
    out = verify_single(sys, CandidateCbf.from_system(b, sys))
    elapsed = time.perf_counter() - t0
    assert out.verdict is Verdict.VERIFIED
    assert elapsed < 1.0, "took %.3f s" % elapsed
    cert = out.certificate
    assert cert is not None
    assert cert.residual <= 1e-6
    assert cert.grams_diagonally_dominant(1e-7)


@criterion(6, "negative single candidate stays inconclusive throughout")
def test_criterion_06_single_negative_case():
    # b = x with drift -1 and no input authority: on the set where b and its
    # input derivative vanish (only the origin), the drift derivative is -1,
    # so no certificate can exist at any degree.
    one = Polynomial.one(1)
    sys = ControlAffineSystem(
        f=PolyMatrix([[Polynomial.zero(1) - one]]),
        g=PolyMatrix([[Polynomial.zero(1)]]),
    )
    cand = CandidateCbf.from_system(_x(0, 1), sys)
    out = verify_single(sys, cand)
    assert out.verdict is Verdict.INCONCLUSIVE
    assert out.certificate is None
    # The origin is found and proven a counterexample, so no program is solved.
    assert out.lps == [] and out.counterexample.centre == ((0.0).hex(),)
    assert counterexample_holds(out.counterexample, cand.b, sys.f, sys.g)
    entries = out.schedule["entries"]
    assert len(entries) >= 2
    # Every scheduled rung, when run, is attempted and none produces a certificate.
    records, cert, _ = _run_schedule(_single_rungs(cand, VerifierOptions()), VerifierOptions(), {})
    assert cert is None and len(records) == len(entries)
    # Point-wise witness at the origin, asserted directly.
    assert evaluate(cand.b, [0.0]) == 0.0
    assert evaluate(cand.lgb[0, 0], [0.0]) == 0.0
    assert evaluate(cand.lfb, [0.0]) == -1.0


@criterion(7, "disjoint pair is certified empty at half-degree zero")
def test_criterion_07_emptiness_detection():
    sys = single_integrator(1)
    x = _x(0, 1)
    one = Polynomial.one(1)
    c1 = CandidateCbf.from_system(one - x * x, sys)
    c2 = CandidateCbf.from_system(x * x - 4.0 * one, sys)
    out = verify_multi(sys, [c1, c2])
    assert out.verdict is Verdict.EMPTINESS_CERTIFIED
    assert out.certificate is not None
    assert out.certificate.deg_s == 0
    assert out.certificate.residual <= 1e-10
    # The exact hand certificate: 1 + 2 + 1*(1-x^2) + 1*(x^2-4) = 0.
    hand = Certificate(
        kind="emptiness",
        gram_bases=[[(0,)], [(0,)], [(0,)]],
        grams=[np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]])],
        deg_s=0,
    )
    assert certificate_residual(hand, None, [c1, c2]) <= 1e-10


@criterion(8, "overlapping pair verifies with refuted emptiness sweep")
def test_criterion_08_non_emptiness():
    sys = single_integrator(1)
    x = _x(0, 1)
    one = Polynomial.one(1)
    c1 = CandidateCbf.from_system(one - x * x, sys)
    c2 = CandidateCbf.from_system(x * x - 0.25 * one, sys)
    out = verify_multi(sys, [c1, c2])
    assert out.verdict is Verdict.MULTI_VERIFIED
    degrees = out.schedule["emptiness_deg_s"]
    assert len(degrees) >= 2
    assert len(out.lps) == len(degrees)
    for rec in out.lps:
        assert rec.status == "Infeasible", rec.name
        assert rec.farkas_valid is True, rec.name


@criterion(9, "relative-orbit benchmark verifies for one to three chasers")
def test_criterion_09_satellite_benchmark():
    template = CwParams()
    times = []
    for L in (1, 2, 3):
        params = template.with_L(L)
        sys = build_cw_system(params)
        cands = [build_inspection_cbf(params, i, sys) for i in range(L)]
        t0 = time.perf_counter()
        out = verify_multi(sys, cands)
        times.append(time.perf_counter() - t0)
        assert out.verdict in (Verdict.VERIFIED, Verdict.MULTI_VERIFIED), "L=%d" % L
    assert sum(times) <= 300.0, "total %.1f s" % sum(times)
    # Work grows with the fleet; allow a small jitter margin on wall time.
    for prev, cur in zip(times, times[1:]):
        assert cur >= prev - 0.2, "times %s not monotone" % times


@criterion(10, "full decision-vector sizes match the closed forms")
def test_criterion_10_layout_conformance():
    # (n, m, deg, L) -> sizes 2k^2 + (2m+2)k and k^2 (L+1) with the full
    # monomial basis (the full-ring reference) and shared multiplier degree.
    # The assembled programs keep P off-diagonal Gram pairs of their basis of
    # size k and l live channels over f free monomials: (2l+2)f + 2(k+2P)
    # and (k+2P)(L+1). b is even in every variable, so the emptiness program
    # prunes pairs.
    configs = [(1, 1, 1, 2), (2, 3, 1, 3), (2, 1, 2, 1)]
    for n, m, deg, L in configs:
        k = len(monomial_basis(n, deg))
        sys = single_integrator(n, m)
        b = Polynomial.one(n)
        for i in range(n):
            b = b - _x(i, n) ** 2
        cand = CandidateCbf.from_system(b, sys)
        lp, lay = full_ring_single_lp(cand, a=0, deg_s=deg, deg_p=deg)
        want_single = 2 * k * k + (2 * m + 2) * k
        assert lp.nvars == want_single, "(n=%d, m=%d, deg=%d)" % (n, m, deg)
        assert lay.nvars == want_single
        lp_e, lay_e = full_ring_emptiness_lp([cand] * L, deg)
        want_empty = k * k * (L + 1)
        assert lp_e.nvars == want_empty, "(n=%d, deg=%d, L=%d)" % (n, deg, L)
        assert lay_e.nvars == want_empty
        _, red = assemble_single_lp(cand, a=0, deg_s=deg, deg_p=deg)
        pairs = sum(sign < 0 for _, _, sign in red.s1.rays.values())
        live = sum(p is not None for p in red.p1)
        assert red.nvars == ((2 * live + 2) * len(red.free_basis)
                             + 2 * (len(red.gram_basis) + 2 * pairs))
        _, red_e = assemble_emptiness_lp([cand] * L, deg)
        pairs = sum(sign < 0 for _, _, sign in red_e.s_vars[0].rays.values())
        assert red_e.nvars == (len(red_e.gram_basis) + 2 * pairs) * (L + 1) < lay_e.nvars


@criterion(11, "perturbed certificates are rejected by the residual gate")
def test_criterion_11_certificate_gate_soundness():
    sys = single_integrator(1)
    x = _x(0, 1)
    one = Polynomial.one(1)
    flag = CandidateCbf.from_system(one - x * x, sys)
    inner = CandidateCbf.from_system(x * x - 0.25 * one, sys)
    far = CandidateCbf.from_system(x * x - 4.0 * one, sys)

    # Positive-case suite: the flagship single, both members of the verified
    # pair, and the emptiness certificate of the disjoint pair.
    suite = []
    out_flag = verify_single(sys, flag)
    assert out_flag.verdict is Verdict.VERIFIED
    suite.append((out_flag.certificate, sys, flag))
    out_pair = verify_multi(sys, [flag, inner])
    assert out_pair.verdict is Verdict.MULTI_VERIFIED
    for cnd, so in zip([flag, inner], out_pair.singles):
        assert so.verdict is Verdict.VERIFIED
        suite.append((so.certificate, sys, cnd))
    out_empty = verify_multi(sys, [flag, far])
    assert out_empty.verdict is Verdict.EMPTINESS_CERTIFIED
    suite.append((out_empty.certificate, None, [flag, far]))

    rng = np.random.default_rng(11)
    rejected = 0
    for _ in range(100):
        cert, sysref, candref = suite[int(rng.integers(len(suite)))]
        if cert.kind == "single":
            # The first Gram multiplies the drift derivative, identically
            # zero for these systems, so its entries never reach the
            # identity; only the second Gram's entries are load-bearing.
            gi = 1
        else:
            gi = int(rng.integers(len(cert.grams)))
        shape = cert.grams[gi].shape
        i = int(rng.integers(shape[0]))
        j = int(rng.integers(shape[1]))
        grams = [np.array(G, copy=True) for G in cert.grams]
        grams[gi][i, j] += 1e-3
        mutated = dataclasses.replace(cert, grams=grams)
        if certificate_residual(mutated, sysref, candref) > 1e-6:
            rejected += 1
    assert rejected >= 95, "only %d/100 rejected" % rejected
