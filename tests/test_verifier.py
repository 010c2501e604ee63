"""Tests for LP assembly, verdict drivers, and certificate gating."""

import dataclasses
import hashlib
import json
import logging

import numpy as np
import pytest

from _oracles import fold, full_ring_emptiness_lp, full_ring_single_lp
from test_cli import disjoint_pair_doc, overlapping_pair_doc
from barrierlp.lpsolve import (
    FEAS_TOL,
    FarkasCertificate,
    LpOutcome,
    LpProblem,
    LpStatus,
    export_lp_text,
    solve_feasibility,
)
from barrierlp.polyring import (
    Polynomial,
    PolyMatrix,
    evaluate,
    lie_derivative_drift,
    lie_derivative_input,
    monomial_basis,
)
from barrierlp.satbench import CwParams, build_cw_system, build_inspection_cbf
from barrierlp.specio import load_problem, problem_document, write_report
from barrierlp.verifier import (
    LP_TIMINGS,
    CandidateCbf,
    Certificate,
    ControlAffineSystem,
    Verdict,
    VerificationOutcome,
    VerifierOptions,
    _resolved_single_schedule,
    _run_schedule,
    _single_rungs,
    archimedean_witness,
    assemble_emptiness_lp,
    assemble_single_lp,
    augment_archimedean,
    certificate_residual,
    check_emptiness,
    default_deg_p,
    default_deg_s,
    sign_classes,
    support_ring,
    verify_multi,
    verify_single,
    _farkas_acceptable,
)


def _x(i, n):
    return Polynomial.variable(i, n)


def single_integrator(n=1):
    """dx_i/dt = u_i: zero drift, identity input matrix."""
    zero = Polynomial.zero(n)
    one = Polynomial.one(n)
    f = PolyMatrix([[zero] for _ in range(n)])
    g = PolyMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])
    return ControlAffineSystem(f=f, g=g)


def cand(b, sys):
    return CandidateCbf.from_system(b, sys)


# -- layout conformance -------------------------------------------------------


def test_single_layout_size_small():
    # n=1, m=1, deg_s=deg_p=1: basis size k=2, so 2k^2 + (2m+2)k = 16.
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    lp, lay = assemble_single_lp(cand(b, sys), a=0, deg_s=1, deg_p=1)
    assert lay.nvars == 16
    assert lp.nvars == 16
    # equality rows: one per monomial of the identity; sign rows: k^2 per Gram.
    assert len(lp.eq_rows) == len(set(fold(lay.identity)) | set(lay.fixed.terms))
    assert lp.nrows == len(lp.eq_rows) + 2 * 4


def test_single_layout_size_k3():
    # n=1, m=1, k=3 (deg_s=2): 2*9 + 4*3 = 30 decision variables.
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    _, lay = assemble_single_lp(cand(b, sys), a=0, deg_s=2, deg_p=2)
    assert lay.nvars == 30


def test_single_layout_allocation_order():
    """p10, p20, p1, p2 first, then the ray weights of s1 and of s2."""
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    _, lay = assemble_single_lp(cand(b, sys), a=0, deg_s=1, deg_p=1)
    k = len(lay.gram_basis)
    kp = len(lay.free_basis)
    assert lay.p10.col.tolist() == list(range(kp))
    assert lay.p20.col.tolist() == list(range(kp, 2 * kp))
    assert min(lay.s1.rays) == 4 * kp  # after p10, p20, p1, p2
    assert min(lay.s2.rays) == 4 * kp + k * k  # s1 takes k^2 ray weights
    # e_1 e_1^T, then (e_1 + e_2)(e_1 + e_2)^T, e_2 e_2^T, then (e_1 - e_2)(e_1 - e_2)^T.
    assert list(lay.s1.rays.values()) == [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (0, 1, -1.0)]


def test_emptiness_layout_size():
    # L=2 candidates, deg_s=1 over one variable: k=2, k^2 (L+1) = 12 in the
    # full ring. x -> -x fixes both generators, so the pair (1, x) is pruned:
    # k (L+1) = 6.
    sys = single_integrator(1)
    x = _x(0, 1)
    cands = [cand(Polynomial.one(1) - x ** 2, sys), cand(x ** 2 - Polynomial.constant(4.0, 1), sys)]
    lp, lay = full_ring_emptiness_lp(cands, deg_s=1)
    assert lay.nvars == 12
    assert lp.nvars == 12
    lp, lay = assemble_emptiness_lp(cands, deg_s=1)
    assert lay.nvars == lp.nvars == 6


def test_emptiness_layout_with_augmentation():
    sys = single_integrator(2)
    n = 2
    b1 = Polynomial.one(n) - _x(0, n) ** 2 - _x(1, n) ** 2
    b2 = _x(0, n) - Polynomial.constant(3.0, n)
    cands = [cand(b1, sys), cand(b2, sys)]
    _, lay = assemble_emptiness_lp(cands, deg_s=1, archimedean_C=9)
    assert lay.augmented
    assert len(lay.s_vars) == 4  # s0 plus one per generator including the ball
    ball = lay.generators[-1]
    assert ball.terms[(0, 0)] == 9.0
    assert ball.terms[(2, 0)] == -1.0 and ball.terms[(0, 2)] == -1.0


# -- verdicts on the worked examples ------------------------------------------


def test_unit_disc_single_integrator_verifies():
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    out = verify_single(sys, cand(b, sys))
    assert out.verdict is Verdict.VERIFIED
    assert out.certificate is not None
    assert out.certificate.residual <= 1e-6
    assert out.certificate.grams_diagonally_dominant(1e-7)
    assert out.seconds < 5.0


def test_certificate_reproduces_identity():
    """Re-expand the returned multipliers by hand and compare pointwise."""
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    c = cand(b, sys)
    out = verify_single(sys, c)
    cert = out.certificate
    s1, s2 = cert.s_polys()
    a = cert.a
    rng = np.random.default_rng(7)
    for point in rng.uniform(-2, 2, size=(20, 1)):
        lfb = evaluate(c.lfb, point)
        lgb = evaluate(c.lgb[0, 0], point)
        lhs = (evaluate(s1, point) + evaluate(b, point) * evaluate(cert.p10, point)
               + lgb * evaluate(cert.p1[0], point)) * lfb
        rhs = (evaluate(s2, point) + evaluate(b, point) * evaluate(cert.p20, point)
               + lgb * evaluate(cert.p2[0], point) + (1.0 if a == 0 else lfb ** (2 * a)))
        assert abs(lhs - rhs) < 1e-8


def test_shifted_drift_candidate_inconclusive():
    """b = x with dx/dt = -1 is not a barrier; the point x=0 witnesses it."""
    n = 1
    f = PolyMatrix([[Polynomial.constant(-1.0, n)]])
    g = PolyMatrix([[Polynomial.zero(n)]])
    sys = ControlAffineSystem(f=f, g=g)
    c = cand(_x(0, n), sys)
    out = verify_single(sys, c)
    assert out.verdict is Verdict.INCONCLUSIVE
    assert all(r.status == LpStatus.INFEASIBLE.value for r in out.lps)
    # Witness: at the boundary point x=0 the input has no authority and the
    # drift pushes b down, so no certificate can exist at any degree.
    point = np.zeros(1)
    assert abs(evaluate(c.b, point)) < 1e-12
    assert abs(evaluate(c.lgb[0, 0], point)) < 1e-12
    assert evaluate(c.lfb, point) < 0


def test_everywhere_safe_candidate_verifies():
    """b = x^2 + 1 has an empty zero level set; certification is easy."""
    sys = single_integrator(1)
    b = _x(0, 1) ** 2 + Polynomial.one(1)
    out = verify_single(sys, cand(b, sys))
    assert out.verdict is Verdict.VERIFIED


def test_disjoint_pair_emptiness_certified(monkeypatch):
    sys = single_integrator(1)
    x = _x(0, 1)
    inner = cand(Polynomial.one(1) - x ** 2, sys)
    outer = cand(x ** 2 - Polynomial.constant(4.0, 1), sys)
    calls = counting_solves(monkeypatch)
    out = verify_multi(sys, [inner, outer])
    assert out.verdict is Verdict.EMPTINESS_CERTIFIED
    assert out.certificate is not None
    assert out.certificate.kind == "emptiness"
    assert out.certificate.deg_s == 0
    assert out.certificate.residual <= 1e-6
    # The certificate fixes the verdict: only emptiness programs are solved.
    assert (out.singles, out.skipped) == ([], [0, 1])
    assert len(calls) == len(out.lps) and not any(r.reused for r in out.lps)


def test_hand_built_emptiness_certificate():
    """1 + 2 + 1*(1-x^2) + 1*(x^2-4) = 0: constants s0=2, s1=s2=1 work."""
    sys = single_integrator(1)
    x = _x(0, 1)
    cands = [cand(Polynomial.one(1) - x ** 2, sys),
             cand(x ** 2 - Polynomial.constant(4.0, 1), sys)]
    basis = monomial_basis(1, 0)
    cert = Certificate(
        kind="emptiness",
        gram_bases=[basis, basis, basis],
        grams=[np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]])],
        deg_s=0,
    )
    assert certificate_residual(cert, None, cands) < 1e-12


def test_overlapping_pair_multi_verified():
    """{1-x^2, x^2-1/4} meet on the ring 1/2 <= |x| <= 1: no emptiness proof."""
    sys = single_integrator(1)
    x = _x(0, 1)
    cands = [cand(Polynomial.one(1) - x ** 2, sys),
             cand(x ** 2 - Polynomial.constant(0.25, 1), sys)]
    out = verify_multi(sys, cands)
    assert out.verdict is Verdict.MULTI_VERIFIED
    assert all(s.verdict is Verdict.VERIFIED for s in out.singles)
    assert all(r.status == LpStatus.INFEASIBLE.value for r in out.lps)
    assert all(r.farkas_valid for r in out.lps)
    # The overlap is real: x = 0.75 satisfies both candidates.
    point = np.array([0.75])
    assert all(evaluate(c.b, point) > 0 for c in cands)


def test_multi_with_unverifiable_member_inconclusive():
    n = 1
    f = PolyMatrix([[Polynomial.constant(-1.0, n)]])
    g = PolyMatrix([[Polynomial.zero(n)]])
    sys_bad = ControlAffineSystem(f=f, g=g)
    good = cand(_x(0, n) ** 2 + Polynomial.one(n), sys_bad)
    bad = cand(_x(0, n), sys_bad)
    out = verify_multi(sys_bad, [good, bad])
    assert out.verdict is Verdict.MULTI_INCONCLUSIVE


def test_multi_iteration_limit_warns_once_per_lp():
    sys = single_integrator(1)
    x = _x(0, 1)
    cands = [cand(Polynomial.one(1) - x ** 2, sys),
             cand(x ** 2 - Polynomial.constant(0.25, 1), sys)]
    out = verify_multi(sys, cands, VerifierOptions(max_iters=1))
    assert out.verdict is Verdict.MULTI_INCONCLUSIVE
    records = out.lps + [r for s in out.singles for r in s.lps]
    assert records and all(r.status == LpStatus.ITERATION_LIMIT.value for r in records)
    expected = ["%s: iteration limit reached" % r.name for r in out.lps]
    expected += ["candidate %d: %s: iteration limit reached" % (i, r.name)
                 for i, s in enumerate(out.singles) for r in s.lps]
    assert [w for w in out.warnings if "iteration limit" in w] == expected


# Two documents of the corpus generator (perfbench/workloads.py) whose single
# programs end in the gated simplex exits. STALL_WINDOW_DOC is draw 31 from
# np.random.default_rng(3): the a=0 program of its first candidate (108 x 56)
# stalls after one improving pivot and a whole progress window, 409 pivots
# in all, though HiGHS proves it infeasible. ERODED_DOC is
# draw 6 from default_rng(21): its second candidate verifies at a=1, and
# the program pinned in eroded_ring (136 x 92) ends with a point that meets
# every reduced row but leaves a sign column at -0.037, so it misses that
# column's sign row; HiGHS finds the program feasible.
STALL_WINDOW_DOC = {
    "schema": 1,
    "variables": ["x", "y", "z"],
    "inputs": ["u1", "u2"],
    "drift": ["0.385*x - 0.611*z - 0.304*x^2", "-0.146*x - 0.226*y + 0.352*z^2",
              "0.516*x - 0.96*y - 0.366*z - 0.562*x*z"],
    "input_matrix": [["0.192", "0"], ["-0.509", "0.013"], ["0", "0"]],
    "candidates": [
        "0.2865110702951818 - 0.6634681484550055*x - 0.39254841997252365*y"
        " - 0.39500665001440893*z - 1.300853558139674*x^2 - 0.7241330234605596*y^2"
        " - 1.4300486274925346*z^2",
        "0.13899921596839385 + 0.30768540723405885*x + 0.04957626410815792*y"
        " + 0.5870911731424893*z - 0.8850604321909028*x^2 - 1.3544894628069821*y^2"
        " - 1.8300997329434514*z^2",
    ],
}
ERODED_DOC = {
    "schema": 1,
    "variables": ["x", "y", "z"],
    "inputs": ["u1", "u2"],
    "drift": ["-0.481*x - 0.053*y + 0.039*y^2", "-0.46*y", "0.001*z - 0.587*x*y"],
    "input_matrix": [["0", "-0.707"], ["0", "-0.92"], ["-0.812", "0.808"]],
    "candidates": [
        "0.3973424776335528 - 0.1030649574060788*x - 0.8887981360497631*y"
        " - 0.3889204732388198*z - 0.5960413299518139*x^2 - 1.586286041075484*y^2"
        " - 0.8112301482847414*z^2",
        "0.9267323940574884 - 0.28085225390538154*x + 0.02117568490570963*y"
        " + 0.1219763659910237*z - 1.0201981874115391*x^2 - 0.8950913376194736*y^2"
        " - 1.8620400830761052*z^2",
    ],
}


def eroded_ring(cand):
    """ERODED_DOC candidate 1's support ring, with the x*y coefficient of Lfb one ulp low.

    Lfb summed in floats rounded that coefficient to 0.03654088102889223;
    its exact value rounds to 0.03654088102889224. On the float one the a=1
    program ends eroded after 61 pivots; on the exact rounding it reads
    Feasible after 65 pivots and certifies.
    """
    ring = support_ring(cand)
    lfb = dict(ring.lfb.terms)
    assert lfb[(1, 1, 0)] == 0.03654088102889224
    lfb[(1, 1, 0)] = 0.03654088102889223
    return dataclasses.replace(ring, lfb=Polynomial(lfb, 3))


@pytest.mark.parametrize("doc, index, expected", [
    (STALL_WINDOW_DOC, 0, [("IterationLimit", "stall_window"), ("Infeasible", "optimal")]),
    (ERODED_DOC, 1, [("Infeasible", "optimal"), ("IterationLimit", "eroded")]),
])
def test_gated_simplex_exits_on_real_programs(doc, index, expected):
    # The whole schedule runs here: verify_single solves none of it for
    # STALL_WINDOW_DOC's candidate 0, which a counterexample refutes.
    spec = load_problem(doc)
    cand = spec.candidates[index]
    rungs = _single_rungs(cand, spec.options, eroded_ring(cand) if doc is ERODED_DOC else None)
    records, cert, warnings = _run_schedule(rungs, spec.options, {})
    assert cert is None
    assert [(r.status, r.exit) for r in records] == expected
    # One improving pivot, then a progress window of 2 (rows + logical
    # columns) = 408 pivots of the presolved program.
    assert [r.iterations for r in records if r.exit == "stall_window"] == \
        ([409] if doc is STALL_WINDOW_DOC else [])
    assert [w for w in warnings if "iteration limit" in w] == \
        ["%s: iteration limit reached" % r.name for r in records
         if r.status == LpStatus.ITERATION_LIMIT.value]


# corpus P097 (the corpus generator's draw 97 from seed 2212). Candidate 1's
# a=1 program is refuted in 87 pivots. Multipliers read off artificial
# columns carried through the pivots once combined its rows to a residual
# of 22; those solved from the final basis's starting columns, and mapped
# back through presolve, pass the Farkas gate on the assembled rows.
REFUTED_DOC = {
    "schema": 1,
    "variables": ["x", "y", "z"],
    "inputs": ["u1", "u2"],
    "drift": ["-0.065*y + 0.425*x*y", "-0.989*y - 0.717*z", "0.163*x + 0.205*y - 0.523*z^2"],
    "input_matrix": [["0.238", "0"], ["0", "-0.483"], ["-0.178", "-0.725"]],
    "candidates": [
        "-10.540365199118352 + 3.446299080314366*x + 5.465803338663002*y"
        " + 3.1073487848927543*z - 0.9557215276499738*x^2 - 1.5212281216413377*y^2"
        " - 0.814590373338455*z^2",
        "-3.434207400911389 + 2.8055854359168833*x - 0.19296070214633665*y"
        " - 2.5664245778726467*z - 1.9616186426111824*x^2 - 0.6551308925990101*y^2"
        " - 0.5731047854375051*z^2",
    ],
}


def test_refutation_multipliers_come_from_the_final_basis():
    spec = load_problem(REFUTED_DOC)
    records, _, _ = _run_schedule(_single_rungs(spec.candidates[1], spec.options), spec.options, {})
    rec = {r.name: r for r in records}["single a=1 deg_s=1 deg_p=2"]
    assert (rec.status, rec.iterations, rec.farkas_valid) == ("Infeasible", 87, True)


# corpus P095. Its a=1 program once came back Feasible with a point 23.9 off
# one of the program's own rows; a Feasible point must meet every row of
# the program it was solved for.
FEASIBLE_POINT_DOC = {
    "schema": 1,
    "variables": ["x", "y"],
    "inputs": ["u1", "u2"],
    "drift": ["0.379*x + 0.533*x*y", "0.556*x - 0.946*y"],
    "input_matrix": [["0", "-0.601"], ["0", "-0.655"]],
    "candidates": [
        "0.5027165151988868 - 1.7673571216944068*x - 0.001051678764056287*y"
        " - 1.7998739537076673*x^2 - 0.5071768015400226*y^2",
    ],
}


def test_feasible_points_meet_their_programs_rows(monkeypatch):
    import barrierlp.verifier as verifier

    solved = []

    def spy(lp, **kw):
        out = solve_feasibility(lp, **kw)
        solved.append((lp, out))
        return out

    monkeypatch.setattr(verifier, "solve_feasibility", spy)
    spec = load_problem(FEASIBLE_POINT_DOC)
    verify_single(spec.system, spec.candidates[0], spec.options)
    feasible = [(lp, out) for lp, out in solved if out.status is LpStatus.FEASIBLE]
    assert feasible
    for lp, out in feasible:
        assert lp.max_violation(out.point) <= FEAS_TOL


# -- fixed-term conventions ----------------------------------------------------


def test_zero_power_convention():
    """a = 0 contributes the constant 1 even when the drift derivative is 0."""
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    c = cand(b, sys)
    assert c.lfb.is_zero()
    lp, lay = assemble_single_lp(c, a=0, deg_s=1, deg_p=1)
    assert lay.fixed == -Polynomial.one(1)
    # The constant monomial comes first in the term order; its row reads ... = 1.
    assert lp.eq_rows[0][1] == 1.0


def test_zero_certificate_residual_is_one():
    """All-zero multipliers leave exactly the fixed constant term."""
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    c = cand(b, sys)
    basis = monomial_basis(1, 1)
    zero = Polynomial.zero(1)
    cert = Certificate(
        kind="single",
        gram_bases=[basis, basis],
        grams=[np.zeros((2, 2)), np.zeros((2, 2))],
        a=0,
        p10=zero, p20=zero, p1=[zero], p2=[zero],
    )
    assert certificate_residual(cert, sys, c) == 1.0


# -- certificate gating ---------------------------------------------------------


def test_perturbed_gram_rejected_by_residual():
    """Any relevant Gram entry nudged by 1e-3 must push the residual past the gate.

    For this system the drift derivative is identically zero, so s1 never
    enters the identity: only s2's entries are identity-relevant. Perturbing
    s1 provably leaves the residual unchanged, which is why the sweep below
    covers every entry of s2 instead.
    """
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    c = cand(b, sys)
    out = verify_single(sys, c)
    cert = out.certificate
    base = cert.residual
    assert base <= 1e-6
    k = cert.grams[1].shape[0]
    for i in range(k):
        for j in range(i, k):
            grams = [cert.grams[0].copy(), cert.grams[1].copy()]
            grams[1][i, j] += 1e-3
            grams[1][j, i] = grams[1][i, j]
            tampered = Certificate(
                kind="single",
                gram_bases=cert.gram_bases,
                grams=grams,
                a=cert.a,
                p10=cert.p10, p20=cert.p20, p1=cert.p1, p2=cert.p2,
            )
            assert certificate_residual(tampered, sys, c) > 1e-4
    # And the irrelevant block: s1 multiplies a zero polynomial.
    grams = [cert.grams[0].copy(), cert.grams[1].copy()]
    grams[0][0, 0] += 1e-3
    tampered = Certificate(
        kind="single", gram_bases=cert.gram_bases, grams=grams, a=cert.a,
        p10=cert.p10, p20=cert.p20, p1=cert.p1, p2=cert.p2,
    )
    assert certificate_residual(tampered, sys, c) <= 1e-6


def test_non_dominant_gram_fails_gate():
    cert = Certificate(
        kind="emptiness",
        gram_bases=[monomial_basis(1, 1)],
        grams=[np.array([[1.0, 2.0], [2.0, 1.0]])],
    )
    assert not cert.grams_diagonally_dominant(1e-7)


# -- archimedean helpers --------------------------------------------------------


def test_augment_appends_ball_generator():
    sys = single_integrator(2)
    n = 2
    b = _x(0, n) ** 2 + _x(1, n) ** 2 - Polynomial.one(n)
    gens = augment_archimedean([cand(b, sys)], C=4)
    assert len(gens) == 2
    ball = gens[-1]
    assert ball.terms[(0, 0)] == 4.0
    assert ball.terms[(2, 0)] == -1.0
    assert ball.terms[(0, 2)] == -1.0
    # Repeated application appends another copy; idempotence is the caller's job.
    gens2 = augment_archimedean(gens, C=4)
    assert len(gens2) == 3
    assert gens2[-1] == gens2[-2]


def test_archimedean_witness_detection():
    n = 1
    x = _x(0, n)
    assert archimedean_witness([Polynomial.one(n) - x ** 2]) == 1
    assert archimedean_witness([Polynomial.constant(8.0, n) - 2.0 * x ** 2]) == 4
    assert archimedean_witness([x ** 2 - Polynomial.one(n)]) is None
    assert archimedean_witness([Polynomial.one(n) - x]) is None


def test_archimedean_witness_reads_only_generators_with_n_plus_one_terms():
    n = 7
    xs = [_x(i, n) for i in range(n)]
    squares = sum((x ** 2 for x in xs), Polynomial.zero(n))
    ball = Polynomial.constant(9.0, n) - 2.0 * squares
    # A chaser-like generator with more terms, then the ball over all seven
    # variables: the first is passed over, the ball is recognised.
    chaser = xs[0] ** 2 + xs[1] ** 2 + 4.0 * xs[2] ** 2 - Polynomial.one(n) + xs[3]
    assert archimedean_witness([chaser, ball]) == 5
    # n + 1 terms, but one is not a square: not a ball.
    crossed = ball + 2.0 * xs[6] ** 2 - xs[5] * xs[6]
    assert len(crossed.terms) == n + 1
    assert archimedean_witness([crossed]) is None
    # A ball over some of the variables leaves the region unbounded in the others.
    partial = Polynomial.one(n) - xs[0] ** 2 - xs[1] ** 2
    assert archimedean_witness([partial, chaser]) is None


def test_multi_without_compactness_generator_warns():
    sys = single_integrator(1)
    x = _x(0, 1)
    cands = [cand(x ** 2 - Polynomial.constant(4.0, 1), sys),
             cand(x ** 2 - Polynomial.constant(9.0, 1), sys)]
    out = verify_multi(sys, cands)
    assert any("compactness" in w for w in out.warnings)
    out2 = verify_multi(sys, cands, VerifierOptions(archimedean_C=16))
    assert not any("compactness" in w for w in out2.warnings)


def test_multi_with_native_witness_does_not_warn():
    sys = single_integrator(1)
    x = _x(0, 1)
    cands = [cand(Polynomial.one(1) - x ** 2, sys),
             cand(x ** 2 - Polynomial.constant(0.25, 1), sys)]
    out = verify_multi(sys, cands)
    assert not any("compactness" in w for w in out.warnings)


# -- sign symmetry and reduction -------------------------------------------------


def test_sign_symmetry_kernel_even_poly():
    n = 2
    sign_class = sign_classes([_x(0, n) ** 2 + _x(1, n) ** 2])
    # Both single-variable flips fix an even polynomial, so x0, x1 and x0*x1
    # change sign under different flips, while x0^2 changes under none.
    classes = [sign_class(mo) for mo in [(1, 0), (0, 1), (1, 1)]]
    assert len(set(classes)) == 3 and 0 not in classes
    assert sign_class((2, 0)) == 0


def test_sign_symmetry_kernel_cross_term():
    n = 2
    sign_class = sign_classes([_x(0, n) * _x(1, n)])
    # Only the joint flip of x0 and x1 fixes x0*x1.
    assert sign_class((1, 1)) == 0
    assert sign_class((1, 0)) != 0
    assert sign_class((1, 0)) == sign_class((0, 1))


def test_sign_symmetry_kernel_odd_poly_trivial():
    n = 1
    sign_class = sign_classes([_x(0, n)])
    # No flip fixes x0, so nothing is pruned.
    assert sign_class((1,)) == sign_class((0,)) == 0


def test_sign_classes_match_brute_force_flips():
    # Two monomials share a class exactly when every sign flip fixing the
    # data changes both signs or neither; class 0 when it changes neither.
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        polys = [Polynomial({tuple(int(e) for e in rng.integers(0, 4, size=n)): 1.0
                             for _ in range(int(rng.integers(1, 4)))}, n)
                 for _ in range(int(rng.integers(1, 3)))]

        def flips(mono):
            # Entry w is 1 when the flip pattern w changes mono's sign.
            return [sum(e for i, e in enumerate(mono) if (w >> i) & 1) & 1 for w in range(2 ** n)]

        fixing = [w for w in range(2 ** n)
                  if not any(flips(mo)[w] for p in polys for mo in p.terms)]
        sign_class = sign_classes(polys)
        monos = monomial_basis(n, 2)
        signature = {mo: tuple(flips(mo)[w] for w in fixing) for mo in monos}
        for mo in monos:
            assert (sign_class(mo) == 0) == (not any(signature[mo]))
            for other in monos:
                assert (sign_class(mo) == sign_class(other)) == (signature[mo] == signature[other])


def test_reduction_preserves_single_verdict():
    """Support restriction plus symmetry pruning keeps every scheduled program's status."""
    rng = np.random.default_rng(11)
    n = 2
    mono2 = monomial_basis(n, 2)
    programs = 0
    for trial in range(12):
        coefs = rng.integers(-2, 3, size=len(mono2)).astype(float)
        b = Polynomial({m: c for m, c in zip(mono2, coefs) if c != 0.0}, n)
        if b.is_zero():
            continue
        f = PolyMatrix([[Polynomial.constant(float(rng.integers(-1, 2)), n)]
                        for _ in range(n)])
        g = PolyMatrix([[Polynomial.constant(float(rng.integers(0, 2)), n)]
                        for _ in range(n)])
        sys = ControlAffineSystem(f=f, g=g)
        c = cand(b, sys)
        ring = support_ring(c)
        for a, ds, dp in _resolved_single_schedule(ring, VerifierOptions()):
            full, _ = full_ring_single_lp(c, a, ds, dp)
            red, _ = assemble_single_lp(ring, a, ds, dp)
            st_f = solve_feasibility(full).status
            st_r = solve_feasibility(red).status
            assert st_f == st_r, "trial %d a=%d: %s vs %s" % (trial, a, st_f, st_r)
            programs += 1
    assert programs == 24


def test_reduction_preserves_emptiness_status():
    rng = np.random.default_rng(23)
    sys = single_integrator(2)
    n = 2
    mono2 = monomial_basis(n, 2)
    for trial in range(10):
        cands = []
        for _ in range(2):
            coefs = rng.integers(-2, 3, size=len(mono2)).astype(float)
            b = Polynomial({m: c for m, c in zip(mono2, coefs) if c != 0.0}, n)
            if b.is_zero():
                b = Polynomial.one(n)
            cands.append(cand(b, sys))
        for ds in (0, 1):
            lp_f, _ = full_ring_emptiness_lp(cands, ds)
            lp_r, _ = assemble_emptiness_lp(cands, ds)
            st_f = solve_feasibility(lp_f).status
            st_r = solve_feasibility(lp_r).status
            assert st_f == st_r, "trial %d deg %d" % (trial, ds)


def test_reduced_assembly_is_smaller():
    sys = single_integrator(3)
    n = 3
    # b touches only the first variable; the other two are inert.
    b = Polynomial.one(n) - _x(0, n) ** 2
    c = cand(b, sys)
    _, full = full_ring_single_lp(c, a=0, deg_s=1, deg_p=1)
    _, red = assemble_single_lp(c, a=0, deg_s=1, deg_p=1)
    assert red.nvars < full.nvars
    assert len(red.gram_basis) < len(full.gram_basis)


# -- support ring and relabelling classes -------------------------------------------


def fleet(params):
    sys = build_cw_system(params)
    return sys, [build_inspection_cbf(params, i, sys) for i in range(params.L)]


def counting_solves(monkeypatch):
    import barrierlp.verifier as verifier

    calls = []

    def counting(lp, **kw):
        calls.append((lp.nrows, lp.nvars))
        return solve_feasibility(lp, **kw)

    monkeypatch.setattr(verifier, "solve_feasibility", counting)
    return calls


def test_support_ring_program_is_the_full_ring_program():
    """Projection keeps grlex order: the same LP text, over 6-tuples instead of 18-tuples."""
    sys, cands = fleet(CwParams(L=3))
    for i, c in enumerate(cands):
        ring = support_ring(c)
        assert ring.variables == tuple(range(6 * i, 6 * i + 6))
        assert ring.channels == (3 * i, 3 * i + 1, 3 * i + 2)
        ds = default_deg_s(c.b)
        for a in (0, 1):
            dp = default_deg_p(c, a, ds)
            assert dp == default_deg_p(ring, a, ds)
            full, _ = assemble_single_lp(c, a, ds, dp)
            small, layout = assemble_single_lp(ring, a, ds, dp)
            assert export_lp_text(small) == export_lp_text(full)
            assert all(len(mo) == 6 for mo in layout.gram_basis)
    keys = {support_ring(c).key for c in cands}
    assert len(keys) == 1


def _projected_key(c, ring):
    """The class key of c's full-ring data with the dropped variables and channels cut out."""
    def project(p):
        return tuple((tuple(mo[v] for v in ring.variables), coef) for mo, coef in p.terms.items())

    lgb = c.lgb.entry_list()
    return ((len(ring.variables), project(c.b), project(c.lfb))
            + tuple(project(lgb[j]) for j in ring.channels))


def test_ring_derivatives_are_the_projected_full_ring_ones():
    """The ring's Lfb and Lgb are the full-ring ones, term for term, in term order."""
    sys, cands = fleet(CwParams(L=3))
    for c in cands:
        ring = support_ring(c)
        assert ring.b.nvars == 6 and (ring.lgb.rows, ring.lgb.cols) == (1, 3)
        assert ring.key == _projected_key(c, ring)
    # b = x1 + x2 under f = [y, -y, 0]: Lfb = y - y cancels, so y is dropped
    # although the drift rows of x1 and x2 contain it.
    n = 3
    zero, one = Polynomial.zero(n), Polynomial.one(n)
    y = _x(2, n)
    sys = ControlAffineSystem(f=PolyMatrix([[y], [-y], [zero]]),
                              g=PolyMatrix([[one], [zero], [zero]]))
    c = cand(_x(0, n) + _x(1, n), sys)
    assert c.lfb.is_zero()
    ring = support_ring(c)
    assert ring.variables == (0, 1) and ring.channels == (0,)
    assert ring.b.nvars == 2 and ring.lfb.is_zero()
    assert ring.key == _projected_key(c, ring)


def test_relabelled_candidates_solve_each_program_once(monkeypatch):
    import barrierlp.verifier as verifier

    sys, cands = fleet(CwParams(L=3))
    calls = counting_solves(monkeypatch)
    out = verify_multi(sys, cands)
    assert out.verdict is Verdict.MULTI_VERIFIED
    assert len(calls) == 3  # two emptiness degrees, then a=1 once; a=0 is ruled out exactly
    assert all([r.reused for r in so.lps] == [i > 0] for i, so in enumerate(out.singles))
    # The full schedules, with nothing refuted, share the a=0 program as well.
    monkeypatch.setattr(verifier, "refute", lambda *args: None)
    calls.clear()
    out = verify_multi(sys, cands)
    assert out.verdict is Verdict.MULTI_VERIFIED
    assert len(calls) == 4  # two emptiness degrees, then a=0 and a=1 once
    first, *rest = out.singles
    assert [r.reused for r in first.lps] == [False, False]
    assert all(r.assemble_s > 0.0 and r.seconds > 0.0 for r in first.lps)
    for so in rest:
        assert [r.reused for r in so.lps] == [True, True]
        for mine, solved in zip(so.lps, first.lps):
            assert mine.seconds == 0.0 and mine.assemble_s == 0.0
            assert (mine.status, mine.rows, mine.cols, mine.iterations, mine.exit,
                    mine.farkas_valid) == (solved.status, solved.rows, solved.cols,
                                           solved.iterations, solved.exit, solved.farkas_valid)
    # Nothing is kept between calls.
    verify_multi(sys, cands)
    assert len(calls) == 8


def test_every_reused_certificate_holds_in_its_own_ring():
    sys, cands = fleet(CwParams(L=3))
    out = verify_multi(sys, cands)
    for i, (so, c) in enumerate(zip(out.singles, cands)):
        cert = so.certificate
        assert so.verdict is Verdict.VERIFIED
        assert cert.grams_diagonally_dominant()
        assert certificate_residual(cert, sys, c) <= 1e-6
        # The Gram bases and multipliers sit on candidate i's own block.
        block = set(range(6 * i, 6 * i + 6))
        assert all(set(v for v, e in enumerate(mo) if e) <= block
                   for basis in cert.gram_bases for mo in basis)
        live = [j for j, q in enumerate(cert.p1) if not q.is_zero()]
        assert set(live) <= {3 * i, 3 * i + 1, 3 * i + 2}


def test_each_point_is_built_once_and_every_chaser_gates_its_own(monkeypatch):
    import barrierlp.verifier as verifier

    sys, cands = fleet(CwParams(L=3))
    built, residuals = [], []
    real_point, real_residual = verifier._ring_point, verifier.certificate_residual

    def ring_point(layout, z):
        built.append(z)
        return real_point(layout, z)

    def residual(cert, sys_, cand_or_cands):
        if cert.kind == "single":
            residuals.append((cert, sys_, cand_or_cands))
        return real_residual(cert, sys_, cand_or_cands)

    monkeypatch.setattr(verifier, "_ring_point", ring_point)
    monkeypatch.setattr(verifier, "certificate_residual", residual)
    out = verify_multi(sys, cands)
    assert out.verdict is Verdict.MULTI_VERIFIED
    assert len(built) == 1  # the a=1 program, solved once; a=0 is ruled out exactly
    assert [c for _, _, c in residuals] == list(cands)
    assert all(s is c.sys and cert is so.certificate
               for (cert, s, c), so in zip(residuals, out.singles))
    # Each chaser holds its own Grams, equal to the bit.
    grams = [so.certificate.grams for so in out.singles]
    for mine in grams[1:]:
        assert all(Q is not R and Q.tobytes() == R.tobytes() for Q, R in zip(mine, grams[0]))


def test_distinct_classes_solve_separately(monkeypatch):
    sys, cands = fleet(CwParams(L=2, masses=(2.0, 3.0)))
    assert support_ring(cands[0]).key != support_ring(cands[1]).key
    calls = counting_solves(monkeypatch)
    out = verify_multi(sys, cands)
    singles = [r for so in out.singles for r in so.lps]
    assert not any(r.reused for r in singles)
    assert len(calls) == len(out.lps) + len(singles)


def test_class_key_separates_candidates_that_differ_only_in_drift():
    """1 - x^2 and 1 - y^2 project to the same b and Lgb, but y drifts and x does not."""
    n = 2
    zero, one = Polynomial.zero(n), Polynomial.one(n)
    sys = ControlAffineSystem(f=PolyMatrix([[zero], [_x(1, n)]]),
                              g=PolyMatrix([[one, zero], [zero, one]]))
    cands = [cand(one - _x(0, n) ** 2, sys), cand(one - _x(1, n) ** 2, sys)]
    rings = [support_ring(c) for c in cands]
    assert rings[0].b == rings[1].b and rings[0].lgb == rings[1].lgb
    assert rings[0].key != rings[1].key
    joint = verify_multi(sys, cands)
    for so, c in zip(joint.singles, cands):
        alone = verify_single(sys, c)
        assert so.verdict is alone.verdict
        assert [(r.status, r.iterations, r.reused) for r in so.lps] == \
            [(r.status, r.iterations, False) for r in alone.lps]


def test_failed_regate_leaves_the_class_member_inconclusive(monkeypatch):
    import barrierlp.verifier as verifier

    sys, cands = fleet(CwParams(L=3))
    real = verifier.certificate_residual

    def residual(cert, sys_, cand_or_cands):
        if cand_or_cands is cands[1]:
            return 1.0
        return real(cert, sys_, cand_or_cands)

    monkeypatch.setattr(verifier, "certificate_residual", residual)
    out = verify_multi(sys, cands)
    # Candidate 1 fixes the verdict, so candidate 2 is never run.
    assert [so.verdict for so in out.singles] == [Verdict.VERIFIED, Verdict.INCONCLUSIVE]
    assert out.skipped == [2]
    assert out.singles[1].certificate is None
    assert any("failed the certificate gate" in w for w in out.singles[1].warnings)
    assert out.verdict is Verdict.MULTI_INCONCLUSIVE
    assert any(w.startswith("candidate 1: ") for w in out.warnings)


# -- early stop of a joint run ------------------------------------------------------


def _joint_problems():
    """The joint documents among the first 30 of the corpus, then fleet L = 1..3."""
    from test_assembly import corpus_documents  # test_assembly imports this module

    for doc in corpus_documents(30):
        spec = load_problem(doc)
        if len(spec.candidates) > 1:
            yield spec.system, spec.candidates, spec.options
    for L in (1, 2, 3):
        yield (*fleet(CwParams(L=L)), VerifierOptions())


def _full_joint_verdict(emptiness, alone):
    """The joint verdict from the emptiness sweep and every candidate run on its own."""
    if emptiness.verdict is Verdict.EMPTINESS_CERTIFIED:
        return Verdict.EMPTINESS_CERTIFIED
    if (all(so.verdict is Verdict.VERIFIED for so in alone)
            and all(r.farkas_valid is True for r in emptiness.lps)):
        return Verdict.MULTI_VERIFIED
    return Verdict.MULTI_INCONCLUSIVE


def test_early_stop_keeps_the_verdict_of_running_every_candidate():
    seen = []
    for sys, cands, opts in _joint_problems():
        out = verify_multi(sys, cands, opts)
        alone = [verify_single(sys, c, opts) for c in cands]
        assert out.verdict is _full_joint_verdict(check_emptiness(cands, opts), alone)
        assert out.skipped == list(range(len(out.singles), len(cands)))
        for joint, own in zip(out.singles, alone):
            assert joint.verdict is own.verdict
            assert [(r.status, r.iterations, r.exit, r.farkas_valid) for r in joint.lps] == \
                [(r.status, r.iterations, r.exit, r.farkas_valid) for r in own.lps]
        seen.append((out.verdict, len(out.singles), len(out.skipped)))
    # Both stops happen: before any candidate, and after a failed one.
    assert any(v is Verdict.EMPTINESS_CERTIFIED and ran == 0 for v, ran, _ in seen)
    assert any(v is Verdict.MULTI_INCONCLUSIVE and ran and skipped for v, ran, skipped in seen)
    assert any(v is Verdict.MULTI_VERIFIED and not skipped for v, _, skipped in seen)


def test_failing_first_candidate_solves_no_program_of_a_later_one(monkeypatch):
    n = 1
    sys = ControlAffineSystem(f=PolyMatrix([[Polynomial.constant(-1.0, n)]]),
                              g=PolyMatrix([[Polynomial.zero(n)]]))
    bad, good = cand(_x(0, n), sys), cand(_x(0, n) ** 2 + Polynomial.one(n), sys)
    calls = counting_solves(monkeypatch)
    out = verify_multi(sys, [bad, good])
    assert out.verdict is Verdict.MULTI_INCONCLUSIVE
    assert all(r.farkas_valid is True for r in out.lps)
    assert [so.verdict for so in out.singles] == [Verdict.INCONCLUSIVE]
    assert out.skipped == [1]
    assert len(calls) == len(out.lps) + len(out.singles[0].lps)


# -- schedules and options --------------------------------------------------------


def test_default_deg_p_balances_fixed_term():
    n = 1
    f = PolyMatrix([[_x(0, n) ** 2]])
    g = PolyMatrix([[Polynomial.one(n)]])
    sys = ControlAffineSystem(f=f, g=g)
    b = Polynomial.one(n) - _x(0, n) ** 2
    c = cand(b, sys)
    # lfb = -2x * x^2 = -2x^3 (degree 3), generators have dgmin = 1 (lgb = -2x).
    assert c.lfb.degree() == 3
    assert default_deg_p(c, a=1, deg_s=1) == max(1, 2 - 1, 3 - 1)
    assert default_deg_p(c, a=0, deg_s=2) == max(2, 4 - 1)


def test_degree_balance_warning(caplog):
    n = 1
    f = PolyMatrix([[_x(0, n) ** 2]])
    g = PolyMatrix([[Polynomial.zero(n)]])
    sys = ControlAffineSystem(f=f, g=g)
    b = _x(0, n)
    c = cand(b, sys)
    # Fixed term degree 2a*deg(lfb) = 12 cannot be reached with deg_p = 0.
    with caplog.at_level(logging.WARNING, logger="barrierlp.verifier"):
        lp, _ = assemble_single_lp(c, a=2, deg_s=1, deg_p=0)
    assert any("cannot" in r.message or "exceeds" in r.message for r in caplog.records)
    assert solve_feasibility(lp).status is LpStatus.INFEASIBLE


def test_options_validation():
    with pytest.raises(ValueError):
        VerifierOptions(a_values=())
    with pytest.raises(ValueError):
        VerifierOptions(a_values=(1, 0))
    with pytest.raises(ValueError):
        VerifierOptions(deg_s=[2, 1])
    with pytest.raises(ValueError):
        VerifierOptions(deg_s=[1, 2], deg_p=[1])
    with pytest.raises(ValueError):
        VerifierOptions(archimedean_C=0)
    with pytest.raises(ValueError):
        VerifierOptions(max_iters=-5)
    assert VerifierOptions(max_iters=0).max_iters == 0


@pytest.mark.parametrize("kwargs, message", [
    ({"max_iters": None}, "max_iters: expected an integer"),
    ({"max_iters": 2.0}, "max_iters: expected an integer"),
    ({"max_iters": -1}, "max_iters: must be at least 0"),
    ({"max_iters": True}, "max_iters: expected an integer"),
    ({"archimedean_C": True}, "archimedean_C: expected an integer"),
    ({"archimedean_C": 0}, "archimedean_C: must be at least 1"),
    ({"a_values": None}, "a_values: expected a list"),
    ({"a_values": (0.5,)}, "a_values[0]: expected an integer"),
    ({"a_values": (0, -1)}, "a_values[1]: must be non-negative"),
    ({"deg_s": [True]}, "deg_s[0]: expected an integer"),
    ({"deg_s": [1.5]}, "deg_s[0]: expected an integer"),
    ({"deg_s": 2}, "deg_s: expected a list"),
    ({"deg_s": []}, "deg_s: must be non-empty"),
    ({"deg_s": [2, 1]}, "deg_s: must be non-decreasing"),
    ({"emptiness_deg_s": (0.5,)}, "emptiness_deg_s[0]: expected an integer"),
    ({"deg_p": [1, 2]}, "deg_p: expected one entry per deg_s entry"),
    ({"deg_s": [1, 2], "deg_p": [1]}, "deg_p: expected one entry per deg_s entry"),
    ({"archimedean_C": 10 ** 400}, "archimedean_C: too large for a float"),
])
def test_options_reject_every_bad_value_with_its_path(kwargs, message):
    with pytest.raises(ValueError) as err:
        VerifierOptions(**kwargs)
    assert str(err.value).startswith(message)


def test_options_are_frozen_and_store_schedules_as_tuples():
    opts = VerifierOptions(a_values=[0], deg_s=[1, 2], deg_p=[1, 2], emptiness_deg_s=[0])
    assert (opts.a_values, opts.deg_s, opts.deg_p, opts.emptiness_deg_s) == ((0,), (1, 2), (1, 2), (0,))
    assert opts == VerifierOptions(a_values=(0,), deg_s=(1, 2), deg_p=(1, 2), emptiness_deg_s=(0,))
    assert VerifierOptions(deg_p=[3]).deg_p == (3,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.max_iters = 5


def test_explicit_schedule_is_respected():
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    opts = VerifierOptions(a_values=(0,), deg_s=[1, 2], deg_p=[1, 2])
    out = verify_single(sys, cand(b, sys), opts)
    assert out.verdict is Verdict.VERIFIED
    assert out.schedule["entries"][0] == [0, 1, 1]


def test_candidate_carries_its_system():
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    c = CandidateCbf(b, sys)
    assert c == CandidateCbf.from_system(b, sys)
    assert c.lfb == lie_derivative_drift(b, sys.f) and c.lgb == lie_derivative_input(b, sys.g)
    # The Lie derivatives are derived, never passed in.
    for derived in ("lfb", "lgb"):
        with pytest.raises(TypeError):
            CandidateCbf(b=b, sys=sys, **{derived: getattr(c, derived)})
    with pytest.raises(ValueError, match="variables"):
        CandidateCbf(Polynomial.one(2), sys)
    # An equal system built separately is the same system.
    assert verify_single(single_integrator(1), c).verdict is Verdict.VERIFIED
    # Same b, changed drift: built for another system.
    other = cand(b, ControlAffineSystem(f=PolyMatrix([[_x(0, 1)]]), g=sys.g))
    with pytest.raises(ValueError, match="another system"):
        verify_single(sys, other)
    with pytest.raises(ValueError, match="another system"):
        verify_multi(sys, [c, other])


def test_lie_derivatives_derived_once_per_candidate(monkeypatch):
    """A candidate derives its Lie derivatives exactly when it is built; verification,
    the exact refutation included, derives none."""
    import barrierlp.polyring as polyring

    sys, cands = fleet(CwParams(L=3))
    sums = []
    chain = polyring._chain

    def counted(grads, field):
        sums.append(len(field))
        return chain(grads, field)

    monkeypatch.setattr(polyring, "_chain", counted)
    out = verify_multi(sys, cands)
    assert out.verdict is Verdict.MULTI_VERIFIED
    assert all(so.counterexample is not None for so in out.singles)  # each read the exact forms
    assert sums == []
    # One chain-rule sum for Lfb and one per input channel.
    sys, (lone,) = fleet(CwParams(L=1))
    assert sums == [6] * 4
    assert lone.lfb == lie_derivative_drift(lone.b, sys.f)
    sums.clear()
    # A lone chaser uses every variable and channel: its ring holds its own polynomials.
    ring = support_ring(lone)
    assert ring.b is lone.b and ring.lfb is lone.lfb and ring.lgb is lone.lgb
    verify_single(sys, lone)
    assert sums == []


def test_joint_run_compares_each_system_object_once(monkeypatch):
    params = CwParams(L=3)
    _, cands = fleet(params)
    calls = []
    eq = ControlAffineSystem.__eq__

    def counted(self, other):
        if self is not other:
            calls.append(other)
        return eq(self, other)

    monkeypatch.setattr(ControlAffineSystem, "__eq__", counted)
    # Three candidates share one system, equal to the one passed but built apart.
    assert verify_multi(build_cw_system(params), cands).verdict is Verdict.MULTI_VERIFIED
    assert len(calls) == 1


def test_emptiness_sweep_builds_its_bases_once(monkeypatch):
    import barrierlp.verifier as verifier

    calls = []
    classes = verifier.sign_classes
    monkeypatch.setattr(verifier, "sign_classes",
                        lambda polys: calls.append(len(polys)) or classes(polys))
    _, cands = fleet(CwParams(L=2))
    for opts, generators in [(VerifierOptions(emptiness_deg_s=[0, 1]), 2),
                             (VerifierOptions(emptiness_deg_s=[0, 1], archimedean_C=4), 3)]:
        calls.clear()
        rungs = verifier._emptiness_rungs(cands, opts)
        programs = [export_lp_text(rung.assemble()[0]) for rung in rungs]
        assert calls == [generators]
        # Each degree's program is the one assembled on its own.
        assert programs == [export_lp_text(assemble_emptiness_lp(cands, d, opts.archimedean_C)[0])
                            for d in (0, 1)]


def test_system_shape_validation():
    zero = Polynomial.zero(2)
    with pytest.raises(ValueError):
        ControlAffineSystem(f=PolyMatrix([[zero]]), g=PolyMatrix([[zero], [zero]]))


# -- Farkas gate -------------------------------------------------------------------


def test_farkas_gate_rejects_negative_inequality_multiplier():
    lp = LpProblem(1)
    lp.add_ub({0: 1.0}, 1.0)
    out = LpOutcome(status=LpStatus.INFEASIBLE,
                    farkas=FarkasCertificate(eq_mults=[], ub_mults=[-1.0]))
    assert _farkas_acceptable(lp, out) is False
    # A certificate of the wrong shape is a programming error, not a weak proof.
    out.farkas = FarkasCertificate(eq_mults=[], ub_mults=[1.0, 1.0])
    with pytest.raises(ValueError):
        _farkas_acceptable(lp, out)


# -- the schedule runner -------------------------------------------------------------


def test_failed_single_refutation_is_warned(monkeypatch):
    """A single program whose Farkas certificate fails revalidation says so in the report."""
    import barrierlp.verifier as verifier

    # One chaser: the a=0 program is refuted, the a=1 one certifies. The full
    # schedule runs: with refute finding nothing, a=0 is not skipped.
    sys, cands = fleet(CwParams(L=1))
    monkeypatch.setattr(verifier, "refute", lambda *args: None)
    monkeypatch.setattr(verifier, "_farkas_acceptable", lambda lp, out: False)
    out = verify_single(sys, cands[0])
    assert out.verdict is Verdict.VERIFIED and out.counterexample is None
    assert [(r.status, r.farkas_valid) for r in out.lps] == [("Infeasible", False),
                                                             ("Feasible", None)]
    assert out.warnings == ["%s: infeasibility certificate failed revalidation" % out.lps[0].name]
    report = json.loads(write_report(out, deterministic=True))
    assert report["warnings"] == out.warnings


def test_repeated_emptiness_degree_is_solved_once(monkeypatch):
    spec = load_problem(overlapping_pair_doc())
    calls = counting_solves(monkeypatch)
    out = check_emptiness(spec.candidates, VerifierOptions(emptiness_deg_s=(1, 1)))
    assert len(calls) == 1
    assert [r.reused for r in out.lps] == [False, True]
    first, again = out.lps
    assert (again.seconds, again.assemble_s) == (0.0, 0.0)
    assert dataclasses.replace(again, gate_s=first.gate_s, seconds=first.seconds,
                               assemble_s=first.assemble_s, reused=False) == first
    assert out.schedule["emptiness_deg_s"] == [1, 1]


@pytest.mark.parametrize("doc", [overlapping_pair_doc(), disjoint_pair_doc(),
                                 problem_document(*fleet(CwParams(L=2)))])
def test_joint_emptiness_records_are_check_emptiness_records(doc):
    spec = load_problem(doc)
    untimed = lambda records: [dataclasses.replace(r, **{t: 0.0 for t in LP_TIMINGS})
                               for r in records]
    joint = verify_multi(spec.system, spec.candidates)
    alone = check_emptiness(spec.candidates)
    assert joint.lps and untimed(joint.lps) == untimed(alone.lps)


def test_certificate_residual_checks_the_system():
    ode = ControlAffineSystem(f=PolyMatrix([[_x(0, 1)]]), g=PolyMatrix([[Polynomial.zero(1)]]))
    sys = single_integrator(1)
    x = _x(0, 1)
    c = cand(Polynomial.one(1) - x ** 2, sys)
    single = verify_single(sys, c).certificate
    with pytest.raises(ValueError, match="candidate was built for another system"):
        verify_single(ode, c)
    with pytest.raises(ValueError, match="candidate was built for another system"):
        certificate_residual(single, ode, c)
    assert certificate_residual(single, sys, c) == certificate_residual(single, None, c) <= 1e-6

    cands = [c, cand(x ** 2 - Polynomial.constant(4.0, 1), sys)]
    empty = check_emptiness(cands).certificate
    with pytest.raises(ValueError, match="candidate was built for another system"):
        certificate_residual(empty, ode, cands)
    # Every candidate is checked, not only the first.
    mixed = [c, cand(x ** 2 - Polynomial.constant(4.0, 1), ode)]
    with pytest.raises(ValueError, match="candidate was built for another system"):
        certificate_residual(empty, sys, mixed)
    assert certificate_residual(empty, sys, cands) == certificate_residual(empty, None, cands) <= 1e-6


# -- determinism -------------------------------------------------------------------


def test_verify_single_deterministic():
    sys = single_integrator(1)
    b = Polynomial.one(1) - _x(0, 1) ** 2
    a = verify_single(sys, cand(b, sys))
    b_out = verify_single(sys, cand(b, sys))
    assert [(r.name, r.status, r.iterations) for r in a.lps] == \
        [(r.name, r.status, r.iterations) for r in b_out.lps]
    for qa, qb in zip(a.certificate.grams, b_out.certificate.grams):
        assert np.array_equal(qa, qb)


# Digests of export_lp_text for the flagship programs, keyed (family, degree,
# reduced): the program's own reduced assembly, or the full-ring reference of
# tests/_oracles.py. Any change to a row, a column order or a coefficient
# changes them; re-record them only for a deliberate change to the programs.
PINNED_LP_DIGESTS = {
    ("single", 0, True): "1d2f4936c9a73dedacbc7e892e0231c0c03a112c7d9e34562ccb27808ade0bda",
    ("single", 1, True): "4143f0a0b952cae07a5550d4d3c244fe59ef0f62ce27f2314c4078e228ef5492",
    ("emptiness", 0, True): "967a5b411bc012d28815eda6bd24cc1f80122fe9d447baa10d1d75c72497f8f2",
    ("emptiness", 1, True): "810cf9bbde918a9255ddebc10d9f9869b6cb1078427da075777a7175f3eb0419",
    # The reduction leaves these three programs as they are: their data has no
    # inert variable and no sign symmetry that prunes a pair.
    ("single", 0, False): "1d2f4936c9a73dedacbc7e892e0231c0c03a112c7d9e34562ccb27808ade0bda",
    ("single", 1, False): "4143f0a0b952cae07a5550d4d3c244fe59ef0f62ce27f2314c4078e228ef5492",
    ("emptiness", 0, False): "967a5b411bc012d28815eda6bd24cc1f80122fe9d447baa10d1d75c72497f8f2",
    ("emptiness", 1, False): "3a6ea12c02e03e27757d746f3f22013556bf1c77b3c7935324624e7e66a26db4",
    # One-chaser inspection single program (367 x 154). Its Lfb is nonzero, so
    # mul_fixed(h1, Lfb) sums several products into one column: this pins the
    # order of those additions.
    ("satellite", 0, True): "2d0f8c7ebb06fd5af29013093b46d0a04b86e62baef18738450b0f2636338dd3",
    ("satellite", 1, True): "ae1109947de947312bf1a636a4d3dc44736994438bfac4f9002d03ac86c2c47e",
}


def flagship_program(family, degree, reduced):
    """(lp, layout, candidate assembled, or None for emptiness) of a pinned program.

    Single 1 - x^2 at a = degree; emptiness of {1 - x^2, x^2 - 1/4} at
    deg_s = degree; the satellite single program of CwParams(L=1) at a = degree.
    """
    sys = single_integrator(1)
    x = _x(0, 1)
    disc = cand(Polynomial.one(1) - x ** 2, sys)
    if family == "satellite":
        params = CwParams(L=1)
        sys = build_cw_system(params)
        sat = build_inspection_cbf(params, 0, sys)
        ds = default_deg_s(sat.b)
        lp, layout = assemble_single_lp(sat, a=degree, deg_s=ds,
                                        deg_p=default_deg_p(sat, degree, ds))
        assert (lp.nrows, lp.nvars) == (367, 154)
        return lp, layout, sat
    if family == "single":
        assemble = assemble_single_lp if reduced else full_ring_single_lp
        lp, layout = assemble(disc, a=degree, deg_s=1, deg_p=default_deg_p(disc, degree, 1))
        return lp, layout, disc
    ring = cand(x ** 2 - Polynomial.constant(0.25, 1), sys)
    assemble = assemble_emptiness_lp if reduced else full_ring_emptiness_lp
    lp, layout = assemble([disc, ring], degree)
    return lp, layout, None


@pytest.mark.parametrize("family,degree,reduced", sorted(PINNED_LP_DIGESTS))
def test_flagship_lp_text_is_pinned(family, degree, reduced):
    lp, _, _ = flagship_program(family, degree, reduced)
    digest = hashlib.sha256(export_lp_text(lp).encode()).hexdigest()
    assert digest == PINNED_LP_DIGESTS[(family, degree, reduced)]
