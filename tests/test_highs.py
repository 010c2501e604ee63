"""Differential test of gated simplex answers against HiGHS (scipy, tests only).

Every program a verification solves is handed to HiGHS as well. An
Infeasible record whose Farkas certificate passed the gate must be
infeasible for HiGHS (status 2), and a feasible point that passed the
certificate gate must come from a program HiGHS finds feasible (status 0).
The random systems built for presolve's sign rules are compared the same way.
"""

import random

import numpy as np
import pytest

from barrierlp import verifier
from barrierlp.lpsolve import LpStatus, solve_feasibility
from barrierlp.satbench import CwParams, build_cw_system, build_inspection_cbf
from barrierlp.specio import load_problem

optimize = pytest.importorskip("scipy.optimize")

HIGHS_FEASIBLE, HIGHS_INFEASIBLE = 0, 2


def highs_status(lp):
    """linprog status of the zero-objective program over free variables."""
    def dense(rows):
        A = np.zeros((len(rows), lp.nvars))
        for r, (coefs, _) in enumerate(rows):
            for i, c in coefs.items():
                A[r, i] = c
        return (A, np.array([rhs for _, rhs in rows])) if rows else (None, None)

    A_eq, b_eq = dense(lp.eq_rows)
    A_ub, b_ub = dense(lp.ub_rows)
    res = optimize.linprog(np.zeros(lp.nvars), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                           bounds=(None, None), method="highs")
    return res.status


def gated_answers(monkeypatch, run):
    """Run a verification and return (lp, record, certificate) of every program it solves.

    The certificate is one that passed the gate on the program's point, for
    any candidate that gated it, or None.
    """
    solved, certs = [], {}
    solve, gate = verifier._solve, verifier._gate

    def capture_solve(name, lp, *rest):
        record, out = solve(name, lp, *rest)
        solved.append((lp, record, out))
        return record, out

    def capture_gate(record, out, extract):
        cert, warning = gate(record, out, extract)
        if cert is not None:
            certs[id(out)] = cert
        return cert, warning

    with monkeypatch.context() as patch:
        patch.setattr(verifier, "_solve", capture_solve)
        patch.setattr(verifier, "_gate", capture_gate)
        run()
    return [(lp, record, certs.get(id(out))) for lp, record, out in solved]


def assert_agrees_with_highs(answers):
    """Check every gated answer; return (refutations, certificates) checked."""
    refuted = certified = 0
    for lp, record, cert in answers:
        if record.status == LpStatus.INFEASIBLE.value and record.farkas_valid:
            assert highs_status(lp) == HIGHS_INFEASIBLE, record
            refuted += 1
        elif cert is not None:
            assert highs_status(lp) == HIGHS_FEASIBLE, record
            certified += 1
    return refuted, certified


@pytest.mark.parametrize("params, expected", [
    # The one-chaser reference fleet: a=0 refuted, a=1 certified.
    (CwParams(L=1), [("Infeasible", True), ("Feasible", None)]),
    # The stall model (mass 3, thrust 0.75), the benchmark's densest a=0 program.
    (CwParams(L=1, masses=(3.0,), thrusts=(0.75,)), [("Infeasible", True), ("Feasible", None)]),
])
def test_satellite_programs_agree_with_highs(monkeypatch, params, expected):
    sys = build_cw_system(params)
    cand = build_inspection_cbf(params, 0, sys)
    # The full schedule: verify_single skips the a=0 rung, which an exact
    # witness rules out.
    opts = verifier.VerifierOptions()
    answers = gated_answers(
        monkeypatch, lambda: verifier._run_schedule(verifier._single_rungs(cand, opts), opts, {}))
    assert [(rec.status, rec.farkas_valid) for _, rec, _ in answers] == expected
    assert assert_agrees_with_highs(answers) == (1, 1)


def _poly_text(terms):
    """Signed sum of (coefficient, monomial) pairs in the problem grammar."""
    text = " ".join("%s %r%s" % ("-" if c < 0 else "+", abs(c), "*" + mono if mono else "")
                    for c, mono in terms)
    return text[2:] if text.startswith("+") else "-" + text[2:]


def _ellipsoid(rng, names):
    """r^2 - sum_i w_i (x_i - c_i)^2, positive inside the ellipsoid."""
    c = rng.uniform(-1.0, 1.0, len(names))
    w = rng.uniform(0.5, 2.0, len(names))
    terms = [(float(rng.uniform(0.2, 1.0) - w @ c ** 2), "")]
    terms += [(float(2 * wi * ci), x) for wi, ci, x in zip(w, c, names)]
    return _poly_text(terms + [(-float(wi), x + "^2") for wi, x in zip(w, names)])


def corpus_style_document(rng):
    """Two states, one input, quadratic drift, one or two ellipsoid candidates."""
    names = ["x", "y"]
    drift = [_poly_text([(round(float(rng.uniform(-1, 1)), 3), mono)
                         for mono in ("x", "y", ("x^2", "x*y", "y^2")[rng.integers(3)])])
             for _ in names]
    return {
        "schema": 1,
        "variables": names,
        "drift": drift,
        "input_matrix": [["%r" % round(float(rng.uniform(-1, 1)), 3)] for _ in names],
        "candidates": [_ellipsoid(rng, names) for _ in range(int(rng.integers(1, 3)))],
    }


def test_corpus_style_programs_agree_with_highs(monkeypatch):
    rng = np.random.default_rng(2212)
    refuted = certified = 0
    for _ in range(6):
        spec = load_problem(corpus_style_document(rng))
        if len(spec.candidates) == 1:
            run = lambda: verifier.verify_single(spec.system, spec.candidates[0], spec.options)
        else:
            run = lambda: verifier.verify_multi(spec.system, spec.candidates, spec.options)
        r, c = assert_agrees_with_highs(gated_answers(monkeypatch, run))
        refuted, certified = refuted + r, certified + c
    # Both kinds of gated answer occur among these documents.
    assert refuted > 0 and certified > 0


def test_sign_rule_programs_agree_with_highs():
    from test_lpsolve import sign_lp

    rng = random.Random(20261020)
    for trial in range(200):
        lp = sign_lp(rng)
        out = solve_feasibility(lp)
        assert out.status is not LpStatus.ITERATION_LIMIT, "trial %d" % trial
        expected = HIGHS_FEASIBLE if out.status is LpStatus.FEASIBLE else HIGHS_INFEASIBLE
        assert highs_status(lp) == expected, "trial %d" % trial
