"""Tests for the relative-orbit benchmark constructions."""

import numpy as np
import pytest

from barrierlp.polyring import (
    Polynomial,
    evaluate,
    lie_derivative_drift,
    lie_derivative_input,
)
from barrierlp.satbench import (
    CwParams,
    build_cw_system,
    build_inspection_cbf,
    run_benchmark,
)
from barrierlp.lpsolve import LpStatus, solve_feasibility, validate_farkas
from barrierlp.specio import REPORT_SCHEMA_VERSION
from barrierlp.verifier import (
    Verdict,
    VerifierOptions,
    _run_schedule,
    _single_rungs,
    assemble_emptiness_lp,
)


def test_params_defaults_and_validation():
    p = CwParams(L=2)
    assert p.masses == (2.0, 2.0)
    assert p.thrusts == (0.5, 0.5)
    assert p.R_t == 0.5
    with pytest.raises(ValueError):
        CwParams(L=0)
    with pytest.raises(ValueError):
        CwParams(L=2, masses=(2.0,))
    with pytest.raises(ValueError):
        CwParams(L=1, masses=(-2.0,))
    with pytest.raises(ValueError):
        CwParams(L=1, n_mean_motion=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CwParams(L=1, thrusts=(bad,))


def test_drift_row_for_xddot():
    p = CwParams(L=1)
    sys = build_cw_system(p)
    n = p.n_mean_motion
    expected = (2.0 * n) * Polynomial.variable(4, 6) + Polynomial.constant(3.0 * n ** 2, 6)
    assert sys.f[3, 0] == expected


def test_drift_at_origin():
    p = CwParams(L=2)
    sys = build_cw_system(p)
    origin = np.zeros(12)
    n = p.n_mean_motion
    values = [evaluate(sys.f[r, 0], origin) for r in range(12)]
    expected_block = [0.0, 0.0, 0.0, 3.0 * n ** 2, 0.0, 0.0]
    assert values == expected_block + expected_block


def test_input_matrix_structure():
    p = CwParams(L=3)
    sys = build_cw_system(p)
    nonzero = [(r, c) for r in range(18) for c in range(9)
               if not sys.g[r, c].is_zero()]
    assert len(nonzero) == 9  # 3L constant entries
    for r, c in nonzero:
        entry = sys.g[r, c]
        assert entry.degree() == 0
        assert entry.terms[(0,) * 18] == 1.0 / p.masses[c // 3]
        # thrust on chaser i's velocity rows only
        assert r == 6 * (c // 3) + 3 + (c % 3)


def test_candidate_coefficients():
    p = CwParams(L=2)
    sys = build_cw_system(p)
    c = build_inspection_cbf(p, 1, sys)
    b = c.b
    zero = (0,) * 12
    assert b.terms[zero] == -0.25
    for k in range(3):  # positions of chaser 1 start at variable 6
        mono = tuple(2 if j == 6 + k else 0 for j in range(12))
        assert b.terms[mono] == 1.0
    for k in range(3, 6):
        mono = tuple(2 if j == 6 + k else 0 for j in range(12))
        assert b.terms[mono] == 4.0  # m/T = 2/0.5
    # constant in the other chaser's variables
    assert all(v >= 6 for v in b.support_vars())


def test_candidate_boundary_values():
    p = CwParams(L=1)
    sys = build_cw_system(p)
    c = build_inspection_cbf(p, 0, sys)
    assert evaluate(c.b, np.zeros(6)) == -p.R_t ** 2
    boundary = np.array([p.R_t, 0, 0, 0, 0, 0])
    assert abs(evaluate(c.b, boundary)) < 1e-15


def test_candidate_caches_are_valid():
    p = CwParams(L=2)
    sys = build_cw_system(p)
    for i in range(2):
        c = build_inspection_cbf(p, i, sys)
        assert c.sys is sys
        assert c.lfb == lie_derivative_drift(c.b, sys.f)
        assert c.lgb == lie_derivative_input(c.b, sys.g)


def test_chaser_index_range():
    p = CwParams(L=1)
    with pytest.raises(IndexError):
        build_inspection_cbf(p, 1)
    with pytest.raises(IndexError):
        build_inspection_cbf(p, -1)


def test_input_derivative_matches_thrust_scaling():
    """Lgb for chaser i is (2 m/T) v / m = 2 v / T on its own channels."""
    p = CwParams(L=2)
    sys = build_cw_system(p)
    c = build_inspection_cbf(p, 0, sys)
    point = np.zeros(12)
    point[3:6] = [0.1, -0.2, 0.3]
    expected = 2.0 * point[3:6] / p.thrusts[0]
    got = [evaluate(c.lgb[0, j], point) for j in range(6)]
    assert np.allclose(got[:3], expected)
    assert got[3:] == [0.0, 0.0, 0.0]


def test_stationary_boundary_points_block_drift():
    """Where b = 0 with zero velocity, both Lgb and Lfb vanish.

    These are exactly the problem points for the certification: the drift
    derivative carries a velocity factor in every term, so no thrust is
    available and none is needed only if the identity handles them.
    """
    p = CwParams(L=1)
    sys = build_cw_system(p)
    c = build_inspection_cbf(p, 0, sys)
    rng = np.random.default_rng(5)
    for _ in range(10):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        point = np.concatenate([p.R_t * direction, np.zeros(3)])
        assert abs(evaluate(c.b, point)) < 1e-12
        assert all(abs(evaluate(c.lgb[0, j], point)) < 1e-12 for j in range(3))
        assert abs(evaluate(c.lfb, point)) < 1e-12


def test_benchmark_two_rows():
    report = run_benchmark(CwParams(L=1), L_max=2)
    assert report["schema"] == REPORT_SCHEMA_VERSION
    assert [row["L"] for row in report["rows"]] == [1, 2]
    assert report["rows"][0]["verdict"] == Verdict.VERIFIED.value
    assert report["rows"][1]["verdict"] == Verdict.MULTI_VERIFIED.value
    for row in report["rows"]:
        assert row["seconds"] > 0
        assert row["lp_rows"] > 0 and row["lp_cols"] > 0
        assert "schedule" in row


def test_benchmark_l1_exercises_only_single_programs():
    report = run_benchmark(CwParams(L=1), L_max=1)
    row = report["rows"][0]
    assert row["verdict"] == Verdict.VERIFIED.value
    # the resolved schedule shows only single-candidate entries, no emptiness
    assert "entries" in row["schedule"]
    assert "emptiness_deg_s" not in row["schedule"]
    # Pivot counts of the simplex on the reference one-chaser programs: an
    # exact witness rules out a=0, so the row holds a=1 alone, and the full
    # schedule refutes a=0 all the same.
    assert [(lp["name"].split()[1], lp["status"], lp["iterations"]) for lp in row["lps"]] == \
        [("a=1", "Feasible", 63)]
    opts = VerifierOptions()
    records, _, _ = _run_schedule(_single_rungs(build_inspection_cbf(CwParams(L=1), 0), opts),
                                  opts, {})
    assert [(r.name.split()[1], r.status, r.iterations) for r in records] == \
        [("a=0", "Infeasible", 60), ("a=1", "Feasible", 63)]


def test_fleet_emptiness_program_is_refuted_by_presolve():
    # The six-chaser deg_s=1 emptiness program (962 x 259): forcing rows fix
    # ray weights at zero until the constant monomial's row reads 0 = -1, so
    # no pivot is needed and the certificate combines to exactly 0 <= -1.
    params = CwParams(L=6)
    sys = build_cw_system(params)
    cands = [build_inspection_cbf(params, i, sys) for i in range(6)]
    lp, _ = assemble_emptiness_lp(cands, 1)
    assert (lp.nrows, lp.nvars) == (962, 259)
    out = solve_feasibility(lp)
    assert (out.status, out.iterations) == (LpStatus.INFEASIBLE, 0)
    assert validate_farkas(lp, out.farkas) == (0.0, -1.0)


def test_benchmark_lp_seconds_fit_in_their_row():
    # Programs run one after another, so a row's LP times cannot exceed it.
    report = run_benchmark(CwParams(), 3)
    assert [row["L"] for row in report["rows"]] == [1, 2, 3]
    for row in report["rows"]:
        assert sum(lp["seconds"] for lp in row["lps"]) <= row["seconds"]


def test_benchmark_rejects_bad_lmax():
    with pytest.raises(ValueError):
        run_benchmark(CwParams(L=1), L_max=0)
