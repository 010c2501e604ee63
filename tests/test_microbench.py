"""Micro-benchmark of the simplex pivot loop (needs pytest-benchmark)."""

import pytest

pytest.importorskip("pytest_benchmark")

from barrierlp.lpsolve import LpStatus, solve_feasibility
from barrierlp.satbench import CwParams, build_cw_system, build_inspection_cbf
from barrierlp.verifier import assemble_single_lp, default_deg_p, default_deg_s


def test_pivot_sweep_one_chaser_a0(benchmark):
    """One full pivot sweep: the reference one-chaser a=0 program, 367 x 154."""
    params = CwParams(L=1)
    sys = build_cw_system(params)
    cand = build_inspection_cbf(params, 0, sys)
    deg_s = default_deg_s(cand.b)
    lp, _ = assemble_single_lp(sys, cand, 0, deg_s, default_deg_p(cand, 0, deg_s),
                               reduce_basis=True)
    assert (lp.nrows, lp.nvars) == (367, 154)
    out = benchmark.pedantic(solve_feasibility, args=(lp,), rounds=3, iterations=1)
    assert out.status is LpStatus.INFEASIBLE
    assert out.iterations == 326
