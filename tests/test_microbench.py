"""Micro-benchmarks of LP assembly and the simplex pivot loop (need pytest-benchmark)."""

import pytest

pytest.importorskip("pytest_benchmark")

from barrierlp.lpsolve import LpStatus, solve_feasibility
from barrierlp.satbench import CwParams, build_cw_system, build_inspection_cbf
from barrierlp.verifier import (
    assemble_emptiness_lp,
    assemble_single_lp,
    default_deg_p,
    default_deg_s,
)


def fleet(L):
    """The reference inspection fleet with L chasers: system and candidates."""
    params = CwParams(L=L)
    sys = build_cw_system(params)
    return sys, [build_inspection_cbf(params, i, sys) for i in range(L)]


def single_args(sys, cand, a=0):
    deg_s = default_deg_s(cand.b)
    return sys, cand, a, deg_s, default_deg_p(cand, a, deg_s)


def test_pivot_sweep_one_chaser_a0(benchmark):
    """One full pivot sweep: the reference one-chaser a=0 program, 367 x 154."""
    sys, cands = fleet(1)
    lp, _ = assemble_single_lp(*single_args(sys, cands[0]), reduce_basis=True)
    assert (lp.nrows, lp.nvars) == (367, 154)
    out = benchmark.pedantic(solve_feasibility, args=(lp,), rounds=3, iterations=1)
    assert out.status is LpStatus.INFEASIBLE
    assert out.iterations == 202


def test_assemble_single_six_chasers(benchmark):
    """Assembly of the first candidate's a=0 program in the L=6 fleet, 367 x 154."""
    sys, cands = fleet(6)
    lp, _ = benchmark.pedantic(assemble_single_lp, args=single_args(sys, cands[0]),
                               kwargs={"reduce_basis": True}, rounds=3, iterations=1)
    assert (lp.nrows, lp.nvars) == (367, 154)


def test_assemble_emptiness_six_chasers(benchmark):
    """Assembly of the L=6 fleet's emptiness program at deg_s=1, 962 x 259."""
    _, cands = fleet(6)
    lp, _ = benchmark.pedantic(assemble_emptiness_lp, args=(cands, 1),
                               kwargs={"reduce_basis": True}, rounds=3, iterations=1)
    assert (lp.nrows, lp.nvars) == (962, 259)
