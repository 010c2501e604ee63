"""Micro-benchmarks of polynomial products, Lie derivatives, LP assembly, presolve, the
simplex pivot loop, the Farkas gate, the counterexample search and check, the exact a=0
proof, and a joint verification (need pytest-benchmark)."""

import pytest

pytest.importorskip("pytest_benchmark")

import numpy as np

import barrierlp.refute as refute
import barrierlp.verifier as verifier
from barrierlp.affinegram import coefficient_system, dd_linear_constraints
from barrierlp.lpsolve import (
    FEAS_TOL,
    LpProblem,
    LpStatus,
    _Presolve,
    solve_feasibility,
    validate_farkas,
)
from barrierlp.specio import load_problem
from barrierlp.polyring import evaluate, mul
from barrierlp.satbench import CwParams, build_cw_system, build_inspection_cbf
from barrierlp.verifier import (
    Verdict,
    assemble_emptiness_lp,
    assemble_single_lp,
    default_deg_p,
    default_deg_s,
    support_ring,
    verify_multi,
)
from test_verifier import STALL_WINDOW_DOC


def fleet(L):
    """The reference inspection fleet with L chasers: system and candidates."""
    params = CwParams(L=L)
    sys = build_cw_system(params)
    return sys, [build_inspection_cbf(params, i, sys) for i in range(L)]


def single_args(cand, a=0):
    deg_s = default_deg_s(cand.b)
    return cand, a, deg_s, default_deg_p(cand, a, deg_s)


def test_mul_fleet_operands(benchmark):
    """b^2 * Lfb of the first chaser in the L=6 fleet: 28 x 4 terms over 36 variables."""
    _, cands = fleet(6)
    c = cands[0]
    p = c.b * c.b
    out = benchmark.pedantic(mul, args=(p, c.lfb), rounds=5, iterations=20)
    assert (out.nvars, len(p.terms), len(c.lfb.terms), len(out.terms)) == (36, 28, 4, 112)
    point = [0.1 * (i % 7) - 0.2 for i in range(36)]
    assert abs(evaluate(out, point) - evaluate(p, point) * evaluate(c.lfb, point)) < 1e-12


def test_build_twelve_chasers(benchmark):
    """The L=12 system and its 12 candidates, Lie derivatives included: 72 states, 36 inputs."""
    sys, cands = benchmark.pedantic(fleet, args=(12,), rounds=3, iterations=1)
    assert (sys.n, sys.m, len(cands)) == (72, 36, 12)
    c = cands[0]
    # Lfb = 2.4e-5 x4 + 2 x1 x4 + 2 x2 x5 + 1.99999 x3 x6: the x4 x5 terms cancel.
    assert len(c.lfb.terms) == 4
    assert [len(p.terms) for p in c.lgb.entry_list()] == [1] * 3 + [0] * 33


def test_verify_multi_six_chasers(benchmark, monkeypatch):
    """Joint verification of the L=6 fleet: the six relabelled candidates share 1 single program."""
    sys, cands = fleet(6)
    shapes = []

    def counting(lp, **kw):
        shapes.append((lp.nrows, lp.nvars))
        return solve_feasibility(lp, **kw)

    monkeypatch.setattr(verifier, "solve_feasibility", counting)
    out = benchmark.pedantic(verify_multi, args=(sys, cands), rounds=3, iterations=1)
    assert out.verdict is Verdict.MULTI_VERIFIED
    # Per round: the deg_s=0 and deg_s=1 emptiness programs, then a=1 once; an
    # exact witness rules out a=0. With --benchmark-disable pedantic runs a
    # single round.
    rounds, rest = divmod(len(shapes), 3)
    assert rounds >= 1 and rest == 0
    assert shapes.count((367, 154)) == rounds
    assert shapes.count((962, 259)) == rounds


def test_pivot_sweep_one_chaser_a0(benchmark):
    """The infeasible exit: the reference one-chaser a=0 program, 367 x 154."""
    _, cands = fleet(1)
    lp, _ = assemble_single_lp(*single_args(cands[0]))
    assert (lp.nrows, lp.nvars) == (367, 154)
    out = benchmark.pedantic(solve_feasibility, args=(lp,), rounds=3, iterations=1)
    assert out.status is LpStatus.INFEASIBLE
    assert out.iterations == 60


def test_pivot_sweep_one_chaser_a1(benchmark):
    """The feasible exit: the reference one-chaser a=1 program, 367 x 154."""
    _, cands = fleet(1)
    lp, _ = assemble_single_lp(*single_args(cands[0], a=1))
    assert (lp.nrows, lp.nvars) == (367, 154)
    out = benchmark.pedantic(solve_feasibility, args=(lp,), rounds=3, iterations=1)
    assert out.status is LpStatus.FEASIBLE
    assert out.iterations == 63
    assert lp.max_violation(out.point) <= FEAS_TOL


def test_farkas_gate_six_chaser_emptiness(benchmark):
    """The Farkas gate on the L=6 fleet's emptiness refutation at deg_s=1, 962 x 259."""
    _, cands = fleet(6)
    lp, _ = assemble_emptiness_lp(cands, 1)
    out = solve_feasibility(lp)
    # Presolve refutes it: 35 of the 962 multipliers are nonzero.
    assert (out.status, out.iterations) == (LpStatus.INFEASIBLE, 0)
    assert sum(u != 0.0 for u in out.farkas.eq_mults + out.farkas.ub_mults) == 35
    gate = benchmark.pedantic(validate_farkas, args=(lp, out.farkas), rounds=20, iterations=5)
    assert gate == (0.0, -1.0)


def test_presolve_six_chaser_emptiness(benchmark):
    """coefficient_system and presolve of the L=6 fleet's emptiness program, 962 x 259."""
    _, cands = fleet(6)
    _, layout = assemble_emptiness_lp(cands, 1)
    signs = [dd_linear_constraints(v) for v in layout.s_vars]

    def presolve():
        lp = LpProblem(layout.nvars)
        lp.add_rows([coefficient_system(layout.identity, layout.fixed)], signs)
        return _Presolve(lp)

    pre = benchmark.pedantic(presolve, rounds=10, iterations=2)
    # 237 forcing rows and one substitution leave the first sign row at 0 <= -1.
    assert (len(pre.beta), pre.n_eq, pre.contradiction) == (962, 703, 703)
    assert (len(pre.steps), sum(step[1] is None for step in pre.steps)) == (238, 237)


def test_assemble_single_six_chasers(benchmark):
    """Assembly of the first candidate's a=0 program in the L=6 fleet, 367 x 154."""
    _, cands = fleet(6)
    lp, _ = benchmark.pedantic(assemble_single_lp, args=single_args(cands[0]),
                               rounds=3, iterations=1)
    assert (lp.nrows, lp.nvars) == (367, 154)


def test_assemble_emptiness_six_chasers(benchmark):
    """Assembly of the L=6 fleet's emptiness program at deg_s=1, 962 x 259."""
    _, cands = fleet(6)
    lp, _ = benchmark.pedantic(assemble_emptiness_lp, args=(cands, 1), rounds=3, iterations=1)
    assert (lp.nrows, lp.nvars) == (962, 259)


def test_assemble_corpus_single(benchmark):
    """Assembly of a corpus-sized a=1 single program (n=3, m=2) in its support ring, 145 x 92."""
    spec = load_problem(STALL_WINDOW_DOC)
    ring = support_ring(spec.candidates[0])
    assert (len(ring.variables), len(ring.channels)) == (3, 2)
    lp, _ = benchmark.pedantic(assemble_single_lp, args=single_args(ring, a=1),
                               rounds=20, iterations=5)
    assert (lp.nrows, lp.nvars) == (145, 92)


def test_search_fleet_ring(benchmark):
    """The counterexample search on a chaser's ring (6 states, b and 3 channels): nothing found."""
    _, cands = fleet(6)
    ring = support_ring(cands[0])
    assert (len(ring.variables), len(ring.channels)) == (6, 3)
    point = benchmark.pedantic(refute.search, args=(ring,), rounds=20, iterations=5)
    assert point is None


def test_search_corpus_ring(benchmark):
    """The counterexample search on a corpus candidate's ring (3 states, b and 2 channels)."""
    spec = load_problem(STALL_WINDOW_DOC)
    ring = support_ring(spec.candidates[0])
    point = benchmark.pedantic(refute.search, args=(ring,), rounds=20, iterations=5)
    assert point is not None and point.shape == (3,)


def test_check_corpus_counterexample(benchmark):
    """The exact check of the point the search hands over for a corpus candidate."""
    spec = load_problem(STALL_WINDOW_DOC)
    cand = spec.candidates[0]
    x = np.zeros(3)
    ring = support_ring(cand)
    x[list(ring.variables)] = refute.search(ring)
    cex = benchmark.pedantic(refute.check, args=(cand, x), rounds=20, iterations=5)
    assert cex is not None and cex.lfb_upper < 0.0


def test_exclude_a0_fleet_candidate(benchmark):
    """The exact a=0 proof of a chaser in the L=6 fleet (36 states, 18 inputs), which replaces
    the search above: the rank of 3 exact channels, the factors of Lfb, and a Krawczyk test
    of b on {v = 0}."""
    _, cands = fleet(6)
    cand = cands[3]
    cex = benchmark.pedantic(refute.exclude_a0, args=(cand,), rounds=20, iterations=5)
    assert (cex.scope, cex.channels, cex.lfb_upper) == ("a=0", (), 0.0)
    assert [i for i in range(36) if i not in cex.fixed] == [18]
