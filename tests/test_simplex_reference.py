"""The phase-1 simplex and the gates against their references in tests/_oracles.py.

The program prices with one argmin per block of logical columns, runs the
Harris ratio test on Python floats and skips zero terms in the Farkas gate,
the point check and the certificate residual. None of that may change a
bit: every phase-1 run must give the reference's exit, pivot count, point
and multipliers, and every gate the reference's value.
"""

import numpy as np
import pytest

import _oracles as ref
import barrierlp.lpsolve as lpsolve
import barrierlp.verifier as verifier
from barrierlp.lpsolve import LpStatus, solve_feasibility, validate_farkas
from barrierlp.satbench import CwParams
from barrierlp.specio import load_problem
from barrierlp.verifier import Verdict, certificate_residual, verify_multi, verify_single
from test_assembly import corpus_documents
from test_lpsolve import repeated_rows_lp
from test_verifier import ERODED_DOC, STALL_WINDOW_DOC, fleet


def as_bytes(a):
    return None if a is None else np.asarray(a, dtype=float).tobytes()


def hexes(*values):
    return [float(v).hex() for v in values]


class Tally:
    """Runs _phase1 and the reference on every reduced program, both gates on every
    answer, and both residuals on every single certificate."""

    def __init__(self, monkeypatch):
        self.runs = self.pivots = self.points = self.refutations = self.residuals = 0
        phase1, solve = lpsolve._phase1, verifier.solve_feasibility
        residual = verifier.certificate_residual

        def checked_phase1(rows, cols, nonneg, n_eq, max_iters):
            got = phase1(rows, cols, nonneg, n_eq, max_iters)
            want = ref.phase1(rows, cols, nonneg, n_eq, max_iters)
            assert got[:2] == want[:2]
            assert as_bytes(got[2]) == as_bytes(want[2])
            assert as_bytes(got[3]) == as_bytes(want[3])
            self.runs += 1
            self.pivots += got[1]
            return got

        def checked_solve(lp, **kw):
            out = solve(lp, **kw)
            self.check(lp, out)
            return out

        def checked_residual(cert, sys, cand):
            got = residual(cert, sys, cand)
            if cert.kind == "single":
                assert hexes(got) == hexes(ref.single_residual(cert, cand))
                self.residuals += 1
            return got

        monkeypatch.setattr(lpsolve, "_phase1", checked_phase1)
        monkeypatch.setattr(verifier, "solve_feasibility", checked_solve)
        monkeypatch.setattr(verifier, "certificate_residual", checked_residual)

    def check(self, lp, out):
        if out.point is not None:
            assert hexes(lp.max_violation(out.point)) == hexes(ref.max_violation(lp, out.point))
            self.points += 1
        if out.farkas is not None:
            assert hexes(*validate_farkas(lp, out.farkas)) == \
                hexes(*ref.validate_farkas(lp, out.farkas))
            self.refutations += 1


def verify_document(doc):
    spec = load_problem(doc)
    if len(spec.candidates) == 1:
        return verify_single(spec.system, spec.candidates[0], spec.options)
    return verify_multi(spec.system, spec.candidates, spec.options)


def test_corpus_matches_the_reference(monkeypatch):
    tally = Tally(monkeypatch)
    for doc in corpus_documents(30):
        verify_document(doc)
    assert tally.runs > 50 and tally.pivots > 2000
    assert tally.points > 10 and tally.refutations > 50 and tally.residuals > 10


def test_fleet_matches_the_reference(monkeypatch):
    tally = Tally(monkeypatch)
    for L in (1, 2, 3):
        sys, cands = fleet(CwParams(L=L))
        assert verify_multi(sys, cands).verdict is Verdict.MULTI_VERIFIED
    assert tally.pivots > 0 and tally.points > 0 and tally.refutations > 0


@pytest.mark.parametrize("doc", [STALL_WINDOW_DOC, ERODED_DOC], ids=["stall-window", "eroded"])
def test_gated_exits_match_the_reference(monkeypatch, doc):
    tally = Tally(monkeypatch)
    verify_document(doc)
    assert tally.runs > 0 and tally.pivots > 100


def test_repeated_rows_match_the_reference(monkeypatch):
    tally = Tally(monkeypatch)
    feasible = repeated_rows_lp()
    infeasible = repeated_rows_lp()
    infeasible.add_eq({i: 1.0 for i in range(4)}, 2.0)
    for lp, status in ((feasible, LpStatus.FEASIBLE), (infeasible, LpStatus.INFEASIBLE)):
        out = solve_feasibility(lp)
        assert out.status is status
        tally.check(lp, out)
    assert (tally.runs, tally.points, tally.refutations) == (2, 1, 1)


def test_equal_reduced_costs_enter_the_lowest_code():
    # Rows x0 - x1 = 1 and -x2 <= 1 (slack s), all free. The starting
    # reduced costs are -1 for x0+, x1-, x2- and s: the plus column x0+
    # enters first (x0 = 1), then x2- before s on the second tie (x2 = -1).
    # Minus before plus would give x1 = -1; s before x2- would give x2 = 0.
    args = ([(0, {0: 1.0, 1: -1.0}, 1.0), (1, {2: -1.0}, 1.0)], [0, 1, 2], [False] * 3, 1, 50)
    exit, pivots, z, y = lpsolve._phase1(*args)
    assert (exit, pivots, y) == ("optimal", 2, None)
    assert z.tolist() == [1.0, 0.0, -1.0]
    assert as_bytes(z) == as_bytes(ref.phase1(*args)[2])


def test_equal_ratios_pivot_on_the_first_row():
    # Rows x0 = 1 and 2 x0 <= 2, scaled to x0 + s <= 1. x0 enters with
    # ratio 1 and pivot entry 1 on both rows. Row 0 leaves, which leaves
    # the slack to clear row 1's artificial in a second, degenerate pivot;
    # had row 1 left, the run would stop after one pivot.
    args = ([(0, {0: 1.0}, 1.0), (1, {0: 2.0}, 2.0)], [0], [False], 1, 50)
    exit, pivots, z, y = lpsolve._phase1(*args)
    assert (exit, pivots, z.tolist(), y) == ("optimal", 2, [1.0], None)
    assert ref.phase1(*args)[:2] == ("optimal", 2)


@pytest.mark.parametrize("L, zero_channels", [(6, 15), (12, 33)])
def test_residual_skips_zero_channels_bit_identically(L, zero_channels):
    # Three Lgb channels are live; the fleet's p2 multipliers are all zero,
    # so the corpus test above covers the second loop.
    sys, cands = fleet(CwParams(L=L))
    assert sum(not g.terms for g in cands[0].lgb.entry_list()) == zero_channels
    out = verify_multi(sys, cands)
    assert out.verdict is Verdict.MULTI_VERIFIED
    for single, cand in zip(out.singles, cands):
        cert = single.certificate
        assert hexes(certificate_residual(cert, sys, cand)) == hexes(ref.single_residual(cert, cand))
