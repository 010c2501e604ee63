"""Presolve, the phase-1 simplex and the gates against their references in tests/_oracles.py.

Presolve reads the program's arrays and makes dicts only of the rows it
works on; the simplex prices with one argmin per block of logical
columns and runs the Harris ratio test on Python floats; the Farkas gate,
the point check and postsolve combine rows with one bincount; the
certificate residual skips zero terms. None of that may change a bit:
every presolve must give the reference's steps, reduced rows, points and
multipliers, every phase-1 run the reference's exit, pivot count, point and
multipliers, and every gate the reference's value.
"""

import numpy as np
import pytest

import _oracles as ref
import barrierlp.lpsolve as lpsolve
import barrierlp.verifier as verifier
from barrierlp.lpsolve import LpProblem, LpStatus, solve_feasibility, validate_farkas
from barrierlp.satbench import CwParams
from barrierlp.specio import load_problem
from barrierlp.verifier import Verdict, certificate_residual, check_emptiness, verify_multi
from test_assembly import corpus_documents
from test_lpsolve import repeated_rows_lp
from test_verifier import ERODED_DOC, STALL_WINDOW_DOC, fleet


def as_bytes(a):
    return None if a is None else np.asarray(a, dtype=float).tobytes()


def hexes(*values):
    return [float(v).hex() for v in values]


def reduced_rows(red):
    """The reduced program's rows as (row, entries, beta), entries in the order red holds them."""
    rows = [(r, {}, b) for r, b in zip(red.rows, red.beta.tolist())]
    for e, j, a in zip(red.er.tolist(), red.cols[red.ec].tolist(), red.ev.tolist()):
        rows[e][1][j] = a
    return rows


def reduced_of(rows, cols, nonneg, n_eq):
    """Rows (row, entries, beta) over cols, in the form presolve hands _phase1."""
    pos = {j: p for p, j in enumerate(cols)}
    er, ec, ev = zip(*[(e, pos[j], a) for e, (_, coefs, _) in enumerate(rows)
                       for j, a in coefs.items()])
    orig = [r for r, _, _ in rows]
    return lpsolve._Reduced(orig, np.flatnonzero(np.array(orig) >= n_eq), np.array(er),
                            np.array(ec), np.array(ev, float),
                            np.array([b for _, _, b in rows], float), np.array(cols),
                            np.array(nonneg))


class Tally:
    """Runs presolve and _phase1 beside their references on every program, both gates
    on every answer, and both residuals on every single certificate.

    Presolve must leave the reference's contradiction, steps and reduced rows
    (entries in the same order), and map points and multipliers back to the
    same bytes; the comparisons go through repr, which tells -0.0 from 0.0
    and a NumPy scalar from a float.
    """

    def __init__(self, monkeypatch):
        self.runs = self.pivots = self.points = self.refutations = self.residuals = 0
        self.presolves = self.steps = self.postsolves = 0
        presolve, phase1, solve = lpsolve._Presolve, lpsolve._phase1, verifier.solve_feasibility
        residual = verifier.certificate_residual
        tally = self

        class CheckedPresolve(presolve):
            def __init__(self, lp):
                super().__init__(lp)
                self.ref = ref.Presolve(lp)
                assert self.contradiction == self.ref.contradiction
                assert repr(self.steps) == repr(self.ref.steps)
                tally.presolves += 1
                tally.steps += len(self.steps)

            def reduced(self):
                red = super().reduced()
                rows, cols, nonneg = self.ref.reduced()
                assert repr(reduced_rows(red)) == repr(rows)
                assert red.cols.tolist() == cols and red.nonneg.tolist() == nonneg
                tally.reference = (rows, cols, nonneg, self.n_eq)
                return red

            def point(self, cols, z):
                got = super().point(cols, z)
                assert as_bytes(got) == as_bytes(self.ref.point(cols.tolist(), z))
                tally.postsolves += 1
                return got

            def certificate(self, u, red=None):
                got = super().certificate(u, red)
                rows = [self.contradiction] if red is None else red.rows
                want = self.ref.certificate(dict(zip(rows, u.tolist())))
                assert repr(got) == repr(want)
                tally.postsolves += 1
                return got

        def checked_phase1(red, max_iters):
            got = phase1(red, max_iters)
            want = ref.phase1(*self.reference, max_iters)
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

        monkeypatch.setattr(lpsolve, "_Presolve", CheckedPresolve)
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
    """Solve every program of the document: a joint one's emptiness sweep and each candidate.

    verify_multi would stop once its verdict is fixed, and verify_single
    solves nothing for a candidate refuted by a boundary counterexample;
    those schedules still hold programs worth checking against the
    reference, so each candidate's schedule runs here in full.
    """
    spec = load_problem(doc)
    if len(spec.candidates) > 1:
        check_emptiness(spec.candidates, spec.options)
    for cand in spec.candidates:
        verifier._run_schedule(verifier._single_rungs(cand, spec.options), spec.options, {})


def test_corpus_matches_the_reference(monkeypatch):
    tally = Tally(monkeypatch)
    for doc in corpus_documents(30):
        verify_document(doc)
    assert tally.runs > 50 and tally.pivots > 2000
    assert tally.points > 10 and tally.refutations > 50 and tally.residuals > 10
    assert tally.presolves > 100 and tally.steps > 400 and tally.postsolves > 100


def test_fleet_matches_the_reference(monkeypatch):
    tally = Tally(monkeypatch)
    for L in (1, 2, 3):
        sys, cands = fleet(CwParams(L=L))
        assert verify_multi(sys, cands).verdict is Verdict.MULTI_VERIFIED
    assert tally.pivots > 0 and tally.points > 0 and tally.refutations > 0
    assert tally.steps > 100 and tally.postsolves == tally.presolves


@pytest.mark.parametrize("doc", [STALL_WINDOW_DOC, ERODED_DOC], ids=["stall-window", "eroded"])
def test_gated_exits_match_the_reference(monkeypatch, doc):
    tally = Tally(monkeypatch)
    verify_document(doc)
    assert tally.runs > 0 and tally.pivots > 100 and tally.steps > 20


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


def test_a_row_changed_before_its_turn_is_taken_at_its_turn(monkeypatch):
    # Rows 0 and 3 are singletons, rows 1 and 2 have three entries. Taking
    # row 0 (x0 = 1) leaves row 2 with two entries before the first sweep
    # reaches it, so the sweep takes it at its turn, before row 3. Taking
    # row 3 (x6 = 0) shortens row 1, whose turn has passed: it waits in the
    # queue until the sweep is done.
    lp = LpProblem(8)
    lp.add_eq({0: 1.0}, 1.0)
    lp.add_eq({1: 1.0, 5: 1.0, 6: 1.0}, 3.0)
    lp.add_eq({0: 1.0, 4: 1.0, 7: 1.0}, 2.0)
    lp.add_eq({6: 1.0}, 0.0)
    lp.add_eq({4: 1.0, 1: 1.0, 2: 1.0}, 5.0)
    tally = Tally(monkeypatch)
    assert [step[0] for step in lpsolve._Presolve(lp).steps] == [0, 2, 3, 1]
    out = solve_feasibility(lp)
    assert out.status is LpStatus.FEASIBLE
    tally.check(lp, out)
    assert (tally.presolves, tally.steps, tally.postsolves) == (2, 8, 1)


def test_equal_reduced_costs_enter_the_lowest_code():
    # Rows x0 - x1 = 1 and -x2 <= 1 (slack s), all free. The starting
    # reduced costs are -1 for x0+, x1-, x2- and s: the plus column x0+
    # enters first (x0 = 1), then x2- before s on the second tie (x2 = -1).
    # Minus before plus would give x1 = -1; s before x2- would give x2 = 0.
    args = ([(0, {0: 1.0, 1: -1.0}, 1.0), (1, {2: -1.0}, 1.0)], [0, 1, 2], [False] * 3, 1, 50)
    exit, pivots, z, y = lpsolve._phase1(reduced_of(*args[:4]), 50)
    assert (exit, pivots, y) == ("optimal", 2, None)
    assert z.tolist() == [1.0, 0.0, -1.0]
    assert as_bytes(z) == as_bytes(ref.phase1(*args)[2])


def test_equal_ratios_pivot_on_the_first_row():
    # Rows x0 = 1 and 2 x0 <= 2, scaled to x0 + s <= 1. x0 enters with
    # ratio 1 and pivot entry 1 on both rows. Row 0 leaves, which leaves
    # the slack to clear row 1's artificial in a second, degenerate pivot;
    # had row 1 left, the run would stop after one pivot.
    args = ([(0, {0: 1.0}, 1.0), (1, {0: 2.0}, 2.0)], [0], [False], 1, 50)
    exit, pivots, z, y = lpsolve._phase1(reduced_of(*args[:4]), 50)
    assert (exit, pivots, z.tolist(), y) == ("optimal", 2, [1.0], None)
    assert ref.phase1(*args)[:2] == ("optimal", 2)


def test_harris_bound_clamps_a_drifted_basic_value():
    # x0 enters on row 0 first, which leaves row 1's basic value at
    # 0.744 - 0.8 * 0.93 = -1.1e-16 instead of 0. x1 enters next: pass 1
    # bounds the step by (max(r, 0) + PIVOT_TOL) / 0.5 = 2e-9 on row 1, row
    # 2's exact ratio 2e-9 / 1 fits under it, and row 2, the larger pivot
    # entry, leaves. Unclamped, the bound would fall just below 2e-9, row 1
    # would leave, and the run would take a third pivot.
    assert 0.744 - 0.8 * 0.93 < 0.0
    args = ([(0, {0: 1.0}, 0.93), (1, {0: 0.8, 1: 0.5, 2: 1.0}, 0.744), (2, {1: 1.0}, 2e-9),
             (3, {0: 1.0, 2: -1.0}, 1.0)], [0, 1, 2], [False] * 3, 4, 50)
    exit, pivots, z, y = lpsolve._phase1(reduced_of(*args[:4]), 50)
    assert (exit, pivots, z) == ("optimal", 2, None)
    want = ref.phase1(*args)
    assert want[:2] == ("optimal", 2) and as_bytes(want[3]) == as_bytes(y)


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
