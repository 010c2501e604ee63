"""Boundary counterexamples: the search, the exact check, and where they stop the schedule."""

import dataclasses
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

import barrierlp.refute as refute
import barrierlp.verifier as verifier
from _oracles import counterexample_holds, exact_lie_derivatives, interval_value
from barrierlp.polyring import Polynomial, PolyMatrix, evaluate
from barrierlp.satbench import CwParams, build_cw_system, build_inspection_cbf
from barrierlp.specio import ProblemFormatError, load_problem, write_report
from barrierlp.verifier import (
    CandidateCbf,
    ControlAffineSystem,
    Verdict,
    _run_schedule,
    _single_rungs,
    support_ring,
    verify_multi,
    verify_single,
)
from test_assembly import corpus_documents
from test_verifier import ERODED_DOC, STALL_WINDOW_DOC, counting_solves, fleet


def full_schedule(cand, opts):
    """(records, certificate) of cand's whole schedule, run whatever refute says."""
    records, cert, _ = _run_schedule(_single_rungs(cand, opts), opts, {})
    return records, cert


def with_drift(f, rows):
    """f (n x 1) with the given rows replaced."""
    return PolyMatrix([[rows.get(i, f[i, 0])] for i in range(f.rows)])


def flipped(p, mono):
    terms = dict(p.terms)
    terms[mono] = -terms[mono]
    return Polynomial(terms, p.nvars)


def test_tally_counterexamples_hold_and_only_refuted_schedules_fail():
    """Every counterexample on the 30 corpus documents passes the exact oracle and none
    survives a mutation; each refuted schedule still fails, and no verified one is refuted."""
    refuted = verified = sign_flips = 0
    for doc in corpus_documents(30):
        spec = load_problem(doc)
        f, g = spec.system.f, spec.system.g
        for cand in spec.candidates:
            out = verify_single(spec.system, cand, spec.options)
            records, cert = full_schedule(cand, spec.options)
            cex = out.counterexample
            if cex is None:
                assert [(r.status, r.iterations) for r in out.lps] == \
                    [(r.status, r.iterations) for r in records]
                verified += cert is not None
                continue
            refuted += 1
            assert cert is None and out.verdict is Verdict.INCONCLUSIVE and out.lps == []
            assert cex.lfb_upper < 0.0
            assert counterexample_holds(cex, cand.b, f, g)
            free = [i for i in range(cand.b.nvars) if i not in cex.fixed]
            moved = list(cex.centre)
            moved[free[0]] = (float.fromhex(moved[free[0]]) + 1e-3).hex()
            assert not counterexample_holds(dataclasses.replace(cex, centre=tuple(moved)),
                                            cand.b, f, g)
            assert not counterexample_holds(dataclasses.replace(cex, radius=(0.5).hex()),
                                            cand.b, f, g)
            # Every drift sign flipped negates Lfb.
            negated = with_drift(f, {i: -f[i, 0] for i in range(f.rows)})
            assert not counterexample_holds(cex, cand.b, negated, g)
            # One flipped drift coefficient often leaves Lfb negative, and the
            # counterexample valid; any flip that makes Lfb positive at the
            # centre must be caught.
            centre = [float.fromhex(h) for h in cex.centre]
            for i in range(f.rows):
                for mono in f[i, 0].terms:
                    mutant = with_drift(f, {i: flipped(f[i, 0], mono)})
                    lfb = CandidateCbf(cand.b, ControlAffineSystem(mutant, g)).lfb
                    if evaluate(lfb, centre) > 1e-6:
                        sign_flips += 1
                        assert not counterexample_holds(cex, cand.b, mutant, g)
    assert refuted >= 25 and verified >= 10 and sign_flips >= 20


def test_no_fleet_candidate_is_refuted_and_each_class_searches_once(monkeypatch):
    searches = []
    search = refute.search

    def counting(ring):
        searches.append(ring.key)
        return search(ring)

    def no_check(*args):
        raise AssertionError("Lfb vanishes on the fleet's boundary set: nothing to check")

    monkeypatch.setattr(refute, "search", counting)
    monkeypatch.setattr(refute, "check", no_check)
    # Without the a=0 proof, which skips the search on the fleet.
    monkeypatch.setattr(refute, "exclude_a0", lambda *args: None)
    for L in (1, 2, 3):
        sys, cands = fleet(CwParams(L=L))
        out = verify_multi(sys, cands)
        assert out.verdict is Verdict.MULTI_VERIFIED
        assert all(s.counterexample is None and s.refute_s > 0.0 for s in out.singles)
        for cand in cands:
            _, cert = full_schedule(cand, verifier.VerifierOptions())
            assert cert is not None
    # Relabelled chasers share a class: one search per joint run.
    assert len(searches) == 3 and len(set(searches)) == 1


def test_eroded_candidate_is_not_refuted():
    # HiGHS finds its a=1 program feasible, and so does the simplex; the
    # eroded exit is kept on the program pinned in test_verifier.eroded_ring.
    spec = load_problem(ERODED_DOC)
    out = verify_single(spec.system, spec.candidates[1], spec.options)
    assert out.counterexample is None and out.verdict is Verdict.VERIFIED
    assert [(r.status, r.exit, r.iterations) for r in out.lps] == \
        [("Infeasible", "optimal", 25), ("Feasible", "optimal", 65)]


def test_stall_window_candidate_is_refuted_without_a_program(monkeypatch):
    spec = load_problem(STALL_WINDOW_DOC)
    cand = spec.candidates[0]
    records, _ = full_schedule(cand, spec.options)
    assert sum(r.iterations for r in records) >= 450
    calls = counting_solves(monkeypatch)
    out = verify_single(spec.system, cand, spec.options)
    assert calls == [] and out.lps == [] and out.verdict is Verdict.INCONCLUSIVE
    assert counterexample_holds(out.counterexample, cand.b, spec.system.f, spec.system.g)
    # In a joint run it is the last candidate run, with no programs; its
    # partner is skipped.
    joint = verify_multi(spec.system, spec.candidates, spec.options)
    assert joint.verdict is Verdict.MULTI_INCONCLUSIVE
    assert [s.counterexample is not None for s in joint.singles] == [True]
    assert joint.singles[0].lps == [] and joint.skipped == [1]


def one_state(b, f, g_row):
    """A one-state system dx/dt = f + sum_j g_row[j] u_j and its candidate b (polynomials in x)."""
    x = Polynomial.variable(0, 1)
    const = lambda c: Polynomial.constant(c, 1)
    sys = ControlAffineSystem(PolyMatrix([[f(x, const)]]),
                              PolyMatrix([[const(c) for c in g_row]]))
    return sys, CandidateCbf(b(x, const), sys)


def two_states(g):
    """The unit disc under dx/dt = (x, y) + g u: Lfb = -2 on its boundary."""
    n = 2
    x, y = Polynomial.variable(0, n), Polynomial.variable(1, n)
    sys = ControlAffineSystem(
        PolyMatrix([[x], [y]]),
        PolyMatrix([[Polynomial.constant(c, n) for c in row] for row in g]))
    return sys, CandidateCbf(Polynomial.one(n) - x * x - y * y, sys)


def assert_schedule_as_before(sys, cand):
    out = verify_single(sys, cand)
    records, cert = full_schedule(cand, verifier.VerifierOptions())
    assert out.counterexample is None
    assert [(r.status, r.iterations) for r in out.lps] == [(r.status, r.iterations) for r in records]
    assert (out.certificate is None) == (cert is None)
    return out


def test_candidate_without_a_real_zero_is_not_refuted():
    sys, cand = one_state(lambda x, c: c(1.0) + x * x, lambda x, c: -x, [1.0])
    assert refute.search(support_ring(cand)) is None
    assert assert_schedule_as_before(sys, cand).verdict is Verdict.VERIFIED


def test_check_needs_a_zero_of_the_equations_in_its_box():
    # Lfb = -1 everywhere, but b = x vanishes only at 0: a point 1e-3 off
    # proves nothing, though every bound on Lfb is negative.
    sys, cand = one_state(lambda x, c: x, lambda x, c: c(-1.0), [0.0])
    assert refute.check(cand, np.array([1e-3])) is None
    assert refute.check(cand, np.array([1e-12])) is not None


def test_zero_candidate_is_not_refuted():
    # b = 0 vanishes everywhere, and so do its Lie derivatives.
    sys, cand = one_state(lambda x, c: c(0.0), lambda x, c: -x, [1.0])
    assert refute.search(support_ring(cand)) is None
    assert_schedule_as_before(sys, cand)


def test_identically_zero_channel_is_not_an_equation():
    # b = 1 - x^2 under dx/dt = -x + 0 u: Lfb = 2x^2 is 2 at both zeros of b.
    sys, cand = one_state(lambda x, c: c(1.0) - x * x, lambda x, c: -x, [0.0])
    assert cand.lgb[0, 0].is_zero()
    assert_schedule_as_before(sys, cand)
    # b = x under dx/dt = -1: the zero channel leaves x = 0 a counterexample.
    sys, cand = one_state(lambda x, c: x, lambda x, c: c(-1.0), [0.0, 0.0])
    cex = verify_single(sys, cand).counterexample
    assert cex is not None and cex.channels == ()
    assert counterexample_holds(cex, cand.b, sys.f, sys.g)


def test_channel_below_the_pruning_tolerance_is_refused():
    # Lgb_1 = 1e-7 * 1e-8 is nonzero, so input 1 moves b = 1e-7 x everywhere;
    # a float Lgb_1 pruned to zero would show b refuted at x = 0. No float
    # program can hold the channel, so the candidate and its document are refused.
    with pytest.raises(ValueError, match=r"monomial \(0,\) is nonzero but rounds to"):
        one_state(lambda x, c: 1e-7 * x, lambda x, c: c(-1.0), [0.0, 1e-8])
    doc = {"schema": 1, "variables": ["x"], "drift": ["-1"], "input_matrix": [["0", "1e-08"]],
           "candidates": ["1e-07*x"]}
    with pytest.raises(ProblemFormatError, match=r"^candidates\[0\]: .* below PRUNE_TOL"):
        load_problem(doc)


def test_dependent_columns_refute_only_when_the_dependence_is_exact():
    # Column 2 is exactly twice column 1: Lgb_1 = 2 Lgb_0 is dropped.
    sys, cand = two_states([[0.1, 0.2], [0.3, 0.6]])
    cex = verify_single(sys, cand).counterexample
    assert cex is not None and cex.channels == (0,) and len(cex.fixed) == 0
    assert counterexample_holds(cex, cand.b, sys.f, sys.g)
    # 0.9/0.3 and 0.3/0.1 differ in binary: exactly, the two channels and b
    # are three independent equations in two states.
    assert Fraction(0.9) / Fraction(0.3) != Fraction(0.3) / Fraction(0.1)
    sys, cand = two_states([[0.1, 0.3], [0.3, 0.9]])
    assert refute.search(support_ring(cand)) is not None
    assert_schedule_as_before(sys, cand)


def test_overflowing_search_and_check_refute_nothing(monkeypatch):
    spec = load_problem(STALL_WINDOW_DOC)
    cand = spec.candidates[0]
    huge = np.full((refute.SEARCH_STARTS, 3), 1e200)
    monkeypatch.setattr(refute, "_starts", lambda nvars: huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert refute.search(support_ring(cand)) is None
        assert_schedule_as_before(spec.system, cand)
    # b = 1e300 (x - 1) under dx/dt = -1e300: Lfb = -1e600 overflows every
    # float, so that candidate is refused.
    sys, cand = one_state(lambda x, c: 1e300 * x - c(1e300), lambda x, c: c(-1.0), [0.0])
    big = ControlAffineSystem(PolyMatrix([[Polynomial.constant(-1e300, 1)]]), sys.g)
    with pytest.raises(ValueError, match=r"monomial \(0,\) overflows a float"):
        CandidateCbf(cand.b, big)
    # Under dx/dt = -1, b at x = 1e200 overflows the interval bounds.
    assert refute.check(cand, np.array([1e200])) is None
    assert refute.check(cand, np.ones(1)) is not None


def test_reports_are_deterministic_and_carry_the_counterexample():
    spec = load_problem(STALL_WINDOW_DOC)
    reports = []
    for _ in range(2):
        out = verify_multi(spec.system, spec.candidates, spec.options)
        reports.append((write_report(out, deterministic=True), write_report(out, "text", True)))
    assert reports[0] == reports[1]
    report = json.loads(reports[0][0])
    assert report["schema"] == 5 and report["counterexample"] is None
    cex = report["singles"][0]["counterexample"]
    assert cex["refute_s"] == 0.0 and cex["lfb_upper"] < 0.0 and cex["scope"] == "every rung"
    assert len(cex["centre"]) == 3 and float.fromhex(cex["radius"]) == 2.0 ** -30
    assert "    counterexample: b, Lgb[0], Lgb[1] = 0 in the box centre (" in reports[0][1]
    assert "; scope every rung\n" in reports[0][1]


def test_counterexample_bound_matches_the_oracle_interval():
    # The reported bound is an upper bound of the rational interval value.
    spec = load_problem(STALL_WINDOW_DOC)
    cand = spec.candidates[0]
    cex = verify_single(spec.system, cand).counterexample
    lfb, _ = exact_lie_derivatives(cand.b, spec.system.f, spec.system.g)
    r = Fraction(float.fromhex(cex.radius))
    box = [(Fraction(float.fromhex(h)) - (0 if i in cex.fixed else r),
            Fraction(float.fromhex(h)) + (0 if i in cex.fixed else r))
           for i, h in enumerate(cex.centre)]
    assert interval_value(lfb, box)[1] <= Fraction(cex.lfb_upper) < 0


# -- the exact a=0 exclusion -------------------------------------------------------------

STALL = CwParams(L=1, masses=(3.0,), thrusts=(0.75,))


def no_search(ring):
    raise AssertionError("Lfb vanishes on {Lgb = 0}: nothing to search")


def test_fleet_and_stall_a0_rungs_are_ruled_out_exactly(monkeypatch):
    """Each fleet and stall candidate carries an oracle-checked a=0 witness, runs no search,
    solves no a=0 program, and every a=0 rung it skips still ends Infeasible."""
    monkeypatch.setattr(refute, "search", no_search)
    opts = verifier.VerifierOptions()
    problems = [fleet(CwParams(L=L)) for L in (1, 2, 3)] + \
        [fleet(STALL.with_L(L)) for L in (1, 2)]
    for sys, cands in problems:
        out = verify_single(sys, cands[0]) if len(cands) == 1 else verify_multi(sys, cands)
        singles = [out] if len(cands) == 1 else out.singles
        assert out.verdict in (Verdict.VERIFIED, Verdict.MULTI_VERIFIED)
        assert len(singles) == len(cands)
        for so, cand in zip(singles, cands):
            cex = so.counterexample
            assert so.verdict is Verdict.VERIFIED and so.refute_s > 0.0
            assert (cex.scope, cex.channels, cex.lfb_upper) == ("a=0", (), 0.0)
            assert counterexample_holds(cex, cand.b, sys.f, sys.g)
            assert [r.name.split()[1] for r in so.lps] == ["a=1"]
            assert [e[0] for e in so.schedule["entries"]] == [0, 1]
            records, cert = full_schedule(cand, opts)
            assert cert is not None
            assert [(r.name.split()[1], r.status) for r in records] == \
                [("a=0", "Infeasible"), ("a=1", "Feasible")]


def test_a0_witness_oracle_rejects_mutants():
    sys, cands = fleet(CwParams(L=2))
    cand = cands[1]
    cex = refute.exclude_a0(cand)
    assert counterexample_holds(cex, cand.b, sys.f, sys.g)
    free = [i for i in range(cand.b.nvars) if i not in cex.fixed]
    assert free == [6]  # chaser 1's x, at the zero x = R_t of b on {v = 0}
    moved = list(cex.centre)
    moved[6] = (float.fromhex(moved[6]) + 1e-3).hex()
    assert not counterexample_holds(dataclasses.replace(cex, centre=tuple(moved)),
                                    cand.b, sys.f, sys.g)
    # A velocity of chaser 1 off zero, or left free, proves nothing.
    off = list(cex.centre)
    off[9] = (0.25).hex()
    assert not counterexample_holds(dataclasses.replace(cex, centre=tuple(off)),
                                    cand.b, sys.f, sys.g)
    assert not counterexample_holds(dataclasses.replace(cex, fixed=tuple(
        i for i in cex.fixed if i != 9)), cand.b, sys.f, sys.g)
    # As a counterexample of every rung it claims Lfb < 0, which fails.
    assert not counterexample_holds(dataclasses.replace(cex, scope="every rung"),
                                    cand.b, sys.f, sys.g)
    # Chaser 0's candidate has its zero elsewhere.
    assert not counterexample_holds(cex, cands[0].b, sys.f, sys.g)


def chaser(b=None, f_rows=None, g_cells=None):
    """The one-chaser fleet system and its candidate, with b, drift rows or g cells replaced.

    g_cells maps (row, channel) to a constant; given, it replaces the whole
    input matrix.
    """
    params = CwParams(L=1)
    sys = build_cw_system(params)
    f, g = sys.f, sys.g
    if f_rows:
        f = with_drift(f, f_rows)
    if g_cells is not None:
        g = PolyMatrix([[Polynomial.constant(g_cells.get((i, j), 0.0), 6) for j in range(3)]
                        for i in range(6)])
    sys = ControlAffineSystem(f, g)
    return sys, CandidateCbf(b if b is not None else build_inspection_cbf(params, 0).b, sys)


def _v(i):
    return Polynomial.variable(i, 6)


def linear_channels(cand):
    """Some exact Lgb channel of cand is live, and every live term has degree 1."""
    live = [terms for terms, _ in cand.exact[2] if terms]
    return bool(live) and all(sum(mo) == 1 for terms in live for mo in terms)


def assert_not_excluded(sys, cand):
    """exclude_a0 proves nothing, and verify_single runs the a=0 rungs as before."""
    assert refute.exclude_a0(cand) is None
    out = verify_single(sys, cand)
    assert out.counterexample is None or out.counterexample.scope == "every rung"
    if out.counterexample is None:
        records, _ = full_schedule(cand, verifier.VerifierOptions())
        assert [(r.name, r.status, r.iterations) for r in out.lps] == \
            [(r.name, r.status, r.iterations) for r in records]
    return out


def test_channel_with_a_constant_term_is_not_excluded():
    # b gains 0.5 vx, so Lgb_0 = 0.5 (8 vx + 0.5) = 4 vx + 0.25 never vanishes at v = 0.
    sys, base = chaser()
    sys, cand = chaser(b=base.b + 0.5 * _v(3))
    assert (0,) * 6 in cand.lgb[0, 0].terms
    assert not linear_channels(cand)
    assert_not_excluded(sys, cand)


def test_rank_deficient_input_matrix_is_not_excluded():
    # Channels 0 and 1 both push vx + vy: Lgb = (4(vx + vy), 4(vx + vy), 4 vz) has
    # rank 2 in three velocities, so Lgb = 0 leaves vx = -vy free.
    g = {(3, 0): 0.5, (4, 0): 0.5, (3, 1): 0.5, (4, 1): 0.5, (5, 2): 0.5}
    sys, cand = chaser(g_cells=g)
    assert linear_channels(cand)
    assert_not_excluded(sys, cand)


def test_drift_term_below_the_pruning_tolerance_is_refused():
    # b = 0.1 x^2 + y^2 + z^2 + 4 v.v - 0.25 under dx/dt = vx + 2e-14 y: the
    # term 0.2 x * 2e-14 y = 4e-15 x y of Lfb carries no velocity, so an a=0
    # witness that missed it would be wrong. No float Lfb holds it, and the
    # candidate is refused.
    sys, base = chaser()
    x, y = _v(0), _v(1)
    b = base.b - 0.9 * x * x
    xy = (1, 1, 0, 0, 0, 0)
    f = with_drift(sys.f, {0: _v(3) + 2e-14 * y})
    lfb, _ = exact_lie_derivatives(b, f, sys.g)
    assert 0 < abs(lfb[xy]) < 1e-14
    with pytest.raises(ValueError, match=r"monomial \(1, 1, 0, 0, 0, 0\) is nonzero"):
        CandidateCbf(b, ControlAffineSystem(f, sys.g))
    # Without that drift term the same candidate is excluded.
    sys, cand = chaser(b=b)
    assert refute.exclude_a0(cand) is not None


def test_candidate_without_a_zero_on_the_velocity_free_set_is_not_excluded():
    # b = r.r + v.v + 1 is at least 1 everywhere.
    b = Polynomial.one(6)
    for i in range(6):
        b = b + _v(i) * _v(i)
    sys, cand = chaser(b=b)
    assert linear_channels(cand)
    out = assert_not_excluded(sys, cand)
    assert [r.name.split()[1] for r in out.lps][:1] == ["a=0"]


def test_a0_witness_reports_scope_on_a_verified_outcome():
    sys, cands = fleet(CwParams(L=1))
    out = verify_single(sys, cands[0])
    assert out.verdict is Verdict.VERIFIED
    report = json.loads(write_report(out, deterministic=True))
    assert report["schema"] == 5 and report["certificate"] is not None
    cex = report["counterexample"]
    assert (cex["scope"], cex["channels"], cex["lfb_upper"], cex["refute_s"]) == \
        ("a=0", [], 0.0, 0.0)
    assert cex["fixed"] == [1, 2, 3, 4, 5] and float.fromhex(cex["centre"][0]) == 0.5
    assert [e[0] for e in report["schedule"]["entries"]] == [0, 1]
    assert [lp["name"].split()[1] for lp in report["lps"]] == ["a=1"]
    text = write_report(out, "text", True)
    assert "counterexample: b = 0 in the box centre (" in text
    assert text.rstrip("\n").endswith("Lfb <= 0; scope a=0")


def test_every_real_root_along_an_axis_is_tried():
    # On {v = 0}, b = (x - 1)^2 (x + 0.5) + y^2 + z^2. The double root x = 1 is
    # tried first and fails the Krawczyk test (b' vanishes there); x = -0.5 passes.
    x, y, z = _v(0), _v(1), _v(2)
    b = (x - 1.0) * (x - 1.0) * (x + 0.5) + y * y + z * z
    for i in range(3, 6):
        b = b + _v(i) * _v(i)
    sys, cand = chaser(b=b)
    cex = refute.exclude_a0(cand)
    assert counterexample_holds(cex, cand.b, sys.f, sys.g)
    assert float.fromhex(cex.centre[0]) == -0.5 and cex.fixed == (1, 2, 3, 4, 5)
