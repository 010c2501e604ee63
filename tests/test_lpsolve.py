"""Feasibility solver, Farkas certificates, and LP text round-trips."""

import copy
import math
import random
import tracemalloc

import numpy as np
import pytest

import barrierlp.lpsolve as lpsolve
from _oracles import fm_feasible
from barrierlp.affinegram import (
    DecisionAllocator,
    MonomialCodes,
    dd_linear_constraints,
    fresh_dsos_poly,
)
from barrierlp.lpsolve import (
    FEAS_TOL,
    FarkasCertificate,
    LpCapacityError,
    LpParseError,
    LpProblem,
    LpStatus,
    export_lp_text,
    parse_lp_text,
    solve_feasibility,
    validate_farkas,
)
from barrierlp.polyring import monomial_basis
from barrierlp.specio import load_problem
from barrierlp.verifier import (
    _farkas_acceptable,
    assemble_single_lp,
    default_deg_p,
    default_deg_s,
    support_ring,
)
from test_verifier import STALL_WINDOW_DOC


def test_box_is_feasible():
    lp = LpProblem(1)
    lp.add_ub({0: 1.0}, 1.0)
    lp.add_ub({0: -1.0}, 0.0)
    out = solve_feasibility(lp)
    assert out.status is LpStatus.FEASIBLE
    assert lp.max_violation(out.point) <= 1e-8


def test_contradictory_pair_is_infeasible():
    lp = LpProblem(1)
    lp.add_ub({0: 1.0}, -1.0)
    lp.add_ub({0: -1.0}, -1.0)
    out = solve_feasibility(lp)
    assert out.status is LpStatus.INFEASIBLE
    max_coef, rhs = validate_farkas(lp, out.farkas)
    assert max_coef <= 1e-9
    assert rhs <= -1e-9


def test_dd_system_with_negative_diagonal_is_infeasible():
    # Non-negative ray weights force Q11 >= 0; pinning Q11 = -1 contradicts them.
    alloc = DecisionAllocator()
    v = fresh_dsos_poly(alloc, monomial_basis(1, 1), MonomialCodes(1, 2))
    lp = LpProblem(alloc.count)
    lp.add_rows(ub=[dd_linear_constraints(v)])
    lp.add_eq(v.entries()[(0, 0)], -1.0)
    out = solve_feasibility(lp)
    assert out.status is LpStatus.INFEASIBLE
    max_coef, rhs = validate_farkas(lp, out.farkas)
    assert max_coef <= 1e-9
    assert rhs <= -1e-9


def test_equalities_handled_natively():
    lp = LpProblem(2)
    lp.add_eq({0: 1.0, 1: 1.0}, 2.0)
    lp.add_eq({0: 1.0, 1: -1.0}, 0.0)
    out = solve_feasibility(lp)
    assert out.status is LpStatus.FEASIBLE
    assert np.allclose(out.point, [1.0, 1.0], atol=1e-8)


def test_termless_contradiction_short_circuits():
    lp = LpProblem(2)
    lp.add_eq({}, 1.0)
    out = solve_feasibility(lp)
    assert out.status is LpStatus.INFEASIBLE
    max_coef, rhs = validate_farkas(lp, out.farkas)
    assert max_coef == 0.0
    assert rhs <= -1e-9

    lp = LpProblem(2)
    lp.add_ub({}, -1.0)
    out = solve_feasibility(lp)
    assert out.status is LpStatus.INFEASIBLE
    _, rhs = validate_farkas(lp, out.farkas)
    assert rhs <= -1e-9


def test_free_variable_feasibility_without_vertices():
    # Feasible set is a slab with no vertex; a point must still be found.
    lp = LpProblem(3)
    lp.add_ub({0: 1.0, 1: 1.0}, 5.0)
    lp.add_ub({0: -1.0, 1: -1.0}, -3.0)
    out = solve_feasibility(lp)
    assert out.status is LpStatus.FEASIBLE
    assert lp.max_violation(out.point) <= 1e-8


def random_lp(rng, max_vars=6, max_rows=10):
    n = rng.randrange(1, max_vars + 1)
    lp = LpProblem(n)
    nrows = rng.randrange(1, max_rows + 1)
    for _ in range(nrows):
        coefs = {}
        for i in range(n):
            if rng.random() < 0.6:
                # Quarter-integer coefficients are exactly representable.
                coefs[i] = rng.randrange(-8, 9) / 4.0
        coefs = {i: c for i, c in coefs.items() if c != 0.0}
        rhs = rng.randrange(-8, 9) / 4.0
        if rng.random() < 0.3:
            lp.add_eq(coefs, rhs)
        else:
            lp.add_ub(coefs, rhs)
    return lp


def assert_matches_oracle(lps):
    """Each solver status equals the exact oracle's verdict, and every
    Infeasible answer carries a certificate that revalidates."""
    n_infeasible = 0
    for trial, lp in enumerate(lps):
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
    # The suite must actually exercise both verdicts.
    assert 5 <= n_infeasible <= 45


def test_random_suite_matches_elimination_oracle():
    """50 random systems; most pivots take the full tableau update."""
    rng = random.Random(20260816)
    assert_matches_oracle(random_lp(rng) for _ in range(50))


def block_diagonal_lp(rng, nblocks):
    """nblocks small random systems on disjoint variables, at most one infeasible.

    A pivot column touches only its own block's rows and the objective row,
    so the pivots take the row-sparse update.
    """
    blocks = []
    infeasible_at = rng.randrange(2 * nblocks)  # no infeasible block half the time
    while len(blocks) < nblocks:
        block = random_lp(rng, max_vars=3, max_rows=5)
        if fm_feasible(block.eq_rows, block.ub_rows, block.nvars) == (len(blocks) != infeasible_at):
            blocks.append(block)
    lp = LpProblem(sum(block.nvars for block in blocks))
    offset = 0
    for block in blocks:
        for coefs, rhs in block.eq_rows:
            lp.add_eq({offset + i: c for i, c in coefs.items()}, rhs)
        for coefs, rhs in block.ub_rows:
            lp.add_ub({offset + i: c for i, c in coefs.items()}, rhs)
        offset += block.nvars
    return lp


def test_block_diagonal_suite_matches_elimination_oracle():
    """50 systems of 8 independent blocks; every pivot takes the row-sparse update."""
    rng = random.Random(20261018)
    assert_matches_oracle(block_diagonal_lp(rng, 8) for _ in range(50))


def chain_lp(rng):
    """Chains of singleton and doubleton equality rows plus dense rows.

    Some systems add a dense row and its opposite with a gap between their
    right-hand sides, and some add a combination of two equality rows,
    which presolve reduces to an empty row: redundant, or a contradiction
    when its right-hand side is moved.
    """
    n = rng.randrange(3, 9)
    lp = LpProblem(n)
    order = rng.sample(range(n), n)

    def coef():
        return rng.choice([-1, 1]) * rng.randrange(1, 9) / 4.0

    def dense():
        return {i: coef() for i in rng.sample(range(n), min(n, rng.randrange(3, 6)))}

    for t in range(rng.randrange(1, n)):
        # Links order[t] to the variable before it, or pins it.
        row = {order[t]: coef()}
        if t and rng.random() < 0.8:
            row[order[t - 1]] = coef()
        lp.add_eq(row, rng.randrange(-8, 9) / 4.0)
    for _ in range(rng.randrange(1, 5)):
        (lp.add_eq if rng.random() < 0.1 else lp.add_ub)(dense(), rng.randrange(-8, 9) / 4.0)
    if rng.random() < 0.4:
        row, rhs = dense(), rng.randrange(-8, 9) / 4.0
        lp.add_ub(row, rhs)
        lp.add_ub({i: -c for i, c in row.items()}, -rhs + rng.choice([-0.5, 0.5]))
    if rng.random() < 0.5:
        (c1, b1), (c2, b2) = rng.choice(lp.eq_rows), rng.choice(lp.eq_rows)
        k1, k2 = rng.randrange(1, 4), rng.choice([-2, -1, 1, 2])
        row = {i: k1 * c1.get(i, 0.0) + k2 * c2.get(i, 0.0) for i in set(c1) | set(c2)}
        lp.add_eq(row, k1 * b1 + k2 * b2 + rng.choice([0.0, 0.0, 0.5]))
    return lp


def test_presolve_suite_matches_elimination_oracle():
    """Points hold on the caller's rows, certificates pass the verifier's gate."""
    rng = random.Random(20261019)
    statuses = []
    for trial in range(80):
        lp = chain_lp(rng)
        out = solve_feasibility(lp)
        if fm_feasible(lp.eq_rows, lp.ub_rows, lp.nvars):
            assert out.status is LpStatus.FEASIBLE, "trial %d" % trial
            assert lp.max_violation(out.point) <= FEAS_TOL
        else:
            assert out.status is LpStatus.INFEASIBLE, "trial %d" % trial
            assert _farkas_acceptable(lp, out), "trial %d" % trial
        statuses.append((out.status, out.iterations == 0))
    # Both verdicts occur, with and without pivots.
    assert len(set(statuses)) == 4


def sign_lp(rng):
    """Random systems for presolve's sign rules.

    Some variables get a sign row -c x_j <= 0, a few of them twice. The
    equality rows mix forcing rows (right-hand side 0, one sign, sign columns
    only, or nearly so), singletons on sign columns with values of either
    sign, doubletons of a free and a sign column or of two sign columns, and
    dense rows; dense inequality rows follow.
    """
    n = rng.randrange(2, 9)
    lp = LpProblem(n)
    signs = rng.sample(range(n), rng.randrange(1, n + 1))
    free = [j for j in range(n) if j not in signs]

    def coef():
        return rng.choice([-1, 1]) * rng.randrange(1, 9) / 4.0

    def rhs():
        return rng.randrange(-8, 9) / 4.0

    for j in signs:
        for _ in range(1 if rng.random() < 0.8 else 2):
            lp.add_ub({j: -rng.randrange(1, 9) / 4.0}, 0.0)
    for _ in range(rng.randrange(1, 6)):
        kind = rng.randrange(5)
        if kind == 0:
            cols = rng.sample(signs, rng.randrange(1, min(3, len(signs)) + 1))
            if free and rng.random() < 0.2:
                cols.append(rng.choice(free))
            sign = rng.choice([-1.0, 1.0])
            lp.add_eq({j: sign * rng.randrange(1, 9) / 4.0 for j in cols}, 0.0)
        elif kind == 1:
            lp.add_eq({rng.choice(signs): coef()}, rhs())
        elif kind == 2 and free:
            lp.add_eq({rng.choice(free): coef(), rng.choice(signs): coef()}, rhs())
        elif kind == 3 and len(signs) > 1:
            lp.add_eq({j: coef() for j in rng.sample(signs, 2)}, rhs())
        else:
            lp.add_eq({j: coef() for j in rng.sample(range(n), min(n, 3))}, rhs())
    for _ in range(rng.randrange(0, 4)):
        lp.add_ub({j: coef() for j in rng.sample(range(n), min(n, rng.randrange(2, 5)))}, rhs())
    return lp


def test_sign_rule_suite_matches_elimination_oracle():
    """Sign rows, forcing rows and fixed sign columns: points hold on the
    caller's rows, certificates pass the verifier's gate."""
    rng = random.Random(20261020)
    statuses = []
    for trial in range(200):
        lp = sign_lp(rng)
        out = solve_feasibility(lp)
        if fm_feasible(lp.eq_rows, lp.ub_rows, lp.nvars):
            assert out.status is LpStatus.FEASIBLE, "trial %d" % trial
            assert lp.max_violation(out.point) <= FEAS_TOL, "trial %d" % trial
        else:
            assert out.status is LpStatus.INFEASIBLE, "trial %d" % trial
            assert _farkas_acceptable(lp, out), "trial %d" % trial
        statuses.append((out.status, out.iterations == 0))
    # Both verdicts occur, with and without pivots.
    assert len(set(statuses)) == 4


def test_contradiction_found_by_substitution():
    # x0 = 1 and x0 - x1 = 0 leave x1 = 2 as the empty row 0 = 1.
    lp = LpProblem(2)
    lp.add_eq({0: 1.0}, 1.0)
    lp.add_eq({0: 1.0, 1: -1.0}, 0.0)
    lp.add_eq({1: 1.0}, 2.0)
    out = solve_feasibility(lp)
    assert (out.status, out.iterations) == (LpStatus.INFEASIBLE, 0)
    max_coef, rhs = validate_farkas(lp, out.farkas)
    assert max_coef == 0.0 and rhs == -1.0
    assert _farkas_acceptable(lp, out)


def test_presolve_drops_cancellation_noise():
    # Row 1 is twice row 0. Substituting x0 = (1 - x1) / 49 into it leaves
    # 2.2e-16 * x1 = 2.2e-16 in floating point; pivoting on that entry would
    # pin x1 = 1 and contradict x1 <= 0.5.
    lp = LpProblem(2)
    lp.add_eq({0: 49.0, 1: 1.0}, 1.0)
    lp.add_eq({0: 98.0, 1: 2.0}, 2.0)
    lp.add_ub({1: 1.0}, 0.5)
    lp.add_ub({1: -1.0}, 0.5)
    out = solve_feasibility(lp)
    assert out.status is LpStatus.FEASIBLE
    assert lp.max_violation(out.point) <= FEAS_TOL


def test_presolve_leaves_the_callers_rows_alone():
    rng = random.Random(5)
    for _ in range(20):
        lp = chain_lp(rng)
        before = copy.deepcopy(lp)
        solve_feasibility(lp)
        assert lp == before


def test_determinism_status_and_pivot_count():
    rng = random.Random(4)
    for _ in range(10):
        lp = random_lp(rng)
        a = solve_feasibility(lp)
        b = solve_feasibility(lp)
        assert a.status is b.status
        assert a.iterations == b.iterations


def test_iteration_limit_is_reported():
    # Three entries: presolve leaves the row to the simplex.
    lp = LpProblem(3)
    lp.add_eq({0: 1.0, 1: 1.0, 2: 1.0}, 2.0)
    out = solve_feasibility(lp, max_iters=0)
    assert out.status is LpStatus.ITERATION_LIMIT
    assert out.point is None and out.farkas is None
    assert out.exit == "max_iters"


def test_eroded_columns_end_in_a_gated_exit():
    # x_r + 1e-9 x_0 = 1 and x_r <= 1/2 for r = 1..150, with every x >= 0:
    # feasible only for 5e8 <= x_0 <= 1e9. Once each x_r sits at 1/2, x_0 lowers
    # the artificial sum, but its entries are at the pivot tolerance, so it
    # cannot enter and the run ends eroded, without a point or multipliers.
    m = 150
    lp = LpProblem(m + 1)
    lp.add_ub({0: -1.0}, 0.0)
    for r in range(1, m + 1):
        lp.add_ub({r: -1.0}, 0.0)
        lp.add_eq({r: 1.0, 0: 1e-9}, 1.0)
        lp.add_ub({r: 1.0}, 0.5)
    out = solve_feasibility(lp)
    assert (out.status, out.exit) == (LpStatus.ITERATION_LIMIT, "eroded")
    assert out.iterations == m


def test_singular_final_basis_ends_eroded(monkeypatch):
    # The answer comes from one solve with the final basis; a basis that
    # the solve finds singular ends the run eroded, without a point.
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    out = solve_feasibility(repeated_rows_lp())
    assert (out.status, out.exit, out.iterations) == (LpStatus.ITERATION_LIMIT, "eroded", 25)
    assert out.point is None and out.farkas is None


def test_point_check_carries_a_nan():
    # Python's max() drops a NaN row and would report 0.0.
    lp = LpProblem(2)
    lp.add_eq({0: 1.0, 1: 1.0}, 2.0)
    lp.add_ub({0: 1.0}, 5.0)
    assert math.isnan(lp.max_violation([float("nan"), 1.0]))
    assert lp.max_violation([1.0, 1.0]) == 0.0
    assert lp.max_violation([1.0, 2.0]) == 1.0


def test_non_finite_point_ends_eroded(monkeypatch):
    # A NaN point fails no "> FEAS_TOL" test; the point check must still refuse it.
    def nan_point(red, max_iters):
        return "optimal", 1, np.full(red.cols.size, np.nan), None

    monkeypatch.setattr(lpsolve, "_phase1", nan_point)
    lp = LpProblem(3)
    lp.add_eq({0: 1.0, 1: 1.0, 2: 1.0}, 2.0)
    out = solve_feasibility(lp)
    assert (out.status, out.exit, out.iterations) == (LpStatus.ITERATION_LIMIT, "eroded", 1)
    assert out.point is None


def test_wide_lp_with_few_rows_solves():
    # The tableau bytes are the only capacity limit: 5001 columns over
    # three rows make a tableau of 4 x 10007, well within it.
    lp = LpProblem(5001)
    lp.add_eq({i: 1.0 for i in range(0, 5001, 2)}, 3.0)
    lp.add_eq({5000: 1.0, 7: -1.0}, 2.0)
    lp.add_ub({0: 1.0, 4999: 1.0}, -1.0)
    out = solve_feasibility(lp)
    assert out.status is LpStatus.FEASIBLE
    assert lp.max_violation(out.point) <= 1e-8


def test_capacity_refusal_by_tableau_bytes():
    # 9000 equality rows of three entries over 9000 variables leave presolve
    # nothing to substitute and make a 9001 x 9001 tableau, which with its
    # work array needs 1.3 GB; the refusal comes before allocation, and the
    # traced peak includes presolve's own scan.
    lp = LpProblem(9000)
    for i in range(9000):
        lp.add_eq({i: 1.0, (i + 1) % 9000: 1.0, (i + 2) % 9000: 1.0}, 0.0)
    tracemalloc.start()
    try:
        with pytest.raises(LpCapacityError):
            solve_feasibility(lp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 24


def repeated_rows_lp(nblocks=25, copies=24):
    """25 blocks of 4 variables, each summed by `copies` scaled copies of one row.

    600 equality rows over 100 variables (m >> n), four entries each, so
    presolve leaves them all to the simplex. One pivot per block zeroes the
    block's other copies exactly.
    """
    lp = LpProblem(4 * nblocks)
    for c in range(1, copies + 1):
        for b in range(nblocks):
            lp.add_eq({4 * b + i: float(c) for i in range(4)}, c * (b / 10.0 + 1.0))
    return lp


def traced_solve(lp, **kw):
    """solve_feasibility's outcome and its traced peak in bytes."""
    tracemalloc.start()
    try:
        out = solve_feasibility(lp, **kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_tableau_stores_neither_minus_nor_artificial_columns():
    # 600 x 100 equality rows: the split tableau with artificials,
    # (m+1) x (2n+m+1) plus its work array, would take 7.7 MB; the stored
    # (m+1) x (n+1) one takes 0.97 MB, and storing either dropped block
    # again would at least double it.
    lp = repeated_rows_lp()
    m, n = lp.nrows, lp.nvars
    split_bytes = 2 * (m + 1) * (2 * n + m + 1) * 8
    out, peak = traced_solve(lp)
    assert out.status is LpStatus.FEASIBLE
    assert lp.max_violation(out.point) <= 1e-8
    assert peak < split_bytes / 5


def test_refutation_refactorizes_inside_the_tableau_memory():
    # One contradictory copy of block 0's row makes the program infeasible.
    # The multipliers come from the final basis: 25 basic columns over the
    # rows whose artificial has left, not an m x m basis matrix, so the
    # traced peak stays under the same bound as the feasible program's.
    lp = repeated_rows_lp()
    lp.add_eq({i: 1.0 for i in range(4)}, 2.0)
    m, n = lp.nrows, lp.nvars
    split_bytes = 2 * (m + 1) * (2 * n + m + 1) * 8
    out, peak = traced_solve(lp)
    assert out.status is LpStatus.INFEASIBLE
    assert out.iterations == 25
    assert _farkas_acceptable(lp, out)
    assert peak < split_bytes / 5


def test_memory_does_not_grow_with_pivots():
    # STALL_WINDOW_DOC's a=0 program (108 x 56) stalls after 409 pivots.
    # Nothing is kept per pivot, so the long run peaks where one pivot does.
    spec = load_problem(STALL_WINDOW_DOC)
    ring = support_ring(spec.candidates[0])
    deg_s = default_deg_s(ring.b)
    lp, _ = assemble_single_lp(ring, 0, deg_s, default_deg_p(ring, 0, deg_s))
    one, peak_one = traced_solve(lp, max_iters=1)
    full, peak_full = traced_solve(lp)
    assert (one.exit, one.iterations) == ("max_iters", 1)
    assert (full.exit, full.iterations) == ("stall_window", 409)
    assert peak_full <= peak_one + 8 * 1024


def test_nonfinite_rejected_at_load():
    lp = LpProblem(2)
    with pytest.raises(ValueError):
        lp.add_ub({0: float("nan")}, 0.0)
    with pytest.raises(ValueError):
        lp.add_eq({0: 1.0}, float("inf"))


def test_row_keys_must_be_integers():
    # int() would truncate 1.7 to column 1 and then let True overwrite it.
    lp = LpProblem(3)
    for coefs in ({1.7: 2.0, True: 1.0}, {True: 1.0}, {1.0: 1.0}, {"1": 1.0}):
        with pytest.raises(ValueError, match="not an integer"):
            lp.add_eq(coefs, 0.0)
        with pytest.raises(ValueError, match="not an integer"):
            lp.add_ub(coefs, 0.0)
    lp.add_eq({np.int64(1): 2.0, 2: 1.0}, 0.0)
    assert lp.eq_rows == [({1: 2.0, 2: 1.0}, 0.0)] and lp.ub_rows == []


def test_export_empty_problem_round_trips():
    lp = LpProblem(0)
    text = export_lp_text(lp)
    assert "Minimize" in text and "Subject To" in text and "End" in text
    again = parse_lp_text(text)
    assert again == lp


def test_export_single_row():
    lp = LpProblem(2)
    lp.add_ub({0: 1.0, 1: 2.0}, 3.0)
    text = export_lp_text(lp)
    assert "+1 z1 +2 z2 <= 3" in text
    assert " z1 free" in text and " z2 free" in text
    assert parse_lp_text(text) == lp


def test_export_round_trip_random():
    rng = random.Random(77)
    for _ in range(25):
        lp = random_lp(rng)
        again = parse_lp_text(export_lp_text(lp))
        assert again == lp


def test_export_termless_row_round_trips():
    lp = LpProblem(2)
    lp.add_eq({}, 0.5)
    lp.add_ub({0: 1.0}, 1.0)
    again = parse_lp_text(export_lp_text(lp))
    assert again == lp


def test_export_writes_file(tmp_path):
    lp = LpProblem(1)
    lp.add_ub({0: 1.0}, 1.0)
    dest = tmp_path / "prob.lp"
    text = export_lp_text(lp, str(dest))
    assert dest.read_text() == text


def test_parse_rejects_nonzero_objective():
    bad = "Minimize\n obj: +1 z1\nSubject To\nBounds\n z1 free\nEnd\n"
    with pytest.raises(LpParseError):
        parse_lp_text(bad)


def test_parse_rejects_unknown_variable():
    bad = "Minimize\n obj:\nSubject To\n c1: +1 w <= 1\nBounds\n z1 free\nEnd\n"
    with pytest.raises(LpParseError):
        parse_lp_text(bad)


def test_export_extreme_values_round_trip():
    lp = LpProblem(3)
    lp.add_eq({0: 5e-324, 2: 1.7976931348623157e+308}, 1e-300)
    lp.add_eq({}, -0.0)
    lp.add_ub({1: -1e-300}, 5e-324)
    lp.add_ub({0: 1.0}, -1.7976931348623157e+308)
    lp.add_ub({2: 2.0}, -0.0)
    text = export_lp_text(lp)
    assert " c2: +0 z1 = -0\n" in text and " c5: +2 z3 <= -0\n" in text
    again = parse_lp_text(text)
    assert again == lp and export_lp_text(again) == text
    _, _, val, rhs, _ = again.arrays()
    assert val.tolist() == [5e-324, 1.7976931348623157e+308, -1e-300, 1.0, 2.0]
    # == does not tell -0.0 from 0.0; the sign bit must survive too.
    assert [math.copysign(1.0, b) for b in rhs.tolist()] == [1.0, -1.0, 1.0, -1.0, -1.0]


EXPORTED = ("\\ feasibility program: 2 variables, 1 equalities, 1 inequalities\n"
            "Minimize\n obj:\nSubject To\n c1: +3 z1 = 1\n c2: +1 z1 -2 z2 <= 4\n"
            "Bounds\n z1 free\n z2 free\nEnd\n")


def test_parse_reads_what_export_writes():
    lp = LpProblem(2)
    lp.add_eq({0: 3.0}, 1.0)
    lp.add_ub({0: 1.0, 1: -2.0}, 4.0)
    assert export_lp_text(lp) == EXPORTED
    assert parse_lp_text(EXPORTED) == lp
    # Whole-line comments may stand anywhere.
    assert parse_lp_text(EXPORTED.replace("Bounds\n", "\\ bounds\nBounds\n")) == lp


@pytest.mark.parametrize("old, new", [
    pytest.param("Minimize", "minimize", id="lowercase-minimize"),
    pytest.param("Subject To", "subject to", id="lowercase-subject-to"),
    pytest.param("End", "end", id="lowercase-end"),
    pytest.param("Minimize", "min", id="min"),
    pytest.param("Subject To", "st", id="st"),
    pytest.param("+1 z1 -2 z2", "+1 z1\n -2 z2", id="row-split-over-two-lines"),
    pytest.param(" c1: +3", " +3", id="unlabelled-row"),
    pytest.param("+3 z1", "- -3 z1", id="repeated-signs"),
    pytest.param("+3 z1", "+1 z1 +2 z1", id="repeated-term"),
    pytest.param("+3 z1", "+\u0663 z1", id="arabic-indic-coefficient"),
    pytest.param("= 1", "= \u0661", id="arabic-indic-rhs"),
    pytest.param("+3 z1", "+1_0 z1", id="underscore-in-number"),
    pytest.param("= 1", "= inf", id="inf"),
    pytest.param("+3 z1", "+1e999 z1", id="beyond-a-double"),
    pytest.param("<= 4\n", "<= 4\n c3: +1 z2 = 0\n", id="equality-after-inequality"),
    pytest.param(" c2:", " c3:", id="rows-out-of-sequence"),
    pytest.param(" z2 free", " z2 free\n z2 free", id="variable-declared-twice"),
    pytest.param("End\n", "End", id="no-final-newline"),
    # Fails at once: a backtracking match that split each integer's digits
    # in every way would not finish.
    pytest.param(" c1: +3 z1 = 1", " c1:" + " +12345 z1" * 60 + " =", id="long-row-without-rhs"),
])
def test_parse_rejects_text_export_never_writes(old, new):
    assert EXPORTED.count(old) == 1
    with pytest.raises(LpParseError):
        parse_lp_text(EXPORTED.replace(old, new))


def test_farkas_validator_rejects_negative_ub_multiplier():
    lp = LpProblem(1)
    lp.add_ub({0: 1.0}, 1.0)
    with pytest.raises(ValueError):
        validate_farkas(lp, FarkasCertificate(eq_mults=[], ub_mults=[-1.0]))
