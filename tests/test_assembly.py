"""Array assembly of the polynomial identities against the dict reference assembler.

Every program's equality rows must come out as tests/_oracles.py's reference
assembler writes them: same rows in the same order, same columns in
ascending order, bit-equal right-hand sides (-0.0 where a monomial has no
fixed term). A coefficient may differ only through the order in which its
terms were summed: by at most 1e-15 times the sum of their magnitudes. (Its
relative difference can be larger where the terms cancel: the reference
sums h1 before multiplying by Lfb, the arrays distribute the product.)
"""

import importlib.util
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import _oracles as ref
from barrierlp import load_problem
from barrierlp.affinegram import (
    DecisionAllocator,
    MonomialCodes,
    coefficient_system,
    fresh_free_poly,
    linear_sum,
    mul_fixed,
)
from barrierlp.polyring import Polynomial, grlex_key
from barrierlp.satbench import CwParams, build_cw_system, build_inspection_cbf
from barrierlp.verifier import (
    VerifierOptions,
    _emptiness_schedule,
    _resolved_single_schedule,
    assemble_emptiness_lp,
    assemble_single_lp,
    support_ring,
)
from test_verifier import PINNED_LP_DIGESTS, flagship_program

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def corpus_documents(count):
    """The first count documents of the benchmark's corpus generator."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    rng = np.random.default_rng(workloads.CORPUS_SEED)
    return [workloads.corpus_document(rng) for _ in range(count)]


def assert_rows_match(rows, identity, magnitudes, fixed):
    """rows are those of identity + fixed == 0 as the reference writes them."""
    monos = sorted(set(identity) | set(fixed.terms), key=grlex_key)
    expected = ref.coefficient_system(identity, fixed)
    assert len(rows) == len(expected)
    for mono, (coefs, rhs), (want, want_rhs) in zip(monos, rows, expected):
        assert list(coefs) == sorted(want), mono
        assert struct.pack("<d", rhs) == struct.pack("<d", want_rhs), mono
        for col, c in coefs.items():
            assert abs(c - want[col]) <= 1e-15 * magnitudes[mono][col], (mono, col)


def assert_single_matches(lp, layout, cand):
    assert_rows_match(lp.eq_rows, ref.reference_single_identity(cand, layout),
                      ref.reference_single_identity(cand, layout, magnitude=True), layout.fixed)


def assert_emptiness_matches(lp, layout):
    assert_rows_match(lp.eq_rows, ref.reference_emptiness_identity(layout),
                      ref.reference_emptiness_identity(layout, magnitude=True), layout.fixed)


@pytest.mark.parametrize("family,degree,reduce_basis", sorted(PINNED_LP_DIGESTS))
def test_pinned_programs_match_the_reference(family, degree, reduce_basis):
    lp, layout, cand = flagship_program(family, degree, reduce_basis)
    if cand is None:
        assert_emptiness_matches(lp, layout)
    else:
        assert_single_matches(lp, layout, cand)


def test_corpus_programs_match_the_reference():
    opts = VerifierOptions()
    singles = emptiness = 0
    for doc in corpus_documents(40):
        spec = load_problem(doc)
        for c in spec.candidates:
            ring = support_ring(c, opts.reduce_basis)
            for a, ds, dp in _resolved_single_schedule(ring.cand, opts):
                lp, layout = assemble_single_lp(ring.cand, a, ds, dp, reduce_basis=True)
                assert_single_matches(lp, layout, ring.cand)
                singles += 1
        for ds in _emptiness_schedule(spec.candidates, opts)["emptiness_deg_s"]:
            lp, layout = assemble_emptiness_lp(spec.candidates, ds, reduce_basis=True)
            assert_emptiness_matches(lp, layout)
            emptiness += 1
    assert singles >= 80 and emptiness >= 40


def test_unreduced_program_matches_the_reference():
    spec = load_problem(corpus_documents(1)[0])
    c = spec.candidates[0]
    lp, layout = assemble_single_lp(c, a=1, deg_s=1, deg_p=2, reduce_basis=False)
    assert layout.p10.codes.nvars == c.sys.n
    assert_single_matches(lp, layout, c)


def test_wide_code_program_matches_the_reference():
    # The L=6 fleet's emptiness program lives in 36 variables: its codes
    # outgrow int64 and run on Python ints.
    params = CwParams(L=6)
    sys6 = build_cw_system(params)
    cands = [build_inspection_cbf(params, i, sys6) for i in range(6)]
    lp, layout = assemble_emptiness_lp(cands, 1, reduce_basis=True)
    assert (lp.nrows, lp.nvars) == (962, 259)
    assert layout.s_vars[0].expansion.mono.dtype == object
    assert_emptiness_matches(lp, layout)


def test_cancelled_monomial_keeps_a_row_only_for_a_fixed_term():
    # (c0 + c1 x)(x - x) cancels on x and x^2; the fixed part has a term on
    # x^2 only, so x keeps no row and x^2 an empty one.
    codes = MonomialCodes(1, 3)
    alloc = DecisionAllocator()
    lin = fresh_free_poly(alloc, [(0,), (1,)], codes)
    other = fresh_free_poly(alloc, [(0,)], codes)
    x = Polynomial.variable(0, 1)
    identity = linear_sum([(1.0, mul_fixed(lin, x)), (-1.0, mul_fixed(lin, x)),
                           (1.0, mul_fixed(other, x ** 3))])
    fixed = Polynomial.constant(2.0, 1) * x ** 2 + 1.0
    rows = ref.rows(coefficient_system(identity, fixed))
    assert rows == [({}, -1.0), ({}, -2.0), ({2: 1.0}, -0.0)]
    parts = [(1.0, ref.mul_fixed(ref.fold(lin), x)), (-1.0, ref.mul_fixed(ref.fold(lin), x)),
             (1.0, ref.mul_fixed(ref.fold(other), x ** 3))]
    magnitudes = ref.linear_sum([(1.0, part) for _, part in parts])
    assert_rows_match(rows, ref.linear_sum(parts), magnitudes, fixed)
