"""Self-tests of the benchmark harness.

    python3 perfbench/test_bench.py        (or: python3 -m pytest perfbench/test_bench.py)
"""

from __future__ import annotations

import dataclasses
import sys
from types import SimpleNamespace

import numpy as np

import run

run.import_program()

import barrierlp.verifier as V  # noqa: E402
from barrierlp import (  # noqa: E402
    CandidateCbf, ControlAffineSystem, PolyMatrix, Polynomial, verify_multi, verify_single,
)
from spans import Tracer, layer_totals  # noqa: E402
from verdicts import Result, drift, judge, verdict_holds  # noqa: E402
from workloads import Problem, sources  # noqa: E402


def _integrator():
    one = Polynomial.one(1)
    x = Polynomial.variable(0, 1)
    sys_ = ControlAffineSystem(f=PolyMatrix([[Polynomial.zero(1)]]), g=PolyMatrix([[one]]))
    flag = CandidateCbf.from_system(one - x * x, sys_)
    far = CandidateCbf.from_system(x * x - 4.0 * one, sys_)
    return sys_, flag, far


def test_inputs_are_deterministic_per_seed():
    docs = lambda workload, seed: [(s.pid, s.document) for s in sources(workload, seed)]
    assert docs("corpus", 7) == docs("corpus", 7)
    assert docs("corpus", 7) != docs("corpus", 8)  # the seed orders a pass
    assert sorted(docs("corpus", 7)) == sorted(docs("corpus", 8))
    assert sorted(docs("corpus", 7)) != sorted(docs("corpus-holdout", 7))
    assert docs("fleet", 3) == docs("fleet", 3)
    assert sorted(docs("fleet", 3)) == sorted(docs("fleet", 4))


def test_checker_rejects_perturbed_certificates():
    sys_, flag, far = _integrator()
    single = verify_single(sys_, flag)
    empty = verify_multi(sys_, [flag, far])
    assert verdict_holds(single, sys_, [flag])
    assert verdict_holds(empty, sys_, [flag, far])
    rng = np.random.default_rng(11)
    rejected = 0
    for trial in range(100):
        outcome, cands = (single, [flag]) if trial % 2 else (empty, [flag, far])
        cert = outcome.certificate
        # The first Gram of a single certificate multiplies Lfb = 0 here,
        # so only the second one is load-bearing.
        gi = 1 if cert.kind == "single" else int(rng.integers(len(cert.grams)))
        grams = [np.array(G, copy=True) for G in cert.grams]
        i, j = (int(v) for v in rng.integers(grams[gi].shape[0], size=2))
        grams[gi][i, j] += 1e-3
        mutated = dataclasses.replace(outcome, certificate=dataclasses.replace(cert, grams=grams))
        if not verdict_holds(mutated, sys_, cands):
            rejected += 1
    assert rejected >= 95, "only %d/100 rejected" % rejected


def test_multi_verified_needs_refuted_emptiness():
    sys_, flag, _ = _integrator()
    x = Polynomial.variable(0, 1)
    inner = CandidateCbf.from_system(x * x - 0.25 * Polynomial.one(1), sys_)
    out = verify_multi(sys_, [flag, inner])
    assert out.verdict.value == "MultiVerified"
    assert verdict_holds(out, sys_, [flag, inner])
    out.lps[-1] = dataclasses.replace(out.lps[-1], farkas_valid=False)
    res = judge("p", 0.1, out, None, sys_, [flag, inner])
    assert res.failed and res.rejected and not res.affirmative


def test_raised_exception_counts_as_failure():
    sys_, flag, _ = _integrator()
    broken = Problem("broken", None, [flag])
    good = Problem("good", sys_, [flag])
    (results,) = run.run_passes([broken, good], 0.0)
    assert results[0].failed and results[0].verdict.startswith("Error:")
    assert results[0].lps is None
    assert results[1].affirmative and not results[1].failed


def test_drift_counts_verdicts_and_pivots():
    lp = lambda status, pivots: SimpleNamespace(status=status, iterations=pivots)
    pinned = {"a": "Verified|I326 F256", "b": "Error:ValueError", "c": "Inconclusive|L6748"}
    a = Result("a", 0.0, "Verified", lps=[lp("Infeasible", 326), lp("Feasible", 250)])
    b = Result("b", 0.0, "Error:ValueError")
    c = Result("c", 0.0, "Verified", lps=[lp("Infeasible", 30), lp("Feasible", 20)])
    unpinned = Result("d", 0.0, "Verified", lps=[])
    assert a.fingerprint() == "Verified|I326 F250"
    assert drift([a, b, c, unpinned], pinned) == (3, 1, 3)


def test_tracer_restores_the_program_and_counts_pivots():
    sys_, flag, _ = _integrator()
    original = V.solve_feasibility
    with Tracer() as tracer:
        assert V.solve_feasibility is not original
        tracer.problem = "0:p"
        out = verify_single(sys_, flag)
    assert V.solve_feasibility is original
    totals = layer_totals(tracer.spans, 1, out.seconds, 1)
    assert totals["simplex.pivots"] == sum(r.iterations for r in out.lps)
    assert totals["simplex.calls"] == len(out.lps)
    extract = [s for s in tracer.spans if s.name == "extract_single_certificate"]
    residual = [s for s in tracer.spans if s.name == "certificate_residual"]
    assert residual and residual[0].parent == extract[0].sid


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_") and callable(f)]
    for name, fn in tests:
        fn()
        print("ok", name)
    sys.exit(0)
