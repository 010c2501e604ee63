"""The names the benchmark under perfbench/ takes from the program still exist.

perfbench/test_bench.py runs only with the benchmark, so a rename in the
program would otherwise surface there first.
"""

import ast
import collections
import importlib.util
import inspect
from pathlib import Path

import barrierlp.verifier as V
from barrierlp.lpsolve import LpProblem
from barrierlp.satbench import CwParams, build_cw_system, build_inspection_cbf

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_layers_are_verifier_attributes():
    spans = load_spans()
    assert spans.LAYER_OF
    assert [name for name in spans.LAYER_OF if not hasattr(V, name)] == []


def test_benchmark_imports_from_the_program_exist():
    checked, missing = set(), []
    for source in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("barrierlp"):
                module = importlib.import_module(node.module)
                checked.add(source.name)
                missing += [(source.name, node.module, alias.name) for alias in node.names
                            if not hasattr(module, alias.name)]
    assert "verdicts.py" in checked
    assert missing == []


def test_certificate_residual_takes_three_positional_arguments():
    from barrierlp import certificate_residual

    inspect.signature(certificate_residual).bind(None, None, None)


def test_verification_calls_the_traced_assembly_names(monkeypatch):
    # The traced run times assembly by replacing these verifier attributes,
    # so the drivers must call them by name, not a private helper behind them.
    calls = collections.Counter()
    for name in ("assemble_single_lp", "assemble_emptiness_lp", "solve_feasibility"):
        def counted(*args, _fn=getattr(V, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(V, name, counted)
    params = CwParams(L=2)
    sys = build_cw_system(params)
    out = V.verify_multi(sys, [build_inspection_cbf(params, i, sys) for i in range(2)])
    assert out.verdict is V.Verdict.MULTI_VERIFIED
    # Two emptiness degrees; the relabelled chasers share the a=0 and a=1 programs.
    assert calls == {"assemble_single_lp": 2, "assemble_emptiness_lp": 2, "solve_feasibility": 4}


def test_traced_row_readers_count_the_arrays():
    # The traced run reads each program's rows through the eq_rows and
    # ub_rows views; the untraced run never builds them.
    spans = load_spans()
    params = CwParams(L=2)
    sys = build_cw_system(params)
    cands = [build_inspection_cbf(params, i, sys) for i in range(2)]
    deg_s = V.default_deg_s(cands[0].b)
    single, _ = V.assemble_single_lp(cands[0], 0, deg_s, V.default_deg_p(cands[0], 0, deg_s),
                                     reduce_basis=True)
    emptiness, _ = V.assemble_emptiness_lp(cands, 1, reduce_basis=True)
    signatures = set()
    for lp in (single, emptiness):
        row, col, val, rhs, n_eq = lp.arrays()
        shape = spans._lp_shape(lp)
        assert (shape["rows"], shape["cols"], shape["nnz"]) == (lp.nrows, lp.nvars, val.size)
        assert 0 < n_eq < lp.nrows and val.size > lp.nrows
        # The same program with its columns and its rows of each kind reversed.
        relabelled = LpProblem(lp.nvars)
        for add, rows in ((relabelled.add_eq, lp.eq_rows), (relabelled.add_ub, lp.ub_rows)):
            for coefs, beta in reversed(rows):
                add({lp.nvars - 1 - j: a for j, a in coefs.items()}, beta)
        assert relabelled != lp
        assert spans.relabel_signature(relabelled) == spans.relabel_signature(lp)
        signatures.add(spans.relabel_signature(lp))
    assert len(signatures) == 2
