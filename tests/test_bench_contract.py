"""The names the benchmark under perfbench/ takes from the program still exist.

perfbench/test_bench.py runs only with the benchmark, so a rename in the
program would otherwise surface there first.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import barrierlp.verifier as V

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_layers_are_verifier_attributes():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
