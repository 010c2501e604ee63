"""Tests for the polynomial grammar, problem schema, and report writer."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from barrierlp.cli import _add_option_flags
from barrierlp.polyring import Polynomial, monomial_basis
from barrierlp.satbench import CwParams, build_cw_system, build_inspection_cbf
from barrierlp.specio import (
    PolyParseError,
    ProblemFormatError,
    load_problem,
    parse_polynomial,
    print_polynomial,
    problem_document,
    write_report,
)
from barrierlp.verifier import Verdict, VerifierOptions, verify_multi, verify_single


def test_parse_simple():
    p = parse_polynomial("1 - x^2", ["x"])
    assert p == Polynomial({(0,): 1.0, (2,): -1.0}, 1)


def test_parse_three_variables():
    p = parse_polynomial("3.5*x1^2*x2 - 0.2*x3", ["x1", "x2", "x3"])
    assert p == Polynomial({(2, 1, 0): 3.5, (0, 0, 1): -0.2}, 3)


def test_parse_unknown_variable():
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x + y", ["x"])
    assert "unknown variable 'y'" in str(err.value)
    assert err.value.column == 5


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("2x", ["x"])
    assert "implicit multiplication" in str(err.value)


def test_parse_rejects_bad_exponents():
    with pytest.raises(PolyParseError):
        parse_polynomial("x^0", ["x"])
    with pytest.raises(PolyParseError):
        parse_polynomial("x^2.5", ["x"])
    with pytest.raises(PolyParseError):
        parse_polynomial("x^", ["x"])


def test_parse_rejects_empty_and_garbage():
    with pytest.raises(PolyParseError):
        parse_polynomial("", ["x"])
    with pytest.raises(PolyParseError):
        parse_polynomial("   ", ["x"])
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x + @", ["x"])
    assert "unexpected character" in str(err.value)


def test_parse_error_reports_line_and_column():
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x\n + q", ["x"])
    assert err.value.line == 2
    assert err.value.column == 4


@pytest.mark.parametrize("text, message, line, column", [
    # An error on line 3, after two newlines.
    ("x +\n  y\n  + q", "unknown variable 'q'", 3, 5),
    # A bad character after leading blanks is placed on the character.
    ("   @x", "unexpected character '@'", 1, 4),
    ("x\n  $ y", "unexpected character '$'", 2, 3),
    # An end-of-input error is placed just after the last token, not after
    # the trailing blanks.
    ("x + y*   ", "expected a variable", 1, 7),
    ("x^2 -  \n  ", "expected a term", 1, 6),
    # Numbers and exponents are ASCII digits; other decimal digits are bad characters.
    ("\u0663*x^\u0662 + \u0661", "unexpected character '\u0663'", 1, 1),
    ("x +\n  y^\u0662", "unexpected character '\u0662'", 2, 5),
])
def test_parse_error_positions(text, message, line, column):
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(text, ["x", "y"])
    assert str(err.value) == "%s (line %d, column %d)" % (message, line, column)
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_whitespace_and_unit_exponent():
    a = parse_polynomial(" x^1 * y ", ["x", "y"])
    b = parse_polynomial("x*y", ["x", "y"])
    assert a == b


def test_parse_merges_repeated_monomials():
    p = parse_polynomial("x + x", ["x"])
    assert p == Polynomial({(1,): 2.0}, 1)
    q = parse_polynomial("x - x", ["x"])
    assert q.is_zero()


def test_parse_scientific_notation():
    p = parse_polynomial("1e-3*x + 2.5E+2", ["x"])
    assert p.terms[(1,)] == 1e-3
    assert p.terms[(0,)] == 250.0


def test_parse_repeated_variable_powers_accumulate():
    p = parse_polynomial("x*x^2", ["x"])
    assert p == Polynomial({(3,): 1.0}, 1)


def test_print_zero_and_constants():
    assert print_polynomial(Polynomial.zero(2)) == "0"
    assert print_polynomial(Polynomial.constant(-1.5, 1), ["x"]) == "-1.5"


def test_print_parse_round_trip_random():
    rng = np.random.default_rng(17)
    names = ["x", "y", "z"]
    basis = monomial_basis(3, 3)
    for _ in range(500):
        k = rng.integers(1, 6)
        picks = rng.choice(len(basis), size=k, replace=False)
        terms = {}
        for idx in picks:
            coef = float(rng.normal()) * 10 ** float(rng.integers(-3, 4))
            terms[basis[idx]] = coef
        p = Polynomial(terms, 3)
        text = print_polynomial(p, names)
        back = parse_polynomial(text, names)
        assert back == p, text


def minimal_doc():
    return {
        "schema": 1,
        "variables": ["x"],
        "drift": ["0"],
        "input_matrix": [["1"]],
        "candidates": ["1 - x^2"],
    }


def test_load_minimal_problem():
    spec = load_problem(minimal_doc())
    assert spec.variables == ["x"]
    assert spec.inputs == ["u1"]
    assert spec.system.n == 1 and spec.system.m == 1
    assert spec.candidates[0].b == Polynomial({(0,): 1.0, (2,): -1.0}, 1)
    # defaults resolved
    assert tuple(spec.options.a_values) == (0, 1)


def test_load_problem_accepts_json_text():
    spec = load_problem(json.dumps(minimal_doc()))
    assert spec.system.m == 1


def test_load_problem_missing_field_paths():
    doc = minimal_doc()
    del doc["input_matrix"]
    with pytest.raises(ProblemFormatError) as err:
        load_problem(doc)
    assert err.value.path == "input_matrix"

    doc = minimal_doc()
    doc["drift"] = ["0", "0"]
    with pytest.raises(ProblemFormatError) as err:
        load_problem(doc)
    assert err.value.path == "drift"


@pytest.mark.parametrize("names, index", [
    (["x", "2"], 1),  # would read as the constant 2
    (["y z"], 0),  # no polynomial could name it
    (["x1", "1x"], 1),
    (["x", ""], 1),
    (["x", "x'"], 1),
])
def test_load_problem_rejects_names_the_grammar_cannot_use(names, index):
    doc = minimal_doc()
    doc["variables"] = names
    doc["drift"] = ["0"] * len(names)
    doc["input_matrix"] = [["1"]] * len(names)
    with pytest.raises(ProblemFormatError) as err:
        load_problem(doc)
    assert err.value.path == "variables[%d]" % index
    assert repr(names[index]) in str(err.value)


def test_load_problem_bad_entry_path():
    doc = minimal_doc()
    doc["input_matrix"] = [["1 + q"]]
    with pytest.raises(ProblemFormatError) as err:
        load_problem(doc)
    assert err.value.path == "input_matrix[0][0]"
    assert "unknown variable" in str(err.value)


def test_repeated_texts_load_term_for_term_as_parsed_alone():
    """Each distinct text is parsed once per document; every field equals its own parse."""
    params = CwParams(L=2)
    system = build_cw_system(params)
    doc = problem_document(system, [build_inspection_cbf(params, i, system) for i in range(2)])
    texts = [s for row in doc["input_matrix"] for s in row]
    assert texts.count("0") > len(texts) // 2
    spec = load_problem(doc)
    names = doc["variables"]
    fields_ = [(spec.system.f[r, 0], s) for r, s in enumerate(doc["drift"])]
    fields_ += [(spec.system.g[r, c], s) for r, row in enumerate(doc["input_matrix"])
                for c, s in enumerate(row)]
    fields_ += [(cand.b, s) for cand, s in zip(spec.candidates, doc["candidates"])]
    for poly, text in fields_:
        alone = parse_polynomial(text, names)
        assert list(poly.terms.items()) == list(alone.terms.items()) and poly.nvars == alone.nvars
    assert spec.system == system


def test_bad_repeated_entry_names_its_first_path():
    doc = {"schema": 1, "variables": ["x", "y"], "drift": ["y", "x^0.5"],
           "input_matrix": [["x^0.5"], ["x^0.5"]], "candidates": ["x^0.5"]}
    with pytest.raises(ProblemFormatError) as err:
        load_problem(doc)
    assert err.value.path == "drift[1]"
    assert str(err.value).endswith("got '0.5' (line 1, column 3)")
    # A good text parsed earlier does not hide a bad one later.
    doc.update(drift=["1 + x", "1 + x"], input_matrix=[["1 + x"], ["1 + q"]],
               candidates=["1 + x"])
    with pytest.raises(ProblemFormatError) as err:
        load_problem(doc)
    assert err.value.path == "input_matrix[1][0]"
    assert str(err.value).endswith("unknown variable 'q' (line 1, column 5)")


def test_load_problem_rejects_unknown_option_and_schema():
    doc = minimal_doc()
    doc["options"] = {"degree": 3}
    with pytest.raises(ProblemFormatError) as err:
        load_problem(doc)
    assert err.value.path == "options.degree"

    doc = minimal_doc()
    doc["schema"] = 2
    with pytest.raises(ProblemFormatError):
        load_problem(doc)


def test_load_problem_options_resolved():
    doc = minimal_doc()
    doc["options"] = {"a_values": [1], "deg_s": [2], "archimedean_C": 4}
    spec = load_problem(doc)
    assert tuple(spec.options.a_values) == (1,)
    assert list(spec.options.deg_s) == [2]
    assert spec.options.archimedean_C == 4
    doc["options"]["parallel"] = False
    with pytest.raises(ProblemFormatError) as err:
        load_problem(doc)
    assert str(err.value) == "options.parallel: unknown option"


def test_load_problem_options_are_checked_by_verifier_options():
    doc = minimal_doc()
    doc["options"] = {"deg_s": None, "deg_p": None, "emptiness_deg_s": None,
                      "archimedean_C": None, "a_values": [0], "max_iters": 7}
    assert load_problem(doc).options == VerifierOptions(a_values=(0,), max_iters=7)
    for options, path, message in [
        ({"max_iters": None}, "options.max_iters", "expected an integer"),
        ({"reduce_basis": True}, "options.reduce_basis", "unknown option"),
        ({"a_values": None}, "options.a_values", "expected a list"),
        ({"deg_s": [True]}, "options.deg_s[0]", "expected an integer"),
        ({"deg_s": [1, 0]}, "options.deg_s", "must be non-decreasing"),
        ({"archimedean_C": 0}, "options.archimedean_C", "must be at least 1"),
    ]:
        doc["options"] = options
        with pytest.raises(ProblemFormatError) as err:
            load_problem(doc)
        assert (err.value.path, str(err.value)) == (path, "%s: %s" % (path, message))


def test_option_schema_matches_verifier_options():
    # Every CLI option flag sets one of the settable fields, and each field has one.
    names = {f.name for f in dataclasses.fields(VerifierOptions)}
    parser = argparse.ArgumentParser()
    _add_option_flags(parser)
    dests = [a.dest for a in parser._actions if a.dest != "help"]
    assert sorted(dests) == sorted(names) and len(names) == 6


def test_load_problem_deterministic():
    a = load_problem(minimal_doc())
    b = load_problem(minimal_doc())
    assert a.system.f[0, 0] == b.system.f[0, 0]
    assert a.candidates[0].b == b.candidates[0].b
    assert a.options == b.options


def test_satellite_document_round_trip():
    params = CwParams(L=2)
    sys = build_cw_system(params)
    cands = [build_inspection_cbf(params, i, sys) for i in range(2)]
    doc = problem_document(sys, cands)
    spec = load_problem(doc)
    assert spec.system.n == 12 and spec.system.m == 6
    for r in range(12):
        assert spec.system.f[r, 0] == sys.f[r, 0]
        for c in range(6):
            assert spec.system.g[r, c] == sys.g[r, c]
    for got, want in zip(spec.candidates, cands):
        assert got.b == want.b
        assert got.lfb == want.lfb


def single_integrator_spec():
    return load_problem(minimal_doc())


def test_report_verified_json():
    spec = single_integrator_spec()
    out = verify_single(spec.system, spec.candidates[0], spec.options)
    text = write_report(out, fmt="json")
    doc = json.loads(text)
    assert doc["verdict"] == "Verified"
    assert doc["certificate"] is not None
    assert doc["certificate"]["residual"] <= 1e-6
    assert doc["lps"][0]["status"] == "Feasible"
    k = doc["certificate"]["gram_dims"][0]
    assert len(doc["certificate"]["grams"][0]) == k * k


def test_report_inconclusive_has_null_certificate():
    doc = {
        "schema": 1,
        "variables": ["x"],
        "drift": ["-1"],
        "input_matrix": [["0"]],
        "candidates": ["x"],
    }
    spec = load_problem(doc)
    out = verify_single(spec.system, spec.candidates[0], spec.options)
    report = json.loads(write_report(out))
    assert report["verdict"] == "Inconclusive"
    assert report["certificate"] is None
    # The origin refutes b = x: its box, and no program solved.
    assert report["lps"] == [] and len(out.schedule["entries"]) == 2
    cex = report["counterexample"]
    assert (cex["centre"], cex["fixed"], cex["channels"]) == (["0x0.0p+0"], [], [])
    assert cex["radius"] == "0x1.0000000000000p-30" and cex["lfb_upper"] < -0.99


def test_report_emptiness_residual():
    doc = minimal_doc()
    doc["candidates"] = ["1 - x^2", "x^2 - 4"]
    spec = load_problem(doc)
    out = verify_multi(spec.system, spec.candidates, spec.options)
    report = json.loads(write_report(out))
    assert report["verdict"] == "EmptinessCertified"
    assert report["certificate"]["residual"] <= 1e-6
    assert "singles" in report


def test_report_deterministic_flag_zeroes_timings():
    spec = single_integrator_spec()
    out = verify_single(spec.system, spec.candidates[0], spec.options)
    a = write_report(out, deterministic=True)
    doc = json.loads(a)
    assert doc["seconds"] == 0.0
    assert all(r[t] == 0.0 for r in doc["lps"] for t in ("seconds", "assemble_s", "gate_s"))
    # Without the flag every phase of the solved program shows its time; the
    # Feasible one's gate_s times its extraction and gates.
    timed = json.loads(write_report(out))["lps"]
    assert timed[-1]["status"] == "Feasible"
    assert all(r["seconds"] > 0.0 and r["assemble_s"] > 0.0 for r in timed)
    assert timed[-1]["gate_s"] > 0.0
    # two serializations of the same outcome are byte-identical
    assert a == write_report(out, deterministic=True)


def test_joint_text_report_records_farkas_validity_at_both_levels(monkeypatch):
    import barrierlp.verifier as verifier

    # The origin refutes the first candidate, x, before its schedule runs;
    # without the counterexample search its programs run and are refuted.
    monkeypatch.setattr(verifier, "refute", lambda cand, ring, searched: None)
    doc = minimal_doc()
    doc["drift"] = ["-1"]
    doc["input_matrix"] = [["0"]]
    doc["candidates"] = ["x", "1 - x^2"]
    spec = load_problem(doc)
    out = verify_multi(spec.system, spec.candidates, spec.options)
    records = out.lps + [r for s in out.singles for r in s.lps]
    # Every program here is refuted, the per-candidate ones included. The
    # first candidate fails, which fixes the verdict, so the second is skipped.
    assert len(out.singles) == 1 and out.singles[0].lps and out.skipped == [1]
    assert out.lps and all(r.farkas_valid is not None for r in records)
    lines = write_report(out, fmt="text", deterministic=True).splitlines()
    shown = [line for line in lines if line.lstrip().startswith("[")]
    assert len(shown) == len(records)
    for line, r in zip(shown, records):
        assert line.endswith("exit=%s  farkas_valid=%s" % (r.exit, r.farkas_valid))
    assert lines[-1] == "candidate 1: skipped"


def test_report_text_format():
    spec = single_integrator_spec()
    out = verify_single(spec.system, spec.candidates[0], spec.options)
    text = write_report(out, fmt="text")
    assert "verdict: Verified" in text
    assert "certificate: single" in text
    with pytest.raises(ValueError):
        write_report(out, fmt="yaml")


def test_report_written_to_file(tmp_path):
    spec = single_integrator_spec()
    out = verify_single(spec.system, spec.candidates[0], spec.options)
    dest = tmp_path / "report.json"
    text = write_report(out, destination=str(dest))
    assert dest.read_text() == text
