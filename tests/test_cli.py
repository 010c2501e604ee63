"""Exit-code and report-artifact tests for the command-line front end."""

import json
import os
import subprocess
import sys

import pytest

import barrierlp
from barrierlp.cli import main
from barrierlp.lpsolve import parse_lp_text
from barrierlp.specio import load_problem
from barrierlp.verifier import _run_schedule, _single_rungs, assemble_emptiness_lp


def write_problem(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def unit_disc_doc():
    return {
        "schema": 1,
        "variables": ["x"],
        "drift": ["0"],
        "input_matrix": [["1"]],
        "candidates": ["1 - x^2"],
    }


def disjoint_pair_doc():
    doc = unit_disc_doc()
    doc["candidates"] = ["1 - x^2", "x^2 - 4"]
    return doc


def overlapping_pair_doc():
    doc = unit_disc_doc()
    doc["candidates"] = ["1 - x^2", "x^2 - 0.25"]
    return doc


def negative_doc():
    return {
        "schema": 1,
        "variables": ["x"],
        "drift": ["-1"],
        "input_matrix": [["0"]],
        "candidates": ["x"],
    }


def test_verify_positive_exit_zero(tmp_path, capsys):
    path = write_problem(tmp_path, "p.json", unit_disc_doc())
    code = main(["verify", path])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "Verified"


def test_verify_negative_exit_one(tmp_path):
    path = write_problem(tmp_path, "p.json", negative_doc())
    assert main(["verify", path, "--report", str(tmp_path / "r.json")]) == 1


def test_verify_refuted_schedule_exit_one(tmp_path, capsys):
    """A boundary counterexample refutes the candidate: exit 1 with no program solved.

    Every program of its schedule, run all the same, is refuted by a valid
    Farkas certificate.
    """
    doc = {
        "schema": 1,
        "variables": ["x", "y"],
        "drift": ["0.617*x + 0.102*x*y", "-0.957*x + 0.501*y"],
        "input_matrix": [["-0.062"], ["0"]],
        "candidates": ["-0.6789401524044802 + 0.022002379019495626*x"
                       " + 1.793176723680691*y - 1.9238419234594044*x^2"
                       " - 0.7598631625574054*y^2"],
    }
    path = write_problem(tmp_path, "p.json", doc)
    assert main(["verify", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "Inconclusive"
    assert report["lps"] == [] and report["certificate"] is None
    cex = report["counterexample"]
    assert sorted(cex) == ["centre", "channels", "fixed", "lfb_upper", "radius", "refute_s",
                           "scope"]
    assert cex["scope"] == "every rung"
    assert len(cex["centre"]) == 2 and cex["lfb_upper"] < 0.0
    spec = load_problem(doc)
    records, _, _ = _run_schedule(_single_rungs(spec.candidates[0], spec.options), spec.options, {})
    assert [r.name.split()[1] for r in records] == ["a=0", "a=1"]
    for r in records:
        assert (r.status, r.exit, r.farkas_valid) == ("Infeasible", "optimal", True)


def test_verify_empty_pair_exit_two(tmp_path, capsys):
    path = write_problem(tmp_path, "p.json", disjoint_pair_doc())
    code = main(["verify", path])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "EmptinessCertified"


def test_verify_multi_exit_zero(tmp_path, capsys):
    path = write_problem(tmp_path, "p.json", overlapping_pair_doc())
    assert main(["verify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "MultiVerified"


def test_empty_check_exit_codes(tmp_path):
    empty = write_problem(tmp_path, "a.json", disjoint_pair_doc())
    nonempty = write_problem(tmp_path, "b.json", overlapping_pair_doc())
    assert main(["empty-check", empty, "--report", str(tmp_path / "r1.json")]) == 2
    assert main(["empty-check", nonempty, "--report", str(tmp_path / "r2.json")]) == 1


def test_usage_errors_exit_three(tmp_path, capsys):
    path = write_problem(tmp_path, "p.json", unit_disc_doc())
    assert main([]) == 3
    assert main(["verify"]) == 3
    assert main(["verify", path, "--bogus-flag"]) == 3
    assert main(["verify", str(tmp_path / "missing.json")]) == 3
    assert main(["bench-satellite", "--L", "0"]) == 3
    assert main(["export-lp", path, "--a", "-1"]) == 3
    assert main(["verify", path, "--max-iters", "-5"]) == 3
    doc = unit_disc_doc()
    doc["options"] = {"max_iters": -5}
    assert main(["verify", write_problem(tmp_path, "neg.json", doc)]) == 3
    # There is no parallel or basis-reduction setting, as a flag or as a problem-file key.
    for flag in ("--no-parallel", "--no-reduce-basis"):
        assert main(["verify", path, flag]) == 3
    for key, value in (("parallel", False), ("reduce_basis", True)):
        doc["options"] = {key: value}
        assert main(["verify", write_problem(tmp_path, "gone.json", doc)]) == 3
        assert "options.%s: unknown option" % key in capsys.readouterr().err
    # Physical parameters must be positive and finite.
    for flag, value in [("--mass", "-1"), ("--thrust", "0"), ("--R-t", "0"),
                        ("--n-mean-motion", "0"), ("--mass", "nan"), ("--thrust", "inf")]:
        assert main(["bench-satellite", "--L", "1", flag, value]) == 3
    # A path that is a directory is a file error, read or written.
    assert main(["verify", str(tmp_path)]) == 3
    assert main(["verify", path, "--report", str(tmp_path)]) == 3


def test_unwritable_report_fails_before_solving(tmp_path, monkeypatch):
    import barrierlp.verifier as verifier

    solved = []
    solve = verifier.solve_feasibility

    def counted(*args):
        solved.append(args)
        return solve(*args)

    monkeypatch.setattr(verifier, "solve_feasibility", counted)
    path = write_problem(tmp_path, "p.json", disjoint_pair_doc())
    for cmd in (["verify", path], ["empty-check", path], ["bench-satellite", "--L", "1"]):
        for dest in (tmp_path, tmp_path / "missing" / "r.json"):
            assert main(cmd + ["--report", str(dest)]) == 3
    assert solved == []
    assert sorted(os.listdir(tmp_path)) == ["p.json"]


def test_report_check_keeps_an_existing_report(tmp_path, monkeypatch):
    path = write_problem(tmp_path, "p.json", unit_disc_doc())
    old = tmp_path / "old.json"
    old.write_text("previous report\n")

    def crash(*args, **kwargs):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr("barrierlp.verifier.solve_feasibility", crash)
    assert main(["verify", path, "--report", str(old)]) == 4
    assert old.read_text() == "previous report\n"
    assert main(["verify", path, "--report", str(tmp_path / "new.json")]) == 4
    assert not (tmp_path / "new.json").exists()


def test_malformed_problem_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 3
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(unit_disc_doc()).replace("x^2", "\u00e9").encode("latin-1"))
    assert main(["verify", str(latin1)]) == 3
    assert "<document>: not UTF-8 text" in capsys.readouterr().err
    doc = unit_disc_doc()
    del doc["drift"]
    path = write_problem(tmp_path, "p.json", doc)
    assert main(["verify", path]) == 3
    doc = unit_disc_doc()
    doc["candidates"] = ["1 - q^2"]
    path2 = write_problem(tmp_path, "q.json", doc)
    assert main(["verify", path2]) == 3
    # Out-of-range coefficients and exponents are format errors, not internal ones.
    capsys.readouterr()
    for i, text in enumerate(["1 - 1e999*x^2", "1e308*x^2 + 1e308*x^2", "1 - x^70000"]):
        doc = unit_disc_doc()
        doc["candidates"] = [text]
        assert main(["verify", write_problem(tmp_path, "r%d.json" % i, doc)]) == 3
        assert "candidates[0]: " in capsys.readouterr().err
    # Finite fields whose Lie derivative overflows are format errors too.
    doc = unit_disc_doc()
    doc["drift"] = ["1e200*x"]
    doc["candidates"] = ["1 - 1e200*x^2"]
    assert main(["verify", write_problem(tmp_path, "lie.json", doc)]) == 3
    assert "candidates[0]: non-finite coefficient" in capsys.readouterr().err
    # Every entry of a schedule list is an integer, and a boolean is not one.
    for key, entries, bad in [("a_values", ["x"], 0), ("deg_s", [1.5], 0), ("deg_s", [None], 0),
                              ("a_values", [0, 0.5], 1), ("emptiness_deg_s", [True], 0)]:
        doc = unit_disc_doc()
        doc["options"] = {key: entries}
        assert main(["verify", write_problem(tmp_path, "opt.json", doc)]) == 3
        assert "options.%s[%d]: expected an integer" % (key, bad) in capsys.readouterr().err
    # A boolean schema is not version 1, and input names are strings.
    for key, value, path in [("schema", True, "schema"), ("inputs", [5], "inputs[0]")]:
        doc = unit_disc_doc()
        doc[key] = value
        assert main(["verify", write_problem(tmp_path, "field.json", doc)]) == 3
        assert "%s: expected " % path in capsys.readouterr().err


def test_terms_below_the_pruning_tolerance_exit_three(tmp_path, capsys):
    # Dropping these terms made b = -x^2 with Lfb = 0, and the verdict Verified;
    # exactly, Lfb = (2e-150 - 2e-200) x y changes sign on b = 0.
    doc = {"schema": 1, "variables": ["x", "y"], "drift": ["1e-200*y", "-x"],
           "input_matrix": [["0"], ["0"]], "candidates": ["1e-100 - x^2 - 1e-150*y^2"]}
    assert main(["verify", write_problem(tmp_path, "tiny.json", doc)]) == 3
    assert "error: drift[0]: coefficient 1e-200 is nonzero and below PRUNE_TOL" in \
        capsys.readouterr().err
    doc["drift"][0] = "y"
    assert main(["verify", write_problem(tmp_path, "tiny.json", doc)]) == 3
    assert "error: candidates[0]: coefficient 1e-100 is nonzero" in capsys.readouterr().err
    # Every literal at or above it, but a product of them in Lfb below it.
    doc["candidates"] = ["1 - 1e-7*x^2 - y^2"]
    doc["drift"] = ["1e-8*y", "0"]
    assert main(["verify", write_problem(tmp_path, "tiny.json", doc)]) == 3
    assert "error: candidates[0]: the coefficient of monomial (1, 1) is nonzero" in \
        capsys.readouterr().err


def test_bad_schedule_flags_exit_three(tmp_path):
    path = write_problem(tmp_path, "p.json", unit_disc_doc())
    assert main(["verify", path, "--deg-s", "2,1"]) == 3
    assert main(["verify", path, "--a-values", "x"]) == 3


def test_integer_flags_take_ascii_digits_only(tmp_path, capsys):
    # int() would read "1_0" as 10 and Arabic-Indic digits as 0-9.
    path = write_problem(tmp_path, "p.json", unit_disc_doc())
    assert main(["verify", path, "--deg-s", "1_0,\u0662"]) == 3
    assert "--deg-s: expected an integer, got '1_0'" in capsys.readouterr().err
    assert main(["verify", path, "--max-iters", "\u0663"]) == 3
    assert "--max-iters: expected an integer, got '\u0663'" in capsys.readouterr().err
    assert main(["verify", path, "--deg-s", "-1"]) == 3  # an integer, refused by the options
    assert "deg_s" in capsys.readouterr().err


def test_bad_option_values_exit_three(tmp_path, capsys):
    # null is "default" only where the default is null; every other bad value
    # is a format error naming its field or entry, never an internal error.
    for options, path in [({"max_iters": None}, "options.max_iters: expected an integer"),
                          ({"reduce_basis": True}, "options.reduce_basis: unknown option"),
                          ({"archimedean_C": True}, "options.archimedean_C: expected an integer"),
                          ({"archimedean_C": 10 ** 400}, "options.archimedean_C: too large"),
                          ({"deg_s": [1], "deg_p": [1, 2]}, "options.deg_p: expected one entry"),
                          ({"deg_p": [1, 2]}, "options.deg_p: expected one entry"),
                          ({"deg_s": [2, 1]}, "options.deg_s: must be non-decreasing")]:
        doc = unit_disc_doc()
        doc["options"] = options
        assert main(["verify", write_problem(tmp_path, "opt.json", doc)]) == 3
        assert "error: %s" % path in capsys.readouterr().err
    path = write_problem(tmp_path, "p.json", unit_disc_doc())
    assert main(["verify", path, "--deg-p", "1,2"]) == 3
    assert "error: deg_p: expected one entry" in capsys.readouterr().err
    assert main(["verify", path, "--archimedean-C", str(10 ** 400)]) == 3
    assert "error: archimedean_C: too large for a float" in capsys.readouterr().err
    # An empty list flag is not given: the problem file's schedule stays.
    doc = unit_disc_doc()
    doc["options"] = {"a_values": [0], "deg_s": None}
    path = write_problem(tmp_path, "null.json", doc)
    assert main(["verify", path, "--a-values", "", "--deterministic"]) == 0
    assert json.loads(capsys.readouterr().out)["schedule"]["entries"] == [[0, 1, 1]]


def test_export_lp_round_trip(tmp_path):
    path = write_problem(tmp_path, "p.json", unit_disc_doc())
    out = tmp_path / "program.lp"
    assert main(["export-lp", path, "--out", str(out)]) == 0
    text = out.read_text()
    assert "Minimize" in text  # a comment line may precede it
    lp = parse_lp_text(text)
    assert lp.nvars > 0
    assert lp.nrows > 0


def test_export_lp_emptiness(tmp_path, capsys):
    path = write_problem(tmp_path, "p.json", disjoint_pair_doc())
    assert main(["export-lp", path, "--emptiness"]) == 0
    text = capsys.readouterr().out
    lp = parse_lp_text(text)
    assert lp.nvars > 0


def test_export_lp_emptiness_ignores_an_empty_deg_s(tmp_path, capsys):
    # An empty list flag is "not given"; --deg-s never picks the emptiness degree.
    path = write_problem(tmp_path, "p.json", disjoint_pair_doc())
    assert main(["export-lp", path, "--emptiness", "--deg-s", ""]) == 0
    assert parse_lp_text(capsys.readouterr().out).nvars > 0


def test_export_lp_emptiness_degree_from_emptiness_deg_s(tmp_path, capsys):
    doc = disjoint_pair_doc()
    path = write_problem(tmp_path, "p.json", doc)
    assert main(["export-lp", path, "--emptiness", "--emptiness-deg-s", "1"]) == 0
    expected, _ = assemble_emptiness_lp(load_problem(doc).candidates, 1)
    assert parse_lp_text(capsys.readouterr().out) == expected


def test_export_lp_writes_the_first_program_the_verifier_solves(tmp_path, capsys, monkeypatch):
    import barrierlp.verifier as verifier

    params = barrierlp.CwParams(L=2)
    system = barrierlp.build_cw_system(params)
    doc = barrierlp.problem_document(
        system, [barrierlp.build_inspection_cbf(params, i, system) for i in range(2)])
    path = write_problem(tmp_path, "fleet.json", doc)
    assert main(["export-lp", path, "--candidate", "1"]) == 0
    exported = parse_lp_text(capsys.readouterr().out)

    solved = []
    solve = verifier._solve

    def capture(name, lp, *rest):
        solved.append(lp)
        return solve(name, lp, *rest)

    monkeypatch.setattr(verifier, "_solve", capture)
    spec = load_problem(doc)
    # verify_single skips the fleet's a=0 rung (an exact witness rules it
    # out), so the full schedule is what export-lp writes the head of.
    records, _, _ = _run_schedule(_single_rungs(spec.candidates[1], spec.options), spec.options, {})
    assert records[0].name == "single a=0 deg_s=1 deg_p=1"
    assert exported == solved[0]
    assert (exported.nrows, exported.nvars) == (records[0].rows, records[0].cols)
    # With --a 1 it writes the first program verify_single solves.
    assert main(["export-lp", path, "--candidate", "1", "--a", "1"]) == 0
    exported = parse_lp_text(capsys.readouterr().out)
    solved.clear()
    out = verifier.verify_single(spec.system, spec.candidates[1])
    assert out.lps[0].name == "single a=1 deg_s=1 deg_p=1" and exported == solved[0]


def test_export_lp_bad_candidate_index(tmp_path):
    path = write_problem(tmp_path, "p.json", unit_disc_doc())
    assert main(["export-lp", path, "--candidate", "5"]) == 3


def test_deterministic_reports_byte_identical(tmp_path):
    path = write_problem(tmp_path, "p.json", overlapping_pair_doc())
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", path, "--deterministic", "--report", str(r1)]) == 0
    assert main(["verify", path, "--deterministic", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_report_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("BARRIERLP_REPORT_DIR", str(tmp_path))
    path = write_problem(tmp_path, "p.json", unit_disc_doc())
    assert main(["verify", path, "--report", "out.json"]) == 0
    assert (tmp_path / "out.json").exists()


def test_text_report_format(tmp_path, capsys):
    path = write_problem(tmp_path, "p.json", unit_disc_doc())
    assert main(["verify", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "verdict: Verified" in out


def test_bench_satellite_table_and_report(tmp_path, capsys):
    report_path = tmp_path / "bench.json"
    code = main(["bench-satellite", "--L", "2", "--deterministic",
                 "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].split() == ["L", "verdict", "seconds"]
    assert len(lines) == 4  # header, rule, two rows
    assert "Verified" in lines[2]
    assert "MultiVerified" in lines[3]
    report = json.loads(report_path.read_text())
    assert [row["L"] for row in report["rows"]] == [1, 2]
    assert all(row["seconds"] == 0.0 for row in report["rows"])


def test_bench_flag_overrides(tmp_path, capsys):
    report_path = tmp_path / "bench.json"
    code = main(["bench-satellite", "--L", "1", "--mass", "3.0",
                 "--thrust", "0.75", "--deterministic", "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Verified" in out
    report = json.loads(report_path.read_text())
    defaults = barrierlp.CwParams(L=1)
    assert report["params"] == {"n_mean_motion": defaults.n_mean_motion, "mass": 3.0,
                                "thrust": 0.75, "R_t": defaults.R_t}
    # An exact witness rules out the a=0 rung, so the report holds a=1 alone.
    lps = report["rows"][0]["lps"]
    assert [lp["name"].split()[1] for lp in lps] == ["a=1"]
    assert (lps[0]["seconds"], lps[0]["assemble_s"], lps[0]["gate_s"]) == (0.0, 0.0, 0.0)
    # The full schedule of the stall candidate: the a=0 program is refuted by a
    # valid certificate, far inside the pivot budget, and its a=1 record is the
    # one the report holds.
    opts = barrierlp.VerifierOptions()

    def full_schedule(params):
        cand = barrierlp.build_inspection_cbf(params, 0)
        return _run_schedule(_single_rungs(cand, opts), opts, {})[0]

    records = full_schedule(barrierlp.CwParams(L=1, masses=(3.0,), thrusts=(0.75,)))
    first = records[0]
    assert first.name.startswith("single a=0 ")
    assert (first.status, first.iterations, first.exit) == ("Infeasible", 65, "optimal")
    assert first.farkas_valid is True
    assert (lps[0]["status"], lps[0]["iterations"]) == (records[1].status, records[1].iterations)
    # The default fleet's a=1 program takes another pivot count, so the
    # report shows the flags reached the candidate.
    assert full_schedule(defaults)[1].iterations != records[1].iterations


def test_module_entry_point(tmp_path):
    path = write_problem(tmp_path, "p.json", unit_disc_doc())
    # Run the package under test, also when pytest put src/ on the path.
    src = os.path.dirname(os.path.dirname(barrierlp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        part for part in (src, os.environ.get("PYTHONPATH")) if part))
    proc = subprocess.run(
        [sys.executable, "-m", "barrierlp.cli", "verify", path],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Verified"
