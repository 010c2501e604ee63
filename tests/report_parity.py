"""Digest every report and exported program of the benchmark workloads.

    python3 tests/report_parity.py CHECKOUT

CHECKOUT is the root of a source checkout. Its `src/` is imported and its
`perfbench/workloads.py` supplies the problems: every seed-1 problem of
`fleet`, `stall`, `corpus` and `corpus-holdout`. For each problem the script
takes three outputs:

- the deterministic JSON report of `verify`: `verify_single` for one
  candidate, `verify_multi` for several, as the command line picks;
- the deterministic JSON report of `check_emptiness`;
- every `export-lp` output: each candidate at `--a 0` and at `--a 1`, plus
  `--emptiness` for a problem with several candidates.

It prints one sha256 per workload over those outputs, in order, with the
counts. A change that keeps behaviour prints the same lines as its parent.
Every export is also read back with `parse_lp_text` and written again; the
script exits non-zero unless that reproduces the export byte for byte.
Nothing is written inside CHECKOUT; the problem files that `export-lp`
reads live in a temporary directory.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile

WORKLOADS = ("fleet", "stall", "corpus", "corpus-holdout")


def load_checkout(root):
    """(barrierlp, its cli module, perfbench workloads) of the checkout at root."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, os.path.join(root, "src"))
    import barrierlp
    from barrierlp import cli

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return barrierlp, cli, workloads


def exported(barrierlp, cli, argv):
    """Standard output of `barrierlp export-lp ARGV`; its exit code must be 0.

    The text must read back to a program that exports to the same text.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["export-lp"] + argv)
    if code != 0:
        raise SystemExit("export-lp %s exited %d" % (" ".join(argv), code))
    text = out.getvalue()
    if barrierlp.export_lp_text(barrierlp.parse_lp_text(text)) != text:
        raise SystemExit("export-lp %s does not round-trip through parse_lp_text"
                         % " ".join(argv))
    return text


def workload_digest(barrierlp, cli, workloads, name, tmp):
    digest = hashlib.sha256()
    counts = {"problems": 0, "exports": 0}
    for source in workloads.sources(name, 1):
        spec = barrierlp.load_problem(source.document)
        if len(spec.candidates) == 1:
            outcome = barrierlp.verify_single(spec.system, spec.candidates[0])
        else:
            outcome = barrierlp.verify_multi(spec.system, spec.candidates)
        outputs = [
            barrierlp.write_report(outcome, deterministic=True),
            barrierlp.write_report(barrierlp.check_emptiness(spec.candidates), deterministic=True),
        ]
        path = os.path.join(tmp, "%s-%s.json" % (name, source.pid))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source.document)
        for i in range(len(spec.candidates)):
            for a in ("0", "1"):
                outputs.append(exported(barrierlp, cli, [path, "--candidate", str(i), "--a", a]))
        if len(spec.candidates) > 1:
            outputs.append(exported(barrierlp, cli, [path, "--emptiness"]))
        for text in outputs:
            digest.update(text.encode("utf-8"))
            digest.update(b"\0")
        counts["problems"] += 1
        counts["exports"] += len(outputs) - 2
    return digest.hexdigest(), counts


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: python3 tests/report_parity.py CHECKOUT")
    barrierlp, cli, workloads = load_checkout(os.path.abspath(argv[0]))
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            hexdigest, counts = workload_digest(barrierlp, cli, workloads, name, tmp)
            print("%-15s %s  %3d problems, %4d exports"
                  % (name, hexdigest, counts["problems"], counts["exports"]))


if __name__ == "__main__":
    main(sys.argv[1:])
