"""Record the verdict/pivot fingerprint that run.py reports drift against.

    python3 perfbench/pin.py

Verifies one pass of every workload and writes perfbench/pinned.json: per
problem, its verdict and the (status, pivots) of every LP it solved. The
seed only orders a pass, so one record per workload serves every seed.
Re-pin only when a change to verdicts or pivot counts has been explained.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def fingerprints(workload: str) -> dict:
    from workloads import sources

    problems = [src.build() for src in sources(workload, 0)]
    (results,) = run.run_passes(problems, 0.0)
    return {r.pid: r.fingerprint() for r in results}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    run.import_program()
    table = {}
    for workload in run.WORKLOADS:
        table[workload] = fingerprints(workload)
        print("pinned %s" % workload, flush=True)
    with open(run.PINNED, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
