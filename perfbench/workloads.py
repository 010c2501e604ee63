"""Workload inputs: which problems a run verifies, and how they are set up.

A workload is a list of problem documents. Set-up loads each with
load_problem, and each problem is verified the way `barrierlp verify` does
it: one candidate goes through verify_single, several through
verify_multi, always with the default VerifierOptions.

- fleet: the reference inspection fleet (CwParams() defaults), L = 1..6,
  built by satbench and written out with problem_document.
- stall: the same model with mass 3.0 and thrust 0.75, L = 1..2; its a=0
  single programs grind to IterationLimit.
- corpus: CORPUS_SIZE random problems drawn from CORPUS_SEED: n in {2, 3}
  states, m in {1, 2} inputs, quadratic drift and one or two axis-aligned
  ellipsoidal candidates.
- corpus-holdout: the same generator drawn from HOLDOUT_SEED. It is kept
  out of BENCHMARK.json and out of tuning, for confirming a claim made on
  the corpus.

The workload seed shuffles the order in which a pass visits the problems;
it does not redraw the corpus. Verdicts on these problems are chaotic: a
relative change of up to 0.5% in every drawn value changed the verdict of
20 to 32 of 100 problems. A corpus redrawn per seed would therefore move
the verdict shares and the time per pass by more than any bound a
regression check can use.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

import barrierlp
from barrierlp import (
    CwParams, build_cw_system, build_inspection_cbf, load_problem, problem_document,
)

FLEET_L = range(1, 7)
STALL_L = range(1, 3)
STALL_MASS = 3.0
STALL_THRUST = 0.75
CORPUS_SIZE = 150
CORPUS_SEED = 2212
HOLDOUT_SEED = 9001
STATE_NAMES = ("x", "y", "z")


@dataclass
class Problem:
    """One verification job: a system and its candidates, ready to verify."""

    pid: str
    system: object
    candidates: list


@dataclass
class Source:
    """A problem document; `build` loads it into a fresh Problem each call."""

    pid: str
    document: str
    load: Callable = load_problem

    def build(self) -> Problem:
        spec = self.load(self.document)
        return Problem(self.pid, spec.system, spec.candidates)


def _fleet_document(params: CwParams, L: int) -> str:
    p = params.with_L(L)
    system = build_cw_system(p)
    return json.dumps(problem_document(system, [build_inspection_cbf(p, i, system) for i in range(L)]))


def _coef(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 3)


def _poly_text(terms) -> str:
    """Signed sum of (coefficient, monomial text) pairs in the problem grammar."""
    parts = []
    for c, mono in terms:
        if c == 0.0:
            continue
        body = repr(abs(c)) + ("*" + mono if mono else "")
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _ellipsoid(rng: np.random.Generator, names, spread: float) -> str:
    """r^2 - sum_i w_i (x_i - c_i)^2, expanded: positive inside the ellipsoid."""
    c = [float(rng.uniform(-spread, spread)) for _ in names]
    w = [float(rng.uniform(0.5, 2.0)) for _ in names]
    r2 = float(rng.uniform(0.2, 1.0))
    terms = [(r2 - sum(wi * ci * ci for wi, ci in zip(w, c)), "")]
    terms += [(2.0 * wi * ci, x) for wi, ci, x in zip(w, c, names)]
    terms += [(-wi, x + "^2") for wi, x in zip(w, names)]
    return _poly_text(terms)


def corpus_document(rng: np.random.Generator) -> dict:
    """One random problem document.

    Drift rows are random linear terms plus quadratic ones (the first row
    always has one); input-matrix entries are nonzero constants with
    probability 0.8. A lone candidate sits near the origin. A pair is either
    overlapping (centres within 0.3) or usually disjoint (centres within
    2.5), so every verdict kind occurs.
    """
    n = int(rng.integers(2, 4))
    m = int(rng.integers(1, 3))
    names = list(STATE_NAMES[:n])
    drift = []
    for i in range(n):
        terms = [(_coef(rng, -1.0, 1.0), names[j]) for j in range(n) if rng.random() < 0.7]
        for _ in range(1 if i == 0 else int(rng.integers(0, 2))):
            j, k = sorted(int(rng.integers(0, n)) for _ in range(2))
            mono = names[j] + "^2" if j == k else names[j] + "*" + names[k]
            terms.append((_coef(rng, -0.6, 0.6), mono))
        drift.append(_poly_text(terms))
    grid = [
        [repr(_coef(rng, -1.0, 1.0)) if rng.random() < 0.8 else "0" for _ in range(m)]
        for _ in range(n)
    ]
    if int(rng.integers(1, 3)) == 1:
        cands = [_ellipsoid(rng, names, 0.5)]
    else:
        spread = 0.3 if rng.random() < 0.5 else 2.5
        cands = [_ellipsoid(rng, names, spread) for _ in range(2)]
    return {
        "schema": 1,
        "variables": names,
        "inputs": ["u%d" % (j + 1) for j in range(m)],
        "drift": drift,
        "input_matrix": grid,
        "candidates": cands,
    }


def sources(workload: str, seed: int, load: Callable = load_problem) -> List[Source]:
    """The workload's problems, in the order a pass visits them.

    `load` is the document loader; the traced run passes a timed wrapper.
    """
    if workload == "fleet":
        out = [Source("L%d" % L, _fleet_document(CwParams(), L), load) for L in FLEET_L]
    elif workload == "stall":
        params = CwParams(masses=(STALL_MASS,), thrusts=(STALL_THRUST,))
        out = [Source("L%d" % L, _fleet_document(params, L), load) for L in STALL_L]
    elif workload in ("corpus", "corpus-holdout"):
        rng = np.random.default_rng(CORPUS_SEED if workload == "corpus" else HOLDOUT_SEED)
        out = [
            Source("P%03d" % i, json.dumps(corpus_document(rng)), load)
            for i in range(CORPUS_SIZE)
        ]
    else:
        raise ValueError("unknown workload %r" % workload)
    random.Random(seed).shuffle(out)
    return out


def verify(problem: Problem):
    """Verify as the command line does: one candidate alone, several jointly."""
    if len(problem.candidates) == 1:
        return barrierlp.verify_single(problem.system, problem.candidates[0])
    return barrierlp.verify_multi(problem.system, problem.candidates)
