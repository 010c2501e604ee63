"""Spans at the layer boundaries barrierlp.verifier crosses, and their totals.

The tracer replaces the public names that barrierlp.verifier looks up at
call time (assembly, affinegram helpers, the simplex, the gates and the Lie
derivatives) with timing wrappers, and puts the originals back afterwards.
Each span records name, start, end, parent span, thread and problem id,
plus the CPU time of its thread; the list stays in memory and is written
out once the run ends. The program itself is not modified.

With the verifier's thread pool, calls overlap: wall time counts a call as
busy while it waits for the interpreter lock or a CPU, thread CPU time
does not.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

import barrierlp.verifier as V

# Wrapped name -> layer metric its self time is added to.
LAYER_OF = {
    "assemble_single_lp": "assemble.single_s",
    "assemble_emptiness_lp": "assemble.emptiness_s",
    "mul_fixed": "affinegram.mul_fixed_s",
    "coefficient_system": "affinegram.coefficient_system_s",
    "dd_linear_constraints": "affinegram.dd_rows_s",
    "solve_feasibility": "simplex.s",
    "validate_farkas": "gate.farkas_s",
    "extract_single_certificate": "gate.extract_s",
    "extract_emptiness_certificate": "gate.extract_s",
    "certificate_residual": "gate.residual_s",
    "lie_derivative_drift": "polyring.lie",
    "lie_derivative_input": "polyring.lie",
}
LOAD_SPAN = "load_problem"


class Span:
    __slots__ = ("sid", "name", "start", "end", "cpu_start", "cpu_end", "parent", "thread",
                 "problem", "attrs", "child_s", "child_cpu")

    def __init__(self, sid, name, parent, problem):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.problem = problem
        self.attrs: Dict[str, object] = {}
        self.child_s = 0.0
        self.child_cpu = 0.0
        self.cpu_start = time.thread_time()
        self.cpu_end = self.cpu_start
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    @property
    def self_cpu(self) -> float:
        return self.cpu_end - self.cpu_start - self.child_cpu

    def as_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "start": self.start, "end": self.end,
            "cpu_s": self.cpu_end - self.cpu_start,
            "parent": self.parent, "thread": self.thread, "problem": self.problem,
            "attrs": {k: v for k, v in self.attrs.items() if isinstance(v, (int, float, str))},
        }


def _lp_shape(lp) -> dict:
    """Row/column/nonzero counts and the dense tableau the simplex allocates.

    The simplex keeps an (m+1) x (2n + n_ub + m + 1) float64 tableau over
    the m rows that have coefficients; its size is computed, not measured.
    """
    eq = sum(1 for coefs, _ in lp.eq_rows if coefs)
    ub = sum(1 for coefs, _ in lp.ub_rows if coefs)
    m = eq + ub
    nnz = sum(len(coefs) for coefs, _ in lp.eq_rows) + sum(len(coefs) for coefs, _ in lp.ub_rows)
    tableau = (m + 1) * (2 * lp.nvars + ub + m + 1) * 8 if m else 0
    return {"rows": lp.nrows, "cols": lp.nvars, "nnz": nnz, "tableau_bytes": tableau}


def relabel_signature(lp) -> int:
    """Hash of the LP that no renaming of variables or reordering of rows changes.

    Equal signatures are necessary for two programs to be identical up to
    relabelling; the benchmark reports them as the share reuse could save.
    """
    rows = sorted(
        (kind, tuple(sorted(coefs.values())), rhs)
        for kind, block in (("eq", lp.eq_rows), ("ub", lp.ub_rows))
        for coefs, rhs in block
    )
    return hash((lp.nvars, tuple(rows)))


class Tracer:
    """Install with `with Tracer() as t:`; spans collect until it exits."""

    def __init__(self):
        self.spans: List[Span] = []
        self.problem: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: Dict[str, object] = {}
        self._solves_by_cert: Dict[int, Span] = {}
        self._assembled: Dict[int, dict] = {}

    # -- span plumbing -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1].sid if stack else None, self.problem)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.thread_time()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.seconds
            stack[-1].child_cpu += span.cpu_end - span.cpu_start
        self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["raised"] = type(exc).__name__
            self.close(span)
            self._after(name, span, args, None, exc)
            raise
        self.close(span)
        self._after(name, span, args, result, None)
        return result

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for name in LAYER_OF:
            fn = getattr(V, name)
            self._saved[name] = fn
            setattr(V, name, self._wrapper(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved.items():
            setattr(V, name, fn)
        self._saved.clear()

    # -- per-call attributes, taken after the span has closed ----------------

    def _after(self, name, span, args, result, exc) -> None:
        if name in ("assemble_single_lp", "assemble_emptiness_lp") and result is not None:
            lp = result[0]
            span.attrs.update(_lp_shape(lp))
            if name == "assemble_single_lp":
                span.attrs["signature"] = relabel_signature(lp)
            # Keyed by identity: keep the LP alive until its solve pops it.
            self._assembled[id(lp)] = (lp, span.attrs)
        elif name == "solve_feasibility" and result is not None:
            lp = args[0]
            _, assembled = self._assembled.pop(id(lp), (None, None))
            span.attrs.update(assembled if assembled is not None else _lp_shape(lp))
            span.attrs["status"] = result.status.value
            span.attrs["pivots"] = result.iterations
            if result.farkas is not None:
                # Keyed by identity: keep the certificate alive with the span.
                span.attrs["farkas_obj"] = result.farkas
                self._solves_by_cert[id(result.farkas)] = span
        elif name == "validate_farkas":
            accepted = False
            if result is not None:
                combo, rhs = result
                margin = -float(rhs)
                accepted = margin >= V.FARKAS_MARGIN and combo <= margin / V.FARKAS_LEVERAGE
            span.attrs["accepted"] = int(accepted)
            solve = self._solves_by_cert.pop(id(args[1]), None) if len(args) > 1 else None
            if solve is not None:
                solve.attrs["farkas_accepted"] = int(accepted)
        elif name.startswith("extract_") and result is not None:
            span.attrs["accepted"] = int(
                result.grams_diagonally_dominant(V.DD_GATE_TOL)
                and result.residual <= V.RESIDUAL_GATE_TOL
            )

    def reset(self) -> None:
        self.spans = []
        self._solves_by_cert.clear()
        self._assembled.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)


def layer_totals(spans: List[Span], passes: int, pass_seconds: float, problems: int) -> Dict[str, float]:
    """Per-layer metrics of the traced verification passes, per pass.

    Times are self times: a span's duration minus that of the spans it
    called on the same thread. `pass_seconds` is the summed time to verdict
    of the traced passes; spans carry problem ids "<pass>:<problem>".
    driver.concurrency is in-flight layer time per second of wall time,
    driver.cpu_per_wall the same for thread CPU time.
    """
    self_s = defaultdict(float)
    busy = busy_cpu = simplex_cpu = 0.0
    solves, extracts, farkas = [], [], []
    assembles = []
    for s in spans:
        if s.name in LAYER_OF:
            layer = LAYER_OF[s.name]
            if layer == "polyring.lie":
                layer = "polyring.lie_check_s"
            self_s[layer] += s.self_s
            busy += s.self_s
            busy_cpu += s.self_cpu
            if layer == "simplex.s":
                simplex_cpu += s.self_cpu
        if s.name == "solve_feasibility" and "status" in s.attrs:
            solves.append(s.attrs)
        elif s.name.startswith("extract_") and "accepted" in s.attrs:
            extracts.append(s.attrs["accepted"])
        elif s.name == "validate_farkas":
            farkas.append(s.attrs.get("accepted", 0))
        elif s.name.startswith("assemble_") and "rows" in s.attrs:
            assembles.append(s.attrs)
    per = 1.0 / max(passes, 1)
    out = {name: self_s[name] * per for name in (
        "simplex.s", "assemble.single_s", "assemble.emptiness_s", "affinegram.mul_fixed_s",
        "affinegram.coefficient_system_s", "affinegram.dd_rows_s", "gate.extract_s",
        "gate.residual_s", "gate.farkas_s", "polyring.lie_check_s")}
    pivots = sum(a["pivots"] for a in solves)
    wasted = sum(
        a["pivots"] for a in solves
        if a["status"] == "IterationLimit"
        or (a["status"] == "Infeasible" and not a.get("farkas_accepted", 0))
    )
    status = lambda st: sum(1 for a in solves if a["status"] == st) * per
    out.update({
        "simplex.calls": len(solves) * per,
        "simplex.pivots": pivots * per,
        "simplex.cpu_s": simplex_cpu * per,
        "simplex.cpu_s_per_pivot": simplex_cpu / pivots if pivots else 0.0,
        "simplex.status.feasible": status("Feasible"),
        "simplex.status.infeasible": status("Infeasible"),
        "simplex.status.iteration_limit": status("IterationLimit"),
        "simplex.wasted_pivot_ratio": wasted / pivots if pivots else 0.0,
        "simplex.tableau_mb_max": max((a["tableau_bytes"] for a in solves), default=0) / 1e6,
        "assemble.calls": len(assembles) * per,
        "assemble.rows": sum(a["rows"] for a in assembles) * per,
        "assemble.cols": sum(a["cols"] for a in assembles) * per,
        "assemble.nnz": sum(a["nnz"] for a in assembles) * per,
        "gate.cert_accept_ratio": sum(extracts) / len(extracts) if extracts else 0.0,
        "gate.farkas_accept_ratio": sum(farkas) / len(farkas) if farkas else 0.0,
        "driver.lps_per_problem": len(solves) / problems if problems else 0.0,
        "driver.concurrency": busy / pass_seconds if pass_seconds > 0 else 0.0,
        "driver.cpu_per_wall": busy_cpu / pass_seconds if pass_seconds > 0 else 0.0,
    })
    return out


def setup_totals(spans: List[Span]) -> Dict[str, float]:
    """Self time of one traced set-up: Lie derivatives and document loading."""
    lie = sum(s.self_s for s in spans if LAYER_OF.get(s.name) == "polyring.lie")
    load = sum(s.self_s for s in spans if s.name == LOAD_SPAN)
    return {"polyring.lie_s": lie, "specio.load_s": load}


def composition(spans: List[Span], results) -> Dict[str, float]:
    """Shares of the properties a later optimisation may key on.

    relabel_dup_frac: single programs whose relabelling signature already
    occurred earlier in the same pass. iteration_limit_frac: LPs ending
    IterationLimit. rows_min/rows_max: LP row range. verdict shares and
    crash_frac are over problems.
    """
    solves = [s for s in spans if s.name == "solve_feasibility" and "status" in s.attrs]
    singles = [s for s in solves if "signature" in s.attrs]
    dup = 0
    seen = defaultdict(set)
    for s in sorted(singles, key=lambda s: s.start):
        bucket = seen[s.problem.split(":")[0]]
        if s.attrs["signature"] in bucket:
            dup += 1
        bucket.add(s.attrs["signature"])
    rows = [s.attrs["rows"] for s in solves]
    n = len(results)
    share = lambda pred: sum(1 for r in results if pred(r)) / n if n else 0.0
    out = {
        "composition.relabel_dup_frac": dup / len(singles) if singles else 0.0,
        "composition.iteration_limit_frac": (
            sum(1 for s in solves if s.attrs["status"] == "IterationLimit") / len(solves)
            if solves else 0.0
        ),
        "composition.rows_min": float(min(rows, default=0)),
        "composition.rows_max": float(max(rows, default=0)),
        "composition.crash_frac": share(lambda r: r.verdict.startswith("Error:")),
    }
    for verdict in ("Verified", "Inconclusive", "MultiVerified", "MultiInconclusive",
                    "EmptinessCertified"):
        out["composition.verdict.%s_frac" % verdict] = share(lambda r, v=verdict: r.verdict == v)
    return out
