"""Satellite-inspection benchmark: relative-orbit dynamics and scaling sweep.

L chaser spacecraft move near a target on a circular orbit; the linearized
relative dynamics of each chaser (state block [x, y, z, xdot, ydot, zdot],
kilometers and kilometers/second) under thrust inputs [Fx, Fy, Fz] are

    xddot = 2 n ydot + 3 n^2 + Fx / m
    yddot = -2 n xdot         + Fy / m
    zddot = -n^2 z            + Fz / m

with mean motion n. Safety for chaser i means staying outside a ball of
radius R_t about the target, encoded by the candidate barrier

    b_i = r_i.r_i + (m_i / T_i) rdot_i.rdot_i - R_t^2.

run_benchmark sweeps L = 1..L_max, certifying each candidate alone and,
for L >= 2, jointly, and reports verdicts, LP sizes, and wall time per L.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

from .polyring import Polynomial, PolyMatrix
from .specio import REPORT_SCHEMA_VERSION
from .verifier import (
    CandidateCbf,
    ControlAffineSystem,
    VerificationOutcome,
    VerifierOptions,
    verify_multi,
    verify_single,
)

DEFAULT_MEAN_MOTION = 0.0010  # rad/s
DEFAULT_MASS = 2.0  # kg
DEFAULT_THRUST = 0.5  # N
DEFAULT_SAFE_RADIUS = 0.5  # km


@dataclass(frozen=True)
class CwParams:
    """Benchmark parameters; per-chaser lists must have length L."""

    L: int = 1
    n_mean_motion: float = DEFAULT_MEAN_MOTION
    masses: Optional[Tuple[float, ...]] = None
    thrusts: Optional[Tuple[float, ...]] = None
    R_t: float = DEFAULT_SAFE_RADIUS

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be >= 1, got %d" % self.L)
        if self.masses is None:
            object.__setattr__(self, "masses", (DEFAULT_MASS,) * self.L)
        else:
            object.__setattr__(self, "masses", tuple(float(v) for v in self.masses))
        if self.thrusts is None:
            object.__setattr__(self, "thrusts", (DEFAULT_THRUST,) * self.L)
        else:
            object.__setattr__(self, "thrusts", tuple(float(v) for v in self.thrusts))
        if len(self.masses) != self.L or len(self.thrusts) != self.L:
            raise ValueError("masses and thrusts must list one value per chaser")
        if not all(0 < v < math.inf
                   for v in (self.n_mean_motion, self.R_t) + self.masses + self.thrusts):
            raise ValueError("n_mean_motion, R_t, masses and thrusts must be positive and finite")

    def with_L(self, L: int) -> "CwParams":
        """Same physical constants replicated for a different chaser count."""
        return CwParams(
            L=L,
            n_mean_motion=self.n_mean_motion,
            masses=(self.masses[0],) * L,
            thrusts=(self.thrusts[0],) * L,
            R_t=self.R_t,
        )


def build_cw_system(params: CwParams) -> ControlAffineSystem:
    """Stacked relative-orbit dynamics for L chasers.

    State dimension 6L, block [x, y, z, xdot, ydot, zdot] per chaser;
    input dimension 3L with a block-diagonal 1/m_i thrust map.
    """
    L = params.L
    n_mm = params.n_mean_motion
    N, M = 6 * L, 3 * L
    zero = Polynomial.zero(N)

    def var(i: int) -> Polynomial:
        return Polynomial.variable(i, N)

    f_rows: List[List[Polynomial]] = []
    g_rows: List[List[Polynomial]] = []
    for i in range(L):
        o = 6 * i
        z, vx, vy, vz = var(o + 2), var(o + 3), var(o + 4), var(o + 5)
        f_rows.append([vx])
        f_rows.append([vy])
        f_rows.append([vz])
        f_rows.append([2.0 * n_mm * vy + Polynomial.constant(3.0 * n_mm ** 2, N)])
        f_rows.append([(-2.0 * n_mm) * vx])
        f_rows.append([(-n_mm ** 2) * z])
        for _ in range(3):
            g_rows.append([zero] * M)
        for axis in range(3):
            row = [zero] * M
            row[3 * i + axis] = Polynomial.constant(1.0 / params.masses[i], N)
            g_rows.append(row)
    return ControlAffineSystem(f=PolyMatrix(f_rows), g=PolyMatrix(g_rows))


def build_inspection_cbf(
    params: CwParams, chaser: int, sys: Optional[ControlAffineSystem] = None
) -> CandidateCbf:
    """Keep-out-ball candidate for one chaser (0-based index).

    b = r.r + (m/T) rdot.rdot - R_t^2 over the chaser's own state block,
    constant in every other chaser's variables. Pass the system to reuse it;
    otherwise it is rebuilt from the parameters.
    """
    if not 0 <= chaser < params.L:
        raise IndexError("chaser index %d out of range for L=%d" % (chaser, params.L))
    if sys is None:
        sys = build_cw_system(params)
    N = 6 * params.L
    o = 6 * chaser
    ratio = params.masses[chaser] / params.thrusts[chaser]
    b = Polynomial.constant(-params.R_t ** 2, N)
    for k in range(3):
        b = b + Polynomial.variable(o + k, N) ** 2
    for k in range(3, 6):
        b = b + ratio * Polynomial.variable(o + k, N) ** 2
    return CandidateCbf.from_system(b, sys)


def _all_lp_records(outcome: VerificationOutcome):
    records = list(outcome.lps)
    if outcome.singles:
        for s in outcome.singles:
            records.extend(s.lps)
    return records


def run_benchmark(
    params_template: CwParams,
    L_max: int,
    opts: Optional[VerifierOptions] = None,
) -> dict:
    """Scaling sweep over L = 1..L_max chasers.

    Each row certifies the candidates for that L: a lone candidate through
    the single-candidate program, several through joint verification. Rows
    record the verdict, wall time, the largest LP dimensions encountered,
    every LP record and the schedule; a failed row records its error and
    the sweep goes on.
    """
    if L_max < 1:
        raise ValueError("L_max must be >= 1, got %d" % L_max)
    if opts is None:
        opts = VerifierOptions()
    rows = []
    for L in range(1, L_max + 1):
        params = params_template.with_L(L)
        t0 = time.perf_counter()
        try:
            sys = build_cw_system(params)
            cands = [build_inspection_cbf(params, i, sys) for i in range(L)]
            if L == 1:
                outcome = verify_single(sys, cands[0], opts)
            else:
                outcome = verify_multi(sys, cands, opts)
            records = _all_lp_records(outcome)
            rows.append({
                "L": L,
                "verdict": outcome.verdict.value,
                "seconds": time.perf_counter() - t0,
                "lp_rows": max((r.rows for r in records), default=0),
                "lp_cols": max((r.cols for r in records), default=0),
                "lp_count": len(records),
                "lps": [asdict(r) for r in records],
                "schedule": outcome.schedule,
                "warnings": list(outcome.warnings),
            })
        except Exception as exc:  # keep sweeping; the row records its failure
            rows.append({
                "L": L,
                "verdict": "Error",
                "seconds": time.perf_counter() - t0,
                "error": str(exc),
            })
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "benchmark": "cw-inspection",
        "params": {
            "n_mean_motion": params_template.n_mean_motion,
            "mass": params_template.masses[0],
            "thrust": params_template.thrusts[0],
            "R_t": params_template.R_t,
        },
        "rows": rows,
    }
