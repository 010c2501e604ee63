"""Independent re-check of verdicts, and the verdict/pivot fingerprint.

Every affirmative verdict is checked again from the returned certificate,
outside the timed region: the Gram matrices must be diagonally dominant
(tested here with NumPy, not with the library's own test) and the residual
recomputed by certificate_residual from plain polynomial arithmetic must
stay within the gate tolerance. MultiVerified also needs every emptiness
program refuted: status Infeasible with a validated Farkas certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from barrierlp import Certificate, Verdict, certificate_residual
from barrierlp.verifier import DD_GATE_TOL, RESIDUAL_GATE_TOL

AFFIRMATIVE = (Verdict.VERIFIED, Verdict.MULTI_VERIFIED, Verdict.EMPTINESS_CERTIFIED)
STATUS_CODE = {"Feasible": "F", "Infeasible": "I", "IterationLimit": "L"}


@dataclass
class Result:
    """What one problem ended with, as the benchmark counts it."""

    pid: str
    seconds: float
    verdict: str  # Verdict value, or "Error:<exception type>"
    affirmative: bool = False  # affirmative verdict that passed the re-check
    rejected: bool = False  # affirmative verdict that failed the re-check
    lps: Optional[list] = None  # LpRecords in report order; None when it raised

    @property
    def failed(self) -> bool:
        """Raised, or returned an affirmative verdict that failed the re-check."""
        return self.lps is None or self.rejected

    def fingerprint(self) -> str:
        """Verdict and (status, pivots) per LP, e.g. 'Verified|I326 F256'."""
        if self.lps is None:
            return self.verdict
        return self.verdict + "|" + " ".join(
            "%s%d" % (STATUS_CODE.get(r.status, r.status), r.iterations) for r in self.lps
        )


def diagonally_dominant(Q, tol: float = DD_GATE_TOL) -> bool:
    """Q_ii + tol >= sum_{j != i} |Q_ij| for every row (a negative diagonal fails)."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        return False
    off = np.abs(Q).sum(axis=1) - np.abs(np.diag(Q))
    return bool(np.all(np.diag(Q) + tol >= off))


def certificate_holds(cert: Optional[Certificate], sys, cand_or_cands) -> bool:
    """DD test on every Gram plus a recomputed residual within tolerance."""
    if cert is None:
        return False
    if not all(diagonally_dominant(Q) for Q in cert.grams):
        return False
    return certificate_residual(cert, sys, cand_or_cands) <= RESIDUAL_GATE_TOL


def all_records(outcome) -> list:
    records = list(outcome.lps)
    for single in outcome.singles or []:
        records.extend(single.lps)
    return records


def verdict_holds(outcome, system, candidates: Sequence) -> bool:
    """Re-check an affirmative outcome; True only if every piece holds."""
    v = outcome.verdict
    if v is Verdict.VERIFIED:
        return certificate_holds(outcome.certificate, system, candidates[0])
    if v is Verdict.EMPTINESS_CERTIFIED:
        return certificate_holds(outcome.certificate, None, list(candidates))
    if v is Verdict.MULTI_VERIFIED:
        singles = outcome.singles or []
        if len(singles) != len(candidates) or not outcome.lps:
            return False
        for single, cand in zip(singles, candidates):
            if single.verdict is not Verdict.VERIFIED:
                return False
            if not certificate_holds(single.certificate, system, cand):
                return False
        return all(r.status == "Infeasible" and r.farkas_valid is True for r in outcome.lps)
    return False


def judge(pid: str, seconds: float, outcome=None, error: Optional[BaseException] = None,
          system=None, candidates: Sequence = ()) -> Result:
    """Turn an outcome (or the exception raised instead) into a Result."""
    if error is not None:
        return Result(pid, seconds, "Error:" + type(error).__name__)
    res = Result(pid, seconds, outcome.verdict.value, lps=all_records(outcome))
    if outcome.verdict in AFFIRMATIVE:
        try:
            holds = verdict_holds(outcome, system, candidates)
        except (ValueError, TypeError, IndexError):
            holds = False
        res.affirmative = holds
        res.rejected = not holds
    return res


def drift(results: List[Result], pinned: dict) -> tuple:
    """(problems compared, verdict drift, pivot drift) against pinned fingerprints.

    Verdict drift counts problems whose verdict changed. Pivot drift counts
    LPs whose (status, pivots) changed, position by position, plus LPs that
    appeared or disappeared.
    """
    compared = verdict_drift = pivot_drift = 0
    for r in results:
        ref = pinned.get(r.pid)
        if ref is None:
            continue
        compared += 1
        ref_verdict, _, ref_lps = ref.partition("|")
        verdict, _, lps = r.fingerprint().partition("|")
        if verdict != ref_verdict:
            verdict_drift += 1
        a, b = ref_lps.split(), lps.split()
        pivot_drift += sum(1 for x, y in zip(a, b) if x != y) + abs(len(a) - len(b))
    return compared, verdict_drift, pivot_drift
