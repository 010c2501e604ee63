"""Pure-feasibility linear programs: representation, presolve, phase-1 simplex, LP files.

Every program here minimizes the constant zero; the only question is whether
the constraint system admits a point. Variables are free, except that an
inequality row -c x_j <= 0 makes x_j a sign column, x_j >= 0, which the
solver keeps as a bound rather than a row. A presolve first applies two
rules of Andersen & Andersen (Math. Prog. 71, 1995) to the equality rows: a
forcing row (right-hand side 0, entries of one sign, all on sign columns)
fixes its columns at 0, and a row of one or two entries substitutes a
variable out, a free one where it has one. Neither adds entries to a row,
so chains of them collapse without a pivot. What is left goes to a dense
phase-1 simplex over split free variables z = z+ - z-, sign columns,
slacks and one artificial per row. Only the z+ and sign columns and the
slacks are stored: a z- column is the exact negative of its z+ column and
enters by pivoting on the negated column, and the artificials, which never
re-enter, are not stored at all. The entering column is Dantzig's: one
argmin over the z+ reduced costs, one over their negations with the
missing minus twins of sign columns reading +inf, one over the slacks, and
the lowest code among equal minima. The leaving row comes from Harris's
two-pass ratio test (Math. Prog. 5, 1973), which prefers the largest pivot
entry among near-ties. That pairing has no anti-cycling guarantee: the
progress window bounds any cycle.
Only a run that ends optimal is trusted. Every other exit (pivot budget,
progress window, an entering column with no usable pivot) reads
IterationLimit, and so does an optimal run whose final basis is singular
or whose point misses a row of the caller's program.
An optimal run refactorizes its final basis once, from the tableau's
starting entries, and answers from one solve with it: the basic point if
the artificial sum is 0, else the multipliers y = c_B^T B^-1, which combine
the constraints into 0^T z <= -delta with delta > 0, so negative verdicts
carry their own proof and can be revalidated by substitution. Postsolve
maps points and multipliers back through the eliminations and gives every
sign row the multiplier that zeroes its column, so every answer, and every
check of it, refers to the caller's rows.
"""

from __future__ import annotations

import math
import re
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Dense-tableau capacity: the bytes of the arrays one simplex run holds,
# 8 (2 (m+1)(w+1) + 3 nnz + 2 min(m, w)^2) for the presolved program's m rows
# and w = n + n_ub stored columns: the tableau and its equally sized work
# array, the nnz starting entries (slacks included) as row, column and value,
# and the two s x s copies (s <= min(m, w)) that the final solve makes. A
# program beyond it is refused before allocation; export_lp_text is the way out.
MAX_TABLEAU_BYTES = 2 ** 30
# Entries at or below PIVOT_TOL never pivot; rows are met within FEAS_TOL;
# an artificial sum above INFEAS_MARGIN at the end means infeasible.
PIVOT_TOL = 1e-9
# Presolve zeroes an updated entry at most DROP_TOL times the larger of the
# two terms that made it: that is cancellation noise, and pivoting on it
# would multiply rows by ~1e16.
DROP_TOL = 1e-12
FEAS_TOL = 1e-8
INFEAS_MARGIN = 1e-9
# Inequality multipliers below -FARKAS_SIGN_TOL void a Farkas certificate.
FARKAS_SIGN_TOL = 1e-9
# Default pivot budget of one solve.
MAX_ITERS = 200000

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class LpCapacityError(Exception):
    """Problem's dense tableau would exceed MAX_TABLEAU_BYTES."""


class LpStatus(Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    ITERATION_LIMIT = "IterationLimit"


@dataclass
class FarkasCertificate:
    """Row multipliers proving infeasibility.

    eq_mults are free-signed, ub_mults non-negative; combining rows with
    these weights yields a zero coefficient vector and a right-hand side
    of at most -margin.
    """

    eq_mults: List[float]
    ub_mults: List[float]


@dataclass
class LpOutcome:
    """Result of solve_feasibility.

    exit says why the simplex stopped: "optimal" (no improving column left,
    or decided without pivoting), "max_iters" (pivot budget spent),
    "stall_window" (too many pivots without lowering the artificial sum) or
    "eroded" (the entering column has no entry above PIVOT_TOL, the final
    basis is singular in the starting entries, or the final point misses a
    row of the caller's program by more than FEAS_TOL). Every exit but
    "optimal" comes with IterationLimit. point and farkas always refer to
    the caller's rows.
    """

    status: LpStatus
    point: Optional[np.ndarray] = None
    farkas: Optional[FarkasCertificate] = None
    iterations: int = 0
    wall_time: float = 0.0
    exit: str = "optimal"


SparseRow = Tuple[Dict[int, float], float]


class LpProblem:
    """Sparse equality/inequality system a^T z {=, <=} beta with free z."""

    def __init__(self, nvars: int, names: Optional[Sequence[str]] = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0, got %d" % nvars)
        self.nvars = nvars
        if names is None:
            # Generated names are valid and unique by construction.
            names = ["z%d" % (i + 1) for i in range(nvars)]
        else:
            names = list(names)
            if len(names) != nvars:
                raise ValueError("expected %d names, got %d" % (nvars, len(names)))
            for nm in names:
                if not _NAME_RE.match(nm):
                    raise ValueError("invalid variable name %r" % nm)
            if len(set(names)) != nvars:
                raise ValueError("variable names must be unique")
        self.names = names
        self.eq_rows: List[SparseRow] = []
        self.ub_rows: List[SparseRow] = []

    def _clean(self, coefs: Dict[int, float], rhs: float) -> SparseRow:
        out: Dict[int, float] = {}
        for idx, c in coefs.items():
            i = int(idx)
            if not 0 <= i < self.nvars:
                raise ValueError("variable index %d out of range [0, %d)" % (i, self.nvars))
            v = float(c)
            if not math.isfinite(v):
                raise ValueError("non-finite coefficient %r on %s" % (v, self.names[i]))
            if v != 0.0:
                out[i] = v
        b = float(rhs)
        if not math.isfinite(b):
            raise ValueError("non-finite right-hand side %r" % b)
        return out, b

    def add_eq(self, coefs: Dict[int, float], rhs: float) -> None:
        self.eq_rows.append(self._clean(coefs, rhs))

    def add_ub(self, coefs: Dict[int, float], rhs: float) -> None:
        self.ub_rows.append(self._clean(coefs, rhs))

    @property
    def nrows(self) -> int:
        return len(self.eq_rows) + len(self.ub_rows)

    def max_violation(self, z: Sequence[float]) -> float:
        # Each row adds its products one at a time, in entry order. sum()
        # would not: from Python 3.12 on it compensates float sums.
        z = np.asarray(z, dtype=float).tolist()
        worst = 0.0
        for coefs, rhs in self.eq_rows:
            v = 0.0
            for i, c in coefs.items():
                v += c * z[i]
            worst = max(worst, abs(v - rhs))
        for coefs, rhs in self.ub_rows:
            v = 0.0
            for i, c in coefs.items():
                v += c * z[i]
            worst = max(worst, v - rhs)
        return worst

    def __eq__(self, other):
        if not isinstance(other, LpProblem):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.names == other.names
            and self.eq_rows == other.eq_rows
            and self.ub_rows == other.ub_rows
        )

    def __repr__(self):
        return "LpProblem(nvars=%d, eq=%d, ub=%d)" % (
            self.nvars,
            len(self.eq_rows),
            len(self.ub_rows),
        )


def validate_farkas(
    lp: LpProblem, cert: FarkasCertificate, tol: float = FARKAS_SIGN_TOL
) -> Tuple[float, float]:
    """(max |combined coefficient|, combined right-hand side).

    A valid certificate has the first value <= tol and the second <= -tol,
    with every ub multiplier non-negative.
    """
    if len(cert.eq_mults) != len(lp.eq_rows) or len(cert.ub_mults) != len(lp.ub_rows):
        raise ValueError("certificate length does not match the row counts")
    for mult in cert.ub_mults:
        if mult < -tol:
            raise ValueError("negative multiplier %g on an inequality row" % mult)
    # Rows are combined in order. A zero multiplier adds only signed zeros
    # to sums that start at +0.0, which leaves every bit alone, so its row
    # is skipped.
    combo = [0.0] * lp.nvars
    rhs = 0.0
    for mults, rows in ((cert.eq_mults, lp.eq_rows), (cert.ub_mults, lp.ub_rows)):
        for mult, (coefs, beta) in zip(mults, rows):
            if mult == 0.0:
                continue
            for i, c in coefs.items():
                combo[i] += mult * c
            rhs += mult * beta
    # np.max, unlike max(), carries a NaN through to the gate.
    max_coef = float(np.max(np.abs(combo))) if lp.nvars else 0.0
    return max_coef, rhs


def solve_feasibility(lp: LpProblem, max_iters: int = MAX_ITERS) -> LpOutcome:
    """Decide feasibility: presolve, phase-1 simplex on what is left, postsolve.

    Returns Feasible with a point satisfying every row of lp within
    FEAS_TOL, Infeasible with a Farkas certificate on lp's rows, or
    IterationLimit after at most max_iters pivots.
    """
    t0 = time.perf_counter()
    pre = _Presolve(lp)
    iterations = 0

    def outcome(status: LpStatus, exit: str = "optimal", **kw) -> LpOutcome:
        return LpOutcome(status=status, iterations=iterations,
                         wall_time=time.perf_counter() - t0, exit=exit, **kw)

    if pre.contradiction is not None:
        # An empty row that cannot hold is its own one-row certificate,
        # scaled to a combined right-hand side of -1.
        r = pre.contradiction
        return outcome(LpStatus.INFEASIBLE, farkas=pre.certificate({r: -1.0 / pre.beta[r]}))
    rows, cols, nonneg = pre.reduced()
    reason, iterations, z, y = _phase1(rows, cols, nonneg, pre.n_eq, max_iters)
    if reason != "optimal":
        return outcome(LpStatus.ITERATION_LIMIT, reason)
    if y is not None:
        return outcome(LpStatus.INFEASIBLE,
                       farkas=pre.certificate(dict(zip([r for r, _, _ in rows], y.tolist()))))
    point = pre.point(cols, z)
    if lp.max_violation(point) > FEAS_TOL:
        # The reduced tableau's point misses a row of the caller's program.
        return outcome(LpStatus.ITERATION_LIMIT, "eroded")
    return outcome(LpStatus.FEASIBLE, point=point)


class _Presolve:
    """Sign columns, substitution and forcing rows, applied before the simplex.

    Rows are numbered equality rows first, then inequality rows. The first
    inequality row -c x_j <= 0 (c > 0) of a variable makes x_j a sign column
    and is its sign row; every other variable is free. Equality rows are
    taken off a queue:

    - A forcing row has right-hand side 0 and entries of one sign, all on
      sign columns. Each of its columns is then 0: it is taken out of every
      row, and the forcing row is dropped.
    - A row of one or two entries substitutes one variable out. Of two, the
      free one with the larger |entry| (the lower index on a tie) goes; two
      sign columns stay. A single entry fixes its variable, free or sign.
      That variable, x_j, is replaced everywhere by
      (beta_r - sum_k a_rk x_k) / a_rj.

    Neither rule adds entries to a row, and a changed equality row rejoins
    the queue. An updated entry (or right-hand side) within DROP_TOL of both
    terms that made it is cancellation noise and becomes an exact zero. A row
    left empty is dropped if it holds within FEAS_TOL and is the
    contradiction otherwise; a fixed sign column's sign row settles that way.
    The sign rows still live at the end leave the tableau as native bounds.

    `steps` records each elimination as (row r, variable j, row r's
    entries, beta_r, [(i, a_ij / a_rj) for every other row i holding j
    then]), and each forcing row as (row r, None, row r's entries, 0.0,
    [(k, sign row of k, c_k, [(i, a_ik) for every other row i holding k
    then]) for every column k of r]); postsolve replays them backwards.
    Rows are copied before their first update, so the caller's program is
    never modified.
    """

    def __init__(self, lp: LpProblem):
        self.nvars = lp.nvars
        self.n_eq = len(lp.eq_rows)
        self.coefs = [coefs for coefs, _ in lp.eq_rows] + [coefs for coefs, _ in lp.ub_rows]
        self.beta = [beta for _, beta in lp.eq_rows] + [beta for _, beta in lp.ub_rows]
        self.live = [True] * len(self.coefs)
        self.steps: List[tuple] = []
        self.contradiction: Optional[int] = None
        self.sign_row: Dict[int, int] = {}
        for r, coefs in enumerate(self.coefs):
            if not coefs and self._settle_empty(r):
                return
            if r >= self.n_eq and len(coefs) == 1 and self.beta[r] == 0.0:
                (j, c), = coefs.items()
                if c < 0.0:
                    self.sign_row.setdefault(j, r)
        queue = deque(r for r in range(self.n_eq) if self.live[r])
        if queue:
            self._eliminate(queue)

    def _settle_empty(self, r: int) -> bool:
        """Drop empty row r if it holds; otherwise record it and return True."""
        b = self.beta[r]
        if (abs(b) if r < self.n_eq else -b) > FEAS_TOL:
            self.contradiction = r
            return True
        self.live[r] = False
        return False

    def _forcing(self, r: int) -> bool:
        row = self.coefs[r]
        if self.beta[r] != 0.0 or any(k not in self.sign_row for k in row):
            return False
        return all(a > 0.0 for a in row.values()) or all(a < 0.0 for a in row.values())

    def _eliminate(self, queue: "deque[int]") -> None:
        coefs, beta, live, n_eq = self.coefs, self.beta, self.live, self.n_eq
        sign_row = self.sign_row
        owned = [False] * len(coefs)
        queued = [False] * len(coefs)
        for r in queue:
            queued[r] = True
        cols: List[set] = [set() for _ in range(self.nvars)]
        for r, row in enumerate(coefs):
            if live[r]:
                for j in row:
                    cols[j].add(r)

        def own(i: int) -> Dict[int, float]:
            if not owned[i]:
                coefs[i] = dict(coefs[i])
                owned[i] = True
            return coefs[i]

        def changed(i: int) -> bool:
            """Settle or requeue row i after an update; True on a contradiction."""
            if not coefs[i]:
                return self._settle_empty(i)
            if i < n_eq and not queued[i] and (len(coefs[i]) <= 2 or beta[i] == 0.0):
                queued[i] = True
                queue.append(i)
            return False

        while queue:
            r = queue.popleft()
            queued[r] = False
            if not live[r]:
                continue
            row = coefs[r]
            if self._forcing(r):
                live[r] = False
                fixed = []
                hit: set = set()
                for k in row:
                    cols[k].discard(r)
                    sr = sign_row[k]
                    others = []
                    fixed.append((k, sr, -coefs[sr][k], others))
                    for i in sorted(cols[k]):
                        a_ik = own(i).pop(k)
                        if i != sr:
                            others.append((i, a_ik))
                        hit.add(i)
                    cols[k] = set()
                self.steps.append((r, None, row, 0.0, fixed))
                for i in sorted(hit):
                    if changed(i):
                        return
                continue
            if len(row) > 2:
                continue
            free = [k for k in row if k not in sign_row] if len(row) == 2 else list(row)
            if not free:
                continue
            j = max(free, key=lambda k: (abs(row[k]), -k))
            a_rj, b_r = row[j], beta[r]
            rest = [(k, a / a_rj) for k, a in row.items() if k != j]
            live[r] = False
            for k in row:
                cols[k].discard(r)
            column: List[Tuple[int, float]] = []
            self.steps.append((r, j, row, b_r, column))
            for i in sorted(cols[j]):
                ri = own(i)
                a_ij = ri.pop(j)
                column.append((i, a_ij / a_rj))
                # row i -= (a_ij / a_rj) row r, entry by entry.
                for k, g in rest:
                    d = a_ij * g
                    old = ri.get(k)
                    if old is None:
                        ri[k] = -d
                        cols[k].add(i)
                        continue
                    new = old - d
                    if abs(new) > DROP_TOL * max(abs(old), abs(d)):
                        ri[k] = new
                    else:
                        del ri[k]
                        cols[k].discard(i)
                if b_r:
                    old = beta[i]
                    d = a_ij * (b_r / a_rj)
                    new = old - d
                    beta[i] = new if abs(new) > DROP_TOL * max(abs(old), abs(d)) else 0.0
                if changed(i):
                    return
            cols[j] = set()

    def reduced(self) -> Tuple[List[Tuple[int, Dict[int, float], float]], List[int], List[bool]]:
        """(row, entries, beta) of the live rows but the sign rows, the variables
        they use, and which of those are sign columns."""
        bounds = set(self.sign_row.values())
        rows = [(r, self.coefs[r], self.beta[r]) for r in range(len(self.coefs))
                if self.live[r] and r not in bounds]
        used: set = set()
        for _, coefs, _ in rows:
            used.update(coefs)
        cols = sorted(used)
        return rows, cols, [j in self.sign_row for j in cols]

    def point(self, cols: List[int], z: np.ndarray) -> np.ndarray:
        """The reduced point on `cols`, back-substituted into every eliminated variable.

        Columns fixed by a forcing row keep their 0.
        """
        x = np.zeros(self.nvars)
        x[cols] = z
        out = x.tolist()
        for _, j, row, b_r, _ in reversed(self.steps):
            if j is not None:
                out[j] = (b_r - sum(a * out[k] for k, a in row.items() if k != j)) / row[j]
        return np.array(out)

    def certificate(self, mults: Dict[int, float]) -> FarkasCertificate:
        """Multipliers on reduced rows ({row: y}), extended to the eliminated ones.

        Each sign row gets the multiplier that zeroes its column. For a
        sign row kept as a bound that is s_j / c_j, where s_j >= 0 is the
        combination of the reduced rows on column j. An eliminated row gets
        y_r = -sum_i y_i a_ij / a_rj, which zeroes column j. A forcing row
        gets the extreme y_r of -s_k / a_rk over its columns (the largest
        when its entries are positive), so that every s_k + y_r a_rk is
        >= 0, and each column's sign row takes that rest. The certificate
        combines the caller's rows as y did the reduced ones. Rows absent
        from mults get 0.
        """
        y = [0.0] * len(self.beta)
        for r, u in mults.items():
            y[r] = u
        # A contradiction can stop presolve between emptying a sign row and
        # settling it; such a row no longer bounds its column.
        bounds = {j: r for j, r in self.sign_row.items() if self.live[r] and self.coefs[r]}
        combo = dict.fromkeys(bounds, 0.0)
        for r, u in mults.items():
            if u == 0.0:
                continue  # adds signed zeros to sums that start at +0.0
            for j, a in self.coefs[r].items():
                if j in combo:
                    combo[j] += u * a
        for j, r in bounds.items():
            y[r] = max(combo[j], 0.0) / -self.coefs[r][j]
        for r, j, row, _, column in reversed(self.steps):
            if j is not None:
                y[r] = -sum(y[i] * f for i, f in column)
                continue
            s = [sum(y[i] * a for i, a in others) for _, _, _, others in column]
            ratios = [-s_k / row[k] for s_k, (k, _, _, _) in zip(s, column)]
            y[r] = max(ratios) if next(iter(row.values())) > 0.0 else min(ratios)
            for s_k, (k, sr, c_k, _) in zip(s, column):
                y[sr] = max(s_k + y[r] * row[k], 0.0) / c_k
        return FarkasCertificate(y[: self.n_eq], y[self.n_eq :])


def _phase1(
    rows: List[Tuple[int, Dict[int, float], float]],
    cols: List[int],
    nonneg: List[bool],
    n_eq: int,
    max_iters: int,
) -> Tuple[str, int, Optional[np.ndarray], Optional[np.ndarray]]:
    """Phase-1 simplex over rows (row, entries, beta) in the variables `cols`.

    A variable whose `nonneg` flag is set is bounded below by 0; the others
    are free. Returns (exit, pivots, point on cols or None, multipliers on
    rows or None). Only exit "optimal" returns either: multipliers when the
    artificial sum stays above INFEAS_MARGIN, the point otherwise.
    """
    m = len(rows)
    n = len(cols)
    if m == 0:
        return "optimal", 0, np.zeros(n), None
    ub = np.flatnonzero([orig >= n_eq for orig, _, _ in rows])
    n_ub = ub.size
    # Logical columns are the n plus columns, the n minus columns, the
    # slacks and one artificial per row; basis codes number them in that
    # order. Only plus columns and slacks are stored: minus column j is
    # exactly -T[:, j] (every update is linear, negation is exact), and the
    # artificials never re-enter. A sign column's minus twin never enters.
    w = n + n_ub  # stored columns; the right-hand side sits at column w
    art0 = 2 * n + n_ub
    ncols = art0 + m
    counts = [len(coefs) for _, coefs, _ in rows]
    nnz = sum(counts) + n_ub
    need = 8 * (2 * (m + 1) * (w + 1) + 3 * nnz + 2 * min(m, w) ** 2)
    if need > MAX_TABLEAU_BYTES:
        raise LpCapacityError("tableau of %d x %d needs %d bytes, capacity is %d; export the"
                              " LP instead" % (m + 1, w + 1, need, MAX_TABLEAU_BYTES))
    # The starting tableau as flat (row, stored column, value) entries, kept
    # for the final solve: each row is divided by its largest |entry| and
    # flipped to a non-negative right-hand side. A slack's entry is
    # flip * scale / scale, exactly +-1.
    er = np.repeat(np.arange(m), counts)
    pos = np.empty(cols[-1] + 1, np.intp)
    pos[cols] = np.arange(n)
    ec = pos[np.fromiter(chain.from_iterable(coefs for _, coefs, _ in rows), np.intp, er.size)]
    ev = np.fromiter(chain.from_iterable(coefs.values() for _, coefs, _ in rows), float, er.size)
    scale = np.maximum.reduceat(np.abs(ev), np.cumsum(counts) - counts)
    b = np.array([beta for _, _, beta in rows]) / scale
    flip = np.where(b < 0, -1.0, 1.0)
    er = np.concatenate((er, ub))
    ec = np.concatenate((ec, np.arange(n, w)))
    ev = flip[er] * np.concatenate((ev, scale[ub])) / scale[er]
    T = np.zeros((m + 1, w + 1))
    T[er, ec] = ev
    T[:m, w] = flip * b
    # The one work array of every pivot update. A temporary of varying size
    # per pivot would be mapped afresh each time, which costs millions of
    # page faults on a long first solve.
    scratch = np.empty_like(T)

    # Objective row holds reduced costs for min(sum of artificials); the
    # starting basis is the artificials themselves.
    T[m, :] = -T[:m, :].sum(axis=0)

    basis = np.arange(art0, art0 + m)

    # Reduced costs are read in place from the objective row: the plus
    # columns, then the slacks. A minus column's reduced cost is minus its
    # plus column's; mask - plus gives it, with mask +inf on the sign
    # columns, whose minus twins never enter, and 0 on the free ones.
    # Artificials never enter: a basic one keeps reduced cost exactly 0,
    # and one that has left stays out.
    plus = T[m, :n]
    slack = T[m, n:w]
    mask = np.where(nonneg, np.inf, 0.0)
    minus = np.empty(n)
    rhs_col = T[:m, w]

    iterations = 0
    reason = "optimal"
    best_value = math.inf
    no_progress = 0
    # A run of twice the rows plus logical columns without lowering the
    # artificial sum is numerical treading water, not progress; end it as
    # IterationLimit rather than burn the whole iteration budget.
    progress_window = 2 * (m + ncols)
    while True:
        if iterations >= max_iters:
            reason = "max_iters"
            break
        # Dantzig: the entering column has the most negative reduced cost,
        # the lowest code among equal minima. Each block's argmin takes its
        # first minimum, and a later block (minus, then slack) wins only if
        # it is strictly lower. If the column's entries have all eroded
        # below the pivot tolerance it cannot be pivoted (phase 1 is never
        # truly unbounded), and the run ends eroded.
        pc = int(plus.argmin())
        price = plus.item(pc)
        np.subtract(mask, plus, out=minus)
        jm = int(minus.argmin())
        if minus.item(jm) < price:
            pc, price = n + jm, minus.item(jm)
        if n_ub:
            js = int(slack.argmin())
            if slack.item(js) < price:
                pc, price = 2 * n + js, slack.item(js)
        if price >= -PIVOT_TOL:
            break
        j = pc if pc < n else pc - n
        colvals = -T[:, j] if n <= pc < 2 * n else T[:, j].copy()
        eligible = (colvals[:m] > PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            reason = "eroded"
            break
        # Harris two-pass ratio test, on Python floats over the eligible
        # rows: pass 1 bounds the step with every right-hand side relaxed by
        # PIVOT_TOL; pass 2 takes, among the rows whose exact ratio fits
        # under that bound, the largest pivot entry (the first on a tie).
        # Pivoting on the smallest-index tie instead lets entries near
        # PIVOT_TOL through and blows the tableau up. The conditional is
        # max(r, 0.0), NaN and -0.0 included, without the call.
        a = colvals[eligible].tolist()
        rhs = rhs_col[eligible].tolist()
        bound = min([((0.0 if r < 0.0 else r) + PIVOT_TOL) / x for r, x in zip(rhs, a)])
        largest, at = -math.inf, 0
        for k, (r, x) in enumerate(zip(rhs, a)):
            if x > largest and r / x <= bound:
                largest, at = x, k
        pr = int(eligible[at])
        # Pivot on (pr, pc). A row whose pivot-column entry is zero would
        # change by exactly 0 * T[pr], so when at most half the rows have a
        # nonzero entry only those are gathered, updated and scattered back.
        piv = colvals.item(pr)
        colvals[pr] = 0.0
        row = T[pr]
        row /= piv
        erows = colvals.nonzero()[0]
        k = erows.size
        if 2 * k > m + 1:
            T -= np.multiply(colvals[:, None], row, out=scratch)
        else:
            # mode="clip" gathers straight into scratch; "raise" would buffer.
            blk = np.take(T, erows, axis=0, out=scratch[:k], mode="clip")
            blk -= np.multiply(colvals[erows, None], row, out=scratch[k : 2 * k])
            T[erows] = blk
        basis[pr] = pc
        iterations += 1
        value_now = -T.item(m, w)
        if value_now < best_value - PIVOT_TOL:
            best_value = value_now
            no_progress = 0
        else:
            no_progress += 1
            if no_progress >= progress_window:
                reason = "stall_window"
                break

    if reason != "optimal":
        return reason, iterations, None, None
    # Refactorize the final basis once, from the starting entries. A basic
    # artificial never leaves its own row. With A the rows whose artificial
    # is basic and I the others, the basis is [N | unit columns on A], and
    # it is nonsingular exactly when the s x s block N_I of the other s
    # basic columns is. N_I is gathered into the work array, minus columns
    # as their plus twins: the solve then gives z_j itself, and the
    # multipliers do not depend on a column's sign.
    inner = basis < art0
    stored = np.where(basis < n, basis, basis - n)[inner]
    s = stored.size
    col_at = np.full(w, -1)
    col_at[stored] = np.arange(s)
    row_at = np.full(m, -1)
    row_at[inner] = np.arange(s)
    p, q = col_at[ec], row_at[er]
    on_i, on_a = (p >= 0) & (q >= 0), (p >= 0) & (q < 0)
    N = scratch.reshape(-1)[: s * s].reshape(s, s)
    N.fill(0.0)
    N[q[on_i], p[on_i]] = ev[on_i]
    try:
        if -T[m, w] > INFEAS_MARGIN:
            # Simplex multipliers y = c_B^T B^-1 with c_B marking the basic
            # artificials: y is 1 on A, and on I it zeroes every other basic
            # column, N_I^T y_I = -N_A^T 1. Undo scaling and flips, negate,
            # and the rows combine to 0 <= -value, up to a non-negative
            # combination on the sign columns that their sign rows cancel.
            y = np.ones(m)
            y[inner] = np.linalg.solve(
                N.T, -np.bincount(p[on_a], weights=ev[on_a], minlength=s))
            u = -y * flip / scale
            u[ub] = np.where(u[ub] > -FEAS_TOL, np.maximum(u[ub], 0.0), u[ub])
            return reason, iterations, None, u
        x = np.linalg.solve(N, (flip * b)[inner])
    except np.linalg.LinAlgError:
        # The final basis is singular in the starting entries.
        return "eroded", iterations, None, None
    z = np.zeros(n)
    structural = stored < n
    z[stored[structural]] = x[structural]
    return reason, iterations, z, None


# -- CPLEX LP text format ---------------------------------------------------

def _fmt(x: float) -> str:
    # %.17g round-trips every double exactly.
    return "%.17g" % x


def _row_text(lp: LpProblem, coefs: Dict[int, float]) -> str:
    if not coefs:
        if lp.nvars == 0:
            raise ValueError("cannot export a termless row with no variables")
        # A termless row still needs one syntactic term.
        return "+0 %s" % lp.names[0]
    parts = []
    for i in sorted(coefs):
        c = coefs[i]
        sign = "+" if c >= 0 else "-"
        parts.append("%s%s %s" % (sign, _fmt(abs(c)), lp.names[i]))
    return " ".join(parts)


def export_lp_text(lp: LpProblem, destination: Optional[str] = None) -> str:
    """Serialize to the CPLEX LP textual format (zero objective, free vars).

    Equality rows come first, inequality rows after, both in insertion
    order; re-parsing with parse_lp_text reproduces the problem exactly.
    """
    lines = [
        "\\ feasibility program: %d variables, %d equalities, %d inequalities"
        % (lp.nvars, len(lp.eq_rows), len(lp.ub_rows)),
        "Minimize",
        " obj:",
        "Subject To",
    ]
    cnum = 0
    for coefs, rhs in lp.eq_rows:
        cnum += 1
        lines.append(" c%d: %s = %s" % (cnum, _row_text(lp, coefs), _fmt(rhs)))
    for coefs, rhs in lp.ub_rows:
        cnum += 1
        lines.append(" c%d: %s <= %s" % (cnum, _row_text(lp, coefs), _fmt(rhs)))
    lines.append("Bounds")
    for name in lp.names:
        lines.append(" %s free" % name)
    lines.append("End")
    text = "\n".join(lines) + "\n"
    if destination is not None:
        with open(destination, "w") as fh:
            fh.write(text)
    return text


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rel><=|>=|=)|(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sign>[+-])|(?P<colon>:))"
)


class LpParseError(ValueError):
    pass


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0]
        pos = 0
        while pos < len(line):
            mt = _TOKEN_RE.match(line, pos)
            if not mt or mt.end() == pos:
                if line[pos:].strip():
                    raise LpParseError("unrecognized input %r" % line[pos:].strip())
                break
            pos = mt.end()
            for kind in ("rel", "num", "name", "sign", "colon"):
                val = mt.group(kind)
                if val is not None:
                    tokens.append((kind, val))
                    break
    return tokens


def parse_lp_text(text: str) -> LpProblem:
    """Parse the subset of the LP format produced by export_lp_text."""
    tokens = _tokenize(text)
    # Section split driven by the keywords.
    sections: Dict[str, List[Tuple[str, str]]] = {
        "minimize": [],
        "subject": [],
        "bounds": [],
    }
    current: Optional[str] = None
    i = 0
    while i < len(tokens):
        kind, val = tokens[i]
        low = val.lower()
        if kind == "name" and low in ("minimize", "min"):
            current = "minimize"
            i += 1
            continue
        if kind == "name" and low == "subject":
            if i + 1 < len(tokens) and tokens[i + 1][1].lower() == "to":
                current = "subject"
                i += 2
                continue
        if kind == "name" and low in ("st", "s.t."):
            current = "subject"
            i += 1
            continue
        if kind == "name" and low == "bounds":
            current = "bounds"
            i += 1
            continue
        if kind == "name" and low == "end":
            break
        if current is None:
            raise LpParseError("token %r before any section" % val)
        sections[current].append((kind, val))
        i += 1

    # Bounds section declares every variable, in index order.
    names: List[str] = []
    btoks = sections["bounds"]
    j = 0
    while j < len(btoks):
        kind, val = btoks[j]
        if kind != "name":
            raise LpParseError("expected a variable name in Bounds, got %r" % val)
        if j + 1 >= len(btoks) or btoks[j + 1][1].lower() != "free":
            raise LpParseError("variable %r must be declared free" % val)
        names.append(val)
        j += 2

    lp = LpProblem(len(names), names or None)
    index = {nm: k for k, nm in enumerate(names)}

    # Objective must be zero: a label plus nothing, or terms with coefficient 0.
    otoks = [t for t in sections["minimize"]]
    j = 0
    if j < len(otoks) and otoks[j][0] == "name" and j + 1 < len(otoks) and otoks[j + 1][0] == "colon":
        j += 2
    terms, j = _parse_terms(otoks, j, index)
    if j != len(otoks):
        raise LpParseError("unexpected token %r in the objective" % (otoks[j][1],))
    if any(c != 0.0 for c in terms.values()):
        raise LpParseError("objective must be identically zero")

    stoks = sections["subject"]
    j = 0
    while j < len(stoks):
        if stoks[j][0] == "name" and j + 1 < len(stoks) and stoks[j + 1][0] == "colon":
            j += 2  # row label
        coefs, j = _parse_terms(stoks, j, index)
        if j >= len(stoks) or stoks[j][0] != "rel":
            raise LpParseError("constraint row is missing its relation")
        rel = stoks[j][1]
        j += 1
        rhs, j = _parse_number(stoks, j)
        if rel == "=":
            lp.add_eq(coefs, rhs)
        elif rel == "<=":
            lp.add_ub(coefs, rhs)
        else:
            raise LpParseError("unsupported relation %r" % rel)
    return lp


def _parse_number(tokens, j) -> Tuple[float, int]:
    sign = 1.0
    while j < len(tokens) and tokens[j][0] == "sign":
        if tokens[j][1] == "-":
            sign = -sign
        j += 1
    if j >= len(tokens) or tokens[j][0] != "num":
        raise LpParseError("expected a number")
    return sign * float(tokens[j][1]), j + 1


def _parse_terms(tokens, j, index) -> Tuple[Dict[int, float], int]:
    coefs: Dict[int, float] = {}
    while j < len(tokens):
        kind, val = tokens[j]
        if kind == "rel":
            break
        sign = 1.0
        while j < len(tokens) and tokens[j][0] == "sign":
            if tokens[j][1] == "-":
                sign = -sign
            j += 1
        if j >= len(tokens):
            break
        kind, val = tokens[j]
        coef = sign
        if kind == "num":
            coef = sign * float(val)
            j += 1
            if j >= len(tokens) or tokens[j][0] != "name":
                raise LpParseError("number %s is not followed by a variable" % val)
            kind, val = tokens[j]
        if kind != "name":
            raise LpParseError("expected a variable name, got %r" % val)
        if val not in index:
            raise LpParseError("unknown variable %r" % val)
        coefs[index[val]] = coefs.get(index[val], 0.0) + coef
        j += 1
        if coefs.get(index[val], 0.0) == 0.0:
            coefs.pop(index[val], None)
    return coefs, j
