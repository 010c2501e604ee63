"""Pure-feasibility linear programs: representation, presolve, phase-1 simplex, LP files.

Every program here minimizes the constant zero; the only question is whether
the constraint system admits a point. Its rows stay arrays from assembly to
the gates: (row, column, value) sorted by row, and the right-hand sides.
Variables are free, except that an inequality row -c x_j <= 0 makes x_j a
sign column, x_j >= 0, which the solver keeps as a bound. A presolve applies
two rules of Andersen & Andersen (Math. Prog. 71, 1995) to the equality rows,
forcing rows and rows of one or two entries, which collapse in chains
without a pivot. What is left goes to a dense phase-1 simplex over split
free variables z = z+ - z-, sign columns, slacks and one artificial per row,
with Dantzig's entering column and Harris's two-pass ratio test (Math. Prog.
5, 1973). That pairing has no anti-cycling guarantee: the progress window
bounds any cycle. Only a run that ends optimal is trusted. Every other exit
(pivot budget, progress window, an entering column with no usable pivot)
reads IterationLimit, and so does an optimal run whose final basis is
singular or whose point misses a row of the caller's program. An optimal run
answers from one solve with its final basis: the basic point if the
artificial sum is 0, else the multipliers y = c_B^T B^-1, which combine the
constraints into 0^T z <= -delta with delta > 0, so negative verdicts carry
their own proof and can be revalidated by substitution. Postsolve maps
points and multipliers back through the eliminations, so every answer, and
every check of it, refers to the caller's rows.

LP files are CPLEX LP text. export_lp_text writes a program, every number
as %.17g, which round-trips each double; parse_lp_text reads that text back
line by line and refuses any other, so a file is either exactly a program
this module wrote or an LpParseError.
"""

from __future__ import annotations

import math
import operator
import re
import time
from bisect import bisect_left
from collections import deque, namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME + r"\Z")


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
    basis is singular in the starting entries, or the final point is not
    finite or misses a row of the caller's program by more than FEAS_TOL).
    Every exit but "optimal" comes with IterationLimit. point and farkas
    always refer to the caller's rows.
    """

    status: LpStatus
    point: Optional[np.ndarray] = None
    farkas: Optional[FarkasCertificate] = None
    iterations: int = 0
    wall_time: float = 0.0
    exit: str = "optimal"


SparseRow = Tuple[Dict[int, float], float]
# Rows in array form: the (row, column, value) of every entry, sorted by row with
# columns ascending within a row, and each row's right-hand side; rows count from 0.
RowBlock = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class LpProblem:
    """Sparse equality/inequality system a^T z {=, <=} beta with free z.

    The rows are held as one RowBlock, equality rows first, with the count
    of equality rows: `arrays()`. add_eq and add_ub check one row given as a
    dict; add_rows appends whole blocks as assembly builds them, unchecked.
    Rows added either way join the arrays on the next read. eq_rows and
    ub_rows are (coefs, rhs) views built on each access, for the tests and
    export_lp_text; the solver and the gates read the arrays.
    """

    def __init__(self, nvars: int, names: Optional[Sequence[str]] = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0, got %d" % nvars)
        self.nvars = nvars
        if names is not None:
            names = list(names)
            if len(names) != nvars:
                raise ValueError("expected %d names, got %d" % (nvars, len(names)))
            for nm in names:
                if not _NAME_RE.match(nm):
                    raise ValueError("invalid variable name %r" % nm)
            if len(set(names)) != nvars:
                raise ValueError("variable names must be unique")
        self._names = names
        self._arrays = (np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0), np.empty(0), 0)
        self._added: Tuple[List[RowBlock], List[RowBlock]] = ([], [])

    @property
    def names(self) -> List[str]:
        if self._names is None:
            # Generated on first use; valid and unique by construction.
            self._names = ["z%d" % (i + 1) for i in range(self.nvars)]
        return self._names

    def _clean(self, coefs: Dict[int, float], rhs: float) -> RowBlock:
        out: Dict[int, float] = {}
        for idx, c in coefs.items():
            if isinstance(idx, bool) or not hasattr(idx, "__index__"):
                raise ValueError("variable index %r is not an integer" % (idx,))
            i = operator.index(idx)
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
        cols = sorted(out)
        return (np.zeros(len(cols), np.intp), np.array(cols, np.intp),
                np.array([out[i] for i in cols], float), np.array([b]))

    def add_eq(self, coefs: Dict[int, float], rhs: float) -> None:
        self._added[0].append(self._clean(coefs, rhs))

    def add_ub(self, coefs: Dict[int, float], rhs: float) -> None:
        self._added[1].append(self._clean(coefs, rhs))

    def add_rows(self, eq: Sequence[RowBlock] = (), ub: Sequence[RowBlock] = ()) -> None:
        """Append blocks of equality and of inequality rows, unchecked."""
        self._added[0].extend(eq)
        self._added[1].extend(ub)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """(row, column, value, rhs, n_eq): the rows, the n_eq equality rows first."""
        eq, ub = self._added
        if eq or ub:
            row, col, val, rhs, n_eq = self._arrays
            if rhs.size:
                # Rows added after a read: the stored rows go around the new equality rows.
                cut = int(np.searchsorted(row, n_eq))
                eq.insert(0, (row[:cut], col[:cut], val[:cut], rhs[:n_eq]))
                ub.insert(0, (row[cut:] - n_eq, col[cut:], val[cut:], rhs[n_eq:]))
            blocks = eq + ub
            offsets = list(accumulate([b[3].size for b in blocks], initial=0))
            row = np.concatenate([b[0] + o if o else b[0] for b, o in zip(blocks, offsets)])
            self._arrays = (row, *(np.concatenate([b[k] for b in blocks]) for k in (1, 2, 3)),
                            offsets[len(eq)])
            self._added = ([], [])
        return self._arrays

    def _views(self, eq: bool) -> List[SparseRow]:
        row, col, val, rhs, n_eq = self.arrays()
        lo, hi = (0, n_eq) if eq else (n_eq, rhs.size)
        a, b = np.searchsorted(row, (lo, hi))
        entries = zip(col[a:b].tolist(), val[a:b].tolist())
        counts = np.bincount(row[a:b] - lo, minlength=hi - lo).tolist()
        return [(dict(islice(entries, c)), beta) for c, beta in zip(counts, rhs[lo:hi].tolist())]

    # (coefs, rhs) views of the rows, built on each access.
    eq_rows = property(lambda self: self._views(True))
    ub_rows = property(lambda self: self._views(False))

    @property
    def nrows(self) -> int:
        return self.arrays()[3].size

    def max_violation(self, z: Sequence[float]) -> float:
        """The largest amount by which a row misses at z (0.0 if none does); NaN propagates.

        Each row adds its products in column order: bincount adds its input
        in order.
        """
        row, col, val, rhs, n_eq = self.arrays()
        v = np.bincount(row, val * np.asarray(z, dtype=float)[col], rhs.size) - rhs
        v[:n_eq] = np.abs(v[:n_eq])
        worst = float(v.max()) if v.size else 0.0
        return 0.0 if worst <= 0.0 else worst

    def __eq__(self, other):
        if not isinstance(other, LpProblem):
            return NotImplemented
        mine, theirs = self.arrays(), other.arrays()
        return (self.nvars == other.nvars and self.names == other.names and mine[4] == theirs[4]
                and all(np.array_equal(a, b) for a, b in zip(mine[:4], theirs[:4])))

    def __repr__(self):
        n_eq = self.arrays()[4]
        return "LpProblem(nvars=%d, eq=%d, ub=%d)" % (self.nvars, n_eq, self.nrows - n_eq)


def validate_farkas(
    lp: LpProblem, cert: FarkasCertificate, tol: float = FARKAS_SIGN_TOL
) -> Tuple[float, float]:
    """(max |combined coefficient|, combined right-hand side).

    A valid certificate has the first value <= tol and the second <= -tol,
    with every ub multiplier non-negative.
    """
    row, col, val, rhs, n_eq = lp.arrays()
    if len(cert.eq_mults) != n_eq or len(cert.ub_mults) != rhs.size - n_eq:
        raise ValueError("certificate length does not match the row counts")
    for mult in cert.ub_mults:
        if mult < -tol:
            raise ValueError("negative multiplier %g on an inequality row" % mult)
    # Rows are combined in order: bincount adds its input in order, and the
    # right-hand side is a running sum from +0.0 (np.sum would add pairwise).
    u = np.fromiter(chain(cert.eq_mults, cert.ub_mults), float, rhs.size)
    combo = np.bincount(col, weights=u[row] * val, minlength=lp.nvars)
    total = np.cumsum(np.append(0.0, u * rhs))[-1]
    # np.max, unlike max(), carries a NaN through to the gate.
    max_coef = float(np.max(np.abs(combo))) if lp.nvars else 0.0
    return max_coef, float(total)


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
        y = np.array([-1.0 / pre.beta[pre.contradiction]])
        return outcome(LpStatus.INFEASIBLE, farkas=pre.certificate(y))
    red = pre.reduced()
    reason, iterations, z, y = _phase1(red, max_iters)
    if reason != "optimal":
        return outcome(LpStatus.ITERATION_LIMIT, reason)
    if y is not None:
        return outcome(LpStatus.INFEASIBLE, farkas=pre.certificate(y, red))
    point = pre.point(red.cols, z)
    if not lp.max_violation(point) <= FEAS_TOL:
        # The reduced tableau's point misses a row of the caller's program,
        # or is not finite.
        return outcome(LpStatus.ITERATION_LIMIT, "eroded")
    return outcome(LpStatus.FEASIBLE, point=point)


# The program presolve hands the simplex. rows lists the caller's indices of
# its rows, ascending, and ub the positions among them of the inequality rows.
# Entry e lies in row er[e] (a position in rows) and column ec[e] (a position
# in cols) with value ev[e], grouped by row. beta holds the right-hand sides,
# cols the caller's columns in use, ascending, and nonneg flags sign columns.
_Reduced = namedtuple("_Reduced", "rows ub er ec ev beta cols nonneg")


class _Presolve:
    """Sign columns, substitution and forcing rows, applied before the simplex.

    Rows are numbered equality rows first, then inequality rows. The first
    inequality row -c x_j <= 0 (c > 0) of a variable makes x_j a sign column
    and is its sign row; every other variable is free. Equality rows are
    taken in a first sweep in row order, then off a queue:

    - A forcing row has right-hand side 0 and entries of one sign, all on
      sign columns. Each of its columns is then 0: it is taken out of every
      row, and the forcing row is dropped.
    - A row of one or two entries substitutes one variable out. Of two, the
      free one with the larger |entry| (the lower index on a tie) goes; two
      sign columns stay. A single entry fixes its variable, free or sign.
      That variable, x_j, is replaced everywhere by
      (beta_r - sum_k a_rk x_k) / a_rj.

    Neither rule adds entries to a row. A changed equality row joins the
    sweep if its turn is ahead, the queue otherwise. An updated entry (or
    right-hand side) within DROP_TOL of both terms that made it is
    cancellation noise and becomes an exact zero. A row left empty is dropped
    if it holds within FEAS_TOL and is the contradiction otherwise; a fixed
    sign column's sign row settles that way. The sign rows still live at the
    end leave the tableau as native bounds.

    The caller's arrays are only read. NumPy finds the sign rows, the empty
    rows and the rows the sweep starts with. Rows become dicts, in ascending
    column order, once there is work: every equality row at once, since
    presolve changes most of them (93% on the benchmark corpus), and an
    inequality row when it changes. The rows holding a column come from a
    stable argsort of the columns, plus those a substitution gave it.

    `steps` records each elimination as (row r, variable j, row r's
    entries, beta_r, [(i, a_ij / a_rj) for every other row i holding j
    then]), and each forcing row as (row r, None, row r's entries, 0.0,
    [(k, sign row of k, c_k, [(i, a_ik) for every other row i holding k
    then]) for every column k of r]); postsolve replays them backwards.
    """

    def __init__(self, lp: LpProblem):
        row, col, val, rhs, n_eq = lp.arrays()
        nrows = rhs.size
        self.nvars, self.n_eq = lp.nvars, n_eq
        ptr = np.searchsorted(row, np.arange(nrows + 1))
        counts = ptr[1:] - ptr[:-1]
        self.ptr, self.beta = ptr.tolist(), rhs.tolist()
        self.cols, self.vals = col.tolist(), val.tolist()
        self.live = [True] * nrows
        self.coefs: List[Optional[Dict[int, float]]] = [None] * nrows
        self.steps: List[tuple] = []
        self.contradiction: Optional[int] = None
        one = n_eq + np.flatnonzero(counts[n_eq:] == 1)
        one = one[(rhs[one] == 0.0) & (val[ptr[one]] < 0.0)][::-1]
        signs = col[ptr[one]]
        # Reversed, the dict keeps each column's first sign row.
        self.sign_row = dict(zip(signs.tolist(), one.tolist()))
        self.is_sign = np.zeros(lp.nvars, bool)
        self.is_sign[signs] = True
        for r in np.flatnonzero(counts == 0).tolist():
            if self._settle_empty(r):
                return
        # The equality rows presolve can take as they stand: one or two
        # entries, or forcing (the signs of their entries on sign columns
        # add up to +-count).
        k, c = ptr[n_eq], counts[:n_eq]
        total = np.bincount(row[:k], np.copysign(self.is_sign[col[:k]], val[:k]), n_eq)
        due = (c <= 2) | ((rhs[:n_eq] == 0.0) & (np.abs(total) == c))
        if due.any():
            self._eliminate(due.tolist(), row, col, c.tolist())

    def _entries(self, r: int) -> Dict[int, float]:
        """Row r's dict, made from its slice of the arrays on first use."""
        row = self.coefs[r]
        if row is None:
            a, b = self.ptr[r], self.ptr[r + 1]
            row = self.coefs[r] = dict(zip(self.cols[a:b], self.vals[a:b]))
        return row

    def _settle_empty(self, r: int) -> bool:
        """Drop empty row r if it holds; otherwise record it and return True."""
        b = self.beta[r]
        if (abs(b) if r < self.n_eq else -b) > FEAS_TOL:
            self.contradiction = r
            return True
        self.live[r] = False
        return False

    def _eliminate(self, due: List[bool], row: np.ndarray, col: np.ndarray,
                   sizes: List[int]) -> None:
        coefs, beta, live, n_eq = self.coefs, self.beta, self.live, self.n_eq
        sign_row, entries = self.sign_row, self._entries
        flat = zip(self.cols, self.vals)
        coefs[:n_eq] = [dict(islice(flat, size)) for size in sizes]
        order = np.argsort(col.astype(np.int16) if self.nvars < 2 ** 15 else col, kind="stable")
        held = row[order].tolist()
        start = np.searchsorted(col[order], np.arange(self.nvars + 1)).tolist()
        gained: Dict[int, List[int]] = {}
        queue: "deque[int]" = deque()
        queued = [False] * n_eq
        turn = -1

        def holding(j: int) -> List[int]:
            """The live rows holding column j, ascending."""
            rows = [i for i in held[start[j] : start[j + 1]]
                    if live[i] and (coefs[i] is None or j in coefs[i])]
            if j in gained:
                rows = sorted({*rows, *(i for i in gained[j] if live[i] and j in coefs[i])})
            return rows

        def changed(i: int) -> bool:
            """Settle or requeue row i after an update; True on a contradiction."""
            ri = coefs[i]
            if not ri:
                return self._settle_empty(i)
            if i < n_eq and (len(ri) <= 2 or beta[i] == 0.0):
                if i > turn:
                    due[i] = True
                elif not queued[i]:
                    queued[i] = True
                    queue.append(i)
            return False

        def turns() -> Iterator[int]:
            """The rows due in the first sweep, in row order, then the queue's."""
            nonlocal turn
            for turn in range(n_eq):
                if due[turn]:
                    yield turn
            turn = n_eq
            while queue:
                r = queue.popleft()
                queued[r] = False
                yield r

        for r in turns():
            if not live[r]:
                continue
            row = coefs[r]
            if (beta[r] == 0.0 and row.keys() <= sign_row.keys()
                    and (min(row.values()) > 0.0 or max(row.values()) < 0.0)):
                live[r] = False
                fixed = []
                hit: set = set()
                for k in row:
                    sr = sign_row[k]
                    others = []
                    fixed.append((k, sr, -self.vals[self.ptr[sr]], others))
                    for i in holding(k):
                        a_ik = (coefs[i] or entries(i)).pop(k)
                        if i != sr:
                            others.append((i, a_ik))
                        hit.add(i)
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
            column: List[Tuple[int, float]] = []
            self.steps.append((r, j, row, b_r, column))
            for i in holding(j):
                ri = coefs[i] or entries(i)
                a_ij = ri.pop(j)
                column.append((i, a_ij / a_rj))
                # row i -= (a_ij / a_rj) row r, entry by entry.
                for k, g in rest:
                    d = a_ij * g
                    old = ri.get(k)
                    if old is None:
                        ri[k] = -d
                        gained.setdefault(k, []).append(i)
                        continue
                    new = old - d
                    if abs(new) > DROP_TOL * max(abs(old), abs(d)):
                        ri[k] = new
                    else:
                        del ri[k]
                if b_r:
                    old = beta[i]
                    d = a_ij * (b_r / a_rj)
                    new = old - d
                    beta[i] = new if abs(new) > DROP_TOL * max(abs(old), abs(d)) else 0.0
                if changed(i):
                    return

    def reduced(self) -> _Reduced:
        """The live rows but the sign rows, over the columns they use."""
        bounds = set(self.sign_row.values())
        rows = [r for r, on in enumerate(self.live) if on and r not in bounds]
        entries = [self._entries(r) for r in rows]
        sizes = [len(row) for row in entries]
        ec = np.fromiter(chain.from_iterable(entries), np.intp, sum(sizes))
        used = np.zeros(self.nvars, bool)
        used[ec] = True
        return _Reduced(rows, np.arange(bisect_left(rows, self.n_eq), len(rows)),
                        np.repeat(np.arange(len(rows)), sizes), (np.cumsum(used) - 1)[ec],
                        np.fromiter(chain.from_iterable(row.values() for row in entries), float,
                                    ec.size),
                        np.array([self.beta[r] for r in rows]), np.flatnonzero(used),
                        self.is_sign[used])

    def point(self, cols: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The reduced point on `cols`, back-substituted; columns a forcing row fixed keep 0."""
        x = np.zeros(self.nvars)
        x[cols] = z
        out = x.tolist()
        for _, j, row, b_r, _ in reversed(self.steps):
            if j is not None:
                out[j] = (b_r - sum(a * out[k] for k, a in row.items() if k != j)) / row[j]
        return np.array(out)

    def certificate(self, u: np.ndarray, red: Optional[_Reduced] = None) -> FarkasCertificate:
        """Multipliers u on red's rows (or the contradiction alone), extended to the other rows.

        A sign row kept as a bound gets s_j / c_j, where s_j >= 0 is the
        combination of red's rows on column j (one bincount, in row order).
        An eliminated row gets y_r = -sum_i y_i a_ij / a_rj, which zeroes
        column j. A forcing row gets the extreme y_r of -s_k / a_rk over its
        columns (the largest when its entries are positive), so that every
        s_k + y_r a_rk is >= 0, and each column's sign row takes that rest.
        """
        y = [0.0] * len(self.beta)
        for r, v in zip([self.contradiction] if red is None else red.rows, u.tolist()):
            y[r] = v
        # A contradiction has no entries to combine: its bounds keep 0.
        if red is not None:
            s = np.bincount(red.cols[red.ec], weights=u[red.er] * red.ev, minlength=self.nvars)
            bounds = [(j, r) for j, r in self.sign_row.items() if self.live[r]]
            combo = s[[j for j, _ in bounds]]
            c = np.array([-self.vals[self.ptr[r]] for _, r in bounds])
            for (_, r), v in zip(bounds, (np.where(0.0 > combo, 0.0, combo) / c).tolist()):
                y[r] = v
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


def _phase1(red: _Reduced, max_iters: int) -> Tuple[str, int, Optional[np.ndarray],
                                                     Optional[np.ndarray]]:
    """Phase-1 simplex over the reduced program `red`.

    A sign column is bounded below by 0; the others are free. Returns
    (exit, pivots, point on red.cols or None, multipliers on red.rows or
    None). Only exit "optimal" returns either: multipliers when the
    artificial sum stays above INFEAS_MARGIN, the point otherwise.
    """
    m, n = len(red.rows), red.cols.size
    if m == 0:
        return "optimal", 0, np.zeros(n), None
    ub, nonneg = red.ub, red.nonneg
    n_ub = ub.size
    # Logical columns are the n plus columns, the n minus columns, the
    # slacks and one artificial per row; basis codes number them in that
    # order. Only plus columns and slacks are stored: minus column j is
    # exactly -T[:, j] (every update is linear, negation is exact), and the
    # artificials never re-enter. A sign column's minus twin never enters.
    w = n + n_ub  # stored columns; the right-hand side sits at column w
    art0 = 2 * n + n_ub
    ncols = art0 + m
    nnz = red.ev.size + n_ub
    need = 8 * (2 * (m + 1) * (w + 1) + 3 * nnz + 2 * min(m, w) ** 2)
    if need > MAX_TABLEAU_BYTES:
        raise LpCapacityError("tableau of %d x %d needs %d bytes, capacity is %d; export the"
                              " LP instead" % (m + 1, w + 1, need, MAX_TABLEAU_BYTES))
    # The starting tableau as flat (row, stored column, value) entries, kept
    # for the final solve: each row is divided by its largest |entry| and
    # flipped to a non-negative right-hand side. A slack's entry is
    # flip * scale / scale, exactly +-1.
    counts = np.bincount(red.er, minlength=m)
    scale = np.maximum.reduceat(np.abs(red.ev), np.cumsum(counts) - counts)
    b = red.beta / scale
    flip = np.where(b < 0, -1.0, 1.0)
    er = np.concatenate((red.er, ub))
    ec = np.concatenate((red.ec, np.arange(n, w)))
    ev = flip[er] * np.concatenate((red.ev, scale[ub])) / scale[er]
    T = np.zeros((m + 1, w + 1))
    T[er, ec] = ev
    T[:m, w] = flip * b
    # The one work array of every pivot update: a temporary of varying size per
    # pivot would be mapped afresh each time, millions of page faults on a long solve.
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
    # A run of twice the rows plus logical columns without lowering the artificial
    # sum is treading water; end it as IterationLimit, not at the pivot budget.
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
    return " ".join("%s%s %s" % ("+" if c >= 0 else "-", _fmt(abs(c)), lp.names[i])
                    for i, c in sorted(coefs.items()))


def export_lp_text(lp: LpProblem, destination: Optional[str] = None) -> str:
    """Serialize to the CPLEX LP textual format (zero objective, free vars).

    Equality rows come first, inequality rows after, both in insertion
    order; re-parsing with parse_lp_text reproduces the problem exactly.
    """
    eq, ub = lp.eq_rows, lp.ub_rows
    rows = [(coefs, "=", rhs) for coefs, rhs in eq] + [(coefs, "<=", rhs) for coefs, rhs in ub]
    lines = ["\\ feasibility program: %d variables, %d equalities, %d inequalities"
             % (lp.nvars, len(eq), len(ub)), "Minimize", " obj:", "Subject To"]
    lines += [" c%d: %s %s %s" % (k, _row_text(lp, coefs), rel, _fmt(rhs))
              for k, (coefs, rel, rhs) in enumerate(rows, 1)]
    lines += ["Bounds"] + [" %s free" % name for name in lp.names] + ["End"]
    text = "\n".join(lines) + "\n"
    if destination is not None:
        with open(destination, "w") as fh:
            fh.write(text)
    return text


# A number as %.17g prints a double, ASCII digits only. The digits before
# the point match one way only; [0-9]+\.?[0-9]* would split an integer in
# as many ways as it has digits, and a row that fails to match would retry
# every split of every term, exponentially in the row's length.
_NUM = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_ROW_RE = re.compile(r" c([0-9]+):((?: [+-]%s %s)+) (<?=) (-?%s)" % (_NUM, _NAME, _NUM))
_TERM_RE = re.compile(r" ([+-]%s) (%s)" % (_NUM, _NAME))
_FREE_RE = re.compile(r" (%s) free" % _NAME)


class LpParseError(ValueError):
    pass


def parse_lp_text(text: str) -> LpProblem:
    """Read back exactly the text export_lp_text writes; any other text raises LpParseError.

    Whole-line comments (a leading backslash) are skipped. What is left must
    be Minimize, the empty objective " obj:", Subject To, the rows c1, c2, ...
    one per line with every equality before every inequality, Bounds, one
    " NAME free" line per variable, End and a final newline. A row names each
    variable at most once; a termless row is written "+0 NAME".
    """
    lines = [line for line in text.split("\n") if not line.startswith("\\")]
    bounds = lines.index("Bounds") if "Bounds" in lines else -1
    free = [_FREE_RE.fullmatch(line) for line in lines[bounds + 1:-2]]
    if (lines[:3] != ["Minimize", " obj:", "Subject To"] or bounds < 0
            or lines[-2:] != ["End", ""] or not all(free)):
        raise LpParseError("expected Minimize, obj:, Subject To, the rows, Bounds, "
                           "one ' NAME free' line per variable and End")
    names = [m.group(1) for m in free]
    index = {name: k for k, name in enumerate(names)}
    if len(index) != len(names):
        raise LpParseError("a variable is declared free twice")
    lp, ub = LpProblem(len(names), names or None), False
    for k, line in enumerate(lines[3:bounds], 1):
        row = _ROW_RE.fullmatch(line)
        if not row or row.group(1) != str(k) or (ub and row.group(3) == "="):
            raise LpParseError("expected row c%d, got %r" % (k, line))
        ub = row.group(3) == "<="
        coefs: Dict[int, float] = {}
        for coef, name in _TERM_RE.findall(row.group(2)):
            if name not in index or index[name] in coefs:
                raise LpParseError("unknown or repeated variable %r in row c%d" % (name, k))
            coefs[index[name]] = float(coef)
        try:
            (lp.add_ub if ub else lp.add_eq)(coefs, float(row.group(4)))
        except ValueError as exc:  # a number beyond the range of a double
            raise LpParseError(str(exc)) from None
    return lp
