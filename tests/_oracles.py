"""Independent exact oracles used only by the test suite.

The LP feasibility oracle eliminates variables one at a time over exact
rationals (every float input is a dyadic rational, so Fraction conversion
is lossless). Unlike vertex probing, elimination decides feasibility for
systems of free variables whether or not the polyhedron is pointed.

Growth control, all exactness-preserving:
  - rows are normalized to primitive integer direction vectors,
  - duplicate directions keep only the tightest right-hand side,
  - the elimination order greedily minimizes the pos*neg product count,
  - a hard row cap turns a pathological blowup into a loud failure
    instead of a hang.

The reference assembler transcribes polynomial identities over dicts, term
by term, the way the program did before it assembled over arrays; ray
weights reads DSOS weights off a diagonally dominant matrix. The reference
Lie derivatives add every product grad_i * f_i and grad_i * g_ij, zero or
not, with each sum, product and derivative built by the validating
Polynomial constructor, the way the program did before its arithmetic
results skipped that validation.

The reference presolve walks one dict per row, with a set of rows per
column, as the program did before it held each program as arrays. The
reference phase-1 simplex prices one concatenated reduced-cost vector and
runs the Harris ratio test on arrays; the reference Farkas gate, point
check and single-certificate residual add every term, zero or not, one
row at a time. The program's faster versions must reproduce them bit for
bit.
"""

import math
from collections import deque
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

import numpy as np

from barrierlp.lpsolve import (
    DROP_TOL,
    FARKAS_SIGN_TOL,
    FEAS_TOL,
    INFEAS_MARGIN,
    MAX_TABLEAU_BYTES,
    PIVOT_TOL,
    FarkasCertificate,
    LpCapacityError,
    LpProblem,
)
from barrierlp.polyring import PRUNE_TOL, Polynomial, grlex_key

# coefs.z <= rhs
Row = Tuple[Dict[int, Fraction], Fraction]

ROW_CAP = 200000


def _normalize(coefs: Dict[int, Fraction], rhs: Fraction):
    """Primitive integer direction vector plus the correspondingly scaled rhs."""
    denom = 1
    for c in coefs.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = {i: int(c * denom) for i, c in coefs.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, abs(v))
    key = tuple(sorted((i, v // g) for i, v in ints.items()))
    return key, rhs * denom / g


def _reduce(rows: List[Row]) -> List[Row]:
    """Among rows sharing a direction, keep only the tightest one."""
    best: Dict[Tuple, Tuple[Fraction, Tuple[Tuple[int, int], ...]]] = {}
    order: List[Tuple] = []
    for coefs, rhs in rows:
        key, srhs = _normalize(coefs, rhs)
        if key not in best:
            best[key] = (srhs, key)
            order.append(key)
        elif srhs < best[key][0]:
            best[key] = (srhs, key)
    out: List[Row] = []
    for key in order:
        srhs, direction = best[key]
        out.append(({i: Fraction(a) for i, a in direction}, srhs))
    return out


def _combine(pos: Row, neg: Row, var: int) -> Row:
    ap = pos[0][var]
    aq = neg[0][var]
    # (-aq) * pos + ap * neg cancels the variable; both scalars positive.
    coefs: Dict[int, Fraction] = {}
    for i, c in pos[0].items():
        coefs[i] = coefs.get(i, Fraction(0)) + (-aq) * c
    for i, c in neg[0].items():
        coefs[i] = coefs.get(i, Fraction(0)) + ap * c
    coefs = {i: c for i, c in coefs.items() if c != 0}
    rhs = (-aq) * pos[1] + ap * neg[1]
    return coefs, rhs


def fm_feasible(eq_rows, ub_rows, nvars) -> bool:
    """Exact feasibility of {a.z = b} + {a.z <= b} over free variables."""
    rows: List[Row] = []
    for coefs, rhs in eq_rows:
        fc = {i: Fraction(c) for i, c in coefs.items() if c != 0.0}
        fr = Fraction(rhs)
        rows.append((dict(fc), fr))
        rows.append(({i: -c for i, c in fc.items()}, -fr))
    for coefs, rhs in ub_rows:
        fc = {i: Fraction(c) for i, c in coefs.items() if c != 0.0}
        rows.append((fc, Fraction(rhs)))

    remaining = set(range(nvars))
    while remaining:
        # Settle constant rows as they appear.
        pending = []
        for coefs, rhs in rows:
            if not coefs:
                if rhs < 0:
                    return False
            else:
                pending.append((coefs, rhs))
        rows = _reduce(pending)

        def cost(v: int) -> int:
            p = sum(1 for r in rows if r[0].get(v, 0) > 0)
            q = sum(1 for r in rows if r[0].get(v, 0) < 0)
            return p * q

        var = min(remaining, key=lambda v: (cost(v), v))
        remaining.discard(var)
        pos = [r for r in rows if r[0].get(var, Fraction(0)) > 0]
        neg = [r for r in rows if r[0].get(var, Fraction(0)) < 0]
        rest = [r for r in rows if var not in r[0]]
        derived = [_combine(p, q, var) for p in pos for q in neg]
        rows = rest + derived
        if len(rows) > ROW_CAP:
            raise RuntimeError("elimination oracle exceeded %d rows" % ROW_CAP)

    return all(rhs >= 0 for coefs, rhs in rows)


def ray_weights(v, M):
    """The ray weights of DSOS variable v that build the symmetric matrix M.

    A pair ray (e_i +- e_j)(e_i +- e_j)^T weighs max(+-M_ij, 0), and e_i e_i^T
    takes the dominance margin M_ii - sum_{j != i} |M_ij| of row i. The
    weights are all >= 0 exactly when M is diagonally dominant; the result
    is indexed by v's columns, which must start at 0.
    """
    k = v.dim
    z = [0.0] * len(v.rays)
    for col, (i, j, sign) in v.rays.items():
        if i == j:
            z[col] = M[i][i] - sum(abs(M[i][t]) for t in range(k) if t != i)
        else:
            z[col] = max(sign * M[i][j], 0.0)
    return z


# -- reference assembler -------------------------------------------------------
#
# The dict transcription of polynomial identities: a linear polynomial is
# {monomial: {column: coefficient}}, and every product term is added into
# its row at once, pruning each term and each partial sum at PRUNE_TOL. The
# program's array assembly must give the same rows.

def _accumulate(acc, mono, row, scale):
    """acc[mono] += scale * row, pruning each product term and each partial sum."""
    target = acc.setdefault(mono, {})
    for col, c in row.items():
        v = c * scale
        if abs(v) < PRUNE_TOL:
            continue
        v = target.get(col, 0.0) + v
        if abs(v) < PRUNE_TOL:
            target.pop(col, None)
        else:
            target[col] = v


def linear_sum(parts):
    """sum_k sign_k * part_k, term by term in the order given; empty monomials dropped."""
    acc = {}
    for sign, part in parts:
        for mono, row in part.items():
            _accumulate(acc, mono, row, sign)
    return {mono: row for mono, row in acc.items() if row}


def mul_fixed(lin, p):
    """lin times the fixed polynomial p, summed in lin's monomial order, then p's."""
    acc = {}
    for ea, row in lin.items():
        for eb, coef in p.terms.items():
            _accumulate(acc, tuple(a + b for a, b in zip(ea, eb)), row, coef)
    return {mono: row for mono, row in acc.items() if row}


def rows(block):
    """The rows of a RowBlock (row, column, value, rhs) as [(coefs, rhs)], one dict per row."""
    row, col, val, rhs = block
    out = [({}, b) for b in rhs.tolist()]
    for r, c, v in zip(row.tolist(), col.tolist(), val.tolist()):
        out[r][0][c] = v
    return out


def coefficient_system(lin, fixed):
    """Rows (coefs, rhs) of lin + fixed == 0, one per monomial in grlex order."""
    monos = sorted(set(lin).union(fixed.terms), key=grlex_key)
    return [(lin.get(mono, {}), -fixed.terms.get(mono, 0.0)) for mono in monos]


def instantiate(lin, z, nvars):
    """The polynomial the dict linear polynomial lin takes at the decision point z."""
    return Polynomial({mono: sum(c * z[i] for i, c in row.items()) for mono, row in lin.items()},
                      nvars)


def decode(code, codes):
    """The exponent tuple of a monomial code (see barrierlp.affinegram.MonomialCodes)."""
    radix, n = codes.radix, codes.nvars
    degree = -(-int(code) // radix ** n)
    rest = degree * radix ** n - int(code)
    digits = []
    for i in range(n):
        place = radix ** (n - 1 - i)
        digits.append(rest // place)
        rest %= place
    return tuple(digits)


def fold(lin):
    """The array linear polynomial lin in the dict view, its terms summed in order.

    A column whose sum is exactly zero, and a monomial left without
    columns, are dropped.
    """
    acc = {}
    for code, col, c in zip(lin.mono.tolist(), lin.col.tolist(), lin.coef.tolist()):
        row = acc.setdefault(decode(code, lin.codes), {})
        row[col] = row.get(col, 0.0) + c
    out = {}
    for mono, row in acc.items():
        row = {col: c for col, c in row.items() if c != 0.0}
        if row:
            out[mono] = row
    return out


def dsos_expansion(v):
    """s(x) of DSOS variable v in the dict view, built from its rays' Gram entries."""
    out = {}
    for (i, j), row in v.entries().items():
        target = out.setdefault(tuple(a + b for a, b in zip(v.basis[i], v.basis[j])), {})
        for col, c in row.items():
            target[col] = target.get(col, 0.0) + (c if i == j else 2.0 * c)
    return out


def _free_poly(lin, basis):
    return {mono: {col: 1.0} for mono, col in zip(basis, lin.col.tolist())}


def _magnitudes(magnitude):
    """(fixed-polynomial map, sign map, DSOS expansion) of a reference assembly.

    With magnitude every coefficient and sign becomes its absolute value, so
    an assembled entry is the sum of the magnitudes of the terms that make
    it: the scale of its rounding error.
    """
    if not magnitude:
        return (lambda p: p), (lambda sign: sign), dsos_expansion

    def expansion(v):
        return {mono: {col: abs(c) for col, c in row.items()}
                for mono, row in dsos_expansion(v).items()}

    return (lambda p: Polynomial({mono: abs(c) for mono, c in p.terms.items()}, p.nvars),
            abs, expansion)


def reference_single_identity(cand, layout, magnitude=False):
    """The identity of a single program, assembled over dicts from its layout.

    cand is the candidate the program was assembled for (a support-ring
    candidate when reduced); the layout supplies the bases and columns.
    """
    fix, sign, expansion = _magnitudes(magnitude)
    b, lfb, lgb = fix(cand.b), fix(cand.lfb), [fix(g) for g in cand.lgb.entry_list()]
    live = [j for j, lin in enumerate(layout.p1) if lin is not None]
    p10, p20 = (_free_poly(lin, layout.free_basis) for lin in (layout.p10, layout.p20))
    p1 = {j: _free_poly(layout.p1[j], layout.free_basis) for j in live}
    p2 = {j: _free_poly(layout.p2[j], layout.free_basis) for j in live}
    h1 = linear_sum([(1.0, expansion(layout.s1)), (1.0, mul_fixed(p10, b))]
                    + [(1.0, mul_fixed(p1[j], lgb[j])) for j in live])
    return linear_sum([(1.0, mul_fixed(h1, lfb)), (sign(-1.0), expansion(layout.s2)),
                       (sign(-1.0), mul_fixed(p20, b))]
                      + [(sign(-1.0), mul_fixed(p2[j], lgb[j])) for j in live])


def reference_emptiness_identity(layout, magnitude=False):
    """The identity of an emptiness program, assembled over dicts from its layout."""
    fix, _, expansion = _magnitudes(magnitude)
    s = [expansion(v) for v in layout.s_vars]
    return linear_sum([(1.0, s[0])] + [(1.0, mul_fixed(si, fix(gen)))
                                       for si, gen in zip(s[1:], layout.generators)])


# -- reference Lie derivatives -------------------------------------------------

def _validated_sum(p, q):
    acc = dict(p.terms)
    for mono, c in q.terms.items():
        acc[mono] = acc.get(mono, 0.0) + c
    return Polynomial(acc, p.nvars)


def _validated_product(p, q):
    acc = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            acc[key] = acc.get(key, 0.0) + ca * cb
    return Polynomial(acc, p.nvars)


def _validated_partial(p, var):
    acc = {}
    for exps, coef in p.terms.items():
        e = exps[var]
        if e:
            key = tuple(x - 1 if i == var else x for i, x in enumerate(exps))
            acc[key] = acc.get(key, 0.0) + coef * e
    return Polynomial(acc, p.nvars)


def lie_derivatives(b, sys):
    """(Lfb, [Lgb_j]) of b along sys, summed over every state i in order."""
    n = b.nvars
    grads = [_validated_partial(b, i) for i in range(n)]

    def chain(field):
        acc = Polynomial.zero(n)
        for i in range(n):
            acc = _validated_sum(acc, _validated_product(grads[i], field[i]))
        return acc

    return (chain([sys.f[i, 0] for i in range(n)]),
            [chain([sys.g[i, j] for i in range(n)]) for j in range(sys.m)])


# -- reference simplex and gates ----------------------------------------------
#
# The phase-1 simplex, the Farkas gate and the point check as they were
# before their hot paths moved to single argmins per block, Python floats
# and skipped zero terms. The program must agree with them bit for bit:
# the same pivots, points, multipliers and gate values.

def max_violation(lp, z):
    """lp's worst row violation at z, each row summed with sum() over NumPy scalars."""
    worst = 0.0
    for coefs, rhs in lp.eq_rows:
        v = sum(c * z[i] for i, c in coefs.items()) - rhs
        worst = max(worst, abs(v))
    for coefs, rhs in lp.ub_rows:
        v = sum(c * z[i] for i, c in coefs.items()) - rhs
        worst = max(worst, v)
    return worst


def validate_farkas(
    lp: LpProblem, cert: FarkasCertificate, tol: float = FARKAS_SIGN_TOL
) -> Tuple[float, float]:
    """(max |combined coefficient|, combined right-hand side).

    A valid certificate has the first value <= tol and the second <= -tol,
    with every ub multiplier non-negative.
    """
    if len(cert.eq_mults) != len(lp.eq_rows) or len(cert.ub_mults) != len(lp.ub_rows):
        raise ValueError("certificate length does not match the row counts")
    combo = np.zeros(lp.nvars)
    rhs = 0.0
    for mult, (coefs, beta) in zip(cert.eq_mults, lp.eq_rows):
        for i, c in coefs.items():
            combo[i] += mult * c
        rhs += mult * beta
    for mult, (coefs, beta) in zip(cert.ub_mults, lp.ub_rows):
        if mult < -tol:
            raise ValueError("negative multiplier %g on an inequality row" % mult)
        for i, c in coefs.items():
            combo[i] += mult * c
        rhs += mult * beta
    max_coef = float(np.max(np.abs(combo))) if lp.nvars else 0.0
    return max_coef, rhs


class Presolve:
    """Sign columns, substitution and forcing rows over one dict per row, as before the arrays.

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


def phase1(
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
    pos = dict(zip(cols, range(n)))
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
    ec = np.fromiter((pos[i] for _, coefs, _ in rows for i in coefs), np.intp, er.size)
    ev = np.fromiter((c for _, coefs, _ in rows for c in coefs.values()), float, er.size)
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

    # Reduced costs of the logical columns that may enter, in code order;
    # blocked adds +inf for the minus twins of sign columns. Artificials
    # never enter: a basic one keeps reduced cost exactly 0, and one that
    # has left stays out.
    cost = np.empty(art0)
    blocked = np.zeros(art0)
    blocked[n : 2 * n][np.array(nonneg, dtype=bool)] = np.inf

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
        # Dantzig: the entering column has the most negative reduced cost
        # (the lowest code on a tie). A minus column's reduced cost is minus
        # its plus column's. If its entries have all eroded below the pivot
        # tolerance it cannot be pivoted (phase 1 is never truly unbounded),
        # and the run ends eroded.
        objrow = T[m, :w]
        cost[:n] = objrow[:n]
        np.negative(objrow[:n], out=cost[n : 2 * n])
        cost[2 * n :] = objrow[n:]
        priced = cost + blocked
        pc = int(priced.argmin())
        if priced[pc] >= -PIVOT_TOL:
            break
        j = pc if pc < n else pc - n
        col = -T[:m, j] if n <= pc < 2 * n else T[:m, j]
        up = col > PIVOT_TOL
        if not up.any():
            reason = "eroded"
            break
        # Harris two-pass ratio test: pass 1 bounds the step with every
        # right-hand side relaxed by PIVOT_TOL; pass 2 takes, among the rows
        # whose exact ratio fits under that bound, the largest pivot entry
        # (the first on a tie). Pivoting on the smallest-index tie instead
        # lets entries near PIVOT_TOL through and blows the tableau up.
        eligible = up.nonzero()[0]
        a = col[eligible]
        rhs = T[eligible, w]
        bound = ((np.maximum(rhs, 0.0) + PIVOT_TOL) / a).min()
        fits = rhs / a <= bound
        pr = int(eligible[np.where(fits, a, -np.inf).argmax()])
        # Pivot on (pr, pc). A row whose pivot-column entry is zero would
        # change by exactly 0 * T[pr], so when at most half the rows have a
        # nonzero entry only those are gathered, updated and scattered back.
        piv = col[pr]
        colvals = -T[:, j] if n <= pc < 2 * n else T[:, j].copy()
        colvals[pr] = 0.0
        T[pr, :] /= piv
        erows = colvals.nonzero()[0]
        k = erows.size
        if 2 * k > m + 1:
            T -= np.multiply(colvals[:, None], T[pr], out=scratch)
        else:
            # mode="clip" gathers straight into scratch; "raise" would buffer.
            blk = np.take(T, erows, axis=0, out=scratch[:k], mode="clip")
            blk -= np.multiply(colvals[erows, None], T[pr], out=scratch[k : 2 * k])
            T[erows] = blk
        basis[pr] = pc
        iterations += 1
        value_now = -T[m, w]
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


def single_residual(cert, cand):
    """certificate_residual of a single certificate, every Lgb channel multiplied and added."""
    s_polys = cert.s_polys()
    b, lfb, lgb = cand.b, cand.lfb, cand.lgb
    a = cert.a if cert.a is not None else 0
    power_term = Polynomial.one(b.nvars) if a == 0 else lfb ** (2 * a)
    h1 = s_polys[0] + b * cert.p10
    for j in range(lgb.cols):
        h1 = h1 + lgb[0, j] * cert.p1[j]
    e = h1 * lfb - s_polys[1] - b * cert.p20
    for j in range(lgb.cols):
        e = e - lgb[0, j] * cert.p2[j]
    e = e - power_term
    return e.max_abs_coefficient()
