"""Refute a candidate with an exactly checked boundary counterexample.

At a state x with b(x) = 0 and Lgb(x) = 0 the single-candidate identity

    (s1 + b*p10 + Lgb.p1) * Lfb = s2 + b*p20 + Lgb.p2 + Lfb^(2a)

reads s1(x) Lfb(x) = s2(x) + Lfb(x)^(2a). If Lfb(x) < 0 the left side is
at most 0 and the right side positive, whatever the DSOS multipliers, so no
certificate exists at any a or degree: no input moves b at x, and the drift
takes it below 0. Such a state refutes b as a control barrier function.

Two stages find and prove one:

- search(ring): float multi-start Gauss-Newton on (b, Lgb_1..Lgb_q) in a
  candidate's support ring, every start at once. One monomial table holds
  b, the live Lgb channels, their partial derivatives and Lfb, so an
  iteration is one power product, one matrix product and one batched
  k x k solve for the minimum-norm step. It returns the converged point of
  most negative Lfb, and only one whose Lfb is clearly negative.
- check(cand, x): a Krawczyk test (Krawczyk, Computing 4, 1969; Rump, Acta
  Numerica 19, 2010) proves a true zero of b and the independent Lgb
  channels in a box of radius about 2^-30 around x, with the extra
  coordinates fixed, and bounds Lfb < 0 over that box. b, Lfb and Lgb are
  the candidate's exact forms (integer numerators over powers of two,
  derived once when the candidate is built; see polyring.exact_lie),
  evaluated in outward-rounded float intervals, each bound moved one ulp
  outward after every operation. A channel is left out only when it is
  exactly zero or an exact linear combination of the channels kept.
  Overflow, a NaN or a failed containment refutes nothing.

A weaker proof comes first where it applies. At a state with b = 0,
Lgb = 0 and Lfb = 0 the a=0 identity reads 0 = s2(x) + 1 >= 1, so no a=0
rung can certify. exclude_a0 proves such a state structurally, from the
exact Lie derivatives: every live Lgb channel is a homogeneous linear form,
the forms have full rank in their variables V, so {Lgb = 0} = {V = 0}, and
every term of Lfb has a factor in V, so Lfb vanishes on that whole set.
The same Krawczyk test then proves a zero of b with V fixed at exactly 0,
near a real root of b along one axis of that set (numpy.roots).
Such a witness (scope "a=0") drops the a=0 rungs only, and also shows that
no state with Lfb < 0 exists on {Lgb = 0}, so the search is skipped. Every
candidate is tried; one with a live Lgb term not of degree 1 is turned away
by a scan of its exact terms.

The search is deterministic: the starts are one fixed array and the budget
an iteration count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .polyring import Exact, Monomial, exact_partial

SEARCH_STARTS = 16
SEARCH_ITERS = 8
# A start has converged when every equation, scaled to unit largest
# coefficient, is below this; the point handed to the check then takes
# REFINE_ITERS more steps.
CONVERGED = 1e-9
REFINE_ITERS = 2
# Lfb must be below -NEGATIVE * (largest |coefficient| of Lfb) before the
# exact check runs. Where Lfb vanishes on the whole boundary set it reads
# rounding noise there, never this.
NEGATIVE = 1e-9
# Box radius 2^(RADIUS_EXP + e) for a centre of magnitude below 2^e (e >= 0);
# the centre is rounded to a grid 2^-GRID_BITS of the radius, so the box
# bounds are exact floats.
RADIUS_EXP = -30
GRID_BITS = 10

# Counterexample.scope: the rungs a counterexample rules out.
EVERY_RUNG = "every rung"
A0 = "a=0"


@dataclass(frozen=True)
class Counterexample:
    """An exactly checked state where b = 0, Lgb = 0 and Lfb < 0 (or Lfb = 0, for scope a=0).

    The box holds coordinate i in [centre_i - radius, centre_i + radius],
    except that the fixed coordinates equal centre_i. A zero of b and of
    Lgb_j for j in channels lies in it, proven by a Krawczyk test on those
    equations in the free coordinates; every other channel is exactly zero
    or an exact linear combination of these. lfb_upper bounds Lfb over
    the box from above and is negative. centre and radius are float.hex
    strings of the exact binary values.

    scope is EVERY_RUNG for such a counterexample, which rules out every
    rung. It is A0 for exclude_a0's witness, which rules out the a=0 rungs
    only: channels is empty, the fixed coordinates include every variable
    of the Lgb linear forms at exactly 0, where Lgb and Lfb vanish
    identically, and lfb_upper is 0.0.
    """

    centre: Tuple[str, ...]
    radius: str
    fixed: Tuple[int, ...]
    channels: Tuple[int, ...]
    lfb_upper: float
    scope: str = EVERY_RUNG


# -- float search ---------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _starts(nvars: int) -> np.ndarray:
    """SEARCH_STARTS fixed points with about standard normal coordinates (read-only).

    Box-Muller over the additive recurrence frac(1/2 + s alpha) with the
    generalized golden ratio's powers as alpha (Roberts' R_d sequence,
    d = 2 nvars), so the starts spread evenly and need no random generator.
    """
    d = 2 * nvars
    phi = 2.0
    for _ in range(60):  # the root of phi^(d+1) = phi + 1
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1.0, d + 1.0)
    u = (0.5 + np.outer(np.arange(1.0, SEARCH_STARTS + 1.0), alpha)) % 1.0
    starts = np.sqrt(-2.0 * np.log(u[:, :nvars])) * np.cos(2.0 * np.pi * u[:, nvars:])
    starts.flags.writeable = False
    return starts


class _Table:
    """b, the live Lgb channels, their partials and Lfb of a ring over one monomial table.

    Columns of coefs: the k equations (each scaled to unit largest
    coefficient), then the partial of equation e in variable l at k + e*p + l,
    then Lfb.
    """

    def __init__(self, ring):
        p = ring.b.nvars
        eqs = [ring.b] + [g for g in ring.lgb.entry_list() if not g.is_zero()]
        self.k, self.p = len(eqs), p
        index: Dict[Monomial, int] = {}
        entries = []  # (monomial, column, value)
        for e, q in enumerate(eqs):
            scale = 1.0 / q.max_abs_coefficient()
            for mo, c in q.terms.items():
                entries.append((mo, e, c * scale))
                for l, d in enumerate(mo):
                    if d:
                        entries.append((mo[:l] + (d - 1,) + mo[l + 1:], self.k + e * p + l,
                                        c * scale * d))
        entries += [(mo, self.k * (p + 1), c) for mo, c in ring.lfb.terms.items()]
        for mo, _, _ in entries:
            index.setdefault(mo, len(index))
        self.exps = np.array(list(index), dtype=np.intp).reshape(len(index), p)
        self.top = int(self.exps.max(initial=1))
        self.vars = np.arange(p)
        self.coefs = np.zeros((len(index), self.k * (p + 1) + 1))
        for mo, col, v in entries:
            self.coefs[index[mo], col] += v
        self.threshold = -NEGATIVE * ring.lfb.max_abs_coefficient()

    def evaluate(self, X: np.ndarray):
        """(F, J, Lfb) at the rows of X: S x k, S x k x p and S."""
        k, p = self.k, self.p
        powers = np.empty((self.top + 1,) + X.shape)
        powers[0] = 1.0
        powers[1] = X
        for e in range(2, self.top + 1):
            np.multiply(powers[e - 1], X, out=powers[e])
        V = powers[self.exps, :, self.vars].prod(axis=1).T @ self.coefs
        return V[:, :k], V[:, k:k + k * p].reshape(-1, k, p), V[:, -1]

    def step(self, X: np.ndarray, F: np.ndarray, J: np.ndarray) -> np.ndarray:
        """X after one minimum-norm Gauss-Newton step, X - J^T (J J^T)^-1 F, per row.

        The diagonal of J J^T is raised by a relative 1e-12 (and 1e-300), so
        dependent or zero equations still give a step. Should the batched
        solve fail, the rows that are not finite step by zero instead, and
        stay not finite.
        """
        JT = J.transpose(0, 2, 1)
        A = J @ JT
        diag = A.reshape(len(A), -1)[:, :: self.k + 1]
        diag *= 1.0 + 1e-12
        diag += 1e-300
        try:
            w = np.linalg.solve(A, F[:, :, None])
        except np.linalg.LinAlgError:
            bad = ~np.isfinite(A).all(axis=(1, 2)) | ~np.isfinite(F).all(axis=1)
            A[bad] = np.eye(self.k)
            F[bad] = 0.0
            w = np.linalg.solve(A, F[:, :, None])
        return X - (JT @ w)[:, :, 0]


def search(ring) -> Optional[np.ndarray]:
    """A point of ring's variables where b and Lgb nearly vanish and Lfb is clearly negative.

    ring is a SupportRing (or anything with its b, lfb and lgb). Each start
    takes up to SEARCH_ITERS minimum-norm Gauss-Newton steps; the run ends
    early once some converged start has a clearly negative Lfb, or once
    every start has converged or left the finite numbers. Returns None when
    no converged start has Lfb below -NEGATIVE times its largest |coefficient|;
    otherwise the one of most negative Lfb, after REFINE_ITERS more steps.
    b = 0 has Lfb = 0 everywhere, and no search.
    """
    if ring.b.is_zero():
        return None
    tab = _Table(ring)
    X = np.array(_starts(tab.p))
    with np.errstate(all="ignore"):
        try:
            for it in range(SEARCH_ITERS + 1):
                F, J, lfb = tab.evaluate(X)
                size = np.abs(F).max(axis=1)
                # NaN compares false: a start that left the finite numbers is done.
                done = ~(size > CONVERGED)
                found = (size <= CONVERGED) & (lfb < tab.threshold)
                if it == SEARCH_ITERS or found.any() or done.all():
                    break
                X = tab.step(X, F, J)
            if not found.any():
                return None
            x = X[[int(np.argmin(np.where(found, lfb, np.inf)))]]
            for _ in range(REFINE_ITERS):
                F, J, _ = tab.evaluate(x)
                x = tab.step(x, F, J)
        except np.linalg.LinAlgError:
            return None
    return x[0] if np.isfinite(x).all() else None


# -- exact polynomials -------------------------------------------------------------

def _independent(channels: Sequence[Exact]) -> List[int]:
    """Indices of the channels kept: each one independent of those before it.

    Every channel left out is exactly zero or an exact linear combination
    of the kept ones (rank over the rationals, by integer elimination).
    """
    shift = max((c[1] for c in channels), default=0)
    rows: List[Dict[Monomial, int]] = []  # echelon rows, each with its own pivot monomial
    pivots: List[Monomial] = []
    kept = []
    for j, (terms, s) in enumerate(channels):
        v = {mo: c << (shift - s) for mo, c in terms.items()}
        for row, piv in zip(rows, pivots):
            a = v.get(piv, 0)
            if a:
                top = row[piv]
                v = {mo: top * v.get(mo, 0) - a * row.get(mo, 0) for mo in set(v) | set(row)}
                v = {mo: c for mo, c in v.items() if c}
        if v:
            rows.append(v)
            pivots.append(min(v))
            kept.append(j)
    return kept


# -- outward-rounded float intervals ---------------------------------------------------

class _Overflow(Exception):
    """An interval bound left the finite floats."""


_INF = math.inf
_next = math.nextafter


def _iadd(a, b):
    lo, hi = _next(a[0] + b[0], -_INF), _next(a[1] + b[1], _INF)
    if not (-_INF < lo and hi < _INF):
        raise _Overflow
    return lo, hi


def _imul(a, b):
    al, ah = a
    bl, bh = b
    p = (al * bl, al * bh, ah * bl, ah * bh)
    lo, hi = _next(min(p), -_INF), _next(max(p), _INF)
    if not (-_INF < lo and hi < _INF):
        raise _Overflow
    return lo, hi


def _enclose(num: int, shift: int):
    """An interval of floats holding num / 2**shift."""
    v = num / (1 << shift)  # correctly rounded; OverflowError when too large
    return _next(v, -_INF), _next(v, _INF)


class _Box:
    """Interval powers of every coordinate of a box, for evaluating exact polynomials.

    top is the largest exponent of any variable in the polynomials evaluated.
    """

    def __init__(self, box: Sequence[Tuple[float, float]], top: int):
        self.powers = []
        for iv in box:
            pw = [(1.0, 1.0), iv]
            for _ in range(2, top + 1):
                pw.append(_imul(pw[-1], iv))
            self.powers.append(pw)

    def evaluate(self, p: Exact):
        acc = (0.0, 0.0)
        powers = self.powers
        shift = p[1]
        for mo, num in p[0].items():
            term = _enclose(num, shift)
            for v, e in enumerate(mo):
                if e:
                    term = _imul(term, powers[v][e])
            acc = _iadd(acc, term)
        return acc


def _top_exponent(polys: Sequence[Exact]) -> int:
    return max((max(mo) for p in polys for mo in p[0]), default=0)


def _free_coordinates(J: np.ndarray) -> Optional[List[int]]:
    """k columns of the k x n Jacobian J kept free, the rest fixed: greedy column pivoting.

    Each step takes the column of largest norm after the chosen ones are
    projected out, so the coordinates of smallest Jacobian weight are fixed.
    """
    k, n = J.shape
    if k > n or not np.isfinite(J).all():
        return None
    R = J / np.maximum(np.abs(J).max(axis=1, keepdims=True), 1e-300)
    free: List[int] = []
    for _ in range(k):
        norms = np.linalg.norm(R, axis=0)
        norms[free] = -1.0
        j = int(np.argmax(norms))
        if norms[j] <= 0.0:
            return None
        q = R[:, j] / norms[j]
        R = R - np.outer(q, q @ R)
        free.append(j)
    return sorted(free)


def check(cand, x: np.ndarray) -> Optional[Counterexample]:
    """Prove a counterexample for the candidate cand near the point x of its ring, or return None.

    Nothing is read from Lie derivatives in floats: b, Lfb and Lgb are the
    candidate's exact forms (cand.exact).
    """
    try:
        return _check(cand, x)
    except (_Overflow, OverflowError, np.linalg.LinAlgError):
        return None


def _grid_centre(x: Sequence[float]) -> Tuple[List[float], float]:
    """(centre, radius) of the box about the point x.

    The radius is 2^(RADIUS_EXP + e) for max |x_i| below 2^e (e >= 0), and
    the centre lies on a grid of radius * 2^-GRID_BITS, so centre +- radius
    is exact.
    """
    _, e = math.frexp(max(abs(v) for v in x))
    radius = math.ldexp(1.0, RADIUS_EXP + max(e, 0))
    grid = math.ldexp(radius, -GRID_BITS)
    return [round(v / grid) * grid for v in x], radius


def _krawczyk(F, partials, centre: Sequence[float], radius: float, free: Sequence[int], Y,
              top: int) -> Optional[_Box]:
    """The box's interval powers when a Krawczyk test proves a common zero of k equations in it,
    else None.

    The box holds coordinate i in centre_i +- radius for i in free, and
    centre_i otherwise. F holds the intervals of the k equations at the
    centre, partials[e][l] the exact partial of equation e in free[l], and
    Y (k x k floats) an approximate inverse of their values at the centre;
    top bounds every exponent.
    """
    k = len(F)
    box = [(c, c) for c in centre]
    for i in free:
        box[i] = (centre[i] - radius, centre[i] + radius)
    over = _Box(box, top)
    JX = [[over.evaluate(d) for d in row] for row in partials]

    # Krawczyk on the symmetric box: K = c - Y F(c) + (I - Y J(X)) [-r, r]
    # lies inside the open box when |Y F(c)|_i + r sum_j |I - Y J(X)|_ij < r.
    for i in range(k):
        yf = (0.0, 0.0)
        for j in range(k):
            yf = _iadd(yf, _imul((Y[i][j], Y[i][j]), F[j]))
        spread = 0.0
        for j in range(k):
            m = (1.0, 1.0) if i == j else (0.0, 0.0)
            for l in range(k):
                m = _iadd(m, _imul((-Y[i][l], -Y[i][l]), JX[l][j]))
            spread = _next(spread + max(-m[0], m[1]), _INF)
        bound = _next(max(-yf[0], yf[1]) + _next(spread * radius, _INF), _INF)
        if not bound < radius:
            return None
    return over


def _check(cand, x: np.ndarray) -> Optional[Counterexample]:
    n = cand.b.nvars
    if x.shape != (n,) or not np.isfinite(x).all():
        return None
    eb, lfb, lgb = cand.exact
    channels = _independent(lgb)
    eqs = [eb] + [lgb[j] for j in channels]
    if len(eqs) > n:
        return None
    partials = [[exact_partial(e, l) for l in range(n)] for e in eqs]
    top = _top_exponent(eqs + [lfb])
    centre, radius = _grid_centre(x.tolist())

    at_centre = _Box([(c, c) for c in centre], top)
    Jc = np.array([[sum(at_centre.evaluate(d)) / 2.0 for d in row] for row in partials])
    free = _free_coordinates(Jc)
    if free is None:
        return None
    Y = np.linalg.inv(Jc[:, free])
    if not np.isfinite(Y).all():
        return None
    over = _krawczyk([at_centre.evaluate(e) for e in eqs],
                     [[row[l] for l in free] for row in partials], centre, radius, free,
                     Y.tolist(), top)
    if over is None:
        return None
    upper = over.evaluate(lfb)[1]
    if not upper < 0.0:
        return None
    return Counterexample(
        centre=tuple(float(c).hex() for c in centre),
        radius=radius.hex(),
        fixed=tuple(i for i in range(n) if i not in free),
        channels=tuple(channels),
        lfb_upper=upper,
    )


# -- the a=0 exclusion ----------------------------------------------------------------

def exclude_a0(cand) -> Optional[Counterexample]:
    """An exact witness that no a=0 rung can certify the candidate cand, or None.

    b, Lfb and Lgb are cand's exact forms, as check reads them. The witness
    (scope A0) needs every live Lgb channel to be a homogeneous linear form
    (a scan of the terms, which ends most calls), the forms to have rank |V|
    in their variables V, every term of Lfb to have a factor in V, and a
    zero of b with V fixed at 0: the real roots of b along each axis of
    {V = 0} (numpy.roots, largest first) go to the Krawczyk test on b alone
    until one is proven. Anything short of that proves nothing.
    """
    try:
        return _exclude_a0(cand)
    except (_Overflow, OverflowError, np.linalg.LinAlgError):
        return None


def _exclude_a0(cand) -> Optional[Counterexample]:
    eb, lfb, lgb = cand.exact
    live = [c for c in lgb if c[0]]
    if not live or any(sum(mo) != 1 for c in live for mo in c[0]):
        return None
    V = {mo.index(1) for c in live for mo in c[0]}
    if len(_independent(live)) != len(V):
        return None  # {Lgb = 0} is larger than {V = 0}
    if any(not any(mo[v] for v in V) for mo in lfb[0]):
        return None  # a term of Lfb survives on {V = 0}

    # b on {V = 0}, over its variables W outside V: a polynomial q in len(W) variables.
    n = cand.b.nvars
    W = [i for i in cand.b.support_vars() if i not in V]
    q = ({tuple(mo[i] for i in W): c for mo, c in eb[0].items() if not any(mo[v] for v in V)},
         eb[1])
    if not W or not q[0]:
        return None
    top = _top_exponent([q])
    scale = 1 << q[1]
    for l, var in enumerate(W):
        axis = {mo[l]: c / scale for mo, c in q[0].items() if sum(mo) == mo[l]}
        roots = np.roots([axis.get(e, 0.0) for e in range(top, -1, -1)])
        for t in sorted(roots.real[roots.imag == 0.0].tolist(), reverse=True):
            point = [0.0] * len(W)
            point[l] = t
            centre, radius = _grid_centre(point)
            c = centre[l]
            slope = sum(e * v * c ** (e - 1) for e, v in axis.items() if e)
            if not (slope and math.isfinite(slope)):
                continue
            F = [_Box([(v, v) for v in centre], top).evaluate(q)]
            if _krawczyk(F, [[exact_partial(q, l)]], centre, radius, [l], [[1.0 / slope]],
                         top) is None:
                continue
            full = [0.0] * n
            full[var] = c
            return Counterexample(
                centre=tuple(v.hex() for v in full),
                radius=radius.hex(),
                fixed=tuple(i for i in range(n) if i != var),
                channels=(),
                lfb_upper=0.0,
                scope=A0,
            )
    return None


def refute(cand, ring, searched: Dict[object, Optional[np.ndarray]]) -> Optional[Counterexample]:
    """A checked counterexample for cand, or None; the search runs once per ring class.

    exclude_a0 runs first; its witness is returned without a search, since
    no state with Lfb < 0 exists on {Lgb = 0} then. searched maps a
    support-ring class key to its search's point (or None) for the call;
    candidates of one class lift the same point to their own variables and
    are each checked in their own ring.
    """
    witness = exclude_a0(cand)
    if witness is not None:
        return witness
    key = ring.key
    if key not in searched:
        searched[key] = search(ring)
    point = searched[key]
    if point is None:
        return None
    x = np.zeros(ring.nvars)
    x[list(ring.variables)] = point
    return check(cand, x)
