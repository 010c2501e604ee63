"""Polynomials with decision-variable coefficients and the DSOS machinery.

A polynomial whose coefficients are linear in a global decision vector z is
a plain dict: each monomial maps to its sparse row of decision columns,
``{monomial: {column: coefficient}}`` (a LinearPoly). A polynomial identity
is such a linear part plus one fixed Polynomial, and it becomes one
equality row ``(coefs, rhs)`` per monomial. DSOS membership of a Gram
matrix is linearized with a symmetric bounding matrix tau; both matrices
live in the same z space, and their rows use the same ``(coefs, rhs)``
shape that LpProblem stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .polyring import PRUNE_TOL, Monomial, Polynomial, grlex_key, monomial_basis

# A sparse row of decision columns, and a polynomial with such coefficients.
Row = Dict[int, float]
LinearPoly = Dict[Monomial, Row]


class DecisionAllocator:
    """Hands out decision-variable indices sequentially.

    Allocation order defines the decision-vector layout, so callers must
    request variables in the layout order they intend to expose.
    """

    MAX_VARS = 1 << 31

    def __init__(self) -> None:
        self._next = 0

    @property
    def count(self) -> int:
        return self._next

    def fresh(self) -> int:
        if self._next >= self.MAX_VARS:
            raise ValueError("decision-variable space exhausted")
        idx = self._next
        self._next += 1
        return idx


def _accumulate(acc: LinearPoly, mono: Monomial, row: Row, scale: float) -> None:
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


def linear_sum(parts: Iterable[Tuple[float, LinearPoly]]) -> LinearPoly:
    """sum_k sign_k * part_k, term by term in the order given.

    Monomials left without columns are dropped at the end.
    """
    acc: LinearPoly = {}
    for sign, part in parts:
        for mono, row in part.items():
            _accumulate(acc, mono, row, sign)
    return {mono: row for mono, row in acc.items() if row}


def mul_fixed(lin: LinearPoly, p: Polynomial) -> LinearPoly:
    """Multiply by a polynomial with no decision dependence.

    Coefficients stay linear in z. Terms are summed in the left operand's
    monomial order, then p's term order.
    """
    ring = len(next(iter(lin), ()))
    if lin and ring != p.nvars:
        raise ValueError("ring mismatch: %d vs %d variables" % (ring, p.nvars))
    acc: LinearPoly = {}
    for ea, row in lin.items():
        for eb, coef in p.terms.items():
            _accumulate(acc, tuple(map(add, ea, eb)), row, coef)
    return {mono: row for mono, row in acc.items() if row}


def instantiate(lin: LinearPoly, z: Sequence[float], nvars: int) -> Polynomial:
    """The polynomial lin takes at the decision point z."""
    return Polynomial({mono: sum(c * z[i] for i, c in row.items()) for mono, row in lin.items()},
                      nvars)


def coefficient_system(lin: LinearPoly, fixed: Polynomial) -> List[Tuple[Row, float]]:
    """Rows (coefs, rhs) of lin + fixed == 0, one per monomial in the global term order.

    Satisfying every row is equivalent to the identity holding as
    polynomials, which is how a Gram-style matching condition is imposed
    here: one equality per monomial, independent of any particular Gram
    basis convention. A monomial without a fixed term gets rhs -0.0, which
    exported LP text prints as -0.
    """
    monos = sorted(set(lin).union(fixed.terms), key=grlex_key)
    return [(lin.get(mono, {}), -fixed.terms.get(mono, 0.0)) for mono in monos]


class SymVarMatrix:
    """Symmetric k x k matrix of decision variables, possibly with pruned entries.

    Entry (i, j) and (j, i) share one variable. ``index`` maps the stored
    upper-triangle coordinates to their variables in allocation order;
    pruned coordinates are structurally zero.
    """

    __slots__ = ("dim", "index")

    def __init__(self, dim: int, index: Dict[Tuple[int, int], int]):
        self.dim = dim
        self.index = index

    @classmethod
    def allocate(
        cls,
        alloc: DecisionAllocator,
        dim: int,
        keep: Optional[Callable[[int, int], bool]] = None,
    ) -> "SymVarMatrix":
        index: Dict[Tuple[int, int], int] = {}
        for i in range(dim):
            for j in range(i, dim):
                if keep is None or keep(i, j):
                    index[(i, j)] = alloc.fresh()
        return cls(dim, index)

    def has(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.index

    def var(self, i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in self.index:
            raise KeyError("entry (%d, %d) is pruned" % (i, j))
        return self.index[key]

    def nvariables(self) -> int:
        return len(self.index)

    def materialize(self, z: Sequence[float]) -> np.ndarray:
        M = np.zeros((self.dim, self.dim))
        for (i, j), idx in self.index.items():
            M[i, j] = z[idx]
            M[j, i] = z[idx]
        return M


@dataclass
class DsosVar:
    """A DSOS polynomial variable s(x) = m(x)^T Q m(x) with bounding matrix tau."""

    basis: List[Monomial]
    Q: SymVarMatrix
    tau: SymVarMatrix
    expansion: LinearPoly

    @property
    def dim(self) -> int:
        return len(self.basis)


def fresh_free_poly(
    alloc: DecisionAllocator,
    nvars: int,
    degree: int,
    basis: Optional[Sequence[Monomial]] = None,
) -> LinearPoly:
    """c^T m(x) with one fresh decision variable per basis monomial.

    Variables are allocated in basis order. A restricted basis may be passed
    in place of the full degree-``degree`` basis.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0, got %d" % degree)
    if basis is None:
        basis = monomial_basis(nvars, degree)
    return {mono: {alloc.fresh(): 1.0} for mono in basis}


def fresh_dsos_poly(
    alloc: DecisionAllocator,
    nvars: int,
    halfdeg: int,
    basis: Optional[Sequence[Monomial]] = None,
    keep_pair: Optional[Callable[[int, int], bool]] = None,
    tau_diagonal: bool = True,
) -> DsosVar:
    """Allocate a DSOS variable: Gram matrix Q, bounding matrix tau, expansion.

    Q is allocated first (upper triangle, row-major), then tau; the expansion
    accumulates Q(i,j) onto the monomial m_i*m_j, with off-diagonal entries
    counted twice by symmetry. ``keep_pair(i, j)`` prunes the Gram entries,
    by basis position, whose basis product is known to be zero in any
    solution of interest; diagonal entries are always kept.
    ``tau_diagonal=False`` skips the never-constrained tau diagonal (used by
    reduced assemblies; the full layout retains it).
    """
    if halfdeg < 0:
        raise ValueError("halfdeg must be >= 0, got %d" % halfdeg)
    if basis is None:
        basis = monomial_basis(nvars, halfdeg)
    basis = list(basis)
    k = len(basis)

    def _keep_q(i: int, j: int) -> bool:
        if i == j:
            return True
        return keep_pair is None or keep_pair(i, j)

    Q = SymVarMatrix.allocate(alloc, k, keep=_keep_q)

    def _keep_tau(i: int, j: int) -> bool:
        if i == j:
            return tau_diagonal
        return Q.has(i, j)

    tau = SymVarMatrix.allocate(alloc, k, keep=_keep_tau)

    expansion: LinearPoly = {}
    for (i, j), idx in Q.index.items():
        mono = tuple(map(add, basis[i], basis[j]))
        expansion.setdefault(mono, {})[idx] = 1.0 if i == j else 2.0
    return DsosVar(basis=basis, Q=Q, tau=tau, expansion=expansion)


def dd_linear_constraints(v: DsosVar) -> List[Tuple[Row, float]]:
    """Rows (coefs, rhs) meaning coefs . z <= rhs that force Q to be diagonally dominant.

    Per row i: -Q_ii + sum_{j != i} tau_ij <= 0; per stored unordered pair
    i < j: Q_ij - tau_ij <= 0 and -Q_ij - tau_ij <= 0. Symmetric entries
    share variables, so each unordered pair is emitted once; with a full
    Gram that is k + k(k-1) rows. tau_ij >= 0 is implied by the pair of
    rows, never added separately. The signs of the zero right-hand sides
    (-0 on the per-row and Q_ij - tau_ij rows, 0 on the -Q_ij - tau_ij
    rows) show in exported LP text, whose pinned digests depend on them.
    """
    rows: List[Tuple[Row, float]] = []
    k = v.dim
    for i in range(k):
        coefs = {v.Q.var(i, i): -1.0}
        for j in range(k):
            if j != i and v.Q.has(i, j):
                coefs[v.tau.var(i, j)] = 1.0
        rows.append((coefs, -0.0))
    for (i, j), q in v.Q.index.items():
        if i == j:
            continue
        t = v.tau.var(i, j)
        rows.append(({q: 1.0, t: -1.0}, -0.0))
        rows.append(({q: -1.0, t: -1.0}, 0.0))
    return rows


def is_diagonally_dominant(M: np.ndarray, tol: float = 0.0) -> bool:
    """True iff M_ii + tol >= sum_{j != i} |M_ij| for every row i."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square, got shape %s" % (M.shape,))
    k = M.shape[0]
    for i in range(k):
        off = sum(abs(M[i, j]) for j in range(k) if j != i)
        if M[i, i] + tol < off:
            return False
    return True


def dsos_decomposition(
    M: np.ndarray, basis: Sequence[Monomial], tol: float = 1e-9
) -> List[Tuple[float, Polynomial]]:
    """Write m^T M m as a weighted sum of squares of monomial pairs.

    Each off-diagonal entry M_ij > 0 contributes M_ij * (m_i + m_j)^2, each
    M_ij < 0 contributes |M_ij| * (m_i - m_j)^2, and row i keeps the residual
    weight M_ii - sum_{j != i} |M_ij| on m_i^2 (clamped at zero when it dips
    to -tol). Requires diagonal dominance.
    """
    M = np.asarray(M, dtype=float)
    if not is_diagonally_dominant(M, tol):
        raise ValueError("matrix is not diagonally dominant within tol=%g" % tol)
    basis = list(basis)
    k = M.shape[0]
    if len(basis) != k:
        raise ValueError("basis has %d monomials, matrix is %dx%d" % (len(basis), k, k))
    nvars = len(basis[0])
    monos = [Polynomial.monomial(m, nvars) for m in basis]
    out: List[Tuple[float, Polynomial]] = []
    for i in range(k):
        for j in range(i + 1, k):
            w = M[i, j]
            if w > 0:
                out.append((w, monos[i] + monos[j]))
            elif w < 0:
                out.append((-w, monos[i] - monos[j]))
    for i in range(k):
        residual = M[i, i] - sum(abs(M[i, j]) for j in range(k) if j != i)
        if residual > 0:
            out.append((residual, monos[i]))
    return out


def expand_decomposition(parts: Sequence[Tuple[float, Polynomial]], nvars: int) -> Polynomial:
    acc = Polynomial.zero(nvars)
    for w, p in parts:
        acc = acc + w * (p * p)
    return acc


def gram_expansion(M: np.ndarray, basis: Sequence[Monomial]) -> Polynomial:
    """Numeric m(x)^T M m(x) for a concrete symmetric matrix."""
    M = np.asarray(M, dtype=float)
    basis = list(basis)
    nvars = len(basis[0])
    acc: Dict[Monomial, float] = {}
    k = len(basis)
    for i in range(k):
        for j in range(k):
            if M[i, j] == 0.0:
                continue
            key = tuple(a + b for a, b in zip(basis[i], basis[j]))
            acc[key] = acc.get(key, 0.0) + M[i, j]
    return Polynomial(acc, nvars)
