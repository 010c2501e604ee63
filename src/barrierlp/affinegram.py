"""Polynomials with decision-variable coefficients and the DSOS machinery.

A polynomial whose coefficients are linear in a global decision vector z is
a plain dict: each monomial maps to its sparse row of decision columns,
``{monomial: {column: coefficient}}`` (a LinearPoly). A polynomial identity
is such a linear part plus one fixed Polynomial, and it becomes one
equality row ``(coefs, rhs)`` per monomial. A DSOS polynomial's Gram
matrix is a non-negative combination of the extreme rays of the
diagonally dominant cone, v v^T with at most two nonzero entries +-1 in v
(Barker & Carlson 1975; Ahmadi & Majumdar 2019). Its decision columns are
the ray weights, so DSOS membership is one sign row per column, in the
same ``(coefs, rhs)`` shape that LpProblem stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .polyring import PRUNE_TOL, Monomial, Polynomial, grlex_key

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


@dataclass
class DsosVar:
    """A DSOS polynomial s(x) = m(x)^T Q m(x) with Q a non-negative sum of DD extreme rays.

    ``rays`` maps each weight column to its ray (i, j, sign): e_i e_i^T when
    i == j, otherwise (e_i + sign e_j)(e_i + sign e_j)^T with sign = +-1.
    Any non-negative weights give a diagonally dominant Q, and every
    diagonally dominant Q arises this way.
    """

    basis: List[Monomial]
    rays: Dict[int, Tuple[int, int, float]]
    expansion: LinearPoly

    @property
    def dim(self) -> int:
        return len(self.basis)

    def entries(self) -> Dict[Tuple[int, int], Row]:
        """Each entry Q_ij, i <= j, as a row over the weight columns."""
        out: Dict[Tuple[int, int], Row] = {}
        for col, (i, j, sign) in self.rays.items():
            out.setdefault((i, i), {})[col] = 1.0
            if i != j:
                out.setdefault((j, j), {})[col] = 1.0
                out.setdefault((i, j), {})[col] = sign
        return out

    def gram(self, z: Sequence[float]) -> np.ndarray:
        """The Gram matrix Q the weights in z build."""
        Q = np.zeros((self.dim, self.dim))
        for (i, j), row in self.entries().items():
            Q[i, j] = Q[j, i] = sum(c * z[col] for col, c in row.items())
        return Q


def fresh_free_poly(alloc: DecisionAllocator, basis: Sequence[Monomial]) -> LinearPoly:
    """c^T m(x) with one fresh decision variable per basis monomial, in basis order."""
    return {mono: {alloc.fresh(): 1.0} for mono in basis}


def fresh_dsos_poly(
    alloc: DecisionAllocator,
    basis: Sequence[Monomial],
    keep_pair: Optional[Callable[[int, int], bool]] = None,
) -> DsosVar:
    """Allocate a DSOS variable: one non-negative weight per extreme ray, and its expansion.

    The weights of e_i e_i^T and (e_i + e_j)(e_i + e_j)^T come first, in the
    upper triangle's row-major order, then those of (e_i - e_j)(e_i - e_j)^T
    in the same order. A ray adds its weight to m_i^2 and m_j^2 and, for
    i != j, twice its sign times the weight to m_i*m_j. ``keep_pair(i, j)``
    prunes the pairs, by basis position, whose basis product is known to
    have a zero Gram entry in any solution of interest; a pruned pair gets
    no ray, and the diagonal rays are always kept.
    """
    basis = list(basis)
    k = len(basis)
    pairs = [(i, j) for i in range(k) for j in range(i, k)
             if i == j or keep_pair is None or keep_pair(i, j)]
    rays: Dict[int, Tuple[int, int, float]] = {}
    for i, j in pairs:
        rays[alloc.fresh()] = (i, j, 1.0)
    for i, j in pairs:
        if i != j:
            rays[alloc.fresh()] = (i, j, -1.0)
    v = DsosVar(basis=basis, rays=rays, expansion={})
    for (i, j), row in v.entries().items():
        target = v.expansion.setdefault(tuple(map(add, basis[i], basis[j])), {})
        for col, c in row.items():
            target[col] = target.get(col, 0.0) + (c if i == j else 2.0 * c)
    return v


def dd_linear_constraints(v: DsosVar) -> List[Tuple[Row, float]]:
    """Rows (coefs, rhs) meaning coefs . z <= rhs that make v's Gram matrix diagonally dominant.

    One sign row -w <= 0 per ray weight w, in allocation order.
    """
    return [({col: -1.0}, 0.0) for col in v.rays]


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
