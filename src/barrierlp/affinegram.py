"""Polynomials with decision-variable coefficients and the DSOS machinery.

An AffineExpr is an affine function of a global decision vector z. An
AffinePolynomial carries one AffineExpr per monomial, so a polynomial
identity in the ring variables becomes a list of affine equations in z
(one per monomial). DSOS membership of a Gram matrix is linearized with a
symmetric bounding matrix tau; both matrices live in the same z space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .polyring import Monomial, Polynomial, grlex_key, monomial_basis

COEF_PRUNE = 1e-14


class AffineExpr:
    """constant + sum_j linear[j] * z_j, stored sparsely."""

    __slots__ = ("constant", "linear")

    def __init__(self, constant: float = 0.0, linear: Optional[Mapping[int, float]] = None):
        c = float(constant)
        if not math.isfinite(c):
            raise ValueError("non-finite constant %r" % c)
        lin: Dict[int, float] = {}
        if linear:
            for idx, coef in linear.items():
                v = float(coef)
                if not math.isfinite(v):
                    raise ValueError("non-finite coefficient %r on z%d" % (v, idx))
                if abs(v) >= COEF_PRUNE:
                    lin[int(idx)] = v
        self.constant = c
        self.linear = lin

    @classmethod
    def variable(cls, index: int, coef: float = 1.0) -> "AffineExpr":
        return cls(0.0, {index: coef})

    def is_zero(self) -> bool:
        return self.constant == 0.0 and not self.linear

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return AffineExpr(self.constant + float(other), self.linear)
        if not isinstance(other, AffineExpr):
            return NotImplemented
        lin = dict(self.linear)
        for idx, coef in other.linear.items():
            lin[idx] = lin.get(idx, 0.0) + coef
        return AffineExpr(self.constant + other.constant, lin)

    __radd__ = __add__

    def __neg__(self):
        return AffineExpr(-self.constant, {i: -c for i, c in self.linear.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return AffineExpr(self.constant - float(other), self.linear)
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: float) -> "AffineExpr":
        f = float(factor)
        return AffineExpr(self.constant * f, {i: c * f for i, c in self.linear.items()})

    def value(self, z: Sequence[float]) -> float:
        return self.constant + sum(c * z[i] for i, c in self.linear.items())

    def __repr__(self):
        parts = [] if self.constant == 0.0 else ["%g" % self.constant]
        for idx in sorted(self.linear):
            parts.append("%g*z%d" % (self.linear[idx], idx + 1))
        return "AffineExpr(%s)" % (" + ".join(parts) if parts else "0")


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


class AffinePolynomial:
    """Sparse polynomial whose coefficients are AffineExprs in z."""

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Mapping[Monomial, AffineExpr], nvars: int):
        canon: Dict[Monomial, AffineExpr] = {}
        for exps, expr in terms.items():
            key = tuple(int(e) for e in exps)
            if len(key) != nvars:
                raise ValueError(
                    "monomial has %d exponents, ring has %d variables" % (len(key), nvars)
                )
            if not expr.is_zero():
                canon[key] = expr
        self.terms = canon
        self.nvars = nvars

    @classmethod
    def zero(cls, nvars: int) -> "AffinePolynomial":
        return cls({}, nvars)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "AffinePolynomial":
        return cls({e: AffineExpr(c) for e, c in p.terms.items()}, p.nvars)

    def __add__(self, other):
        if isinstance(other, Polynomial):
            other = AffinePolynomial.from_polynomial(other)
        if not isinstance(other, AffinePolynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("ring mismatch: %d vs %d variables" % (self.nvars, other.nvars))
        acc = dict(self.terms)
        for exps, expr in other.terms.items():
            acc[exps] = acc.get(exps, AffineExpr()) + expr
        return AffinePolynomial(acc, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return AffinePolynomial({e: -x for e, x in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            other = AffinePolynomial.from_polynomial(other)
        if not isinstance(other, AffinePolynomial):
            return NotImplemented
        return self + (-other)

    def sorted_terms(self) -> List[Tuple[Monomial, AffineExpr]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def instantiate(self, z: Sequence[float]) -> Polynomial:
        return Polynomial({e: expr.value(z) for e, expr in self.terms.items()}, self.nvars)


def mul_fixed(ap: AffinePolynomial, p: Polynomial) -> AffinePolynomial:
    """Multiply by a polynomial with no decision dependence.

    Coefficients stay affine in z, so the product never leaves the class.
    """
    if ap.nvars != p.nvars:
        raise ValueError("ring mismatch: %d vs %d variables" % (ap.nvars, p.nvars))
    acc: Dict[Monomial, AffineExpr] = {}
    for ea, expr in ap.terms.items():
        for eb, coef in p.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, AffineExpr()) + expr.scale(coef)
    return AffinePolynomial(acc, ap.nvars)


def coefficient_system(e: AffinePolynomial) -> List[AffineExpr]:
    """One affine expression per monomial of e, in the global term order.

    Forcing every expression to zero is equivalent to e being the zero
    polynomial identically, which is how a Gram-style matching condition is
    imposed here: one equality per monomial, independent of any particular
    Gram basis convention.
    """
    return [expr for _, expr in e.sorted_terms()]


class SymVarMatrix:
    """Symmetric k x k matrix of decision variables, possibly with pruned entries.

    Entry (i, j) and (j, i) share one variable. ``pairs`` lists the stored
    upper-triangle coordinates in allocation order; pruned coordinates are
    structurally zero.
    """

    __slots__ = ("dim", "index", "pairs")

    def __init__(self, dim: int, index: Mapping[Tuple[int, int], int], pairs: Sequence[Tuple[int, int]]):
        self.dim = dim
        self.index = dict(index)
        self.pairs = list(pairs)

    @classmethod
    def allocate(
        cls,
        alloc: DecisionAllocator,
        dim: int,
        keep: Optional[Callable[[int, int], bool]] = None,
    ) -> "SymVarMatrix":
        index: Dict[Tuple[int, int], int] = {}
        pairs: List[Tuple[int, int]] = []
        for i in range(dim):
            for j in range(i, dim):
                if keep is None or keep(i, j):
                    index[(i, j)] = alloc.fresh()
                    pairs.append((i, j))
        return cls(dim, index, pairs)

    def has(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.index

    def var(self, i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in self.index:
            raise KeyError("entry (%d, %d) is pruned" % (i, j))
        return self.index[key]

    def nvariables(self) -> int:
        return len(self.pairs)

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
    expansion: AffinePolynomial

    @property
    def dim(self) -> int:
        return len(self.basis)


def fresh_free_poly(
    alloc: DecisionAllocator,
    nvars: int,
    degree: int,
    basis: Optional[Sequence[Monomial]] = None,
) -> AffinePolynomial:
    """c^T m(x) with one fresh decision variable per basis monomial.

    Variables are allocated in basis order. A restricted basis may be passed
    in place of the full degree-``degree`` basis.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0, got %d" % degree)
    if basis is None:
        basis = monomial_basis(nvars, degree)
    terms = {m: AffineExpr.variable(alloc.fresh()) for m in basis}
    return AffinePolynomial(terms, nvars)


def fresh_dsos_poly(
    alloc: DecisionAllocator,
    nvars: int,
    halfdeg: int,
    basis: Optional[Sequence[Monomial]] = None,
    keep_pair: Optional[Callable[[Monomial, Monomial], bool]] = None,
    tau_diagonal: bool = True,
) -> DsosVar:
    """Allocate a DSOS variable: Gram matrix Q, bounding matrix tau, expansion.

    Q is allocated first (upper triangle, row-major), then tau; the expansion
    accumulates Q(i,j) onto the monomial m_i*m_j, with off-diagonal entries
    counted twice by symmetry. ``keep_pair`` prunes Gram entries whose basis
    product is known to be zero in any solution of interest; diagonal entries
    are always kept. ``tau_diagonal=False`` skips the never-constrained tau
    diagonal (used by reduced assemblies; the full layout retains it).
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
        return keep_pair is None or keep_pair(basis[i], basis[j])

    Q = SymVarMatrix.allocate(alloc, k, keep=_keep_q)

    def _keep_tau(i: int, j: int) -> bool:
        if i == j:
            return tau_diagonal
        return Q.has(i, j)

    tau = SymVarMatrix.allocate(alloc, k, keep=_keep_tau)

    acc: Dict[Monomial, AffineExpr] = {}
    for (i, j) in Q.pairs:
        mono = tuple(a + b for a, b in zip(basis[i], basis[j]))
        weight = 1.0 if i == j else 2.0
        acc[mono] = acc.get(mono, AffineExpr()) + AffineExpr.variable(Q.var(i, j), weight)
    expansion = AffinePolynomial(acc, nvars)
    return DsosVar(basis=basis, Q=Q, tau=tau, expansion=expansion)


def dd_linear_constraints(v: DsosVar) -> List[AffineExpr]:
    """Rows expr <= 0 forcing Q to be diagonally dominant.

    Per row i: -Q_ii + sum_{j != i} tau_ij <= 0; per stored unordered pair
    i < j: Q_ij - tau_ij <= 0 and -Q_ij - tau_ij <= 0. Symmetric entries
    share variables, so each unordered pair is emitted once; with a full
    Gram that is k + k(k-1) rows. tau_ij >= 0 is implied by the pair of
    rows, never added separately.
    """
    rows: List[AffineExpr] = []
    k = v.dim
    for i in range(k):
        expr = AffineExpr.variable(v.Q.var(i, i), -1.0)
        for j in range(k):
            if j != i and v.Q.has(i, j):
                expr = expr + AffineExpr.variable(v.tau.var(i, j), 1.0)
        rows.append(expr)
    for (i, j) in v.Q.pairs:
        if i == j:
            continue
        q = AffineExpr.variable(v.Q.var(i, j), 1.0)
        t = AffineExpr.variable(v.tau.var(i, j), 1.0)
        rows.append(q - t)
        rows.append(-q - t)
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
