"""Polynomials with decision-variable coefficients and the DSOS machinery.

A polynomial whose coefficients are linear in a global decision vector z is
a LinearPoly: three flat arrays holding, per term, a monomial code, a
decision column and a coefficient. A (monomial, column) pair may repeat;
nothing is summed until coefficient_system, which turns the identity
``lin + fixed == 0`` into one equality row per monomial. Monomial codes are
additive (MonomialCodes), so multiplying by a fixed polynomial is one outer
shift-and-scale of the arrays and a signed sum is one concatenation. A DSOS
polynomial's Gram matrix is a non-negative combination of the extreme rays
of the diagonally dominant cone, v v^T with at most two nonzero entries +-1
in v (Barker & Carlson 1975; Ahmadi & Majumdar 2019). Its decision columns
are the ray weights, so DSOS membership is one sign row per column. Both
kinds of rows come as a RowBlock, the arrays LpProblem stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .lpsolve import RowBlock
from .polyring import PRUNE_TOL, Monomial, Polynomial

# A sparse row of decision columns.
Row = Dict[int, float]


class MonomialCodes:
    """Additive integer codes of the monomials of degree at most ``top`` in ``nvars`` variables.

    With R = top + 1 (at least 2), monomial mu gets the code
    K(mu) = deg(mu) R^n - sum_i mu_i R^(n-1-i) = sum_i mu_i (R^n - R^(n-1-i)),
    so K(mu + nu) = K(mu) + K(nu). No exponent reaches R, so the subtracted
    sum is a base-R numeral below R^n: ascending codes sort by degree, then
    by exponent tuples read left to right in descending order, which is the
    global term order (grlex_key). A code of degree d lies between
    d (R - 1) R^(n-1) and d (R^n - 1), so a monomial has degree at most top
    exactly when its code lies below ``limit``, the code of x_1^(top + 1),
    and a product's degree is checked on its code. Codes are int64 where the
    sum of two codes below the limit fits, and Python ints in object arrays
    otherwise, on the same code path. A program encodes the same bases and
    fixed polynomials several times, so encode keeps what it has encoded.
    """

    def __init__(self, nvars: int, top: int):
        if nvars < 1 or top < 0:
            raise ValueError("need nvars >= 1 and top >= 0, got %d and %d" % (nvars, top))
        self.nvars = nvars
        self.top = top
        self.radix = R = max(top + 1, 2)
        self.limit = (top + 1) * (R ** nvars - R ** (nvars - 1))
        dtype = np.int64 if 2 * self.limit < 2 ** 63 else object
        self.weights = np.array([R ** nvars - R ** (nvars - 1 - i) for i in range(nvars)],
                                dtype=dtype)
        self._encoded: Dict[Tuple[Monomial, ...], np.ndarray] = {}

    def encode(self, monos: Iterable[Monomial]) -> np.ndarray:
        """The codes of monos, in order."""
        monos = tuple(monos)
        codes = self._encoded.get(monos)
        if codes is None:
            exps = np.fromiter(chain.from_iterable(monos), self.weights.dtype,
                               len(monos) * self.nvars).reshape(-1, self.nvars)
            if exps.size and exps.sum(axis=1).max() > self.top:
                raise ValueError("monomial degree exceeds the code's top degree %d" % self.top)
            codes = self._encoded[monos] = exps @ self.weights
            codes.flags.writeable = False
        return codes

    def checked(self, codes: np.ndarray) -> np.ndarray:
        """codes, once every one is known to be of degree at most top."""
        if codes.size and codes.max() >= self.limit:
            raise ValueError("monomial degree exceeds the code's top degree %d" % self.top)
        return codes


@dataclass(eq=False)
class LinearPoly:
    """sum_e coef[e] * z[col[e]] * x^mono[e], monomials coded by ``codes``."""

    codes: MonomialCodes
    mono: np.ndarray
    col: np.ndarray
    coef: np.ndarray


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

    def fresh(self, count: int) -> np.ndarray:
        """The next count indices, in order."""
        if self._next + count > self.MAX_VARS:
            raise ValueError("decision-variable space exhausted")
        idx = np.arange(self._next, self._next + count, dtype=np.int64)
        self._next += count
        return idx


def linear_sum(parts: Iterable[Tuple[float, LinearPoly]]) -> LinearPoly:
    """sum_k sign_k * part_k: the parts' terms, concatenated in the order given."""
    parts = list(parts)
    codes = parts[0][1].codes
    return LinearPoly(
        codes,
        np.concatenate([lin.mono for _, lin in parts]),
        np.concatenate([lin.col for _, lin in parts]),
        np.concatenate([sign * lin.coef for sign, lin in parts]),
    )


def mul_fixed(lin: LinearPoly, p: Polynomial) -> LinearPoly:
    """Multiply by a polynomial with no decision dependence.

    Coefficients stay linear in z. Each term of lin is shifted by each of
    p's monomials in turn, lin's term order first; nothing is summed.
    """
    codes = lin.codes
    if codes.nvars != p.nvars:
        raise ValueError("ring mismatch: %d vs %d variables" % (codes.nvars, p.nvars))
    shift = codes.encode(p.terms)
    scale = np.fromiter(p.terms.values(), float, len(p.terms))
    return LinearPoly(
        codes,
        codes.checked((lin.mono[:, None] + shift).ravel()),
        np.repeat(lin.col, len(p.terms)),
        (lin.coef[:, None] * scale).ravel(),
    )


def coefficient_system(lin: LinearPoly, fixed: Polynomial) -> RowBlock:
    """The rows coefs . z == rhs of lin + fixed == 0, one per monomial in the global term order.

    Satisfying every row is equivalent to the identity holding as
    polynomials, which is how a Gram-style matching condition is imposed
    here: one equality per monomial, independent of any particular Gram
    basis convention. This is the one place where terms are summed: the
    terms of each (monomial, column) pair are added in lin's order, a sum
    that is not finite raises ValueError, and a sum below PRUNE_TOL is
    dropped. The rows come as a RowBlock, each row's columns ascending. A
    monomial whose columns all cancel has no row unless fixed has a term
    there; one without a fixed term gets rhs -0.0, which LP text prints as -0.
    """
    codes = lin.codes
    if codes.nvars != fixed.nvars:
        raise ValueError("ring mismatch: %d vs %d variables" % (codes.nvars, fixed.nvars))
    # The fixed terms join as terms on column -1, the first of each row.
    nfixed = len(fixed.terms)
    mono = np.concatenate([lin.mono, codes.encode(fixed.terms)])
    col = np.concatenate([lin.col, np.full(nfixed, -1)])
    coef = np.concatenate([lin.coef, np.fromiter(fixed.terms.values(), float, nfixed)])
    order = np.lexsort((col, mono))  # stable: a pair's terms keep lin's order
    mono, col = mono[order], col[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (mono[1:] != mono[:-1]) | (col[1:] != col[:-1])
    sums = np.bincount(np.cumsum(first) - 1, weights=coef[order])
    if not np.isfinite(sums).all():
        raise ValueError("non-finite coefficient in the coefficient system")
    mono, col = mono[first], col[first]
    kept = (np.abs(sums) >= PRUNE_TOL) | (col < 0)
    mono, col, sums = mono[kept], col[kept], sums[kept]
    new_row = np.ones(mono.size, dtype=bool)
    new_row[1:] = mono[1:] != mono[:-1]
    row = np.cumsum(new_row) - 1
    rhs = np.full(row[-1] + 1 if row.size else 0, -0.0)
    on_fixed, on_cols = col < 0, col >= 0
    rhs[row[on_fixed]] = -sums[on_fixed]
    return row[on_cols], col[on_cols], sums[on_cols], rhs


def instantiate(lin: LinearPoly, z: Sequence[float], basis: Sequence[Monomial]) -> Polynomial:
    """The polynomial that lin, one term per monomial of basis in basis order, takes at z.

    That is the shape fresh_free_poly builds over basis.
    """
    if not np.array_equal(lin.mono, lin.codes.encode(basis)):
        raise ValueError("lin does not have one term per basis monomial, in basis order")
    values = lin.coef * np.asarray(z, dtype=float)[lin.col]
    # The codes match, so basis holds distinct valid monomials of lin's ring.
    return Polynomial._result(dict(zip(basis, values.tolist())), lin.codes.nvars)


@dataclass
class DsosVar:
    """A DSOS polynomial s(x) = m(x)^T Q m(x) with Q a non-negative sum of DD extreme rays.

    ``rays`` maps each weight column to its ray (i, j, sign): e_i e_i^T when
    i == j, otherwise (e_i + sign e_j)(e_i + sign e_j)^T with sign = +-1.
    Any non-negative weights give a diagonally dominant Q, and every
    diagonally dominant Q arises this way. ``entry`` and ``weight`` hold,
    per term of ``expansion``, the Gram entry i * dim + j (i <= j) the term
    adds to and the ray's coefficient there (1 on the diagonal, sign off it).
    """

    basis: List[Monomial]
    rays: Dict[int, Tuple[int, int, float]]
    expansion: LinearPoly
    entry: np.ndarray
    weight: np.ndarray

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
        """The Gram matrix Q the weights in z build.

        Each entry sums its rays' terms in ray order from 0.0, as adding up
        the rows of entries() does, and the lower triangle mirrors the upper.
        """
        k = self.dim
        terms = self.weight * np.asarray(z, dtype=float)[self.expansion.col]
        Q = np.bincount(self.entry, weights=terms, minlength=k * k).reshape(k, k)
        # The lower triangle is still +0.0, and no sum from +0.0 is -0.0, so
        # adding the transposed upper triangle copies it exactly.
        Q += np.triu(Q, 1).T
        return Q


def fresh_free_poly(alloc: DecisionAllocator, basis: Sequence[Monomial],
                    codes: MonomialCodes) -> LinearPoly:
    """c^T m(x) with one fresh decision variable per basis monomial, in basis order."""
    return LinearPoly(codes, codes.encode(basis), alloc.fresh(len(basis)), np.ones(len(basis)))


def fresh_dsos_poly(
    alloc: DecisionAllocator,
    basis: Sequence[Monomial],
    codes: MonomialCodes,
    pairs: Optional[Tuple[Tuple[int, int], ...]] = None,
) -> DsosVar:
    """Allocate a DSOS variable: one non-negative weight per extreme ray, and its expansion.

    ``pairs`` lists the basis position pairs (i, j), i <= j, that get rays,
    in upper-triangle row-major order and with every diagonal pair; by
    default every pair. A pair left out is one whose basis
    product is known to have a zero Gram entry in any solution of interest.
    The weights of e_i e_i^T and (e_i + e_j)(e_i + e_j)^T come first, in
    pairs order, then those of (e_i - e_j)(e_i - e_j)^T in the same order.
    A ray with weight w adds w to m_i^2 and, for i != j, w to m_j^2 and
    2 sign w to m_i*m_j: one term at code shift 2 beta_i, or three at
    2 beta_i, 2 beta_j and beta_i + beta_j, in ray order.
    """
    basis = list(basis)
    k = len(basis)
    if pairs is None:
        pairs = tuple((i, j) for i in range(k) for j in range(i, k))
    rays, ray, left, right, coef, weight = _ray_terms(pairs)
    cols = alloc.fresh(len(rays))
    beta = codes.encode(basis)
    expansion = LinearPoly(codes, codes.checked(beta[left] + beta[right]), cols[ray], coef)
    return DsosVar(basis=basis, rays=dict(zip(cols.tolist(), rays)), expansion=expansion,
                   entry=left * k + right, weight=weight)


@lru_cache(maxsize=64)
def _ray_terms(pairs: Tuple[Tuple[int, int], ...]):
    """The rays of the kept pairs in allocation order, and the terms of their expansion.

    Per term: its ray, the basis positions i and j of the product m_i*m_j it
    adds to, its coefficient, and the ray's coefficient in the Gram entry
    (i, j); the arrays are read-only.
    """
    rays = tuple((i, j, 1.0) for i, j in pairs) + tuple((i, j, -1.0) for i, j in pairs if i != j)
    terms = []
    for r, (i, j, sign) in enumerate(rays):
        terms.append((r, i, i, 1.0, 1.0))
        if i != j:
            terms += [(r, j, j, 1.0, 1.0), (r, i, j, 2.0 * sign, sign)]
    arrays = [np.array(a) for a in zip(*terms)]
    for a in arrays:
        a.flags.writeable = False
    return (rays, *arrays)


def dd_linear_constraints(v: DsosVar) -> RowBlock:
    """The rows coefs . z <= rhs that make v's Gram matrix diagonally dominant.

    One sign row -w <= 0 per ray weight w, in allocation order.
    """
    cols = np.fromiter(v.rays, np.int64, len(v.rays))
    return np.arange(cols.size), cols, np.full(cols.size, -1.0), np.zeros(cols.size)


def is_diagonally_dominant(M: np.ndarray, tol: float = 0.0) -> bool:
    """True iff M_ii + tol >= sum_{j != i} |M_ij| for every row i, with every entry finite."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square, got shape %s" % (M.shape,))
    if not np.isfinite(M).all():
        return False
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
