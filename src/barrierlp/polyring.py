"""Sparse multivariate polynomial arithmetic over float coefficients.

Monomials are exponent tuples; a polynomial maps exponent tuples to real
coefficients. The term order is graded lexicographic (total degree first,
then lexicographic with the first variable ranked highest) and is fixed
globally so that every constraint system derived from a polynomial identity
is emitted in a deterministic order.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

# A monomial is an exponent tuple, one entry per ring variable.
Monomial = Tuple[int, ...]

# Coefficients with magnitude below this are dropped after arithmetic.
PRUNE_TOL = 1e-14

# Per-variable exponent cap; exceeding it is a construction error.
MAX_EXPONENT = 1 << 16


def grlex_key(exponents: Monomial) -> Tuple[int, Tuple[int, ...]]:
    """Sort key realizing the global term order.

    Degree ascending; within one degree the x1-major monomial comes first,
    which is plain lexicographic order on exponent tuples read left to right.
    """
    return (sum(exponents), tuple(-e for e in exponents))


def _validate_monomial(exponents: Sequence[int], nvars: int) -> Monomial:
    try:
        exps = tuple(map(operator.index, exponents))
    except TypeError:
        raise ValueError("exponents %r are not all integers" % (tuple(exponents),)) from None
    if len(exps) != nvars:
        raise ValueError(
            "monomial has %d exponents, ring has %d variables" % (len(exps), nvars)
        )
    for e in exps:
        if e < 0:
            raise ValueError("negative exponent %d" % e)
        if e > MAX_EXPONENT:
            raise ValueError("exponent %d exceeds the cap %d" % (e, MAX_EXPONENT))
    return exps


class Polynomial:
    """Immutable sparse polynomial in ``nvars`` real variables.

    ``terms`` maps exponent tuples to nonzero float coefficients; the zero
    polynomial has an empty term map. Construction canonicalizes: duplicate
    monomials are merged, near-zero coefficients pruned, exponents validated
    (integers in [0, MAX_EXPONENT], one per variable).

    Arithmetic results (+, -, *, ** and partial_derivative) are built from
    monomials that are already valid, so they skip that validation. They
    still refuse a non-finite coefficient, prune below PRUNE_TOL and keep
    the terms in insertion order; products also keep the exponent cap.
    """

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: Mapping[Monomial, float], nvars: int):
        if nvars < 1:
            raise ValueError("nvars must be >= 1, got %d" % nvars)
        merged: Dict[Monomial, float] = {}
        for exps, coef in terms.items():
            key = _validate_monomial(exps, nvars)
            c = float(coef)
            if not math.isfinite(c):
                raise ValueError("non-finite coefficient %r" % c)
            merged[key] = merged.get(key, 0.0) + c
        pruned = {k: c for k, c in merged.items() if abs(c) >= PRUNE_TOL}
        object.__setattr__(self, "terms", pruned)
        object.__setattr__(self, "nvars", nvars)

    @classmethod
    def _result(cls, terms: Dict[Monomial, float], nvars: int) -> "Polynomial":
        """An arithmetic result over valid monomials; terms is a fresh dict it may keep."""
        values = terms.values()
        if not all(map(math.isfinite, values)):
            raise ValueError("non-finite coefficient %r"
                             % next(c for c in values if not math.isfinite(c)))
        if min(map(abs, values), default=PRUNE_TOL) < PRUNE_TOL:
            terms = {k: c for k, c in terms.items() if abs(c) >= PRUNE_TOL}
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "nvars", nvars)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls({}, nvars)

    @classmethod
    def constant(cls, value: float, nvars: int) -> "Polynomial":
        return cls({(0,) * nvars: value}, nvars)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(1.0, nvars)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError("variable index %d out of range [0, %d)" % (index, nvars))
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls({exps: 1.0}, nvars)

    @classmethod
    def monomial(cls, exponents: Sequence[int], nvars: int, coef: float = 1.0) -> "Polynomial":
        return cls({tuple(exponents): coef}, nvars)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exponents: Sequence[int]) -> float:
        return self.terms.get(tuple(exponents), 0.0)

    def sorted_terms(self) -> List[Tuple[Monomial, float]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def support_vars(self) -> Tuple[int, ...]:
        """Indices of variables that occur with a positive exponent."""
        seen = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e > 0:
                    seen.add(i)
        return tuple(sorted(seen))

    def max_abs_coefficient(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    # -- arithmetic ---------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                "ring mismatch: %d vs %d variables" % (self.nvars, other.nvars)
            )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(float(other), self.nvars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        acc = dict(self.terms)
        for exps, coef in other.terms.items():
            acc[exps] = acc.get(exps, 0.0) + coef
        return Polynomial._result(acc, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._result({e: -c for e, c in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(float(other), self.nvars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            scale = float(other)
            return Polynomial._result({e: c * scale for e, c in self.terms.items()}, self.nvars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        acc: Dict[Monomial, float] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(map(operator.add, ea, eb))
                acc[key] = acc.get(key, 0.0) + ca * cb
        if _max_exponent(self) + _max_exponent(other) > MAX_EXPONENT:
            for key in acc:
                _validate_monomial(key, self.nvars)
        return Polynomial._result(acc, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial power must be a non-negative integer")
        # p**0 = 1 for every p, including p = 0 (the 0**0 := 1 convention).
        result = None
        base = self
        k = power
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return Polynomial.one(self.nvars) if result is None else result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def almost_equal(self, other: "Polynomial", tol: float = 1e-9) -> bool:
        self._check_ring(other)
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol for k in keys
        )

    def __call__(self, point: Sequence[float]) -> float:
        return evaluate(self, point)

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for exps, coef in self.sorted_terms():
            factors = [
                "x%d" % (i + 1) + ("^%d" % e if e > 1 else "")
                for i, e in enumerate(exps)
                if e > 0
            ]
            body = "*".join(factors) if factors else "1"
            parts.append("%g*%s" % (coef, body))
        return "Polynomial(%s)" % " + ".join(parts)


class PolyMatrix:
    """Dense matrix of polynomials sharing one ring."""

    __slots__ = ("rows", "cols", "entries", "nvars")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        if not entries or not entries[0]:
            raise ValueError("PolyMatrix needs at least one row and one column")
        rows = len(entries)
        cols = len(entries[0])
        nvars = entries[0][0].nvars
        grid = []
        for r, row in enumerate(entries):
            if len(row) != cols:
                raise ValueError("ragged row %d: %d entries, expected %d" % (r, len(row), cols))
            for p in row:
                if p.nvars != nvars:
                    raise ValueError("entries disagree on the variable count")
            grid.append(tuple(row))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(grid))
        object.__setattr__(self, "nvars", nvars)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int, nvars: int) -> "PolyMatrix":
        z = Polynomial.zero(nvars)
        return cls([[z] * cols for _ in range(rows)])

    @classmethod
    def column(cls, polys: Sequence[Polynomial]) -> "PolyMatrix":
        return cls([[p] for p in polys])

    def __getitem__(self, key: Tuple[int, int]) -> Polynomial:
        i, j = key
        return self.entries[i][j]

    def entry_list(self) -> List[Polynomial]:
        return [p for row in self.entries for p in row]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return "PolyMatrix(%dx%d)" % (self.rows, self.cols)


def monomial_basis(nvars: int, maxdeg: int) -> List[Monomial]:
    """All monomials of total degree <= maxdeg, in the global term order.

    The list has length C(nvars+maxdeg, nvars) and starts with the constant
    monomial.
    """
    if nvars < 1:
        raise ValueError("nvars must be >= 1, got %d" % nvars)
    if maxdeg < 0:
        raise ValueError("maxdeg must be >= 0, got %d" % maxdeg)
    basis: List[Monomial] = []

    def extend(prefix: Tuple[int, ...], remaining: int, budget: int) -> None:
        if remaining == 0:
            basis.append(prefix)
            return
        for e in range(budget + 1):
            extend(prefix + (e,), remaining - 1, budget - e)

    extend((), nvars, maxdeg)
    basis.sort(key=grlex_key)
    return basis


def monomial_basis_on_support(
    nvars: int, maxdeg: int, support: Sequence[int]
) -> List[Monomial]:
    """Monomials of degree <= maxdeg using only the listed variables.

    Returned in the global term order over the full ring. With full support
    this equals monomial_basis(nvars, maxdeg).
    """
    active = sorted(set(support))
    for i in active:
        if not 0 <= i < nvars:
            raise ValueError("support index %d out of range" % i)
    if not active:
        return [(0,) * nvars]
    small = monomial_basis(len(active), maxdeg)
    lifted = []
    for exps in small:
        full = [0] * nvars
        for pos, e in zip(active, exps):
            full[pos] = e
        lifted.append(tuple(full))
    lifted.sort(key=grlex_key)
    return lifted


def _max_exponent(p: Polynomial) -> int:
    return max(map(max, p.terms), default=0)


def mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Product of two polynomials in the same ring."""
    return p * q


def partial_derivative(p: Polynomial, var: int) -> Polynomial:
    """Formal partial derivative with respect to variable ``var`` (0-based)."""
    if not 0 <= var < p.nvars:
        raise ValueError("variable index %d out of range [0, %d)" % (var, p.nvars))
    acc: Dict[Monomial, float] = {}
    for exps, coef in p.terms.items():
        e = exps[var]
        if e == 0:
            continue
        key = exps[:var] + (e - 1,) + exps[var + 1:]
        acc[key] = acc.get(key, 0.0) + coef * e
    return Polynomial._result(acc, p.nvars)


def gradient(p: Polynomial) -> List[Polynomial]:
    return [partial_derivative(p, i) for i in range(p.nvars)]


def _chain_sum(grads: Sequence[Polynomial], field: Sequence[Polynomial]) -> Polynomial:
    """sum_i grads[i] * field[i], adding one product at a time in i order.

    A pair with a zero factor adds nothing and is skipped; every other
    product is added as a polynomial sum would add it, so the coefficients
    and the term order are those of the plain term-by-term sum.
    """
    acc = Polynomial.zero(grads[0].nvars)
    for d, v in zip(grads, field):
        if d.terms and v.terms:
            acc = acc + d * v
    return acc


def lie_derivative_drift(b: Polynomial, f: PolyMatrix) -> Polynomial:
    """Derivative of b along the drift field: sum_i (db/dx_i) * f_i."""
    if f.cols != 1:
        raise ValueError("drift must be a column vector, got %d columns" % f.cols)
    if f.rows != b.nvars or f.nvars != b.nvars:
        raise ValueError(
            "drift has %d rows over %d variables, b has %d variables"
            % (f.rows, f.nvars, b.nvars)
        )
    return _chain_sum(gradient(b), [row[0] for row in f.entries])


def lie_derivative_input(b: Polynomial, g: PolyMatrix) -> PolyMatrix:
    """Row vector of derivatives of b along each input channel of g."""
    if g.rows != b.nvars or g.nvars != b.nvars:
        raise ValueError(
            "input matrix has %d rows over %d variables, b has %d variables"
            % (g.rows, g.nvars, b.nvars)
        )
    grads = gradient(b)
    return PolyMatrix([[_chain_sum(grads, column) for column in zip(*g.entries)]])


def evaluate(p: Polynomial, point: Sequence[float]) -> float:
    """Numeric value of p at the given point."""
    if len(point) != p.nvars:
        raise ValueError(
            "point has %d coordinates, ring has %d variables" % (len(point), p.nvars)
        )
    total = 0.0
    for exps, coef in p.terms.items():
        v = coef
        for x, e in zip(point, exps):
            if e:
                v *= float(x) ** e
        total += v
    return total
