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
"""

from fractions import Fraction
from math import gcd
from typing import Dict, List, Tuple

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
