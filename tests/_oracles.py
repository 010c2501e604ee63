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
"""

from fractions import Fraction
from math import gcd
from typing import Dict, List, Tuple

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
