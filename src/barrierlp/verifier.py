"""Assemble and solve the barrier-certificate LPs, then gate every verdict.

Two families of programs are built here. The single-candidate program asks
for multipliers making

    (s1 + b*p10 + Lgb.p1) * Lfb - s2 - b*p20 - Lgb.p2 - Lfb^(2a) == 0

with s1, s2 DSOS; a solution certifies that b is a control barrier function
under unbounded inputs. The emptiness program asks for DSOS s0..sL with

    1 + s0 + sum_i si*bi == 0,

whose solvability certifies the joint safe set is empty (a failure verdict
for a multi-candidate system). Both families run through one schedule
runner (_run_schedule): assemble the identity into an LP, solve it, gate
the answer, record the outcome. Feasibility alone is never trusted: every
returned point is re-expanded symbolically and must pass a diagonal
dominance check plus a residual bound before it yields a certificate. An
infeasible answer is kept with its Farkas certificate revalidated, so each
record says whether the refutation holds, and a failed revalidation is
warned about; the drivers only decide what a schedule of records means.

Basis reduction: multipliers are built over the variables that actually
occur in the fixed data, and Gram entries whose basis product flips sign
under a symmetry of the fixed data are pinned to zero. Substituting the
inert variables to zero maps any full solution onto the restricted space,
and averaging a solution over the sign-flip group zeroes exactly the pruned
entries while preserving diagonal dominance, so the reduced program is
feasible if and only if the full one is; verdicts in both directions
survive the reduction. Every program is assembled reduced; the full-ring
assembly is the test suite's reference (tests/_oracles.py).

Before a candidate's schedule runs, refute.refute looks for a boundary
counterexample: a state with b = 0, Lgb = 0 and Lfb < 0, where no
certificate of the identity above exists at any a or degree. A float search
proposes it and an exact Krawczyk test with interval bounds proves it; a
proven one (scope "every rung") replaces the whole schedule, and the
candidate stays Inconclusive with the counterexample attached. Where Lgb is
a full-rank linear form in some variables V and every term of Lfb has a
factor in V, as on the satellite fleet, an exact structural proof comes
first instead: it proves a state with b = 0 and V = 0, where Lgb = Lfb = 0,
so no a=0 rung can certify, and none with Lfb < 0 exists. That witness
(scope "a=0") drops the a=0 rungs and the search, the rest of the schedule
runs, and the outcome keeps the witness whatever the verdict. Anything
short of a proof refutes nothing, and the schedule runs.

A candidate derives b, Lfb and Lgb exactly once, from the system it is
built with; its float lfb and lgb are their rounding, and nothing derives
them again. Single programs are assembled in its support
ring (SupportRing): its b, Lfb and Lgb projected onto the state variables
occurring in them, in ascending order, and the nonzero Lgb channels. The
ring takes the candidate's place in the degree policy and the assembly,
which read only those three polynomials. Dropping variables that every
basis monomial leaves at exponent zero keeps the graded lexicographic order,
so the program is row for row the one the full ring gives, over shorter
monomials. The projected (b, Lfb, Lgb) terms are the class key:
candidates that differ only by a renaming of variables and channels, like
the chasers of the satellite fleet, share a key and therefore a program.
Within one call each program of a key is solved once, and the Grams and
multipliers of its point are built once in the support ring; every
candidate then lifts them to its own variables and channels and passes both
certificate gates in its own full ring before it counts as verified.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .affinegram import (
    DecisionAllocator,
    DsosVar,
    LinearPoly,
    MonomialCodes,
    coefficient_system,
    dd_linear_constraints,
    fresh_dsos_poly,
    fresh_free_poly,
    gram_expansion,
    instantiate,
    is_diagonally_dominant,
    linear_sum,
    mul_fixed,
)
from .lpsolve import (
    FARKAS_SIGN_TOL,
    MAX_ITERS,
    LpOutcome,
    LpProblem,
    LpStatus,
    solve_feasibility,
    validate_farkas,
)
# lie_derivative_* are not called here; perfbench/spans.py looks them up on this module.
from .polyring import (
    Exact,
    Monomial,
    Polynomial,
    PolyMatrix,
    exact_lie,
    lie_derivative_drift,
    lie_derivative_input,
    monomial_basis_on_support,
    rounded,
)
from .refute import EVERY_RUNG, Counterexample, refute

logger = logging.getLogger(__name__)

DD_GATE_TOL = 1e-7
RESIDUAL_GATE_TOL = 1e-6


class Verdict(Enum):
    VERIFIED = "Verified"
    INCONCLUSIVE = "Inconclusive"
    EMPTINESS_CERTIFIED = "EmptinessCertified"
    MULTI_VERIFIED = "MultiVerified"
    MULTI_INCONCLUSIVE = "MultiInconclusive"


@dataclass(frozen=True)
class ControlAffineSystem:
    """dx/dt = f(x) + g(x) u with polynomial f (n x 1) and g (n x m)."""

    f: PolyMatrix
    g: PolyMatrix

    def __post_init__(self):
        n = self.f.nvars
        if self.f.cols != 1:
            raise ValueError("drift must be a column vector")
        if self.f.rows != n:
            raise ValueError(
                "drift has %d rows but the ring has %d variables" % (self.f.rows, n)
            )
        if self.g.rows != n or self.g.nvars != n:
            raise ValueError("input matrix shape does not match the state dimension")

    @property
    def n(self) -> int:
        return self.f.rows

    @property
    def m(self) -> int:
        return self.g.cols


@dataclass(frozen=True)
class CandidateCbf:
    """Candidate barrier b of sys, with Lie derivatives along f and g derived at construction.

    exact holds (b, Lfb, Lgb channels) exactly (polyring.exact_lie); lfb and lgb are
    their rounding, which raises ValueError where no float holds a coefficient.
    """

    b: Polynomial
    sys: ControlAffineSystem
    exact: Tuple[Exact, Exact, Tuple[Exact, ...]] = field(init=False, compare=False, repr=False)
    lfb: Polynomial = field(init=False, compare=False)
    lgb: PolyMatrix = field(init=False, compare=False)  # 1 x m

    def __post_init__(self):
        n = self.b.nvars
        if n != self.sys.n:
            raise ValueError("candidate has %d variables, system has %d states" % (n, self.sys.n))
        eb, (lfb, *lgb) = exact_lie(self.b, [self.sys.f.entry_list(), *zip(*self.sys.g.entries)])
        object.__setattr__(self, "exact", (eb, lfb, tuple(lgb)))
        object.__setattr__(self, "lfb", rounded(lfb, n))
        object.__setattr__(self, "lgb", PolyMatrix([[rounded(c, n) for c in lgb]]))

    @classmethod
    def from_system(cls, b: Polynomial, sys: ControlAffineSystem) -> "CandidateCbf":
        return cls(b, sys)


@dataclass(frozen=True)
class SupportRing:
    """A candidate's data projected onto the variables and input channels it uses.

    Support-ring variable p is full-ring variable ``variables[p]`` and
    channel q is input ``channels[q]``; ``b``, ``lfb`` and ``lgb`` (1 x
    len(channels)) are the candidate's polynomials projected onto them, so
    the ring stands in for the candidate wherever only that data is read.
    ``key`` is equal for candidates whose projected data agree term by term,
    in term order, so they assemble the same single programs.
    """

    variables: Tuple[int, ...]
    channels: Tuple[int, ...]
    nvars: int  # variables of the full ring
    ninputs: int  # input channels of the full system
    b: Polynomial
    lfb: Polynomial
    lgb: PolyMatrix

    @property
    def key(self) -> tuple:
        polys = [self.b, self.lfb] + self.lgb.entry_list()
        return (len(self.variables),) + tuple(tuple(p.terms.items()) for p in polys)

    def lift_monomial(self, mono: Monomial) -> Monomial:
        full = [0] * self.nvars
        for v, e in zip(self.variables, mono):
            full[v] = e
        return tuple(full)

    def lift(self, p: Polynomial) -> Polynomial:
        # Lifting spreads distinct valid monomials over more variables.
        return Polynomial._result({self.lift_monomial(mo): c for mo, c in p.terms.items()},
                                  self.nvars)


def support_ring(cand: CandidateCbf) -> SupportRing:
    """Project cand's b, Lfb and live Lgb channels onto its support ring.

    Projection sets the dropped variables to zero. That is a ring
    homomorphism, and none of them occurs in b, Lfb or Lgb, so the projected
    polynomials keep every term and its coefficient; dropping variables
    that every term leaves at exponent zero keeps the graded lexicographic
    order, so they keep their term order too. Nothing is derived again. With
    nothing to drop, the ring holds cand's own polynomials. A ring needs one
    variable and a matrix one column, so when no variable or no channel is
    live the first one is kept; a kept zero channel is dropped by the
    assembly all the same.
    """
    n, m = cand.sys.n, cand.sys.m
    lgb = cand.lgb.entry_list()
    variables = tuple(_union_support([cand.b, cand.lfb] + lgb)) or (0,)
    channels = tuple(j for j, g in enumerate(lgb) if not g.is_zero()) or (0,)
    if (variables, channels) == (tuple(range(n)), tuple(range(m))):
        return SupportRing(variables, channels, n, m, cand.b, cand.lfb, cand.lgb)

    def project(p: Polynomial) -> Polynomial:
        return Polynomial({tuple(mo[v] for v in variables): c for mo, c in p.terms.items()},
                          len(variables))

    return SupportRing(variables, channels, n, m, project(cand.b), project(cand.lfb),
                       PolyMatrix([[project(lgb[j]) for j in channels]]))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class VerifierOptions:
    """Search schedule and pivot budget; the one check of every value.

    a_values: exponents a tried for the Lfb^(2a) term, ascending.
    deg_s: DSOS half-degree schedule (default: [ceil(deg(b)/2)]).
    deg_p: free-multiplier degrees, one per deg_s entry (exactly one when
        deg_s is unset); None picks a degree that lets every product reach
        both the Gram terms and the fixed term.
    emptiness_deg_s: half-degrees for the emptiness sweep (default:
        [0, ceil(max deg(bi)/2)] deduplicated).
    archimedean_C: when set, the emptiness program gains the generator
        C - sum_i x_i^2 (C must convert to a float); when unset a warning
        records that compactness of the described region is the caller's
        responsibility.
    max_iters: simplex pivot budget of each program.

    Schedules are non-empty, non-decreasing lists or tuples of non-negative
    ints, stored as tuples; a bool is not an int anywhere. None is accepted
    only where it is the default. Problem files and command-line flags are
    checked here too: every ValueError message starts with the offending
    field or entry, e.g. ``deg_s[0]: expected an integer``.
    """

    a_values: Tuple[int, ...] = (0, 1)
    deg_s: Optional[Tuple[int, ...]] = None
    deg_p: Optional[Tuple[int, ...]] = None
    emptiness_deg_s: Optional[Tuple[int, ...]] = None
    archimedean_C: Optional[int] = None
    max_iters: int = MAX_ITERS

    def __post_init__(self):
        for name in ("a_values", "deg_s", "deg_p", "emptiness_deg_s"):
            sched = getattr(self, name)
            if sched is None and name != "a_values":
                continue
            if not isinstance(sched, (list, tuple)):
                raise ValueError("%s: expected a list" % name)
            if not sched:
                raise ValueError("%s: must be non-empty" % name)
            for i, d in enumerate(sched):
                if not _is_int(d):
                    raise ValueError("%s[%d]: expected an integer" % (name, i))
                if d < 0:
                    raise ValueError("%s[%d]: must be non-negative" % (name, i))
            if list(sched) != sorted(sched):
                raise ValueError("%s: must be non-decreasing" % name)
            object.__setattr__(self, name, tuple(sched))
        if self.deg_p is not None and len(self.deg_p) != len(self.deg_s or (None,)):
            raise ValueError("deg_p: expected one entry per deg_s entry (one when deg_s is unset)")
        for name, least in (("archimedean_C", 1), ("max_iters", 0)):
            value = getattr(self, name)
            if value is None and name == "archimedean_C":
                continue
            if not _is_int(value):
                raise ValueError("%s: expected an integer" % name)
            if value < least:
                raise ValueError("%s: must be at least %d" % (name, least))
        if self.archimedean_C is not None:
            try:
                float(self.archimedean_C)
            except OverflowError:
                raise ValueError("archimedean_C: too large for a float") from None


@dataclass
class Certificate:
    """Numeric multipliers returned by a feasible program.

    kind 'single': grams = [Q1, Q2] over gram_bases, p10/p20 scalar
    multipliers, p1/p2 input-channel multipliers, exponent a.
    kind 'emptiness': grams = [Q0..QL] plus one more when augmented;
    aug_generator stores the appended generator polynomial.
    The residual is the max-abs coefficient left after substituting
    everything back into the defining identity.
    """

    kind: str
    gram_bases: List[List[Monomial]]
    grams: List[np.ndarray]
    residual: float = math.inf
    a: Optional[int] = None
    deg_s: Optional[int] = None
    deg_p: Optional[int] = None
    p10: Optional[Polynomial] = None
    p20: Optional[Polynomial] = None
    p1: Optional[List[Polynomial]] = None
    p2: Optional[List[Polynomial]] = None
    augmented: bool = False
    aug_generator: Optional[Polynomial] = None

    def s_polys(self) -> List[Polynomial]:
        return [gram_expansion(Q, basis) for Q, basis in zip(self.grams, self.gram_bases)]

    def grams_diagonally_dominant(self, tol: float = DD_GATE_TOL) -> bool:
        return all(is_diagonally_dominant(Q, tol) for Q in self.grams)


@dataclass
class LpRecord:
    """One program of a verification: its shape, how it was solved, and what each phase cost.

    seconds is the solve, assemble_s the transcription into the LP (both 0.0
    when reused), gate_s the Farkas check of a refutation or the extraction
    and gates of a feasible point, as run for this record. The point's Grams
    and multipliers are built once, by the first record that gates it; a
    reused record's gate_s times its own lift of them and its own gates.
    """

    name: str
    status: str
    rows: int
    cols: int
    iterations: int
    exit: str  # why the simplex stopped; see LpOutcome
    seconds: float
    assemble_s: float = 0.0
    gate_s: float = 0.0
    farkas_valid: Optional[bool] = None
    reused: bool = False  # the same program was solved earlier in the call


# The LpRecord fields that time a phase; deterministic reports zero them.
LP_TIMINGS = ("seconds", "assemble_s", "gate_s")


@dataclass
class VerificationOutcome:
    """What a verification found.

    counterexample is set on a single candidate refuted before its schedule
    ran (scope "every rung": the verdict is Inconclusive and lps is empty),
    or on one whose a=0 rungs an exact witness ruled out (scope "a=0": lps
    holds the other rungs, and the verdict is theirs). refute_s is the time
    the a=0 proof, the counterexample search and the check took, 0.0 where
    none ran.
    """

    verdict: Verdict
    lps: List[LpRecord] = field(default_factory=list)
    certificate: Optional[Certificate] = None
    singles: Optional[List["VerificationOutcome"]] = None
    skipped: Optional[List[int]] = None  # joint runs: indices of the candidates never run
    warnings: List[str] = field(default_factory=list)
    schedule: Dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0
    counterexample: Optional[Counterexample] = None
    refute_s: float = 0.0


# -- sign-symmetry machinery -------------------------------------------------

def sign_classes(polys: Sequence[Polynomial]) -> Callable[[Monomial], int]:
    """Map a monomial to its class under the sign flips fixing every polynomial.

    A monomial's parity mask has bit i set when x_i has odd exponent; a
    flip of the variables in w changes its sign when the mask shares an odd
    number of bits with w. The flips fixing the data are exactly those
    orthogonal (over GF(2)) to the span S of the data's masks, so a
    monomial keeps its sign under all of them iff its mask lies in S, and
    two monomials (or the product of a pair) behave alike iff their masks
    differ by an element of S. The class is the mask reduced modulo S
    against an echelon basis, highest pivot first: 0 for invariant
    monomials, equal for pairs whose product is invariant.
    """

    def mask(mono: Monomial) -> int:
        return sum(1 << i for i, e in enumerate(mono) if e & 1)

    pivots: Dict[int, int] = {}
    for p in polys:
        for mono in p.terms:
            v = mask(mono)
            while v and v.bit_length() - 1 in pivots:
                v ^= pivots[v.bit_length() - 1]
            if v:
                pivots[v.bit_length() - 1] = v
    echelon = sorted(pivots.items(), reverse=True)

    def reduce(mono: Monomial) -> int:
        v = mask(mono)
        for top, row in echelon:
            if (v >> top) & 1:
                v ^= row
        return v

    return reduce


def _union_support(polys: Sequence[Polynomial]) -> List[int]:
    seen = set()
    for p in polys:
        seen.update(p.support_vars())
    return sorted(seen)


# -- degree policy -----------------------------------------------------------

def default_deg_s(b: Polynomial) -> int:
    return max(0, (b.degree() + 1) // 2)


def default_deg_p(cand: Union[CandidateCbf, SupportRing], a: int, deg_s: int) -> int:
    """Free-multiplier degree letting every product balance the identity.

    The generators multiplied by free polynomials are b and the entries of
    Lgb; their minimum degree dgmin sets how much degree a product can
    reach. The multiplier degree must let those products span both the
    Gram terms (degree 2*deg_s) and, through the Lfb factor, the fixed
    term Lfb^(2a).
    """
    gen_degs = [p.degree() for p in [cand.b] + cand.lgb.entry_list() if not p.is_zero()]
    dgmin = min(gen_degs) if gen_degs else 0
    lfb_deg = cand.lfb.degree() if not cand.lfb.is_zero() else 0
    return max(deg_s, 2 * deg_s - dgmin, (2 * a - 1) * lfb_deg - dgmin, 0)


def default_emptiness_deg_s(cands: Sequence[CandidateCbf]) -> List[int]:
    top = max(max(0, c.b.degree()) for c in cands)
    return sorted({0, (top + 1) // 2})


# -- assembly ----------------------------------------------------------------

@dataclass
class SingleLayout:
    """Decision-space map of one single-candidate program.

    Allocation order: p10, p20, p1, p2, then the ray weights of s1, then
    those of s2. p1 and p2 hold one polynomial per live channel and None
    where the channel's Lgb entry is zero. With a free basis of size f, l
    live channels, and a Gram basis of size k that keeps P off-diagonal
    pairs, this totals (2l + 2)f + 2(k + 2P) variables. The identity is
    ``identity + fixed == 0`` with fixed = -Lfb^(2a).
    """

    a: int
    deg_s: int
    deg_p: int
    nvars: int
    free_basis: List[Monomial]
    gram_basis: List[Monomial]
    p10: LinearPoly
    p20: LinearPoly
    p1: List[Optional[LinearPoly]]
    p2: List[Optional[LinearPoly]]
    s1: DsosVar
    s2: DsosVar
    identity: LinearPoly
    fixed: Polynomial
    # The last point extracted from, in the support ring (see extract_single_certificate).
    point: Optional["_RingPoint"] = field(default=None, repr=False, compare=False)


@dataclass
class EmptinessLayout:
    """Decision-space map of one emptiness program.

    Allocation order: s0, then one DSOS variable per generator (candidates
    first, the compactness generator last when present). With a Gram basis
    of size k that keeps P off-diagonal pairs and no augmentation this
    totals (k + 2P)(L + 1). The identity is ``identity + fixed == 0`` with
    fixed = 1.
    """

    deg_s: int
    nvars: int
    gram_basis: List[Monomial]
    s_vars: List[DsosVar]
    generators: List[Polynomial]
    augmented: bool
    identity: LinearPoly
    fixed: Polynomial


class _Bases:
    """Gram and free bases over one set of fixed data.

    The bases live on the fixed data's support; free monomials and Gram
    entries that flip sign under the data's sign symmetries are dropped.
    The support and the sign classes are computed on first use, and each
    basis, with a Gram basis's kept pairs, once per degree: the programs
    built from one _Bases share them, and one that builds no program
    computes nothing.
    """

    def __init__(self, fixed: Sequence[Polynomial], n: int):
        self.n = n
        self.fixed = list(fixed)
        self._symmetry: Optional[Tuple[List[int], Callable[[Monomial], int]]] = None
        self._gram: Dict[int, Tuple[List[Monomial], Tuple[Tuple[int, int], ...]]] = {}
        self._free: Dict[int, List[Monomial]] = {}

    def _classes(self, deg: int) -> Tuple[List[Monomial], List[int]]:
        """The monomials of degree at most deg on the support, and their sign classes."""
        if self._symmetry is None:
            self._symmetry = _union_support(self.fixed), sign_classes(self.fixed)
        support, sign_class = self._symmetry
        basis = monomial_basis_on_support(self.n, deg, support)
        return basis, [sign_class(mo) for mo in basis]

    def gram(self, deg_s: int) -> Tuple[List[Monomial], Tuple[Tuple[int, int], ...]]:
        """(Gram basis, the pairs fresh_dsos_poly keeps) at deg_s.

        A pair is kept when its two monomials share a sign class, so their
        product is invariant; every diagonal pair is.
        """
        if deg_s not in self._gram:
            basis, classes = self._classes(deg_s)
            k = len(basis)
            pairs = tuple((i, j) for i, c in enumerate(classes) for j in range(i, k)
                          if classes[j] == c)
            self._gram[deg_s] = basis, pairs
        return self._gram[deg_s]

    def free(self, deg_p: int) -> List[Monomial]:
        """The invariant monomials of degree at most deg_p."""
        if deg_p not in self._free:
            basis, classes = self._classes(deg_p)
            self._free[deg_p] = [mo for mo, c in zip(basis, classes) if c == 0]
        return self._free[deg_p]


def _single_bases(cand: Union[CandidateCbf, SupportRing]) -> _Bases:
    return _Bases([cand.b, cand.lfb] + cand.lgb.entry_list(), cand.b.nvars)


def _identity_lp(
    nvars: int, identity: LinearPoly, fixed: Polynomial, dsos_vars: Sequence[DsosVar]
) -> LpProblem:
    """Equality rows zeroing every coefficient of identity + fixed, then the weights' sign rows.

    The rows are stored after one check of the columns they are built from,
    in place of LpProblem's per-row check: every column lies in [0, nvars).
    coefficient_system has already refused any sum that is not finite.
    """
    signs = [dd_linear_constraints(var) for var in dsos_vars]
    cols = np.concatenate([identity.col] + [block[1] for block in signs])
    if cols.size and not (0 <= cols.min() and cols.max() < nvars):
        raise ValueError("decision column out of range [0, %d)" % nvars)
    lp = LpProblem(nvars)
    lp.add_rows([coefficient_system(identity, fixed)], signs)
    return lp


def assemble_single_lp(
    cand: Union[CandidateCbf, SupportRing],
    a: int,
    deg_s: int,
    deg_p: int,
    bases: Optional[_Bases] = None,
) -> Tuple[LpProblem, SingleLayout]:
    """Transcribe the single-candidate identity into an equality/DD system.

    Equality rows match every monomial coefficient of the identity to zero;
    inequality rows keep the ray weights of s1 and s2 non-negative.
    cand is a candidate, or its SupportRing; only its b, Lfb and Lgb are
    read, the Lie derivatives the candidate derived from its own system.
    bases, when given, is _single_bases(cand), which cand's programs share
    within one verification; it is built here otherwise.
    """
    if bases is None:
        bases = _single_bases(cand)
    b, lfb, lgb = cand.b, cand.lfb, cand.lgb
    n = b.nvars
    m = lgb.cols
    lgb_entries = lgb.entry_list()
    gram_basis, pairs = bases.gram(deg_s)
    free_basis = bases.free(deg_p)
    # Channels that never enter the identity get no multipliers.
    live = [j for j, g in enumerate(lgb_entries) if not g.is_zero()]

    fixed = -(Polynomial.one(n) if a == 0 else lfb ** (2 * a))

    # A fixed term of higher degree than any multiplier product cannot be
    # matched; assemble anyway, the resulting infeasibility is informative.
    reach = [2 * deg_s + max(lfb.degree(), 0)]
    for gen in [b] + lgb_entries:
        if not gen.is_zero():
            reach.append(gen.degree() + deg_p + max(lfb.degree(), 0))
    if fixed.degree() > max(reach):
        logger.warning(
            "fixed term of degree %d exceeds every multiplier product (max %d); "
            "the program will be infeasible at this schedule",
            fixed.degree(),
            max(reach),
        )
    # Every term of the identity, the fixed one and the free bases lie within this degree.
    codes = MonomialCodes(n, max(reach + [fixed.degree(), deg_p]))

    alloc = DecisionAllocator()
    p10 = fresh_free_poly(alloc, free_basis, codes)
    p20 = fresh_free_poly(alloc, free_basis, codes)
    p1: List[Optional[LinearPoly]] = [None] * m
    p2: List[Optional[LinearPoly]] = [None] * m
    for channel in (p1, p2):
        for j in live:
            channel[j] = fresh_free_poly(alloc, free_basis, codes)
    s1 = fresh_dsos_poly(alloc, gram_basis, codes, pairs)
    s2 = fresh_dsos_poly(alloc, gram_basis, codes, pairs)

    h1 = linear_sum([(1.0, s1.expansion), (1.0, mul_fixed(p10, b))]
                    + [(1.0, mul_fixed(p1[j], lgb_entries[j])) for j in live])
    e = linear_sum([(1.0, mul_fixed(h1, lfb)), (-1.0, s2.expansion), (-1.0, mul_fixed(p20, b))]
                   + [(-1.0, mul_fixed(p2[j], lgb_entries[j])) for j in live])

    lp = _identity_lp(alloc.count, e, fixed, (s1, s2))
    layout = SingleLayout(
        a=a,
        deg_s=deg_s,
        deg_p=deg_p,
        nvars=alloc.count,
        free_basis=list(free_basis),
        gram_basis=list(gram_basis),
        p10=p10,
        p20=p20,
        p1=p1,
        p2=p2,
        s1=s1,
        s2=s2,
        identity=e,
        fixed=fixed,
    )
    return lp, layout


def augment_archimedean(cands: Sequence, C: int) -> List[Polynomial]:
    """Generator list extended with C - sum_i x_i^2.

    Accepts candidates or plain polynomials; a repeated call on the output
    appends another copy (callers manage idempotence). The added generator
    bounds the described region inside a ball of radius sqrt(C).
    """
    if C < 1:
        raise ValueError("C must be a positive integer")
    gens: List[Polynomial] = []
    for item in cands:
        gens.append(item.b if isinstance(item, CandidateCbf) else item)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].nvars
    ball = Polynomial.constant(float(C), n)
    for i in range(n):
        ball = ball - Polynomial.variable(i, n) ** 2
    if archimedean_witness(gens) is not None:
        logger.info("a generator already bounds the region; augmentation is redundant")
    return gens + [ball]


def archimedean_witness(generators: Sequence[Polynomial]) -> Optional[int]:
    """Smallest C such that some generator equals c0 - lam * sum x_i^2 scaled.

    Returns None when no generator has that shape; a non-None value means
    the compactness hypothesis already holds natively.
    """
    for gen in generators:
        n = gen.nvars
        if len(gen.terms) != n + 1:  # a constant and n squares
            continue
        zero = (0,) * n
        squares = []
        for i in range(n):
            mono = tuple(2 if j == i else 0 for j in range(n))
            squares.append(mono)
        expected_keys = set(squares) | {zero}
        if set(gen.terms) != expected_keys:
            continue
        c0 = gen.terms.get(zero, 0.0)
        lams = [-gen.terms[mo] for mo in squares]
        if c0 <= 0 or any(l <= 0 for l in lams):
            continue
        lam = lams[0]
        if any(abs(l - lam) > 1e-12 for l in lams):
            continue
        return int(math.ceil(c0 / lam))
    return None


def _emptiness_bases(cands: Sequence[CandidateCbf], archimedean_C: Optional[int]) -> _Bases:
    """One emptiness sweep's bases, over its generators: each b_i, then C - |x|^2 if C is set."""
    gens = [c.b for c in cands]
    if archimedean_C is not None:
        gens = augment_archimedean(cands, archimedean_C)
    return _Bases(gens, cands[0].b.nvars)


def assemble_emptiness_lp(
    cands: Sequence[CandidateCbf],
    deg_s: int,
    archimedean_C: Optional[int] = None,
    bases: Optional[_Bases] = None,
) -> Tuple[LpProblem, EmptinessLayout]:
    """Transcribe 1 + s0 + sum_i si*bi == 0 into an equality/DD system.

    bases, when given, is _emptiness_bases(cands, archimedean_C), which the
    degrees of one sweep share; it is built here otherwise.
    """
    if len(cands) < 1:
        raise ValueError("need at least one candidate")
    if bases is None:
        bases = _emptiness_bases(cands, archimedean_C)
    n, generators = bases.n, bases.fixed
    augmented = archimedean_C is not None
    gram_basis, pairs = bases.gram(deg_s)
    # s_i * b_i reaches 2 deg_s + deg(b_i).
    codes = MonomialCodes(n, 2 * deg_s + max(max(gen.degree() for gen in generators), 0))

    alloc = DecisionAllocator()
    s_vars = [
        fresh_dsos_poly(alloc, gram_basis, codes, pairs)
        for _ in range(1 + len(generators))
    ]

    e = linear_sum([(1.0, s_vars[0].expansion)]
                   + [(1.0, mul_fixed(v.expansion, gen)) for v, gen in zip(s_vars[1:], generators)])
    fixed = Polynomial.one(n)

    lp = _identity_lp(alloc.count, e, fixed, s_vars)
    layout = EmptinessLayout(
        deg_s=deg_s,
        nvars=alloc.count,
        gram_basis=list(gram_basis),
        s_vars=s_vars,
        generators=list(generators),
        augmented=augmented,
        identity=e,
        fixed=fixed,
    )
    return lp, layout


# -- certificate extraction and validation -----------------------------------

class _RingPoint(NamedTuple):
    """A single program's point z as Grams and multipliers in the ring it was assembled in.

    p1 and p2 hold one polynomial per ring channel, None where the program
    has no multiplier.
    """

    z: np.ndarray
    grams: List[np.ndarray]
    p10: Polynomial
    p20: Polynomial
    p1: List[Optional[Polynomial]]
    p2: List[Optional[Polynomial]]


def _ring_point(layout: SingleLayout, z: np.ndarray) -> _RingPoint:
    def inst(lin: Optional[LinearPoly]) -> Optional[Polynomial]:
        return None if lin is None else instantiate(lin, z, layout.free_basis)

    return _RingPoint(z, [layout.s1.gram(z), layout.s2.gram(z)], inst(layout.p10),
                      inst(layout.p20), [inst(lin) for lin in layout.p1],
                      [inst(lin) for lin in layout.p2])


def extract_single_certificate(
    layout: SingleLayout,
    z: Sequence[float],
    cand: CandidateCbf,
    ring: SupportRing,
) -> Certificate:
    """cand's certificate from a point of a program assembled in a support ring.

    The program may have been assembled for another candidate with the same
    class key as ring. The point's Grams and multipliers in that ring are
    built once per point and kept on the layout; each candidate lifts them
    to its own variables and channels (a dropped channel gets zero
    multipliers), takes its own copy of the Grams, and recomputes the
    residual against itself in its full ring.
    """
    point = layout.point
    if point is None or point.z is not z:
        point = layout.point = _ring_point(layout, z)
    zero = Polynomial.zero(ring.nvars)

    def lift(p: Optional[Polynomial]) -> Polynomial:
        return zero if p is None else ring.lift(p)

    p1 = [zero] * ring.ninputs
    p2 = list(p1)
    for q, j in enumerate(ring.channels):
        p1[j] = lift(point.p1[q])
        p2[j] = lift(point.p2[q])
    cert = Certificate(
        kind="single",
        gram_bases=[[ring.lift_monomial(mo) for mo in v.basis] for v in (layout.s1, layout.s2)],
        grams=[Q.copy() for Q in point.grams],
        a=layout.a,
        deg_s=layout.deg_s,
        deg_p=layout.deg_p,
        p10=lift(point.p10),
        p20=lift(point.p20),
        p1=p1,
        p2=p2,
    )
    cert.residual = certificate_residual(cert, cand.sys, cand)
    return cert


def extract_emptiness_certificate(
    layout: EmptinessLayout, z: Sequence[float], cands: Sequence[CandidateCbf]
) -> Certificate:
    cert = Certificate(
        kind="emptiness",
        gram_bases=[list(v.basis) for v in layout.s_vars],
        grams=[v.gram(z) for v in layout.s_vars],
        deg_s=layout.deg_s,
        augmented=layout.augmented,
        aug_generator=layout.generators[-1] if layout.augmented else None,
    )
    cert.residual = certificate_residual(cert, None, cands)
    return cert


def certificate_residual(
    cert: Certificate,
    sys: Optional[ControlAffineSystem],
    cand_or_cands,
) -> float:
    """Max-abs coefficient left after substituting the certificate back.

    The expansion is recomputed from the Gram matrices with plain polynomial
    arithmetic; nothing from the LP transcription is reused, so this is an
    independent check of the returned numbers. sys, when not None, must be
    the system the candidate (or every candidate) was built for.
    """
    if sys is not None:
        owners = [cand_or_cands] if cert.kind == "single" else cand_or_cands
        if any(c.sys != sys for c in owners):
            raise ValueError("candidate was built for another system")
    s_polys = cert.s_polys()
    if cert.kind == "single":
        cand: CandidateCbf = cand_or_cands
        if cert.p10 is None or cert.p20 is None or cert.p1 is None or cert.p2 is None:
            raise ValueError("single certificate is missing multiplier polynomials")
        if len(s_polys) != 2:
            raise ValueError("single certificate must carry exactly two Gram matrices")
        b, lfb, lgb = cand.b, cand.lfb, cand.lgb
        if len(cert.p1) != lgb.cols or len(cert.p2) != lgb.cols:
            raise ValueError("multiplier count does not match the input dimension")
        a = cert.a if cert.a is not None else 0
        power_term = Polynomial.one(b.nvars) if a == 0 else lfb ** (2 * a)
        # A channel product with a zero factor adds nothing and is skipped;
        # the sum keeps every bit.
        h1 = s_polys[0] + b * cert.p10
        for j in range(lgb.cols):
            if lgb[0, j].terms and cert.p1[j].terms:
                h1 = h1 + lgb[0, j] * cert.p1[j]
        e = h1 * lfb - s_polys[1] - b * cert.p20
        for j in range(lgb.cols):
            if lgb[0, j].terms and cert.p2[j].terms:
                e = e - lgb[0, j] * cert.p2[j]
        e = e - power_term
        return e.max_abs_coefficient()

    if cert.kind == "emptiness":
        cands: Sequence[CandidateCbf] = cand_or_cands
        gens = [c.b for c in cands]
        if cert.augmented:
            if cert.aug_generator is None:
                raise ValueError("augmented certificate is missing its generator")
            gens = gens + [cert.aug_generator]
        if len(s_polys) != len(gens) + 1:
            raise ValueError(
                "certificate has %d Gram matrices for %d generators"
                % (len(s_polys), len(gens))
            )
        n = gens[0].nvars
        e = Polynomial.one(n) + s_polys[0]
        for s, gen in zip(s_polys[1:], gens):
            e = e + s * gen
        return e.max_abs_coefficient()

    raise ValueError("unknown certificate kind %r" % cert.kind)


# -- drivers ------------------------------------------------------------------

def _resolved_single_schedule(
    cand: Union[CandidateCbf, SupportRing], opts: VerifierOptions
) -> List[Tuple[int, int, int]]:
    deg_s = list(opts.deg_s) if opts.deg_s is not None else [default_deg_s(cand.b)]
    entries = []
    for a in opts.a_values:
        for idx, ds in enumerate(deg_s):
            if opts.deg_p is not None:
                dp = opts.deg_p[idx]
            else:
                dp = default_deg_p(cand, a, ds)
            entries.append((a, ds, dp))
    return entries


def _emptiness_schedule(cands: Sequence[CandidateCbf], opts: VerifierOptions) -> Dict[str, object]:
    """The emptiness schedule as the sweep runs it and the reports record it."""
    return {
        "emptiness_deg_s": (
            list(opts.emptiness_deg_s)
            if opts.emptiness_deg_s is not None
            else default_emptiness_deg_s(cands)
        ),
        "archimedean_C": opts.archimedean_C,
    }


FARKAS_MARGIN = 1e-9
FARKAS_LEVERAGE = 1e6


def _farkas_acceptable(lp: LpProblem, out: LpOutcome) -> bool:
    """Scale-aware acceptance of an infeasibility certificate.

    With combination residual d = max-abs coefficient of sum u_r a_r and
    margin g = -sum u_r beta_r, any feasible point z would need
    ||z||_1 >= g/d. Requiring g >= 1e-9 and g/d >= 1e6 certifies an
    enormous empty box; well-scaled problems clear the ratio by many
    orders of magnitude, while numerically weak certificates (huge
    multipliers from badly mixed coefficient scales) are rejected. So is a
    negative inequality multiplier, which combines nothing valid.
    """
    if out.farkas is None:
        return False
    if any(u < -FARKAS_SIGN_TOL for u in out.farkas.ub_mults):
        return False
    combo, rhs = validate_farkas(lp, out.farkas)
    margin = -float(rhs)
    if margin < FARKAS_MARGIN:
        return False
    return bool(combo <= margin / FARKAS_LEVERAGE)


def _solve(
    name: str, lp: LpProblem, opts: VerifierOptions, assemble_s: float
) -> Tuple[LpRecord, LpOutcome]:
    """Solve one program and record it.

    An infeasible answer's record says whether its Farkas certificate holds.
    """
    out = solve_feasibility(lp, max_iters=opts.max_iters)
    logger.info("%s: %s in %d pivots (%s)", name, out.status.value, out.iterations, out.exit)
    record = LpRecord(
        name=name,
        status=out.status.value,
        rows=lp.nrows,
        cols=lp.nvars,
        iterations=out.iterations,
        exit=out.exit,
        seconds=out.wall_time,
        assemble_s=assemble_s,
    )
    if out.status is LpStatus.INFEASIBLE:
        t0 = time.perf_counter()
        record.farkas_valid = _farkas_acceptable(lp, out)
        record.gate_s = time.perf_counter() - t0
    return record, out


def _gate(
    record: LpRecord, out: LpOutcome, extract: Callable[[np.ndarray], Certificate]
) -> Tuple[Optional[Certificate], Optional[str]]:
    """Gate a solved program's answer: (certificate or None, warning or None).

    A feasible point yields a certificate only when the extracted Grams are
    diagonally dominant within DD_GATE_TOL and the substitution residual is
    at most RESIDUAL_GATE_TOL; the time this takes is added to record.gate_s.
    """
    name = record.name
    if out.status is LpStatus.INFEASIBLE:
        return None, None
    if out.status is LpStatus.ITERATION_LIMIT:
        return None, "%s: iteration limit reached" % name
    t0 = time.perf_counter()
    cert = extract(out.point)
    passed = cert.grams_diagonally_dominant(DD_GATE_TOL) and cert.residual <= RESIDUAL_GATE_TOL
    record.gate_s += time.perf_counter() - t0
    if passed:
        return cert, None
    return None, "%s: feasible point failed the certificate gate (residual %.3g)" % (
        name, cert.residual)


class _Rung(NamedTuple):
    """One program of a schedule.

    assemble() returns (lp, layout); extract(layout, z) the certificate that
    the point z of lp gives. Programs with equal keys are identical.
    """

    name: str
    key: object
    entry: object  # the schedule entry, as the report records it
    assemble: Callable[[], tuple]
    extract: Callable[[object, np.ndarray], Certificate]


def _single_rungs(
    cand: CandidateCbf, opts: VerifierOptions, ring: Optional[SupportRing] = None
) -> List[_Rung]:
    """cand's (a, deg_s, deg_p) schedule, each program assembled in its support ring.

    ring, when given, is support_ring(cand).
    """
    if ring is None:
        ring = support_ring(cand)
    bases = _single_bases(ring)
    key = ring.key
    return [
        _Rung("single a=%d deg_s=%d deg_p=%d" % entry, (key,) + entry, list(entry),
              lambda entry=entry: assemble_single_lp(ring, *entry, bases=bases),
              lambda layout, z: extract_single_certificate(layout, z, cand, ring))
        for entry in _resolved_single_schedule(ring, opts)
    ]


def _emptiness_rungs(cands: Sequence[CandidateCbf], opts: VerifierOptions) -> List[_Rung]:
    bases = _emptiness_bases(cands, opts.archimedean_C)
    return [
        _Rung("emptiness deg_s=%d" % ds, ds, ds,
              lambda ds=ds: assemble_emptiness_lp(cands, ds, opts.archimedean_C, bases),
              lambda layout, z: extract_emptiness_certificate(layout, z, cands))
        for ds in _emptiness_schedule(cands, opts)["emptiness_deg_s"]
    ]


def _run_schedule(
    rungs: Sequence[_Rung],
    opts: VerifierOptions,
    solved: Dict[object, Tuple[LpRecord, LpOutcome, object]],
) -> Tuple[List[LpRecord], Optional[Certificate], List[str]]:
    """Solve and gate the rungs in order until one yields a certificate.

    Returns (records, certificate or None, warnings). solved maps the key of
    every program solved so far in the call to its (record, outcome,
    layout). A program's first use records its assembly and solve; a later
    rung with the same key, such as the rung of another candidate of the
    same class, gets a copy with seconds and assemble_s 0.0 and reused set.
    Every rung runs its own extract and gate on the point, and records that
    time alone in gate_s. The members of a class share what the layout
    keeps of the point (see extract_single_certificate), and each still
    checks its own certificate in its own ring. Nothing is kept beyond the
    call.
    """
    records: List[LpRecord] = []
    warnings: List[str] = []
    for rung in rungs:
        if rung.key in solved:
            record, out, layout = solved[rung.key]
            record = replace(record, seconds=0.0, assemble_s=0.0, gate_s=0.0, reused=True)
        else:
            t0 = time.perf_counter()
            lp, layout = rung.assemble()
            record, out = _solve(rung.name, lp, opts, time.perf_counter() - t0)
            solved[rung.key] = record, out, layout
        cert, warning = _gate(record, out, lambda z: rung.extract(layout, z))
        records.append(record)
        if warning is not None:
            warnings.append(warning)
        if record.farkas_valid is False:
            warnings.append("%s: infeasibility certificate failed revalidation" % rung.name)
        if cert is not None:
            return records, cert, warnings
    return records, None, warnings


def verify_single(
    sys: ControlAffineSystem, cand: CandidateCbf, opts: Optional[VerifierOptions] = None
) -> VerificationOutcome:
    """Refute b with a checked boundary counterexample, or search the schedule for a certificate.

    First a counterexample is sought: a state where b = 0, Lgb = 0 and
    Lfb < 0, proven exactly (see refute). One refutes b as a control
    barrier function for sys, so no program is solved: the verdict is
    Inconclusive, the outcome's counterexample holds the proof and lps is
    empty. An exact witness that no a=0 rung can certify (scope "a=0")
    removes only those rungs from the run, and stays on the outcome.
    Otherwise the (a, deg_s, deg_p) schedule runs: the first
    feasible program whose extracted certificate passes both the
    diagonal-dominance and residual gates yields Verified. An exhausted
    schedule yields Inconclusive: failing to find a DSOS certificate proves
    nothing about b. A candidate built for another system raises ValueError.
    """
    if opts is None:
        opts = VerifierOptions()
    if cand.sys != sys:
        raise ValueError("candidate was built for another system")
    return _verify_single(cand, opts, {}, {})


def _verify_single(
    cand: CandidateCbf, opts: VerifierOptions, solved: dict, searched: dict
) -> VerificationOutcome:
    """verify_single without the system check, reusing the programs in solved
    and the counterexample searches in searched (see refute.refute)."""
    t0 = time.perf_counter()
    ring = support_ring(cand)
    rungs = _single_rungs(cand, opts, ring)
    t1 = time.perf_counter()
    counterexample = refute(cand, ring, searched)
    refute_s = time.perf_counter() - t1
    if counterexample is None:
        records, cert, warnings = _run_schedule(rungs, opts, solved)
    elif counterexample.scope == EVERY_RUNG:  # only this scope replaces the whole schedule
        records, cert, warnings = [], None, []
    else:  # an a=0 witness rules out the a=0 rungs
        records, cert, warnings = _run_schedule([r for r in rungs if r.entry[0] != 0], opts, solved)
    return VerificationOutcome(
        verdict=Verdict.VERIFIED if cert is not None else Verdict.INCONCLUSIVE,
        lps=records,
        certificate=cert,
        warnings=warnings,
        schedule={"entries": [rung.entry for rung in rungs]},
        seconds=time.perf_counter() - t0,
        counterexample=counterexample,
        refute_s=refute_s,
    )


def check_emptiness(
    cands: Sequence[CandidateCbf], opts: Optional[VerifierOptions] = None
) -> VerificationOutcome:
    """Run the emptiness program at every scheduled degree.

    EmptinessCertified when some scheduled degree yields a gated
    certificate; otherwise Inconclusive (non-detection proves nothing
    without the joint analysis of verify_multi).
    """
    if opts is None:
        opts = VerifierOptions()
    if len(cands) < 1:
        raise ValueError("need at least one candidate")
    t0 = time.perf_counter()
    records, cert, warnings = _run_schedule(_emptiness_rungs(cands, opts), opts, {})
    return VerificationOutcome(
        verdict=Verdict.EMPTINESS_CERTIFIED if cert is not None else Verdict.INCONCLUSIVE,
        lps=records,
        certificate=cert,
        warnings=warnings,
        schedule=_emptiness_schedule(cands, opts),
        seconds=time.perf_counter() - t0,
    )


def verify_multi(
    sys: ControlAffineSystem,
    cands: Sequence[CandidateCbf],
    opts: Optional[VerifierOptions] = None,
) -> VerificationOutcome:
    """Joint verification of several candidates.

    Every candidate must verify on its own and the emptiness program must be
    infeasible (with a revalidated certificate) at every scheduled degree;
    then the verdict is MultiVerified. A feasible emptiness program that
    passes the certificate gate certifies the joint safe set empty, which is
    reported as EmptinessCertified. Anything else is MultiInconclusive. A
    candidate built for another system raises ValueError.

    The emptiness sweep runs first. The candidates run, in input order, only
    when every emptiness record holds a revalidated refutation, and the run
    stops after the first candidate that does not verify: past either point
    the verdict is fixed. A candidate refuted by a boundary counterexample
    (see verify_single) does not verify, so it ends the run as the last
    entry of singles, with no programs solved. singles holds the candidates
    that ran, a prefix of cands, and skipped the indices of the rest. The
    candidates that run share one map of solved programs and one of
    counterexample searches, so each class's programs are solved, and its
    search run, once.
    """
    if opts is None:
        opts = VerifierOptions()
    # Equal systems built apart compare polynomial by polynomial: once per object.
    if any(other != sys for other in {id(c.sys): c.sys for c in cands}.values()):
        raise ValueError("candidate was built for another system")
    t0 = time.perf_counter()

    warnings: List[str] = []
    if opts.archimedean_C is None:
        witness = archimedean_witness([c.b for c in cands])
        if witness is None:
            warnings.append(
                "no compactness generator: emptiness conclusions assume the "
                "described region satisfies the boundedness hypothesis "
                "(set archimedean_C to enforce it)"
            )

    emptiness = check_emptiness(cands, opts)
    solved: dict = {}
    searched: dict = {}
    singles: List[VerificationOutcome] = []
    refuted = all(r.farkas_valid is True for r in emptiness.lps)
    if refuted:
        for c in cands:
            singles.append(_verify_single(c, opts, solved, searched))
            if singles[-1].verdict is not Verdict.VERIFIED:
                break

    warnings.extend(emptiness.warnings)
    for i, so in enumerate(singles):
        warnings.extend("candidate %d: %s" % (i, w) for w in so.warnings)

    if emptiness.verdict is Verdict.EMPTINESS_CERTIFIED:
        verdict = Verdict.EMPTINESS_CERTIFIED
    elif (refuted and len(singles) == len(cands)
          and all(so.verdict is Verdict.VERIFIED for so in singles)):
        verdict = Verdict.MULTI_VERIFIED
    else:
        verdict = Verdict.MULTI_INCONCLUSIVE

    return VerificationOutcome(
        verdict=verdict,
        lps=emptiness.lps,
        certificate=emptiness.certificate,
        singles=singles,
        skipped=list(range(len(singles), len(cands))),
        warnings=warnings,
        schedule={"a_values": list(opts.a_values), **emptiness.schedule},
        seconds=time.perf_counter() - t0,
    )
