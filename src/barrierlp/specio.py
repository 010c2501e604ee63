"""Problem-file parsing and report serialization.

Problem files are JSON (`"schema": 1`) declaring state variables (names
matching `[A-Za-z_][A-Za-z_0-9]*`), drift, input matrix, candidate
barriers, and options; every polynomial is written in a small expression
grammar: a signed sum of terms, each an optional real coefficient and
'*'-separated `name^k` powers (`^1` may be omitted, multiplication is
always explicit). A nonzero coefficient below PRUNE_TOL is refused, not
dropped. Reports serialize a verification outcome to
stable-ordered JSON or a short text summary; Gram matrices appear as
row-major arrays and polynomials as [exponents, coefficient] pairs so
certificates can be rechecked by other tools. A boundary counterexample
appears with its box centre and radius as float.hex strings, exact binary
values that other tools can re-check.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .polyring import PRUNE_TOL, Monomial, Polynomial, PolyMatrix
from .verifier import (
    LP_TIMINGS,
    CandidateCbf,
    Certificate,
    ControlAffineSystem,
    LpRecord,
    VerificationOutcome,
    VerifierOptions,
)

PROBLEM_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 5


class PolyParseError(ValueError):
    """Polynomial grammar violation, annotated with line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


class ProblemFormatError(ValueError):
    """Schema violation, annotated with the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__("%s: %s" % (path, message))
        self.path = path


# -- polynomial grammar --------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>" + _NAME + r")"
    r"|(?P<op>[*^+\-])"
    r"|(?P<bad>\S)"
    r")"
)


class _PolyParser:
    """Recursive-descent parser for signed sums of coefficient*power terms.

    A token is (kind, text, offset); fail turns an offset into a line and
    column. An error at the end of the input is placed just after the last
    token.
    """

    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.tokens = [(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup))
                       for m in _TOKEN_RE.finditer(text)]
        self.pos = 0
        self.end = self.tokens[-1][2] + len(self.tokens[-1][1]) if self.tokens else 0
        self.var_index = {name: i for i, name in enumerate(variables)}
        self.nvars = len(self.var_index)
        for tok in self.tokens:
            if tok[0] == "bad":
                self.fail("unexpected character %r" % tok[1], tok)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message: str, tok=None):
        if tok is None:
            tok = self.peek()
        offset = self.end if tok is None else tok[2]
        line = self.text.count("\n", 0, offset) + 1
        raise PolyParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def parse(self) -> Polynomial:
        if not self.tokens:
            self.fail("empty polynomial")
        total: Dict[Monomial, float] = {}
        sign = 1.0
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":
            sign = -1.0 if tok[1] == "-" else 1.0
            self.take()
        while True:
            mono, coef = self.term()
            total[mono] = total.get(mono, 0.0) + sign * coef
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] in "+-":
                sign = -1.0 if tok[1] == "-" else 1.0
                self.take()
                continue
            self.fail("expected '+' or '-' between terms, got %r" % tok[1], tok)
        return Polynomial(total, self.nvars)

    def term(self) -> Tuple[Monomial, float]:
        tok = self.peek()
        if tok is None:
            self.fail("expected a term")
        coef = 1.0
        exponents = [0] * self.nvars
        saw_factor = False
        if tok[0] == "number":
            coef = float(tok[1])
            # A nonzero digit before the exponent makes the literal nonzero.
            if coef < PRUNE_TOL and re.match(r"[0-9.]*[1-9]", tok[1]):
                self.fail("coefficient %s is nonzero and below PRUNE_TOL = %g, which every "
                          "polynomial drops" % (tok[1], PRUNE_TOL), tok)
            self.take()
            nxt = self.peek()
            if nxt is not None and nxt[0] == "name":
                self.fail(
                    "implicit multiplication is not allowed; write '*' before %r"
                    % nxt[1],
                    nxt,
                )
            if nxt is not None and nxt[0] == "op" and nxt[1] == "*":
                self.take()
                self.factor(exponents)
                saw_factor = True
        else:
            self.factor(exponents)
            saw_factor = True
        while saw_factor:
            nxt = self.peek()
            if nxt is None or nxt[0] != "op" or nxt[1] != "*":
                break
            self.take()
            self.factor(exponents)
        return tuple(exponents), coef

    def factor(self, exponents: List[int]) -> None:
        tok = self.take()
        if tok is None:
            self.fail("expected a variable")
        if tok[0] == "number":
            self.fail("expected a variable, got number %r" % tok[1], tok)
        if tok[0] != "name":
            self.fail("expected a variable, got %r" % tok[1], tok)
        name = tok[1]
        if name not in self.var_index:
            self.fail("unknown variable %r" % name, tok)
        power = 1
        nxt = self.peek()
        if nxt is not None and nxt[0] == "op" and nxt[1] == "^":
            self.take()
            ptok = self.take()
            if ptok is None or ptok[0] != "number":
                self.fail("expected an integer exponent after '^'", ptok or nxt)
            if not re.fullmatch(r"[0-9]+", ptok[1]):
                self.fail("exponent must be a positive integer, got %r" % ptok[1], ptok)
            power = int(ptok[1])
            if power < 1:
                self.fail("exponent must be >= 1, got %d" % power, ptok)
        exponents[self.var_index[name]] += power


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse the expression grammar over the declared variables.

    Raises PolyParseError with line/column on unknown variables, malformed
    exponents, implicit multiplication, a nonzero coefficient below
    PRUNE_TOL (which Polynomial would drop), or empty input.
    """
    return _PolyParser(text, variables).parse()


def print_polynomial(p: Polynomial, variables: Optional[Sequence[str]] = None) -> str:
    """Canonical string form; parse_polynomial maps it back exactly.

    Coefficients print with repr so every float round-trips bit-for-bit.
    """
    if variables is None:
        variables = ["x%d" % (i + 1) for i in range(p.nvars)]
    if len(variables) != p.nvars:
        raise ValueError("expected %d variable names, got %d" % (p.nvars, len(variables)))
    if p.is_zero():
        return "0"
    pieces = []
    for mono, coef in p.sorted_terms():
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(variables[i])
            elif e > 1:
                factors.append("%s^%d" % (variables[i], e))
        mag = abs(coef)
        if factors and mag == 1.0:
            body = "*".join(factors)
        elif factors:
            body = "*".join([repr(mag)] + factors)
        else:
            body = repr(mag)
        sign = "-" if coef < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = first_body if first_sign == "+" else "-" + first_body
    for sign, body in pieces[1:]:
        out += " %s %s" % (sign, body)
    return out


# -- problem documents -----------------------------------------------------------

@dataclass
class ProblemSpec:
    """Fully materialized problem: system, candidates, resolved options."""

    variables: List[str]
    inputs: List[str]
    system: ControlAffineSystem
    candidates: List[CandidateCbf]
    options: VerifierOptions


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise ProblemFormatError(path + key, "missing required field")
    value = doc[key]
    # A JSON boolean loads as a bool, which Python counts as an int.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ProblemFormatError(
            path + key, "expected %s, got %s" % (kind.__name__, type(value).__name__)
        )
    return value


def _parse_poly_field(text, variables, path: str, parsed: Dict[str, Polynomial]) -> Polynomial:
    """The polynomial at path; parsed memoizes the texts of one document read so far.

    Polynomials are immutable, so equal texts share one. A text that fails
    raises at its first occurrence and is never memoized.
    """
    if not isinstance(text, str):
        raise ProblemFormatError(path, "expected a polynomial string")
    if text not in parsed:
        try:
            parsed[text] = parse_polynomial(text, variables)
        except ValueError as exc:  # grammar errors and out-of-range coefficients or exponents
            raise ProblemFormatError(path, str(exc)) from exc
    return parsed[text]


def load_problem(document: Union[str, dict]) -> ProblemSpec:
    """Materialize a problem document (dict or JSON text) into a ProblemSpec.

    Schema violations raise ProblemFormatError naming the field path, e.g.
    ``input_matrix[2][1]: unknown variable 'y' (line 1, column 1)``.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError("<document>", "invalid JSON: %s" % exc) from exc
    if not isinstance(document, dict):
        raise ProblemFormatError("<document>", "expected a JSON object")

    schema = _require(document, "schema", int, "")
    if schema != PROBLEM_SCHEMA_VERSION:
        raise ProblemFormatError("schema", "unsupported version %r" % schema)

    variables = _require(document, "variables", list, "")
    if not variables or not all(isinstance(v, str) for v in variables):
        raise ProblemFormatError("variables", "expected a non-empty list of names")
    for i, name in enumerate(variables):
        if not re.fullmatch(_NAME, name):
            raise ProblemFormatError("variables[%d]" % i, "expected a name matching %s, got %r"
                                     % (_NAME, name))
    if len(set(variables)) != len(variables):
        raise ProblemFormatError("variables", "duplicate variable names")
    n = len(variables)

    drift = _require(document, "drift", list, "")
    if len(drift) != n:
        raise ProblemFormatError(
            "drift", "expected %d entries (one per state variable), got %d" % (n, len(drift))
        )
    parsed: Dict[str, Polynomial] = {}  # in the fleet's documents most entries read "0"
    f_rows = [[_parse_poly_field(s, variables, "drift[%d]" % r, parsed)]
              for r, s in enumerate(drift)]

    grid = _require(document, "input_matrix", list, "")
    if len(grid) != n:
        raise ProblemFormatError(
            "input_matrix", "expected %d rows, got %d" % (n, len(grid))
        )
    m = None
    g_rows = []
    for r, row in enumerate(grid):
        if not isinstance(row, list):
            raise ProblemFormatError("input_matrix[%d]" % r, "expected a list")
        if m is None:
            m = len(row)
            if m == 0:
                raise ProblemFormatError("input_matrix[0]", "rows must be non-empty")
        elif len(row) != m:
            raise ProblemFormatError(
                "input_matrix[%d]" % r, "expected %d entries, got %d" % (m, len(row))
            )
        g_rows.append([
            _parse_poly_field(s, variables, "input_matrix[%d][%d]" % (r, c), parsed)
            for c, s in enumerate(row)
        ])

    inputs = document.get("inputs", ["u%d" % (j + 1) for j in range(m)])
    if not isinstance(inputs, list) or len(inputs) != m:
        raise ProblemFormatError("inputs", "expected %d input names" % m)
    for j, name in enumerate(inputs):
        if not isinstance(name, str):
            raise ProblemFormatError("inputs[%d]" % j, "expected a name string")

    cand_strs = _require(document, "candidates", list, "")
    if not cand_strs:
        raise ProblemFormatError("candidates", "at least one candidate is required")

    system = ControlAffineSystem(f=PolyMatrix(f_rows), g=PolyMatrix(g_rows))
    candidates = []
    for i, s in enumerate(cand_strs):
        path = "candidates[%d]" % i
        b = _parse_poly_field(s, variables, path, parsed)
        try:
            candidates.append(CandidateCbf.from_system(b, system))
        except ValueError as exc:  # an exact Lie derivative coefficient no float holds
            raise ProblemFormatError(path, str(exc)) from exc

    opt_doc = document.get("options", {})
    if not isinstance(opt_doc, dict):
        raise ProblemFormatError("options", "expected an object")
    option_names = {f.name for f in fields(VerifierOptions)}
    for key in opt_doc:
        if key not in option_names:
            raise ProblemFormatError("options.%s" % key, "unknown option")
    try:
        options = VerifierOptions(**opt_doc)
    except ValueError as exc:  # the message starts with the field or entry path
        path, _, message = str(exc).partition(": ")
        raise ProblemFormatError("options." + path, message) from exc

    return ProblemSpec(
        variables=list(variables),
        inputs=list(inputs),
        system=system,
        candidates=candidates,
        options=options,
    )


def load_problem_file(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ProblemFormatError("<document>", "not UTF-8 text: %s" % exc) from exc
    return load_problem(text)


def problem_document(
    system: ControlAffineSystem,
    candidates: Sequence[CandidateCbf],
    variables: Optional[Sequence[str]] = None,
    inputs: Optional[Sequence[str]] = None,
    options: Optional[dict] = None,
) -> dict:
    """Problem document for a built system; round-trips through load_problem."""
    n, m = system.n, system.m
    if variables is None:
        variables = ["x%d" % (i + 1) for i in range(n)]
    if inputs is None:
        inputs = ["u%d" % (j + 1) for j in range(m)]
    doc = {
        "schema": PROBLEM_SCHEMA_VERSION,
        "variables": list(variables),
        "inputs": list(inputs),
        "drift": [print_polynomial(system.f[r, 0], variables) for r in range(n)],
        "input_matrix": [
            [print_polynomial(system.g[r, c], variables) for c in range(m)]
            for r in range(n)
        ],
        "candidates": [print_polynomial(c.b, variables) for c in candidates],
    }
    if options:
        doc["options"] = dict(options)
    return doc


# -- reports ----------------------------------------------------------------------

def _poly_pairs(p: Polynomial) -> List[list]:
    return [[list(mono), coef] for mono, coef in p.sorted_terms()]


def _certificate_block(cert: Optional[Certificate], deterministic: bool) -> Optional[dict]:
    if cert is None:
        return None
    block = {
        "kind": cert.kind,
        "deg_s": cert.deg_s,
        "residual": cert.residual,
        "gram_bases": [[list(mo) for mo in basis] for basis in cert.gram_bases],
        "grams": [[float(v) for v in Q.reshape(-1)] for Q in cert.grams],
        "gram_dims": [int(Q.shape[0]) for Q in cert.grams],
    }
    if cert.kind == "single":
        block["a"] = cert.a
        block["deg_p"] = cert.deg_p
        block["multipliers"] = {
            "p10": _poly_pairs(cert.p10),
            "p20": _poly_pairs(cert.p20),
            "p1": [_poly_pairs(q) for q in cert.p1],
            "p2": [_poly_pairs(q) for q in cert.p2],
        }
    else:
        block["augmented"] = cert.augmented
        if cert.aug_generator is not None:
            block["aug_generator"] = _poly_pairs(cert.aug_generator)
    return block


def _counterexample_block(outcome: VerificationOutcome, deterministic: bool) -> Optional[dict]:
    cex = outcome.counterexample
    if cex is None:
        return None
    return {
        "centre": list(cex.centre),
        "radius": cex.radius,
        "fixed": list(cex.fixed),
        "channels": list(cex.channels),
        "lfb_upper": cex.lfb_upper,
        "scope": cex.scope,
        "refute_s": 0.0 if deterministic else outcome.refute_s,
    }


def _outcome_dict(outcome: VerificationOutcome, deterministic: bool) -> dict:
    doc = {
        "schema": REPORT_SCHEMA_VERSION,
        "verdict": outcome.verdict.value,
        "seconds": 0.0 if deterministic else outcome.seconds,
        "schedule": outcome.schedule,
        "warnings": list(outcome.warnings),
        "lps": [
            dict(asdict(r), **({t: 0.0 for t in LP_TIMINGS} if deterministic else {}))
            for r in outcome.lps
        ],
        "certificate": _certificate_block(outcome.certificate, deterministic),
        "counterexample": _counterexample_block(outcome, deterministic),
    }
    if outcome.singles is not None:
        doc["singles"] = [_outcome_dict(s, deterministic) for s in outcome.singles]
    if outcome.skipped is not None:
        doc["skipped"] = list(outcome.skipped)
    return doc


def _record_line(r: LpRecord, indent: str) -> str:
    extra = "" if r.farkas_valid is None else "  farkas_valid=%s" % r.farkas_valid
    return "%s[%s] %s  %d rows x %d cols  %d iterations  exit=%s%s" % (
        indent, r.name, r.status, r.rows, r.cols, r.iterations, r.exit, extra)


def _counterexample_line(outcome: VerificationOutcome, indent: str) -> List[str]:
    cex = outcome.counterexample
    if cex is None:
        return []
    equations = ["b"] + ["Lgb[%d]" % j for j in cex.channels]
    return ["%scounterexample: %s = 0 in the box centre (%s) radius %s, fixed %s; Lfb <= %.17g;"
            " scope %s" % (indent, ", ".join(equations), ", ".join(cex.centre), cex.radius,
                           list(cex.fixed), cex.lfb_upper, cex.scope)]


def _outcome_text(outcome: VerificationOutcome, deterministic: bool) -> str:
    lines = ["verdict: %s" % outcome.verdict.value]
    if not deterministic:
        lines.append("seconds: %.3f" % outcome.seconds)
    lines.extend(_record_line(r, "  ") for r in outcome.lps)
    cert = outcome.certificate
    if cert is not None:
        lines.append("certificate: %s, residual %.3g" % (cert.kind, cert.residual))
    else:
        lines.append("certificate: none")
    lines.extend(_counterexample_line(outcome, ""))
    for w in outcome.warnings:
        lines.append("warning: %s" % w)
    if outcome.singles is not None:
        for i, s in enumerate(outcome.singles):
            lines.append("candidate %d: %s" % (i, s.verdict.value))
            lines.extend(_record_line(r, "    ") for r in s.lps)
            lines.extend(_counterexample_line(s, "    "))
    for i in outcome.skipped or []:
        lines.append("candidate %d: skipped" % i)
    return "\n".join(lines) + "\n"


def write_report(
    outcome: VerificationOutcome,
    fmt: str = "json",
    deterministic: bool = False,
    destination: Optional[str] = None,
) -> str:
    """Serialize an outcome; JSON is stable-ordered and re-parseable.

    deterministic=True zeroes every timing field so reports can be compared
    byte-for-byte. When destination is given the document is also written
    there.
    """
    if fmt == "json":
        text = json.dumps(_outcome_dict(outcome, deterministic), indent=2) + "\n"
    elif fmt == "text":
        text = _outcome_text(outcome, deterministic)
    else:
        raise ValueError("unknown report format %r" % fmt)
    if destination:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
