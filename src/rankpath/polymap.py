"""Polynomial matrix maps and the ratio-divergence demonstrations.

A PolyMap is an m x n matrix of real-coefficient multivariate polynomials,
written in a small text format:

    vars: x,y,z; rows: 3; cols: 3;
    [1,1] = x; [1,3] = z;
    [2,1] = y; [2,2] = x;
    [3,2] = y; [3,3] = x;

Unlisted entries are zero and whitespace is insignificant.  The tokens are
numbers (ASCII digits with at most one point, then an e/E exponent only
when a digit follows its optional sign), words (a letter or ``_``, then
letters, digits or ``_``) and the marks ``,;:[]=+-*^()``; ``_TOKEN`` states
them as one regular expression.  Every PolyParseError carries the line and
column of the offending token; only a line feed starts a new line.

Preimages of a bounded-rank variety under such a map are probed through the
pullback residual.  The module also ships two demonstrations where the
inner/outer distance ratio blows up near the origin, both from closed forms
along the branch pair (s^2, +-s^3), whose chord is exactly 2 s^3:

* the plane cusp x^3 = y^2 (``cusp_ratio_table``), whose inner distance is
  the arc length through the origin, 2 s^2 (a^2 + 2a + 4) / (3 (a + 2))
  with a = sqrt(4 + 9 s^2);
* the surface x^3 = y^2 z (``surface_demo``) at z = 1.  A curve on it
  between the branches must cross y = 0, where x = 0, so it meets the
  z-axis: its length is at least L(s) = 2 s^2 sqrt(1 + s^2), the reported
  d_in.  The z = 1 slice is the plane cusp, so the inner distance is at
  most the cusp's arc length U(s), and U/L <= 1 + s^2/15 on (0, 1].

Both refuse an s outside (0, 1], and one whose chord 2 s^3 is below the
smallest normal double (s below about 2.2e-103).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkernel import ScalarField
from .oracles import (
    proximity_graph_distance,  # noqa: F401  unused here, but per-layer tracing wraps this name
)
from .variety import VarietyDescriptor, membership_residual

#: the smallest positive normal double; the ratio tables reject chords below it
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)

_MAX_EXPONENT = 2**31

Monomials = dict[tuple[int, ...], float]


class PolyParseError(ValueError):
    """Syntax or semantic error in PolyMap text, with position."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass(frozen=True)
class PolyMap:
    """Matrix of sparse polynomials over the listed variables.

    ``entries`` holds the nonzero entries only, keyed by their 0-based
    (row, column); every other entry is the zero polynomial.
    """

    variables: tuple[str, ...]
    rows: int
    cols: int
    entries: dict[tuple[int, int], Monomials]

    @property
    def arity(self) -> int:
        return len(self.variables)


def _graded_lex_key(exponents: tuple[int, ...]):
    return (-sum(exponents), tuple(-e for e in exponents))


def _format_coefficient(value: float) -> str:
    return format(value, ".17g")


def _format_monomial(exponents: tuple[int, ...], coeff: float, variables) -> str:
    factors = [
        name if power == 1 else f"{name}^{power}"
        for name, power in zip(variables, exponents)
        if power > 0
    ]
    if not factors:
        return _format_coefficient(abs(coeff))
    if abs(coeff) == 1.0:
        return "*".join(factors)
    return "*".join([_format_coefficient(abs(coeff))] + factors)


def format_poly_map(f: PolyMap) -> str:
    """Canonical text form: graded-lex monomial order, explicit signs.

    Formatting then re-parsing reproduces the same monomial sets exactly.
    """
    header = (
        f"vars: {','.join(f.variables)}; rows: {f.rows}; cols: {f.cols};"
    )
    lines = [header]
    for i, j in sorted(f.entries):
        monomials = {e: c for e, c in f.entries[i, j].items() if c != 0.0}
        if not monomials:
            continue
        parts = []
        for exponents in sorted(monomials, key=_graded_lex_key):
            coeff = monomials[exponents]
            text = _format_monomial(exponents, coeff, f.variables)
            if not parts:
                parts.append(f"-{text}" if coeff < 0 else text)
            else:
                parts.append(f"- {text}" if coeff < 0 else f"+ {text}")
        lines.append(f"[{i + 1},{j + 1}] = {' '.join(parts)};")
    return "\n".join(lines) + "\n"


#: one token after optional whitespace.  A number is ASCII digits with at
#: most one point, and an e/E exponent only when a digit follows its
#: optional sign; a word is any run of word characters, and must start with a
#: letter or an underscore; ``bad`` is any other character.  Digits are
#: [0-9], not \d: \d also takes other scripts' digits, which ``float`` and
#: ``int`` then misread or reject
_TOKEN = re.compile(
    r"\s*(?:(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>\w+)|(?P<punct>[,;:\[\]=+\-*^()])|(?P<eof>\Z)|(?P<bad>.))",
    re.DOTALL,
)


def _tokens(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) tuples ending in an "eof" token; a
    punctuation mark is its own kind.  Only ``\\n`` starts a new line."""
    tokens, pos, line, line_start = [], 0, 1, 0
    while True:
        match = _TOKEN.match(text, pos)
        kind = match.lastgroup
        start = match.start(kind)
        if newlines := text.count("\n", pos, start):
            line += newlines
            line_start = text.rfind("\n", pos, start) + 1
        pos = match.end()
        lexeme, column = match[kind], start - line_start + 1
        if kind == "bad" and lexeme == ".":
            raise PolyParseError("a number needs at least one digit", line, column)
        if kind == "bad" or kind == "ident" and not (lexeme[0].isalpha() or lexeme[0] == "_"):
            raise PolyParseError(f"unexpected character {lexeme[0]!r}", line, column)
        tokens.append((lexeme if kind == "punct" else kind, lexeme, line, column))
        if kind == "eof":
            return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.index = 0

    @property
    def current(self):
        return self.tokens[self.index]

    def error(self, message: str):
        _, _, line, col = self.current
        raise PolyParseError(message, line, col)

    def accept(self, kind: str):
        if self.current[0] == kind:
            token = self.current
            self.index += 1
            return token
        return None

    def expect(self, kind: str, what: str):
        token = self.accept(kind)
        if token is None:
            self.error(f"expected {what}, found {self.current[1]!r}")
        return token

    def expect_keyword(self, word: str):
        token = self.expect("ident", f"keyword {word!r}")
        if token[1] != word:
            raise PolyParseError(f"expected keyword {word!r}", token[2], token[3])

    def parse_uint(self, what: str) -> int:
        token = self.expect("number", what)
        text = token[1]
        if not text.isdigit():
            raise PolyParseError(f"expected an integer {what}", token[2], token[3])
        value = int(text)
        if value > _MAX_EXPONENT:
            raise PolyParseError(f"{what} {value} overflows", token[2], token[3])
        return value

    def parse(self) -> PolyMap:
        self.expect_keyword("vars")
        self.expect(":", "':'")
        names = [self.expect("ident", "variable name")[1]]
        while self.accept(","):
            names.append(self.expect("ident", "variable name")[1])
        if len(set(names)) != len(names):
            self.error("duplicate variable name")
        self.expect(";", "';'")
        counts = []
        for keyword, what in (("rows", "row count"), ("cols", "column count")):
            self.expect_keyword(keyword)
            self.expect(":", "':'")
            counts.append(self.parse_uint(what))
            self.expect(";", "';'")
        rows, cols = counts
        if rows < 1 or cols < 1:
            self.error("rows and cols must be positive")

        self.variables = tuple(names)
        entries = {}
        assigned = set()
        while self.current[0] != "eof":
            token = self.expect("[", "'[' starting an entry")
            i = self.parse_uint("row index")
            self.expect(",", "','")
            j = self.parse_uint("column index")
            self.expect("]", "']'")
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise PolyParseError(
                    f"entry [{i},{j}] outside a {rows}x{cols} matrix", token[2], token[3]
                )
            if (i, j) in assigned:
                raise PolyParseError(
                    f"entry [{i},{j}] assigned twice", token[2], token[3]
                )
            assigned.add((i, j))
            self.expect("=", "'='")
            poly = self.parse_poly()
            if poly:
                entries[i - 1, j - 1] = poly
            self.expect(";", "';' terminating the entry")
        return PolyMap(self.variables, rows, cols, entries)

    def parse_poly(self) -> Monomials:
        sign = -1.0 if self.accept("-") else 1.0
        if sign > 0:
            self.accept("+")
        total = _scale(self.parse_term(), sign)
        while self.current[0] in "+-":
            op = self.accept(self.current[0])
            term = _scale(self.parse_term(), -1.0 if op[0] == "-" else 1.0)
            total = _finite(_add(total, term), "sum", op)
        return total

    def parse_term(self) -> Monomials:
        product = self.parse_factor()
        while op := self.accept("*"):
            product = _finite(self.multiply(product, self.parse_factor()), "product", op)
        return product

    def parse_factor(self) -> Monomials:
        zero_exps = (0,) * len(self.variables)
        token = self.accept("ident")
        if token is not None:
            name = token[1]
            if name not in self.variables:
                raise PolyParseError(f"unknown identifier {name!r}", token[2], token[3])
            power = 1
            if self.accept("^"):
                power = self.parse_uint("exponent")
            exps = tuple(
                power if v == name else 0 for v in self.variables
            )
            return {exps: 1.0}
        token = self.accept("number")
        if token is not None:
            return _finite({zero_exps: float(token[1])}, "number", token)
        if self.accept("("):
            inner = self.parse_poly()
            self.expect(")", "')'")
            return inner
        self.error(f"expected a factor, found {self.current[1]!r}")

    def multiply(self, a: Monomials, b: Monomials) -> Monomials:
        out: Monomials = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                if any(e > _MAX_EXPONENT for e in exps):
                    self.error("exponent overflow in product")
                out[exps] = out.get(exps, 0.0) + ca * cb
        return _prune(out)


def _finite(m: Monomials, what: str, token) -> Monomials:
    """``m``, unless a coefficient is inf or nan, which the text format
    cannot write back: then a PolyParseError at ``token``."""
    if not all(math.isfinite(c) for c in m.values()):
        message = f"{what} overflows to a non-finite coefficient"
        raise PolyParseError(message, token[2], token[3])
    return m


def _scale(m: Monomials, factor: float) -> Monomials:
    return _prune({e: c * factor for e, c in m.items()})


def _add(a: Monomials, b: Monomials) -> Monomials:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + c
    return _prune(out)


def _prune(m: Monomials) -> Monomials:
    return {e: c for e, c in m.items() if c != 0.0}


def parse_poly_map(text: str) -> PolyMap:
    """Parse PolyMap text; parse-format-parse is the identity.

    Numbers are written in ASCII digits.  A literal, product or sum whose
    coefficient overflows raises PolyParseError, so every parsed
    coefficient is finite and can be formatted back.
    """
    return _Parser(text).parse()


def evaluate(f: PolyMap, point) -> np.ndarray:
    """Evaluate the matrix of polynomials at a point of C^N (or R^N)."""
    point = np.asarray(point)
    if point.shape != (f.arity,):
        raise ValueError(f"map takes {f.arity} arguments, got shape {point.shape}")
    complex_input = np.iscomplexobj(point)
    out = np.zeros(
        (f.rows, f.cols), dtype=np.complex128 if complex_input else np.float64
    )
    for (i, j), monomials in f.entries.items():
        value = 0.0
        for exponents, coeff in monomials.items():
            term = coeff
            for base, power in zip(point, exponents):
                if power:
                    term = term * base**power
            value = value + term
        out[i, j] = value
    return out


def pullback_residual(f: PolyMap, point, d: VarietyDescriptor) -> float:
    """Membership residual of F(point) in the bounded-rank variety."""
    if (f.rows, f.cols) != d.shape:
        raise ValueError(f"map produces {f.rows}x{f.cols}, variety wants {d.shape}")
    value = evaluate(f, point)
    if np.iscomplexobj(value) and d.field is ScalarField.REAL:
        raise ValueError("complex point evaluated against a real-field variety")
    return membership_residual(np.asarray(value, dtype=d.field.dtype), d)


#: the 3 x 3 family of cusps degenerating to a line; det = x^3 + y^2 z
CUSP_FAMILY_TEXT = (
    "vars: x,y,z; rows: 3; cols: 3;\n"
    "[1,1] = x; [1,3] = z;\n"
    "[2,1] = y; [2,2] = x;\n"
    "[3,2] = y; [3,3] = x;\n"
)


def cusp_family_map() -> PolyMap:
    return parse_poly_map(CUSP_FAMILY_TEXT)


def cusp_arc_length(s: float) -> float:
    """Arc length along u -> (u^2, u^3) for u in [-s, s], through the origin.

    Each half has length ((4 + 9 s^2)^{3/2} - 8) / 27.  Written with
    a = sqrt(4 + 9 s^2) as 2 s^2 (a^2 + 2a + 4) / (3 (a + 2)), the whole
    length has no cancellation: every term is positive, so it keeps its
    relative accuracy down to the smallest s whose s^2 is a normal double.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    a = math.sqrt(4.0 + 9.0 * s * s)
    return 2.0 * s * s * (a * a + 2.0 * a + 4.0) / (3.0 * (a + 2.0))


def _axis_crossing_length(s: float) -> float:
    """2 s^2 sqrt(1 + s^2): twice the distance from (s^2, s^3, 1) to the
    z-axis, the least length of a curve on x^3 = y^2 z between the branch
    points (s^2, +-s^3, 1) (see ``surface_demo``)."""
    return 2.0 * s * s * math.sqrt(1.0 + s * s)


@dataclass(frozen=True)
class RatioRow:
    s: float
    d_out: float
    d_in: float
    ratio: float


def _ratio_rows(s_values, inner_distance: Callable[[float], float]) -> list[RatioRow]:
    """One row per s for the branch pair (s^2, +-s^3, ...), whose points
    differ only in y, so the chord d_out is exactly 2 s^3.  An s outside
    (0, 1], or one whose chord is below the smallest normal double (s below
    about 2.2e-103, where it would lose its digits or read 0), is rejected
    with ValueError."""
    rows = []
    for s in s_values:
        s = float(s)
        if not 0.0 < s <= 1.0:
            raise ValueError("s values must lie in (0, 1]")
        d_out = 2.0 * s**3
        if d_out < _SMALLEST_NORMAL:
            raise ValueError(f"s = {s:g} is too small: the chord 2 s^3 underflows")
        d_in = inner_distance(s)
        rows.append(RatioRow(s, d_out, d_in, d_in / d_out))
    return rows


def cusp_ratio_table(s_values) -> list[RatioRow]:
    """Inner/outer ratio for the plane-cusp branch pair (s^2, +-s^3).

    Any curve on the cusp joining the branches runs through the origin, so
    the inner distance is exactly ``cusp_arc_length(s)``, which behaves like
    2 s^2; the chord is 2 s^3, and the ratio grows like 1/s as s shrinks.
    The s values are checked as ``_ratio_rows`` states.
    """
    return _ratio_rows(s_values, cusp_arc_length)


def surface_demo(s_values) -> list[RatioRow]:
    """Proved lower end of the inner/outer ratio on the surface x^3 = y^2 z.

    The branch points are p = (s^2, s^3, 1) and q = (s^2, -s^3, 1), with
    chord exactly 2 s^3.  The inner distance d between them lies in
    [L(s), U(s)]:

    * L(s) = 2 s^2 sqrt(1 + s^2) (``_axis_crossing_length``).  A curve on the
      surface from p to q changes the sign of y, so it crosses y = 0, where
      x^3 = 0; there it meets the z-axis, at distance s^2 sqrt(1 + s^2) from
      both p and q.
    * U(s) = ``cusp_arc_length(s)``, the d_in of ``cusp_ratio_table`` at the
      same s: the z = 1 slice curve (u^2, u^3, 1), u in [-s, s], lies on the
      surface and joins p to q.

    The rows report d_in = L(s), so their ratio sqrt(1 + s^2) / s is a proved
    lower bound on the inner/outer ratio, which therefore diverges.  The
    sandwich is narrow: U/L <= 1 + s^2/15 on (0, 1], up to rounding.  The s
    values are checked as ``_ratio_rows`` states: s in (0, 1] and 2 s^3 a
    normal double.
    """
    return _ratio_rows(s_values, _axis_crossing_length)


def fit_loglog_slope(rows: list[RatioRow]) -> float:
    """Least-squares slope of log(ratio) against log(s)."""
    s = np.log([row.s for row in rows])
    r = np.log([row.ratio for row in rows])
    return float(np.polyfit(s, r, 1)[0])
