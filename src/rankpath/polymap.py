"""Polynomial matrix maps and the ratio-divergence demonstrations.

A PolyMap is an m x n matrix of real-coefficient multivariate polynomials,
written in a small text format:

    vars: x,y,z; rows: 3; cols: 3;
    [1,1] = x; [1,3] = z;
    [2,1] = y; [2,2] = x;
    [3,2] = y; [3,3] = x;

Unlisted entries are zero and whitespace is insignificant.  Preimages of a
bounded-rank variety under such a map are probed through the pullback
residual.  The module also ships two demonstrations where the inner/outer
distance ratio blows up near the origin: the plane cusp x^3 = y^2 and the
surface x^3 = y^2 z swept by a family of such cusps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkernel import ScalarField
from .oracles import CHECKS_PER_EDGE, proximity_graph_distance
from .variety import VarietyDescriptor, membership_residual

#: the smallest positive normal double; ``cusp_ratio_table`` rejects chords below it
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
    """Matrix of sparse polynomials over the listed variables."""

    variables: tuple[str, ...]
    rows: int
    cols: int
    entries: tuple[tuple[Monomials, ...], ...]

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
    for i in range(f.rows):
        for j in range(f.cols):
            monomials = {e: c for e, c in f.entries[i][j].items() if c != 0.0}
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


def _is_digit(ch: str) -> bool:
    # ASCII only: ``str.isdigit`` also accepts other scripts' digits and
    # superscripts, which ``float`` and ``int`` then misread or reject
    return "0" <= ch <= "9"


class _Tokenizer:
    _PUNCT = set(",;:[]=+-*^()")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str, line: int | None = None, col: int | None = None):
        raise PolyParseError(
            message, self.line if line is None else line, self.col if col is None else col
        )

    def _advance(self, count: int):
        for ch in self.text[self.pos : self.pos + count]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += count

    def _digit_at(self, index: int) -> bool:
        return index < len(self.text) and _is_digit(self.text[index])

    def tokens(self):
        out = []
        while True:
            while self.pos < len(self.text) and self.text[self.pos].isspace():
                self._advance(1)
            if self.pos >= len(self.text):
                out.append(("eof", "", self.line, self.col))
                return out
            ch = self.text[self.pos]
            line, col = self.line, self.col
            if ch.isalpha() or ch == "_":
                start = self.pos
                while self.pos < len(self.text) and (
                    self.text[self.pos].isalnum() or self.text[self.pos] == "_"
                ):
                    self._advance(1)
                out.append(("ident", self.text[start : self.pos], line, col))
            elif _is_digit(ch) or ch == ".":
                start = self.pos
                seen_dot = seen_exp = seen_digit = False
                while self.pos < len(self.text):
                    c = self.text[self.pos]
                    if _is_digit(c):
                        seen_digit = True
                        self._advance(1)
                    elif c == "." and not seen_dot and not seen_exp:
                        seen_dot = True
                        self._advance(1)
                    elif c in "eE" and seen_digit and not seen_exp:
                        # an exponent only if digits follow its optional sign
                        sign = self.text[self.pos + 1 : self.pos + 2] in ("+", "-")
                        if not self._digit_at(self.pos + 1 + sign):
                            break
                        seen_exp = True
                        self._advance(1 + sign)
                    else:
                        break
                if not seen_digit:
                    self.error("a number needs at least one digit", line, col)
                out.append(("number", self.text[start : self.pos], line, col))
            elif ch in self._PUNCT:
                self._advance(1)
                out.append((ch, ch, line, col))
            else:
                self.error(f"unexpected character {ch!r}")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _Tokenizer(text).tokens()
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
        self.expect_keyword("rows")
        self.expect(":", "':'")
        rows = self.parse_uint("row count")
        self.expect(";", "';'")
        self.expect_keyword("cols")
        self.expect(":", "':'")
        cols = self.parse_uint("column count")
        self.expect(";", "';'")
        if rows < 1 or cols < 1:
            self.error("rows and cols must be positive")

        self.variables = tuple(names)
        entries = [[dict() for _ in range(cols)] for _ in range(rows)]
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
            entries[i - 1][j - 1] = self.parse_poly()
            self.expect(";", "';' terminating the entry")
        return PolyMap(
            self.variables,
            rows,
            cols,
            tuple(tuple(row) for row in entries),
        )

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
    for i in range(f.rows):
        for j in range(f.cols):
            value = 0.0
            for exponents, coeff in f.entries[i][j].items():
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


def _surface_point(u: float, v: float) -> np.ndarray:
    # (u^2 v)^3 - (u^3)^2 * v^3 = 0 identically
    return np.array([u * u * v, u**3, v**3])


@dataclass(frozen=True)
class ParamCurvePair:
    """A parametrized curve branch and its mirror image on the same variety.

    Both branches must land on the target variety for every parameter in
    (0, 1]; the pair (parametrization(s), mirror(s)) is the probe whose
    chord shrinks faster than any on-variety route between the branches.
    """

    parametrization: Callable[[float], np.ndarray]
    mirror: Callable[[float], np.ndarray]
    label: str

    def points(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        return self.parametrization(s), self.mirror(s)


#: branch pair (s^2, +-s^3) on the plane cusp x^3 = y^2
PLANE_CUSP_BRANCHES = ParamCurvePair(
    parametrization=lambda s: np.array([s * s, s**3]),
    mirror=lambda s: np.array([s * s, -(s**3)]),
    label="plane cusp x^3 = y^2",
)

#: the same branches inside the z = 1 slice of the surface x^3 = y^2 z
SURFACE_SLICE_BRANCHES = ParamCurvePair(
    parametrization=lambda s: _surface_point(s, 1.0),
    mirror=lambda s: _surface_point(-s, 1.0),
    label="z = 1 cusp slice of x^3 = y^2 z",
)


#: relative agreement of two successive refinements that ends ``cusp_arc_length``
_ARC_REL_TOL = 1e-8


def cusp_arc_length(s: float) -> float:
    """Arc length along u -> (u^2, u^3) for u in [-s, s], through the origin.

    Computed by doubling polyline resolution until two successive
    refinements agree to 1e-8 relative; inscribed polylines only ever
    undershoot, so the limit is approached from below.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    n = 64
    previous = None
    while n <= 2**22:
        u = np.linspace(-s, s, n + 1)
        x, y = u * u, u**3
        length = float(np.sum(np.hypot(np.diff(x), np.diff(y))))
        if previous is not None and abs(length - previous) < _ARC_REL_TOL * length:
            return length
        previous = length
        n *= 2
    return previous


@dataclass(frozen=True)
class RatioRow:
    s: float
    d_out: float
    d_in: float
    ratio: float


def cusp_ratio_table(s_values) -> list[RatioRow]:
    """Inner/outer ratio for the plane-cusp branch pair (s^2, +-s^3).

    The chord between the branches has length exactly 2 s^3; any curve on
    the cusp joining them runs through the origin, and its arc length
    behaves like 2 s^2, so the ratio grows like 1/s as s shrinks.  An s
    whose chord 2 s^3 falls below the smallest normal double (s below about
    2.2e-103) is rejected with ValueError: the chord would lose its digits
    or read 0.
    """
    rows = []
    for s in s_values:
        s = float(s)
        if not 0.0 < s <= 1.0:
            raise ValueError("s values must lie in (0, 1]")
        if 2.0 * s**3 < _SMALLEST_NORMAL:
            raise ValueError(f"s = {s:g} is too small: the chord 2 s^3 underflows")
        p, q = PLANE_CUSP_BRANCHES.points(s)
        d_out = float(np.linalg.norm(p - q))
        d_in = cusp_arc_length(s)
        rows.append(RatioRow(s, d_out, d_in, d_in / d_out))
    return rows


#: grid points per layer of ``surface_demo``'s u-grid.  The count is odd, so
#: u = 0, where every route between the branches crosses the z-axis, is a
#: grid point
_SURFACE_GRID_POINTS = 25

#: the v-values of ``surface_demo``'s grid layers, around the z = 1 slice
_SURFACE_V_LAYERS = (0.95, 1.0, 1.05)

#: ``surface_demo``'s edge tolerance, in units of s^4
_SURFACE_EDGE_TOL_SCALE = 0.05


def surface_demo(s_values) -> list[RatioRow]:
    """Graph-estimated inner/outer ratio on the surface x^3 = y^2 z.

    For each s the branch points p = (s^2, s^3, 1) and q = (s^2, -s^3, 1)
    are joined through a proximity graph over parametrized surface samples
    (u, v) -> (u^2 v, u^3, v^3): 25 equispaced u in [-s, s] (so u = 0 is
    one of them) on each of the layers v = 0.95, 1.0 and 1.05.  On the
    surface, any route between the branches must cross the z-axis, which
    keeps the inner distance near 2 s^2 while the chord is exactly 2 s^3.

    Edge admission measures how far segment interiors drift from the
    surface, via the pullback residual of the cusp-family matrix at its
    z-flipped argument (the flip matches the matrix determinant x^3 + y^2 z
    to the surface equation; the two zero sets are isometric), at the
    ``oracles.CHECKS_PER_EDGE`` = 3 interior points of each edge.  In this
    residual both the drift of legitimate local edges (about 0.005 s^4 on
    this grid) and the shortcut straight across the branch gap (about
    0.75 s^4) scale as s^4, so the admission tolerance is 0.05 s^4: an
    order of magnitude above the former, an order below the latter.  The
    grid and the tolerance are fixed.
    """
    family = cusp_family_map()
    target = VarietyDescriptor(3, 3, 3, ScalarField.REAL)

    def residuals(points: np.ndarray) -> np.ndarray:
        return np.array(
            [pullback_residual(family, np.array([x, y, -z]), target) for x, y, z in points]
        )

    rows = []
    for s in s_values:
        s = float(s)
        if not 0.0 < s <= 1.0:
            raise ValueError("s values must lie in (0, 1]")
        nodes = [
            _surface_point(u, v)
            for v in _SURFACE_V_LAYERS
            for u in np.linspace(-s, s, _SURFACE_GRID_POINTS)
        ]
        # linspace returns -s and s exactly, so the branch points p = (u = s,
        # v = 1) and q = (u = -s, v = 1) are the ends of the v = 1 layer
        layer = _SURFACE_V_LAYERS.index(1.0) * _SURFACE_GRID_POINTS
        estimate = proximity_graph_distance(
            nodes,
            source=layer + _SURFACE_GRID_POINTS - 1,
            target=layer,
            residuals_of=residuals,
            tol=_SURFACE_EDGE_TOL_SCALE * s**4,
            checks_per_edge=CHECKS_PER_EDGE,
        )
        if math.isinf(estimate):
            raise RuntimeError(f"surface graph disconnected at s={s:g}")
        d_out = 2.0 * s**3
        rows.append(RatioRow(s, d_out, estimate, estimate / d_out))
    return rows


def fit_loglog_slope(rows: list[RatioRow]) -> float:
    """Least-squares slope of log(ratio) against log(s)."""
    s = np.log([row.s for row in rows])
    r = np.log([row.ratio for row in rows])
    return float(np.polyfit(s, r, 1)[0])
