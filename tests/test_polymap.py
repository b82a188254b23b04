import time

import numpy as np
import pytest

from rankpath import (
    PolyParseError,
    ScalarField,
    VarietyDescriptor,
    cusp_family_map,
    cusp_ratio_table,
    evaluate,
    fit_loglog_slope,
    format_poly_map,
    parse_poly_map,
    pullback_residual,
    surface_demo,
)
from rankpath.polymap import CUSP_FAMILY_TEXT, cusp_arc_length

D333 = VarietyDescriptor(3, 3, 3, ScalarField.REAL)
EPS = float(np.finfo(np.float64).eps)


def closed_form_cusp_length(s):
    # per branch ((4 + 9 s^2)^{3/2} - 8) / 27, doubled
    return 2.0 * ((4.0 + 9.0 * s * s) ** 1.5 - 8.0) / 27.0


def random_poly_map(rng):
    names = ("x", "y", "z", "w")[: int(rng.integers(1, 4))]
    rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    entries = []
    for i in range(rows):
        for j in range(cols):
            if rng.uniform() < 0.4:
                continue
            text = "-" if rng.uniform() < 0.3 else ""
            for k in range(int(rng.integers(1, 4))):
                coeff = round(float(rng.uniform(0.1, 5)), 3)
                powers = [
                    (name, int(rng.integers(0, 4)))
                    for name in names
                    if rng.uniform() < 0.7
                ]
                body = "*".join(
                    name if power == 1 else f"{name}^{power}"
                    for name, power in powers
                    if power > 0
                )
                if k > 0:
                    text += " + " if rng.uniform() < 0.5 else " - "
                text += f"{coeff}" + (f"*{body}" if body else "")
            entries.append(f"[{i + 1},{j + 1}] = {text};")
    return f"vars: {','.join(names)}; rows: {rows}; cols: {cols};\n" + "\n".join(entries)


class TestParser:
    def test_example_map_round_trip(self):
        parsed = parse_poly_map(CUSP_FAMILY_TEXT)
        assert parsed.variables == ("x", "y", "z")
        assert (parsed.rows, parsed.cols) == (3, 3)
        again = parse_poly_map(format_poly_map(parsed))
        assert again == parsed

    def test_single_entry_cubic(self):
        f = parse_poly_map("vars: x; rows:1; cols:1; [1,1]=x^3;")
        assert f.entries[0, 0] == {(3,): 1.0}

    def test_dangling_operator(self):
        with pytest.raises(PolyParseError) as info:
            parse_poly_map("vars: x; rows:1; cols:1; [1,1]=x+;")
        assert info.value.line == 1
        assert info.value.column > 0

    def test_unknown_identifier(self):
        with pytest.raises(PolyParseError, match="unknown identifier"):
            parse_poly_map("vars: x; rows:1; cols:1; [1,1]=y;")

    def test_exponent_overflow(self):
        with pytest.raises(PolyParseError, match="overflow"):
            parse_poly_map("vars: x; rows:1; cols:1; [1,1]=x^4294967297;")

    def test_entry_out_of_range(self):
        with pytest.raises(PolyParseError):
            parse_poly_map("vars: x; rows:1; cols:1; [2,1]=x;")

    def test_duplicate_entry(self):
        with pytest.raises(PolyParseError, match="twice"):
            parse_poly_map("vars: x; rows:1; cols:2; [1,1]=x; [1,1]=x;")

    def test_parentheses_and_products(self):
        f = parse_poly_map("vars: x,y; rows:1; cols:1; [1,1]=(x+y)*(x-y);")
        assert f.entries[0, 0] == {(2, 0): 1.0, (0, 2): -1.0}

    @pytest.mark.parametrize(
        "text, bad",
        [
            ("vars: x; rows: 1; cols: 1; [1,1] = .;", "."),
            ("vars: x; rows: ²; cols: 1;", "²"),
            ("vars: x; rows: 1; cols: 1; [1,1] = x^²;", "²"),
            ("vars: x; rows: 1; cols: 1; [1,1] = ٣;", "٣"),
        ],
        ids=["lone-dot", "superscript-count", "superscript-exponent", "arabic-indic-digit"],
    )
    def test_number_tokens_are_ascii_with_a_digit(self, text, bad):
        with pytest.raises(PolyParseError) as info:
            parse_poly_map(text)
        assert (info.value.line, info.value.column) == (1, text.index(bad) + 1)

    @pytest.mark.parametrize(
        "text, outcome",
        [
            ("vars: x; rows: 1; cols: 1; [1,1] = 1.e5*x;", {(0, 0): {(1,): 1e5}}),
            ("vars: x; rows: 1; cols: 1; [1,1] = .5*x;", {(0, 0): {(1,): 0.5}}),
            # an exponent needs a digit after its sign: 1, e, +, x
            ("vars: x; rows: 1; cols: 1; [1,1] = 1e+x;", ("found 'e'", 1, 37)),
            ("vars: x; rows: 1; cols: 1; [1,1] = 1_000;", ("found '_000'", 1, 37)),
            ("vars: x1; rows: 1; cols: 1; [1,1] = x1.5;", ("found '.5'", 1, 39)),
            ("vars: x; rows: 1; cols: 1; [1,1] = x\u00b2;", ("identifier 'x\u00b2'", 1, 36)),
            ("vars: x; rows: 1; cols: 1; [1,1] = \u00e9;", ("identifier '\u00e9'", 1, 36)),
            (
                "vars: x; rows: 1; cols: 2;\u00a0[1,1]\u00a0=\tx;\t[1,2] = 2\t*\u00a0x;",
                {(0, 0): {(1,): 1.0}, (0, 1): {(1,): 2.0}},
            ),
            ("vars: x;\r\nrows: 1; cols: 1;\r\n\t[1,1] = x + @;", ("character '@'", 3, 14)),
        ],
        ids=[
            "point-then-exponent",
            "leading-point",
            "exponent-without-digit",
            "number-then-word",
            "word-then-number",
            "word-with-superscript",
            "non-ascii-word",
            "nbsp-and-tab",
            "crlf-and-tab-line-3",
        ],
    )
    def test_scanner_edges(self, text, outcome):
        if isinstance(outcome, dict):
            assert parse_poly_map(text).entries == outcome
            return
        fragment, line, column = outcome
        with pytest.raises(PolyParseError, match=fragment) as info:
            parse_poly_map(text)
        assert (info.value.line, info.value.column) == (line, column)

    @pytest.mark.parametrize(
        "entry, bad",
        [
            ("1e999*x", "1e999"),
            ("1e999*x - 1e999*x + x", "1e999"),
            ("1e200*1e200*x", "*1e200*x"),
            ("1e308*x + 1e308*x", "+"),
        ],
        ids=["literal", "cancelled-literal", "product", "sum"],
    )
    def test_non_finite_coefficients_rejected(self, entry, bad):
        text = f"vars: x; rows: 1; cols: 1; [1,1] = {entry};"
        with pytest.raises(PolyParseError, match="non-finite") as info:
            parse_poly_map(text)
        assert (info.value.line, info.value.column) == (1, text.index(bad) + 1)

    def test_huge_header_allocates_only_listed_entries(self):
        # a 100000 x 100000 header used to allocate 10^10 dicts before the
        # first entry was read
        text = "vars: x; rows: 100000; cols: 100000; [7,99999] = x^2;"
        start = time.perf_counter()
        f = parse_poly_map(text)
        assert time.perf_counter() - start < 0.5
        assert (f.rows, f.cols) == (100000, 100000)
        assert f.entries == {(6, 99998): {(2,): 1.0}}
        assert parse_poly_map(format_poly_map(f)) == f

    def test_round_trip_corpus(self, rng):
        for _ in range(50):
            text = random_poly_map(rng)
            first = parse_poly_map(text)
            second = parse_poly_map(format_poly_map(first))
            assert first == second


class TestEvaluate:
    def test_example_at_ones(self):
        m = evaluate(cusp_family_map(), [1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            m, [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
        )
        assert np.linalg.det(m) == pytest.approx(2.0)

    def test_example_at_origin(self):
        assert not evaluate(cusp_family_map(), [0.0, 0.0, 0.0]).any()

    def test_example_determinant_identity(self, rng):
        f = cusp_family_map()
        for _ in range(100):
            x, y, z = rng.uniform(-2, 2, size=3)
            det = np.linalg.det(evaluate(f, [x, y, z]))
            expected = x**3 + y * y * z
            assert det == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_linearity_in_coefficients(self, rng):
        f = parse_poly_map("vars: x,y; rows:1; cols:1; [1,1]=2*x^2 + 3*y;")
        g = parse_poly_map("vars: x,y; rows:1; cols:1; [1,1]=0.5*x^2 - y;")
        s = parse_poly_map("vars: x,y; rows:1; cols:1; [1,1]=2.5*x^2 + 2*y;")
        for _ in range(20):
            point = rng.uniform(-1, 1, size=2)
            combined = evaluate(f, point) + evaluate(g, point)
            assert combined[0, 0] == pytest.approx(evaluate(s, point)[0, 0], abs=1e-12)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(cusp_family_map(), [1.0, 2.0])


class TestPullbackResidual:
    def test_on_the_surface(self):
        # x^3 + y^2 z = 0 at (1, 1, -1)
        assert pullback_residual(cusp_family_map(), [1.0, 1.0, -1.0], D333) <= 1e-12

    def test_off_the_surface(self):
        assert pullback_residual(cusp_family_map(), [1.0, 1.0, 1.0], D333) > 0.1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pullback_residual(
                cusp_family_map(), [1.0, 1.0, 1.0], VarietyDescriptor(2, 2, 2)
            )


class TestCuspTable:
    def test_unit_scale_row(self):
        row = cusp_ratio_table([1.0])[0]
        assert row.d_out == pytest.approx(2.0)
        assert row.d_in == pytest.approx(closed_form_cusp_length(1.0), rel=1e-7)
        assert row.d_in == pytest.approx(2.879, abs=2e-3)
        assert row.ratio == pytest.approx(1.44, abs=2e-3)

    def test_small_scale_matches_2s_squared(self):
        row = cusp_ratio_table([0.01])[0]
        assert row.d_out == pytest.approx(2e-6)
        assert row.d_in == pytest.approx(2e-4, rel=2e-3)
        assert row.ratio == pytest.approx(100.0, rel=2e-3)

    def test_arc_oracle_agrees_with_closed_form(self):
        for s in (1e-3, 1e-2, 0.1, 0.5, 1.0):
            assert cusp_arc_length(s) == pytest.approx(
                closed_form_cusp_length(s), rel=1e-7
            )

    def test_arc_length_above_a_fine_inscribed_polyline(self):
        # an inscribed polyline can only undershoot; 2^18 segments come
        # within 1e-11 of the arc, and its sum rounds by far less than 1e-13
        for s in (1e-100, 1e-30, 1e-3, 0.1, 0.5, 1.0):
            u = np.linspace(-s, s, 2**18 + 1)
            polyline = float(np.sum(np.hypot(np.diff(u * u), np.diff(u**3))))
            arc = cusp_arc_length(s)
            assert arc * (1.0 - 1e-11) <= polyline <= arc * (1.0 + 1e-13)

    def test_chord_is_exact_where_its_square_underflows(self):
        # (2 s^3)^2 is subnormal below s of about 4e-52, so the chord must
        # not come from a norm of p - q
        s = 1e-54
        (row,) = cusp_ratio_table([s])
        assert row.d_out == 2.0 * s**3
        assert row.d_in == pytest.approx(2.0 * s * s, rel=4 * EPS, abs=0)

    def test_monotone_divergence_and_slope(self):
        rows = cusp_ratio_table(np.geomspace(1e-3, 1e-1, 20))
        ratios = [r.ratio for r in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert fit_loglog_slope(rows) == pytest.approx(-1.0, abs=0.05)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cusp_ratio_table([2.0])


class TestSurfaceDemo:
    def test_parametrization_identity(self, rng):
        for _ in range(50):
            u, v = rng.uniform(-2, 2, size=2)
            assert (u * u * v) ** 3 - (u**3) ** 2 * v**3 == pytest.approx(0.0, abs=1e-12)

    def test_chord_is_twice_s_cubed(self):
        rows = surface_demo([0.05])
        assert rows[0].d_out == pytest.approx(2.0 * 0.05**3)

    def test_rows_hold_the_proved_lower_end(self):
        # L(s) = 2 dist((s^2, s^3, 1), z-axis): every curve between the
        # branches meets the axis
        for row in surface_demo([1e-3, 1e-2, 1e-1, 1.0]):
            s = row.s
            assert row.d_in == pytest.approx(2.0 * np.hypot(s**2, s**3), rel=4 * EPS, abs=0)
            assert row.d_out == 2.0 * s**3
            assert row.ratio == row.d_in / row.d_out

    @pytest.mark.parametrize("s", [8e-77, 1e-77, 1e-78, 1e-90])
    def test_small_scales_hold_the_axis_bound(self, s):
        # s^4 is subnormal or 0 here, but only s^2 and 2 s^3 enter the row
        (row,) = surface_demo([s])
        assert row.d_in == pytest.approx(2.0 * s * s, rel=4 * EPS, abs=0)
        assert row.d_out == 2.0 * s**3

    def test_sandwich_between_axis_bound_and_slice_arc(self):
        # L <= inner distance <= U, with U the z = 1 slice's arc length and
        # U / L <= 1 + s^2 / 15, each side up to 4 eps
        s_values = np.append(np.geomspace(1e-100, 1.0, 400), [0.3, 0.7])
        for low, high in zip(surface_demo(s_values), cusp_ratio_table(s_values)):
            s, lower, upper = low.s, low.d_in, high.d_in
            assert lower * (1.0 - 4 * EPS) <= upper <= lower * (1.0 + s * s / 15 + 4 * EPS)

    def test_underflowing_chord_is_rejected(self):
        with pytest.raises(ValueError, match="chord 2 s\\^3 underflows"):
            surface_demo([1e-110])

    def test_slope_in_band(self):
        rows = surface_demo(np.geomspace(1e-3, 1e-1, 8))
        slope = fit_loglog_slope(rows)
        assert -1.3 <= slope <= -0.7
        # the proved lower end tracks the 2 s^2 axis-crossing scale
        for row in rows:
            assert row.d_in == pytest.approx(2.0 * row.s**2, rel=row.s**2, abs=0)
