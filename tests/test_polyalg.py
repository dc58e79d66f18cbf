import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from cyclebound.polyalg import (
    Box,
    Interval,
    Poly2,
    PolyParseError,
    VectorFieldError,
    interval_eval,
    parse_poly,
    parse_vf,
)

from oracles import eval_terms, fd_partial


def rand_poly(rng, degree, lo=-1.0, hi=1.0):
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            terms[(i, j)] = F(float(rng.uniform(lo, hi)))
    return Poly2(terms)


class TestParsing:
    def test_round_trip_literal(self):
        p = parse_poly("x^2*y - 3*x + 1/2")
        assert parse_poly(p.render()) == p

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rand_poly(rng, 5, -10, 10)
            assert parse_poly(p.render()) == p

    def test_decimal_literals_are_exact(self):
        assert parse_poly("0.1").terms == {(0, 0): F(1, 10)}
        assert parse_poly("-2.5*x").terms == {(1, 0): F(-5, 2)}
        assert parse_poly("0.125*y^3").terms == {(0, 3): F(1, 8)}

    def test_rationals(self):
        assert parse_poly("1/3 + 2/3").terms == {(0, 0): F(1)}

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("2x")

    def test_error_carries_position(self):
        with pytest.raises(PolyParseError) as ei:
            parse_poly("x + * y")
        assert ei.value.line == 1
        assert ei.value.col == 5

    def test_unbalanced_paren(self):
        with pytest.raises(PolyParseError):
            parse_poly("(x + y")

    def test_negation_and_precedence(self):
        p = parse_poly("-x^2")
        assert p.eval(3.0, 0.0) == -9.0
        q = parse_poly("(-x)^2")
        assert q.eval(3.0, 0.0) == 9.0
        assert parse_poly("2 + 3 * 4").eval(0, 0) == 14.0

    def test_grouping(self):
        p = parse_poly("(x + y)^3")
        assert p == parse_poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3")


class TestEval:
    def test_spec_values(self):
        assert parse_poly("x^2 - 1").eval(2.0, 0.0) == 3.0
        assert Poly2().eval(4.5, -1.25) == 0.0
        assert parse_poly("x*y").eval(3.0, 4.0) == 12.0

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(3)
        p = rand_poly(rng, 6)
        xs = np.linspace(-2, 2, 17)
        ys = np.linspace(-1, 3, 17)
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        grid = p.eval_grid(xg, yg)
        for i in (0, 5, 16):
            for j in (1, 8, 13):
                assert grid[i, j] == pytest.approx(p.eval(xs[i], ys[j]), rel=1e-13)

    def test_eval_matches_term_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rand_poly(rng, 5, -10, 10)
            x, y = rng.uniform(-2, 2, size=2)
            ref = float(eval_terms(p, x, y))
            assert p.eval(x, y) == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestEvalOuter:
    AXES = [np.linspace(-1.5, 1.5, 7), np.linspace(-0.9, 2.3, 12),
            np.array([0.3]), np.array([-0.0]), np.array([-2.0, -0.0, 0.0, 1e-3])]

    def polys(self):
        rng = np.random.default_rng(41)
        yield Poly2()
        yield parse_poly("-3/7")
        yield parse_poly("x^3 - 2*x + 1/3")
        yield parse_poly("-y^4 + y")
        for degree in range(9):
            yield rand_poly(rng, degree, -2, 2)

    def test_bit_identical_to_polygrid2d(self):
        for p in self.polys():
            for xs in self.AXES:
                for ys in self.AXES:
                    ref = np.polynomial.polynomial.polygrid2d(xs, ys, p.coeff_matrix())
                    got = p.eval_outer(xs, ys)
                    assert np.array_equal(got, ref) and got.dtype == ref.dtype
                    assert got.tobytes() == ref.tobytes()  # signed zeros too

    def test_peak_memory_is_the_output(self):
        p = rand_poly(np.random.default_rng(43), 6)
        xs = np.linspace(-1.0, 1.0, 1025)
        ys = np.linspace(-0.5, 1.5, 1025)
        p.coeff_matrix()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = p.eval_outer(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # polygrid2d peaks at 3.0x: two fresh grids per Horner step
        assert peak <= 1.1 * out.nbytes


class TestPartial:
    def test_spec_examples(self):
        assert parse_poly("x^2*y").partial(0) == parse_poly("2*x*y")
        assert parse_poly("7").partial(0) == Poly2()
        assert parse_poly("x^3 + y^3").partial(1) == parse_poly("3*y^2")

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            p = rand_poly(rng, 8)
            assert p.partial(0).partial(1) == p.partial(1).partial(0)

    def test_fd_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rand_poly(rng, 6, -10, 10)
            x, y = rng.uniform(-1, 1, size=2)
            for var in (0, 1):
                exact = p.partial(var).eval(x, y)
                fd = fd_partial(p, var, x, y)
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


class TestInterval:
    def test_spec_enclosures(self):
        iv = interval_eval(parse_poly("x"), (Interval(0, 1), Interval(0, 1)))
        assert iv.lo <= 0.0 and iv.hi >= 1.0
        iv = interval_eval(parse_poly("x^2 - 1"), (Interval(2, 3), Interval(-9, 9)))
        assert iv.lo > 0.0
        iv = interval_eval(parse_poly("x*y"), (Interval(-1, 1), Interval(-1, 1)))
        assert iv.lo <= -1.0 and iv.hi >= 1.0

    def test_enclosure_property_random(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            p = rand_poly(rng, 4, -3, 3)
            x0, x1 = sorted(rng.uniform(-3, 3, size=2))
            y0, y1 = sorted(rng.uniform(-3, 3, size=2))
            sx = rng.uniform(x0, x1)
            sy = rng.uniform(y0, y1)
            iv = interval_eval(p, (Interval(x0, x1), Interval(y0, y1)))
            val = p.eval(sx, sy)
            assert iv.lo <= val <= iv.hi

    def test_cached_coefficients_match_term_formula(self):
        rng = np.random.default_rng(47)
        one = Interval(1.0, 1.0)
        for _ in range(200):
            p = rand_poly(rng, int(rng.integers(0, 6)), -3, 3)
            p = p.scale(F(1, 3))  # c/3 is rarely a float, so from_fraction widens it
            x0, x1 = sorted(rng.uniform(-3, 3, size=2))
            y0, y1 = sorted(rng.uniform(-3, 3, size=2))
            ix, iy = Interval(x0, x1), Interval(y0, y1)
            ref = Interval(0.0, 0.0)
            for (i, j), c in sorted(p.terms.items()):
                ref = ref + Interval.from_fraction(c) * (ix.pow_int(i) if i else one) \
                    * (iy.pow_int(j) if j else one)
            assert interval_eval(p, (ix, iy)) == ref
            assert interval_eval(p, (ix, iy)) == ref  # second call reads the cache

    def test_pow_through_zero(self):
        iv = Interval(-2.0, 1.0).pow_int(2)
        assert iv.lo == 0.0 and iv.hi >= 4.0
        # outward rounding may leave a denormal-width sliver above zero
        assert Interval.point(0.0).pow_int(4).hi <= 1e-300
        iv = Interval(-2.0, 1.0).pow_int(3)
        assert iv.lo <= -8.0 and iv.hi >= 1.0

    def test_arithmetic_outward(self):
        a = Interval(0.1, 0.2)
        b = a + Interval(0.3, 0.3)
        assert b.lo <= 0.4 <= b.hi
        c = a * Interval(-3.0, 2.0)
        assert c.lo <= -0.6 and c.hi >= 0.4


class TestComposeAffine:
    def test_rotation_quarter_turn(self):
        p = parse_poly("x^2*y - 3*x + 1/2")
        q = p.compose_affine(F(0), F(-1), F(1), F(0))
        assert q == parse_poly("x*y^2 + 3*y + 1/2")

    def test_translation(self):
        p = parse_poly("x^2")
        q = p.compose_affine(F(1), F(0), F(0), F(1), F(1), F(0))
        assert q == parse_poly("x^2 + 2*x + 1")

    def test_eval_consistency(self):
        rng = np.random.default_rng(31)
        p = rand_poly(rng, 5)
        a = [F(float(c)) for c in rng.uniform(-2, 2, size=6)]
        q = p.compose_affine(*a)
        for _ in range(10):
            x, y = rng.uniform(-1, 1, size=2)
            xx = float(a[0]) * x + float(a[1]) * y + float(a[4])
            yy = float(a[2]) * x + float(a[3]) * y + float(a[5])
            assert q.eval(x, y) == pytest.approx(p.eval(xx, yy), rel=1e-9, abs=1e-9)


class TestVectorFieldFormat:
    def test_full_file(self):
        v = parse_vf(
            "# a comment\n"
            "name = demo\n"
            "P = -y   # trailing comment\n"
            "Q = x\n"
            "box = [-2, 2] x [-1/2, 3.5]\n"
        )
        assert v.name == "demo"
        assert v.box.floats() == (-2.0, 2.0, -0.5, 3.5)
        assert v.p == parse_poly("-y")

    def test_default_box(self):
        v = parse_vf("P = x\nQ = y")
        assert v.box.floats() == (-5.0, 5.0, -5.0, 5.0)

    def test_missing_q(self):
        with pytest.raises(VectorFieldError):
            parse_vf("P = x")

    def test_duplicate_p(self):
        with pytest.raises(VectorFieldError):
            parse_vf("P = x\nP = y\nQ = y")

    def test_unknown_key(self):
        with pytest.raises(VectorFieldError):
            parse_vf("P = x\nQ = y\nfrobnicate = 3")

    def test_bad_box(self):
        with pytest.raises(VectorFieldError):
            parse_vf("P = x\nQ = y\nbox = [1, 2]")

    def test_parse_error_location_forwarded(self):
        with pytest.raises(VectorFieldError, match="line 2"):
            parse_vf("P = x\nQ = y +\n")

    def test_eval_and_jacobian(self):
        v = parse_vf("P = y\nQ = (1 - x^2)*y - x")
        assert v.eval(0.0, 0.0) == (0.0, 0.0)
        j = v.jacobian_at(0.0, 0.0)
        assert j[0][0] == 0.0 and j[0][1] == 1.0
        assert j[1][0] == -1.0 and j[1][1] == 1.0
