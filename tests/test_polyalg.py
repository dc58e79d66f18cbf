import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from cyclebound.polyalg import (
    Box,
    IntervalBoxes,
    Poly2,
    PolyParseError,
    VectorFieldError,
    ia_add,
    ia_const,
    ia_div,
    ia_mul,
    ia_sub,
    interval_eval,
    parse_poly,
    parse_vf,
)

from oracles import Interval, eval_terms, fd_partial, interval_eval_scalar


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

    def test_grid_is_polyval2d_bit_for_bit(self):
        """eval_grid skips each column's zeros above its highest nonzero
        coefficient; value, sign of zero, NaN bits, dtype, shape and type
        stay those of polyval2d on random zero patterns, on the upper
        triangle of a total degree, and on inputs with ±0, ±inf, NaN,
        subnormals and ±1e308."""
        rng = np.random.default_rng(29)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            2.5e-310, 1e308, -1e308, 1.0, -1.0])

        def point(shape):
            v = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5)
            return np.where(rng.random(shape) < 0.3, rng.choice(special, size=shape), v)

        polys = [Poly2(), parse_poly("-3/7"), parse_poly("y^3"), parse_poly("x^4")]
        for k in range(4000):
            mi, mj = rng.integers(0, 6, size=2)
            c = rng.standard_normal((mi + 1, mj + 1)) * 10.0 ** rng.integers(-3, 4)
            if k % 2:
                c[rng.random(c.shape) < 0.5] = 0.0
            else:
                i, j = np.indices(c.shape)
                c[i + j > max(mi, mj)] = 0.0
            polys.append(Poly2({(i, j): F(a) for (i, j), a in np.ndenumerate(c)}))
        for k, p in enumerate(polys):
            shape = ((), (7,), (3, 4))[k % 3]
            x, y = point(shape), point(shape)
            with np.errstate(all="ignore"):
                ref = np.polynomial.polynomial.polyval2d(x, y, p.coeff_matrix())
                got = p.eval_grid(x, y)
            assert type(got) is type(ref) and got.dtype == ref.dtype
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


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

    def test_built_once(self):
        p = parse_poly("x^3*y - 2*y^2 + x")
        assert p.partial(0) is p.partial(0) and p.partial(1) is p.partial(1)
        assert p.partial(0).partial(1) is p.partial(0).partial(1)
        assert p.majorant() is p.majorant() == parse_poly("x^3*y + 2*y^2 + x")

    def test_fd_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rand_poly(rng, 6, -10, 10)
            x, y = rng.uniform(-1, 1, size=2)
            for var in (0, 1):
                exact = p.partial(var).eval(x, y)
                fd = fd_partial(p, var, x, y)
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def boxes(x0, x1, y0, y1):
    return IntervalBoxes([x0], [x1], [y0], [y1])


def same(a: float, b: float) -> bool:
    """Equal floats with equal signs, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def same_interval(lo, hi, ref) -> bool:
    return same(float(lo), ref.lo) and same(float(hi), ref.hi)


_MAX = float(np.finfo(float).max)
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, _MAX, -_MAX, math.inf, -math.inf]


def random_intervals(rng, n):
    """Endpoint pairs mixing ordinary floats with zeros of both signs, the
    smallest subnormal, +-max float and +-inf; a quarter are points."""
    def endpoint():
        if rng.random() < 0.4:
            return _SPECIAL[int(rng.integers(len(_SPECIAL)))]
        return float(rng.normal() * 10.0 ** rng.integers(-3, 4))

    out = []
    for _ in range(n):
        a = endpoint()
        b = a if rng.random() < 0.25 else endpoint()
        out.append((a, b) if a <= b else (b, a))
    return out


def arrays(ivs):
    return (np.array([a for a, _ in ivs]), np.array([b for _, b in ivs]))


class TestInterval:
    def test_spec_enclosures(self):
        (lo,), (hi,) = interval_eval(parse_poly("x"), boxes(0, 1, 0, 1))
        assert lo <= 0.0 and hi >= 1.0
        (lo,), _ = interval_eval(parse_poly("x^2 - 1"), boxes(2, 3, -9, 9))
        assert lo > 0.0
        (lo,), (hi,) = interval_eval(parse_poly("x*y"), boxes(-1, 1, -1, 1))
        assert lo <= -1.0 and hi >= 1.0

    def test_enclosure_property_random(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            p = rand_poly(rng, 4, -3, 3)
            x0, x1 = np.sort(rng.uniform(-3, 3, size=(2, 5)), axis=0)
            y0, y1 = np.sort(rng.uniform(-3, 3, size=(2, 5)), axis=0)
            sx = rng.uniform(x0, x1)
            sy = rng.uniform(y0, y1)
            lo, hi = interval_eval(p, IntervalBoxes(x0, x1, y0, y1))
            val = p.eval(sx, sy)
            assert np.all(lo <= val) and np.all(val <= hi)

    def test_cached_coefficients_match_term_formula(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            p = rand_poly(rng, int(rng.integers(0, 6)), -3, 3)
            p = p.scale(F(1, 3))  # c/3 is rarely a float, so ia_const widens it
            x0, x1 = np.sort(rng.uniform(-3, 3, size=(2, 4)), axis=0)
            y0, y1 = np.sort(rng.uniform(-3, 3, size=(2, 4)), axis=0)
            b = IntervalBoxes(x0, x1, y0, y1)
            xl, xh = b.powers(0, 6)
            yl, yh = b.powers(1, 6)
            ref = (np.zeros(4), np.zeros(4))
            for (i, j), c in sorted(p.terms.items()):
                term = ia_mul(ia_mul(ia_const([c]), (xl[i], xh[i])), (yl[j], yh[j]))
                ref = ia_add(ref, term)
            for _ in range(2):  # the second call reads the cache
                lo, hi = interval_eval(p, b)
                assert np.array_equal(lo, ref[0]) and np.array_equal(hi, ref[1])

    def test_pow_through_zero(self):
        lo, hi = IntervalBoxes([-2.0, 0.0, -2.0], [1.0, 0.0, 1.0], [0.0] * 3,
                               [0.0] * 3).powers(0, 4)
        assert lo[2][0] == 0.0 and hi[2][0] >= 4.0
        # outward rounding may leave a denormal-width sliver above zero
        assert hi[4][1] <= 1e-300
        assert lo[3][2] <= -8.0 and hi[3][2] >= 1.0

    def test_arithmetic_outward(self):
        a = (np.array([0.1]), np.array([0.2]))
        lo, hi = ia_add(a, (np.array([0.3]), np.array([0.3])))
        assert lo[0] <= 0.4 <= hi[0]
        lo, hi = ia_mul(a, (np.array([-3.0]), np.array([2.0])))
        assert lo[0] <= -0.6 and hi[0] >= 0.4

    @pytest.mark.parametrize("seed", range(4))
    def test_array_ops_match_scalar(self, seed):
        """Each array operation equals the scalar Interval elementwise, signed
        zeros included; where the scalar one cannot build its result (a NaN
        endpoint), the array result fails lo <= hi."""
        rng = np.random.default_rng(seed)
        ivs_a = random_intervals(rng, 400)
        ivs_b = random_intervals(rng, 400)
        a, b = arrays(ivs_a), arrays(ivs_b)
        ops = {"+": (ia_add, Interval.__add__), "-": (ia_sub, Interval.__sub__),
               "*": (ia_mul, Interval.__mul__), "/": (ia_div, Interval.__truediv__)}
        with np.errstate(all="ignore"):
            for name, (batch, scalar) in ops.items():
                lo, hi = batch(a, b)
                for k, (ia, ib) in enumerate(zip(ivs_a, ivs_b)):
                    if name == "/" and ib[0] <= 0.0 <= ib[1]:
                        continue   # the divisor must exclude 0
                    try:
                        ref = scalar(Interval(*ia), Interval(*ib))
                    except ValueError:
                        assert not lo[k] <= hi[k], (name, ia, ib)
                        continue
                    assert same_interval(lo[k], hi[k], ref), (name, ia, ib, lo[k], hi[k], ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_powers_match_scalar(self, seed):
        rng = np.random.default_rng(100 + seed)
        ivs = random_intervals(rng, 400) + [(-2.0, 3.0), (-3.0, 0.0), (-0.0, 0.0),
                                            (0.0, -0.0), (-5e-324, 5e-324)]
        lo, hi = IntervalBoxes(*arrays(ivs), *arrays(ivs)).powers(1, 8)
        for n in range(9):
            for k, iv in enumerate(ivs):
                try:
                    ref = Interval(*iv).pow_int(n)
                except ValueError:
                    assert not lo[n][k] <= hi[n][k], (n, iv)
                    continue
                assert same_interval(lo[n][k], hi[n][k], ref), (n, iv)

    def test_constants_match_scalar(self):
        rng = np.random.default_rng(61)
        cs = [F(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**6)))
              for _ in range(300)]
        cs += [F(1, 3), F(-1, 10), F(5), F(0), F(1, 2**1074), F(int(_MAX))]
        lo, hi = ia_const(cs)
        for k, c in enumerate(cs):
            assert same_interval(lo[k], hi[k], Interval.from_fraction(c))

    @pytest.mark.parametrize("degree", [0, 1, 3, 6])
    def test_evaluator_matches_scalar(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(20):
            p = rand_poly(rng, degree, -3, 3).scale(F(1, 3))
            x0, x1 = np.sort(rng.uniform(-3, 3, size=(2, 8)), axis=0)
            y0, y1 = np.sort(rng.uniform(-3, 3, size=(2, 8)), axis=0)
            x1[:2] = x0[:2]   # point boxes, as at the Newton midpoint
            y1[:2] = y0[:2]
            lo, hi = interval_eval(p, IntervalBoxes(x0, x1, y0, y1))
            for k in range(8):
                ref = interval_eval_scalar(p, (Interval(x0[k], x1[k]), Interval(y0[k], y1[k])))
                assert same_interval(lo[k], hi[k], ref)

    def test_take_keeps_powers(self):
        b = IntervalBoxes([-1.0, 0.5, 2.0], [1.0, 1.5, 3.0], [0.0, -2.0, 1.0], [1.0, 2.0, 4.0])
        p = parse_poly("x^3*y^2 - 2*x*y + 1/3")
        full = interval_eval(p, b)
        keep = np.array([True, False, True])
        part = interval_eval(p, b.take(keep))
        fresh = interval_eval(p, IntervalBoxes([-1.0, 2.0], [1.0, 3.0], [0.0, 1.0], [1.0, 4.0]))
        for got in (part, fresh):
            assert np.array_equal(got[0], full[0][keep]) and np.array_equal(got[1], full[1][keep])


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
