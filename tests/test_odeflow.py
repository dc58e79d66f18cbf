"""Integrator, dense output and Hermite root checks.

The rotation field (-y, x) flows in exact circles, so endpoints,
interpolated states and reversal errors can all be measured against
closed forms.  The array bisection `hermite_roots` is pinned against
the scalar loop of tests/oracles.py; the section crossings that
cycledetect solves with it are checked in test_cycledetect.py.
"""

import math

import numpy as np
import pytest

import cyclebound as cb
from cyclebound import odeflow
from cyclebound.certify import no_cycle_certificate
from cyclebound.odeflow import hermite, hermite_deriv, hermite_roots, integrate, rk_step

from oracles import hermite_root, rk_step_reference

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def rotation():
    return cb.parse_vf("P = -y\nQ = x\nbox = [-3, 3] x [-3, 3]\n")


@pytest.fixture(scope="module")
def sink():
    return cb.parse_vf("P = -x\nQ = -y\nbox = [-5, 5] x [-5, 5]\n")


class TestIntegrate:
    def test_circle_endpoint(self, rotation):
        """One full revolution returns to the start within 1e-6."""
        traj = integrate(rotation, (1.0, 0.0), TWO_PI)
        assert traj.terminated_by == "t_end"
        assert traj.times[-1] == pytest.approx(TWO_PI, abs=1e-12)
        end = traj.states[-1]
        assert math.hypot(end[0] - 1.0, end[1]) < 1e-6

    def test_node_bookkeeping(self, rotation):
        traj = integrate(rotation, (1.0, 0.0), TWO_PI)
        assert np.all(np.diff(traj.times) > 0.0)
        assert len(traj.times) == len(traj.states) == len(traj.derivs)
        # stored node derivatives are exact field evaluations
        px, qx = rotation.eval(traj.states[:, 0], traj.states[:, 1])
        assert np.allclose(traj.derivs[:, 0], px, rtol=0.0, atol=1e-14)
        assert np.allclose(traj.derivs[:, 1], qx, rtol=0.0, atol=1e-14)
        assert traj.n_accepted == len(traj.times) - 1

    def test_backward_direction(self, rotation):
        """direction=-1 flows along -V; derivs are stored for -V."""
        traj = integrate(rotation, (1.0, 0.0), math.pi / 2, direction=-1.0)
        end = traj.states[-1]
        assert math.hypot(end[0], end[1] + 1.0) < 1e-6
        px, qx = rotation.eval(traj.states[:, 0], traj.states[:, 1])
        assert np.allclose(traj.derivs[:, 0], -px, rtol=0.0, atol=1e-14)
        assert np.allclose(traj.derivs[:, 1], -qx, rtol=0.0, atol=1e-14)

    def test_box_exit(self, corpus):
        """A field with finite-time blowup leaves the inflated box."""
        v = corpus["degenerate-demo"]
        traj = integrate(v, (0.5, 0.5), 10.0)
        assert traj.terminated_by == "box_exit"
        assert traj.times[-1] < 10.0
        end = traj.states[-1]
        assert max(abs(end[0]), abs(end[1])) >= 5 * odeflow.BOX_INFLATION - 1e-9

    def test_one_inflation_for_flow_and_certificate(self, corpus, monkeypatch):
        """The certificate's rectangle and the box exit move together."""
        monkeypatch.setattr(odeflow, "BOX_INFLATION", 2.0)
        assert "[-10, 10] x [-10, 10]" in no_cycle_certificate(corpus["linear-center"], [])
        traj = integrate(corpus["degenerate-demo"], (0.5, 0.5), 10.0)
        assert traj.terminated_by == "box_exit"
        before, end = traj.states[-2:]
        assert max(abs(before[0]), abs(before[1])) <= 10.0
        assert max(abs(end[0]), abs(end[1])) >= 10.0 - 1e-9

    @pytest.mark.parametrize("text", ["P = 1\nQ = 0", "P = 2\nQ = 3", "P = 1\nQ = x"],
                             ids=["unit", "constant", "shear"])
    def test_zero_error_estimate(self, text):
        """A step integrates these fields exactly, so the embedded error
        estimate is 0: the step grows by the full factor, and the run ends
        at t_max or at the box."""
        v = cb.parse_vf(text + "\nbox = [-2, 2] x [-2, 2]\n")
        traj = integrate(v, (0.5, -0.5), 6.0, rtol=1e-6, atol=1e-9)
        assert traj.terminated_by in ("t_end", "box_exit")
        assert traj.n_rejected == 0

    def test_equilibrium_capture(self, sink):
        traj = integrate(sink, (1.0, 1.0), 100.0)
        assert traj.terminated_by == "equilibrium"
        assert traj.times[-1] < 100.0
        end = traj.states[-1]
        assert math.hypot(*end) < 1e-10

    def test_h_max_respected(self, rotation):
        traj = integrate(rotation, (1.0, 0.0), TWO_PI, h_max=0.05)
        assert np.max(np.diff(traj.times)) <= 0.05 + 1e-12


class TestTimeReversal:
    # horizons kept short on the strongly contracting systems: backward
    # integration there amplifies forward error exponentially, which is
    # conditioning of the flow rather than integrator error
    HORIZONS = {
        "cubic-one-cycle": 1.0,
        "van-der-pol": 5.0,
        "linear-center": 5.0,
        "two-cycle": 0.5,
        "degenerate-demo": 1.5,
    }

    @pytest.mark.parametrize("name", sorted(HORIZONS))
    def test_round_trip(self, corpus, name):
        """Forward then backward lands within 10x the tolerance."""
        v = corpus[name]
        t_max = self.HORIZONS[name]
        rtol, atol = 1e-9, 1e-12
        fwd = integrate(v, (0.5, 0.5), t_max, rtol=rtol, atol=atol)
        assert fwd.terminated_by == "t_end"
        back = integrate(v, tuple(fwd.states[-1]), t_max, rtol=rtol,
                         atol=atol, direction=-1.0)
        assert back.terminated_by == "t_end"
        err = math.hypot(back.states[-1][0] - 0.5, back.states[-1][1] - 0.5)
        scale = float(np.abs(fwd.states).max())
        assert err <= 10.0 * (rtol * scale + atol)


class TestFixedStepOrder:
    @staticmethod
    def _circle_rhs(x, y):
        return -y, x

    def _endpoint_error(self, n):
        h = TWO_PI / n
        x, y, k1 = 1.0, 0.0, None
        for _ in range(n):
            x, y, _, _, k1 = rk_step(self._circle_rhs, x, y, h, k1)
        return math.hypot(x - 1.0, y)

    def test_order_slope(self):
        """Halving the step divides the endpoint error by about 2^5."""
        ns = np.array([40, 80, 160, 320])
        errs = np.array([self._endpoint_error(n) for n in ns])
        assert np.all(np.diff(errs) < 0.0)
        slope = np.polyfit(np.log(TWO_PI / ns), np.log(errs), 1)[0]
        assert 4.0 <= slope <= 6.0

    def test_fsal_reuse_consistent(self):
        """Passing the returned k1 reproduces the cold-start step."""
        cold = rk_step(self._circle_rhs, 1.0, 0.0, 0.1)
        warm = rk_step(self._circle_rhs, 1.0, 0.0, 0.1,
                       k1=self._circle_rhs(1.0, 0.0))
        assert cold[:4] == warm[:4]

    def test_elementwise_on_arrays(self):
        """On arrays each output equals the scalar step bit for bit, and the
        input arrays come back unchanged."""
        xs = np.array([1.0, 0.3, -2.0])
        ys = np.array([0.0, 0.7, 0.5])
        hs = np.array([0.1, 0.05, 0.2])
        x_in, y_in = xs.copy(), ys.copy()
        x5, y5, ex, ey, (kx, ky) = rk_step(self._circle_rhs, xs, ys, hs)
        for j in range(3):
            ref = rk_step(self._circle_rhs, float(xs[j]), float(ys[j]), float(hs[j]))
            got = np.array([x5[j], y5[j], ex[j], ey[j], kx[j], ky[j]])
            assert np.array_equal(got, np.array([*ref[:4], *ref[4]]))
        assert np.array_equal(xs, x_in)
        assert np.array_equal(ys, y_in)

    @staticmethod
    def _field(x, y):
        """A field with a zero slope at (0, 0), of either sign: x y is 0.0
        or -0.0 there, and 1 - x - y is 0 on the line x + y = 1."""
        return x * y, 1.0 - x - y + 0.5 * x * x

    @staticmethod
    def _zero_slopes(x, y):
        """P is a zero whose sign follows (0.85 - y)(y - 0.95); with Q = 1,
        x = -0.0, y = 0 and h = 1 every product of the fifth-order row is
        -0.0, so only the leading 0.0 of the sum makes x5 +0.0."""
        return 0.0 * ((0.85 - y) * (y - 0.95)), 1.0 + 0.0 * y

    STATES = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.0, 0.0), (0.5, 0.5),
              (-0.3, 2.0), (math.inf, 0.5), (0.5, -math.inf), (math.inf, math.inf),
              (math.nan, 1.0), (1e-300, -1e-300), (3.0, -7.0)]
    STEPS = [0.1, -0.05, 0.0, -0.0, 1e-9, 2.5]

    @staticmethod
    def _bits(out):
        x5, y5, ex, ey, (kx, ky) = out
        return np.array([x5, y5, ex, ey, kx, ky], dtype=float).tobytes()

    def test_matches_tableau_loop_on_floats(self):
        """Bit for bit, NaN and the sign of zero included: the written-out
        stages against the loop over the rows of DP_A and DP_E, cold and
        with a given k1, ±0.0 slopes among them."""
        with np.errstate(all="ignore"):
            for f in (self._field, self._zero_slopes):
                for x, y in self.STATES:
                    for h in self.STEPS + [1.0]:
                        for k1 in (None, f(x, y), (0.0, -0.0), (-0.0, 0.0)):
                            got = rk_step(f, x, y, h, k1)
                            want = rk_step_reference(f, x, y, h, k1)
                            assert self._bits(got) == self._bits(want), (x, y, h, k1)
            x5 = rk_step(self._zero_slopes, -0.0, 0.0, 1.0)[0]
            assert x5 == 0.0 and math.copysign(1.0, x5) == 1.0

    def test_matches_tableau_loop_on_arrays(self):
        """The same inputs as arrays: bit for bit against the loop form, and
        each element against the float step."""
        xs = np.array([s[0] for s in self.STATES] * len(self.STEPS))
        ys = np.array([s[1] for s in self.STATES] * len(self.STEPS))
        hs = np.repeat(self.STEPS, len(self.STATES))
        with np.errstate(all="ignore"):
            for k1 in (None, self._field(xs, ys), (np.zeros_like(xs), -np.zeros_like(ys))):
                got = rk_step(self._field, xs, ys, hs, k1)
                want = rk_step_reference(self._field, xs, ys, hs, k1)
                assert self._bits(got) == self._bits(want)
                for j in range(len(xs)):
                    one = rk_step(self._field, float(xs[j]), float(ys[j]), float(hs[j]),
                                  None if k1 is None else (float(k1[0][j]), float(k1[1][j])))
                    assert self._bits(one) == np.array(
                        [c[j] for c in got[:4]] + [got[4][0][j], got[4][1][j]]).tobytes()

    def test_error_estimate_scale(self):
        out = rk_step(self._circle_rhs, 1.0, 0.0, 0.1)
        est = math.hypot(out[2], out[3])
        assert 0.0 < est < 1e-6


class TestHermiteRoots:
    """The array bisection returns the scalar bisection's roots bit for bit."""

    @staticmethod
    def brackets(rng, n):
        """Hermite data and level with y0 - level and y1 - level of opposite
        signs (zero counts as positive), at scales from 1e-8 to 1e3."""
        scale = 10.0 ** rng.uniform(-8, 3, n)
        level = scale * rng.normal(0, 1, n)
        sgn = rng.choice([-1.0, 1.0], n)
        y0 = level - sgn * scale * rng.uniform(0, 1, n)
        y1 = level + sgn * scale * rng.uniform(0, 1, n)
        d0 = scale * rng.normal(0, 3, n)
        d1 = scale * rng.normal(0, 3, n)
        return y0, d0, y1, d1, level

    @staticmethod
    def adversarial(rng, n):
        """A root exactly at either end, and three roots in (0, 1): the data
        of c (s - r1)(s - r2)(s - r3), which the cubic Hermite reproduces."""
        scale = 10.0 ** rng.uniform(-8, 3, n)
        at_end = [np.zeros(n), scale, -scale, scale, np.zeros(n)]   # y0 = level
        y_end = at_end.copy()
        y_end[0], y_end[2] = -scale, np.zeros(n)                    # y1 = level
        r = np.sort(rng.uniform(0.05, 0.95, (3, n)), axis=0)
        c = scale * rng.choice([-1.0, 1.0], n)
        y0 = -c * r[0] * r[1] * r[2]
        y1 = c * (1 - r[0]) * (1 - r[1]) * (1 - r[2])
        d0 = c * (r[0] * r[1] + r[0] * r[2] + r[1] * r[2])
        d1 = c * ((1 - r[1]) * (1 - r[2]) + (1 - r[0]) * (1 - r[2])
                  + (1 - r[0]) * (1 - r[1]))
        three = [y0, d0, y1, d1, np.zeros(n)]
        return tuple(np.concatenate(cols) for cols in zip(at_end, y_end, three))

    @pytest.mark.parametrize("kind", ["random", "adversarial"])
    def test_matches_scalar_bisection(self, kind):
        rng = np.random.default_rng(11)
        y0, d0, y1, d1, level = getattr(self, "brackets" if kind == "random"
                                        else "adversarial")(rng, 600)
        lo = rng.choice([0.0, 0.25, 0.5], len(y0))
        hi = lo + rng.choice([0.25, 0.5], len(y0))
        lo[::2], hi[::2] = 0.0, 1.0
        flo = hermite(y0, d0, y1, d1, lo) - level
        got = hermite_roots(y0, d0, y1, d1, level, lo, hi, flo, 45)
        want = np.array([
            hermite_root(*(float(c[j]) for c in (y0, d0, y1, d1, level, lo, hi, flo)), 45)
            for j in range(len(y0))])
        assert got.tobytes() == want.tobytes()

    def test_scalar_bracket_ends(self):
        """Scalar lo and hi broadcast over the brackets, as scouting calls it."""
        rng = np.random.default_rng(12)
        y0, d0, y1, d1, level = self.brackets(rng, 200)
        got = hermite_roots(y0, d0, y1, d1, level, 0.0, 1.0, y0 - level, 45)
        want = [hermite_root(float(y0[j]), float(d0[j]), float(y1[j]), float(d1[j]),
                             float(level[j]), 0.0, 1.0, float(y0[j] - level[j]), 45)
                for j in range(200)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_float_brackets(self):
        """On floats too each root is the scalar loop's, whatever the
        number of halvings."""
        rng = np.random.default_rng(13)
        y0, d0, y1, d1, level = self.brackets(rng, 200)
        for j in range(200):
            args = (float(y0[j]), float(d0[j]), float(y1[j]), float(d1[j]), float(level[j]),
                    0.0, 1.0, float(y0[j] - level[j]))
            steps = j % 50
            got = np.float64(hermite_roots(*args, steps))
            assert got.tobytes() == np.float64(hermite_root(*args, steps)).tobytes()


class TestDenseOutput:
    def test_exact_at_nodes(self, rotation):
        traj = integrate(rotation, (1.0, 0.0), TWO_PI)
        for i in (0, len(traj.times) // 2, len(traj.times) - 1):
            x, y = traj.state_at(traj.times[i])
            assert x == pytest.approx(traj.states[i][0], abs=1e-12)
            assert y == pytest.approx(traj.states[i][1], abs=1e-12)

    def test_interpolant_accuracy(self, rotation):
        """Between nodes the interpolant still tracks the exact circle."""
        traj = integrate(rotation, (1.0, 0.0), TWO_PI)
        ts = 0.5 * (traj.times[:-1] + traj.times[1:])
        for t in ts[:: max(1, len(ts) // 20)]:
            x, y = traj.state_at(float(t))
            assert math.hypot(x - math.cos(t), y - math.sin(t)) < 1e-7

    def test_single_node_trajectory(self, rotation):
        """A run that underflows before its first step still interpolates."""
        traj = integrate(rotation, (1.0, 0.0), 1e-13)
        assert traj.terminated_by == "step_underflow"
        assert len(traj.times) == 1
        assert traj.state_at(0.0) == (1.0, 0.0)

    def test_deriv_residual_bound(self, corpus):
        """The interpolant's derivative, hermite_deriv on a segment's nodes
        divided by the step, stays within 10x the local tolerance of the
        field.

        The cubic interpolant's derivative error scales with h^3, so
        the bound is checked at a step cap where that term sits below
        the requested tolerance rather than at the default h_max.
        """
        v = corpus["van-der-pol"]
        rtol, atol = 1e-3, 1e-6
        traj = integrate(v, (2.0, 0.0), 20.0, rtol=rtol, atol=atol,
                         h_max=0.125)
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.0, traj.times[-1], size=200):
            x, y = traj.state_at(float(t))
            i, h, s = traj._segment(float(t))
            dx, dy = (hermite_deriv(*traj._nodes(i, h, c), s) / h for c in (0, 1))
            px, qx = v.eval(x, y)
            resid = math.hypot(dx - px, dy - qx)
            assert resid <= 10.0 * (rtol * math.hypot(px, qx) + atol)
