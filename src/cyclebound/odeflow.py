"""Adaptive Runge-Kutta integration of planar polynomial fields.

Embedded Dormand-Prince 5(4) pair with PI step-size control, first-same-as-last
stage reuse, and cubic Hermite dense output on every accepted step.
`hermite_roots` bisects that interpolant for a level; its one caller,
`cycledetect._solve_rows`, solves every section crossing of the program with it.

References
----------
Dormand, Prince: "A family of embedded Runge-Kutta formulae", J. Comp.
Appl. Math. 6(1), 1980.
Gustafsson: "Control theoretic techniques for stepsize selection in explicit
Runge-Kutta methods", ACM TOMS 17(4), 1991.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .polyalg import VectorField

# Butcher tableau (exact rationals kept as float literals of exact fractions).
# The last row holds the fifth-order weights, so the last stage point is the
# step's result and its field value seeds the next step (first same as last).
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# fifth-order weights minus the embedded fourth-order weights
DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

ORDER = 5

T_END = "t_end"
BOX_EXIT = "box_exit"
EQUILIBRIUM = "equilibrium"
STEP_UNDERFLOW = "step_underflow"

# integrate and scouting stop outside the box scaled by this factor about its
# centre; no_cycle_certificate is sound only on that same rectangle
BOX_INFLATION = 1.5


def rk_step(f, x, y, h, k1=None):
    """One Dormand-Prince step from (x, y) with step h.

    Works on floats and, elementwise, on numpy arrays of states and steps;
    the inputs are not modified.  Returns (x5, y5, err_x, err_y, k7) where
    k7 = f(x5, y5) can seed the next step.  Each stage sums c * k over the
    nonzero coefficients of its row, left to right from 0.0, so the leading
    0.0 fixes the sign of a zero sum.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76) = DP_A[1:]
    e1, _, e3, e4, e5, e6, e7 = DP_E
    k1x, k1y = f(x, y) if k1 is None else k1
    k2x, k2y = f(x + h * (0.0 + a21 * k1x), y + h * (0.0 + a21 * k1y))
    k3x, k3y = f(x + h * (0.0 + a31 * k1x + a32 * k2x),
                 y + h * (0.0 + a31 * k1y + a32 * k2y))
    k4x, k4y = f(x + h * (0.0 + a41 * k1x + a42 * k2x + a43 * k3x),
                 y + h * (0.0 + a41 * k1y + a42 * k2y + a43 * k3y))
    k5x, k5y = f(x + h * (0.0 + a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x),
                 y + h * (0.0 + a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y))
    k6x, k6y = f(x + h * (0.0 + a61 * k1x + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x),
                 y + h * (0.0 + a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y))
    x5 = x + h * (0.0 + a71 * k1x + a73 * k3x + a74 * k4x + a75 * k5x + a76 * k6x)
    y5 = y + h * (0.0 + a71 * k1y + a73 * k3y + a74 * k4y + a75 * k5y + a76 * k6y)
    k7 = k7x, k7y = f(x5, y5)
    ex = 0.0 + e1 * k1x + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x
    ey = 0.0 + e1 * k1y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y
    return x5, y5, h * ex, h * ey, k7


def hermite(y0, d0, y1, d1, s):
    """Cubic Hermite interpolant on [0, 1]; the slopes d0, d1 are already
    scaled by the step.  Takes floats or numpy arrays."""
    s2 = s * s
    s3 = s2 * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * d0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * d1)


def hermite_deriv(y0, d0, y1, d1, s):
    """Derivative of `hermite` with respect to s (divide by the step for d/dt)."""
    s2 = s * s
    return ((6 * s2 - 6 * s) * y0 + (3 * s2 - 4 * s + 1) * d0
            + (-6 * s2 + 6 * s) * y1 + (3 * s2 - 2 * s) * d1)


def hermite_roots(y0, d0, y1, d1, level, lo, hi, flo, steps):
    """Bisect hermite(y0, d0, y1, d1, s) = level on [lo, hi] in `steps`
    halvings, elementwise on floats or numpy arrays of brackets.

    flo is the interpolant minus level at lo; each bracket must hold a sign
    change.  Returns the midpoint of each final bracket.  Each element goes
    through the float operations of a scalar bisection loop, so its root is
    bit-identical to that loop's.  `cycledetect._solve_rows` calls it on the
    arrays of scouting's line hits and of the isolation probe's returns.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = hermite(y0, d0, y1, d1, mid) - level
        left = (flo < 0) != (fm < 0)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    return 0.5 * (lo + hi)


@dataclass
class Trajectory:
    """Accepted integration nodes plus node derivatives for dense output."""

    times: np.ndarray
    states: np.ndarray          # (n, 2)
    derivs: np.ndarray          # (n, 2), field values at the nodes
    terminated_by: str
    n_accepted: int = 0
    n_rejected: int = 0

    def _segment(self, t: float):
        """(node index, step, position in [0, 1]) of the segment holding t."""
        i = bisect.bisect_right(self.times, t) - 1
        i = min(max(i, 0), len(self.times) - 2)
        h = self.times[i + 1] - self.times[i]
        return i, h, ((t - self.times[i]) / h if h else 0.0)

    def _nodes(self, i, h, c):
        """Hermite data of coordinate c on segment i: values and scaled slopes."""
        return (self.states[i, c], h * self.derivs[i, c],
                self.states[i + 1, c], h * self.derivs[i + 1, c])

    def state_at(self, t: float) -> tuple[float, float]:
        """Cubic Hermite interpolation between the bracketing nodes."""
        i, h, s = self._segment(t)
        if h == 0:
            return float(self.states[i, 0]), float(self.states[i, 1])
        return hermite(*self._nodes(i, h, 0), s), hermite(*self._nodes(i, h, 1), s)


def _initial_step(f, x, y):
    vx, vy = f(x, y)
    speed = math.hypot(vx, vy)
    if speed == 0.0:
        return 1e-6
    return max(min(0.01 * (1.0 + math.hypot(x, y)) / speed, 1.0), 1e-8)


def integrate(
    v: VectorField,
    x0: tuple[float, float],
    t_max: float,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    *,
    direction: float = 1.0,
    equilibrium_tol: float = 1e-12,
    h_max: float = math.inf,
    max_steps: int = 1_000_000,
) -> Trajectory:
    """Integrate dx/dt = direction * V(x) from x0 for up to t_max time units.

    Stops at t_max, on leaving the inflated search box, when the field norm
    drops below equilibrium_tol, or when the step size underflows.  Times in
    the result are nonnegative and strictly increasing regardless of
    direction.
    """
    if rtol <= 0 or atol <= 0 or t_max <= 0:
        raise ValueError("rtol, atol and t_max must be positive")
    peval, qeval = v.p.eval, v.q.eval

    def f(x: float, y: float) -> tuple[float, float]:
        return direction * peval(x, y), direction * qeval(x, y)

    bx0, bx1, by0, by1 = v.box.inflate(BOX_INFLATION)
    x, y = float(x0[0]), float(x0[1])
    t = 0.0
    k1 = f(x, y)
    times = [0.0]
    states = [(x, y)]
    derivs = [k1]
    reason = T_END
    h = min(_initial_step(f, x, y), h_max, t_max)
    err_prev = 1.0
    n_acc = 0
    n_rej = 0
    safety = 0.9
    while t < t_max:
        h = min(h, t_max - t)
        if h < 1e-12:
            reason = STEP_UNDERFLOW
            break
        x5, y5, ex, ey, k7 = rk_step(f, x, y, h, k1)
        if not (math.isfinite(x5) and math.isfinite(y5)):
            h *= 0.25
            n_rej += 1
            continue
        sx = atol + rtol * max(abs(x), abs(x5))
        sy = atol + rtol * max(abs(y), abs(y5))
        err = math.sqrt(0.5 * ((ex / sx) ** 2 + (ey / sy) ** 2))
        if err <= 1.0:
            t += h
            x, y = x5, y5
            k1 = k7
            times.append(t)
            states.append((x, y))
            derivs.append(k1)
            n_acc += 1
            if not (bx0 <= x <= bx1 and by0 <= y <= by1):
                reason = BOX_EXIT
                break
            if math.hypot(*k1) < equilibrium_tol:
                reason = EQUILIBRIUM
                break
            if n_acc + n_rej >= max_steps:
                reason = STEP_UNDERFLOW
                break
            # PI controller (accepted): use current and previous error; err is
            # floored as in scouting, since a step can integrate V exactly
            fac = safety * max(err, 1e-16) ** (-0.7 / ORDER) * err_prev ** (0.4 / ORDER)
            err_prev = max(err, 1e-10)
            h = min(h * min(5.0, max(0.2, fac)), h_max)
        else:
            n_rej += 1
            if n_acc + n_rej >= max_steps:
                reason = STEP_UNDERFLOW
                break
            fac = safety * err ** (-1.0 / ORDER)
            h *= min(1.0, max(0.2, fac))
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        derivs=np.array(derivs),
        terminated_by=reason,
        n_accepted=n_acc,
        n_rejected=n_rej,
    )


__all__ = [
    "BOX_EXIT",
    "DP_A",
    "DP_E",
    "EQUILIBRIUM",
    "STEP_UNDERFLOW",
    "T_END",
    "Trajectory",
    "integrate",
    "rk_step",
]
