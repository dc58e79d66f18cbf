"""Adaptive Runge-Kutta integration of planar polynomial fields.

Embedded Dormand-Prince 5(4) pair with PI step-size control, first-same-as-last
stage reuse, and cubic Hermite dense output on every accepted step.

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
from dataclasses import dataclass, field

import numpy as np

from .polyalg import VectorField

# Butcher tableau (exact rationals kept as float literals of exact fractions)
DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# fifth-order weights minus the embedded fourth-order weights
DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

ORDER = 5

T_END = "t_end"
BOX_EXIT = "box_exit"
EQUILIBRIUM = "equilibrium"
STEP_UNDERFLOW = "step_underflow"


def rk_step(f, x: float, y: float, h: float, k1=None):
    """One Dormand-Prince step from (x, y) with step h.

    Returns (x5, y5, err_x, err_y, k7) where k7 can seed the next step.
    """
    if k1 is None:
        k1 = f(x, y)
    ks = [k1]
    for s in range(1, 7):
        ax = x
        ay = y
        row = DP_A[s]
        for a, k in zip(row, ks):
            ax += h * a * k[0]
            ay += h * a * k[1]
        ks.append(f(ax, ay))
    x5 = x
    y5 = y
    ex = 0.0
    ey = 0.0
    for b, e, k in zip(DP_B5, DP_E, ks):
        x5 += h * b * k[0]
        y5 += h * b * k[1]
        ex += h * e * k[0]
        ey += h * e * k[1]
    return x5, y5, ex, ey, ks[6]


@dataclass
class Trajectory:
    """Accepted integration nodes plus node derivatives for dense output."""

    times: np.ndarray
    states: np.ndarray          # (n, 2)
    derivs: np.ndarray          # (n, 2), field values at the nodes
    terminated_by: str
    n_accepted: int = 0
    n_rejected: int = 0

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def _segment(self, t: float) -> int:
        i = bisect.bisect_right(self.times, t) - 1
        return min(max(i, 0), len(self.times) - 2)

    def state_at(self, t: float) -> tuple[float, float]:
        """Cubic Hermite interpolation between the bracketing nodes."""
        i = self._segment(t)
        return _hermite(self.times[i], self.times[i + 1],
                        self.states[i], self.states[i + 1],
                        self.derivs[i], self.derivs[i + 1], t)

    def deriv_at(self, t: float) -> tuple[float, float]:
        i = self._segment(t)
        return _hermite_deriv(self.times[i], self.times[i + 1],
                              self.states[i], self.states[i + 1],
                              self.derivs[i], self.derivs[i + 1], t)


def _hermite(t0, t1, x0, x1, d0, d1, t):
    h = t1 - t0
    if h == 0:
        return float(x0[0]), float(x0[1])
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return (
        h00 * x0[0] + h * h10 * d0[0] + h01 * x1[0] + h * h11 * d1[0],
        h00 * x0[1] + h * h10 * d0[1] + h01 * x1[1] + h * h11 * d1[1],
    )


def _hermite_deriv(t0, t1, x0, x1, d0, d1, t):
    h = t1 - t0
    if h == 0:
        return float(d0[0]), float(d0[1])
    s = (t - t0) / h
    g00 = 6 * s * (s - 1) / h
    g10 = (1 - s) * (1 - 3 * s)
    g01 = -g00
    g11 = s * (3 * s - 2)
    return (
        g00 * x0[0] + g10 * d0[0] + g01 * x1[0] + g11 * d1[0],
        g00 * x0[1] + g10 * d0[1] + g01 * x1[1] + g11 * d1[1],
    )


def _initial_step(f, x, y, rtol, atol):
    vx, vy = f(x, y)
    scale = atol + rtol * max(abs(x), abs(y), 1.0)
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
    box_inflation: float = 1.5,
    h_max: float = math.inf,
    h_min: float = 1e-12,
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

    bx0, bx1, by0, by1 = v.box.inflate(box_inflation)
    x, y = float(x0[0]), float(x0[1])
    t = 0.0
    k1 = f(x, y)
    times = [0.0]
    states = [(x, y)]
    derivs = [k1]
    reason = T_END
    h = min(_initial_step(f, x, y, rtol, atol), h_max, t_max)
    err_prev = 1.0
    n_acc = 0
    n_rej = 0
    safety = 0.9
    while t < t_max:
        h = min(h, t_max - t)
        if h < h_min:
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
            # PI controller (accepted): use current and previous error
            fac = safety * err ** (-0.7 / ORDER) * err_prev ** (0.4 / ORDER)
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


@dataclass(frozen=True)
class Section:
    """Oriented transversal segment: {anchor + u * tangent, |u| <= halfwidth}."""

    anchor: tuple[float, float]
    normal: tuple[float, float]
    halfwidth: float

    def __post_init__(self):
        n = math.hypot(*self.normal)
        if not math.isclose(n, 1.0, rel_tol=1e-9):
            raise ValueError("normal must be a unit vector")
        if self.halfwidth <= 0:
            raise ValueError("halfwidth must be positive")

    @property
    def tangent(self) -> tuple[float, float]:
        return (-self.normal[1], self.normal[0])

    def signed_distance(self, x: float, y: float) -> float:
        return (x - self.anchor[0]) * self.normal[0] + (y - self.anchor[1]) * self.normal[1]

    def offset(self, x: float, y: float) -> float:
        tx, ty = self.tangent
        return (x - self.anchor[0]) * tx + (y - self.anchor[1]) * ty


@dataclass(frozen=True)
class SectionCrossing:
    t: float
    state: tuple[float, float]
    u: float


def section_crossings(
    v: VectorField,
    traj: Trajectory,
    section: Section,
    t_tol: float = 1e-10,
    direction: float = 1.0,
) -> list[SectionCrossing]:
    """All transversal crossings of the section in the positive normal
    direction, localized to t_tol by bisection on the dense output."""
    out: list[SectionCrossing] = []
    times = traj.times
    n = len(times)

    def sval(t: float) -> float:
        sx, sy = traj.state_at(t)
        return section.signed_distance(sx, sy)

    for i in range(n - 1):
        t0, t1 = float(times[i]), float(times[i + 1])
        if t1 <= t0:
            continue
        # s(t) is cubic along a Hermite segment: sample enough to bracket
        samples = np.linspace(t0, t1, 5)
        vals = [sval(t) for t in samples]
        for a, b, fa, fb in zip(samples, samples[1:], vals, vals[1:]):
            if fa == 0.0 and i == 0 and a == times[0]:
                continue  # departure exactly on the section
            if fa * fb > 0.0 or (fa == 0.0 and fb == 0.0):
                continue
            lo, hi = float(a), float(b)
            flo = fa
            while hi - lo > t_tol:
                mid = 0.5 * (lo + hi)
                fm = sval(mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo = mid
                    flo = fm
            tc = 0.5 * (lo + hi)
            cx, cy = traj.state_at(tc)
            dx, dy = traj.deriv_at(tc)
            sdot = direction * (dx * section.normal[0] + dy * section.normal[1])
            if sdot <= 0.0:
                continue  # wrong direction or tangential
            u = section.offset(cx, cy)
            if abs(u) <= section.halfwidth:
                out.append(SectionCrossing(t=tc, state=(cx, cy), u=u))
    return out


def trajectory_to_csv(traj: Trajectory, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "y"])
        for t, (x, y) in zip(traj.times, traj.states):
            w.writerow([repr(float(t)), repr(float(x)), repr(float(y))])


__all__ = [
    "BOX_EXIT",
    "DP_A",
    "DP_B5",
    "DP_C",
    "DP_E",
    "EQUILIBRIUM",
    "Section",
    "SectionCrossing",
    "STEP_UNDERFLOW",
    "T_END",
    "Trajectory",
    "integrate",
    "rk_step",
    "section_crossings",
    "trajectory_to_csv",
]
