"""The interval certificates: what the pipeline proves instead of sampling.

Each certificate is built on critfind's interval primitives, and each
starts from a zero that critfind proved: `CriticalPoint.certified` says that
interval Newton showed its enclosure holds exactly one zero, so no
certificate here runs that test again.

- `certify_single_loop` proves l = 1 at a zero p: a regular interval
  Jacobian on a square around p, and a lower bound of ||V - V(p)|| on a box
  cover of the circle inscribed in it.  `analysis.run` sweeps only the
  points it leaves undecided.
- `sink_basins` gives the certified basin disks of sinks, sublevel sets of
  a quadratic Lyapunov function, at which scouting stops a seed.
- `no_cycle_certificate` proves that no limit cycle lies where detection
  looks, by the divergence (Bendixson-Dulac) or by index theory (every
  zero there a certified saddle).

The steps they share are one helper each: `_squares`, the outward-rounded
squares [p +- r]^2 for the halvings r = r0 2^-k, k = 0 .. _HALVINGS, that
reach past a zero's enclosure; and `_guarded`, which runs a certificate with
numpy's overflow warnings off and takes an enclosure that leaves the float
range (CritFindError) for no certificate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import odeflow
from .critfind import (
    CritFindError,
    circle_covers,
    field_enclosure,
    find_critical_points,
    interval_jacobian,
    regular,
)
from .polyalg import Box, IntervalBoxes, VectorField, ia_add, ia_mul, ia_sub, interval_eval

# the squares around a zero have the radii r0 2^-k, k = 0 .. _HALVINGS
_HALVINGS = 12


def _guarded(certificate):
    """certificate run with numpy's overflow warnings off; None where an
    enclosure leaves the float range, since such a box proves nothing."""
    @functools.wraps(certificate)
    def run(*args):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return certificate(*args)
        except CritFindError:
            return None
    return run


def _squares(location, r0: float, reach: float):
    """(radii, squares): the radii r = r0 2^-k, k = 0 .. _HALVINGS, above
    reach, largest first, and the squares [p +- r]^2 around p = location,
    rounded outward."""
    radii = r0 * 0.5 ** np.arange(_HALVINGS + 1)
    radii = radii[radii > reach]
    return radii, IntervalBoxes.around(location[0], location[1], radii)


# ---------------------------------------------------------------------------
# the single loop


@_guarded
def certify_single_loop(v: VectorField, cp, delta: float) -> tuple[float, float] | None:
    """(r, eta_c) such that for every 0 < eta < eta_c the fiber
    {x : ||V(x) - c|| = eta} in the disc D of radius r around the critical
    point's location p is one closed loop, with c = V(p) as `milnorfiber`
    evaluates it; None where this argument does not decide the point.

    - Existence: critfind proved that cp's enclosure holds one zero z
      (`cp.certified`).
    - Injectivity: for the largest r = delta * 2^-k (`_squares`) whose
      square K = [p +- r]^2 has a regular interval Jacobian [J](K)
      (`critfind.regular`), V is injective on K.  D must hold the
      enclosure.
    - Eta bound: eta_c is an outward-rounded lower bound of ||V - c|| on
      a box cover of the circle dD (`_circle_eta_bound`), and |c| < eta_c.

    V maps D homeomorphically onto a closed disc bounded by V(dD).  The
    open disc B(c, eta_c) misses V(dD) and holds V(z) = 0 with z inside D,
    so it lies in V(D) and each eta-circle around c has one preimage in D,
    a Jordan curve.  l is 1 for every radius below the Milnor radius, so D
    decides the point.  A point that no radius certifies is left to the
    sweep, and so is one whose enclosures leave the float range.
    """
    if not cp.certified:
        return None
    px, py = float(cp.x), float(cp.y)
    c = (v.p.eval(px, py), v.q.eval(px, py))
    xlo, xhi, ylo, yhi = cp.enclosure
    # the enclosure's farthest corner from p, rounded up generously
    reach = math.hypot(max(px - xlo, xhi - px), max(py - ylo, yhi - py)) * 1.001
    radii, squares = _squares((px, py), delta, reach)
    _, ok = regular(interval_jacobian(v, squares), squares)
    for r in radii[ok].tolist():
        eta_c = _circle_eta_bound(v, (px, py), c, r)
        if eta_c > math.hypot(*c) * (1.0 + 2.0 ** -40):
            return r, eta_c
    return None


def _circle_eta_bound(v: VectorField, location, c, r: float) -> float:
    """A lower bound of ||V - c|| on the circle of radius r around location,
    or 0 where none is found.

    On each box of a cover of the circle (`critfind.circle_covers`), the
    mean-value enclosures of P - c1 and Q - c2, rounded outward, bound
    ||V - c|| from below.  The cover doubles while that bound is below half
    the smallest ||V - c|| at the box centres; the last cover's bound is
    taken.
    """
    for mx, my, arcs in circle_covers(location, r):
        low = []
        for (lo, hi), ck in zip(field_enclosure(v, arcs), c):
            lo, hi = np.nextafter(lo - ck, -np.inf), np.nextafter(hi - ck, np.inf)
            mig = np.where((lo <= 0.0) & (0.0 <= hi), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
            low.append(np.nextafter(mig * mig, -np.inf))
        square = np.maximum(np.nextafter(low[0] + low[1], -np.inf), 0.0)
        eta_c = max(float(np.nextafter(np.sqrt(square), -np.inf).min()), 0.0)
        seen = float(np.hypot(v.p.eval_grid(mx, my) - c[0], v.q.eval_grid(mx, my) - c[1]).min())
        if eta_c >= 0.5 * seen:
            break
    return eta_c


# ---------------------------------------------------------------------------
# sink basins


@dataclass(frozen=True)
class _Basin:
    """A certified basin disk of a sink (`_basin`): every orbit that enters
    {L <= level}, with L = s11 dx^2 + 2 s12 dx dy + s22 dy^2 and (dx, dy)
    the offset from the float point (x, y), stays in a disk around the sink
    on which a quadratic Lyapunov function decreases, and tends to the
    sink.  It holds for the flow of time_sign V only."""

    x: float
    y: float
    s11: float
    s12: float
    s22: float
    level: float
    time_sign: float

    def holds(self, xx: np.ndarray, yy: np.ndarray) -> np.ndarray:
        dx, dy = xx - self.x, yy - self.y
        return self.s11 * dx * dx + 2.0 * self.s12 * dx * dy + self.s22 * dy * dy <= self.level


def _lyapunov(a: float, b: float, c: float, d: float):
    """(s11, s12, s22): the S with A^T S + S A = -I for A = [[a, b], [c, d]]
    with trace t < 0 and determinant D > 0, in closed form:
    S = (D I + adj(A)^T adj(A)) / (-2 t D)."""
    t, det = a + d, a * d - b * c
    k = -2.0 * t * det
    return (det + c * c + d * d) / k, -(a * c + b * d) / k, (det + a * a + b * b) / k


def _negative_definite(s, jac, time_sign: float):
    """Per box: is S A + A^T S negative definite for every A in time_sign [J],
    by interval arithmetic?  Its diagonal must be < 0 and its determinant
    > 0, each entry enclosed on its own, which is conservative."""
    s11, s12, s22 = ((e, e) for e in s)
    a, b, c, d = jac if time_sign > 0 else [(-hi, -lo) for lo, hi in jac]
    m11 = ia_add(ia_mul(s11, a), ia_mul(s12, c))
    m22 = ia_add(ia_mul(s12, b), ia_mul(s22, d))
    m12 = ia_add(ia_add(ia_mul(s11, b), ia_mul(s12, d)), ia_add(ia_mul(s12, a), ia_mul(s22, c)))
    m11, m22 = (2.0 * m11[0], 2.0 * m11[1]), (2.0 * m22[0], 2.0 * m22[1])
    det = ia_sub(ia_mul(m11, m22), ia_mul(m12, m12))
    return (m11[1] < 0.0) & (m22[1] < 0.0) & (det[0] > 0.0)


@_guarded
def _basin(v: VectorField, cp, others, time_sign: float) -> _Basin | None:
    """cp's certified basin disk in the direction time_sign, or None.

    Only a hyperbolic sink of time_sign V qualifies: A = time_sign J(p) at
    the float point p has trace < 0 and determinant > 0, tested before S is
    solved (`_lyapunov`), since the solve is singular at a centre or a
    saddle.  critfind must have proved that cp's enclosure E holds the one
    zero z (`cp.certified`).  Then the square K = [p +- r]^2 is halved from
    r0, half the distance to the nearest other zero (or the box's
    half-width), until it holds E and S A + A^T S is negative definite for
    every A in time_sign [J](K) (`_negative_definite`).  Since
    V(x) = M (x - z) with M, the mean of J
    along the segment, in [J](K), L_z(x) = (x - z)^T S (x - z) then
    decreases along every orbit in K other than z, so each sublevel set of
    L_z inside K is positively invariant and every orbit in it tends to z
    (Khalil, Nonlinear Systems, 4.3).  The largest such ellipse, for every z
    in E, has S-radius rho = (r - e) sqrt(det S / max(s11, s22)) with e the
    reach of E from p.  z is known only to E, so the stop level on L at p
    is (rho - e sqrt(s11 + 2 |s12| + s22))^2, shrunk by a relative margin
    that covers the float rounding of L and of the level itself.
    """
    if not cp.certified:
        return None
    (a, b), (c, d) = cp.jacobian
    a, b, c, d = time_sign * a, time_sign * b, time_sign * c, time_sign * d
    t, det = a + d, a * d - b * c
    # a hyperbolic sink, with t det clear of underflow so that S is defined
    if not (t < 0.0 < det and t * det < 0.0):
        return None
    s = s11, s12, s22 = _lyapunov(a, b, c, d)
    det_s = s11 * s22 - s12 * s12
    if not (s11 > 0.0 and 0.0 < det_s < math.inf):
        return None
    # |s11 dx^2| + |2 s12 dx dy| + |s22 dy^2| <= 2 / (1 - q) L, so the float
    # rounding of L, and of the level below, is far inside this margin
    q = abs(s12) / math.sqrt(s11 * s22)
    if not q < 0.99:
        return None
    margin = 2e-9 / (1.0 - q)
    px, py = cp.x, cp.y
    xlo, xhi, ylo, yhi = cp.enclosure
    e = max(px - xlo, xhi - px, py - ylo, yhi - py) * 1.001
    x0, x1, y0, y1 = v.box.floats()
    r0 = 0.5 * min([x1 - x0, y1 - y0] + [math.hypot(px - ox, py - oy) for ox, oy in others])
    radii, squares = _squares((px, py), r0, e)
    if not radii.size:
        return None
    ok = _negative_definite(s, interval_jacobian(v, squares), time_sign)
    if not ok.any():
        return None
    r = float(radii[np.argmax(ok)])
    rho = (r - e) * math.sqrt(det_s / max(s11, s22)) - e * math.sqrt(s11 + 2.0 * abs(s12) + s22)
    if not rho > 0.0:
        return None
    return _Basin(px, py, s11, s12, s22, rho * rho * (1.0 - margin), time_sign)


def sink_basins(v: VectorField, cps, time_sign: float) -> tuple[_Basin, ...]:
    """The certified basin disks (`_basin`) of the points of cps that have
    one, for the flow of time_sign V."""
    locs = [(cp.x, cp.y) for cp in cps]
    found = (_basin(v, cp, locs[:i] + locs[i + 1:], time_sign) for i, cp in enumerate(cps))
    return tuple(b for b in found if b is not None)


# ---------------------------------------------------------------------------
# no limit cycle


def no_cycle_certificate(v: VectorField, cps) -> str | None:
    """Why v can have no limit cycle where detection looks, or None: the
    divergence rule (`_divergence_rule`), else the index rule
    (`_index_rule`) on the zeros cps that critfind found in v.box."""
    return _divergence_rule(v) or _index_rule(v, cps)


def _divergence_rule(v: VectorField) -> str | None:
    """Why v can have no limit cycle where detection looks, by the
    divergence, or None.

    Two cases.  div V is the zero polynomial: the flow preserves area, so no
    periodic orbit is isolated.  Or the interval enclosure of div V over
    box.inflate(odeflow.BOX_INFLATION), the rectangle that scouting and
    refinement stay in, lies strictly on one side of 0: by Bendixson-Dulac no
    closed orbit lies in that rectangle.  An enclosure that touches 0
    certifies nothing, nor does one with a NaN endpoint (overflow).
    """
    div = v.divergence()
    x0, x1, y0, y1 = v.box.inflate(odeflow.BOX_INFLATION)
    where = f"[{x0:g}, {x1:g}] x [{y0:g}, {y1:g}]"
    if div.is_zero():
        return (f"div V is identically 0 on {where}: the flow preserves area, so no "
                f"periodic orbit is isolated")
    (lo,), (hi,) = interval_eval(div, IntervalBoxes([x0], [x1], [y0], [y1]))
    if lo > 0.0 or hi < 0.0:
        return (f"div V lies in [{lo:.6g}, {hi:.6g}] on {where}, so no closed "
                f"orbit lies there (Bendixson-Dulac)")
    return None


@_guarded
def _index_rule(v: VectorField, cps) -> str | None:
    """Why v has no closed orbit in the scouting rectangle R =
    box.inflate(odeflow.BOX_INFLATION) by index theory, or None.

    A closed orbit in the convex R encloses zeros whose indices sum to +1
    (Perko, Differential Equations and Dynamical Systems, 3.12).  So if
    every zero in R is a certified saddle (critfind proved its enclosure,
    `cp.certified`, and its index is -1), no subset sums to +1 and R holds
    no closed orbit.  The points cps found in the box are tested first;
    only when all pass does critfind run once more on R.  A box with no
    zero gives None: detection returns no cycle there anyway.  So does a
    search on R that raises.
    """
    if not cps:
        return None
    x0, x1, y0, y1 = v.box.inflate(odeflow.BOX_INFLATION)
    if not all(cp.certified and cp.index == -1 for cp in cps):
        return None
    wide = VectorField(v.p, v.q, v.name, Box.make(x0, x1, y0, y1))
    if not all(cp.certified and cp.index == -1 for cp in find_critical_points(wide)):
        return None
    return (f"every zero of V in [{x0:g}, {x1:g}] x [{y0:g}, {y1:g}] is a saddle "
            f"(interval Newton, det [J] < 0 on its enclosure), so no closed orbit lies "
            f"there: one would enclose zeros of index sum +1")


__all__ = [
    "certify_single_loop",
    "no_cycle_certificate",
    "sink_basins",
]
