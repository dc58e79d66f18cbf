"""Empirical limit-cycle detection for planar polynomial fields.

Strategy: seed trajectories on rays around each equilibrium and on a coarse
box grid, integrate them forward and backward in one vectorized adaptive
stepper loop, and watch where they cross the horizontal line through each
equilibrium.  A crossing sequence that converges geometrically marks a
candidate periodic orbit; candidates are refined by Newton shooting on the
return map (anchor offset and period as unknowns), classified by the
return-map derivative exp(lambda), lambda the integral of div V once around
the refined orbit, deduplicated by Hausdorff distance, and tagged with the
equilibria they enclose via winding numbers.

Repelling cycles are found by the backward pass (they attract in reversed
time) and refined in that direction; lambda is the same integral either way.

Scouting brackets each line crossing inside one step and records it as a
pending row.  Once there are at least as many pending rows as live seeds,
one array bisection (`odeflow.hermite_roots`) solves them all, and each
crossing takes its family key, direction and side of the anchor, from its
root.  After each solve, a seed stops at the first crossing at which one of
its families has settled: four crossings or more, the last two within the
floor of `_settled`.  Its families are cut at that crossing, so the result
does not depend on when a solve ran, and `_analyze_family` judges each
settled family as a candidate (floor branch) or a closed-orbit band (stall
test).  A seed also stops once a step ends in the certified basin disk of a
sink of its own time direction (`certify.sink_basins`), from which it can
only converge to the sink.  Seeds that do neither run to t_horizon or
_MAX_RETURNS.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import odeflow
from .certify import sink_basins
from .odeflow import (Section, T_END, hermite, hermite_deriv, hermite_roots, integrate, rk_step,
                      section_crossings)
from .polyalg import Poly2, VectorField

log = logging.getLogger(__name__)


class PointOnCycle(RuntimeError):
    """Winding number undefined: the point sits on the polyline."""


@dataclass(frozen=True)
class DetectConfig:
    rays: int = 16
    radii: int = 12
    grid_seeds: int = 20
    t_horizon: float = 200.0
    refine_rtol: float = 1e-10
    refine_atol: float = 1e-13


@dataclass(eq=False)
class LimitCycle:
    points: np.ndarray  # (n, 2), one traversal, first vertex not repeated
    period: float
    stability: str  # attracting | repelling | semi_stable
    return_derivative: float  # exp(return_exponent); inf above float range
    return_exponent: float    # lambda, the integral of div V over one period
    enclosed_cp_ids: tuple[int, ...]
    closure_residual: float

    def mean_radius(self) -> float:
        return _mean_radius(self.points)


def _section_point(sec: Section, u: float) -> tuple[float, float]:
    tx, ty = sec.tangent
    return (sec.anchor[0] + u * tx, sec.anchor[1] + u * ty)


def _mean_radius(pts: np.ndarray) -> float:
    c = pts.mean(axis=0)
    return float(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]).mean())


def _close_loop(pts: np.ndarray) -> np.ndarray:
    if pts[0, 0] == pts[-1, 0] and pts[0, 1] == pts[-1, 1]:
        return pts
    return np.vstack([pts, pts[:1]])


# points per block of `_directed_hausdorff`: its temporaries are a block's
# rows times the polyline's vertices
_HAUSDORFF_ROWS = 64


def _directed_hausdorff(pts: np.ndarray, poly: np.ndarray) -> float:
    """Largest distance from a point of pts to the polyline poly.

    A first pass, in blocks of _HAUSDORFF_ROWS points, finds each point's
    nearest vertex; the squared distance to the nearer of the vertex's two
    segments is an upper bound ub on the point's squared distance to poly.
    Then the points, by decreasing ub and a block at a time, get their exact
    squared distance, the minimum over all segments, until the next ub is
    no larger than the largest exact value so far: no point after it can
    raise the maximum (the early break of Taha and Hanbury, IEEE TPAMI
    37(11), 2015).  A NaN ub, from a non-finite point or vertex, sorts first
    and is never skipped.

    Each point-segment value takes the float operations of the dense
    pts x segments x 2 computation, a coordinate at a time; only the sign
    of a zero projection parameter can differ, and the squares drop it.  So
    the result is the dense computation's float.
    """
    ax, ay = poly[:-1, 0], poly[:-1, 1]
    dx, dy = poly[1:, 0] - ax, poly[1:, 1] - ay
    l2 = np.maximum(dx * dx + dy * dy, 1e-300)

    def dist2(px, py, k):
        """Squared distances of the points (px, py) to the segments k."""
        t = np.clip(((px - ax[k]) * dx[k] + (py - ay[k]) * dy[k]) / l2[k], 0.0, 1.0)
        return (px - (ax[k] + t * dx[k])) ** 2 + (py - (ay[k] + t * dy[k])) ** 2

    last = len(ax) - 1
    ub = np.empty(len(pts))
    for s in range(0, len(pts), _HAUSDORFF_ROWS):
        blk = pts[s:s + _HAUSDORFF_ROWS]
        near = ((blk[:, :1] - poly[:, 0]) ** 2 + (blk[:, 1:] - poly[:, 1]) ** 2).argmin(axis=1)
        px, py = blk[:, 0], blk[:, 1]
        ub[s:s + _HAUSDORFF_ROWS] = np.minimum(dist2(px, py, np.maximum(near - 1, 0)),
                                               dist2(px, py, np.minimum(near, last)))
    order = np.argsort(np.where(np.isnan(ub), -np.inf, -ub))
    worst = -np.inf
    for s in range(0, len(pts), _HAUSDORFF_ROWS):
        rows = order[s:s + _HAUSDORFF_ROWS]
        rows = rows[~(ub[rows] <= worst)]
        if not rows.size:
            break
        exact = dist2(pts[rows, :1], pts[rows, 1:], slice(None)).min(axis=1)
        worst = np.max(exact, initial=worst)
    return float(np.sqrt(worst))


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric point-to-segment Hausdorff distance of two closed polylines."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    ca, cb = _close_loop(a), _close_loop(b)
    return max(_directed_hausdorff(a, cb), _directed_hausdorff(b, ca))


def winding_number(pts: np.ndarray, p, tol: float = 1e-9) -> int:
    """Winding of a closed polyline around p by angle accumulation."""
    if _directed_hausdorff(np.asarray([p], float), _close_loop(pts)) <= tol:
        raise PointOnCycle(f"point {p} lies on the polyline")
    ang = np.arctan2(pts[:, 1] - p[1], pts[:, 0] - p[0])
    d = np.diff(np.append(ang, ang[0]))
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(d.sum() / (2.0 * np.pi)))


# ---------------------------------------------------------------------------
# scouting


def _make_seeds(v: VectorField, cps, cfg: DetectConfig) -> np.ndarray:
    x0, x1, y0, y1 = v.box.floats()
    chunks = []
    for cp in cps:
        r_hi = 0.95 * min(cp.x - x0, x1 - cp.x, cp.y - y0, y1 - cp.y)
        if r_hi <= 1e-9:
            continue
        radii = np.geomspace(max(0.05 * r_hi, 1e-6), r_hi, cfg.radii)
        ang = np.linspace(0.0, 2.0 * math.pi, cfg.rays, endpoint=False)
        rr, aa = np.meshgrid(radii, ang)
        chunks.append(np.column_stack([(cp.x + rr * np.cos(aa)).ravel(),
                                       (cp.y + rr * np.sin(aa)).ravel()]))
    g = cfg.grid_seeds
    gx = x0 + (x1 - x0) * (np.arange(g) + 0.5) / g
    gy = y0 + (y1 - y0) * (np.arange(g) + 0.5) / g
    mx, my = np.meshgrid(gx, gy)
    chunks.append(np.column_stack([mx.ravel(), my.ravel()]))
    seeds = np.concatenate(chunks, axis=0)
    for cp in cps:
        seeds = seeds[np.hypot(seeds[:, 0] - cp.x, seeds[:, 1] - cp.y) > 1e-8]
    return seeds


_SCOUT_RTOL, _SCOUT_ATOL = 1e-6, 1e-9  # scouting's step tolerances
_MAX_RETURNS = 48  # crossings of one family that stop a seed


def _scout(v: VectorField, seeds: np.ndarray, sections, cfg: DetectConfig, basins=()):
    """Integrate all seeds forward and backward at once, logging section-line
    crossings.

    Returns (forward, backward): per direction, one dict per seed mapping
    (section_index, crossing_direction, positive_side) to the time-ordered
    list of (t, u) crossing events.

    Each seed runs twice in one array loop, as a trajectory of V and as one
    of -V: the field value of each trajectory is multiplied by its time sign
    +-1.0, which is exact, and every other operation is elementwise.  So each
    trajectory takes the same float steps as in a loop of its own direction,
    at the same loop step, and the loop runs max(forward, backward) steps
    instead of their sum.

    A step that crosses a section line brackets the crossing on its y
    Hermite and stores the bracket as a pending row, tagged with its loop
    step, trajectory and section.  Once the pending rows are at least as
    many as the live trajectories, one `hermite_roots` call solves them all
    (`_solve_rows`), and `_stop_settled` files the kept crossings into
    their families and stops the trajectories that reached _MAX_RETURNS or
    settled.  A trajectory stops at the first crossing at which one of its
    families settles (`_settled`), and each of its families keeps only the
    crossings up to that time: after it the seed only repeats an orbit that
    `_analyze_family` has already judged.  Since every family is cut at that
    crossing, and a capped trajectory at the step of its cap, the result
    does not depend on when a check ran.  t_horizon and _MAX_RETURNS still
    stop the trajectories that never settle.

    A trajectory also stops, like one that hits an equilibrium, once an
    accepted step ends inside one of `basins` (`certify.sink_basins`) of its
    own time sign: from there it can only tend to that sink, so its families
    are cut to a prefix of what they would be without the basins.
    """
    m = len(seeds)
    fams: list[dict] = [dict() for _ in range(2 * m)]
    if m == 0:
        return [], []
    sign = np.repeat([1.0, -1.0], m)
    sa = sign   # the time signs of the trajectories that `field` evaluates

    def field(xx, yy):
        return sa * v.p.eval_grid(xx, yy), sa * v.q.eval_grid(xx, yy)

    bx0, bx1, by0, by1 = v.box.inflate(odeflow.BOX_INFLATION)
    levels = np.array([s.anchor[1] for s in sections])
    anchors = np.array([s.anchor[0] for s in sections])

    # the pending line hits: per step and section with a hit, the step, the
    # section and the block of its `_solve_rows` rows
    blocks: list = []
    n_rows = 0

    x = np.tile(seeds[:, 0].astype(float), 2)
    y = np.tile(seeds[:, 1].astype(float), 2)
    t = np.zeros(2 * m)
    h = np.full(2 * m, 1e-3)
    errp = np.ones(2 * m)
    k1x, k1y = field(x, y)
    active = np.hypot(k1x, k1y) > 1e-10

    def check():
        nonlocal n_rows
        if blocks:
            steps, secs, rows = zip(*blocks)
            sizes = [len(r) for r in rows]
            solved = _solve_rows(np.repeat(steps, sizes), np.repeat(secs, sizes),
                                 np.concatenate(rows), levels, anchors)
            active[_stop_settled(fams, solved)] = False
        blocks.clear()
        n_rows = 0

    with np.errstate(all="ignore"):
        for step in range(200_000):
            if not active.any():
                break
            idx = np.nonzero(active)[0]
            sa = sign[idx]
            xa, ya = x[idx], y[idx]
            ha = np.minimum(h[idx], cfg.t_horizon - t[idx])
            x5, y5, ex, ey, (k7x, k7y) = rk_step(field, xa, ya, ha, (k1x[idx], k1y[idx]))
            scx = _SCOUT_ATOL + _SCOUT_RTOL * np.maximum(np.abs(xa), np.abs(x5))
            scy = _SCOUT_ATOL + _SCOUT_RTOL * np.maximum(np.abs(ya), np.abs(y5))
            errn = np.sqrt(0.5 * ((ex / scx) ** 2 + (ey / scy) ** 2))
            good = np.isfinite(errn) & np.isfinite(x5) & np.isfinite(y5)
            errn = np.where(good, np.maximum(errn, 1e-16), 4.0)
            acc = errn <= 1.0
            fac = np.where(
                acc,
                np.clip(0.9 * errn ** -0.14 * errp[idx] ** 0.08, 0.2, 5.0),
                np.clip(0.9 * errn ** -0.2, 0.2, 0.9),
            )
            h[idx] = np.minimum(ha * fac, 5.0)

            if not acc.any():
                if (h[idx] < 1e-12).any():
                    active[idx[h[idx] < 1e-12]] = False
                continue
            gidx = idx[acc]
            ha_a = ha[acc]
            ya_a = ya[acc]
            x5_a, y5_a = x5[acc], y5[acc]
            k1y_a, k7y_a = k1y[gidx], k7y[acc]
            k1x_a, k7x_a = k1x[gidx], k7x[acc]
            xa_a = xa[acc]

            for si in range(len(sections)):
                w = np.nonzero((ya_a - levels[si] < 0) != (y5_a - levels[si] < 0))[0]
                if not w.size:
                    continue
                g = gidx[w]
                hh = ha_a[w]
                blocks.append((step, si, np.column_stack((
                    g, t[g], hh, ya_a[w], k1y_a[w] * hh, y5_a[w], k7y_a[w] * hh,
                    xa_a[w], k1x_a[w] * hh, x5_a[w], k7x_a[w] * hh))))
                n_rows += w.size

            x[gidx] = x5_a
            y[gidx] = y5_a
            t[gidx] += ha_a
            k1x[gidx] = k7x_a
            k1y[gidx] = k7y_a
            errp[gidx] = np.maximum(errn[acc], 1e-10)
            out = (
                (x5_a < bx0) | (x5_a > bx1) | (y5_a < by0) | (y5_a > by1)
                | ~np.isfinite(x5_a) | ~np.isfinite(y5_a)
            )
            caught = np.hypot(k7x_a, k7y_a) < 1e-10   # at an equilibrium or in a basin
            for b in basins:
                caught |= (sa[acc] == b.time_sign) & b.holds(x5_a, y5_a)
            tend = t[gidx] >= cfg.t_horizon - 1e-12
            dead = out | caught | tend
            if dead.any():
                active[gidx[dead]] = False
            if n_rows >= len(idx):
                check()

    check()
    return fams[:m], fams[m:]


def _solve_rows(step, section, rows, levels, anchors) -> list:
    """The crossing of each pending line hit, by one `hermite_roots` bisection.

    Row k of rows, (seed, t0, h, y-Hermite data, x-Hermite data), is a hit
    at loop step step[k] on section section[k]: the step [t0, t0 + h]
    crosses y = levels[section], and the slopes are scaled by h; u is
    measured from anchors[section].  The per-hit rules of scouting then
    apply to the arrays.  A hit at t0 = 0 within 1e-12 of its start, where a
    seed starts on the section line, is dropped, as is one with |u| < 1e-12.
    The direction is the sign of the y slope at the root, or of y1 - y0
    where that slope is 0.  Returns (step, seed, key, (t, u)) for each kept
    row, in row order, with key = (section, direction, u > 0).
    """
    seed, t0, hh, y0, dy0, y1, dy1, x0, dx0, x1, dx1 = rows.T
    level, ax = levels[section], anchors[section]
    tau = hermite_roots(y0, dy0, y1, dy1, level, 0.0, 1.0, y0 - level, 45)
    tc = t0 + tau * hh
    u = -(hermite(x0, dx0, x1, dx1, tau) - ax)
    slope = hermite_deriv(y0, dy0, y1, dy1, tau)
    slope = np.where(slope == 0.0, y1 - y0, slope)
    keep = ~(((t0 == 0.0) & (tc - t0 < 1e-12)) | (np.abs(u) < 1e-12))
    cols = (step, seed.astype(int), section, np.where(slope > 0, 1, -1), u > 0, tc, u)
    return [(s, g, (i, dirc, side), (tt, uu))
            for s, g, i, dirc, side, tt, uu in zip(*(c[keep].tolist() for c in cols))]


def _stop_settled(fams, solved) -> list:
    """File the solved crossings into their families; cut capped and settled seeds.

    `solved` comes from `_solve_rows`, in row order, so each seed's
    crossings come in time order.  A family that reaches _MAX_RETURNS caps
    its seed at that loop step: the seed keeps its crossings from that step
    and drops those from later ones, since an unbatched loop would have
    stopped it after that step.  Every pending row is solved, so a seed's
    events are then complete up to its cap or its current time, and the
    earliest crossing at which one of the families that gained a crossing
    settles is the seed's first.  That seed's families keep the crossings up
    to it, and empty ones are dropped.  Returns the seeds that were capped or
    settled.
    """
    capped: dict = {}  # seed -> the loop step at which one of its families reached the cap
    fresh: dict = {}   # (seed, key) -> the family's length before this check
    for step, gi, key, event in solved:
        if gi in capped and step > capped[gi]:
            continue
        events = fams[gi].setdefault(key, [])
        fresh.setdefault((gi, key), len(events))
        events.append(event)
        if len(events) >= _MAX_RETURNS:
            capped[gi] = step
    stop: dict = {}
    for (gi, key), start in fresh.items():
        events = fams[gi][key]
        for k in range(max(start, 3), len(events)):
            if _settled(events[:k + 1]):
                stop[gi] = min(stop.get(gi, math.inf), events[k][0])
                break
    for gi, t_stop in stop.items():
        kept = ((key, [e for e in evs if e[0] <= t_stop]) for key, evs in fams[gi].items())
        fams[gi] = {key: evs for key, evs in kept if evs}
    return list(capped.keys() | stop.keys())


def _settled(events) -> bool:
    """Whether a crossing sequence has reached the scout measurement floor.

    At least four crossings, and the last two u differ by less than
    max(1e-9, 0.1 _SCOUT_RTOL) times max(1, max |u|).  This is the floor
    branch of `_analyze_family` and, at _STALL_TOL, its stall test too;
    scouting stops a seed at the first crossing where it holds.
    """
    if len(events) < 4:
        return False
    scale = max(1.0, max(abs(u) for _, u in events))
    return abs(events[-1][1] - events[-2][1]) < max(1e-9, 0.1 * _SCOUT_RTOL) * scale


_STALL_TOL = 1e-7  # largest relative step of a closed-orbit band
_CONV_TOL = 1e-3   # a difference ratio below 1 - _CONV_TOL converges


def _analyze_family(events):
    """Convergence test on one crossing sequence; (u_limit, period) or None.

    Sequences that sit still from the start are closed-orbit bands (centers)
    and yield nothing; genuine convergence either collapses to the scout
    measurement floor (`_settled`) after a real approach or shows a
    geometric difference ratio below 1 - _CONV_TOL, in which case the limit
    is Aitken-extrapolated.  The floor sits below the scouting tolerance
    rather than at machine epsilon: adaptive steps phase-lock onto the
    orbit, so the recorded crossings repeat with a coherent interpolation
    bias of that size.  Scouting cuts each seed's families at its first
    settled crossing, so a settled family ends there and is judged here by
    the floor branch or, if it never moved, by the stall test.
    Anything nominated here still has to survive Newton shooting and the
    isolation probe, which keep closed-orbit bands out of the results.
    """
    if len(events) < 4:
        return None
    us = np.array([u for _, u in events])
    ts = np.array([tt for tt, _ in events])
    scale = max(1.0, float(np.abs(us).max()))
    d = np.diff(us)
    ad = np.abs(d)
    if ad.max() < _STALL_TOL * scale:
        return None
    t_est = float(ts[-1] - ts[-2])
    if _settled(events):
        return float(us[-1]), t_est
    ratios = ad[1:] / np.maximum(ad[:-1], 1e-300)
    tail = ratios[-3:]
    if len(tail) >= 2 and np.all(tail < 1.0 - _CONV_TOL):
        denom = d[-1] - d[-2]
        u_star = float(us[-1] - d[-1] * d[-1] / denom) if denom != 0.0 else float(us[-1])
        return u_star, t_est
    return None


def _cluster(pool):
    groups: dict = {}
    for c in pool:
        groups.setdefault((c["sec"], c["dirc"], c["sign"], c["u"] > 0), []).append(c)
    reps = []
    for key in sorted(groups):
        items = sorted(groups[key], key=lambda c: c["u"])
        bunches = [[items[0]]]
        for a, b in zip(items, items[1:]):
            gap = max(0.02 * max(1.0, abs(b["u"])), 1e-3)
            if b["u"] - a["u"] > gap:
                bunches.append([])
            bunches[-1].append(b)
        for bunch in bunches:
            us = sorted(c["u"] for c in bunch)
            Ts = sorted(c["T"] for c in bunch)
            reps.append({
                "sec": key[0], "dirc": key[1], "sign": key[2],
                "u": us[len(us) // 2], "T": Ts[len(Ts) // 2], "support": len(bunch),
            })
    reps.sort(key=lambda r: (-r["support"], r["sec"], r["u"]))
    return reps


# ---------------------------------------------------------------------------
# refinement


def _flow_to(v, q, T, sgn, cfg):
    if not (T > 0):
        return None
    traj = integrate(v, q, T, rtol=cfg.refine_rtol, atol=cfg.refine_atol,
                     direction=sgn, equilibrium_tol=1e-14)
    if traj.terminated_by != T_END:
        return None
    return traj


def _first_return_u(v, sec, u, t_ref, dirc, cfg):
    q = _section_point(sec, u)
    traj = integrate(v, q, 3.0 * t_ref, rtol=cfg.refine_rtol, atol=cfg.refine_atol,
                     equilibrium_tol=1e-14)
    for c in section_crossings(traj, sec, direction=dirc):
        if c.t > 0.05 * t_ref:
            return float(c.u)
    return None


def _probe_semistable(v, sec, u_star, period, dirc_fwd, probe, cfg):
    trends = []
    for side in (1.0, -1.0):
        ucur = u_star + side * probe
        dist = probe
        for _ in range(4):
            r = _first_return_u(v, sec, ucur, period, dirc_fwd, cfg)
            if r is None:
                dist = math.inf
                break
            ucur = r
            dist = abs(ucur - u_star)
        if dist < 0.6 * probe:
            trends.append("conv")
        elif dist > 1.6 * probe:
            trends.append("div")
        else:
            trends.append("flat")
    pair = tuple(trends)
    if pair in (("conv", "div"), ("div", "conv")):
        return "semi_stable"
    if pair == ("conv", "conv"):
        return "attracting"
    if pair == ("div", "div"):
        return "repelling"
    return None


# three-point Gauss-Legendre nodes and weights on [0, 1]
_GL_NODES = (0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15))
_GL_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
_NEWTON_ITERS = 30       # Newton shooting iterations
_MIN_CYCLE_SIZE = 1e-3   # |u| below which a cycle is too small to keep
_ISOLATION_TOL = 1e-3    # |r - 1| within which the probe decides stability
_CYCLE_VERTICES = 512    # vertices of a cycle's polyline
_MAX_CANDIDATES = 12     # candidates refined, by support
_DEDUP_TOL = 1e-3        # relative Hausdorff distance of duplicate cycles


def _return_exponent(div: Poly2, traj) -> float:
    """Integral of div V along traj, by Gauss-Legendre on each Hermite segment.

    Around a periodic orbit of a planar field this is lambda with return-map
    derivative exp(lambda) (Perko, Differential Equations and Dynamical
    Systems, 3.4).  The orbit is the same set in either time direction, so a
    backward trajectory gives the same integral.
    """
    hs = np.diff(traj.times)
    sx, sy = traj.states[:, 0], traj.states[:, 1]
    dx, dy = hs * traj.derivs[:-1, 0], hs * traj.derivs[:-1, 1]
    ex, ey = hs * traj.derivs[1:, 0], hs * traj.derivs[1:, 1]
    xs = np.concatenate([hermite(sx[:-1], dx, sx[1:], ex, s) for s in _GL_NODES])
    ys = np.concatenate([hermite(sy[:-1], dy, sy[1:], ey, s) for s in _GL_NODES])
    weights = np.concatenate([w * hs for w in _GL_WEIGHTS])
    return float(np.dot(weights, div.eval_grid(xs, ys)))


def _refine_candidate(v: VectorField, div: Poly2, sections, cand, cfg: DetectConfig):
    sec = sections[cand["sec"]]
    sgn = cand["sign"]
    u = float(cand["u"])
    T = float(cand["T"])
    scale = max(1.0, abs(u))
    tol = 1e-9 * scale
    tx, ty = sec.tangent
    traj = None
    res = math.inf
    for _ in range(_NEWTON_ITERS):
        q = _section_point(sec, u)
        traj = _flow_to(v, q, T, sgn, cfg)
        if traj is None:
            return None
        ex, ey = traj.states[-1]
        gx, gy = float(ex - q[0]), float(ey - q[1])
        res = math.hypot(gx, gy)
        if res <= tol:
            break
        du = 1e-6 * scale
        traj2 = _flow_to(v, _section_point(sec, u + du), T, sgn, cfg)
        if traj2 is None:
            return None
        e2 = traj2.states[-1]
        j11 = (float(e2[0]) - float(ex)) / du - tx
        j21 = (float(e2[1]) - float(ey)) / du - ty
        fx, fy = v.eval(float(ex), float(ey))
        j12, j22 = sgn * fx, sgn * fy
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            return None
        step_u = (-j22 * gx + j12 * gy) / det
        step_t = (j21 * gx - j11 * gy) / det
        step_u = max(-0.2 * scale, min(0.2 * scale, step_u))
        step_t = max(-0.3 * T, min(0.3 * T, step_t))
        u += step_u
        T += step_t
        if T <= 0.01 * cand["T"] or T > 50.0 * cand["T"]:
            return None
    if res > 1e-8 or traj is None:
        log.debug("shooting left residual %.3e at u=%.6g, dropped", res, u)
        return None
    if abs(u) < _MIN_CYCLE_SIZE:
        return None

    q = _section_point(sec, u)
    fx, fy = v.eval(*q)
    wy = sgn * (fx * sec.normal[0] + fy * sec.normal[1])
    if wy == 0.0:
        return None
    dirc = 1 if wy > 0 else -1

    lam = _return_exponent(div, traj)
    try:
        r = math.exp(lam)
    except OverflowError:  # lam above log of the largest float, about 709.78
        r = math.inf

    if r < 1.0 - _ISOLATION_TOL:
        stability = "attracting"
    elif r > 1.0 + _ISOLATION_TOL:
        stability = "repelling"
    else:
        dirc_fwd = dirc if sgn > 0 else -dirc
        stability = _probe_semistable(v, sec, u, T, dirc_fwd, 1e-2 * scale, cfg)
        if stability is None:
            log.debug("candidate at u=%.6g not isolated, dropped", u)
            return None

    ts = np.linspace(0.0, T, _CYCLE_VERTICES, endpoint=False)
    pts = np.array([traj.state_at(tt) for tt in ts])
    if sgn < 0:
        pts = pts[::-1]
    area = 0.5 * float(
        np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
    )
    if area < 0:
        pts = pts[::-1]
    pts = np.roll(pts, -int(np.argmax(pts[:, 0])), axis=0)
    return {"points": pts, "period": float(T), "residual": float(res),
            "rprime": r, "lam": lam, "stability": stability}


def detect_limit_cycles(v: VectorField, cps, cfg: DetectConfig = DetectConfig()):
    """Find, refine, and classify limit cycles; sorted by mean radius."""
    cps = list(cps)
    if not cps:
        return []
    x0, x1, y0, y1 = v.box.floats()
    diag = math.hypot(x1 - x0, y1 - y0)
    sections = [Section(anchor=(cp.x, cp.y), normal=(0.0, 1.0), halfwidth=diag)
                for cp in cps]
    seeds = _make_seeds(v, cps, cfg)
    div = v.divergence()

    pool = []
    basins = sink_basins(v, cps, 1.0) + sink_basins(v, cps, -1.0)
    for time_sign, fams in zip((1.0, -1.0), _scout(v, seeds, sections, cfg, basins)):
        for per_seed in fams:
            for (si, dirc, _side), evs in sorted(per_seed.items()):
                got = _analyze_family(evs)
                if got is None:
                    continue
                u_star, t_est = got
                if abs(u_star) < _MIN_CYCLE_SIZE or t_est <= 0:
                    continue
                pool.append({"sec": si, "dirc": dirc, "sign": time_sign,
                             "u": u_star, "T": t_est})

    raw = []
    for cand in _cluster(pool)[:_MAX_CANDIDATES]:
        got = _refine_candidate(v, div, sections, cand, cfg)
        if got is not None:
            raw.append(got)

    kept = []
    for c in sorted(raw, key=lambda c: (c["residual"], c["period"])):
        scale = max(1.0, _mean_radius(c["points"]))
        if any(hausdorff_distance(c["points"], k["points"]) < _DEDUP_TOL * scale
               for k in kept):
            continue
        kept.append(c)

    out = []
    for c in kept:
        ids = []
        for cp in cps:
            try:
                w = winding_number(c["points"], (cp.x, cp.y))
            except PointOnCycle:
                continue
            if w != 0:
                ids.append(int(cp.id))
        if not ids:
            log.debug("cycle of period %.6g encloses nothing, dropped", c["period"])
            continue
        out.append(LimitCycle(points=c["points"], period=c["period"],
                              stability=c["stability"], return_derivative=c["rprime"],
                              return_exponent=c["lam"],
                              enclosed_cp_ids=tuple(sorted(ids)),
                              closure_residual=c["residual"]))
    out.sort(key=lambda lc: lc.mean_radius())
    return out


# ---------------------------------------------------------------------------
# stand-alone operations


def enclosure_matrix(cycles, cps) -> np.ndarray:
    """Winding numbers, entry (c, i) = winding of cycle c around point i."""
    mat = np.zeros((len(cycles), len(cps)), dtype=int)
    for ci, cyc in enumerate(cycles):
        for pi, cp in enumerate(cps):
            mat[ci, pi] = winding_number(cyc.points, (cp.x, cp.y))
    return mat


def fiber_residence(cycle: LimitCycle, v: VectorField) -> tuple[float, float]:
    """Mean of ||V|| along the cycle and its relative spread (max-min)/mean.

    At a zero of V the local level sets are ||V(x) - V(p)|| = const with
    V(p) = 0, so a cycle lying in a single level set has zero spread.
    """
    pts = cycle.points
    speeds = np.hypot(v.p.eval_grid(pts[:, 0], pts[:, 1]),
                      v.q.eval_grid(pts[:, 0], pts[:, 1]))
    mean = float(speeds.mean())
    if mean == 0.0:
        return 0.0, 0.0
    return mean, float((speeds.max() - speeds.min()) / mean)


def cycle_class_map(cycle: LimitCycle, fiber) -> tuple[int | None, float]:
    """Closest closed fiber component to the cycle, by Hausdorff distance."""
    best = None
    best_d = math.inf
    for i, comp in enumerate(fiber.components):
        if not comp.closed:
            continue
        d = hausdorff_distance(cycle.points, comp.as_array())
        if d < best_d:
            best, best_d = i, d
    return best, best_d


__all__ = [
    "DetectConfig",
    "LimitCycle",
    "PointOnCycle",
    "cycle_class_map",
    "detect_limit_cycles",
    "enclosure_matrix",
    "fiber_residence",
    "hausdorff_distance",
    "winding_number",
]
