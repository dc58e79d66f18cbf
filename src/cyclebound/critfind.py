"""Certified location of the zeros of a planar polynomial field.

Breadth-first box subdivision with interval exclusion, an interval-Newton
contraction test for existence/uniqueness, and a float Newton polish.
Degenerate zeros (singular Jacobian) cannot be certified; boxes around them
shrink to the resolution tolerance, get clustered, and are kept with a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyalg import Interval, Poly2, VectorField, interval_eval


class CritFindError(RuntimeError):
    pass


class DepthLimitExceeded(CritFindError):
    """Subdivision would not terminate; the zero set is probably not finite."""

    def __init__(self, message, box=None):
        super().__init__(message)
        self.box = box


class AmbiguousCluster(CritFindError):
    """Two candidate zeros closer than the resolution tolerance."""

    def __init__(self, message, box=None, points=()):
        super().__init__(message)
        self.box = box
        self.points = tuple(points)


class ZeroOnCircle(CritFindError):
    pass


class StepTooCoarse(CritFindError):
    pass


@dataclass(frozen=True)
class SolveConfig:
    residual_tol: float = 1e-12
    degeneracy_tol: float = 1e-9
    max_depth: int = 40
    resolution_tol: float = 1e-7
    box_budget: int = 2048          # survivors per level before declaring a zero curve
    boundary_tol: float = 1e-9
    index_samples: int = 256
    index_max_samples: int = 1 << 20
    circle_zero_tol: float = 1e-10


@dataclass(frozen=True)
class CriticalPoint:
    id: int
    location: tuple[float, float]
    enclosure: tuple[float, float, float, float]   # xlo, xhi, ylo, yhi
    jacobian: tuple[tuple[float, float], tuple[float, float]]
    nondegenerate: bool
    index: int
    on_boundary: bool = False

    @property
    def x(self) -> float:
        return self.location[0]

    @property
    def y(self) -> float:
        return self.location[1]

    def jacobian_determinant(self) -> float:
        (a, b), (c, d) = self.jacobian
        return a * d - b * c


_FBox = tuple[float, float, float, float]


def _ibox(b: _FBox) -> tuple[Interval, Interval]:
    return Interval(b[0], b[1]), Interval(b[2], b[3])


def _width(b: _FBox) -> float:
    return max(b[1] - b[0], b[3] - b[2])


def _mv_contains_zero(poly: Poly2, gx: Poly2, gy: Poly2, b: _FBox) -> bool:
    """Mean-value-form range test: f(box) within f(mid) + grad(box)*(box-mid).

    Far tighter than the plain monomial sum on boxes away from the zero set,
    which keeps the subdivision from drowning in fat enclosure bands.
    """
    ix, iy = _ibox(b)
    mx, my = ix.mid, iy.mid
    val = poly.eval(mx, my)
    mag = float(np.polynomial.polynomial.polyval2d(abs(mx), abs(my),
                                                   poly.abs_coeff_matrix()))
    err = 1e-13 * mag + 1e-300
    fm = Interval(val - err, val + err)
    dx = ix - Interval.point(mx)
    dy = iy - Interval.point(my)
    mv = fm + interval_eval(gx, (ix, iy)) * dx + interval_eval(gy, (ix, iy)) * dy
    return mv.contains_zero()


def _interval_newton(parts: dict, pv: Poly2, qv: Poly2, b: _FBox):
    """One interval-Newton step on box b.

    Returns ('empty', None), ('certified', contracted), or ('unknown', contracted-or-b).
    """
    ix, iy = _ibox(b)
    mx, my = ix.mid, iy.mid
    fm1 = interval_eval(pv, (Interval.point(mx), Interval.point(my)))
    fm2 = interval_eval(qv, (Interval.point(mx), Interval.point(my)))
    j11 = interval_eval(parts["px"], (ix, iy))
    j12 = interval_eval(parts["py"], (ix, iy))
    j21 = interval_eval(parts["qx"], (ix, iy))
    j22 = interval_eval(parts["qy"], (ix, iy))
    det = j11 * j22 - j12 * j21
    if det.contains_zero():
        return "unknown", b
    # Cramer solve of J s = f(m)
    s1 = (j22 * fm1 - j12 * fm2) / det
    s2 = (j11 * fm2 - j21 * fm1) / det
    nx = Interval.point(mx) - s1
    ny = Interval.point(my) - s2
    bx, by = _ibox(b)
    if not (nx.intersects(bx) and ny.intersects(by)):
        return "empty", None
    certified = nx.strictly_inside(bx) and ny.strictly_inside(by)
    cx = nx.intersect(bx)
    cy = ny.intersect(by)
    contracted = (cx.lo, cx.hi, cy.lo, cy.hi)
    return ("certified" if certified else "unknown"), contracted


def _newton_polish(v: VectorField, x0: float, y0: float, tol: float, max_iter: int = 200):
    """Float Newton with the analytic Jacobian.

    Runs past the residual tolerance until the step itself collapses, so that
    linearly converging degenerate zeros stall at the same point no matter
    which side they are approached from.
    """
    px, py = v.p.partial(0), v.p.partial(1)
    qx, qy = v.q.partial(0), v.q.partial(1)
    x, y = x0, y0
    for _ in range(max_iter):
        f1 = v.p.eval(x, y)
        f2 = v.q.eval(x, y)
        a, b = px.eval(x, y), py.eval(x, y)
        c, d = qx.eval(x, y), qy.eval(x, y)
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):
            break
        dx = (d * f1 - b * f2) / det
        dy = (a * f2 - c * f1) / det
        x, y = x - dx, y - dy
        if not (math.isfinite(x) and math.isfinite(y)):
            return x0, y0, float("inf")
        if math.hypot(dx, dy) <= 1e-14 * max(1.0, abs(x), abs(y)):
            break
    f1 = v.p.eval(x, y)
    f2 = v.q.eval(x, y)
    return x, y, max(abs(f1), abs(f2))


def _cluster_touching(boxes: list[_FBox], gap: float) -> list[list[_FBox]]:
    """Union boxes that touch (within gap) into clusters."""
    n = len(boxes)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            a, b = boxes[i], boxes[j]
            if a[0] <= b[1] + gap and b[0] <= a[1] + gap and a[2] <= b[3] + gap and b[2] <= a[3] + gap:
                parent[find(i)] = find(j)
    groups: dict[int, list[_FBox]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(boxes[i])
    return list(groups.values())


def find_critical_points(v: VectorField, cfg: SolveConfig = SolveConfig()) -> list[CriticalPoint]:
    """All zeros of v inside its box, sorted by (x, y), ids in sorted order.

    Raises DepthLimitExceeded when subdivision explodes (non-isolated zeros),
    AmbiguousCluster when two distinct zeros sit closer than the resolution
    tolerance, and CritFindError when Newton polishes no box of a cluster
    that the interval tests could not exclude.
    """
    parts = {
        "px": v.p.partial(0),
        "py": v.p.partial(1),
        "qx": v.q.partial(0),
        "qy": v.q.partial(1),
    }
    x0, x1, y0, y1 = v.box.floats()
    level: list[_FBox] = [(x0, x1, y0, y1)]
    certified: list[tuple[_FBox, _FBox]] = []   # (certifying box, contracted)
    unresolved: list[_FBox] = []
    depth = 0
    while level:
        if depth > cfg.max_depth:
            raise DepthLimitExceeded(
                f"subdivision did not terminate at depth {cfg.max_depth}; "
                "the zero set may be a curve",
                box=level[0],
            )
        if len(level) > cfg.box_budget:
            raise DepthLimitExceeded(
                f"{len(level)} live boxes at depth {depth}; "
                "the zero set may be a curve",
                box=level[0],
            )
        nxt: list[_FBox] = []
        for b in level:
            ix, iy = _ibox(b)
            if not interval_eval(v.p, (ix, iy)).contains_zero():
                continue
            if not interval_eval(v.q, (ix, iy)).contains_zero():
                continue
            if not _mv_contains_zero(v.p, parts["px"], parts["py"], b):
                continue
            if not _mv_contains_zero(v.q, parts["qx"], parts["qy"], b):
                continue
            status, contracted = _interval_newton(parts, v.p, v.q, b)
            if status == "empty":
                continue
            if status == "certified":
                certified.append((b, contracted))
                continue
            b = contracted
            if _width(b) < cfg.resolution_tol:
                unresolved.append(b)
                continue
            mx = 0.5 * (b[0] + b[1])
            my = 0.5 * (b[2] + b[3])
            nxt.extend(
                [
                    (b[0], mx, b[2], my),
                    (mx, b[1], b[2], my),
                    (b[0], mx, my, b[3]),
                    (mx, b[1], my, b[3]),
                ]
            )
        level = nxt
        depth += 1

    candidates: list[tuple[float, float, _FBox, bool]] = []  # x, y, enclosure, certified

    for b, contracted in certified:
        cx = 0.5 * (contracted[0] + contracted[1])
        cy = 0.5 * (contracted[2] + contracted[3])
        x, y, res = _newton_polish(v, cx, cy, cfg.residual_tol)
        if res > cfg.residual_tol:
            # certified zero exists; keep the best point we have
            x, y = cx, cy
        candidates.append((x, y, contracted, True))

    gap = cfg.resolution_tol
    for cluster in _cluster_touching(unresolved, gap):
        xs = [b[0] for b in cluster] + [b[1] for b in cluster]
        ys = [b[2] for b in cluster] + [b[3] for b in cluster]
        bbox = (min(xs), max(xs), min(ys), max(ys))
        polished = []
        for b in cluster:
            px, py, res = _newton_polish(v, 0.5 * (b[0] + b[1]), 0.5 * (b[2] + b[3]), cfg.residual_tol)
            if res <= cfg.residual_tol:
                polished.append((px, py))
        if not polished:
            # a failed polish does not exclude a zero, so the search cannot
            # tell whether this cluster holds one
            raise CritFindError(
                f"Newton polish failed on every box of the cluster "
                f"[{bbox[0]:.6g}, {bbox[1]:.6g}] x [{bbox[2]:.6g}, {bbox[3]:.6g}], "
                "which the interval tests could not exclude"
            )
        ref = polished[0]
        spread = max(math.hypot(p[0] - ref[0], p[1] - ref[1]) for p in polished)
        if spread > 0.01 * cfg.resolution_tol:
            raise AmbiguousCluster(
                "distinct zeros inside one resolution-tolerance cluster",
                box=bbox,
                points=polished,
            )
        candidates.append((ref[0], ref[1], bbox, False))

    # merge duplicates (same zero reached from two adjacent certified boxes),
    # complain about genuinely distinct near-coincident zeros
    candidates.sort(key=lambda c: (c[0], c[1]))
    merged: list[tuple[float, float, _FBox, bool]] = []
    for cand in candidates:
        dup = False
        for n, kept in enumerate(merged):
            d = math.hypot(cand[0] - kept[0], cand[1] - kept[1])
            if d <= 0.01 * cfg.resolution_tol:
                dup = True
                break
            if d < cfg.resolution_tol:
                raise AmbiguousCluster(
                    "two candidate zeros closer than the resolution tolerance",
                    box=cand[2],
                    points=[(kept[0], kept[1]), (cand[0], cand[1])],
                )
        if not dup:
            merged.append(cand)

    merged.sort(key=lambda c: (c[0], c[1]))
    points: list[CriticalPoint] = []
    locs = [(c[0], c[1]) for c in merged]
    for pid, (x, y, enc, was_certified) in enumerate(merged):
        x += 0.0  # normalize -0.0
        y += 0.0
        j = v.jacobian_at(x, y)
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        nondeg = bool(abs(det) > cfg.degeneracy_tol)
        enc = _tight_enclosure(parts, v, (x, y), enc, cfg) if was_certified else enc
        on_boundary = (
            min(abs(x - x0), abs(x - x1)) <= cfg.boundary_tol
            or min(abs(y - y0), abs(y - y1)) <= cfg.boundary_tol
        )
        radius = _index_radius(v, (x, y), locs, pid)
        idx = poincare_index(v, (x, y), radius, cfg)
        points.append(
            CriticalPoint(
                id=pid,
                location=(x, y),
                enclosure=tuple(float(e) for e in enc),
                jacobian=((float(j[0, 0]), float(j[0, 1])),
                          (float(j[1, 0]), float(j[1, 1]))),
                nondegenerate=nondeg,
                index=idx,
                on_boundary=bool(on_boundary),
            )
        )
    return points


def _tight_enclosure(parts, v, loc, fallback: _FBox, cfg: SolveConfig) -> _FBox:
    """Small certified box around a polished zero; falls back to the parent box."""
    x, y = loc
    scale = max(1.0, abs(x), abs(y))
    for w in (1e-9 * scale, 1e-7 * scale, 1e-5 * scale):
        b = (x - w, x + w, y - w, y + w)
        status, contracted = _interval_newton(parts, v.p, v.q, b)
        if status == "certified":
            return b
    return fallback


def _index_radius(v: VectorField, loc, all_locs, self_id: int) -> float:
    x0, x1, y0, y1 = v.box.floats()
    x, y = loc
    r = min(abs(x - x0), abs(x - x1), abs(y - y0), abs(y - y1))
    for n, other in enumerate(all_locs):
        if n == self_id:
            continue
        r = min(r, 0.5 * math.hypot(x - other[0], y - other[1]))
    return max(min(0.5 * r, 1.0), 1e-8)


def poincare_index(
    v: VectorField,
    center: tuple[float, float],
    radius: float,
    cfg: SolveConfig = SolveConfig(),
) -> int:
    """Winding number of v around a circle, by accumulated angle increments.

    Sampling starts at cfg.index_samples and doubles until every increment
    is below pi/2.  Raises ZeroOnCircle if the field (numerically) vanishes
    on a sample and StepTooCoarse if doubling hits its limit without
    resolving.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = max(int(cfg.index_samples), 64)
    cx, cy = center
    while True:
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        xs = cx + radius * np.cos(theta)
        ys = cy + radius * np.sin(theta)
        vx = v.p.eval_grid(xs, ys)
        vy = v.q.eval_grid(xs, ys)
        norms = np.hypot(vx, vy)
        if float(norms.min()) <= cfg.circle_zero_tol:
            raise ZeroOnCircle(
                f"field vanishes on the sample circle (min |V| = {norms.min():.3e})"
            )
        ang = np.arctan2(vy, vx)
        d = np.diff(np.concatenate([ang, ang[:1]]))
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        if float(np.abs(d).max()) < 0.5 * math.pi:
            total = float(d.sum())
            w = total / (2.0 * math.pi)
            idx = round(w)
            if abs(w - idx) > 0.1:
                raise StepTooCoarse(f"winding sum {w:.4f} is not close to an integer")
            return int(idx)
        n *= 2
        if n > cfg.index_max_samples:
            raise StepTooCoarse(
                f"angle increments stay above pi/2 at {cfg.index_max_samples} samples"
            )


__all__ = [
    "AmbiguousCluster",
    "CritFindError",
    "CriticalPoint",
    "DepthLimitExceeded",
    "SolveConfig",
    "StepTooCoarse",
    "ZeroOnCircle",
    "find_critical_points",
    "poincare_index",
]
