"""Certified location of the zeros of a planar polynomial field, and their
Poincare indices.

Breadth-first box subdivision with interval exclusion, an interval-Newton
contraction test for existence/uniqueness, and a float Newton polish.
Degenerate zeros (singular Jacobian) cannot be certified; boxes around them
shrink to the resolution tolerance, get clustered, and are kept with a flag.

The subdivision is level-synchronous: each level's boxes form one
`IntervalBoxes` array, and every test runs as outward-rounded interval
operations on the arrays of the boxes still alive, so a level costs a fixed
number of numpy calls however many boxes it holds.  An enclosure with a NaN
endpoint (the arithmetic left the float range) raises CritFindError.

Every index is proved.  A zero whose enclosure interval Newton certifies
has index sign det [J] there (`_certified_index`); any other zero gets the
degree of V on a box cover of a circle around it (`poincare_index`).  That
one-box Newton test runs here only, once per zero, and
`CriticalPoint.certified` records its result: the certificates of `certify`
read the flag rather than prove the enclosure again.

This is the layer of interval primitives that `certify` builds on: the
interval Jacobian over boxes and its regularity (`interval_jacobian`,
`regular`), the mean-value enclosures of V (`field_enclosure`) and the
circle covers (`circle_covers`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyalg import (
    IntervalBoxes,
    Poly2,
    VectorField,
    ia_add,
    ia_contains_zero,
    ia_div,
    ia_mul,
    ia_sub,
    interval_eval,
)


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
class CriticalPoint:
    id: int
    location: tuple[float, float]
    enclosure: tuple[float, float, float, float]   # xlo, xhi, ylo, yhi
    jacobian: tuple[tuple[float, float], tuple[float, float]]
    nondegenerate: bool
    index: int
    certified: bool   # interval Newton proved that enclosure holds exactly one zero
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
_PARTIALS = {"px": "dP/dx", "py": "dP/dy", "qx": "dQ/dx", "qy": "dQ/dy"}


def _partials(v: VectorField) -> dict:
    return {"px": v.p.partial(0), "py": v.p.partial(1),
            "qx": v.q.partial(0), "qy": v.q.partial(1)}


def _checked(iv, boxes: IntervalBoxes, what: str):
    """iv, once no element has a NaN endpoint (lo <= hi fails only there);
    such an element encloses nothing, so the search cannot go on."""
    ok = iv[0] <= iv[1]
    if not ok.all():
        k = int(np.argmin(ok))
        raise CritFindError(
            f"the interval enclosure of {what} on the box "
            f"[{boxes.x[0][k]:.6g}, {boxes.x[1][k]:.6g}] x "
            f"[{boxes.y[0][k]:.6g}, {boxes.y[1][k]:.6g}] is "
            f"[{iv[0][k]}, {iv[1][k]}]: the arithmetic leaves the float range")
    return iv


def _enclose(poly: Poly2, boxes: IntervalBoxes, what: str):
    return _checked(interval_eval(poly, boxes), boxes, what)


def _take(iv, keep):
    return iv[0][keep], iv[1][keep]


def mean_value_enclosure(poly: Poly2, grad, boxes: IntervalBoxes, what: str):
    """Mean-value form of poly over each box: f(mid) + grad(box)*(box-mid).

    Far tighter than the plain monomial sum on small boxes away from the
    zero set, which keeps the subdivision from drowning in fat enclosure
    bands.  grad holds the enclosures of the two partials over the boxes.
    """
    mx = 0.5 * (boxes.x[0] + boxes.x[1])
    my = 0.5 * (boxes.y[0] + boxes.y[1])
    val = poly.eval(mx, my)
    mag = poly.majorant().eval_grid(np.abs(mx), np.abs(my))
    err = 1e-13 * mag + 1e-300
    dx = ia_sub(boxes.x, (mx, mx))
    dy = ia_sub(boxes.y, (my, my))
    mv = ia_add(ia_add((val - err, val + err), ia_mul(grad[0], dx)), ia_mul(grad[1], dy))
    return _checked(mv, boxes, f"the mean-value form of {what}")


def interval_jacobian(v: VectorField, boxes: IntervalBoxes):
    """[J] over each box: the enclosures of dP/dx, dP/dy, dQ/dx and dQ/dy,
    in that order."""
    parts = _partials(v)
    return [_enclose(parts[k], boxes, _PARTIALS[k]) for k in _PARTIALS]


def field_enclosure(v: VectorField, boxes: IntervalBoxes):
    """The mean-value enclosures of P and Q over each box."""
    jac = interval_jacobian(v, boxes)
    return (mean_value_enclosure(v.p, jac[:2], boxes, "P"),
            mean_value_enclosure(v.q, jac[2:], boxes, "Q"))


def regular(jac, boxes: IntervalBoxes):
    """(det, ok): the enclosure of j11 j22 - j12 j21 with each entry its own
    interval, and whether it excludes 0, per box.

    Each entry occurs once in that expression, so det encloses the exact
    range of the determinant over the interval matrix [J].  It excludes 0
    exactly when every matrix in [J] is nonsingular: [J] is regular
    (Neumaier, Interval Methods for Systems of Equations, 1990).  Then V is
    injective on a convex box whose partials [J] encloses, since V(a) - V(b)
    = M (a - b) with M, the mean of J along the segment, in [J].  det J != 0
    at every point of the box is not enough: z^3 has det J > 0 on a box
    that holds two cube roots of i.
    """
    j11, j12, j21, j22 = jac
    det = _checked(ia_sub(ia_mul(j11, j22), ia_mul(j12, j21)), boxes,
                   "the Jacobian determinant")
    return det, ~ia_contains_zero(det)


def _interval_newton(v: VectorField, jac, boxes: IntervalBoxes):
    """One interval-Newton step on each box; jac holds the enclosures of
    dP/dx, dP/dy, dQ/dx and dQ/dy over the boxes.

    Returns (empty, certified, contracted): two bool arrays and the arrays
    xlo, xhi, ylo, yhi of the contracted boxes.  A box whose determinant
    enclosure contains 0 is neither empty nor certified, and stays as it is.
    """
    (xl, xh), (yl, yh) = boxes.x, boxes.y
    mx, my = 0.5 * (xl + xh), 0.5 * (yl + yh)
    mid = IntervalBoxes(mx, mx, my, my)
    fm1 = _checked(interval_eval(v.p, mid), boxes, "P at the box midpoint")
    fm2 = _checked(interval_eval(v.q, mid), boxes, "Q at the box midpoint")
    det, solve = regular(jac, boxes)
    empty = np.zeros(len(boxes), dtype=bool)
    certified = empty.copy()
    contracted = [xl.copy(), xh.copy(), yl.copy(), yh.copy()]
    if not solve.any():
        return empty, certified, contracted
    sub = boxes.take(solve)
    fm1, fm2, det = _take(fm1, solve), _take(fm2, solve), _take(det, solve)
    j11, j12, j21, j22 = (_take(j, solve) for j in jac)
    # Cramer solve of J s = f(m)
    s1 = _checked(ia_sub(ia_mul(j22, fm1), ia_mul(j12, fm2)), sub, "the Newton step")
    s2 = _checked(ia_sub(ia_mul(j11, fm2), ia_mul(j21, fm1)), sub, "the Newton step")
    mx, my = mx[solve], my[solve]
    nx = _checked(ia_sub((mx, mx), ia_div(s1, det)), sub, "the Newton image")
    ny = _checked(ia_sub((my, my), ia_div(s2, det)), sub, "the Newton image")
    (bx0, bx1), (by0, by1) = sub.x, sub.y
    hit = (nx[0] <= bx1) & (bx0 <= nx[1]) & (ny[0] <= by1) & (by0 <= ny[1])
    inside = (bx0 < nx[0]) & (nx[1] < bx1) & (by0 < ny[0]) & (ny[1] < by1)
    empty[solve] = ~hit
    certified[solve] = hit & inside
    # the intersection with the box; on a tie the image's endpoint, as max() and min() take it
    for arr, new in zip(contracted, (np.where(bx0 > nx[0], bx0, nx[0]),
                                     np.where(bx1 < nx[1], bx1, nx[1]),
                                     np.where(by0 > ny[0], by0, ny[0]),
                                     np.where(by1 < ny[1], by1, ny[1]))):
        arr[solve] = new
    return empty, certified, contracted


def _rows(cols, keep) -> list[_FBox]:
    return list(zip(*(c[keep].tolist() for c in cols)))


# survivors per level, and levels, before declaring a zero curve
_BOX_BUDGET, _MAX_DEPTH = 2048, 40
# undecided boxes narrower than this stay unresolved; zeros closer are one
_RESOLUTION_TOL = 1e-7


def _split_level(v: VectorField, parts: dict, boxes: IntervalBoxes,
                 certified: list, unresolved: list) -> np.ndarray:
    """Test one level's boxes, record the certified and unresolved ones, and
    return the next level as a (4, n) array of xlo, xhi, ylo, yhi.

    Each test runs on the boxes that survive the one before, in their order:
    P's range, Q's range, the mean-value forms of P and Q, interval Newton.
    A box left undecided is contracted, kept as unresolved below the
    resolution width, and split otherwise, into four children in the order
    lower-left, lower-right, upper-left, upper-right.
    """
    for poly, name in ((v.p, "P"), (v.q, "Q")):
        if len(boxes):
            boxes = boxes.take(ia_contains_zero(_enclose(poly, boxes, name)))
    jac: list = []
    for poly, name, keys in ((v.p, "P", ("px", "py")), (v.q, "Q", ("qx", "qy"))):
        if len(boxes):
            grad = [_enclose(parts[k], boxes, _PARTIALS[k]) for k in keys]
            keep = ia_contains_zero(mean_value_enclosure(poly, grad, boxes, name))
            boxes = boxes.take(keep)
            jac = [_take(j, keep) for j in jac + grad]
    if not len(boxes):
        return np.empty((4, 0))
    empty, cert, contracted = _interval_newton(v, jac, boxes)
    certified.extend(zip(_rows(boxes.x + boxes.y, cert), _rows(contracted, cert)))
    cx0, cx1, cy0, cy1 = contracted
    undecided = ~(empty | cert)
    small = undecided & (cx1 - cx0 < _RESOLUTION_TOL) & (cy1 - cy0 < _RESOLUTION_TOL)
    unresolved.extend(_rows(contracted, small))
    cx0, cx1, cy0, cy1 = (c[undecided & ~small] for c in contracted)
    mx = 0.5 * (cx0 + cx1)
    my = 0.5 * (cy0 + cy1)
    kids = np.array([[cx0, mx, cx0, mx], [mx, cx1, mx, cx1],
                     [cy0, cy0, my, my], [my, my, cy1, cy1]])
    return kids.transpose(0, 2, 1).reshape(4, 4 * len(mx))


def _subdivide(v: VectorField, parts: dict):
    """Breadth-first subdivision of v.box, one level at a time.

    Returns (certified, unresolved): the boxes interval Newton certified,
    each with its contracted box, and the contracted boxes that fell below
    the resolution width, each in level order and in box order within a
    level.
    """
    x0, x1, y0, y1 = v.box.floats()
    level = np.array([[x0], [x1], [y0], [y1]])
    certified: list[tuple[_FBox, _FBox]] = []
    unresolved: list[_FBox] = []
    depth = 0
    while level.shape[1]:
        if depth > _MAX_DEPTH:
            raise DepthLimitExceeded(
                f"subdivision did not terminate at depth {_MAX_DEPTH}; "
                "the zero set may be a curve",
                box=tuple(level[:, 0].tolist()),
            )
        if level.shape[1] > _BOX_BUDGET:
            raise DepthLimitExceeded(
                f"{level.shape[1]} live boxes at depth {depth}; "
                "the zero set may be a curve",
                box=tuple(level[:, 0].tolist()),
            )
        with np.errstate(over="ignore", invalid="ignore"):
            level = _split_level(v, parts, IntervalBoxes(*level), certified, unresolved)
        depth += 1
    return certified, unresolved


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


_RESIDUAL_TOL = 1e-12   # Newton polish residual that accepts a zero
_DEGENERACY_TOL = 1e-9  # |det J| above which a zero is nondegenerate
_BOUNDARY_TOL = 1e-9    # distance to the box edge that flags a zero


def find_critical_points(v: VectorField) -> list[CriticalPoint]:
    """All zeros of v inside its box, sorted by (x, y), ids in sorted order.

    Each index is `_certified_index` on the zero's enclosure where interval
    Newton certifies it, with `certified` set, else `poincare_index` on a
    circle of at most half the distance to the other zeros and to the box
    edge.

    Raises DepthLimitExceeded when subdivision explodes (non-isolated zeros),
    AmbiguousCluster when two distinct zeros sit closer than the resolution
    tolerance, CritFindError when Newton polishes no box of a cluster that
    the interval tests could not exclude, and `poincare_index`'s errors.
    """
    parts = _partials(v)
    certified, unresolved = _subdivide(v, parts)
    x0, x1, y0, y1 = v.box.floats()

    candidates: list[tuple[float, float, _FBox, bool]] = []  # x, y, enclosure, certified

    for b, contracted in certified:
        cx = 0.5 * (contracted[0] + contracted[1])
        cy = 0.5 * (contracted[2] + contracted[3])
        x, y, res = _newton_polish(v, cx, cy, _RESIDUAL_TOL)
        if res > _RESIDUAL_TOL:
            # certified zero exists; keep the best point we have
            x, y = cx, cy
        candidates.append((x, y, contracted, True))

    for cluster in _cluster_touching(unresolved, _RESOLUTION_TOL):
        xs = [b[0] for b in cluster] + [b[1] for b in cluster]
        ys = [b[2] for b in cluster] + [b[3] for b in cluster]
        bbox = (min(xs), max(xs), min(ys), max(ys))
        polished = []
        for b in cluster:
            px, py, res = _newton_polish(v, 0.5 * (b[0] + b[1]), 0.5 * (b[2] + b[3]), _RESIDUAL_TOL)
            if res <= _RESIDUAL_TOL:
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
        if spread > 0.01 * _RESOLUTION_TOL:
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
            if d <= 0.01 * _RESOLUTION_TOL:
                dup = True
                break
            if d < _RESOLUTION_TOL:
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
        (a, b), (c, d) = j.tolist()
        det = a * d - b * c   # Python floats: overflow gives inf without a warning
        nondeg = bool(abs(det) > _DEGENERACY_TOL)
        if was_certified:
            enc, idx = _tight_enclosure(v, (x, y), enc)
        else:
            idx = _certified_index(v, enc)
        on_boundary = (
            min(abs(x - x0), abs(x - x1)) <= _BOUNDARY_TOL
            or min(abs(y - y0), abs(y - y1)) <= _BOUNDARY_TOL
        )
        by_newton = idx is not None
        if not by_newton:
            idx = poincare_index(v, (x, y), _index_radius(v, (x, y), locs, pid))
        points.append(
            CriticalPoint(
                id=pid,
                location=(x, y),
                enclosure=tuple(float(e) for e in enc),
                jacobian=((float(j[0, 0]), float(j[0, 1])),
                          (float(j[1, 0]), float(j[1, 1]))),
                nondegenerate=nondeg,
                index=idx,
                certified=by_newton,
                on_boundary=bool(on_boundary),
            )
        )
    return points


def _tight_enclosure(v, loc, fallback: _FBox) -> tuple[_FBox, int | None]:
    """Small certified box around a polished zero, or else the parent box,
    with `_certified_index` there."""
    x, y = loc
    scale = max(1.0, abs(x), abs(y))
    for w in (1e-9 * scale, 1e-7 * scale, 1e-5 * scale):
        b = (x - w, x + w, y - w, y + w)
        idx = _certified_index(v, b)
        if idx is not None:
            return b, idx
    return fallback, _certified_index(v, fallback)


def _certified_index(v: VectorField, enclosure: _FBox) -> int | None:
    """The index of the one zero in enclosure E, sign det [J](E), where one
    interval-Newton step proves that E holds exactly one zero of v; None
    otherwise.

    Interval Newton certifies only a box whose [J] is regular (`regular`),
    so det J keeps one sign on E, and at a zero with det J != 0 that sign is
    the index.
    """
    boxes = IntervalBoxes(*([e] for e in enclosure))
    with np.errstate(over="ignore", invalid="ignore"):
        jac = interval_jacobian(v, boxes)
        _, certified, _ = _interval_newton(v, jac, boxes)
        if not certified[0]:
            return None
        (lo, _), _ = regular(jac, boxes)
    return 1 if lo[0] > 0.0 else -1


def _index_radius(v: VectorField, loc, all_locs, self_id: int) -> float:
    x0, x1, y0, y1 = v.box.floats()
    x, y = loc
    r = min(abs(x - x0), abs(x - x1), abs(y - y0), abs(y - y1))
    for n, other in enumerate(all_locs):
        if n == self_id:
            continue
        r = min(r, 0.5 * math.hypot(x - other[0], y - other[1]))
    return max(min(0.5 * r, 1.0), 1e-8)


# boxes of a circle cover: the first count, doubled up to the cap
_ARCS, _MAX_ARCS = 64, 4096


def circle_covers(center, r: float):
    """Covers of the circle of radius r around center by n boxes, for
    n = _ARCS, 2 _ARCS, ..., _MAX_ARCS: one (mx, my, boxes) per n.

    The boxes are centred at the n points (mx, my) = center +
    r (cos, sin)(2 pi k / n), each of half-width r pi / n plus the rounding
    of its centre, and rounded outward.  Every point of the circle lies
    within r pi / n of the nearest centre, so the arc between two adjacent
    centres lies in their two boxes.
    """
    px, py = center
    n = _ARCS
    while n <= _MAX_ARCS:
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        mx, my = px + r * np.cos(theta), py + r * np.sin(theta)
        w = r * math.pi / n * (1.0 + 1e-9) + 8.0 * 2.0 ** -52 * (max(abs(px), abs(py)) + r)
        yield mx, my, IntervalBoxes.around(mx, my, w)
        n *= 2


def poincare_index(v: VectorField, center: tuple[float, float], radius: float) -> int:
    """Degree of v on the circle of radius `radius` around center, proved on
    a box cover of the circle (`circle_covers`; Kearfott, Numer. Math. 1979).

    Each box gets a half-plane that the mean-value enclosures of P and Q
    prove holds V on it: P > 0, Q > 0, P < 0 or Q < 0, numbered 0 to 3
    counterclockwise; of those that hold, the one that V at the box centre
    lies deepest in.  The arc between two adjacent centres lies in their two
    boxes, so where their half-planes are not opposite, the angle of V turns
    along it by the quarter turns from one half-plane to the next (-1, 0 or
    +1) plus the change of its offset from the half-planes' middle
    directions, and the offsets cancel around the circle: the quarter turns
    sum to 4 x the degree.  The cover doubles while some box has no
    half-plane or two adjacent boxes opposite ones.  At the cap it raises ZeroOnCircle if interval
    Newton proves a zero in a box with no half-plane, and StepTooCoarse
    otherwise.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        for mx, my, arcs in circle_covers(center, radius):
            (plo, phi), (qlo, qhi) = field_enclosure(v, arcs)
            held = np.array([plo > 0.0, qlo > 0.0, phi < 0.0, qhi < 0.0])
            pc, qc = v.p.eval_grid(mx, my), v.q.eval_grid(mx, my)
            label = np.where(held, np.array([pc, qc, -pc, -qc]), -np.inf).argmax(axis=0)
            turns = (np.roll(label, -1) - label) % 4
            if held.any(axis=0).all() and not (turns == 2).any():
                return int(np.where(turns == 3, -1, turns).sum()) // 4
        bare = arcs.take(~held.any(axis=0))
        if len(bare):
            _, zero, _ = _interval_newton(v, interval_jacobian(v, bare), bare)
            if zero.any():
                k = int(np.argmax(zero))
                raise ZeroOnCircle(
                    f"V has a zero in the box [{bare.x[0][k]:.6g}, {bare.x[1][k]:.6g}] x "
                    f"[{bare.y[0][k]:.6g}, {bare.y[1][k]:.6g}] of the {len(label)}-box "
                    f"cover of the circle of radius {radius:.6g} (interval Newton)")
    raise StepTooCoarse(
        f"no cover of the circle of radius {radius:.6g} by up to {_MAX_ARCS} boxes gives "
        "each box a half-plane of V with no two adjacent ones opposite")


__all__ = [
    "AmbiguousCluster",
    "CritFindError",
    "CriticalPoint",
    "DepthLimitExceeded",
    "StepTooCoarse",
    "ZeroOnCircle",
    "circle_covers",
    "field_enclosure",
    "find_critical_points",
    "interval_jacobian",
    "mean_value_enclosure",
    "poincare_index",
    "regular",
]
