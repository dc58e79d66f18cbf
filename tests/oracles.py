"""Independent reference routes used by the test suite.

Everything here deliberately avoids the library's own counting, chaining,
and refinement code paths: polynomial values come straight from the term
dictionaries, fiber counts from a sign-grid flood fill, periods from scipy,
distances from dense resampling.  Four exceptions pin optimised library
paths bit for bit.  `scout_reference` is scouting's earlier per-hit loop on
the library's own stepper and the scalar bisection `hermite_root`, which runs
every seed to its end; with `truncate_at_settle` applied after it, it pins
the crossing events that the deferred root solve and the early stop must
reproduce, and `hermite_root` pins each root of `odeflow.hermite_roots`.
`subdivide_reference` is critfind's earlier box-by-box subdivision on the
scalar `Interval` arithmetic below; it pins the certified and unresolved
boxes of the level-at-a-time array path.  `rk_step_reference` is the
Dormand-Prince step as a loop over the tableau rows; it pins the written-out
stages of `odeflow.rk_step`, and `directed_hausdorff_dense` pins the pruned
`cycledetect._directed_hausdorff`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.integrate
import scipy.ndimage

from cyclebound import critfind as cf
from cyclebound import cycledetect as cd
from cyclebound.critfind import DepthLimitExceeded
from cyclebound.odeflow import BOX_INFLATION, DP_A, DP_E, hermite, hermite_deriv, rk_step
from cyclebound.polyalg import Poly2, VectorField


def eval_terms(poly: Poly2, x, y):
    """Evaluate a polynomial straight off its term dict (no Horner, no cache)."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    for (i, j), c in poly.terms.items():
        out = out + float(c) * np.asarray(x, dtype=float) ** i * np.asarray(y) ** j
    return out


class _Labels:
    """Union-find over flood-fill labels, for saddle and boundary merges."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def floodfill_fiber_counts(v: VectorField, location, delta: float, eta: float,
                           n: int) -> tuple[int, int]:
    """(b0, closed_count) of {‖V−V(p)‖ = eta} ∩ B_delta from a sign grid.

    Counts 4-connected sign regions of g − eta² on the (n+1)² node grid
    restricted to the closed disk, merging across saddle cells by the sign
    of g at the cell center (the same geometric convention the extraction
    uses, reached by a completely different algorithm). With R regions of
    which Rb touch the disk boundary, the level curve has R − 1 components
    and R − Rb closed ones: each component, closed or arc, splits exactly
    one region in two, and every region except the Rb outer ones has a
    closed component as its outer boundary.
    """
    px, py = float(location[0]), float(location[1])
    xs = np.linspace(px - delta, px + delta, n + 1)
    ys = np.linspace(py - delta, py + delta, n + 1)
    xn, yn = np.meshgrid(xs, ys, indexing="ij")
    p0 = eval_terms(v.p, px, py)
    q0 = eval_terms(v.q, px, py)
    g = (eval_terms(v.p, xn, yn) - p0) ** 2 + (eval_terms(v.q, xn, yn) - q0) ** 2
    disk = (xn - px) ** 2 + (yn - py) ** 2 <= delta * delta
    neg = (g < eta * eta) & disk
    pos = (~(g < eta * eta)) & disk

    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    lab_n, k_n = scipy.ndimage.label(neg, structure=four)
    lab_p, k_p = scipy.ndimage.label(pos, structure=four)
    # one flat labelling: negatives 1..k_n, positives k_n+1..k_n+k_p
    lab = lab_n + np.where(lab_p > 0, lab_p + k_n, 0)
    uf = _Labels(k_n + k_p + 1)

    # saddle cells: equal-sign diagonals of opposite sign; connect the
    # diagonal that matches the center sign
    s00 = neg[:-1, :-1]
    s10 = neg[1:, :-1]
    s11 = neg[1:, 1:]
    s01 = neg[:-1, 1:]
    cell_in = disk[:-1, :-1] & disk[1:, :-1] & disk[1:, 1:] & disk[:-1, 1:]
    saddle = (s00 == s11) & (s10 == s01) & (s00 != s10) & cell_in
    if saddle.any():
        cx = 0.5 * (xs[:-1] + xs[1:])
        cy = 0.5 * (ys[:-1] + ys[1:])
        cxg, cyg = np.meshgrid(cx, cy, indexing="ij")
        gc = (eval_terms(v.p, cxg, cyg) - p0) ** 2 + \
            (eval_terms(v.q, cxg, cyg) - q0) ** 2
        cneg = gc < eta * eta
        for i, j in np.argwhere(saddle):
            if cneg[i, j] == s00[i, j]:
                uf.union(int(lab[i, j]), int(lab[i + 1, j + 1]))
            else:
                uf.union(int(lab[i, j + 1]), int(lab[i + 1, j]))

    # regions touching the disk boundary: nodes whose 4-neighborhood leaves
    # the disk mask (including the array edge)
    rim = disk.copy()
    inner = np.zeros_like(disk)
    inner[1:-1, 1:-1] = (disk[:-2, 1:-1] & disk[2:, 1:-1] &
                         disk[1:-1, :-2] & disk[1:-1, 2:])
    rim &= ~inner
    touching = set(int(t) for t in np.unique(lab[rim]) if t > 0)

    roots = {uf.find(t) for t in range(1, k_n + k_p + 1)}
    troots = {uf.find(t) for t in touching}
    r_all = len(roots)
    r_b = len(troots)
    return r_all - 1, r_all - r_b


def random_field(seed: int, degree: int = 4, box=None) -> VectorField:
    """Seeded random polynomial field with exact dyadic coefficients."""
    rng = np.random.default_rng(seed)
    def poly():
        terms = {}
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                terms[(i, j)] = Fraction(float(rng.uniform(-1.0, 1.0)))
        return Poly2(terms)
    p = poly()
    q = poly()
    if box is None:
        return VectorField(p, q, name=f"random-{seed}")
    return VectorField(p, q, name=f"random-{seed}", box=box)


def brute_index(v, cx, cy, radius, n=10_000):
    """Winding number of v around a circle, by summing the wrapped angle
    increments between n + 1 samples."""
    th = np.linspace(0.0, 2.0 * math.pi, n + 1)
    px = v.p.eval_grid(cx + radius * np.cos(th), cy + radius * np.sin(th))
    qx = v.q.eval_grid(cx + radius * np.cos(th), cy + radius * np.sin(th))
    ang = np.arctan2(qx, px)
    d = np.diff(ang)
    d = (d + math.pi) % (2.0 * math.pi) - math.pi
    return int(round(float(d.sum()) / (2.0 * math.pi)))


def winding_brute(points: np.ndarray, px: float, py: float,
                  subdiv: int = 32) -> int:
    """Winding number by dense angle summation along the closed polyline."""
    pts = np.asarray(points, dtype=float)
    if not np.allclose(pts[0], pts[-1]):
        pts = np.vstack([pts, pts[:1]])
    a = pts[:-1]
    b = pts[1:]
    t = np.linspace(0.0, 1.0, subdiv + 1)
    dense = (a[:, None, :] * (1.0 - t)[None, :, None] +
             b[:, None, :] * t[None, :, None]).reshape(-1, 2)
    ang = np.arctan2(dense[:, 1] - py, dense[:, 0] - px)
    d = np.diff(ang)
    d = (d + math.pi) % (2.0 * math.pi) - math.pi
    total = float(d.sum())
    return int(round(total / (2.0 * math.pi)))


def _close_loop(pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if not np.allclose(pts[0], pts[-1]):
        pts = np.vstack([pts, pts[:1]])
    return pts


def _densify(pts: np.ndarray, step: float) -> np.ndarray:
    out = []
    for s, e in zip(pts[:-1], pts[1:]):
        seg = math.hypot(e[0] - s[0], e[1] - s[1])
        k = max(1, int(math.ceil(seg / step)))
        t = np.arange(k) / k
        out.append(s[None, :] * (1.0 - t)[:, None] + e[None, :] * t[:, None])
    return np.vstack(out)


def _dist_to_polyline(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Exact point-to-segment distances from each point to the polyline."""
    s = poly[:-1]
    d = poly[1:] - s
    len2 = np.maximum((d * d).sum(axis=1), 1e-300)
    best = np.full(len(pts), np.inf)
    chunk = 4096
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]
        w = p[:, None, :] - s[None, :, :]
        t = np.clip((w * d[None, :, :]).sum(axis=2) / len2[None, :], 0.0, 1.0)
        proj = w - t[:, :, None] * d[None, :, :]
        best[lo:lo + chunk] = np.sqrt((proj ** 2).sum(axis=2).min(axis=1))
    return best


def directed_hausdorff_dense(pts: np.ndarray, poly: np.ndarray) -> float:
    """Largest point-to-polyline distance from one n x m x 2 computation:
    the form `cycledetect._directed_hausdorff` had before it went blockwise
    and pruned its rows."""
    a = poly[:-1]
    d = poly[1:] - a
    l2 = np.maximum((d * d).sum(1), 1e-300)
    ap = pts[:, None, :] - a[None]
    t = np.clip((ap * d[None]).sum(-1) / l2[None], 0.0, 1.0)
    proj = a[None] + t[..., None] * d[None]
    dist2 = ((pts[:, None, :] - proj) ** 2).sum(-1)
    return float(np.sqrt(dist2.min(axis=1).max()))


def submersion_check_dense(v: VectorField, ws, delta: float, eta_lo: float, eta_hi: float,
                           grid: int, tol: float):
    """`milnorfiber.submersion_check` with grad P on the whole node grid, as
    it was computed before it went to the annulus nodes only; ws is the
    point's `_Workspace`."""
    lv = ws.level(grid)
    xs, ys = lv["xs"], lv["ys"]
    px, py = ws.location
    in_ball = ((xs - px) ** 2)[:, None] + ((ys - py) ** 2)[None, :] <= delta * delta
    g0n = lv["g0n"]
    mask = in_ball & (g0n >= eta_lo * eta_lo) & (g0n <= eta_hi * eta_hi)
    grad = np.hypot(v.p.partial(0).eval_outer(xs, ys), v.p.partial(1).eval_outer(xs, ys))
    bad = mask & (grad <= tol)
    if not bad.any():
        return True, None
    i, j = np.argwhere(bad)[0]
    return False, (float(xs[i]), float(ys[j]))


def hausdorff_resampled(a: np.ndarray, b: np.ndarray, step: float) -> float:
    """Symmetric Hausdorff distance between two closed polylines.

    Each curve is densified at the given arc-length step and measured
    against the other curve's segments exactly, so the only sampling
    error left is the variation of the distance field along one step,
    second order in step for smooth curves.
    """
    pa, pb = _close_loop(a), _close_loop(b)
    da = _dist_to_polyline(_densify(pa, step), pb).max()
    db = _dist_to_polyline(_densify(pb, step), pa).max()
    return float(max(da, db))


def circle(radius: float, n: int = 2048, cx: float = 0.0, cy: float = 0.0) -> np.ndarray:
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.column_stack([cx + radius * np.cos(th), cy + radius * np.sin(th)])


def vdp_period_reference(rtol: float = 1e-12) -> float:
    """Van der Pol (mu=1) period from scipy DOP853 at tight tolerance.

    Field orientation matches the corpus file: x' = y, y' = (1−x²)y − x.
    """
    def f(_, s):
        x, y = s
        return [y, (1.0 - x * x) * y - x]

    settle = scipy.integrate.solve_ivp(f, (0.0, 200.0), [2.0, 0.0],
                                       method="DOP853", rtol=rtol, atol=1e-14,
                                       dense_output=False)
    s0 = settle.y[:, -1]

    crossings = []

    def event(_, s):
        return s[1]
    event.direction = -1.0

    sol = scipy.integrate.solve_ivp(f, (0.0, 50.0), s0, method="DOP853",
                                    rtol=rtol, atol=1e-14, events=event)
    for t, s in zip(sol.t_events[0], sol.y_events[0]):
        if s[0] > 1.0:
            crossings.append(t)
    gaps = np.diff(crossings)
    return float(np.median(gaps))


def fd_partial(poly: Poly2, var: int, x: float, y: float, h: float = 1e-6) -> float:
    """Central-difference partial of a polynomial via the term-dict evaluator."""
    if var == 0:
        return float(eval_terms(poly, x + h, y) - eval_terms(poly, x - h, y)) / (2 * h)
    return float(eval_terms(poly, x, y + h) - eval_terms(poly, x, y - h)) / (2 * h)


def _combine(coeffs, ks):
    """Sums of c * k over the nonzero coefficients, left to right, per coordinate."""
    sx = sy = 0.0
    for c, k in zip(coeffs, ks):
        if c:
            sx = sx + c * k[0]
            sy = sy + c * k[1]
    return sx, sy


def rk_step_reference(f, x, y, h, k1=None):
    """`odeflow.rk_step` as a loop over the rows of DP_A and DP_E, the form it
    had before its stages were written out; the two must agree bit for bit."""
    if k1 is None:
        k1 = f(x, y)
    ks = [k1]
    for row in DP_A[1:]:
        sx, sy = _combine(row, ks)
        x5, y5 = x + h * sx, y + h * sy
        ks.append(f(x5, y5))
    ex, ey = _combine(DP_E, ks)
    return x5, y5, h * ex, h * ey, ks[6]


def hermite_root(y0, d0, y1, d1, level, lo, hi, flo, steps):
    """Bisect hermite(y0, d0, y1, d1, s) = level on [lo, hi] in `steps`
    halvings, on floats: the scalar loop that `odeflow.hermite_roots` must
    match bit for bit, element by element.

    flo is the interpolant minus level at lo; the bracket must hold a sign
    change.  Returns the midpoint of the final bracket.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = hermite(y0, d0, y1, d1, mid) - level
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def scout_reference(v: VectorField, seeds: np.ndarray, sections, cfg, time_sign: float):
    """`cycledetect._scout` with every line hit bisected on the spot.

    The per-hit loop that scouting used before it deferred its line hits to
    batched array bisections: each hit is solved by the scalar `hermite_root`
    and filed under its key at once, and a family that reaches _MAX_RETURNS
    stops its seed after the current step.  With `truncate_at_settle`
    applied, the families (keys, order, floats) must come out the same as
    `_scout`'s.
    """
    m = len(seeds)
    fams: list[dict] = [dict() for _ in range(m)]
    if m == 0:
        return fams

    def field(xx, yy):
        return time_sign * v.p.eval_grid(xx, yy), time_sign * v.q.eval_grid(xx, yy)

    bx0, bx1, by0, by1 = v.box.inflate(BOX_INFLATION)
    sy = [s.anchor[1] for s in sections]
    sax = [s.anchor[0] for s in sections]

    x = seeds[:, 0].astype(float).copy()
    y = seeds[:, 1].astype(float).copy()
    t = np.zeros(m)
    h = np.full(m, 1e-3)
    errp = np.ones(m)
    k1x, k1y = field(x, y)
    active = np.hypot(k1x, k1y) > 1e-10

    with np.errstate(all="ignore"):
        for _ in range(200_000):
            if not active.any():
                break
            idx = np.nonzero(active)[0]
            xa, ya = x[idx], y[idx]
            ha = np.minimum(h[idx], cfg.t_horizon - t[idx])
            x5, y5, ex, ey, (k7x, k7y) = rk_step(field, xa, ya, ha, (k1x[idx], k1y[idx]))
            scx = cd._SCOUT_ATOL + cd._SCOUT_RTOL * np.maximum(np.abs(xa), np.abs(x5))
            scy = cd._SCOUT_ATOL + cd._SCOUT_RTOL * np.maximum(np.abs(ya), np.abs(y5))
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
                f0 = ya_a - sy[si]
                f1 = y5_a - sy[si]
                hit = (f0 < 0) != (f1 < 0)
                for w in np.nonzero(hit)[0]:
                    g = int(gidx[w])
                    hh = float(ha_a[w])
                    py0, py1 = float(ya_a[w]), float(y5_a[w])
                    dy0, dy1 = float(k1y_a[w]) * hh, float(k7y_a[w]) * hh
                    tau = hermite_root(py0, dy0, py1, dy1, sy[si], 0.0, 1.0, py0 - sy[si], 45)
                    t_cross = float(t[g]) + tau * hh
                    if t_cross - float(t[g]) < 1e-12 and t[g] == 0.0:
                        continue
                    px0, px1 = float(xa_a[w]), float(x5_a[w])
                    dx0, dx1 = float(k1x_a[w]) * hh, float(k7x_a[w]) * hh
                    xc = hermite(px0, dx0, px1, dx1, tau)
                    dydt = hermite_deriv(py0, dy0, py1, dy1, tau)
                    if dydt == 0.0:
                        dydt = py1 - py0
                    dirc = 1 if dydt > 0 else -1
                    u = -(xc - sax[si])
                    if abs(u) < 1e-12:
                        continue
                    events = fams[g].setdefault((si, dirc, u > 0), [])
                    events.append((t_cross, u))
                    if len(events) >= cd._MAX_RETURNS:
                        active[g] = False

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
            eqm = np.hypot(k7x_a, k7y_a) < 1e-10
            tend = t[gidx] >= cfg.t_horizon - 1e-12
            dead = out | eqm | tend
            if dead.any():
                active[gidx[dead]] = False
    return fams


def truncate_at_settle(fams):
    """Scouting's stop rule, applied after a run that went on to the end.

    A family settles at its first crossing k >= 3 (0-based) whose u differs
    from the one before by less than max(1e-9, 0.1 _SCOUT_RTOL) times
    max(1, max |u|) over crossings 0..k.  Each seed is cut at the earliest
    time at which any of its families settles: every family keeps its
    crossings up to that time, and families left empty are dropped.
    """
    floor = max(1e-9, 0.1 * cd._SCOUT_RTOL)
    out = []
    for per_seed in fams:
        t_stop = math.inf
        for events in per_seed.values():
            umax = 1.0
            for k, (t, u) in enumerate(events):
                umax = max(umax, abs(u))
                if k >= 3 and abs(u - events[k - 1][1]) < floor * umax:
                    t_stop = min(t_stop, t)
                    break
        kept = {key: [e for e in evs if e[0] <= t_stop] for key, evs in per_seed.items()}
        out.append({key: evs for key, evs in kept.items() if evs})
    return out


# ---------------------------------------------------------------------------
# scalar interval arithmetic and critfind's box-by-box subdivision


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Interval:
    """Closed float interval with outward-rounded arithmetic.

    Every operation widens its result by one ulp per rounding site, so the
    returned interval always encloses the exact real result.  An interval
    with a NaN endpoint cannot be built.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def from_fraction(c: Fraction) -> "Interval":
        f = float(c)
        if Fraction(f) == c:
            return Interval(f, f)
        return Interval(_down(f), _up(f))

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def strictly_inside(self, other: "Interval") -> bool:
        return other.lo < self.lo and self.hi < other.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __mul__(self, other: "Interval") -> "Interval":
        ll = self.lo * other.lo
        lh = self.lo * other.hi
        hl = self.hi * other.lo
        hh = self.hi * other.hi
        return Interval(_down(min(ll, lh, hl, hh)), _up(max(ll, lh, hl, hh)))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.contains_zero():
            raise ZeroDivisionError("interval division by an interval containing 0")
        ll = self.lo / other.lo
        lh = self.lo / other.hi
        hl = self.hi / other.lo
        hh = self.hi / other.hi
        return Interval(_down(min(ll, lh, hl, hh)), _up(max(ll, lh, hl, hh)))

    def pow_int(self, n: int) -> "Interval":
        if n < 0:
            raise ValueError("negative exponent")
        if n == 0:
            return Interval(1.0, 1.0)
        if n % 2 == 0 and self.contains_zero():
            m = max(abs(self.lo), abs(self.hi))
            top = Interval(m, m)
            acc = top
            for _ in range(n - 1):
                acc = acc * top
            return Interval(0.0, acc.hi)
        # monotone on a sign-definite interval (or odd power): repeated product
        acc = self
        for _ in range(n - 1):
            acc = acc * self
        if n % 2 == 1:
            return acc
        return Interval(max(acc.lo, 0.0), acc.hi)


def interval_eval_scalar(p: Poly2, box: tuple[Interval, Interval]) -> Interval:
    """Sum of the monomial enclosures c * x^i * y^j, in sorted term order."""
    ix, iy = box
    if p.is_zero():
        return Interval(0.0, 0.0)
    terms = sorted(p.terms.items())
    mi = max(i for (i, _), _ in terms)
    mj = max(j for (_, j), _ in terms)
    xp = [Interval(1.0, 1.0)]
    for n in range(1, mi + 1):
        xp.append(ix.pow_int(n))
    yp = [Interval(1.0, 1.0)]
    for n in range(1, mj + 1):
        yp.append(iy.pow_int(n))
    acc = Interval(0.0, 0.0)
    for (i, j), c in terms:
        acc = acc + Interval.from_fraction(c) * xp[i] * yp[j]
    return acc


def _ibox(b):
    return Interval(b[0], b[1]), Interval(b[2], b[3])


def _mv_contains_zero(poly: Poly2, gx: Poly2, gy: Poly2, b) -> bool:
    ix, iy = _ibox(b)
    mx, my = ix.mid, iy.mid
    val = poly.eval(mx, my)
    mag = float(np.polynomial.polynomial.polyval2d(abs(mx), abs(my),
                                                   np.abs(poly.coeff_matrix())))
    err = 1e-13 * mag + 1e-300
    fm = Interval(val - err, val + err)
    dx = ix - Interval.point(mx)
    dy = iy - Interval.point(my)
    mv = fm + interval_eval_scalar(gx, (ix, iy)) * dx + interval_eval_scalar(gy, (ix, iy)) * dy
    return mv.contains_zero()


def _interval_newton(parts: dict, pv: Poly2, qv: Poly2, b):
    ix, iy = _ibox(b)
    mx, my = ix.mid, iy.mid
    fm1 = interval_eval_scalar(pv, (Interval.point(mx), Interval.point(my)))
    fm2 = interval_eval_scalar(qv, (Interval.point(mx), Interval.point(my)))
    j11 = interval_eval_scalar(parts["px"], (ix, iy))
    j12 = interval_eval_scalar(parts["py"], (ix, iy))
    j21 = interval_eval_scalar(parts["qx"], (ix, iy))
    j22 = interval_eval_scalar(parts["qy"], (ix, iy))
    det = j11 * j22 - j12 * j21
    if det.contains_zero():
        return "unknown", b
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


def subdivide_reference(v: VectorField):
    """critfind's breadth-first subdivision, one box at a time on `Interval`:
    (certified, unresolved), the first as (box, contracted box) pairs."""
    parts = {
        "px": v.p.partial(0),
        "py": v.p.partial(1),
        "qx": v.q.partial(0),
        "qy": v.q.partial(1),
    }
    x0, x1, y0, y1 = v.box.floats()
    level = [(x0, x1, y0, y1)]
    certified = []
    unresolved = []
    depth = 0
    while level:
        if depth > cf._MAX_DEPTH:
            raise DepthLimitExceeded(
                f"subdivision did not terminate at depth {cf._MAX_DEPTH}; "
                "the zero set may be a curve",
                box=level[0],
            )
        if len(level) > cf._BOX_BUDGET:
            raise DepthLimitExceeded(
                f"{len(level)} live boxes at depth {depth}; "
                "the zero set may be a curve",
                box=level[0],
            )
        nxt = []
        for b in level:
            ix, iy = _ibox(b)
            if not interval_eval_scalar(v.p, (ix, iy)).contains_zero():
                continue
            if not interval_eval_scalar(v.q, (ix, iy)).contains_zero():
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
            if max(b[1] - b[0], b[3] - b[2]) < cf._RESOLUTION_TOL:
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
    return certified, unresolved
