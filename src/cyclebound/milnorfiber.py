"""Fibers of the local squared-distance map around a critical point.

For a zero p of the field V, the local model is f = V - V(p) and the fiber
at level eta is the curve {x : ||V(x) - V(p)||^2 = eta^2} clipped to the ball
B_delta(p).  Closed loops of that curve are what the homological cycle bound
counts; the count is swept over a geometric range of eta values and read off
where it stabilizes toward small eta.

Extraction is marching squares on g = ||V - V(p)||^2 - eta^2 with linear edge
interpolation.  Saddle cells are resolved by the sign of g at the cell
center.  Cells whose corner signs hide a possible component (uniform sign,
not next to any crossed cell, but with a Taylor enclosure of g straddling 0)
are unresolved.  Below the grid cap a topology is accepted only when nothing
is left unresolved and it agrees with the previous grid's (the first grid
has no previous one, so the count alone decides); otherwise the grid
doubles.  At the cap agreement alone decides, so the cap grid never builds
the enclosure.  A cap grid refined into from the grid of half its cells
builds no level either: it evaluates g0 only at the nodes of the band, the
children of the parent cells whose enclosure does not exclude the curve
(Plantinga & Vegter, SGP 2004), and its chains are the dense grid's, bit for
bit.

The enclosure is a third-order Taylor form per cell (see `_Workspace`): the
gradient and Hessian at the cell centre, plus one bound on the third
derivatives over the ball for the Lagrange remainder.  A cell is unresolved
only where g itself may vanish inside it, not wherever a ball-wide second
derivative bound says it might.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polyalg import Poly2, VectorField


# the smallest eta whose square is a normal float: for smaller eta,
# eta * eta < sys.float_info.min
ETA_MIN = math.sqrt(sys.float_info.min)


class FiberError(RuntimeError):
    pass


class DeltaCollapse(FiberError):
    """No usable ball radius: a neighbor zero or the box edge is too close."""


class GridTooCoarse(FiberError):
    """Topology still changing between refinements at the grid cap."""


class EtaTooLarge(FiberError):
    """The fiber touches the ball boundary tangentially."""


@dataclass(frozen=True)
class FiberConfig:
    grid: int = 256
    max_grid: int = 2048
    sweep_len: int = 8
    stable_tail: int = 4
    delta_cap: float = 10.0
    submersion_tol: float = 1e-8
    sphere_samples: int = 720
    delta_min: float = 1e-6
    tangency_tol: float = 1e-6


@dataclass(frozen=True)
class Component:
    """One connected piece of the fiber curve, as a vertex polyline."""

    vertices: tuple[tuple[float, float], ...]
    closed: bool

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("component needs at least 3 vertices")

    def as_array(self) -> np.ndarray:
        return np.array(self.vertices)


@dataclass(frozen=True)
class FiberCurve:
    components: tuple[Component, ...]
    eta: float
    delta: float
    grid_resolution: int

    @property
    def closed_count(self) -> int:
        return sum(1 for c in self.components if c.closed)

    @property
    def arc_count(self) -> int:
        return sum(1 for c in self.components if not c.closed)


@dataclass(frozen=True)
class MilnorData:
    """Loop-count sweep for one critical point."""

    point_id: int
    delta: float
    eta_sweep: tuple[float, ...]
    counts_per_eta: tuple  # (closed, arcs) per eta, None where extraction failed
    l: int
    stable: bool
    submersion_ok: bool
    witness: tuple[float, float] | None


def select_radii(
    v: VectorField,
    location: tuple[float, float],
    other_locations=(),
    cfg: FiberConfig = FiberConfig(),
) -> tuple[float, list[float]]:
    """Ball radius delta and a descending geometric eta sweep for one zero.

    delta = min(cap, half the distance to the nearest other zero, half the
    distance to the box boundary); the sweep top is half the minimal field
    distance on the sphere of radius delta, the bottom is top/100.
    """
    x, y = location
    x0, x1, y0, y1 = v.box.floats()
    d_box = min(x - x0, x1 - x, y - y0, y1 - y)
    d_cp = math.inf
    for ox, oy in other_locations:
        d = math.hypot(x - ox, y - oy)
        if d > 0:
            d_cp = min(d_cp, d)
    delta = min(cfg.delta_cap, 0.5 * d_box, 0.5 * d_cp)
    if delta < cfg.delta_min:
        raise DeltaCollapse(
            f"ball radius {delta:.3e} below {cfg.delta_min:.1e} at ({x:.6g}, {y:.6g})"
        )
    theta = np.linspace(0.0, 2.0 * math.pi, cfg.sphere_samples, endpoint=False)
    sx = x + delta * np.cos(theta)
    sy = y + delta * np.sin(theta)
    p0 = v.p.eval(x, y)
    q0 = v.q.eval(x, y)
    norms = np.hypot(v.p.eval_grid(sx, sy) - p0, v.q.eval_grid(sx, sy) - q0)
    eta_max = 0.5 * float(norms.min())
    if eta_max <= 0.0:
        raise DeltaCollapse("field distance vanishes on the sphere; another zero nearby?")
    if eta_max / 100.0 < ETA_MIN:
        raise FiberError(f"sweep bottom eta {eta_max / 100.0:.3e} is below {ETA_MIN:.9g}: "
                         "its square underflows")
    sweep = list(np.geomspace(eta_max, eta_max / 100.0, cfg.sweep_len))
    return delta, sweep


def _third_order_bound(g0: Poly2, px: float, py: float, delta: float) -> float:
    """Bound on |g_xxx| + 3|g_xxy| + 3|g_xyy| + |g_yyy| over the square
    [p - delta, p + delta]^2, as a float (inf if it exceeds the float range).

    g0 is recentred at p exactly, so each third partial is a polynomial in
    (u, v) with |u|, |v| <= delta, bounded by its absolute coefficients at
    (delta, delta).  The sum is exact in Fractions; only the result is
    rounded, so a coefficient with no float value cannot make it fail.
    """
    c = g0.compose_affine(1, 0, 0, 1, Fraction(px), Fraction(py))
    d = Fraction(delta)
    cx, cy = c.partial(0), c.partial(1)
    total = Fraction(0)
    for part, w in ((cx.partial(0).partial(0), 1), (cx.partial(0).partial(1), 3),
                    (cx.partial(1).partial(1), 3), (cy.partial(1).partial(1), 1)):
        total += w * sum(abs(a) * d ** (i + j) for (i, j), a in part.terms.items())
    try:
        return float(total)
    except OverflowError:
        return math.inf


# cells per row block of a level's centre arrays: 1 MiB of floats
_BLOCK = 1 << 17


class _Workspace:
    """Per-(field, point, delta) caches: the distance-squared polynomial, and
    per grid the node values (`level`) and the cell enclosures
    (`enclosure`), reused across the eta sweep, plus the band's rounding
    margin (`margin`).  `extract_fiber` asks for the enclosure only at grids
    below its cap: at the cap topology agreement alone decides, so nothing
    would read it there.  It asks for the cap's dense level only on a cold
    start at the cap (grid == max_grid), or when the band is wider than
    _BLOCK cells; a cap it refined into reads g0 only in the band of the
    previous grid's enclosure.

    Each cell of half-width r = h/2 around its centre c gets a radius that
    encloses |g0 - g0(c)| on the cell.  Taylor's theorem with the Lagrange
    remainder, for |dx|, |dy| <= r, gives

        rad = (|g_x| + |g_y|)(c) r + 1/2 (|g_xx| + 2|g_xy| + |g_yy|)(c) r^2
              + T3 r^3 / 6,

    where T3 bounds |g_xxx| + 3|g_xxy| + 3|g_xyy| + |g_yyy| on the whole ball
    square (`_third_order_bound`).  The first two terms are per cell, so a
    cell far from the curve is resolved as soon as its own derivatives allow;
    only the cubic term is global, and it shrinks as h^3.  1e-12 of the
    largest |g0| at the nodes absorbs the rounding of the float evaluation.

    Grid evaluation is separable (`Poly2.eval_outer`): Horner runs on the
    1-D x axis, then the y pass multiplies and adds into one preallocated
    (n+1)^2 array in place, so a level of n cells holds no coordinate
    meshes and no per-coefficient-row temporaries.  Each value goes through
    the same operations as polyval2d at that point, in the same order."""

    def __init__(self, v: VectorField, location: tuple[float, float], delta: float):
        self.location = (float(location[0]), float(location[1]))
        self.delta = float(delta)
        px, py = self.location
        p0 = Fraction(v.p.eval(px, py))
        q0 = Fraction(v.q.eval(px, py))
        dp = v.p - Poly2({(0, 0): p0})
        dq = v.q - Poly2({(0, 0): q0})
        self.g0 = dp * dp + dq * dq
        self.g0x = self.g0.partial(0)
        self.g0y = self.g0.partial(1)
        # (polynomial, weight) pairs of the second-order term, 1/2 a^T H a
        self._hess = ((self.g0x.partial(0), 0.5), (self.g0x.partial(1), 1.0),
                      (self.g0y.partial(1), 0.5))
        try:
            for p in (self.g0, *(hp for hp, _ in self._hess)):
                p.coeff_matrix()
        except OverflowError:
            raise FiberError("|V - V(p)|^2 has coefficients beyond the float range") from None
        self._t3 = _third_order_bound(self.g0, px, py, self.delta)
        self._levels: dict[int, dict] = {}
        self._enclosures: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._margin: float | None = None
        self._point_err: float | None = None

    def axes(self, n: int):
        """The grid of n cells, without its node values: the node axes xs and
        ys, and per cell column and row how far the cell lies from p beyond
        its half-width (ndx, ndy).  A cell meets the closed ball when
        ndx^2 + ndy^2 <= delta^2."""
        px, py = self.location
        d = self.delta
        xs = np.linspace(px - d, px + d, n + 1)
        ys = np.linspace(py - d, py + d, n + 1)
        r = 0.5 * (2.0 * d / n)
        ndx = np.maximum(np.abs(0.5 * (xs[:-1] + xs[1:]) - px) - r, 0.0)
        ndy = np.maximum(np.abs(0.5 * (ys[:-1] + ys[1:]) - py) - r, 0.0)
        return xs, ys, ndx, ndy

    def level(self, n: int) -> dict:
        """The grid of n cells: axes "xs" and "ys", node values "g0n", the
        cells "keep" that meet the closed ball, and the cell width "h".
        `extract_fiber` builds no such level at a cap grid that it refined
        into: that march reads g0 only in the band (`_band_crossings`)."""
        lv = self._levels.get(n)
        if lv is not None:
            return lv
        xs, ys, ndx, ndy = self.axes(n)
        # cells fully outside the closed ball get discarded; keep is built
        # before g0n, so that its float temporary is gone when g0n is made
        keep = (ndx * ndx)[:, None] + (ndy * ndy)[None, :] <= self.delta * self.delta
        lv = {"xs": xs, "ys": ys, "g0n": self.g0.eval_outer(xs, ys), "keep": keep,
              "h": 2.0 * self.delta / n}
        self._levels[n] = lv
        return lv

    def enclosure(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(g0c, rad) on the grid of n cells: g0 at each cell centre and the
        cell's Taylor radius.  Built on first request, because only a grid
        that can still refine reads it."""
        enc = self._enclosures.get(n)
        if enc is not None:
            return enc
        lv = self.level(n)
        xs, ys = lv["xs"], lv["ys"]
        r = 0.5 * lv["h"]
        cx = 0.5 * (xs[:-1] + xs[1:])
        cy = 0.5 * (ys[:-1] + ys[1:])
        g0c = np.empty((n, n))
        rad = np.empty((n, n))
        # row blocks of about _BLOCK cells keep each pass in cache; within a
        # block one temporary is alive at a time: evaluate, abs, scale, add
        step = max(1, _BLOCK // n)
        for s in range(0, n, step):
            bx, blk = cx[s:s + step], rad[s:s + step]
            g0c[s:s + step] = self.g0.eval_outer(bx, cy)
            np.abs(self.g0x.eval_outer(bx, cy), out=blk)
            t = self.g0y.eval_outer(bx, cy)
            blk += np.abs(t, out=t)
            blk *= r
            for hp, w in self._hess:
                t = hp.eval_outer(bx, cy)
                np.abs(t, out=t)
                t *= w * r * r
                blk += t
        rad += self._t3 * r ** 3 / 6.0 + 1e-12 * float(np.abs(lv["g0n"]).max()) + 1e-300
        enc = self._enclosures[n] = (g0c, rad)
        return enc

    def margin(self) -> float:
        """The float-rounding margin M of the band rule (`_band_crossings`),
        computed on first use.  It also sets `_point_err`, the bound on
        |float g0 - exact g0| at any node or centre of any grid of this ball.

        The rule: for a cap node z of a parent cell with float centre c,
        |g0(z) - g0c| <= |g0(z) - G(z)| + |G(z) - G(c)| + |G(c) - g0c|, with
        G exact g0 and g0, g0c as floats.  The outer terms are at most
        `_point_err` each, and the middle one at most rad plus the radius and
        geometry shares below.  So |g0c - eta^2| - rad > M puts every g0(z)
        - eta^2 on the side of g0c - eta^2.

        Each share is bounded through A(q) = sum |q_ij| X^i Y^j, with q_ij the
        float coefficients of q and X = |px| + delta, Y = |py| + delta, each
        widened by 2^-20, so that every node and centre lies in
        [-X, X] x [-Y, Y].  Let u = 2^-53, g0 have x-degree a and y-degree b,
        and Gam = m u / (1 - m u) with m = 2 (a + b) + 20.

        - Evaluation: Horner in x, then in y, with rounded coefficients,
          puts float q within gamma_(2(a+b)+1) A(q) of exact q at a float
          point, for g0 and for each of its derivatives.
          `_point_err` = Gam A(g0).
        - Radius: the float rad may fall short of the exact Taylor bound at
          c through its derivative values, T3's rounding, its own dozen
          float operations and the rounding of the test itself.  rad is at
          most 2 T + 2e-12 A(g0), with T = (A(gx) + A(gy)) delta
          + (A(gxx)/2 + A(gxy) + A(gyy)/2) delta^2 + T3 delta^3 / 6 (a cell's
          half-width is below delta), so 4 Gam T covers the shortfall; the
          20 spare roundings of Gam in `_point_err` cover the rest.
        - Geometry: `np.linspace` puts each node within 10 u X of its exact
          place and a float centre within 11 u X of the exact one, so a cap
          node of a parent cell lies within eps = 32 u max(X, Y) of the box
          c +- r that rad covers.  Moving that far changes G by at most
          (A(gx) + A(gy)) eps, and widens the square on which T3 bounds the
          third derivatives by eps, which scales T3 by at most
          (1 + eps / delta)^deg g0.

        M = 2 `_point_err` + 4 Gam T + (A(gx) + A(gy)) eps
        + T3 delta^3 / 6 ((1 + eps / delta)^deg g0 - 1), with every A and the
        sum rounded up by a factor 1 + 2^-20.  M is inf where any part leaves
        the float range, and then nothing is excluded.
        """
        if self._margin is None:
            u = 2.0 ** -53
            px, py = self.location
            d = self.delta
            up = 1.0 + 2.0 ** -20
            big_x, big_y = (abs(px) + d) * up, (abs(py) + d) * up
            with np.errstate(over="ignore", invalid="ignore"):
                def a(q):
                    return float(np.polynomial.polynomial.polyval2d(
                        big_x, big_y, q.abs_coeff_matrix())) * up

                mi, mj = self.g0.coeff_matrix().shape
                m = 2 * (mi + mj - 2) + 20
                gam = m * u / (1.0 - m * u)
                (hxx, _), (hxy, _), (hyy, _) = self._hess
                a1 = a(self.g0x) + a(self.g0y)
                t = a1 * d + (0.5 * a(hxx) + a(hxy) + 0.5 * a(hyy)) * d * d \
                    + self._t3 * d ** 3 / 6.0
                eps = 32.0 * u * max(big_x, big_y)
                widen = math.expm1(self.g0.degree * math.log1p(eps / d))
                self._point_err = gam * a(self.g0)
                self._margin = (2.0 * self._point_err + 4.0 * gam * t + a1 * eps
                                + self._t3 * d ** 3 / 6.0 * widen) * up
        return self._margin


# case -> segments, each a pair of cell edges; an edge is the offset of its
# key (kind, i, j) from the cell (i, j): "h" keys the edge from node (i, j)
# to (i+1, j), "v" the edge from (i, j) to (i, j+1).
# corner bit 1 = (i, j), 2 = (i+1, j), 4 = (i+1, j+1), 8 = (i, j+1)
_BOTTOM, _RIGHT, _TOP, _LEFT = ("h", 0, 0), ("v", 1, 0), ("h", 0, 1), ("v", 0, 0)
_SEGMENTS = {
    1: ((_LEFT, _BOTTOM),),
    2: ((_BOTTOM, _RIGHT),),
    3: ((_LEFT, _RIGHT),),
    4: ((_RIGHT, _TOP),),
    6: ((_BOTTOM, _TOP),),
    7: ((_LEFT, _TOP),),
    8: ((_TOP, _LEFT),),
    9: ((_BOTTOM, _TOP),),
    11: ((_RIGHT, _TOP),),
    12: ((_LEFT, _RIGHT),),
    13: ((_BOTTOM, _RIGHT),),
    14: ((_LEFT, _BOTTOM),),
}
_SADDLE = {
    # center negative / center nonnegative
    5: (((_BOTTOM, _RIGHT), (_TOP, _LEFT)), ((_LEFT, _BOTTOM), (_RIGHT, _TOP))),
    10: (((_LEFT, _BOTTOM), (_RIGHT, _TOP)), ((_BOTTOM, _RIGHT), (_TOP, _LEFT))),
}


def _band_crossings(ws: _Workspace, lvl: float, n: int):
    """The crossed cells of the grid of n cells, found from g0 at the nodes
    of the band alone, or None when the band is too wide to pay.

    The band is the children of the cells of grid n/2 that its enclosure
    cannot exclude.  A parent cell with |g0c - eta^2| - rad > M, for the
    rounding margin M (`_Workspace.margin`), has g0 - eta^2 of one sign, as
    floats, at every cap node it contains, so none of its four children is
    crossed.  The even nodes of grid n are grid n/2's nodes (`np.linspace`
    steps by exactly twice as much there), and a band node's value comes
    from `Poly2.eval_grid`, pointwise bit-identical to `eval_outer`: the
    cells, cases and node values are those of the dense level.

    Returns the node axes, the crossed cells (i, j) in row-major order,
    their corner cases and a lookup of node values by (i, j) arrays.
    """
    g0c, rad = ws.enclosure(n // 2)
    slack = g0c - lvl
    np.abs(slack, out=slack)
    # inf - inf where the radius overflows: a NaN stays in the band
    with np.errstate(invalid="ignore"):
        slack -= rad
    pi, pj = np.nonzero(~(slack > ws.margin()))
    if 4 * len(pi) > _BLOCK:
        return None
    xs, ys, ndx, ndy = ws.axes(n)
    # each parent's first cap row and column
    i0, j0 = 2 * pi[:, None], 2 * pj[:, None]
    cells = np.sort(((i0 + [0, 0, 1, 1]) * n + j0 + [0, 1, 0, 1]).ravel())
    nodes = np.unique((i0 + [0, 0, 0, 1, 1, 1, 2, 2, 2]) * (n + 1)
                      + j0 + [0, 1, 2, 0, 1, 2, 0, 1, 2])
    ni, nj = np.divmod(nodes, n + 1)
    vals = ws.g0.eval_grid(xs[ni], ys[nj])

    def at(i, j):
        return vals[np.searchsorted(nodes, i * (n + 1) + j)]

    ii, jj = np.divmod(cells, n)
    c00, c10 = at(ii, jj) < lvl, at(ii + 1, jj) < lvl
    c11, c01 = at(ii + 1, jj + 1) < lvl, at(ii, jj + 1) < lvl
    keep = ndx[ii] * ndx[ii] + ndy[jj] * ndy[jj] <= ws.delta * ws.delta
    crossing = (c00 | c10 | c11 | c01) & ~(c00 & c10 & c11 & c01) & keep
    case = c00 + 2 * c10 + 4 * c11 + 8 * c01
    return xs, ys, ii[crossing], jj[crossing], case[crossing], at


def _march(ws: _Workspace, eta: float, n: int, count: bool = True, band: bool = False):
    """One marching-squares pass; returns (chains, unresolved_count).

    chains: list of (vertex array, closed flag), unclipped.  A closed chain
    repeats its first vertex at its end.  The unresolved count only decides
    whether to refine, so with count=False, as at the grid cap, it is None
    and the cell enclosure is not built.  With band=True (so count=False),
    the crossed cells come from the band of grid n/2's enclosure
    (`_band_crossings`) and no level is built at n, unless the band holds
    more than _BLOCK cells; the dense level is used then.  Either way the
    chains are the same, bit for bit.
    """
    lvl = eta * eta
    unresolved = None
    found = _band_crossings(ws, lvl, n) if band else None
    if found is not None:
        xs, ys, ii, jj, case, at = found
    else:
        lv = ws.level(n)
        xs, ys, g0n, keep = lv["xs"], lv["ys"], lv["g0n"], lv["keep"]
        neg = g0n < lvl  # g = g0n - lvl < 0, tested without forming g
        c00, c10, c11, c01 = neg[:-1, :-1], neg[1:, :-1], neg[1:, 1:], neg[:-1, 1:]
        crossing = (c00 | c10 | c11 | c01) & ~(c00 & c10 & c11 & c01) & keep

        if count:
            # a kept cell not next to any crossed cell, whose Taylor enclosure
            # of g straddles zero, may hide a component below grid
            # resolution.  The 3x3 dilation runs along each axis in two
            # in-place steps: the second reads the first's result, so each
            # cell ORs itself and both neighbours.
            adj = crossing.copy()
            adj[1:] |= adj[:-1]
            adj[:-1] |= adj[1:]
            adj[:, 1:] |= adj[:, :-1]
            adj[:, :-1] |= adj[:, 1:]
            g0c, rad = ws.enclosure(n)
            gc = g0c - lvl
            unresolved = np.count_nonzero(keep & ~adj & (np.abs(gc, out=gc) <= rad))

        ii, jj = np.divmod(np.flatnonzero(crossing), n)
        case = c00[ii, jj] + 2 * c10[ii, jj] + 4 * c11[ii, jj] + 8 * c01[ii, jj]

        def at(i, j):
            return g0n[i, j]

    # a saddle cell takes the sign of g at its centre, evaluated at those
    # cells alone: bit-identical to the enclosure's g0c there
    sad = (case == 5) | (case == 10)
    si, sj = ii[sad], jj[sad]
    below = np.zeros(len(ii), bool)
    below[sad] = ws.g0.eval_grid(0.5 * (xs[si] + xs[si + 1]),
                                 0.5 * (ys[sj] + ys[sj + 1])) - lvl < 0.0
    # an edge borders two cells and a cell's segments use each of its edges
    # at most once, so every edge key has at most two neighbours: the
    # segments form simple paths and loops
    nbrs: dict[tuple, list[tuple]] = {}
    for i, j, c, b in zip(ii.tolist(), jj.tolist(), case.tolist(), below.tolist()):
        segs = _SADDLE[c][0 if b else 1] if c in _SADDLE else _SEGMENTS[c]
        for (kind1, di1, dj1), (kind2, di2, dj2) in segs:
            k1, k2 = (kind1, i + di1, j + dj1), (kind2, i + di2, j + dj2)
            nbrs.setdefault(k1, []).append(k2)
            nbrs.setdefault(k2, []).append(k1)

    # paths start at their smaller end, loops at their smallest key towards
    # its smaller neighbour
    chains = []
    seen = set()
    for start in sorted(k for k, nb in nbrs.items() if len(nb) == 1) + sorted(nbrs):
        if start in seen:
            continue
        keys = [start]
        prev, cur = start, min(nbrs[start])
        while cur != start:
            keys.append(cur)
            nb = nbrs[cur]
            if len(nb) == 1:
                break
            prev, cur = cur, nb[1] if nb[0] == prev else nb[0]
        seen.update(keys)
        if cur == start:
            keys.append(start)
        chains.append((keys, cur == start))
    if not chains:
        return [], unresolved

    # linear interpolation along each edge, all vertices at once
    kinds, ki, kj = zip(*(k for keys, _ in chains for k in keys))
    hor = np.array(kinds) == "h"
    i, j = np.array(ki), np.array(kj)
    i1, j1 = i + hor, j + ~hor
    ga, gb = at(i, j) - lvl, at(i1, j1) - lvl
    t = ga / (ga - gb)
    x0, y0 = xs[i], ys[j]
    x = np.where(hor, x0 + t * (xs[i1] - x0), x0)
    y = np.where(hor, y0, y0 + t * (ys[j1] - y0))
    pts = np.split(np.column_stack([x, y]), np.cumsum([len(k) for k, _ in chains[:-1]]))
    return [(p, closed) for p, (_, closed) in zip(pts, chains)], unresolved


def _snap_chain(ws: _Workspace, eta: float, pts: np.ndarray, h: float) -> np.ndarray:
    """Project marching vertices onto {g0 = eta^2} by damped Newton steps.

    Edge interpolation is only first order in the cell size, which is too
    sloppy for components spanning a few cells; two or three gradient-flow
    corrections push the residual to roundoff. Steps are capped at 0.6 h so
    a near-critical gradient cannot throw a vertex far from its cell.
    """
    x = pts[:, 0].copy()
    y = pts[:, 1].copy()
    lvl = eta * eta
    cap = 0.6 * h
    for _ in range(3):
        g = ws.g0.eval_grid(x, y) - lvl
        gx = ws.g0x.eval_grid(x, y)
        gy = ws.g0y.eval_grid(x, y)
        n2 = gx * gx + gy * gy
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(n2 > 0.0, g / np.maximum(n2, 1e-300), 0.0)
        dx = -step * gx
        dy = -step * gy
        d = np.hypot(dx, dy)
        scale = np.where(d > cap, cap / np.maximum(d, 1e-300), 1.0)
        x = x + dx * scale
        y = y + dy * scale
    return np.column_stack([x, y])


def _circle_cut(a, b, center, delta):
    """Parameter t in [0, 1] where segment a->b crosses the circle."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    fx, fy = a[0] - center[0], a[1] - center[1]
    aa = dx * dx + dy * dy
    if aa == 0.0:
        return 0.0
    bb = 2.0 * (dx * fx + dy * fy)
    cc = fx * fx + fy * fy - delta * delta
    disc = bb * bb - 4.0 * aa * cc
    if disc < 0.0:
        disc = 0.0
    root = math.sqrt(disc)
    t1 = (-bb - root) / (2.0 * aa)
    t2 = (-bb + root) / (2.0 * aa)
    if 0.0 <= t1 <= 1.0:
        return t1
    return min(max(t2, 0.0), 1.0)


def _clip_chain(pts: np.ndarray, closed: bool, center, delta):
    """Portions of a chain inside the closed ball; exits become sphere arcs."""
    r2 = (pts[:, 0] - center[0]) ** 2 + (pts[:, 1] - center[1]) ** 2
    inside = r2 <= delta * delta * (1.0 + 1e-12)
    if inside.all():
        return [(pts, closed)]
    if not inside.any():
        return []
    if closed:
        # open the loop at an outside vertex and scan linearly
        k = int(np.argmax(~inside))
        pts = np.vstack([pts[k:], pts[1 : k + 1]])
        r2 = (pts[:, 0] - center[0]) ** 2 + (pts[:, 1] - center[1]) ** 2
        inside = r2 <= delta * delta * (1.0 + 1e-12)
    pieces = []
    cur: list = []
    for n in range(len(pts)):
        if inside[n]:
            if not cur and n > 0:
                t = _circle_cut(pts[n], pts[n - 1], center, delta)
                cut = pts[n] + t * (pts[n - 1] - pts[n])
                cur.append(tuple(cut))
            cur.append(tuple(pts[n]))
        else:
            if cur:
                t = _circle_cut(pts[n - 1], pts[n], center, delta)
                cut = pts[n - 1] + t * (pts[n] - pts[n - 1])
                cur.append(tuple(cut))
                pieces.append(cur)
                cur = []
    if cur:
        pieces.append(cur)
    return [(np.array(p), False) for p in pieces if len(p) >= 3]


def _extract_once(ws: _Workspace, eta: float, n: int, count: bool, band: bool):
    chains, unresolved = _march(ws, eta, n, count, band)
    h = 2.0 * ws.delta / n
    comps = []
    for pts, closed in chains:
        pts = _snap_chain(ws, eta, pts, h)
        for cpts, cclosed in _clip_chain(pts, closed, ws.location, ws.delta):
            if len(cpts) < 3:
                continue
            comps.append(
                Component(
                    vertices=tuple((float(x), float(y)) for x, y in cpts),
                    closed=cclosed,
                )
            )
    comps.sort(key=lambda c: (min(p[0] for p in c.vertices), min(p[1] for p in c.vertices)))
    return comps, unresolved


def _check_tangency(comps, ws: _Workspace, n: int, cfg: FiberConfig):
    cx, cy = ws.location
    d = ws.delta
    cell = 2.0 * d / n
    for c in comps:
        arr = c.as_array()
        rmax = float(np.hypot(arr[:, 0] - cx, arr[:, 1] - cy).max())
        if c.closed and rmax >= d * (1.0 - cfg.tangency_tol):
            raise EtaTooLarge(
                f"closed fiber component reaches radius {rmax:.9g} of ball {d:.9g}"
            )
        if not c.closed:
            e1 = np.array(c.vertices[0])
            e2 = np.array(c.vertices[-1])
            if np.hypot(*(e1 - e2)) < cell and len(c.vertices) <= 4:
                raise EtaTooLarge("fiber grazes the ball boundary within one cell")


def extract_fiber(
    v: VectorField,
    location: tuple[float, float],
    delta: float,
    eta: float,
    cfg: FiberConfig = FiberConfig(),
    grid: int | None = None,
    _ws: _Workspace | None = None,
) -> FiberCurve:
    """Marching-squares extraction of the fiber curve at one eta level.

    A grid that can still double within cfg.max_grid is accepted when it
    leaves no cell unresolved and its topology agrees with the previous
    grid's (the first grid has no previous one, so the count alone decides);
    otherwise the grid doubles.  At the cap, the last grid, agreement alone
    decides: the topology is accepted, or GridTooCoarse is raised.  The cap
    grid neither counts unresolved cells nor builds their enclosure.  When
    this call refined into the cap from the grid of half its cells, the cap
    pass evaluates g0 only in the band that grid's enclosure leaves open
    (`_band_crossings`) and builds no cap level; a cold start at the cap
    marches the dense level, whatever enclosures the workspace holds.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if eta < ETA_MIN:
        # marching compares g0 with eta^2, which would lose its bits or flush to 0
        raise ValueError(f"eta {eta:g} is below {ETA_MIN:.9g}: its square underflows")
    ws = _ws if _ws is not None else _Workspace(v, location, delta)
    n = int(grid) if grid is not None else cfg.grid
    if n < 64:
        raise ValueError("grid must be at least 64")
    prev_topo = None
    while True:
        can_refine = 2 * n <= cfg.max_grid
        # a cap grid refined into from n // 2 in this call marches the band
        # of that grid's enclosure; a cold start at the cap has none
        comps, unresolved = _extract_once(ws, eta, n, can_refine,
                                          not can_refine and prev_topo is not None)
        topo = (sum(c.closed for c in comps), sum(not c.closed for c in comps))
        settled = prev_topo is None or topo == prev_topo
        if not can_refine:
            if settled:
                break
            raise GridTooCoarse(
                f"topology changed from {prev_topo} to {topo} at the {cfg.max_grid} grid cap"
            )
        if unresolved == 0 and settled:
            break
        prev_topo = topo
        n *= 2
    _check_tangency(comps, ws, n, cfg)
    return FiberCurve(components=tuple(comps), eta=float(eta), delta=float(ws.delta),
                      grid_resolution=n)


def betti(fiber: FiberCurve) -> tuple[int, int]:
    """(number of components, number of closed components)."""
    return len(fiber.components), fiber.closed_count


def submersion_check(
    v: VectorField,
    location: tuple[float, float],
    delta: float,
    eta_lo: float,
    eta_hi: float,
    cfg: FiberConfig = FiberConfig(),
    _ws: _Workspace | None = None,
):
    """Does the first field component have a nonvanishing gradient on the
    eta annulus inside the ball?  Returns (ok, witness_or_None)."""
    ws = _ws if _ws is not None else _Workspace(v, location, delta)
    lv = ws.level(cfg.grid)
    xs, ys = lv["xs"], lv["ys"]
    px, py = ws.location
    in_ball = ((xs - px) ** 2)[:, None] + ((ys - py) ** 2)[None, :] <= delta * delta
    g0n = lv["g0n"]
    mask = in_ball & (g0n >= eta_lo * eta_lo) & (g0n <= eta_hi * eta_hi)
    if not mask.any():
        return True, None
    grad = np.hypot(v.p.partial(0).eval_outer(xs, ys), v.p.partial(1).eval_outer(xs, ys))
    bad = mask & (grad <= cfg.submersion_tol)
    if not bad.any():
        return True, None
    i, j = np.argwhere(bad)[0]
    return False, (float(xs[i]), float(ys[j]))


def vanishing_cycle_count(
    v: VectorField,
    point_id: int,
    location: tuple[float, float],
    other_locations=(),
    cfg: FiberConfig = FiberConfig(),
) -> MilnorData:
    """Sweep the eta range for one zero and read off the stabilized loop count.

    Individual level failures are recorded as None and do not abort the
    sweep; stability requires the final cfg.stable_tail levels (the small-eta
    end) to agree exactly.
    """
    delta, sweep = select_radii(v, location, other_locations, cfg)
    ws = _Workspace(v, location, delta)
    counts: list[tuple[int, int] | None] = []
    for eta in sweep:
        try:
            fiber = extract_fiber(v, location, delta, eta, cfg, _ws=ws)
            counts.append((fiber.closed_count, fiber.arc_count))
        except FiberError:
            counts.append(None)
    tail = counts[-cfg.stable_tail:]
    stable = len(tail) == cfg.stable_tail and all(c is not None for c in tail) and \
        len({c[0] for c in tail}) == 1
    if stable:
        l = tail[-1][0]
    else:
        l = next((c[0] for c in reversed(counts) if c is not None), 0)
    ok, witness = submersion_check(v, location, delta, min(sweep), max(sweep), cfg, _ws=ws)
    return MilnorData(
        point_id=point_id,
        delta=float(delta),
        eta_sweep=tuple(float(e) for e in sweep),
        counts_per_eta=tuple(counts),
        l=int(l),
        stable=bool(stable),
        submersion_ok=bool(ok),
        witness=witness,
    )


__all__ = [
    "Component",
    "DeltaCollapse",
    "EtaTooLarge",
    "FiberConfig",
    "FiberCurve",
    "FiberError",
    "GridTooCoarse",
    "MilnorData",
    "betti",
    "extract_fiber",
    "select_radii",
    "submersion_check",
    "vanishing_cycle_count",
]
