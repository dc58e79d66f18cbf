"""Fiber extraction and vanishing-cycle counting checks.

Closed-form fields anchor most assertions: for V=(x,y) the level set
of the speed is an exact circle, for the squaring field (x^2-y^2, 2xy)
it is the circle of radius sqrt(eta), and for V=(2x,y) it is an
ellipse that can be pushed through the ball boundary to produce arcs.
An independent flood-fill component counter cross-checks topology on
random fields.
"""

import dataclasses
import math
import sys
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

import cyclebound as cb
from cyclebound import milnorfiber as mf
from cyclebound.critfind import find_critical_points
from cyclebound.polyalg import VectorField

from oracles import floodfill_fiber_counts, random_field


def rotated_copy(v, c, s):
    """The same field written in coordinates rotated by (c, s).

    With R = [[c, -s], [s, c]] and x = R u the field transforms to
    R^T V(R u); rational c, s with c^2 + s^2 = 1 keep it exact.
    """
    p_r = v.p.compose_affine(c, -s, s, c)
    q_r = v.q.compose_affine(c, -s, s, c)
    return VectorField(p=p_r.scale(c) + q_r.scale(s),
                       q=p_r.scale(-s) + q_r.scale(c),
                       name=v.name, box=v.box)


@pytest.fixture(scope="module")
def radial():
    return cb.parse_vf("P = x\nQ = y\nbox = [-5, 5] x [-5, 5]\n")


@pytest.fixture(scope="module")
def pair_field():
    return cb.parse_vf("P = x^2 - 1\nQ = y\nbox = [-5, 5] x [-5, 5]\n")


@pytest.fixture(scope="module")
def squaring():
    return cb.parse_vf("P = x^2 - y^2\nQ = 2*x*y\nbox = [-5, 5] x [-5, 5]\n")


@pytest.fixture(scope="module")
def stretch():
    return cb.parse_vf("P = 2*x\nQ = y\nbox = [-5, 5] x [-5, 5]\n")


class TestSelectRadii:
    def test_radial_ball_and_sweep(self, radial):
        """Half the boundary distance, then half the sphere minimum."""
        delta, sweep = mf.select_radii(radial, (0.0, 0.0))
        assert delta == pytest.approx(2.5)
        assert sweep[0] == pytest.approx(1.25, rel=1e-6)
        assert len(sweep) == 8
        assert all(a > b for a, b in zip(sweep, sweep[1:]))
        assert sweep[-1] == pytest.approx(sweep[0] / 100.0, rel=1e-9)

    def test_neighbour_limits_ball(self, pair_field):
        delta, sweep = mf.select_radii(pair_field, (1.0, 0.0),
                                       other_locations=[(-1.0, 0.0)])
        assert delta == pytest.approx(1.0)
        assert sweep[0] == pytest.approx(0.5, rel=1e-6)

    def test_boundary_limits_ball(self):
        v = cb.parse_vf("P = x - 4.9\nQ = y\nbox = [-5, 5] x [-5, 5]\n")
        delta, _ = mf.select_radii(v, (4.9, 0.0))
        assert delta == pytest.approx(0.05)

    def test_radius_cap(self):
        v = cb.parse_vf("P = x\nQ = y\nbox = [-100, 100] x [-100, 100]\n")
        delta, _ = mf.select_radii(v, (0.0, 0.0))
        assert delta == pytest.approx(10.0)

    def test_point_on_boundary_collapses(self):
        v = cb.parse_vf("P = x - 4.9\nQ = y\nbox = [-5, 5] x [-5, 5]\n")
        with pytest.raises(mf.DeltaCollapse):
            mf.select_radii(v, (5.0, 0.0))


class TestExtractFiber:
    def test_radial_circle(self, radial):
        """{|V| = 1} for V=(x,y) is the unit circle."""
        fib = mf.extract_fiber(radial, (0.0, 0.0), 2.0, 1.0)
        assert len(fib.components) == 1
        comp = fib.components[0]
        assert comp.closed
        verts = np.asarray(comp.vertices)
        assert np.allclose(verts[0], verts[-1])
        radii = np.hypot(verts[:, 0], verts[:, 1])
        assert np.abs(radii - 1.0).max() < 1e-9

    def test_squaring_field_circle(self, squaring):
        """|z^2| = eta is the circle of radius sqrt(eta)."""
        fib = mf.extract_fiber(squaring, (0.0, 0.0), 2.0, 0.25)
        assert [c.closed for c in fib.components] == [True]
        verts = np.asarray(fib.components[0].vertices)
        radii = np.hypot(verts[:, 0], verts[:, 1])
        assert np.abs(radii - 0.5).max() < 1e-9

    def test_ellipse_inside_ball(self, stretch):
        fib = mf.extract_fiber(stretch, (0.0, 0.0), 1.0, 0.5)
        assert [c.closed for c in fib.components] == [True]
        verts = np.asarray(fib.components[0].vertices)
        g = 4.0 * verts[:, 0] ** 2 + verts[:, 1] ** 2
        assert np.abs(g - 0.25).max() < 1e-12

    def test_arcs_cut_by_sphere(self, stretch):
        """A level ellipse poking out of the ball leaves two arcs."""
        fib = mf.extract_fiber(stretch, (0.0, 0.0), 1.0, 1.5)
        assert len(fib.components) == 2
        for comp in fib.components:
            assert not comp.closed
            ends = np.asarray([comp.vertices[0], comp.vertices[-1]])
            assert np.hypot(ends[:, 0], ends[:, 1]) == pytest.approx(
                1.0, abs=1e-9)

    def test_empty_fiber_beyond_sphere(self, radial):
        fib = mf.extract_fiber(radial, (0.0, 0.0), 2.0, 2.1)
        assert fib.components == ()
        assert mf.betti(fib) == (0, 0)

    def test_near_tangent_eta_rejected(self, radial):
        with pytest.raises(mf.EtaTooLarge):
            mf.extract_fiber(radial, (0.0, 0.0), 2.0, 2.0)
        with pytest.raises(mf.EtaTooLarge):
            mf.extract_fiber(radial, (0.0, 0.0), 2.0, 1.9999999)

    def test_grid_floor(self, radial):
        with pytest.raises(ValueError):
            mf.extract_fiber(radial, (0.0, 0.0), 2.0, 1.0, grid=32)

    def test_metadata_echo(self, radial):
        fib = mf.extract_fiber(radial, (0.0, 0.0), 2.0, 1.0)
        assert fib.delta == 2.0
        assert fib.eta == 1.0
        assert fib.grid_resolution >= 256


class TestBetti:
    def test_counts(self, radial, stretch):
        closed = mf.extract_fiber(radial, (0.0, 0.0), 2.0, 1.0)
        assert mf.betti(closed) == (1, 1)
        arcs = mf.extract_fiber(stretch, (0.0, 0.0), 1.0, 1.5)
        assert mf.betti(arcs) == (2, 0)


class TestWorkspaceLevel:
    """Separable grid evaluation of g0 and its gradient bound."""

    LOC, DELTA = (0.25, -0.5), 0.75

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("degree,seed", [(2, 3), (3, 5), (4, 1)])
    def test_bit_identical_to_meshgrid_eval(self, degree, seed, n):
        ws = mf._Workspace(random_field(seed, degree=degree), self.LOC, self.DELTA)
        lv = ws.level(n)
        xs, ys, h = lv["xs"], lv["ys"], lv["h"]
        xn, yn = np.meshgrid(xs, ys, indexing="ij")
        cx, cy = np.meshgrid(0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:]),
                             indexing="ij")
        g0n = ws.g0.eval_grid(xn, yn)
        r = 0.5 * h
        rad = (np.abs(ws.g0x.eval_grid(cx, cy)) + np.abs(ws.g0y.eval_grid(cx, cy))) * r
        for hp, w in ((ws.g0x.partial(0), 0.5), (ws.g0x.partial(1), 1.0),
                      (ws.g0y.partial(1), 0.5)):
            rad += np.abs(hp.eval_grid(cx, cy)) * (w * r * r)
        rad += ws._t3 * r ** 3 / 6.0 + 1e-12 * float(np.abs(g0n).max()) + 1e-300
        ndx = np.maximum(np.abs(cx - self.LOC[0]) - 0.5 * h, 0.0)
        ndy = np.maximum(np.abs(cy - self.LOC[1]) - 0.5 * h, 0.0)
        g0c, enc_rad = ws.enclosure(n)
        assert np.array_equal(lv["g0n"], g0n)
        assert np.array_equal(g0c, ws.g0.eval_grid(cx, cy))
        assert np.array_equal(enc_rad, rad)
        assert np.array_equal(lv["keep"], ndx * ndx + ndy * ndy <= self.DELTA * self.DELTA)

    def test_peak_memory_near_kept_arrays(self):
        """A cold level, and then its enclosure, each allocate little beyond
        the arrays they keep; a meshgrid with polyval2d peaked at about 8x
        those bytes here."""
        v = random_field(5, degree=3)
        tracemalloc.start()
        try:
            ws = mf._Workspace(v, self.LOC, self.DELTA)
            lv = ws.level(1024)
            before, level_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            enc = ws.enclosure(1024)
            _, enc_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in lv.values() if isinstance(a, np.ndarray))
        assert level_peak <= 3 * kept
        assert enc_peak - before <= 3 * sum(a.nbytes for a in enc)

    @pytest.mark.parametrize("eta", [0.05, 0.2, 0.5])
    def test_cap_grid_builds_no_enclosure(self, eta):
        """At the grid cap agreement alone decides, so a cold extraction
        that starts there never builds the enclosure.  Its peak stays near
        the node values; building the enclosure too peaked at about 4.7x
        their bytes here."""
        v = random_field(5, degree=3)
        cfg = mf.FiberConfig(grid=1024, max_grid=1024)
        tracemalloc.start()
        try:
            ws = mf._Workspace(v, self.LOC, self.DELTA)
            fib = mf.extract_fiber(v, self.LOC, self.DELTA, eta, cfg, _ws=ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fib.grid_resolution == 1024 and fib.components
        assert not ws._enclosures
        assert peak <= 2 * ws.level(1024)["g0n"].nbytes

    def test_refined_cap_builds_no_level(self):
        """A cold extraction that refines from 256 into the 2048 cap marches
        the cap only in the band of the 1024 enclosure: no 2048 level is
        built, and from the moment that enclosure exists the call peaks
        under 2x its bytes.  The dense cap level alone is 2x them."""
        v = random_field(5, degree=3, box=cb.Box.make(-2, 2, -2, 2))
        locs = [cp.location for cp in find_critical_points(v)]
        delta, sweep = mf.select_radii(v, locs[0], locs[1:])
        ws = mf._Workspace(v, locs[0], delta)
        build = ws.enclosure
        marks = []

        def enclosure(n):
            enc = build(n)
            if n == 1024 and not marks:
                marks.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            return enc

        ws.enclosure = enclosure
        tracemalloc.start()
        try:
            fib = mf.extract_fiber(v, locs[0], delta, sweep[4], _ws=ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fib.grid_resolution == 2048 and fib.closed_count == 1
        assert sorted(ws._levels) == [256, 512, 1024]
        assert peak - marks[0] <= 2 * sum(a.nbytes for a in build(1024))

    def test_stale_enclosure_unused_at_cold_cap(self):
        """A cold start at the cap marches the dense level, even where the
        workspace holds an enclosure at n // 2 of an odd n."""
        v = random_field(5, degree=3)
        cfg = mf.FiberConfig(grid=129, max_grid=129)
        ws = mf._Workspace(v, self.LOC, self.DELTA)
        ws.enclosure(64)
        fib = mf.extract_fiber(v, self.LOC, self.DELTA, 0.2, cfg, _ws=ws)
        want = mf.extract_fiber(v, self.LOC, self.DELTA, 0.2, cfg)
        assert 129 in ws._levels
        assert fib == want and fib.components


class TestCellEnclosure:
    """Each cell's radius encloses |g0 - g0(centre)| on the whole cell: the
    per-cell gradient and Hessian terms plus the ball-wide third-order
    remainder form a Taylor enclosure, not an estimate."""

    @pytest.mark.parametrize("loc,delta", [((0.25, -0.5), 0.75), ((1.5, 1.2), 0.4),
                                           ((0.0, 0.0), 2.0)])
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_radius_encloses_cell_values(self, degree, loc, delta):
        worst = 0.0
        for seed in range(8):
            ws = mf._Workspace(random_field(seed, degree=degree), loc, delta)
            rng = np.random.default_rng(seed)
            for n in (64, 128):
                lv = ws.level(n)
                xs, ys = lv["xs"], lv["ys"]
                g0c, rad = ws.enclosure(n)
                # 2000 interior points and 2000 cell corners
                i = rng.integers(0, n, 4000)
                j = rng.integers(0, n, 4000)
                u, w = rng.uniform(0.0, 1.0, (2, 4000))
                u[2000:] = rng.integers(0, 2, 2000)
                w[2000:] = rng.integers(0, 2, 2000)
                x = xs[i] + u * (xs[i + 1] - xs[i])
                y = ys[j] + w * (ys[j + 1] - ys[j])
                dev = np.abs(ws.g0.eval_grid(x, y) - g0c[i, j])
                worst = max(worst, float((dev / rad[i, j]).max()))
        assert worst <= 1.0

    def test_third_order_bound_exact_value(self, pair_field):
        """g0 = (x^2 - 1)^2 + y^2 at p = (1, 0) is u^4 + 4u^3 + 4u^2 + v^2 in
        u = x - 1, v = y, so g_xxx = 24u + 24 and the other third partials
        vanish: the bound at delta is 24 delta + 24."""
        ws = mf._Workspace(pair_field, (1.0, 0.0), 0.75)
        assert ws._t3 == 24 * 0.75 + 24

    def test_third_partial_beyond_float_range(self):
        """g0 = 4e306 x^6 + 4e153 x^4 + x^2 + y^2: g_xxx = 4.8e308 x^3 + ...,
        whose coefficient has no float value.  The bound is exact, so the
        workspace still builds and the steep field keeps its loop."""
        v = cb.parse_vf("P = 2*10^153*x^3 + x\nQ = y\nbox = [-5, 5] x [-5, 5]\n")
        ws = mf._Workspace(v, (0.0, 0.0), 0.5)
        assert ws._t3 == float(F(48, 10) * 10 ** 308 / 8 + F(96, 10) * 10 ** 154 / 2)
        fib = mf.extract_fiber(v, (0.0, 0.0), 0.5, 0.1, _ws=ws)
        assert (fib.closed_count, fib.arc_count, fib.grid_resolution) == (1, 0, 2048)

    def test_overflowing_bound_refines_to_the_cap(self):
        """At delta 2 the third-order bound itself passes the float range:
        it reads inf, and every level refines to the grid cap."""
        v = cb.parse_vf("P = 2*10^153*x^3 + x\nQ = y\nbox = [-5, 5] x [-5, 5]\n")
        ws = mf._Workspace(v, (0.0, 0.0), 2.0)
        assert ws._t3 == math.inf
        with np.errstate(over="ignore"):
            fib = mf.extract_fiber(v, (0.0, 0.0), 2.0, 0.1, _ws=ws)
        assert (fib.closed_count, fib.arc_count, fib.grid_resolution) == (1, 0, 2048)


class TestCorpusGridLevels:
    """Work guard: the grid each corpus sweep level settles on, with the
    sweep's own workspace.  A ball-wide Hessian bound drove van der Pol and
    two-cycle to the 2048 cap on 7 and 8 of their 8 levels."""

    GRIDS = {
        "cubic-one-cycle": [[256] * 8],
        "van-der-pol": [[256] * 5 + [512, 1024, 2048]],
        "linear-center": [[256] * 8],
        "two-cycle": [[256] * 4 + [512, 512, 1024, 1024]],
        "degenerate-demo": [[256] * 7 + [512]],
    }

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_grid_per_eta(self, corpus, name):
        v = corpus[name]
        locs = [cp.location for cp in find_critical_points(v)]
        got = []
        for k, loc in enumerate(locs):
            delta, sweep = mf.select_radii(v, loc, locs[:k] + locs[k + 1:])
            ws = mf._Workspace(v, loc, delta)
            got.append([mf.extract_fiber(v, loc, delta, eta, _ws=ws).grid_resolution
                        for eta in sweep])
        assert got == self.GRIDS[name]


class TestRandomGridLevels:
    """Work guard: the grid each sweep level of the random panel settles on,
    or the failure it raises, per equilibrium, on [-2, 2]^2.  Here loops a
    few cells wide around p drive 17 of the 40 levels to the 2048 cap."""

    GTC = "GridTooCoarse"
    GRIDS = {
        (2, 3): [[256] * 7 + [512]],
        (3, 5): [[256, 256, 512, 512] + [2048] * 4,
                 [256, 256, 512, 1024, 1024, 2048, 2048, 2048],
                 [1024, 1024, 2048, 2048, GTC, GTC, 2048, 2048]],
        (4, 1): [[1024, 1024] + [2048] * 6],
    }

    @pytest.mark.parametrize("degree,seed", sorted(GRIDS))
    def test_grid_per_eta(self, degree, seed):
        v = random_field(seed, degree=degree, box=cb.Box.make(-2, 2, -2, 2))
        locs = [cp.location for cp in find_critical_points(v)]
        got = []
        for k, loc in enumerate(locs):
            delta, sweep = mf.select_radii(v, loc, locs[:k] + locs[k + 1:])
            ws = mf._Workspace(v, loc, delta)
            row = []
            for eta in sweep:
                try:
                    row.append(mf.extract_fiber(v, loc, delta, eta, _ws=ws).grid_resolution)
                except mf.FiberError as e:
                    row.append(type(e).__name__)
            got.append(row)
        assert got == self.GRIDS[degree, seed]


class TestEtaFloor:
    """eta^2 must be a normal float: marching compares g0 with it."""

    def test_underflowing_square_rejected(self, radial):
        with pytest.raises(ValueError, match="square underflows"):
            mf.extract_fiber(radial, (0.0, 0.0), 2.0, 1e-170)
        with pytest.raises(ValueError, match="square underflows"):
            mf.extract_fiber(radial, (0.0, 0.0), 2.0, np.nextafter(mf.ETA_MIN, 0.0))
        assert mf.ETA_MIN * mf.ETA_MIN == sys.float_info.min

    def test_sweep_below_the_floor_fails_the_point(self):
        """A sweep whose bottom eta squares below the float range fails as a
        FiberError, which the pipeline records per point."""
        v = cb.parse_vf("P = x/10^160\nQ = y/10^160\nbox = [-5, 5] x [-5, 5]\n")
        with pytest.raises(mf.FiberError, match="square underflows"):
            mf.select_radii(v, (0.0, 0.0))


class TestMarchChains:
    """Each grid edge with a sign change that borders a kept crossed cell
    is a vertex of exactly one chain, and each segment lies on one chain:
    an edge borders two cells and a cell uses each of its edges at most
    once, so no edge has three segments."""

    @pytest.mark.parametrize("degree,seed", [(2, 4), (3, 5), (4, 1)])
    def test_each_crossed_edge_in_one_chain(self, degree, seed):
        v = random_field(seed, degree=degree)
        locs = [c.location for c in find_critical_points(v)]
        saddles = opened = 0
        for k, loc in enumerate(locs):
            delta, sweep = mf.select_radii(v, loc, locs[:k] + locs[k + 1:])
            ws = mf._Workspace(v, loc, delta)
            for n in (256, 512):
                lv = ws.level(n)
                xs, ys = lv["xs"], lv["ys"]
                # past the swept range the curve leaves the ball: open chains
                for eta in sweep + [4.0 * sweep[0]]:
                    g = lv["g0n"] - eta * eta
                    neg = g < 0.0
                    case = neg[:-1, :-1] + 2 * neg[1:, :-1] + 4 * neg[1:, 1:] + 8 * neg[:-1, 1:]
                    cells = (case != 0) & (case != 15) & lv["keep"]
                    here = int((cells & ((case == 5) | (case == 10))).sum())
                    saddles += here
                    # edge (i, j) along x borders cells (i, j - 1) and (i, j);
                    # edge (i, j) along y borders cells (i - 1, j) and (i, j)
                    hb = np.zeros((n, n + 1), bool)
                    hb[:, :-1] |= cells
                    hb[:, 1:] |= cells
                    vb = np.zeros((n + 1, n), bool)
                    vb[:-1] |= cells
                    vb[1:] |= cells
                    i, j = np.nonzero(hb & (neg[:-1] != neg[1:]))
                    t = g[i, j] / (g[i, j] - g[i + 1, j])
                    want = set(zip((xs[i] + t * (xs[i + 1] - xs[i])).tolist(), ys[j].tolist()))
                    i, j = np.nonzero(vb & (neg[:, :-1] != neg[:, 1:]))
                    t = g[i, j] / (g[i, j] - g[i, j + 1])
                    want |= set(zip(xs[i].tolist(), (ys[j] + t * (ys[j + 1] - ys[j])).tolist()))
                    got = []
                    chains = mf._march(ws, eta, n)[0]
                    # one segment per crossed cell, two per saddle cell
                    assert sum(len(p) - 1 for p, _ in chains) == int(cells.sum()) + here
                    opened += sum(not closed for _, closed in chains)
                    for pts, closed in chains:
                        pts = [tuple(p) for p in pts.tolist()]
                        if closed:
                            assert pts[0] == pts[-1]
                            pts = pts[:-1]
                        got += pts
                    assert len(got) == len(set(got))
                    assert set(got) == want
        assert saddles > 0 and opened > 0

    @pytest.mark.parametrize("degree,seed", [(2, 4), (3, 5), (4, 1)])
    def test_cap_pass_matches_counting_pass(self, degree, seed):
        """Without the count, as at the grid cap, a pass builds no enclosure
        and takes each saddle cell's centre value from g0 at that cell.  Its
        chains are those of the counting pass, bit for bit, and each saddle
        cell's two segments follow the sign of the enclosure's g0c there."""
        v = random_field(seed, degree=degree)
        locs = [c.location for c in find_critical_points(v)]
        saddles = 0
        for k, loc in enumerate(locs):
            delta, sweep = mf.select_radii(v, loc, locs[:k] + locs[k + 1:])
            counting = mf._Workspace(v, loc, delta)
            capped = mf._Workspace(v, loc, delta)
            for n in (256, 512):
                lv = capped.level(n)
                xs, ys = lv["xs"], lv["ys"]
                for eta in sweep + [4.0 * sweep[0]]:
                    want, unresolved = mf._march(counting, eta, n)
                    got, none = mf._march(capped, eta, n, count=False)
                    assert unresolved is not None and none is None
                    assert [c for _, c in got] == [c for _, c in want]
                    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(got, want))

                    g = lv["g0n"] - eta * eta
                    neg = g < 0.0
                    case = neg[:-1, :-1] + 2 * neg[1:, :-1] + 4 * neg[1:, 1:] + 8 * neg[:-1, 1:]
                    pairs = {frozenset(map(tuple, ab)) for pts, _ in got
                             for ab in zip(pts[:-1].tolist(), pts[1:].tolist())}

                    # the crossing on edge (i, j) -> (i + 1, j) and (i, j) -> (i, j + 1)
                    def along_x(i, j):
                        t = g[i, j] / (g[i, j] - g[i + 1, j])
                        return float(xs[i] + t * (xs[i + 1] - xs[i])), float(ys[j])

                    def along_y(i, j):
                        t = g[i, j] / (g[i, j] - g[i, j + 1])
                        return float(xs[i]), float(ys[j] + t * (ys[j + 1] - ys[j]))

                    g0c = counting.enclosure(n)[0]
                    for i, j in zip(*np.nonzero(lv["keep"] & ((case == 5) | (case == 10)))):
                        bottom, right = along_x(i, j), along_y(i + 1, j)
                        top, left = along_x(i, j + 1), along_y(i, j)
                        if (case[i, j] == 5) == (g0c[i, j] - eta * eta < 0.0):
                            segs = ((bottom, right), (top, left))
                        else:
                            segs = ((left, bottom), (right, top))
                        assert all(frozenset(s) in pairs for s in segs)
                        saddles += 1
            assert not capped._enclosures
        assert saddles > 0

    @pytest.mark.parametrize("name", ["random-2-4", "random-3-5", "random-4-1", "van-der-pol"])
    def test_band_cap_pass_matches_dense(self, corpus, name):
        """With n taken as the cap and grid n/2's enclosure built, a pass
        that reads g0 only in the band that enclosure leaves open returns
        the dense pass's chains, bit for bit, and builds no level at n.
        The etas are the sweep, 4x its top (open chains) and one level
        through a cell that is a saddle at n."""
        if name == "van-der-pol":
            v = corpus[name]
        else:
            degree, seed = map(int, name.split("-")[1:])
            v = random_field(seed, degree=degree)
        locs = [c.location for c in find_critical_points(v)]
        saddles = opened = 0
        for k, loc in enumerate(locs):
            delta, sweep = mf.select_radii(v, loc, locs[:k] + locs[k + 1:])
            for n in (512, 1024):
                dense = mf._Workspace(v, loc, delta)
                banded = mf._Workspace(v, loc, delta)
                banded.enclosure(n // 2)
                lv = dense.level(n)
                g = lv["g0n"]
                # a kept cell whose diagonals are split widest
                a, b, c, e = g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:]
                split = np.maximum(a, c) < np.minimum(b, e)
                lo = np.where(split, np.maximum(a, c), np.maximum(b, e))
                hi = np.where(split, np.minimum(b, e), np.minimum(a, c))
                gap = np.where(lv["keep"], hi - lo, -np.inf)
                i, j = np.unravel_index(np.argmax(gap), gap.shape)
                saddle_eta = math.sqrt(0.5 * (lo[i, j] + hi[i, j]))
                for eta in sweep + [4.0 * sweep[0], saddle_eta]:
                    want = mf._march(dense, eta, n, count=False)[0]
                    got, none = mf._march(banded, eta, n, count=False, band=True)
                    assert none is None
                    assert [cl for _, cl in got] == [cl for _, cl in want]
                    assert all(np.array_equal(p, q) for (p, _), (q, _) in zip(got, want))
                    opened += sum(not cl for _, cl in got)
                    neg = g < eta * eta
                    case = neg[:-1, :-1] + 2 * neg[1:, :-1] + 4 * neg[1:, 1:] + 8 * neg[:-1, 1:]
                    saddles += int((lv["keep"] & ((case == 5) | (case == 10))).sum())
                assert n not in banded._levels
        assert saddles > 0 and opened > 0

    def test_margin_covers_float_evaluation(self):
        """The margin's evaluation share bounds |float g0 - exact g0| at cap
        nodes and parent centres, exact values taken in Fractions, also on a
        random cubic moved to about (40, -40), where g0's terms cancel
        heavily.  There too the band pass equals the dense pass, or falls
        back to it where the band is too wide."""
        rng = np.random.default_rng(1)
        moved_bands = 0
        for seed in (0, 5):
            v = random_field(seed, degree=3)
            cps = find_critical_points(v)
            for shift in (0, 40):
                w = VectorField(v.p.compose_affine(1, 0, 0, 1, -shift, shift),
                                v.q.compose_affine(1, 0, 0, 1, -shift, shift),
                                name="moved", box=cb.Box.make(-5 + shift, 5 + shift,
                                                              -5 - shift, 5 - shift))
                locs = [(c.location[0] + shift, c.location[1] - shift) for c in cps]
                delta, sweep = mf.select_radii(w, locs[0], locs[1:])
                ws = mf._Workspace(w, locs[0], delta)
                margin = ws.margin()
                assert 2 * ws._point_err < margin < math.inf
                xs, ys = ws.axes(2048)[:2]
                i, j = rng.integers(0, 2049, (2, 150))
                px, py = ws.axes(1024)[:2]
                k, m = rng.integers(0, 1024, (2, 150))
                x = np.concatenate([xs[i], 0.5 * (px[k] + px[k + 1])])
                y = np.concatenate([ys[j], 0.5 * (py[m] + py[m + 1])])
                terms = ws.g0.terms.items()
                for xv, yv, fv in zip(x.tolist(), y.tolist(), ws.g0.eval_grid(x, y).tolist()):
                    exact = sum(cf * F(xv) ** a * F(yv) ** b for (a, b), cf in terms)
                    assert abs(F(fv) - exact) <= ws._point_err
                ws.enclosure(512)
                dense = mf._Workspace(w, locs[0], delta)
                for eta in sweep:
                    want = mf._march(dense, eta, 1024, count=False)[0]
                    got = mf._march(ws, eta, 1024, count=False, band=True)[0]
                    assert [cl for _, cl in got] == [cl for _, cl in want]
                    assert all(np.array_equal(p, q) for (p, _), (q, _) in zip(got, want))
                moved_bands += shift > 0 and 1024 not in ws._levels
        assert moved_bands > 0


class TestSubmersion:
    def test_radial_passes(self, radial):
        ok, witness = mf.submersion_check(radial, (0.0, 0.0), 2.0, 0.5, 1.0)
        assert ok and witness is None

    def test_degenerate_fails_with_witness(self, corpus):
        """P = x^2 has a gradient zero along the whole y-axis."""
        v = corpus["degenerate-demo"]
        ok, witness = mf.submersion_check(v, (0.0, 0.0), 2.0, 0.5, 1.0)
        assert not ok
        wx, wy = witness
        assert math.hypot(wx, wy) <= 2.0 + 1e-9
        px = v.p.partial(0).eval(wx, wy)
        py = v.p.partial(1).eval(wx, wy)
        assert math.hypot(px, py) <= 1e-8


class TestVanishingCycleCount:
    def test_nondegenerate_baseline(self, pair_field):
        md = mf.vanishing_cycle_count(pair_field, 0, (1.0, 0.0),
                                      other_locations=[(-1.0, 0.0)])
        assert md.l == 1
        assert md.stable
        assert md.submersion_ok
        assert md.counts_per_eta == ((1, 0),) * 8
        assert all(a > b for a, b in zip(md.eta_sweep, md.eta_sweep[1:]))

    def test_squaring_field(self, squaring):
        md = mf.vanishing_cycle_count(squaring, 0, (0.0, 0.0))
        assert md.l == 1
        assert md.stable and md.submersion_ok

    def test_degenerate_submersion_recorded(self, corpus):
        md = mf.vanishing_cycle_count(corpus["degenerate-demo"], 0,
                                      (0.0, 0.0))
        assert md.l == 1
        assert md.stable
        assert not md.submersion_ok
        assert md.witness is not None

    def test_sweep_matches_select_radii(self, pair_field):
        delta, sweep = mf.select_radii(pair_field, (1.0, 0.0),
                                       other_locations=[(-1.0, 0.0)])
        md = mf.vanishing_cycle_count(pair_field, 0, (1.0, 0.0),
                                      other_locations=[(-1.0, 0.0)])
        assert md.delta == pytest.approx(delta)
        assert np.allclose(md.eta_sweep, sweep)


class TestRotationEquivariance:
    """Counts are geometric, so an exact rigid rotation preserves them."""

    C, S = F(3, 5), F(4, 5)

    def test_pair_field(self, pair_field):
        vr = rotated_copy(pair_field, self.C, self.S)
        loc = (float(self.C), float(-self.S))
        other = (float(-self.C), float(self.S))
        d0, s0 = mf.select_radii(pair_field, (1.0, 0.0),
                                 other_locations=[(-1.0, 0.0)])
        d1, s1 = mf.select_radii(vr, loc, other_locations=[other])
        assert d1 == pytest.approx(d0, rel=1e-12)
        assert s1[0] == pytest.approx(s0[0], rel=1e-4)
        m0 = mf.vanishing_cycle_count(pair_field, 0, (1.0, 0.0),
                                      other_locations=[(-1.0, 0.0)])
        m1 = mf.vanishing_cycle_count(vr, 0, loc, other_locations=[other])
        assert m1.l == m0.l
        assert m1.counts_per_eta == m0.counts_per_eta
        assert m1.stable == m0.stable

    def test_stretch_field_topologies(self, stretch):
        vr = rotated_copy(stretch, self.C, self.S)
        for eta in (0.5, 1.5):
            f0 = mf.extract_fiber(stretch, (0.0, 0.0), 1.0, eta)
            f1 = mf.extract_fiber(vr, (0.0, 0.0), 1.0, eta)
            assert mf.betti(f1) == mf.betti(f0)


class TestFloodFillAgreement:
    """Marching output against an independent component counter."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_counts_match(self, seed):
        v = random_field(seed)
        cps = find_critical_points(v)
        others = [c.location for c in cps[1:]]
        delta, sweep = mf.select_radii(v, cps[0].location,
                                       other_locations=others)
        cfg = dataclasses.replace(mf.FiberConfig(), grid=256, max_grid=256)
        for eta in (sweep[0], sweep[4]):
            fib = mf.extract_fiber(v, cps[0].location, delta, eta, cfg)
            b0, _ = mf.betti(fib)
            closed = sum(1 for c in fib.components if c.closed)
            ob0, oclosed = floodfill_fiber_counts(v, cps[0].location,
                                                  delta, eta, 256)
            assert (b0, closed) == (ob0, oclosed)
