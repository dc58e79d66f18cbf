"""Limit-cycle detection, winding numbers and fiber residence.

The cubic system contracts onto the exact unit circle with period
2 pi, giving closed forms for period, shape, and stability. Van der
Pol's period is checked against an independent scipy reference.
Return exponents are checked against the radial closed form 2 pi f'(r*),
and the divergence certificate against the sampled search.  Basin disks
are checked by sampling dL/dt on their boundaries and by the prefix
relation of the families they cut.
"""

import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

import cyclebound as cb
from cyclebound import analysis as an
from cyclebound import certify as ct
from cyclebound import cycledetect as cd
from cyclebound import milnorfiber as mf
from cyclebound.critfind import find_critical_points
from cyclebound.odeflow import hermite, hermite_deriv, integrate
from cyclebound.polyalg import IntervalBoxes, interval_eval

from oracles import (circle, directed_hausdorff_dense, hausdorff_resampled, hermite_root,
                     random_field, scout_reference, truncate_at_settle, winding_brute)
from test_polyalg import rand_poly

TWO_PI = 2.0 * math.pi


class FakePoint:
    def __init__(self, pid, x, y):
        self.id = pid
        self.x = x
        self.y = y


class TestDetect:
    def test_cubic_single_attracting_circle(self, corpus_cycles):
        cycles = corpus_cycles["cubic-one-cycle"]
        assert len(cycles) == 1
        c = cycles[0]
        assert c.stability == "attracting"
        assert abs(c.return_derivative) < 1.0
        assert c.period == pytest.approx(TWO_PI, abs=1e-6)
        assert hausdorff_resampled(c.points, circle(1.0), 0.01) < 1e-4
        assert c.enclosed_cp_ids == (0,)

    def test_center_has_no_isolated_orbits(self, corpus_cycles):
        assert corpus_cycles["linear-center"] == []

    def test_sampled_search_on_center(self, corpus, corpus_cps):
        """The pipeline certifies linear-center; the sampled search, run
        anyway, agrees."""
        assert cd.detect_limit_cycles(corpus["linear-center"],
                                      corpus_cps["linear-center"],
                                      cd.DetectConfig()) == []

    def test_vdp_period_against_reference(self, corpus_cycles, vdp_period):
        cycles = corpus_cycles["van-der-pol"]
        assert len(cycles) == 1
        assert cycles[0].period == pytest.approx(vdp_period, abs=1e-6)
        assert cycles[0].stability == "attracting"

    def test_two_cycle_radii_and_stability(self, corpus_cycles):
        cycles = corpus_cycles["two-cycle"]
        assert len(cycles) == 2
        radii = [float(np.hypot(c.points[:, 0], c.points[:, 1]).mean())
                 for c in cycles]
        assert radii == sorted(radii)
        assert radii[0] == pytest.approx(1.0, abs=1e-3)
        assert radii[1] == pytest.approx(2.0, abs=1e-3)
        assert cycles[0].stability == "attracting"
        assert cycles[1].stability == "repelling"
        assert abs(cycles[0].return_derivative) < 1.0
        assert abs(cycles[1].return_derivative) > 1.0

    def test_closure_residuals(self, corpus_cycles):
        for cycles in corpus_cycles.values():
            for c in cycles:
                assert c.closure_residual <= 1e-8

    def test_detection_is_deterministic(self, corpus, corpus_cps):
        a = cd.detect_limit_cycles(corpus["van-der-pol"],
                                   corpus_cps["van-der-pol"])
        b = cd.detect_limit_cycles(corpus["van-der-pol"],
                                   corpus_cps["van-der-pol"])
        assert len(a) == len(b) == 1
        assert np.array_equal(a[0].points, b[0].points)
        assert a[0].period == b[0].period


def anchors_of(cps):
    """The section anchors of `detect_limit_cycles`: the equilibria."""
    return [(cp.x, cp.y) for cp in cps]


def fuzz_hits(rng, n):
    """Random line hits as _scout sees them: t0, y-Hermite, x-Hermite (slopes
    scaled by the step), level, anchor.  The first third is generic, at
    scales from 1e-8 to 1e3; in the second, y moves by one ulp of 1500 with
    slopes below an ulp, half of them 0; in the third, x stays within an ulp
    or two of the 1e-12 band around an anchor at 1500.  A tenth start at
    t0 = 0, and half of those on the line itself, as seeds on a section line
    do."""
    k = n // 3
    scale = 10.0 ** rng.uniform(-8, 3, n)
    level = rng.choice([0.0, 1.0, -1e3, 1e3], n)
    anchor = rng.choice([0.0, 1.0, -1e3, 1e3], n)
    sgn = rng.choice([-1.0, 1.0], n)
    y0 = level - sgn * scale * rng.uniform(0, 1, n)
    y1 = level + sgn * scale * rng.uniform(0, 1, n)
    dy0 = sgn * scale * rng.uniform(0.2, 2, n)
    dy1 = sgn * scale * rng.uniform(0.2, 2, n)
    x0 = anchor + scale * rng.normal(0, 1, n)
    x1 = x0 + scale * rng.normal(0, 1, n)
    dx0 = scale * rng.normal(0, 1, n)
    dx1 = scale * rng.normal(0, 1, n)
    ulp = np.spacing(1500.0)
    s = slice(k, 2 * k)
    level[s] = 1500.0
    y0[s] = 1500.0 - ulp * (sgn[s] > 0)
    y1[s] = 1500.0 - ulp * (sgn[s] < 0)
    flat = rng.integers(0, 2, k)   # half the steps have no slope, so none at the root
    dy0[s] = sgn[s] * ulp * rng.uniform(0, 1, k) * flat
    dy1[s] = sgn[s] * ulp * rng.uniform(0, 1, k) * flat
    s = slice(2 * k, n)
    anchor[s] = 1500.0
    x0[s] = 1500.0 + sgn[s] * (1e-12 + ulp * rng.integers(0, 2, n - 2 * k))
    x1[s] = 1500.0 + sgn[s] * (1e-12 + ulp * rng.integers(0, 2, n - 2 * k))
    dx0[s] = sgn[s] * ulp * rng.uniform(0, 1, n - 2 * k)
    dx1[s] = -sgn[s] * ulp * rng.uniform(0, 1, n - 2 * k)
    t0 = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-3, 2, n))
    on_line = (t0 == 0.0) & (rng.random(n) < 0.5)
    y0[on_line] = level[on_line]
    return t0, y0, dy0, y1, dy1, x0, dx0, x1, dx1, level, anchor


def scalar_key(t0, y0, dy0, y1, dy1, x0, dx0, x1, dx1, level, anchor, h=1.0):
    """(direction, u > 0, (t, u)) of one hit of the step [t0, t0 + h] by the
    per-hit rule, None if dropped."""
    tau = hermite_root(y0, dy0, y1, dy1, level, 0.0, 1.0, y0 - level, 45)
    t = t0 + tau * h
    if t - t0 < 1e-12 and t0 == 0.0:
        return None
    dydt = hermite_deriv(y0, dy0, y1, dy1, tau)
    if dydt == 0.0:
        dydt = y1 - y0
    u = -(hermite(x0, dx0, x1, dx1, tau) - anchor)
    if abs(u) < 1e-12:
        return None
    return (1 if dydt > 0 else -1), u > 0, (t, u)


class TestScoutDeferredRoots:
    """Scouting runs both time directions in one array loop, solves its line
    hits in batched array bisections and stops each trajectory once one of
    its families settles or reaches _MAX_RETURNS; each direction's families
    must equal the per-hit reference loop's for that direction alone, cut by
    the stop rule, bit for bit."""

    # seeds whose families the stop rule cuts, (forward, backward), at the
    # default cap.  Forward, every seed of van der Pol and of the cubic
    # settles on the attracting cycle.  Backward, van der Pol's seeds inside
    # the cycle spiral into the origin and are cut once their crossings
    # settle; the cubic's contract by e^(-2 pi) a turn and stop at the origin
    # before they cross again, and the outer seeds leave the box.
    STOPPED = {"van-der-pol": ("all", "some"), "cubic-one-cycle": ("all", "none"),
               "random-3-5": ("none", "none")}
    # seeds with a family of 4 crossings or more, (forward, backward): the
    # seeds that a cap of 4 stops.  random (3,5)'s seeds cross at most twice.
    CAPPED_AT_4 = {"van-der-pol": (592, 232), "cubic-one-cycle": (592, 160),
                   "random-3-5": (0, 0)}

    @pytest.mark.parametrize("time_sign", [1.0, -1.0], ids=["forward", "backward"])
    @pytest.mark.parametrize("name, cap", [
        pytest.param(name, cap, id=name if cap is None else f"{name}-cap{cap}")
        for name in ("van-der-pol", "cubic-one-cycle", "random-3-5") for cap in (None, 4)])
    def test_families_match_reference(self, corpus, monkeypatch, name, cap, time_sign):
        """Each half of the joint run, at the default cap, which binds on none
        of these fields, and at a cap of 4 crossings, which stops seeds of
        van der Pol and of the cubic mid-run."""
        if cap is not None:
            monkeypatch.setattr(cd, "_MAX_RETURNS", cap)
        v = (random_field(5, 3, cb.Box.make(-2, 2, -2, 2)) if name == "random-3-5"
             else corpus[name])
        cps = find_critical_points(v)
        cfg = cd.DetectConfig()
        seeds = cd._make_seeds(v, cps, cfg)
        got = cd._scout(v, seeds, anchors_of(cps), cfg)[time_sign < 0]
        full = scout_reference(v, seeds, anchors_of(cps), cfg, time_sign)
        want = truncate_at_settle(full)
        if cap is None:
            assert max(len(evs) for fam in full for evs in fam.values()) < cd._MAX_RETURNS
            stopped = sum(a != b for a, b in zip(want, full))
            kind = "none" if stopped == 0 else "all" if stopped == len(seeds) else "some"
            assert kind == self.STOPPED[name][time_sign < 0]
        else:
            capped = sum(any(len(evs) >= cap for evs in fam.values()) for fam in full)
            assert capped == self.CAPPED_AT_4[name][time_sign < 0]
        assert pickle.dumps(got) == pickle.dumps(want)

    def test_cap_keeps_the_capping_step(self, monkeypatch):
        """A seed whose family reaches _MAX_RETURNS keeps its other crossings
        of that loop step and drops those of later steps; a seed that never
        reaches the cap keeps all of its crossings."""
        monkeypatch.setattr(cd, "_MAX_RETURNS", 2)
        a, b, c = (0, 1, True), (1, 1, True), (2, -1, False)
        solved = [(3, 0, a, (1.0, 0.5)), (5, 1, a, (1.5, 0.7)),
                  (7, 0, a, (2.0, 0.6)), (7, 0, b, (2.1, 0.4)), (8, 0, c, (2.5, -0.3)),
                  (9, 1, b, (3.0, 0.2))]
        fams = [{}, {}]
        assert cd._stop_settled(fams, solved) == [0]
        assert fams == [{a: [(1.0, 0.5), (2.0, 0.6)], b: [(2.1, 0.4)]},
                        {a: [(1.5, 0.7)], b: [(3.0, 0.2)]}]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_solved_rows_keep_the_scalar_key(self, seed):
        """`_solve_rows` gives every hit the per-hit loop's t, u and key, or
        drops it where that loop does: one-ulp slopes, the 1e-12 band around
        the anchor and hits at t0 = 0 included."""
        rng = np.random.default_rng(seed)
        hits = fuzz_hits(rng, 6000)
        n = len(hits[0])
        hh = 10.0 ** rng.uniform(-3, 0, n)
        # each row its own section, so that it has its own level and anchor
        steps, seeds, sections = np.arange(n), np.arange(n) % 7, np.arange(n)
        t0, y0, dy0, y1, dy1, x0, dx0, x1, dx1, level, anchor = hits
        rows = np.column_stack((seeds, t0, hh, y0, dy0, y1, dy1, x0, dx0, x1, dx1))
        got = {s: (g, key, event)
               for s, g, key, event in cd._solve_rows(steps, sections, rows, level, anchor)}
        dropped = 0
        for j in range(n):
            want = scalar_key(*(float(c[j]) for c in hits + (hh,)))
            if want is None:
                dropped += 1
                assert j not in got, j
            else:
                dirc, side, event = want
                assert got[j] == (j % 7, (j, dirc, side), event), j
        assert 0 < dropped < n // 2


def crossings(us):
    return [(float(i), u) for i, u in enumerate(us)]


class TestSettled:
    """The floor at which scouting stops a seed and `_analyze_family`
    nominates the family's last crossing."""

    floor = max(1e-9, 0.1 * cd._SCOUT_RTOL)

    def test_needs_four_crossings(self):
        assert not cd._settled(crossings([0.9, 0.6, 0.6]))
        assert cd._settled(crossings([0.9, 0.7, 0.6, 0.6]))

    @pytest.mark.parametrize("factor,settled", [(0.99, True), (1.01, False)])
    def test_last_difference_against_floor(self, factor, settled):
        us = [0.9, 0.7, 0.6, 0.6 + factor * self.floor]
        assert cd._settled(crossings(us)) is settled

    @pytest.mark.parametrize("first,settled", [(0.9, False), (5.0, True), (-5.0, True)])
    def test_scale_follows_largest_u(self, first, settled):
        us = [first, 0.7, 0.6, 0.6 + 2.0 * self.floor]
        assert cd._settled(crossings(us)) is settled

    def test_stalled_family_nominates_nothing(self):
        us = [0.6, 0.6 + 0.5 * self.floor, 0.6, 0.6 + 0.5 * self.floor]
        assert cd._settled(crossings(us))
        assert cd._analyze_family(crossings(us)) is None

    def test_closed_orbits_stop_before_the_horizon(self, corpus, corpus_cps):
        """linear-center's orbits are closed: every crossing family stalls,
        so every seed stops long before t_horizon, and nothing is found."""
        v, cps, cfg = corpus["linear-center"], corpus_cps["linear-center"], cd.DetectConfig()
        assert cd.detect_limit_cycles(v, cps, cfg) == []
        fams, _ = cd._scout(v, cd._make_seeds(v, cps, cfg), anchors_of(cps), cfg)
        last = [max(t for evs in fam.values() for t, _ in evs) for fam in fams if fam]
        assert len(last) > len(fams) // 2
        assert max(last) < cfg.t_horizon


def radial_field(f: str, box: str = "[-3, 3] x [-3, 3]") -> cb.VectorField:
    """r' = f(r), theta' = 1; the text is f(r)/r as a polynomial in x, y."""
    return cb.parse_vf(f"P = -y + x*({f})\nQ = x + y*({f})\nbox = {box}\n")


class TestReturnExponent:
    """For r' = f(r), theta' = 1 the cycle at r* has lambda = 2 pi f'(r*)."""

    def check(self, lc, exact):
        assert lc.return_exponent == pytest.approx(exact, rel=1e-6)
        assert lc.return_derivative == math.exp(lc.return_exponent)

    def test_cubic(self, corpus_cycles):
        # f = r(1 - r^2): f'(1) = -2
        self.check(corpus_cycles["cubic-one-cycle"][0], -4.0 * math.pi)

    def test_two_cycle(self, corpus_cycles):
        # f = r(1 - r^2)(4 - r^2): f'(1) = -6, f'(2) = 24
        inner, outer = corpus_cycles["two-cycle"]
        self.check(inner, -12.0 * math.pi)
        self.check(outer, 48.0 * math.pi)

    def test_repelling_at_one_and_a_half(self):
        # f = r(r^2 - 9/4): f'(3/2) = 9/2, exp(9 pi) = 1.9e12
        v = radial_field("x^2 + y^2 - 9/4")
        cycles = cd.detect_limit_cycles(v, find_critical_points(v))
        assert len(cycles) == 1
        assert cycles[0].stability == "repelling"
        assert cycles[0].mean_radius() == pytest.approx(1.5, abs=1e-3)
        self.check(cycles[0], 9.0 * math.pi)


class TestSemistable:
    """r' = +-r(1 - r^2)^2, theta' = 1: the unit circle attracts from one
    side and repels from the other, so lambda = 0 and only the isolation
    probe can label it.  The two signs swap the sides, (conv, div) and
    (div, conv)."""

    @pytest.mark.parametrize("sign", ["", "-"], ids=["outward", "inward"])
    def test_unit_circle_is_semistable(self, monkeypatch, sign):
        calls = []
        probe = cd._probe_semistable

        def spy(*args):
            calls.append(probe(*args))
            return calls[-1]

        monkeypatch.setattr(cd, "_probe_semistable", spy)
        v = radial_field(f"{sign}(1 - x^2 - y^2)^2")
        cycles = cd.detect_limit_cycles(v, find_critical_points(v))
        assert len(cycles) == 1
        c = cycles[0]
        assert c.stability == "semi_stable"
        assert abs(c.mean_radius() - 1.0) < 1e-5
        assert abs(c.period - TWO_PI) < 1e-9
        assert "semi_stable" in calls


@pytest.fixture(scope="module")
def rotation():
    return cb.parse_vf("P = -y\nQ = x\nbox = [-3, 3] x [-3, 3]\n")


class TestReturns:
    """`_returns`, the probe's reader of the returns to y = ay: the rotation
    (-y, x) meets the x-axis at closed-form times, and van der Pol's gaps
    converge to its independently computed period."""

    def test_circle_periods(self, rotation):
        """Upward crossings of y = 0 land at multiples of 2 pi, at x = 1."""
        traj = integrate(rotation, (1.0, 0.0), 20.0)
        hits = cd._returns(traj, 0.0, 0.0, 1, 0.0)
        assert len(hits) == 3
        for k, (t, u) in enumerate(hits, start=1):
            assert t == pytest.approx(k * TWO_PI, abs=1e-6)
            assert u == pytest.approx(-1.0, abs=1e-6)

    def test_direction_filter(self, rotation):
        """The rotation crosses y = 0 downward only at x = -1, at odd
        multiples of pi."""
        traj = integrate(rotation, (1.0, 0.0), 20.0)
        down = cd._returns(traj, 0.0, 0.0, -1, 0.0)
        assert [round(t / math.pi) for t, _ in down] == [1, 3, 5]
        assert all(u == pytest.approx(1.0, abs=1e-6) for _, u in down)

    def test_gap_filter(self, rotation):
        """A return counts only more than gap after the one kept before it,
        the first more than gap after t = 0."""
        traj = integrate(rotation, (1.0, 0.0), 20.0)
        hits = cd._returns(traj, 0.0, 0.0, 1, TWO_PI + 0.1)
        assert [round(t / TWO_PI) for t, _ in hits] == [2]

    def test_section_never_met(self, rotation):
        traj = integrate(rotation, (1.0, 0.0), 20.0)
        assert cd._returns(traj, 0.0, 10.0, 1, 0.0) == []
        assert cd._returns(traj, 0.0, 10.0, -1, 0.0) == []

    def test_single_node_trajectory(self, rotation):
        """A run that underflows before its first step has no segment."""
        traj = integrate(rotation, (1.0, 0.0), 1e-13)
        assert len(traj.times) == 1
        assert cd._returns(traj, 0.0, 0.0, 1, 0.0) == []

    def test_vdp_gaps_match_reference(self, corpus, vdp_period):
        """Each return lies on y = 0 by the dense output, and the gaps
        converge to the reference period."""
        v = corpus["van-der-pol"]
        traj = integrate(v, (2.0, 0.0), 60.0)
        hits = cd._returns(traj, 0.0, 0.0, -1, 0.0)
        assert len(hits) >= 8
        for t, u in hits:
            sx, sy = traj.state_at(t)
            assert abs(sy) <= 1e-9
            assert abs(-sx - u) <= 1e-12
        gaps = np.diff([t for t, _ in hits])
        assert abs(gaps[0] - vdp_period) < 1e-3
        assert np.all(np.abs(gaps[1:] - vdp_period) < 1e-6)


def hamiltonian_cubic() -> cb.VectorField:
    """P = H_y, Q = -H_x: a center ringed by periodic orbits, and a saddle."""
    h = rand_poly(np.random.default_rng(3), 3)
    return cb.VectorField(h.partial(1), -h.partial(0), name="hamiltonian")


def random_affine() -> cb.VectorField:
    rng = np.random.default_rng(4)
    p, q = rand_poly(rng, 1), rand_poly(rng, 1)
    assert not (p.partial(0) + q.partial(1)).is_zero()
    return cb.VectorField(p, q, name="affine")


class TestNoCycleCertificate:
    @pytest.mark.parametrize("make", [
        hamiltonian_cubic,
        lambda: cb.parse_vf("P = x - y\nQ = x + y\n"),
        random_affine,
    ], ids=["hamiltonian-cubic", "focus", "affine"])
    def test_certified_and_sampled_search_agree(self, make):
        v = make()
        cps = find_critical_points(v)
        assert ct.no_cycle_certificate(v, cps).startswith("div V ")
        assert any(cp.index == 1 for cp in cps)
        assert cd.detect_limit_cycles(v, cps) == []

    def test_only_center_certified(self, corpus):
        certified = [name for name, v in corpus.items()
                     if ct._divergence_rule(v) is not None]
        assert certified == ["linear-center"]
        box = cb.Box.make(-2, 2, -2, 2)
        for degree, seed in ((2, 2), (2, 3), (3, 5), (4, 1)):
            assert ct._divergence_rule(random_field(seed, degree, box)) is None

    def test_certificate_names_case_and_box(self, corpus):
        zero = ct._divergence_rule(corpus["linear-center"])
        assert "identically 0" in zero and "[-7.5, 7.5] x [-7.5, 7.5]" in zero
        signed = ct._divergence_rule(cb.parse_vf("P = x - y\nQ = x + y\n"))
        assert "[2, 2]" in signed and "[-7.5, 7.5] x [-7.5, 7.5]" in signed

    @pytest.mark.parametrize("lo,hi,certified", [
        (0.0, 0.0, False), (0.0, 5.0, False), (-5.0, 0.0, False),
        (-1.0, 1.0, False), (1e-300, 5.0, True), (-5.0, -1e-300, True)])
    def test_enclosure_must_exclude_zero(self, monkeypatch, corpus, lo, hi,
                                         certified):
        monkeypatch.setattr(ct, "interval_eval",
                            lambda p, boxes: (np.array([lo]), np.array([hi])))
        got = ct._divergence_rule(corpus["van-der-pol"])
        assert (got is not None) == certified

    def test_enclosure_taken_on_inflated_box(self):
        """div = 2 - 4(x^2 + y^2) keeps its sign on [-0.4, 0.4]^2 but not
        on the 1.5-times box that scouting explores."""
        v = radial_field("1 - x^2 - y^2", "[-0.4, 0.4] x [-0.4, 0.4]")
        small_lo, _ = interval_eval(
            v.divergence(), IntervalBoxes([-0.4], [0.4], [-0.4], [0.4]))
        assert small_lo[0] > 0.0
        assert ct._divergence_rule(v) is None

    def test_center_morsify_rows_skip_detection(self, corpus, monkeypatch):
        """The affine perturbations of the center have constant nonzero
        divergence, so every row is certified and none runs the search."""
        def never(*args):
            raise AssertionError("sampled search ran")

        monkeypatch.setattr(an, "detect_limit_cycles", never)
        rows = an.morsification_invariance(corpus["linear-center"], [1e-3, 1e-2],
                                           [1, 2])
        assert len(rows) == 5
        for row in rows:
            assert (row["k"], row["B"], row["detected"]) == (1, 1, 0)
            assert row["error"] is None and not row["changed"]


PANEL = ((2, 2), (2, 3), (3, 5), (4, 1))   # the benchmark's random-fields


def panel_fields():
    box = cb.Box.make(-2, 2, -2, 2)
    return {f"random-{d}-{s}": random_field(s, d, box) for d, s in PANEL}


class TestBasins:
    """A sink's certified basin disk stops the seeds that enter it."""

    @pytest.fixture(scope="class")
    def fields(self, corpus):
        return {**corpus, **panel_fields()}

    def test_lyapunov_closed_form(self):
        rng = np.random.default_rng(0)
        done = 0
        while done < 200:
            a = rng.uniform(-3.0, 3.0, (2, 2))
            if not (np.trace(a) < 0 and np.linalg.det(a) > 0):
                continue
            s11, s12, s22 = ct._lyapunov(*a.ravel())
            s = np.array([[s11, s12], [s12, s22]])
            res = a.T @ s + s @ a + np.eye(2)
            assert np.abs(res).max() <= 1e-12 * max(1.0, np.abs(s).max() * np.abs(a).max())
            done += 1

    def test_boundary_decreases(self, fields):
        """dL/dt < 0 at 2000 points of each basin's boundary ellipse."""
        found = []
        for name, v in fields.items():
            cps = find_critical_points(v)
            for time_sign in (1.0, -1.0):
                for b in ct.sink_basins(v, cps, time_sign):
                    th = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
                    ux, uy = np.cos(th), np.sin(th)
                    scale = np.sqrt(b.level / (b.s11 * ux * ux + 2 * b.s12 * ux * uy
                                               + b.s22 * uy * uy))
                    dx, dy = scale * ux, scale * uy
                    fx = time_sign * v.p.eval_grid(b.x + dx, b.y + dy)
                    fy = time_sign * v.q.eval_grid(b.x + dx, b.y + dy)
                    dldt = 2.0 * ((b.s11 * dx + b.s12 * dy) * fx + (b.s12 * dx + b.s22 * dy) * fy)
                    assert np.all(dldt < 0.0), (name, time_sign)
                    found.append((name, time_sign))
        assert sorted(found) == [("cubic-one-cycle", -1.0), ("random-3-5", -1.0),
                                 ("two-cycle", -1.0), ("van-der-pol", -1.0)]

    def test_no_basin_at_centres_and_saddles(self, fields, monkeypatch):
        """A centre or a saddle fails the trace and determinant test before
        any Lyapunov solve, where that solve would be singular."""
        def never(*args):
            raise AssertionError("Lyapunov solve at a non-sink")

        for v in (fields["linear-center"], hamiltonian_cubic()):
            cps = find_critical_points(v)
            with monkeypatch.context() as m:
                m.setattr(ct, "_lyapunov", never)
                assert ct.sink_basins(v, cps, 1.0) == ct.sink_basins(v, cps, -1.0) == ()
        saddles = 0
        for v in fields.values():
            cps = find_critical_points(v)
            for cp in cps:
                if cp.jacobian_determinant() < 0:
                    saddles += 1
                    assert ct._basin(v, cp, [], 1.0) is None
                    assert ct._basin(v, cp, [], -1.0) is None
        assert saddles >= 5

    def test_unproved_sink_has_no_basin(self, fields):
        """A basin needs critfind's proof that the enclosure holds the sink:
        van der Pol's origin, a sink backward, has none once its point is
        not marked certified."""
        v = fields["van-der-pol"]
        [cp] = find_critical_points(v)
        assert ct._basin(v, cp, [], -1.0) is not None
        assert ct._basin(v, dataclasses.replace(cp, certified=False), [], -1.0) is None

    def test_no_numpy_linalg(self, corpus, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for fn in ("solve", "inv", "eig", "eigvals", "eigh", "eigvalsh", "det", "lstsq",
                   "cholesky", "norm", "svd"):
            monkeypatch.setattr(np.linalg, fn, never)
        v = corpus["van-der-pol"]
        assert len(ct.sink_basins(v, find_critical_points(v), -1.0)) == 1

    @pytest.mark.parametrize("name", ["van-der-pol", "cubic-one-cycle", "random-3-5"])
    def test_families_are_prefixes(self, fields, name):
        """With the basins of both directions, every seed's families in each
        half of the joint run are prefixes of its basin-free families in that
        half, and some backward ones are cut.  These fields have basins only
        backward, so the forward half comes out whole."""
        v = fields[name]
        cps = find_critical_points(v)
        cfg = cd.DetectConfig()
        seeds = cd._make_seeds(v, cps, cfg)
        basins = ct.sink_basins(v, cps, 1.0) + ct.sink_basins(v, cps, -1.0)
        assert [b.time_sign for b in basins] == [-1.0]
        got = cd._scout(v, seeds, anchors_of(cps), cfg, basins)
        free = cd._scout(v, seeds, anchors_of(cps), cfg)
        for half, ref_half in zip(got, free):
            for fam, ref in zip(half, ref_half):
                assert set(fam) <= set(ref)
                for key, evs in fam.items():
                    assert evs == ref[key][:len(evs)]
        assert pickle.dumps(got[0]) == pickle.dumps(free[0])
        assert sum(a != b for a, b in zip(got[1], free[1])) > 0

    def test_basins_stop_only_their_direction(self, fields):
        """A basin is tested only on the trajectories of its time sign: van
        der Pol's backward basin disk, relabelled forward, cuts forward
        seeds, which start inside it, and leaves the backward half as it is
        without basins."""
        v = fields["van-der-pol"]
        cps = find_critical_points(v)
        cfg = cd.DetectConfig()
        seeds = cd._make_seeds(v, cps, cfg)
        (basin,) = ct.sink_basins(v, cps, -1.0)
        flipped = dataclasses.replace(basin, time_sign=1.0)
        got = cd._scout(v, seeds, anchors_of(cps), cfg, (flipped,))
        free = cd._scout(v, seeds, anchors_of(cps), cfg)
        assert pickle.dumps(got[1]) == pickle.dumps(free[1])
        assert sum(a != b for a, b in zip(got[0], free[0])) > 0


def wobbly(n: int = 512) -> np.ndarray:
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    r = 1.0 + 0.2 * np.sin(3.0 * th) + 0.05 * np.cos(11.0 * th)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def same_as_dense(pts, poly) -> float:
    got = cd._directed_hausdorff(pts, poly)
    want = directed_hausdorff_dense(pts, poly)
    assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)
    return got


class TestHausdorff:
    """The pruned directed distance is the dense n x m x 2 computation's
    float, compared with ==."""

    @pytest.mark.parametrize("n,m", [(1, 5), (63, 40), (64, 7), (65, 300), (512, 1366)])
    def test_blocks_match_dense(self, n, m):
        rng = np.random.default_rng(n + m)
        for _ in range(3):
            pts = rng.normal(size=(n, 2))
            poly = np.cumsum(rng.normal(size=(m, 2)), axis=0)
            assert cd._directed_hausdorff(pts, poly) == directed_hausdorff_dense(pts, poly)

    @pytest.mark.parametrize("change", ["offset", "rolled", "reversed"])
    def test_near_duplicate_closed_curves(self, change):
        """The dedup case: two traversals of one curve, about 1e-9 apart or
        with the vertices shared, start and orientation changed."""
        base = wobbly()
        other = {"offset": base + 1e-9, "rolled": np.roll(base, 37, axis=0),
                 "reversed": base[::-1]}[change]
        d = [same_as_dense(base, cd._close_loop(other)), same_as_dense(other, cd._close_loop(base))]
        assert cd.hausdorff_distance(base, other) == max(d) < 1e-8

    def test_tied_maxima(self):
        """Points at exactly the same largest distance, among nearer ones,
        in more than one block."""
        square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
        rng = np.random.default_rng(5)
        far = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [0.0, -3.0], [3.0, 0.5],
                        [-3.0, -0.5]])
        pts = np.concatenate([rng.uniform(-2.4, 2.4, (300, 2)), far])
        pts = pts[rng.permutation(len(pts))]
        assert same_as_dense(pts, square) == 2.0
        assert same_as_dense(circle(2.0, 256), cd._close_loop(circle(1.0, 256))) > 0.99

    def test_zero_length_segments(self):
        """Repeated vertices make segments of length 0, floored at 1e-300."""
        pts = wobbly(300)
        doubled = cd._close_loop(np.repeat(circle(1.0, 200), 2, axis=0))
        same_as_dense(pts, doubled)
        same_as_dense(doubled, cd._close_loop(pts))
        point = np.zeros((3, 2))
        assert same_as_dense(pts, point) == directed_hausdorff_dense(pts, point[:2])
        same_as_dense(np.vstack([pts, doubled[5:6]]), doubled)

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (math.inf, 0.0), (0.5, -math.inf),
                                     (math.inf, math.inf)])
    @pytest.mark.parametrize("where", [0, 100, 299])
    def test_non_finite_point(self, bad, where):
        """A non-finite point gives the dense result, NaN or inf, wherever
        it sits: its bound, NaN or inf, sorts first and is never skipped."""
        pts = wobbly(300)
        pts[where] = bad
        with np.errstate(invalid="ignore"):   # inf - inf in the projection
            got = same_as_dense(pts, cd._close_loop(circle(1.0, 200)))
        assert not math.isfinite(got)

    def test_non_finite_vertex(self):
        poly = cd._close_loop(circle(1.0, 200))
        poly[50] = (math.nan, 1.0)
        assert math.isnan(same_as_dense(wobbly(300), poly))

    def test_row_blocked_memory(self):
        """4096 points against a 4096-vertex polyline: the dense form would
        hold 4096 x 4096 x 2 floats (268 MB), a one-shot nearest-vertex pass
        4096 x 4097 (134 MB); a block's temporaries take 2 MB each."""
        pts = wobbly(4096)
        poly = cd._close_loop(wobbly(4096) * (1.0 + 1e-6))
        tracemalloc.start()
        try:
            got = cd._directed_hausdorff(pts, poly)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < got < 1e-5
        assert peak < 16 * 2**20


class TestWinding:
    def test_against_quadrature_oracle(self):
        pts = circle(1.5, n=512)
        probes = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.0), (-1.2, -1.2)]
        for px, py in probes:
            assert cd.winding_number(pts, (px, py)) == winding_brute(
                pts, px, py)

    def test_point_on_curve_rejected(self):
        pts = circle(1.0)
        with pytest.raises(cd.PointOnCycle):
            cd.winding_number(pts, (1.0, 0.0))

    def test_cycle_polygon(self, corpus_cycles):
        c = corpus_cycles["cubic-one-cycle"][0]
        assert cd.winding_number(c.points, (0.0, 0.0)) == winding_brute(
            c.points, 0.0, 0.0) == 1
        assert cd.winding_number(c.points, (2.5, 0.0)) == 0


class TestEnclosure:
    def test_matrix_entries(self, corpus_cycles, corpus_cps):
        m = cd.enclosure_matrix(corpus_cycles["cubic-one-cycle"],
                                corpus_cps["cubic-one-cycle"])
        assert m.tolist() == [[1]]
        m2 = cd.enclosure_matrix(corpus_cycles["two-cycle"],
                                 corpus_cps["two-cycle"])
        assert m2.shape[0] == 2
        assert np.all(m2.sum(axis=1) >= 1)

    def test_every_detected_cycle_encloses_something(self, corpus_cycles,
                                                     corpus_cps):
        for name, cycles in corpus_cycles.items():
            if not cycles:
                continue
            m = cd.enclosure_matrix(cycles, corpus_cps[name])
            assert np.all(m.sum(axis=1) >= 1)

    def test_point_on_cycle_is_an_error(self, corpus_cycles):
        c = corpus_cycles["cubic-one-cycle"][0]
        onpt = FakePoint(99, float(c.points[3, 0]), float(c.points[3, 1]))
        with pytest.raises(cd.PointOnCycle):
            cd.enclosure_matrix([c], [onpt])


class TestFiberResidence:
    def test_cubic_sits_in_one_level_set(self, corpus, corpus_cycles):
        """On the unit circle the cubic field has speed exactly 1."""
        c = corpus_cycles["cubic-one-cycle"][0]
        mean, spread = cd.fiber_residence(c, corpus["cubic-one-cycle"])
        assert mean == pytest.approx(1.0, abs=1e-6)
        assert spread < 1e-6

    def test_vdp_crosses_level_sets(self, corpus, corpus_cycles):
        c = corpus_cycles["van-der-pol"][0]
        _, spread = cd.fiber_residence(c, corpus["van-der-pol"])
        assert spread > 0.1


class TestCycleClassMap:
    def test_cycle_matches_its_level_set(self, corpus, corpus_cycles):
        """The cubic cycle lies in {|V| = 1}, so the map is near-exact."""
        v = corpus["cubic-one-cycle"]
        fib = mf.extract_fiber(v, (0.0, 0.0), 1.5, 1.0)
        assert [c.closed for c in fib.components] == [True]
        idx, dist = cd.cycle_class_map(corpus_cycles["cubic-one-cycle"][0],
                                       fib)
        assert idx == 0
        assert dist < 1e-3

    def test_no_closed_component_maps_nowhere(self, corpus_cycles):
        stretch = cb.parse_vf("P = 2*x\nQ = y\nbox = [-5, 5] x [-5, 5]\n")
        arcs = mf.extract_fiber(stretch, (0.0, 0.0), 1.0, 1.5)
        idx, dist = cd.cycle_class_map(corpus_cycles["cubic-one-cycle"][0],
                                       arcs)
        assert idx is None
        assert dist == math.inf
