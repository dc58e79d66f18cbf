"""Limit-cycle detection, winding numbers and fiber residence.

The cubic system contracts onto the exact unit circle with period
2 pi, giving closed forms for period, shape, and stability. Van der
Pol's period is checked against an independent scipy reference.
"""

import math

import numpy as np
import pytest

import cyclebound as cb
from cyclebound import cycledetect as cd
from cyclebound import milnorfiber as mf

from oracles import circle, hausdorff_resampled, winding_brute

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
