import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from cyclebound import critfind as cf
from cyclebound.critfind import (
    AmbiguousCluster,
    CritFindError,
    DepthLimitExceeded,
    StepTooCoarse,
    ZeroOnCircle,
    find_critical_points,
    poincare_index,
)
from cyclebound.polyalg import Box, IntervalBoxes, Poly2, VectorField, parse_poly, parse_vf

from oracles import brute_index, random_field, subdivide_reference


def linfac(var, root):
    mono = {(1, 0): F(1)} if var == 0 else {(0, 1): F(1)}
    return Poly2(mono) + Poly2({(0, 0): -root})


def factored_fields():
    """Twenty fields with known zeros: (field, sorted zero locations)."""
    rng = np.random.default_rng(2026)
    out = []
    for trial in range(20):
        if trial % 2 == 0:
            vals = rng.integers(-40, 41, size=4)
            while abs(vals[0] - vals[1]) < 5 or abs(vals[2] - vals[3]) < 5:
                vals = rng.integers(-40, 41, size=4)
            a1, a2, b1, b2 = (F(int(z), 10) for z in vals)
            p = linfac(0, a1) * linfac(0, a2)
            q = linfac(1, b1) * linfac(1, b2)
            expected = sorted(
                (float(a), float(b)) for a in (a1, a2) for b in (b1, b2)
            )
        else:
            vals = rng.integers(-40, 41, size=4)
            a, b, c, d = (F(int(z), 10) for z in vals)
            bump = (linfac(0, c) * linfac(0, c) + linfac(1, d) * linfac(1, d)
                    + Poly2({(0, 0): F(1)}))
            p = linfac(0, a) * bump
            q = linfac(1, b)
            expected = [(float(a), float(b))]
        out.append((VectorField(p, q, name=f"fac{trial}"), expected))
    return out


class TestFindCriticalPoints:
    def test_identity_field(self):
        cps = find_critical_points(parse_vf("P = x\nQ = y"))
        assert len(cps) == 1
        assert cps[0].location == (0.0, 0.0)
        assert cps[0].nondegenerate
        assert cps[0].index == 1

    def test_two_saddle_node_pair(self):
        cps = find_critical_points(parse_vf("P = x^2 - 1\nQ = y"))
        assert [(round(c.x, 9), round(c.y, 9)) for c in cps] == [(-1.0, 0.0), (1.0, 0.0)]
        assert [c.index for c in cps] == [-1, 1]
        assert [c.id for c in cps] == [0, 1]

    def test_van_der_pol_single_zero(self):
        cps = find_critical_points(parse_vf("P = y\nQ = (1 - x^2)*y - x"))
        assert len(cps) == 1
        assert math.hypot(*cps[0].location) < 1e-12

    def test_residuals_and_enclosures(self, corpus, corpus_cps):
        for name, cps in corpus_cps.items():
            v = corpus[name]
            for cp in cps:
                px, qx = v.eval(*cp.location)
                assert max(abs(px), abs(qx)) <= 1e-12
                x0, x1, y0, y1 = cp.enclosure
                assert x0 <= cp.x <= x1 and y0 <= cp.y <= y1

    def test_enclosures_disjoint(self):
        cps = find_critical_points(parse_vf("P = x^2 - 1\nQ = y^2 - 4"))
        assert len(cps) == 4
        boxes = [cp.enclosure for cp in cps]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                a, b = boxes[i], boxes[j]
                overlap_x = a[0] <= b[1] and b[0] <= a[1]
                overlap_y = a[2] <= b[3] and b[2] <= a[3]
                assert not (overlap_x and overlap_y)

    def test_factored_corpus_completeness(self):
        for v, expected in factored_fields():
            cps = find_critical_points(v)
            got = [cp.location for cp in cps]
            assert len(got) == len(expected)
            unmatched = list(got)
            for e in expected:
                hit = min(unmatched, key=lambda g: math.hypot(g[0] - e[0], g[1] - e[1]))
                assert math.hypot(hit[0] - e[0], hit[1] - e[1]) <= 1e-9
                unmatched.remove(hit)
            for cp in cps:
                assert cp.nondegenerate
                assert cp.index == (1 if cp.jacobian_determinant() > 0 else -1)

    def test_translation_equivariance(self):
        v = parse_vf("P = x^2 - 1\nQ = y")
        shifted = VectorField(
            v.p.compose_affine(F(1), F(0), F(0), F(1), F(1, 2), F(1, 4)),
            v.q.compose_affine(F(1), F(0), F(0), F(1), F(1, 2), F(1, 4)),
            name="shifted",
        )
        base = find_critical_points(v)
        moved = find_critical_points(shifted)
        assert len(base) == len(moved)
        for b, m in zip(base, moved):
            assert abs((b.x - 0.5) - m.x) <= 1e-9
            assert abs((b.y - 0.25) - m.y) <= 1e-9

    def test_zero_curve_rejected(self):
        with pytest.raises(DepthLimitExceeded):
            find_critical_points(parse_vf("P = x\nQ = 0"))

    def test_near_double_zero_ambiguous(self):
        v = parse_vf("P = x^2 - 1/10000000000000000\nQ = y")
        with pytest.raises(AmbiguousCluster):
            find_critical_points(v)

    def test_boundary_zero_flagged(self):
        cps = find_critical_points(parse_vf("P = x - 5\nQ = y"))
        assert len(cps) == 1
        assert cps[0].on_boundary

    def test_empty_box(self):
        assert find_critical_points(parse_vf("P = x - 10\nQ = y")) == []

    def test_degenerate_point_kept_and_flagged(self, corpus_cps):
        cps = corpus_cps["degenerate-demo"]
        assert len(cps) == 1
        assert not cps[0].nondegenerate
        assert cps[0].index == 0
        for text, nondeg in (("P = x\nQ = y", True), ("P = x^2\nQ = y", False),
                             ("P = y\nQ = (1 - x^2)*y - x", True)):
            [cp] = find_critical_points(parse_vf(text))
            assert math.hypot(*cp.location) < 1e-12
            assert cp.nondegenerate is nondeg


class TestPoincareIndex:
    def test_identity(self):
        v = parse_vf("P = x\nQ = y")
        assert poincare_index(v, (0.0, 0.0), 1.0) == 1

    def test_saddle(self):
        v = parse_vf("P = x\nQ = -y")
        assert poincare_index(v, (0.0, 0.0), 1.0) == -1

    def test_double_zero_against_oracle(self):
        v = parse_vf("P = x^2 - y^2\nQ = 2*x*y")
        assert poincare_index(v, (0.0, 0.0), 1.0) == 2
        assert brute_index(v, 0.0, 0.0, 1.0) == 2

    def test_matches_oracle_on_corpus(self, corpus, corpus_cps):
        for name, cps in corpus_cps.items():
            v = corpus[name]
            for cp in cps:
                assert cp.index == brute_index(v, cp.x, cp.y, 0.1)

    def test_zero_on_circle(self):
        v = parse_vf("P = x^2 - 1\nQ = y")
        with pytest.raises(ZeroOnCircle):
            poincare_index(v, (0.0, 0.0), 1.0)

    def test_step_too_coarse(self):
        """The degenerate zero (1, 0) of ((x - 1)^2, y) on the circle: no
        cover gives its boxes a half-plane, and interval Newton proves no
        zero there."""
        v = parse_vf("P = (x - 1)^2\nQ = y")
        with pytest.raises(StepTooCoarse, match="by up to 4096 boxes"):
            poincare_index(v, (0.0, 0.0), 1.0)

    def test_cap_reached_is_step_too_coarse(self, corpus, monkeypatch):
        """Degenerate-demo's origin, of index 0, needs a cover of 16 boxes:
        covers of 4 and 8 leave it undecided."""
        v = corpus["degenerate-demo"]
        monkeypatch.setattr(cf, "_ARCS", 4)
        monkeypatch.setattr(cf, "_MAX_ARCS", 8)
        with pytest.raises(StepTooCoarse, match="by up to 8 boxes"):
            poincare_index(v, (0.0, 0.0), 0.5)
        monkeypatch.setattr(cf, "_MAX_ARCS", 16)
        assert poincare_index(v, (0.0, 0.0), 0.5) == 0

    def test_index_sign_of_det(self, corpus, corpus_cps):
        for name, cps in corpus_cps.items():
            for cp in cps:
                if cp.nondegenerate:
                    expect = 1 if cp.jacobian_determinant() > 0 else -1
                    assert cp.index == expect

    @staticmethod
    def zeros(corpus):
        """(field name, field, zeros, locations that went round the circle)
        for the corpus, two-cycle included, and random fields of degree 2-4,
        seeds 0-11, on [-2, 2]^2."""
        fields = dict(corpus)
        for degree in (2, 3, 4):
            for seed in range(12):
                fields[f"random-{degree}-{seed}"] = random_field(
                    seed, degree, Box.make(-2, 2, -2, 2))
        circled = []
        real = cf.poincare_index

        def spy(v, center, radius):
            circled.append(center)
            return real(v, center, radius)

        out = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cf, "poincare_index", spy)
            for name, v in fields.items():
                circled.clear()
                out.append((name, v, find_critical_points(v), list(circled)))
        return out

    def test_every_zero_matches_oracle(self, corpus):
        """At every zero, the index, the circle cover's degree on critfind's
        index circle and the sampled oracle there agree."""
        count = 0
        for name, v, cps, _ in self.zeros(corpus):
            locs = [cp.location for cp in cps]
            for cp in cps:
                radius = cf._index_radius(v, cp.location, locs, cp.id)
                assert cp.index == poincare_index(v, cp.location, radius), (name, cp.id)
                assert cp.index == brute_index(v, cp.x, cp.y, radius), (name, cp.id)
                count += 1
        assert count == 68

    def test_shortcut_or_circle(self, corpus):
        """A zero whose enclosure interval Newton certifies takes its index
        from there, and `certified` records that proof; only the others go
        round the circle, and on these fields that is degenerate-demo's
        origin alone."""
        went_round = []
        for name, v, cps, circled in self.zeros(corpus):
            for cp in cps:
                shortcut = cf._certified_index(v, cp.enclosure)
                assert cp.certified == (shortcut is not None), (name, cp.id)
                assert (shortcut is None) == (cp.location in circled), (name, cp.id)
                assert shortcut in (None, cp.index)
                if shortcut is None:
                    went_round.append((name, cp.index))
        assert went_round == [("degenerate-demo", 0)]
        [cp] = find_critical_points(corpus["van-der-pol"])
        assert cf._certified_index(corpus["van-der-pol"], cp.enclosure) == cp.index == 1


class TestSubdivisionMatchesReference:
    """The level-at-a-time array subdivision against the box-by-box scalar
    loop of `oracles.subdivide_reference`: the same certified and unresolved
    boxes, bit for bit, in the same order."""

    @staticmethod
    def check(v):
        ref = subdivide_reference(v)
        got = cf._subdivide(v, cf._partials(v))
        assert got == ref
        assert repr(got) == repr(ref)   # signed zeros too
        return got

    @pytest.mark.parametrize("name", ["cubic-one-cycle", "van-der-pol", "linear-center",
                                      "two-cycle", "degenerate-demo"])
    def test_corpus(self, corpus, name):
        self.check(corpus[name])

    @pytest.mark.parametrize("degree,seed", [(2, 2), (2, 3), (3, 5), (4, 1), (3, 8), (4, 2)])
    def test_random_fields(self, degree, seed):
        certified, _ = self.check(random_field(seed, degree, Box.make(-2, 2, -2, 2)))
        if (degree, seed) != (2, 2):   # (2, 2) has no zero in the box
            assert certified

    def test_factored_fields(self):
        for v, _ in factored_fields():
            self.check(v)

    @pytest.mark.parametrize("text,limits", [
        ("P = x\nQ = 0", {}),
        ("P = x^2 - 1\nQ = y^2 - 1/4", {"_BOX_BUDGET": 8}),
        ("P = x^2 - 1\nQ = y^2 - 1/4", {"_MAX_DEPTH": 3}),
    ], ids=["zero-curve", "box-budget", "max-depth"])
    def test_depth_limit_same_message_and_box(self, monkeypatch, text, limits):
        for name, value in limits.items():
            monkeypatch.setattr(cf, name, value)
        v = parse_vf(text)
        with pytest.raises(DepthLimitExceeded) as ref:
            subdivide_reference(v)
        with pytest.raises(DepthLimitExceeded) as got:
            cf._subdivide(v, cf._partials(v))
        assert str(got.value) == str(ref.value)
        assert got.value.box == ref.value.box
        assert repr(got.value.box) == repr(ref.value.box)


class TestFloatRange:
    def test_overflowing_enclosure_names_box(self):
        """The field loads, but x^2 overflows at the midpoints of the first
        children: a CritFindError, not a ValueError from an empty interval."""
        v = parse_vf("P = x^2 - 1\nQ = y\nbox = [-1e200, 1e200] x [-1e200, 1e200]")
        with pytest.raises(CritFindError, match=r"\[-1e\+200, 0\] x \[-1e\+200, 0\] "
                                                r"is \[nan, inf\]"):
            find_critical_points(v)

    def test_huge_jacobian_warns_nothing(self):
        """det = 2e400 overflows to inf in Python floats, silently; the
        interval arithmetic overflows too, with numpy's warnings off."""
        v = parse_vf("P = 10^200*(x - y)\nQ = 10^200*(x + y)\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [cp] = find_critical_points(v)
        assert cp.jacobian_determinant() == math.inf
        assert cp.nondegenerate


class TestRegularity:
    """`regular` decides injectivity on a box from its interval Jacobian,
    not from the sign of det J at its points."""

    def test_cube_map_not_regular_though_det_positive(self):
        """z -> z^3 on [-0.9, 0.9] x [0.45, 0.55]: det J = 9 |z|^4 > 0 on the
        whole box, yet e^(i pi/6) and e^(i 5 pi/6) both map to i."""
        v = parse_vf("P = x^3 - 3*x*y^2\nQ = 3*x^2*y - y^3")
        boxes = IntervalBoxes([-0.9], [0.9], [0.45], [0.55])
        det, ok = cf.regular(cf.interval_jacobian(v, boxes), boxes)
        assert not ok[0]
        assert det[0][0] <= 0.0 <= det[1][0]
        xs, ys = np.meshgrid(np.linspace(-0.9, 0.9, 181), np.linspace(0.45, 0.55, 11))
        jac = [[v.p.partial(0), v.p.partial(1)], [v.q.partial(0), v.q.partial(1)]]
        pointwise = (jac[0][0].eval_grid(xs, ys) * jac[1][1].eval_grid(xs, ys)
                     - jac[0][1].eval_grid(xs, ys) * jac[1][0].eval_grid(xs, ys))
        assert pointwise.min() > 0.0
        a, b = (math.cos(math.pi / 6), 0.5), (-math.cos(math.pi / 6), 0.5)
        assert np.allclose(v.eval(*a), (0.0, 1.0)) and np.allclose(v.eval(*b), (0.0, 1.0))

    def test_small_box_at_a_simple_zero_is_regular(self):
        """Around z = 1, where z^3 has J = 3 I, a small box is regular."""
        v = parse_vf("P = x^3 - 3*x*y^2\nQ = 3*x^2*y - y^3")
        boxes = IntervalBoxes([0.9], [1.1], [-0.1], [0.1])
        det, ok = cf.regular(cf.interval_jacobian(v, boxes), boxes)
        assert ok[0] and det[0][0] > 0.0
