"""Pipeline assembly: bound, verdict, report serialization, morsification."""

import dataclasses
import json
import math

import numpy as np
import pytest

import cyclebound as cb
from cyclebound import analysis as an
from cyclebound import certify as ct
from cyclebound.critfind import CritFindError
from cyclebound.milnorfiber import MilnorData

from oracles import random_field


def make_milnor(l=1, stable=True, sub=True):
    return MilnorData(point_id=0, delta=1.0, eta_sweep=(0.5,),
                      counts_per_eta=((l, 0),), l=l, stable=stable,
                      submersion_ok=sub, witness=None)


@pytest.fixture(scope="module")
def pair_field():
    return cb.parse_vf("P = x^2 - 1\nQ = y\nbox = [-5, 5] x [-5, 5]\n")


class TestDecideVerdict:
    CASES = [
        # (milnor list, detected, bound, failures) -> verdict
        (([make_milnor()], 0, 1, False), "inequality_holds"),
        (([make_milnor()], 1, 1, False), "inequality_holds"),
        (([make_milnor()], 2, 1, False), "inequality_violated"),
        (([make_milnor(stable=False)], 0, 1, False), "inconclusive"),
        (([make_milnor()], 0, 1, True), "inconclusive"),
        # a submersion failure weakens the equality claim, not the bound
        (([make_milnor(sub=False)], 2, 1, False), "inequality_violated"),
        (([make_milnor(sub=False)], 1, 1, False), "inequality_holds"),
        (([], 0, 0, False), "inequality_holds"),
    ]

    @pytest.mark.parametrize("args,expected", CASES)
    def test_rule(self, args, expected):
        assert an.decide_verdict(*args) == expected


class TestHomologyBound:
    def test_sum_over_points(self, pair_field):
        r = an.run(pair_field)
        assert r.bound == 2
        assert len(r.milnor) == 2
        assert r.bound == sum(m.l for m in r.milnor)
        assert all(m.stable for m in r.milnor)

    def test_center(self, corpus_runs):
        r, _, _ = corpus_runs["linear-center"]
        assert r.bound == 1
        assert [m.l for m in r.milnor] == [1]


class TestLoopCountPath:
    """Which path decides l: the single-loop certificate, and the sweep only
    where the certificate does not decide."""

    PANEL = ((2, 2), (2, 3), (3, 5), (4, 1))   # the benchmark's random-fields

    @pytest.fixture
    def sweeps(self, monkeypatch):
        calls = []
        real = an.vanishing_cycle_count

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(an, "vanishing_cycle_count", counted)
        return calls

    @pytest.mark.parametrize("degree,seed", PANEL)
    def test_random_panel_sweeps_nothing(self, sweeps, degree, seed):
        r = an.run(random_field(seed, degree, cb.Box.make(-2, 2, -2, 2)))
        assert sweeps == []
        assert all(m.decided_by == "certificate" and m.stable and m.l == 1
                   and m.counts_per_eta == () and m.eta_sweep for m in r.milnor)

    def test_degenerate_point_sweeps_once(self, sweeps, corpus):
        r = an.run(corpus["degenerate-demo"])
        assert sweeps == [0]
        [m] = r.milnor
        assert m.decided_by == "sweep" and m.certified_radius is None
        assert m.level_errors == (None,) * len(m.eta_sweep)

    def test_morsified_degenerate_point_certifies_both(self, sweeps, corpus):
        """Criterion 8's perturbation splits the double zero into two simple
        ones; each is certified and B stays 2."""
        r = an.run(an.morsify(corpus["degenerate-demo"], 1e-2, 3))
        assert sweeps == []
        assert r.bound == 2

    def test_unstable_sweep_names_point_eta_and_cause(self, monkeypatch):
        """With the certificate off, cubic seed 5's point 2 fails two of the
        last four levels at the grid cap: one note names both."""
        monkeypatch.setattr(an, "certify_single_loop", lambda *args: None)
        r = an.run(random_field(5, 3, cb.Box.make(-2, 2, -2, 2)))
        m = r.milnor[2]
        assert not m.stable
        failed = [(eta, err) for eta, err in zip(m.eta_sweep[-4:], m.level_errors[-4:]) if err]
        assert len(failed) == 2
        assert all(err.startswith("GridTooCoarse: topology changed") for _, err in failed)
        assert r.notes == ("fiber sweep unstable at point 2: "
                           + "; ".join(f"eta {eta:.6g}: {err}" for eta, err in failed),)
        assert "eta 0.00120747: GridTooCoarse: topology changed from (3, 0) to (1, 0) " \
               "at the 2048 grid cap" in r.notes[0]
        assert an.report_from_run(r).verdict == "inconclusive"


class TestIndexCertificate:
    """No closed orbit where every zero in the scouting rectangle is a
    certified saddle: one would enclose zeros of index sum +1."""

    BOX = cb.Box.make(-2, 2, -2, 2)

    @pytest.mark.parametrize("degree,seed", [(2, 3), (4, 1)])
    def test_saddle_only_panel_fields(self, degree, seed, monkeypatch):
        def never(*args):
            raise AssertionError("sampled search ran")

        monkeypatch.setattr(an, "detect_limit_cycles", never)
        r = an.run(random_field(seed, degree, self.BOX))
        assert r.cycles == () and not r.had_failures
        assert r.no_cycle_certificate.startswith(
            "every zero of V in [-3, 3] x [-3, 3] is a saddle")
        assert an.report_from_run(r).verdict == "inequality_holds"

    def test_node_outside_the_box_counts(self):
        """The saddle at 0 is the box's only zero, but the node at 2.5 lies
        in the scouting rectangle [-3, 3]^2: nothing is certified."""
        v = cb.parse_vf("P = x^2 - 2.5*x\nQ = y\nbox = [-2, 2] x [-2, 2]\n")
        cps = cb.find_critical_points(v)
        assert [cp.location for cp in cps] == [(0.0, 0.0)]
        assert cps[0].certified and cps[0].index == -1
        assert ct._index_rule(v, cps) is None

    def test_unproved_saddle_counts(self, monkeypatch):
        """Every zero needs interval Newton's proof, in the box and in the
        scouting rectangle.  The degenerate saddle of (y - x^3, y) has index
        -1 from the circle cover but certifies nothing; nor does random
        (2,3), certified as it is, once the box's or the wide search's
        points are not marked certified."""
        v = cb.parse_vf("P = y - x^3\nQ = y\nbox = [-2, 2] x [-2, 2]\n")
        [cp] = cb.find_critical_points(v)
        assert (cp.index, cp.certified) == (-1, False)
        assert ct._index_rule(v, [cp]) is None

        def unprove(points):
            return [dataclasses.replace(cp, certified=False) for cp in points]

        real = ct.find_critical_points
        v = random_field(3, 2, self.BOX)
        cps = real(v)
        assert ct._index_rule(v, cps) is not None
        assert ct._index_rule(v, unprove(cps)) is None
        monkeypatch.setattr(ct, "find_critical_points", lambda f: unprove(real(f)))
        assert ct._index_rule(v, cps) is None

    def test_degenerate_demo_not_certified(self, corpus_runs):
        r, _, _ = corpus_runs["degenerate-demo"]
        assert ct._index_rule(r.field, r.cps) is None
        assert r.no_cycle_certificate is None

    def test_failed_wide_search_is_no_certificate(self, monkeypatch):
        """critfind on the scouting rectangle raises: the rule gives None,
        detection runs, and the verdict stands."""
        real = ct.find_critical_points
        v = random_field(3, 2, self.BOX)

        def wide_fails(f):
            if f.box != v.box:
                raise CritFindError("no search on the wide box")
            return real(f)

        monkeypatch.setattr(ct, "find_critical_points", wide_fails)
        assert ct._index_rule(v, real(v)) is None
        r = an.run(v)
        assert r.no_cycle_certificate is None and r.detect_error is None
        assert an.report_from_run(r).verdict == "inequality_holds"

    def test_certified_fields_have_no_cycles(self):
        """Sampled cross-check on random fields of degree 2-4, seeds 0-11:
        detection finds nothing wherever the rule certifies."""
        certified = []
        for degree in (2, 3, 4):
            for seed in range(12):
                v = random_field(seed, degree, self.BOX)
                try:
                    cps = cb.find_critical_points(v)
                except CritFindError:
                    continue
                if ct._index_rule(v, cps) is not None:
                    certified.append((degree, seed))
                    assert cb.detect_limit_cycles(v, cps) == []
        assert len(certified) == 8 and (2, 3) in certified and (4, 1) in certified


class TestCompareReports:
    def test_corpus_verdicts(self, corpus_reports):
        verdicts = {name: rep.verdict
                    for name, (rep, _) in corpus_reports.items()}
        assert verdicts == {
            "cubic-one-cycle": "inequality_holds",
            "van-der-pol": "inequality_holds",
            "linear-center": "inequality_holds",
            "two-cycle": "inequality_violated",
            "degenerate-demo": "inequality_holds",
        }

    def test_failed_shooting_is_inconclusive(self, corpus):
        """A refinement tolerance that `integrate` rejects fails detection
        with a named cause, rather than leaving 0 cycles to count."""
        cfg = cb.PipelineConfig(detect=cb.DetectConfig(refine_rtol=0.0))
        rep = cb.compare(corpus["van-der-pol"], cfg)
        assert rep.verdict == "inconclusive"
        assert rep.notes == ("cycle detection failed: ValueError: rtol, atol and t_max "
                             "must be positive",)

    def test_bound_recomputes_from_milnor(self, corpus_reports):
        for rep, _ in corpus_reports.values():
            assert rep.bound == sum(m.l for m in rep.milnor)

    def test_equality_hypothesis_tracks_submersion(self, corpus_reports):
        rep, _ = corpus_reports["degenerate-demo"]
        assert not rep.equality_hypothesis["submersion_ok_all"]
        assert rep.equality_hypothesis["failed_at"]
        rep2, _ = corpus_reports["linear-center"]
        assert rep2.equality_hypothesis["submersion_ok_all"]
        assert rep2.equality_hypothesis["failed_at"] == []

    def test_config_echo_shape(self, corpus_reports):
        rep, _ = corpus_reports["linear-center"]
        assert set(rep.config_echo) == {"fiber", "detect"}
        assert "deriv_step" not in rep.config_echo["detect"]
        assert rep.config_echo["fiber"]["grid"] == 256

    def test_certificate_only_on_center(self, corpus_reports):
        certs = {name: rep.no_cycle_certificate
                 for name, (rep, _) in corpus_reports.items()}
        assert [name for name, c in certs.items() if c is not None] == ["linear-center"]
        rep, _ = corpus_reports["linear-center"]
        assert rep.detected == () and rep.notes == ()

    def test_cycles_carry_return_exponent(self, corpus_reports):
        for rep, _ in corpus_reports.values():
            for c in rep.detected:
                assert c["return_derivative"] == math.exp(c["return_exponent"])

    def test_second_compare_builds_no_derived_polynomial(self, corpus, monkeypatch):
        """Partials and div V are kept with the polynomial they come from, so
        a second compare of a field reuses them, with their coefficient
        matrices, column plans and interval-term tables.  These fields
        extract no fiber: a fiber extraction derives its own |V - V(p)|^2
        and its partials on every pass."""
        built = []
        partial, terms = cb.Poly2.partial, cb.Poly2._interval_terms

        def spy_partial(p, var):
            if p._partials is None:
                built.append(("partial", p, var))
            return partial(p, var)

        def spy_terms(p):
            if p._ivals is None:
                built.append(("interval terms", p))
            return terms(p)

        monkeypatch.setattr(cb.Poly2, "partial", spy_partial)
        monkeypatch.setattr(cb.Poly2, "_interval_terms", spy_terms)
        box = cb.Box.make(-2, 2, -2, 2)
        fields = [corpus["van-der-pol"], corpus["linear-center"]]
        fields += [random_field(seed, degree, box)
                   for degree, seed in ((2, 2), (2, 3), (3, 5), (4, 1))]
        for v in fields:
            cb.compare(v)
            built.clear()
            cb.compare(v)
            assert built == [], v.name

    def test_timestamps_present(self, corpus_reports):
        for rep, _ in corpus_reports.values():
            assert rep.timestamp


class TestReportJson:
    def test_round_trip_equality(self, corpus_reports):
        for rep, _ in corpus_reports.values():
            again = an.report_from_json(an.report_to_json(rep))
            assert again == rep

    def test_round_trip_of_rare_records(self):
        """A failed level (None), a submersion witness and the placeholder
        of a failed sweep, none of which the corpus reports hold."""
        swept = MilnorData(point_id=0, delta=0.5, eta_sweep=(0.2, 0.1, 0.05),
                           counts_per_eta=((1, 0), None, (1, 0)), l=1, stable=False,
                           submersion_ok=False, witness=(0.25, -0.125),
                           level_errors=(None, "GridTooCoarse: cap", None))
        placeholder = MilnorData(point_id=1, delta=0.0, eta_sweep=(), counts_per_eta=(),
                                 l=0, stable=False, submersion_ok=False, witness=None)
        rep = an.AnalysisReport(
            system_name="rare", config_echo=dataclasses.asdict(an.PipelineConfig()),
            critical_points=(), milnor=(swept, placeholder), bound=0, detected=(),
            verdict=an.VERDICT_INCONCLUSIVE,
            equality_hypothesis={"submersion_ok_all": False, "failed_at": [0, 1]},
            diagnostics=(), timestamp="2024-01-01T00:00:00+00:00",
            notes=("fiber sweep failed at point 1: GridTooCoarse: cap",),
            no_cycle_certificate=None)
        text = an.report_to_json(rep)
        assert an.report_from_json(text) == rep
        doc = json.loads(text)
        assert doc["no_cycle_certificate"] is None
        assert set(doc["milnor"][0]) == {f.name for f in dataclasses.fields(MilnorData)}
        del doc["milnor"][0]["delta"]
        with pytest.raises(TypeError):
            an.report_from_dict(doc)
        doc = json.loads(text)
        del doc["bound"]
        with pytest.raises(TypeError):
            an.report_from_dict(doc)

    def test_overflowing_return_derivative_is_null(self):
        """exp(lambda) above the float range is inf, which JSON cannot hold."""
        t = [2.0 * math.pi * k / 64 for k in range(64)]
        lc = cb.LimitCycle(points=np.array([[math.cos(a), math.sin(a)] for a in t]),
                           period=2.0 * math.pi, stability="repelling",
                           return_derivative=math.inf, return_exponent=800.0,
                           enclosed_cp_ids=(0,), closure_residual=0.0)
        entry = an._cycle_summary(lc)
        assert entry["return_derivative"] is None
        assert entry["return_exponent"] == 800.0
        assert json.loads(json.dumps(entry, allow_nan=False)) == entry

    def test_fiber_polynomial_beyond_float_range(self):
        """Coefficients near 1e200 are floats, but |V - V(p)|^2 has them near
        1e400: the sweep fails with a named cause and the report is written."""
        rep = an.compare(cb.parse_vf("P = 10^200*(x - y)\nQ = 10^200*(x + y)\n"))
        assert rep.verdict == "inconclusive"
        assert len(rep.notes) == 1
        assert rep.notes[0].startswith("fiber sweep failed at point 0: FiberError:")
        assert "float range" in rep.notes[0]
        assert rep.critical_points[0]["determinant"] is None  # 2e400
        assert an.report_from_json(an.report_to_json(rep)) == rep

    def test_enclosure_beyond_float_range(self):
        """The field loads, but x^2 overflows on the box: the failed search
        names the box and the enclosure, and the report is written."""
        rep = an.compare(cb.parse_vf(
            "P = x^2 - 1\nQ = y\nbox = [-1e200, 1e200] x [-1e200, 1e200]\n"))
        assert rep.verdict == "inconclusive"
        assert len(rep.notes) == 1
        note = rep.notes[0]
        assert note.startswith("critical point search failed: CritFindError: ")
        assert "[-1e+200, 0] x [-1e+200, 0] is [nan, inf]" in note
        assert an.report_from_json(an.report_to_json(rep)) == rep

    def test_json_is_plain(self, corpus_reports):
        rep, _ = corpus_reports["cubic-one-cycle"]
        doc = json.loads(an.report_to_json(rep))
        assert doc["system_name"] == rep.system_name
        assert doc["bound"] == rep.bound
        assert doc["verdict"] == rep.verdict


class TestMorsify:
    def test_zero_size_is_identity(self, pair_field):
        assert an.morsify(pair_field, 0.0, 5) is pair_field

    def test_negative_size_rejected(self, pair_field):
        with pytest.raises(ValueError):
            an.morsify(pair_field, -1e-3, 1)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_size_rejected(self, pair_field, s):
        with pytest.raises(ValueError, match="finite"):
            an.morsify(pair_field, s, 1)

    def test_deterministic_per_seed(self, pair_field):
        a = an.morsify(pair_field, 1e-3, 1)
        b = an.morsify(pair_field, 1e-3, 1)
        c = an.morsify(pair_field, 1e-3, 2)
        assert a.p == b.p and a.q == b.q
        assert a.p != c.p or a.q != c.q

    def test_degenerate_point_splits(self, corpus):
        """Perturbing (x^2, y) resolves the double zero into two."""
        from cyclebound.critfind import find_critical_points

        pert = an.morsify(corpus["degenerate-demo"], 1e-2, 3)
        cps = find_critical_points(pert)
        assert len(cps) == 2
        assert all(c.nondegenerate for c in cps)


class TestMorsificationInvariance:
    def test_stable_field_rows(self, pair_field):
        rows = an.morsification_invariance(pair_field, [1e-3], [1])
        assert rows[0]["s"] == 0.0 and rows[0]["seed"] is None
        assert not rows[0]["changed"]
        assert len(rows) == 2
        assert rows[1]["changed"] is False
        base = (rows[0]["k"], rows[0]["B"], rows[0]["detected"])
        assert (rows[1]["k"], rows[1]["B"], rows[1]["detected"]) == base

    def test_detection_failure_stays_in_its_row(self, pair_field,
                                                monkeypatch):
        real = an.detect_limit_cycles

        def flaky(v, cps, cfg):
            if "+" in v.name:
                raise RuntimeError("no return map")
            return real(v, cps, cfg)

        monkeypatch.setattr("cyclebound.analysis.detect_limit_cycles", flaky)
        base, row = an.morsification_invariance(pair_field, [1e-3], [1])
        assert base["error"] is None and base["detected"] == 0
        assert (row["k"], row["B"]) == (base["k"], base["B"])
        assert row["detected"] is None
        assert row["error"] == "RuntimeError: no return map"
        assert row["changed"]

    def test_unbuildable_perturbation_stays_in_its_row(self):
        """Seed 2 draws 0.91 for the constant of P: 1.7e308 + 0.91e308
        leaves the float range, so that perturbed field cannot be built."""
        v = cb.parse_vf("P = 17*10^307 - y\nQ = x\n")
        base, row = an.morsification_invariance(v, [1e308], [2])
        assert (base["k"], base["B"], base["detected"], base["error"]) == (0, 0, 0, None)
        assert (row["k"], row["B"], row["detected"]) == (None, None, None)
        assert row["error"] == ("VectorFieldError: coefficient or box corner beyond "
                                "the float range")
        assert row["changed"]

    def test_degenerate_field_flags_change(self, corpus):
        rows = an.morsification_invariance(corpus["degenerate-demo"],
                                           [1e-2], [3])
        assert rows[0]["k"] == 1 and rows[0]["B"] == 1
        assert rows[1]["k"] == 2 and rows[1]["changed"]
        assert rows[1]["B"] == 2
