"""Command-line interface: exit codes, outputs, artifacts."""

import json
import math
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import cyclebound as cb
from cyclebound import render
from cyclebound.cli import _build_parser, _config_from, main

SYSTEMS = pathlib.Path(__file__).resolve().parent.parent / "systems"

EXIT_OK = 0
EXIT_VIOLATED = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_BADARG = 65


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.vf"
    path.write_text("P = x^2 - 1\nQ = y\nbox = [-5, 5] x [-5, 5]\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_holds(self, capsys, pair_file):
        code, out, _ = run(capsys, "analyze", pair_file)
        assert code == EXIT_OK
        assert "verdict: inequality_holds" in out

    def test_violated(self, capsys):
        code, out, _ = run(capsys, "analyze",
                           str(SYSTEMS / "two-cycle.vf"))
        assert code == EXIT_VIOLATED
        assert "verdict: inequality_violated" in out
        assert "detected cycles = 2" in out

    def test_inconclusive_on_zero_curve(self, capsys, tmp_path):
        """A whole line of equilibria defeats the point solver."""
        path = tmp_path / "line.vf"
        path.write_text("P = x\nQ = 0\nbox = [-5, 5] x [-5, 5]\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == EXIT_INCONCLUSIVE
        assert "verdict: inconclusive" in out
        assert "critical point search failed" in out

    @pytest.mark.parametrize("argv", [("critpoints",),
                                      ("fiber", "--point-id", "0", "--eta", "0.1"),
                                      ("cycles",)],
                             ids=["critpoints", "fiber", "cycles"])
    def test_failed_point_search_names_its_type(self, capsys, tmp_path, argv):
        """Every subcommand that runs critfind reports the exception type."""
        path = tmp_path / "line.vf"
        path.write_text("P = x\nQ = 0\nbox = [-5, 5] x [-5, 5]\n")
        code, _, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == EXIT_INCONCLUSIVE
        assert "critical point search failed: DepthLimitExceeded:" in err

    @pytest.mark.parametrize("command", ["critpoints", "analyze"])
    def test_enclosure_beyond_float_range(self, capsys, tmp_path, command):
        """The field loads, but x^2 overflows on the box: the search fails
        with a named cause instead of raising."""
        path = tmp_path / "wide.vf"
        path.write_text("P = x^2 - 1\nQ = y\nbox = [-1e200, 1e200] x [-1e200, 1e200]\n")
        code, out, err = run(capsys, command, str(path))
        assert code == EXIT_INCONCLUSIVE
        said = err if command == "critpoints" else out
        assert "critical point search failed: CritFindError:" in said
        assert "leaves the float range" in said

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.vf"
        path.write_text("P = x +\nQ = y\nbox = [-5, 5] x [-5, 5]\n")
        code, _, err = run(capsys, "critpoints", str(path))
        assert code == EXIT_USAGE
        assert "line 1" in err

    @pytest.mark.parametrize("command", ["analyze", "critpoints"])
    @pytest.mark.parametrize("text", ["P = 10^400*x\nQ = y\n",
                                      "P = x - y\nQ = x + y\n"
                                      "box = [-1e400, 1] x [-1, 1]\n",
                                      "P = 10^308*x^2 - y\nQ = x + y\n"],
                             ids=["coefficient", "box-corner", "partial"])
    def test_number_beyond_float_range(self, capsys, tmp_path, command, text):
        path = tmp_path / "huge.vf"
        path.write_text(text)
        code, _, err = run(capsys, command, str(path))
        assert code == EXIT_USAGE
        assert "cannot load" in err and "beyond the float range" in err

    def test_failed_polish_is_inconclusive(self, capsys, tmp_path):
        """The origin is a zero, but 1e307*x^3 defeats the float Newton polish:
        the search must not report that there is no critical point."""
        path = tmp_path / "steep.vf"
        path.write_text("P = 10^307*x^3 - y\nQ = x + y\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == EXIT_INCONCLUSIVE
        assert "verdict: inconclusive" in out
        assert "CritFindError: Newton polish failed on every box of the cluster [" in out

    def test_threads_flag_is_unknown(self, capsys):
        code, _, err = run(capsys, "analyze", str(SYSTEMS / "linear-center.vf"),
                           "--threads", "2")
        assert code == EXIT_USAGE
        assert "--threads" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "critpoints", "/nonexistent/x.vf")
        assert code == EXIT_USAGE

    def test_unknown_point_id(self, capsys):
        code, _, err = run(capsys, "fiber",
                           str(SYSTEMS / "linear-center.vf"),
                           "--point-id", "7", "--eta", "0.1")
        assert code == EXIT_BADARG
        assert "available: [0]" in err

    def test_eta_out_of_range_names_the_limit(self, capsys):
        code, _, err = run(capsys, "fiber",
                           str(SYSTEMS / "linear-center.vf"),
                           "--point-id", "0", "--eta", "99.0")
        assert code == EXIT_BADARG
        assert "eta_max" in err

    @pytest.mark.parametrize("eta", ["1e-170", "1.4e-154"])
    def test_eta_with_underflowing_square_names_the_floor(self, capsys, eta):
        """eta^2 below the smallest normal float used to flush the fiber test
        to 0 and print closed=0 with exit 0."""
        code, out, err = run(capsys, "fiber", str(SYSTEMS / "van-der-pol.vf"),
                             "--point-id", "0", "--eta", eta)
        assert code == EXIT_BADARG
        assert out == ""
        assert "eta_min = 1.49166815e-154" in err

    def test_grid_floor(self, capsys):
        code, _, err = run(capsys, "fiber",
                           str(SYSTEMS / "linear-center.vf"),
                           "--point-id", "0", "--eta", "0.1",
                           "--grid", "32")
        assert code == EXIT_BADARG
        assert "64" in err

    @pytest.mark.parametrize("argv", [("--grid", "0"), ("--grid", "63"),
                                      ("--max-grid", "128"),
                                      ("--grid", "512", "--max-grid", "256")],
                             ids=["grid-0", "grid-63", "max-grid-below-default",
                                  "max-grid-below-grid"])
    def test_grid_values_checked(self, capsys, argv):
        code, _, err = run(capsys, "critpoints",
                           str(SYSTEMS / "linear-center.vf"), *argv)
        assert code == EXIT_BADARG
        assert "--grid" in err or "--max-grid" in err

    @pytest.mark.parametrize("argv", [("--grid", "100000"), ("--max-grid", "4097")],
                             ids=["grid-100000", "max-grid-4097"])
    def test_grid_cap(self, capsys, argv):
        """Above 4096 a grid is refused before anything is allocated."""
        code, _, err = run(capsys, "critpoints",
                           str(SYSTEMS / "linear-center.vf"), *argv)
        assert code == EXIT_BADARG
        assert argv[0] in err and "4096" in err

    def test_grid_cap_itself_accepted(self, capsys):
        code, _, _ = run(capsys, "critpoints", str(SYSTEMS / "linear-center.vf"),
                         "--max-grid", "4096")
        assert code == EXIT_OK

    @pytest.mark.parametrize("flag,value", [("--rays", "-1"), ("--radii", "-2"),
                                            ("--grid-seeds", "-3"),
                                            ("--t-horizon", "-0.5"),
                                            ("--t-horizon", "nan"),
                                            ("--t-horizon", "inf")])
    def test_detection_values_checked(self, capsys, flag, value):
        code, _, err = run(capsys, "cycles",
                           str(SYSTEMS / "degenerate-demo.vf"), flag, value)
        assert code == EXIT_BADARG
        assert flag in err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "1e400", "1e-3,-1e-3"])
    def test_perturbation_sizes_checked(self, capsys, monkeypatch, value):
        """A bad size is refused before any field is analysed."""
        def never(*args):
            raise AssertionError("morsification ran")

        monkeypatch.setattr("cyclebound.cli.morsification_invariance", never)
        code, _, err = run(capsys, "morsify",
                           str(SYSTEMS / "degenerate-demo.vf"), "--s", value)
        assert code == EXIT_BADARG
        assert "--s" in err

    def test_empty_perturbation_list(self, capsys):
        code, _, err = run(capsys, "morsify",
                           str(SYSTEMS / "degenerate-demo.vf"), "--s", "")
        assert code == EXIT_USAGE

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == EXIT_USAGE


class TestOverrides:
    @pytest.mark.parametrize("flag,field", [("--t-horizon", "t_horizon"),
                                            ("--rays", "rays"),
                                            ("--radii", "radii"),
                                            ("--grid-seeds", "grid_seeds")])
    def test_zero_reaches_config(self, flag, field):
        """A zero override is used, not dropped for being falsy."""
        args = _build_parser().parse_args(["cycles", "x.vf", flag, "0"])
        assert getattr(_config_from(args).detect, field) == 0


class TestShowConfig:
    def test_runs_as_module(self, capsys):
        """`python -m cyclebound` runs the CLI from a source checkout."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "cyclebound", "--show-config"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_OK
        assert run(capsys, "--show-config")[1] == proc.stdout

    def test_prints_defaults(self, capsys):
        code, out, _ = run(capsys, "--show-config")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"fiber", "detect"}
        assert "deriv_step" not in doc["detect"]
        assert doc["fiber"]["grid"] == 256
        assert doc["detect"]["t_horizon"] == 200.0


class TestCritpoints:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "critpoints",
                           str(SYSTEMS / "linear-center.vf"))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].split() == ["id", "x", "y", "index", "det",
                                    "nondeg", "bdry"]
        assert len(lines) == 2
        assert lines[1].split()[0] == "0"

    def test_empty_table_is_not_an_error(self, capsys, tmp_path):
        path = tmp_path / "nozero.vf"
        path.write_text("P = x + 5\nQ = y + 9\nbox = [-1, 1] x [-1, 1]\n")
        code, out, _ = run(capsys, "critpoints", str(path))
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 1


class TestArtifacts:
    def test_fiber_json(self, capsys, tmp_path):
        out_json = tmp_path / "fiber.json"
        code, _, _ = run(capsys, "fiber", str(SYSTEMS / "linear-center.vf"),
                         "--point-id", "0", "--eta", "0.5",
                         "--json", str(out_json))
        assert code == EXIT_OK
        doc = json.loads(out_json.read_text())
        assert doc["closed"] == 1
        assert doc["arcs"] == 0
        assert doc["eta"] == 0.5
        assert doc["grid_resolution"] >= 256
        assert len(doc["components"]) == 1

    def test_cycles_json_and_csv(self, capsys, tmp_path):
        out_json = tmp_path / "cycles.json"
        out_csv = tmp_path / "cycles.csv"
        code, out, _ = run(capsys, "cycles",
                           str(SYSTEMS / "cubic-one-cycle.vf"),
                           "--json", str(out_json), "--csv", str(out_csv))
        assert code == EXIT_OK
        assert "1 limit cycle(s)" in out
        doc = json.loads(out_json.read_text())
        assert len(doc) == 1
        assert doc[0]["period"] == pytest.approx(2.0 * math.pi, abs=1e-6)
        assert doc[0]["stability"] == "attracting"
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "cycle,vertex,x,y"
        assert len(lines) > 500

    def test_cycles_states_the_certificate(self, capsys, tmp_path):
        out_json = tmp_path / "cycles.json"
        out_csv = tmp_path / "cycles.csv"
        code, out, _ = run(capsys, "cycles", str(SYSTEMS / "linear-center.vf"),
                           "--json", str(out_json), "--csv", str(out_csv))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "0 limit cycle(s)"
        assert "div V is identically 0" in lines[1]
        assert json.loads(out_json.read_text()) == []
        assert out_csv.read_text().splitlines() == ["cycle,vertex,x,y"]

    def test_cycles_reports_failed_detection(self, capsys, tmp_path, pair_file,
                                             monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("no return map")

        monkeypatch.setattr("cyclebound.analysis.detect_limit_cycles", fail)
        out_json = tmp_path / "cycles.json"
        code, out, err = run(capsys, "cycles", pair_file, "--json", str(out_json))
        assert code == EXIT_INCONCLUSIVE
        assert "cycle detection failed: RuntimeError: no return map" in err
        assert out == ""
        assert not out_json.exists()

    def test_analyze_report_and_figure(self, capsys, tmp_path, pair_file):
        out_json = tmp_path / "report.json"
        out_svg = tmp_path / "portrait.svg"
        code, _, _ = run(capsys, "analyze", pair_file,
                         "--json", str(out_json), "--svg", str(out_svg))
        assert code == EXIT_OK
        doc = json.loads(out_json.read_text())
        assert doc["bound"] == 2
        assert doc["verdict"] == "inequality_holds"
        svg = out_svg.read_text()
        assert svg.lstrip().startswith("<svg")
        assert len(svg) > 1000

    def test_figure_draws_every_streamline(self, capsys, tmp_path):
        """The 9 x 9 streamlines of a field with no zero are all drawn, also
        where the integrator's error estimate is exactly 0."""
        path = tmp_path / "shear.vf"
        path.write_text("P = 1\nQ = x\nbox = [-2, 2] x [-2, 2]\n")
        out_svg = tmp_path / "portrait.svg"
        code, _, _ = run(capsys, "analyze", str(path), "--svg", str(out_svg))
        assert code == EXIT_OK
        assert out_svg.read_text().count("<polyline") == 81

    def test_figure_raises_on_a_failed_streamline(self, pair_file, monkeypatch):
        """An integrator error reaches the caller instead of dropping the
        streamline from the figure."""
        def fail(*args, **kwargs):
            raise ValueError("rtol, atol and t_max must be positive")

        monkeypatch.setattr(render, "integrate", fail)
        with pytest.raises(ValueError, match="must be positive"):
            render.phase_portrait_svg(cb.load_vf(pair_file))

    @pytest.mark.parametrize("command", ["analyze", "cycles"])
    def test_figure_escapes_the_field_name(self, capsys, tmp_path, command):
        """A name with markup characters reaches the SVG as text, and the
        file stays well-formed XML."""
        path = tmp_path / "marked.vf"
        path.write_text("P = x^2 - 1\nQ = y\nbox = [-5, 5] x [-5, 5]\nname = a<b & c\n")
        out_svg = tmp_path / "portrait.svg"
        code, _, _ = run(capsys, command, str(path), "--svg", str(out_svg))
        assert code == EXIT_OK
        texts = ET.parse(out_svg).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert "a<b & c" in [t.text for t in texts]

    def test_analyze_figure_survives_failed_detection(self, capsys, tmp_path,
                                                      pair_file, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("no return map")

        monkeypatch.setattr("cyclebound.analysis.detect_limit_cycles", fail)
        monkeypatch.setattr("cyclebound.cli.detect_limit_cycles", fail,
                            raising=False)
        out_svg = tmp_path / "portrait.svg"
        code, out, _ = run(capsys, "analyze", pair_file, "--svg", str(out_svg))
        assert code == EXIT_INCONCLUSIVE
        assert "cycle detection failed: RuntimeError: no return map" in out
        assert out_svg.read_text().lstrip().startswith("<svg")

    def test_analyze_runs_each_stage_once(self, capsys, tmp_path, pair_file,
                                          monkeypatch):
        import cyclebound.analysis
        import cyclebound.cli

        calls = {"critfind": 0, "detect": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (cyclebound.analysis, cyclebound.cli):
            monkeypatch.setattr(mod, "find_critical_points",
                                counted("critfind", mod.find_critical_points))
        monkeypatch.setattr(cyclebound.analysis, "detect_limit_cycles",
                            counted("detect", cyclebound.analysis.detect_limit_cycles))
        code, _, _ = run(capsys, "analyze", pair_file,
                         "--json", str(tmp_path / "report.json"),
                         "--svg", str(tmp_path / "portrait.svg"))
        assert code == EXIT_OK
        assert calls == {"critfind": 1, "detect": 1}

    def test_reports_identical_modulo_timestamp(self, capsys, tmp_path,
                                                pair_file):
        """Same input and config give byte-identical reports."""
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run(capsys, "analyze", pair_file,
                             "--json", str(p))
            assert code == EXIT_OK
        docs = [json.loads(p.read_text()) for p in paths]
        stamps = [d.pop("timestamp") for d in docs]
        assert all(stamps)
        raw = [json.dumps(d, sort_keys=True) for d in docs]
        assert raw[0] == raw[1]


class TestMorsifyCommand:
    def test_repeat_runs_identical(self, capsys):
        argv = ["morsify", str(SYSTEMS / "degenerate-demo.vf"),
                "--s", "1e-2", "--seeds", "3"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0].split() == ["s", "seed", "k", "B", "cycles",
                                    "changed"]
        assert lines[1].split() == ["0", "-", "1", "1", "0", "False"]
        assert lines[2].split() == ["0.01", "3", "2", "2", "0", "True"]
