"""cyclebound benchmark: one process, one caller, closed loop.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from `src/`.
Each field is one operation and starts only after the previous one finished;
the program runs with its default configuration (threads = 1).

Workloads (why each was chosen: perfbench/README.md):
  corpus         four shipped systems through cyclebound.compare
  random-fields  a fixed panel of seeded random fields on [-2, 2]^2, compare
  portrait       `cyclebound analyze <f> --json <out> --svg <out>` via cli.main

The seed sets the order in which a workload's fields run.  Whole passes over
the workload repeat while the next one still fits in --seconds (at least
one).  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 one traced pass gives the per-layer
metrics and its spans go to .perfbench-out/trace-<workload>-seed<n>.jsonl.
Every field's output is checked; a field that raises or fails a check counts
as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracing import Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SYSTEMS = ROOT / "systems"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference_digests.json"

WORKLOADS = ("corpus", "random-fields", "portrait")

# (B, detected cycles, verdict) per contract system; two-cycle is left out
# because its compare alone (about 47 s) does not fit in one run
CORPUS_EXPECT = {
    "cubic-one-cycle": (1, 1, "inequality_holds"),
    "van-der-pol": (1, 1, "inequality_holds"),
    "linear-center": (1, 0, "inequality_holds"),
    "degenerate-demo": (1, 0, "inequality_holds"),
}
PORTRAIT = ("linear-center", "van-der-pol", "degenerate-demo")
# (degree, field seed); cubic seed 5 is the known unexplained inconclusive
RANDOM_PANEL = ((2, 2), (2, 3), (3, 5), (4, 1))
RANDOM_BOX = (-2, 2, -2, 2)
# one small field per workload, for the smoke test
TINY = {
    "corpus": ("degenerate-demo",),
    "random-fields": ((1, 3),),
    "portrait": ("degenerate-demo",),
}
GRIDS = (256, 512, 1024, 2048)
STAGES = ("critfind", "milnorfiber.sweep", "cycledetect")
FIBER_FAILURES = ("GridTooCoarse", "EtaTooLarge", "DeltaCollapse")
# set-up samples before and after the passes; setup_s is their median
SETUP_REPEATS = (5, 4)


class BenchError(RuntimeError):
    pass


def import_cyclebound():
    """Import the library from this checkout's src/, never from elsewhere."""
    if not (SRC / "cyclebound" / "__init__.py").is_file():
        raise BenchError(f"no cyclebound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cyclebound

    if Path(cyclebound.__file__).resolve().parent != SRC / "cyclebound":
        raise BenchError(f"imported cyclebound from {cyclebound.__file__}, not {SRC}")
    return cyclebound


def random_field(cb, degree: int, seed: int):
    """The rule of tests/oracles.py::random_field: coefficients of p, then q,
    uniform in [-1, 1] from numpy's default_rng(seed), on the box [-2, 2]^2."""
    import numpy as np

    rng = np.random.default_rng(seed)

    def poly():
        return cb.Poly2({(i, j): Fraction(float(rng.uniform(-1.0, 1.0)))
                         for i in range(degree + 1) for j in range(degree + 1 - i)})

    p = poly()
    q = poly()
    return cb.VectorField(p, q, name=f"random-deg{degree}-seed{seed}",
                          box=cb.Box.make(*RANDOM_BOX))


@dataclass
class Field:
    key: str                  # "<workload>/<name>", the reference-digest key
    vf: object                # cyclebound.VectorField
    path: Path | None = None  # the .vf file, for corpus and portrait
    degree: int | None = None
    seed: int | None = None


def setup(workload: str, seed: int, tiny: bool):
    """Import the library and load or generate the workload's fields, in the
    order the seed gives."""
    cb = import_cyclebound()
    specs = TINY[workload] if tiny else (
        tuple(CORPUS_EXPECT) if workload == "corpus"
        else RANDOM_PANEL if workload == "random-fields" else PORTRAIT)
    fields = []
    for spec in specs:
        if workload == "random-fields":
            degree, fseed = spec
            fields.append(Field(f"{workload}/deg{degree}-seed{fseed}",
                                random_field(cb, degree, fseed), degree=degree, seed=fseed))
        else:
            path = SYSTEMS / f"{spec}.vf"
            if not path.is_file():
                raise BenchError(f"missing system file {path}")
            fields.append(Field(f"{workload}/{spec}", cb.load_vf(path), path=path))
    random.Random(seed).shuffle(fields)
    return cb, fields


def measure_setup(args, repeats: int) -> list[float]:
    """Wall times of fresh processes that only import and set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def pin_to_one_cpu() -> int:
    """Run on the lowest-numbered CPU this process may use; set-up processes
    inherit it.  The reference machine's two vCPUs at times differ in speed
    by about a third, and an unpinned run spends an unpredictable share on
    each."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def ref_loop() -> float:
    """Seconds for a fixed pure-Python loop: shows host speed drift."""
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i % 7
    return time.perf_counter() - t0


def report_digest(text: str) -> str:
    """sha256 of a report's JSON with the timestamp value blanked."""
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    key: str
    seconds: float = 0.0
    report: object = None     # AnalysisReport
    digest: str | None = None
    svg_bytes: int = 0
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def inconclusive(self) -> bool:
        return self.report is not None and self.report.verdict == "inconclusive"


def check_report(report, key: str) -> list[str]:
    """B is the sum of l over stable points; a conclusive verdict is
    'violated' exactly when more cycles were detected than B; the contract
    systems (corpus and portrait) give their recorded answers."""
    problems = []
    stable_sum = sum(m.l for m in report.milnor if m.stable)
    if report.bound != stable_sum:
        problems.append(f"B = {report.bound} but stable l sum to {stable_sum}")
    n = len(report.detected)
    if report.verdict != "inconclusive" and \
            (report.verdict == "inequality_violated") != (n > report.bound):
        problems.append(f"verdict {report.verdict} with B = {report.bound}, detected {n}")
    name = key.split("/", 1)[1]
    if name in CORPUS_EXPECT:
        got = (report.bound, n, report.verdict)
        if got != CORPUS_EXPECT[name]:
            problems.append(f"(B, detected, verdict) = {got}, expected {CORPUS_EXPECT[name]}")
        if name == "cubic-one-cycle" and n == 1:
            period = report.detected[0]["period"]
            if abs(period - 2 * math.pi) > 1e-4:
                problems.append(f"cubic period {period!r} is not 2*pi within 1e-4")
    return problems


def run_portrait(cb, f: Field, out: Outcome, program_context) -> None:
    from cyclebound import cli

    name = f.path.stem
    json_path, svg_path = OUT / f"portrait-{name}.json", OUT / f"portrait-{name}.svg"
    for p in (json_path, svg_path):
        p.unlink(missing_ok=True)
    argv = ["analyze", str(f.path), "--json", str(json_path), "--svg", str(svg_path)]
    with program_context():
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        out.seconds = time.perf_counter() - t0
    if code != 0:
        out.problems.append(f"exit code {code}, expected 0")
    text = json_path.read_text(encoding="utf-8")
    out.report = cb.report_from_json(text)
    out.digest = report_digest(text)
    if cb.report_to_json(out.report) + "\n" != text:
        out.problems.append("report JSON does not round-trip through report_from_json")
    svg = svg_path.read_bytes()
    out.svg_bytes = len(svg)
    try:
        ET.fromstring(svg)
    except ET.ParseError as e:
        out.problems.append(f"SVG does not parse as XML: {e}")


def run_field(cb, workload: str, f: Field,
              program_context=contextlib.nullcontext) -> Outcome:
    """One operation: the program's work on one field (timed, and traced when
    program_context traces), then the output checks."""
    out = Outcome(f.key)
    try:
        if workload == "portrait":
            run_portrait(cb, f, out, program_context)
        else:
            with program_context():
                t0 = time.perf_counter()
                report = cb.compare(f.vf)
                text = cb.report_to_json(report)
                out.seconds = time.perf_counter() - t0
            out.report = report
            out.digest = report_digest(text)
        out.problems += check_report(out.report, f.key)
    except Exception as e:  # a field that raises is a failed operation
        out.problems.append(f"raised {type(e).__name__}: {e}")
    return out


def probe(cb, tracer: Tracer, v, report) -> None:
    """Cold extract_fiber at each grid size (grid = max_grid = n) at the middle
    eta of the first swept point, and one period of each detected cycle from
    its first vertex at the detector's refinement tolerances."""
    m = next((m for m in report.milnor if m.eta_sweep), None)
    if m is not None:
        loc = next((c["x"], c["y"]) for c in report.critical_points
                   if c["id"] == m.point_id)
        eta = m.eta_sweep[len(m.eta_sweep) // 2]
        for n in GRIDS:
            cfg = cb.FiberConfig(grid=n, max_grid=n)
            with tracer.span(f"probe.extract.{n}"):
                try:
                    cb.extract_fiber(v, loc, m.delta, eta, cfg)
                except cb.milnorfiber.FiberError:
                    pass
    dc = cb.DetectConfig()
    for c in report.detected:
        with tracer.span("probe.integrate") as s:
            traj = cb.integrate(v, tuple(c["points"][0]), c["period"],
                                rtol=dc.refine_rtol, atol=dc.refine_atol)
            s.attrs.update(accepted=traj.n_accepted, rejected=traj.n_rejected)


def trace_targets(cb):
    from cyclebound import render

    def points(s, out):
        s.attrs["points"] = len(out)

    def stable(s, out):
        s.attrs["stable"] = bool(out.stable)

    def grid(s, out):
        s.attrs["grid"] = int(out.grid_resolution)

    def cycles(s, out):
        s.attrs["cycles"] = len(out)

    def size(s, out):
        s.attrs["bytes"] = len(out.encode("utf-8"))

    return [
        ("polyalg.parse", cb.load_vf, None),
        ("critfind", cb.find_critical_points, points),
        ("milnorfiber.sweep", cb.vanishing_cycle_count, stable),
        ("milnorfiber.extract", cb.extract_fiber, grid),
        ("milnorfiber.submersion", cb.submersion_check, None),
        ("cycledetect", cb.detect_limit_cycles, cycles),
        ("analysis.compare", cb.compare, None),
        ("analysis.json", cb.report_to_json, size),
        ("render.svg", render.phase_portrait_svg, None),
        ("render.write", render.write_svg, None),
    ]


def traced_pass(cb, workload: str, fields: list[Field]):
    """One pass with every call into the layers traced; output checks run
    untraced."""
    tracer = Tracer()
    targets = trace_targets(cb)

    @contextlib.contextmanager
    def traced():
        with instrument(tracer, targets):
            if workload == "portrait":
                with tracer.span("cli.analyze"):
                    yield
            else:
                yield

    outcomes = []
    for i, f in enumerate(fields):
        tracer.field = i
        with tracer.span("field", key=f.key):
            v = f.vf
            if f.path is not None and workload != "portrait":
                with instrument(tracer, targets):
                    v = cb.load_vf(f.path)
            o = run_field(cb, workload, Field(f.key, v, f.path), traced)
            if o.report is not None:
                with instrument(tracer, targets):
                    probe(cb, tracer, v, o.report)
        outcomes.append(o)
    return tracer, outcomes


def layer_metrics(tracer: Tracer, outcomes: list[Outcome], reference: dict) -> dict:
    sweeps = tracer.named("milnorfiber.sweep")
    levels = tracer.named("milnorfiber.extract", parent="milnorfiber.sweep")
    failed_levels = [s for s in levels if s.error]
    fails = Counter(s.error for s in failed_levels + sweeps if s.error)
    grids = Counter(s.attrs.get("grid") for s in levels if not s.error)
    integ = tracer.named("probe.integrate")
    steps = sum(s.attrs["accepted"] + s.attrs["rejected"] for s in integ)
    compares = tracer.named("analysis.compare")
    diagnostics = sum(c.duration - sum(ch.duration for ch in tracer.children(c)
                                       if ch.name in STAGES) for c in compares)
    in_cli = tracer.named("analysis.compare", parent="cli.analyze")
    sweep_s = tracer.total("milnorfiber.sweep")

    m = {
        "critfind.s": (tracer.total("critfind"), "s"),
        "critfind.points": (sum(s.attrs.get("points", 0) for s in tracer.named("critfind")),
                            "count"),
        "milnorfiber.sweep_s": (sweep_s, "s"),
        "milnorfiber.sweep_s_per_point": (sweep_s / len(sweeps) if sweeps else 0.0, "s"),
        "milnorfiber.submersion_s": (tracer.total("milnorfiber.submersion"), "s"),
        "milnorfiber.levels": (len(levels), "count"),
        "milnorfiber.levels_failed": (len(failed_levels), "count"),
        "milnorfiber.level_ok_ratio": (
            (len(levels) - len(failed_levels)) / len(levels) if levels else 0.0, "ratio"),
        "milnorfiber.unstable_points": (
            sum(1 for s in sweeps if s.error or not s.attrs.get("stable")), "count"),
    }
    for name in FIBER_FAILURES:
        m[f"milnorfiber.fail.{name}"] = (fails[name], "count")
    for n in GRIDS:
        m[f"milnorfiber.grid_reached.{n}"] = (grids[n], "count")
    for n in GRIDS:
        probes = [s.duration for s in tracer.named(f"probe.extract.{n}")]
        m[f"milnorfiber.extract_s.{n}"] = (statistics.median(probes) if probes else 0.0, "s")
    m.update({
        "cycledetect.s": (tracer.total("cycledetect"), "s"),
        "cycledetect.cycles": (sum(s.attrs.get("cycles", 0)
                                   for s in tracer.named("cycledetect")), "count"),
        "odeflow.integrate_s": (sum((s.duration for s in integ), 0.0), "s"),
        "odeflow.steps_accepted": (sum(s.attrs["accepted"] for s in integ), "count"),
        "odeflow.steps_rejected": (sum(s.attrs["rejected"] for s in integ), "count"),
        "odeflow.step_us": (1e6 * sum(s.duration for s in integ) / steps if steps else 0.0,
                            "us"),
        "analysis.compare_s": (sum((c.duration for c in compares), 0.0), "s"),
        "analysis.diagnostics_s": (diagnostics, "s"),
        "analysis.json_s": (tracer.total("analysis.json"), "s"),
        "analysis.report_bytes": (sum(s.attrs.get("bytes", 0)
                                      for s in tracer.named("analysis.json")), "bytes"),
        "analysis.report_changed": (
            sum(not report_same(o, reference) for o in outcomes), "count"),
        "analysis.unexplained_inconclusive": (
            sum(1 for o in outcomes if o.inconclusive and not o.report.notes), "count"),
        "render.svg_s": (tracer.total("render.svg") + tracer.total("render.write"), "s"),
        "render.svg_bytes": (sum(o.svg_bytes for o in outcomes), "bytes"),
        "cli.analyze_s": (tracer.total("cli.analyze"), "s"),
        "cli.extra_s": (tracer.total("cli.analyze") - sum(c.duration for c in in_cli), "s"),
        "polyalg.parse_s": (tracer.total("polyalg.parse"), "s"),
    })
    return m


def report_same(o: Outcome, reference: dict) -> bool:
    """Does the field's report digest match the recorded one?"""
    return o.digest is not None and reference.get(o.key) == o.digest


def print_fields(outcomes: list[Outcome], reference: dict) -> None:
    for o in outcomes:
        r = o.report
        state = "FAILED: " + "; ".join(o.problems) if o.failed else "ok"
        same = "same" if report_same(o, reference) else "CHANGED"
        if r is None:
            print(f"  {o.key}: {state}")
            continue
        print(f"  {o.key}: {o.seconds:.3f} s, equilibria {len(r.critical_points)}, "
              f"B {r.bound}, detected {len(r.detected)}, {r.verdict}, "
              f"report {same}, {state}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one small field per workload (smoke test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and set up, then exit (times setup_s)")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's report digests as the reference")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    try:
        cb, fields = setup(args.workload, args.seed, args.tiny)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    OUT.mkdir(exist_ok=True)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}

    print(f"workload {args.workload}, seed {args.seed}, pinned to CPU {cpu}, "
          f"{len(fields)} fields in this order:")
    for f in fields:
        desc = f"degree {f.degree}, field seed {f.seed}" if f.degree is not None \
            else str(f.path.relative_to(ROOT))
        print(f"  {f.key} ({desc})")

    ref_before = ref_loop()
    if args.trace:
        t0 = time.perf_counter()
        tracer, outcomes = traced_pass(cb, args.workload, fields)
        pass_s = time.perf_counter() - t0
        tracer.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(tracer, outcomes, reference)
        print(f"traced pass: {pass_s:.3f} s, {len(tracer.spans)} spans")
    else:
        setup_times = measure_setup(args, SETUP_REPEATS[0])
        passes = []
        t_start = time.perf_counter()
        while True:
            passes.append([run_field(cb, args.workload, f) for f in fields])
            last = sum(o.seconds for o in passes[-1])
            if time.perf_counter() - t_start + last > args.seconds:
                break
        setup_times += measure_setup(args, SETUP_REPEATS[1])
        outcomes = [o for p in passes for o in p]
        pass_times = [sum(o.seconds for o in p) for p in passes]
        inconclusive = sum(o.inconclusive for o in outcomes) / len(outcomes)
        metrics = {
            "wall_s": (statistics.median(pass_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
            "conclusive_ratio": (1.0 - inconclusive, "ratio"),
        }
        print(f"passes: {len(passes)}, pass seconds: median {metrics['wall_s'][0]:.3f}, "
              f"min {min(pass_times):.3f}, max {max(pass_times):.3f}")
        print(f"inconclusive_ratio {inconclusive!r} ratio")
    ref_after = ref_loop()
    if args.trace:
        metrics["host.ref_loop_s"] = ((ref_before + ref_after) / 2.0, "s")

    print_fields(outcomes if args.trace else passes[0], reference)
    print(f"host reference loop: {ref_before:.4f} s before, {ref_after:.4f} s after")
    failed = sum(o.failed for o in outcomes)
    print(f"attempted {len(outcomes)}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    if args.record_digests:
        reference.update({o.key: o.digest for o in outcomes if o.digest is not None})
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
