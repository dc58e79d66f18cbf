"""Command-line surface: critpoints | fiber | cycles | analyze | morsify.

Exit codes: 0 success (and inequality_holds for analyze), 2 inequality
violated, 3 inconclusive or computation failed, 64 usage/parse error,
65 bad argument value.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, replace

from .analysis import (
    PipelineConfig,
    VERDICT_HOLDS,
    VERDICT_VIOLATED,
    _cp_summary,
    _cycle_summary,
    _cycles_or_certificate,
    morsification_invariance,
    report_from_run,
    report_to_json,
    run,
)
from .critfind import CritFindError, find_critical_points
from .milnorfiber import ETA_MIN, FiberError, extract_fiber, select_radii
from .polyalg import PolyParseError, VectorFieldError, load_vf
from .render import fiber_svg, phase_portrait_svg, write_svg

EXIT_OK = 0
EXIT_VIOLATED = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_BADARG = 65

# largest --grid and --max-grid: each fiber grid array holds (n+1)^2 floats
MAX_GRID = 4096


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="cyclebound",
                description="Loop-count bounds vs detected limit cycles for "
                            "planar polynomial fields.")
    p.add_argument("--show-config", action="store_true",
                   help="print all numeric defaults as JSON and exit")
    sub = p.add_subparsers(dest="command")

    def common(sp, svg=True):
        sp.add_argument("input", help="input .vf system file")
        sp.add_argument("--json", help="write machine-readable output here")
        if svg:
            sp.add_argument("--svg", help="write an SVG figure here")
        sp.add_argument("--grid", type=int, help="fiber extraction grid")
        sp.add_argument("--max-grid", type=int, help="fiber refinement cap")
        sp.add_argument("--t-horizon", type=float, help="scouting time horizon")
        sp.add_argument("--rays", type=int, help="seed rays per equilibrium")
        sp.add_argument("--radii", type=int, help="seed radii per ray")
        sp.add_argument("--grid-seeds", type=int, help="seed grid resolution")

    sp = sub.add_parser("critpoints", help="find and classify equilibria")
    common(sp, svg=False)

    sp = sub.add_parser("fiber", help="extract one level curve around a point")
    common(sp)
    sp.add_argument("--point-id", type=int, required=True)
    sp.add_argument("--eta", type=float, required=True)

    sp = sub.add_parser("cycles", help="detect limit cycles")
    common(sp)
    sp.add_argument("--csv", help="write cycle polylines as CSV here")

    sp = sub.add_parser("analyze", help="full bound-vs-detection report")
    common(sp)

    sp = sub.add_parser("morsify", help="perturbation invariance table")
    common(sp, svg=False)
    sp.add_argument("--s", required=True,
                    help="comma-separated perturbation sizes, e.g. 1e-3,1e-2")
    sp.add_argument("--seeds", default="1,2,3",
                    help="comma-separated generator seeds")
    return p


class BadArgument(ValueError):
    pass


def _config_from(args) -> PipelineConfig:
    cfg = PipelineConfig()
    fiber = cfg.fiber
    for flag, value in (("--grid", args.grid), ("--max-grid", args.max_grid)):
        if value is not None and value > MAX_GRID:
            raise BadArgument(f"{flag} must be at most {MAX_GRID}, got {value}")
    if args.grid is not None:
        if args.grid < 64:
            raise BadArgument(f"--grid must be at least 64, got {args.grid}")
        fiber = replace(fiber, grid=args.grid)
    if args.max_grid is not None:
        if args.max_grid < fiber.grid:
            raise BadArgument(f"--max-grid must be at least the grid {fiber.grid}, "
                              f"got {args.max_grid}")
        fiber = replace(fiber, max_grid=args.max_grid)
    detect = cfg.detect
    for field, flag in (("t_horizon", "--t-horizon"), ("rays", "--rays"),
                        ("radii", "--radii"), ("grid_seeds", "--grid-seeds")):
        value = getattr(args, field)
        if value is not None:
            if not 0 <= value < math.inf:
                raise BadArgument(f"{flag} must be finite and non-negative, got {value}")
            detect = replace(detect, **{field: value})
    return replace(cfg, fiber=fiber, detect=detect)


def _load(path):
    try:
        return load_vf(path)
    except (PolyParseError, VectorFieldError, OSError) as e:
        print(f"cyclebound: cannot load {path}: {e}", file=sys.stderr)
        return None


def _critical_points(v):
    """The critical points of v, or None after reporting why the search failed."""
    try:
        return find_critical_points(v)
    except CritFindError as e:
        print(f"critical point search failed: {type(e).__name__}: {e}",
              file=sys.stderr)
        return None


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def cmd_critpoints(args) -> int:
    v = _load(args.input)
    if v is None:
        return EXIT_USAGE
    _config_from(args)  # refuses bad option values, as every command does
    cps = _critical_points(v)
    if cps is None:
        return EXIT_INCONCLUSIVE
    print(f"{'id':>3} {'x':>18} {'y':>18} {'index':>6} {'det':>12} "
          f"{'nondeg':>7} {'bdry':>5}")
    for cp in cps:
        print(f"{cp.id:>3} {cp.x:>18.12g} {cp.y:>18.12g} {cp.index:>6} "
              f"{cp.jacobian_determinant():>12.5g} {str(cp.nondegenerate):>7} "
              f"{str(cp.on_boundary):>5}")
    if args.json:
        _write_json(args.json, [_cp_summary(cp) for cp in cps])
    return EXIT_OK


def cmd_fiber(args) -> int:
    v = _load(args.input)
    if v is None:
        return EXIT_USAGE
    cfg = _config_from(args)
    cps = _critical_points(v)
    if cps is None:
        return EXIT_INCONCLUSIVE
    by_id = {cp.id: cp for cp in cps}
    if args.point_id not in by_id:
        print(f"cyclebound: no critical point with id {args.point_id}; "
              f"available: {sorted(by_id)}", file=sys.stderr)
        return EXIT_BADARG
    cp = by_id[args.point_id]
    others = [(o.x, o.y) for o in cps if o.id != cp.id]
    try:
        delta, sweep = select_radii(v, (cp.x, cp.y), others)
    except FiberError as e:
        print(f"cyclebound: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    eta_max = sweep[0]
    if not (ETA_MIN <= args.eta <= eta_max):
        # below ETA_MIN, eta^2 underflows and the fiber test reads nothing
        print(f"cyclebound: eta {args.eta:g} out of range; eta_min = {ETA_MIN:.9g} "
              f"(smallest eta with a normal square), eta_max = {eta_max:.9g} "
              f"for point {cp.id}", file=sys.stderr)
        return EXIT_BADARG
    try:
        fiber = extract_fiber(v, (cp.x, cp.y), delta, args.eta, cfg.fiber)
    except FiberError as e:
        print(f"cyclebound: extraction failed: {type(e).__name__}: {e}",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    print(f"point {cp.id}: delta={delta:.9g} eta={args.eta:g} "
          f"closed={fiber.closed_count} arcs={fiber.arc_count} "
          f"grid={fiber.grid_resolution}")
    if args.json:
        payload = {
            "point_id": cp.id,
            "delta": delta,
            "eta": args.eta,
            "eta_max": eta_max,
            "grid_resolution": fiber.grid_resolution,
            "closed": fiber.closed_count,
            "arcs": fiber.arc_count,
            "components": [
                {"closed": c.closed,
                 "vertices": [[float(x), float(y)] for x, y in c.vertices]}
                for c in fiber.components
            ],
        }
        _write_json(args.json, payload)
    if args.svg:
        write_svg(fiber_svg(fiber, (cp.x, cp.y)), args.svg)
    return EXIT_OK


def cmd_cycles(args) -> int:
    v = _load(args.input)
    if v is None:
        return EXIT_USAGE
    cfg = _config_from(args)
    cps = _critical_points(v)
    if cps is None:
        return EXIT_INCONCLUSIVE
    cycles, certificate, error = _cycles_or_certificate(v, cps, cfg)
    if error is not None:  # same contract as analyze: report, do not crash
        print(f"cycle detection failed: {error}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    print(f"{len(cycles)} limit cycle(s)")
    if certificate is not None:
        print(f"  certified: {certificate}")
    for i, lc in enumerate(cycles):
        print(f"  [{i}] period={lc.period:.9g} {lc.stability} "
              f"R'={lc.return_derivative:.6g} encloses={list(lc.enclosed_cp_ids)} "
              f"residual={lc.closure_residual:.3g} radius={lc.mean_radius():.6g}")
    if args.json:
        _write_json(args.json, [_cycle_summary(lc) for lc in cycles])
    if args.svg:
        write_svg(phase_portrait_svg(v, cps, cycles), args.svg)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["cycle", "vertex", "x", "y"])
            for i, lc in enumerate(cycles):
                for j, (x, y) in enumerate(lc.points):
                    w.writerow([i, j, repr(float(x)), repr(float(y))])
    return EXIT_OK


def cmd_analyze(args) -> int:
    v = _load(args.input)
    if v is None:
        return EXIT_USAGE
    r = run(v, _config_from(args))
    report = report_from_run(r)
    print(f"system: {report.system_name}")
    print(f"critical points: {len(report.critical_points)}")
    print(f"bound B = {report.bound}, detected cycles = {len(report.detected)}")
    print(f"verdict: {report.verdict}")
    for note in report.notes:
        print(f"note: {note}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
            fh.write("\n")
    if args.svg:
        loc_by_id = {cp.id: (cp.x, cp.y) for cp in r.cps}
        fibers = []
        for m in r.milnor:
            if not (m.stable and m.eta_sweep):
                continue
            loc = loc_by_id[m.point_id]
            try:
                eta = m.eta_sweep[len(m.eta_sweep) // 2]
                fibers.append((extract_fiber(v, loc, m.delta, eta, r.cfg.fiber), loc))
            except FiberError:
                continue
        write_svg(phase_portrait_svg(v, r.cps, r.cycles, fibers), args.svg)
    if report.verdict == VERDICT_HOLDS:
        return EXIT_OK
    if report.verdict == VERDICT_VIOLATED:
        return EXIT_VIOLATED
    return EXIT_INCONCLUSIVE


def cmd_morsify(args) -> int:
    v = _load(args.input)
    if v is None:
        return EXIT_USAGE
    cfg = _config_from(args)
    try:
        s_values = [float(s) for s in args.s.split(",") if s.strip()]
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as e:
        print(f"cyclebound: bad numeric list: {e}", file=sys.stderr)
        return EXIT_USAGE
    if not s_values or not seeds:
        print("cyclebound: --s and --seeds must be nonempty", file=sys.stderr)
        return EXIT_USAGE
    for s in s_values:
        if not 0 <= s < math.inf:
            raise BadArgument(f"--s must be finite and non-negative, got {s}")
    rows = morsification_invariance(v, s_values, seeds, cfg)
    print(f"{'s':>10} {'seed':>6} {'k':>4} {'B':>4} {'cycles':>7} {'changed':>8}")
    for r in rows:
        seed = "-" if r["seed"] is None else str(r["seed"])
        k = "-" if r["k"] is None else str(r["k"])
        b = "-" if r["B"] is None else str(r["B"])
        det = "-" if r["detected"] is None else str(r["detected"])
        print(f"{r['s']:>10g} {seed:>6} {k:>4} {b:>4} {det:>7} "
              f"{str(r['changed']):>8}")
        if r["error"]:
            print(f"    error: {r['error']}")
    if args.json:
        _write_json(args.json, rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.show_config:
        print(json.dumps(asdict(PipelineConfig()), indent=2, sort_keys=True))
        return EXIT_OK
    if not args.command:
        parser.print_usage(sys.stderr)
        print("cyclebound: error: a command is required", file=sys.stderr)
        return EXIT_USAGE
    handler = {
        "critpoints": cmd_critpoints,
        "fiber": cmd_fiber,
        "cycles": cmd_cycles,
        "analyze": cmd_analyze,
        "morsify": cmd_morsify,
    }[args.command]
    try:
        return handler(args)
    except BadArgument as e:
        print(f"cyclebound: {e}", file=sys.stderr)
        return EXIT_BADARG


if __name__ == "__main__":
    sys.exit(main())
