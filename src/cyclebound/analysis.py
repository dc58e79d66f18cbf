"""Pipeline assembly: loop-count bound vs detected cycles, plus morsification.

The headline quantity is B, the sum over equilibria of stabilized closed-loop
counts of the local level curves.  detect_limit_cycles supplies the empirical
side.  The verdict compares the two; a violated inequality is reported as a
finding, never suppressed.

`run` is the one place that chains critical points -> loop counts ->
detection.  A point's loop count is l = 1 where `certify_single_loop`
decides it, and from the fiber sweep `vanishing_cycle_count` otherwise; a
sweep left unstable gets a note naming the point, its failed levels and
their causes.  Detection is skipped where `no_cycle_certificate` proves that
no limit cycle exists (the certificates live in `certify`).  It returns the
objects as a `PipelineRun` and never raises on a parseable field.
`compare` (the JSON report), `morsification_invariance` (one table row per
field) and the CLI (report plus portrait) all consume it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction

from .certify import certify_single_loop, no_cycle_certificate
from .critfind import CritFindError, CriticalPoint, find_critical_points
from .cycledetect import (
    DetectConfig,
    LimitCycle,
    cycle_class_map,
    detect_limit_cycles,
    fiber_residence,
)
from .milnorfiber import (
    STABLE_TAIL,
    FiberConfig,
    FiberError,
    MilnorData,
    extract_fiber,
    select_radii,
    submersion_check,
    vanishing_cycle_count,
)
from .polyalg import Poly2, VectorField, VectorFieldError

VERDICT_HOLDS = "inequality_holds"
VERDICT_VIOLATED = "inequality_violated"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PipelineConfig:
    fiber: FiberConfig = FiberConfig()
    detect: DetectConfig = DetectConfig()


@dataclass(frozen=True)
class AnalysisReport:
    system_name: str
    config_echo: dict
    critical_points: tuple
    milnor: tuple
    bound: int
    detected: tuple
    verdict: str
    equality_hypothesis: dict
    diagnostics: tuple
    timestamp: str
    notes: tuple
    no_cycle_certificate: str | None  # why detection was skipped (divergence or index rule)


def _json_float(x) -> float | None:
    """x as a float, or None once it leaves the float range: JSON has no inf."""
    x = float(x)
    return x if math.isfinite(x) else None


def _cp_summary(cp) -> dict:
    a, b = cp.jacobian[0]
    c, d = cp.jacobian[1]
    return {
        "id": int(cp.id),
        "x": float(cp.x),
        "y": float(cp.y),
        "enclosure": [float(e) for e in cp.enclosure],
        "jacobian": [[float(a), float(b)], [float(c), float(d)]],
        "determinant": _json_float(cp.jacobian_determinant()),
        "nondegenerate": bool(cp.nondegenerate),
        "index": int(cp.index),
        "on_boundary": bool(cp.on_boundary),
    }


def _cycle_summary(lc) -> dict:
    return {
        "period": float(lc.period),
        "stability": str(lc.stability),
        "return_derivative": _json_float(lc.return_derivative),
        "return_exponent": float(lc.return_exponent),
        "enclosed_cp_ids": [int(i) for i in lc.enclosed_cp_ids],
        "closure_residual": float(lc.closure_residual),
        "mean_radius": float(lc.mean_radius()),
        "points": [[float(x), float(y)] for x, y in lc.points],
    }


def decide_verdict(milnor, n_detected: int, bound: int, had_failures: bool) -> str:
    """Pure verdict rule: inconclusive on any instability or failure,
    otherwise violated iff more cycles were detected than the bound allows."""
    if had_failures or any(not m.stable for m in milnor):
        return VERDICT_INCONCLUSIVE
    if n_detected > bound:
        return VERDICT_VIOLATED
    return VERDICT_HOLDS


def _placeholder_milnor(point_id: int) -> MilnorData:
    return MilnorData(point_id=point_id, delta=0.0, eta_sweep=(), counts_per_eta=(),
                      l=0, stable=False, submersion_ok=False, witness=None)


def _diagnostics(v, cycles, milnor_by_id, loc_by_id, cfg: PipelineConfig, notes):
    """One row per (cycle, enclosed point): level-set residence statistics and,
    when the cycle sits inside the point's ball at a swept level, the closest
    closed fiber component."""
    rows = []
    for ci, lc in enumerate(cycles):
        for pid in lc.enclosed_cp_ids:
            md = milnor_by_id.get(pid)
            if md is None or not md.eta_sweep:
                continue
            mean, var = fiber_residence(lc, v)
            row = {
                "cycle": ci,
                "cp": int(pid),
                "mean_speed": float(mean),
                "relative_variation": float(var),
                "eta_matched": None,
                "component_index": None,
                "hausdorff": None,
                "in_tube": False,
            }
            eta_lo, eta_hi = min(md.eta_sweep), max(md.eta_sweep)
            cp_loc = loc_by_id[pid]
            pts = lc.points
            far = float(max(math.hypot(x - cp_loc[0], y - cp_loc[1]) for x, y in pts))
            if eta_lo <= mean <= eta_hi and far <= md.delta:
                try:
                    fiber = extract_fiber(v, cp_loc, md.delta, mean, cfg.fiber)
                    comp_idx, hd = cycle_class_map(lc, fiber)
                    row.update(eta_matched=float(mean), in_tube=True,
                               component_index=comp_idx,
                               hausdorff=None if not math.isfinite(hd) else float(hd))
                except FiberError as e:
                    notes.append(f"fiber match at point {md.point_id} failed: {e}")
            rows.append(row)
    return rows


@dataclass(frozen=True)
class PipelineRun:
    """The objects one pass of the pipeline computed for one field."""

    field: VectorField
    cfg: PipelineConfig
    cps: tuple[CriticalPoint, ...]
    milnor: tuple[MilnorData, ...]  # per point; a placeholder where the sweep failed
    cycles: tuple[LimitCycle, ...]
    notes: tuple[str, ...]
    critfind_error: str | None = None  # "Type: message"; nothing else ran
    detect_error: str | None = None    # "Type: message"; cycles is empty
    had_failures: bool = False         # a sweep or the detection failed
    # why detection was skipped: the divergence or the index certificate
    no_cycle_certificate: str | None = None

    @property
    def bound(self) -> int:
        return sum(m.l for m in self.milnor if m.stable)


def _cycles_or_certificate(v: VectorField, cps, cfg: PipelineConfig):
    """(cycles, certificate, error): no cycles and the reason when
    `no_cycle_certificate` (the divergence or the index rule) rules cycles
    out, else the sampled search.  error is "Type: message" when a step
    raised; cycles is then empty."""
    try:
        certificate = no_cycle_certificate(v, cps)
        if certificate is not None:
            return [], certificate, None
        return detect_limit_cycles(v, cps, cfg.detect), None, None
    except Exception as e:  # contract: detection must not abort the report
        return [], None, f"{type(e).__name__}: {e}"


def _milnor(v: VectorField, cp: CriticalPoint, others, cfg: FiberConfig) -> MilnorData:
    """l = 1 from `certify_single_loop` where it decides the point, else the
    sweep's loop count.  A certified point keeps `select_radii`'s delta and
    eta sweep, and its submersion check, as a swept one would."""
    delta, sweep = select_radii(v, cp.location, others)
    cert = certify_single_loop(v, cp, delta)
    if cert is None:
        return vanishing_cycle_count(v, cp.id, cp.location, others, cfg)
    ok, witness = submersion_check(v, cp.location, delta, min(sweep), max(sweep), cfg)
    return MilnorData(point_id=cp.id, delta=float(delta),
                      eta_sweep=tuple(float(e) for e in sweep), counts_per_eta=(),
                      l=1, stable=True, submersion_ok=bool(ok), witness=witness,
                      decided_by="certificate", certified_radius=cert[0],
                      certified_eta=cert[1])


def _unstable_note(m: MilnorData) -> str:
    """Why the sweep at m's point did not settle: its failed levels among
    the last STABLE_TAIL etas, or else the loop counts there that disagree."""
    pairs = list(zip(m.eta_sweep, m.counts_per_eta, m.level_errors))[-STABLE_TAIL:]
    failed = [f"eta {eta:.6g}: {err}" for eta, _, err in pairs if err is not None]
    if failed:
        return f"fiber sweep unstable at point {m.point_id}: " + "; ".join(failed)
    counts = ", ".join(f"{c[0]} at eta {eta:.6g}" for eta, c, _ in pairs)
    return f"fiber sweep unstable at point {m.point_id}: closed loops {counts} disagree"


def run(v: VectorField, cfg: PipelineConfig = PipelineConfig()) -> PipelineRun:
    """Critical points, then the loop count per point (`_milnor`: a
    certificate, else the fiber sweep), then cycle detection, each once; a
    divergence or index certificate replaces the detection with no cycles.
    Failures are recorded as notes and flags, never raised; so is each point
    the sweep left unstable, with its cause."""
    notes: list[str] = []
    try:
        cps = find_critical_points(v)
    except CritFindError as e:
        msg = f"{type(e).__name__}: {e}"
        notes.append(f"critical point search failed: {msg}")
        return PipelineRun(v, cfg, (), (), (), tuple(notes), critfind_error=msg)

    locs = [(cp.x, cp.y) for cp in cps]
    had_failures = False
    milnor = []
    for i, cp in enumerate(cps):
        try:
            m = _milnor(v, cp, locs[:i] + locs[i + 1:], cfg.fiber)
        except FiberError as e:
            had_failures = True
            notes.append(f"fiber sweep failed at point {cp.id}: {type(e).__name__}: {e}")
            m = _placeholder_milnor(cp.id)
        else:
            if not m.stable:
                notes.append(_unstable_note(m))
        milnor.append(m)

    cycles, certificate, detect_error = _cycles_or_certificate(v, cps, cfg)
    if detect_error is not None:
        had_failures = True
        notes.append(f"cycle detection failed: {detect_error}")

    return PipelineRun(v, cfg, tuple(cps), tuple(milnor), tuple(cycles), tuple(notes),
                       detect_error=detect_error, had_failures=had_failures,
                       no_cycle_certificate=certificate)


def compare(v: VectorField, cfg: PipelineConfig = PipelineConfig()) -> AnalysisReport:
    """Full pipeline on one field; failures downgrade the verdict, never raise."""
    return report_from_run(run(v, cfg))


def report_from_run(r: PipelineRun) -> AnalysisReport:
    """The report of one run: verdict, equality hypothesis and, for each
    detected cycle, the diagnostics against its enclosed points' fibers."""
    v, cfg, cps, milnor, cycles = r.field, r.cfg, r.cps, r.milnor, r.cycles
    notes = list(r.notes)
    bound = r.bound
    if r.critfind_error is not None:
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict = decide_verdict(milnor, len(cycles), bound, r.had_failures)
    failed_at = [m.point_id for m in milnor if not m.submersion_ok]
    milnor_by_id = {m.point_id: m for m in milnor}
    loc_by_id = {cp.id: (cp.x, cp.y) for cp in cps}
    diag = _diagnostics(v, cycles, milnor_by_id, loc_by_id, cfg, notes) if cycles else []
    return AnalysisReport(
        system_name=v.name,
        config_echo=asdict(cfg),
        critical_points=tuple(_cp_summary(cp) for cp in cps),
        milnor=milnor,
        bound=int(bound),
        detected=tuple(_cycle_summary(c) for c in cycles),
        verdict=verdict,
        equality_hypothesis={
            "submersion_ok_all": not failed_at and not r.had_failures,
            "failed_at": [int(i) for i in failed_at],
        },
        diagnostics=tuple(diag),
        timestamp=datetime.now(timezone.utc).isoformat(),
        notes=tuple(notes),
        no_cycle_certificate=r.no_cycle_certificate,
    )


# ---------------------------------------------------------------------------
# morsification


def morsify(v: VectorField, s: float, seed: int) -> VectorField:
    """V + s * (random affine field), coefficients uniform in [-1, 1] from the
    seeded generator; s = 0 returns the input field unchanged."""
    if not 0 <= s < math.inf:
        raise ValueError(f"perturbation size must be finite and nonnegative, got {s}")
    if s == 0:
        return v
    rng = random.Random(seed)
    coef = [Fraction(rng.uniform(-1.0, 1.0)) for _ in range(6)]
    sf = Fraction(float(s))
    pert_p = Poly2({(0, 0): coef[0], (1, 0): coef[1], (0, 1): coef[2]}).scale(sf)
    pert_q = Poly2({(0, 0): coef[3], (1, 0): coef[4], (0, 1): coef[5]}).scale(sf)
    return VectorField(p=v.p + pert_p, q=v.q + pert_q,
                       name=f"{v.name}+{s:g}*affine(seed={seed})", box=v.box)


def morsification_invariance(v: VectorField, s_values, seeds,
                             cfg: PipelineConfig = PipelineConfig()):
    """Table of (s, seed, k, B, detected, changed) rows; row 0 is the base
    field.  'changed' flags any deviation of (k, B, detected) from the base.
    A failed critical point search leaves k, B and detected None, a failed
    detection leaves detected None; 'error' names either.  A perturbed field
    that cannot be built leaves all three None and 'error' names why.  A point
    whose fiber sweep failed counts as unstable."""

    def counts(f) -> dict:
        if isinstance(f, VectorFieldError):
            return {"k": None, "B": None, "detected": None,
                    "error": f"VectorFieldError: {f}"}
        r = run(f, cfg)
        if r.critfind_error is not None:
            return {"k": None, "B": None, "detected": None, "error": r.critfind_error}
        detected = None if r.detect_error is not None else len(r.cycles)
        return {"k": len(r.cps), "B": int(r.bound), "detected": detected,
                "error": r.detect_error}

    jobs = [(0.0, None, v)]
    for s in s_values:
        for seed in seeds:
            try:
                f = morsify(v, s, seed)
            except VectorFieldError as e:  # e.g. a coefficient beyond the float range
                f = e
            jobs.append((float(s), int(seed), f))
    results = [counts(f) for _, _, f in jobs]
    base = results[0]
    rows = []
    for (s, seed, _), res in zip(jobs, results):
        changed = (res["k"] != base["k"] or res["B"] != base["B"]
                   or res["detected"] != base["detected"])
        rows.append({"s": s, "seed": seed, "k": res["k"], "B": res["B"],
                     "detected": res["detected"], "changed": bool(changed),
                     "error": res["error"]})
    return rows


# ---------------------------------------------------------------------------
# serialization


def _tuples(x):
    """JSON arrays back to tuples, at every depth."""
    return tuple(_tuples(e) for e in x) if isinstance(x, list) else x


def report_to_dict(r: AnalysisReport) -> dict:
    return asdict(r)


def report_from_dict(d: dict) -> AnalysisReport:
    """Inverse of report_to_dict on a JSON-loaded document; a missing or
    unknown key raises."""
    milnor = tuple(MilnorData(**{k: _tuples(x) for k, x in m.items()}) for m in d["milnor"])
    seqs = {k: tuple(d[k]) for k in ("critical_points", "detected", "diagnostics", "notes")}
    return AnalysisReport(**{**d, **seqs, "milnor": milnor})


def report_to_json(r: AnalysisReport) -> str:
    return json.dumps(report_to_dict(r), indent=2, sort_keys=True, allow_nan=False)


def report_from_json(text: str) -> AnalysisReport:
    return report_from_dict(json.loads(text))


__all__ = [
    "AnalysisReport",
    "PipelineConfig",
    "PipelineRun",
    "VERDICT_HOLDS",
    "VERDICT_INCONCLUSIVE",
    "VERDICT_VIOLATED",
    "compare",
    "decide_verdict",
    "morsification_invariance",
    "morsify",
    "report_from_dict",
    "report_from_json",
    "report_from_run",
    "report_to_dict",
    "report_to_json",
    "run",
]
