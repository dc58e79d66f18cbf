"""Loop-count bounds for limit cycles of planar polynomial vector fields.

The library computes, for each equilibrium of a polynomial field V, the number
of closed loops of the local level curves ||V - V(p)|| = eta, sums them into
an upper bound B, detects actual limit cycles numerically, and compares the
two sides.
"""

from .analysis import (
    AnalysisReport,
    PipelineConfig,
    PipelineRun,
    compare,
    decide_verdict,
    morsification_invariance,
    morsify,
    report_from_json,
    report_from_run,
    report_to_json,
    run,
)
from .certify import no_cycle_certificate
from .critfind import CriticalPoint, find_critical_points, poincare_index
from .cycledetect import (
    DetectConfig,
    LimitCycle,
    cycle_class_map,
    detect_limit_cycles,
    enclosure_matrix,
    fiber_residence,
    hausdorff_distance,
    winding_number,
)
from .milnorfiber import (
    Component,
    FiberConfig,
    FiberCurve,
    MilnorData,
    betti,
    extract_fiber,
    select_radii,
    submersion_check,
    vanishing_cycle_count,
)
from .odeflow import Trajectory, integrate
from .polyalg import Box, Poly2, VectorField, load_vf, parse_poly, parse_vf

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Box",
    "Component",
    "CriticalPoint",
    "DetectConfig",
    "FiberConfig",
    "FiberCurve",
    "LimitCycle",
    "MilnorData",
    "PipelineConfig",
    "PipelineRun",
    "Poly2",
    "Trajectory",
    "VectorField",
    "betti",
    "compare",
    "cycle_class_map",
    "decide_verdict",
    "detect_limit_cycles",
    "enclosure_matrix",
    "extract_fiber",
    "fiber_residence",
    "find_critical_points",
    "hausdorff_distance",
    "integrate",
    "load_vf",
    "morsification_invariance",
    "morsify",
    "no_cycle_certificate",
    "parse_poly",
    "parse_vf",
    "poincare_index",
    "report_from_json",
    "report_from_run",
    "report_to_json",
    "run",
    "select_radii",
    "submersion_check",
    "vanishing_cycle_count",
    "winding_number",
    "__version__",
]
