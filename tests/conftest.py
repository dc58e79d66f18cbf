import pathlib
import time

import pytest

import cyclebound as cb
from cyclebound.analysis import report_from_run, run

SYSTEMS_DIR = pathlib.Path(__file__).resolve().parent.parent / "systems"
CORPUS = [
    "cubic-one-cycle",
    "van-der-pol",
    "linear-center",
    "two-cycle",
    "degenerate-demo",
]


@pytest.fixture(scope="session")
def corpus():
    return {name: cb.load_vf(SYSTEMS_DIR / f"{name}.vf") for name in CORPUS}


@pytest.fixture(scope="session")
def corpus_runs(corpus):
    """One pipeline run per system with its report, plus the wall time of
    both together."""
    out = {}
    for name, v in corpus.items():
        t0 = time.perf_counter()
        r = run(v)
        rep = report_from_run(r)
        out[name] = (r, rep, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def corpus_cps(corpus_runs):
    return {name: list(r.cps) for name, (r, _, _) in corpus_runs.items()}


@pytest.fixture(scope="session")
def corpus_cycles(corpus_runs):
    return {name: list(r.cycles) for name, (r, _, _) in corpus_runs.items()}


@pytest.fixture(scope="session")
def vdp_period():
    from oracles import vdp_period_reference

    return vdp_period_reference()


@pytest.fixture(scope="session")
def corpus_reports(corpus_runs):
    """Full pipeline reports plus the wall time of run and report."""
    return {name: (rep, wall) for name, (_, rep, wall) in corpus_runs.items()}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    rows = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                tail = nodeid.split("test_criterion_", 1)[1]
                num = int(tail.split("_", 1)[0])
                label = "PASS" if status == "passed" else "FAIL"
                rows[num] = (label, tail.split("_", 1)[1] if "_" in tail else "")
    if rows:
        terminalreporter.write_sep("=", "acceptance criteria")
        for num in sorted(rows):
            label, name = rows[num]
            terminalreporter.write_line(
                f"criterion {num:2d} [{name.replace('_', ' ')}]: {label}")
