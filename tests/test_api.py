"""Every name listed in an __all__ of cyclebound or its modules exists and
has a caller, every private helper of the package is read in it, and every
configuration field is named by a caller that sets or reads it."""

import ast
import dataclasses
import importlib
import pathlib
import pkgutil
import re

import pytest

import cyclebound

MODULES = ["cyclebound"] + [f"cyclebound.{m.name}"
                            for m in pkgutil.iter_modules(cyclebound.__path__)]
ROOT = pathlib.Path(__file__).resolve().parent.parent
# files outside the package whose uses of the public names count as callers
USERS = ("tests/test_acceptance.py", "perfbench/run.py")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    mod = importlib.import_module(name)
    assert [a for a in getattr(mod, "__all__", ()) if not hasattr(mod, a)] == []


def _references(path: pathlib.Path) -> set[str]:
    """Names read in one Python file, bare or as attributes.  A def or class
    line, an assignment, an import list or an __all__ string is not a read."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
    return refs


def test_public_names_have_a_caller():
    sources = sorted((ROOT / "src" / "cyclebound").glob("*.py"))
    refs = set().union(*(_references(p) for p in sources + [ROOT / u for u in USERS]))
    refs |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    # dunders such as __version__ are metadata read by tools, not functions
    public = {a for name in MODULES
              for a in getattr(importlib.import_module(name), "__all__", ())
              if not a.startswith("__")}
    assert sorted(public - refs) == []


def test_config_fields_have_a_caller():
    """Each field of the config dataclasses is named in the CLI, which sets
    it from an option, or in the benchmark; a value that neither names
    belongs in a constant of the module that reads it."""
    words = set().union(*(re.findall(r"\w+", (ROOT / f).read_text(encoding="utf-8"))
                          for f in ("src/cyclebound/cli.py", "perfbench/run.py")))
    fields = {f.name for cls in (cyclebound.PipelineConfig, cyclebound.FiberConfig,
                                 cyclebound.DetectConfig) for f in dataclasses.fields(cls)}
    assert sorted(fields - words) == []


def _assigned(node) -> list[str]:
    """Names bound by a module-level assignment, tuple targets included."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_private_names_are_read():
    """A private function, class or method, or a private module-level
    constant (a _name, not a dunder), defined in the package is read
    somewhere in the package; one that nothing reads is left over from a
    deletion."""
    sources = sorted((ROOT / "src" / "cyclebound").glob("*.py"))
    refs = set().union(*(_references(p) for p in sources))
    defined = set()
    for p in sources:
        tree = ast.parse(p.read_text(encoding="utf-8"))
        defined |= {(p.name, node.name) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        defined |= {(p.name, name) for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign)) for name in _assigned(node)}
    private = {(f, name) for f, name in defined if name.startswith("_")
               and not (name.startswith("__") and name.endswith("__"))}
    assert sorted(f"{f}:{name}" for f, name in private if name not in refs) == []


# critfind's and polyalg's interval primitives, besides every ia_* operation;
# newton_certifies is the name critfind's Newton test had before certified_index
INTERVAL_PRIMITIVES = {"IntervalBoxes", "certified_index", "circle_covers", "field_enclosure",
                       "interval_eval", "interval_jacobian", "mean_value_enclosure",
                       "newton_certifies", "regular"}
INTERVAL_LAYERS = {"polyalg.py", "critfind.py", "certify.py"}


def _imported_or_read(path: pathlib.Path) -> list[str]:
    """Names one Python file imports from a module or reads as an attribute."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def test_interval_primitives_stay_in_their_layers():
    """Only polyalg, critfind and certify import an interval primitive or
    read one as an attribute; the other modules use interval arithmetic
    only through the certificates of `certify`."""
    found = [f"{p.name}: {n}" for p in sorted((ROOT / "src" / "cyclebound").glob("*.py"))
             if p.name not in INTERVAL_LAYERS for n in _imported_or_read(p)
             if n in INTERVAL_PRIMITIVES or n.startswith("ia_")]
    assert found == []


def test_newton_test_stays_in_critfind():
    """Only critfind imports or reads its one-box interval-Newton test: it
    runs once per zero there, and `CriticalPoint.certified` records the
    result that the certificates read."""
    found = [f"{p.name}: {n}" for p in sorted((ROOT / "src" / "cyclebound").glob("*.py"))
             if p.name != "critfind.py" for n in _imported_or_read(p)
             if n in ("certified_index", "_certified_index")]
    assert found == []


def test_one_grid_evaluator():
    """No module calls numpy's polyval2d: `Poly2.eval_grid` gives its floats
    bit for bit and skips each column's structural zeros, and
    tests/oracles.py keeps it as the reference."""
    found = [f"{p.name}: {n}" for p in sorted((ROOT / "src" / "cyclebound").glob("*.py"))
             for n in _imported_or_read(p) if n == "polyval2d"]
    assert found == []


def test_one_crossing_solver():
    """Only cycledetect imports or reads `odeflow.hermite_roots`, and odeflow
    does not call it: `cycledetect._solve_rows` solves every section
    crossing, scouting's and the isolation probe's."""
    src = ROOT / "src" / "cyclebound"
    found = [f"{p.name}: {n}" for p in sorted(src.glob("*.py"))
             if p.name != "cycledetect.py" for n in _imported_or_read(p) if n == "hermite_roots"]
    assert found == []
    assert "hermite_roots" in _imported_or_read(src / "cycledetect.py")
    tree = ast.parse((src / "odeflow.py").read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.Name) and node.id == "hermite_roots"
                   for node in ast.walk(tree))
