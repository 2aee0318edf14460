"""Every name that a module of the package imports is used in that module,
and every function and class that it defines is used somewhere."""

import ast
import importlib.util
from pathlib import Path

import pytest

import kahan_aromas

MODULES = sorted(p for p in Path(kahan_aromas.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used) == []


ROOT = Path(__file__).resolve().parent.parent
OTHER_FILES = sorted(p for d in ("scripts", "tests", "perfbench") for p in (ROOT / d).glob("*.py"))


def _identifiers(node) -> set[str]:
    """The names and attribute names that the node reads or binds."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_definition_is_referenced():
    """Every module-level function and class of the package is named
    somewhere besides its own definition and __init__.py: in the package,
    the scripts, the tests or the benchmark."""
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    elsewhere = set()
    for path in OTHER_FILES:
        elsewhere |= _identifiers(ast.parse(path.read_text()))
    package = {path: [(stmt, _identifiers(stmt)) for stmt in tree.body] for path, tree in trees.items()}
    unreferenced = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in elsewhere or any(
                node.name in names for stmts in package.values() for stmt, names in stmts if stmt is not node
            ):
                continue
            unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreferenced == []


def test_only_poly_knows_the_packed_layout():
    """No module of the package but poly names the packed-key layout
    (`_BITS`, `_MASK`) or the packable-degree error (`_overflow`)."""
    layout = {"_BITS", "_MASK", "_overflow"}
    named = []
    for path in sorted(Path(kahan_aromas.__file__).parent.glob("*.py")):
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text())
        names = _identifiers(tree) | {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
        }
        named += [f"{path.name} {name}" for name in sorted(names & layout)]
    assert named == []


def test_only_main_maps_a_solver_error_to_an_exit_code():
    """No command body of the CLI catches a SolverError: `main` turns it
    into exit 1 (and a ValueError into exit 2) for every command."""
    tree = ast.parse((Path(kahan_aromas.__file__).parent / "cli.py").read_text())
    caught = [
        f"{node.name}:{handler.lineno}"
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
        for handler in ast.walk(node)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        and "SolverError" in _identifiers(handler.type)
    ]
    assert caught == []


def test_every_benchmark_hook_resolves_and_reads_real_data():
    """The benchmark's trace (perfbench/tracing.py) wraps public names where
    their callers look them up and only reports a name that is gone; each
    must resolve, and the hooks that read results must read real data."""
    from kahan_aromas.corpus import lv_divfree
    from kahan_aromas.poly import Polynomial
    from kahan_aromas.solver import build_basis

    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        field = lv_divfree()
        kahan_aromas.solver.build_basis(field, 2, parity="even")
        field.kahan_map().darboux_defect_cleared(Polynomial.variable(field.nvars, 0) ** 2)
        assert tracer.counters["solver.basis_kept"] > 0
        assert tracer.peaks["fields.subs_cache.terms"] > 0
    finally:
        tracer.uninstall()
    assert kahan_aromas.solver.build_basis is build_basis
