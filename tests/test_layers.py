"""The two import layers: a query loads the query layer only.

Each query is a fresh process, so whatever `import cmfamilies.cli` loads is
paid on every answer.  verify (the theorem suites) and fixtures (their
tables) belong to `cmfamilies verify` alone: cli imports verify inside
cmd_verify, and only verify imports fixtures.
"""
import ast
import subprocess
import sys
from pathlib import Path

import cmfamilies

SRC = Path(cmfamilies.__file__).resolve().parent.parent
PACKAGE = SRC / "cmfamilies"
VERIFY_LAYER = ("cmfamilies.verify", "cmfamilies.fixtures")


def _module(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """(module imported, enclosing function or None) for every import
    statement in path, relative imports resolved; a from-import also names
    each imported name as a possible submodule."""
    name = _module(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                found.extend((alias.name, func) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                base = package.rsplit(".", child.level - 1)[0] if child.level else ""
                source = ".".join(p for p in (base, child.module) if p)
                found.append((source, func))
                found.extend((f"{source}.{alias.name}", func) for alias in child.names)
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def _importers(target: str) -> set:
    """(importing module, enclosing function or None) for every import of
    target (or of a submodule of it) in a package module other than target."""
    return {(_module(p), func)
            for p in sorted(PACKAGE.rglob("*.py")) if _module(p) != target
            for source, func in _imports(p)
            if source == target or source.startswith(target + ".")}


def test_verify_is_imported_only_inside_cmd_verify():
    assert _importers("cmfamilies.verify") == {("cmfamilies.cli", "cmd_verify")}


def test_fixtures_is_imported_only_by_verify():
    assert {module for module, _ in _importers("cmfamilies.fixtures")} == {"cmfamilies.verify"}


QUERIES = [
    ["families", "--type", "B", "--n", "4", "--c1", "1", "--kappa", "1", "--method", "both"],
    ["cuspidal", "--type", "D", "--n", "4", "--kappa", "1"],
    ["rigid", "--type", "B", "--n", "3", "--c1", "1", "--kappa", "1", "--mode", "oracle"],
    ["leaves", "--type", "B", "--n", "6", "--c1", "1", "--kappa", "1"],
    ["symbols", "--type", "B", "--c1", "1", "--kappa", "1", "--bp", "[2,1|1]", "--enn", "3"],
]


def test_queries_leave_the_verify_layer_unloaded():
    """One interpreter answers a query of each kind through cli.main with
    neither verify module loaded, then `verify --suite 5` loads both and
    prints its usual line."""
    code = f"""
import contextlib, io, sys
sys.path.insert(0, {str(SRC)!r})
from cmfamilies import cli
layer = {VERIFY_LAYER!r}
for argv in {QUERIES!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    print(sorted(set(layer) & set(sys.modules)))
assert cli.main(["verify", "--suite", "5"]) == 0
print(sorted(set(layer) & set(sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:len(QUERIES)] == ["[]"] * len(QUERIES)
    assert lines[len(QUERIES):] == ["[PASS] 5 dihedral j-induction: 120 checks",
                                    str(sorted(VERIFY_LAYER))]
