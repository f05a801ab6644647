"""Every top-level function and class in src/cmfamilies is reached from a
program entry point, and so is every name in an __all__.

The entry points are cli.main, the package names that scripts/*.py and the
benchmark's session and workloads use, and the names in the benchmark
tracer's TARGETS and CYCLOTOMIC_METHODS.  From there the walk follows name
references through the source, read with the stdlib ast module: bare names,
names imported from a package module, and attributes of an imported package
module.  A class is one node, so reaching it reaches every method.  A
definition that no entry point reaches is dead: delete it, or move it into
the test that uses it as a reference.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "cmfamilies"
USERS = [*sorted((ROOT / "scripts").glob("*.py")),
         ROOT / "perfbench" / "session.py", ROOT / "perfbench" / "workloads.py"]
TRACER = ROOT / "perfbench" / "tracer.py"
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


TREES = {_module(p): (p, ast.parse(p.read_text()))
         for p in sorted((ROOT / "src" / PACKAGE).rglob("*.py"))}


def _imports(tree: ast.Module, base: str = "") -> dict:
    """Local name -> a package module's name (str), or the (module, name) it
    imports; base is the package that relative imports start from."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level:
            prefix = base.rsplit(".", node.level - 1)[0]
            source = f"{prefix}.{node.module}" if node.module else prefix
        if source.split(".")[0] == PACKAGE:
            for alias in node.names:
                sub = f"{source}.{alias.name}"
                out[alias.asname or alias.name] = sub if sub in TREES else (source, alias.name)
    return out


def _definitions(tree: ast.Module) -> dict:
    """Top-level name -> the statements that bind it: defs, classes, assignments."""
    out: dict = {}
    for node in tree.body:
        if isinstance(node, DEFINITION):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            out.setdefault(name, []).append(node)
    return out


DEFS = {mod: _definitions(tree) for mod, (_, tree) in TREES.items()}
IMPORTS = {mod: _imports(tree, mod if path.name == "__init__.py" else mod.rpartition(".")[0])
           for mod, (path, tree) in TREES.items()}


def _resolve(module: str, name: str):
    """(module, name) of the definition that name means in module, or None."""
    while name not in DEFS.get(module, {}):
        target = IMPORTS.get(module, {}).get(name)
        if not isinstance(target, tuple):
            return None
        module, name = target
    return module, name


def _references(nodes, module: str) -> set:
    """The package definitions that the names in nodes, read in module, mean."""
    out = set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name):
            out.add(_resolve(module, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            alias = IMPORTS[module].get(sub.value.id)
            if isinstance(alias, str):
                out.add(_resolve(alias, sub.attr))
    return out - {None}


def _entry_points() -> set:
    roots = {_resolve(f"{PACKAGE}.cli", "main"), _resolve(f"{PACKAGE}.exact", "Cyclotomic")}
    for path in USERS:
        tree = ast.parse(path.read_text())
        IMPORTS[str(path)] = _imports(tree)
        roots |= _references([tree], str(path))
    tracer = {node.targets[0].id: node.value for node in ast.parse(TRACER.read_text()).body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    assert "CYCLOTOMIC_METHODS" in tracer  # the tracer wraps Cyclotomic's arithmetic
    for module, attr, *_ in ast.literal_eval(tracer["TARGETS"]):
        roots.add(_resolve(f"{PACKAGE}.{module}", attr))
    assert None not in roots, "an entry point names no package definition"
    return roots


def _reached() -> set:
    seen, stack = set(), list(_entry_points())
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            stack.extend(_references(DEFS[key[0]][key[1]], key[0]))
    return seen


def test_every_definition_is_reached():
    reached = _reached()
    dead = [f"{module}.{node.name}" for module, (_, tree) in TREES.items() for node in tree.body
            if isinstance(node, DEFINITION) and node.name[:2] + node.name[-2:] != "____"
            and (module, node.name) not in reached]
    assert not dead, f"no program path reaches: {', '.join(dead)}"


def test_every_exported_name_is_reached():
    reached = _reached()
    unreached = [f"{module}.{name}" for module, defs in DEFS.items()
                 for node in defs.get("__all__", []) for name in ast.literal_eval(node.value)
                 if _resolve(module, name) not in reached]
    assert not unreached, f"__all__ names that no program path reaches: {', '.join(unreached)}"
