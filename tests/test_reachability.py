"""Every top-level function and class in src/cmfamilies is reached from a
program entry point, and so is every name in an __all__.

The entry points are cli.main, the package names that the benchmark's
session and workloads use, and the names in the benchmark tracer's TARGETS
and CYCLOTOMIC_METHODS.  From there the walk follows name
references through the source, read with the stdlib ast module: bare names,
names imported from a package module, and attributes of an imported package
module.  A definition that no entry point reaches is dead: delete it, or move
it into the test that uses it as a reference.

The walk sees a class as one node.  Its members (methods, properties and
dataclass fields) are checked by name instead: a member is reached when its
name appears in a program file as an attribute, a keyword or a string
constant.  The program files are the package and the benchmark's session,
workloads and tracer.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "cmfamilies"
USERS = [ROOT / "perfbench" / "session.py", ROOT / "perfbench" / "workloads.py"]
TRACER = ROOT / "perfbench" / "tracer.py"
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dunder(name: str) -> bool:
    return name[:2] + name[-2:] == "____"


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


def _bound_names(node) -> list:
    """The names a def, class or assignment statement binds; [] for any other."""
    if isinstance(node, DEFINITION):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _definitions(tree: ast.Module) -> dict:
    """Top-level name -> the statements that bind it: defs, classes, assignments."""
    out: dict = {}
    for node in tree.body:
        for name in _bound_names(node):
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
            if isinstance(node, DEFINITION) and not _dunder(node.name)
            and (module, node.name) not in reached]
    assert not dead, f"no program path reaches: {', '.join(dead)}"


def test_every_exported_name_is_reached():
    reached = _reached()
    unreached = [f"{module}.{name}" for module, defs in DEFS.items()
                 for node in defs.get("__all__", []) for name in ast.literal_eval(node.value)
                 if _resolve(module, name) not in reached]
    assert not unreached, f"__all__ names that no program path reaches: {', '.join(unreached)}"


def _used_names(paths) -> set:
    """Every name the files use as an attribute, a keyword or a string constant."""
    out = set()
    for node in (n for path in paths for n in ast.walk(ast.parse(path.read_text()))):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            out.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


USED = _used_names([path for path, _ in TREES.values()] + USERS + [TRACER])


def _unreached_members(trees: dict) -> list:
    """module.Class.member for every method, property and field of a top-level
    class whose name no program file uses."""
    return [f"{module}.{cls.name}.{name}" for module, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body for name in _bound_names(node)
            if not _dunder(name) and name not in USED]


def test_every_class_member_is_reached():
    unreached = _unreached_members({module: tree for module, (_, tree) in TREES.items()})
    assert not unreached, f"no program file uses: {', '.join(unreached)}"


def test_an_unused_member_is_found():
    """A method planted in a package class, and used nowhere, is reported."""
    path, _ = TREES[f"{PACKAGE}.families"]
    tree = ast.parse(path.read_text())
    family = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Family")
    family.body += ast.parse("def planted_unused(self):\n    return 0\n").body
    assert _unreached_members({"families": tree}) == ["families.Family.planted_unused"]
