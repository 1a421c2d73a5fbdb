"""Every exported name is bound in its own module and has a caller outside
the tests, and every imported name has a use.

A name in an icdkit module's ``__all__`` must be defined or imported at
the top level of that module, so a name moved to another module cannot
stay listed where it was. It must also be referenced somewhere in
``src/``, ``bench/`` or ``demos/`` besides its own definition and its
``__all__`` entry. Re-exports in ``icdkit/__init__.py`` do not count as
callers, and neither do the tests, so API that only its own tests call
fails here. A name an icdkit module imports must be read in that module
or listed in its ``__all__``; no linter is assumed installed, so this
check stands in for one. No icdkit module imports, or reads through an
attribute, a numpy or scipy module or name that starts with an
underscore: those are private, and may change or vanish in any release.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "icdkit"


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _referenced(tree):
    """Names loaded, attributes read and names imported; definitions and
    the string entries of __all__ are none of these."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def _bound(tree):
    """Names a module's top level defines, assigns or imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def test_every_exported_name_is_bound_in_its_module():
    unbound = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = _bound(tree)
        unbound += [f"{path.stem}.{name}" for name in _exported(tree) if name not in bound]
    assert unbound == []


def test_every_exported_name_has_a_caller_outside_the_tests():
    sources = [p for d in ("src", "bench", "demos") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(), str(p)) for p in sources}
    referenced = set().union(
        *(_referenced(t) for p, t in trees.items() if p != PACKAGE / "__init__.py")
    )
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in _exported(tree)
        if name not in referenced
    ]
    assert unused == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = set(_exported(tree)) | {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.stem}: {alias.name}")
    assert unused == []


NUMERIC = ("numpy", "scipy")


def _private_numeric(tree):
    """Dotted numpy or scipy paths that the module imports or reads and
    that have a part starting with an underscore."""
    modules = {}  # local name -> the numpy or scipy path it is bound to
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import scipy.sparse" binds scipy; "import scipy.sparse as sp" binds sp
            imports = [(a.name, a.asname, a.name if a.asname else a.name.split(".")[0])
                       for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imports = [(f"{node.module}.{a.name}", a.asname or a.name, f"{node.module}.{a.name}")
                       for a in node.names]
        else:
            continue
        for imported, local, bound in imports:
            if imported.split(".")[0] in NUMERIC:
                modules[local or bound] = bound
                if any(part.startswith("_") for part in imported.split(".")):
                    found.add(imported)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            if any(part.startswith("_") for part in chain):
                found.add(".".join([modules[node.id], *chain]))
    return found


def test_no_private_numpy_or_scipy_name_is_used():
    private = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        private += [f"{path.stem}: {name}" for name in sorted(_private_numeric(tree))]
    assert private == []
