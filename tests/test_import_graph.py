"""The package's intra-module imports, read from the source with ``ast``."""

import ast
from pathlib import Path

import kraussim

PACKAGE = Path(kraussim.__file__).parent

# module -> (modules imported at module level, modules imported inside a
# function); ``cli`` and ``__init__`` sit on top and may import any module
INTENDED = {
    "numerics": (set(), set()),
    "channels": ({"numerics"}, set()),
    "dilation": ({"channels", "numerics"}, set()),
    "qsp": ({"numerics"}, set()),
    "simulator": ({"numerics", "qsp"}, set()),
    "tomography": ({"numerics", "qsp"}, set()),
}


def sibling_modules(node):
    """Package modules named by one import statement, relative or absolute."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module:
            return {node.module.split(".")[0]}
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module == "kraussim":
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return set()
    return {name.split(".")[1] for name in names if name.startswith("kraussim.")}


def package_imports(module):
    """(module-level, deferred) sets of the package modules ``module`` imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    top_level = set(tree.body)
    found = (set(), set())
    for node in ast.walk(tree):
        found[node not in top_level].update(sibling_modules(node))
    return found


def test_every_module_has_an_intended_place():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(INTENDED) | {"cli", "__init__"}


def test_library_modules_import_only_their_intended_layers():
    actual = {module: package_imports(module) for module in INTENDED}
    assert actual == INTENDED
