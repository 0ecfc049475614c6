"""Source-level rules for the package."""

import ast
from pathlib import Path

import hsplab

PACKAGE = Path(hsplab.__file__).parent


def test_no_assert_statements_in_the_package():
    # invariants raise; they do not assert, so they still run under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(PACKAGE.glob("*.py")) and not found, found


# The modules on the import path of an analytic job (a catalog `analyze` or
# `sweep`).  What only other jobs need is imported inside the functions that
# use it, so these jobs never load numpy, the group layer, the library-only
# checks or OpenSSL.
_ANALYTIC_PATH = ("cli", "lab", "qfs", "characters", "profile", "radical", "errors")
_OFF_THE_PATH = {
    "numpy", "perm", "coset", "_kernels", "groups", "checks", "csv", "random", "hashlib"
}


def _runtime_imports(body: list):
    """Modules imported when a module body runs: its top-level imports, also
    those inside `if` and `try`, but not those under `if TYPE_CHECKING:`."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import x
                yield from (alias.name for alias in node.names)
            else:
                yield node.module
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                yield from _runtime_imports(node.body)
            yield from _runtime_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody, *(h.body for h in node.handlers)):
                yield from _runtime_imports(block)


def test_the_analytic_import_path_loads_nothing_it_does_not_run():
    found = []
    for name in _ANALYTIC_PATH:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for module in _runtime_imports(tree.body):
            if module.removeprefix("hsplab.").split(".")[0] in _OFF_THE_PATH:
                found.append(f"{name}: {module}")
    assert not found, found
