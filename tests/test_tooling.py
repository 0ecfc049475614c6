"""Source-level rules for the package."""

import ast
from pathlib import Path

import hsplab

PACKAGE = Path(hsplab.__file__).parent


def _name(path: Path) -> str:
    """A source file's path within the package, as the failures name it."""
    return path.relative_to(PACKAGE).as_posix()


def _module(path: Path) -> str:
    """The dotted name of the module in the package's source file `path`."""
    parts = ["hsplab", *path.relative_to(PACKAGE).with_suffix("").parts]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_no_assert_statements_in_the_package():
    # invariants raise; they do not assert, so they still run under python -O
    found = [
        f"{_name(path)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(PACKAGE.rglob("*.py")) and not found, found


# The modules on the import path of an analytic job (a catalog `analyze` or
# `sweep`).  What only other jobs need is imported inside the functions that
# use it, so these jobs never load numpy, the group layer, the `check` suites,
# the library-only paper checks or OpenSSL.
_ANALYTIC_PATH = (
    "cli", "commands", "commands.analyze", "commands.sweep",
    "lab", "qfs", "characters", "profile", "radical", "errors",
)
_OFF_THE_PATH = {
    "numpy", "perm", "coset", "_kernels", "groups", "checks", "paper", "csv", "random", "hashlib"
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
        path = PACKAGE.joinpath(*name.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for module in _runtime_imports(tree.body):
            if module.removeprefix("hsplab.").split(".")[0] in _OFF_THE_PATH:
                found.append(f"{name}: {module}")
    assert not found, found


def _absolute_imports(path: Path):
    """(line, module) of every import anywhere in the source file `path`,
    relative ones resolved: both `from X import y` and the module X.y."""
    package = _module(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, target
            yield from ((node.lineno, f"{target}.{alias.name}") for alias in node.names)


def test_no_module_imports_the_cli():
    # under `python -m hsplab.cli` the CLI module runs as __main__, so an
    # import of hsplab.cli would compile and run it a second time
    found = [
        f"{_name(path)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, module in _absolute_imports(path)
        if module == "hsplab.cli"
    ]
    assert not found, found


def _imports_outside_import_error_handlers(node):
    """Modules imported anywhere under `node`, except inside an `except
    ImportError:` handler (a fallback for a missing module)."""
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom) and node.module:
        yield node.module
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler) and isinstance(child.type, ast.Name) and (
            child.type.id == "ImportError"
        ):
            continue
        yield from _imports_outside_import_error_handlers(child)


def test_no_module_imports_hashlib():
    # digests come from CPython's built-in sha256 module; hashlib, which loads
    # OpenSSL, is only the fallback for an interpreter built without it
    found = [
        _name(path)
        for path in sorted(PACKAGE.rglob("*.py"))
        if "hashlib" in _imports_outside_import_error_handlers(
            ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert not found, found


# Functions that nothing in the package reads, kept on purpose: the
# namedtuple protocol, the check of a census that comes from outside the
# program, the tests' cache reset, and the cache counters that the benchmark
# reads.
_UNREAD_BY_DESIGN = {
    "ClassProfile._make",
    "ClassProfile.validate",
    "clear_character_cache",
    "character_cache_info",
}


def _functions(node, prefix=""):
    """(qualified name, node) of every function and method under `node`,
    nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def _loaded_name(node):
    """The identifier that `node` reads: a name, an attribute, or a string
    that is an identifier (as the `_EXPORTS` table names its functions)."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        return node.value
    return None


def test_every_function_in_the_package_is_read_by_the_package():
    # what only the tests call belongs in the tests, or nowhere
    functions, loads = [], {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions += [(path, name, fn) for name, fn in _functions(tree)]
        for node in ast.walk(tree):
            name = _loaded_name(node)
            if name is not None:
                loads.setdefault(name, []).append((path, node.lineno))
    unread = [
        f"{_name(path)}:{qualname}"
        for path, qualname, fn in functions
        if not (fn.name.startswith("__") and fn.name.endswith("__"))
        and qualname not in _UNREAD_BY_DESIGN
        and all(  # every load of the name is inside the function itself
            where == path and fn.lineno <= line <= fn.end_lineno
            for where, line in loads.get(fn.name, [])
        )
    ]
    assert functions and not unread, unread
