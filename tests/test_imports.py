"""The package imports only these standard library modules at module
level.  Every start of the CLI pays for each one, so a new module-level
import is a start-up cost and is added here on purpose or not at all.
The check reads the sources with ast, so it gives the same answer on
every Python version and imports nothing."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "resnil"

STDLIB = {
    "__future__",
    "argparse",
    "ast",
    "dataclasses",
    "enum",
    "functools",
    "itertools",
    "json",
    "math",
    "operator",
    "random",
    "sys",
    "typing",
}


def _module_level_imports(path: pathlib.Path) -> set[str]:
    # absolute imports among the module's own statements; relative
    # imports name the package itself
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_module_level_imports_are_the_known_stdlib_set():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = set().union(*map(_module_level_imports, paths))
    assert found == STDLIB
