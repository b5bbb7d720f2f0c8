"""The package imports only these standard library modules at module
level.  Every start of the CLI pays for each one, so a new module-level
import is a start-up cost and is added here on purpose or not at all.
Every name a module lists in __all__ is bound at its top level.  The
checks read the sources with ast, so they give the same answer on
every Python version and import nothing."""

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


def _top_level_bindings(tree: ast.Module) -> set[str]:
    # names bound by the module's own def, class, assignment and import
    # statements
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _dunder_all(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def test_every_all_entry_is_bound_at_top_level():
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = _dunder_all(tree)
        if exported is None:
            continue
        assert len(set(exported)) == len(exported), path.name
        missing = set(exported) - _top_level_bindings(tree)
        assert not missing, f"{path.name}: {sorted(missing)}"
        checked += 1
    assert checked >= 7
