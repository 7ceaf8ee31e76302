"""The checks in `typesys` and `srcsets` take the runs the harness
enumerates; only the entry points may depend on the harness.  Every
module states its dependencies at its top, none inside a function."""

import ast
import pathlib

import hopad

PACKAGE = pathlib.Path(hopad.__file__).parent


def imports_harness(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("harness", "hopad.harness") or (
                module in ("", "hopad") and any(a.name == "harness" for a in node.names)
            ):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "hopad.harness" for a in node.names):
                return True
    return False


def test_only_the_entry_points_import_the_harness():
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if path.name != "harness.py" and imports_harness(ast.parse(path.read_text()))
    }
    assert importers <= {"cli.py", "__init__.py"}, sorted(importers)


def function_local_imports(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_no_module_imports_inside_a_function():
    found = {
        path.name: lines
        for path in PACKAGE.glob("*.py")
        if (lines := function_local_imports(ast.parse(path.read_text())))
    }
    assert not found, found
