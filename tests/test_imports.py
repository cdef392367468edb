"""Every import of the package sits at module level, where it runs once."""

import ast
import pathlib

import weylblocks


def test_no_imports_inside_functions():
    root = pathlib.Path(weylblocks.__file__).parent
    modules = sorted(root.rglob("*.py"))
    found = set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                found.update(f"{path.name}:{node.lineno}"
                             for node in ast.walk(fn)
                             if isinstance(node, (ast.Import,
                                                  ast.ImportFrom)))
    assert len(modules) >= 10
    assert not found, sorted(found)
