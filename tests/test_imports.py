"""Every import of the package sits at module level, where it runs once,
is read in its module, and every definition in it is used somewhere."""

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


def test_every_import_is_read():
    """Every name a module of the package imports at module level is read
    in that module; the package's ``__init__`` re-exports are exempt."""
    root = pathlib.Path(weylblocks.__file__).parent
    unread = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for top in tree.body
                    if isinstance(top, (ast.Import, ast.ImportFrom))
                    and getattr(top, "module", None) != "__future__"
                    for alias in top.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unread.extend(f"{path.name}:{name}" for name in imported - read)
    assert not unread, sorted(unread)


def _read(node) -> set:
    """The names, attributes and imported names read under ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, (ast.Attribute, ast.alias)):
            out.add(n.attr if isinstance(n, ast.Attribute) else n.name)
    return out


def test_every_definition_is_referenced():
    """Every top-level function or class of the package is named outside
    its own definition somewhere in src, tests or perfbench, and every
    method other than a dunder is read as an attribute somewhere."""
    root = pathlib.Path(__file__).parents[1]
    package = root / "src" / "weylblocks"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for d in ("src", "tests", "perfbench")
             for path in sorted((root / d).rglob("*.py"))}
    # per file, the names read by each top-level statement
    reads = {path: [(getattr(top, "name", None), _read(top))
                    for top in tree.body] for path, tree in trees.items()}
    attributes = {n.attr for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
    unused = []
    for path in sorted(package.glob("*.py")):
        for top in trees[path].body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(top.name in names for other, tops in reads.items()
                       for name, names in tops
                       if other != path or name != top.name):
                unused.append(f"{path.name}:{top.name}")
            if isinstance(top, ast.ClassDef):
                unused.extend(
                    f"{path.name}:{top.name}.{fn.name}" for fn in top.body
                    if isinstance(fn, ast.FunctionDef)
                    and not fn.name.startswith("__")
                    and fn.name not in attributes)
    assert not unused, unused
