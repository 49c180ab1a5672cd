"""The package carries no code that only the tests reach.

Fails on an import that a module of src/glemiml never uses, on a
top-level function or class of src/glemiml that nothing in src/ or
benchmarks/ refers to outside its own definition, and on a method or
property of such a class that nothing there reads. A reference is a name,
an attribute, an imported name or a string that is exactly the name (the
benchmark's tracer and `__all__` name functions by string); a method is
read only as an attribute or by such a string, since a bare name that
equals it is some other variable.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "glemiml"

# "<module>.<name>": why the name stays although nothing but tests calls it.
# Names re-exported in `__all__` are imported by __init__.py, which counts as
# a reference: they are the public API.
ALLOWED = {
    "nets.grad_check": "the central-difference arbiter that every hand-derived gradient is tested against",
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def references(node, skip=(), attributes_only=False):
    """Every name that the code under `node` refers to, leaving out the subtrees in `skip`.

    With `attributes_only`, only attributes read and identifier strings count.
    """
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Attribute):
            if not attributes_only or isinstance(node.ctx, ast.Load):
                found.add(node.attr)
        elif isinstance(node, ast.Name) and not attributes_only:
            found.add(node.id)
        elif isinstance(node, ast.alias) and not attributes_only:
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def package_modules():
    return {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_unused_imports():
    unused = []
    for module, tree in package_modules().items():
        imports = [stmt for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
                   and getattr(stmt, "module", None) != "__future__"]
        used = references(tree, skip=set(imports))
        for stmt in imports:
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{module}: {bound}")
    assert not unused, f"unused imports: {unused}"


def test_every_top_level_definition_has_a_caller_outside_tests():
    """Also fails on an allow-list entry that has gained a caller or lost its definition."""
    modules = package_modules()
    benchmark_refs = set().union(*(references(parse(p)) for p in (ROOT / "benchmarks").glob("*.py")))
    uncalled = set()
    for module, tree in modules.items():
        others = set().union(*(references(t) for name, t in modules.items() if name != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used = benchmark_refs | others | references(tree, skip={node})
                if node.name not in used:
                    uncalled.add(f"{module}.{node.name}")
    assert not uncalled - ALLOWED.keys(), f"reached only from tests: {sorted(uncalled - ALLOWED.keys())}"
    assert not ALLOWED.keys() - uncalled, f"stale allow-list entries: {sorted(ALLOWED.keys() - uncalled)}"


def test_every_method_is_read_outside_tests():
    """Methods that Python calls itself, the dunders, are left out."""
    modules = package_modules()
    benchmarks = [parse(p) for p in (ROOT / "benchmarks").glob("*.py")]
    unread = []
    for module, tree in modules.items():
        others = set().union(*(references(t, attributes_only=True) for t in benchmarks),
                             *(references(t, attributes_only=True)
                               for name, t in modules.items() if name != module))
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    if node.name not in others | references(tree, {node}, attributes_only=True):
                        unread.append(f"{module}.{cls.name}.{node.name}")
    assert not unread, f"read only from tests: {unread}"
