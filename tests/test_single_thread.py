"""The package runs on the calling thread: no module of src/glemiml imports a
thread or process module.

Outputs and memory must not depend on how many CPUs the host has. A second
thread also did not pay for itself: the chunked enhance pass once split its
graph builds between two threads, whose many short NumPy calls serialise
on the interpreter lock, and in a loop that trains between warm wide-bag
passes the two-thread pass measured slower than one thread, while it
added a thread start, stack-page faults and about 0.5 MiB of resident
imports to every process that chunked.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "glemiml"

FORBIDDEN = ("threading", "_thread", "concurrent", "multiprocessing")


def imported_modules(tree):
    """The top-level package of each module an import statement in `tree` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_no_module_imports_threads_or_processes():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}: {name}" for name in imported_modules(tree) if name in FORBIDDEN]
    assert not found
