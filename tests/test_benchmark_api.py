"""Every program attribute the benchmark reads still exists under its name,
and every call it makes on a program function or class still binds.

benchmarks/run.py reaches the program through module objects (`self.enhancer`,
`training`, ...), so a renamed or removed function, or a changed signature,
shows up only when the benchmark runs. This test reads the benchmark's source
instead: an attribute read on a glemiml module, or on `self.<module>` or a
local name bound to one, must exist in that module, and a call of one must
bind to its signature with the call's positional count and keyword names.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _self_module(node, modules):
    """The module that `self.<module>` names, or None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self" and node.attr in modules):
        return modules[node.attr]
    return None


def _modules(tree):
    """Name -> glemiml module, for the names `tree` binds to one."""
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "glemiml"
               for alias in node.names}
    # local names bound to a module held on self: `training = self.training`
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and _self_module(node.value, modules)):
            modules[node.targets[0].id] = _self_module(node.value, modules)
    return modules


def _program_attribute(node, modules):
    """(module, attribute) when `node` reads an attribute of a glemiml module, else None."""
    if not isinstance(node, ast.Attribute):
        return None
    module = _self_module(node.value, modules)
    if isinstance(node.value, ast.Name) and node.value.id in modules:
        module = modules[node.value.id]
    return (module, node.attr) if module else None


def program_reads(tree):
    """(module, attribute) of each attribute read on a glemiml module in `tree`."""
    modules = _modules(tree)
    return {read for node in ast.walk(tree) if (read := _program_attribute(node, modules))}


def program_calls(tree):
    """(line, module, attribute, positional count, keyword names) of each call
    of an attribute of a glemiml module in `tree`. The count is None for a
    call with *args, and a **kwargs keyword is named None."""
    modules = _modules(tree)
    return [(node.lineno, *target,
             None if any(isinstance(arg, ast.Starred) for arg in node.args) else len(node.args),
             tuple(kw.arg for kw in node.keywords))
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (target := _program_attribute(node.func, modules))]


SOURCES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(BENCHMARKS.glob("*.py"))}
READS = sorted(set().union(*(program_reads(tree) for tree in SOURCES.values())))
CALLS = sorted((name, *call) for name, tree in SOURCES.items() for call in program_calls(tree))


def test_reads_are_found():
    """The parse sees the reads it is meant to check."""
    assert {("enhancer", "instance_graph_build_count"), ("enhancer", "enhancer_params"),
            ("enhancer", "enhance_batch"), ("classifier", "classifier_params"),
            ("classifier", "predict_dataset"), ("training", "build_models"),
            ("training", "train"), ("data", "normalized_logical_baseline")} <= set(READS)


def test_calls_are_found():
    """The parse sees the calls it is meant to bind, keywords included."""
    found = {call[2:] for call in CALLS}
    assert {("enhancer", "enhance_batch", 2, ()), ("training", "evaluate", 3, ()),
            ("training", "train", 3, ("enh", "clf", "epoch_callback")),
            ("training", "TrainConfig", 0, ("epochs", "batch_size", "seed", "ablation"))} <= found


@pytest.mark.parametrize("module, attr", READS)
def test_program_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"glemiml.{module}"), attr), f"glemiml.{module}.{attr}"


@pytest.mark.parametrize("source, line, module, attr, positional, keywords", CALLS,
                         ids=[f"{c[0]}:{c[1]}-{c[2]}.{c[3]}" for c in CALLS])
def test_program_call_binds(source, line, module, attr, positional, keywords):
    """A call with *args or **kwargs cannot be bound from its source, so none may be made."""
    assert positional is not None and None not in keywords, \
        f"{source}:{line} unpacks arguments into glemiml.{module}.{attr}"
    target = getattr(importlib.import_module(f"glemiml.{module}"), attr)
    try:
        inspect.signature(target).bind(*range(positional), **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"{source}:{line} glemiml.{module}.{attr}: {exc}")
