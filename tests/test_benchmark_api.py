"""Every program attribute the benchmark reads still exists under its name.

benchmarks/run.py reaches the program through module objects (`self.enhancer`,
`training`, ...), so a renamed or removed function shows up only when the
benchmark runs. This test reads the benchmark's source instead: an attribute
read on a glemiml module, or on `self.<module>` or a local name bound to one,
must exist in that module.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _self_module(node, modules):
    """The module that `self.<module>` names, or None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self" and node.attr in modules):
        return modules[node.attr]
    return None


def program_reads(tree):
    """(module, attribute) of each attribute read on a glemiml module in `tree`."""
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "glemiml"
               for alias in node.names}
    # local names bound to a module held on self: `training = self.training`
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and _self_module(node.value, modules)):
            modules[node.targets[0].id] = _self_module(node.value, modules)
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        module = _self_module(node.value, modules)
        if isinstance(node.value, ast.Name) and node.value.id in modules:
            module = modules[node.value.id]
        if module:
            reads.add((module, node.attr))
    return reads


READS = sorted(set().union(*(program_reads(ast.parse(path.read_text(encoding="utf-8")))
                             for path in sorted(BENCHMARKS.glob("*.py")))))


def test_reads_are_found():
    """The parse sees the reads it is meant to check."""
    assert {("enhancer", "instance_graph_build_count"), ("enhancer", "enhancer_params"),
            ("enhancer", "enhance_batch"), ("classifier", "classifier_params"),
            ("classifier", "predict_dataset"), ("training", "build_models"),
            ("training", "train"), ("data", "normalized_logical_baseline")} <= set(READS)


@pytest.mark.parametrize("module, attr", READS)
def test_program_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"glemiml.{module}"), attr), f"glemiml.{module}.{attr}"
