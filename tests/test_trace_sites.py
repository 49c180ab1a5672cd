"""Every function the benchmark's tracer wraps still exists under its name.

The tracer (benchmarks/tracer.py) looks its sites up by module attribute and
reports a missing one only as a missing site in the run's details, so a
rename would silently drop that layer from the trace.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_sites():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SITES


@pytest.mark.parametrize("module_name, attr, span", load_sites())
def test_trace_site_exists(module_name, attr, span):
    module = importlib.import_module(f"glemiml.{module_name}")
    assert callable(getattr(module, attr, None)), f"glemiml.{module_name}.{attr} ({span})"
