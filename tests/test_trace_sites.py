"""Every function the benchmark's tracer wraps still exists under its name.

The tracer (benchmarks/tracer.py) looks its sites up by module attribute and
reports a missing one only as a missing site in the run's details, so a
rename would silently drop that layer from the trace. A site the program no
longer has is allowed only when REMOVED names the site whose span now covers
its work.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"

# "<module>.<attribute>" of a removed site -> the site that records its span
# now. Each loss returns its value and gradient from one function, so the
# spans of the former gradient functions are recorded by the value function.
# Empty this map when the tracer's SITES no longer lists these names.
REMOVED = {
    "training.asymmetric_interaction_loss_grad": "training.asymmetric_interaction_loss",
    "training.similarity_matrices": "training.similarity_loss",
    "training.similarity_loss_grad": "training.similarity_loss",
    "training.cosine_matrix_backward": "training.similarity_loss",
    "training.threshold_loss_grad": "training.threshold_loss",
    "training.distribution_loss_grad": "training.distribution_loss",
    "training.logical_bce_loss_grad": "training.logical_bce_loss",
}


def load_sites():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SITES


SITES = load_sites()
SPAN_OF = {f"{module_name}.{attr}": span for module_name, attr, span in SITES}


def lookup(site):
    module_name, attr = site.split(".")
    return getattr(importlib.import_module(f"glemiml.{module_name}"), attr, None)


@pytest.mark.parametrize("module_name, attr, span", SITES)
def test_trace_site_exists(module_name, attr, span):
    site = f"{module_name}.{attr}"
    if site not in REMOVED:
        assert callable(lookup(site)), f"glemiml.{site} ({span})"
        return
    assert lookup(site) is None, f"glemiml.{site} exists again: take it out of REMOVED"
    cover = REMOVED[site]
    assert callable(lookup(cover)), f"glemiml.{cover}, which covers {site}, is missing"
    assert SPAN_OF.get(cover) == span, f"{cover} records {SPAN_OF.get(cover)}, not {span}"


def test_removed_sites_are_tracer_sites():
    assert not REMOVED.keys() - SPAN_OF.keys(), "REMOVED names sites the tracer no longer has"
