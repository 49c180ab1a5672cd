"""tools/graph_shapes.py times the graph routines on its fixed list of shapes."""

import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import graph_shapes  # noqa: E402


def test_one_row_of_four_timings_per_shape():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "graph_shapes.py"),
                           "--rounds", "1"],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert lines[1].split() == ["shape", "dists", "grad", "build", "fwd", "build", "backward"]
    rows = [line.rsplit(None, len(graph_shapes.COLUMNS)) for line in lines[2:]]
    assert [row[0].strip() for row in rows] == [shape[0] for shape in graph_shapes.SHAPES]
    for row in rows:
        assert all(float(cell) > 0 for cell in row[1:])


def test_label_shapes_are_the_enhancers_feature_major_view():
    points, counts = graph_shapes.shape_inputs(np.random.default_rng(0), 0, 30, 30, 2000)
    assert points.shape == (1, 30, 2000) and counts.tolist() == [30]
    # d0.T[None]: each bag's 30-label distribution is contiguous
    assert points.strides[1:] == (8, 30 * 8)
    assert np.allclose(points[0].sum(axis=0), 1.0)
