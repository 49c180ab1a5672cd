"""Print the trajectory of the committed benchmark records.

    python3 tools/bench_trajectory.py

For every BENCH_PR*.json at the repository root, in PR order, prints each
workload's parent and change medians of the end-to-end metrics that
BENCHMARK.json declares: one table per workload, one row per file, each
cell "parent -> change". A file's first run (its main seed) is the one
shown; a workload or metric that a file does not record shows "-".
Medians from different files were measured in different sessions, so only
the two sides of one row compare directly.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _fmt(value) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return f"{value / 1000:.1f}k"
    return f"{value:.4g}"


def bench_files(root: Path) -> list[Path]:
    """The BENCH_PR<n>.json files under `root`, by PR number."""
    found = [(int(m.group(1)), p) for p in root.glob("BENCH_PR*.json")
             if (m := re.fullmatch(r"BENCH_PR(\d+)\.json", p.name))]
    return [p for _, p in sorted(found)]


def trajectory(root: Path) -> str:
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    workloads = [w["name"] for w in benchmark["workloads"]]
    first_runs = {}
    for path in bench_files(root):
        runs = json.loads(path.read_text()).get("runs", {})
        first_runs[path.name] = next(iter(runs.items()), ("-", {}))
    lines = []
    for workload in workloads:
        rows = [["file", "seed", *metrics]]
        for name, (seed, run) in first_runs.items():
            recorded = run.get(workload, {}).get("metrics", {})
            cells = []
            for metric in metrics:
                m = recorded.get(metric)
                cells.append("-" if m is None else
                             f"{_fmt(m.get('parent_median'))} -> {_fmt(m.get('change_median'))}")
            rows.append([name, seed, *cells])
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines.append(f"== {workload}")
        lines.extend("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    if not bench_files(ROOT):
        print(f"no BENCH_PR*.json under {ROOT}", file=sys.stderr)
        return 1
    print(trajectory(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
