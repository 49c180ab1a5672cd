"""tools/bench_trajectory.py prints the committed benchmark records."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_row_per_file_in_each_workload_table():
    files = sorted(p.name for p in ROOT.glob("BENCH_PR*.json"))
    assert files, "no committed BENCH_PR*.json"
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_trajectory.py")],
                          capture_output=True, text=True, timeout=60, check=True)
    tables = done.stdout.split("== ")[1:]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert [table.split("\n", 1)[0] for table in tables] == workloads
    for table in tables:
        rows = [line.split()[0] for line in table.splitlines()[2:] if line.strip()]
        assert sorted(rows) == files
