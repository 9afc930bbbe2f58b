"""Tests of the benchmark itself: self-time arithmetic, smoke mode, refusal.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from tracing import Span, covered, self_times

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK_JSON = RUN.parent.parent / "BENCHMARK.json"


def _span(id, start, end, parent=None, busy=None, aggregate=False):
    span = Span(id, f"layer.s{id}", start, parent, "r", aggregate=aggregate)
    span.end = end
    span.busy = end - start if busy is None else busy
    span.count = 1
    return span


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)], 0.0, 10.0) == 5.0
    assert covered([(2.0, 3.0), (1.0, 4.0)], 0.0, 10.0) == 3.0
    assert covered([], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),  # grandchild: counts against span 1 only
        _span(3, 3.0, 5.0, parent=0),  # overlaps span 1: covered once
        _span(4, 6.0, 9.0, parent=0, busy=2.0, aggregate=True),
    ]
    selfs = self_times(spans)
    assert selfs[0] == 10.0 - 4.0 - 2.0
    assert selfs[1] == 3.0 - 1.0
    assert selfs[2] == 1.0
    assert selfs[4] == 2.0


def test_smoke_mode_runs_every_workload():
    done = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        shutil.copy(RUN.parent / name, bench / name)
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_printed_metrics_are_the_declared_ones():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == run.workloads.WORKLOADS
