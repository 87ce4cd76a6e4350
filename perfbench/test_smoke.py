"""Smoke test of the benchmark harness on the small ``tiny`` workload.

    python3 -m pytest perfbench/test_smoke.py

Runs ``run.py`` end to end (untraced and traced passes, every correctness
check) and validates the shape of its result line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, delta_shell_pole  # noqa: E402


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_are_seeded() -> None:
    for workload in WORKLOADS.values():
        assert workload.build(7) == workload.build(7)
        assert workload.build(7) != workload.build(8)


def test_window_edge_sits_between_poles() -> None:
    cfg = WORKLOADS["spectral-pipeline"].build(5)["configs"]["main"]
    strength = cfg["potential"]["strength"]
    assert strength != 6.0
    re_max = cfg["pole_search"]["re_max"]
    assert delta_shell_pole(strength, 1.0, 40).real < re_max < delta_shell_pole(strength, 1.0, 41).real


@pytest.mark.parametrize("seed", [0, 1])
def test_tiny_traced_run(seed: int) -> None:
    result = _bench("--workload", "tiny", "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    n_ops = len(WORKLOADS["tiny"].build(seed)["ops"])
    assert result["attempted"] % n_ops == 0 and result["attempted"] >= 2 * n_ops
    metrics = result["metrics"]
    assert metrics["oracle.evolve_tdse.calls"]["value"] == 2
    assert metrics["gamow.overlap_quadrature.calls"]["value"] > 0
    assert metrics["poles.winding_count.s"]["value"] > 0
    assert metrics["cmd.poles_rel"]["value"] > 0 and metrics["cmd.tail-wide_rel"]["value"] == 0
    assert all(m["unit"] for m in metrics.values())


def test_tiny_end_to_end_metrics() -> None:
    result = _bench("--workload", "tiny", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert result["correct"]
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_package() -> None:
    # a directory holding only the benchmark files: no package to run
    bare = HERE.parent / ".perfbench_work" / "bare-checkout"
    bench = bare / "perfbench"
    bench.mkdir(parents=True, exist_ok=True)
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (bare / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
