"""The package names and outputs the benchmark harness in ``perfbench/`` uses.

The harness runs CLI commands, wraps package functions by name, parses its
own configs and reads output columns.  These tests read ``perfbench/`` and
change nothing there, so a later trim of the package that would break a
benchmark run fails here first.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import nonescape.cli as cli
from nonescape.cli import parse_config

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(_PERFBENCH))

import checks  # noqa: E402
import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_resolves_every_target() -> None:
    traced = tracer.Tracer()
    try:
        traced.install()
        for module_name, path, _, _ in tracer.TARGETS:
            owner = sys.modules[f"nonescape.{module_name}"]
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            assert hasattr(owner.__dict__[attr], "__wrapped__"), f"{module_name}.{path}"
    finally:
        traced.uninstall()
    assert not hasattr(cli.main, "__wrapped__")


def test_benchmark_configs_parse() -> None:
    parse_config(workloads.REFERENCE_CONFIG)
    for workload in workloads.WORKLOADS.values():
        for seed in (0, 1):
            for config in workload.build(seed)["configs"].values():
                parse_config(config)


def _run_ops(root: Path, workload: str, names: set[str] | None = None) -> dict:
    """Operations of a seed-0 workload (all, or those named), run as the harness runs them."""
    spec = workloads.WORKLOADS[workload].build(0)
    spec["config_paths"] = {}
    for name, config in spec["configs"].items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(config))
        spec["config_paths"][name] = str(path)
    results = {}
    for op in spec["ops"]:
        if names is None or op["name"] in names:
            out = root / op["name"]
            results[op["name"]] = (op, out, *child.run_op("nonescape", op, spec, out))
    return {"spec": spec, "results": results}


def _assert_checks_pass(outputs: dict) -> None:
    spec = outputs["spec"]
    for name, (op, out, error, payload) in outputs["results"].items():
        assert error is None, f"{name}: {error}"
        ctx = checks.Context(
            config=cli.load_config(spec["config_paths"][op.get("config", "main")]),
            out=out,
            frozen=spec["frozen"],
            payload=payload,
        )
        assert checks.CHECKS[op["check"]](ctx) is None, name


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory: pytest.TempPathFactory) -> dict:
    """Every operation of the ``tiny`` workload."""
    return _run_ops(tmp_path_factory.mktemp("tiny"), "tiny")


def test_tiny_workload_passes_its_checks(tiny_outputs: dict) -> None:
    _assert_checks_pass(tiny_outputs)


def test_wide_spectral_operations_pass_their_checks(tmp_path: Path) -> None:
    # the 319-pole seed-0 operations, whose tail check holds the frozen
    # crossover ladder up to N = 160 (64.26 and 179.38 at N = 80 and 160)
    outputs = _run_ops(tmp_path, "spectral-pipeline", {"poles-wide", "tail-wide"})
    assert set(outputs["results"]) == {"poles-wide", "tail-wide"}
    assert outputs["spec"]["frozen"] and workloads.FROZEN_CROSSOVER[160] == 179.38
    _assert_checks_pass(outputs)


def test_oracle_csv_columns(tiny_outputs: dict) -> None:
    _, out, _, _ = tiny_outputs["results"]["oracle"]
    header = [
        line for line in (out / "oracle.csv").read_text().splitlines()
        if not line.startswith("#")
    ][0]
    assert header == "t,p,norm,horizon_flag"
