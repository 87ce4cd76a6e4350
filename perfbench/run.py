"""Benchmark of the nonescape pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One parent process runs the workload's passes one at a time, each in a
fresh child interpreter (``child.py``), because every CLI invocation a user
makes pays cold caches.  Children get ``src`` on ``PYTHONPATH``, one BLAS
thread and no ``NONESCAPE_WORKERS``.

Times are measured against a frozen reference.  On a shared 2-vCPU virtual
machine the speed of Python-heavy code swings by up to 2x, within seconds
and in phases that last minutes (neighbours on the host), so raw seconds
from two runs minutes apart differ by more than any bound worth keeping.
``baseline/nonescape_baseline`` is a copy of the package as it was when the
benchmark was defined.  A paired pass runs every operation on the package
and on that copy back to back, in alternating order, so both sample the
same stretch of machine speed.  Per operation the run keeps the fastest
time of each side over its paired passes (the fastest is the least
disturbed); the package's summed fastest times over the copy's cancel the
machine and keep every change made to the package.  ``wall_s`` is that
ratio times the copy's own time on the reference machine, the workload's
``reference_s``, so it reads in seconds and reads ``reference_s`` until the
package changes.  ``setup_s`` is the same for start-up: fresh interpreters
that import ``nonescape.cli`` or the copy's ``cli`` and load the config, in
alternating pairs, scaled by ``REFERENCE_SETUP_S``.  Raw seconds of every
operation stay in the run record and the per-layer ``cmd.<op>_s``; the
per-operation ratios are ``cmd.<op>_rel``.

Each run starts with one pass of the package alone, which gives
``peak_rss_mb`` and the raw times, then repeats paired passes until they
have taken ``--seconds``, as near as whole passes allow, and at least one
ran.  With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` one more pass of the package alone runs with every public
function of each layer wrapped (``tracer.py``), and the result holds the
per-layer metrics, the raw per-operation times and the tracing overhead.  Every output of the package is checked (``checks.py``);
``failed`` counts operations that raised or failed their check.

A human-readable table goes to stdout, then, as the last line, the JSON
result.  The full run record, and the spans of a traced pass, are written
under ``.perfbench_work/results/``; ``report.py`` summarises them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
RESULTS = WORK / "results"
HERE = Path(__file__).resolve().parent

DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_PAIRS = 3
# start-up of the reference copy on the reference machine (2-vCPU VM,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1; fastest of a run, median of ten)
REFERENCE_SETUP_S = 0.47
COMMANDS = (
    "poles", "expansion", "nonescape", "tail", "sumrule", "poles-wide", "tail-wide", "oracle", "packet",
)
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of a traced pass, as (span name, stat) read from the
# span table of the run phase.  The winding-count audit runs only in the
# poles check, so it is read from the verify phase.  A layer the workload
# does not exercise reports 0.
LAYER_STATS = (
    ("poles.locate_poles", "s"),
    ("poles.matching_function", "calls"),
    ("poles.matching_function", "points"),
    ("segmath.kernels", "points"),
    ("segmath.kernels", "s"),
    ("segmath.product_integral", "calls"),
    ("segmath.product_integral", "s"),
    ("segmath.panel_nodes", "calls"),
    ("gamow.overlap_quadrature", "calls"),
    ("gamow.overlap_quadrature", "s"),
    ("gamow.overlap_matrix", "s"),
    ("gamow.build_expansion", "s"),
    ("gamow.GamowState.evaluate", "points"),
    ("gamow.weighted_field", "s"),
    ("dynamics.nonescape_probability", "s"),
    ("dynamics.nonescape_probability", "self_s"),
    ("dynamics.nonescape_probability", "calls"),
    ("specfn.moshinsky", "calls"),
    ("specfn.moshinsky", "points"),
    ("specfn.moshinsky", "s"),
    ("specfn.faddeeva", "points"),
    ("specfn.faddeeva", "s"),
    ("asymptote.convergence_study", "self_s"),
    ("asymptote.moment_sum_quadrature", "s"),
    ("asymptote.crossover_time", "s"),
    ("oracle.evolve_tdse", "s"),
    ("oracle.evolve_tdse", "calls"),
    ("cli.load_config", "s"),
    ("cli.main", "self_s"),
)
VERIFY_STATS = (("poles.winding_count", "s"),)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _digest(doc: dict) -> str:
    # the same canonical digest the package prints as config_hash
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:12]


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NONESCAPE_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


class Runner:
    """Runs the child processes of one benchmark invocation, one at a time, within a deadline."""

    def __init__(self, run_dir: Path, started: float) -> None:
        self.run_dir = run_dir
        self.env = _child_env()
        self.deadline = started + DEADLINE_S

    def _call(self, cmd: list[str]) -> None:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before the child could start")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:  # run() kills and reaps the child
            raise BenchError("a child exceeded the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"child failed: {proc.stderr.strip()[-1500:]}")

    def setup_times(self, config_path: Path) -> dict[str, list[float]]:
        """Start-up times of the package ("cur") and of the reference copy
        ("ref"), in alternating pairs; an untimed first pair warms the .pyc files."""
        code = (
            "import importlib, sys; sys.path.insert(0, sys.argv[2]); "
            "importlib.import_module(sys.argv[3] + '.cli').load_config(sys.argv[1])"
        )
        sides = [("cur", ROOT / "src", "nonescape"), ("ref", HERE / "baseline", "nonescape_baseline")]
        times: dict[str, list[float]] = {"cur": [], "ref": []}
        for i in range(SETUP_PAIRS + 1):
            for side, path, package in sides if i % 2 else sides[::-1]:
                start = perf_counter()
                self._call([sys.executable, "-c", code, str(config_path), str(path), package])
                if i:
                    times[side].append(perf_counter() - start)
        return times

    def run_pass(self, spec: dict, index: int, *, paired: bool, trace: bool = False) -> dict:
        pass_id = "traced" if trace else f"p{index}"
        out_dir = self.run_dir / f"out-{pass_id}"
        pass_spec = dict(
            spec, paired=paired, trace=trace, pass_index=index, pass_id=pass_id,
            out_dir=str(out_dir), spans_path=str(RESULTS / f"{self.run_dir.name}-{pass_id}.spans.tsv"),
        )
        spec_path = self.run_dir / f"spec-{pass_id}.json"
        result_path = self.run_dir / f"result-{pass_id}.json"
        spec_path.write_text(json.dumps(pass_spec))
        spawned = repr(time.time())  # the child times its own start-up from here
        self._call([sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path), spawned])
        shutil.rmtree(out_dir, ignore_errors=True)
        return json.loads(result_path.read_text())


def _command_times(passes: list[dict]) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            times.setdefault(op["name"], []).append(op["cur_s"])
    return times


def _fastest_pairs(passes: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per operation, the package's and the reference copy's fastest time
    over the paired passes."""
    paired = [p for p in passes if "ref_s" in p["ops"][0]]
    return tuple(
        {op["name"]: min(p["ops"][i][side] for p in paired) for i, op in enumerate(paired[0]["ops"])}
        for side in ("cur_s", "ref_s")
    )


def relative(passes: list[dict]) -> dict[str, float]:
    """Each operation's fastest time over the reference copy's fastest."""
    cur, ref = _fastest_pairs(passes)
    return {name: cur[name] / ref[name] for name in cur}


def fastest(passes: list[dict]) -> dict[str, float]:
    """Each operation's fastest raw time over all the passes."""
    return {name: min(v) for name, v in _command_times(passes).items()}


def end_to_end(
    setup: dict[str, list[float]], passes: list[dict], reference_s: float
) -> tuple[dict, dict]:
    """(metric values, sample counts); see the module docstring."""
    cur, ref = _fastest_pairs(passes)
    values = {
        "setup_s": REFERENCE_SETUP_S * min(setup["cur"]) / min(setup["ref"]),
        "wall_s": reference_s * sum(cur.values()) / sum(ref.values()),
        "peak_rss_mb": passes[0]["peak_rss_mb"],
    }
    counts = {"setup_s": len(setup["cur"]), "wall_s": len(passes) - 1, "peak_rss_mb": 1}
    return values, counts


def per_layer(passes: list[dict], traced: dict) -> dict[str, float]:
    """Per-layer metrics of the traced pass, plus the raw per-operation times
    (fastest over the untraced passes) and the tracing overhead against the
    untraced pass of the package alone."""

    def merged(phase: str) -> tuple[dict, dict]:
        layers: dict[str, dict[str, float]] = {}
        counters: dict[str, float] = {}
        for tag, table in traced["layers"].items():
            if tag.startswith(phase + "/"):
                for name, row in table.items():
                    acc = layers.setdefault(name, dict.fromkeys(row, 0))
                    for stat, v in row.items():
                        acc[stat] += v
        for tag, table in traced["counters"].items():
            if tag.startswith(phase + "/"):
                for key, v in table.items():
                    counters[key] = counters.get(key, 0) + v
        return layers, counters

    run_layers, counters = merged("run")
    verify_layers, _ = merged("verify")
    metrics: dict[str, float] = {}
    for stats, layers in ((LAYER_STATS, run_layers), (VERIFY_STATS, verify_layers)):
        for name, stat in stats:
            metrics[f"{name}.{stat}"] = layers.get(name, {}).get(stat, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics["poles.poles_per_kpoint"] = ratio(
        counters.get("poles_found", 0), metrics["poles.matching_function.points"] / 1000.0
    )
    metrics["gamow.overlap_useful_ratio"] = ratio(
        counters.get("pairs_distinct", 0), counters.get("pairs_integrated", 0)
    )
    metrics["dynamics.pair_terms"] = counters.get("pair_terms", 0)
    metrics["oracle.node_steps"] = counters.get("node_steps", 0)
    metrics["oracle.ns_per_node_step"] = ratio(
        metrics["oracle.evolve_tdse.s"] * 1e9, metrics["oracle.node_steps"]
    )
    metrics["cli.output_bytes"] = statistics.median([p["output_bytes"] for p in passes])
    cmd, rel = fastest(passes), relative(passes)
    for name in COMMANDS:
        metrics[f"cmd.{name}_s"] = cmd.get(name, 0.0)
    for name in COMMANDS:
        metrics[f"cmd.{name}_rel"] = rel.get(name, 0.0)
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_rel"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return {
        "poles.poles_per_kpoint": "1/kpoint",
        "gamow.overlap_useful_ratio": "ratio",
        "oracle.ns_per_node_step": "ns",
        "cli.output_bytes": "bytes",
    }.get(name, "count")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = perf_counter()
    if not (ROOT / "src" / "nonescape" / "cli.py").is_file():
        raise BenchError(f"no package source at {ROOT / 'src' / 'nonescape'}")
    if workload_name not in WORKLOADS:
        raise BenchError(f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[workload_name].build(seed)
    run_name = f"{workload_name}-seed{seed}-trace{int(trace)}"
    run_dir = WORK / run_name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    config_paths = {}
    for name, cfg in spec["configs"].items():
        path = run_dir / f"config-{name}.json"
        path.write_text(json.dumps(cfg, indent=1))
        config_paths[name] = str(path)
    spec = dict(spec, root=str(ROOT), config_paths=config_paths)

    runner = Runner(run_dir, started)
    setup = runner.setup_times(Path(config_paths["main"]))
    # Paired passes repeat until the measuring time is as close to
    # ``seconds`` as whole passes allow, so a run lasts about the same
    # whatever the machine speed.
    passes = [runner.run_pass(spec, 0, paired=False)]
    durations: list[float] = []
    measuring = perf_counter()
    while len(passes) < 2 or (
        perf_counter() - measuring + 0.5 * statistics.median(durations) < seconds
        # room for one more pass, and the traced one, before the deadline
        and perf_counter() + max(durations) * (2 if trace else 1) < runner.deadline
    ):
        start = perf_counter()
        passes.append(runner.run_pass(spec, len(passes), paired=True))
        durations.append(perf_counter() - start)
    traced = runner.run_pass(spec, len(passes), paired=False, trace=True) if trace else None

    checked = passes + ([traced] if traced else [])
    errors = [f"{op['name']}: {op['error']}" for p in checked for op in p["ops"] if op["error"]]
    attempted = sum(len(p["ops"]) for p in checked)
    e2e, counts = end_to_end(setup, passes, WORKLOADS[workload_name].reference_s)
    metrics = per_layer(passes, traced) if trace else e2e
    digests = dict(passes[0]["digests"])
    if spec["packet"] is not None:
        digests["packet"] = _digest(spec["packet"])
    record = {
        "workload": workload_name,
        "setup": setup,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "versions": passes[0]["versions"],
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "config_digests": digests,
        "git_commit": _git_commit(),
        "passes": passes,
        "traced_pass": traced,
        "end_to_end": e2e,
        "end_to_end_counts": counts,
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
    }
    (RESULTS / f"{run_name}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)
    return record


def print_table(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {len(record['passes'])}  commit {record['git_commit']}")
    rows = [(k, v, END_TO_END_UNITS[k], record["end_to_end_counts"][k])
            for k, v in record["end_to_end"].items()]
    for name, samples in _command_times(record["passes"]).items():
        rows.append((f"{name}_s", min(samples), "s", len(samples)))
    for name, ratio in relative(record["passes"]).items():
        rows.append((f"{name}_rel", ratio, "ratio", len(record["passes"]) - 1))
    rows.append(("failed_frac", record["failed"] / record["attempted"], "ratio", record["attempted"]))
    if record["trace"]:
        rows.extend((k, v, unit_of(k), 1) for k, v in record["metrics"].items())
    print(f"  {'metric':44s} {'value':>14s}  {'unit':9s} n")
    for name, value, unit, n in rows:
        print(f"  {name:44s} {value:14.6g}  {unit:9s} {n}")
    for err in record["errors"]:
        print(f"  FAILED {err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_table(record)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
