"""Summarise benchmark runs: end-to-end metrics, per-layer table, design checks.

    python3 perfbench/report.py [RESULTS_DIR]

Reads the run records ``run.py`` left in ``.perfbench_work/results/`` (or
RESULTS_DIR) and prints, per workload:

* every end-to-end metric and per-operation time (each run's value, as
  ``run.py`` computes it), as the median over runs with its quartiles,
  spread (quartile distance over median), run count and sample count, plus
  ``failed_frac`` (failed operations over attempted ones);
* the per-layer metrics of the traced runs, each with the end-to-end metric
  it should move;
* whether the traced runs confirm what each workload was designed to stress.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import RESULTS, relative, unit_of

# Which end-to-end metric each layer's metrics should move, and on which
# workload.  ``<op>_s`` is an operation's time (``cmd.<op>_s`` among the
# per-layer metrics); ``spectral`` is spectral-pipeline, whose ``-wide`` ops
# run the 319-pole config; ``oracle`` is oracle-start.
LAYER_MOVES = {
    "poles": "poles-wide_s, tail-wide_s on spectral; poles_s a little",
    "segmath": "nonescape_s, expansion_s, poles-wide_s on spectral",
    "gamow": "nonescape_s, expansion_s on spectral; sumrule_s, tail_s via weighted_field",
    "dynamics": "tail-wide_s on spectral; a small share of nonescape_s",
    "specfn": "tail-wide_s on spectral",
    "asymptote": "tail-wide_s on spectral",
    "oracle": "oracle_s, packet_s on oracle; nothing on spectral",
    "cli": "setup_s everywhere; expansion_s on spectral (overlaps.csv)",
    "cmd": "the operation's own time: raw fastest (_s), over the reference copy (_rel)",
    "trace": "nothing: tracing cost",
}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _traced_share(record: dict, phase_op: str, num: str, den: str) -> float:
    layers = record["traced_pass"]["layers"].get(phase_op, {})
    total = layers.get(den, {}).get("s", 0.0)
    return layers.get(num, {}).get("s", 0.0) / total if total else 0.0


def design_checks(workload: str, traced: list[dict]) -> list[str]:
    lines = []
    for rec in traced:
        seed = rec["seed"]
        tags = rec["traced_pass"]["layers"]
        oracle_spans = sum(t.get("oracle.evolve_tdse", {}).get("calls", 0) for t in tags.values())
        if workload == "spectral-pipeline":
            share = _traced_share(rec, "run/nonescape", "gamow.overlap_quadrature", "cli.main")
            lines.append(f"seed {seed}: overlap_quadrature share of nonescape {share:.3f} (want > 0.5)")
            share = _traced_share(rec, "run/tail-wide", "dynamics.nonescape_probability", "cli.main")
            lines.append(f"seed {seed}: nonescape_probability share of tail-wide {share:.3f} (want > 0.5)")
            lines.append(f"seed {seed}: oracle spans {oracle_spans} (want 0)")
        if workload == "oracle-start":
            share = rec["metrics"]["oracle.evolve_tdse.s"] / rec["traced_pass"]["wall_s"]
            lines.append(f"seed {seed}: evolve_tdse share of wall {share:.3f} (want >= 0.95)")
    return lines


def main(argv: list[str]) -> int:
    results = Path(argv[1]) if len(argv) > 1 else RESULTS
    records = defaultdict(list)
    for path in sorted(results.glob("*.json")):
        rec = json.loads(path.read_text())
        records[rec["workload"]].append(rec)
    if not records:
        print(f"no run records in {results}", file=sys.stderr)
        return 1
    for workload, recs in records.items():
        seeds = sorted({r["seed"] for r in recs})
        first = recs[0]
        print(f"\n== {workload}: {len(recs)} runs, seeds {seeds}")
        print(f"   python {first['versions']['python']}, numpy {first['versions']['numpy']}, "
              f"scipy {first['versions']['scipy']}, nproc {first['nproc']}, "
              f"BLAS threads {first['blas_threads']}, commit {first['git_commit']}")
        print(f"   {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  unit  runs samples")
        per_run = defaultdict(list)
        samples = defaultdict(int)
        for r in recs:
            for name, value in r["end_to_end"].items():
                per_run[name].append(value)
                samples[name] += r["end_to_end_counts"][name]
            cmd = defaultdict(list)
            for p in r["passes"]:
                for op in p["ops"]:
                    cmd[op["name"]].append(op["cur_s"])
            for name, values in cmd.items():
                per_run[f"{name}_s"].append(min(values))
                samples[f"{name}_s"] += len(values)
            for name, ratio in relative(r["passes"]).items():
                per_run[f"{name}_rel"].append(ratio)
                samples[f"{name}_rel"] += len(r["passes"]) - 1
        for name, values in per_run.items():
            q1, med, q3 = _quartiles(values)
            unit = unit_of(name)
            print(f"   {name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:8.4f}  "
                  f"{unit:5s} {len(values):4d} {samples[name]:7d}")
        attempted = sum(r["attempted"] for r in recs)
        failed = sum(r["failed"] for r in recs)
        print(f"   {'failed_frac':40s} {failed / attempted:12.6g}  ({failed} of {attempted} operations)")
        for r in recs:
            for err in r["errors"]:
                print(f"   FAILED seed {r['seed']}: {err}")

        traced = [r for r in recs if r["trace"]]
        if not traced:
            continue
        print(f"   -- per-layer, median of {len(traced)} traced runs")
        for name in traced[0]["metrics"]:
            med = statistics.median(r["metrics"][name] for r in traced)
            moves = LAYER_MOVES.get(name.split(".")[0], "")
            print(f"   {name:44s} {med:14.6g} {unit_of(name):9s} {moves}")
        for line in design_checks(workload, traced):
            print(f"   design: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
