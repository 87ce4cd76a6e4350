"""One pass of a benchmark workload, in a fresh interpreter.

    python3 child.py SPEC.json RESULT.json SPAWNED

SPAWNED is the ``time.time()`` at which the parent started this process.
The spec (written by ``run.py``) names the package root, the config files,
the operations, whether to trace and whether to pair each operation with
the frozen reference copy of the package (``baseline/nonescape_baseline``).

The pass imports the package, loads each config, then times every
operation back to back: a CLI command runs as ``nonescape.cli.main([...])``
writing into its own output directory, and the packet operation calls
``evolve_tdse`` on selftest check 9's free Gaussian.  In a paired pass each
operation also runs on the reference copy right before or right after
(alternating), so both see the same machine speed.  Only then are the
package's outputs checked, so checking is not timed.  The result (start-up
seconds, per-operation seconds and check outcome, peak RSS, output bytes,
versions, config digests and, when traced, the per-layer table) is written
as JSON to RESULT.json.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
PACKAGES = {"cur": "nonescape", "ref": "nonescape_baseline"}


def run_packet(package: str, params: dict):
    import numpy as np

    oracle = importlib.import_module(f"{package}.oracle")
    time_grid = importlib.import_module(f"{package}.dynamics").TimeGrid
    free = importlib.import_module(f"{package}.model").PiecewiseConstant(
        ((0.0, params["free_range"], 0.0),)
    )
    psi0 = oracle.sampled_gaussian(
        sigma=params["sigma"],
        center=params["center"],
        momentum=params["momentum"],
        support=params["support"],
        dr_sample=params["dr_sample"],
    )
    times = params["times"]
    return oracle.evolve_tdse(
        free,
        psi0,
        oracle.GridSpec(**params["grid"]),
        times=time_grid(times=np.linspace(times["start"], times["stop"], times["points"])),
        sample_times=tuple(params["snapshots"]),
    )


def run_op(package: str, op: dict, spec: dict, out: Path) -> tuple[str | None, object]:
    """Run one operation on ``package``; return (error or None, payload)."""
    try:
        if op["kind"] == "packet":
            return None, (run_packet(package, spec["packet"]), spec["packet"])
        cli = importlib.import_module(f"{package}.cli")
        code = cli.main([*op["argv"], "--config", spec["config_paths"][op["config"]], "--out", str(out)])
        return (f"exit code {code}" if code != 0 else None), None
    except Exception:  # a failed operation is counted, the pass goes on
        return traceback.format_exc(limit=3).strip().splitlines()[-1], None


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    root = Path(spec["root"])
    import numpy
    import scipy

    import nonescape
    import nonescape.cli as cli

    if not Path(nonescape.__file__).resolve().is_relative_to(root / "src"):
        print(f"imported nonescape from {nonescape.__file__}, not {root / 'src'}", file=sys.stderr)
        return 2
    configs = {name: cli.load_config(path) for name, path in spec["config_paths"].items()}
    setup_s = time.time() - float(argv[3])
    sides = ["cur"]
    if spec["paired"]:
        sys.path.insert(0, str(HERE / "baseline"))
        importlib.import_module("nonescape_baseline.cli")
        sides.append("ref")
    import checks  # the script's directory is first on sys.path

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out_root = Path(spec["out_dir"])
    ops = []
    for i, op in enumerate(spec["ops"]):
        if tracer:
            tracer.tag = f"run/{op['name']}"
        record = {"name": op["name"]}
        order = sides if (spec["pass_index"] + i) % 2 == 0 else sides[::-1]
        for side in order:
            start = perf_counter()
            error, payload = run_op(PACKAGES[side], op, spec, out_root / side / op["name"])
            record[f"{side}_s"] = perf_counter() - start
            if side == "cur":
                record.update(error=error, payload=payload)
            elif error is not None:
                record["ref_error"] = error
        if record.pop("ref_error", None) and record["error"] is None:
            record["error"] = "the reference copy failed on this input"
        ops.append(record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    output_bytes = sum(f.stat().st_size for f in (out_root / "cur").rglob("*") if f.is_file())

    for op, spec_op in zip(ops, spec["ops"]):
        if tracer:
            tracer.tag = f"verify/{op['name']}"
        if op["error"] is None:
            ctx = checks.Context(
                config=configs[spec_op.get("config", "main")],
                out=out_root / "cur" / op["name"],
                frozen=spec["frozen"],
                payload=op["payload"],
            )
            try:
                op["error"] = checks.CHECKS[spec_op["check"]](ctx)
            except Exception:
                op["error"] = "check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        del op["payload"]

    result = {
        "ops": ops,
        "setup_s": setup_s,
        "wall_s": sum(op["cur_s"] for op in ops),
        "peak_rss_mb": peak_rss_mb,
        "output_bytes": output_bytes,
        "digests": {name: cfg.digest for name, cfg in configs.items()},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.aggregate()
        result["counters"] = tracer.counters
        tracer.write_spans(spec["spans_path"], spec["pass_id"])
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
