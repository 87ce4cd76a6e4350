"""Command-line front end: config ingestion, pipelines, CSV/JSON emission.

Every subcommand reads one JSON run configuration (the packaged default
describes the reference delta-shell model), writes deterministic CSV files
with a metadata comment block, and exits 0 on success, 1 on a numerical
domain error, or 2 on a configuration error.  Errors are emitted to stderr
as a one-line JSON object so drivers can dispatch without parsing prose.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, NoReturn, Sequence

import numpy as np

from .asymptote import adjudicate, convergence_study, post_exponential_window
from .dynamics import MAX_TIME_SAMPLES, TimeGrid, probability_sums
from .errors import ConfigError, InvalidPotential, InvalidState, NonescapeError
from .gamow import ExpansionData, build_expansion, overlap_matrix, sum_rule_residual
from .model import BoxMode, DeltaShell, PiecewiseConstant, potential_range
from .oracle import GridSpec, evolve_tdse, refine_and_compare
from .poles import PoleSet, SearchWindow, locate_poles
from .selftest import run_selftest

__all__ = ["RunConfig", "load_config", "build_parser", "main"]

_UNITS_NOTE = "hbar=2m=1"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration plus the canonical digest of its source."""

    potential: DeltaShell | PiecewiseConstant
    psi0: BoxMode
    window: SearchWindow
    tol: float
    truncations: tuple[int, ...]
    time_grid: TimeGrid
    oracle_grid: GridSpec
    r_points: tuple[float, ...]
    output_dir: str
    digest: str


def _reject_unknown(section: dict, allowed: Iterable[str], where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _get(section: dict, key: str, where: str, default: Any = ...) -> Any:
    if key in section:
        return section[key]
    if default is ...:
        raise ConfigError(f"missing key {key!r} in {where}")
    return default


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _sample_count(value: int, where: str) -> int:
    if not 1 <= value <= MAX_TIME_SAMPLES:
        raise ConfigError(f"{where} must lie in 1..{MAX_TIME_SAMPLES}, got {value}")
    return value


def _parse_potential(section: Any) -> DeltaShell | PiecewiseConstant:
    if not isinstance(section, dict):
        raise ConfigError("potential must be an object")
    kind = _get(section, "kind", "potential")
    if kind == "delta_shell":
        _reject_unknown(section, ("kind", "strength", "radius"), "potential")
        return DeltaShell(
            strength=_as_float(_get(section, "strength", "potential"), "strength"),
            radius=_as_float(_get(section, "radius", "potential"), "radius"),
        )
    if kind == "piecewise_constant":
        _reject_unknown(section, ("kind", "pieces"), "potential")
        pieces = _get(section, "pieces", "potential")
        if not isinstance(pieces, list):
            raise ConfigError("potential.pieces must be a list of [start, end, height]")
        parsed = []
        for i, piece in enumerate(pieces):
            if not isinstance(piece, list) or len(piece) != 3:
                raise ConfigError(f"potential.pieces[{i}] must be [start, end, height]")
            parsed.append(tuple(_as_float(x, f"pieces[{i}]") for x in piece))
        return PiecewiseConstant(pieces=tuple(parsed))
    raise ConfigError(f"unknown potential kind {kind!r}")


def _parse_state(section: Any) -> BoxMode:
    if not isinstance(section, dict):
        raise ConfigError("initial_state must be an object")
    kind = _get(section, "kind", "initial_state")
    if kind == "box_mode":
        _reject_unknown(section, ("kind", "mode", "radius"), "initial_state")
        return BoxMode(
            mode=_as_int(_get(section, "mode", "initial_state"), "mode"),
            radius=_as_float(_get(section, "radius", "initial_state"), "radius"),
        )
    raise ConfigError(f"unknown initial_state kind {kind!r}")


def _parse_time_grid(section: Any) -> TimeGrid:
    if not isinstance(section, dict):
        raise ConfigError("time_grid must be an object")
    kind = _get(section, "kind", "time_grid")
    if kind == "log":
        _reject_unknown(section, ("kind", "t_min", "t_max", "per_decade"), "time_grid")
        return TimeGrid.log(
            _as_float(_get(section, "t_min", "time_grid"), "t_min"),
            _as_float(_get(section, "t_max", "time_grid"), "t_max"),
            per_decade=_as_int(_get(section, "per_decade", "time_grid", 40), "per_decade"),
        )
    if kind == "linear":
        _reject_unknown(section, ("kind", "t_min", "t_max", "points"), "time_grid")
        t_min = _as_float(_get(section, "t_min", "time_grid"), "t_min")
        t_max = _as_float(_get(section, "t_max", "time_grid"), "t_max")
        points = _as_int(_get(section, "points", "time_grid"), "points")
        with np.errstate(over="ignore", invalid="ignore"):  # TimeGrid rejects inf/NaN
            times = np.linspace(t_min, t_max, _sample_count(points, "points"))
        return TimeGrid(times=times)
    if kind == "explicit":
        _reject_unknown(section, ("kind", "times"), "time_grid")
        times = _get(section, "times", "time_grid")
        if not isinstance(times, list) or not times:
            raise ConfigError("time_grid.times must be a non-empty list")
        return TimeGrid(times=np.array([_as_float(t, "times") for t in times]))
    raise ConfigError(f"unknown time_grid kind {kind!r}")


_GRID_KEYS = (
    "box_size",
    "dr",
    "dt",
    "t_final",
    "absorber_width",
    "absorber_strength",
    "smooth_initial",
    "enforce_resolution",
)


def _parse_oracle_grid(section: Any) -> GridSpec:
    if not isinstance(section, dict):
        raise ConfigError("oracle_grid must be an object")
    _reject_unknown(section, _GRID_KEYS, "oracle_grid")
    kwargs: dict[str, Any] = {}
    for key in ("box_size", "dr", "dt", "t_final"):
        kwargs[key] = _as_float(_get(section, key, "oracle_grid"), key)
    for key in ("absorber_width", "absorber_strength"):
        if key in section:
            kwargs[key] = _as_float(section[key], key)
    for key in ("smooth_initial", "enforce_resolution"):
        if key in section:
            if not isinstance(section[key], bool):
                raise ConfigError(f"oracle_grid.{key} must be a boolean")
            kwargs[key] = section[key]
    return GridSpec(**kwargs)


_TOP_KEYS = (
    "potential",
    "initial_state",
    "pole_search",
    "truncations",
    "time_grid",
    "oracle_grid",
    "r_points",
    "output_dir",
)


def parse_config(raw: Any) -> RunConfig:
    """Build a validated :class:`RunConfig` from a decoded JSON document."""
    if not isinstance(raw, dict):
        raise ConfigError("run configuration must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "configuration")

    search = _get(raw, "pole_search", "configuration")
    if not isinstance(search, dict):
        raise ConfigError("pole_search must be an object")
    _reject_unknown(search, ("re_max", "im_min", "tol"), "pole_search")
    window = SearchWindow(
        re_max=_as_float(_get(search, "re_max", "pole_search"), "re_max"),
        im_min=_as_float(_get(search, "im_min", "pole_search"), "im_min"),
    )
    tol = _as_float(_get(search, "tol", "pole_search", 1e-12), "tol")

    truncations = _get(raw, "truncations", "configuration")
    if not isinstance(truncations, list) or not truncations:
        raise ConfigError("truncations must be a non-empty list of integers")
    n_list = tuple(_as_int(n, "truncations") for n in truncations)
    if any(n <= 0 for n in n_list) or list(n_list) != sorted(set(n_list)):
        raise ConfigError("truncations must be positive, strictly ascending")

    r_raw = _get(raw, "r_points", "configuration", [0.25, 0.5, 0.75])
    if not isinstance(r_raw, list) or not r_raw:
        raise ConfigError("r_points must be a non-empty list")
    r_points = tuple(_as_float(r, "r_points") for r in r_raw)

    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:12]

    return RunConfig(
        potential=_parse_potential(_get(raw, "potential", "configuration")),
        psi0=_parse_state(_get(raw, "initial_state", "configuration")),
        window=window,
        tol=tol,
        truncations=n_list,
        time_grid=_parse_time_grid(_get(raw, "time_grid", "configuration")),
        oracle_grid=_parse_oracle_grid(_get(raw, "oracle_grid", "configuration")),
        r_points=r_points,
        output_dir=str(_get(raw, "output_dir", "configuration", "nonescape-out")),
        digest=digest,
    )


def load_config(path: str | None) -> RunConfig:
    """Load a config file, or the packaged default when ``path`` is None."""
    if path is None:
        text = (
            resources.files("nonescape.data").joinpath("default_config.json").read_text()
        )
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer with too many digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(
    path: Path,
    cfg: RunConfig,
    command: str,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# nonescape {command}\n")
        fh.write(f"# config_hash: {cfg.digest}\n")
        fh.write(f"# units: {_UNITS_NOTE}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    print(path)


def _out_dir(cfg: RunConfig, args: argparse.Namespace) -> Path:
    out = Path(args.out if args.out is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _truncations(cfg: RunConfig, args: argparse.Namespace) -> tuple[int, ...]:
    if getattr(args, "nmax", None) is None:
        return cfg.truncations
    kept = tuple(n for n in cfg.truncations if n <= args.nmax)
    if not kept:
        kept = (args.nmax,)
    return kept


def _time_grid(cfg: RunConfig, args: argparse.Namespace) -> TimeGrid:
    t_min = getattr(args, "tmin", None)
    t_max = getattr(args, "tmax", None)
    points = getattr(args, "points", None)
    if t_min is None and t_max is None and points is None:
        return cfg.time_grid
    lo = t_min if t_min is not None else float(cfg.time_grid.times[0])
    hi = t_max if t_max is not None else float(cfg.time_grid.times[-1])
    if points is not None:
        if not (0.0 < lo < hi < math.inf):
            raise ConfigError("need 0 < tmin < tmax < inf for a log grid")
        return TimeGrid(times=np.geomspace(lo, hi, _sample_count(points, "--points")))
    mask = (cfg.time_grid.times >= lo) & (cfg.time_grid.times <= hi)
    if not mask.any():
        raise ConfigError("tmin/tmax exclude every configured time sample")
    return TimeGrid(times=cfg.time_grid.times[mask])


def _r_points(cfg: RunConfig, args: argparse.Namespace) -> tuple[float, ...]:
    """The radii of ``--r``, else of the config; each must lie in [0, R]."""
    values = cfg.r_points
    if getattr(args, "r", None) is not None:
        try:
            values = tuple(float(tok) for tok in args.r.split(","))
        except ValueError:
            raise ConfigError(f"--r expects comma-separated numbers, got {args.r!r}")
    radius = potential_range(cfg.potential)
    for r in values:
        if not 0.0 <= r <= radius:
            raise ConfigError(f"radius {r!r} lies outside [0, R = {radius:g}]")
    return values


def _located(cfg: RunConfig) -> PoleSet:
    return locate_poles(cfg.potential, cfg.window, cfg.tol)


def _expanded(
    cfg: RunConfig, pole_set: PoleSet, n_pairs: int | None = None, overlap: str = "closed"
) -> ExpansionData:
    """The expansion over the first ``n_pairs`` pole pairs (all when None)."""
    return build_expansion(cfg.potential, pole_set, cfg.psi0, n_pairs=n_pairs, overlap=overlap)


# ---------------------------------------------------------------------------
# subcommands


def cmd_poles(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(cfg, args)
    pole_set = _located(cfg)
    poles = pole_set.poles
    if args.nmax is not None:
        poles = poles[: args.nmax]
    rows = [(p.n, p.k.real, p.k.imag, p.residual) for p in poles]
    _write_csv(out / "poles.csv", cfg, "poles", ("n", "re_k", "im_k", "residual"), rows)
    return 0


def cmd_expansion(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(cfg, args)
    data = _expanded(cfg, _located(cfg), n_pairs=args.nmax)
    quad = overlap_matrix(data.states, method="quadrature")

    state_rows = [
        (n, k.real, k.imag, u_r.real, u_r.imag)
        for n, k, u_r in zip(data.indices, data.wavenumbers, data.boundary_values)
    ]
    _write_csv(
        out / "states.csv",
        cfg,
        "expansion",
        ("n", "re_k", "im_k", "re_u_edge", "im_u_edge"),
        state_rows,
    )

    overlap_rows = []
    for i, n in enumerate(data.indices):
        for j, l in enumerate(data.indices):
            overlap_rows.append(
                (
                    n,
                    l,
                    data.overlap[i, j].real,
                    data.overlap[i, j].imag,
                    quad[i, j].real,
                    quad[i, j].imag,
                )
            )
    _write_csv(
        out / "overlaps.csv",
        cfg,
        "expansion",
        ("n", "l", "re_closed", "im_closed", "re_quadrature", "im_quadrature"),
        overlap_rows,
    )

    coeff_rows = [
        (n, c.real, c.imag) for n, c in zip(data.indices, data.coefficients)
    ]
    _write_csv(
        out / "coefficients.csv", cfg, "expansion", ("n", "re_c", "im_c"), coeff_rows
    )
    return 0


def cmd_sumrule(cfg: RunConfig, args: argparse.Namespace) -> int:
    r = np.asarray(_r_points(cfg, args))
    out = _out_dir(cfg, args)
    truncations = _truncations(cfg, args)
    data = _expanded(cfg, _located(cfg), truncations[-1])
    rows = []
    for n in truncations:
        values = np.abs(sum_rule_residual(data, r, n_pairs=n))
        rows.extend((n, rr, vv) for rr, vv in zip(r, values))
    _write_csv(out / "sumrule.csv", cfg, "sumrule", ("n_pairs", "r", "abs_s"), rows)
    return 0


def cmd_nonescape(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(cfg, args)
    truncations = _truncations(cfg, args)
    grid = _time_grid(cfg, args)
    pole_set = _located(cfg)
    rows = []
    for overlap in ("closed", "quadrature"):
        # one overlap matrix at the largest truncation, sliced for the rest
        data = _expanded(cfg, pole_set, truncations[-1], overlap)
        sums = probability_sums(data, grid, truncations)
        for n in truncations:
            series = sums.series(n)
            rows.extend(
                (series.mode, n, t, p, series.imag_residual)
                for t, p in zip(series.times, series.probability)
            )
    _write_csv(
        out / "nonescape.csv",
        cfg,
        "nonescape",
        ("mode", "n_pairs", "t", "p", "imag_residual"),
        rows,
    )
    return 0


def cmd_tail(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(cfg, args)
    truncations = _truncations(cfg, args)
    grid = _time_grid(cfg, args)
    pole_set = _located(cfg)
    data = _expanded(cfg, pole_set, truncations[-1])

    # one pass gives every truncation's P(t); the largest opens the window
    try:
        sums = probability_sums(data, grid, truncations)
        slope_window = post_exponential_window(
            sums.series(truncations[-1]), pole_set.pole(1)
        )
    except NonescapeError:
        sums, slope_window = None, None
    report = convergence_study(data, truncations, slope_window, sums)
    rows = zip(
        report.truncations,
        report.t1_matrix,
        report.t1_quadrature,
        report.sumrule_l2,
        report.crossover,
        report.slope,
        report.slope_stderr,
    )
    _write_csv(
        out / "tail.csv",
        cfg,
        "tail",
        ("N", "D1_sum", "D1_integral", "sumrule_L2", "crossover_t", "slope", "slope_stderr"),
        rows,
    )
    return 0


def cmd_oracle(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(cfg, args)
    grid = _time_grid(cfg, args)
    if args.refine is not None:
        report = refine_and_compare(
            cfg.potential, cfg.psi0, cfg.oracle_grid, factor=args.refine, times=grid
        )
        run = report.base
        _write_csv(
            out / "refinement.csv",
            cfg,
            "oracle",
            ("factor", "max_abs_dev", "max_rel_dev", "tolerance", "flagged"),
            [
                (
                    report.factor,
                    report.max_abs_dev,
                    report.max_rel_dev,
                    report.tolerance,
                    report.flagged,
                )
            ],
        )
    else:
        run = evolve_tdse(cfg.potential, cfg.psi0, cfg.oracle_grid, times=grid)
    horizon = run.horizon_time
    rows = [
        (t, p, norm, int(horizon is not None and t >= horizon))
        for t, p, norm in zip(run.series.times, run.series.probability, run.norms)
    ]
    _write_csv(
        out / "oracle.csv", cfg, "oracle", ("t", "p", "norm", "horizon_flag"), rows
    )
    return 0


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(cfg, args)
    truncations = _truncations(cfg, args)
    grid = _time_grid(cfg, args)

    pole_set = _located(cfg)
    data = _expanded(cfg, pole_set, truncations[-1])
    run = evolve_tdse(cfg.potential, cfg.psi0, cfg.oracle_grid, times=grid)
    sums = probability_sums(data, TimeGrid(times=run.series.times), truncations)
    verdict = adjudicate(run.series, run.horizon_time, sums, data, pole_set.pole(1))

    p_direct = run.series.probability
    header = ["t", "p_direct"]
    columns = [run.series.times, p_direct]
    for n, series in verdict.expansions.items():
        header.append(f"p_expansion_n{n}")
        columns.append(series.probability)
        header.append(f"rel_dev_n{n}")
        columns.append(np.abs(p_direct - series.probability) / series.probability)
    _write_csv(out / "compare.csv", cfg, "compare", header, zip(*columns))

    fit = verdict.direct_fit
    summary = {
        "config_hash": cfg.digest,
        "units": _UNITS_NOTE,
        "horizon_time": run.horizon_time,
        "window": list(verdict.window) if verdict.window is not None else None,
        "slope_direct": (
            {"value": fit.slope, "stderr": fit.stderr} if fit is not None else None
        ),
        "slope_expansion": {
            str(n): {"value": f.slope, "stderr": f.stderr}
            for n, f in verdict.expansion_fits.items()
        },
        "d1": {str(n): float(v) for n, v in verdict.d1.items()},
        "d1_ratio": verdict.d1_ratio,
        "crossover": {str(n): float(v) for n, v in verdict.crossover.items()},
        "max_rel_dev_lifetime_window": verdict.lifetime_dev,
        "verdict": verdict.text,
    }
    path = out / "summary.json"
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


def cmd_selftest(cfg: RunConfig, args: argparse.Namespace) -> int:
    return run_selftest(cfg, verbose=not args.quiet)


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (subcommand parsers inherit the class)."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonescape",
        description=(
            "Resonant-state expansion of the quantum nonescape probability, "
            "with a Crank-Nicolson reference integrator"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func: Callable) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if name != "selftest":
            p.add_argument("--config", default=None, help="JSON run configuration")
            p.add_argument("--out", default=None, help="output directory")
        return p

    p = add("poles", "locate matching-function zeros, write poles.csv", cmd_poles)
    p.add_argument("--nmax", type=int, default=None, help="keep only the first N poles")

    p = add("expansion", "write states.csv, overlaps.csv, coefficients.csv", cmd_expansion)
    p.add_argument("--nmax", type=int, default=None, help="truncate to N pole pairs")

    p = add("sumrule", "write |S_N(r)| table (sumrule.csv)", cmd_sumrule)
    p.add_argument("--nmax", type=int, default=None, help="cap the truncation list")
    p.add_argument("--r", default=None, help="comma-separated radii")

    p = add("nonescape", "write P(t) per truncation and overlap mode", cmd_nonescape)
    p.add_argument("--nmax", type=int, default=None, help="cap the truncation list")
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=None)

    p = add("tail", "write the truncation study (tail.csv)", cmd_tail)
    p.add_argument("--nmax", type=int, default=None, help="cap the truncation list")
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=None)

    p = add("oracle", "direct Crank-Nicolson P(t) (oracle.csv)", cmd_oracle)
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--refine", type=int, default=None, help="also run a refinement study")

    p = add("compare", "joined curves, slopes, verdict (compare.csv, summary.json)", cmd_compare)
    p.add_argument("--nmax", type=int, default=None, help="cap the truncation list")
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=None)

    p = add("selftest", "run the built-in acceptance checks", cmd_selftest)
    p.add_argument("--quiet", action="store_true", help="suppress progress logs")

    return parser


def _emit_error(category: str, exit_code: int, exc: BaseException) -> None:
    payload = {
        "error": {
            "category": category,
            "exit_code": exit_code,
            "type": type(exc).__name__,
            "message": str(exc),
        }
    }
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes (0/1/2)."""
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "nmax", None) is not None and args.nmax < 1:
            raise ConfigError(f"--nmax must be at least 1, got {args.nmax}")
        # selftest takes no --config: it runs on the packaged default
        return args.func(load_config(getattr(args, "config", None)), args)
    except (ConfigError, InvalidPotential, InvalidState) as exc:
        _emit_error("config", 2, exc)
        return 2
    except NonescapeError as exc:
        _emit_error("domain", 1, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
