"""Command-line front end: config ingestion, pipelines, CSV/JSON emission.

Every subcommand reads one JSON run configuration (the packaged default
describes the reference delta-shell model), writes deterministic CSV files
with a metadata comment block, and exits 0 on success, 1 on a numerical
domain error, or 2 on a configuration error.  Errors are emitted to stderr
as a one-line JSON object so drivers can dispatch without parsing prose.

A field of DeltaShell, BoxMode, SearchWindow or GridSpec *is* its key in
the delta-shell ``potential``, ``initial_state``, ``pole_search`` or
``oracle_grid`` section, with the field's type and default (none: required).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence, TextIO

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
    try:
        return float(value)
    except OverflowError as exc:  # an integer past the largest double
        raise ConfigError(
            f"{where} overflows a float, got a {value.bit_length()}-bit integer"
        ) from exc


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be a boolean")
    return value


_CONVERTERS = {"float": _as_float, "int": _as_int, "bool": _as_bool}


def _build(cls: type, section: dict, where: str, extra: tuple[str, ...] = ("kind",)) -> Any:
    """``cls`` from a config section whose keys are its fields (plus ``extra``):
    a field with no default is required, and each value is checked, in field
    order, against the field's annotated type."""
    kwargs: dict[str, Any] = {}
    declared = fields(cls)
    _reject_unknown(section, (*extra, *(f.name for f in declared)), where)
    for f in declared:
        if f.name in section or f.default is MISSING:
            # a boolean's message has always named its section
            label = f"{where}.{f.name}" if f.type == "bool" else f.name
            kwargs[f.name] = _CONVERTERS[f.type](_get(section, f.name, where), label)
    return cls(**kwargs)


def _object(raw: dict, key: str) -> dict:
    """The section ``raw[key]``, required and checked to be an object."""
    section = _get(raw, key, "configuration")
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object")
    return section


def _sample_count(value: int, where: str) -> int:
    if not 1 <= value <= MAX_TIME_SAMPLES:
        raise ConfigError(f"{where} must lie in 1..{MAX_TIME_SAMPLES}, got {value}")
    return value


def _parse_potential(section: dict) -> DeltaShell | PiecewiseConstant:
    kind = _get(section, "kind", "potential")
    if kind == "delta_shell":
        return _build(DeltaShell, section, "potential")
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


def _parse_time_grid(section: dict) -> TimeGrid:
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

    search = _object(raw, "pole_search")
    window = _build(SearchWindow, search, "pole_search", extra=("tol",))
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

    potential = _parse_potential(_object(raw, "potential"))
    state = _object(raw, "initial_state")
    if _get(state, "kind", "initial_state") != "box_mode":
        raise ConfigError(f"unknown initial_state kind {state['kind']!r}")
    cfg = RunConfig(
        potential=potential,
        psi0=_build(BoxMode, state, "initial_state"),
        window=window,
        tol=tol,
        truncations=n_list,
        time_grid=_parse_time_grid(_object(raw, "time_grid")),
        oracle_grid=_build(GridSpec, _object(raw, "oracle_grid"), "oracle_grid", extra=()),
        r_points=r_points,
        output_dir=_output_dir(_get(raw, "output_dir", "configuration", "nonescape-out")),
        digest=digest,
    )
    _check_radii(cfg.r_points, cfg.potential)
    return cfg


def _output_dir(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"output_dir must be a non-empty string, got {value!r}")
    return value


def _check_radii(
    values: tuple[float, ...], potential: DeltaShell | PiecewiseConstant
) -> tuple[float, ...]:
    """``values``, each checked to lie in [0, R]."""
    radius = potential_range(potential)
    for r in values:
        if not 0.0 <= r <= radius:
            raise ConfigError(f"radius {r!r} lies outside [0, R = {radius:g}]")
    return values


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


def _configure(args: argparse.Namespace) -> RunConfig:
    """The run configuration with every flag applied, each value checked.

    ``--nmax`` caps the truncations (a cap below every one keeps just N),
    ``--r`` sets the radii and ``--out`` the output directory.  ``--tmin``
    and ``--tmax`` keep the configured times in their range or, with
    ``--points``, bound a new log grid.  Commands read only the result.
    """
    # argparse reads "--flag=--" as an empty list, past the flag's type
    for name, value in vars(args).items():
        if isinstance(value, list):
            raise ConfigError(f"--{name} takes one value, got {value!r}")
    nmax = getattr(args, "nmax", None)
    if nmax is not None and nmax < 1:
        raise ConfigError(f"--nmax must be at least 1, got {nmax}")
    # selftest takes no --config: it runs on the packaged default
    cfg = load_config(getattr(args, "config", None))
    changes: dict[str, Any] = {}
    if nmax is not None:
        changes["truncations"] = tuple(n for n in cfg.truncations if n <= nmax) or (nmax,)
    t_min, t_max, points = (getattr(args, flag, None) for flag in ("tmin", "tmax", "points"))
    times = cfg.time_grid.times
    lo = t_min if t_min is not None else float(times[0])
    hi = t_max if t_max is not None else float(times[-1])
    if points is not None:
        if not (0.0 < lo < hi < math.inf):
            raise ConfigError("need 0 < tmin < tmax < inf for a log grid")
        n = _sample_count(points, "--points")
        with np.errstate(over="ignore"):  # geomspace sets its end points exactly
            changes["time_grid"] = TimeGrid(np.geomspace(lo, hi, n))
    elif t_min is not None or t_max is not None:
        kept = (times >= lo) & (times <= hi)
        if not kept.any():
            raise ConfigError("tmin/tmax exclude every configured time sample")
        changes["time_grid"] = TimeGrid(times[kept])
    r_flag = getattr(args, "r", None)
    if r_flag is not None:
        try:
            radii = tuple(float(tok) for tok in r_flag.split(","))
        except ValueError:
            raise ConfigError(f"--r expects comma-separated numbers, got {r_flag!r}")
        changes["r_points"] = _check_radii(radii, cfg.potential)
    if getattr(args, "out", None) is not None:
        changes["output_dir"] = _output_dir(args.out)
    return replace(cfg, **changes)


# ---------------------------------------------------------------------------
# output helpers


# The %-conversion of a CSV cell, looked up by the value's exact type: bools
# as 0 or 1, floats to 17 significant digits (round-trip).  Other floating
# types take %.17g too and everything else str, so a numpy bool prints
# True or False.
_CONVERSIONS = {bool: "%d", int: "%d", np.int64: "%d", float: "%.17g", np.float64: "%.17g"}


def _cell(value: Any) -> str:
    conversion = _CONVERSIONS.get(type(value))
    if conversion is None:
        conversion = "%.17g" if isinstance(value, (float, np.floating)) else "%s"
    return conversion % (value,)


@contextmanager
def _output_file(cfg: RunConfig, name: str) -> Iterator[TextIO]:
    """``name`` in the output directory, which the first write makes, open
    for writing; an OS error on the way is a ConfigError naming the path."""
    path = Path(cfg.output_dir) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    print(path)


def _write_csv(
    name: str, cfg: RunConfig, command: str, header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    with _output_file(cfg, name) as fh:
        fh.write(f"# nonescape {command}\n")
        fh.write(f"# config_hash: {cfg.digest}\n")
        fh.write(f"# units: {_UNITS_NOTE}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _located(cfg: RunConfig) -> PoleSet:
    return locate_poles(cfg.potential, cfg.window, cfg.tol)


def _expanded(cfg: RunConfig, pole_set: PoleSet, n_pairs: int | None = None) -> ExpansionData:
    """The expansion over the first ``n_pairs`` pole pairs (all when None)."""
    return build_expansion(cfg.potential, pole_set, cfg.psi0, n_pairs=n_pairs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_poles(cfg: RunConfig, args: argparse.Namespace) -> int:
    pole_set = _located(cfg)
    k, residual = pole_set.k[: args.nmax], pole_set.residual[: args.nmax]
    rows = zip(range(1, k.size + 1), k.real, k.imag, residual)
    _write_csv("poles.csv", cfg, "poles", ("n", "re_k", "im_k", "residual"), rows)
    return 0


def cmd_expansion(cfg: RunConfig, args: argparse.Namespace) -> int:
    data = _expanded(cfg, _located(cfg), n_pairs=args.nmax)
    quad = overlap_matrix(data.states, method="quadrature")

    state_rows = [
        (n, k.real, k.imag, u_r.real, u_r.imag)
        for n, k, u_r in zip(data.states.n, data.states.k, data.states.boundary_value)
    ]
    _write_csv(
        "states.csv",
        cfg,
        "expansion",
        ("n", "re_k", "im_k", "re_u_edge", "im_u_edge"),
        state_rows,
    )

    # row-major over (n, l), as the matrices ravel
    size = len(data.states)
    overlap_columns = (
        np.repeat(data.states.n, size),
        np.tile(data.states.n, size),
        data.overlap.real.ravel(),
        data.overlap.imag.ravel(),
        quad.real.ravel(),
        quad.imag.ravel(),
    )
    _write_csv(
        "overlaps.csv",
        cfg,
        "expansion",
        ("n", "l", "re_closed", "im_closed", "re_quadrature", "im_quadrature"),
        zip(*overlap_columns),
    )

    coeff_rows = [
        (n, c.real, c.imag) for n, c in zip(data.states.n, data.coefficients)
    ]
    _write_csv(
        "coefficients.csv", cfg, "expansion", ("n", "re_c", "im_c"), coeff_rows
    )
    return 0


def cmd_sumrule(cfg: RunConfig, args: argparse.Namespace) -> int:
    r = np.asarray(cfg.r_points)
    data = _expanded(cfg, _located(cfg), cfg.truncations[-1])
    rows = []
    for n in cfg.truncations:
        values = np.abs(sum_rule_residual(data.truncate(n), r))
        rows.extend((n, rr, vv) for rr, vv in zip(r, values))
    _write_csv("sumrule.csv", cfg, "sumrule", ("n_pairs", "r", "abs_s"), rows)
    return 0


def cmd_nonescape(cfg: RunConfig, args: argparse.Namespace) -> int:
    truncations = cfg.truncations
    # one expansion at the largest truncation, sliced for the rest
    data = _expanded(cfg, _located(cfg), truncations[-1])
    rows = []
    for mode in ("closed", "quadrature"):
        if mode == "quadrature":  # the Gram matrix cmd_expansion writes
            data = replace(data, overlap=overlap_matrix(data.states, method=mode))
        sums = probability_sums(data, cfg.time_grid, truncations)
        for n in truncations:
            series = sums.series(n)
            rows.extend(
                (mode, n, t, p, series.imag_residual)
                for t, p in zip(series.times, series.probability)
            )
    _write_csv(
        "nonescape.csv",
        cfg,
        "nonescape",
        ("mode", "n_pairs", "t", "p", "imag_residual"),
        rows,
    )
    return 0


def cmd_tail(cfg: RunConfig, args: argparse.Namespace) -> int:
    truncations = cfg.truncations
    pole_set = _located(cfg)
    data = _expanded(cfg, pole_set, truncations[-1])

    # one pass gives every truncation's P(t); the largest opens the window
    try:
        sums = probability_sums(data, cfg.time_grid, truncations)
        slope_window = post_exponential_window(
            sums.series(truncations[-1]), pole_set.pole(1)
        )
    except NonescapeError:
        sums, slope_window = None, None
    report = convergence_study(data, truncations, slope_window, sums)
    rows = zip(
        report.truncations,
        report.tails[:, 0],
        report.t1_quadrature,
        report.sumrule_l2,
        report.crossover,
        report.slope,
        report.slope_stderr,
    )
    _write_csv(
        "tail.csv",
        cfg,
        "tail",
        ("N", "D1_sum", "D1_integral", "sumrule_L2", "crossover_t", "slope", "slope_stderr"),
        rows,
    )
    return 0


def cmd_oracle(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.refine is not None:
        (report,) = refine_and_compare(
            cfg.potential, cfg.psi0, cfg.oracle_grid, (args.refine,), times=cfg.time_grid
        )
        run = report.base
        _write_csv(
            "refinement.csv",
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
        run = evolve_tdse(cfg.potential, cfg.psi0, cfg.oracle_grid, times=cfg.time_grid)
    horizon = run.horizon_time
    rows = [
        (t, p, norm, int(horizon is not None and t >= horizon))
        for t, p, norm in zip(run.series.times, run.series.probability, run.norms)
    ]
    _write_csv("oracle.csv", cfg, "oracle", ("t", "p", "norm", "horizon_flag"), rows)
    return 0


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> int:
    truncations = cfg.truncations
    pole_set = _located(cfg)
    data = _expanded(cfg, pole_set, truncations[-1])
    run = evolve_tdse(cfg.potential, cfg.psi0, cfg.oracle_grid, times=cfg.time_grid)
    sums = probability_sums(data, TimeGrid(times=run.series.times), truncations)
    report = convergence_study(data, truncations)
    verdict = adjudicate(run.series, run.horizon_time, sums, report, pole_set.pole(1))

    p_direct = run.series.probability
    header = ["t", "p_direct"]
    columns = [run.series.times, p_direct]
    for n, series in verdict.expansions.items():
        header.append(f"p_expansion_n{n}")
        columns.append(series.probability)
        header.append(f"rel_dev_n{n}")
        columns.append(np.abs(p_direct - series.probability) / series.probability)
    _write_csv("compare.csv", cfg, "compare", header, zip(*columns))

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
        "d1": {str(n): float(v) for n, v in zip(truncations, report.tails[:, 0])},
        "d1_ratio": report.d1_ratio,
        "crossover": {str(n): float(v) for n, v in zip(truncations, report.crossover)},
        "max_rel_dev_lifetime_window": verdict.lifetime_dev,
        "verdict": verdict.text,
    }
    with _output_file(cfg, "summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
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

    # the flag groups several commands share, each declared once
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", default=None, help="JSON run configuration")
    io.add_argument("--out", default=None, help="output directory")
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--nmax", type=int, default=None, help="cap the truncation list")
    times = argparse.ArgumentParser(add_help=False)
    times.add_argument("--tmin", type=float, default=None)
    times.add_argument("--tmax", type=float, default=None)
    times.add_argument("--points", type=int, default=None)

    def add(name: str, help_text: str, func: Callable, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, parents=list(parents))
        p.set_defaults(func=func)
        return p

    p = add("poles", "locate matching-function zeros, write poles.csv", cmd_poles, io)
    p.add_argument("--nmax", type=int, default=None, help="keep only the first N poles")

    p = add("expansion", "write states.csv, overlaps.csv, coefficients.csv", cmd_expansion, io)
    p.add_argument("--nmax", type=int, default=None, help="truncate to N pole pairs")

    p = add("sumrule", "write |S_N(r)| table (sumrule.csv)", cmd_sumrule, io, cap)
    p.add_argument("--r", default=None, help="comma-separated radii")

    add("nonescape", "write P(t) per truncation and overlap mode", cmd_nonescape, io, cap, times)
    add("tail", "write the truncation study (tail.csv)", cmd_tail, io, cap, times)

    p = add("oracle", "direct Crank-Nicolson P(t) (oracle.csv)", cmd_oracle, io, times)
    p.add_argument("--refine", type=int, default=None, help="also run a refinement study")

    verdict = "joined curves, slopes, verdict (compare.csv, summary.json)"
    add("compare", verdict, cmd_compare, io, cap, times)

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
        return args.func(_configure(args), args)
    except (ConfigError, InvalidPotential, InvalidState) as exc:
        _emit_error("config", 2, exc)
        return 2
    except NonescapeError as exc:
        _emit_error("domain", 1, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
