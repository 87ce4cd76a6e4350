"""Correctness gate for each benchmark operation.

Every check compares two independent routes the package itself provides
(closed form against quadrature, expansion against the oracle, located
poles against the boundary winding count) rather than bytes.  Frozen
reference values are compared only when the pass runs the seed-0 inputs.
A check returns ``None`` when the output is correct and a one-line reason
otherwise.  Package functions are called through their modules, so a traced
pass records them in its verify phase.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from nonescape import dynamics, gamow, oracle, poles
from nonescape.cli import RunConfig

from workloads import FROZEN_CROSSOVER, FROZEN_POLES

# Tolerances.  The overlap one is selftest check 3's and the D1 one the
# rtol of tail_coefficient_t1's own cross-check; the oracle one bounds the
# deviation from the N = 40 expansion at t >= 0.1 tau_1 at the level the
# reference grid holds over the lifetime window; the packet ones are
# selftest check 9's.
POLE_STEP_TOL = 1e-9  # |J / J'| at a listed pole, relative to 1 + |k|
FROZEN_POLE_TOL = 1e-10
OVERLAP_TOL = 1e-8
COEFF_MIRROR_TOL = 1e-12
PROBABILITY_TOL = 1e-6
D1_ROUTE_TOL = 1e-6
ORACLE_TOL = 3.5e-4
NORM_DRIFT_PER_1E4 = 1e-8
DENSITY_TOL = 1e-4


@dataclass
class Context:
    """What a check needs: the parsed config, the output directory, the op's payload."""

    config: RunConfig
    out: Path
    frozen: bool
    payload: Any = None


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CLI CSV file, skipping its ``#`` comment block."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    columns = {}
    for i, name in enumerate(header):
        values = [row[i] for row in body]
        try:
            columns[name] = np.array([float(v) for v in values])
        except ValueError:
            columns[name] = np.array(values)
    return columns


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def check_poles(ctx: Context) -> str | None:
    cfg = ctx.config
    table = read_csv(ctx.out / "poles.csv")
    ks = table["re_k"] + 1j * table["im_k"]
    audit = poles.winding_count(cfg.potential, cfg.window)
    if len(ks) != audit:
        return f"{len(ks)} poles listed, winding count {audit}"
    if not np.array_equal(table["n"], np.arange(1, len(ks) + 1)):
        return "pole indices are not 1..N"
    j, dj = poles.matching_function(cfg.potential, ks)
    step = float(np.max(np.abs(j / dj) / (1.0 + np.abs(ks))))
    if step > POLE_STEP_TOL:
        return f"Newton step {step:.2e} at a listed pole exceeds {POLE_STEP_TOL:g}"
    if ctx.frozen:
        for n, k_ref in FROZEN_POLES.items():
            if n <= len(ks) and abs(ks[n - 1] - k_ref) > FROZEN_POLE_TOL * abs(k_ref):
                return f"pole {n} = {ks[n - 1]} differs from frozen {k_ref}"
    return None


def check_expansion(ctx: Context) -> str | None:
    ov = read_csv(ctx.out / "overlaps.csv")
    closed = ov["re_closed"] + 1j * ov["im_closed"]
    quad = ov["re_quadrature"] + 1j * ov["im_quadrature"]
    dev = _rel(quad, closed)
    if dev > OVERLAP_TOL:
        return f"closed vs quadrature overlaps: max rel dev {dev:.2e} > {OVERLAP_TOL:g}"
    co = read_csv(ctx.out / "coefficients.csv")
    c = dict(zip(co["n"].astype(int), co["re_c"] + 1j * co["im_c"]))
    pos = [n for n in c if n > 0]
    dev = max(abs(c[-n] - np.conj(c[n])) / abs(c[n]) for n in pos)
    if dev > COEFF_MIRROR_TOL:
        return f"C_-n vs conj(C_n): max rel dev {dev:.2e} > {COEFF_MIRROR_TOL:g}"
    return None


def check_nonescape(ctx: Context) -> str | None:
    table = read_csv(ctx.out / "nonescape.csv")
    closed = table["mode"] == "closed"
    quad = table["mode"] == "quadrature"
    if not closed.any() or closed.sum() != quad.sum():
        return "closed and quadrature rows do not pair up"
    if not np.array_equal(table["t"][closed], table["t"][quad]):
        return "closed and quadrature time samples differ"
    dev = _rel(table["p"][quad], table["p"][closed])
    if dev > PROBABILITY_TOL:
        return f"closed vs quadrature P(t): max rel dev {dev:.2e} > {PROBABILITY_TOL:g}"
    return None


def check_tail(ctx: Context) -> str | None:
    table = read_csv(ctx.out / "tail.csv")
    dev = _rel(table["D1_integral"], table["D1_sum"])
    if dev > D1_ROUTE_TOL:
        return f"D1 routes: max rel dev {dev:.2e} > {D1_ROUTE_TOL:g}"
    ladder = table["crossover_t"]
    if not np.all(np.diff(ladder) > 0.0):
        return f"crossover ladder not increasing: {ladder.tolist()}"
    if ctx.frozen:
        for n, t in zip(table["N"].astype(int), ladder):
            if n in FROZEN_CROSSOVER and round(float(t), 2) != FROZEN_CROSSOVER[n]:
                return f"crossover at N={n} is {t:.4f}, frozen {FROZEN_CROSSOVER[n]}"
    return None


def check_sumrule(ctx: Context) -> str | None:
    table = read_csv(ctx.out / "sumrule.csv")
    for r in np.unique(table["r"]):
        at_r = table["r"] == r
        values = table["abs_s"][at_r][np.argsort(table["n_pairs"][at_r])]
        if not np.all(np.diff(values) < 0.0):
            return f"|S_N({r:g})| does not fall with N: {values.tolist()}"
    return None


def check_oracle(ctx: Context) -> str | None:
    cfg = ctx.config
    table = read_csv(ctx.out / "oracle.csv")
    pole_set = poles.locate_poles(cfg.potential, cfg.window, cfg.tol)
    data = gamow.build_expansion(cfg.potential, pole_set, cfg.psi0)
    n_pairs = min(40, data.n_pairs)
    t = table["t"]
    sel = (t >= 0.1 * dynamics.lifetime(pole_set.pole(1))) & (table["horizon_flag"] == 0)
    if not sel.any():
        return "no oracle samples at t >= 0.1 tau_1 before the horizon"
    expansion = dynamics.nonescape_probability(data, dynamics.TimeGrid(times=t[sel]), n_pairs=n_pairs)
    dev = _rel(table["p"][sel], expansion.probability)
    if dev > ORACLE_TOL:
        return f"oracle vs N={n_pairs} expansion: max rel dev {dev:.2e} > {ORACLE_TOL:g}"
    return None


def check_packet(ctx: Context) -> str | None:
    run, params = ctx.payload
    drift = float(np.max(np.abs(run.norms - 1.0)))
    per_1e4 = drift / (run.grid.n_steps / 1e4)
    if per_1e4 > NORM_DRIFT_PER_1E4:
        return f"norm drift {per_1e4:.2e} per 1e4 steps > {NORM_DRIFT_PER_1E4:g}"
    if len(run.snapshots) != len(params["snapshots"]):
        return f"{len(run.snapshots)} snapshots taken, {len(params['snapshots'])} asked"
    dev = 0.0
    for t_snap, psi in run.snapshots:
        exact = oracle.gaussian_packet_exact(
            run.r_interior,
            t_snap,
            sigma=params["sigma"],
            center=params["center"],
            momentum=params["momentum"],
        )
        dev = max(dev, float(np.max(np.abs(np.abs(psi) ** 2 - np.abs(exact) ** 2))))
    if dev > DENSITY_TOL:
        return f"free-packet density dev {dev:.2e} > {DENSITY_TOL:g}"
    return None


CHECKS: dict[str, Callable[[Context], str | None]] = {
    "poles": check_poles,
    "expansion": check_expansion,
    "nonescape": check_nonescape,
    "tail": check_tail,
    "sumrule": check_sumrule,
    "oracle": check_oracle,
    "packet": check_packet,
}
