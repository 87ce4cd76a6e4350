"""Benchmark workloads: seeded inputs and the operations each one runs.

A workload is built from a seed.  Seed 0 gives the reference inputs exactly;
other seeds jitter the delta-shell strength and the time-grid endpoints by
up to 3 % and move the pole-search edge to midway between the two poles
that straddle it, so every seed locates the same number of poles.

The reference strength 6 sits close to the oracle's stability limit
(dt * lambda / dr <= 0.5 allows lambda <= 6.25), which caps the jitter.

Sizes are cut from the full reference runs so that every operation takes
at most a few seconds, which keeps each pair of package and reference
runs (see ``run.py``) inside one phase of machine speed and fits several
pairs in a run.  The cuts keep what each operation is meant to stress: quadrature overlaps are most of
``nonescape``, P(t) is most of ``tail-wide``, and the oracle runs only
steps from the subnormal-heavy start.

This module imports nothing from the package, so ``run.py`` can build
inputs before any child process starts.
"""

from __future__ import annotations

import cmath
import copy
import math
import random
from dataclasses import dataclass
from typing import Callable

_JITTER = 0.03

# The packaged default run configuration, frozen here so that a later
# change to the package default does not silently change the benchmark.
REFERENCE_CONFIG = {
    "potential": {"kind": "delta_shell", "strength": 6.0, "radius": 1.0},
    "initial_state": {"kind": "box_mode", "mode": 1, "radius": 1.0},
    "pole_search": {"re_max": 127.5, "im_min": -3.0, "tol": 1e-12},
    "truncations": [5, 10, 20, 40],
    "time_grid": {"kind": "log", "t_min": 0.05, "t_max": 42.0, "per_decade": 40},
    "oracle_grid": {
        "box_size": 240.0,
        "dr": 0.005,
        "dt": 0.0004,
        "t_final": 42.0,
        "absorber_width": 120.0,
        "absorber_strength": 15.0,
    },
    "r_points": [0.25, 0.5, 0.75],
    "output_dir": "nonescape-out",
}

# The absorber-free free Gaussian packet of selftest check 9 (which runs it
# to t = 1.5; the workloads stop earlier).
REFERENCE_PACKET = {
    "sigma": 0.32,
    "center": 2.4,
    "momentum": 1.0,
    "support": 5.0,
    "dr_sample": 0.004,
    "free_range": 5.0,
    "grid": {
        "box_size": 50.0,
        "dr": 0.004,
        "dt": 2.0e-4,
        "t_final": 1.5,
        "smooth_initial": False,
    },
    "times": {"start": 0.05, "stop": 1.5, "points": 30},
    "snapshots": [0.375, 0.75, 1.125, 1.5],
}

# Reference values that hold for seed 0 only.  The poles are the frozen
# high-precision roots of the reference delta shell (lambda = 6, R = 1);
# the crossover ladder is the slope -2 crossing time per truncation N.
FROZEN_POLES = {
    1: 2.7579383212949247 - 0.14043273246623328j,
    2: 5.713475899361956 - 0.3701480288821101j,
    3: 8.77522818235715 - 0.5553466505878303j,
    40: 124.8828545054643 - 1.864402593809498j,
}
FROZEN_CROSSOVER = {5: 1.10, 10: 3.05, 20: 8.39, 40: 23.15, 80: 64.26, 160: 179.38}


def delta_shell_pole(strength: float, radius: float, n: int) -> complex:
    """The n-th fourth-quadrant zero of J(k) = cos kR + (lambda - ik) sin kR / k.

    Newton iteration from the large-n asymptote; used only to place the
    search-window edge between two poles.
    """
    k = complex(n * math.pi / radius - 0.5, -0.5 * math.log(2.0 * n * math.pi / strength))
    for _ in range(100):
        s, c = cmath.sin(k * radius), cmath.cos(k * radius)
        j = c + (strength - 1j * k) * s / k
        dj = (
            -radius * s
            - 1j * s / k
            + (strength - 1j * k) * (k * radius * c - s) / (k * k)
        )
        step = j / dj
        k -= step
        if abs(step) <= 1e-13 * abs(k):
            break
    if abs(k.real * radius - n * math.pi) > 0.5 * math.pi or k.imag >= 0.0:
        raise ValueError(f"pole {n} of the delta shell did not converge: {k}")
    return k


@dataclass(frozen=True)
class Workload:
    """A named workload: ``build(seed)`` returns the pass specification.

    ``reference_s`` is the summed operation time of the frozen reference
    copy on the reference machine (2-vCPU VM; median of ten seeds), the
    scale ``run.py`` reports ``wall_s`` in.
    """

    name: str
    why: str
    build: Callable[[int], dict]
    reference_s: float


def _jittered(
    rng: random.Random, seed: int, value: float, lo: float = -1.0, hi: float = 1.0
) -> float:
    if seed == 0:
        return value
    return value * (1.0 + _JITTER * rng.uniform(lo, hi))


def _overridden(reference: dict, overrides: dict) -> dict:
    """A deep copy of ``reference`` with sections updated (dicts) or replaced."""
    doc = copy.deepcopy(reference)
    for key, value in overrides.items():
        if isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


def _config(seed: int, *, re_max: float, n_poles: int, **overrides) -> dict:
    """Reference config with ``overrides``, then seed jitter applied."""
    rng = random.Random(seed)
    cfg = _overridden(REFERENCE_CONFIG, overrides)
    pot = cfg["potential"]
    pot["strength"] = _jittered(rng, seed, pot["strength"])
    grid = cfg["time_grid"]
    grid["t_min"] = _jittered(rng, seed, grid["t_min"])
    grid["t_max"] = _jittered(rng, seed, grid["t_max"])
    if seed == 0:
        cfg["pole_search"]["re_max"] = re_max
    else:
        below = delta_shell_pole(pot["strength"], pot["radius"], n_poles)
        above = delta_shell_pole(pot["strength"], pot["radius"], n_poles + 1)
        cfg["pole_search"]["re_max"] = 0.5 * (below.real + above.real)
    return cfg


def _packet(seed: int, **overrides) -> dict:
    rng = random.Random(f"packet-{seed}")
    packet = _overridden(REFERENCE_PACKET, overrides)
    times = packet["times"]
    times["start"] = _jittered(rng, seed, times["start"])
    # sample times past t_final are dropped by the integrator: only shrink
    times["stop"] = _jittered(rng, seed, times["stop"], hi=0.0)
    return packet


def _cli(command: str, *args: str, config: str = "main", name: str | None = None) -> dict:
    return {
        "name": name or command,
        "kind": "cli",
        "check": command,
        "argv": [command, *args],
        "config": config,
    }


_PACKET_OP = {"name": "packet", "kind": "packet", "check": "packet"}


def _spec(seed: int, configs: dict, ops: list, packet: dict | None = None) -> dict:
    return {"seed": seed, "frozen": seed == 0, "configs": configs, "ops": ops, "packet": packet}


def spectral_pipeline(seed: int) -> dict:
    """The reference problem (40 poles), then a wide spectrum (319 poles)."""
    ref = _config(seed, re_max=127.5, n_poles=40)
    wide = _config(
        seed,
        re_max=1002.0,
        n_poles=319,
        truncations=[10, 20, 40, 80, 160],
        time_grid={"t_min": 0.05, "t_max": 1.0e5, "per_decade": 10},
    )
    ops = [
        _cli("poles"),
        _cli("expansion", "--nmax", "20"),
        _cli("nonescape", "--nmax", "20"),
        _cli("tail"),
        _cli("sumrule"),
        _cli("poles", config="wide", name="poles-wide"),
        _cli("tail", config="wide", name="tail-wide"),
    ]
    return _spec(seed, {"main": ref, "wide": wide}, ops)


def oracle_start(seed: int) -> dict:
    cfg = _config(seed, re_max=127.5, n_poles=40, oracle_grid={"t_final": 0.08})
    packet = _packet(
        seed,
        grid={"t_final": 0.25},
        times={"stop": 0.25},
        snapshots=[0.0625, 0.125, 0.1875, 0.25],
    )
    return _spec(seed, {"main": cfg}, [_cli("oracle"), _PACKET_OP], packet=packet)


def tiny(seed: int) -> dict:
    """Every operation on small inputs; for the harness smoke test only."""
    cfg = _config(
        seed,
        re_max=127.5,
        n_poles=40,
        time_grid={"t_min": 0.05, "t_max": 2.0, "per_decade": 20},
        oracle_grid={
            "box_size": 10.0,
            "t_final": 0.08,
            "absorber_width": 5.0,
            "absorber_strength": 15.0,
        },
    )
    ops = [
        _cli("poles"),
        _cli("expansion", "--nmax", "5"),
        _cli("nonescape", "--nmax", "10"),
        _cli("tail"),
        _cli("sumrule"),
        _cli("oracle"),
        _PACKET_OP,
    ]
    packet = _packet(
        seed,
        grid={"t_final": 0.1},
        times={"start": 0.02, "stop": 0.1, "points": 5},
        snapshots=[0.05, 0.1],
    )
    return _spec(seed, {"main": cfg}, ops, packet=packet)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectral-pipeline",
            "pole search, Gamow quadrature overlaps, P(t) and tail study on 40 and on 319 poles; no oracle",
            spectral_pipeline,
            reference_s=10.0,
        ),
        Workload(
            "oracle-start",
            "Crank-Nicolson oracle alone, with absorber and with hard wall, in its subnormal-heavy first steps; no spectral layers",
            oracle_start,
            reference_s=5.5,
        ),
        Workload("tiny", "small inputs for the harness smoke test", tiny, reference_s=5.0),
    )
}
