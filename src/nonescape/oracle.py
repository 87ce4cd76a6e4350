"""Independent time-domain oracle: Crank-Nicolson integration of the TDSE.

This module knows nothing about resonant states.  It integrates

    i psi_t = -psi_rr + V(r) psi

on a uniform grid over [0, L] with hard walls, using the unconditionally
stable Crank-Nicolson scheme with a prefactorized tridiagonal solve, and
reports the nonescape probability P(t) = int_0^R |psi|^2 dr.  It exists to
adjudicate the resonant expansion: agreement between the two is evidence for
both, and the late-time power law measured here is the ground truth the
expansion's tail is tested against.

Practical obstacles to seeing the genuine t^-3 tail (P ~ 1e-12) and their
countermeasures, all optional and off by default except smoothing:

* Hard-wall reflections of fast spectral components return to [0, R] and
  bury the tail unless the box is made absurdly large.  An absorbing mask
  over [L - W, L], W = ``absorber_width``, multiplies psi after every step
  by exp(-dt * ``absorber_strength`` * sin^2(pi/2 (r - L + W) / W)).  Its
  ramp still reflects: on the reference run (L = 240, W = 120, strength
  15) P t^3 follows the expansion's t^-3 law within 0.6 % up to t ~ 34 and
  then swings about it, reaching 0.70 of it at t = 42.  With the absorber
  on, total norm decays by design, so the unitarity drift check is skipped
  and box integrity must be established by varying L instead.
* Sampling a kinked initial state injects near-Nyquist grid modes with
  almost zero group velocity; they linger near the origin at the 1e-10
  level.  One binomial [1/4, 1/2, 1/4] smoothing pass on the sampled
  initial data (``smooth_initial``) suppresses them by a factor
  cos^2(k dr / 2) without affecting resolved scales.
* Escaped density reaching the far wall contaminates later outputs.  The
  first time any density within five grid points of r = L reaches 1e-10
  is recorded as the contamination horizon.

Each step solves only on the leading block of nodes the state has reached.
A = I + i (dt/2) H is factored row by row, ahead of the state; with V >= 0
every pivot exceeds the off-diagonal in modulus, so gttrf swaps no rows and
the factors of a leading k x k block are the leading slices of A's factors.
Past the last nonzero node a full-box solve decays by about
|off-diagonal / pivot| per node, down to the smallest subnormal, and its
back substitution rounds those values to exactly zero.  A block one chunk
longer than the state's reach is accepted when its last few values are
exactly zero: the full-box solution is zero from there on, and the two
agree bit for bit on every nonzero value (zeros may differ in sign).
Otherwise the block grows by a chunk and the step is solved again.  The
whole box is solved once the state reaches it, or from the first row
interchange gttrf reports on.  This keeps the early steps out of the tens
of thousands of untouched nodes, where subnormal arithmetic costs ten times
normal arithmetic.

Memory follows the rows the state has reached, not the box.  A run
allocates its interior vectors untouched (the state, the right-hand
diagonal, gttrf's four factor diagonals and pivots, the right-hand side,
a buffer of off-diagonal products and the density buffer the norm is
summed from), so the pages of rows no step reaches are never written.
Set-up writes the nodes r (a float per node), the absorber mask over
[L - W, L], and the initial state only up to one node past its support.
Rows are built and factored in pieces that double, each starting from the
previous piece's last pivot, which gives the same bits as one whole-box
gttrf.  A built row keeps 140 bytes: the state, the right-hand diagonal
and side, the product buffer, four factor entries, a pivot index and a
density; a run that reaches the whole box (every long run) keeps them
all, as it did before rows were built on demand.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

from .dynamics import NonescapeSeries, TimeGrid
from .errors import ConfigError, InvalidState, UnstableParameters
from .model import (
    DeltaShell,
    InitialState,
    Potential,
    Sampled,
    delta_jump,
    evaluate_potential,
    initial_wavefunction,
    normalized,
    potential_range,
    segments,
    support_radius,
)

__all__ = [
    "GridSpec",
    "OracleResult",
    "evolve_tdse",
    "RefinementReport",
    "refine_and_compare",
    "gaussian_packet_exact",
    "sampled_gaussian",
]

_NORM_DRIFT_LIMIT = 1e-7
# Nodes a grid may hold.  A run that reaches the whole box then keeps 140
# bytes per node (1.4 GB) besides the nodes and the absorber mask.
_MAX_NODES = 10_000_000
_MAX_STEPS = 10_000_000  # time steps a run may take
_NORM_CHECK_STRIDE = 200
# Density within five nodes of r = L at which the contamination horizon is set.
_LEAK_THRESHOLD = 1e-10
# Nodes solved past the last nonzero one, and the step by which the block
# grows when the state outruns it.  On the packet run the front advances a
# median of 8 nodes per step and at most 24, and every margin node costs
# subnormal arithmetic in both sweeps (gttrs: 591 ns per node on subnormal
# input, 22 ns on random input), so the margin stays small.
_WINDOW_CHUNK = 32
# A block solve is accepted when its last _WINDOW_GUARD values are exactly 0.
_WINDOW_GUARD = 8
# Rows the first piece builds; each later piece at least doubles the rows
# built, so a run builds in O(log m) pieces.
_FIRST_ROWS = 1024
# Runs of at most this many steps output every step by default; longer
# runs sample a log grid from this many steps on.
_FIRST_OUTPUT_STEP = 10


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the oracle run.

    ``box_size`` (L) and ``t_final`` must be integer multiples of ``dr`` and
    ``dt``.  ``absorber_width``/``absorber_strength`` switch on the
    absorbing mask over [L - W, L]; both must be positive together, and W
    must exceed ``dr`` so that a node lies on the ramp.
    ``enforce_resolution`` may be dropped for deliberate under-resolution
    studies (Richardson checks); production validation keeps it on.
    """

    box_size: float
    dr: float
    dt: float
    t_final: float
    absorber_width: float = 0.0
    absorber_strength: float = 0.0
    smooth_initial: bool = True
    enforce_resolution: bool = True

    def __post_init__(self) -> None:
        for name in ("box_size", "dr", "dt", "t_final"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.dr >= self.box_size:
            raise ConfigError("dr must be smaller than the box")
        for total, step in (("box_size", "dr"), ("t_final", "dt")):
            if not math.isfinite(getattr(self, total) / getattr(self, step)):
                raise ConfigError(f"{total} / {step} overflows a float")
        if self.dt > self.t_final:
            raise ConfigError("dt must not exceed t_final")
        w, s = self.absorber_width, self.absorber_strength
        if not (np.isfinite(w) and np.isfinite(s)):
            raise ConfigError(f"absorber parameters must be finite, got {w} and {s}")
        if (w > 0.0) != (s > 0.0):
            raise ConfigError("absorber width and strength must be enabled together")
        if w < 0.0 or s < 0.0:
            raise ConfigError("absorber parameters must be non-negative")
        if w >= self.box_size:
            raise ConfigError("absorber cannot fill the whole box")
        if 0.0 < w <= self.dr:
            raise ConfigError(f"absorber width {w:g} must exceed dr = {self.dr:g}")
        self.n_nodes, self.n_steps  # each checks its integer multiple, once

    @cached_property
    def n_steps(self) -> int:
        steps = round(self.t_final / self.dt)
        if abs(steps * self.dt - self.t_final) > 1e-6 * self.dt:
            raise ConfigError("t_final must be an integer multiple of dt")
        return int(steps)

    @cached_property
    def n_nodes(self) -> int:
        nodes = round(self.box_size / self.dr)
        if abs(nodes * self.dr - self.box_size) > 1e-6 * self.dr:
            raise ConfigError("box_size must be an integer multiple of dr")
        return int(nodes) + 1

    def refined(self, factor: int) -> "GridSpec":
        """Same physical run with dr and dt divided by ``factor``."""
        if not 2 <= factor <= _MAX_NODES:  # a larger factor exceeds the node cap
            raise ConfigError(f"refinement factor must be >= 2 and <= {_MAX_NODES}")
        return replace(self, dr=self.dr / factor, dt=self.dt / factor)


@dataclass(frozen=True, eq=False)
class OracleResult:
    """P(t) samples plus run health data from one Crank-Nicolson evolution."""

    series: NonescapeSeries
    norms: np.ndarray
    horizon_time: float | None
    grid: GridSpec
    r_interior: np.ndarray
    snapshots: tuple[tuple[float, np.ndarray], ...]


def _validate_run(potential: Potential, psi0: InitialState, grid: GridSpec) -> int:
    if grid.n_nodes > _MAX_NODES:
        raise ConfigError(f"grid of {grid.n_nodes} nodes exceeds the cap of {_MAX_NODES}")
    if grid.n_steps > _MAX_STEPS:
        raise ConfigError(f"run of {grid.n_steps} steps exceeds the cap of {_MAX_STEPS}")
    radius = potential_range(potential)
    if grid.box_size < 10.0 * radius - 1e-9:
        raise ConfigError(
            f"box {grid.box_size} too small: need at least 10 x range = {10 * radius}"
        )
    if grid.enforce_resolution and grid.dr > radius / 200.0 * (1.0 + 1e-12):
        raise ConfigError(
            f"dr = {grid.dr} under-resolves the interaction region "
            f"(need <= range/200 = {radius / 200.0:g})"
        )
    for _, edge, _ in segments(potential):  # the last edge is the range R
        if abs(round(edge / grid.dr) * grid.dr - edge) > 1e-9 * max(1.0, edge):
            raise ConfigError(
                f"potential segment edge {edge} must fall on a grid node (dr = {grid.dr})"
            )
    j_r = round(radius / grid.dr)
    e_pot = 0.0
    if not isinstance(potential, DeltaShell):
        e_pot = max(height for _, _, height in potential.pieces)
    lam = delta_jump(potential)
    if lam:
        e_pot += lam / grid.dr
    if grid.dt * e_pot > 0.5 * (1.0 + 1e-9):
        raise ConfigError(
            f"dt = {grid.dt} too large for the potential scale: "
            f"dt * E_pot = {grid.dt * e_pot:.3g} exceeds 0.5"
        )
    if grid.absorber_width > 0.0 and grid.box_size - grid.absorber_width <= radius:
        raise ConfigError("absorber region must start beyond the potential range")
    if support_radius(psi0) > radius * (1.0 + 1e-12):
        raise InvalidState("initial state must be confined within the potential range")
    return j_r


@dataclass(eq=False)
class _Run:
    """Operators, output plan and running record of one evolution.

    :func:`evolve_tdse` and the full-box loop kept as a test reference both
    step with this, so the two differ only in how each step is solved.
    ``psi0`` is the normalized (smoothed) initial state on the interior
    nodes, zero from node ``span`` on; ``diag_b`` and ``factors``, gttrf's
    ``(dl, d, du, du2, ipiv)`` of A = I + i (dt/2) H, hold their rows only
    once :meth:`rows` has built them.  The absorber multiplies nodes
    ``mask_start:`` by ``mask`` after each step (an empty mask at
    ``mask_start = m`` when off).  ``density`` is the buffer the norm is
    summed from.
    """

    grid: GridSpec
    potential: Potential
    j_r: int
    r_int: np.ndarray
    psi0: np.ndarray
    span: int
    diag_b: np.ndarray
    factors: tuple[np.ndarray, ...]
    density: np.ndarray
    gttrf: Callable[..., tuple]
    gttrs: Callable[..., tuple[np.ndarray, int]]
    mask_start: int
    mask: np.ndarray
    out_steps: frozenset[int]
    snap_steps: frozenset[int]
    off_b: complex
    factored: int = 0
    swapped: bool = False
    out_t: list[float] = field(default_factory=list)
    out_p: list[float] = field(default_factory=list)
    out_norm: list[float] = field(default_factory=list)
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)
    horizon_time: float | None = None

    def rows(self, k: int) -> int:
        """Build the rows a solve on the leading ``k`` nodes uses, and return
        the block size that solve takes: ``k``, or the whole box once gttrf
        has swapped rows.

        A piece is factored one row past the rows it makes usable, so every
        row a solve uses has had its interchange decided.  Pieces at least
        double the rows factored.  Should one report an interchange, the
        whole box is built afresh in one piece and solved from then on.
        """
        m = self.r_int.size
        if not self.swapped and self.factored < min(m, k + 1):
            end = min(m, max(k + 1, 2 * self.factored, _FIRST_ROWS))
            if not self._factor(self.factored, end):
                self._factor(0, m)
                self.swapped = True
        return m if self.swapped else k

    def _factor(self, start: int, end: int) -> bool:
        """Build rows ``start:end`` and factor them with gttrf from row
        ``start - 1`` on, whose pivot is final; true when no rows swapped.

        Level, diagonals and factors come from the same ufuncs, in the same
        order, as a whole-box build, and a piece starting from the previous
        pivot continues gttrf's elimination exactly, so the rows hold the
        same bits as one whole-box gttrf.
        """
        dr, half = self.grid.dr, 0.5j * self.grid.dt
        inv_dr2 = 1.0 / (dr * dr)
        dl, d, du, du2, ipiv = self.factors
        level = evaluate_potential(self.potential, self.r_int[start:end])
        lam = delta_jump(self.potential)
        if lam and start < self.j_r <= end:
            level[self.j_r - 1 - start] += lam / dr
        np.add(2.0 * inv_dr2, level, out=level)
        diag_a = np.multiply(half, level, out=d[start:end])
        np.add(1.0, diag_a, out=diag_a)
        diag_b = np.multiply(half, level, out=self.diag_b[start:end])
        np.subtract(1.0, diag_b, out=diag_b)
        del level
        low = max(start - 1, 0)
        dl[low : end - 1] = du[low : end - 1] = -self.off_b
        # the overwrite flags let gttrf factor the slices in place
        *_, piece_du2, piece_ipiv, _ = self.gttrf(
            dl[low : end - 1], d[low:end], du[low : end - 1], 1, 1, 1
        )
        # The piece leaves du2 unset on its last decided row, end - 2, where
        # a whole-box gttrf, swapping no rows there, writes 0.
        du2[low : end - 2] = piece_du2
        du2[end - 2 : end - 1] = 0.0
        np.add(piece_ipiv, low, out=ipiv[low:end])
        self.factored = end
        return bool(np.array_equal(piece_ipiv, np.arange(1, end - low + 1)))

    def total_norm(self, psi: np.ndarray) -> float:
        """dr sum |psi|^2 over the whole box, the density written only where
        the state may be nonzero: over psi0's span and the rows factored."""
        n = max(self.span, self.factored)
        dens = np.abs(psi[:n], out=self.density[:n])
        np.square(dens, out=dens)
        return self.grid.dr * float(np.sum(self.density))

    def record(self, step: int, psi: np.ndarray) -> None:
        """Keep P, the norm and a snapshot of the full-length ``psi`` if due."""
        t = step * self.grid.dt
        if step in self.out_steps:
            inside = np.abs(psi[: self.j_r - 1]) ** 2
            edge = 0.5 * abs(psi[self.j_r - 1]) ** 2
            self.out_t.append(t)
            self.out_p.append(self.grid.dr * (float(np.sum(inside)) + edge))
            self.out_norm.append(self.total_norm(psi))
        if step in self.snap_steps:
            self.snapshots.append((t, psi.copy()))

    def watch_far_wall(self, step: int, psi: np.ndarray) -> None:
        """Set the horizon when density within five nodes of r = L leaks in."""
        if self.horizon_time is not None:
            return
        if float(np.max(np.abs(psi[-5:]) ** 2)) >= _LEAK_THRESHOLD:
            self.horizon_time = step * self.grid.dt

    def check_norm(self, step: int, psi: np.ndarray) -> None:
        """Without the absorber, hold the norm to 1 every few hundred steps."""
        if self.grid.absorber_width > 0.0 or not (
            step % _NORM_CHECK_STRIDE == 0 or step == self.grid.n_steps
        ):
            return
        drift = abs(self.total_norm(psi) - 1.0)
        if drift > _NORM_DRIFT_LIMIT:
            raise UnstableParameters(
                f"norm drift {drift:.3e} at t = {step * self.grid.dt:g} exceeds "
                f"{_NORM_DRIFT_LIMIT:g}"
            )

    def result(self) -> OracleResult:
        series = NonescapeSeries(
            times=np.asarray(self.out_t),
            probability=np.asarray(self.out_p),
            imag_residual=0.0,
            n_pairs=0,
        )
        return OracleResult(
            series=series,
            norms=np.asarray(self.out_norm),
            horizon_time=self.horizon_time,
            grid=self.grid,
            r_interior=self.r_int,
            snapshots=tuple(self.snapshots),
        )


def _prepare(
    potential: Potential,
    psi0: InitialState,
    grid: GridSpec,
    times: TimeGrid | None,
    sample_times: tuple[float, ...],
) -> _Run:
    """Validate, sample and normalize psi0, and allocate the Crank-Nicolson
    step's rows, which :meth:`_Run.rows` builds (see the module docstring)."""
    j_r = _validate_run(potential, psi0, grid)
    n_nodes, n_steps = grid.n_nodes, grid.n_steps
    dr, dt = grid.dr, grid.dt
    snap_steps = set()
    for t in map(float, sample_times):
        if not (math.isfinite(t) and t >= 0.0):
            raise ConfigError(f"sample times must be finite and non-negative, got {t}")
        # past t_final + dt first, where t / dt could overflow
        if t > grid.t_final + dt or round(t / dt) > n_steps:
            raise ConfigError(f"sample time {t:g} lies past the run (t_final = {grid.t_final:g})")
        snap_steps.add(round(t / dt))

    r_int = dr * np.arange(1, n_nodes - 1)
    m = r_int.size

    # Allocated untouched: only the rows a step reaches are ever written.
    psi = np.zeros(m, dtype=complex)
    density = np.zeros(m)
    # psi0 is zero from the first node past its support on, and so is its
    # smoothed copy from one node further
    span = min(m, int(np.searchsorted(r_int, support_radius(psi0), side="right")) + 1)
    head = np.asarray(initial_wavefunction(psi0, r_int[:span]), dtype=complex)
    if grid.smooth_initial:
        padded = np.concatenate([[0.0], head, [0.0]])
        head = 0.25 * padded[:-2] + 0.5 * padded[1:-1] + 0.25 * padded[2:]
        del padded
    psi[:span] = head
    # the density over the whole box, as from np.abs(psi) ** 2
    np.square(np.abs(head, out=density[:span]), out=density[:span])
    del head
    norm2 = dr * float(np.sum(density))
    if norm2 <= 0.0:
        raise InvalidState("initial state vanishes on the grid")
    psi[:span] /= math.sqrt(norm2)

    mask_start, mask = m, np.empty(0)
    if grid.absorber_width > 0.0:
        # The ramp (r - L + W) / W is positive from the first node past
        # L - W on, and the mask starts there (where sin^2 of the ramp
        # underflowed to 0 the mask would hold exactly 1).
        ramp_start = grid.box_size - grid.absorber_width
        mask_start = int(np.searchsorted(r_int, ramp_start, side="right"))
        mask = r_int[mask_start:] - ramp_start
        mask /= grid.absorber_width
        np.clip(mask, 0.0, 1.0, out=mask)
        np.multiply(0.5 * np.pi, mask, out=mask)
        np.sin(mask, out=mask)
        mask **= 2
        np.multiply(-dt * grid.absorber_strength, mask, out=mask)
        np.exp(mask, out=mask)

    # With V >= 0 every pivot has Re d_i >= 1 and |d_i| > |off-diagonal|, so
    # gttrf neither meets a zero pivot nor swaps rows: its info is always 0.
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (psi,))
    factors = tuple(np.empty(n, dtype=complex) for n in (m - 1, m, m - 1, m - 2))
    factors += (np.empty(m, dtype=np.int32),)

    if times is None:
        if n_steps > _FIRST_OUTPUT_STEP:
            times = TimeGrid.log(
                max(_FIRST_OUTPUT_STEP * dt, 1e-12), grid.t_final, per_decade=40
            )
        else:
            times = TimeGrid(dt * np.arange(1, n_steps + 1))
    # steps past the run go before the cast, where they could overflow int
    steps = np.round(times.times / dt)
    step_of = np.unique(steps[steps <= n_steps].astype(int))
    if step_of.size == 0 or step_of[0] != 0:
        step_of = np.concatenate([[0], step_of])

    return _Run(
        grid=grid,
        potential=potential,
        j_r=j_r,
        r_int=r_int,
        psi0=psi,
        span=span,
        diag_b=np.empty(m, dtype=complex),
        factors=factors,
        density=density,
        gttrf=gttrf,
        gttrs=gttrs,
        mask_start=mask_start,
        mask=mask,
        off_b=0.5j * dt * (1.0 / (dr * dr)),
        out_steps=frozenset(int(s) for s in step_of),
        snap_steps=frozenset(snap_steps),
    )


def _support_end(psi: np.ndarray) -> int:
    """One past the last nonzero node of ``psi``, or 0 when it is all zero,
    in one search.  It holds an index per nonzero node and no mask of the
    box, which would add to the run's peak memory."""
    nonzero = np.flatnonzero(psi)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def _reach(psi: np.ndarray, end: int) -> int:
    """Block size for the next step: one chunk past the last nonzero node.

    ``psi`` is zero from ``end`` on.  The search steps back from there a
    chunk at a time, since the state's front moves a few nodes per step;
    the first step starts it from :func:`_support_end`.
    """
    while end > 0:
        start = max(0, end - _WINDOW_CHUNK)
        nonzero = np.flatnonzero(psi[start:end])
        if nonzero.size:
            end = start + int(nonzero[-1]) + 1
            break
        end = start
    return min(psi.size, end + _WINDOW_CHUNK)


def evolve_tdse(
    potential: Potential,
    psi0: InitialState,
    grid: GridSpec,
    times: TimeGrid | None = None,
    sample_times: tuple[float, ...] = (),
) -> OracleResult:
    """Integrate the TDSE and sample P(t) = int_0^R |psi|^2 dr.

    Output times are snapped to the nearest integer step; t = 0 is always
    included.  ``sample_times`` additionally captures full interior
    wavefunction snapshots at the (snapped) times given.

    Each step solves only on the leading block of nodes the state has
    reached, plus a margin, and gives the same bits as a solve on the whole
    box; rows are built and factored only as the state reaches them (see
    the module docstring).

    Raises
    ------
    ConfigError
        For any inconsistency between grid, potential, and absorber.
    UnstableParameters
        If, with the absorber off, total norm drifts by more than 1e-7.
    """
    run = _prepare(potential, psi0, grid, times, sample_times)
    dl, d, du, du2, ipiv = run.factors
    diag_b, off_b, gttrs = run.diag_b, run.off_b, run.gttrs
    start, mask = run.mask_start, run.mask
    psi = run.psi0
    m = psi.size
    # made once, and written only over the block: gttrs solves in the
    # right-hand side's buffer
    rhs_buf, prod = np.empty(m, dtype=complex), np.empty(m, dtype=complex)
    k = run.rows(_reach(psi, _support_end(psi[: run.span])))

    run.record(0, psi)
    for step in range(1, grid.n_steps + 1):
        while True:
            head, rhs = psi[:k], rhs_buf[:k]
            np.multiply(diag_b[:k], head, out=rhs)
            off = np.multiply(off_b, head, out=prod[:k])  # each product once
            rhs[:-1] += off[1:]
            rhs[1:] += off[:-1]
            x, _ = gttrs(
                dl[: k - 1], d[:k], du[: k - 1], du2[: k - 2], ipiv[:k], rhs, overwrite_b=1
            )
            if k == m or not x[k - _WINDOW_GUARD :].any():
                break
            k = run.rows(min(m, k + _WINDOW_CHUNK))
        psi[:k] = x
        if k > start:
            psi[start:k] *= mask[: k - start]
        if k > m - 5:
            run.watch_far_wall(step, psi)
        run.check_norm(step, psi)
        run.record(step, psi)
        if k < m:
            k = run.rows(_reach(psi, k))
    return run.result()


@dataclass(frozen=True, eq=False)
class RefinementReport:
    """Agreement between a run and its grid-refined repeat."""

    base: OracleResult
    factor: int
    max_abs_dev: float
    max_rel_dev: float
    tolerance: float
    flagged: bool


def refine_and_compare(
    potential: Potential,
    psi0: InitialState,
    grid: GridSpec,
    factors: tuple[int, ...],
    times: TimeGrid | None = None,
    tolerance: float = 1e-6,
) -> tuple[RefinementReport, ...]:
    """Run ``grid`` once and ``grid.refined(f)`` for each of ``factors``,
    comparing P at shared times; one report per factor, in order.

    The relative deviation is measured against the refined values (the better
    of the two).  ``flagged`` is set when it exceeds ``tolerance``; no error
    is raised, since deliberate failure probes use this path too.
    """
    fine_grids = [grid.refined(f) for f in factors]
    for fine_grid in fine_grids:  # before the base run is spent
        _validate_run(potential, psi0, fine_grid)
    base = evolve_tdse(potential, psi0, grid, times)
    tb = np.round(base.series.times / grid.dt).astype(int)
    reports = []
    for factor, fine_grid in zip(factors, fine_grids):
        fine = evolve_tdse(potential, psi0, fine_grid, times)
        tf = np.round(fine.series.times / fine_grid.dt).astype(int)
        common, ib, if_ = np.intersect1d(tb * factor, tf, return_indices=True)
        if common.size == 0:
            raise ConfigError("no common output times between base and refined runs")
        pf = fine.series.probability[if_]
        abs_dev = np.abs(base.series.probability[ib] - pf)
        max_rel = float(np.max(abs_dev / np.maximum(np.abs(pf), 1e-300)))
        reports.append(RefinementReport(
            base=base, factor=factor, max_abs_dev=float(np.max(abs_dev)),
            max_rel_dev=max_rel, tolerance=tolerance, flagged=bool(max_rel > tolerance),
        ))
    return tuple(reports)


def gaussian_packet_exact(
    r: np.ndarray | float,
    t: float,
    sigma: float,
    center: float,
    momentum: float,
) -> np.ndarray | complex:
    """Free evolution of a Gaussian packet on r >= 0 with a hard wall at 0.

    The image construction psi(r, t) = g(r, t) - g(-r, t) with

        g(x, t) = (2 pi sigma^2)^(-1/4) sqrt(sigma^2 / (sigma^2 + i t))
                  exp[-(x - x0 - 2 k0 t)^2 / (4 (sigma^2 + i t))
                      + i k0 (x - x0) - i k0^2 t]

    solves i psi_t = -psi_rr exactly with psi(0, t) = 0.  The packet must be
    narrow enough that its tail at the wall is negligible at t = 0, or the
    initial condition differs from the plain Gaussian.
    """

    def g(x: np.ndarray) -> np.ndarray:
        s = sigma * sigma + 1j * t
        amp = (2.0 * math.pi * sigma * sigma) ** (-0.25) * np.sqrt(sigma * sigma / s)
        phase = 1j * momentum * (x - center) - 1j * momentum * momentum * t
        return amp * np.exp(-((x - center - 2.0 * momentum * t) ** 2) / (4.0 * s) + phase)

    r_arr = np.asarray(r, dtype=float)
    val = g(r_arr) - g(-r_arr)
    if np.ndim(r) == 0:
        return complex(val)
    return val


def sampled_gaussian(
    sigma: float,
    center: float,
    momentum: float,
    support: float,
    dr_sample: float,
) -> Sampled:
    """Normalized :class:`Sampled` state from a wall-corrected Gaussian at t = 0."""
    n = int(round(support / dr_sample))
    if abs(n * dr_sample - support) > 1e-9 * support or n < 8:
        raise ConfigError("support must be a (reasonable) multiple of dr_sample")
    grid = dr_sample * np.arange(n + 1)
    vals = np.asarray(gaussian_packet_exact(grid, 0.0, sigma, center, momentum))
    vals[0] = 0.0
    vals[-1] = 0.0
    return normalized(Sampled(grid, vals))
