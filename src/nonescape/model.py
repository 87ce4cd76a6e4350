"""Problem definition: finite-range potentials and initial states.

Everything lives on the half line r >= 0 in units hbar = 2m = 1, so the
radial equation reads u'' + (k^2 - V(r)) u = 0 and time evolution carries the
phase exp(-i k^2 t).  A potential is *finite range*: it vanishes identically
beyond its range R.  Two families are supported:

* :class:`PiecewiseConstant` -- contiguous constant segments on [0, R];
* :class:`DeltaShell` -- a single delta barrier ``strength * delta(r - R)``.

Initial states are confined to [0, R]:

* :class:`BoxMode` -- eigenmode ``sqrt(2/R) sin(m pi r / R)`` of the hard box;
* :class:`Sampled` -- tabulated complex values on an r grid, interpreted as a
  piecewise-linear function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPotential, InvalidState

__all__ = [
    "PiecewiseConstant",
    "DeltaShell",
    "Potential",
    "BoxMode",
    "Sampled",
    "InitialState",
    "potential_range",
    "segments",
    "delta_jump",
    "evaluate_potential",
    "initial_wavefunction",
    "support_radius",
    "state_norm",
    "normalized",
]

#: Relative tolerance used when checking that sampled states vanish at the
#: endpoints of their support.
ENDPOINT_TOL = 1e-6


@dataclass(frozen=True)
class PiecewiseConstant:
    """Constant segments ``(r_start, r_end, height)`` covering [0, R].

    Segments must be contiguous, start at 0, and have strictly increasing
    endpoints; the final ``r_end`` is the potential range R.
    """

    pieces: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise InvalidPotential("piecewise potential needs at least one segment")
        expected_start = 0.0
        for start, end, height in self.pieces:
            if not (math.isfinite(start) and math.isfinite(end) and math.isfinite(height)):
                raise InvalidPotential("segment entries must be finite")
            if abs(start - expected_start) > 1e-12 * max(1.0, abs(end)):
                raise InvalidPotential("segments must be contiguous from r = 0")
            if end <= start:
                raise InvalidPotential("segment endpoints must increase")
            if height < 0.0:
                raise InvalidPotential(
                    "segment heights must be non-negative (wells can bind states, "
                    "which the resonance-only pole sum excludes)"
                )
            expected_start = end


@dataclass(frozen=True)
class DeltaShell:
    """Delta barrier ``strength * delta(r - radius)`` with free interior.

    Only repulsive shells (strength > 0) are admitted so the spectrum has no
    bound states and the pole sums run over resonances alone.
    """

    strength: float
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.strength) and math.isfinite(self.radius)):
            raise InvalidPotential("delta shell parameters must be finite")
        if self.radius <= 0.0:
            raise InvalidPotential("delta shell radius must be positive")
        if self.strength <= 0.0:
            raise InvalidPotential("delta shell strength must be positive (repulsive)")


Potential = PiecewiseConstant | DeltaShell


@dataclass(frozen=True)
class BoxMode:
    """Hard-box eigenmode ``sqrt(2/R) sin(m pi r / R)`` on [0, R]."""

    mode: int
    radius: float

    def __post_init__(self) -> None:
        if self.mode < 1:
            raise InvalidState("box mode index must be >= 1")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise InvalidState("box mode radius must be positive and finite")
        if self.mode >= 2**1023 or not math.isfinite(math.pi * self.mode / self.radius):
            raise InvalidState("box mode wavenumber m pi / R must be a finite float")


class Sampled:
    """Complex samples on an increasing r grid, linear between nodes.

    The grid must start at 0; values must vanish (to ``ENDPOINT_TOL`` relative
    to the peak) at both ends so the state is confined to [0, r_grid[-1]].
    Construction does not normalize; use :func:`normalized` for that.
    """

    __slots__ = ("r_grid", "values")

    def __init__(self, r_grid: np.ndarray, values: np.ndarray) -> None:
        r = np.asarray(r_grid, dtype=float)
        v = np.asarray(values, dtype=complex)
        if r.ndim != 1 or v.shape != r.shape or r.size < 2:
            raise InvalidState("sampled state needs matching 1-d grids of length >= 2")
        if abs(r[0]) > 1e-12:
            raise InvalidState("sampled grid must start at r = 0")
        if not np.all(np.diff(r) > 0):
            raise InvalidState("sampled grid must be strictly increasing")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
            raise InvalidState("sampled state entries must be finite")
        peak = float(np.max(np.abs(v)))
        if peak > 0.0 and (abs(v[0]) > ENDPOINT_TOL * peak or abs(v[-1]) > ENDPOINT_TOL * peak):
            raise InvalidState("sampled state must vanish at both endpoints")
        self.r_grid = r
        self.values = v

    def __repr__(self) -> str:
        return f"Sampled(n={self.r_grid.size}, span=[0, {self.r_grid[-1]:g}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sampled):
            return NotImplemented
        return np.array_equal(self.r_grid, other.r_grid) and np.array_equal(self.values, other.values)


InitialState = BoxMode | Sampled


def potential_range(potential: Potential) -> float:
    """Radius R beyond which the potential vanishes identically."""
    if isinstance(potential, DeltaShell):
        return potential.radius
    return potential.pieces[-1][1]


def segments(potential: Potential) -> tuple[tuple[float, float, float], ...]:
    """Constant segments ``(r_start, r_end, height)`` tiling [0, R].

    For a delta shell the interior is a single free segment; the delta itself
    is reported by :func:`delta_jump`, not here.
    """
    if isinstance(potential, DeltaShell):
        return ((0.0, potential.radius, 0.0),)
    return potential.pieces


def delta_jump(potential: Potential) -> float:
    """Coefficient lambda of a surface delta at r = R (0 if absent).

    Across the delta the derivative of any solution jumps by
    ``u'(R+) - u'(R-) = lambda * u(R)``.
    """
    if isinstance(potential, DeltaShell):
        return potential.strength
    return 0.0


def evaluate_potential(potential: Potential, r: np.ndarray | float) -> np.ndarray | float:
    """Finite part V(r), vectorized; the delta component is excluded."""
    r_arr = np.asarray(r, dtype=float)
    out = np.zeros_like(r_arr)
    for start, end, height in segments(potential):
        if height != 0.0:
            out = np.where((r_arr >= start) & (r_arr < end), height, out)
    if np.ndim(r) == 0:
        return float(out)
    return out


def initial_wavefunction(state: InitialState, r: np.ndarray | float) -> np.ndarray | complex:
    """psi(r, 0), vectorized; zero outside the state's support."""
    r_arr = np.asarray(r, dtype=float)
    if isinstance(state, BoxMode):
        amp = math.sqrt(2.0 / state.radius)
        vals = amp * np.sin(state.mode * math.pi * r_arr / state.radius)
        vals = np.where((r_arr >= 0.0) & (r_arr <= state.radius), vals, 0.0)
        vals = vals.astype(complex)
    else:
        re = np.interp(r_arr, state.r_grid, state.values.real, left=0.0, right=0.0)
        im = np.interp(r_arr, state.r_grid, state.values.imag, left=0.0, right=0.0)
        vals = re + 1j * im
    if np.ndim(r) == 0:
        return complex(vals)
    return vals


def support_radius(state: InitialState) -> float:
    """Outer edge of the state's support (box radius or last sample node)."""
    if isinstance(state, BoxMode):
        return float(state.radius)
    return float(state.r_grid[-1])


def state_norm(state: InitialState) -> float:
    """L2 norm ``sqrt(int |psi|^2 dr)`` over the state's support.

    Box modes are exactly unit norm.  Sampled states integrate the
    piecewise-linear interpolant in closed form so the result is exact for
    the represented function.
    """
    if isinstance(state, BoxMode):
        return 1.0
    v = state.values
    dr = np.diff(state.r_grid)
    a = np.abs(v[:-1]) ** 2
    b = np.abs(v[1:]) ** 2
    # numpy may reuse the conj temporary in place, as conj * v[:-1]; that
    # swap moves only bits of the imaginary part, which is dropped here
    cross = (v[:-1] * np.conj(v[1:])).real
    total = float(np.sum(dr * (a + b + cross) / 3.0))
    return math.sqrt(total)


def normalized(state: InitialState) -> InitialState:
    """Copy of ``state`` scaled to unit L2 norm."""
    if isinstance(state, BoxMode):
        return state
    norm = state_norm(state)
    if norm == 0.0:
        raise InvalidState("cannot normalize a zero state")
    return Sampled(state.r_grid, state.values / norm)
