"""Location of resonance poles in the fourth quadrant of the k plane.

A resonance pole is a zero of the outgoing-wave matching function

    J(k) = u'(R+) - i k u(R),

where u solves u'' + (k^2 - V) u = 0 with u(0) = 0, u'(0) = 1 and R is the
potential range.  Built from the even segment kernels, J is entire in k, so
zeros can be counted exactly with the argument principle and then isolated
by rectangle bisection.  Each isolated zero is polished by Newton iteration
using the analytically propagated derivative dJ/dk (no finite differences).

Zeros come in Schwarz pairs: for every fourth-quadrant zero k_n there is a
third-quadrant mirror at -conj(k_n).  Only the fourth quadrant is searched;
mirrors are produced by :func:`mirror_state_rule`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AxisZero,
    ConfigError,
    RootPolishFailure,
    WindingMismatch,
)
from .model import Potential, delta_jump, potential_range, segments
from .segmath import propagate_with_dk

__all__ = [
    "SearchWindow",
    "ResonancePole",
    "PoleSet",
    "matching_function",
    "winding_count",
    "locate_poles",
    "mirror_state_rule",
]

_PHASE_STEP_LIMIT = 0.5 * np.pi  # refine contour sampling beyond this |phase step|
_MAX_EDGE_POINTS = 400_000
_AXIS_ABS_TOL = 1e-9  # |J| below this fraction of the contour scale flags a grazing zero
_RESIDUAL_TOL = 1e-10  # required |J(k_n)| relative to the contour scale
_NEWTON_MAX_ITER = 60


@dataclass(frozen=True)
class SearchWindow:
    """Fourth-quadrant rectangle [0, re_max] x [im_min, 0] to search for zeros."""

    re_max: float
    im_min: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.re_max) and self.re_max > 0.0):
            raise ConfigError(f"re_max must be positive and finite, got {self.re_max}")
        if not (np.isfinite(self.im_min) and self.im_min < 0.0):
            raise ConfigError(f"im_min must be negative and finite, got {self.im_min}")


@dataclass(frozen=True)
class ResonancePole:
    """A single zero of the matching function.

    ``n`` is 1-based ascending in Re k for fourth-quadrant poles and negative
    for their third-quadrant mirrors; ``residual`` is |J(k)| at the polished
    zero and ``scale`` the largest |J| met on the enclosing contour, so
    ``residual / scale`` measures how well the zero is resolved.
    """

    n: int
    k: complex
    residual: float
    scale: float


class _GridZero(Exception):
    """Internal: |J| vanished (relatively) somewhere on a contour edge."""

    def __init__(self, location: complex, ratio: float):
        self.location = location
        self.ratio = ratio
        super().__init__(f"matching function ~0 on contour at k = {location:.6g}")


def matching_function(
    potential: Potential, k: np.ndarray | complex
) -> tuple[np.ndarray | complex, np.ndarray | complex]:
    """Return (J(k), dJ/dk), vectorized over k.

    J is entire in k; both outputs are produced in a single propagation pass
    through the segment kernels with the k-derivative carried alongside.
    """
    k_arr = np.asarray(k, dtype=complex)
    u = np.zeros_like(k_arr)
    du = np.ones_like(k_arr)
    uk = np.zeros_like(k_arr)
    duk = np.zeros_like(k_arr)
    dzdk = 2.0 * k_arr
    for r_start, r_end, height in segments(potential):
        z = k_arr * k_arr - height
        u, du, uk, duk = propagate_with_dk(u, du, uk, duk, z, dzdk, r_end - r_start)
    lam = delta_jump(potential)
    j = du + (lam - 1j * k_arr) * u
    dj = duk + (lam - 1j * k_arr) * uk - 1j * u
    if np.ndim(k) == 0:
        return complex(j), complex(dj)
    return j, dj


def _march_edge(
    potential: Potential, z0: complex, z1: complex, density: float
) -> tuple[float, float, float]:
    """Accumulated arg J along the segment z0 -> z1, with adaptive refinement.

    Returns (total phase, min |J|, max |J|).  Sampling is refined until every
    step turns the phase by at most pi/2, which makes the total exact for the
    continuous boundary.
    """
    n0 = max(8, int(4.0 + abs(z1 - z0) * density))
    ts = np.linspace(0.0, 1.0, n0)
    j = np.asarray(matching_function(potential, z0 + (z1 - z0) * ts)[0])
    max_abs = float(np.max(np.abs(j)))
    while True:
        absj = np.abs(j)
        max_abs = max(max_abs, float(np.max(absj)))
        small = absj <= _AXIS_ABS_TOL * max_abs
        if small.any():
            i = int(np.argmin(absj))
            raise _GridZero(complex(z0 + (z1 - z0) * ts[i]), float(absj[i] / max_abs))
        dphi = np.angle(j[1:] / j[:-1])
        bad = np.abs(dphi) > _PHASE_STEP_LIMIT
        if not bad.any():
            return float(np.sum(dphi)), float(np.min(absj)), max_abs
        if ts.size > _MAX_EDGE_POINTS:
            raise WindingMismatch(
                "contour sampling exceeded its budget; matching function phase "
                "varies too rapidly (zero almost on the contour?)"
            )
        idx = np.flatnonzero(bad)
        mid_ts = 0.5 * (ts[idx] + ts[idx + 1])
        mid_j = np.asarray(matching_function(potential, z0 + (z1 - z0) * mid_ts)[0])
        ts = np.concatenate([ts, mid_ts])
        j = np.concatenate([j, mid_j])
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        j = j[order]


_Rect = tuple[float, float, float, float]  # (re_lo, re_hi, im_lo, im_hi)


def _winding(potential: Potential, rect: _Rect, density: float) -> tuple[int, float, float]:
    """Zeros inside ``rect`` by the argument principle; also (min|J|, max|J|)."""
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
        complex(re_lo, im_lo),
    ]
    total = 0.0
    min_abs = np.inf
    max_abs = 0.0
    for z0, z1 in zip(corners[:-1], corners[1:]):
        phase, lo, hi = _march_edge(potential, z0, z1, density)
        total += phase
        min_abs = min(min_abs, lo)
        max_abs = max(max_abs, hi)
    count = total / (2.0 * np.pi)
    nearest = round(count)
    if abs(count - nearest) > 0.25:
        raise WindingMismatch(
            f"non-integer winding number {count:.3f} on rectangle {rect}"
        )
    if nearest < 0:
        raise WindingMismatch(f"negative winding number {nearest} on {rect}")
    return int(nearest), float(min_abs), float(max_abs)


def winding_count(potential: Potential, window: SearchWindow) -> int:
    """Zeros of J inside ``window`` counted by the boundary argument alone.

    Independent of the isolation/polishing machinery, so it serves as an
    audit of :func:`locate_poles`: the two must report the same number.
    """
    rng = potential_range(potential)
    density = max(1.0, 2.0 * rng)
    rect: _Rect = (0.0, window.re_max, window.im_min, 0.0)
    count, _, _ = _winding(potential, rect, density)
    return count


def _split(rect: _Rect) -> tuple[float, bool]:
    """Longest-side midpoint; returns (coordinate, split_is_vertical)."""
    re_lo, re_hi, im_lo, im_hi = rect
    if (re_hi - re_lo) >= (im_hi - im_lo):
        return 0.5 * (re_lo + re_hi), True
    return 0.5 * (im_lo + im_hi), False


def _children(rect: _Rect, frac: float) -> tuple[_Rect, _Rect]:
    re_lo, re_hi, im_lo, im_hi = rect
    if (re_hi - re_lo) >= (im_hi - im_lo):
        cut = re_lo + frac * (re_hi - re_lo)
        return (re_lo, cut, im_lo, im_hi), (cut, re_hi, im_lo, im_hi)
    cut = im_lo + frac * (im_hi - im_lo)
    return (re_lo, re_hi, im_lo, cut), (re_lo, re_hi, cut, im_hi)


def _diag(rect: _Rect) -> float:
    return float(np.hypot(rect[1] - rect[0], rect[3] - rect[2]))


def _center(rect: _Rect) -> complex:
    return complex(0.5 * (rect[0] + rect[1]), 0.5 * (rect[2] + rect[3]))


def _newton(
    potential: Potential, rect: _Rect, scale: float, tol: float
) -> tuple[complex, float]:
    """Polish the single zero inside ``rect``, returning (k, residual)."""
    k = _center(rect)
    diag = _diag(rect)
    margin = 0.1 * diag + 10.0 * tol
    for _ in range(_NEWTON_MAX_ITER):
        j, dj = matching_function(potential, k)
        if dj == 0:
            raise RootPolishFailure(f"dJ/dk vanished during polish near k = {k:.6g}")
        step = j / dj
        if abs(step) > 0.5 * diag:
            step *= 0.5 * diag / abs(step)
        k = k - step
        if abs(step) <= tol:
            break
    else:
        raise RootPolishFailure(
            f"Newton iteration did not reach |dk| <= {tol:g} near k = {k:.6g}"
        )
    if not (
        rect[0] - margin <= k.real <= rect[1] + margin
        and rect[2] - margin <= k.imag <= rect[3] + margin
    ):
        raise RootPolishFailure(
            f"polished zero {k:.6g} escaped its isolating rectangle {rect}"
        )
    residual = abs(matching_function(potential, k)[0])
    if residual > _RESIDUAL_TOL * scale:
        raise RootPolishFailure(
            f"residual |J| = {residual:.3e} exceeds {_RESIDUAL_TOL:g} * contour scale "
            f"{scale:.3e} at k = {k:.6g}"
        )
    return k, residual


def _isolate(
    potential: Potential,
    rect: _Rect,
    count: int,
    scale: float,
    density: float,
    tol: float,
    out: list[tuple[complex, float, float]],
    depth: int = 0,
) -> None:
    """Recursively bisect until each sub-rectangle holds one zero, then polish."""
    if depth > 120:
        raise WindingMismatch("rectangle bisection exceeded its depth budget")
    center = _center(rect)
    if count == 1 and _diag(rect) <= 0.05 * (1.0 + abs(center)):
        k, residual = _newton(potential, rect, scale, tol)
        out.append((k, residual, scale))
        return
    for frac in (0.5, 0.55, 0.45, 0.6, 0.4, 0.52, 0.48):
        left, right = _children(rect, frac)
        try:
            n_left, _, s_left = _winding(potential, left, density)
            n_right, _, s_right = _winding(potential, right, density)
        except _GridZero:
            continue  # the split line grazed a zero; nudge and retry
        if n_left + n_right != count:
            continue
        if n_left:
            _isolate(potential, left, n_left, max(scale, s_left), density, tol, out, depth + 1)
        if n_right:
            _isolate(potential, right, n_right, max(scale, s_right), density, tol, out, depth + 1)
        return
    raise WindingMismatch(
        f"could not split rectangle {rect} consistently (count = {count})"
    )


def locate_poles(
    potential: Potential, window: SearchWindow, tol: float = 1e-12
) -> "PoleSet":
    """Find every matching-function zero inside ``window``.

    The search counts zeros on the window boundary first (argument
    principle), splits rectangles until each holds exactly one zero, then
    Newton-polishes each with the analytic derivative.  The result carries
    per-pole residuals and the contour scale used to normalize them.

    Raises
    ------
    AxisZero
        If a zero sits on (or grazes) the real or imaginary axis, where the
        fourth-quadrant resonance interpretation breaks down.
    WindingMismatch
        If boundary phase accounting ever becomes inconsistent.
    RootPolishFailure
        If Newton refinement fails to converge or verify.
    """
    if not (np.isfinite(tol) and 0.0 < tol <= 1e-6):
        raise ConfigError(f"tol must lie in (0, 1e-6], got {tol}")
    rng = potential_range(potential)
    density = max(1.0, 2.0 * rng)
    rect0: _Rect = (0.0, window.re_max, window.im_min, 0.0)
    try:
        count, _, scale0 = _winding(potential, rect0, density)
    except _GridZero as gz:
        loc = gz.location
        if abs(loc.imag) <= 1e-12 * (1.0 + abs(loc)) or abs(loc.real) <= 1e-12 * (
            1.0 + abs(loc)
        ):
            raise AxisZero(
                f"matching function vanishes on a coordinate axis near k = {loc:.6g}"
            ) from gz
        raise WindingMismatch(
            f"matching function vanishes on the search-window boundary near "
            f"k = {loc:.6g}; enlarge or shrink the window"
        ) from gz
    found: list[tuple[complex, float, float]] = []
    if count:
        _isolate(potential, rect0, count, scale0, density, tol, found)
    if len(found) != count:
        raise WindingMismatch(
            f"isolated {len(found)} zeros but the window boundary counted {count}"
        )
    found.sort(key=lambda item: item[0].real)
    poles = []
    for i, (k, residual, scale) in enumerate(found):
        axis_margin = max(10.0 * tol, 1e-12) * (1.0 + abs(k))
        if k.imag > -axis_margin or k.real < axis_margin:
            raise AxisZero(
                f"zero at k = {k:.6g} hugs a coordinate axis; not a fourth-quadrant "
                "resonance"
            )
        poles.append(ResonancePole(n=i + 1, k=k, residual=residual, scale=scale))
    for a, b in zip(poles[:-1], poles[1:]):
        if abs(a.k - b.k) <= 100.0 * max(tol, 1e-13) * (1.0 + abs(a.k)):
            raise WindingMismatch(
                f"zeros {a.k:.6g} and {b.k:.6g} are numerically indistinct"
            )
    return PoleSet(potential=potential, window=window, tol=tol, poles=tuple(poles))


def mirror_state_rule(pole: ResonancePole) -> ResonancePole:
    """Map a pole to its Schwarz mirror: n -> -n, k -> -conj(k).

    Applying the rule twice returns the original pole.
    """
    return ResonancePole(
        n=-pole.n, k=-np.conj(pole.k), residual=pole.residual, scale=pole.scale
    )


@dataclass(frozen=True)
class PoleSet:
    """Ordered fourth-quadrant poles of one potential plus search metadata."""

    potential: Potential
    window: SearchWindow
    tol: float
    poles: tuple[ResonancePole, ...]

    def __len__(self) -> int:
        return len(self.poles)

    def __iter__(self):
        return iter(self.poles)

    def pole(self, n: int) -> ResonancePole:
        """Pole with signed index n (negative indices give mirrors)."""
        if n == 0:
            raise ConfigError("pole indices are nonzero integers")
        if abs(n) > len(self.poles):
            raise ConfigError(
                f"pole index {n} outside the located range 1..{len(self.poles)}"
            )
        base = self.poles[abs(n) - 1]
        return base if n > 0 else mirror_state_rule(base)

    def wavenumber(self, n: int) -> complex:
        return self.pole(n).k

    def wavenumbers(self, n_pairs: int | None = None) -> np.ndarray:
        """Wavenumbers ordered n = -N..-1, 1..N (mirrors first)."""
        n_pairs = len(self.poles) if n_pairs is None else int(n_pairs)
        if n_pairs > len(self.poles):
            raise ConfigError(
                f"requested {n_pairs} pole pairs but only {len(self.poles)} located"
            )
        ks = np.array([p.k for p in self.poles[:n_pairs]], dtype=complex)
        return np.concatenate([-np.conj(ks[::-1]), ks])

    @staticmethod
    def index_order(n_pairs: int) -> np.ndarray:
        """Signed indices in the same ordering as :meth:`wavenumbers`."""
        pos = np.arange(1, n_pairs + 1)
        return np.concatenate([-pos[::-1], pos])
