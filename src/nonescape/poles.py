"""Location of resonance poles in the fourth quadrant of the k plane.

A resonance pole is a zero of the outgoing-wave matching function

    J(k) = u'(R+) - i k u(R),

where u solves u'' + (k^2 - V) u = 0 with u(0) = 0, u'(0) = 1 and R is the
potential range.  Built from the even segment kernels, J is entire in k, so
zeros can be counted exactly with the argument principle, here on strips of
a few zeros each.  The contour moments (1/2 pi i) oint (z - c)^p J'/J dz of
a strip give all its zeros as the eigenvalues of a small Hankel pencil
(Delves & Lyness, Math. Comp. 21 (1967) 543; Kravanja & Van Barel, LNM 1727
(2000)), and Newton iteration polishes them all at once, both with the
analytically propagated derivative dJ/dk (no finite differences).

Zeros come in Schwarz pairs: for every fourth-quadrant zero k_n there is a
third-quadrant mirror at -conj(k_n).  Only the fourth quadrant is searched;
mirrors are produced by :func:`mirror_state_rule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigvals

from .errors import AxisZero, ConfigError, DomainError, RootPolishFailure, WindingMismatch
from .model import Potential, delta_jump, potential_range, segments
from .segmath import gauss_legendre, propagate_with_dk

__all__ = [
    "SearchWindow", "ResonancePole", "PoleSet", "matching_function",
    "winding_count", "locate_poles", "mirror_state_rule",
]

_PHASE_STEP_LIMIT = 0.5 * np.pi  # refine contour sampling beyond this |phase step|
_MAX_EDGE_POINTS = 400_000
_AXIS_ABS_TOL = 1e-9  # |J| below this fraction of the contour scale flags a grazing zero
_RESIDUAL_TOL = 1e-10  # required |J(k_n)| relative to the contour scale
_NEWTON_MAX_ITER = 60
_ZEROS_PER_STRIP = 4  # strips start this many zero spacings wide
_MAX_RECUTS = 8  # times a cut that grazes a zero is moved
_GL_ORDER = 8  # Gauss-Legendre nodes per moment panel
_MOMENT_TOL = 1e-3  # |s_0 - count| beyond which a strip's panels are halved
_MOMENT_ROUNDS = 6
_BLOCK_POINTS = 16_384  # points per vectorized matching-function call
# Zeros a window may be expected to hold, re_max * density / (2 pi).  The
# reference shell's 20,000 zeros took 4.9 s and 399 MB RSS on a 2-vCPU host;
# the strips and contour samples grow in proportion.
_MAX_SEARCH_ZEROS = 20_480


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
    zero and ``scale`` the largest |J| met on the contour of the strip that
    holds it, so ``residual / scale`` measures how well the zero is resolved.
    """

    n: int
    k: complex
    residual: float
    scale: float


class _GridZero(Exception):
    """Internal: |J| vanished (relatively) at the point ``args[0]`` of a contour edge."""


def matching_function(
    potential: Potential, k: np.ndarray | complex
) -> tuple[np.ndarray | complex, np.ndarray | complex]:
    """Return (J(k), dJ/dk), vectorized over k.

    J is entire in k; both outputs are produced in a single propagation pass
    through the segment kernels with the k-derivative carried alongside.
    Where the kernels overflow (|Im q| L beyond about 710 on a segment), the
    outputs are not finite, without a warning; the pole search refuses them.
    """
    k_arr = np.asarray(k, dtype=complex)
    u = np.zeros_like(k_arr)
    du = np.ones_like(k_arr)
    uk = np.zeros_like(k_arr)
    duk = np.zeros_like(k_arr)
    dzdk = 2.0 * k_arr
    lam = delta_jump(potential)
    with np.errstate(over="ignore", invalid="ignore"):
        for r_start, r_end, height in segments(potential):
            z = k_arr * k_arr - height
            u, du, uk, duk = propagate_with_dk(u, du, uk, duk, z, dzdk, r_end - r_start)
        j = du + (lam - 1j * k_arr) * u
        dj = duk + (lam - 1j * k_arr) * uk - 1j * u
    if np.ndim(k) == 0:
        return complex(j), complex(dj)
    return j, dj


def _finite_matching(potential: Potential, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J, dJ/dk) at the points ``k``.

    Raises
    ------
    DomainError
        At the first point where J or dJ/dk is not finite.
    """
    j, dj = matching_function(potential, k)
    bad = np.flatnonzero(~(np.isfinite(j) & np.isfinite(dj)))
    if bad.size:
        raise DomainError(f"J is not finite near k = {k[bad[0]]:.6g}")
    return j, dj


def _march(
    potential: Potential, z0: np.ndarray, z1: np.ndarray, density: float
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Total arg J, max |J| and sorted samples t in [0, 1] of each segment z0 -> z1,
    refined together until no step turns the phase by over pi/2 (exact totals)."""
    dz = z1 - z0
    n0 = np.maximum(8, (4.0 + np.abs(dz) * density).astype(int))
    ts = np.concatenate([np.linspace(0.0, 1.0, n) for n in n0])
    seg = np.repeat(np.arange(z0.size), n0)
    j = _finite_matching(potential, z0[seg] + dz[seg] * ts)[0]
    while True:
        firsts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        peak = np.maximum.reduceat(np.abs(j), firsts)
        ratio = np.abs(j) / peak[seg]
        i = int(np.argmin(ratio))
        if ratio[i] <= _AXIS_ABS_TOL:
            raise _GridZero(complex(z0[seg[i]] + dz[seg[i]] * ts[i]))
        dphi = np.angle(j[1:] / j[:-1])
        inner = seg[1:] == seg[:-1]
        bad = np.flatnonzero(inner & (np.abs(dphi) > _PHASE_STEP_LIMIT))
        if not bad.size:
            phase = np.bincount(seg[1:][inner], dphi[inner], minlength=z0.size)
            return phase, peak, np.split(ts, firsts[1:])
        if np.bincount(seg)[seg[bad]].max() > _MAX_EDGE_POINTS:
            raise WindingMismatch(
                "contour sampling exceeded its budget; matching function phase "
                "varies too rapidly (zero almost on the contour?)"
            )
        mid_ts, mid_seg = 0.5 * (ts[bad] + ts[bad + 1]), seg[bad]
        mid_j = _finite_matching(potential, z0[mid_seg] + dz[mid_seg] * mid_ts)[0]
        ts, seg, j = np.r_[ts, mid_ts], np.r_[seg, mid_seg], np.r_[j, mid_j]
        order = np.lexsort((ts, seg))
        ts, seg, j = ts[order], seg[order], j[order]


_Rect = tuple[float, float, float, float]  # (re_lo, re_hi, im_lo, im_hi)


class _Box(NamedTuple):
    """A counted rectangle, max |J| on its contour and its edges' samples t."""

    rect: _Rect
    count: int
    peak: float
    samples: list[np.ndarray]


def _edges(rects: list[_Rect]) -> tuple[np.ndarray, np.ndarray]:
    """Start and end points of each rectangle's four edges, counter-clockwise."""
    corners = np.array(
        [[complex(a, c), complex(b, c), complex(b, d), complex(a, d)] for a, b, c, d in rects]
    ).reshape(-1, 4)
    return corners.ravel(), np.roll(corners, -1, axis=1).ravel()


def _windings(potential: Potential, rects: list[_Rect], density: float) -> list[_Box]:
    """Zeros inside each rectangle by the argument principle, in one batch."""
    phase, peak, samples = _march(potential, *_edges(rects), density)
    counts = np.rint(phase.reshape(-1, 4).sum(axis=1) / (2.0 * np.pi)).astype(int)
    for i in np.flatnonzero(counts < 0)[:1]:
        raise WindingMismatch(f"negative winding number {counts[i]} on {rects[i]}")
    peaks = peak.reshape(-1, 4).max(axis=1)
    return [_Box(r, int(counts[i]), float(peaks[i]), samples[4 * i : 4 * i + 4])
            for i, r in enumerate(rects)]


def winding_count(potential: Potential, window: SearchWindow) -> int:
    """Zeros of J inside ``window`` counted by the boundary argument alone.

    Independent of the moment and polishing machinery, so it serves as an
    audit of :func:`locate_poles`: the two must report the same number.

    Raises
    ------
    AxisZero
        If J vanishes on the boundary where it runs along an axis.
    WindingMismatch
        If J vanishes elsewhere on the boundary, or its phase cannot be
        resolved within the sampling budget.
    DomainError
        If J or dJ/dk is not finite on the boundary (the kernels overflow).
    ConfigError
        If the window holds over ``_MAX_SEARCH_ZEROS`` zeros.
    """
    rect: _Rect = (0.0, window.re_max, window.im_min, 0.0)
    try:
        return _windings(potential, [rect], _density(potential, window))[0].count
    except _GridZero as gz:
        raise _contour_zero(gz.args[0]) from gz


def _density(potential: Potential, window: SearchWindow) -> float:
    """Contour samples per unit length (zeros lie about 2 pi / density apart);
    a ConfigError if the window should hold over ``_MAX_SEARCH_ZEROS`` zeros."""
    density = max(1.0, 2.0 * potential_range(potential))
    work = window.re_max * density / (2.0 * np.pi)
    if work > _MAX_SEARCH_ZEROS:
        raise ConfigError(
            f"window re_max = {window.re_max:g} holds about {work:.3g} zeros, "
            f"over the cap of {_MAX_SEARCH_ZEROS}"
        )
    return density


def _contour_zero(loc: complex) -> AxisZero | WindingMismatch:
    """The typed error for J vanishing at the contour point ``loc``."""
    if min(abs(loc.imag), abs(loc.real)) <= 1e-12 * (1.0 + abs(loc)):
        return AxisZero(f"J vanishes on a coordinate axis near k = {loc:.6g}")
    return WindingMismatch(
        f"J vanishes on a contour near k = {loc:.6g}; enlarge or shrink the window"
    )


def _strips(potential: Potential, window: SearchWindow, density: float) -> list[_Box]:
    """Cut the window into strips of a few zeros each, counted with the window.

    Zeros of J lie about 2 pi / density apart in Re k.  The window is recut into
    one strip more when a cut grazes a zero, and once into total /
    ``_ZEROS_PER_STRIP`` strips when one holds over twice that many."""
    whole: _Rect = (0.0, window.re_max, window.im_min, 0.0)
    n_strips = int(np.ceil(window.re_max * density / (2.0 * np.pi * _ZEROS_PER_STRIP)))
    recuts = 0
    while True:
        cuts = np.linspace(0.0, window.re_max, n_strips + 1).tolist()
        rects = [(a, b, window.im_min, 0.0) for a, b in zip(cuts[:-1], cuts[1:])]
        try:
            total, *boxes = _windings(potential, [whole] + rects, density)
        except _GridZero as gz:
            loc = gz.args[0]
            error = _contour_zero(loc)
            inside = 0.0 < loc.real < window.re_max and window.im_min < loc.imag < 0.0
            if isinstance(error, AxisZero) or not inside or recuts == _MAX_RECUTS:
                raise error from gz
            n_strips, recuts = n_strips + 1, recuts + 1
            continue
        if sum(b.count for b in boxes) != total.count:
            raise WindingMismatch(f"strips count other than the window's {total.count} zeros")
        wanted = -(-total.count // _ZEROS_PER_STRIP)
        if max(b.count for b in boxes) <= 2 * _ZEROS_PER_STRIP or wanted <= n_strips:
            return boxes
        n_strips = wanted


def _moments(potential: Potential, boxes: list[_Box], center, rho, order: int) -> np.ndarray:
    """Moments (1/2 pi i) oint ((z - center)/rho)^p J'/J dz, p < ``order``, on
    Gauss-Legendre panels between the winding samples, in blocks of nodes."""
    z0, z1 = _edges([b.rect for b in boxes])
    samples = [t for b in boxes for t in b.samples]
    lo = np.concatenate([t[:-1] for t in samples])
    half = 0.5 * (np.concatenate([t[1:] for t in samples]) - lo)
    edge = np.repeat(np.arange(len(samples)), [t.size - 1 for t in samples])
    x, w = gauss_legendre(_GL_ORDER)
    n = len(boxes)
    mu = np.zeros((n, order), dtype=complex)
    block = _BLOCK_POINTS // _GL_ORDER
    for s in range(0, lo.size, block):
        e, h = edge[s : s + block], half[s : s + block, None]
        dz = (z1 - z0)[e, None]
        z = (z0[e, None] + dz * (lo[s : s + block, None] + h * (1.0 + x))).ravel()
        j, dj = matching_function(potential, z)
        term = (h * dz * w).ravel() * dj / (2j * np.pi * j)
        box = np.repeat(e // 4, _GL_ORDER)
        zeta = (z - center[box]) / rho[box]
        for p in range(order):
            mu[:, p] += np.bincount(box, term.real, n) + 1j * np.bincount(box, term.imag, n)
            term = term * zeta
    return mu


def _estimates(potential: Potential, boxes: list[_Box]) -> np.ndarray:
    """Starting values of all zeros in ``boxes``, box by box.

    The m zeros of a box are center + rho times the eigenvalues of the pencil
    ([s_(i+j+1)], [s_(i+j)]), i, j < m, of its moments about its center in
    units of its half-diagonal rho.  Where s_0 misses m (a zero near the
    contour between samples), the box's panels are halved and retaken."""
    if not boxes:
        return np.empty(0, dtype=complex)
    rects = np.array([b.rect for b in boxes])
    center = 0.5 * (rects[:, 0] + rects[:, 1]) + 0.5j * (rects[:, 2] + rects[:, 3])
    rho = 0.5 * np.hypot(rects[:, 1] - rects[:, 0], rects[:, 3] - rects[:, 2])
    counts = np.array([b.count for b in boxes])
    mu = np.zeros((len(boxes), 2 * counts.max()), dtype=complex)
    todo = np.arange(len(boxes))
    for _ in range(_MOMENT_ROUNDS):
        part = [boxes[i] for i in todo]
        mu[todo] = _moments(potential, part, center[todo], rho[todo], mu.shape[1])
        todo = todo[np.abs(mu[todo, 0] - counts[todo]) > _MOMENT_TOL]
        if not todo.size:
            break
        for i in todo:
            halved = [np.sort(np.r_[t, 0.5 * (t[1:] + t[:-1])]) for t in boxes[i].samples]
            boxes[i] = boxes[i]._replace(samples=halved)
    found = []
    for m, s, c, r in zip(counts, mu, center, rho):
        idx = np.add.outer(np.arange(m), np.arange(m))
        zeta = eigvals(s[idx + 1], s[idx])
        found.append(np.where(np.isfinite(zeta), c + r * zeta, c))
    return np.concatenate(found)


def _polish(potential: Potential, k: np.ndarray, rects: np.ndarray, tol: float) -> np.ndarray:
    """Newton-polish all estimates at once; steps are clipped to half the
    diagonal of each estimate's rectangle, which the zero must not leave."""
    diag = np.hypot(rects[:, 1] - rects[:, 0], rects[:, 3] - rects[:, 2])
    active = np.arange(k.size)
    moved = np.full(k.size, np.inf)  # |last step| of each active zero
    for _ in range(_NEWTON_MAX_ITER):
        if not active.size:
            break
        j, dj = _finite_matching(potential, k[active])
        if (dj == 0).any():
            raise RootPolishFailure(f"dJ/dk vanished near k = {k[active][0]:.6g}")
        step = j / dj
        clip = 0.5 * diag[active]
        big = np.abs(step) > clip
        step[big] *= clip[big] / np.abs(step[big])
        k[active] -= step
        moved = np.abs(step)
        active, moved = active[moved > tol], moved[moved > tol]
    # past the budget, a last step within tol max(1, |k|) is as close as the
    # digits of a large |k| allow
    missed = active[moved > tol * np.maximum(1.0, np.abs(k[active]))]
    if missed.size:
        raise RootPolishFailure(
            f"Newton missed |dk| <= {tol:g} max(1, |k|) near k = {k[missed[0]]:.6g}"
        )
    margin = 0.1 * diag + 10.0 * tol
    off_re = np.maximum(rects[:, 0] - k.real, k.real - rects[:, 1])
    off_im = np.maximum(rects[:, 2] - k.imag, k.imag - rects[:, 3])
    for i in np.flatnonzero(np.maximum(off_re, off_im) > margin)[:1]:
        raise RootPolishFailure(f"polished zero {k[i]:.6g} escaped {rects[i].tolist()}")
    return k


def _owners(rects: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Strip of each k, or -1 outside them all; the strips tile [0, re_max) in Re k order."""
    i = np.minimum(np.searchsorted(rects[:, 1], k.real, side="right"), len(rects) - 1)
    re_lo, re_hi, im_lo, im_hi = rects[i].T
    inside = (re_lo <= k.real) & (k.real < re_hi) & (im_lo <= k.imag) & (k.imag < im_hi)
    return np.where(inside, i, -1)


def locate_poles(
    potential: Potential, window: SearchWindow, tol: float = 1e-12
) -> "PoleSet":
    """Find every matching-function zero inside ``window``.

    Strips of the window are counted by the argument principle, their zeros
    estimated from contour moments and Newton-polished together; each strip
    must then hold as many distinct zeros as it counts.  The result carries
    per-pole residuals and the contour scale used to normalize them.

    Raises
    ------
    AxisZero
        If a zero sits on (or grazes) the real or imaginary axis, where the
        fourth-quadrant resonance interpretation breaks down.
    WindingMismatch
        If boundary phase accounting ever becomes inconsistent, or the
        polished zeros do not match the counts.
    RootPolishFailure
        If Newton refinement fails to converge or verify.
    DomainError
        If J or dJ/dk is not finite on a contour or at a Newton iterate.
    ConfigError
        If ``tol`` is out of range or the window holds over ``_MAX_SEARCH_ZEROS`` zeros.
    """
    if not (np.isfinite(tol) and 0.0 < tol <= 1e-6):
        raise ConfigError(f"tol must lie in (0, 1e-6], got {tol}")
    boxes = _strips(potential, window, _density(potential, window))
    live = [b for b in boxes if b.count]
    source = np.repeat([b.rect for b in live], [b.count for b in live], axis=0).reshape(-1, 4)
    k = _polish(potential, _estimates(potential, live), source, tol)
    k = k[np.argsort(k.real, kind="stable")]
    owner = _owners(np.array([b.rect for b in boxes]), k)
    found = np.bincount(owner[owner >= 0], minlength=len(boxes))
    for box, n in zip(boxes, found):
        if n != box.count:
            raise WindingMismatch(f"{n} zeros polished in {box.rect}, which counts {box.count}")
    near = 100.0 * max(tol, 1e-13) * (1.0 + np.abs(k))
    ends = np.searchsorted(k.real, k.real + near, side="right")
    for i in np.flatnonzero(ends > np.arange(1, k.size + 1)):
        if (np.abs(k[i + 1 : ends[i]] - k[i]) <= near[i]).any():
            raise WindingMismatch(f"zeros near {k[i]:.6g} are numerically indistinct")
    residuals = np.abs(matching_function(potential, k)[0])
    poles = []
    scales = [boxes[r].peak for r in owner]
    for i, (k_n, residual, scale) in enumerate(zip(k.tolist(), residuals, scales)):
        if residual > _RESIDUAL_TOL * scale:
            raise RootPolishFailure(
                f"|J| = {residual:.3e} > {_RESIDUAL_TOL:g} * scale {scale:.3e} at k = {k_n:.6g}"
            )
        axis_margin = max(10.0 * tol, 1e-12) * (1.0 + abs(k_n))
        if k_n.imag > -axis_margin or k_n.real < axis_margin:
            raise AxisZero(f"zero at k = {k_n:.6g} hugs a coordinate axis; not a resonance")
        poles.append(ResonancePole(i + 1, k_n, float(residual), scale))
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

    @staticmethod
    def index_order(n_pairs: int) -> np.ndarray:
        """Signed indices n = -N..-1, 1..N (mirrors first)."""
        pos = np.arange(1, n_pairs + 1)
        return np.concatenate([-pos[::-1], pos])
