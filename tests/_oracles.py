"""Independent high-precision references used only by the tests.

The Faddeeva values come from two classical representations evaluated in
extended precision with mpmath: the Maclaurin series

    w(z) = sum_n (iz)^n / Gamma(n/2 + 1)

for moderate arguments, and the Laplace continued fraction

    w(z) = (i / sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ...))))

for large arguments in the upper half-plane.  Lower-half-plane values follow
from the exact reflection w(z) = 2 exp(-z^2) - w(-z), also in extended
precision.  Nothing here shares code with the package implementation, apart
from :func:`nonescape_probability_loop`, which keeps the per-sample form of
P(t) that the batched evaluation replaced, :func:`evolve_tdse_full`, which
keeps the Crank-Nicolson loop that solves every step on the whole box,
:func:`locate_poles_bisection`, which keeps the pole search by rectangle
bisection that the contour moments replaced, :func:`kernel_family_two_branch`,
which evaluates both branches of the segment kernels at every point,
:func:`state_values_per_state`, which evaluates every state on its own,
:func:`csv_cell_chain`, which keeps the isinstance chain that formatted each
CSV cell before the formats were looked up by type, :func:`moshinsky_series`,
which sums the large-argument series of M(k, t) from the package's
coefficients, and :func:`one_state` with :func:`state_residuals`, which
build one resonant state and measure how well it satisfies its defining
equations.
"""

from __future__ import annotations

import cmath
import math
from math import fsum

import mpmath as mp
import numpy as np

from nonescape.dynamics import TimeGrid
from nonescape.errors import NonPositiveProbability, TruncationUnstable
from nonescape.gamow import ExpansionData, GamowState, _build_states, _normalization
from nonescape.model import InitialState, Potential, potential_range, segments
from nonescape.oracle import GridSpec, OracleResult, _prepare
from nonescape.poles import PoleSet, ResonancePole, SearchWindow, matching_function
from nonescape.segmath import (
    _COS_COEFF,
    _DSINC_COEFF,
    _DVERS_COEFF,
    _SERIES_CUTOFF,
    _SINC_COEFF,
    _VERS_COEFF,
    _horner,
)
from nonescape.specfn import asymptotic_coefficients, moshinsky


def faddeeva_reference(z: complex, dps: int = 50) -> complex:
    """w(z) to double-precision accuracy by series / continued fraction."""
    with mp.workdps(dps):
        zz = mp.mpc(z)
        if zz.imag < 0:
            val = 2 * mp.exp(-zz * zz) - _upper(-zz)
        else:
            val = _upper(zz)
        return complex(val)


def moshinsky_reference(k: complex, t: float, dps: int = 50) -> complex:
    """M(k, t) = (1/2) w(i y), y = -exp(-i pi/4) k sqrt(t)."""
    with mp.workdps(dps):
        y = -mp.exp(-1j * mp.pi / 4) * mp.mpc(k) * mp.sqrt(mp.mpf(t))
        iy = mp.mpc(0, 1) * y
        if iy.imag < 0:
            val = 2 * mp.exp(-iy * iy) - _upper(-iy)
        else:
            val = _upper(iy)
        return complex(val / 2)


def delta_shell_pole_reference(
    strength: float, seed: complex, dps: int = 40
) -> complex:
    """One matching-function zero of the delta shell (radius 1), polished.

    The matching condition for unit radius is cos k + (lambda - ik) sin(k)/k,
    solved here with mpmath's root finder from a double-precision seed.
    """
    with mp.workdps(dps):
        lam = mp.mpf(strength)

        def j(k):
            return mp.cos(k) + (lam - 1j * k) * mp.sin(k) / k

        return complex(mp.findroot(j, mp.mpc(seed)))


def _upper(z: "mp.mpc") -> "mp.mpc":
    if abs(z) <= 4.0:
        return _taylor(z)
    return _laplace_cf(z)


def _taylor(z: "mp.mpc", n_terms: int = 160) -> "mp.mpc":
    iz = mp.mpc(0, 1) * z
    total = mp.mpc(0)
    power = mp.mpc(1)
    for n in range(n_terms):
        total += power / mp.gamma(mp.mpf(n) / 2 + 1)
        power *= iz
    return total


def _laplace_cf(z: "mp.mpc", depth: int = 220) -> "mp.mpc":
    tail = z
    for m in range(depth, 0, -1):
        tail = z - (mp.mpf(m) / 2) / tail
    return mp.mpc(0, 1) / (mp.sqrt(mp.pi) * tail)


def kernel_family_two_branch(z, length) -> tuple[np.ndarray, ...]:
    """(C, S, dS/dz, W, dW/dz) with both branches run on every point.

    The Taylor series in w = z L^2 and the sqrt/cos/sin route are both
    evaluated everywhere and ``np.where`` keeps the series for |w| <= 4.
    """
    z = np.asarray(z, dtype=complex)
    L = np.asarray(length, dtype=float)
    w = z * L * L
    small = np.abs(w) <= _SERIES_CUTOFF
    series = (
        _horner(_COS_COEFF, w),
        L * _horner(_SINC_COEFF, w),
        L ** 3 * _horner(_DSINC_COEFF, w),
        L * L * _horner(_VERS_COEFF, w),
        L ** 4 * _horner(_DVERS_COEFF, w),
    )
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        q = np.sqrt(z)
        qL = q * L
        c = np.cos(qL)
        s = np.where(qL == 0, L + 0j, np.sin(qL) / np.where(q == 0, 1.0, q))
        safe = np.where(z == 0, 1.0, z)
        direct = (
            c,
            s,
            np.where(z == 0, 1.0, (L * c - s) / (2.0 * safe)),
            (1.0 - c) / safe,
            (0.5 * z * L * s - (1.0 - c)) / np.where(z == 0, 1.0, z ** 2),
        )
    return tuple(np.where(small, ser, dire) for ser, dire in zip(series, direct))


def same_bits(got, want) -> bool:
    """True when two complex arrays hold the same bits (signed zeros count)."""
    got = np.ascontiguousarray(np.asarray(got, dtype=complex))
    want = np.ascontiguousarray(np.asarray(want, dtype=complex))
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def state_values_per_state(states, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u_m at the located points, each state evaluated on its own, one row per state."""
    rows = []
    for st in states:
        c, s = kernel_family_two_branch(st.z[idx], x)[:2]
        rows.append(st.a[idx] * c + st.b[idx] * s)
    return np.array(rows).reshape(len(states), np.size(idx))


def moshinsky_series(k: complex, t: float, order: int) -> complex:
    """Truncated large-argument series sum_{j <= order} m_j y^-(2j+1) of M(k, t).

    y = -exp(-i pi/4) k sqrt(t) is formed here; the m_j are the package's
    :func:`asymptotic_coefficients`.  The series holds for large |y| with
    |arg y| < 3 pi / 4, which both resonant families in the fourth quadrant
    and their mirrors satisfy at late times.
    """
    y = -cmath.exp(-0.25j * math.pi) * k * math.sqrt(t)
    coeffs = asymptotic_coefficients(order + 1)
    inv2 = 1.0 / (y * y)
    acc = complex(coeffs[order])
    for j in range(order - 1, -1, -1):
        acc = acc * inv2 + coeffs[j]
    return acc / y


def one_state(potential: Potential, pole: ResonancePole) -> GamowState:
    """The normalized resonant state of one pole (or mirror), built alone."""
    return _build_states(potential, [pole])[0]


def state_residuals(potential: Potential, state: GamowState) -> tuple[float, float, float, float]:
    """(ODE, origin, outgoing, normalization) residuals of a resonant state.

    The ODE residual u'' + (k^2 - V) u is probed on a five-point stencil at
    40 interior points of every segment (stencils never straddle a kink),
    relative to |k^2| max|u|.  The origin residual is |u(0)| relative to
    |u(R)| + |u(0)|, the outgoing one |J(k)| relative to |k| |u(R)|, and the
    normalization residual the absolute deviation of the rule from 1.
    """
    k = state.k
    h = 0.01 / max(1.0, abs(k))
    ode = 0.0
    for r_start, r_end, height in segments(potential):
        h_j = min(h, (r_end - r_start) / 8.0)
        pts = np.linspace(r_start + 2.5 * h_j, r_end - 2.5 * h_j, 40)
        grid = pts[:, None] + np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h_j
        u = np.asarray(state.evaluate(grid.ravel())).reshape(grid.shape)
        upp = (-u[:, 0] + 16.0 * u[:, 1] - 30.0 * u[:, 2] + 16.0 * u[:, 3] - u[:, 4]) / (
            12.0 * h_j * h_j
        )
        resid = upp + (k * k - height) * u[:, 2]
        scale = abs(k * k) * float(np.max(np.abs(u))) + 1e-300
        ode = max(ode, float(np.max(np.abs(resid))) / scale)
    origin = abs(state.evaluate(0.0))
    u_scale = abs(state.boundary_value) + origin
    # outgoing condition u'(R+) = i k u(R), with u'(R+) from the matching residual
    outgoing = state.pole.residual / max(abs(k) * abs(state.boundary_value), 1e-300)
    norm2, _ = _normalization(
        state.r_edges, np.array([k]), state.z[None], state.a[None], state.b[None],
        np.array([state.boundary_value]),
    )
    return ode, origin / max(u_scale, 1e-300), outgoing, float(abs(norm2[0] - 1.0))


def csv_cell_chain(value) -> str:
    """One CSV cell: a bool as 0 or 1, a float to 17 significant digits, else str."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def product_integral_six_kernels(length, z1, a1, b1, z2, a2, b2) -> np.ndarray:
    """``int_0^L u1 u2 dx`` with the divided differences formed directly.

    Six separate kernel evaluations (S and W at a and b, their derivatives
    at the midpoint), and (f(a) - f(b)) / (a - b) outside the midpoint
    branch, which cancels when a and b are close.
    """
    L = np.asarray(length, dtype=float)
    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    s = np.sqrt(z1 * z2)
    plus = z1 + z2 + 2.0 * s
    minus = z1 + z2 - 2.0 * s
    a = np.where(np.abs(minus) > np.abs(plus), minus, plus)
    nonzero = a != 0
    b = np.where(nonzero, (z1 - z2) ** 2 / np.where(nonzero, a, 1.0), 0j)
    mid = 0.5 * (a + b)
    _, ga, _, wa, _ = kernel_family_two_branch(a, L)
    _, gb, _, wb, _ = kernel_family_two_branch(b, L)
    _, _, dg_mid, _, dw_mid = kernel_family_two_branch(mid, L)
    delta = a - b
    near = np.abs(delta) <= 1e-6 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    delta = np.where(near, 1.0, delta)
    iss = -2.0 * np.where(near, dg_mid, (ga - gb) / delta)
    wdd = np.where(near, dw_mid, (wa - wb) / delta)
    wsum = 0.5 * (wa + wb)
    ics = wsum + 2.0 * z1 * wdd
    isc = wsum + 2.0 * z2 * wdd
    return a1 * a2 * (0.5 * (ga + gb)) + a1 * b2 * ics + b1 * a2 * isc + b1 * b2 * iss


def nonescape_probability_loop(
    data: ExpansionData, times: np.ndarray
) -> tuple[np.ndarray, float]:
    """P(t) and the worst imaginary residual, one time sample at a time.

    Each sample sums its (2N)^2 terms largest-first with ``math.fsum``, using
    the expansion's own overlap matrix and scalar Moshinsky calls; the same
    checks raise at the first offending sample.
    """
    p_out = np.empty(len(times))
    worst_imag = 0.0
    for j, t in enumerate(times):
        w = data.coefficients * np.asarray(moshinsky(data.wavenumbers, float(t)))
        outer = w[:, None] * np.conj(w)[None, :]
        flat = (data.overlap * outer).ravel()
        flat = flat[np.argsort(-np.abs(flat), kind="stable")]
        re, im = fsum(flat.real), fsum(flat.imag)
        scale = max(1.0, abs(re))
        if abs(im) > 1e-6 * scale:
            raise TruncationUnstable(
                f"imaginary residual {im:.3e} at t = {t:g} (P = {re:.3e})"
            )
        if re < -1e-9:
            raise NonPositiveProbability(f"P({t:g}) = {re:.3e} < -1e-9")
        worst_imag = max(worst_imag, abs(im) / scale)
        p_out[j] = re
    return p_out, worst_imag


def evolve_tdse_full(
    potential: Potential,
    psi0: InitialState,
    grid: GridSpec,
    times: TimeGrid | None = None,
    sample_times: tuple[float, ...] = (),
) -> OracleResult:
    """``evolve_tdse`` with every step solved on all interior nodes.

    Same set-up and bookkeeping as the package; the leak monitor looks at
    the far wall after every step.
    """
    run = _prepare(potential, psi0, grid, times, sample_times)
    psi = run.psi0
    run.record(0, psi)
    for step in range(1, grid.n_steps + 1):
        rhs = run.diag_b * psi
        rhs[:-1] += run.off_b * psi[1:]
        rhs[1:] += run.off_b * psi[:-1]
        psi, _ = run.gttrs(*run.factors, rhs)
        psi[run.mask_start :] *= run.mask
        run.watch_far_wall(step, psi)
        run.check_norm(step, psi)
        run.record(step, psi)
    return run.result()


def _march_edge(potential: Potential, z0: complex, z1: complex, density: float):
    """(phase, max |J|) along z0 -> z1, refined until no step turns over pi/2.

    Returns None where |J| drops below 1e-9 of the edge maximum.
    """
    ts = np.linspace(0.0, 1.0, max(8, int(4.0 + abs(z1 - z0) * density)))
    j = np.asarray(matching_function(potential, z0 + (z1 - z0) * ts)[0])
    while True:
        absj = np.abs(j)
        if np.any(absj <= 1e-9 * np.max(absj)):
            return None
        dphi = np.angle(j[1:] / j[:-1])
        bad = np.flatnonzero(np.abs(dphi) > 0.5 * np.pi)
        if not bad.size:
            return float(np.sum(dphi)), float(np.max(absj))
        mid_ts = 0.5 * (ts[bad] + ts[bad + 1])
        mid_j = np.asarray(matching_function(potential, z0 + (z1 - z0) * mid_ts)[0])
        ts, j = np.concatenate([ts, mid_ts]), np.concatenate([j, mid_j])
        order = np.argsort(ts, kind="stable")
        ts, j = ts[order], j[order]


def _bisection_winding(potential: Potential, rect, density: float):
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo), complex(re_hi, im_hi),
               complex(re_lo, im_hi), complex(re_lo, im_lo)]
    edges = [_march_edge(potential, a, b, density) for a, b in zip(corners[:-1], corners[1:])]
    if any(e is None for e in edges):
        return None
    return round(sum(e[0] for e in edges) / (2.0 * np.pi)), max(e[1] for e in edges)


def locate_poles_bisection(
    potential: Potential, window: SearchWindow, tol: float = 1e-12
) -> PoleSet:
    """The pole search by rectangle bisection that contour moments replaced.

    The window is counted by winding and split at its longest side (at the
    fractions 0.5, 0.55, 0.45, ... when a split line grazes a zero or the
    halves disagree) until each rectangle holds one zero, small against its
    center, which Newton iteration polishes from the rectangle's center.
    ``scale`` is the largest contour maximum of |J| met on the way down.
    """
    density = max(1.0, 2.0 * potential_range(potential))
    found = []

    def isolate(rect, count, scale):
        re_lo, re_hi, im_lo, im_hi = rect
        diag = float(np.hypot(re_hi - re_lo, im_hi - im_lo))
        center = complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
        if count == 1 and diag <= 0.05 * (1.0 + abs(center)):
            k = center
            for _ in range(60):
                j, dj = matching_function(potential, k)
                step = j / dj
                if abs(step) > 0.5 * diag:
                    step *= 0.5 * diag / abs(step)
                k = k - step
                if abs(step) <= tol:
                    break
            found.append((k, abs(matching_function(potential, k)[0]), scale))
            return
        for frac in (0.5, 0.55, 0.45, 0.6, 0.4, 0.52, 0.48):
            if (re_hi - re_lo) >= (im_hi - im_lo):
                cut = re_lo + frac * (re_hi - re_lo)
                halves = (re_lo, cut, im_lo, im_hi), (cut, re_hi, im_lo, im_hi)
            else:
                cut = im_lo + frac * (im_hi - im_lo)
                halves = (re_lo, re_hi, im_lo, cut), (re_lo, re_hi, cut, im_hi)
            counted = [_bisection_winding(potential, h, density) for h in halves]
            if None in counted or counted[0][0] + counted[1][0] != count:
                continue
            for half, (n, peak) in zip(halves, counted):
                if n:
                    isolate(half, n, max(scale, peak))
            return
        raise RuntimeError(f"could not split {rect}")

    count, scale = _bisection_winding(potential, (0.0, window.re_max, window.im_min, 0.0), density)
    if count:
        isolate((0.0, window.re_max, window.im_min, 0.0), count, scale)
    found.sort(key=lambda item: item[0].real)
    poles = tuple(ResonancePole(i + 1, k, r, s) for i, (k, r, s) in enumerate(found))
    return PoleSet(potential=potential, window=window, tol=tol, poles=poles)
