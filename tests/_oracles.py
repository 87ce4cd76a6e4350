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
P(t) that the batched evaluation replaced, and :func:`evolve_tdse_full`,
which keeps the Crank-Nicolson loop that solves every step on the whole box.
"""

from __future__ import annotations

from math import fsum

import mpmath as mp
import numpy as np

from nonescape.dynamics import TimeGrid
from nonescape.errors import NonPositiveProbability, TruncationUnstable
from nonescape.gamow import ExpansionData
from nonescape.model import InitialState, Potential
from nonescape.oracle import GridSpec, OracleResult, _prepare
from nonescape.specfn import moshinsky


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
        flat = (data.overlap * (w[:, None] * np.conj(w)[None, :])).ravel()
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
