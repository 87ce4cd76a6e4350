"""Special functions for quantum transient decay.

The central object is the Moshinsky function

    M(k, t) = (1/2) exp(y^2) erfc(y),    y = -exp(-i pi/4) k sqrt(t),

which carries the full time dependence of each resonant term: the initial
value is exactly 1/2, the reflection identity M(k, t) + M(-k, t) =
exp(-i k^2 t) splits off the exponential decay stage, and the large-|y|
asymptotics produce the inverse-power tail.  Everything is evaluated through
the Faddeeva function w(z) = exp(-z^2) erfc(-i z), for which scipy provides a
machine-accurate upper-half-plane implementation; the lower half plane is
reached through the reflection w(z) = 2 exp(-z^2) - w(-z) with an explicit
overflow guard on the exponential.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import wofz

from .errors import DomainError, OverflowGuard

__all__ = [
    "faddeeva",
    "moshinsky",
    "asymptotic_coefficients",
    "TAIL_PREFACTOR",
]

# Leading coefficient of the large-argument series, M ~ TAIL_PREFACTOR / y.
TAIL_PREFACTOR = 1.0 / (2.0 * math.sqrt(math.pi))

_PHASE = complex(math.cos(-math.pi / 4.0), math.sin(-math.pi / 4.0))  # exp(-i pi/4)

# |exp(-z^2)| = exp(Im(z)^2 - Re(z)^2); beyond this the reflection term
# overflows double precision.
_LOG_OVERFLOW = 705.0


def faddeeva(z: np.ndarray | complex) -> np.ndarray | complex:
    """w(z) = exp(-z^2) erfc(-i z) for any complex z, vectorized.

    Raises
    ------
    OverflowGuard
        If a lower-half-plane point requires an exp(-z^2) factor beyond
        double-precision range.
    """
    z_arr = np.asarray(z, dtype=complex)
    out = np.empty_like(z_arr)
    upper = z_arr.imag >= 0.0
    if np.any(upper):
        out[upper] = wofz(z_arr[upper])
    lower = ~upper
    if np.any(lower):
        zl = z_arr[lower]
        growth = zl.imag ** 2 - zl.real ** 2
        if np.any(growth > _LOG_OVERFLOW):
            worst = zl[np.argmax(growth)]
            raise OverflowGuard(
                f"faddeeva reflection term exp(-z^2) overflows at z = {worst:.6g}"
            )
        out[lower] = 2.0 * np.exp(-zl * zl) - wofz(-zl)
    if np.ndim(z) == 0:
        return complex(out)
    return out


def moshinsky(
    k: np.ndarray | complex, t: np.ndarray | float
) -> np.ndarray | complex:
    """M(k, t) = (1/2) exp(y^2) erfc(y) = (1/2) w(i y), y = -e^{-i pi/4} k sqrt(t).

    Exact evaluation through the Faddeeva function; M(k, 0) = 1/2 exactly.
    ``k`` and ``t`` may each be a scalar or an array of non-negative times;
    the result has shape ``t.shape + k.shape`` (every time against every
    wavenumber), and each entry is the value a scalar call would return.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError(f"time must be non-negative, got t = {np.min(t_arr)}")
    k_arr = np.asarray(k, dtype=complex)
    y = np.multiply.outer(np.sqrt(t_arr), -_PHASE * k_arr)
    m = 0.5 * np.asarray(faddeeva(1j * y))
    if m.ndim == 0:
        return complex(m)
    return m


def asymptotic_coefficients(n_terms: int) -> np.ndarray:
    """Real coefficients m_j of the series M(k, t) ~ sum_j m_j y^-(2j+1).

    m_j = (-1)^j (2j-1)!! / (2^j 2 sqrt(pi)); m_0 is ``TAIL_PREFACTOR``.
    """
    if n_terms < 1:
        raise DomainError("need at least one series term")
    coeffs = np.empty(n_terms)
    coeffs[0] = TAIL_PREFACTOR
    for j in range(1, n_terms):
        coeffs[j] = -coeffs[j - 1] * (2 * j - 1) / 2.0
    return coeffs

