"""Segment algebra for piecewise-constant radial problems.

On a segment of length L with constant potential V, solutions of
u'' + (k^2 - V) u = 0 are combinations of cos(q x) and sin(q x)/q with
q^2 = z = k^2 - V.  Everything here is expressed through the kernels

    C(z, L) = cos(q L),        S(z, L) = sin(q L)/q,

which are entire *even* functions of q, hence entire in z and in k: no
square-root branch ever enters, so downstream matching functions are entire
and safe for argument-principle root counting.

The module also provides closed-form products ``int_0^L u1 u2 dx`` of two
such solutions (used for normalization integrals and expansion coefficients)
and Gauss-Legendre panel quadrature helpers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "kernels",
    "kernels_with_dz",
    "versine_kernel",
    "propagate",
    "propagate_with_dk",
    "product_integral",
    "gauss_legendre",
    "panel_nodes",
]

# Below |z| L^2 <= _SERIES_CUTOFF the kernels switch to truncated Taylor
# series in w = z L^2; 13 terms leave the remainder below 1e-18 at the cutoff.
_SERIES_CUTOFF = 4.0
_N_SERIES = 13

_COS_COEFF = np.array([(-1.0) ** j / math.factorial(2 * j) for j in range(_N_SERIES)])
_SINC_COEFF = np.array([(-1.0) ** j / math.factorial(2 * j + 1) for j in range(_N_SERIES)])
_VERS_COEFF = np.array([(-1.0) ** j / math.factorial(2 * j + 2) for j in range(_N_SERIES)])
# d/dw of the sinc series: sum over j >= 1 of j (-1)^j w^(j-1) / (2j+1)!
_DSINC_COEFF = np.array(
    [(-1.0) ** (j + 1) * (j + 1) / math.factorial(2 * j + 3) for j in range(_N_SERIES)]
)
_DVERS_COEFF = np.array(
    [(-1.0) ** (j + 1) * (j + 1) / math.factorial(2 * j + 4) for j in range(_N_SERIES)]
)


def _horner(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    acc = np.full_like(w, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * w + c
    return acc


def kernels(z: np.ndarray | complex, length: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Return (C, S) = (cos(qL), sin(qL)/q) with q^2 = z, entire in z."""
    z_arr = np.asarray(z, dtype=complex)
    L = np.asarray(length, dtype=float)
    w = z_arr * L * L
    small = np.abs(w) <= _SERIES_CUTOFF
    c_ser = _horner(_COS_COEFF, w)
    s_ser = L * _horner(_SINC_COEFF, w)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        q = np.sqrt(z_arr)
        qL = q * L
        c_dir = np.cos(qL)
        s_dir = np.where(qL == 0, L + 0j, np.sin(qL) / np.where(q == 0, 1.0, q))
    c = np.where(small, c_ser, c_dir)
    s = np.where(small, s_ser, s_dir)
    if np.ndim(z) == 0 and np.ndim(length) == 0:
        return complex(c), complex(s)
    return c, s


def kernels_with_dz(
    z: np.ndarray | complex, length: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(C, S, dC/dz, dS/dz); derivatives are entire in z as well."""
    z_arr = np.asarray(z, dtype=complex)
    L = np.asarray(length, dtype=float)
    c, s = kernels(z_arr, L)
    c = np.asarray(c)
    s = np.asarray(s)
    dc = -0.5 * L * s
    w = z_arr * L * L
    small = np.abs(w) <= _SERIES_CUTOFF
    ds_ser = L ** 3 * _horner(_DSINC_COEFF, w)
    with np.errstate(invalid="ignore", divide="ignore"):
        ds_dir = np.where(z_arr == 0, 1.0, (L * c - s) / (2.0 * np.where(z_arr == 0, 1.0, z_arr)))
    ds = np.where(small, ds_ser, ds_dir)
    if np.ndim(z) == 0 and np.ndim(length) == 0:
        return complex(c), complex(s), complex(dc), complex(ds)
    return c, s, dc, ds


def versine_kernel(
    w: np.ndarray | complex, length: np.ndarray | float, with_derivative: bool = False
):
    """W(w, L) = (1 - cos(sqrt(w) L)) / w, entire in w; optionally dW/dw."""
    w_arr = np.asarray(w, dtype=complex)
    L = np.asarray(length, dtype=float)
    x = w_arr * L * L
    small = np.abs(x) <= _SERIES_CUTOFF
    v_ser = L * L * _horner(_VERS_COEFF, x)
    c, s = kernels(w_arr, L)
    c = np.asarray(c)
    with np.errstate(invalid="ignore", divide="ignore"):
        safe = np.where(w_arr == 0, 1.0, w_arr)
        v_dir = (1.0 - c) / safe
    v = np.where(small, v_ser, v_dir)
    if not with_derivative:
        if np.ndim(w) == 0 and np.ndim(length) == 0:
            return complex(v)
        return v
    dv_ser = L ** 4 * _horner(_DVERS_COEFF, x)
    s = np.asarray(s)
    with np.errstate(invalid="ignore", divide="ignore"):
        dv_dir = (0.5 * w_arr * L * s - (1.0 - c)) / np.where(w_arr == 0, 1.0, w_arr ** 2)
    dv = np.where(small, dv_ser, dv_dir)
    if np.ndim(w) == 0 and np.ndim(length) == 0:
        return complex(v), complex(dv)
    return v, dv


def propagate(
    u: np.ndarray | complex,
    du: np.ndarray | complex,
    z: np.ndarray | complex,
    length: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance (u, u') across one constant segment of length ``length``."""
    c, s = kernels(z, length)
    u2 = u * c + du * s
    du2 = -u * np.asarray(z) * np.asarray(s) + du * c
    return u2, du2


def propagate_with_dk(
    u, du, uk, duk, z, dzdk, length: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance (u, u', du/dk, du'/dk) across one segment.

    ``uk``/``duk`` are derivatives with respect to the global wavenumber k;
    the segment parameter z = k^2 - V has dz/dk = 2k passed explicitly.
    """
    c, s, dc, ds = kernels_with_dz(z, length)
    u2 = u * c + du * s
    du2 = -u * z * s + du * c
    uk2 = uk * c + duk * s + dzdk * (u * dc + du * ds)
    duk2 = -uk * z * s + duk * c + dzdk * (-u * s - u * z * ds + du * dc)
    return u2, du2, uk2, duk2


def product_integral(length, z1, a1, b1, z2, a2, b2) -> np.ndarray | complex:
    """Closed form of ``int_0^L u1(x) u2(x) dx`` for segment solutions.

    Here ``u_i(x) = a_i cos(q_i x) + b_i sin(q_i x)/q_i`` with q_i^2 = z_i.
    All arguments broadcast against each other; scalars give a complex.
    The result is assembled from kernels even in both q's, so it is branch
    free; the only subtlety is a divided difference that degenerates when
    q1 q2 -> 0, where a midpoint derivative replaces it.
    """
    L = np.asarray(length, dtype=float)
    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    s = np.sqrt(z1 * z2)
    # (q1 + q2)^2 and (q1 - q2)^2: the pair {a, b} is branch-free.  The
    # smaller root comes from the product a b = (z1 - z2)^2, because
    # z1 + z2 - 2s cancels (to ~eps |z| where it should vanish, z1 = z2).
    plus = z1 + z2 + 2.0 * s
    minus = z1 + z2 - 2.0 * s
    a = np.where(np.abs(minus) > np.abs(plus), minus, plus)
    nonzero = a != 0
    b = np.where(nonzero, (z1 - z2) ** 2 / np.where(nonzero, a, 1.0), 0j)
    mid = 0.5 * (a + b)
    # The G of the closed form is the S kernel evaluated at w; W is the versine.
    ga = kernels(a, L)[1]
    gb = kernels(b, L)[1]
    dg_mid = kernels_with_dz(mid, L)[3]
    wa = versine_kernel(a, L)
    wb = versine_kernel(b, L)
    dw_mid = versine_kernel(mid, L, with_derivative=True)[1]

    delta = a - b
    near = np.abs(delta) <= 1e-6 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    delta = np.where(near, 1.0, delta)
    icc = 0.5 * (ga + gb)
    iss = -2.0 * np.where(near, dg_mid, (ga - gb) / delta)
    wsum = 0.5 * (wa + wb)
    wdd = np.where(near, dw_mid, (wa - wb) / delta)
    ics = wsum + 2.0 * z1 * wdd
    isc = wsum + 2.0 * z2 * wdd
    total = a1 * a2 * icc + a1 * b2 * ics + b1 * a2 * isc + b1 * b2 * iss
    if np.ndim(total) == 0:
        return complex(total)
    return total


@lru_cache(maxsize=32)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (cached)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_nodes(a: float, b: float, n_panels: int, order: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating over [a, b] with ``n_panels`` GL panels."""
    x, w = gauss_legendre(order)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
