"""Segment algebra for piecewise-constant radial problems.

On a segment of length L with constant potential V, solutions of
u'' + (k^2 - V) u = 0 are combinations of cos(q x) and sin(q x)/q with
q^2 = z = k^2 - V.  Everything here is expressed through the kernels

    C(z, L) = cos(q L),        S(z, L) = sin(q L)/q,

which are entire *even* functions of q, hence entire in z and in k: no
square-root branch ever enters, so downstream matching functions are entire
and safe for argument-principle root counting.

:func:`regular_solutions` carries u(0) = 0, u'(0) = 1 across the segments;
it is the one pass behind the matching function and the resonant states.
The module also provides closed-form products ``int_0^L u1 u2 dx`` of two
such solutions (used for normalization integrals and expansion coefficients)
and Gauss-Legendre panel quadrature helpers.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .model import Potential, segments

__all__ = [
    "kernels",
    "regular_solutions",
    "product_integral",
    "gauss_legendre",
    "panel_nodes",
]

# Below |z| L^2 <= _SERIES_CUTOFF the kernels switch to truncated Taylor
# series in w = z L^2; 13 terms leave the remainder below 1e-18 at the cutoff.
_SERIES_CUTOFF = 4.0
_N_SERIES = 13
# product_integral refuses |z| above this.  Below it every part of its
# largest intermediates, z1 z2, (z1 - z2)^2 and the square of the midpoint
# argument (|a| <= 4 |z|), stays under 4e301, far from overflow; a L^2 does
# too for any segment length below 1e75.
_MAX_ABS_Z = 1e150
# product_integral also refuses |Im sqrt(a)| L or |Im sqrt(b)| L above this,
# where sqrt(a) and sqrt(b) are q1 + q2 and q1 - q2: its kernels at a and b
# grow like exp(|Im sqrt(a)| L), and cosh overflows past 710.5.
_MAX_IM_QL = 700.0

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


def _series_family(w, length, cosine: bool, derivative: bool, versine: bool) -> list:
    """[C, S, dS/dz, W, dW/dz] from the Taylor series in w = z L^2."""
    L = length
    return [
        _horner(_COS_COEFF, w) if cosine else None,
        L * _horner(_SINC_COEFF, w),
        L ** 3 * _horner(_DSINC_COEFF, w) if derivative else None,
        L * L * _horner(_VERS_COEFF, w) if versine else None,
        L ** 4 * _horner(_DVERS_COEFF, w) if derivative and versine else None,
    ]


def _root_family(z, q, length, cosine: bool, derivative: bool, versine: bool) -> list:
    """[C, S, dS/dz, W, dW/dz] from q = sqrt(z) and cos(q L), sin(q L)."""
    L = length
    qL = q * L
    with np.errstate(over="ignore", invalid="ignore"):  # |Im qL| beyond ~710
        c = np.cos(qL) if cosine or derivative or versine else None
        s = np.sin(qL) / q
        return [
            c if cosine else None,
            s,
            (L * c - s) / (2.0 * z) if derivative else None,
            (1.0 - c) / z if versine else None,
            (0.5 * z * L * s - (1.0 - c)) / z ** 2 if derivative and versine else None,
        ]


def _kernel_family(
    z, length, derivative: bool = False, versine: bool = False, cosine: bool = True
) -> list:
    """[C, S, dS/dz, W, dW/dz] at the broadcast points of (z, length).

    S is always formed; the other entries are None when not asked for.
    Each point takes one branch: the Taylor series in w = z L^2 runs only
    where |w| <= _SERIES_CUTOFF, and the sqrt/cos/sin route only on the
    other points, where z and L are nonzero.  The root is taken once per
    value of z, before z meets the lengths, so a column of z against a row
    of lengths takes one root per row.  When every point takes one branch,
    that branch runs on the broadcast operands with no gather or scatter.
    """
    z_arr = np.asarray(z, dtype=complex)
    L = np.asarray(length, dtype=float)
    w = z_arr * L * L
    small = np.abs(w) <= _SERIES_CUTOFF
    flags = (cosine, derivative, versine)
    # A single point takes the gathered route below as a one-element
    # array: numpy's scalar arithmetic does not fuse the complex product
    # as its array loops do, so 0-d operands would change bits.
    if w.ndim and small.all():
        return _series_family(w, L, *flags)
    q = np.sqrt(z_arr)
    if w.ndim and not small.any():
        return _root_family(z_arr, q, L, *flags)
    wanted = (cosine, True, derivative, versine, derivative and versine)
    out = [np.empty(w.shape, dtype=complex) if flag else None for flag in wanted]
    for mask, family, operands in (
        (small, _series_family, (w, L)),
        (~small, _root_family, (z_arr, q, L)),
    ):
        if mask.any():
            points = (np.broadcast_to(v, w.shape)[mask] for v in operands)
            for target, values in zip(out, family(*points, *flags)):
                if target is not None:
                    target[mask] = values
    return out


def _scalar_or_array(values: list, z, length) -> tuple:
    if np.ndim(z) == 0 and np.ndim(length) == 0:
        return tuple(None if v is None else complex(v) for v in values)
    return tuple(values)


def kernels(
    z: np.ndarray | complex, length: np.ndarray | float, cosine: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """Return (C, S) = (cos(qL), sin(qL)/q) with q^2 = z, entire in z.

    Each point is evaluated on one branch only: the Taylor series where
    |z L^2| <= 4, the sqrt/cos/sin route elsewhere.  With ``cosine=False``
    C is not evaluated and is None; S keeps its bits.
    """
    c, s = _kernel_family(z, length, cosine=cosine)[:2]
    return _scalar_or_array([c, s], z, length)


def regular_solutions(potential: Potential, k, with_dk: bool = False) -> tuple:
    """The regular solution u(0) = 0, u'(0) = 1 carried across every segment.

    Returns (z, a, b, ends).  z = k^2 - V and (a, b) = (u, u') at each
    segment's left edge are stacked on a last axis, one entry per segment,
    so ``a cos(q x) + b sin(q x)/q`` is u within a segment.  ``ends`` is
    (u, u') at R-, followed by (du/dk, du'/dk) when ``with_dk`` is set; only
    then is dS/dz formed.  Each point of an array k has the same bits
    whatever the batch.  Where the kernels overflow (|Im q| L beyond about
    710 on a segment) the values are not finite, without a warning.
    """
    k = np.asarray(k, dtype=complex)
    segs = segments(potential)
    z = np.empty(k.shape + (len(segs),), dtype=complex)
    a, b = np.empty_like(z), np.empty_like(z)
    u, du = np.zeros_like(k), np.ones_like(k)
    uk, duk = np.zeros_like(k), np.zeros_like(k)
    dzdk = 2.0 * k
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (r_start, r_end, height) in enumerate(segs):
            length = r_end - r_start
            zj = k * k - height
            z[..., j], a[..., j], b[..., j] = zj, u, du
            c, s, ds = _kernel_family(zj, length, derivative=with_dk)[:3]
            if with_dk:
                dc = -0.5 * length * s
                # d/dz of (u, u') at the segment's end, bound to names before
                # they meet dzdk: numpy reuses a nameless right operand of
                # 256 KiB or more in place, as bracket * dzdk, and that swap
                # changes the bits of a complex product with the batch size.
                u_z = u * dc + du * ds
                du_z = -u * s - u * zj * ds + du * dc
                uk, duk = (
                    uk * c + duk * s + dzdk * u_z,
                    -uk * zj * s + duk * c + dzdk * du_z,
                )
            u, du = u * c + du * s, -u * zj * s + du * c
    return z, a, b, (u, du, uk, duk) if with_dk else (u, du)


def _series_differences(a, b, length) -> tuple[np.ndarray, np.ndarray]:
    """(G(a) - G(b)) / (a - b) and (W(a) - W(b)) / (a - b), term by term.

    In the Taylor series of G = S and of W each power divides exactly:
    (A^j - B^j) / (A - B) = h_{j-1}(A, B) = sum_i A^i B^(j-1-i), with
    A = a L^2 and B = b L^2, and h_j = A h_{j-1} + B^j.  Nothing cancels.
    """
    L = length
    A, B = a * L * L, b * L * L
    h, power = np.ones_like(A), np.ones_like(B)
    dg, dw = np.zeros_like(A), np.zeros_like(A)
    for j in range(1, _N_SERIES):
        dg += _SINC_COEFF[j] * h
        dw += _VERS_COEFF[j] * h
        power = power * B
        h = A * h + power
    return L ** 3 * dg, L ** 4 * dw


def _direct_differences(a, b, length) -> tuple[np.ndarray, np.ndarray]:
    """(G(a) - G(b)) / (a - b) and (W(a) - W(b)) / (a - b) for a close to b.

    With p = sqrt(a), s = sqrt(b) on the same side, x = p L, y = s L and
    d = p - s = (a - b) / (p + s), the differences of sin x and cos x come
    from sin x - sin y = 2 cos((x+y)/2) sin(d L/2) and
    cos y - cos x = 2 sin((x+y)/2) sin(d L/2), which do not cancel.
    """
    L = length
    p, s = np.sqrt(a), np.sqrt(b)
    s = np.where(np.abs(p - s) > np.abs(p + s), -s, s)
    d = (a - b) / (p + s)
    m = 0.5 * (p + s) * L
    y = s * L
    half = np.sin(0.5 * d * L) / d
    dg = (2.0 * s * np.cos(m) * half - np.sin(y)) / (p * s * (p + s))
    dw = (2.0 * b * np.sin(m) * half / (p + s) - (1.0 - np.cos(y))) / (a * b)
    return dg, dw


def product_integral(length, z1, a1, b1, z2, a2, b2) -> np.ndarray | complex:
    """Closed form of ``int_0^L u1(x) u2(x) dx`` for segment solutions.

    Here ``u_i(x) = a_i cos(q_i x) + b_i sin(q_i x)/q_i`` with q_i^2 = z_i.
    All arguments broadcast against each other; scalars give a complex.
    The result is assembled from kernels even in both q's, so it is branch
    free.  Its divided differences (f(a) - f(b)) / (a - b) of the kernels
    G = S and W degenerate when q1 q2 -> 0: a midpoint derivative replaces
    them for |a - b| <= 1e-6 |a|.  Outside that they are formed without
    cancellation where f(a) and f(b) are close: term by term from the
    series where |a L^2| <= 4, and by product-to-sum identities where the
    phases sqrt(a) L and sqrt(b) L differ by about 1/2 or less
    (|a - b| L <= sqrt|a|).

    Raises
    ------
    DomainError
        If |z1| or |z2| exceeds 1e150, beyond which its products can overflow,
        or |Im(q1 +- q2)| L exceeds 700, beyond which its kernels can.
    """
    L = np.asarray(length, dtype=float)
    z1, z2 = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    if np.any(np.abs(z1) > _MAX_ABS_Z) or np.any(np.abs(z2) > _MAX_ABS_Z):
        raise DomainError(f"product_integral needs |z| <= {_MAX_ABS_Z:g}")
    s = np.sqrt(z1 * z2)
    # (q1 + q2)^2 and (q1 - q2)^2: the pair {a, b} is branch-free.  The
    # smaller root comes from the product a b = (z1 - z2)^2, because
    # z1 + z2 - 2s cancels (to ~eps |z| where it should vanish, z1 = z2).
    plus = z1 + z2 + 2.0 * s
    minus = z1 + z2 - 2.0 * s
    a = np.where(np.abs(minus) > np.abs(plus), minus, plus)
    nonzero = a != 0
    b = np.where(nonzero, (z1 - z2) ** 2 / np.where(nonzero, a, 1.0), 0j)
    if np.any(np.maximum(np.abs(np.sqrt(a).imag), np.abs(np.sqrt(b).imag)) * L > _MAX_IM_QL):
        raise DomainError(f"product_integral needs |Im(q1 +- q2)| L <= {_MAX_IM_QL:g}")
    mid = 0.5 * (a + b)
    # The G of the closed form is the S kernel evaluated at w; W is the versine.
    _, ga, _, wa, _ = _kernel_family(a, L, versine=True)
    _, gb, _, wb, _ = _kernel_family(b, L, versine=True)
    _, _, dg_mid, _, dw_mid = _kernel_family(mid, L, derivative=True, versine=True)

    delta = a - b
    top = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    near = np.abs(delta) <= 1e-6 * top
    delta = np.where(near, 1.0, delta)
    gdd = np.where(near, dg_mid, (ga - gb) / delta)
    wdd = np.where(near, dw_mid, (wa - wb) / delta)
    # |b| <= |a|, so |a L^2| <= 4 puts both kernel arguments in the series regime
    series = ~near & (np.abs(a * L * L) <= _SERIES_CUTOFF)
    close = ~near & ~series & (np.abs(delta) * L <= np.sqrt(top))
    for mask, differences in ((series, _series_differences), (close, _direct_differences)):
        if mask.any():
            shape = mask.shape
            gdd[mask], wdd[mask] = differences(
                *(np.broadcast_to(v, shape)[mask] for v in (a, b, L))
            )
    icc = 0.5 * (ga + gb)
    iss = -2.0 * gdd
    wsum = 0.5 * (wa + wb)
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
