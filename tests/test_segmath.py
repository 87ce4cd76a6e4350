from __future__ import annotations

import cmath

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import kernel_family_two_branch, product_integral_six_kernels, same_bits
from nonescape.errors import DomainError
from nonescape.segmath import (
    _MAX_ABS_Z,
    _MAX_IM_QL,
    _kernel_family,
    gauss_legendre,
    kernels,
    kernels_with_dz,
    panel_nodes,
    product_integral,
    propagate,
    propagate_with_dk,
)


def _versine(w, length, with_derivative: bool = False) -> list:
    """[W] or [W, dW/dw] of the kernel family, W(w, L) = (1 - cos(sqrt(w) L)) / w."""
    family = _kernel_family(w, length, derivative=with_derivative, versine=True)
    return family[3:] if with_derivative else family[3:4]


def _reference_kernels(z: complex, length: float) -> tuple[complex, complex]:
    q = cmath.sqrt(z)
    if q == 0:
        return 1.0 + 0j, complex(length)
    return cmath.cos(q * length), cmath.sin(q * length) / q


def _sample_points(rng: np.random.Generator, n: int = 64) -> np.ndarray:
    mag = 10.0 ** rng.uniform(-9, 2, n)
    phase = rng.uniform(-np.pi, np.pi, n)
    return mag * np.exp(1j * phase)


def test_kernels_match_direct_evaluation(rng: np.random.Generator) -> None:
    for z in _sample_points(rng):
        for length in (0.3, 1.0, 2.7):
            c, s = kernels(z, length)
            c_ref, s_ref = _reference_kernels(z, length)
            assert c == pytest.approx(c_ref, rel=1e-13, abs=1e-13)
            assert s == pytest.approx(s_ref, rel=1e-13, abs=1e-13)


def test_kernels_branch_invariance() -> None:
    # (C, S) are even in q, so both square roots of z must agree; checked by
    # comparing against the explicit series at the series/direct seam.
    for w in (3.9, 4.1, -3.9, -4.1, 3.9j, -4.1j):
        c, s = kernels(complex(w), 1.0)
        c_ref, s_ref = _reference_kernels(complex(w), 1.0)
        assert c == pytest.approx(c_ref, rel=1e-13)
        assert s == pytest.approx(s_ref, rel=1e-13)


def test_kernels_at_zero_and_tiny_argument() -> None:
    c, s = kernels(0.0, 1.5)
    assert c == 1.0
    assert s == 1.5
    c, s = kernels(1e-30 + 1e-30j, 2.0)
    assert c == pytest.approx(1.0, abs=1e-15)
    assert s == pytest.approx(2.0, abs=1e-15)


def test_kernels_vectorized() -> None:
    z = np.array([0.0, 1.0, -1.0, 2.0 + 1.0j])
    c, s = kernels(z, 1.0)
    assert c.shape == z.shape
    for zi, ci, si in zip(z, c, s):
        c_ref, s_ref = _reference_kernels(complex(zi), 1.0)
        assert ci == pytest.approx(c_ref, rel=1e-13)
        assert si == pytest.approx(s_ref, rel=1e-13)


def _points_across_cutoff(rng: np.random.Generator, n: int = 4000):
    """(z, L) with |z L^2| spread around the series cutoff 4, some right at it.

    Every 11th length is 0, every 5th z is real and the next one the
    conjugate of a neighbour; every 13th z is 0.
    """
    length = rng.uniform(0.0, 3.0, n)
    length[::11] = 0.0
    w = 4.0 * np.exp(rng.normal(0.0, 0.5, n))
    w[::3] = 4.0 * (1.0 + rng.choice([-1e-9, 1e-9], w[::3].size))
    w = w * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    z = w / np.where(length == 0.0, 1.0, length) ** 2
    z[::5] = z[::5].real
    z[1::5] = np.conj(z[:-1:5])
    z[::13] = 0.0
    return z, length


def test_kernels_bits_match_two_branch_reference(rng: np.random.Generator) -> None:
    # Each point now runs one branch only; the values keep their bits.
    z, length = _points_across_cutoff(rng)
    for zz, L in ((z, length), (z * np.where(length == 0.0, 1.0, length) ** 2 / 1.69, 1.3)):
        c, s, ds, w, dw = kernel_family_two_branch(zz, L)
        dc = -0.5 * np.asarray(L) * s
        for got, want in (
            (kernels(zz, L), (c, s)),
            (kernels_with_dz(zz, L), (c, s, dc, ds)),
            (_versine(zz, L, with_derivative=True), (w, dw)),
            (_versine(zz, L), (w,)),
        ):
            assert all(same_bits(g, r) for g, r in zip(got, want))


def test_kernels_scalar_call_matches_array_call(rng: np.random.Generator) -> None:
    # A scalar call is the one-point array call: the same bits on either branch.
    z, length = _points_across_cutoff(rng, 200)
    arrays = [*kernels_with_dz(z, length), *_versine(z, length, True)]
    for i, (zi, li) in enumerate(zip(z, length)):
        scalars = [*kernels_with_dz(zi, li), *_versine(zi, li, True)]
        assert all(isinstance(v, complex) for v in scalars[:4])
        assert same_bits(scalars, [v[i] for v in arrays]), (zi, li)


def test_kernels_with_dz_matches_finite_difference(rng: np.random.Generator) -> None:
    h = 1e-6
    for z in _sample_points(rng, 24):
        if abs(z) < 1e-4:
            continue
        c, s, dc, ds = kernels_with_dz(z, 1.3)
        cp, sp = kernels(z + h, 1.3)
        cm, sm = kernels(z - h, 1.3)
        assert dc == pytest.approx((cp - cm) / (2 * h), rel=1e-5, abs=1e-8)
        assert ds == pytest.approx((sp - sm) / (2 * h), rel=1e-5, abs=1e-8)


def test_kernels_with_dz_at_zero() -> None:
    # Series: C = 1 - w/2 + ..., S = L(1 - w/6 + ...) with w = z L^2.
    L = 2.0
    c, s, dc, ds = kernels_with_dz(0.0, L)
    assert c == 1.0
    assert s == L
    assert dc == pytest.approx(-L * L / 2.0, rel=1e-14)
    assert ds == pytest.approx(-L ** 3 / 6.0, rel=1e-14)


def test_versine_kernel_values_and_derivative() -> None:
    L = 1.7
    for w in (0.0, 1e-22, 0.5, -3.0, 4.0 + 2.0j, 25.0):
        (v,) = _versine(w, L)
        if w == 0.0 or abs(w) < 1e-12:
            assert v == pytest.approx(L * L / 2.0, rel=1e-12)
        else:
            c_ref, _ = _reference_kernels(complex(w), L)
            assert v == pytest.approx((1.0 - c_ref) / w, rel=1e-12)
    h = 1e-6
    for w in (0.7, -2.0, 3.0 + 1.0j):
        _, dv = _versine(w, L, with_derivative=True)
        (vp,) = _versine(w + h, L)
        (vm,) = _versine(w - h, L)
        assert dv == pytest.approx((vp - vm) / (2 * h), rel=1e-5)


def test_propagate_reproduces_fundamental_solutions() -> None:
    z = 2.0 - 0.5j
    L = 0.8
    c, s = kernels(z, L)
    # u = cos(qx): (1, 0) -> (C, -zS).  u = sin(qx)/q: (0, 1) -> (S, C).
    u, du = propagate(1.0, 0.0, z, L)
    assert u == pytest.approx(c, rel=1e-14)
    assert du == pytest.approx(-z * s, rel=1e-14)
    u, du = propagate(0.0, 1.0, z, L)
    assert u == pytest.approx(s, rel=1e-14)
    assert du == pytest.approx(c, rel=1e-14)


def test_propagate_composition_equals_single_segment() -> None:
    # Two half-segments of equal z must compose to one full segment.
    z = -1.3 + 0.4j
    u0, du0 = 0.3 + 0.1j, -0.7 + 0.2j
    u1, du1 = propagate(u0, du0, z, 0.45)
    u2, du2 = propagate(u1, du1, z, 0.45)
    u_full, du_full = propagate(u0, du0, z, 0.9)
    assert u2 == pytest.approx(u_full, rel=1e-13)
    assert du2 == pytest.approx(du_full, rel=1e-13)


def test_propagate_with_dk_matches_finite_difference() -> None:
    length = 0.6
    v = 3.0

    def run(k: complex) -> tuple[complex, complex]:
        u, du = 1.0 + 0j, 1j * k
        u, du = propagate(u, du, k * k - v, length)
        return u, du

    k0 = 2.0 - 0.3j
    h = 1e-6
    u, du, uk, duk = propagate_with_dk(
        1.0 + 0j, 1j * k0, 0.0 + 0j, 1j, k0 * k0 - v, 2.0 * k0, length
    )
    up, dup = run(k0 + h)
    um, dum = run(k0 - h)
    assert u == pytest.approx(run(k0)[0], rel=1e-14)
    assert uk == pytest.approx((up - um) / (2 * h), rel=1e-6)
    assert duk == pytest.approx((dup - dum) / (2 * h), rel=1e-6)


def _quadrature_product(length: float, z1, a1, b1, z2, a2, b2) -> tuple[complex, float]:
    """int_0^L u1 u2 dx and int_0^L |u1 u2| dx on at least 8 panels, finer than both waves."""
    q_sum = abs(cmath.sqrt(z1)) + abs(cmath.sqrt(z2))
    n_panels = max(8, int(q_sum * length / np.pi) + 4)
    nodes, weights = panel_nodes(0.0, length, n_panels, order=30)
    c1, s1 = kernels(np.full(nodes.shape, z1, dtype=complex), nodes)
    c2, s2 = kernels(np.full(nodes.shape, z2, dtype=complex), nodes)
    prod = (a1 * c1 + b1 * s1) * (a2 * c2 + b2 * s2)
    return complex(np.sum(weights * prod)), float(np.sum(weights * np.abs(prod)))


def test_product_integral_matches_quadrature(rng: np.random.Generator) -> None:
    for _ in range(12):
        z1, z2 = rng.normal(0, 3, 2) + 1j * rng.normal(0, 1, 2)
        a1, b1, a2, b2 = rng.normal(0, 1, 4) + 1j * rng.normal(0, 1, 4)
        closed = product_integral(1.1, z1, a1, b1, z2, a2, b2)
        brute = _quadrature_product(1.1, z1, a1, b1, z2, a2, b2)[0]
        assert closed == pytest.approx(brute, rel=1e-11, abs=1e-11)


def test_product_integral_degenerate_arguments() -> None:
    # Equal z's: the smaller root b = (q1 - q2)^2 is exactly 0.
    z = 1.8 - 0.6j
    closed = product_integral(0.9, z, 1.0, 0.5j, z, -0.3, 1.0)
    brute = _quadrature_product(0.9, z, 1.0, 0.5j, z, -0.3, 1.0)[0]
    assert closed == pytest.approx(brute, rel=1e-11)
    # Both z's zero: u_i = a_i + b_i x exactly.
    closed = product_integral(2.0, 0.0, 1.0, 2.0, 0.0, 3.0, -1.0)
    exact = 1.0 * 3.0 * 2.0 + (1.0 * -1.0 + 2.0 * 3.0) * 2.0 + 2.0 * -1.0 * 8.0 / 3.0
    assert closed == pytest.approx(exact, rel=1e-12)
    # One z zero, one finite.
    closed = product_integral(1.3, 0.0, 0.7, -0.2, 4.0, 0.5, 1.5)
    brute = _quadrature_product(1.3, 0.0, 0.7, -0.2, 4.0, 0.5, 1.5)[0]
    assert closed == pytest.approx(brute, rel=1e-11)


def test_product_integral_symmetry() -> None:
    z1, z2 = 2.0 + 0.3j, -1.0 - 0.8j
    ab = (0.4 + 0.2j, 1.1, -0.6j, 0.9 - 0.1j)
    fwd = product_integral(0.75, z1, ab[0], ab[1], z2, ab[2], ab[3])
    rev = product_integral(0.75, z2, ab[2], ab[3], z1, ab[0], ab[1])
    assert fwd == pytest.approx(rev, rel=1e-13)


def test_product_integral_refuses_arguments_beyond_its_bound() -> None:
    # z1 z2 overflowed for this pair and the result was NaN
    z1 = 4.42263214632701e197
    with pytest.raises(DomainError, match="1e\\+150"):
        product_integral(1.0, z1, 1, 1, z1 * (1 + 1e-9), 1, 1)
    with pytest.raises(DomainError):
        product_integral(np.ones(2), np.array([1.0, 2e150]), 1, 1, 1.0, 1, 1)
    # just below the bound no intermediate overflows (warnings are errors)
    below = np.nextafter(_MAX_ABS_Z, 0.0)
    for length in (0.2, 1.0, 3.0):
        for z2 in (below, below * (1 - 1e-9), below / 2, 1.0, 0.0):
            assert np.isfinite(product_integral(length, below, 1, 1, z2, 1, 1))


def _b_branch_pair(q1: complex, q2: complex, length: float) -> tuple[complex, complex]:
    """z1, z2 scaled as ``_segment_pair``'s "b" branch scales them: |b L^2| = 4."""
    plus, minus = (q1 + q2) ** 2, (q1 - q2) ** 2
    b = minus if abs(plus) >= abs(minus) else plus
    return tuple(q * q * 4.0 / abs(b * length**2) for q in (q1, q2))


def test_product_integral_refuses_large_imaginary_phase() -> None:
    # |Im(q1 + q2)| L = 6 L: NaN with "invalid value" warnings for L = 300
    # and, scaled to |z| = 3e33, for L = 1; warnings are errors here
    q1, q2 = 0.5 + 3j, complex(np.nextafter(0.5, 1.0), 3.0)
    for length, (z1, z2) in ((1.0, _b_branch_pair(q1, q2, 1.0)), (300.0, (q1 * q1, q2 * q2))):
        with pytest.raises(DomainError, match=r"\|Im\(q1 \+- q2\)\| L <= 700"):
            product_integral(length, z1, 1, 1, z2, 1, 1)
    # the bound holds for q1 - q2 too, and for one entry of an array
    with pytest.raises(DomainError):
        product_integral(1.0, (-350.5j) ** 2, 1, 1, (350.5j) ** 2, 1, 1)
    with pytest.raises(DomainError):
        product_integral(np.array([1.0, 117.0]), q1 * q1, 1, 1, q2 * q2, 1, 1)


def test_product_integral_is_finite_just_inside_the_phase_bound() -> None:
    q1, q2 = 0.5 + 3j, complex(np.nextafter(0.5, 1.0), 3.0)
    inside = _MAX_IM_QL * (1 - 1e-9) / 6.0  # |Im(q1 + q2)| L just below 700
    value = product_integral(inside, q1 * q1, 1, 1, q2 * q2, 1, 1)
    assert np.isfinite(value) and abs(value) > 1e300
    # a pair whose difference carries the phase, and a distinct pair
    assert np.isfinite(product_integral(1.0, (349.9j) ** 2, 1, 1, (-349.9j + 0.1) ** 2, 1, 1))
    assert np.isfinite(product_integral(1.0, (3 + 200j) ** 2, 1, 1, (5 + 149j) ** 2, 1, 1))


def test_kernels_without_the_cosine_keep_the_sine_bits(rng: np.random.Generator) -> None:
    # Series, root and mixed points, arrays and scalars: S keeps its bits.
    z = _sample_points(rng, 200)
    lengths = rng.uniform(0.0, 3.0, 200)
    for args in ((z, lengths), (z[:, None], lengths[None, :]), (z[:8], 1.0), (z[0], 0.5)):
        c, s = kernels(*args)
        none, sine = kernels(*args, cosine=False)
        assert none is None
        assert same_bits(sine, s)


def test_product_integral_bits_match_six_kernel_reference(rng: np.random.Generator) -> None:
    # With |q_i L| >= 2.5 both kernel arguments lie past the series cutoff and
    # sqrt(a) L, sqrt(b) L differ by more than 1: the divided differences are
    # formed as before, from three kernel evaluations instead of six.
    n = 2000
    length = rng.uniform(0.2, 3.0, n)
    q1, q2 = (
        rng.choice([-1.0, 1.0], n) * rng.uniform(2.5, 40.0, n) / length
        + 1j * rng.uniform(-3.0, 3.0, n) / length
        for _ in range(2)
    )
    z1, z2 = q1 * q1, q2 * q2
    z2[::3] = z1[::3]  # normalization integrals: b = 0
    z2[1::3] = (np.pi * rng.integers(1, 4, z2[1::3].size)) ** 2  # box-mode coefficients
    coeffs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(4)]
    args = (length, z1, coeffs[0], coeffs[1], z2, coeffs[2], coeffs[3])
    assert same_bits(product_integral(*args), product_integral_six_kernels(*args))


_UNIT = st.floats(-1.0, 1.0)
_PHASE = st.floats(-np.pi, np.pi)
# log10 of |q1 / q2| in the near-degenerate cases: |a - b| = 4 |q1 q2| is
# within 1e-6 max(|a|, |b|), the midpoint-derivative branch, below 2.5e-7;
# "close" crosses |a - b| L = sqrt|a|, where the product-to-sum route ends.
_RATIO = {"degenerate": (-14.0, -6.7), "beside": (-6.5, -5.0), "close": (-5.0, -1.0)}
# Error of product_integral relative to int |u1 u2| dx; measured worst
# 4e-15 in general, 3e-13 in the midpoint-derivative branch, and 3e-15
# beside it and where a and b are close (7e-10 when the divided differences
# were formed as (f(a) - f(b)) / (a - b), which cancels there).
_PRODUCT_TOL = {"degenerate": 1e-12}


@st.composite
def _segment_pair(draw, branch: str):
    """(L, z1, a1, b1, z2, a2, b2) of two segment solutions, q_i = sqrt(z_i).

    "general" draws |Re q L| in [0.5, 12] and |Im q L| <= 3.  "degenerate"
    and "beside" shrink q1 to put the pair just inside and just outside the
    midpoint-derivative branch; "a", "b" and "mid" scale both q's so that
    |w L^2| = 4 (1 -+ 1e-9) for that argument of the kernels, on either
    side of their series cutoff.
    """
    length = draw(st.floats(0.2, 3.0))
    q1, q2 = (
        complex(draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 12.0)),
                draw(st.floats(-3.0, 3.0))) / length
        for _ in range(2)
    )
    if branch in _RATIO:
        q1 = q2 * 10.0 ** draw(st.floats(*_RATIO[branch])) * cmath.exp(1j * draw(_PHASE))
    z1, z2 = q1 * q1, q2 * q2
    if branch in ("a", "b", "mid"):
        plus, minus = (q1 + q2) ** 2, (q1 - q2) ** 2
        a, b = (plus, minus) if abs(plus) >= abs(minus) else (minus, plus)
        w = {"a": a, "b": b, "mid": 0.5 * (a + b)}[branch] * length**2
        if abs(w) == 0.0:
            z1 = z2 = 0.0
        else:
            side = draw(st.sampled_from((-1e-9, 1e-9)))
            z1, z2 = (zz * 4.0 * (1.0 + side) / abs(w) for zz in (z1, z2))
    # larger |z|, or |Im(q1 +- q2)| L near its bound, raises DomainError
    # (tested on its own); the margin covers the rounding of the roots
    assume(max(abs(z1), abs(z2)) <= _MAX_ABS_Z)
    q1, q2 = cmath.sqrt(z1), cmath.sqrt(z2)
    assume(max(abs((q1 + q2).imag), abs((q1 - q2).imag)) * length <= 0.99 * _MAX_IM_QL)
    # the quadrature reference takes (|q1| + |q2|) L / pi panels: nearly
    # equal q's scaled by "b" reach |q| L ~ 1e16, which it cannot integrate
    assume(max(abs(q1), abs(q2)) * length <= 1e4)
    coeffs = [complex(draw(_UNIT), draw(_UNIT)) for _ in range(4)]
    return (length, z1, coeffs[0], coeffs[1], z2, coeffs[2], coeffs[3])


_BRANCHES = ("general", "degenerate", "beside", "close", "a", "b", "mid")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sampled_from(_BRANCHES).flatmap(lambda br: _segment_pair(br).map(lambda c: (br, c))),
        min_size=1,
        max_size=8,
    )
)
def test_product_integral_array_matches_quadrature(cases) -> None:
    # one array-valued call over a mix of branches, each entry against quadrature
    columns = [np.array([c[i] for _, c in cases]) for i in range(7)]
    closed = product_integral(*columns)
    assert closed.shape == (len(cases),)
    for (branch, case), value in zip(cases, closed):
        brute, scale = _quadrature_product(*case)
        tol = _PRODUCT_TOL.get(branch, 1e-13)
        assert abs(value - brute) <= tol * max(scale, 1e-300), (branch, case)


def _reference_kernel_values(z: complex, length: float) -> np.ndarray:
    """C, S, dC/dz, dS/dz, W and dW/dz at 40 digits."""
    with mpmath.workdps(40):
        zm, L = mpmath.mpc(z.real, z.imag), mpmath.mpf(length)
        q = mpmath.sqrt(zm)
        c, s = mpmath.cos(q * L), mpmath.sin(q * L) / q
        values = (
            c,
            s,
            -L * s / 2,
            (L * c - s) / (2 * zm),
            (1 - c) / zm,
            (zm * L * s / 2 - (1 - c)) / zm**2,
        )
        return np.array([complex(v) for v in values])


def _kernel_values(z: complex, length: float) -> np.ndarray:
    return np.array([*kernels_with_dz(z, length), *_versine(z, length, True)])


@settings(max_examples=200, deadline=None)
@given(theta=_PHASE, length=st.floats(0.1, 3.0))
def test_kernels_continuous_across_series_cutoff(theta: float, length: float) -> None:
    # |z L^2| = 4 switches every kernel from its Taylor series to the direct
    # formula: the step across it must be the true increment of the function.
    z_in, z_out = (
        4.0 * (1.0 + side) * cmath.exp(1j * theta) / length**2 for side in (-1e-9, 1e-9)
    )
    step = _kernel_values(z_out, length) - _kernel_values(z_in, length)
    ref_out = _reference_kernel_values(z_out, length)
    true_step = ref_out - _reference_kernel_values(z_in, length)
    assert np.all(np.abs(step - true_step) <= 1e-14 * np.abs(ref_out))


def _delta_shell_pole(strength: float, n: int) -> complex:
    """n-th resonance of the unit-radius delta shell, by Newton from its asymptote."""
    k = complex(n * np.pi - 0.5, -0.5 * np.log(2.0 * n * np.pi / strength))
    for _ in range(100):
        s, c = cmath.sin(k), cmath.cos(k)
        j = c + (strength - 1j * k) * s / k
        dj = -s - 1j * s / k + (strength - 1j * k) * (k * c - s) / (k * k)
        step = j / dj
        k -= step
        if abs(step) <= 1e-14 * abs(k):
            return k
    raise AssertionError(f"pole {n} did not converge")


def test_product_integral_self_products_at_high_z() -> None:
    # Normalization integrals int_0^R u^2 of the delta shell's resonances up
    # to n = 319 (|z| ~ 1e6), against 600-panel order-30 quadrature.  With
    # z1 = z2 the closed form needs (q1 - q2)^2 = 0 exactly, which a
    # cancelling z1 + z2 - 2 sqrt(z1 z2) misses by ~eps |z|.
    nodes, weights = panel_nodes(0.0, 1.0, 600, order=30)
    for n in [*range(1, 41), *range(41, 320, 7)]:
        z = _delta_shell_pole(6.0, n) ** 2
        _, sinc = kernels(np.full(nodes.shape, z), nodes)
        brute = complex(np.sum(weights * sinc * sinc))
        closed = product_integral(1.0, z, 0.0, 1.0, z, 0.0, 1.0)
        assert abs(closed - brute) <= 1e-12 * abs(brute), n


def test_gauss_legendre_polynomial_exactness() -> None:
    x, w = gauss_legendre(8)
    assert x.shape == w.shape == (8,)
    assert float(np.sum(w)) == pytest.approx(2.0, rel=1e-15)
    for p in range(16):  # exact through degree 2*order - 1
        integral = float(np.sum(w * x ** p))
        exact = 0.0 if p % 2 else 2.0 / (p + 1)
        assert integral == pytest.approx(exact, abs=1e-14)
    assert gauss_legendre(8) is gauss_legendre(8)  # cached


def test_panel_nodes_integrate_oscillatory_function() -> None:
    nodes, weights = panel_nodes(0.0, 3.0, 6, order=16)
    assert nodes.size == weights.size == 96
    assert float(np.sum(weights)) == pytest.approx(3.0, rel=1e-14)
    value = float(np.sum(weights * np.sin(5.0 * nodes)))
    exact = (1.0 - np.cos(15.0)) / 5.0
    assert value == pytest.approx(exact, abs=1e-13)
