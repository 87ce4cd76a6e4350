from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest
from _oracles import faddeeva_reference, moshinsky_reference, moshinsky_series
from hypothesis import given, settings
from hypothesis import strategies as st

from nonescape.errors import DomainError, OverflowGuard
from nonescape.specfn import TAIL_PREFACTOR, asymptotic_coefficients, faddeeva, moshinsky

_K_RES = 2.7579383212949247 - 0.14043273246623328j  # lowest resonance, shell (6, 1)


def _faddeeva_reference(z: complex) -> complex:
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        w = mpmath.exp(-zm * zm) * mpmath.erfc(-1j * zm)
        return complex(w)


def _moshinsky_reference(k: complex, t: float) -> complex:
    with mpmath.workdps(40):
        km = mpmath.mpc(k.real, k.imag)
        y = -mpmath.exp(-1j * mpmath.pi / 4) * km * mpmath.sqrt(t)
        return complex(0.5 * mpmath.exp(y * y) * mpmath.erfc(y))


def test_faddeeva_matches_high_precision() -> None:
    points = [
        0.5 + 0.5j,
        3.0 + 0.01j,
        -2.0 + 5.0j,
        10.0 + 0.0j,
        -7.5 + 0.0j,
        0.0 + 4.0j,
        1.0 - 0.5j,
        -3.0 - 2.0j,
        12.0 - 3.0j,
        -0.7 - 18.0j,  # reflection term grows like exp(+323)
        -15.05 - 14.0j,
        0.0 - 1.0j,
    ]
    for z in points:
        w = faddeeva(z)
        # Two structurally unrelated references: the erfc route and the
        # Taylor-series / Laplace-continued-fraction route.
        ref = _faddeeva_reference(z)
        assert abs(w - ref) <= 1e-12 * abs(ref), f"z = {z}"
        ref2 = faddeeva_reference(z)
        assert abs(w - ref2) <= 1e-12 * abs(ref2), f"z = {z}"


def test_faddeeva_known_values() -> None:
    assert faddeeva(0.0 + 0.0j) == pytest.approx(1.0, abs=1e-15)
    # On the positive imaginary axis w(iy) = exp(y^2) erfc(y) is real.
    assert faddeeva(1.0j) == pytest.approx(math.e * math.erfc(1.0), rel=1e-14)
    w = faddeeva(3.5j)
    assert w.imag == pytest.approx(0.0, abs=1e-16)
    assert w.real == pytest.approx(math.exp(3.5 ** 2) * math.erfc(3.5), rel=1e-13)


def test_faddeeva_vectorized(rng: np.random.Generator) -> None:
    z = rng.normal(0, 2, 50) + 1j * rng.normal(0.5, 1, 50)
    w = faddeeva(z)
    assert w.shape == z.shape
    for zi, wi in zip(z, w):
        assert wi == pytest.approx(faddeeva(complex(zi)), rel=1e-15)


def test_faddeeva_reflection_consistency(rng: np.random.Generator) -> None:
    # w(z) + w(-z) = 2 exp(-z^2) links the two half-plane branches.
    for _ in range(20):
        z = complex(rng.normal(0, 1.5), rng.normal(0, 1.5))
        lhs = faddeeva(z) + faddeeva(-z)
        rhs = 2.0 * cmath.exp(-z * z)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_faddeeva_overflow_guard() -> None:
    with pytest.raises(OverflowGuard, match="overflows"):
        faddeeva(-0.5 - 40.0j)
    with pytest.raises(OverflowGuard):
        faddeeva(np.array([1.0 + 1.0j, 0.1 - 30.0j]))


def test_faddeeva_past_the_squares_range() -> None:
    # |z| past 1e154: z^2 overflows.  Where Im(z)^2 - Re(z)^2 is hugely
    # negative the reflection term is 0 and w(z) = -w(-z); elsewhere it has no
    # finite phase.  Neither may warn (an error under pytest).
    z = np.array([-2.7e154 - 2.4e154j, -1e200 - 1e100j, 0.5 - 0.5j])
    got = faddeeva(z)
    assert np.array_equal(got[:2], -faddeeva(-z[:2]))
    assert got[2] == faddeeva(0.5 - 0.5j)
    with pytest.raises(OverflowGuard, match="no finite phase at z = -2.7e"):
        faddeeva(np.array([0.5 - 0.5j, -2.7e154 - 2.7e154j]))


def test_moshinsky_initial_value(rng: np.random.Generator) -> None:
    k = rng.normal(0, 5, 100) + 1j * rng.normal(0, 2, 100)
    m = moshinsky(k, 0.0)
    assert np.max(np.abs(m - 0.5)) <= 1e-14
    assert moshinsky(_K_RES, 0.0) == 0.5


def test_moshinsky_matches_high_precision() -> None:
    cases = [
        (_K_RES, 0.1),
        (_K_RES, 1.0),
        (_K_RES, 10.0),
        (-_K_RES.conjugate(), 1.0),
        (1.5 + 0.0j, 2.0),
        (0.3 - 0.8j, 0.5),
    ]
    for k, t in cases:
        m = moshinsky(k, t)
        ref = _moshinsky_reference(k, t)
        assert abs(m - ref) <= 1e-12 * abs(ref), f"k = {k}, t = {t}"
        ref2 = moshinsky_reference(k, t)
        assert abs(m - ref2) <= 1e-12 * abs(ref2), f"k = {k}, t = {t}"


def test_moshinsky_reflection_identity_real_k(rng: np.random.Generator) -> None:
    for _ in range(25):
        k = float(rng.uniform(0.1, 8.0))
        t = float(rng.uniform(0.01, 20.0))
        lhs = moshinsky(k, t) + moshinsky(-k, t)
        rhs = cmath.exp(-1j * k * k * t)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_moshinsky_reflection_identity_complex_k(rng: np.random.Generator) -> None:
    # For Im(k^2) > 0 the right-hand side is exponentially small against the
    # two M values, so the identity is checked relative to its largest term.
    for _ in range(25):
        k = complex(rng.uniform(-4, 4), rng.uniform(-1.5, 1.5))
        t = float(rng.uniform(0.01, 5.0))
        m_pos = moshinsky(k, t)
        m_neg = moshinsky(-k, t)
        rhs = cmath.exp(-1j * k * k * t)
        scale = max(abs(m_pos), abs(m_neg), abs(rhs))
        assert abs(m_pos + m_neg - rhs) <= 1e-11 * scale


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-8.0, 8.0, allow_subnormal=True),
    st.floats(0.0, 20.0, allow_subnormal=True),
)
def test_moshinsky_reflection_identity_real_k_property(k: float, t: float) -> None:
    # M(k, t) + M(-k, t) = exp(-i k^2 t); for real k the right side has
    # modulus one, including k = 0 and t = 0
    lhs = moshinsky(k, t) + moshinsky(-k, t)
    rhs = cmath.exp(-1j * k * k * t)
    assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-4.0, 4.0, allow_subnormal=True),
    st.floats(-1.5, 1.5, allow_subnormal=True),
    st.floats(0.0, 5.0, allow_subnormal=True),
)
def test_moshinsky_reflection_identity_complex_k_property(
    k_re: float, k_im: float, t: float
) -> None:
    # relative to the largest of the three terms, as in the rng test above:
    # either side of the identity may be exponentially larger than the other
    k = complex(k_re, k_im)
    m_pos = moshinsky(k, t)
    m_neg = moshinsky(-k, t)
    rhs = cmath.exp(-1j * k * k * t)
    scale = max(abs(m_pos), abs(m_neg), abs(rhs))
    assert abs(m_pos + m_neg - rhs) <= 1e-11 * scale


def test_moshinsky_rejects_negative_time() -> None:
    with pytest.raises(DomainError, match="non-negative"):
        moshinsky(1.0, -0.1)


def test_asymptotic_coefficients_closed_form() -> None:
    coeffs = asymptotic_coefficients(5)
    pref = 1.0 / (2.0 * math.sqrt(math.pi))
    assert TAIL_PREFACTOR == pytest.approx(0.28209479177387814, abs=1e-17)
    assert coeffs[0] == pref
    for j in range(5):
        double_fact = math.prod(range(2 * j - 1, 0, -2)) if j else 1
        expected = (-1.0) ** j * double_fact / (2.0 ** j) * pref
        assert coeffs[j] == pytest.approx(expected, rel=1e-15)
    with pytest.raises(DomainError):
        asymptotic_coefficients(0)


def test_moshinsky_asymptotic_matches_exact() -> None:
    # The power series describes only the algebraic part of M; the decaying
    # exponential it omits is ~e^{Im(k^2) t}, so the comparison time must be
    # late enough for that piece to drop below the series accuracy.
    for k in (3.0 - 0.5j, -3.0 - 0.5j, _K_RES, -_K_RES.conjugate()):
        t = 40.0
        exact = moshinsky(k, t)
        approx = moshinsky_series(k, t, order=8)
        assert abs(approx - exact) <= 1e-9 * abs(exact)
        # Accuracy improves with order until optimal truncation.
        worse = moshinsky_series(k, t, order=1)
        assert abs(approx - exact) < abs(worse - exact)


def test_moshinsky_asymptotic_leading_term() -> None:
    k = 2.0 - 0.3j
    t = 50.0
    y = complex(-math.sqrt(0.5), math.sqrt(0.5)) * k * math.sqrt(t)
    assert y * y == pytest.approx(-1j * k * k * t, rel=1e-14)
    assert moshinsky_series(k, t, order=0) == pytest.approx(TAIL_PREFACTOR / y, rel=1e-15)
