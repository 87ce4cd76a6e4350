from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonescape.asymptote as asym
from nonescape.asymptote import (
    SlopeFit,
    TailReport,
    adjudicate,
    convergence_study,
    crossover_time,
    moment_sum_quadrature,
    post_exponential_window,
    slope_fit,
    tail_coefficient_t1,
    tail_expansion,
    tail_series,
)
from nonescape.dynamics import (
    NonescapeSeries,
    ProbabilitySums,
    TimeGrid,
    lifetime,
    nested_forms,
    nonescape_probability,
    probability_sums,
)
from nonescape.errors import (
    ConfigError,
    EmptyWindow,
    EquivalenceViolation,
    NonPositiveProbability,
)
from nonescape.gamow import ExpansionData, build_expansion
from nonescape.model import BoxMode, DeltaShell, PiecewiseConstant
from nonescape.poles import SearchWindow, locate_poles
from nonescape.selftest import SelftestContext, check_tail_coefficient
from nonescape.specfn import TAIL_PREFACTOR, asymptotic_coefficients

# Frozen tail data for the reference problem (shell lam = 6, R = 1, psi0 the
# lowest box mode): the spurious t^-1 weight versus truncation, the genuine
# t^-3 weight, and the slope-crossing times.
_D1 = {1: 1.822017e-4, 5: 1.799225e-6, 10: 2.390178e-7, 20: 3.175033e-8, 40: 4.176062e-9}
_T3_40 = 2.238525e-6
_CROSSOVER = {1: 0.0802, 5: 1.0994, 10: 3.0534, 20: 8.3941, 40: 23.1525}


def _series(t: np.ndarray, p: np.ndarray) -> NonescapeSeries:
    return NonescapeSeries(
        times=np.asarray(t, dtype=float),
        probability=np.asarray(p, dtype=float),
        imag_residual=0.0,
        n_pairs=1,
    )


def _moment_sum(sub: ExpansionData, a: int, b: int) -> complex:
    """Q[a, b] of one truncation by the matrix route: one nested_forms row."""
    x = sub.coefficients / sub.states.k ** a
    y = sub.coefficients / sub.states.k ** b
    rings = np.zeros(len(sub.overlap), dtype=np.intp)
    return complex(nested_forms(sub, rings, x[None, :], y[None, :])[0, 0])


def test_moment_sum_routes_agree(data: ExpansionData) -> None:
    for a, b in ((1, 1), (1, 3), (3, 3)):
        for n_pairs in (5, 20, 40):
            q_mat = _moment_sum(data.truncate(n_pairs), a, b)
            q_quad = moment_sum_quadrature(data.truncate(n_pairs), a, b)
            assert abs(q_mat - q_quad) <= 1e-9 + 1e-7 * abs(q_quad), (a, b, n_pairs)


def test_d1_routes_agree_on_a_barrier() -> None:
    # V = 25 on [0.6, 1] with psi0 the box mode of the inner well: u'' jumps
    # at r = 0.6, so quadrature panels straddling it would cost the
    # quadrature route to D1 about 1e-7 at N = 5.
    barrier = PiecewiseConstant(((0.0, 0.6, 0.0), (0.6, 1.0, 25.0)))
    pole_set = locate_poles(barrier, SearchWindow(re_max=127.5, im_min=-4.0))
    data = build_expansion(barrier, pole_set, BoxMode(mode=1, radius=0.6), n_pairs=10)
    report = convergence_study(data, (5, 10))
    assert report.route_dev <= 1e-10, report.route_dev


def test_moment_sum_hermitian_diagonal(data: ExpansionData) -> None:
    # Q[a, a] = int |sigma_a|^2 dr is real and non-negative.
    for a in (1, 3):
        q = _moment_sum(data.truncate(20), a, a)
        assert abs(q.imag) <= 1e-14 * max(abs(q.real), 1e-300)
        assert q.real >= 0.0


def test_t1_coefficient_frozen_values(data: ExpansionData) -> None:
    for n_pairs, frozen in _D1.items():
        d1 = tail_coefficient_t1(data.truncate(n_pairs))
        assert d1 == pytest.approx(frozen, rel=1e-4), f"N = {n_pairs}"
        assert d1 >= 0.0


def test_t1_decreases_with_truncation(data: ExpansionData) -> None:
    values = tail_expansion(data, range(1, 41))[:, 0].tolist()
    assert all(v >= 0.0 for v in values)
    assert values[-1] <= 0.1 * values[4]  # N = 40 vs N = 5
    assert values[-1] < values[0]


def test_t1_cross_check_detects_inconsistency(data: ExpansionData, monkeypatch) -> None:
    original = asym.moment_sum_quadrature

    def skewed(d, a, b):
        return 1.01 * original(d, a, b)

    monkeypatch.setattr(asym, "moment_sum_quadrature", skewed)
    with pytest.raises(EquivalenceViolation, match=r"routes disagree by .* \(N = \(10,\)\)"):
        tail_coefficient_t1(data.truncate(10))


@pytest.fixture(scope="module")
def wide() -> ExpansionData:
    """The reference shell with re_max 1002: 319 pole pairs."""
    shell = DeltaShell(strength=6.0, radius=1.0)
    pole_set = locate_poles(shell, SearchWindow(re_max=1002.0, im_min=-3.0))
    return build_expansion(shell, pole_set, BoxMode(mode=1, radius=1.0))


def test_routes_agree_at_the_closed_route_rounding_floor(wide: ExpansionData) -> None:
    # D1 by matrix and by quadrature differ by 1.5e-17 for every N: the
    # closed overlaps' rounding, 1.5 eps of sum |x_n x_l I[n, l]|.  Relative
    # to D1(319) = 8.9e-12 that is 1.7e-6, past the 1e-6 tolerance alone.
    assert wide.n_pairs == 319
    report = convergence_study(wide, (40, 160, 240, 319))
    assert report.route_dev > 1e-6
    assert np.all(np.abs(report.tails[:, 0] - report.t1_quadrature) < 2e-17)
    report.check_routes()
    assert tail_coefficient_t1(wide) == report.tails[-1, 0]


@pytest.mark.parametrize("n_pairs", [40, 319])
@pytest.mark.parametrize("factor, raises", [(0.5, False), (2.0, True)])
def test_closed_overlap_perturbed_past_the_floor_raises(
    wide: ExpansionData, n_pairs: int, factor: float, raises: bool
) -> None:
    # Move the closed route to D1 by ``factor`` times its allowed gap: one
    # diagonal overlap entry of pole 1, whose x = C/k is the largest.
    sub = wide.truncate(n_pairs)
    report = convergence_study(sub, (n_pairs,))
    allowed = max(1e-6 * report.t1_quadrature[0], report.t1_floor[0])
    shift = factor * allowed - (report.tails[0, 0] - report.t1_quadrature[0])
    i = n_pairs  # index order n = -N..-1, 1..N
    x = sub.coefficients[i] / sub.states.k[i]
    overlap = sub.overlap.copy()
    overlap[i, i] += shift / (TAIL_PREFACTOR ** 2 * abs(x) ** 2)
    skewed = convergence_study(dataclasses.replace(sub, overlap=overlap), (n_pairs,))
    gap = skewed.tails[0, 0] - skewed.t1_quadrature[0]
    assert gap == pytest.approx(factor * allowed, rel=1e-3)
    if raises:
        with pytest.raises(EquivalenceViolation, match="routes disagree by "):
            skewed.check_routes()
    else:
        skewed.check_routes()


def test_tail_expansion_first_entry_matches_t1(data: ExpansionData) -> None:
    table = tail_expansion(data, (20,))
    t1 = tail_coefficient_t1(data.truncate(20))
    assert table.shape == (1, 3) and table.dtype == np.float64
    assert table[0, 0] == t1  # same code path, bit-identical
    assert type(t1) is float


def test_tail_t2_vanishes_for_real_initial_state(data: ExpansionData) -> None:
    # T_2 ~ Im Q[1, 3], which vanishes when psi0 is real.
    for t1, t2, t3 in tail_expansion(data, (5, 20, 40)):
        assert abs(t2) <= 1e-12 * max(abs(t1), abs(t3))


def test_tail_t3_approaches_finite_limit(data: ExpansionData) -> None:
    t3_20, t3_40 = tail_expansion(data, (20, 40))[:, 2]
    assert t3_40 == pytest.approx(_T3_40, rel=1e-4)
    assert t3_20 == pytest.approx(t3_40, rel=0.05)  # converged, unlike T_1
    assert t3_40 > 0.0


def _own_tail(sub: ExpansionData) -> tuple[float, ...]:
    """T_1..T_3 of one truncation from ``math.fsum`` of its own terms."""

    def q(a: int, b: int) -> complex:
        wa = sub.coefficients / sub.states.k ** a
        wb = sub.coefficients / sub.states.k ** b
        outer = wa[:, None] * np.conj(wb)[None, :]
        terms = (sub.overlap * outer).ravel()
        return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))

    m = asymptotic_coefficients(3)
    values = []
    for p in (1, 2, 3):
        acc = 0.0 + 0.0j
        for j in range(p):
            jp = p - 1 - j
            acc += m[j] * m[jp] * (1j) ** (j - jp) * q(2 * j + 1, 2 * jp + 1)
        values.append(float(acc.real))
    return tuple(values)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True).map(sorted),
    st.booleans(),
)
def test_tail_table_equals_fsum_of_each_truncation(
    data: ExpansionData, truncations: list[int], twist: bool
) -> None:
    # One nested pass per Q[a, b] row gives every truncation's T_1..T_3, bit
    # for bit as if each truncation were summed on its own.  For the real
    # psi0 each Q is real and Q[a, b] = Q[b, a]; a phase ramp on the
    # coefficients (``twist``) makes every row differ.
    if twist:
        ramp = np.exp(0.1j * np.arange(data.coefficients.size))
        data = dataclasses.replace(data, coefficients=data.coefficients * ramp)
    tails = tail_expansion(data, truncations)
    assert tails.shape == (len(truncations), 3)
    for n, tail in zip(truncations, tails):
        own = _own_tail(data.truncate(n))
        assert np.array_equal(tail.view(np.int64), np.array(own).view(np.int64)), n


def test_tail_evaluate() -> None:
    tail = np.array([2.0, 0.0, 8.0])
    assert tail_series(tail, 2.0) == pytest.approx(2.0 / 2.0 + 8.0 / 8.0)
    arr = tail_series(tail, np.array([1.0, 10.0]))
    np.testing.assert_allclose(arr, [10.0, 0.208], rtol=1e-12)


def test_crossover_analytic_two_term_tail() -> None:
    # P = T1/t + T3/t^3: slope crosses -2 at sqrt(T3/T1) (grid-refined limit).
    t1, t3 = 1e-8, 2e-6
    assert crossover_time(t1, 0.0, t3) == pytest.approx(math.sqrt(t3 / t1), rel=1e-3)


def test_crossover_pure_cubic_is_infinite() -> None:
    assert crossover_time(0.0, 0.0, 5.0) == math.inf
    # a table row of numpy floats whose T3/T1 overflows: inf, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert crossover_time(*np.array([1e-300, 0.0, 1e300])) == math.inf


def test_crossover_is_the_exact_root() -> None:
    assert crossover_time(1e-8, 0.0, 2e-6) == math.sqrt(200)


def _grid_crossover(values: tuple[float, float, float]) -> float:
    """The crossover as a 240-per-decade log-grid search with interpolation."""
    t = np.geomspace(1e-8, 1e16, 24 * 240 + 1)
    p = tail_series(np.array(values), t)
    bad = p <= 0.0
    if bad.any():  # keep the positive run that reaches the largest times
        start = int(np.nonzero(bad)[0][-1]) + 1
        t, p = t[start:], p[start:]
    ln_t = np.log(t)
    slopes = np.diff(np.log(p)) / np.diff(ln_t)
    mid = 0.5 * (ln_t[:-1] + ln_t[1:])
    above = slopes > -2.0
    if not above.any():
        return math.inf
    i = int(np.argmax(above))
    if i == 0:
        return float(np.exp(mid[0]))
    s0, s1 = slopes[i - 1], slopes[i]
    frac = (-2.0 - s0) / (s1 - s0)
    return float(np.exp(mid[i - 1] + frac * (mid[i] - mid[i - 1])))


_GRID_STEP = 10.0 ** (1.0 / 240.0)
_T1_SCALE = st.floats(-10.0, -2.0).map(lambda u: 10.0 ** u)
_CROSSING = st.floats(-3.0, 6.0).map(lambda v: 10.0 ** v)


def _f(values: tuple[float, float, float], t: float) -> tuple[float, float]:
    """t^3 P(t) and the sum of its terms' magnitudes."""
    t1, t2, t3 = values
    return t1 * t * t + t2 * t + t3, abs(t1) * t * t + abs(t2) * t + abs(t3)


def _assert_last_zero(values: tuple[float, float, float], r: float) -> None:
    # the answer is P's last zero: f(r) = 0 and f > 0 beyond it, where the
    # grid search returns its first samples, within 1.5 grid steps above r
    f, size = _f(values, r)
    assert abs(f) <= 1e-12 * size, (values, r)
    assert _f(values, r * (1.0 + 1e-6))[0] > 0.0
    grid = _grid_crossover(values)
    assert r < grid <= r * _GRID_STEP ** 1.5 * (1.0 + 1e-12), (values, r, grid)


@settings(max_examples=60, deadline=None)
@given(_T1_SCALE, _CROSSING, st.floats(-1.5, 20.0))
def test_crossover_with_positive_t3_is_where_the_slope_is_minus_2(
    t1: float, c: float, s: float
) -> None:
    # f = T1 t^2 + T2 t + T3 with T2 = s T1 c, T3 = T1 c^2: no positive zero
    values = (t1, s * t1 * c, t1 * c * c)
    t = crossover_time(*values)
    assert t == math.sqrt(values[2] / values[0])
    f, _ = _f(values, t)
    slope = t * (2.0 * values[0] * t + values[1]) / f - 3.0
    assert abs(slope + 2.0) <= 1e-12
    assert _grid_crossover(values) == pytest.approx(t, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(_T1_SCALE, _CROSSING, st.floats(0.0, 1.0))
def test_crossover_with_t3_at_most_0_is_the_last_zero(t1: float, r: float, m: float) -> None:
    # f = T1 (t - r)(t + m r): T3 = -T1 m r^2 <= 0 and one zero at r > 0
    values = (t1, -t1 * r * (1.0 - m), -t1 * r * r * m)
    t = crossover_time(*values)
    assert t == pytest.approx(r, rel=1e-12)
    _assert_last_zero(values, t)


@settings(max_examples=60, deadline=None)
@given(_T1_SCALE, _CROSSING, st.floats(0.01, 0.99))
def test_crossover_with_two_positive_zeros_is_the_larger(t1: float, r: float, m: float) -> None:
    # f = T1 (t - r)(t - m r): T3 > 0, and sqrt(T3/T1) lies between the zeros
    values = (t1, -t1 * r * (1.0 + m), t1 * r * r * m)
    t = crossover_time(*values)
    assert t == pytest.approx(r, rel=1e-9)
    assert math.sqrt(values[2] / values[0]) < t
    _assert_last_zero(values, t)


@settings(max_examples=60, deadline=None)
@given(_T1_SCALE, _CROSSING)
def test_crossover_without_t1_and_negative_t3_is_the_zero(t2: float, r: float) -> None:
    values = (0.0, t2, -t2 * r)
    t = crossover_time(*values)
    assert t == pytest.approx(r, rel=1e-12)
    _assert_last_zero(values, t)
    # with T3 > 0 instead the slope stays between -3 and -2
    assert crossover_time(0.0, t2, t2 * r) == math.inf


def test_crossover_needs_a_positive_tail() -> None:
    for values in ((-1e-8, 0.0, 2e-6), (0.0, -1.0, 5.0), (0.0, 0.0, 0.0)):
        with pytest.raises(ConfigError, match="non-positive at large times"):
            crossover_time(*values)


def test_crossover_frozen_ladder(data: ExpansionData) -> None:
    times = {}
    for n_pairs, row in zip(_CROSSOVER, tail_expansion(data, tuple(_CROSSOVER))):
        times[n_pairs] = crossover_time(*row)
        assert times[n_pairs] == pytest.approx(_CROSSOVER[n_pairs], rel=1e-3), f"N = {n_pairs}"
    ladder = [times[n] for n in sorted(times)]
    assert ladder == sorted(ladder)  # monotone increase with N
    # A one-pair truncation leaves a strong spurious tail: early crossover.
    assert times[1] < 0.1
    assert times[40] == pytest.approx(
        math.sqrt(_T3_40 / _D1[40]), rel=2e-3
    )


def test_synthetic_zero_sum_rule_kills_t1(data: ExpansionData, monkeypatch) -> None:
    # If the sum rule were exactly satisfied (Q[1, .] = 0) the t^-1 and t^-2
    # terms would vanish identically and the tail would be pure t^-3.
    original = asym.nested_forms

    def forced(sub, rings, left, right):
        rows = original(sub, rings, left, right)
        sigma_1 = sub.coefficients / sub.states.k ** 1
        for i in range(len(rows)):
            if np.array_equal(left[i], sigma_1) or np.array_equal(right[i], sigma_1):
                rows[i] = 0.0
        return rows

    monkeypatch.setattr(asym, "nested_forms", forced)
    ((t1, t2, t3),) = tail_expansion(data, (10,))
    assert t1 == 0.0
    assert t2 == 0.0
    assert t3 > 0.0
    assert crossover_time(t1, t2, t3) == math.inf


def test_slope_fit_recovers_pure_power_law() -> None:
    t = np.geomspace(1.0, 100.0, 60)
    fit = slope_fit(_series(t, 7.0 / t), (1.0, 100.0))
    assert isinstance(fit, SlopeFit)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.stderr <= 1e-12
    # both ends of the window count: 8 samples, the least a fit takes
    assert slope_fit(_series(t[:8], 7.0 / t[:8]), (1.0, t[7])).slope == pytest.approx(-1.0)
    fit3 = slope_fit(_series(t, 5.0 / t ** 3), (1.0, 100.0))
    assert fit3.slope == pytest.approx(-3.0, abs=1e-12)


def test_slope_fit_sees_constructed_crossover() -> None:
    # P = 2/t^3 + 1e-9/t crosses slope -2 at sqrt(2e9) ~ 4.5e4: steep before,
    # shallow after.
    t_early = np.geomspace(1e2, 1e3, 30)
    t_late = np.geomspace(1e7, 1e8, 30)
    p = lambda t: 2.0 / t ** 3 + 1e-9 / t  # noqa: E731
    early = slope_fit(_series(t_early, p(t_early)), (1e2, 1e3))
    late = slope_fit(_series(t_late, p(t_late)), (1e7, 1e8))
    assert early.slope == pytest.approx(-3.0, abs=0.01)
    assert late.slope == pytest.approx(-1.0, abs=0.01)
    assert crossover_time(1e-9, 0.0, 2.0) == pytest.approx(math.sqrt(2e9), rel=1e-3)


def test_slope_fit_guards() -> None:
    t = np.geomspace(1.0, 10.0, 12)
    with pytest.raises(EmptyWindow, match="need >= 8"):
        slope_fit(_series(t, 1.0 / t), (5.0, 6.0))
    p = 1.0 / t
    p[6] = -1e-15
    with pytest.raises(NonPositiveProbability):
        slope_fit(_series(t, p), (1.0, 10.0))
    with pytest.raises(ConfigError, match="t_lo < t_hi"):
        slope_fit(_series(t, 1.0 / t), (5.0, 5.0))


def test_post_exponential_window_synthetic() -> None:
    k = 1.0 - 0.25j  # Im k^2 = -0.5, so Gamma = -2 Im k^2 = 1
    t = np.geomspace(0.05, 200.0, 400)
    p = np.exp(-t) + 1e-6 / t
    series = _series(t, p)
    t_lo, t_hi = post_exponential_window(series, k)
    assert t_hi == pytest.approx(200.0)
    # Window opens once exp(-t) <= 1e-3 * (1e-6 / t): around t ~ 25.
    expected_open = 25.0
    assert t_lo == pytest.approx(expected_open, rel=0.15)
    assert slope_fit(series, (t_lo, t_hi)).slope == pytest.approx(-1.0, abs=0.01)
    # A supplied horizon clips the window.
    t_lo_h, t_hi_h = post_exponential_window(series, k, horizon=100.0)
    assert t_hi_h == 100.0
    assert t_lo_h == t_lo


def test_post_exponential_window_never_opens() -> None:
    k = 1.0 - 0.25j
    t = np.geomspace(0.05, 10.0, 200)
    series = _series(t, np.exp(-t))  # purely exponential over the whole run
    with pytest.raises(EmptyWindow, match="never"):
        post_exponential_window(series, k)
    short = _series(np.array([0.01, 0.02, 0.03]), np.array([1.0, 0.9, 0.8]))
    with pytest.raises(EmptyWindow, match="3 positive samples"):
        post_exponential_window(short, k)


def test_convergence_study_table(data: ExpansionData) -> None:
    report = convergence_study(data, truncations=(5, 10, 20, 40))
    assert report.truncations == (5, 10, 20, 40)
    np.testing.assert_allclose(
        report.tails[:, 0], [_D1[5], _D1[10], _D1[20], _D1[40]], rtol=1e-4
    )
    np.testing.assert_allclose(report.t1_quadrature, report.tails[:, 0], rtol=1e-6)
    np.testing.assert_allclose(
        report.sumrule_l2, np.sqrt(report.t1_quadrature) / TAIL_PREFACTOR, rtol=1e-12
    )
    np.testing.assert_allclose(
        report.crossover, [_CROSSOVER[5], _CROSSOVER[10], _CROSSOVER[20], _CROSSOVER[40]],
        rtol=1e-3,
    )
    assert np.all(np.diff(report.tails[:, 0]) < 0.0)
    assert np.all(np.diff(report.crossover) > 0.0)
    assert np.isnan(report.slope).all() and np.isnan(report.slope_stderr).all()


def test_convergence_study_with_slopes(data: ExpansionData) -> None:
    grid = TimeGrid.log(20.0, 40.0, per_decade=40)
    window = (20.0, 40.0)
    report = convergence_study(data, (5, 40), window, probability_sums(data, grid, (5, 40)))
    assert not np.isnan(report.slope).any() and not np.isnan(report.slope_stderr).any()
    assert report.slope.shape == (2,)
    # In a late window the heavily truncated expansion shows the shallow
    # spurious slope; at N = 40 the crossover (~23) sits inside the window,
    # so the slope is intermediate but still shallower than -3.
    assert report.slope[0] > -1.5
    assert -3.0 < report.slope[1] < -1.0
    assert np.all(report.slope_stderr >= 0.0)
    # each row is the fit of that truncation's own series
    for i, n in enumerate((5, 40)):
        single = slope_fit(nonescape_probability(data, grid, n_pairs=n), window)
        assert report.slope[i] == single.slope
        assert report.slope_stderr[i] == single.stderr


def test_convergence_study_reuses_largest_series(
    data: ExpansionData, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The caller's single probability_sums pass is the only source of P(t):
    # the study reads each truncation's series from it once and sums nothing
    # itself.
    grid = TimeGrid.log(20.0, 40.0, per_decade=40)
    window = (20.0, 40.0)
    sums = probability_sums(data, grid, (5, 40))
    reads: list[int] = []
    original = type(sums).series

    def counted(self, n_pairs):
        reads.append(n_pairs)
        return original(self, n_pairs)

    monkeypatch.setattr(type(sums), "series", counted)
    report = convergence_study(data, (5, 40), window, sums)
    assert reads == [5, 40]
    convergence_study(data, (5, 40), None, sums)
    convergence_study(data, (5, 40), window, None)
    assert reads == [5, 40]
    for i, n in enumerate((5, 40)):
        single = slope_fit(nonescape_probability(data, grid, n_pairs=n), window)
        assert report.slope[i] == single.slope
    with pytest.raises(ConfigError, match="not among"):
        convergence_study(data, (5, 10), window, sums)


def test_convergence_study_tail_matches_series(data: ExpansionData) -> None:
    # Far beyond the crossover the truncated series itself must follow its
    # own three-term tail.
    (tail,) = tail_expansion(data, (10,))
    t = np.array([400.0, 900.0, 2000.0])
    series = nonescape_probability(data, TimeGrid(t), n_pairs=10)
    np.testing.assert_allclose(series.probability, tail_series(tail, t), rtol=0.05)


def test_convergence_study_validation(data: ExpansionData) -> None:
    with pytest.raises(ConfigError, match="ascending"):
        convergence_study(data, truncations=(10, 5))
    with pytest.raises(ConfigError, match="ascending"):
        convergence_study(data, truncations=(5, 5))
    with pytest.raises(ConfigError, match="truncation 0 outside the built range 1..40"):
        convergence_study(data, truncations=(0, 5))
    with pytest.raises(ConfigError, match="truncation 10000 outside the built range 1..40"):
        convergence_study(data, truncations=(10_000,))


@pytest.mark.slow
def test_adjudicate_reference_run_gives_t3_with_checks_6_to_8_numbers(
    ctx: SelftestContext,
) -> None:
    # The verdict and tail report selftest checks 6-8 read, against the
    # routes those checks took on their own before they shared them, and
    # their printed numbers.
    verdict, report, run, data = ctx.verdict, ctx.tail_report, ctx.long_run, ctx.data
    k1 = ctx.pole_set.pole(1)
    assert verdict.text.startswith("t^-3: direct integration shows slope -3.14")
    assert verdict.t3 and report.vanishing and report.receding
    assert f"{report.route_dev:.2e}" == "3.51e-09"

    d1_5, d1_40 = tail_expansion(data, (5, 40))[:, 0].tolist()
    assert report.d1_ratio == d1_40 / d1_5
    assert f"{report.d1_ratio:.2e}" == "2.32e-03"

    t = run.series.times
    tau = lifetime(k1)
    mask = (t >= 0.1 * tau) & (t <= 5.0 * tau)
    np.testing.assert_array_equal(verdict.lifetime_mask, mask)
    expansion = nonescape_probability(data, TimeGrid(t[mask]), n_pairs=40).probability
    direct = run.series.probability[mask]
    assert verdict.lifetime_dev == float(np.max(np.abs(direct - expansion) / expansion))
    assert f"{verdict.lifetime_dev:.2e}" == "3.53e-04" and int(mask.sum()) == 68

    window = post_exponential_window(run.series, k1, horizon=run.horizon_time)
    assert verdict.window == window
    assert f"[{window[0]:.2f}, {window[1]:.2f}]" == "[18.76, 42.00]"
    fit = verdict.direct_fit
    assert fit == slope_fit(run.series, window)
    assert f"{fit.slope:.3f} +- {fit.stderr:.3f}" == "-3.140 +- 0.092"
    t_win = TimeGrid(t[(t >= window[0]) & (t <= window[1])])
    n40 = slope_fit(nonescape_probability(data, t_win, n_pairs=40), window)
    assert verdict.expansion_fits[40] == n40 and f"{n40.slope:.3f}" == "-1.811"
    assert report.truncations == (5, 10, 20, 40)
    assert [f"{c:.2f}" for c in report.crossover] == ["1.10", "3.05", "8.39", "23.15"]


_UNIT_K = 1.0 - 0.25j  # Gamma = 1


def _synthetic_sums(t: np.ndarray, p: np.ndarray, truncations: tuple[int, ...]):
    """Sums in which every truncation's P(t) is ``p``."""
    return ProbabilitySums(
        times=t,
        truncations=truncations,
        sums=np.tile(p.astype(complex), (len(truncations), 1)),
    )


def _synthetic_verdict(report: TailReport, slope: float):
    """adjudicate on a direct run exp(-t) + 1e-3 t^slope that every
    truncation's P(t) matches; D1 and the crossovers are the report's."""
    t = np.geomspace(0.05, 400.0, 161)
    p = np.exp(-t) + 1e-3 * t ** slope
    sums = _synthetic_sums(t, p, report.truncations)
    return adjudicate(_series(t, p), None, sums, report, _UNIT_K)


# D1(20)/D1(9) = 0.0978 and D1(22)/D1(10) = 0.1006 straddle the ratio
# bound, and the slopes straddle each edge of the t^-3 band by 0.01, so a
# moved edge or bound changes some verdict below.
@pytest.mark.parametrize(
    "slope, truncations, expected",
    [
        (-3.29, (9, 20), "t^-3: "),
        (-2.71, (9, 20), "t^-3: "),
        (-3.31, (9, 20), "mixed evidence: "),
        (-2.69, (9, 20), "mixed evidence: "),
        (-3.0, (10, 22), "mixed evidence: "),
        (-3.31, (10, 22), "t^-1: "),
        (-2.69, (10, 22), "t^-1: "),
        (-1.0, (10, 22), "t^-1: "),
    ],
)
def test_adjudicate_branches_at_band_edges_and_ratio_bound(
    data: ExpansionData, slope: float, truncations: tuple[int, ...], expected: str
) -> None:
    report = convergence_study(data, truncations)
    verdict = _synthetic_verdict(report, slope)
    assert verdict.direct_fit is not None
    assert abs(verdict.direct_fit.slope - slope) < 1e-3
    assert verdict.text.startswith(expected), verdict.text
    assert report.receding
    assert verdict.lifetime_window == (0.1, 5.0) and verdict.lifetime_dev == 0.0
    assert set(verdict.expansion_fits) == set(truncations)


def test_adjudicate_without_a_tail_window_gives_no_adjudication(
    data: ExpansionData,
) -> None:
    t = np.geomspace(0.05, 40.0, 120)
    p = np.exp(-t)
    report = convergence_study(data, (5, 10))
    verdict = adjudicate(_series(t, p), None, _synthetic_sums(t, p, (5, 10)), report, _UNIT_K)
    assert verdict.text.startswith("no adjudication")
    assert verdict.window is None and verdict.direct_fit is None
    assert verdict.expansion_fits == {} and not verdict.t3
    # without a window the routes to D1 are still checked
    skewed = dataclasses.replace(report, t1_quadrature=1.01 * report.t1_quadrature)
    with pytest.raises(EquivalenceViolation, match="routes disagree by "):
        adjudicate(_series(t, p), None, _synthetic_sums(t, p, (5, 10)), skewed, _UNIT_K)
    with pytest.raises(ConfigError, match=r"truncations \(5, 10\) differ from \(5, 20\)"):
        adjudicate(_series(t, p), None, _synthetic_sums(t, p, (5, 20)), report, _UNIT_K)


def test_check_6_reads_the_tail_report_without_the_direct_run(ctx: SelftestContext) -> None:
    # Check 6 judges the config truncations' tail report and one table over
    # N = 1..40; the direct integration is left to checks 7 and 8.
    fresh = SelftestContext(ctx.cfg)
    vars(fresh).update(pole_set=ctx.pole_set, data=ctx.data)
    result = check_tail_coefficient(fresh)
    assert "long_run" not in vars(fresh) and "verdict" not in vars(fresh)
    assert result.line == (
        "check 6/9 PASS - tail coefficient: min D1 4.18e-09 (all N <= 40 "
        "non-negative: True); route dev 3.51e-09 (tol 1e-6); D1(40)/D1(5) = "
        "2.32e-03 (tol 0.1)"
    )
