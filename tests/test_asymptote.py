from __future__ import annotations

import math

import numpy as np
import pytest

import nonescape.asymptote as asym
from nonescape.asymptote import (
    SlopeFit,
    TailCoefficients,
    adjudicate,
    convergence_study,
    crossover_time,
    moment_sum,
    moment_sum_quadrature,
    post_exponential_window,
    slope_fit,
    tail_coefficient_t1,
    tail_expansion,
)
from nonescape.dynamics import (
    NonescapeSeries,
    ProbabilitySums,
    TimeGrid,
    lifetime,
    nonescape_probability,
    probability_sums,
)
from nonescape.errors import (
    ConfigError,
    EmptyWindow,
    EquivalenceViolation,
    NonPositiveProbability,
)
from nonescape.gamow import ExpansionData
from nonescape.poles import ResonancePole
from nonescape.selftest import SelftestContext
from nonescape.specfn import TAIL_PREFACTOR

# Frozen tail data for the reference problem (shell lam = 6, R = 1, psi0 the
# lowest box mode): the spurious t^-1 weight versus truncation, the genuine
# t^-3 weight, and the slope-crossing times.
_D1 = {1: 1.822017e-4, 5: 1.799225e-6, 10: 2.390178e-7, 20: 3.175033e-8, 40: 4.176062e-9}
_T3_40 = 2.238525e-6
_CROSSOVER = {1: 0.0806, 5: 1.0994, 10: 3.0534, 20: 8.3941, 40: 23.1525}


def _series(t: np.ndarray, p: np.ndarray) -> NonescapeSeries:
    return NonescapeSeries(
        times=np.asarray(t, dtype=float),
        probability=np.asarray(p, dtype=float),
        imag_residual=0.0,
        n_pairs=1,
        mode="closed",
        provenance="synthetic",
    )


def test_moment_sum_routes_agree(data: ExpansionData) -> None:
    for a, b in ((1, 1), (1, 3), (3, 3)):
        for n_pairs in (5, 20, 40):
            q_mat = moment_sum(data, a, b, n_pairs)
            q_quad = moment_sum_quadrature(data, a, b, n_pairs)
            assert abs(q_mat - q_quad) <= 1e-9 + 1e-7 * abs(q_quad), (a, b, n_pairs)


def test_moment_sum_hermitian_diagonal(data: ExpansionData) -> None:
    # Q[a, a] = int |sigma_a|^2 dr is real and non-negative.
    for a in (1, 3):
        q = moment_sum(data, a, a, n_pairs=20)
        assert abs(q.imag) <= 1e-14 * max(abs(q.real), 1e-300)
        assert q.real >= 0.0


def test_t1_coefficient_frozen_values(data: ExpansionData) -> None:
    for n_pairs, frozen in _D1.items():
        d1 = tail_coefficient_t1(data, n_pairs=n_pairs)
        assert d1 == pytest.approx(frozen, rel=1e-4), f"N = {n_pairs}"
        assert d1 >= 0.0


def test_t1_decreases_with_truncation(data: ExpansionData) -> None:
    values = [tail_expansion(data, n_pairs=n, max_order=1).t1 for n in range(1, 41)]
    assert all(v >= 0.0 for v in values)
    assert values[-1] <= 0.1 * values[4]  # N = 40 vs N = 5
    assert values[-1] < values[0]


def test_t1_cross_check_detects_inconsistency(data: ExpansionData, monkeypatch) -> None:
    original = asym.moment_sum_quadrature

    def skewed(d, a, b, n_pairs=None):
        return 1.01 * original(d, a, b, n_pairs)

    monkeypatch.setattr(asym, "moment_sum_quadrature", skewed)
    with pytest.raises(EquivalenceViolation, match="routes disagree"):
        tail_coefficient_t1(data, n_pairs=10)


def test_tail_expansion_first_entry_matches_t1(data: ExpansionData) -> None:
    coeffs = tail_expansion(data, n_pairs=20, max_order=3)
    t1 = tail_coefficient_t1(data, n_pairs=20)
    assert coeffs.t1 == t1  # same code path, bit-identical
    assert coeffs.values[0] == coeffs.t1
    assert len(coeffs.values) == 3
    assert coeffs.n_pairs == 20


def test_tail_t2_vanishes_for_real_initial_state(data: ExpansionData) -> None:
    # T_2 ~ Im Q[1, 3], which vanishes when psi0 is real.
    for n_pairs in (5, 20, 40):
        coeffs = tail_expansion(data, n_pairs=n_pairs)
        assert abs(coeffs.values[1]) <= 1e-12 * max(abs(coeffs.values[0]), abs(coeffs.values[2]))


def test_tail_t3_approaches_finite_limit(data: ExpansionData) -> None:
    t3_40 = tail_expansion(data, n_pairs=40).values[2]
    assert t3_40 == pytest.approx(_T3_40, rel=1e-4)
    t3_20 = tail_expansion(data, n_pairs=20).values[2]
    assert t3_20 == pytest.approx(t3_40, rel=0.05)  # converged, unlike T_1
    assert t3_40 > 0.0


def test_tail_evaluate() -> None:
    coeffs = TailCoefficients(values=(2.0, 0.0, 8.0), n_pairs=1)
    assert coeffs.evaluate(2.0) == pytest.approx(2.0 / 2.0 + 8.0 / 8.0)
    arr = coeffs.evaluate(np.array([1.0, 10.0]))
    np.testing.assert_allclose(arr, [10.0, 0.208], rtol=1e-12)


def test_tail_expansion_rejects_bad_order(data: ExpansionData) -> None:
    with pytest.raises(ConfigError, match="orders 1..3"):
        tail_expansion(data, n_pairs=5, max_order=4)
    with pytest.raises(ConfigError, match="orders 1..3"):
        tail_expansion(data, n_pairs=5, max_order=0)


def test_crossover_analytic_two_term_tail() -> None:
    # P = T1/t + T3/t^3: slope crosses -2 at sqrt(T3/T1) (grid-refined limit).
    t1, t3 = 1e-8, 2e-6
    coeffs = TailCoefficients(values=(t1, 0.0, t3), n_pairs=1)
    assert crossover_time(coeffs) == pytest.approx(math.sqrt(t3 / t1), rel=1e-3)


def test_crossover_pure_cubic_is_infinite() -> None:
    coeffs = TailCoefficients(values=(0.0, 0.0, 5.0), n_pairs=1)
    assert crossover_time(coeffs) == math.inf


def test_crossover_frozen_ladder(data: ExpansionData) -> None:
    times = {}
    for n_pairs, frozen in _CROSSOVER.items():
        coeffs = tail_expansion(data, n_pairs=n_pairs)
        times[n_pairs] = crossover_time(coeffs)
        assert times[n_pairs] == pytest.approx(frozen, rel=1e-3), f"N = {n_pairs}"
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
    original = asym.moment_sum

    def forced(d, a, b, n_pairs=None):
        if 1 in (a, b):
            return 0.0 + 0.0j
        return original(d, a, b, n_pairs)

    monkeypatch.setattr(asym, "moment_sum", forced)
    coeffs = tail_expansion(data, n_pairs=10)
    assert coeffs.values[0] == 0.0
    assert coeffs.values[1] == 0.0
    assert coeffs.values[2] > 0.0
    assert crossover_time(coeffs) == math.inf


def test_slope_fit_recovers_pure_power_law() -> None:
    t = np.geomspace(1.0, 100.0, 60)
    fit = slope_fit(_series(t, 7.0 / t), (1.0, 100.0))
    assert isinstance(fit, SlopeFit)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.stderr <= 1e-12
    assert fit.n_points == 60
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
    coeffs = TailCoefficients(values=(1e-9, 0.0, 2.0), n_pairs=1)
    assert crossover_time(coeffs) == pytest.approx(math.sqrt(2e9), rel=1e-3)


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
    pole = ResonancePole(n=1, k=k, residual=0.0, scale=1.0)
    t = np.geomspace(0.05, 200.0, 400)
    p = np.exp(-t) + 1e-6 / t
    series = _series(t, p)
    t_lo, t_hi = post_exponential_window(series, pole)
    assert t_hi == pytest.approx(200.0)
    # Window opens once exp(-t) <= 1e-3 * (1e-6 / t): around t ~ 25.
    expected_open = 25.0
    assert t_lo == pytest.approx(expected_open, rel=0.15)
    assert slope_fit(series, (t_lo, t_hi)).slope == pytest.approx(-1.0, abs=0.01)
    # A supplied horizon clips the window.
    t_lo_h, t_hi_h = post_exponential_window(series, pole, horizon=100.0)
    assert t_hi_h == 100.0
    assert t_lo_h == t_lo


def test_post_exponential_window_never_opens() -> None:
    pole = ResonancePole(n=1, k=1.0 - 0.25j, residual=0.0, scale=1.0)
    t = np.geomspace(0.05, 10.0, 200)
    series = _series(t, np.exp(-t))  # purely exponential over the whole run
    with pytest.raises(EmptyWindow, match="never"):
        post_exponential_window(series, pole)
    short = _series(np.array([0.01, 0.02, 0.03]), np.array([1.0, 0.9, 0.8]))
    with pytest.raises(EmptyWindow, match="3 positive samples"):
        post_exponential_window(short, pole)


def test_convergence_study_table(data: ExpansionData) -> None:
    report = convergence_study(data, truncations=(5, 10, 20, 40))
    assert report.truncations == (5, 10, 20, 40)
    np.testing.assert_allclose(
        report.t1_matrix, [_D1[5], _D1[10], _D1[20], _D1[40]], rtol=1e-4
    )
    np.testing.assert_allclose(report.t1_quadrature, report.t1_matrix, rtol=1e-6)
    np.testing.assert_allclose(
        report.sumrule_l2, np.sqrt(report.t1_quadrature) / TAIL_PREFACTOR, rtol=1e-12
    )
    np.testing.assert_allclose(
        report.crossover, [_CROSSOVER[5], _CROSSOVER[10], _CROSSOVER[20], _CROSSOVER[40]],
        rtol=1e-3,
    )
    assert np.all(np.diff(report.t1_matrix) < 0.0)
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
    coeffs = tail_expansion(data, n_pairs=10)
    t = np.array([400.0, 900.0, 2000.0])
    series = nonescape_probability(data, TimeGrid(t), n_pairs=10)
    np.testing.assert_allclose(series.probability, coeffs.evaluate(t), rtol=0.05)


def test_convergence_study_validation(data: ExpansionData) -> None:
    with pytest.raises(ConfigError, match="ascending"):
        convergence_study(data, truncations=(10, 5))
    with pytest.raises(ConfigError, match="ascending"):
        convergence_study(data, truncations=(5, 5))
    with pytest.raises(ConfigError, match="positive"):
        convergence_study(data, truncations=(0, 5))
    with pytest.raises(ConfigError, match="exceeds built expansion"):
        convergence_study(data, truncations=(10_000,))


def test_adjudicate_reference_run_gives_t3_with_checks_6_to_8_numbers(
    ctx: SelftestContext,
) -> None:
    # The verdict selftest checks 6-8 read, against the routes those checks
    # took on their own before they shared it, and their printed numbers.
    verdict, run, data = ctx.verdict, ctx.long_run, ctx.data
    pole = ctx.pole_set.pole(1)
    assert verdict.text.startswith("t^-3: direct integration shows slope -3.14")
    assert verdict.t3 and verdict.vanishing and verdict.receding

    d1 = {n: tail_expansion(data, n_pairs=n, max_order=1).t1 for n in (5, 40)}
    assert verdict.d1_ratio == d1[40] / d1[5]
    assert f"{verdict.d1_ratio:.2e}" == "2.32e-03"

    t = run.series.times
    tau = lifetime(pole)
    mask = (t >= 0.1 * tau) & (t <= 5.0 * tau)
    np.testing.assert_array_equal(verdict.lifetime_mask, mask)
    expansion = nonescape_probability(data, TimeGrid(t[mask]), n_pairs=40).probability
    direct = run.series.probability[mask]
    assert verdict.lifetime_dev == float(np.max(np.abs(direct - expansion) / expansion))
    assert f"{verdict.lifetime_dev:.2e}" == "3.53e-04" and int(mask.sum()) == 68

    window = post_exponential_window(run.series, pole, horizon=run.horizon_time)
    assert verdict.window == window
    assert f"[{window[0]:.2f}, {window[1]:.2f}]" == "[18.76, 42.00]"
    fit = verdict.direct_fit
    assert fit == slope_fit(run.series, window)
    assert f"{fit.slope:.3f} +- {fit.stderr:.3f}" == "-3.140 +- 0.092"
    t_win = TimeGrid(t[(t >= window[0]) & (t <= window[1])])
    n40 = slope_fit(nonescape_probability(data, t_win, n_pairs=40), window)
    assert verdict.expansion_fits[40] == n40 and f"{n40.slope:.3f}" == "-1.811"
    assert [f"{verdict.crossover[n]:.2f}" for n in (5, 10, 20, 40)] == [
        "1.10", "3.05", "8.39", "23.15"
    ]


_UNIT_POLE = ResonancePole(n=1, k=1.0 - 0.25j, residual=0.0, scale=1.0)  # Gamma = 1


def _synthetic_verdict(data: ExpansionData, slope: float, truncations: tuple[int, ...]):
    """adjudicate on a direct run exp(-t) + 1e-3 t^slope that every
    truncation's P(t) matches; D1 and the crossovers are ``data``'s."""
    t = np.geomspace(0.05, 400.0, 161)
    p = np.exp(-t) + 1e-3 * t ** slope
    sums = ProbabilitySums(
        times=t,
        truncations=truncations,
        sums=np.tile(p.astype(complex), (len(truncations), 1)),
        mode="closed",
    )
    return adjudicate(_series(t, p), None, sums, data, _UNIT_POLE)


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
    verdict = _synthetic_verdict(data, slope, truncations)
    assert verdict.direct_fit is not None
    assert abs(verdict.direct_fit.slope - slope) < 1e-3
    assert verdict.text.startswith(expected), verdict.text
    assert verdict.receding
    assert verdict.lifetime_window == (0.1, 5.0) and verdict.lifetime_dev == 0.0
    assert set(verdict.expansion_fits) == set(truncations)


def test_adjudicate_without_a_tail_window_gives_no_adjudication(
    data: ExpansionData,
) -> None:
    t = np.geomspace(0.05, 40.0, 120)
    p = np.exp(-t)
    sums = ProbabilitySums(
        times=t, truncations=(5, 10), sums=np.tile(p.astype(complex), (2, 1)), mode="closed"
    )
    verdict = adjudicate(_series(t, p), None, sums, data, _UNIT_POLE)
    assert verdict.text.startswith("no adjudication")
    assert verdict.window is None and verdict.direct_fit is None
    assert verdict.expansion_fits == {} and not verdict.t3
    assert set(verdict.d1) == {5, 10}
