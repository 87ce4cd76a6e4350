from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from _oracles import nonescape_probability_loop, same_bits
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonescape import dynamics
from nonescape.asymptote import tail_expansion
from nonescape.dynamics import (
    _CHUNK,
    NonescapeSeries,
    ProbabilitySums,
    TimeGrid,
    exact_nested_sums,
    exact_row_sums,
    gamma_width,
    lifetime,
    nonescape_probability,
    probability_sums,
)
from nonescape.errors import ConfigError, NonPositiveProbability, TruncationUnstable
from nonescape.gamow import ExpansionData, overlap_matrix
from nonescape.selftest import SelftestContext
from nonescape.specfn import moshinsky

_K1 = 2.7579383212949247 - 0.14043273246623328j
_GAMMA1 = 1.549219  # -2 Im(k1^2)
_P0_40 = 1.0 + 6.679600e-4  # frozen truncated P(0) at N = 40 (from above)


def test_time_grid_validation() -> None:
    with pytest.raises(ConfigError, match="non-empty"):
        TimeGrid(np.array([]))
    with pytest.raises(ConfigError, match="finite"):
        TimeGrid(np.array([0.0, math.inf]))
    with pytest.raises(ConfigError, match="non-negative"):
        TimeGrid(np.array([-1.0, 1.0]))
    with pytest.raises(ConfigError, match="strictly increasing"):
        TimeGrid(np.array([0.0, 1.0, 1.0]))
    grid = TimeGrid(np.array([0.0, 0.5, 2.0]))
    assert len(grid) == 3


def test_time_grid_log_spacing() -> None:
    grid = TimeGrid.log(0.1, 100.0, per_decade=10)
    assert len(grid) == 31
    assert grid.times[0] == pytest.approx(0.1, rel=1e-15)
    assert grid.times[-1] == pytest.approx(100.0, rel=1e-15)
    ratios = grid.times[1:] / grid.times[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    with pytest.raises(ConfigError, match="0 < t_min < t_max"):
        TimeGrid.log(1.0, 0.5)
    with pytest.raises(ConfigError, match="0 < t_min < t_max"):
        TimeGrid.log(0.0, 1.0)
    assert len(TimeGrid.log(1.0, 1.0001, per_decade=5)) == 2  # floor of 2 points


def test_gamma_width_and_lifetime() -> None:
    assert gamma_width(_K1) == pytest.approx(_GAMMA1, rel=1e-6)
    assert lifetime(_K1) == pytest.approx(1.0 / _GAMMA1, rel=1e-6)
    with pytest.raises(ConfigError, match="not a decaying pole"):
        gamma_width(1.0 + 0.5j)
    with pytest.raises(ConfigError, match="not a decaying pole"):
        gamma_width(2.0 + 0.0j)


def test_initial_probability_converges(data: ExpansionData) -> None:
    grid = TimeGrid(np.array([0.0]))
    errs = {}
    for n_pairs in (5, 10, 20, 40):
        series = nonescape_probability(data, grid, n_pairs=n_pairs)
        errs[n_pairs] = abs(series.probability[0] - 1.0)
    assert nonescape_probability(data, grid, n_pairs=40).probability[0] == pytest.approx(
        _P0_40, abs=1e-9
    )
    assert errs[40] < errs[20] < errs[10] < errs[5]
    assert errs[40] <= 1e-2


def test_exponential_stage_slope(data: ExpansionData) -> None:
    # Between ~0.5 and ~3 lifetimes the decay is dominated by the first
    # resonance: d ln P / dt = -Gamma_1.
    tau = lifetime(_K1)
    grid = TimeGrid(np.linspace(0.5 * tau, 3.0 * tau, 24))
    series = nonescape_probability(data, grid, n_pairs=40)
    slope = np.polyfit(series.times, np.log(series.probability), 1)[0]
    assert slope == pytest.approx(-_GAMMA1, rel=0.05)


def test_modes_agree(data: ExpansionData) -> None:
    grid = TimeGrid(np.array([0.0, 0.3, 1.7, 8.0]))
    sub = data.truncate(6)
    quad_data = dataclasses.replace(
        sub, overlap=overlap_matrix(sub.states, "quadrature"), overlap_method="quadrature"
    )
    closed = nonescape_probability(data, grid, n_pairs=6)
    quad = nonescape_probability(quad_data, grid)
    np.testing.assert_allclose(closed.probability, quad.probability, atol=1e-10)
    assert closed.mode == "closed" and quad.mode == "quadrature"


def test_series_bookkeeping(data: ExpansionData) -> None:
    grid = TimeGrid.log(0.01, 10.0, per_decade=8)
    series = nonescape_probability(data, grid, n_pairs=10)
    assert len(series) == len(grid)
    assert series.n_pairs == 10
    assert series.mode == "closed"
    assert series.imag_residual <= 1e-10
    assert np.all(series.probability > 0.0)
    assert series.times is not grid.times  # defensive copy


def test_probability_positive_far_into_tail(data: ExpansionData) -> None:
    # Deep in the algebraic tail P is ~1e-12; exact summation must keep it
    # strictly positive.
    grid = TimeGrid(np.array([200.0, 500.0, 1000.0]))
    series = nonescape_probability(data, grid, n_pairs=40)
    assert np.all(series.probability > 0.0)
    assert np.all(np.diff(series.probability) < 0.0)


def test_nonescape_series_is_lightweight() -> None:
    series = NonescapeSeries(
        times=np.array([0.0, 1.0]),
        probability=np.array([1.0, 0.5]),
        imag_residual=0.0,
        n_pairs=1,
        mode="closed",
    )
    assert len(series) == 2


def _bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("n_pairs", [5, 10, 20, 40])
def test_batched_probability_matches_loop(data: ExpansionData, n_pairs: int) -> None:
    # the default configuration's grid: 118 log-spaced samples in [0.05, 42]
    grid = TimeGrid.log(0.05, 42.0, per_decade=40)
    series = nonescape_probability(data, grid, n_pairs=n_pairs)
    p_ref, imag_ref = nonescape_probability_loop(data.truncate(n_pairs), grid.times)
    assert np.array_equal(_bits(series.probability), _bits(p_ref))
    assert series.imag_residual == imag_ref


def test_long_time_stability_wide_expansion(ctx: SelftestContext) -> None:
    # 160 pole pairs out to t = 1e5, where P falls to ~1e-15 and every
    # sample is a near-total cancellation of (2N)^2 = 102400 terms
    wide = ctx.wide_data
    grid = TimeGrid.log(0.05, 1.0e5, per_decade=10)
    series = nonescape_probability(wide, grid, n_pairs=160)
    p_ref, imag_ref = nonescape_probability_loop(wide.truncate(160), grid.times)
    assert np.array_equal(_bits(series.probability), _bits(p_ref))
    assert series.imag_residual == imag_ref
    tail = series.times >= 10.0
    assert np.all(series.probability > 0.0)
    assert np.all(np.diff(series.probability[tail]) < 0.0)
    assert series.probability[-1] < 1e-14


def test_nonhermitian_overlap_raises_at_first_offending_time(
    data: ExpansionData,
) -> None:
    sub = data.truncate(10)
    i1, i5 = (int(np.flatnonzero(sub.indices == n)[0]) for n in (1, 5))
    w0 = 0.5 * sub.coefficients  # M(k, 0) = 1/2
    # an anti-Hermitian part whose term cancels at t = 0 and grows as the
    # n = 5 state decays faster than n = 1
    skew = np.zeros_like(sub.overlap)
    skew[i1, i1] = 1.0
    skew[i5, i5] = -abs(w0[i1]) ** 2 / abs(w0[i5]) ** 2
    doctored = dataclasses.replace(sub, overlap=sub.overlap + 1e-3j * skew)
    grid = TimeGrid(np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 40)]))
    with pytest.raises(TruncationUnstable) as ref:
        nonescape_probability_loop(doctored, grid.times)
    assert "at t = 0 " not in str(ref.value)
    with pytest.raises(TruncationUnstable, match=re.escape(str(ref.value))):
        nonescape_probability(doctored, grid)


def test_negated_overlap_raises_nonpositive(data: ExpansionData) -> None:
    sub = data.truncate(10)
    grid = TimeGrid.log(0.5, 40.0, per_decade=8)
    negated = dataclasses.replace(sub, overlap=-sub.overlap)
    with pytest.raises(NonPositiveProbability, match=rf"^P\({grid.times[0]:g}\) = "):
        nonescape_probability(negated, grid)
    # negative and far from real at the same sample: the imaginary check
    # comes first
    both = dataclasses.replace(sub, overlap=-sub.overlap * (1.0 + 1e-3j))
    with pytest.raises(TruncationUnstable, match=f"at t = {grid.times[0]:g} "):
        nonescape_probability(both, grid)


def _checked_row_loop(times: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, float]:
    """:meth:`ProbabilitySums.series`'s checks on one row, one sample at a time."""
    p_out = np.empty(len(times))
    worst_imag = 0.0
    for j, total in enumerate(row):
        re, im, t = total.real, total.imag, times[j]
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


# each sample's parts near the checks' thresholds, NaN among them
_SAMPLE_PARTS = st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, 3.0, -1e-9, -2e-9, 1e-6, -1e-6, 3e-6, 2e-7, math.nan]
) | st.floats(-4.0, 4.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_SAMPLE_PARTS, _SAMPLE_PARTS), min_size=1, max_size=12))
def test_series_checks_match_sample_loop(parts: list[tuple[float, float]]) -> None:
    # the same error at the same first sample, or the same bits and the same
    # worst imaginary residual (a NaN sample skipped, as Python's max skips it)
    row = np.array([complex(re, im) for re, im in parts])
    times = 0.25 * np.arange(1, len(row) + 1)
    sums = ProbabilitySums(times=times, truncations=(3,), sums=row[None, :], mode="closed")
    try:
        p_ref, imag_ref = _checked_row_loop(times, row)
    except (TruncationUnstable, NonPositiveProbability) as exc:
        with pytest.raises(type(exc)) as got:
            sums.series(3)
        assert str(got.value) == str(exc)
        return
    series = sums.series(3)
    assert same_bits(series.probability, p_ref)
    assert series.imag_residual == imag_ref


def _finite_rows():
    floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
    return st.integers(1, 4).flatmap(
        lambda n_rows: st.integers(0, 40).flatmap(
            lambda n_cols: st.lists(
                st.lists(floats, min_size=n_cols, max_size=n_cols),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
    )


@given(_finite_rows())
def test_exact_row_sums_equal_fsum(rows: list[list[float]]) -> None:
    try:
        expected = [math.fsum(row) for row in rows]
    except OverflowError:
        assume(False)
    got = exact_row_sums(np.array(rows, dtype=float).reshape(len(rows), -1))
    assert np.array_equal(_bits(got), _bits(expected))


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                -2.2250738585072009e-308, 1.0, -1.0, 1e300, -1e300,
                1.7976931348623157e308, -1.7976931348623157e308]


@given(st.lists(st.sampled_from(_EDGE_VALUES), max_size=30))
def test_exact_row_sums_edge_values(row: list[float]) -> None:
    # signed zeros, subnormals, the normal/subnormal boundary, exact cancellation
    try:
        expected = math.fsum(row)
    except OverflowError:
        assume(False)
    got = exact_row_sums(np.array([row], dtype=float).reshape(1, -1))
    assert _bits(got)[0] == _bits([expected])[0]


def test_exact_row_sums_complex_and_nonfinite() -> None:
    rows = np.array([[1e16 + 1j, 1.0 - 1e-30j, -1e16 + 0j], [np.inf, 1.0, 2.0]])
    got = exact_row_sums(rows)
    assert got[0] == complex(1.0, math.fsum([1.0, -1e-30, 0.0]))
    assert got[1].real == math.inf and got[1].imag == 0.0


def _finite_term():
    # mantissas at exponents across the whole range, the subnormal end
    # included, and edge values
    return st.one_of(
        st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 1000)),
        st.sampled_from(_EDGE_VALUES),
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    )


@st.composite
def _nested_case(draw):
    n_rows = draw(st.integers(1, 3))
    n_cols = draw(st.integers(0, 40))
    n_rings = draw(st.integers(1, 5))
    rings = draw(st.lists(st.integers(0, n_rings - 1), min_size=n_cols, max_size=n_cols))
    rows = [
        draw(st.lists(_finite_term(), min_size=n_cols, max_size=n_cols))
        for _ in range(n_rows)
    ]
    for row in rows:  # now and then an infinity or NaN in some ring
        if n_cols and draw(st.integers(0, 5)) == 0:
            row[draw(st.integers(0, n_cols - 1))] = draw(
                st.sampled_from([math.inf, -math.inf, math.nan])
            )
    return rows, rings


@settings(max_examples=300, deadline=None)
@given(_nested_case())
def test_exact_nested_sums_equal_fsum_of_each_group(case) -> None:
    rows, rings = case
    x = np.array(rows, dtype=float).reshape(len(rows), len(rings))
    labels = np.array(rings, dtype=np.intp)
    n_groups = int(labels.max()) + 1 if len(rings) else 1
    try:
        expected = [
            [math.fsum(v for v, r in zip(row, rings) if r <= g) for g in range(n_groups)]
            for row in rows
        ]
    except (OverflowError, ValueError):  # fsum's intermediate overflow, inf - inf
        assume(False)
    got = exact_nested_sums(x, labels)
    assert got.shape == (len(rows), n_groups)
    assert np.array_equal(_bits(got), _bits(expected))
    # complex rows: each part on its own
    z = np.empty(x.shape, dtype=complex)
    z.real, z.imag = x, x[::-1]
    z = exact_nested_sums(z, labels)
    assert np.array_equal(_bits(z.real), _bits(expected))
    assert np.array_equal(_bits(z.imag), _bits(expected[::-1]))


@st.composite
def _complex_nested_case(draw):
    """Complex rows whose real and imaginary parts are drawn independently.

    Widths run to a row wider than a summer chunk (as N = 160 rows are);
    10,007 columns make rows narrower than a chunk, so a chunk that starts
    mid-row holds the start of the next row.  "huge" puts a part's largest exponent at 1021, so the plain-sum
    pre-check runs; now and then one part of a row holds an inf or NaN.
    """
    n_rows = draw(st.integers(1, 3))
    n_cols = draw(st.sampled_from([0, 1, 5, 40, 10_007, 3 * _CHUNK // 4 + 3]))
    n_rings = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rings = rng.integers(0, n_rings, n_cols)
    x = np.empty((n_rows, n_cols), dtype=complex)
    for part in (x.real, x.imag):
        scale = draw(st.sampled_from(["wide", "narrow", "huge"]))
        lo, hi = {"wide": (-1080, 1000), "narrow": (-60, 4), "huge": (900, 1018)}[scale]
        part[...] = np.ldexp(rng.uniform(-1.0, 1.0, x.shape), rng.integers(lo, hi, x.shape))
        if scale == "huge" and n_cols:
            part[:, 0] = np.ldexp(0.75, 1021)
    for i in range(n_rows):
        if n_cols and draw(st.integers(0, 3)) == 0:
            part = x.real if draw(st.booleans()) else x.imag
            part[i, draw(st.integers(0, n_cols - 1))] = draw(
                st.sampled_from([math.inf, -math.inf, math.nan])
            )
    return x, rings


@settings(max_examples=60, deadline=None)
@given(_complex_nested_case())
def test_exact_nested_sums_of_independent_complex_parts(case) -> None:
    x, rings = case
    n_groups = int(rings.max()) + 1 if rings.size else 1
    try:
        expected = [
            [
                [math.fsum(part[i][rings <= g]) for g in range(n_groups)]
                for part in (x.real, x.imag)
            ]
            for i in range(len(x))
        ]
    except (OverflowError, ValueError):  # fsum's intermediate overflow, inf - inf
        assume(False)
    got = exact_nested_sums(x, rings)
    assert got.shape == (len(x), n_groups)
    for i, (re, im) in enumerate(expected):
        assert np.array_equal(_bits(got[i].real), _bits(re)), i
        assert np.array_equal(_bits(got[i].imag), _bits(im)), i


@pytest.mark.parametrize("name", ["reference", "wide"])
def test_exact_sums_take_no_fsum_fallback(
    ctx: SelftestContext, monkeypatch: pytest.MonkeyPatch, name: str
) -> None:
    # the P(t) and tail passes hold only finite terms far from overflow:
    # every group is summed by the bins, none is left to math.fsum
    data = ctx.data if name == "reference" else ctx.wide_data
    calls = []
    monkeypatch.setattr(dynamics, "fsum", lambda terms: calls.append(len(terms)))
    truncations = (5, 10, 20, 40) if name == "reference" else (10, 20, 40, 80, 160)
    probability_sums(data, TimeGrid.log(0.05, 1.0e5, per_decade=10), truncations)
    tail_expansion(data, truncations)
    assert calls == []


def _loop_reference(data: ExpansionData, grid: TimeGrid, truncations) -> None:
    sums = probability_sums(data, grid, truncations)
    assert sums.truncations == tuple(truncations)
    for n in truncations:
        series = sums.series(n)
        p_ref, imag_ref = nonescape_probability_loop(data.truncate(n), grid.times)
        assert np.array_equal(_bits(series.probability), _bits(p_ref)), n
        assert series.imag_residual == imag_ref, n
        assert series.n_pairs == n and series.mode == data.overlap_method


@pytest.mark.parametrize("truncations", [(1, 2, 7, 33, 40), (1, 40), (3, 4, 39)])
def test_nested_probability_matches_loop(
    data: ExpansionData, truncations: tuple[int, ...]
) -> None:
    # many samples per block (N <= 64) and uneven rings
    _loop_reference(data, TimeGrid.log(0.05, 42.0, per_decade=20), truncations)


def test_nested_probability_matches_loop_wide(ctx: SelftestContext) -> None:
    # one sample per block at N = 160, deep into the tail
    grid = TimeGrid.log(0.05, 1.0e5, per_decade=3)
    _loop_reference(ctx.wide_data, grid, (1, 9, 10, 80, 117, 160))


def test_probability_sums_validation(data: ExpansionData) -> None:
    grid = TimeGrid(np.array([0.0, 1.0]))
    with pytest.raises(ConfigError, match="distinct and ascending"):
        probability_sums(data, grid, (10, 5))
    with pytest.raises(ConfigError, match="distinct and ascending"):
        probability_sums(data, grid, ())
    with pytest.raises(ConfigError, match="truncation 0 outside the built range 1..40"):
        probability_sums(data, grid, (0, 5))
    with pytest.raises(ConfigError, match="truncation 41 outside the built range 1..40"):
        nonescape_probability(data, grid, n_pairs=41)
    with pytest.raises(ConfigError, match="not among"):
        probability_sums(data, grid, (5, 10)).series(7)


def test_nested_probability_checks_each_truncation_alone(data: ExpansionData) -> None:
    # a skew term on the outermost pair of N = 10 breaks N = 10 only; the
    # smaller truncation's series is still checked and returned
    sub = data.truncate(10)
    grid = TimeGrid.log(0.05, 2.0, per_decade=8)
    w0 = sub.coefficients[0] * moshinsky(sub.wavenumbers[0], grid.times[0])
    skew = np.zeros_like(sub.overlap)
    skew[0, 0] = 1e-3j / abs(w0) ** 2  # imaginary residual 1e-3 at the first sample
    doctored = dataclasses.replace(sub, overlap=sub.overlap + skew)
    sums = probability_sums(doctored, grid, (5, 10))
    assert np.array_equal(
        sums.series(5).probability, nonescape_probability(data, grid, 5).probability
    )
    with pytest.raises(TruncationUnstable, match=f"at t = {grid.times[0]:g} "):
        sums.series(10)
