from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from _oracles import nonescape_probability_loop, same_bits
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonescape import dynamics
from nonescape.asymptote import tail_expansion
from nonescape.dynamics import (
    NonescapeSeries,
    ProbabilitySums,
    TimeGrid,
    exact_row_sums,
    gamma_width,
    lifetime,
    nested_forms,
    nonescape_probability,
    probability_sums,
    truncation_rings,
)
from nonescape.errors import (
    ConfigError,
    NonPositiveProbability,
    OverflowGuard,
    TruncationUnstable,
)
from nonescape.gamow import ExpansionData, build_expansion, overlap_matrix
from nonescape.model import BoxMode, DeltaShell
from nonescape.poles import SearchWindow, locate_poles
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
    # 10**log10(t_max) overflows here, with no warning; the end point is exact
    assert TimeGrid.log(1.0, 1.7976931348622103e308, per_decade=1).times[-1] == 1.7976931348622103e308


@pytest.mark.parametrize(
    "t_min, t_max, per_decade, n",
    [
        (1e-200, 1e200, 2, 801),
        (np.float64(1e-200), np.float64(1e200), 2, 801),
        (1e-300, 1e300, 1, 601),
        (5e-324, 1.0, 1, 325),
    ],
)
def test_log_grid_whose_end_ratio_overflows(
    t_min: float, t_max: float, per_decade: int, n: int
) -> None:
    # t_max / t_min is inf, yet the span has a finite number of decades
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = TimeGrid.log(t_min, t_max, per_decade=per_decade)
    assert len(grid) == n
    assert grid.times[0] == t_min and grid.times[-1] == t_max


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
    quad_data = dataclasses.replace(sub, overlap=overlap_matrix(sub.states, "quadrature"))
    closed = nonescape_probability(data, grid, n_pairs=6)
    quad = nonescape_probability(quad_data, grid)
    np.testing.assert_allclose(closed.probability, quad.probability, atol=1e-10)


def test_series_bookkeeping(data: ExpansionData) -> None:
    grid = TimeGrid.log(0.01, 10.0, per_decade=8)
    series = nonescape_probability(data, grid, n_pairs=10)
    assert len(series) == len(grid)
    assert series.n_pairs == 10
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
    i1, i5 = (int(np.flatnonzero(sub.states.n == n)[0]) for n in (1, 5))
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
    sums = ProbabilitySums(times=times, truncations=(3,), sums=row[None, :])
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


def test_exact_row_sums_near_overflow() -> None:
    # The plain sum stays finite, but the three terms at frexp exponent 1023
    # add up past the largest double: the row part must go to math.fsum.
    a, b = math.ldexp(1.5, 1022), -math.ldexp(1.9, 1021)
    row = np.array([a, b, a, b, a, b, b, b])
    assert np.isfinite(row.sum())
    expected = _bits([math.fsum(row)])[0]
    assert _bits(exact_row_sums(row[None, :]))[0] == expected
    other = np.arange(8.0)
    got = exact_row_sums(np.array([row + 1j * other, other + 1j * row]))
    assert _bits(got.real)[0] == expected and _bits(got.imag)[1] == expected
    assert got[0].imag == got[1].real == math.fsum(other)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = np.empty(np.shape(re), dtype=complex)  # no 1j * inf, which makes a NaN
    z.real, z.imag = re, im
    return z


def test_exact_sums_where_fsum_raises() -> None:
    # math.fsum raises on both rows: +inf with -inf must sum to NaN, and the
    # partial sums of the finite row overflow, though its exact sum is 1e308
    clash = np.array([math.inf, -math.inf, 1.0])
    big = np.array([1e308, 1e308, -1e308])
    other = np.arange(3.0)
    assert math.isnan(exact_row_sums(clash[None, :])[0])
    got = exact_row_sums(_complex([clash, other], [other, clash]))
    assert math.isnan(got[0].real) and got[0].imag == 3.0
    assert got[1].real == 3.0 and math.isnan(got[1].imag)
    # an infinite term settles the sum even where the finite ones overflow
    assert exact_row_sums(np.array([[math.inf, 1e308, 1e308]]))[0] == math.inf

    with pytest.raises(OverflowGuard, match=r"row 0 \(real part\) overflows"):
        exact_row_sums(big[None, :])
    with pytest.raises(OverflowGuard, match=r"row 1 \(real part\) overflows"):
        exact_row_sums(_complex([other, big], [other, other]))
    with pytest.raises(OverflowGuard, match=r"row 1 \(imaginary part\) overflows"):
        exact_row_sums(_complex([other, other], [other, big]))


def _forms(overlap: np.ndarray, rings, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`nested_forms` on a bare overlap matrix.  It warns nothing,
    though an infinite entry times a zero part of x_n conj(y_l) is NaN, and
    numpy's vectorized complex product can raise the overflow flag on an
    entry near the largest double though the product is exact (3 forms of
    one state, entry 1e300 + 1.797e308j)."""
    sub = types.SimpleNamespace(overlap=overlap)
    return nested_forms(sub, np.asarray(rings, dtype=np.intp), x, y)


def test_nested_forms_where_fsum_raises() -> None:
    # States in rings 0 and 1: term (0, 0) lies in ring 0, the other three
    # in ring 1.  Each form's terms reach math.fsum, which raises on them.
    rings = [0, 1]
    ones = np.ones((1, 2))
    # x conj(y) = 1 + 1j: term (0, 0) is -inf in both parts and term (0, 1)
    # +inf, so group 0 is -inf alone and group 1 sums +inf with -inf to NaN
    clash = np.array([[-math.inf, math.inf], [1.0, 0.0]]) + 0j
    got = _forms(clash, rings, ones + 1j, ones)
    assert got[0, 0] == complex(-math.inf, -math.inf)
    assert math.isnan(got[0, 1].real) and math.isnan(got[0, 1].imag)
    # group 0 holds 1e308 alone; the partial sums of group 1 overflow.  At
    # x = y = 1/2 form 0's terms are a quarter as large and sum exactly.
    big = np.array([[1e308, 1e308], [-1e308, 0.0]])
    rows = np.array([[0.5, 0.5], [1.0, 1.0]])
    with pytest.raises(OverflowGuard, match=r"row 1 \(real part\) overflows"):
        _forms(big + 0j, rings, rows, rows)
    with pytest.raises(OverflowGuard, match=r"row 0 \(imaginary part\) overflows"):
        _forms(1j * big, rings, ones, ones)
    assert _forms(big + 0j, rings, rows[:1], rows[:1])[0].tolist() == [2.5e307, 2.5e307]


def test_nested_forms_warn_nothing_at_an_infinite_overlap(data: ExpansionData) -> None:
    # (inf + 0j) x_0 conj(x_1) with x = 1 is inf + NaN j: inf times the zero
    # imaginary part.  Under warnings-as-errors the pass still ends, with
    # math.fsum of each part of the terms
    _, sub, rings = truncation_rings(data, (3,))
    overlap = sub.overlap.copy()
    overlap[0, 1] = complex(math.inf, 0.0)
    ones = np.ones((1, len(overlap)))
    (got,) = nested_forms(dataclasses.replace(sub, overlap=overlap), rings, ones, ones)
    with np.errstate(invalid="ignore"):
        terms = (overlap * np.ones_like(overlap)).ravel()
    assert got[0].real == math.fsum(terms.real) == math.inf
    assert math.isnan(got[0].imag) and math.isnan(math.fsum(terms.imag))


def _finite_term():
    # mantissas at exponents across the whole range, the subnormal end
    # included, and edge values
    return st.one_of(
        st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1080, 1000)),
        st.sampled_from(_EDGE_VALUES),
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    )


# x_n conj(y_l) of a form whose x is one of these and y = 1: every term is
# an overlap entry (times a unit), whatever inner loop numpy picks
_UNITS = st.sampled_from([1.0, -1.0, 1j, -1j])


def _expected_groups(overlap, rings, x, y) -> list:
    """``math.fsum`` of each part of each ring group of each form, or None
    where math.fsum raises."""
    term_rings = np.maximum.outer(rings, rings).ravel()
    n_groups = int(max(rings, default=0)) + 1
    expected = []
    for xi, yi in zip(x, y):
        with np.errstate(invalid="ignore", over="ignore"):  # as nested_forms does
            terms = (overlap * (xi[:, None] * np.conj(yi)[None, :])).ravel()
        try:
            expected.append([
                complex(math.fsum(terms.real[term_rings <= g]), math.fsum(terms.imag[term_rings <= g]))
                for g in range(n_groups)
            ])
        except (OverflowError, ValueError):  # fsum's intermediate overflow, inf - inf
            return None
    return expected


def _same_values(got, want) -> bool:
    """The same bits, NaN matching NaN of any sign or payload."""
    got, want = np.asarray(got, dtype=complex).view(float), np.asarray(want, dtype=complex).view(float)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(_bits(got[~nan]), _bits(want[~nan]))


@st.composite
def _nested_case(draw):
    n = draw(st.integers(0, 7))
    n_rings = draw(st.integers(1, 5))
    rings = draw(st.lists(st.integers(0, n_rings - 1), min_size=n, max_size=n))
    overlap = np.array(
        [
            [complex(draw(_finite_term()), draw(_finite_term())) for _ in range(n)]
            for _ in range(n)
        ],
        dtype=complex,
    ).reshape(n, n)
    if n and draw(st.integers(0, 5)) == 0:  # now and then an infinity or NaN
        part = overlap.real if draw(st.booleans()) else overlap.imag
        part[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([math.inf, -math.inf, math.nan])
        )
    units = draw(st.lists(_UNITS, min_size=1, max_size=3))
    return overlap, rings, np.array(units)[:, None] * np.ones(n)


@settings(max_examples=300, deadline=None)
@given(_nested_case())
def test_nested_forms_equal_fsum_of_each_group(case) -> None:
    overlap, rings, x = case
    y = np.ones_like(x)
    expected = _expected_groups(overlap, rings, x, y)
    assume(expected is not None)
    got = _forms(overlap, rings, x, y)
    assert got.shape == (len(x), int(max(rings, default=0)) + 1)
    assert _same_values(got, expected)


@st.composite
def _complex_nested_case(draw):
    """Overlaps whose real and imaginary parts are drawn independently.

    Sizes run to n = 130, whose forms of 16,900 terms are wider than a
    summer chunk and go in two runs of matrix rows; at n = 64 four forms
    share a chunk, and at n = 65 three.  "huge" puts a part's largest
    exponent at 1021, so the overflow pre-check runs; now and then one part
    of an entry holds an inf or NaN.
    """
    n = draw(st.sampled_from([0, 1, 5, 40, 64, 65, 130]))
    n_rings = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rings = rng.integers(0, n_rings, n)
    overlap = np.empty((n, n), dtype=complex)
    for part in (overlap.real, overlap.imag):
        scale = draw(st.sampled_from(["wide", "narrow", "huge"]))
        lo, hi = {"wide": (-1080, 1000), "narrow": (-60, 4), "huge": (900, 1018)}[scale]
        part[...] = np.ldexp(rng.uniform(-1.0, 1.0, part.shape), rng.integers(lo, hi, part.shape))
        if scale == "huge" and n:
            part[0, 0] = np.ldexp(0.75, 1021)
    if n and draw(st.integers(0, 3)) == 0:
        part = overlap.real if draw(st.booleans()) else overlap.imag
        part[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([math.inf, -math.inf, math.nan])
        )
    units = draw(st.lists(_UNITS, min_size=1, max_size=3))
    return overlap, rings, np.array(units)[:, None] * np.ones(n)


@settings(max_examples=60, deadline=None)
@given(_complex_nested_case())
def test_nested_forms_of_independent_complex_parts(case) -> None:
    overlap, rings, x = case
    y = np.ones_like(x)
    expected = _expected_groups(overlap, rings, x, y)
    assume(expected is not None)
    got = _forms(overlap, rings, x, y)
    assert got.shape == (len(x), int(rings.max(initial=0)) + 1)
    for i, want in enumerate(expected):
        assert _same_values(got[i], want), i


@pytest.mark.parametrize("name", ["reference", "wide"])
def test_exact_sums_take_no_fsum_fallback(
    ctx: SelftestContext, monkeypatch: pytest.MonkeyPatch, name: str
) -> None:
    # the P(t) and tail passes hold only finite terms far from overflow:
    # every group is summed by the bins, none is left to math.fsum
    data = ctx.data if name == "reference" else ctx.wide_data
    calls = []
    monkeypatch.setattr(
        dynamics._NestedSummer, "_fsum_groups", lambda self, terms, *where: calls.append(len(terms))
    )
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
        assert series.n_pairs == n


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


@pytest.fixture(scope="module")
def data_320() -> ExpansionData:
    """The reference shell's expansion over 320 pole pairs (6.55 MB overlap)."""
    shell = DeltaShell(strength=6.0, radius=1.0)
    poles = locate_poles(shell, SearchWindow(re_max=320.5 * math.pi, im_min=-6.0))
    return build_expansion(shell, poles, BoxMode(mode=1, radius=1.0), n_pairs=320)


# Ring edges at 40, 41 and 160 pairs fall inside chunks of 25 matrix rows.
_TRUNCATIONS_320 = (1, 40, 41, 160, 320)


def test_nested_probability_matches_loop_at_320_pairs(data_320: ExpansionData) -> None:
    # rows of 409,600 terms, 25 chunks each
    _loop_reference(data_320, TimeGrid(np.array([0.05, 3.0, 1.0e4])), _TRUNCATIONS_320)


def test_streamed_passes_hold_no_term_array(data_320: ExpansionData) -> None:
    # The P(t) and tail passes hold O(chunk) memory: a few buffers of _CHUNK
    # float parts and one row's exponent accumulators, measured at 2.2 and
    # 2.3 MB.  One array of the (2N)^2 terms would take 6.55 MB, and the
    # pass that held whole rows peaked at 27 MB here.  The traced call is
    # the second, past the first Faddeeva call's import of scipy.special.
    grid = TimeGrid(np.array([0.05, 3.0, 1.0e4]))
    _, _, rings = truncation_rings(data_320, _TRUNCATIONS_320)
    assert rings.shape == (2 * 320,)
    for run in (
        lambda: probability_sums(data_320, grid, _TRUNCATIONS_320),
        lambda: tail_expansion(data_320, _TRUNCATIONS_320),
    ):
        run()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.0e6, peak


def test_fsum_fallback_in_a_late_chunk_settles_that_row_alone(
    ctx: SelftestContext, monkeypatch: pytest.MonkeyPatch
) -> None:
    # N = 160: each form's row of 102,400 terms goes in seven chunks of 51
    # matrix rows.  One overlap entry in the sixth chunk makes form 1's term
    # there reach exponent 1012, past the binning's bound (1007), so that
    # form alone goes to math.fsum; the others stay in the bins.
    truncations = (10, 80, 160)
    _, sub, rings = truncation_rings(ctx.wide_data, truncations)
    w = sub.coefficients * np.asarray(moshinsky(sub.states.k, 0.7))
    rows = w * np.array([1.0, 2.0**60, 0.5])[:, None]
    n, l = 300, 5
    doctored = sub.overlap.copy()
    doctored[n, l] = 2.0**1012 / abs(rows[1, n] * np.conj(rows[1, l]))
    sub = dataclasses.replace(sub, overlap=doctored)
    calls = []
    original = dynamics._NestedSummer._fsum_groups

    def spy(self, terms, *where):  # where ends with (row, part)
        calls.append(where[-2])
        return original(self, terms, *where)

    monkeypatch.setattr(dynamics._NestedSummer, "_fsum_groups", spy)
    got = nested_forms(sub, rings, rows, rows)
    assert set(calls) == {1}
    term_rings = np.maximum.outer(rings, rings).ravel()
    for i, x in enumerate(rows):
        outer = x[:, None] * np.conj(x)[None, :]  # named: numpy elides no operand
        terms = (doctored * outer).ravel()
        for g in range(len(truncations)):
            group = terms[term_rings <= g]
            want = complex(math.fsum(group.real), math.fsum(group.imag))
            assert same_bits(got[i, g], want), (i, g)


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
    w0 = sub.coefficients[0] * moshinsky(sub.states.k[0], grid.times[0])
    skew = np.zeros_like(sub.overlap)
    skew[0, 0] = 1e-3j / abs(w0) ** 2  # imaginary residual 1e-3 at the first sample
    doctored = dataclasses.replace(sub, overlap=sub.overlap + skew)
    sums = probability_sums(doctored, grid, (5, 10))
    assert np.array_equal(
        sums.series(5).probability, nonescape_probability(data, grid, 5).probability
    )
    with pytest.raises(TruncationUnstable, match=f"at t = {grid.times[0]:g} "):
        sums.series(10)
