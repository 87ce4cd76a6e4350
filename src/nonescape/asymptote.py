"""Long-time tail of the truncated resonant expansion.

Inserting the large-argument series of the Moshinsky function into the
double sum for P(t) yields inverse integer powers,

    P(t) ~ T_1/t + T_2/t^2 + T_3/t^3 + ...,

with coefficients built from moment sums

    Q[a, b] = sum_{n,l} (C_n / k_n^a) conj(C_l / k_l^b) I[n, l]
            = int_0^R conj(sigma_b) sigma_a dr,
    sigma_p(r) = sum_n C_n u_n(r) / k_n^p.

The t^-1 coefficient is proportional to the L2 norm of the sum rule
sigma_1 = S_N, so it is an artifact of truncation: it vanishes as the
expansion converges, while T_3 tends to a finite limit.  The instantaneous
log-log slope of the tail therefore crosses -2 at a truncation-dependent
time, which is the quantitative handle used to adjudicate the apparent
t^-1 behavior.  Both routes to Q (matrix and quadrature) are implemented
and cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import (
    NonescapeSeries,
    ProbabilitySums,
    TimeGrid,
    exact_row_sums,
    gamma_width,
    probability_sums,
)
from .errors import (
    ConfigError,
    EmptyWindow,
    EquivalenceViolation,
    NonPositiveProbability,
)
from .gamow import ExpansionData, weighted_field
from .segmath import panel_nodes
from .specfn import TAIL_PREFACTOR, asymptotic_coefficients

if TYPE_CHECKING:  # pragma: no cover
    from .poles import ResonancePole

_QUAD_ORDER = 20  # Gauss-Legendre nodes per panel of the quadrature route to Q
_D1_ROUTE_RTOL = 1e-6  # allowed disagreement of the two routes to T_1
_DECAY_MARGIN = 1e-3  # suppression of the exponential stage opening the tail window

__all__ = [
    "moment_sum",
    "moment_sum_quadrature",
    "TailCoefficients",
    "tail_coefficient_t1",
    "tail_expansion",
    "crossover_time",
    "SlopeFit",
    "slope_fit",
    "post_exponential_window",
    "TailReport",
    "convergence_study",
]


def moment_sum(data: ExpansionData, a: int, b: int, n_pairs: int | None = None) -> complex:
    """Q[a, b] by the double sum over the overlap matrix."""
    sub = data if n_pairs is None else data.truncate(n_pairs)
    wa = sub.coefficients / sub.wavenumbers ** a
    wb = sub.coefficients / sub.wavenumbers ** b
    # named, so numpy cannot multiply it in place as the left operand (the
    # complex product is not bitwise commutative)
    outer = wa[:, None] * np.conj(wb)[None, :]
    terms = sub.overlap * outer
    return complex(exact_row_sums(terms.reshape(1, -1))[0])


def moment_sum_quadrature(
    data: ExpansionData, a: int, b: int, n_pairs: int | None = None
) -> complex:
    """Q[a, b] as ``int conj(sigma_b) sigma_a dr`` by panel quadrature."""
    sub = data if n_pairs is None else data.truncate(n_pairs)
    radius = sub.states[0].radius
    k_max = float(np.max(np.abs(sub.wavenumbers)))
    n_panels = int(radius * k_max / np.pi) + 2
    nodes, weights = panel_nodes(0.0, radius, n_panels, order=_QUAD_ORDER)
    sigma_a = np.asarray(weighted_field(sub, nodes, sub.coefficients / sub.wavenumbers ** a))
    if b == a:
        sigma_b = sigma_a
    else:
        sigma_b = np.asarray(
            weighted_field(sub, nodes, sub.coefficients / sub.wavenumbers ** b)
        )
    return complex(exact_row_sums((weights * np.conj(sigma_b) * sigma_a)[None, :])[0])


@dataclass(frozen=True)
class TailCoefficients:
    """Coefficients T_p of P(t) ~ sum_p T_p / t^p, p = 1..max_order."""

    values: tuple[float, ...]
    n_pairs: int

    @property
    def t1(self) -> float:
        return self.values[0]

    def evaluate(self, t: np.ndarray | float) -> np.ndarray | float:
        """The truncated tail series at time(s) t."""
        t_arr = np.asarray(t, dtype=float)
        acc = np.zeros_like(t_arr)
        for p, coeff in enumerate(self.values, start=1):
            acc = acc + coeff / t_arr ** p
        if np.ndim(t) == 0:
            return float(acc)
        return acc


def _tail_values(
    data: ExpansionData, n_pairs: int | None, max_order: int
) -> tuple[float, ...]:
    """Shared moment-sum assembly of T_1..T_max_order."""
    if not (1 <= max_order <= 3):
        raise ConfigError("tail expansion is supported for orders 1..3")
    sub = data if n_pairs is None else data.truncate(n_pairs)
    # m_j of the Moshinsky series, m_0 = TAIL_PREFACTOR
    m = asymptotic_coefficients(max_order)
    # alpha_j conj(alpha_j') = m_j m_j' i^(j - j')
    q_cache: dict[tuple[int, int], complex] = {}

    def q(aa: int, bb: int) -> complex:
        if (aa, bb) not in q_cache:
            q_cache[(aa, bb)] = moment_sum(sub, aa, bb)
        return q_cache[(aa, bb)]

    values = []
    for p in range(1, max_order + 1):
        acc = 0.0 + 0.0j
        for j in range(p):
            jp = p - 1 - j
            acc += m[j] * m[jp] * (1j) ** (j - jp) * q(2 * j + 1, 2 * jp + 1)
        values.append(float(acc.real))
    return tuple(values)


def tail_coefficient_t1(data: ExpansionData, n_pairs: int | None = None) -> float:
    """T_1 = TAIL_PREFACTOR^2 * Q[1, 1]: the weight of the spurious t^-1 tail.

    The moment-sum route is verified against the independent quadrature
    route ``TAIL_PREFACTOR^2 int |S_N|^2 dr``; callers that want the value
    unchecked take ``tail_expansion(data, n_pairs, max_order=1).t1``.

    Raises
    ------
    EquivalenceViolation
        If the two routes disagree beyond 1e-6 relative to scale.
    """
    t1 = _tail_values(data, n_pairs, 1)[0]
    alt = TAIL_PREFACTOR ** 2 * moment_sum_quadrature(data, 1, 1, n_pairs).real
    scale = max(abs(t1), abs(alt), 1e-300)
    if abs(t1 - alt) > _D1_ROUTE_RTOL * scale:
        raise EquivalenceViolation(
            f"t^-1 coefficient routes disagree: matrix {t1:.12e} vs "
            f"quadrature {alt:.12e}"
        )
    return t1


def tail_expansion(
    data: ExpansionData, n_pairs: int | None = None, max_order: int = 3
) -> TailCoefficients:
    """T_1..T_max_order by the moment-sum route.

    The first entry reproduces :func:`tail_coefficient_t1` (same code path,
    bit-identical) minus its cross-check.
    """
    values = _tail_values(data, n_pairs, max_order)
    sub_pairs = data.n_pairs if n_pairs is None else n_pairs
    return TailCoefficients(values=values, n_pairs=sub_pairs)


def crossover_time(coefficients: TailCoefficients, per_decade: int = 240) -> float:
    """First time at which the tail's local log-log slope exceeds -2.

    The slope is measured with two-point differences on a log time grid (the
    same convention used for measured series), then the -2 crossing is
    located by linear interpolation between adjacent slope estimates.  For a
    pure t^-3 tail (T_1 = T_2 = 0) there is no crossing and ``inf`` is
    returned.  For positive T_1 and T_3 the result approaches
    sqrt(T_3 / T_1) as the grid is refined.
    """
    t = np.geomspace(1e-8, 1e16, int(24 * per_decade) + 1)
    p = np.asarray(coefficients.evaluate(t))
    # Keep the contiguous positive run that extends to the largest times:
    # that is where an asymptotic series is meaningful.  (With T_3 < 0 the
    # series can dip negative at small t without affecting the tail.)
    bad = p <= 0.0
    if bad.any():
        start = int(np.nonzero(bad)[0][-1]) + 1
        t = t[start:]
        p = p[start:]
    if len(t) < 3:
        raise ConfigError("tail series is non-positive at large times")
    ln_t = np.log(t)
    slopes = np.diff(np.log(p)) / np.diff(ln_t)
    mid = 0.5 * (ln_t[:-1] + ln_t[1:])
    above = slopes > -2.0
    if not above.any():
        return inf
    i = int(np.argmax(above))
    if i == 0:
        return float(np.exp(mid[0]))
    # linear interpolation of slope-vs-ln t across the crossing
    s0, s1 = slopes[i - 1], slopes[i]
    frac = (-2.0 - s0) / (s1 - s0)
    return float(np.exp(mid[i - 1] + frac * (mid[i] - mid[i - 1])))


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares log-log slope over a time window."""

    slope: float
    stderr: float
    n_points: int
    window: tuple[float, float]


def slope_fit(series: NonescapeSeries, window: tuple[float, float]) -> SlopeFit:
    """Fit ln P against ln t over ``window`` (at least 8 samples required).

    Raises
    ------
    EmptyWindow
        If fewer than 8 samples fall inside the window.
    NonPositiveProbability
        If any sample in the window is non-positive (no log-log slope).
    """
    t_lo, t_hi = window
    if not (0.0 < t_lo < t_hi):
        raise ConfigError("need 0 < t_lo < t_hi")
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    if int(mask.sum()) < 8:
        raise EmptyWindow(
            f"only {int(mask.sum())} samples in [{t_lo:g}, {t_hi:g}]; need >= 8"
        )
    t = series.times[mask]
    p = series.probability[mask]
    if np.any(p <= 0.0):
        raise NonPositiveProbability("non-positive probability inside fit window")
    x = np.log(t)
    y = np.log(p)
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return SlopeFit(
        slope=float(coeffs[0]),
        stderr=float(np.sqrt(cov[0, 0])),
        n_points=int(mask.sum()),
        window=(float(t_lo), float(t_hi)),
    )


def post_exponential_window(
    series: NonescapeSeries,
    pole: ResonancePole,
    horizon: float | None = None,
) -> tuple[float, float]:
    """Time window where the algebraic tail dominates the sampled P(t).

    The exponential stage A_1 exp(-Gamma_1 t) is calibrated on the series
    itself (geometric-mean amplitude over [0.5, 3] lifetimes); the window
    opens where that stage has dropped below 1e-3 times P(t) and closes at
    ``horizon`` (or the last sample if no horizon).

    Parameters
    ----------
    series : NonescapeSeries
        Sampled nonescape probability, e.g. from the direct integrator.
    pole : ResonancePole
        Resonance setting the width Gamma_1 of the exponential stage.
    horizon : float, optional
        Contamination time, if the integration run reported one.

    Raises
    ------
    EmptyWindow
        If the exponential stage never decays below the margin before the
        window closes, or the calibration range holds no samples.
    """
    gamma = gamma_width(pole)
    tau = 1.0 / gamma
    t = series.times
    p = series.probability
    fit = (t >= 0.5 * tau) & (t <= 3.0 * tau) & (p > 0.0)
    if int(fit.sum()) < 3:
        raise EmptyWindow("need >= 3 positive samples in [0.5, 3] lifetimes")
    amp = float(np.exp(np.mean(np.log(p[fit]) + gamma * t[fit])))
    t_hi = float(t[-1]) if horizon is None else min(float(t[-1]), horizon)
    open_ = (t > 0.0) & (p > 0.0) & (amp * np.exp(-gamma * t) <= _DECAY_MARGIN * p)
    open_ &= t <= t_hi
    if not open_.any():
        raise EmptyWindow(
            f"exponential stage never {_DECAY_MARGIN:g}-suppressed before t = {t_hi:g}"
        )
    t_lo = float(t[open_][0])
    if not t_lo < t_hi:
        raise EmptyWindow("window degenerate: opening time at or past the horizon")
    return (t_lo, t_hi)


@dataclass(frozen=True, eq=False)
class TailReport:
    """Truncation study of the tail: one row per truncation N.

    ``t1_matrix``/``t1_quadrature`` are the two routes to the t^-1 weight;
    ``sumrule_l2`` is ||S_N||_2 = sqrt(int_0^R |S_N|^2 dr), the object whose
    decay kills the t^-1 term; ``crossover`` is where each truncated tail's
    slope passes -2.  ``slope`` rows are filled only when a time grid and
    fit window are supplied.
    """

    truncations: tuple[int, ...]
    t1_matrix: np.ndarray
    t1_quadrature: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    sumrule_l2: np.ndarray
    crossover: np.ndarray
    slope: np.ndarray | None = None
    slope_stderr: np.ndarray | None = None
    slope_window: tuple[float, float] | None = None


def convergence_study(
    data: ExpansionData,
    truncations: tuple[int, ...] | list[int],
    grid: TimeGrid | None = None,
    slope_window: tuple[float, float] | None = None,
    *,
    sums: ProbabilitySums | None = None,
) -> TailReport:
    """Tabulate tail coefficients, sum-rule norms, and crossovers versus N.

    With ``grid`` and ``slope_window`` each truncation's P(t) on ``grid`` is
    fitted for its slope; all of them come from one :func:`probability_sums`
    pass, and each is checked where its row of the table is made.  A caller
    that already holds that pass (say, to choose the window from the largest
    truncation) passes it as ``sums`` so it is not evaluated twice.
    """
    truncs = tuple(int(n) for n in truncations)
    if not truncs or any(n < 1 for n in truncs) or list(truncs) != sorted(set(truncs)):
        raise ConfigError("truncations must be distinct positive integers, ascending")
    if truncs[-1] > data.n_pairs:
        raise ConfigError(
            f"truncation {truncs[-1]} exceeds built expansion ({data.n_pairs} pairs)"
        )
    if sums is not None and (
        grid is None
        or sums.truncations != truncs
        or sums.mode != data.overlap_method
        or not np.array_equal(sums.times, grid.times)
    ):
        raise ConfigError("sums must hold P(t) of these truncations on grid")
    m = len(truncs)
    t1m = np.empty(m)
    t1q = np.empty(m)
    t2 = np.empty(m)
    t3 = np.empty(m)
    l2 = np.empty(m)
    cross = np.empty(m)
    slopes = np.empty(m) if grid is not None and slope_window is not None else None
    errs = np.empty(m) if slopes is not None else None
    if slopes is not None and sums is None:
        sums = probability_sums(data, grid, truncs)
    for i, n in enumerate(truncs):
        coeffs = tail_expansion(data, n, 3)
        t1m[i], t2[i], t3[i] = coeffs.values
        q11 = moment_sum_quadrature(data, 1, 1, n).real
        t1q[i] = TAIL_PREFACTOR ** 2 * q11
        l2[i] = float(np.sqrt(max(q11, 0.0)))
        cross[i] = crossover_time(coeffs)
        if slopes is not None:
            fit = slope_fit(sums.series(n), slope_window)
            slopes[i] = fit.slope
            errs[i] = fit.stderr
    return TailReport(
        truncations=truncs,
        t1_matrix=t1m,
        t1_quadrature=t1q,
        t2=t2,
        t3=t3,
        sumrule_l2=l2,
        crossover=cross,
        slope=slopes,
        slope_stderr=errs,
        slope_window=slope_window,
    )
