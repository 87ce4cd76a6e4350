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
    exact_row_sums,
    gamma_width,
    lifetime,
)
from .errors import (
    ConfigError,
    EmptyWindow,
    EquivalenceViolation,
    NonescapeError,
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
_LIFETIME_SPAN = (0.1, 5.0)  # lifetimes over which direct and expansion P(t) are compared
# A direct log-log slope inside this band reads as the t^-3 law ...
T3_BAND = (-3.3, -2.7)
# ... and a t^-1 weight D1(N_max)/D1(N_min) at or below this bound as vanishing.
D1_RATIO_BOUND = 0.1

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
    "T3_BAND",
    "D1_RATIO_BOUND",
    "Verdict",
    "adjudicate",
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
    slope passes -2.  ``slope`` rows are NaN unless P(t) sums and a fit
    window are supplied.
    """

    truncations: tuple[int, ...]
    t1_matrix: np.ndarray
    t1_quadrature: np.ndarray
    sumrule_l2: np.ndarray
    crossover: np.ndarray
    slope: np.ndarray
    slope_stderr: np.ndarray


def convergence_study(
    data: ExpansionData,
    truncations: tuple[int, ...] | list[int],
    slope_window: tuple[float, float] | None = None,
    sums: ProbabilitySums | None = None,
) -> TailReport:
    """Tabulate tail coefficients, sum-rule norms, and crossovers versus N.

    With ``slope_window`` and ``sums`` (one :func:`probability_sums` pass
    holding every truncation) each truncation's P(t) is fitted for its
    slope, and checked where its row of the table is made.
    """
    truncs = tuple(int(n) for n in truncations)
    if not truncs or any(n < 1 for n in truncs) or list(truncs) != sorted(set(truncs)):
        raise ConfigError("truncations must be distinct positive integers, ascending")
    if truncs[-1] > data.n_pairs:
        raise ConfigError(
            f"truncation {truncs[-1]} exceeds built expansion ({data.n_pairs} pairs)"
        )
    t1m, t1q, l2, cross = (np.empty(len(truncs)) for _ in range(4))
    slopes, errs = np.full(len(truncs), np.nan), np.full(len(truncs), np.nan)
    for i, n in enumerate(truncs):
        coeffs = tail_expansion(data, n, 3)
        t1m[i] = coeffs.t1
        q11 = moment_sum_quadrature(data, 1, 1, n).real
        t1q[i] = TAIL_PREFACTOR ** 2 * q11
        l2[i] = float(np.sqrt(max(q11, 0.0)))
        cross[i] = crossover_time(coeffs)
        if slope_window is not None and sums is not None:
            fit = slope_fit(sums.series(n), slope_window)
            slopes[i], errs[i] = fit.slope, fit.stderr
    return TailReport(truncs, t1m, t1q, l2, cross, slopes, errs)


@dataclass(frozen=True, eq=False)
class Verdict:
    """Direct P(t) against the truncated expansion, and what it says.

    ``lifetime_dev`` is the largest relative deviation of the largest
    truncation from the direct run on ``lifetime_mask``: the samples in
    ``lifetime_window`` ([0.1, 5] lifetimes of pole 1) before any horizon.
    ``window`` and the slope fits are None/empty when the run never leaves
    the exponential stage.  ``t3``, ``vanishing`` and ``receding`` are the
    findings ``text`` rests on.
    """

    expansions: dict[int, NonescapeSeries]
    lifetime_window: tuple[float, float]
    lifetime_mask: np.ndarray
    lifetime_dev: float | None
    window: tuple[float, float] | None
    direct_fit: SlopeFit | None
    expansion_fits: dict[int, SlopeFit]
    d1: dict[int, float]
    d1_ratio: float | None
    crossover: dict[int, float]
    t3: bool
    vanishing: bool
    receding: bool
    text: str


def adjudicate(
    direct: NonescapeSeries,
    horizon: float | None,
    sums: ProbabilitySums,
    data: ExpansionData,
    pole: ResonancePole,
) -> Verdict:
    """Judge the long-time law of a direct run against the expansion.

    ``sums`` holds P(t) of every truncation on the direct run's times, and
    ``pole`` is resonance 1.  The verdict is "t^-3" when the direct slope
    lies in :data:`T3_BAND` (``t3``), D1(N_max)/D1(N_min) is at most
    :data:`D1_RATIO_BOUND` (``vanishing``) and the crossovers grow with N
    (``receding``); "t^-1" when neither slope nor weight supports t^-3;
    "mixed evidence" otherwise; "no adjudication" when no slope can be fit.
    A truncation failing its P(t) checks, or a t^-1 weight whose two routes
    disagree, raises.
    """
    truncs = sums.truncations
    expansions = {n: sums.series(n) for n in truncs}

    try:
        window = post_exponential_window(direct, pole, horizon=horizon)
        direct_fit = slope_fit(direct, window)
        expansion_fits = {n: slope_fit(s, window) for n, s in expansions.items()}
    except NonescapeError:
        window, direct_fit, expansion_fits = None, None, {}

    d1 = {n: tail_coefficient_t1(data, n_pairs=n) for n in truncs}
    crossover = {n: crossover_time(tail_expansion(data, n_pairs=n)) for n in truncs}

    tau = lifetime(pole)
    span = (_LIFETIME_SPAN[0] * tau, _LIFETIME_SPAN[1] * tau)
    t = direct.times
    life = (t >= span[0]) & (t <= span[1])
    if horizon is not None:
        life &= t < horizon
    p_direct = direct.probability[life]
    p_full = expansions[truncs[-1]].probability[life]
    lifetime_dev = float(np.max(np.abs(p_direct - p_full) / p_full)) if life.any() else None

    n_lo, n_hi = truncs[0], truncs[-1]
    d1_ratio = d1[n_hi] / d1[n_lo] if d1[n_lo] > 0 else None
    ladder = [crossover[n] for n in truncs]
    receding = all(a < b for a, b in zip(ladder, ladder[1:]))
    vanishing = d1_ratio is not None and d1_ratio <= D1_RATIO_BOUND
    t3 = direct_fit is not None and T3_BAND[0] <= direct_fit.slope <= T3_BAND[1]
    if direct_fit is None:
        text = (
            "no adjudication: the sampled window never leaves the exponential "
            "stage, so no long-time slope can be fit"
        )
    elif t3 and vanishing and receding:
        text = (
            f"t^-3: direct integration shows slope {direct_fit.slope:.2f}, the "
            f"t^-1 weight falls by x{1.0 / d1_ratio:.0f} from N={n_lo} to "
            f"N={n_hi}, and its onset recedes ({ladder[0]:.2f} -> "
            f"{ladder[-1]:.2f}); the t^-1 stage is a truncation artifact"
        )
    elif not t3 and not vanishing:
        text = (
            f"t^-1: direct slope {direct_fit.slope:.2f} and a t^-1 weight "
            f"that does not vanish with N"
        )
    else:
        text = (
            f"mixed evidence: direct slope {direct_fit.slope:.2f}, "
            f"D1({n_hi})/D1({n_lo}) = {d1_ratio}"
        )
    return Verdict(
        expansions=expansions,
        lifetime_window=span,
        lifetime_mask=life,
        lifetime_dev=lifetime_dev,
        window=window,
        direct_fit=direct_fit,
        expansion_fits=expansion_fits,
        d1=d1,
        d1_ratio=d1_ratio,
        crossover=crossover,
        t3=t3,
        vanishing=vanishing,
        receding=receding,
        text=text,
    )
