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

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    NonescapeSeries,
    ProbabilitySums,
    exact_row_sums,
    gamma_width,
    lifetime,
    nested_forms,
    truncation_rings,
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

_QUAD_ORDER = 20  # Gauss-Legendre nodes per panel of the quadrature route to Q
_D1_ROUTE_RTOL = 1e-6  # allowed disagreement of the two routes to T_1 ...
# ... unless it lies within the closed route's rounding floor, this times
# TAIL_PREFACTOR^2 * sum |x_n x_l I[n, l]|, x = C/k.  The closed overlap
# entries carry relative rounding errors of a few eps, so the exact sum over
# them lands that far from Q[1, 1].  Measured gap over eps * TAIL_PREFACTOR^2
# * sum: 1.51 on the reference shell for every N from 5 to 319 (re_max 1002),
# 0.13 to 1.33 on other shells and box modes, 2.86 on the barrier V = 25 over
# [0.6, 1].  At N = 319 the reference gap is 1.5e-17, 1.7e-6 of T_1.
_D1_ROUTE_FLOOR = 8.0 * np.finfo(float).eps
_DECAY_MARGIN = 1e-3  # suppression of the exponential stage opening the tail window
_LIFETIME_SPAN = (0.1, 5.0)  # lifetimes over which direct and expansion P(t) are compared
# A direct log-log slope inside this band reads as the t^-3 law ...
T3_BAND = (-3.3, -2.7)
# ... and a t^-1 weight D1(N_max)/D1(N_min) at or below this bound as vanishing.
D1_RATIO_BOUND = 0.1

__all__ = [
    "moment_sum_quadrature",
    "tail_coefficient_t1",
    "tail_expansion",
    "tail_series",
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


def moment_sum_quadrature(data: ExpansionData, a: int, b: int) -> complex:
    """Q[a, b] as ``int conj(sigma_b) sigma_a dr`` by panel quadrature.

    Each segment, of length L, gets int(L k_max / pi) + 2 panels of its own.
    """
    edges = data.states.r_edges.tolist()
    k_max = float(np.max(np.abs(data.states.k)))
    panels = [
        panel_nodes(lo, hi, int((hi - lo) * k_max / np.pi) + 2, order=_QUAD_ORDER)
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    nodes = np.concatenate([x for x, _ in panels])
    weights = np.concatenate([w for _, w in panels])
    sigma_a = np.asarray(weighted_field(data, nodes, data.coefficients / data.states.k ** a))
    sigma_b = sigma_a if b == a else np.asarray(
        weighted_field(data, nodes, data.coefficients / data.states.k ** b)
    )
    # numpy may reuse the conj temporary in place, as conj * weights; the
    # weights are real, so each part of that product is one rounded product
    # plus an exact zero whichever operand comes first, and no bit moves
    return complex(exact_row_sums((weights * np.conj(sigma_b) * sigma_a)[None, :])[0])


def tail_expansion(
    data: ExpansionData, truncations: tuple[int, ...] | list[int] | range
) -> np.ndarray:
    """T_1..T_3 of every truncation by the moment-sum route: row i of the
    (len(truncations), 3) table holds those of ``truncations[i]``.

    T_p needs Q[a, b], the form of x = C/k^a and y = C/k^b, with a + b = 2p.
    One ``nested_forms`` call over the largest truncation's terms gives the
    six rows, each truncation's Q correctly rounded from its own terms.
    """
    truncs, sub, rings = truncation_rings(data, truncations)
    pairs = [(a, b) for a in (1, 3, 5) for b in (1, 3, 5) if a + b <= 6]
    left = np.array([sub.coefficients / sub.states.k ** a for a, _ in pairs])
    right = np.array([sub.coefficients / sub.states.k ** b for _, b in pairs])
    q = dict(zip(pairs, nested_forms(sub, rings, left, right)))
    # m_j of the Moshinsky series, m_0 = TAIL_PREFACTOR;
    # alpha_j conj(alpha_j') = m_j m_j' i^(j - j')
    m = asymptotic_coefficients(3)
    tails = np.empty((len(truncs), 3))
    for i in range(len(truncs)):
        for p in range(1, 4):
            acc = 0.0 + 0.0j
            for j in range(p):
                jp = p - 1 - j
                acc += m[j] * m[jp] * (1j) ** (j - jp) * complex(q[2 * j + 1, 2 * jp + 1][i])
            tails[i, p - 1] = acc.real
    return tails


def tail_series(tail: np.ndarray, t: np.ndarray | float) -> np.ndarray:
    """The truncated tail sum_p T_p / t^p at time(s) t, from one table row."""
    t = np.asarray(t, dtype=float)
    return sum((coeff / t ** p for p, coeff in enumerate(tail, start=1)), np.zeros_like(t))


def tail_coefficient_t1(data: ExpansionData) -> float:
    """T_1 = TAIL_PREFACTOR^2 * Q[1, 1]: the weight of the spurious t^-1 tail.

    The one-truncation case of :func:`convergence_study`; raises
    EquivalenceViolation if the quadrature route ``TAIL_PREFACTOR^2 int
    |S_N|^2 dr`` disagrees beyond 1e-6 relative to scale and beyond the
    closed route's rounding floor (:meth:`TailReport.check_routes`).
    """
    report = convergence_study(data, (data.n_pairs,))
    report.check_routes()
    return float(report.tails[0, 0])


def _last_zero(t1: float, t2: float, t3: float) -> float:
    """Largest positive zero of T_1 t^2 + T_2 t + T_3, or 0 when it has none."""
    disc = t2 * t2 - 4.0 * t1 * t3
    if t1 == 0.0:
        roots = [-t3 / t2] if t2 != 0.0 else []
    elif disc < 0.0:
        roots = []
    else:  # the root pair without cancellation
        q = -0.5 * (t2 + math.copysign(math.sqrt(disc), t2))
        roots = [q / t1, t3 / q] if q != 0.0 else []
    return max((r for r in roots if r > 0.0), default=0.0)


def crossover_time(t1: float, t2: float, t3: float) -> float:
    """First time at which the tail's local log-log slope exceeds -2.

    With f = t^3 P = T_1 t^2 + T_2 t + T_3 the slope is t f'/f - 3, so where
    f > 0 it exceeds -2 exactly when T_1 t^2 > T_3, whatever T_2 is.  Past
    f's last positive zero r the slope starts at +inf, so the result is
    max(r, sqrt(T_3 / T_1)), that root read as 0 for T_3 <= 0 and as inf for
    T_1 = 0 < T_3.  A tail not positive at large times is a ConfigError.
    """
    t1, t2, t3 = float(t1), float(t2), float(t3)  # overflow to inf, not a numpy warning
    if not next((c for c in (t1, t2, t3) if c != 0.0), 0.0) > 0.0:
        raise ConfigError("tail series is non-positive at large times")
    if t3 <= 0.0:
        return _last_zero(t1, t2, t3)
    return max(math.sqrt(t3 / t1) if t1 > 0.0 else math.inf, _last_zero(t1, t2, t3))


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares log-log slope over a time window."""

    slope: float
    stderr: float


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
    return SlopeFit(slope=float(coeffs[0]), stderr=float(np.sqrt(cov[0, 0])))


def post_exponential_window(
    series: NonescapeSeries,
    k1: complex,
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
    k1 : complex
        Wavenumber of resonance 1, whose width Gamma_1 sets the exponential stage.
    horizon : float, optional
        Contamination time, if the integration run reported one.

    Raises
    ------
    EmptyWindow
        If the exponential stage never decays below the margin before the
        window closes, or the calibration range holds no samples.
    """
    gamma = gamma_width(k1)
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

    ``tails`` is the :func:`tail_expansion` table of T_1..T_3 by the
    moment-sum route; its column 0 and ``t1_quadrature`` are the two routes
    to T_1 = D1(N);
    ``t1_floor`` is the closed route's rounding floor on T_1;
    ``sumrule_l2`` is ||S_N||_2 = sqrt(int_0^R |S_N|^2 dr), the object whose
    decay kills the t^-1 term; ``crossover`` is where each truncated tail's
    slope passes -2.  ``slope`` rows are NaN unless P(t) sums and a fit
    window are supplied.
    """

    truncations: tuple[int, ...]
    tails: np.ndarray
    t1_quadrature: np.ndarray
    t1_floor: np.ndarray
    sumrule_l2: np.ndarray
    crossover: np.ndarray
    slope: np.ndarray
    slope_stderr: np.ndarray

    def _route_gap(self) -> tuple[np.ndarray, np.ndarray]:
        """|T_1 by matrix - T_1 by quadrature| per truncation, and its scale."""
        t1m, t1q = self.tails[:, 0], self.t1_quadrature
        return np.abs(t1m - t1q), np.maximum(np.maximum(np.abs(t1m), np.abs(t1q)), 1e-300)

    @property
    def route_dev(self) -> float:
        """Largest disagreement of the two routes to T_1, relative to scale."""
        gap, scale = self._route_gap()
        return float(np.max(gap / scale))

    def check_routes(self) -> None:
        """Raise EquivalenceViolation unless both routes to every T_1 agree.

        They agree when their gap is within 1e-6 of scale or within the
        closed route's rounding floor ``t1_floor``.
        """
        gap, scale = self._route_gap()
        if np.any(gap > np.maximum(_D1_ROUTE_RTOL * scale, self.t1_floor)):
            raise EquivalenceViolation(
                f"t^-1 coefficient routes disagree by {self.route_dev:.3e} (N = "
                f"{self.truncations}): matrix {self.tails[:, 0]} vs quadrature "
                f"{self.t1_quadrature}"
            )

    @property
    def d1_ratio(self) -> float | None:
        """D1(N_max) / D1(N_min), or None when D1(N_min) is not positive."""
        t1 = float(self.tails[0, 0])
        return float(self.tails[-1, 0]) / t1 if t1 > 0 else None

    @property
    def vanishing(self) -> bool:
        """D1(N_max) / D1(N_min) is at most :data:`D1_RATIO_BOUND`."""
        return self.d1_ratio is not None and self.d1_ratio <= D1_RATIO_BOUND

    @property
    def receding(self) -> bool:
        """The crossovers grow strictly with N."""
        return bool(np.all(self.crossover[:-1] < self.crossover[1:]))


def convergence_study(
    data: ExpansionData,
    truncations: tuple[int, ...] | list[int] | range,
    slope_window: tuple[float, float] | None = None,
    sums: ProbabilitySums | None = None,
) -> TailReport:
    """Tabulate tail coefficients, sum-rule norms, and crossovers versus N.

    Every truncation's coefficients come from one :func:`tail_expansion`
    table; the quadrature route to T_1 integrates each truncation's own
    field.  With ``slope_window`` and ``sums`` (one :func:`probability_sums`
    pass holding every truncation) each truncation's P(t) is fitted for its
    slope, and checked where its row of the table is made.
    """
    tails = tail_expansion(data, truncations)
    truncs = tuple(int(n) for n in truncations)  # checked by tail_expansion
    t1q, floor, l2, cross = (np.empty(len(truncs)) for _ in range(4))
    slopes, errs = np.full(len(truncs), np.nan), np.full(len(truncs), np.nan)
    for i, n in enumerate(truncs):
        sub = data.truncate(n)
        q11 = moment_sum_quadrature(sub, 1, 1).real
        t1q[i] = TAIL_PREFACTOR ** 2 * q11
        x = np.abs(sub.coefficients / sub.states.k)
        floor[i] = _D1_ROUTE_FLOOR * TAIL_PREFACTOR ** 2 * (x @ np.abs(sub.overlap) @ x)
        l2[i] = float(np.sqrt(max(q11, 0.0)))
        cross[i] = crossover_time(*tails[i])
        if slope_window is not None and sums is not None:
            fit = slope_fit(sums.series(n), slope_window)
            slopes[i], errs[i] = fit.slope, fit.stderr
    return TailReport(truncs, tails, t1q, floor, l2, cross, slopes, errs)


@dataclass(frozen=True, eq=False)
class Verdict:
    """Direct P(t) against the truncated expansion, and what it says.

    ``lifetime_dev`` is the largest relative deviation of the largest
    truncation from the direct run on ``lifetime_mask``: the samples in
    ``lifetime_window`` ([0.1, 5] lifetimes of pole 1) before any horizon.
    ``window`` and the slope fits are None/empty when the run never leaves
    the exponential stage.  ``t3`` and the report's ``vanishing`` and
    ``receding`` are the findings ``text`` rests on.
    """

    expansions: dict[int, NonescapeSeries]
    lifetime_window: tuple[float, float]
    lifetime_mask: np.ndarray
    lifetime_dev: float | None
    window: tuple[float, float] | None
    direct_fit: SlopeFit | None
    expansion_fits: dict[int, SlopeFit]
    t3: bool
    text: str


def adjudicate(
    direct: NonescapeSeries,
    horizon: float | None,
    sums: ProbabilitySums,
    report: TailReport,
    k1: complex,
) -> Verdict:
    """Judge the long-time law of a direct run against the expansion.

    ``sums`` holds P(t) of every truncation on the direct run's times,
    ``report`` the same truncations' tail study, and ``k1`` is resonance 1's
    wavenumber.  The verdict is "t^-3" when the direct slope lies in
    :data:`T3_BAND` (``t3``), the t^-1 weight is ``vanishing`` and the
    crossovers are ``receding``; "t^-1" when neither slope nor weight supports
    t^-3; "mixed evidence" otherwise; "no adjudication" when no slope can be
    fit.  A truncation failing its P(t) checks, or a t^-1 weight whose two
    routes disagree, raises.
    """
    truncs = sums.truncations
    if report.truncations != truncs:
        raise ConfigError(f"tail report truncations {report.truncations} differ from {truncs}")
    expansions = {n: sums.series(n) for n in truncs}

    try:
        window = post_exponential_window(direct, k1, horizon=horizon)
        direct_fit = slope_fit(direct, window)
        expansion_fits = {n: slope_fit(s, window) for n, s in expansions.items()}
    except NonescapeError:
        window, direct_fit, expansion_fits = None, None, {}

    report.check_routes()

    tau = lifetime(k1)
    span = (_LIFETIME_SPAN[0] * tau, _LIFETIME_SPAN[1] * tau)
    t = direct.times
    life = (t >= span[0]) & (t <= span[1])
    if horizon is not None:
        life &= t < horizon
    p_direct = direct.probability[life]
    p_full = expansions[truncs[-1]].probability[life]
    lifetime_dev = float(np.max(np.abs(p_direct - p_full) / p_full)) if life.any() else None

    n_lo, n_hi = truncs[0], truncs[-1]
    t3 = direct_fit is not None and T3_BAND[0] <= direct_fit.slope <= T3_BAND[1]
    if direct_fit is None:
        text = (
            "no adjudication: the sampled window never leaves the exponential "
            "stage, so no long-time slope can be fit"
        )
    elif t3 and report.vanishing and report.receding:
        text = (
            f"t^-3: direct integration shows slope {direct_fit.slope:.2f}, the "
            f"t^-1 weight falls by x{1.0 / report.d1_ratio:.0f} from N={n_lo} to "
            f"N={n_hi}, and its onset recedes ({report.crossover[0]:.2f} -> "
            f"{report.crossover[-1]:.2f}); the t^-1 stage is a truncation artifact"
        )
    elif not t3 and not report.vanishing:
        text = (
            f"t^-1: direct slope {direct_fit.slope:.2f} and a t^-1 weight "
            f"that does not vanish with N"
        )
    else:
        text = (
            f"mixed evidence: direct slope {direct_fit.slope:.2f}, "
            f"D1({n_hi})/D1({n_lo}) = {report.d1_ratio}"
        )
    return Verdict(
        expansions=expansions,
        lifetime_window=span,
        lifetime_mask=life,
        lifetime_dev=lifetime_dev,
        window=window,
        direct_fit=direct_fit,
        expansion_fits=expansion_fits,
        t3=t3,
        text=text,
    )
