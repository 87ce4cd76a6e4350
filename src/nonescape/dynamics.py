"""Nonescape probability from the resonant expansion.

With the expansion psi0 = (1/2) sum C_n u_n, the survival of probability
inside [0, R] is the double sum

    P(t) = sum_{n,l} C_n conj(C_l) I[n,l] M(k_n, t) conj(M(k_l, t)),

where M is the Moshinsky function and I the overlap matrix.  P(t) is real
and positive for exact arithmetic; truncation and roundoff leave a small
imaginary residual that is monitored as a health check.  The Moshinsky
factors for all output times come from one vectorized call, and the terms
of each sample are reduced by an exact, correctly rounded row sum (the
value ``math.fsum`` returns), so the deep tail (P ~ 1e-15 at t = 1e5 for
N = 160) is not drowned by cancellation noise and no term order matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import (
    ConfigError,
    EmptyWindow,
    NonPositiveProbability,
    TruncationUnstable,
)
from .gamow import ExpansionData
from .poles import PoleSet, ResonancePole
from .specfn import moshinsky

__all__ = [
    "TimeGrid",
    "default_time_grid",
    "gamma_width",
    "lifetime",
    "NonescapeSeries",
    "nonescape_probability",
    "probability_window",
    "exact_row_sums",
]

_IMAG_HARD_LIMIT = 1e-6  # beyond this the truncation is considered unusable


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing, finite, non-negative output times."""

    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ConfigError("time grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(t)):
            raise ConfigError("time grid entries must be finite")
        if np.any(t < 0.0):
            raise ConfigError("times must be non-negative")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ConfigError("times must be strictly increasing")
        object.__setattr__(self, "times", t)

    @classmethod
    def log(cls, t_min: float, t_max: float, per_decade: int = 40) -> "TimeGrid":
        if not (0.0 < t_min < t_max):
            raise ConfigError("need 0 < t_min < t_max for a log grid")
        try:
            n = max(2, int(np.ceil(np.log10(t_max / t_min) * per_decade)) + 1)
        except (OverflowError, ValueError) as exc:  # an infinite or NaN point count
            raise ConfigError(
                f"log grid from {t_min:g} to {t_max:g} at {per_decade} per decade "
                "has no finite number of points"
            ) from exc
        return cls(times=np.geomspace(t_min, t_max, n))

    def __len__(self) -> int:
        return len(self.times)


def gamma_width(pole: ResonancePole | complex) -> float:
    """Decay width of one resonance: Gamma = -2 Im(k^2) (so e^{-Gamma t} in P)."""
    k = pole.k if isinstance(pole, ResonancePole) else complex(pole)
    gamma = -2.0 * (k * k).imag
    if gamma <= 0.0:
        raise ConfigError(f"nonpositive width for k = {k:.6g}; not a decaying pole")
    return gamma


def lifetime(pole: ResonancePole | complex) -> float:
    """tau = 1 / Gamma for the given pole."""
    return 1.0 / gamma_width(pole)


def default_time_grid(
    source: ExpansionData | PoleSet | ResonancePole | complex,
    per_decade: int = 40,
    span: tuple[float, float] = (1e-3, 1e3),
) -> TimeGrid:
    """Log grid covering ``span`` in units of the longest resonance lifetime."""
    if isinstance(source, ExpansionData):
        k1 = complex(source.wavenumbers[source.n_pairs])
    elif isinstance(source, PoleSet):
        k1 = source.pole(1).k
    elif isinstance(source, ResonancePole):
        k1 = source.k
    else:
        k1 = complex(source)
    tau = lifetime(k1)
    return TimeGrid.log(span[0] * tau, span[1] * tau, per_decade)


@dataclass(frozen=True, eq=False)
class NonescapeSeries:
    """P(t) samples plus bookkeeping about how they were produced."""

    times: np.ndarray
    probability: np.ndarray
    imag_residual: float
    n_pairs: int
    mode: str
    provenance: str

    def __len__(self) -> int:
        return len(self.times)


# Terms per block of P(t): keeps the (times x states x states) term array
# near 1 MB however many samples are asked for.
_BLOCK = 1 << 16
# Terms per bin sum.  High parts are integers below 2**27 and low parts
# multiples of 2**-26 below 1, so 2**26 of either sum below 2**53 units:
# exactly, in any order, in float64.
_EXACT_TERMS = 1 << 26
_SPLIT = 2.0**26


def _round_scaled(total: int, exponent: int) -> float:
    """total * 2**exponent, correctly rounded to a double."""
    # int / int is correctly rounded in Python, subnormal results included
    if exponent >= 0:
        return float(total << exponent)
    return total / (1 << -exponent)


def exact_row_sums(rows: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of every row of a 2-d array, real or complex.

    Each entry equals ``math.fsum`` of the row (real and imaginary parts
    separately), bit for bit, so the result does not depend on term order.
    ``frexp`` writes a finite double as m 2**(e - 53) with an integer
    |m| < 2**53; the high and low halves of m are summed exactly per
    (row, e) by ``np.bincount``, then each row's bins are combined in Python
    integers and rounded once.  Rows holding an infinity or NaN are passed
    to ``math.fsum`` itself.
    """
    x = np.asarray(rows)
    if np.iscomplexobj(x):
        out = np.empty(x.shape[0], dtype=complex)
        out.real = exact_row_sums(x.real)
        out.imag = exact_row_sums(x.imag)
        return out
    x = np.asarray(x, dtype=float)
    n_rows, n_cols = x.shape
    out = np.zeros(n_rows)  # an exact zero rounds to +0.0, as in math.fsum
    if x.size == 0:
        return out
    # rows whose plain sum is not finite hold an inf or NaN, or overflow
    # on the way: math.fsum settles those
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(x.sum(axis=1))
    if not finite.all():
        x = np.where(finite[:, None], x, 0.0)
    frac, exp = np.frexp(x)
    e_lo = int(exp.min())
    width = int(exp.max()) - e_lo + 1
    index = np.subtract(exp, e_lo, dtype=np.intp)
    if n_rows > 1:
        index += (np.arange(n_rows) * width)[:, None]
    # frac 2**27 splits exactly into an integer part below 2**27 and a
    # fraction in multiples of 2**-26
    scaled = frac * 2.0**27
    high = np.trunc(scaled)
    low = scaled - high
    hi_bins = np.zeros(n_rows * width, dtype=np.int64)
    lo_bins = np.zeros(n_rows * width, dtype=np.int64)
    for c0 in range(0, n_cols, _EXACT_TERMS):
        cols = slice(c0, c0 + _EXACT_TERMS)
        bins = index[:, cols].ravel()
        hi_bins += np.bincount(
            bins, high[:, cols].ravel(), minlength=len(hi_bins)
        ).astype(np.int64)
        lo_bins += (
            np.bincount(bins, low[:, cols].ravel(), minlength=len(lo_bins)) * _SPLIT
        ).astype(np.int64)
    used = np.flatnonzero(hi_bins | lo_bins)
    row, e0, total = -1, 0, 0
    for r, e, h, l in zip(
        (used // width).tolist(),
        (used % width).tolist(),
        hi_bins[used].tolist(),
        lo_bins[used].tolist(),
    ):
        if r != row:  # bins come row by row, lowest exponent first
            if row >= 0:
                out[row] = _round_scaled(total, e0 + e_lo - 53)
            row, e0, total = r, e, 0
        total += ((h << 26) + l) << (e - e0)
    if row >= 0:
        out[row] = _round_scaled(total, e0 + e_lo - 53)
    for i in np.flatnonzero(~finite):
        out[i] = fsum(rows[i])
    return out


def nonescape_probability(
    data: ExpansionData,
    grid: TimeGrid,
    n_pairs: int | None = None,
) -> NonescapeSeries:
    """Evaluate the truncated double series for P(t) on a time grid.

    The overlap matrix is the expansion's own, so the series is labelled
    with its ``overlap_method``; expansions built with "closed" and with
    "quadrature" overlaps must agree.

    Every sample is the correctly rounded sum of its (2N)^2 terms.  Samples
    are checked in time order and the first offending one raises.

    Raises
    ------
    TruncationUnstable
        If the imaginary residual of the (real) probability exceeds 1e-6.
    NonPositiveProbability
        If a probability sample falls below -1e-9.
    """
    sub = data if n_pairs is None else data.truncate(n_pairs)
    times = grid.times
    w_all = sub.coefficients * np.asarray(moshinsky(sub.wavenumbers, times))
    p_out = np.empty(times.shape)
    worst_imag = 0.0
    step = max(1, _BLOCK // sub.overlap.size)
    for j0 in range(0, len(times), step):
        w = w_all[j0 : j0 + step]
        # numpy's complex product is not bitwise commutative (the imaginary
        # part is fused): the named outer product keeps the operand order
        # fixed, where a temporary could be multiplied in place as its left
        # operand once it reaches numpy's elision size.
        outer = w[:, :, None] * np.conj(w)[:, None, :]
        weighted = sub.overlap * outer
        sums = exact_row_sums(weighted.reshape(len(w), -1))
        for j, total in enumerate(sums, start=j0):
            re, im, t = total.real, total.imag, times[j]
            scale = max(1.0, abs(re))
            if abs(im) > _IMAG_HARD_LIMIT * scale:
                raise TruncationUnstable(
                    f"imaginary residual {im:.3e} at t = {t:g} (P = {re:.3e})"
                )
            if re < -1e-9:
                raise NonPositiveProbability(f"P({t:g}) = {re:.3e} < -1e-9")
            worst_imag = max(worst_imag, abs(im) / scale)
            p_out[j] = re
    return NonescapeSeries(
        times=times.copy(),
        probability=p_out,
        imag_residual=worst_imag,
        n_pairs=sub.n_pairs,
        mode=sub.overlap_method,
        provenance="expansion",
    )


def probability_window(
    series: NonescapeSeries, t_lo: float, t_hi: float
) -> NonescapeSeries:
    """Restrict a series to t_lo <= t <= t_hi.

    Raises
    ------
    EmptyWindow
        If no samples fall inside the window.
    """
    if not (t_lo < t_hi):
        raise ConfigError("need t_lo < t_hi")
    mask = (series.times >= t_lo) & (series.times <= t_hi)
    if not mask.any():
        raise EmptyWindow(f"no samples in [{t_lo:g}, {t_hi:g}]")
    return NonescapeSeries(
        times=series.times[mask],
        probability=series.probability[mask],
        imag_residual=series.imag_residual,
        n_pairs=series.n_pairs,
        mode=series.mode,
        provenance=series.provenance,
    )
