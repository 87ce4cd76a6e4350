"""Nonescape probability from the resonant expansion.

With the expansion psi0 = (1/2) sum C_n u_n, the survival of probability
inside [0, R] is the double sum

    P(t) = sum_{n,l} C_n conj(C_l) I[n,l] M(k_n, t) conj(M(k_l, t)),

where M is the Moshinsky function and I the overlap matrix.  P(t) is real
and positive for exact arithmetic; truncation and roundoff leave a small
imaginary residual that is monitored as a health check.  Terms are summed
largest-first with compensated accumulation so the deep tail (P ~ 1e-12
at late times) is not drowned by cancellation noise.
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
from .gamow import ExpansionData, overlap_matrix
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
        n = max(2, int(np.ceil(np.log10(t_max / t_min) * per_decade)) + 1)
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


def _ordered_hermitian_sum(weighted: np.ndarray) -> tuple[float, float]:
    """Sum all matrix entries largest-|.|-first with compensated addition."""
    flat = weighted.ravel()
    order = np.argsort(-np.abs(flat), kind="stable")
    flat = flat[order]
    return fsum(flat.real), fsum(flat.imag)


def nonescape_probability(
    data: ExpansionData,
    grid: TimeGrid,
    n_pairs: int | None = None,
    mode: str = "closed",
) -> NonescapeSeries:
    """Evaluate the truncated double series for P(t) on a time grid.

    ``mode`` chooses how the overlap matrix is obtained: "closed" uses the
    boundary-value formulas, "quadrature" re-derives every entry by panel
    integration.  The two must agree; both are exposed so tests can confirm
    the equivalence on real problems.

    Raises
    ------
    TruncationUnstable
        If the imaginary residual of the (real) probability exceeds 1e-6.
    NonPositiveProbability
        If a probability sample falls below -1e-9.
    """
    sub = data if n_pairs is None else data.truncate(n_pairs)
    if mode not in ("closed", "quadrature"):
        raise ConfigError(f"unknown overlap mode {mode!r}")
    if mode == sub.overlap_method:
        overlap = sub.overlap
    else:
        overlap = overlap_matrix(sub.states, mode)
    ks = sub.wavenumbers
    cs = sub.coefficients
    times = grid.times
    p_out = np.empty(times.shape)
    worst_imag = 0.0
    for j, t in enumerate(times):
        m = np.asarray(moshinsky(ks, float(t)))
        w = cs * m
        weighted = overlap * (w[:, None] * np.conj(w)[None, :])
        re, im = _ordered_hermitian_sum(weighted)
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
        mode=mode,
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
