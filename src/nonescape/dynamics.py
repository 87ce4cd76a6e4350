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

Every truncation's terms are, bit for bit, the central block of the largest
truncation's (2N)^2 term array, so :func:`probability_sums` gives P(t) for
a whole list of truncations from one pass over the largest one's terms.
Each term carries its :func:`truncation_rings` label; the exact binning adds
the label to its bin index, integer sums over the rings 0..g give
truncation g's bins, and each truncation is rounded once, so its samples
equal ``math.fsum`` of its own terms.  The pass is :func:`nested_forms`, the
one kernel for quadratic forms over the overlap matrix, which the tail's
moment sums also call.  :meth:`ProbabilitySums.series` checks one
truncation's samples, and :func:`nonescape_probability` is the
one-truncation case.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import ConfigError, NonPositiveProbability, TruncationUnstable
from .gamow import ExpansionData
from .poles import ResonancePole
from .specfn import moshinsky

__all__ = [
    "MAX_TIME_SAMPLES",
    "TimeGrid",
    "gamma_width",
    "lifetime",
    "NonescapeSeries",
    "ProbabilitySums",
    "truncation_rings",
    "nested_forms",
    "probability_sums",
    "nonescape_probability",
    "exact_nested_sums",
    "exact_row_sums",
]

_IMAG_HARD_LIMIT = 1e-6  # beyond this the truncation is considered unusable
MAX_TIME_SAMPLES = 1_000_000  # samples a time grid may hold


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
        if n > MAX_TIME_SAMPLES:
            raise ConfigError(
                f"log grid from {t_min:g} to {t_max:g} at {per_decade} per decade "
                f"has {n} points, more than {MAX_TIME_SAMPLES}"
            )
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


@dataclass(frozen=True, eq=False)
class NonescapeSeries:
    """P(t) samples plus bookkeeping about how they were produced."""

    times: np.ndarray
    probability: np.ndarray
    imag_residual: float
    n_pairs: int
    mode: str

    def __len__(self) -> int:
        return len(self.times)


# Terms per block of :func:`nested_forms`: a block holds max(1, _BLOCK //
# (2N)^2) rows, so its term array holds 32,768 to 65,536 complex terms (0.5
# to 1 MB) while (2N)^2 <= _BLOCK, i.e. N <= 128, and one row of (2N)^2
# terms beyond (102,400 terms, 1.6 MB, at N = 160).  Each block array is
# allocated once per call and reused for every block.
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


class _NestedSummer:
    """Exact nested-group sums of real (rows x cols) blocks.

    Column c lies in ring ``rings[c]``, and group g of a row is its columns
    in rings 0..g.  The work arrays hold ``max_rows`` rows and are allocated
    once, so a caller summing block after block allocates nothing per block
    but the small bin arrays.
    """

    def __init__(self, max_rows: int, rings: np.ndarray) -> None:
        self.rings = np.asarray(rings, dtype=np.intp)
        self.n_rings = int(self.rings.max()) + 1 if self.rings.size else 1
        shape = (max_rows, self.rings.size)
        self.frac = np.empty(shape)
        self.exp = np.empty(shape, dtype=np.intc)
        self.index = np.empty(shape, dtype=np.intp)
        self.high = np.empty(shape)
        self.ring_bins = np.empty(self.rings.size, dtype=np.intp)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """(rows x n_rings) correctly rounded group sums of ``x``."""
        n_rows, n_cols = x.shape
        n_rings = self.n_rings
        out = np.zeros((n_rows, n_rings))  # an exact zero rounds to +0.0, as in fsum
        if x.size == 0:
            return out
        # rows whose plain sum is not finite hold an inf or NaN, or overflow
        # on the way: math.fsum settles those
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(x.sum(axis=1))
        frac, exp, index, high = (
            a[:n_rows] for a in (self.frac, self.exp, self.index, self.high)
        )
        np.frexp(x, out=(frac, exp))
        if not finite.all():
            frac[~finite] = 0.0
            exp[~finite] = 0
        e_lo = int(exp.min())
        width = int(exp.max()) - e_lo + 1
        # bin of a term: (row, ring, exponent), exponents innermost
        np.subtract(exp, e_lo, out=index, dtype=np.intp)
        np.multiply(self.rings, width, out=self.ring_bins)
        index += self.ring_bins
        if n_rows > 1:
            index += (np.arange(n_rows) * (n_rings * width))[:, None]
        # frac 2**27 splits exactly into an integer part below 2**27 and a
        # fraction in multiples of 2**-26; frac keeps the fraction
        np.multiply(frac, 2.0**27, out=frac)
        np.trunc(frac, out=high)
        frac -= high
        n_bins = n_rows * n_rings * width
        hi_bins = np.zeros(n_bins, dtype=np.int64)
        lo_bins = np.zeros(n_bins, dtype=np.int64)
        for c0 in range(0, n_cols, _EXACT_TERMS):
            cols = slice(c0, c0 + _EXACT_TERMS)
            bins = index[:, cols].ravel()
            hi_bins += np.bincount(bins, high[:, cols].ravel(), minlength=n_bins).astype(
                np.int64
            )
            lo_bins += (
                np.bincount(bins, frac[:, cols].ravel(), minlength=n_bins) * _SPLIT
            ).astype(np.int64)
        if n_rings > 1:  # group g holds rings 0..g
            for bins in (hi_bins, lo_bins):
                cube = bins.reshape(n_rows, n_rings, width)
                np.cumsum(cube, axis=1, out=cube)
        used = np.flatnonzero(hi_bins | lo_bins)
        flat = out.reshape(-1)
        group, e0, total = -1, 0, 0
        for g, e, h, l in zip(
            (used // width).tolist(),
            (used % width).tolist(),
            hi_bins[used].tolist(),
            lo_bins[used].tolist(),
        ):
            if g != group:  # bins come group by group, lowest exponent first
                if group >= 0:
                    flat[group] = _round_scaled(total, e0 + e_lo - 53)
                group, e0, total = g, e, 0
            total += ((h << 26) + l) << (e - e0)
        if group >= 0:
            flat[group] = _round_scaled(total, e0 + e_lo - 53)
        for i in np.flatnonzero(~finite):
            for g in range(n_rings):
                out[i, g] = fsum(x[i][self.rings <= g])
        return out


def exact_nested_sums(rows: np.ndarray, rings: np.ndarray) -> np.ndarray:
    """Correctly rounded sums of nested column groups of every row.

    ``rings[c] >= 0`` labels column c; entry [i, g] of the (rows x
    (max(rings) + 1)) result equals ``math.fsum`` of the columns of row i
    whose ring is at most g, bit for bit (real and imaginary parts
    separately for complex rows), so no group depends on term order.
    ``frexp`` writes a finite double as m 2**(e - 53) with an integer
    |m| < 2**53; the high and low halves of m are summed exactly per
    (row, ring, e) by ``np.bincount``, summed over the rings 0..g in
    integers, and then each group's bins are combined in Python integers
    and rounded once.  Rows holding an infinity or NaN are passed to
    ``math.fsum`` itself.
    """
    x = np.asarray(rows)
    summer = _NestedSummer(x.shape[0], rings)
    if np.iscomplexobj(x):
        out = np.empty((x.shape[0], summer.n_rings), dtype=complex)
        out.real = summer(x.real)
        out.imag = summer(x.imag)
        return out
    return summer(np.asarray(x, dtype=float))


def exact_row_sums(rows: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of every row of a 2-d array, real or complex.

    Each entry equals ``math.fsum`` of the row, bit for bit: the one-group
    case of :func:`exact_nested_sums`.
    """
    x = np.asarray(rows)
    return exact_nested_sums(x, np.zeros(x.shape[1], dtype=np.intp))[:, 0]


@dataclass(frozen=True, eq=False)
class ProbabilitySums:
    """Unchecked P(t) sums of nested truncations on one time grid.

    Row i of ``sums`` holds truncation ``truncations[i]``: every sample is
    the correctly rounded complex sum of that truncation's own (2N)^2
    terms.  Nothing is checked until :meth:`series` asks for a truncation.
    """

    times: np.ndarray
    truncations: tuple[int, ...]
    sums: np.ndarray
    mode: str

    def series(self, n_pairs: int) -> NonescapeSeries:
        """P(t) of one truncation, checked sample by sample in time order.

        Raises
        ------
        TruncationUnstable
            If the imaginary residual of the (real) probability exceeds 1e-6.
        NonPositiveProbability
            If a probability sample falls below -1e-9.
        """
        if n_pairs not in self.truncations:
            raise ConfigError(f"truncation {n_pairs} is not among {self.truncations}")
        i = self.truncations.index(n_pairs)
        p_out = np.empty(self.times.shape)
        worst_imag = 0.0
        for j, total in enumerate(self.sums[i]):
            re, im, t = total.real, total.imag, self.times[j]
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
            times=self.times.copy(),
            probability=p_out,
            imag_residual=worst_imag,
            n_pairs=self.truncations[i],
            mode=self.mode,
        )


def truncation_rings(
    data: ExpansionData, truncations: tuple[int, ...] | list[int]
) -> tuple[tuple[int, ...], ExpansionData, np.ndarray]:
    """Checked truncations, the largest one's expansion, and its terms' rings."""
    truncs = tuple(int(n) for n in truncations)
    if not truncs or list(truncs) != sorted(set(truncs)):
        raise ConfigError("truncations must be distinct and ascending")
    if truncs[0] < 1 or truncs[-1] > data.n_pairs:
        bad = truncs[0] if truncs[0] < 1 else truncs[-1]
        raise ConfigError(f"truncation {bad} outside the built range 1..{data.n_pairs}")
    sub = data.truncate(truncs[-1])
    state_ring = np.searchsorted(truncs, np.abs(sub.indices))
    return truncs, sub, np.maximum.outer(state_ring, state_ring).ravel()


def nested_forms(
    sub: ExpansionData, rings: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Ring-group sums of the quadratic forms sum_{n,l} x_n conj(y_l) I[n, l].

    Row i of ``left``/``right`` holds x/y over ``sub``'s states; entry [i, g]
    is the correctly rounded sum of row i's terms in the rings 0..g of
    :func:`truncation_rings`.  Rows go in blocks whose arrays are allocated
    once per call.
    """
    step = min(len(left), max(1, _BLOCK // sub.overlap.size))
    outer = np.empty((step,) + sub.overlap.shape, dtype=complex)
    weighted = np.empty_like(outer)
    summer = _NestedSummer(step, rings)
    out = np.empty((len(left), summer.n_rings), dtype=complex)
    for i0 in range(0, len(left), step):
        x, y = left[i0 : i0 + step], right[i0 : i0 + step]
        n = len(x)
        # numpy's complex product is not bitwise commutative (the imaginary
        # part is fused): both products name their operands in a fixed
        # order, where a temporary could be multiplied in place as its left
        # operand once it reaches numpy's elision size.
        np.multiply(x[:, :, None], np.conj(y)[:, None, :], out=outer[:n])
        np.multiply(sub.overlap, outer[:n], out=weighted[:n])
        terms = weighted[:n].reshape(n, -1)
        out.real[i0 : i0 + n] = summer(terms.real)
        out.imag[i0 : i0 + n] = summer(terms.imag)
    return out


def probability_sums(
    data: ExpansionData,
    grid: TimeGrid,
    truncations: tuple[int, ...] | list[int],
) -> ProbabilitySums:
    """P(t) sums of every truncation: the :func:`nested_forms` of w = C M(k, t)."""
    truncs, sub, rings = truncation_rings(data, truncations)
    w = sub.coefficients * np.asarray(moshinsky(sub.wavenumbers, grid.times))
    sums = nested_forms(sub, rings, w, w).T
    return ProbabilitySums(grid.times.copy(), truncs, sums, mode=sub.overlap_method)


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
    are checked in time order and the first offending one raises.  This is
    the one-truncation case of :func:`probability_sums`.

    Raises
    ------
    TruncationUnstable
        If the imaginary residual of the (real) probability exceeds 1e-6.
    NonPositiveProbability
        If a probability sample falls below -1e-9.
    """
    n = data.n_pairs if n_pairs is None else n_pairs
    return probability_sums(data, grid, (n,)).series(n)

