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
Each state carries its :func:`truncation_rings` label, and term (n, l) lies
in ring max(g_n, g_l); the exact binning adds the ring to its bin index,
sums over the rings 0..g give truncation g's bins, and each truncation is
rounded once, so its samples equal ``math.fsum`` of its own terms.  The
pass is :func:`nested_forms`, the one kernel for quadratic forms over the
overlap matrix, which the tail's moment sums also call.  It streams: the
terms of a run of whole matrix rows (or of whole samples, for N <= 64) are
formed into one reused buffer of ``_CHUNK`` float parts and binned at once,
real and imaginary parts together, each term's ring the larger of its two
states' rings.  Each part splits into a high and a low half, and both go
into one float64 bin per (sample, ring, part, exponent), the low half 26
exponents down; a sample's bins add up in accumulators keyed by absolute
exponent.  Every bin stays exact because a sample has fewer than 2**25
terms.  So the pass holds no array that grows with (2N)^2 beside the
overlap matrix.  :meth:`ProbabilitySums.series` checks one truncation's
samples, and :func:`nonescape_probability` is the one-truncation case.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import ConfigError, NonPositiveProbability, OverflowGuard, TruncationUnstable
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
        if not per_decade >= 1:
            raise ConfigError(f"a log grid needs per_decade >= 1, got {per_decade}")
        # past about 308 decades the end ratio overflows: count its logs instead
        ratio = float(t_max) / float(t_min)
        decades = np.log10(ratio) if np.isfinite(ratio) else np.log10(t_max) - np.log10(t_min)
        try:
            n = max(2, int(np.ceil(decades * per_decade)) + 1)
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
        # 10**log10(t_max) may overflow near the largest double; geomspace then
        # sets its end points exactly
        with np.errstate(over="ignore"):
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

    def __len__(self) -> int:
        return len(self.times)


# Float parts per chunk.  nested_forms forms the terms of a run of whole
# matrix rows of one form, or of whole forms when one holds at most _CHUNK
# parts (N <= 64), in one reused buffer of at most _CHUNK parts, and the
# summer bins each chunk at once: the terms, their fractions, bin indices
# and high and low parts (256 KB each) and exponents (128 KB) stay in cache
# between the passes that make them and the ones that bin them.
_CHUNK = 1 << 15
# frac * 2**27 splits exactly into a high part, an integer below 2**27, and
# a low part, a multiple of 2**-26 below 1.  A low part times 2**26 is an
# integer below 2**26 in the units of the high parts _LOW exponents down, so
# both go into one bin array per exponent, and each term adds at most one
# part to a bin.  A row of nested_forms holds fewer than 2**25 terms, since
# (2 gamow._MAX_PAIRS)^2 < 2**25, so every bin stays below 2**52 units: the
# float64 bins of a row, and their sums over rings, are exact.
_SPLIT = 2.0**27
_LOW = 26
_EXP_MIN = -1073  # frexp exponent of the least subnormal
_BIN_MIN = _EXP_MIN - _LOW  # exponent of the lowest bin, its low parts
_N_EXP = 1024 - _BIN_MIN + 1  # bin exponents of every double's parts


def _fsum_part(terms: np.ndarray, row: int, part: int) -> float:
    """``math.fsum`` of one row part: NaN where +inf meets -inf, as IEEE
    addition gives, and OverflowGuard where the partial sums of finite terms
    overflow."""
    special = terms[~np.isfinite(terms)]
    try:  # finite terms cannot move an infinite or NaN sum
        return fsum(memoryview(special if special.size else terms))
    except ValueError:  # -inf + inf
        return np.nan
    except OverflowError as exc:
        raise OverflowGuard(
            f"exact sum of row {row} ({('real', 'imaginary')[part]} part) "
            "overflows in an intermediate sum"
        ) from exc


class _NestedSummer:
    """Exact ring-group sums of rows of complex terms, by chunks.

    A row's terms form an (n x n) grid over the states, and term (n, l)
    lies in ring max(rings[n], rings[l]); group g of a row is its terms in
    rings 0..g, and both parts are summed in one pass.  :meth:`add` bins
    one chunk of terms, either whole rows or a run of matrix rows of one
    row that its last run finishes.  A row fed in runs adds each run's bins
    into float64 accumulators keyed by absolute exponent.  :meth:`_finish`
    rounds every group of finished rows once.  ``row_terms(i)`` forms row
    i's terms again for a row part that ``math.fsum`` settles.
    """

    def __init__(
        self, n_rows: int, rings: np.ndarray, chunk: int, row_terms: Callable[[int], np.ndarray]
    ) -> None:
        n_terms = rings.size**2
        self.n_rings = int(rings.max(initial=0)) + 1
        self.row_terms = row_terms
        # Bins stay below the largest double in a row part whose terms all
        # lie below exponent `top`; math.fsum settles every other row part,
        # and every row of 2**25 terms or more.
        self.top = 1024 - n_terms.bit_length() if n_terms < 1 << 25 else _EXP_MIN
        # int32 bin indices: under gamow._MAX_PAIRS a chunk has at most
        # about 1.8e7 bins
        self.rings = rings.astype(np.intc)
        self.float_rings = np.repeat(self.rings, 2)  # of each float
        self.part = np.arange(self.float_rings.size, dtype=np.intc) % 2
        rows = max(1, chunk // max(1, 2 * n_terms))
        self.rows = np.arange(rows, dtype=np.intc)[:, None, None]
        # float (row, ring, part): an exact zero rounds to +0.0, as in fsum
        self.out = np.zeros((n_rows, 2 * self.n_rings))
        self.frac = np.empty(chunk)
        self.exp = np.empty(chunk, dtype=np.intc)
        self.slot = np.empty(chunk, dtype=np.intc)
        self.index = np.empty(chunk, dtype=np.intp)
        self.high = np.empty(chunk)
        self.low = np.empty(chunk)
        # a row fed in runs: its bins, their exponent range and its row
        # parts left to math.fsum
        self.acc: np.ndarray | None = None
        self.span: tuple[int, int] | None = None
        self.pending: set[tuple[int, int]] = set()

    def _fsum_groups(
        self, terms: np.ndarray, rings: np.ndarray, row: int, part: int
    ) -> list[float]:
        """:func:`_fsum_part` of each group of one row part."""
        return [_fsum_part(terms[rings <= g], row, part) for g in range(self.n_rings)]

    def _bin(
        self, terms: np.ndarray, sub: slice
    ) -> tuple[np.ndarray, int, set[tuple[int, int]]]:
        """(row, ring, part, exponent) bins of a chunk, the exponent of its
        first bin, and its (row, part) pairs left to math.fsum.

        ``terms`` holds complex terms as (rows, matrix rows ``sub``, states).
        """
        floats = terms.view(float)
        n_rows, size = len(floats), floats.size
        frac, exp = self.frac[:size], self.exp[:size]
        np.frexp(floats, out=(frac.reshape(floats.shape), exp.reshape(floats.shape)))
        e_lo, e_hi = int(exp.min()) - _LOW, int(exp.max())
        bad = set()
        if e_hi >= self.top:
            big = exp.reshape(n_rows, -1, 2).max(axis=1) >= self.top
            bad.update(zip(*(a.tolist() for a in np.nonzero(big))))
        # bin of a high part: ((row * n_rings + ring) * 2 + part) * width +
        # e - e_lo, built in int32; its low part goes _LOW bins down
        width = e_hi - e_lo + 1
        scale = 2 * width
        slot = self.slot[:size]
        cube = slot.reshape(floats.shape)
        np.maximum(self.rings[sub, None] * scale, self.float_rings * scale, out=cube)
        cube += self.part * width + (self.rows[:n_rows] * (self.n_rings * scale) - e_lo)
        index = np.add(slot, exp, out=self.index[:size])
        high, low = self.high[:size], self.low[:size]
        np.multiply(frac, _SPLIT, out=low)
        np.trunc(low, out=high)
        with np.errstate(invalid="ignore"):  # inf - inf from an infinite term
            low -= high
        n_bins = n_rows * self.n_rings * scale
        bins = np.bincount(index, high, minlength=n_bins)
        bins[:-_LOW] += np.bincount(index, low, minlength=n_bins)[_LOW:] * 2.0**_LOW
        finite = np.isfinite(bins)
        if not finite.all():  # an inf or NaN term shows as a non-finite bin
            for b in np.flatnonzero(~finite).tolist():
                bad.add((b // (self.n_rings * scale), b // width % 2))
        return bins.reshape(n_rows, self.n_rings, 2, width), e_lo, bad

    def _finish(self, row0: int, bins: np.ndarray, e_lo: int, bad: set[tuple[int, int]]) -> None:
        """Round every group of the rows from ``row0`` from their (row, ring,
        part, exponent) bins, which it overwrites."""
        n_rows, n_rings, _, width = bins.shape
        for i, p in bad:
            bins[i, :, p] = 0.0
        if n_rings > 1:  # group g holds rings 0..g
            bins.cumsum(axis=1, out=bins)
        # every bin scales to an exact double; math.fsum rounds each group's
        # nonzero bins once
        scaled = np.ldexp(bins, np.arange(e_lo - 27, e_lo - 27 + width)).ravel()
        used = scaled.nonzero()[0]  # group by group
        ends = used.searchsorted(width * np.arange(bins.size // width + 1)).tolist()
        vals = scaled[used].tolist()
        out = self.out[row0 : row0 + n_rows]
        out.reshape(-1)[:] = [fsum(vals[a:b]) for a, b in zip(ends, ends[1:])]
        if bad:
            rings = np.maximum.outer(self.rings, self.rings).ravel()
        for i, p in bad:
            part = np.ascontiguousarray(self.row_terms(row0 + i)).view(float)[p::2]
            out[i, p::2] = self._fsum_groups(part, rings, row0 + i, p)

    def add(self, row0: int, terms: np.ndarray, sub: slice, last: bool = True) -> None:
        """Bin a chunk of complex terms, (rows, matrix rows ``sub``,
        states): whole rows from ``row0``, or a run of row ``row0`` that
        finishes it when ``last``."""
        bins, e_lo, bad = self._bin(terms, sub)
        if self.span is None and last:
            self._finish(row0, bins, e_lo, bad)
            return
        if self.acc is None:
            self.acc = np.zeros((self.n_rings, 2, _N_EXP))
        width = bins.shape[-1]
        a = e_lo - _BIN_MIN
        self.acc[..., a : a + width] += bins[0]
        e_hi = e_lo + width - 1
        if self.span is not None:
            e_lo, e_hi = min(e_lo, self.span[0]), max(e_hi, self.span[1])
        self.span = (e_lo, e_hi)
        self.pending |= bad
        if last:
            bins = self.acc[None, ..., e_lo - _BIN_MIN : e_hi - _BIN_MIN + 1]
            self._finish(row0, bins, e_lo, self.pending)
            bins[...] = 0.0
            self.span, self.pending = None, set()


def exact_row_sums(rows: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of every row of a 2-d array, real or complex.

    Each entry equals ``math.fsum`` of the row, bit for bit (real and
    imaginary parts separately for complex rows), so no sum depends on term
    order.  A row holding +inf and -inf sums to NaN, as IEEE addition gives.

    Raises
    ------
    OverflowGuard
        If a row of finite terms overflows in an intermediate sum of
        ``math.fsum`` (its exact sum may still be a double).
    """
    x = np.asarray(rows)
    terms = np.ascontiguousarray(x, dtype=complex if np.iscomplexobj(x) else float)
    parts = terms.itemsize // 8
    floats = terms.view(float).reshape(*terms.shape, parts)
    sums = [[_fsum_part(row[:, p], i, p) for p in range(parts)] for i, row in enumerate(floats)]
    return np.array(sums, dtype=float).reshape(len(terms), parts).view(terms.dtype)[:, 0]


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

    def series(self, n_pairs: int) -> NonescapeSeries:
        """P(t) of one truncation; the first bad sample in time order raises.

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
        re, im = self.sums[i].real.copy(), self.sums[i].imag
        scale = np.fmax(1.0, np.abs(re))  # 1 at a NaN sample, as Python's max gives
        unstable = np.abs(im) > _IMAG_HARD_LIMIT * scale
        bad = unstable | (re < -1e-9)
        if bad.any():
            j = int(np.argmax(bad))  # the first bad sample; its imaginary part first
            t, p = self.times[j], re[j]
            if unstable[j]:
                raise TruncationUnstable(
                    f"imaginary residual {im[j]:.3e} at t = {t:g} (P = {p:.3e})"
                )
            raise NonPositiveProbability(f"P({t:g}) = {p:.3e} < -1e-9")
        return NonescapeSeries(
            times=self.times.copy(),
            probability=re,
            imag_residual=float(np.fmax.reduce(np.abs(im) / scale, initial=0.0)),
            n_pairs=self.truncations[i],
        )


def truncation_rings(
    data: ExpansionData, truncations: tuple[int, ...] | list[int]
) -> tuple[tuple[int, ...], ExpansionData, np.ndarray]:
    """Checked truncations, the largest one's expansion, and its states' rings.

    State n lies in ring g when ``truncations[g]`` is the smallest that
    holds it; term (n, l) of a quadratic form lies in ring max(g_n, g_l).
    """
    truncs = tuple(int(n) for n in truncations)
    if not truncs or list(truncs) != sorted(set(truncs)):
        raise ConfigError("truncations must be distinct and ascending")
    if truncs[0] < 1 or truncs[-1] > data.n_pairs:
        bad = truncs[0] if truncs[0] < 1 else truncs[-1]
        raise ConfigError(f"truncation {bad} outside the built range 1..{data.n_pairs}")
    sub = data.truncate(truncs[-1])
    return truncs, sub, np.searchsorted(truncs, np.abs(sub.states.n))


def nested_forms(
    sub: ExpansionData, rings: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Ring-group sums of the quadratic forms sum_{n,l} x_n conj(y_l) I[n, l].

    Row i of ``left``/``right`` holds x/y over ``sub``'s states, and
    ``rings`` labels the states as :func:`truncation_rings` does; entry
    [i, g] is the correctly rounded sum of row i's terms in the rings 0..g.
    Each chunk of terms, a run of whole matrix rows of one form or whole
    forms when one fits, is formed in one buffer and binned at once, term
    (n, l) in ring max(rings[n], rings[l]).
    """
    overlap, n = sub.overlap, len(sub.overlap)
    span = max(1, min(n, _CHUNK // max(1, 2 * n)))  # matrix rows per chunk
    step = max(1, _CHUNK // max(1, 2 * n * n)) if span == n else 1  # forms per chunk
    terms = np.empty((step, span, n), dtype=complex)

    def row_terms(i: int) -> np.ndarray:  # for math.fsum
        with np.errstate(over="ignore", invalid="ignore"):
            outer = left[i][:, None] * np.conj(right[i])[None, :]
            return (overlap * outer).ravel()

    summer = _NestedSummer(len(left), np.asarray(rings), terms.size * 2, row_terms)
    for i0 in range(0, len(left), step):
        x, cy = left[i0 : i0 + step], np.conj(right[i0 : i0 + step])[:, None, :]
        for n0 in range(0, n, span):
            n1 = min(n, n0 + span)
            t = terms[: len(x), : n1 - n0]
            # numpy's complex product is not bitwise commutative (the
            # imaginary part is fused): both products name their operands
            # in a fixed order, the order of the term I[n, l] (x_n conj(y_l)).
            # An inf or NaN term warns nothing: the summer sends its row part
            # to math.fsum, through row_terms
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(x[:, n0:n1, None], cy, out=t)
                np.multiply(overlap[n0:n1], t, out=t)
            summer.add(i0, t, slice(n0, n1), last=n1 == n)
    return summer.out.view(complex)


def probability_sums(
    data: ExpansionData,
    grid: TimeGrid,
    truncations: tuple[int, ...] | list[int],
) -> ProbabilitySums:
    """P(t) sums of every truncation: the :func:`nested_forms` of w = C M(k, t)."""
    truncs, sub, rings = truncation_rings(data, truncations)
    w = sub.coefficients * np.asarray(moshinsky(sub.states.k, grid.times))
    sums = nested_forms(sub, rings, w, w).T
    return ProbabilitySums(grid.times.copy(), truncs, sums)


def nonescape_probability(
    data: ExpansionData,
    grid: TimeGrid,
    n_pairs: int | None = None,
) -> NonescapeSeries:
    """Evaluate the truncated double series for P(t) on a time grid.

    The overlap matrix is the expansion's own: expansions built with
    "closed" and with "quadrature" overlaps must agree.

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

