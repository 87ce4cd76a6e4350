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
moment sums also call.  Each block of its terms is one summer call that bins
the real and imaginary parts together, over the block's interleaved float
view, in cache-sized chunks.  :meth:`ProbabilitySums.series` checks one
truncation's samples, and :func:`nonescape_probability` is the
one-truncation case.
"""

from __future__ import annotations

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
        if not per_decade >= 1:
            raise ConfigError(f"a log grid needs per_decade >= 1, got {per_decade}")
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
    mode: str

    def __len__(self) -> int:
        return len(self.times)


# Terms per block of :func:`nested_forms`: a block holds max(1, _BLOCK //
# (2N)^2) rows, so its term array holds 32,768 to 65,536 complex terms (0.5
# to 1 MB) while (2N)^2 <= _BLOCK, i.e. N <= 128, and one row of (2N)^2
# terms beyond (102,400 terms, 1.6 MB, at N = 160).  Each block is one
# summer call on the term array's interleaved float view, whose work arrays
# hold a fraction and an exponent per float part and a bin slot per float of
# the rows one chunk touches (4 MB at N = 160), and every array is allocated
# once per call and reused for every block.
_BLOCK = 1 << 16
# Float parts per chunk, a slice of a summer call's flat float view: its bin
# index and high and low parts (256 KB each) stay in cache between the passes
# that make them and the ones that bin them.  A bin gets at most _CHUNK parts
# of one chunk: high parts are integers below 2**27 and low parts multiples
# of 2**-26 below 1, so either sum stays below 2**53 units, exact in float64.
# The int64 bins of a whole row of fewer than 2**26 terms stay below 2**53
# units too, so each converts to a double exactly; rows of nested_forms
# hold at most (2 gamow._MAX_PAIRS)^2 < 2**25 terms.
_CHUNK = 1 << 15
_SPLIT = 2.0**26


class _NestedSummer:
    """Exact nested-group sums of (rows x cols) blocks, real or complex.

    Column c lies in ring ``rings[c]``, and group g of a row is its columns
    in rings 0..g.  With ``parts`` = 2 a block is complex, and one call sums
    both parts of every term in one loop over ``_CHUNK``-sized slices of the
    block's interleaved float view.  The work arrays are allocated once, so
    a caller summing block after block allocates nothing per block but the
    small bin arrays.
    """

    def __init__(self, max_rows: int, rings: np.ndarray, parts: int = 1) -> None:
        self.rings = np.asarray(rings, dtype=np.intp)
        self.parts = parts
        self.n_rings = int(self.rings.max()) + 1 if self.rings.size else 1
        # slot (row, ring, part) of each float of the rows a chunk can
        # touch, counted from the chunk's first row
        n_floats = self.rings.size * parts
        touched = min(max_rows, -(-_CHUNK // max(1, n_floats)) + 1)
        row_slots = np.arange(touched)[:, None, None] * (self.n_rings * parts)
        self.slots = (row_slots + self.rings[:, None] * parts + np.arange(parts)).ravel()
        self.frac = np.empty(max_rows * n_floats)
        self.exp = np.empty(max_rows * n_floats, dtype=np.intc)
        size = min(self.frac.size, _CHUNK)
        self.index = np.empty(size, dtype=np.intp)
        self.high = np.empty(size)
        self.low = np.empty(size)

    def _fsum_groups(self, terms: np.ndarray, row: int, part: int) -> list[float]:
        """``math.fsum`` of each group of one row part: NaN where +inf meets
        -inf, as IEEE addition gives, and OverflowGuard where the partial
        sums of finite terms overflow."""
        sums = []
        for g in range(self.n_rings):
            group = terms[self.rings <= g]
            special = group[~np.isfinite(group)]
            try:  # finite terms cannot move an infinite or NaN sum
                sums.append(fsum(special if special.size else group))
            except ValueError:  # -inf + inf
                sums.append(np.nan)
            except OverflowError as exc:
                raise OverflowGuard(
                    f"exact sum of row {row} ({('real', 'imaginary')[part]} part) "
                    "overflows in an intermediate sum"
                ) from exc
        return sums

    def __call__(self, x: np.ndarray, first_row: int = 0) -> np.ndarray:
        """(rows x n_rings) correctly rounded group sums of the C-contiguous
        ``x``: float for ``parts`` 1, complex for 2.  Errors number the rows
        from ``first_row``."""
        n_rows, n_cols, parts = x.shape[0], self.rings.size, self.parts
        n_rings, n_floats = self.n_rings, n_cols * parts
        # float (row, ring, part): an exact zero rounds to +0.0, as in fsum
        out = np.zeros((n_rows, n_rings * parts))
        if out.size == 0 or n_cols == 0:
            return out.view(x.dtype)
        terms = x.view(float).reshape(n_rows, n_floats)
        frac, exp = (a[: terms.size].reshape(terms.shape) for a in (self.frac, self.exp))
        np.frexp(terms, out=(frac, exp))
        e_lo, e_hi = int(exp.min()), int(exp.max())
        fallback = {}  # (row, part) -> its group sums by math.fsum
        # Bins stay below 2**53 units in a row of fewer than 2**26 terms, and
        # below the largest double in a (row, part) whose terms all lie below
        # exponent `top`; math.fsum settles every other (row, part).
        top = 1024 - n_cols.bit_length() if n_cols < 1 << 26 else e_lo
        if e_hi >= top:
            big = exp.reshape(n_rows, n_cols, parts).max(axis=1) >= top
            for i, p in zip(*np.nonzero(big)):
                fallback[i, p] = self._fsum_groups(terms[i, p::parts], first_row + i, p)
                frac[i, p::parts] = 0.0
                exp[i, p::parts] = 0
            e_lo, e_hi = int(exp.min()), int(exp.max())
        # An inf or NaN term shows as a non-finite bin of its (row, part).
        width = e_hi - e_lo + 1
        row_bins = n_rings * parts * width
        # bin of a part: (row, ring, part, exponent), exponents innermost
        hi_bins = np.zeros(n_rows * row_bins, dtype=np.int64)
        lo_bins = np.zeros(n_rows * row_bins, dtype=np.int64)
        for f0 in range(0, terms.size, _CHUNK):
            f1 = min(f0 + _CHUNK, terms.size)
            index, high, low = (a[: f1 - f0] for a in (self.index, self.high, self.low))
            # the chunk's bins: those of the rows it touches
            r0 = f0 // n_floats
            b0, b1 = r0 * row_bins, ((f1 - 1) // n_floats + 1) * row_bins
            np.multiply(self.slots[f0 - r0 * n_floats : f1 - r0 * n_floats], width, out=index)
            index += self.exp[f0:f1]
            index -= e_lo
            # frac 2**27 splits exactly into an integer part below 2**27
            # and a fraction in multiples of 2**-26
            np.multiply(self.frac[f0:f1], 2.0**27, out=low)
            np.trunc(low, out=high)
            with np.errstate(invalid="ignore"):  # inf - inf from an infinite term
                low -= high
            hi = np.bincount(index, high, minlength=b1 - b0)
            lo = np.bincount(index, low, minlength=b1 - b0) * _SPLIT
            bad = ~np.isfinite(hi)
            if bad.any():
                for b in (np.flatnonzero(bad) + b0).tolist():
                    i, p = b // row_bins, b // width % parts
                    if (i, p) not in fallback:
                        fallback[i, p] = self._fsum_groups(terms[i, p::parts], first_row + i, p)
                hi[bad] = lo[bad] = 0.0
            hi_bins[b0:b1] += hi.astype(np.int64)
            lo_bins[b0:b1] += lo.astype(np.int64)
        if n_rings > 1:  # group g holds rings 0..g
            for bins in (hi_bins, lo_bins):
                cube = bins.reshape(n_rows, n_rings, parts * width)
                np.cumsum(cube, axis=1, out=cube)
        # every bin scales to an exact double; math.fsum rounds each group's
        # nonzero bins once
        e = np.arange(e_lo, e_lo + width)
        hi = np.ldexp(hi_bins.reshape(-1, width), e - 27)
        lo = np.ldexp(lo_bins.reshape(-1, width), e - 53)
        bins = np.hstack((hi, lo))
        used = np.flatnonzero(bins)  # group by group
        ends = np.searchsorted(used, 2 * width * np.arange(out.size + 1)).tolist()
        vals = bins.ravel()[used].tolist()
        out.reshape(-1)[:] = [fsum(vals[a:b]) for a, b in zip(ends, ends[1:])]
        for (i, p), sums in fallback.items():
            out[i, p::parts] = sums
        return out.view(x.dtype)


def exact_nested_sums(rows: np.ndarray, rings: np.ndarray) -> np.ndarray:
    """Correctly rounded sums of nested column groups of every row.

    ``rings[c] >= 0`` labels column c; entry [i, g] of the (rows x
    (max(rings) + 1)) result equals ``math.fsum`` of the columns of row i
    whose ring is at most g, bit for bit (real and imaginary parts
    separately for complex rows), so no group depends on term order.
    ``frexp`` writes a finite double as m 2**(e - 53) with an integer
    |m| < 2**53; the high and low halves of m are summed exactly per
    (row, ring, part, e) by ``np.bincount``, both parts of complex rows in
    the same call, and summed over the rings 0..g in int64.  Each group is
    then one ``math.fsum`` over its bins scaled to doubles, and each scaled
    bin is exact: a row of fewer than 2**26 terms keeps every bin below
    2**53 units; both halves of any double, subnormals included, are
    multiples of 2**-1074; and a bin can pass the largest double only in a
    row part holding a term at exponent 1024 - bit_length(cols) or above.
    Such a row part, one holding an infinity or NaN, and every row of
    2**26 terms or more are passed to ``math.fsum`` itself.  There a group
    holding +inf and -inf sums to NaN, as IEEE addition gives.

    Raises
    ------
    OverflowGuard
        If a group of finite terms, passed to ``math.fsum``, overflows in
        an intermediate sum (its exact sum may still be a double).
    """
    x = np.asarray(rows)
    complex_rows = np.iscomplexobj(x)
    terms = np.ascontiguousarray(x, dtype=complex if complex_rows else float)
    return _NestedSummer(terms.shape[0], rings, 2 if complex_rows else 1)(terms)


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
    terms = np.empty((step,) + sub.overlap.shape, dtype=complex)
    summer = _NestedSummer(step, rings, parts=2)
    out = np.empty((len(left), summer.n_rings), dtype=complex)
    for i0 in range(0, len(left), step):
        x, y = left[i0 : i0 + step], right[i0 : i0 + step]
        n = len(x)
        # numpy's complex product is not bitwise commutative (the imaginary
        # part is fused): both products name their operands in a fixed
        # order, where a temporary could be multiplied in place as its left
        # operand once it reaches numpy's elision size.
        np.multiply(x[:, :, None], np.conj(y)[:, None, :], out=terms[:n])
        np.multiply(sub.overlap, terms[:n], out=terms[:n])
        out[i0 : i0 + n] = summer(terms[:n].reshape(n, -1), i0)
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

