"""Resonant (Gamow) states and the expansion of an initial state over them.

A resonant state u_n is the regular solution at a matching-function zero
k_n, normalized by the Zel'dovich-style rule

    int_0^R u_n^2 dr + i u_n(R)^2 / (2 k_n) = 1,

which makes the set {u_n} complete inside [0, R] together with the mirror
states u_{-n} = conj(u_n) at k_{-n} = -conj(k_n).  An initial state psi0
confined to [0, R] is expanded as

    psi0(r) = (1/2) sum_n C_n u_n(r),      C_n = int_0^R psi0 u_n dr,

with *no* conjugation in the coefficient integral.  All overlap integrals
``I[n, l] = int_0^R conj(u_l) u_n dr`` have closed forms; the anti-diagonal
pair l = -n is special because the Green's-identity derivation degenerates
to 0 = 0 there, and the correct value is supplied by the normalization rule
itself.  The closed forms are cross-checked against panel quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    InvalidState,
    NormalizationSingular,
    ToleranceNotMet,
    ZeroWavenumber,
)
from .model import (
    BoxMode,
    InitialState,
    Potential,
    initial_wavefunction,
    segments,
    state_norm,
    support_radius,
)
from .poles import PoleSet
from .segmath import kernels, panel_nodes, product_integral, regular_solutions

__all__ = [
    "GamowState",
    "overlap_quadrature",
    "overlap_matrix",
    "ExpansionData",
    "build_expansion",
    "weighted_field",
    "sum_rule_residual",
    "reconstruct_initial",
]


# The per-state fields of a GamowState; r_edges is shared by every row.
_ROW_FIELDS = ("n", "k", "z", "a", "b", "boundary_value")


@dataclass(frozen=True, eq=False)
class GamowState:
    """Normalized resonant states on [0, R], one row per state, stored per segment.

    Row i is the state of signed label ``n[i]`` at wavenumber ``k[i]``: within
    segment j (local coordinate x from the segment's left edge) it is
    ``a[i, j] cos(q x) + b[i, j] sin(q x)/q`` with q^2 = z[i, j], and
    ``boundary_value[i]`` is u(R).  The arrays are read-only views, so the
    cached :attr:`pairing` stays true; a slice or an index array selects rows.
    """

    n: np.ndarray
    k: np.ndarray
    r_edges: np.ndarray
    z: np.ndarray
    a: np.ndarray
    b: np.ndarray
    boundary_value: np.ndarray

    def __post_init__(self) -> None:
        for f in fields(self):
            view = np.asarray(getattr(self, f.name)).view()
            view.flags.writeable = False
            object.__setattr__(self, f.name, view)

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, rows: slice | np.ndarray) -> GamowState:
        return replace(self, **{f: getattr(self, f)[rows] for f in _ROW_FIELDS})

    @cached_property
    def pairing(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``(own, source, mirror)``: row ``mirror[i]`` is the exact
        conjugate of row ``source[i]`` in all of z, a and b; ``own`` holds the rest.

        Pairs follow the stored values, not the labels, so a relabelled state
        or an unpaired mirror is simply evaluated.  Values compare as numbers
        (+0 equals -0): a zero's sign can only reach a zero part of a state
        value, which :func:`_state_values` evaluates directly.
        """
        # adding 0 turns -0 into +0, so the keys compare values
        rows = np.concatenate([self.z, self.a, self.b], axis=1) + 0.0
        waiting: dict[bytes, list[int]] = {}
        source, mirror = [], []
        for i, row in enumerate(rows):
            partners = waiting.get((np.conj(row) + 0.0).tobytes())
            if partners:
                source.append(partners.pop())
                mirror.append(i)
            else:
                waiting.setdefault(row.tobytes(), []).append(i)
        mirror_arr = np.array(mirror, dtype=int)
        own = np.setdiff1d(np.arange(len(self)), mirror_arr)
        return own, np.array(source, dtype=int), mirror_arr

    def evaluate(self, r: np.ndarray | float) -> np.ndarray:
        """u(r) for r in [0, R]: one row per state, each of r's shape."""
        r_arr = np.asarray(r, dtype=float)
        idx, x = _locate(self.r_edges, r_arr.ravel())
        return _state_values(self, idx, x).reshape(len(self), *r_arr.shape)


# States x points per block when many states are evaluated at once: keeps
# each kernel array near 1 MB.  The quadrature sums add block by block, so
# this size is part of their rounding.
_FIELD_BLOCK = 1 << 16
# weighted_field's block: its sums are per point, so the blocking changes
# no bit.  A block's arrays hold at most 8,192 complex values (128 KiB), so
# glibc serves them from freed heap, not from fresh pages: the N = 160
# moment_sum_quadrature call of tail-wide took 11.7k minor page faults and
# 71 ms at 1 << 15, and 105 faults and 54 ms at 1 << 13 (medians of 12
# interleaved calls in one process on a 2-vCPU host; same value bits).
_WEIGHTED_BLOCK = 1 << 13
# Entries per block of rows of the closed overlap matrix: the block's few
# temporaries (256 KB each) are all that its build holds beyond the matrix.
_OVERLAP_BLOCK = 1 << 14
# Pole pairs an expansion may hold.  Its closed overlap matrix takes
# 64 N^2 bytes, 420 MB at this cap, where the reference shell's build peaked
# at 466 MB RSS in 0.4 s on a 2-vCPU host (1,280 pairs: 165 MB, 0.13 s).
# A P(t) or tail pass streams over the matrix and adds only a few chunk
# buffers: at 1,280 pairs, probability_sums over 8 samples peaked 2.8 MB
# above its inputs in tracemalloc (1.2 s) and tail_expansion 2.9 MB (1.0 s).
_MAX_PAIRS = 2_560
# Doubling the quadrature panels may move a Gram entry by at most this,
# relative to its magnitude (absolutely, below magnitude 1).
_GRAM_RTOL = 1e-10


def _locate(r_edges: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment index of each radius and its offset from the segment's left edge.

    Raises
    ------
    DomainError
        If a radius lies outside [0, R].
    """
    radius = float(r_edges[-1])
    if np.any(r < -1e-12) or np.any(r > radius * (1.0 + 1e-12) + 1e-12):
        raise DomainError("state evaluation outside [0, R]")
    idx = np.clip(np.searchsorted(r_edges, r, side="right") - 1, 0, len(r_edges) - 2)
    return idx, r - r_edges[idx]


def _odd(values: np.ndarray) -> np.ndarray:
    """Entries with a zero or a non-finite part."""
    return (values.real == 0) | (values.imag == 0) | ~np.isfinite(values)


def _redo_odd(
    states: GamowState, values: np.ndarray, rows: np.ndarray, idx: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``values`` (state ``rows`` x points at segment ``idx``, offset ``x``)
    with each :func:`_odd` entry evaluated directly as a C + b S."""
    parts = np.abs(np.ascontiguousarray(values).view(float))
    if not parts.size or (parts.min() > 0.0 and parts.max() < np.inf):
        return values  # no zero, inf or NaN part (a NaN fails both tests)
    i, j = np.nonzero(_odd(values))
    rows, seg = rows[i], idx[j]
    c, s = kernels(states.z[rows, seg], x[j])
    values[i, j] = states.a[rows, seg] * c + states.b[rows, seg] * s
    return values


def _state_values(states: GamowState, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u_m at the located points (segment ``idx``, offset ``x``), one row per state.

    This is where every state value is formed.  The kernels run only for
    the own rows of :attr:`GamowState.pairing`, segment by segment: that
    segment's points meet the (own states x 1) columns of its z, a and b,
    so each state takes one square root per segment, and points all in one
    segment are neither gathered nor scattered.  Each mirror row is the
    conjugate of its source row.

    On a segment where a = 0 for every own row, as on the first (u(0) = 0),
    the cosine kernel is not evaluated and the value is b S: where C is
    finite, a C is a pair of signed zeros and adding it keeps the bits of
    b S.  Conjugation keeps the bits of a direct evaluation too.  Both can
    differ only where the value has a zero (whose sign may differ) or a
    non-finite part, so those entries are evaluated directly as a C + b S.
    """
    out = np.empty((len(states), idx.size), dtype=complex)
    own, source, mirror = states.pairing
    segs = np.unique(idx)
    for j in segs:
        cols = np.flatnonzero(idx == j) if len(segs) > 1 else slice(None)
        a = states.a[own, j, None]
        sine_only = not a.any()
        c, s = kernels(states.z[own, j, None], x[cols], cosine=not sine_only)
        np.multiply(states.b[own, j, None], s, out=s)
        if sine_only:
            values = _redo_odd(states, s, own, idx[cols], x[cols])
        else:
            values = np.add(np.multiply(a, c, out=c), s, out=c)
        out[np.ix_(own, cols) if len(segs) > 1 else own] = values
    if mirror.size:
        mirrored = out[source]
        np.conjugate(mirrored, out=mirrored)
        out[mirror] = _redo_odd(states, mirrored, mirror, idx, x)
    return out


def _normalization(states: GamowState) -> tuple[np.ndarray, np.ndarray]:
    """``int_0^R u^2 dr + i u(R)^2 / (2k)`` for each row of the table, and the
    sum of the magnitudes of its terms (one per segment, and the surface)."""
    z, a, b, u_r = states.z, states.a, states.b, states.boundary_value
    norm2 = np.zeros(len(states), dtype=complex)
    scale = np.zeros(len(states))
    for j, length in enumerate(np.diff(states.r_edges)):
        part = product_integral(length, z[:, j], a[:, j], b[:, j], z[:, j], a[:, j], b[:, j])
        norm2 += part
        scale += np.abs(part)
    surface = 1j * u_r * u_r / (2.0 * states.k)
    return norm2 + surface, scale + np.abs(surface)


def _build_states(potential: Potential, n: np.ndarray, k: np.ndarray) -> GamowState:
    """The table of normalized resonant states of labels n at wavenumbers k.

    One regular-solution pass gives every wavenumber's segment rows at
    once, and the normalization integrals take one array-valued product
    integral per segment.

    Raises
    ------
    ZeroWavenumber
        If a pole wavenumber vanishes (normalization divides by k).
    NormalizationSingular
        If a normalization integral vanishes (degenerate pole).
    """
    ks = np.asarray(k, dtype=complex)
    if np.any(ks == 0):
        raise ZeroWavenumber("cannot normalize a zero-wavenumber state")
    edges = np.array([0.0] + [r_end for _, r_end, _ in segments(potential)])
    z, a, b, (u, _) = regular_solutions(potential, ks)
    raw = GamowState(np.asarray(n, dtype=int), ks, edges, z, a, b, u)
    norm2, scale = _normalization(raw)
    for i in np.flatnonzero(np.abs(norm2) <= 1e-10 * np.maximum(scale, 1e-300))[:1]:
        raise NormalizationSingular(f"normalization integral vanishes at k = {ks[i]:.6g}")
    norm = np.sqrt(norm2)
    return replace(raw, a=a / norm[:, None], b=b / norm[:, None], boundary_value=u / norm)


def _quadrature_gram(states: GamowState) -> np.ndarray:
    """Panel Gauss-Legendre matrix ``G[i, j] = int_0^R conj(u_j) u_i dr``.

    All states share one set of panels per segment, sized to at most half an
    oscillation of the fastest product (frequency 2 max|k|), so each entry
    gets at least the panels its own pair would need.  Per segment and block
    of nodes the sum is one matrix product ``(U w) @ U^H``.  The panel count
    is then doubled once as an a-posteriori error check on every entry; the
    upper triangle is filled by Hermitian symmetry of the integral.

    Raises
    ------
    ToleranceNotMet
        If doubling the panels moves an entry by more than ``_GRAM_RTOL``
        relative to its magnitude (or absolutely, below magnitude 1).
    """
    edges = states.r_edges
    freq = 2.0 * np.max(np.abs(states.k))
    m = len(states)
    step = max(1, _FIELD_BLOCK // m)

    def eval_panels(mult: int) -> np.ndarray:
        total = np.zeros((m, m), dtype=complex)
        for j in range(len(edges) - 1):
            lo, hi = float(edges[j]), float(edges[j + 1])
            n_panels = mult * (int(freq * (hi - lo) / np.pi) + 1)
            nodes, weights = panel_nodes(lo, hi, n_panels)
            for p0 in range(0, len(nodes), step):
                sl = slice(p0, p0 + step)
                u = states.evaluate(nodes[sl])
                total += (u * weights[sl]) @ u.conj().T
        return total

    coarse, fine = eval_panels(1), eval_panels(2)
    delta = np.abs(fine - coarse)
    bad = delta > _GRAM_RTOL * np.maximum(np.abs(fine), 1.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ToleranceNotMet(
            f"overlap quadrature unconverged: |delta| = {delta[i, j]:.3e} "
            f"at k_ket = {states.k[i]:.6g}, k_bra = {states.k[j]:.6g}"
        )
    fine = np.tril(fine) + np.tril(fine, -1).conj().T
    np.fill_diagonal(fine, fine.diagonal().real)
    return fine


def overlap_quadrature(ket: GamowState, bra: GamowState) -> complex:
    """Panel Gauss-Legendre evaluation of ``int_0^R conj(u_bra) u_ket dr``.

    The two-state case of the quadrature overlap matrix (see
    :func:`overlap_matrix`), for one-row tables ``ket`` and ``bra``.

    Raises
    ------
    ConfigError
        If the two states come from different segmentations.
    ToleranceNotMet
        If doubling the panels moves the value by more than ``_GRAM_RTOL``
        relative to its magnitude.
    """
    if not np.array_equal(ket.r_edges, bra.r_edges):
        raise ConfigError("overlap of states from different segmentations")
    both = {f: np.concatenate([getattr(ket, f), getattr(bra, f)]) for f in _ROW_FIELDS}
    return complex(_quadrature_gram(replace(ket, **both))[0, 1])


def _coefficients_quadrature(states: GamowState, psi0: InitialState) -> np.ndarray:
    """C = int psi0 u dr for every state by Gauss-Legendre panels (no conjugation).

    All states share one set of panels between the breakpoints of the
    segmentation and of psi0, sized for the largest |k|, so each state gets
    at least the panels it would need alone.
    """
    edges = states.r_edges
    k_max = np.max(np.abs(states.k))
    if isinstance(psi0, BoxMode):
        cuts, support = [psi0.radius], psi0.radius
        # kink-free integrand: panels follow the product's oscillation
        per_length = (k_max + np.pi * psi0.mode / psi0.radius) / np.pi
    else:
        cuts, support = psi0.r_grid.tolist(), float(psi0.r_grid[-1])
        per_length = k_max / 2.0
    top = min(support, float(edges[-1])) + 1e-15
    pts = sorted(b for b in {*edges.tolist(), *cuts} if 0.0 <= b <= top)
    panels = [
        panel_nodes(lo, hi, int(per_length * (hi - lo)) + 1, order=12)
        for lo, hi in zip(pts[:-1], pts[1:])
        if hi - lo > 1e-15
    ]
    nodes = np.concatenate([x for x, _ in panels])
    weights = np.concatenate([w for _, w in panels]) * initial_wavefunction(psi0, nodes)
    total = np.zeros(len(states), dtype=complex)
    step = max(1, _FIELD_BLOCK // len(states))
    for p0 in range(0, len(nodes), step):
        sl = slice(p0, p0 + step)
        total += states.evaluate(nodes[sl]) @ weights[sl]
    return total


def _coefficients_closed(states: GamowState, psi0: BoxMode) -> np.ndarray:
    """Closed form of ``int psi0 u dr`` for a hard-box eigenmode, every state at once."""
    edges, z, a, b = states.r_edges, states.z, states.a, states.b
    kappa = np.pi * psi0.mode / psi0.radius
    amp = np.sqrt(2.0 / psi0.radius)
    total = np.zeros(len(states), dtype=complex)
    for j in range(len(edges) - 1):
        lo = float(edges[j])
        hi = min(float(edges[j + 1]), psi0.radius)
        if hi - lo <= 1e-15:
            continue
        # psi0(lo + x) = amp sin(kappa lo) cos(kappa x) + amp kappa cos(kappa lo) sinc
        a_mode = amp * np.sin(kappa * lo)
        b_mode = amp * kappa * np.cos(kappa * lo)
        total += product_integral(
            hi - lo, z[:, j], a[:, j], b[:, j], kappa * kappa, a_mode, b_mode
        )
    return total


def _coefficients(states: GamowState, psi0: InitialState) -> np.ndarray:
    """Expansion coefficients ``C = int_0^R psi0(r) u(r) dr`` (no conjugate).

    In closed form for a box mode, by panel quadrature for a sampled state;
    a state of either kind reaching past R is refused.
    """
    if support_radius(psi0) > states.r_edges[-1] * (1.0 + 1e-12):
        raise InvalidState("initial state extends beyond the potential range")
    if isinstance(psi0, BoxMode):
        return _coefficients_closed(states, psi0)
    return _coefficients_quadrature(states, psi0)


def overlap_matrix(states: GamowState, method: str = "closed") -> np.ndarray:
    """Matrix ``I[i, j] = int conj(u_j) u_i dr`` over a state table.

    "closed" uses the boundary-value formulas (with the anti-diagonal
    normalization identity) in blocks of rows, so no temporary is
    matrix-sized; "quadrature" integrates all pairs at once on
    shared panels, filling the upper triangle by Hermitian symmetry of the
    integral.
    """
    if method not in ("closed", "quadrature"):
        raise ConfigError(f"unknown overlap method {method!r}")
    if method == "closed":
        ks, u_r = states.k, states.boundary_value
        mat = np.empty((len(states), len(states)), dtype=complex)
        step = max(1, _OVERLAP_BLOCK // max(1, len(states)))
        for i0 in range(0, len(states), step):
            rows = slice(i0, i0 + step)
            # numpy may reuse the bracket in place, as bracket * 1j; every
            # product by 1j is exact, so that swap moves no bit
            mat[rows] = u_r[rows, None] * np.conj(u_r)[None, :] / (
                1j * (ks[rows, None] - np.conj(ks)[None, :])
            )
        for i, j in zip(*np.intersect1d(states.n, -states.n, return_indices=True)[1:]):  # n, -n
            mat[i, j] = 1.0 - 1j * u_r[i] * u_r[i] / (2.0 * ks[i])
        return mat
    return _quadrature_gram(states)


@dataclass(frozen=True, eq=False)
class ExpansionData:
    """Everything needed to evaluate the resonant expansion of one state.

    Rows are ordered by signed index n = -N..-1, 1..N (mirrors first);
    ``overlap[i, j]`` is ``int conj(u_j) u_i dr`` in that ordering.  The
    labels, wavenumbers and u(R) live in ``states`` alone.
    """

    coefficients: np.ndarray
    overlap: np.ndarray
    states: GamowState

    @property
    def n_pairs(self) -> int:
        return len(self.states) // 2

    def truncate(self, n_pairs: int) -> "ExpansionData":
        """Restrict to |n| <= n_pairs (symmetric truncation)."""
        big = self.n_pairs
        if not (1 <= n_pairs <= big):
            raise ConfigError(
                f"truncation {n_pairs} outside the built range 1..{big}"
            )
        if n_pairs == big:
            return self
        sl = slice(big - n_pairs, big + n_pairs)
        return ExpansionData(self.coefficients[sl], self.overlap[sl, sl], self.states[sl])


def _index_order(n_pairs: int) -> np.ndarray:
    """Row labels n = -N..-1, 1..N: mirrors first, so a truncation is a central slice."""
    return np.concatenate([np.arange(-n_pairs, 0), np.arange(1, n_pairs + 1)])


def build_expansion(
    potential: Potential,
    pole_set: PoleSet,
    psi0: InitialState,
    n_pairs: int | None = None,
) -> ExpansionData:
    """Assemble coefficients, boundary data, and the closed overlap matrix.

    All states are built in one batched pass, and so are their
    coefficients: in closed form for a :class:`BoxMode`, by quadrature for
    sampled data.  The quadrature route to the overlap matrix is
    ``dataclasses.replace(data, overlap=overlap_matrix(data.states,
    "quadrature"))``.

    The initial state must be normalized (checked to 1e-8).  Mirror-state
    coefficients are computed directly from the mirror states rather than by
    conjugation symmetry, so complex initial data is handled correctly; for
    real data the expected relation C_{-n} = conj(C_n) emerges and is worth
    asserting in tests rather than assuming here.
    """
    n_pairs = len(pole_set) if n_pairs is None else int(n_pairs)
    if not (1 <= n_pairs <= len(pole_set)):
        raise ConfigError(
            f"requested {n_pairs} pole pairs but the set holds {len(pole_set)}"
        )
    if n_pairs > _MAX_PAIRS:
        raise ConfigError(f"{n_pairs} pole pairs exceed the cap of {_MAX_PAIRS}")
    norm = state_norm(psi0)
    if abs(norm - 1.0) > 1e-8:
        raise InvalidState(
            f"initial state must be normalized: ||psi0||^2 = {norm:.12g}"
        )
    labels = _index_order(n_pairs)
    states = _build_states(potential, labels, pole_set.pole(labels))
    return ExpansionData(
        coefficients=_coefficients(states, psi0),
        overlap=overlap_matrix(states, "closed"),
        states=states,
    )


def weighted_field(
    data: ExpansionData, r: np.ndarray | float, weights: np.ndarray
) -> np.ndarray | complex:
    """sum_m weights[m] u_m(r) over the expansion's states, vectorized in r.

    The points are taken in blocks, each block evaluating every state with
    a nonzero weight at once, so both states of a mirror pair share the
    kernel work (see :func:`_state_values`).  At each point one reduce over
    the block's rows, which numpy adds row by row, sums the terms in state
    order, so the result is the same, bit for bit, as adding
    ``weights[m] u_m(r)`` one state at a time to a zero.
    """
    if len(weights) != len(data.states):
        raise ConfigError("one weight per state required")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float)).ravel()
    acc = np.zeros(r_arr.shape, dtype=complex)
    live = np.flatnonzero(np.asarray(weights) != 0)
    if live.size:
        states = data.states if live.size == len(weights) else data.states[live]
        idx, x = _locate(states.r_edges, r_arr)
        live_weights = np.asarray(weights)[live][:, None]
        step = max(1, _WEIGHTED_BLOCK // live.size)
        for p0 in range(0, r_arr.size, step):
            sl = slice(p0, p0 + step)
            terms = _state_values(states, idx[sl], x[sl])
            np.multiply(live_weights, terms, out=terms)
            # adding to the zero turns a zero sum's -0 into +0, as the loop did
            acc[sl] += np.add.reduce(terms, axis=0)
    if np.ndim(r) == 0:
        return complex(acc[0])
    return acc.reshape(np.shape(r))


def sum_rule_residual(data: ExpansionData, r: np.ndarray | float) -> np.ndarray | complex:
    """S_N(r) = sum_{|n| <= N} C_n u_n(r) / k_n, which must tend to 0.

    For real initial data S_N is purely imaginary, so Re S_N vanishes
    identically and the convergence content lives in Im S_N.
    """
    return weighted_field(data, r, data.coefficients / data.states.k)


def reconstruct_initial(data: ExpansionData, r: np.ndarray | float) -> np.ndarray | complex:
    """Partial expansion (1/2) sum_{|n| <= N} C_n u_n(r) of the initial state."""
    return weighted_field(data, r, 0.5 * data.coefficients)
