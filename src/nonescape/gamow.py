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

from dataclasses import dataclass

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
)
from .poles import PoleSet, ResonancePole
from .segmath import kernels, panel_nodes, product_integral, propagate

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


@dataclass(frozen=True, eq=False)
class GamowState:
    """One normalized resonant state on [0, R], stored per segment.

    Within segment j (local coordinate x from the segment's left edge) the
    state is ``a[j] cos(q_j x) + b[j] sin(q_j x)/q_j`` with q_j^2 = z[j].
    """

    pole: ResonancePole
    r_edges: np.ndarray
    z: np.ndarray
    a: np.ndarray
    b: np.ndarray
    boundary_value: complex  # u(R)

    @property
    def k(self) -> complex:
        return self.pole.k

    @property
    def radius(self) -> float:
        return float(self.r_edges[-1])

    def evaluate(self, r: np.ndarray | float) -> np.ndarray | complex:
        """u(r) for r in [0, R], vectorized (through :func:`_state_values`)."""
        r_arr = np.asarray(r, dtype=float)
        idx, x = _locate(self.r_edges, r_arr.ravel())
        val = _state_values(_stack((self,)), idx, x)[0].reshape(r_arr.shape)
        if np.ndim(r) == 0:
            return complex(val)
        return val


# States x points per block when many states are evaluated at once: keeps
# each kernel array near 1 MB.  The quadrature sums add block by block, so
# this size is part of their rounding.
_FIELD_BLOCK = 1 << 16
# weighted_field's block: its sums are per point, so the blocking changes
# no bit, and half the block above keeps a block's values, S and pre-check
# parts within a 2 MB L2 cache (on such a host the N = 160 field of
# tail-wide took 78 ms at 1 << 16 and 59 ms at 1 << 15).
_WEIGHTED_BLOCK = 1 << 15
# Entries per block of rows of the closed overlap matrix: the block's few
# temporaries (256 KB each) are all that its build holds beyond the matrix.
_OVERLAP_BLOCK = 1 << 14
# Pole pairs an expansion may hold.  Its closed overlap matrix takes
# 64 N^2 bytes, 420 MB at this cap, where the reference shell's build peaked
# at 466 MB RSS in 0.4 s on a 2-vCPU host (1,280 pairs: 165 MB, 0.13 s).
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


@dataclass(frozen=True)
class _StateStack:
    """Segment data of a state list, one row per state, and its mirror pairs.

    Row ``mirror[i]`` holds the exact conjugate of row ``source[i]`` in all
    of z, a and b (as values: +0 equals -0); ``own`` lists the rows that are
    not such a mirror.
    """

    z: np.ndarray
    a: np.ndarray
    b: np.ndarray
    own: np.ndarray
    source: np.ndarray
    mirror: np.ndarray


def _stack(states: tuple[GamowState, ...] | list[GamowState]) -> _StateStack:
    """Stack the segment data of ``states`` and pair each state with its mirror.

    Pairs are decided from the stored values of (z, a, b), not from the
    pole labels, so a relabelled pole or an unpaired mirror is simply
    evaluated.  The values compare as numbers (+0 equals -0): the sign of a
    zero in the data can only reach a zero part of a state value, and
    :func:`_state_values` evaluates those entries directly.
    """
    z = np.array([s.z for s in states])
    a = np.array([s.a for s in states])
    b = np.array([s.b for s in states])
    # adding 0 turns -0 into +0, so the keys compare values
    rows = np.concatenate([z, a, b], axis=1) + 0.0
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
    own = np.setdiff1d(np.arange(len(states)), mirror_arr)
    return _StateStack(z, a, b, own, np.array(source, dtype=int), mirror_arr)


def _odd(values: np.ndarray) -> np.ndarray:
    """Entries with a zero or a non-finite part."""
    return (values.real == 0) | (values.imag == 0) | ~np.isfinite(values)


def _redo_odd(
    stack: _StateStack, values: np.ndarray, rows: np.ndarray, idx: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """``values`` (state ``rows`` x points at segment ``idx``, offset ``x``)
    with each :func:`_odd` entry evaluated directly as a C + b S."""
    parts = np.abs(np.ascontiguousarray(values).view(float))
    if not parts.size or (parts.min() > 0.0 and parts.max() < np.inf):
        return values  # no zero, inf or NaN part (a NaN fails both tests)
    i, j = np.nonzero(_odd(values))
    rows, seg = rows[i], idx[j]
    c, s = kernels(stack.z[rows, seg], x[j])
    values[i, j] = stack.a[rows, seg] * c + stack.b[rows, seg] * s
    return values


def _state_values(stack: _StateStack, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u_m at the located points (segment ``idx``, offset ``x``), one row per state.

    This is where every state value is formed.  The kernels run only for
    the rows in ``stack.own``, segment by segment: that segment's points
    meet the (own states x 1) columns of its z, a and b, so each state
    takes one square root per segment, and points all in one segment are
    neither gathered nor scattered.  Each mirror row is the conjugate of
    its source row.

    On a segment where a = 0 for every own row, as on the first (u(0) = 0),
    the cosine kernel is not evaluated and the value is b S: where C is
    finite, a C is a pair of signed zeros and adding it keeps the bits of
    b S.  Conjugation keeps the bits of a direct evaluation too.  Both can
    differ only where the value has a zero (whose sign may differ) or a
    non-finite part, so those entries are evaluated directly as a C + b S.
    """
    out = np.empty((len(stack.z), idx.size), dtype=complex)
    own = stack.own
    segs = np.unique(idx)
    for j in segs:
        cols = np.flatnonzero(idx == j) if len(segs) > 1 else slice(None)
        a = stack.a[own, j, None]
        sine_only = not a.any()
        c, s = kernels(stack.z[own, j, None], x[cols], cosine=not sine_only)
        np.multiply(stack.b[own, j, None], s, out=s)
        if sine_only:
            values = _redo_odd(stack, s, own, idx[cols], x[cols])
        else:
            values = np.add(np.multiply(a, c, out=c), s, out=c)
        out[np.ix_(own, cols) if len(segs) > 1 else own] = values
    if stack.mirror.size:
        mirrored = out[stack.source]
        np.conjugate(mirrored, out=mirrored)
        out[stack.mirror] = _redo_odd(stack, mirrored, stack.mirror, idx, x)
    return out


def _normalization(
    edges: np.ndarray, k: np.ndarray, z: np.ndarray, a: np.ndarray, b: np.ndarray,
    u_r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``int_0^R u^2 dr + i u(R)^2 / (2k)`` for each row of segment coefficients,
    and the sum of the magnitudes of its terms (one per segment, and the surface)."""
    norm2 = np.zeros(len(k), dtype=complex)
    scale = np.zeros(len(k))
    for j in range(z.shape[1]):
        length = edges[j + 1] - edges[j]
        part = product_integral(length, z[:, j], a[:, j], b[:, j], z[:, j], a[:, j], b[:, j])
        norm2 += part
        scale += np.abs(part)
    surface = 1j * u_r * u_r / (2.0 * k)
    return norm2 + surface, scale + np.abs(surface)


def _build_states(
    potential: Potential, poles: list[ResonancePole]
) -> tuple[GamowState, ...]:
    """Normalized resonant states for all ``poles`` in one pass.

    The regular solutions u(0) = 0, u'(0) = 1 are propagated through the
    segments for every wavenumber at once, and the normalization integrals
    take one array-valued product integral per segment.

    Raises
    ------
    ZeroWavenumber
        If a pole wavenumber vanishes (normalization divides by k).
    NormalizationSingular
        If a normalization integral vanishes (degenerate pole).
    """
    ks = np.array([complex(p.k) for p in poles])
    if np.any(ks == 0):
        raise ZeroWavenumber("cannot normalize a zero-wavenumber state")
    segs = segments(potential)
    edges = np.array([0.0] + [r_end for _, r_end, _ in segs])
    z = np.empty((len(ks), len(segs)), dtype=complex)
    a = np.empty_like(z)
    b = np.empty_like(z)
    u, du = np.zeros_like(ks), np.ones_like(ks)
    for j, (r_start, r_end, height) in enumerate(segs):
        z[:, j], a[:, j], b[:, j] = ks * ks - height, u, du
        u, du = propagate(u, du, z[:, j], r_end - r_start)
    norm2, scale = _normalization(edges, ks, z, a, b, u)
    for i in np.flatnonzero(np.abs(norm2) <= 1e-10 * np.maximum(scale, 1e-300))[:1]:
        raise NormalizationSingular(
            f"normalization integral vanishes at k = {ks[i]:.6g}"
        )
    norm = np.sqrt(norm2)
    a, b, u = a / norm[:, None], b / norm[:, None], u / norm
    return tuple(
        GamowState(pole=p, r_edges=edges, z=z[i], a=a[i], b=b[i], boundary_value=complex(u[i]))
        for i, p in enumerate(poles)
    )


def _quadrature_gram(states: tuple[GamowState, ...]) -> np.ndarray:
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
    edges = states[0].r_edges
    if any(not np.array_equal(s.r_edges, edges) for s in states):
        raise ConfigError("overlap of states from different segmentations")
    freq = 2.0 * max(abs(s.k) for s in states)
    m = len(states)
    step = max(1, _FIELD_BLOCK // m)
    stack = _stack(states)

    def eval_panels(mult: int) -> np.ndarray:
        total = np.zeros((m, m), dtype=complex)
        for j in range(len(edges) - 1):
            lo, hi = float(edges[j]), float(edges[j + 1])
            n_panels = mult * (int(freq * (hi - lo) / np.pi) + 1)
            nodes, weights = panel_nodes(lo, hi, n_panels)
            for p0 in range(0, len(nodes), step):
                sl = slice(p0, p0 + step)
                u = _state_values(stack, *_locate(edges, nodes[sl]))
                total += (u * weights[sl]) @ u.conj().T
        return total

    coarse = eval_panels(1)
    fine = eval_panels(2)
    delta = np.abs(fine - coarse)
    bad = delta > _GRAM_RTOL * np.maximum(np.abs(fine), 1.0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ToleranceNotMet(
            f"overlap quadrature unconverged: |delta| = {delta[i, j]:.3e} "
            f"at k_ket = {states[i].k:.6g}, k_bra = {states[j].k:.6g}"
        )
    fine = np.tril(fine) + np.tril(fine, -1).conj().T
    np.fill_diagonal(fine, fine.diagonal().real)
    return fine


def overlap_quadrature(ket: GamowState, bra: GamowState) -> complex:
    """Panel Gauss-Legendre evaluation of ``int_0^R conj(u_bra) u_ket dr``.

    The two-state case of the quadrature overlap matrix (see
    :func:`overlap_matrix`).

    Raises
    ------
    ToleranceNotMet
        If doubling the panels moves the value by more than ``_GRAM_RTOL``
        relative to its magnitude.
    """
    return complex(_quadrature_gram((ket, bra))[0, 1])


def _coefficients_quadrature(
    states: tuple[GamowState, ...], psi0: InitialState
) -> np.ndarray:
    """C = int psi0 u dr for every state by Gauss-Legendre panels (no conjugation).

    All states share one set of panels between the breakpoints of the
    segmentation and of psi0, sized for the largest |k|, so each state gets
    at least the panels it would need alone.
    """
    edges = states[0].r_edges
    k_max = max(abs(s.k) for s in states)
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
    stack = _stack(states)
    step = max(1, _FIELD_BLOCK // len(states))
    for p0 in range(0, len(nodes), step):
        sl = slice(p0, p0 + step)
        total += _state_values(stack, *_locate(edges, nodes[sl])) @ weights[sl]
    return total


def _coefficients_closed(states: tuple[GamowState, ...], psi0: BoxMode) -> np.ndarray:
    """Closed form of ``int psi0 u dr`` for a hard-box eigenmode, every state at once."""
    edges = states[0].r_edges
    z = np.array([s.z for s in states])
    a = np.array([s.a for s in states])
    b = np.array([s.b for s in states])
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


def _coefficients(states: tuple[GamowState, ...], psi0: InitialState) -> np.ndarray:
    """Expansion coefficients ``C = int_0^R psi0(r) u(r) dr`` (no conjugate).

    In closed form for a box mode, by panel quadrature for a sampled state.
    """
    if not isinstance(psi0, BoxMode):
        return _coefficients_quadrature(states, psi0)
    if psi0.radius > states[0].radius * (1.0 + 1e-12):
        raise InvalidState("initial state extends beyond the potential range")
    return _coefficients_closed(states, psi0)


def overlap_matrix(states: tuple[GamowState, ...], method: str = "closed") -> np.ndarray:
    """Matrix ``I[i, j] = int conj(u_j) u_i dr`` over a state list.

    "closed" uses the boundary-value formulas (with the anti-diagonal
    normalization identity) in blocks of rows, so no temporary is
    matrix-sized; "quadrature" integrates all pairs at once on
    shared panels, filling the upper triangle by Hermitian symmetry of the
    integral.
    """
    if method not in ("closed", "quadrature"):
        raise ConfigError(f"unknown overlap method {method!r}")
    if method == "closed":
        ks = np.array([s.k for s in states])
        u_r = np.array([s.boundary_value for s in states])
        mat = np.empty((len(states), len(states)), dtype=complex)
        step = max(1, _OVERLAP_BLOCK // max(1, len(states)))
        for i0 in range(0, len(states), step):
            rows = slice(i0, i0 + step)
            mat[rows] = u_r[rows, None] * np.conj(u_r)[None, :] / (
                1j * (ks[rows, None] - np.conj(ks)[None, :])
            )
        index_of = {s.pole.n: i for i, s in enumerate(states)}
        for i, s in enumerate(states):
            j = index_of.get(-s.pole.n)
            if j is not None:
                mat[i, j] = 1.0 - 1j * u_r[i] * u_r[i] / (2.0 * ks[i])
        return mat
    return _quadrature_gram(states)


@dataclass(frozen=True, eq=False)
class ExpansionData:
    """Everything needed to evaluate the resonant expansion of one state.

    Arrays are ordered by signed index n = -N..-1, 1..N (mirrors first);
    ``overlap[i, j]`` is ``int conj(u_j) u_i dr`` in that ordering.
    """

    potential: Potential
    psi0: InitialState
    indices: np.ndarray
    wavenumbers: np.ndarray
    coefficients: np.ndarray
    boundary_values: np.ndarray
    overlap: np.ndarray
    states: tuple[GamowState, ...]
    overlap_method: str

    @property
    def n_pairs(self) -> int:
        return len(self.indices) // 2

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
        return ExpansionData(
            potential=self.potential,
            psi0=self.psi0,
            indices=self.indices[sl],
            wavenumbers=self.wavenumbers[sl],
            coefficients=self.coefficients[sl],
            boundary_values=self.boundary_values[sl],
            overlap=self.overlap[sl, sl],
            states=self.states[sl.start : sl.stop],
            overlap_method=self.overlap_method,
        )


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
    "quadrature"), overlap_method="quadrature")``.

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
    indices = PoleSet.index_order(n_pairs)
    states = _build_states(potential, [pole_set.pole(int(n)) for n in indices])
    coeffs = _coefficients(states, psi0)
    ks = np.array([s.k for s in states])
    u_r = np.array([s.boundary_value for s in states])
    mat = overlap_matrix(states, "closed")
    return ExpansionData(
        potential=potential,
        psi0=psi0,
        indices=indices,
        wavenumbers=ks,
        coefficients=coeffs,
        boundary_values=u_r,
        overlap=mat,
        states=states,
        overlap_method="closed",
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
    live = [m for m, w in enumerate(weights) if w != 0]
    if live:
        idx, x = _locate(data.states[0].r_edges, r_arr)
        stack = _stack([data.states[m] for m in live])
        live_weights = np.asarray(weights)[live][:, None]
        step = max(1, _WEIGHTED_BLOCK // len(live))
        for p0 in range(0, r_arr.size, step):
            sl = slice(p0, p0 + step)
            terms = _state_values(stack, idx[sl], x[sl])
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
    return weighted_field(data, r, data.coefficients / data.wavenumbers)


def reconstruct_initial(data: ExpansionData, r: np.ndarray | float) -> np.ndarray | complex:
    """Partial expansion (1/2) sum_{|n| <= N} C_n u_n(r) of the initial state."""
    return weighted_field(data, r, 0.5 * data.coefficients)
