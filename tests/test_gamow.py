from __future__ import annotations

import cmath
import dataclasses
import tracemalloc

import numpy as np
import pytest
from _oracles import one_state, same_bits, state_residuals, state_values_per_state
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonescape.cli import load_config
from nonescape.errors import (
    ConfigError,
    InvalidState,
    NormalizationSingular,
    ToleranceNotMet,
    ZeroWavenumber,
)
from nonescape import gamow
from nonescape.gamow import (
    ExpansionData,
    GamowState,
    _build_states,
    _coefficients_closed,
    _coefficients_quadrature,
    _index_order,
    _locate,
    _quadrature_gram,
    _state_values,
    build_expansion,
    overlap_matrix,
    overlap_quadrature,
    reconstruct_initial,
    sum_rule_residual,
    weighted_field,
)
from nonescape.model import (
    BoxMode,
    DeltaShell,
    PiecewiseConstant,
    Sampled,
    initial_wavefunction,
    normalized,
    segments,
)
from nonescape.poles import PoleSet, SearchWindow, locate_poles
from nonescape.segmath import panel_nodes, regular_solutions

_REFERENCE = load_config(None)
REFERENCE_POTENTIAL, REFERENCE_STATE = _REFERENCE.potential, _REFERENCE.psi0

# Frozen reconstruction errors max_r |psi_N(r) - psi0(r)| on r in (0, 1) for
# the reference problem (shell lam = 6, R = 1, psi0 = lowest box mode).
_RECONSTRUCTION_ERR = {5: 0.1799, 10: 0.0609, 20: 0.0622, 40: 0.0329}


def test_state_satisfies_defining_equations(pole_set: PoleSet) -> None:
    for n in (1, 5, 40):
        residuals = state_residuals(REFERENCE_POTENTIAL, n, pole_set.pole(n))
        ode, origin, outgoing, normalization = residuals
        assert ode <= 1e-6
        assert origin <= 1e-12
        assert outgoing <= 1e-8
        assert normalization <= 1e-10


def test_state_is_sine_inside_delta_shell(pole_set: PoleSet) -> None:
    # With a free interior the regular solution is proportional to sin(k r).
    state = one_state(REFERENCE_POTENTIAL, 2, pole_set.pole(2))
    k = state.k[0]
    r = np.linspace(0.05, 0.95, 13)
    (vals,) = state.evaluate(r)
    ratio = vals / np.sin(k * r)
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-12 * abs(ratio[0])
    assert state.evaluate(0.0).shape == (1,)
    assert state.evaluate(0.0)[0] == 0.0
    assert state.evaluate(1.0)[0] == pytest.approx(state.boundary_value[0], rel=1e-13)


def test_mirror_state_is_conjugate(pole_set: PoleSet) -> None:
    plus = one_state(REFERENCE_POTENTIAL, 3, pole_set.pole(3))
    minus = one_state(REFERENCE_POTENTIAL, -3, pole_set.pole(-3))
    r = np.linspace(0.0, 1.0, 21)
    np.testing.assert_array_equal(minus.evaluate(r), np.conj(plus.evaluate(r)))
    np.testing.assert_array_equal(minus.boundary_value, plus.boundary_value.conj())


def test_build_state_rejects_zero_wavenumber(pole_set: PoleSet) -> None:
    with pytest.raises(ZeroWavenumber):
        one_state(REFERENCE_POTENTIAL, 1, 0.0 + 0.0j)


def test_build_state_rejects_vanishing_normalization(pole_set: PoleSet) -> None:
    # Inside the shell u = sin(k r)/k, so int_0^1 u^2 dr + i u(1)^2/(2k) is
    # (2k + i - i exp(-2ik)) / (4k^3).  Its zero near 3.73 + 1.04i, found by
    # Newton on the numerator, makes a fake pole whose state cannot be
    # normalized.
    k = 3.7 + 1.0j
    for _ in range(50):
        step = (2.0 * k + 1j - 1j * cmath.exp(-2j * k)) / (2.0 - 2.0 * cmath.exp(-2j * k))
        k -= step
        if abs(step) <= 1e-15 * abs(k):
            break
    assert abs(k - (3.73 + 1.04j)) <= 0.01
    with pytest.raises(NormalizationSingular, match="normalization integral vanishes"):
        one_state(REFERENCE_POTENTIAL, 2, k)
    with pytest.raises(NormalizationSingular):
        build_expansion(
            REFERENCE_POTENTIAL,
            PoleSet(np.array([pole_set.pole(1), k]), np.zeros(2), np.ones(2)),
            REFERENCE_STATE,
        )


def test_quadrature_routes_evaluate_through_the_state_table(
    pole_set: PoleSet, monkeypatch: pytest.MonkeyPatch
) -> None:
    # the Gram matrix and the sampled-state coefficients form their state
    # values in GamowState.evaluate, one call per block of nodes
    ns = np.array([-2, -1, 1, 2])
    states = _build_states(REFERENCE_POTENTIAL, ns, pole_set.pole(ns))
    calls = []
    original = GamowState.evaluate

    def spy(self, r):
        calls.append(np.size(r))
        return original(self, r)

    monkeypatch.setattr(GamowState, "evaluate", spy)
    overlap_matrix(states, "quadrature")
    assert len(calls) >= 2  # the panels, then the panels doubled
    calls.clear()
    r = np.linspace(0.0, 1.0, 101)
    sampled = normalized(Sampled(r, np.asarray(initial_wavefunction(REFERENCE_STATE, r))))
    _coefficients_quadrature(states, sampled)
    assert calls


def test_tolerance_not_met_raised(pole_set: PoleSet, monkeypatch: pytest.MonkeyPatch) -> None:
    ns = np.array([1, 2])
    states = _build_states(REFERENCE_POTENTIAL, ns, pole_set.pole(ns))
    monkeypatch.setattr(gamow, "_GRAM_RTOL", 1e-20)
    with pytest.raises(ToleranceNotMet, match="overlap quadrature unconverged"):
        _quadrature_gram(states)


def test_overlap_closed_matches_quadrature(pole_set: PoleSet) -> None:
    ns = np.array([-4, -1, 1, 2, 4])
    states = _build_states(REFERENCE_POTENTIAL, ns, pole_set.pole(ns))
    closed = overlap_matrix(states, "closed")
    for i in range(len(ns)):
        for j in range(len(ns)):
            quad = overlap_quadrature(states[i : i + 1], states[j : j + 1])
            assert abs(closed[i, j] - quad) <= 1e-10 * max(1.0, abs(quad)), (ns[i], ns[j])


def test_overlap_anti_diagonal_from_normalization(pole_set: PoleSet) -> None:
    # l = -n: the Green's identity degenerates; the value follows from the
    # normalization rule int u^2 = 1 - i u(R)^2 / (2k).
    ns = np.array([2, -2])
    pair = _build_states(REFERENCE_POTENTIAL, ns, pole_set.pole(ns))
    expected = 1.0 - 1j * pair.boundary_value[0] ** 2 / (2.0 * pair.k[0])
    assert overlap_matrix(pair, "closed")[0, 1] == pytest.approx(expected, rel=1e-14)
    assert overlap_quadrature(pair[:1], pair[1:]) == pytest.approx(expected, rel=1e-9)


def test_closed_overlaps_are_built_in_row_blocks() -> None:
    # 300 pole pairs of the reference shell: the blocked build gives the
    # whole-array expression's bits and holds little beyond its result
    window = SearchWindow(re_max=300.5 * np.pi, im_min=-6.0)
    shell_poles = locate_poles(REFERENCE_POTENTIAL, window)
    order = _index_order(300)
    states = _build_states(REFERENCE_POTENTIAL, order, shell_poles.pole(order))
    tracemalloc.start()
    try:
        closed = overlap_matrix(states, "closed")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * closed.nbytes
    ks, u_r = states.k, states.boundary_value
    whole = u_r[:, None] * np.conj(u_r)[None, :] / (1j * (ks[:, None] - np.conj(ks)[None, :]))
    anti = (np.arange(order.size), np.arange(order.size)[::-1])  # pairs n, -n
    whole[anti] = closed[anti]  # the normalization entries, set after either build
    assert same_bits(closed, whole)


def test_overlap_matrix_routes_agree(data: ExpansionData) -> None:
    sub = data.truncate(6)
    closed = overlap_matrix(sub.states, "closed")
    quad = overlap_matrix(sub.states, "quadrature")
    assert np.max(np.abs(closed - quad)) <= 1e-8
    with pytest.raises(ConfigError, match="unknown overlap method"):
        overlap_matrix(sub.states, "exact")


def test_expansion_coefficient_methods_agree(pole_set: PoleSet) -> None:
    ns = np.array([1, 2, -1, 7])
    states = _build_states(REFERENCE_POTENTIAL, ns, pole_set.pole(ns))
    closed = _coefficients_closed(states, REFERENCE_STATE)
    quad = _coefficients_quadrature(states, REFERENCE_STATE)
    assert closed == pytest.approx(quad, rel=1e-9, abs=1e-12)


def test_expansion_coefficient_sampled_state(pole_set: PoleSet) -> None:
    # A sampled copy of the box mode takes the quadrature route and must
    # reproduce the closed-form coefficients to the sampling accuracy.
    r = np.linspace(0.0, 1.0, 2001)
    sampled = normalized(Sampled(r, np.asarray(initial_wavefunction(REFERENCE_STATE, r))))
    by_quadrature = build_expansion(REFERENCE_POTENTIAL, pole_set, sampled, n_pairs=3)
    closed = build_expansion(REFERENCE_POTENTIAL, pole_set, REFERENCE_STATE, n_pairs=3)
    np.testing.assert_allclose(by_quadrature.coefficients, closed.coefficients, rtol=1e-6)


def test_expansion_mirror_coefficients_conjugate(data: ExpansionData) -> None:
    # Real psi0: C_{-n} = conj(C_n).  Computed independently, so this is a
    # genuine check of the mirror construction.
    n_pairs = data.n_pairs
    c = data.coefficients
    np.testing.assert_allclose(
        c[:n_pairs], np.conj(c[n_pairs:][::-1]), rtol=1e-12, atol=1e-15
    )


def test_box_mode_coefficient_tail_law(data: ExpansionData) -> None:
    # Green's identity with psi0 = sqrt(2/R) sin(pi r/R) on the free interior
    # gives C_n = sqrt(2) pi u_n(R) / (pi^2 - k_n^2) at R = 1, and the
    # normalization rule drives u_n(R)^2 -> i k_n / lam.  Together
    # |C_n u_n(R)| ~ 1/|k_n|: the Fourier-type decay behind the 1/N
    # completeness rate of selftest check 4.
    radius = REFERENCE_POTENTIAL.radius
    lam = REFERENCE_POTENTIAL.strength
    ks = data.states.k
    u_r = data.states.boundary_value
    kappa = np.pi / radius
    green = np.sqrt(2.0 / radius) * kappa * u_r / (kappa**2 - ks**2)
    np.testing.assert_allclose(data.coefficients, green, rtol=1e-11, atol=0.0)

    positive = data.states.n > 0
    dev = np.abs(u_r[positive] ** 2 / (1j * ks[positive] / lam) - 1.0)
    assert np.all(np.diff(dev) < 0.0)
    assert dev[-1] <= 0.03


def test_build_expansion_requires_normalized_state(pole_set: PoleSet) -> None:
    r = np.linspace(0.0, 1.0, 101)
    lopsided = Sampled(r, 2.0 * np.sin(np.pi * r))
    with pytest.raises(InvalidState, match="normalized"):
        build_expansion(REFERENCE_POTENTIAL, pole_set, lopsided, n_pairs=2)


def test_build_expansion_bad_requests(pole_set: PoleSet) -> None:
    with pytest.raises(ConfigError, match="pole pairs"):
        build_expansion(REFERENCE_POTENTIAL, pole_set, REFERENCE_STATE, n_pairs=10_000)
    # either kind of state reaching past R = 1 is refused
    r = np.linspace(0.0, 1.5, 301)
    sampled = normalized(Sampled(r, np.sin(np.pi * r / 1.5)))
    for far_state in (BoxMode(mode=1, radius=2.0), sampled):
        with pytest.raises(InvalidState, match="beyond the potential range"):
            build_expansion(REFERENCE_POTENTIAL, pole_set, far_state, n_pairs=2)


def test_truncate_slices_symmetrically(data: ExpansionData) -> None:
    sub = data.truncate(3)
    assert sub.n_pairs == 3
    np.testing.assert_array_equal(sub.states.n, [-3, -2, -1, 1, 2, 3])
    full = data.n_pairs
    np.testing.assert_array_equal(
        sub.states.k, data.states.k[full - 3 : full + 3]
    )
    np.testing.assert_array_equal(
        sub.overlap, data.overlap[full - 3 : full + 3, full - 3 : full + 3]
    )
    # labels, wavenumbers and u(R) are read-only views of the one table
    with pytest.raises(ValueError, match="read-only"):
        data.states.k[0] = 0.0
    assert data.truncate(full) is data
    with pytest.raises(ConfigError, match="outside the built range"):
        data.truncate(0)
    with pytest.raises(ConfigError, match="outside the built range"):
        data.truncate(full + 1)


def test_reconstruction_converges_to_initial_state(data: ExpansionData) -> None:
    r = np.linspace(0.05, 0.95, 19)
    psi0 = np.asarray(initial_wavefunction(REFERENCE_STATE, r))
    for n_pairs, frozen in _RECONSTRUCTION_ERR.items():
        rec = np.asarray(reconstruct_initial(data.truncate(n_pairs), r))
        err = float(np.max(np.abs(rec - psi0)))
        assert err == pytest.approx(frozen, rel=2e-2), f"N = {n_pairs}"
    assert _RECONSTRUCTION_ERR[40] < _RECONSTRUCTION_ERR[5]


def test_sum_rule_residual_purely_imaginary(data: ExpansionData) -> None:
    # For real psi0 the paired terms cancel in the real part exactly.
    r = np.array([0.25, 0.5, 0.75])
    for n_pairs in (5, 20, 40):
        s = np.asarray(sum_rule_residual(data.truncate(n_pairs), r))
        assert np.max(np.abs(s.real)) <= 1e-13
    s40 = np.asarray(sum_rule_residual(data.truncate(40), r))
    s5 = np.asarray(sum_rule_residual(data.truncate(5), r))
    assert np.all(np.abs(s40) <= 0.1 * np.abs(s5))


def test_sum_rule_scalar_evaluation(data: ExpansionData) -> None:
    value = sum_rule_residual(data.truncate(10), 0.5)
    assert isinstance(value, complex)
    arr = np.asarray(sum_rule_residual(data.truncate(10), np.array([0.5])))
    assert value == pytest.approx(complex(arr[0]), rel=1e-15)
    grid = np.array([[0.25, 0.5], [0.75, 1.0]])
    assert np.asarray(sum_rule_residual(data.truncate(10), grid)).shape == (2, 2)
    assert np.asarray(sum_rule_residual(data.truncate(10), np.array([]))).shape == (0,)


def test_expansion_norm_approaches_unity(data: ExpansionData) -> None:
    # ||psi_N||^2 = (1/4) sum_{n,l} C_n conj(C_l) int conj(u_l) u_n dr -> 1.
    sub = data.truncate(40)
    c = sub.coefficients
    p0 = float(np.real(0.25 * np.einsum("i,ij,j->", c, sub.overlap, np.conj(c))))
    assert p0 == pytest.approx(1.0, abs=7e-4)


def test_states_from_different_potentials_rejected(pole_set: PoleSet) -> None:
    other = DeltaShell(strength=6.0, radius=0.5)
    other_set_state = one_state(other, 1, 5.0 - 0.3j)
    ref_state = one_state(REFERENCE_POTENTIAL, 1, pole_set.pole(1))
    with pytest.raises(ConfigError, match="different segmentations"):
        overlap_quadrature(ref_state, other_set_state)


_BARRIER = PiecewiseConstant(((0.0, 0.6, 0.0), (0.6, 1.0, 25.0)))


@pytest.fixture(scope="module")
def expansions(data: ExpansionData) -> dict[str, ExpansionData]:
    """The reference (40 poles), wide (319 poles) and two-segment barrier expansions."""
    wide = locate_poles(REFERENCE_POTENTIAL, SearchWindow(re_max=1002.0, im_min=-3.0))
    barrier = locate_poles(_BARRIER, SearchWindow(re_max=12.0, im_min=-4.0))
    return {
        "reference": data,
        "wide": build_expansion(REFERENCE_POTENTIAL, wide, REFERENCE_STATE),
        "barrier": build_expansion(_BARRIER, barrier, REFERENCE_STATE),
    }


def _nodes(edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """r = 0, every segment edge (r = R included), random radii and panel nodes."""
    radius = float(edges[-1])
    return np.concatenate([edges, rng.uniform(0.0, radius, 200), panel_nodes(0.0, radius, 5)[0]])


@pytest.mark.parametrize("name", ["reference", "wide", "barrier"])
def test_state_values_match_per_state_reference_bits(
    expansions: dict[str, ExpansionData], name: str, rng: np.random.Generator
) -> None:
    # One state of each mirror pair runs the kernels, the other is its conjugate.
    states = expansions[name].states
    assert states.pairing[2].size == len(states) // 2
    idx, x = _locate(states.r_edges, _nodes(states.r_edges, rng))
    assert same_bits(_state_values(states, idx, x), state_values_per_state(states, idx, x))


@pytest.mark.parametrize("name", ["reference", "wide", "barrier"])
@pytest.mark.parametrize("branch", ["series", "root"])
def test_state_values_on_one_branch_match_per_state_reference_bits(
    expansions: dict[str, ExpansionData], name: str, branch: str
) -> None:
    # Points of the first segment that all take one kernel branch for every
    # state, so the kernels run on the broadcast (states x 1) columns.
    states = expansions[name].states
    edges = states.r_edges
    z_abs = np.abs(states.z[:, 0])
    if branch == "series":  # |z| x^2 <= 4 for the largest |z|
        x = np.linspace(0.0, 1.9 / np.sqrt(z_abs.max()), 64)
    else:  # |z| x^2 > 4 for the smallest |z|
        x = np.linspace(2.1 / np.sqrt(z_abs.min()), edges[1], 64, endpoint=False)
    w = np.abs(np.outer(z_abs, x * x))
    assert np.all(w <= 4.0) if branch == "series" else np.all(w > 4.0)
    idx, x = _locate(edges, edges[0] + x)
    assert np.all(idx == 0)
    assert same_bits(_state_values(states, idx, x), state_values_per_state(states, idx, x))


def test_state_values_across_the_barrier_edge(expansions: dict[str, ExpansionData]) -> None:
    # points on both sides of the edge at 0.6, and on it (offset 0 in the
    # barrier), mixed in one call: each segment's points are gathered
    states = expansions["barrier"].states
    edges = states.r_edges
    assert edges[1] == 0.6
    delta = np.array([1e-15, 1e-9, 1e-4, 0.05])
    r = np.concatenate([0.6 - delta, [0.6], 0.6 + delta, 0.6 - delta[::-1]])
    idx, x = _locate(edges, r)
    assert set(idx.tolist()) == {0, 1}
    assert same_bits(_state_values(states, idx, x), state_values_per_state(states, idx, x))


def test_state_values_pair_by_segment_data(
    expansions: dict[str, ExpansionData], rng: np.random.Generator
) -> None:
    # Rows -40..-1, 1..40.  Drop n = -39 (n = 39 is left unpaired), relabel
    # n = 1 as n = 999 (still the mirror of n = -1), repeat n = -35 and
    # reverse the rows (the mirror states come after their sources).
    states = expansions["reference"].states
    half = len(states) // 2
    labels = states.n.copy()
    labels[half] = 999
    varied = dataclasses.replace(states, n=labels)[[0, *range(2, len(states)), 5][::-1]]
    own, source, mirror = varied.pairing
    n = varied.n.tolist()
    pairs = {(n[i], n[j]) for i, j in zip(source, mirror)}
    assert (999, -1) in pairs
    assert not any(39 in pair for pair in pairs)
    assert len(pairs) == half - 1 and own.size == len(varied) - (half - 1)
    idx, x = _locate(states.r_edges, _nodes(states.r_edges, rng))
    assert same_bits(_state_values(varied, idx, x), state_values_per_state(varied, idx, x))


@pytest.mark.parametrize("name", ["reference", "wide"])
def test_weighted_field_adds_in_state_order(
    expansions: dict[str, ExpansionData], name: str, rng: np.random.Generator
) -> None:
    # Blocks over points (several here), each point adding its terms in
    # state order: the same bits as adding weights[m] u_m(r) state by state.
    data = expansions[name]
    r = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 1500)])
    weights = data.coefficients / data.states.k
    weights[3] = 0.0
    idx, x = _locate(data.states.r_edges, r)
    expected = np.zeros(r.size, dtype=complex)
    for w, values in zip(weights, state_values_per_state(data.states, idx, x)):
        if w != 0:
            expected += w * values
    assert same_bits(weighted_field(data, r, weights), expected)


@st.composite
def _state_case(draw) -> tuple[GamowState, np.ndarray]:
    """Unnormalized states on a delta shell or a two- or three-piece barrier,
    some with their mirrors, and radii to evaluate them at.

    Each state is a regular solution (a = 0 on the first segment, a != 0 on
    the later ones) times a drawn complex factor, which puts signed zeros in
    a.  Wavenumbers with |Im k| from 400 to 1200 put |Im q x| past cosh's
    overflow at 710 inside the first segment, where values are not finite.
    The radii are r = 0, every segment edge and points just past it, points
    near each segment's left edge on the series branch of every state, and
    uniform draws, mostly on the root branch.
    """
    radius = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        potential = DeltaShell(strength=draw(st.floats(0.5, 20.0)), radius=radius)
    else:
        cuts = draw(st.lists(st.floats(0.1, 0.9), min_size=1, max_size=2, unique=True))
        bounds = [0.0, *sorted(c * radius for c in cuts), radius]
        assume(min(np.diff(bounds)) > 0.05 * radius)
        potential = PiecewiseConstant(tuple(
            (lo, hi, draw(st.floats(0.0, 60.0))) for lo, hi in zip(bounds[:-1], bounds[1:])
        ))
    edges = np.array([0.0] + [end for _, end, _ in segments(potential)])
    unit = st.floats(-2.0, 2.0)
    labels, ks, rows = [], [], []
    for n in range(1, draw(st.integers(1, 5)) + 1):
        im_k = draw(st.one_of(st.floats(-6.0, -0.01), st.floats(-1200.0, -400.0)))
        k = complex(draw(st.floats(0.1, 80.0)), im_k)
        factor = complex(draw(unit), draw(unit))
        z, a, b, _ = regular_solutions(potential, np.array([k]))
        with np.errstate(all="ignore"):  # solutions past the overflow are inf or NaN
            z, a, b = z[0], a[0] * factor, b[0] * factor
        labels.append(n)
        ks.append(k)
        rows.append((z, a, b))
        if draw(st.booleans()):
            labels.append(-n)
            ks.append(-k.conjugate())
            rows.append((z.conj(), a.conj(), b.conj()))
    z, a, b = (np.array(part) for part in zip(*rows))
    states = GamowState(np.array(labels), np.array(ks), edges, z, a, b, np.zeros(len(ks), complex))
    z_top = float(np.max(np.abs(z)))
    fracs = np.array(draw(st.lists(st.floats(0.0, 0.95), min_size=1, max_size=4)))
    series = (edges[:-1, None] + fracs * 2.0 / np.sqrt(z_top)).ravel()
    uniform = draw(st.lists(st.floats(0.0, radius), max_size=12))
    r = np.concatenate([edges, edges[:-1] + 1e-12, series, uniform])
    return states, np.clip(r, 0.0, radius)


@settings(max_examples=150, deadline=None)
@given(_state_case())
def test_state_values_match_per_state_reference_on_drawn_states(case) -> None:
    # Sine-only first segments, full later segments and mirrors by
    # conjugation, with zero and non-finite values among them.
    # A NaN's sign and payload depend on numpy's inner loop (broadcast or
    # not), so NaN parts are compared as NaN and every other part by bits.
    states, r = case
    idx, x = _locate(states.r_edges, r)
    with np.errstate(all="ignore"):  # values past |Im q x| ~ 710 overflow
        got = _state_values(states, idx, x)
        want = state_values_per_state(states, idx, x)
    assert same_bits(_nan_as_nan(got), _nan_as_nan(want))
    assert _state_values(states, idx[:0], x[:0]).shape == (len(states), 0)


def _nan_as_nan(values: np.ndarray) -> np.ndarray:
    """``values`` with every NaN part made numpy's own NaN (in place)."""
    values.view(float)[np.isnan(values.view(float))] = np.nan
    return values


@settings(max_examples=100, deadline=None)
@given(_state_case(), st.data())
def test_selected_rows_evaluate_as_in_the_whole_table(case, data) -> None:
    # A selection is a table of its own, with its pairing recomputed: a
    # mirror kept without its source runs the kernels itself.  Each row
    # keeps the bits it has in the whole table (NaN parts compared as NaN).
    states, r = case
    drawn = data.draw(st.lists(st.integers(0, len(states) - 1), max_size=8))
    mirrors = np.flatnonzero(states.n < 0)
    assert states[mirrors].pairing[2].size == 0
    with np.errstate(all="ignore"):  # values past |Im q x| ~ 710 overflow
        whole = _nan_as_nan(states.evaluate(r))
        for rows in (np.array(drawn, dtype=int), mirrors, slice(1, None)):
            assert same_bits(_nan_as_nan(states[rows].evaluate(r)), whole[rows])


@pytest.mark.parametrize("name", ["reference", "barrier"])
def test_state_values_take_no_cosine_where_a_vanishes(
    expansions: dict[str, ExpansionData], name: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The first segment's states are b S (u(0) = 0): away from values with a
    # zero part, no kernel call asks for the cosine there.  The barrier's
    # second segment has a != 0 and asks for it.
    states = expansions[name].states
    edges = states.r_edges
    asked = []
    kernels = gamow.kernels

    def spy(z, length, cosine=True):
        asked.append((np.asarray(z).copy(), cosine))
        return kernels(z, length, cosine)

    monkeypatch.setattr(gamow, "kernels", spy)
    own = states.pairing[0]
    for seg, want_cosine in ((0, False), (1, True))[: len(edges) - 1]:
        r = np.linspace(edges[seg], edges[seg + 1], 203)[1:-1]
        asked.clear()
        values = _state_values(states, *_locate(edges, r))
        assert not gamow._odd(values).any()
        assert [cosine for _, cosine in asked] == [want_cosine]
        assert np.array_equal(asked[0][0].ravel(), states.z[own, seg])
