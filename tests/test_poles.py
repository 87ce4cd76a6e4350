from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from _oracles import (
    batch_points,
    delta_shell_pole_reference,
    locate_poles_bisection,
    same_bits,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import nonescape.poles as poles_module
from nonescape.cli import load_config
from nonescape.errors import AxisZero, ConfigError, DomainError, RootPolishFailure, WindingMismatch
from nonescape.gamow import ExpansionData, _index_order
from nonescape.model import DeltaShell, PiecewiseConstant
from nonescape.poles import (
    PoleSet,
    SearchWindow,
    _owners,
    locate_poles,
    matching_function,
    winding_count,
)

_REFERENCE = load_config(None)
REFERENCE_POTENTIAL, SEARCH_WINDOW = _REFERENCE.potential, _REFERENCE.window

# Frozen 30-digit reference roots of J(k) = q cos q + (lam - i k) sin q / q,
# q = k (delta shell lam = 6, R = 1), independently solved to high precision.
_REFERENCE_K = {
    1: 2.7579383212949247 - 0.14043273246623328j,
    2: 5.713475899361956 - 0.3701480288821101j,
    3: 8.77522818235715 - 0.5553466505878303j,
    40: 124.8828545054643 - 1.864402593809498j,
}


@pytest.mark.parametrize(
    "potential",
    [DeltaShell(6.0, 1.0), PiecewiseConstant(((0.0, 0.6, 0.0), (0.6, 1.0, 25.0)))],
    ids=["delta-shell", "barrier"],
)
def test_matching_function_bits_do_not_depend_on_the_batch(potential, rng) -> None:
    k = batch_points(rng)
    parts = [matching_function(potential, k[s : s + 1_000]) for s in range(0, k.size, 1_000)]
    for whole, part in zip(matching_function(potential, k), zip(*parts)):
        assert same_bits(whole, np.concatenate(part))


@pytest.mark.parametrize(
    "potential",
    [DeltaShell(6.0, 1.0), PiecewiseConstant(((0.0, 0.6, 0.0), (0.6, 1.0, 25.0)))],
    ids=["delta-shell", "barrier"],
)
def test_matching_function_scalar_bits_match_the_batch(potential, rng) -> None:
    # 200 points, the first of each branch group in batch_points' order
    k = batch_points(rng)[np.r_[:50, 1_000:1_050, 2_000:2_100]]
    batch = matching_function(potential, k)
    for i, point in enumerate(k):
        values = matching_function(potential, complex(point))
        assert all(type(v) is complex for v in values)
        assert same_bits(values, [part[i] for part in batch])
        assert same_bits(matching_function(potential, point, with_dk=False), batch[0][i])


def test_wide_search_works_in_bounded_memory() -> None:
    # 319 zeros, with moment blocks of 16,384 nodes: J and dJ/dk are taken
    # 2,048 points at a time, where the whole block at once peaked at 6.6 MB.
    window = SearchWindow(re_max=1002.0, im_min=-3.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        found = locate_poles(DeltaShell(6.0, 1.0), window)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(found) == 319
    assert peak <= 3.5e6, peak


def test_matching_function_delta_shell_closed_form(rng: np.random.Generator) -> None:
    # For V = lam delta(r - R): u = sin(k r)/k inside, so
    # J(k) = cos(kR) + (lam - i k) sin(kR) / k.
    shell = DeltaShell(strength=6.0, radius=1.0)
    for _ in range(20):
        k = complex(rng.uniform(0.2, 12.0), rng.uniform(-2.0, 2.0))
        j, dj = matching_function(shell, k)
        expected = cmath.cos(k) + (6.0 - 1j * k) * cmath.sin(k) / k
        assert j == pytest.approx(expected, rel=1e-12)
        h = 1e-7
        jp = matching_function(shell, k + h)[0]
        jm = matching_function(shell, k - h)[0]
        assert dj == pytest.approx((jp - jm) / (2 * h), rel=1e-6, abs=1e-6)


def test_matching_function_schwarz_symmetry(rng: np.random.Generator) -> None:
    # Real potentials satisfy J(-conj k) = conj(J(k)).
    barrier = PiecewiseConstant(((0.0, 0.6, 0.0), (0.6, 1.0, 9.0)))
    for potential in (REFERENCE_POTENTIAL, barrier):
        for _ in range(15):
            k = complex(rng.uniform(0.1, 10.0), rng.uniform(-1.5, 1.5))
            j, _ = matching_function(potential, k)
            j_mirror, _ = matching_function(potential, -k.conjugate())
            assert j_mirror == pytest.approx(j.conjugate(), rel=1e-13, abs=1e-13)


_CUT_BARRIER = PiecewiseConstant(((0.0, 0.4, 0.0), (0.4, 1.0, 30.0)))


@settings(max_examples=100, deadline=None)
@given(theta=st.floats(-math.pi, math.pi), side=st.floats(1e-12, 0.5))
def test_matching_function_j_keeps_its_bits_without_dk(theta: float, side: float) -> None:
    # |z L^2| = 4 switches a segment's kernels from series to roots.  Points
    # on both sides of it on each segment, and a mix of both in one call:
    # J alone has the bits of J beside dJ/dk.
    ks = []
    for start, end, height in _CUT_BARRIER.pieces:
        for w in (4.0 * (1.0 - side), 4.0 * (1.0 + side)):
            ks.append(cmath.sqrt(w * cmath.exp(1j * theta) / (end - start) ** 2 + height))
    k = np.array(ks)
    for potential in (_CUT_BARRIER, DeltaShell(6.0, 1.0)):
        j, _ = matching_function(potential, k)
        alone = matching_function(potential, k, with_dk=False)
        assert np.array_equal(alone.view(float), j.view(float))
        for one in k[:2]:
            assert matching_function(potential, one, False) == matching_function(potential, one)[0]


def test_matching_function_entire_at_origin() -> None:
    # J is entire: k = 0 must evaluate finitely (no sin(kR)/k singularity).
    j, dj = matching_function(DeltaShell(6.0, 1.0), 0.0)
    assert j == pytest.approx(1.0 + 6.0, rel=1e-14)  # cos 0 + lam * R
    assert np.isfinite(dj.real) and np.isfinite(dj.imag)


def test_free_potential_has_no_poles() -> None:
    free = PiecewiseConstant(((0.0, 1.0, 0.0),))
    window = SearchWindow(re_max=40.0, im_min=-3.0)
    assert winding_count(free, window) == 0
    assert len(locate_poles(free, window)) == 0


def test_reference_pole_positions(pole_set: PoleSet) -> None:
    for n, k_ref in _REFERENCE_K.items():
        k = pole_set.pole(n)
        assert abs(k - k_ref) <= 1e-10 * abs(k_ref), f"n = {n}"


def test_pole_positions_match_independent_root_polish(pole_set: PoleSet) -> None:
    # Re-solve each reference root with mpmath's root finder on the closed
    # matching condition (a code path sharing nothing with locate_poles).
    for n, seed in _REFERENCE_K.items():
        k_ind = delta_shell_pole_reference(6.0, seed)
        k = pole_set.pole(n)
        assert abs(k - k_ind) <= 1e-12 * abs(k_ind), f"n = {n}"


def test_pole_count_matches_independent_winding(pole_set: PoleSet) -> None:
    assert winding_count(REFERENCE_POTENTIAL, SEARCH_WINDOW) == len(pole_set)
    assert len(pole_set) >= 40


def test_poles_ordered_fourth_quadrant(pole_set: PoleSet) -> None:
    res, ims = pole_set.k.real, pole_set.k.imag
    assert np.all(np.diff(res) > 0)
    assert np.all(res > 0) and np.all(ims < 0)
    # row n - 1 holds pole n
    ns = np.arange(1, len(pole_set) + 1)
    np.testing.assert_array_equal(pole_set.pole(ns), pole_set.k)


def test_pole_residuals_resolved(pole_set: PoleSet) -> None:
    assert np.all(pole_set.residual <= 1e-10 * pole_set.scale)


def test_hard_shell_approaches_box_levels() -> None:
    # lam -> infinity closes the shell; resonances approach k = n pi with
    # width ~ n pi / lam.
    shell = DeltaShell(strength=1e4, radius=1.0)
    found = locate_poles(shell, SearchWindow(re_max=10.5, im_min=-1.0))
    assert len(found) == 3
    for n in (1, 2, 3):
        k = found.pole(n)
        assert abs(k.real - n * math.pi) <= 0.05
        assert -1e-2 < k.imag < 0.0


def test_mirror_rule_involution_and_zero(pole_set: PoleSet) -> None:
    for n in (1, 2, 5):
        k, m = pole_set.pole(n), pole_set.pole(-n)
        assert m == -k.conjugate()
        assert -m.conjugate() == k
        # The mirror is an exact zero of J to the same resolved tolerance.
        j_m = matching_function(REFERENCE_POTENTIAL, m)[0]
        assert abs(j_m) <= 1e-10 * pole_set.scale[n - 1]


def test_pole_set_indexing(pole_set: PoleSet) -> None:
    with pytest.raises(ConfigError, match="nonzero"):
        pole_set.pole(0)
    with pytest.raises(ConfigError, match="outside"):
        pole_set.pole(len(pole_set) + 1)
    with pytest.raises(ConfigError, match="outside"):
        pole_set.pole(np.array([1, -len(pole_set) - 1]))
    with pytest.raises(ConfigError, match="nonzero"):
        pole_set.pole(1.0)  # type: ignore[arg-type]
    assert pole_set.pole(-2) == -pole_set.pole(2).conjugate()
    assert isinstance(pole_set.pole(2), complex)
    np.testing.assert_array_equal(
        pole_set.pole(np.array([-2, 3])), [pole_set.pole(-2), pole_set.pole(3)]
    )


def test_wavenumbers_ordering(pole_set: PoleSet, data: ExpansionData) -> None:
    # an expansion's wavenumbers follow its label order: mirrors first
    idx = _index_order(4)
    np.testing.assert_array_equal(idx, [-4, -3, -2, -1, 1, 2, 3, 4])
    ks = data.truncate(4).states.k
    assert ks.shape == (8,)
    for i, n in enumerate(idx):
        assert ks[i] == pole_set.pole(int(n))


def test_locate_poles_deterministic() -> None:
    shell = DeltaShell(strength=6.0, radius=1.0)
    window = SearchWindow(re_max=20.0, im_min=-1.5)
    a = locate_poles(shell, window)
    b = locate_poles(shell, window)
    assert len(a) == len(b)
    np.testing.assert_array_equal(a.k, b.k)  # bitwise identical
    np.testing.assert_array_equal(a.residual, b.residual)


def test_locate_poles_barrier_potential() -> None:
    barrier = PiecewiseConstant(((0.0, 0.6, 0.0), (0.6, 1.0, 25.0)))
    found = locate_poles(barrier, SearchWindow(re_max=12.0, im_min=-4.0))
    assert len(found) >= 2
    j, _ = matching_function(barrier, found.k)
    assert np.all(np.abs(j) <= 1e-10 * found.scale)


def test_search_window_validation() -> None:
    with pytest.raises(ConfigError, match="re_max"):
        SearchWindow(re_max=-1.0, im_min=-1.0)
    with pytest.raises(ConfigError, match="im_min"):
        SearchWindow(re_max=1.0, im_min=0.0)
    with pytest.raises(ConfigError, match="tol"):
        locate_poles(DeltaShell(6.0, 1.0), SearchWindow(10.0, -1.0), tol=1e-3)


def test_reference_window_is_selftest_window(pole_set: PoleSet) -> None:
    # the shared pole set is the reference potential's, in the reference window
    found = locate_poles(REFERENCE_POTENTIAL, SEARCH_WINDOW)
    for name in ("k", "residual", "scale"):
        np.testing.assert_array_equal(getattr(found, name), getattr(pole_set, name))


def test_resonance_pole_is_frozen() -> None:
    # the pole table the tests share refuses edits, of a field or in place
    p = PoleSet(np.array([1.0 - 0.1j]), np.zeros(1), np.ones(1))
    with pytest.raises(AttributeError):
        p.k = np.array([2.0 + 0j])  # type: ignore[misc]
    for values in (p.k, p.residual, p.scale):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 2.0


_BARRIER = PiecewiseConstant(((0.0, 0.6, 0.0), (0.6, 1.0, 25.0)))


def _midway(potential, n: int) -> float:
    """Re k halfway between poles n and n + 1 (from a search to Re k = 140)."""
    found = locate_poles(potential, SearchWindow(re_max=140.0, im_min=-3.0))
    return 0.5 * (found.pole(n).real + found.pole(n + 1).real)


def _assert_same_poles(found: PoleSet, reference: PoleSet) -> None:
    assert len(found) == len(reference)
    for n, (p, q) in enumerate(zip(found.k, reference.k), start=1):
        assert abs(p - q) <= 1e-15 * abs(q), (n, p, q)


_CASES = {
    "reference": lambda: (REFERENCE_POTENTIAL, SEARCH_WINDOW, 40),
    "wide": lambda: (REFERENCE_POTENTIAL, SearchWindow(re_max=1002.0, im_min=-3.0), 319),
    "lambda 5.83": lambda: (
        DeltaShell(5.83, 1.0), SearchWindow(_midway(DeltaShell(5.83, 1.0), 40), -3.0), 40
    ),
    "lambda 6.17": lambda: (
        DeltaShell(6.17, 1.0), SearchWindow(_midway(DeltaShell(6.17, 1.0), 40), -3.0), 40
    ),
    "hard shell": lambda: (DeltaShell(1.0e4, 1.0), SearchWindow(10.5, -1.0), 3),
    "barrier": lambda: (_BARRIER, SearchWindow(re_max=12.0, im_min=-4.0), None),
    "free": lambda: (PiecewiseConstant(((0.0, 1.0, 0.0),)), SearchWindow(40.0, -3.0), 0),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_moment_search_matches_bisection(case: str) -> None:
    potential, window, count = _CASES[case]()
    found = locate_poles(potential, window)
    _assert_same_poles(found, locate_poles_bisection(potential, window))
    assert count is None or len(found) == count
    assert np.all(found.residual <= 1e-10 * found.scale)


def test_cut_through_a_pole_is_moved(monkeypatch: pytest.MonkeyPatch) -> None:
    # Two strips would meet exactly at Re k_3; the grazed cut forces a third strip.
    counted = []
    windings = poles_module._windings
    monkeypatch.setattr(
        poles_module, "_windings", lambda *a: counted.append(len(a[1])) or windings(*a)
    )
    window = SearchWindow(re_max=2.0 * _REFERENCE_K[3].real, im_min=-3.0)
    found = locate_poles(REFERENCE_POTENTIAL, window)
    assert counted == [3, 4]  # the window and 2 strips, then the window and 3 strips
    _assert_same_poles(found, locate_poles_bisection(REFERENCE_POTENTIAL, window))


def test_crowded_strip_recuts_the_window(monkeypatch: pytest.MonkeyPatch) -> None:
    # Taking R = 0.25 for a shell of radius 2 makes the first strips four
    # times too wide (over 8 zeros each); the window is recut from its count.
    shell = DeltaShell(6.0, 2.0)
    window = SearchWindow(re_max=40.0, im_min=-3.0)
    counted = []
    windings = poles_module._windings
    monkeypatch.setattr(poles_module, "potential_range", lambda potential: 0.25)
    monkeypatch.setattr(
        poles_module, "_windings", lambda *a: counted.append(len(a[1])) or windings(*a)
    )
    found = locate_poles(shell, window)
    assert len(counted) == 2 and counted[1] - 1 == -(-len(found) // 4)
    _assert_same_poles(found, locate_poles_bisection(shell, window))


def test_inaccurate_moments_halve_their_panels(monkeypatch: pytest.MonkeyPatch) -> None:
    rounds = []
    moments = poles_module._moments
    monkeypatch.setattr(poles_module, "_GL_ORDER", 2)
    monkeypatch.setattr(
        poles_module, "_moments", lambda *a: rounds.append(len(a[1])) or moments(*a)
    )
    found = locate_poles(REFERENCE_POTENTIAL, SEARCH_WINDOW)
    assert len(rounds) > 1 and rounds[1] < rounds[0]  # only inaccurate strips retaken
    _assert_same_poles(found, locate_poles_bisection(REFERENCE_POTENTIAL, SEARCH_WINDOW))


@settings(max_examples=15, deadline=None)
@given(
    strength=st.floats(3.0, 12.0),
    n_small=st.integers(1, 30),
    extra=st.integers(1, 10),
)
def test_pole_set_unchanged_as_window_grows(strength: float, n_small: int, extra: int) -> None:
    shell = DeltaShell(strength, 1.0)
    full = locate_poles(shell, SearchWindow(re_max=140.0, im_min=-3.0))
    small = locate_poles(shell, SearchWindow(_midway(shell, n_small), -3.0))
    large = locate_poles(shell, SearchWindow(_midway(shell, n_small + extra), -3.0))
    assert len(small) == n_small and len(large) == n_small + extra
    for n, k in enumerate(small.k, start=1):
        assert abs(k - large.pole(n)) <= 1e-15 * abs(k)
    for n in range(n_small + 1, n_small + extra + 1):
        assert abs(large.pole(n) - full.pole(n)) <= 1e-15 * abs(full.pole(n))


@settings(max_examples=15, deadline=None)
@given(strength=st.floats(3.0, 12.0), n=st.integers(1, 40))
def test_pole_just_above_the_bottom_edge_is_found(strength: float, n: int) -> None:
    shell = DeltaShell(strength, 1.0)
    k = locate_poles(shell, SearchWindow(re_max=140.0, im_min=-3.0)).pole(n)
    found = locate_poles(shell, SearchWindow(_midway(shell, n), k.imag - 1e-3))
    assert np.min(np.abs(found.k - k)) <= 1e-15 * abs(k)


def test_axis_zero_raised() -> None:
    # lambda = 1e6 puts the first resonance ~1e-12 below the real axis: the top
    # edge of the window grazes it.
    with pytest.raises(AxisZero, match="vanishes on a coordinate axis"):
        locate_poles(DeltaShell(1.0e6, 1.0), SearchWindow(re_max=4.0, im_min=-1.0))
    # At tol = 1e-6 the hard shell's widths (~1e-7) fall inside the axis margin.
    with pytest.raises(AxisZero, match="hugs a coordinate axis"):
        locate_poles(DeltaShell(1.0e4, 1.0), SearchWindow(re_max=10.5, im_min=-1.0), tol=1e-6)


def test_winding_mismatch_raised(monkeypatch: pytest.MonkeyPatch) -> None:
    k1 = _REFERENCE_K[1]
    with pytest.raises(WindingMismatch, match="vanishes on a contour"):
        locate_poles(REFERENCE_POTENTIAL, SearchWindow(re_max=10.0, im_min=k1.imag))
    with monkeypatch.context() as m:
        m.setattr(poles_module, "_MAX_EDGE_POINTS", 16)
        with pytest.raises(WindingMismatch, match="budget"):
            locate_poles(REFERENCE_POTENTIAL, SEARCH_WINDOW)
    march = poles_module._march
    with monkeypatch.context() as m:
        m.setattr(poles_module, "_march", lambda *a: (-march(*a)[0],) + march(*a)[1:])
        with pytest.raises(WindingMismatch, match="negative winding"):
            locate_poles(REFERENCE_POTENTIAL, SEARCH_WINDOW)
    windings = poles_module._windings

    def one_strip_miscounted(*args):
        boxes = windings(*args)
        return boxes[:1] + [boxes[1]._replace(count=boxes[1].count + 1)] + boxes[2:]

    with monkeypatch.context() as m:
        m.setattr(poles_module, "_windings", one_strip_miscounted)
        with pytest.raises(WindingMismatch, match="strips count"):
            locate_poles(REFERENCE_POTENTIAL, SEARCH_WINDOW)
    polish = poles_module._polish

    def first_leaves_the_window(*args):
        k = polish(*args)
        k[0] += 1000.0
        return k

    with monkeypatch.context() as m:
        m.setattr(poles_module, "_polish", first_leaves_the_window)
        with pytest.raises(WindingMismatch, match="zeros polished in"):
            locate_poles(REFERENCE_POTENTIAL, SEARCH_WINDOW)
    estimates = poles_module._estimates

    def first_of_each_strip(potential, boxes):
        k = estimates(potential, boxes)
        starts = np.cumsum([0] + [b.count for b in boxes[:-1]])
        return np.repeat(k[starts], [b.count for b in boxes])

    with monkeypatch.context() as m:  # every strip polishes one zero over and over
        m.setattr(poles_module, "_estimates", first_of_each_strip)
        with pytest.raises(WindingMismatch, match="indistinct"):
            locate_poles(REFERENCE_POTENTIAL, SEARCH_WINDOW)


def test_winding_count_raises_typed_errors() -> None:
    # The audit meets the grid zeros locate_poles meets, and maps them alike.
    k1 = _REFERENCE_K[1]
    with pytest.raises(WindingMismatch, match="vanishes on a contour"):
        winding_count(REFERENCE_POTENTIAL, SearchWindow(re_max=10.0, im_min=k1.imag))
    with pytest.raises(AxisZero, match="vanishes on a coordinate axis"):
        winding_count(DeltaShell(1.0e6, 1.0), SearchWindow(re_max=4.0, im_min=-1.0))


def test_barrier_poles_at_tight_tolerance() -> None:
    # Near k = 383 - 5.03i an absolute tol of 1e-12 is 2.6e-15 of |k|, below
    # what Newton's rounding reaches; those zeros are accepted once their
    # last step is within tol max(1, |k|) and the budget is spent.  The
    # result matches the tol 1e-10 search to 8.5e-15 relative.
    barrier = PiecewiseConstant(((0.0, 0.6, 0.0), (0.6, 1.0, 25.0)))
    window = SearchWindow(re_max=503.5, im_min=-6.0)
    tight = locate_poles(barrier, window, tol=1e-12).k
    loose = locate_poles(barrier, window, tol=1e-10).k
    assert tight.size == loose.size == 160
    assert np.max(np.abs(tight - loose) / np.abs(loose)) <= 1e-14


def test_root_polish_failure_raised(monkeypatch: pytest.MonkeyPatch) -> None:
    for name, value, message in (
        ("_NEWTON_MAX_ITER", 1, "Newton missed"),
        ("_RESIDUAL_TOL", 1e-18, "scale"),
    ):
        with monkeypatch.context() as m:
            m.setattr(poles_module, name, value)
            with pytest.raises(RootPolishFailure, match=message):
                locate_poles(REFERENCE_POTENTIAL, SEARCH_WINDOW)
    estimates = poles_module._estimates
    with monkeypatch.context() as m:  # starts two strips over converge out of reach
        m.setattr(poles_module, "_estimates", lambda *a: estimates(*a) + 25.0)
        with pytest.raises(RootPolishFailure, match="escaped"):
            locate_poles(REFERENCE_POTENTIAL, SEARCH_WINDOW)
    function = poles_module.matching_function
    with monkeypatch.context() as m:
        m.setattr(
            poles_module, "matching_function",
            lambda p, k, with_dk=True: (function(p, k)[0], 0.0 * k) if with_dk else function(p, k, False),
        )
        with pytest.raises(RootPolishFailure, match="dJ/dk vanished"):
            locate_poles(REFERENCE_POTENTIAL, SearchWindow(re_max=10.0, im_min=-1.0))


def test_non_finite_matching_function_is_a_domain_error() -> None:
    # sqrt(V) L = 5,000 on the barrier: the kernels overflow everywhere, and
    # J is inf or NaN without a warning (warnings are errors here).
    barrier = PiecewiseConstant(((0.0, 0.5, 0.0), (0.5, 1.0, 1.0e8)))
    window = SearchWindow(re_max=40.0, im_min=-3.0)
    j, dj = matching_function(barrier, np.array([5.0 - 1.0j, 20.0]))
    assert not np.isfinite(j).any() and not np.isfinite(dj).any()
    for search in (locate_poles, winding_count):
        with pytest.raises(DomainError, match="J is not finite near k = 0-3j"):
            search(barrier, window)
    rect = np.array([[0.0, 40.0, -3.0, 0.0]])
    with pytest.raises(DomainError, match="J is not finite near k = 5-1j"):
        poles_module._polish(barrier, np.array([5.0 - 1.0j]), rect, 1e-12)


def _owners_by_mask(rects: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The first strip holding each k, or -1, from a poles x strips mask."""
    inside = (rects[:, 0] <= k.real[:, None]) & (k.real[:, None] < rects[:, 1])
    inside &= (rects[:, 2] <= k.imag[:, None]) & (k.imag[:, None] < rects[:, 3])
    return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


@pytest.mark.parametrize("n_strips", [1, 2, 7, 64])
def test_pole_owners_from_strip_order_match_the_mask(n_strips: int) -> None:
    # Strips cut as _strips cuts them.  The k lie on every cut and one ulp
    # to either side, on and beside both imaginary edges, outside the
    # window, at NaN, and all over strip 0, which stands for a strip that
    # counts no zero: its k are still its own, so the count check sees them.
    re_max, im_min = 127.5, -3.0
    cuts = np.linspace(0.0, re_max, n_strips + 1)
    rects = np.array([(a, b, im_min, 0.0) for a, b in zip(cuts[:-1], cuts[1:])])
    rng = np.random.default_rng(n_strips)
    re = np.concatenate(
        [
            cuts,
            np.nextafter(cuts, -np.inf),
            np.nextafter(cuts, np.inf),
            rng.uniform(-10.0, re_max + 10.0, 300),
            rng.uniform(cuts[0], cuts[1], 50),
            [-np.inf, np.inf, np.nan],
        ]
    )
    ims = [im_min, np.nextafter(im_min, -1.0), np.nextafter(im_min, 0.0), -1.0, -0.0, 0.0]
    im = np.concatenate([ims, [np.nextafter(0.0, -1.0)], rng.uniform(-4.0, 1.0, 20), [np.nan]])
    k = (re[:, None] + 1j * im[None, :]).ravel()
    got = _owners(rects, k)
    assert np.array_equal(got, _owners_by_mask(rects, k))
    assert (got == 0).sum() > 50 and (got == -1).any()


@pytest.mark.parametrize("im_min", [-1e100, -1e308])
def test_window_deeper_than_the_edge_budget_is_refused_before_any_j(
    monkeypatch: pytest.MonkeyPatch, im_min: float
) -> None:
    # The first contour pass would put 2e100 or inf samples on each vertical
    # edge: a ConfigError before J is evaluated anywhere.
    def no_j(*args, **kwargs):
        raise AssertionError("J evaluated")

    monkeypatch.setattr(poles_module, "matching_function", no_j)
    window = SearchWindow(re_max=12.0, im_min=im_min)
    for search in (locate_poles, winding_count):
        with pytest.raises(ConfigError, match="edge over 400000 samples"):
            search(REFERENCE_POTENTIAL, window)
