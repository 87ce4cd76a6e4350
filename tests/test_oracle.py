from __future__ import annotations

import math

import numpy as np
import pytest

import nonescape.oracle as oracle
from _oracles import evolve_tdse_full
from nonescape.dynamics import TimeGrid
from nonescape.errors import ConfigError, InvalidState, UnstableParameters
from nonescape.model import BoxMode, DeltaShell, PiecewiseConstant, state_norm
from nonescape.oracle import (
    GridSpec,
    OracleResult,
    evolve_tdse,
    gaussian_packet_exact,
    refine_and_compare,
    sampled_gaussian,
)
from nonescape.cli import load_config
from nonescape.selftest import SelftestContext

_REFERENCE = load_config(None)
REFERENCE_POTENTIAL, REFERENCE_STATE = _REFERENCE.potential, _REFERENCE.psi0

_GAMMA1 = 1.549219


def _small_grid(**overrides) -> GridSpec:
    base = dict(box_size=10.0, dr=0.005, dt=4.0e-4, t_final=0.5)
    base.update(overrides)
    return GridSpec(**base)


def test_grid_spec_validation() -> None:
    with pytest.raises(ConfigError, match="must be positive"):
        _small_grid(dr=-0.01)
    with pytest.raises(ConfigError, match="smaller than the box"):
        _small_grid(dr=20.0)
    with pytest.raises(ConfigError, match="not exceed t_final"):
        _small_grid(dt=1.0)
    with pytest.raises(ConfigError, match="enabled together"):
        _small_grid(absorber_width=2.0)
    with pytest.raises(ConfigError, match="fill the whole box"):
        _small_grid(absorber_width=10.0, absorber_strength=1.0)
    for w, s in ((math.nan, math.nan), (math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ConfigError, match="must be finite"):
            _small_grid(absorber_width=w, absorber_strength=s)


def test_grid_spec_step_counts() -> None:
    grid = _small_grid()
    assert grid.n_steps == 1250
    assert grid.n_nodes == 2001
    with pytest.raises(ConfigError, match="integer multiple of dt"):
        _ = _small_grid(dt=3.0e-4).n_steps
    with pytest.raises(ConfigError, match="integer multiple of dr"):
        _ = _small_grid(dr=0.0051).n_nodes


def test_grid_spec_refined() -> None:
    grid = _small_grid(absorber_width=4.0, absorber_strength=2.0)
    fine = grid.refined(2)
    assert fine.dr == grid.dr / 2
    assert fine.dt == grid.dt / 2
    assert fine.box_size == grid.box_size
    assert fine.absorber_strength == grid.absorber_strength
    with pytest.raises(ConfigError, match="factor"):
        grid.refined(1)


def test_run_validation_rules() -> None:
    state = REFERENCE_STATE
    with pytest.raises(ConfigError, match="too small"):
        evolve_tdse(REFERENCE_POTENTIAL, state, _small_grid(box_size=5.0))
    with pytest.raises(ConfigError, match="under-resolves"):
        evolve_tdse(REFERENCE_POTENTIAL, state, _small_grid(dr=0.01))
    with pytest.raises(ConfigError, match="grid node"):
        evolve_tdse(
            DeltaShell(strength=6.0, radius=1.0007), state, _small_grid(box_size=12.0)
        )
    with pytest.raises(ConfigError, match="dt \\* E_pot"):
        evolve_tdse(REFERENCE_POTENTIAL, state, _small_grid(dt=0.001))
    with pytest.raises(ConfigError, match="beyond the potential range"):
        evolve_tdse(
            REFERENCE_POTENTIAL,
            state,
            _small_grid(absorber_width=9.5, absorber_strength=1.0),
        )
    with pytest.raises(InvalidState, match="confined"):
        evolve_tdse(REFERENCE_POTENTIAL, BoxMode(mode=1, radius=2.0), _small_grid())


def test_run_rejects_segment_edge_off_grid() -> None:
    # dr = 0.005: the edge at 0.3 is node 60, the edge at 0.6025 lies
    # midway between nodes 120 and 121.
    grid = _small_grid(t_final=0.2)
    off = PiecewiseConstant(((0.0, 0.3, 0.0), (0.3, 0.6025, 10.0), (0.6025, 1.0, 40.0)))
    with pytest.raises(ConfigError, match="segment edge 0.6025 must fall on a grid node"):
        evolve_tdse(off, REFERENCE_STATE, grid)
    on = PiecewiseConstant(((0.0, 0.3, 0.0), (0.3, 0.6, 10.0), (0.6, 1.0, 40.0)))
    result = evolve_tdse(on, REFERENCE_STATE, grid)
    assert np.all(np.isfinite(result.series.probability))


def test_underresolution_escape_hatch() -> None:
    # dr > range/200 is allowed only when resolution enforcement is waived.
    coarse = GridSpec(
        box_size=10.0, dr=0.05, dt=4.0e-3, t_final=0.2, enforce_resolution=False
    )
    result = evolve_tdse(REFERENCE_POTENTIAL, REFERENCE_STATE, coarse)
    # Smoothing at this coarse dr parks ~dr |psi(R)|^2 / 2 outside the box.
    assert result.series.probability[0] == pytest.approx(1.0, abs=1e-3)


def test_evolution_deterministic() -> None:
    grid = _small_grid()
    times = TimeGrid.log(0.05, 0.5, per_decade=10)
    a = evolve_tdse(REFERENCE_POTENTIAL, REFERENCE_STATE, grid, times)
    b = evolve_tdse(REFERENCE_POTENTIAL, REFERENCE_STATE, grid, times)
    np.testing.assert_array_equal(a.series.probability, b.series.probability)
    np.testing.assert_array_equal(a.norms, b.norms)


def test_output_times_snapped_to_steps() -> None:
    grid = _small_grid()
    times = TimeGrid(np.array([0.1003, 0.25]))
    result = evolve_tdse(REFERENCE_POTENTIAL, REFERENCE_STATE, grid, times)
    t = result.series.times
    assert t[0] == 0.0  # t = 0 always included
    steps = np.round(t / grid.dt)
    np.testing.assert_allclose(t, steps * grid.dt, rtol=0, atol=1e-15)
    assert t[1] == pytest.approx(251 * grid.dt)  # 0.1003 -> nearest step


def test_initial_probability_is_unity() -> None:
    grid = _small_grid()
    result = evolve_tdse(
        REFERENCE_POTENTIAL, REFERENCE_STATE, grid, TimeGrid(np.array([0.25]))
    )
    # The binomial smoothing pass leaves P(0) = 1 - dr |psi(R)|^2 / 2.
    assert result.series.probability[0] == pytest.approx(1.0, abs=1e-6)
    assert result.norms[0] == pytest.approx(1.0, abs=1e-12)


def test_norm_conserved_without_absorber(ctx: SelftestContext) -> None:
    run = ctx.gauss_run
    assert run.grid.absorber_width == 0.0
    drift = float(np.max(np.abs(run.norms - 1.0)))
    assert drift / (run.grid.n_steps / 1e4) <= 1e-8


def test_free_gaussian_matches_exact_solution(ctx: SelftestContext) -> None:
    run = ctx.gauss_run
    assert len(run.snapshots) == 4
    for t_snap, psi in run.snapshots:
        assert t_snap in (0.375, 0.75, 1.125, 1.5)
        exact = np.asarray(
            gaussian_packet_exact(run.r_interior, t_snap, 0.32, 2.4, 1.0)
        )
        dev = float(np.max(np.abs(np.abs(psi) ** 2 - np.abs(exact) ** 2)))
        assert dev <= 1e-4, f"t = {t_snap}"


def test_free_gaussian_second_order_in_grid() -> None:
    # Halving dr and dt must shrink the density error by about 2^2.  The
    # base grid is deliberately coarse so the discretization error dominates
    # the (grid-independent) sampling floor of the initial state; its dr is
    # a multiple of dr_sample, so psi0 starts exactly on-node.
    def density_dev(result: OracleResult) -> float:
        worst = 0.0
        for t_snap, psi in result.snapshots:
            r = result.r_interior
            exact = np.asarray(gaussian_packet_exact(r, t_snap, 0.32, 2.4, 1.0))
            worst = max(worst, float(np.max(np.abs(np.abs(psi) ** 2 - np.abs(exact) ** 2))))
        return worst

    psi0 = sampled_gaussian(sigma=0.32, center=2.4, momentum=1.0, support=5.0, dr_sample=0.004)
    free = PiecewiseConstant(((0.0, 5.0, 0.0),))
    base_grid = GridSpec(
        box_size=50.0, dr=0.02, dt=1.0e-3, t_final=1.0, smooth_initial=False
    )
    times = TimeGrid(np.array([1.0]))
    snaps = (0.25, 0.5, 0.75, 1.0)
    base = evolve_tdse(free, psi0, base_grid, times=times, sample_times=snaps)
    fine = evolve_tdse(
        free, psi0, base_grid.refined(2), times=times, sample_times=snaps
    )
    ratio = density_dev(base) / density_dev(fine)
    assert 3.2 <= ratio <= 5.0


def test_horizon_recorded() -> None:
    grid = _small_grid(t_final=2.0)
    result = evolve_tdse(
        REFERENCE_POTENTIAL, REFERENCE_STATE, grid, TimeGrid(np.array([0.5, 1.9]))
    )
    assert result.horizon_time is not None
    assert 0.0 < result.horizon_time < 2.0


_COARSE = GridSpec(box_size=10.0, dr=0.05, dt=4.0e-3, t_final=2.0, enforce_resolution=False)
_COARSE_TIMES = TimeGrid.log(0.1, 2.0, per_decade=10)


def _refine(factors: tuple[int, ...]) -> tuple:
    return refine_and_compare(
        REFERENCE_POTENTIAL, REFERENCE_STATE, _COARSE, factors, _COARSE_TIMES, tolerance=1e-3
    )


def test_coarse_grid_flagged_by_refinement() -> None:
    (report,) = _refine((2,))
    assert report.flagged
    assert 5e-3 <= report.max_rel_dev <= 0.1
    assert report.factor == 2


def test_refinement_runs_the_base_grid_once(monkeypatch: pytest.MonkeyPatch) -> None:
    singles = [_refine((f,))[0] for f in (2, 4)]
    grids = []

    def spy(potential, psi0, grid, times=None, sample_times=()):
        grids.append(grid)
        return evolve_tdse(potential, psi0, grid, times, sample_times)

    monkeypatch.setattr(oracle, "evolve_tdse", spy)
    reports = _refine((2, 4))
    assert grids == [_COARSE, _COARSE.refined(2), _COARSE.refined(4)]
    assert reports[0].base is reports[1].base
    for shared, single in zip(reports, singles):
        for run in ("base", "refined"):
            got, want = getattr(shared, run).series, getattr(single, run).series
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.probability, want.probability)
        for name in ("factor", "max_abs_dev", "max_rel_dev", "flagged"):
            assert getattr(shared, name) == getattr(single, name)


@pytest.mark.parametrize("factors", [(2, 1), (1,)])
def test_bad_refinement_factor_refused_before_any_run(
    monkeypatch: pytest.MonkeyPatch, factors: tuple[int, ...]
) -> None:
    monkeypatch.setattr(oracle, "evolve_tdse", None)  # a run would raise TypeError
    with pytest.raises(ConfigError, match="refinement factor must be >= 2"):
        _refine(factors)


def test_refinement_second_order(ctx: SelftestContext) -> None:
    rep2, rep4 = ctx.refinement_pair
    assert rep2.factor == 2 and rep4.factor == 4
    # Deviation against a factor-f refinement scales like (1 - 1/f^2) h^2:
    # the x2 report may exceed the x4 one by at most (4/3)/(15/16) ~ 1.27,
    # comfortably inside the factor-4 bound asserted here.
    assert rep2.max_rel_dev <= 4.0 * rep4.max_rel_dev
    assert rep4.max_rel_dev < rep2.max_rel_dev * 1.5
    assert not rep2.flagged and not rep4.flagged


@pytest.mark.slow
def test_long_run_health(ctx: SelftestContext) -> None:
    run = ctx.long_run
    assert run.grid.absorber_width > 0.0
    assert run.horizon_time is None  # absorber keeps the far wall clean
    assert run.norms[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(run.norms) <= 1e-12)  # absorber only removes norm
    series = run.series
    assert series.mode == "crank-nicolson"
    assert np.all(series.probability > 0.0)
    # Exponential stage: ln P slope ~ -Gamma_1 between 0.5 and 3 lifetimes.
    tau = 1.0 / _GAMMA1
    mask = (series.times >= 0.5 * tau) & (series.times <= 3.0 * tau)
    slope = np.polyfit(series.times[mask], np.log(series.probability[mask]), 1)[0]
    assert slope == pytest.approx(-_GAMMA1, rel=0.05)


@pytest.fixture()
def solve_sizes(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Nodes in each tridiagonal solve ``evolve_tdse`` makes."""
    sizes: list[int] = []
    lapack = oracle.get_lapack_funcs

    def recording(names, arrays):
        gttrf, gttrs = lapack(names, arrays)

        def solve(dl, d, du, du2, ipiv, b, **kwargs):
            sizes.append(len(b))
            return gttrs(dl, d, du, du2, ipiv, b, **kwargs)

        return gttrf, solve

    monkeypatch.setattr(oracle, "get_lapack_funcs", recording)
    return sizes


def _assert_same_run(windowed: OracleResult, full: OracleResult) -> None:
    np.testing.assert_array_equal(windowed.series.times, full.series.times)
    np.testing.assert_array_equal(windowed.series.probability, full.series.probability)
    np.testing.assert_array_equal(windowed.norms, full.norms)
    assert windowed.horizon_time == full.horizon_time
    # Zeros past the solved block may differ in sign only.
    assert len(windowed.snapshots) == len(full.snapshots)
    for (t_w, psi_w), (t_f, psi_f) in zip(windowed.snapshots, full.snapshots):
        assert t_w == t_f
        np.testing.assert_array_equal(psi_w, psi_f)


def test_windowed_solve_matches_full_box_with_absorber(solve_sizes: list[int]) -> None:
    # The reference shell and grid in a shorter box, with the absorber
    # starting at r = 2 so that it damps the state while the solved block
    # grows by many chunks over 400 steps.
    grid = GridSpec(
        box_size=40.0, dr=0.005, dt=4.0e-4, t_final=0.16,
        absorber_width=38.0, absorber_strength=15.0,
    )
    times = TimeGrid.log(0.002, 0.16, per_decade=40)
    snaps = (0.08, 0.16)
    windowed = evolve_tdse(REFERENCE_POTENTIAL, REFERENCE_STATE, grid, times, snaps)
    blocks = np.asarray(solve_sizes)
    full = evolve_tdse_full(REFERENCE_POTENTIAL, REFERENCE_STATE, grid, times, snaps)
    _assert_same_run(windowed, full)
    m = full.r_interior.size
    assert blocks.max() < m
    assert [psi.size for _, psi in windowed.snapshots] == [m, m]
    assert blocks.max() - blocks[0] >= 10 * oracle._WINDOW_CHUNK


def test_windowed_solve_matches_full_box_at_horizon(solve_sizes: list[int]) -> None:
    grid = _small_grid(t_final=2.0)
    times = TimeGrid(np.array([0.5, 1.9]))
    windowed = evolve_tdse(REFERENCE_POTENTIAL, REFERENCE_STATE, grid, times)
    last_block = solve_sizes[-1]
    full = evolve_tdse_full(REFERENCE_POTENTIAL, REFERENCE_STATE, grid, times)
    _assert_same_run(windowed, full)
    assert windowed.horizon_time is not None
    assert last_block == full.r_interior.size


def test_windowed_solve_matches_full_box_for_barrier(solve_sizes: list[int]) -> None:
    barrier = PiecewiseConstant(((0.0, 0.5, 0.0), (0.5, 1.0, 40.0)))
    grid = GridSpec(box_size=30.0, dr=0.005, dt=4.0e-4, t_final=0.12)
    windowed = evolve_tdse(barrier, REFERENCE_STATE, grid)
    first_block = solve_sizes[0]
    full = evolve_tdse_full(barrier, REFERENCE_STATE, grid)
    _assert_same_run(windowed, full)
    assert first_block < full.r_interior.size


def test_windowed_solve_matches_full_box_for_packet(ctx: SelftestContext) -> None:
    run = ctx.gauss_run
    psi0 = sampled_gaussian(
        sigma=0.32, center=2.4, momentum=1.0, support=5.0, dr_sample=0.004
    )
    full = evolve_tdse_full(
        PiecewiseConstant(((0.0, 5.0, 0.0),)),
        psi0,
        run.grid,
        times=TimeGrid(times=np.linspace(0.05, 1.5, 30)),
        sample_times=(0.375, 0.75, 1.125, 1.5),
    )
    _assert_same_run(run, full)


def test_row_interchange_solves_whole_box(
    solve_sizes: list[int], monkeypatch: pytest.MonkeyPatch
) -> None:
    # Leading slices factor the leading block only when gttrf swapped no
    # rows; any interchange in ipiv must send every step to the whole box.
    recording = oracle.get_lapack_funcs

    def interchanged(names, arrays):
        gttrf, gttrs = recording(names, arrays)

        def factor(*args):
            dl, d, du, du2, ipiv, info = gttrf(*args)
            swapped = ipiv.copy()
            swapped[-2] += 1
            return dl, d, du, du2, swapped, info

        def solve(dl, d, du, du2, ipiv, b, **kwargs):
            identity = np.arange(1, len(b) + 1, dtype=ipiv.dtype)
            return gttrs(dl, d, du, du2, identity, b, **kwargs)

        return factor, solve

    monkeypatch.setattr(oracle, "get_lapack_funcs", interchanged)
    grid = GridSpec(box_size=30.0, dr=0.005, dt=4.0e-4, t_final=0.02)
    windowed = evolve_tdse(REFERENCE_POTENTIAL, REFERENCE_STATE, grid)
    blocks = list(solve_sizes)
    full = evolve_tdse_full(REFERENCE_POTENTIAL, REFERENCE_STATE, grid)
    _assert_same_run(windowed, full)
    assert blocks == [full.r_interior.size] * grid.n_steps


def test_norm_drift_raises(monkeypatch: pytest.MonkeyPatch) -> None:
    # The first check, at step 200, sees a drift of about 9e-14.
    monkeypatch.setattr(oracle, "_NORM_DRIFT_LIMIT", 1e-14)
    with pytest.raises(UnstableParameters, match="norm drift .* at t = 0.08 exceeds"):
        evolve_tdse(REFERENCE_POTENTIAL, REFERENCE_STATE, _small_grid(t_final=0.1))


def test_gaussian_packet_exact_wall_condition() -> None:
    r = np.linspace(0.0, 30.0, 6001)
    for t in (0.0, 0.4, 1.3):
        psi = np.asarray(gaussian_packet_exact(r, t, 0.32, 2.4, 1.0))
        assert abs(psi[0]) <= 1e-14
        norm = float(np.trapezoid(np.abs(psi) ** 2, r))
        assert norm == pytest.approx(1.0, abs=1e-8)
    assert gaussian_packet_exact(0.0, 0.7, 0.32, 2.4, 1.0) == 0.0


def test_gaussian_packet_drifts_at_group_velocity() -> None:
    # Early enough that the odd mirror image at -center stays negligible.
    r = np.linspace(0.0, 30.0, 6001)
    t = 0.3
    psi = np.asarray(gaussian_packet_exact(r, t, 0.32, 2.4, 1.0))
    dens = np.abs(psi) ** 2
    center = float(np.trapezoid(r * dens, r) / np.trapezoid(dens, r))
    assert center == pytest.approx(2.4 + 2.0 * 1.0 * t, abs=0.005)


def test_sampled_gaussian_construction() -> None:
    state = sampled_gaussian(sigma=0.32, center=2.4, momentum=1.0, support=5.0, dr_sample=0.004)
    assert state.values[0] == 0.0 and state.values[-1] == 0.0
    assert state_norm(state) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConfigError, match="multiple of dr_sample"):
        sampled_gaussian(sigma=0.32, center=2.4, momentum=1.0, support=5.0, dr_sample=0.0043)
