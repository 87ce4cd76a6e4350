"""Built-in acceptance suite: nine numbered checks on the reference model.

The reference configuration is the packaged default run configuration: the
delta-shell potential (strength 6, radius 1) expanded over the lowest box
mode, in units hbar = 2m = 1.  The checks cover the special-function layer,
the pole table, the overlap identity, completeness and the sum rule, both
routes to the t^-1 tail weight, cross-validation against direct
Crank-Nicolson integration, the long-time power law with its truncation
crossovers, and the integrator's own health.  Each check prints one
PASS/FAIL line with the measured numbers; heavy artifacts (pole table,
expansion, long integrations) are built lazily once and shared through
:class:`SelftestContext`, the same run context every CLI command reads.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .asymptote import (
    D1_RATIO_BOUND,
    T3_BAND,
    TailReport,
    Verdict,
    adjudicate,
    convergence_study,
    crossover_time,
    slope_fit,
    tail_expansion,
    tail_series,
)
from .dynamics import NonescapeSeries, TimeGrid, nonescape_probability, probability_sums
from .errors import NonescapeError
from .gamow import (
    ExpansionData,
    build_expansion,
    overlap_matrix,
    reconstruct_initial,
    sum_rule_residual,
)
from .model import DeltaShell, PiecewiseConstant, initial_wavefunction
from .oracle import (
    GridSpec,
    OracleResult,
    RefinementReport,
    evolve_tdse,
    gaussian_packet_exact,
    refine_and_compare,
    sampled_gaussian,
)
from .poles import PoleSet, SearchWindow, locate_poles, matching_function, winding_count
from .segmath import panel_nodes
from .specfn import faddeeva, moshinsky

if TYPE_CHECKING:  # pragma: no cover
    from .cli import RunConfig

__all__ = ["CheckResult", "SelftestContext", "CHECKS", "run_check", "run_selftest"]

# Re k midway between poles 160 and 161: the rungs past N = 40 of check 8.
_WIDE_RE_MAX = 503.5
_WIDE_TRUNCATIONS = (80, 160)
_HARD_SHELL = DeltaShell(strength=1.0e4, radius=1.0)  # check 2: Re k_n -> n pi

# w(z) references frozen from 50-digit evaluations of the defining series
# (Taylor about the origin for |z| <= 4, Laplace continued fraction beyond,
# lower half-plane through the reflection w(z) = 2 exp(-z^2) - w(-z)).
_FADDEEVA_TABLE = (
    (0.3, 0.2, 0.7528947901368792, 0.22965315234906994),
    (-1.1, 0.7, 0.3078155273846152, -0.2868151163702649),
    (2.4, 0.001, 0.003297206521644426, 0.26550713927883574),
    (3.9, 2.2, 0.06515597063777391, 0.10961372415826996),
    (-3.3, 3.1, 0.08750645915283103, -0.08872042401683541),
    (0.02, 3.8, 0.1437854170277202, 0.0007116628196001876),
    (1.7, -0.4, -0.11242379236501841, 0.4662269586039833),
    (-2.6, -1.9, -0.1880437936281902, -0.09988845811349399),
    (0.5, -3.2, -43540.39034855664, -2545.9409608829924),
    (-0.008, -2.7, 2928.0224282508307, -126.57834720529925),
    (3.7, -0.03, -0.0014055778059222528, 0.15880772570020782),
    (-3.9, -3.9, 1.0139929667706074, 1.6074364507211585),
    (5.2, 0.8, 0.01724474026935768, 0.10780745719511464),
    (-7.5, 4.4, 0.033264893810134005, -0.055947078718822915),
    (11.0, 0.2, 0.0009440297810559297, 0.051487204105357696),
    (28.0, 17.0, 0.008946710827121332, 0.014722020385495204),
    (-45.0, 2.5, 0.0006948984786970143, -0.01250201022922312),
    (6.1, 33.0, 0.016525416766963976, 0.0030519915668453974),
    (4.6, -1.2, -0.031964279405995444, 0.11677193171312199),
    (-8.8, -0.6, -0.004437218434430368, -0.06422603167498471),
    (14.0, -9.0, -0.018391723176188462, 0.028505943704064854),
    (-31.0, -0.04, -2.352014849120383e-05, -0.018209117535980257),
    (50.0, -24.0, -0.004403610646973166, 0.00917120561361246),
    (-15.05, -14.0, -0.018720181209936272, -0.020076604700526985),
    (-0.7, -18.0, 6.290059831458224e+140, -4.237007927191461e+139),
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one numbered check."""

    index: int
    passed: bool
    details: str

    @property
    def name(self) -> str:
        return list(CHECKS)[self.index - 1]

    @property
    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"check {self.index}/9 {tag} - {self.name}: {self.details}"


class SelftestContext:
    """The stages of one run, built lazily, which every command and check reads.

    ``pole_set``, ``data``, ``long_run``, ``tail_report`` and ``verdict`` are
    the pole table, expansion, direct run, tail report and verdict, so
    ``nonescape compare`` writes the verdict that checks 7 and 8 judge.  The
    checks run on the packaged default configuration.  Each property is
    computed at most once; a full :func:`run_selftest` costs a few minutes,
    most of them in the direct run.
    """

    def __init__(self, cfg: RunConfig, verbose: bool = False):
        self.cfg = cfg
        self.verbose = verbose

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[selftest] {message}", file=sys.stderr, flush=True)

    @cached_property
    def pole_set(self) -> PoleSet:
        self._log("locating reference poles ...")
        return locate_poles(self.cfg.potential, self.cfg.window, self.cfg.tol)

    @cached_property
    def data(self) -> ExpansionData:
        """The largest truncation's expansion, which the smaller ones slice."""
        cfg = self.cfg
        return build_expansion(
            cfg.potential, self.pole_set, cfg.psi0, n_pairs=cfg.truncations[-1]
        )

    @cached_property
    def wide_data(self) -> ExpansionData:
        """Expansion over 160 pole pairs (about one second to build)."""
        self._log("locating 160 pole pairs ...")
        window = dataclasses.replace(self.cfg.window, re_max=_WIDE_RE_MAX)
        poles = locate_poles(self.cfg.potential, window, self.cfg.tol)
        return build_expansion(self.cfg.potential, poles, self.cfg.psi0)

    @cached_property
    def free_pole_set(self) -> PoleSet:
        return locate_poles(
            PiecewiseConstant(((0.0, 1.0, 0.0),)), SearchWindow(re_max=40.0, im_min=-3.0)
        )

    @cached_property
    def hard_shell_pole_set(self) -> PoleSet:
        return locate_poles(_HARD_SHELL, SearchWindow(re_max=10.5, im_min=-1.0))

    @cached_property
    def long_run(self) -> OracleResult:
        """Direct integration on the config's oracle and time grids.

        It reaches deep into the algebraic tail.  The absorber is half the
        box with a sin^2 profile, and its ramp still reflects: P t^3 follows
        the expansion's t^-3 law within 0.6 % up to t ~ 34, then swings
        about it with growing amplitude (about 5 % by t ~ 37.5, 0.70 of the
        law at t = 42).  A gentler ramp with the same onset (box 320, width
        200) cuts the swing about 2.5-fold.  The leak monitor watches only
        r = L, so ``horizon_time`` stays None and check 8's direct fit,
        which ends at t = 42, carries the swing in its slope and stderr.
        """
        self._log("direct integration, t <= 42 (about three minutes) ...")
        start = time.time()
        cfg = self.cfg
        result = evolve_tdse(cfg.potential, cfg.psi0, cfg.oracle_grid, times=cfg.time_grid)
        self._log(f"... done in {time.time() - start:.0f} s")
        return result

    @cached_property
    def tail_report(self) -> TailReport:
        """The tail study of the config's truncations: the table ``nonescape
        tail`` writes beside its slopes, the D1 and crossovers ``compare``
        writes, and what checks 6 and 8 judge."""
        return convergence_study(self.data, self.cfg.truncations)

    @cached_property
    def verdict(self) -> Verdict:
        """The expansion judged against ``long_run`` on its samples: the
        verdict ``nonescape compare`` writes and checks 7 and 8 judge."""
        data, run = self.data, self.long_run  # a spectral error is reported first
        sums = probability_sums(data, TimeGrid(times=run.series.times), self.cfg.truncations)
        return adjudicate(
            run.series, run.horizon_time, sums, self.tail_report, self.pole_set.pole(1)
        )

    @cached_property
    def gauss_run(self) -> OracleResult:
        """Absorber-free evolution of a free Gaussian packet."""
        self._log("free Gaussian packet run ...")
        psi0 = sampled_gaussian(
            sigma=0.32, center=2.4, momentum=1.0, support=5.0, dr_sample=0.004
        )
        free = PiecewiseConstant(((0.0, 5.0, 0.0),))
        grid = GridSpec(
            box_size=50.0, dr=0.004, dt=2.0e-4, t_final=1.5, smooth_initial=False
        )
        return evolve_tdse(
            free,
            psi0,
            grid,
            times=TimeGrid(times=np.linspace(0.05, 1.5, 30)),
            sample_times=(0.375, 0.75, 1.125, 1.5),
        )

    @cached_property
    def refinement_pair(self) -> tuple[RefinementReport, RefinementReport]:
        """The reference problem in a short hard-wall box, refined x2 and x4
        against one shared base run."""
        self._log("refinement study ...")
        cfg = self.cfg
        grid = dataclasses.replace(
            cfg.oracle_grid, box_size=12.0, dr=0.01, t_final=1.2,
            absorber_width=0.0, absorber_strength=0.0, enforce_resolution=False,
        )
        times = TimeGrid.log(0.05, 1.2, per_decade=20)
        return refine_and_compare(cfg.potential, cfg.psi0, grid, (2, 4), times, tolerance=2e-3)


def check_special_functions(ctx: SelftestContext) -> CheckResult:
    """Faddeeva against frozen references; Moshinsky start value; reflection."""
    table = np.asarray(_FADDEEVA_TABLE)
    z = table[:, 0] + 1j * table[:, 1]
    ref = table[:, 2] + 1j * table[:, 3]
    w_dev = float(np.max(np.abs(faddeeva(z) - ref) / np.abs(ref)))

    rng = np.random.default_rng(20260815)
    k = rng.uniform(-30.0, 30.0, 100) + 1j * rng.uniform(-3.0, 3.0, 100)
    m0_dev = float(np.max(np.abs(moshinsky(k, 0.0) - 0.5)))

    # Error relative to the identity's largest term: for Im k^2 > 0 the
    # right side is exponentially small and the two M's cancel to produce
    # it, so a denominator |rhs| would demand digits float64 cannot hold.
    k_r = rng.uniform(-6.0, 6.0, 100) + 1j * rng.uniform(-1.5, 1.5, 100)
    t_r = rng.uniform(0.01, 10.0, 100)
    # M(+-k_i, t_i): the diagonal of the every-time-against-every-k table
    pair = np.arange(t_r.size)
    m_pos, m_neg = moshinsky(np.stack([k_r, -k_r]), t_r)[pair, :, pair].T
    rhs = np.exp(-1j * k_r**2 * t_r)
    scale = np.max(np.abs([m_pos, m_neg, rhs]), axis=0)
    refl_dev = float(np.max(np.abs(m_pos + m_neg - rhs) / scale))

    passed = w_dev <= 1e-12 and m0_dev <= 1e-14 and refl_dev <= 1e-11
    details = (
        f"faddeeva rel dev {w_dev:.2e} (tol 1e-12); "
        f"|M(k,0)-1/2| {m0_dev:.2e} (tol 1e-14); "
        f"reflection rel dev {refl_dev:.2e} (tol 1e-11)"
    )
    return CheckResult(1, passed, details)


def check_poles(ctx: SelftestContext) -> CheckResult:
    """Pole table: free case, hard-shell limit, |J| at the tables' k, winding."""
    n_free = len(ctx.free_pole_set)

    hard = ctx.hard_shell_pole_set
    hard_dev = max(
        abs(hard.pole(n).real - n * np.pi) for n in (1, 2, 3)
    ) if len(hard) >= 3 else np.inf

    res = float(np.max(np.concatenate([
        np.abs(matching_function(potential, found.k, with_dk=False)) / found.scale
        for potential, found in ((ctx.cfg.potential, ctx.pole_set), (_HARD_SHELL, hard))
    ])))

    audit = winding_count(ctx.cfg.potential, ctx.cfg.window)
    n_found = len(ctx.pole_set)

    passed = n_free == 0 and hard_dev <= 0.05 and res <= 1e-10 and audit == n_found
    details = (
        f"free potential: {n_free} poles; hard shell max |Re k_n - n pi| "
        f"{hard_dev:.2e} (tol 0.05); max residual/scale {res:.2e} (tol 1e-10); "
        f"winding {audit} vs {n_found} located"
    )
    return CheckResult(2, passed, details)


def check_overlap_identity(ctx: SelftestContext) -> CheckResult:
    """Closed-form overlaps against adaptive quadrature for |n|, |l| <= 10."""
    states = ctx.data.truncate(10).states
    closed = overlap_matrix(states, method="closed")
    quad = overlap_matrix(states, method="quadrature")
    rel = float(np.max(np.abs(closed - quad) / np.maximum(np.abs(closed), 1e-30)))
    passed = rel <= 1e-8
    details = f"max rel dev {rel:.2e} over 20x20 overlaps (tol 1e-8)"
    return CheckResult(3, passed, details)


def check_completeness(ctx: SelftestContext) -> CheckResult:
    """P_N(0) -> 1 at the 1/N rate, confirmed by an independent L2 route.

    For the box mode C_n = sqrt(2) pi u_n(R) / (pi^2 - k_n^2) and
    u_n(R)^2 -> i k_n / lambda, so |C_n u_n(R)| ~ 1/|k_n|: the partial sums
    behave like a Fourier series with a jump at r = R, whose Gibbs layer of
    width ~1/N carries ||psi_N - psi0||^2 ~ 1/N.  The rate is therefore held
    to the 1/N law; a pointwise bound near r = R would measure the layer.
    P_N(0) - 1 from the closed-form double sum and ||psi_N - psi0||^2 by
    quadrature of the partial sum differ by 2 Re <psi0, psi_N - psi0>,
    which is O(N^-3).
    """
    truncs = ctx.cfg.truncations
    sums = probability_sums(ctx.data, TimeGrid(times=np.array([0.0])), truncs)
    excess = {n: float(sums.series(n).probability[0]) - 1.0 for n in truncs}
    rate = float(
        np.polyfit(np.log(truncs), np.log([abs(excess[n]) for n in truncs]), 1)[0]
    )
    l2_dev = {}
    for n in (5, 40):
        r, w = panel_nodes(0.0, ctx.cfg.psi0.radius, 2 * n)
        gap = reconstruct_initial(ctx.data.truncate(n), r) - initial_wavefunction(
            ctx.cfg.psi0, r
        )
        l2 = float(np.sum(w * np.abs(gap) ** 2))
        l2_dev[n] = abs(excess[n] - l2) / l2
    err = abs(excess[40])
    passed = err <= 1e-2 and -1.2 <= rate <= -0.8 and max(l2_dev.values()) <= 0.05
    details = (
        f"|P(0)-1| = {err:.2e} at N=40 (tol 1e-2); convergence exponent "
        f"{rate:.2f} over N = 5..40 (1/N law, band [-1.2, -0.8]); "
        f"||psi_N - psi0||^2 by quadrature vs P_N(0)-1: rel dev "
        f"{l2_dev[5]:.1e} at N=5, {l2_dev[40]:.1e} at N=40 (tol 0.05)"
    )
    return CheckResult(4, passed, details)


def check_sum_rule(ctx: SelftestContext) -> CheckResult:
    """|S_N| at interior radii must drop at least tenfold from N=5 to N=40."""
    r = np.array([0.25, 0.5, 0.75])
    s5 = np.abs(sum_rule_residual(ctx.data.truncate(5), r))
    s40 = np.abs(sum_rule_residual(ctx.data.truncate(40), r))
    ratios = s5 / s40
    passed = bool(np.all(ratios >= 10.0))
    details = "drop factors " + ", ".join(
        f"x{f:.0f} at r={rr:.2f}" for f, rr in zip(ratios, r)
    ) + " (need >= x10)"
    return CheckResult(5, passed, details)


def check_tail_coefficient(ctx: SelftestContext) -> CheckResult:
    """t^-1 weight: non-negative, route-consistent, vanishing with N."""
    d1 = tail_expansion(ctx.data, range(1, 41))[:, 0]
    nonneg = all(v >= 0.0 for v in d1)
    report = ctx.tail_report
    report.check_routes()
    n_lo, n_hi = report.truncations[0], report.truncations[-1]
    passed = nonneg and report.vanishing
    details = (
        f"min D1 {min(d1):.2e} (all N <= 40 non-negative: {nonneg}); "
        f"route dev {report.route_dev:.2e} (tol 1e-6); "
        f"D1({n_hi})/D1({n_lo}) = {report.d1_ratio:.2e} (tol {D1_RATIO_BOUND:g})"
    )
    return CheckResult(6, passed, details)


def check_cross_validation(ctx: SelftestContext) -> CheckResult:
    """Expansion P(t) against direct integration over [0.1, 5] lifetimes."""
    verdict = ctx.verdict
    t_lo, t_hi = verdict.lifetime_window
    rel = verdict.lifetime_dev
    passed = rel <= 0.02
    details = (
        f"max rel dev {rel:.2e} over {int(verdict.lifetime_mask.sum())} samples in "
        f"[{t_lo:.3f}, {t_hi:.3f}] (tol 0.02)"
    )
    return CheckResult(7, passed, details)


def check_long_time_law(ctx: SelftestContext) -> CheckResult:
    """Slope of the algebraic tail, and the truncation crossover ladder.

    The direct and N <= 40 slopes are the verdict's, the N <= 40 crossovers
    and N = 40's tail the tail report's.
    A truncation's tail T1/t + T3/t^3 has local slope -3 + 2x/(1+x) with
    x = (t/t_c)^2, which stays at or below -2.7 only for t <= 0.42 t_c.  So
    a truncation shows the t^-3 law on the fit window only if its crossover
    t_c >= 2.4 t_hi: N = 160 must meet that premise and the band, while
    N = 40, whose t_c lies inside the window, must follow its own tail.
    """
    verdict = ctx.verdict
    window, direct = verdict.window, verdict.direct_fit
    if direct is None:
        return CheckResult(8, False, verdict.text)

    t = ctx.long_run.series.times
    t_win = TimeGrid(times=t[(t >= window[0]) & (t <= window[1])])
    report = ctx.tail_report
    wide_tails = tail_expansion(ctx.wide_data, _WIDE_TRUNCATIONS)
    ladder = report.crossover.tolist() + [crossover_time(*row) for row in wide_tails]

    n_top = _WIDE_TRUNCATIONS[-1]
    t_need = 2.4 * window[1]
    converged = slope_fit(
        nonescape_probability(ctx.wide_data, t_win, n_pairs=n_top), window
    )
    n_max = ctx.cfg.truncations[-1]
    truncated = verdict.expansion_fits[n_max]
    own = tail_series(report.tails[-1], t_win.times)
    own_tail = slope_fit(NonescapeSeries(t_win.times, own, 0.0, n_max), window).slope
    tail_dev = abs(truncated.slope - own_tail)

    band = f"band [{T3_BAND[0]:g}, {T3_BAND[1]:g}]"
    converged_ok = (
        ladder[-1] >= t_need and T3_BAND[0] <= converged.slope <= T3_BAND[1]
    )
    ladder_ok = all(a < b for a, b in zip(ladder, ladder[1:]))
    passed = verdict.t3 and converged_ok and tail_dev <= 0.05 and ladder_ok
    details = (
        f"direct slope {direct.slope:.3f} +- {direct.stderr:.3f} on "
        f"[{window[0]:.2f}, {window[1]:.2f}] ({band}); N={n_top} "
        f"slope {converged.slope:.3f} in same window ({band}; "
        f"premise t_c = {ladder[-1]:.2f} >= 2.4 t_hi = {t_need:.2f}); "
        f"N={n_max} slope {truncated.slope:.3f} vs its own tail {own_tail:.3f} "
        f"(tol 0.05); crossover times "
        + " < ".join(f"{c:.2f}" for c in ladder)
        + f" monotone: {ladder_ok}"
    )
    return CheckResult(8, passed, details)


def check_oracle_integrity(ctx: SelftestContext) -> CheckResult:
    """Norm conservation, free-packet accuracy, and grid convergence."""
    run = ctx.gauss_run
    drift = float(np.max(np.abs(run.norms - 1.0)))
    per_1e4 = drift / (run.grid.n_steps / 1e4)

    dens_dev = 0.0
    for t_snap, psi in run.snapshots:
        exact = gaussian_packet_exact(
            run.r_interior, t_snap, sigma=0.32, center=2.4, momentum=1.0
        )
        dens_dev = max(
            dens_dev, float(np.max(np.abs(np.abs(psi) ** 2 - np.abs(exact) ** 2)))
        )

    rep2, rep4 = ctx.refinement_pair
    second_order = rep2.max_rel_dev <= 4.0 * rep4.max_rel_dev

    passed = per_1e4 <= 1e-8 and dens_dev <= 1e-4 and second_order
    details = (
        f"norm drift {per_1e4:.2e} per 1e4 steps (tol 1e-8); free-packet "
        f"density dev {dens_dev:.2e} (tol 1e-4); refinement devs "
        f"{rep2.max_rel_dev:.2e} (x2) vs {rep4.max_rel_dev:.2e} (x4), "
        f"second-order consistent: {second_order}"
    )
    return CheckResult(9, passed, details)


# The nine checks by name, in order: check i is the i-th entry.
CHECKS: dict[str, Callable[[SelftestContext], CheckResult]] = {
    "special functions": check_special_functions,
    "resonance poles": check_poles,
    "overlap identity": check_overlap_identity,
    "completeness at t = 0": check_completeness,
    "sum rule residual": check_sum_rule,
    "tail coefficient": check_tail_coefficient,
    "expansion vs direct integration": check_cross_validation,
    "long-time power law": check_long_time_law,
    "integrator integrity": check_oracle_integrity,
}


def run_check(check: Callable[..., CheckResult], ctx: SelftestContext) -> CheckResult:
    """``check(ctx)``, or its FAIL line when it raises a :class:`NonescapeError`."""
    try:
        return check(ctx)
    except NonescapeError as exc:
        index = list(CHECKS.values()).index(check) + 1
        return CheckResult(index, False, f"{type(exc).__name__}: {exc}")


def run_selftest(cfg: RunConfig, verbose: bool = False) -> int:
    """Run all nine checks and print one PASS/FAIL line per check to stdout.

    Parameters
    ----------
    cfg : RunConfig
        The reference problem: the packaged default configuration.
    verbose : bool
        Also log progress of the heavy artifact builds to stderr.

    Returns
    -------
    int
        0 if every check passed, 1 otherwise.
    """
    ctx = SelftestContext(cfg, verbose=verbose)
    n_pass = 0
    for check in CHECKS.values():
        result = run_check(check, ctx)
        print(result.line, flush=True)
        n_pass += result.passed
    print(f"{n_pass}/{len(CHECKS)} checks passed", flush=True)
    return 0 if n_pass == len(CHECKS) else 1
