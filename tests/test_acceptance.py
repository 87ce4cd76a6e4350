"""Acceptance gate: the nine verification checks, one test per check.

Each test prints the corresponding ``check i/9 PASS|FAIL`` line (bypassing
output capture so the lines always reach the terminal) and asserts that the
check passed.  The checks themselves live in :mod:`nonescape.selftest` so the
same battery is available at runtime through ``nonescape selftest``.
"""
from __future__ import annotations

from typing import Callable

import pytest

from nonescape import selftest
from nonescape.errors import ConfigError
from nonescape.selftest import (
    CheckResult,
    SelftestContext,
    check_completeness,
    check_cross_validation,
    check_long_time_law,
    check_oracle_integrity,
    check_overlap_identity,
    check_poles,
    check_special_functions,
    check_sum_rule,
    check_tail_coefficient,
)


@pytest.fixture(scope="session")
def announce(request: pytest.FixtureRequest) -> Callable[[CheckResult], None]:
    manager = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(result: CheckResult) -> None:
        if manager is None:
            print(result.line)
            return
        with manager.global_and_fixture_disabled():
            print(flush=True)
            print(result.line, flush=True)

    return _announce


def test_01_special_functions(
    ctx: SelftestContext, announce: Callable[[CheckResult], None]
) -> None:
    result = check_special_functions(ctx)
    announce(result)
    assert result.passed, result.line


def test_02_pole_location(
    ctx: SelftestContext, announce: Callable[[CheckResult], None]
) -> None:
    result = check_poles(ctx)
    announce(result)
    assert result.passed, result.line


def test_03_overlap_identity(
    ctx: SelftestContext, announce: Callable[[CheckResult], None]
) -> None:
    result = check_overlap_identity(ctx)
    announce(result)
    assert result.passed, result.line


def test_04_completeness(
    ctx: SelftestContext, announce: Callable[[CheckResult], None]
) -> None:
    result = check_completeness(ctx)
    announce(result)
    assert result.passed, result.line


def test_05_sum_rule(
    ctx: SelftestContext, announce: Callable[[CheckResult], None]
) -> None:
    result = check_sum_rule(ctx)
    announce(result)
    assert result.passed, result.line


def test_06_tail_coefficient(
    ctx: SelftestContext, announce: Callable[[CheckResult], None]
) -> None:
    result = check_tail_coefficient(ctx)
    announce(result)
    assert result.passed, result.line


@pytest.mark.slow
def test_07_cross_validation(
    ctx: SelftestContext, announce: Callable[[CheckResult], None]
) -> None:
    result = check_cross_validation(ctx)
    announce(result)
    assert result.passed, result.line
    assert result.line == (
        "check 7/9 PASS - expansion vs direct integration: max rel dev 3.53e-04 "
        "over 68 samples in [0.065, 3.227] (tol 0.02)"
    )


@pytest.mark.slow
def test_08_long_time_law(
    ctx: SelftestContext, announce: Callable[[CheckResult], None]
) -> None:
    result = check_long_time_law(ctx)
    announce(result)
    assert result.passed, result.line
    assert result.line == (
        "check 8/9 PASS - long-time power law: direct slope -3.140 +- 0.092 on "
        "[18.76, 42.00] (band [-3.3, -2.7]); N=160 slope -2.941 in same window "
        "(band [-3.3, -2.7]; premise t_c = 179.38 >= 2.4 t_hi = 100.80); N=40 "
        "slope -1.811 vs its own tail -1.816 (tol 0.05); crossover times "
        "1.10 < 3.05 < 8.39 < 23.15 < 64.26 < 179.38 monotone: True"
    )


def test_09_oracle_integrity(
    ctx: SelftestContext, announce: Callable[[CheckResult], None]
) -> None:
    result = check_oracle_integrity(ctx)
    announce(result)
    assert result.passed, result.line


def test_selftest_prints_a_raising_check_as_fail_and_runs_the_rest(
    ctx: SelftestContext, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    # stand-in checks: a package error becomes that check's FAIL line and
    # the later checks still run; any other exception ends the selftest
    def passing(index: int) -> Callable[[SelftestContext], CheckResult]:
        return lambda _: CheckResult(index, True, "ok")

    def raising(_: SelftestContext) -> CheckResult:
        raise ConfigError("tail series is non-positive at large times")

    checks = {name: passing(i) for i, name in enumerate(selftest.CHECKS, start=1)}
    checks["tail coefficient"] = raising
    monkeypatch.setattr(selftest, "CHECKS", checks)
    assert selftest.run_selftest(ctx.cfg) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[5] == (
        "check 6/9 FAIL - tail coefficient: ConfigError: "
        "tail series is non-positive at large times"
    )
    assert lines[8] == "check 9/9 PASS - integrator integrity: ok"
    assert lines[9:] == ["8/9 checks passed"]

    def broken(_: SelftestContext) -> CheckResult:
        raise ValueError("not a package error")

    checks["tail coefficient"] = broken
    with pytest.raises(ValueError, match="not a package error"):
        selftest.run_selftest(ctx.cfg)
