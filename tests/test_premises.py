"""Premise mutations: which of selftest checks 2-6 catch a broken spectrum.

Each case doctors the reference expansion's coefficients, or one k_n of a
copy of the shared pole table, puts it into a fresh
:class:`SelftestContext` (an expansion beside the shared pole table; a pole
table beside the shared free and hard-shell tables, with the expansion
rebuilt from it), and runs the checks through
:func:`~nonescape.selftest.run_check`, so a check that raises prints FAIL.
Checks 3-6 run on every case, check 2 on the pole-table cases.  The table
records what each check says (reference problem, N up to 40):

===================  ===========  ========  =========  ===========  ===============
mutation             check 2      check 3   check 4    check 5      check 6
===================  ===========  ========  =========  ===========  ===============
none                 PASS         PASS      PASS       PASS         PASS
C_-n = C_n                        PASS      FAIL:      FAIL: drop   FAIL: D1(40)/
                                            |P(0)-1|   factors x1   D1(5) = 1.02
                                            = 6.46e-2
C_1 x (1 + 1e-5)                  PASS      PASS       PASS         PASS
C_3 x (1 + 1e-3)                  PASS      PASS       PASS         PASS
k_1 x (1 + 1e-10)    PASS:        PASS      PASS       PASS         FAIL: routes
                     3.76e-11                                       disagree
k_1 x (1 + 1e-9)     FAIL:        FAIL      PASS       PASS         FAIL: routes
                     3.76e-10                                       disagree
k_40 x (1 + 1e-7)    FAIL:        PASS      PASS       PASS         PASS
                     3.78e-6
===================  ===========  ========  =========  ===========  ===============

Check 2's numbers are its max residual/scale, |J| evaluated afresh at the
table's k (tolerance 1e-10).  Check 3 compares closed and quadrature
overlaps and reads no coefficient, so it passes every coefficient row; a
moved k_1 shifts the closed overlaps, whose identity holds only at a zero of
J.  Check 6's "routes disagree" is its ``EquivalenceViolation``: the matrix
and quadrature routes to the t^-1 weight part by 6.1e-3 and 6.1e-2.  The
mirror rule C_-n = conj(C_n) holds for a real psi0; breaking it moves P(0),
the sum rule and the t^-1 weight at once.

Uncaught: C_1 x (1 + 1e-5) and C_3 x (1 + 1e-3) pass all four checks.  Check
5's drop factors fall from x567 to x343 and x115 but stay above x10, and
P(0), its 1/N rate and D1 barely move.  No check here tests a coefficient
against an independent route to it.  Check 2 misses k_1 x (1 + 1e-10),
whose residual/scale stays under its tolerance; only check 6's route check
catches it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nonescape.gamow import ExpansionData
from nonescape.poles import PoleSet
from nonescape.selftest import (
    CheckResult,
    SelftestContext,
    check_completeness,
    check_overlap_identity,
    check_poles,
    check_sum_rule,
    check_tail_coefficient,
    run_check,
)

_CHECKS = (check_overlap_identity, check_completeness, check_sum_rule, check_tail_coefficient)


def _mirror_broken(data: ExpansionData) -> np.ndarray:
    """C_-n = C_n in place of conj(C_n)."""
    index = {int(n): i for i, n in enumerate(data.states.n)}
    return data.coefficients[[index[abs(int(n))] for n in data.states.n]]


def _scaled(n: int, factor: float):
    def mutate(data: ExpansionData) -> np.ndarray:
        c = data.coefficients.copy()
        c[data.states.n == n] *= factor
        return c

    return mutate


def _run(ctx: SelftestContext, mutate) -> list[CheckResult]:
    data = dataclasses.replace(ctx.data, coefficients=mutate(ctx.data))
    fresh = SelftestContext(ctx.cfg)
    vars(fresh).update(pole_set=ctx.pole_set, data=data)
    return [run_check(check, fresh) for check in _CHECKS]


def _run_moved(ctx: SelftestContext, n: int, factor: float) -> list[CheckResult]:
    """Checks 2-6 on a copy of the shared pole table with k_n x ``factor``."""
    k = ctx.pole_set.k.copy()
    k[n - 1] *= factor
    fresh = SelftestContext(ctx.cfg)
    vars(fresh).update(
        pole_set=PoleSet(k, ctx.pole_set.residual, ctx.pole_set.scale),
        free_pole_set=ctx.free_pole_set,
        hard_shell_pole_set=ctx.hard_shell_pole_set,
    )
    return [run_check(check, fresh) for check in (check_poles,) + _CHECKS]


@pytest.mark.parametrize(
    "mutate, passed",
    [
        (lambda data: data.coefficients, (True, True, True, True)),
        (_mirror_broken, (True, False, False, False)),
        # uncaught: see the module docstring
        (_scaled(1, 1.0 + 1e-5), (True, True, True, True)),
        (_scaled(3, 1.0 + 1e-3), (True, True, True, True)),
    ],
    ids=["none", "mirror-broken", "C1-1e-5", "C3-1e-3"],
)
def test_checks_3_to_6_on_a_doctored_expansion(
    ctx: SelftestContext, mutate, passed: tuple[bool, ...]
) -> None:
    results = _run(ctx, mutate)
    assert [r.index for r in results] == [3, 4, 5, 6]
    assert tuple(r.passed for r in results) == passed, [r.line for r in results]


def test_broken_mirror_rule_numbers(ctx: SelftestContext) -> None:
    # the measured numbers of the docstring's table
    _, completeness, sum_rule, tail = _run(ctx, _mirror_broken)
    assert "|P(0)-1| = 6.46e-02 at N=40" in completeness.details
    assert sum_rule.details.startswith("drop factors x1 at r=0.25, x1 at r=0.50, x1 at r=0.75")
    assert "D1(40)/D1(5) = 1.02e+00" in tail.details


@pytest.mark.parametrize(
    "n, factor, passed",
    [
        (1, 1.0, (True, True, True, True, True)),
        # uncaught by check 2: see the module docstring
        (1, 1.0 + 1e-10, (True, True, True, True, False)),
        (1, 1.0 + 1e-9, (False, False, True, True, False)),
        (40, 1.0 + 1e-7, (False, True, True, True, True)),
    ],
    ids=["none", "k1-1e-10", "k1-1e-9", "k40-1e-7"],
)
def test_checks_2_to_6_on_a_moved_pole(
    ctx: SelftestContext, n: int, factor: float, passed: tuple[bool, ...]
) -> None:
    results = _run_moved(ctx, n, factor)
    assert [r.index for r in results] == [2, 3, 4, 5, 6]
    assert tuple(r.passed for r in results) == passed, [r.line for r in results]


def test_moved_pole_numbers(ctx: SelftestContext) -> None:
    # the measured numbers of the docstring's table; a check that raises
    # prints its FAIL line under its own index and name
    assert "max residual/scale 4.93e-15" in _run_moved(ctx, 1, 1.0)[0].details
    poles, *_, tail = _run_moved(ctx, 1, 1.0 + 1e-10)
    assert "max residual/scale 3.76e-11 (tol 1e-10)" in poles.details
    assert tail.line.startswith(
        "check 6/9 FAIL - tail coefficient: EquivalenceViolation: "
        "t^-1 coefficient routes disagree by 6.120e-03"
    )
    poles, *_, tail = _run_moved(ctx, 1, 1.0 + 1e-9)
    assert "max residual/scale 3.76e-10" in poles.details
    assert "routes disagree by 6.120e-02" in tail.details
    assert "max residual/scale 3.78e-06" in _run_moved(ctx, 40, 1.0 + 1e-7)[0].details
