"""Premise mutations: which of selftest checks 3-6 catch a broken expansion.

Each case doctors the reference expansion's coefficients, puts it into a
fresh :class:`SelftestContext` beside the shared pole table, and runs checks
3-6 on it.  The table records what each check says (reference problem, N up
to 40):

=======================  ========  =============  ==============  ===============
mutation                 check 3   check 4        check 5         check 6
=======================  ========  =============  ==============  ===============
none                     PASS      PASS           PASS            PASS
C_-n = C_n               PASS      FAIL: |P(0)-1| FAIL: drop      FAIL: D1(40)/
                                   = 6.46e-2      factors x1      D1(5) = 1.02
C_1 x (1 + 1e-5)         PASS      PASS           PASS            PASS
C_3 x (1 + 1e-3)         PASS      PASS           PASS            PASS
=======================  ========  =============  ==============  ===============

Check 3 compares closed and quadrature overlaps and reads no coefficient,
so it passes every row.  The mirror rule C_-n = conj(C_n) holds for a real
psi0; breaking it moves P(0), the sum rule and the t^-1 weight at once.

Uncaught: C_1 x (1 + 1e-5) and C_3 x (1 + 1e-3) pass all four checks.  Check
5's drop factors fall from x567 to x343 and x115 but stay above x10, and
P(0), its 1/N rate and D1 barely move.  No check here tests a coefficient
against an independent route to it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nonescape.gamow import ExpansionData
from nonescape.selftest import (
    CheckResult,
    SelftestContext,
    check_completeness,
    check_overlap_identity,
    check_sum_rule,
    check_tail_coefficient,
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
    return [check(fresh) for check in _CHECKS]


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
