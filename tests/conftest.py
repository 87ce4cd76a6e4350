from __future__ import annotations

import numpy as np
import pytest

from nonescape.cli import load_config
from nonescape.gamow import ExpansionData
from nonescape.poles import PoleSet
from nonescape.selftest import SelftestContext


@pytest.fixture(scope="session")
def ctx() -> SelftestContext:
    """Shared lazily-built artifacts (pole table, expansion, long runs)."""
    return SelftestContext(load_config(None))


@pytest.fixture(scope="session")
def pole_set(ctx: SelftestContext) -> PoleSet:
    return ctx.pole_set


@pytest.fixture(scope="session")
def data(ctx: SelftestContext) -> ExpansionData:
    return ctx.data


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)
