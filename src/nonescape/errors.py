"""Exception types raised by the nonescape package.

Every failure mode that callers are expected to handle gets its own class so
that tests and driver scripts can discriminate without string matching.  All
types derive from :class:`NonescapeError`.
"""

from __future__ import annotations

__all__ = [
    "NonescapeError",
    "ConfigError",
    "InvalidPotential",
    "InvalidState",
    "DomainError",
    "OverflowGuard",
    "ZeroWavenumber",
    "AxisZero",
    "WindingMismatch",
    "RootPolishFailure",
    "NormalizationSingular",
    "ToleranceNotMet",
    "TruncationUnstable",
    "NonPositiveProbability",
    "EmptyWindow",
    "EquivalenceViolation",
    "UnstableParameters",
]


class NonescapeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(NonescapeError):
    """A run configuration is malformed (unknown key, bad type, bad value)."""


class InvalidPotential(NonescapeError):
    """A potential description violates its structural invariants."""


class InvalidState(NonescapeError):
    """An initial state violates its structural invariants."""


class DomainError(NonescapeError):
    """An argument lies outside the validity region of a special function."""


class OverflowGuard(NonescapeError):
    """An exponential prefactor, or an exact sum's intermediate, would overflow
    double precision."""


class ZeroWavenumber(NonescapeError):
    """An operation that divides by k was attempted at k = 0."""


class AxisZero(NonescapeError):
    """A zero of the matching function lies on (or hugs) a coordinate axis.

    Zeros on the imaginary axis correspond to bound or antibound states and
    zeros on the real axis to half-width resonances; neither is supported by
    the fourth-quadrant pole search.
    """


class WindingMismatch(NonescapeError):
    """Argument-principle counts became inconsistent during pole isolation."""


class RootPolishFailure(NonescapeError):
    """Newton refinement of an isolated zero did not converge."""


class NormalizationSingular(NonescapeError):
    """The resonant-state normalization integral vanishes (degenerate pole)."""


class ToleranceNotMet(NonescapeError):
    """An adaptive quadrature failed to reach its accuracy target."""


class TruncationUnstable(NonescapeError):
    """The truncated double series produced a non-negligible imaginary part."""


class NonPositiveProbability(NonescapeError):
    """A nonescape probability evaluated to a non-positive value."""


class EmptyWindow(NonescapeError):
    """A time-window selection matched no samples."""


class EquivalenceViolation(NonescapeError):
    """Two mathematically equivalent computation paths disagreed."""


class UnstableParameters(NonescapeError):
    """A grid evolution lost unitarity beyond the allowed drift."""

