"""Resonant-state expansion of the quantum nonescape probability.

A particle prepared inside a finite-range repulsive potential leaks out; the
probability P(t) of still finding it inside the interaction region admits an
expansion over resonant (Gamow) states whose long-time behavior is disputed:
a t^-1 law survives for every finite truncation of the expansion, while the
tail coefficient that carries it vanishes as the truncation grows, leaving
t^-3.  This package builds the expansion from scratch (pole search, state
normalization, overlap algebra, Moshinsky time kernels), measures the
competing tail coefficients, and cross-validates everything against a direct
Crank-Nicolson integration of the Schrodinger equation.

Units: hbar = 2m = 1, so energies are k^2 and the free dispersion reads
i psi_t = -psi_rr.

The package root re-exports nothing: import from the submodules, such as
``nonescape.poles``, ``nonescape.gamow``, ``nonescape.dynamics``,
``nonescape.asymptote``, ``nonescape.oracle`` and ``nonescape.cli``.
"""

__version__ = "0.1.0"
