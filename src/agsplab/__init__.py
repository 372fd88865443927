"""Numerical laboratory for entanglement bounds in 1D long-range chains.

Constructs truncated and spectrally clamped Hamiltonians, Chebyshev
ground-state filters, and Schmidt/MPS compressions at exact-diagonalization
scale, and verifies the inequality that governs each construction step.
Import from the modules (`agsplab.hamiltonian`, `agsplab.experiment`, ...);
the package re-exports only `ground_state`, whose every import site the
benchmark self-test (`perfbench/selftest.py`) checks the tracer rebinds.
"""

from .spectral import ground_state

__all__ = ["ground_state"]
__version__ = "0.1.0"
