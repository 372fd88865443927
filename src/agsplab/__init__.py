"""Numerical laboratory for entanglement bounds in 1D long-range chains.

Constructs truncated and spectrally clamped Hamiltonians, Chebyshev
ground-state filters, and Schmidt/MPS compressions at exact-diagonalization
scale, and verifies the inequality that governs each construction step.
"""

from .hamiltonian import (
    DecayEnvelope,
    DimensionCeilingError,
    Hamiltonian,
    InteractionTerm,
    LatticeSpec,
    assemble_dense,
    assemble_sparse,
    block_interaction,
    build_long_range_fermion_chain,
    build_long_range_ising,
    decay_envelope,
    local_energy_g,
    verify_assumption1,
)
from .spectral import (
    DegenerateGroundStateError,
    SpectralData,
    eigendecompose,
    ground_state,
    operator_schmidt_rank,
)
from .truncation import (
    BlockDecomposition,
    TruncatedHamiltonian,
    decompose_blocks,
    truncate_interactions,
    verify_lemma3_4,
)
from .effective import (
    EffectiveHamiltonian,
    build_effective,
    energy_cutoff,
    energy_distribution_check,
    effective_difference_check,
    exponential_filter_check,
    theorem5_check,
)
from .agsp import (
    agsp_filter,
    bootstrap_state,
    chebyshev_T,
    schmidt_rank_bound_check,
)
from .entanglement import (
    MpsState,
    SchmidtData,
    agsp_entropy_bound,
    agsp_sequence,
    eckart_young_check,
    entropy,
    mps_compress,
    renyi2,
    schmidt_decompose,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
