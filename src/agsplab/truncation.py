"""Interaction truncation around the entanglement cut.

Partitions the chain into q+2 blocks, drops every interaction between
non-adjacent blocks, fixes the energy origin of the truncated operator at
its ground energy, and redistributes block energy origins so that every
block ground energy is O(g0).  The verification routine measures the norm
distance, the eigenvalue displacement (Weyl), the gap loss, and the
ground-state overlap bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .hamiltonian import (
    DecayEnvelope,
    Hamiltonian,
    LatticeSpec,
    decay_envelope,
    embed_sum,
    local_energy_g,
    region_sum,
    spectral_norm,
)
from .spectral import SpectralData, eigendecompose


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks B_0 .. B_{q+1}: bulk blocks of length l, free-size edges."""

    n: int
    q: int
    l: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.q < 2 or self.q % 2 != 0:
            raise ValueError(f"q must be an even integer >= 2, got {self.q}")
        flat = [s for block in self.blocks for s in block]
        if sorted(flat) != list(range(1, self.n + 1)):
            raise ValueError("blocks do not partition the chain")
        for s in range(1, self.q + 1):
            if len(self.blocks[s]) != self.l:
                raise ValueError(f"bulk block {s} has size {len(self.blocks[s])} != l={self.l}")

    @property
    def cut(self) -> int:
        """Last site of the left half (cut sits between `cut` and `cut + 1`)."""
        return max(s for block in self.blocks[: self.q // 2 + 1] for s in block)


def decompose_blocks(n: int, q: int, l: int, cut_position: int | None = None) -> BlockDecomposition:
    """Partition [1, n] into q+2 blocks with q/2 bulk blocks on each side of the cut.

    Edge blocks absorb the n - q*l leftover sites; with no explicit cut the
    split is as even as possible (left edge gets the odd extra site).
    """
    if q < 2 or q % 2 != 0:
        raise ValueError(f"q must be an even integer >= 2, got {q}")
    if l < 1:
        raise ValueError(f"block length must be >= 1, got {l}")
    if q * l > n:
        raise ValueError(f"q*l = {q * l} exceeds n = {n}")
    extra = n - q * l
    if cut_position is None:
        left_edge = (extra + 1) // 2
    else:
        left_edge = cut_position - (q // 2) * l
        if left_edge < 0 or left_edge > extra:
            raise ValueError(
                f"cut at {cut_position} leaves edge sizes out of range for q={q}, l={l}, n={n}"
            )
    sizes = [left_edge] + [l] * q + [extra - left_edge]
    blocks, start = [], 1
    for size in sizes:
        blocks.append(tuple(range(start, start + size)))
        start += size
    return BlockDecomposition(n=n, q=q, l=l, blocks=tuple(blocks))


@dataclass
class TruncatedHamiltonian:
    """Block-internal terms h_s plus adjacent-bond terms h_{s,s+1}.

    `internal[s]` lives on blocks[s] (a 1x1 scalar for empty edge blocks),
    `bonds[s]` on blocks[s] + blocks[s+1].  The represented operator has its
    ground energy at 0; `origin_shift` restores the raw truncation of the
    source Hamiltonian (H_t_raw = H_t + origin_shift * I).  `energy_shifts`
    records the block-origin redistribution, which always sums to zero, so
    the cached spectrum of the represented operator survives it.
    """

    lattice: LatticeSpec
    blocks: BlockDecomposition
    internal: list[np.ndarray]
    bonds: list[np.ndarray]
    energy_shifts: list[float]
    origin_shift: float
    dropped_norm_sum: float
    dropped_count: int
    k: int
    envelope: DecayEnvelope | None = None
    local_g: float = 0.0
    _block_spectra: list[SpectralData] | None = field(default=None, repr=False)
    _spectral: SpectralData | None = field(default=None, repr=False)

    @property
    def q(self) -> int:
        return self.blocks.q

    @property
    def lambdas(self) -> tuple[float, float]:
        """Decay rates (lambda, lambda') of the filter inequalities.

        lambda = 1/(12 g k^2 + 4 g0), lambda' = min(1/(112 g0), 1/(12 g k^2)),
        with g the measured one-site energy of the source Hamiltonian.
        """
        g, k, g0 = self.local_g, self.k, self.envelope.g0
        lam = 1.0 / (12.0 * g * k**2 + 4.0 * g0)
        lam_p = min(1.0 / (112.0 * g0), 1.0 / (12.0 * g * k**2))
        return lam, lam_p

    def spectral(self) -> SpectralData:
        """Eigendecomposition of the represented operator (ground energy 0)."""
        if self._spectral is None:
            self._spectral = eigendecompose(self.assemble_dense())
        return self._spectral

    def bond_support(self, s: int) -> tuple[int, ...]:
        return self.blocks.blocks[s] + self.blocks.blocks[s + 1]

    def pieces(self, internal: list[np.ndarray] | None = None) -> list[tuple]:
        """(support, matrix) of every block term, then of every bond term.

        `internal` replaces the block terms h_s (the clamped operator passes
        its cut-off blocks); the bonds always pass through.
        """
        internal = self.internal if internal is None else internal
        pieces = list(zip(self.blocks.blocks, internal))
        return pieces + [(self.bond_support(s), bond) for s, bond in enumerate(self.bonds)]

    def assemble_dense(self, internal: list[np.ndarray] | None = None) -> np.ndarray:
        """Dense sum of `pieces(internal)`."""
        return embed_sum(self.lattice, self.pieces(internal))

    def block_spectra(self) -> list[SpectralData]:
        if self._block_spectra is None:
            self._block_spectra = [eigendecompose(h) for h in self.internal]
        return self._block_spectra

    def block_ground_energies(self) -> np.ndarray:
        return np.array([sp.ground_energy for sp in self.block_spectra()])


def _classify_terms(H: Hamiltonian, blocks: BlockDecomposition):
    """Assign each term to a block, an adjacent bond, or the dropped pile."""
    owner = {}
    for s, block in enumerate(blocks.blocks):
        for site in block:
            owner[site] = s
    internal_terms = [[] for _ in blocks.blocks]
    bond_terms = [[] for _ in range(blocks.q + 1)]
    dropped = []
    for idx, term in enumerate(H.terms):
        touched = sorted({owner[s] for s in term.support})
        if len(touched) == 1:
            internal_terms[touched[0]].append(idx)
        elif len(touched) == 2 and touched[1] == touched[0] + 1:
            bond_terms[touched[0]].append(idx)
        else:
            dropped.append(idx)
    return internal_terms, bond_terms, dropped


def truncate_interactions(H: Hamiltonian, blocks: BlockDecomposition) -> TruncatedHamiltonian:
    """Drop all interactions between non-adjacent blocks and zero the ground energy.

    Terms inside one block become h_s, terms spanning exactly one adjacent
    pair become h_{s,s+1}, everything else is dropped.  The ground energy is
    removed by an equal per-block shift, so the stored operator satisfies
    E_t0 = 0 exactly; the one eigendecomposition that finds it is kept,
    shifted, as the operator's spectrum (the shift adds -E_t0 * I in total).
    """
    if blocks.n != H.lattice.n:
        raise ValueError("block decomposition does not match the lattice")
    internal_terms, bond_terms, dropped = _classify_terms(H, blocks)
    internal = [
        region_sum(H.lattice, blocks.blocks[s], [H.terms[i] for i in internal_terms[s]])
        for s in range(blocks.q + 2)
    ]
    bonds = [
        region_sum(H.lattice, blocks.blocks[s] + blocks.blocks[s + 1], [H.terms[i] for i in bond_terms[s]])
        for s in range(blocks.q + 1)
    ]
    dropped_norm = float(sum(H.term_norm(i) for i in dropped))
    try:
        env = decay_envelope(H)
    except ValueError:
        env = None
    T = TruncatedHamiltonian(
        lattice=H.lattice,
        blocks=blocks,
        internal=internal,
        bonds=bonds,
        energy_shifts=[0.0] * (blocks.q + 2),
        origin_shift=0.0,
        dropped_norm_sum=dropped_norm,
        dropped_count=len(dropped),
        k=H.k,
        envelope=env,
        local_g=local_energy_g(H),
    )
    raw = eigendecompose(T.assemble_dense())
    e0 = raw.ground_energy
    per_block = e0 / (blocks.q + 2)
    T.internal = [h - per_block * np.eye(h.shape[0]) for h in T.internal]
    T.origin_shift = e0
    T._spectral = SpectralData(raw.eigenvalues - e0, raw.eigenvectors, raw.source_dim)
    return T


def shift_block_energies(T: TruncatedHamiltonian) -> TruncatedHamiltonian:
    """Redistribute block energy origins so all block ground energies coincide.

    Applies shifts E_s -> E_s + shift_s with shift_s = -E_{s,0} + mean and
    sum(shift_s) = 0: the total spectrum is untouched while every shifted
    block ground energy lands at sum_s E_{s,0} / (q+2), whose magnitude is at
    most (q+1)/(q+2) * g0.  Already-balanced input comes back unchanged.
    """
    e = T.block_ground_energies()
    mean = float(e.sum()) / (T.q + 2)
    shifts = [mean - float(es) for es in e]
    internal = [h + c * np.eye(h.shape[0]) for h, c in zip(T.internal, shifts)]
    return replace(
        T,
        internal=internal,
        energy_shifts=[a + b for a, b in zip(T.energy_shifts, shifts)],
        _block_spectra=None,
    )


@dataclass
class TruncationReport:
    """Measured Lemma-level guarantees for one (H, H_t) pair."""

    delta_norm: float
    delta_bound: float | None
    weyl_max: float
    gap: float
    gap_t: float
    overlap_applicable: bool
    overlap_distance: float | None
    overlap_bound: float | None


def align_phase(reference: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Multiply `state` by the unit phase making <reference|state> real >= 0."""
    overlap = np.vdot(reference, state)
    if abs(overlap) < 1e-300:
        return state
    return state * (overlap.conjugate() / abs(overlap))


def verify_lemma3_4(H: Hamiltonian, T: TruncatedHamiltonian, H_spec: SpectralData) -> TruncationReport:
    """Measure the truncation guarantees and their analytic budgets.

    Measures both sides of each guarantee, with delta = H - H_t (raw truncation, before the energy-origin
    convention): ||delta|| <= g0*q*l^(-abar); |E_j - E_tj| <= ||delta|| for
    every j; gap_t >= gap - 2*||delta||; and, whenever 4*||delta|| < gap,
    || |0> - |0_t> || <= ||delta|| / (gap - 4*||delta||) with phases aligned.

    delta is the sum of the dropped terms (the block origins and
    `origin_shift` cancel exactly), assembled from those terms alone.
    `H_spec` is the eigendecomposition of H (sweeps over l reuse it);
    H_t's spectrum and ground vector come from `T.spectral()`, the norm
    budget from `T.envelope` (None when H has no decay envelope).
    """
    _, _, dropped = _classify_terms(H, T.blocks)
    delta_norm = spectral_norm(embed_sum(H.lattice, [H.terms[i] for i in dropped]))
    bound = None
    if T.envelope is not None:
        bound = T.envelope.g0 * T.q * float(T.blocks.l) ** (-T.envelope.alpha_bar)
    spec = H_spec.eigenvalues
    spec_t = T.spectral().eigenvalues + T.origin_shift
    weyl_max = float(np.max(np.abs(spec - spec_t)))
    gap = float(spec[1] - spec[0])
    gap_t = float(spec_t[1] - spec_t[0])
    applicable = 4.0 * delta_norm < gap
    dist = ov_bound = None
    if applicable:
        gs = H_spec.eigenvectors[:, 0]
        gs_t = align_phase(gs, T.spectral().eigenvectors[:, 0])
        dist = float(np.linalg.norm(gs - gs_t))
        ov_bound = delta_norm / (gap - 4.0 * delta_norm)
    return TruncationReport(
        delta_norm=delta_norm,
        delta_bound=bound,
        weyl_max=weyl_max,
        gap=gap,
        gap_t=gap_t,
        overlap_applicable=applicable,
        overlap_distance=dist,
        overlap_bound=ov_bound,
    )
