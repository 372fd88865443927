"""Interaction truncation around the entanglement cut.

Partitions the chain into q+2 blocks, drops every interaction between
non-adjacent blocks, and, in the same step, shifts each block's energy
origin so that the truncated operator has its ground energy at 0 and every
block ground energy is the same O(g0) level.  The source Hamiltonian must
carry power-law metadata: its decay envelope (g0, abar) travels with the
truncation and sets the norm budget, the block balancing and the decay
rates downstream.  The verification routine measures the norm distance,
the eigenvalue displacement (Weyl), the gap loss, and the ground-state
overlap bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .hamiltonian import (
    DecayEnvelope,
    Hamiltonian,
    LatticeSpec,
    decay_envelope,
    embed_sectors,
    flip_norm,
    local_energy_g,
    region_sum,
)
from .registry import BoundRecord, vacuous
from .spectral import SpectralData, align_phase, eigendecompose, top_singular_value


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
    ground energy at 0 and equal block ground energies; `origin_shift`
    restores the raw truncation of the source Hamiltonian
    (H_t_raw = H_t + origin_shift * I).  Both spectra are required fields,
    filled by `truncate_interactions`: the blocks' (`block_spectra()`) and
    the represented operator's (`spectral()`).
    """

    lattice: LatticeSpec
    blocks: BlockDecomposition
    internal: list[np.ndarray]
    bonds: list[np.ndarray]
    origin_shift: float
    k: int
    envelope: DecayEnvelope
    local_g: float
    _block_spectra: list[SpectralData] = field(repr=False)
    _spectral: SpectralData = field(repr=False)
    # Operator Schmidt rank of the filter K(m) of T, per m; shared by every clamp that cuts nothing.
    filter_ranks: dict[int, int] = field(default_factory=dict, repr=False)

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

    def block_spectra(self) -> list[SpectralData]:
        return self._block_spectra

    def block_ground_energies(self) -> np.ndarray:
        return np.array([sp.ground_energy for sp in self.block_spectra()])

    def clamp_ceiling(self) -> float:
        """Cut-off offset tau beyond which clamping is a no-op (max block width + 1)."""
        return max(sp.width for sp in self.block_spectra()) + 1.0


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
    """Drop all non-adjacent-block interactions; balance block origins and zero E_t0.

    Terms inside one block become h_s, terms spanning exactly one adjacent
    pair become h_{s,s+1}, everything else is dropped.  Each raw block is
    decomposed once and shifted by c_s = level - E_{s,0}, with
    level = (sum_s E_{s,0} - E_t0) / (q+2).  Every block ground energy then
    sits at `level`, at most (q+1)/(q+2) * g0 in magnitude (`build_effective`
    checks |E_{s,0}| <= g0), and the shifts sum to -E_t0, so the stored
    operator satisfies E_t0 = 0 exactly.  h + cI has the eigenvectors of h,
    so each block keeps its one decomposition, shifted, and the operator
    keeps the one eigendecomposition of the raw truncation that finds E_t0.
    A Hamiltonian without a decay envelope (no power-law metadata) raises
    `ValueError`.
    """
    if blocks.n != H.lattice.n:
        raise ValueError("block decomposition does not match the lattice")
    internal_terms, bond_terms, _ = _classify_terms(H, blocks)
    internal = [
        region_sum(blocks.blocks[s], [H.terms[i] for i in internal_terms[s]])
        for s in range(blocks.q + 2)
    ]
    bond_sites = [blocks.blocks[s] + blocks.blocks[s + 1] for s in range(blocks.q + 1)]
    bonds = [region_sum(sites, [H.terms[i] for i in bond_terms[s]]) for s, sites in enumerate(bond_sites)]
    block_spectra = [eigendecompose(h) for h in internal]
    # The raw kept-term sum, in the order of `TruncatedHamiltonian.pieces`.
    raw = eigendecompose(embed_sectors(H.lattice, list(zip(blocks.blocks, internal)) + list(zip(bond_sites, bonds))))
    e0 = raw.ground_energy
    level = (sum(sp.ground_energy for sp in block_spectra) - e0) / (blocks.q + 2)
    shifts = [level - sp.ground_energy for sp in block_spectra]
    return TruncatedHamiltonian(
        lattice=H.lattice,
        blocks=blocks,
        internal=[h + c * np.eye(h.shape[0]) for h, c in zip(internal, shifts)],
        bonds=bonds,
        origin_shift=e0,
        k=H.k,
        envelope=decay_envelope(H),
        local_g=local_energy_g(H),
        _block_spectra=[replace(sp, eigenvalues=sp.eigenvalues + c) for sp, c in zip(block_spectra, shifts)],
        _spectral=replace(raw, eigenvalues=raw.eigenvalues - e0),
    )


def verify_lemma3_4(H: Hamiltonian, T: TruncatedHamiltonian, levels: np.ndarray, gs: np.ndarray) -> list[BoundRecord]:
    """Records of the truncation guarantees: lemma3.norm, weyl, lemma3.gap, lemma4.overlap.

    With delta = H - H_t (raw truncation, before the energy-origin
    convention): ||delta|| <= g0*q*l^(-abar); |E_j - E_tj| <= ||delta|| for
    every j; gap_t >= gap - 2*||delta||; and, whenever 4*||delta|| < gap,
    || |0> - |0_t> || <= ||delta|| / (gap - 4*||delta||) with phases aligned.
    The overlap bound is a not-applicable placeholder when
    4*||delta|| >= gap.

    delta is the sum of the dropped terms (the block origins and
    `origin_shift` cancel exactly): `flip_norm`, else solved on its sectors.
    `levels` are every eigenvalue of H, ascending, and `gs` its ground
    vector (sweeps over l reuse both); no excited eigenvector of H is read.
    H_t's spectrum and ground vector come from `T.spectral()`.
    """
    dropped = [H.terms[i] for i in _classify_terms(H, T.blocks)[2]]
    delta_norm = flip_norm(tuple(range(1, H.lattice.n + 1)), dropped)
    if delta_norm is None:
        delta_norm = top_singular_value([block for _, block in embed_sectors(H.lattice, dropped)])
    spec_t = T.spectral().eigenvalues + T.origin_shift
    gap = float(levels[1] - levels[0])
    env = T.envelope
    records = [
        BoundRecord("lemma3.norm", delta_norm, env.g0 * T.q * float(T.blocks.l) ** (-env.alpha_bar)),
        BoundRecord("weyl", float(np.max(np.abs(levels - spec_t))), delta_norm),
        BoundRecord("lemma3.gap", gap - 2.0 * delta_norm, float(spec_t[1] - spec_t[0])),
    ]
    if 4.0 * delta_norm < gap:
        gs_t = align_phase(gs, T.spectral().columns([0])[:, 0])
        dist = float(np.linalg.norm(gs - gs_t))
        records.append(BoundRecord("lemma4.overlap", dist, delta_norm / (gap - 4.0 * delta_norm)))
    else:
        records.append(vacuous("lemma4.overlap", "4||dH|| >= gap; bound vacuous"))
    return records
