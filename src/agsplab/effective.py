"""Multi-energy cut-off effective Hamiltonians and their spectral guarantees.

Each block Hamiltonian h_s is clamped at tau_s = E_{s,0} + tau (eigenbasis
untouched, eigenvalues min(E, tau_s)); bond terms pass through.  The checks
here measure the gap-preservation theorem for the clamped operator, the
energy-distribution bounds for block projectors against low-energy
projectors of the full (and clamped) operator, the norm of the clamping
error restricted to low energies, and the exponential filter inequalities
they all rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import region_sum, spectral_norm
from .registry import BoundRecord
from .spectral import (
    SpectralData,
    eigendecompose,
    in_window,
    top_singular_value,
    unitary_block_norm,
)
from .truncation import TruncatedHamiltonian, align_phase

E_DIST_PREFACTOR = 4.0 * math.e**1.5 / (math.e - 1.0)  # ~10.43


def apply_on_block(lattice, block_sites: tuple[int, ...], op: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Apply a contiguous-block operator to the columns of a (dim, cols) array."""
    if len(block_sites) == 0:
        return op[0, 0] * vecs
    d, a, b = lattice.d, block_sites[0], block_sites[-1]
    resh = vecs.reshape(d ** (a - 1), d ** (b - a + 1), -1)
    return np.einsum("ij,ajb->aib", op, resh).reshape(vecs.shape)


@dataclass
class EffectiveHamiltonian:
    """Truncated Hamiltonian with per-block spectra clamped at tau_s."""

    base: TruncatedHamiltonian
    tau: float
    tau_s: list[float]
    internal_eff: list[np.ndarray]
    _spectral: SpectralData | None = field(default=None, repr=False)
    _dense: np.ndarray | None = field(default=None, repr=False)
    # Operator Schmidt rank of the filter K(m) of this clamp across the block cut, per m.
    filter_ranks: dict[int, int] = field(default_factory=dict, repr=False)

    def assemble_dense(self) -> np.ndarray:
        if self._dense is None:
            self._dense = self.base.assemble_dense(self.internal_eff)
        return self._dense

    def spectral(self) -> SpectralData:
        if self._spectral is None:
            self._spectral = eigendecompose(self.assemble_dense())
        return self._spectral

    def norm_budget(self) -> float:
        """Analytic cap (q+2)*(tau + 2*g0) on ||H_eff|| after block balancing."""
        return (self.base.q + 2) * (self.tau + 2.0 * self.base.envelope.g0)

    def tail_projectors(self) -> list[np.ndarray | None]:
        """Per block, the projector onto the h_s eigenvectors the clamp cuts off.

        A level counts as cut off only above tau_s + ENERGY_TIE_TOL; None for a
        block with no such level.
        """
        out = []
        for sp, ts in zip(self.base.block_spectra(), self.tau_s):
            high = sp.eigenvectors[:, ~in_window(sp.eigenvalues, hi=ts)]
            out.append(high @ high.conj().T if high.size else None)
        return out


def energy_cutoff(spectrum: SpectralData, tau_s: float) -> np.ndarray:
    """Clamp a decomposed block Hamiltonian at tau_s.

    Eigenvectors are untouched, eigenvalues become min(E, tau_s), so the
    result commutes with the decomposed matrix exactly.
    """
    return spectrum.apply_function(lambda w: min(w, tau_s))


def _clamp(T: TruncatedHamiltonian, tau: float) -> EffectiveHamiltonian:
    """The clamped operator at tau_s = E_{s,0} + tau, without any checks."""
    tau_s = [float(e) + tau for e in T.block_ground_energies()]
    internal_eff = [energy_cutoff(sp, ts) for sp, ts in zip(T.block_spectra(), tau_s)]
    return EffectiveHamiltonian(base=T, tau=tau, tau_s=tau_s, internal_eff=internal_eff)


def build_effective(T: TruncatedHamiltonian, tau: float) -> EffectiveHamiltonian:
    """Apply the per-block cut-off at tau_s = E_{s,0} + tau.

    Requires balanced block origins (|E_{s,0}| <= g0, see
    shift_block_energies); the `effnorm` record measures ||H_eff|| against
    the analytic cap (q+2)(tau + 2 g0).
    """
    if tau <= 0:
        raise ValueError(f"cut-off offset must be positive, got tau={tau}")
    if T.envelope is None:
        raise ValueError("truncated Hamiltonian carries no decay envelope")
    if np.max(np.abs(T.block_ground_energies())) > T.envelope.g0 + 1e-9:
        raise ValueError(
            "block ground energies exceed g0; run shift_block_energies first"
        )
    return _clamp(T, tau)


def theorem5_precondition_tau(T: TruncatedHamiltonian, gap_t: float) -> float:
    """Smallest tau admitted by the gap-preservation theorem's hypothesis."""
    g0 = T.envelope.g0
    q = T.q
    lam, lam_p = T.lambdas
    first = 8.0 * g0 + math.log(88.0 * g0 * (q + 1) * (q + 2) / gap_t) / lam_p
    second = 4.0 * g0 + math.log(432.0 * (q + 2) / (lam * gap_t)) / lam
    return max(first, second)


@dataclass
class Theorem5Diagnostics:
    """Measured gap/overlap/leakage data for one cut-off value."""

    tau: float
    gap_t: float
    gap_eff: float
    overlap_distance: float
    overlap_bound: float
    kappa: float
    kappa_bound: float
    e_bot: float
    precondition_met: bool


def theorem5_check(
    T: TruncatedHamiltonian, tau_grid, eff: EffectiveHamiltonian | None = None
) -> list[Theorem5Diagnostics]:
    """Gap preservation and ground-state drift of the clamp, per tau.

    Records gap_eff against gap_t/2 and the distance against the exponential
    overlap bound, which hold where the theorem's tau hypothesis (the
    `precondition_met` flag) is met; raw distances are always recorded so
    decay can be read off by slope even when the hypothesis is vacuous at
    desk scale.  The leakage kappa and its unconditional bound
    11(q+2)exp(-lambda'(tau - 8 g0)) are measured at every point.  Each tau
    takes its two lowest eigenpairs from its clamp's own `spectral()`: `eff`,
    a clamp of T at one grid tau, serves that tau, and every other tau gets a
    transient clamp.
    """
    taus = sorted(float(t) for t in tau_grid)
    if not taus or taus[0] <= 0:
        raise ValueError("tau grid must be ascending positives")
    gap_t = T.spectral().gap
    gs_t = T.spectral().eigenvectors[:, 0]
    g0 = T.envelope.g0
    q = T.q
    lam, lam_p = T.lambdas
    tau_min = theorem5_precondition_tau(T, gap_t)
    out = []
    for tau in taus:
        clamp = eff if eff is not None and eff.tau == tau else _clamp(T, tau)
        sp = clamp.spectral()
        w_e, v_e = sp.eigenvalues[:2], sp.eigenvectors[:, :2]
        gap_eff = float(w_e[1] - w_e[0])
        gs_eff = align_phase(gs_t, v_e[:, 0])
        dist = float(np.linalg.norm(gs_eff - gs_t))
        kappa = 0.0
        for block, proj in zip(T.blocks.blocks, clamp.tail_projectors()):
            if proj is not None:
                kappa += top_singular_value(apply_on_block(T.lattice, block, proj, v_e))
        kappa_bound = 11.0 * (q + 2) * math.exp(-lam_p * (tau - 8.0 * g0))
        e_bot = gap_t * (1.0 - kappa) ** 2 - 2.0 * g0 * kappa * (1.0 + kappa) * (q + 1)
        overlap_bound = 54.0 * (q + 2) / (lam * gap_t) * math.exp(-lam * (tau - 4.0 * g0))
        out.append(
            Theorem5Diagnostics(
                tau=tau,
                gap_t=gap_t,
                gap_eff=gap_eff,
                overlap_distance=dist,
                overlap_bound=overlap_bound,
                kappa=kappa,
                kappa_bound=kappa_bound,
                e_bot=e_bot,
                precondition_met=tau >= tau_min,
            )
        )
    return out


def fit_log_slope(taus, distances, floor: float = 1e-12):
    """Least-squares slope and R^2 of log(distance) against tau.

    Points at or below `floor` (numerically saturated) are dropped.
    """
    taus = np.asarray(taus, dtype=float)
    distances = np.asarray(distances, dtype=float)
    keep = distances > floor
    if keep.sum() < 2:
        raise ValueError("not enough unsaturated points for a slope fit")
    x, y = taus[keep], np.log(distances[keep])
    coeffs = np.polyfit(x, y, 1)
    pred = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coeffs[0]), r2, int(keep.sum())


def _block_overlap_matrix(T: TruncatedHamiltonian, s: int, basis: np.ndarray) -> np.ndarray:
    """Rows: product basis labelled by block-s eigenvalues; cols: given basis."""
    sp = T.block_spectra()[s]
    rotated = apply_on_block(
        T.lattice, T.blocks.blocks[s], sp.eigenvectors.conj().T, basis
    )
    return rotated


def _block_row_labels(T: TruncatedHamiltonian, s: int) -> np.ndarray:
    """Block-s eigenvalue attached to each product-basis row index."""
    d, n = T.lattice.d, T.lattice.n
    block = T.blocks.blocks[s]
    if len(block) == 0:
        scalar = float(T.block_spectra()[s].eigenvalues[0])
        return np.full(T.lattice.dim, scalar)
    a, b = block[0], block[-1]
    w = T.block_spectra()[s].eigenvalues
    return np.repeat(np.tile(w, d ** (a - 1)), d ** (n - b))


def energy_distribution_check(eff: EffectiveHamiltonian, E_prime_grid, E_grid) -> list[BoundRecord]:
    """Block high-energy leakage of low-energy projectors, plain and clamped.

    For every block s and grid pair: ||P^(s)_{>E'} P_{<=E}|| against
    C*exp(-lambda*(E' - E_{s,0} - (E - E_t0) - 4 g0)) and the clamped
    analogue ||P^(s)_{>E'} P_eff_{<=E}|| against
    C*exp(-lambda'*(min(E', tau_s) - E_{s,0} - (E - E_eff0) - 4 g0)), with
    C = 4 e^{3/2} / (e - 1).  Each lhs is a sub-block of the unitary
    `_block_overlap_matrix`, so `unitary_block_norm` decides it exactly
    wherever the row and column counts sum past dim.
    """
    T = eff.base
    lam, lam_p = T.lambdas
    g0 = T.envelope.g0
    spec_t = T.spectral()
    spec_e = eff.spectral()
    e_t0 = spec_t.ground_energy
    e_eff0 = spec_e.ground_energy
    block_e0 = T.block_ground_energies()
    low = [(E, in_window(spec_t.eigenvalues, hi=E), in_window(spec_e.eigenvalues, hi=E)) for E in E_grid]
    records = []
    for s in range(T.q + 2):
        labels = _block_row_labels(T, s)
        M_plain = _block_overlap_matrix(T, s, spec_t.eigenvectors)
        M_eff = _block_overlap_matrix(T, s, spec_e.eigenvectors)
        for E_prime in E_prime_grid:
            rows = ~in_window(labels, hi=E_prime)
            for E, low_t, low_e in low:
                lhs = unitary_block_norm(M_plain, rows, low_t)
                expo = lam * ((E_prime - block_e0[s]) - (E - e_t0) - 4.0 * g0)
                records.append(
                    BoundRecord(
                        "prop8.energy-dist",
                        lhs,
                        E_DIST_PREFACTOR * math.exp(-expo),
                        {"s": s, "E_prime": float(E_prime), "E": float(E)},
                    )
                )
                lhs = unitary_block_norm(M_eff, rows, low_e)
                expo = lam_p * (
                    min(E_prime, eff.tau_s[s]) - block_e0[s] - (E - e_eff0) - 4.0 * g0
                )
                records.append(
                    BoundRecord(
                        "prop8.energy-dist-eff",
                        lhs,
                        E_DIST_PREFACTOR * math.exp(-expo),
                        {"s": s, "E_prime": float(E_prime), "E": float(E)},
                    )
                )
    return records


def effective_difference_check(
    T: TruncatedHamiltonian, eff: EffectiveHamiltonian, E_grid
) -> list[BoundRecord]:
    """Norm of the clamping error on low-energy states.

    ||(H_t - H_eff) P_{<=E}|| <= (27(q+2)/lambda) exp(-lambda(tau - dE - 4g0))
    per grid energy; at E = E_t0 this bounds ||H_eff |0_t>||.  The bonds
    cancel exactly, so H_t - H_eff is the sum of the block differences
    h_s - h_s^eff, each applied on its own block.
    """
    lam, _ = T.lambdas
    g0 = T.envelope.g0
    spec_t = T.spectral()
    diffs = [(block, h - h_eff) for block, h, h_eff in zip(T.blocks.blocks, T.internal, eff.internal_eff)]
    e_t0 = spec_t.ground_energy
    records = []
    for E in E_grid:
        basis = spec_t.eigenvectors[:, in_window(spec_t.eigenvalues, hi=E)]
        lhs = top_singular_value(sum(apply_on_block(T.lattice, block, h, basis) for block, h in diffs))
        rhs = (
            27.0
            * (T.q + 2)
            / lam
            * math.exp(-lam * (eff.tau - (E - e_t0) - 4.0 * g0))
        )
        records.append(BoundRecord("prop9.diff", lhs, rhs, {"E": float(E)}))
    return records


def exponential_filter_check(
    T: TruncatedHamiltonian,
    s: int,
    O_s: np.ndarray,
    E,
    E_prime,
    eff: EffectiveHamiltonian | None = None,
) -> list[BoundRecord]:
    """Exponential suppression of block operators between energy sectors.

    For a block-s operator commuting with h_s:
    ||P_{>=E'} O_s P_{<=E}|| <= 4 ||O_s|| exp(-lambda (E' - E)); when `eff`
    is supplied, the clamped analogue with lambda' is measured as well.
    `E` and `E_prime` are scalars or 1-D grids.  Each record forms only its
    own block V_{>=E'}^dag O_s V_{<=E} of the rotation V^dag O_s V, so a grid
    call and a loop of scalar calls compute the same products.  Records run
    E' outer, E inner, with variant "filter" before "filter-eff" at each grid
    pair.
    """
    h_s = T.internal[s]
    comm = O_s @ h_s - h_s @ O_s
    scale = max(T.block_spectra()[s].norm, 1.0) * max(np.max(np.abs(O_s)), 1e-30)
    if np.max(np.abs(comm)) > 1e-10 * scale:
        raise ValueError("operator does not commute with its block Hamiltonian")
    lam, lam_p = T.lambdas
    norm_O = top_singular_value(O_s)
    variants = [("filter", lam, T.spectral())]
    if eff is not None:
        variants.append(("filter-eff", lam_p, eff.spectral()))
    records = []
    for Ep in np.atleast_1d(E_prime):
        for Ei in np.atleast_1d(E):
            for label, rate, sp in variants:
                # Ascending eigenvalues: the rows are a suffix, the columns a prefix.
                V, w = sp.eigenvectors, sp.eigenvalues
                first_row = len(w) - int(in_window(w, lo=Ep).sum())
                cols = int(in_window(w, hi=Ei).sum())
                right = apply_on_block(T.lattice, T.blocks.blocks[s], O_s, V[:, :cols])
                records.append(
                    BoundRecord(
                        "lemma14.filter",
                        top_singular_value(V[:, first_row:].conj().T @ right),
                        4.0 * norm_O * math.exp(-rate * (Ep - Ei)),
                        {"s": s, "E_prime": float(Ep), "E": float(Ei), "variant": label},
                    )
                )
    return records


def commutator_bound_check(T: TruncatedHamiltonian) -> list[BoundRecord]:
    """Commutator growth of each bond term against the k-local budget.

    ||[H_t, h_{s,s+1}]|| <= 6 g k q ||h_{s,s+1}|| with q = 2k (a bond term
    spans sites drawn from two blocks).  Only the pieces of H_t whose support
    meets the bond's fail to commute with it, and ||A (x) I|| = ||A||, so the
    commutator is formed on the union of those supports.
    """
    records = []
    for s in range(T.q + 1):
        sites = set(T.bond_support(s))
        near = [(support, m) for support, m in T.pieces() if sites.intersection(support)]
        region = tuple(sorted(sites.union(*(support for support, _ in near))))
        local = region_sum(T.lattice, region, near)
        bond = region_sum(T.lattice, region, [(T.bond_support(s), T.bonds[s])])
        lhs = top_singular_value(local @ bond - bond @ local)
        rhs = 6.0 * T.local_g * T.k * (2 * T.k) * spectral_norm(T.bonds[s])
        records.append(BoundRecord("lemma15.commutator", lhs, rhs, {"s": s}))
    return records
