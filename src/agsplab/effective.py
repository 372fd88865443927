"""Multi-energy cut-off effective Hamiltonians and their spectral guarantees.

Each block Hamiltonian h_s is clamped at tau_s = E_{s,0} + tau (eigenbasis
untouched, eigenvalues min(E, tau_s)); bond terms pass through.  Each check
here returns its own records: the gap-preservation theorem for the clamped
operator (with the drift's decay read off by slope where the theorem's
hypothesis is vacuous), the energy-distribution bounds for block projectors
against low-energy projectors of the full (and clamped) operator, the norm
of the clamping error restricted to low energies, and the exponential
filter inequalities they all rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .hamiltonian import region_sum
from .registry import BoundRecord, vacuous
from .spectral import (
    ENERGY_TIE_TOL,
    SpectralData,
    align_phase,
    eigendecompose,
    in_window,
    popcount_parity,
    top_singular_value,
    unitary_block_norms,
)
from .truncation import TruncatedHamiltonian

E_DIST_PREFACTOR = 4.0 * math.e**1.5 / (math.e - 1.0)  # ~10.43
# Largest entry of [O_s, h_s], relative to max(||h_s||, 1) max|O_s|, that
# `exponential_filter_check` accepts as commuting.
COMMUTATION_TOL = 1e-10


def apply_on_block(block_sites: tuple[int, ...], op: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Apply a contiguous-block operator to the columns of a (dim, cols) array."""
    if len(block_sites) == 0:
        return op[0, 0] * vecs
    a, b = block_sites[0], block_sites[-1]
    resh = vecs.reshape(2 ** (a - 1), 2 ** (b - a + 1), -1)
    return np.einsum("ij,ajb->aib", op, resh).reshape(vecs.shape)


@dataclass
class EffectiveHamiltonian:
    """Truncated Hamiltonian with per-block spectra clamped at tau_s."""

    base: TruncatedHamiltonian
    tau: float
    tau_s: list[float]
    internal_eff: list[np.ndarray]
    _spectral: SpectralData | None = field(default=None, repr=False)
    # Operator Schmidt rank of the filter K(m) of this clamp across the block cut, per m; T's if it cuts nothing.
    filter_ranks: dict[int, int] = field(default_factory=dict, repr=False)

    def assemble_dense(self) -> np.ndarray:
        """Dense H_eff, assembled anew on every call (only `spectral()` needs it)."""
        return self.base.assemble_dense(self.internal_eff)

    def spectral(self) -> SpectralData:
        if self._spectral is None:
            self._spectral = eigendecompose(self.assemble_dense())
        return self._spectral

    def norm_budget(self) -> float:
        """Analytic cap (q+2)*(tau + 2*g0) on ||H_eff|| after block balancing."""
        return (self.base.q + 2) * (self.tau + 2.0 * self.base.envelope.g0)

    def cuts_nothing(self) -> bool:
        """True when every block level w obeys `energy_cutoff`'s w <= tau_s.

        Such a clamp keeps every eigenvalue: it is T itself, and
        `build_effective` gives it T's blocks, spectrum and filter ranks.
        """
        return all(np.all(sp.eigenvalues <= ts) for sp, ts in zip(self.base.block_spectra(), self.tau_s))

    def tail_projectors(self) -> list[np.ndarray | None]:
        """Per block, the projector onto the h_s eigenvectors the clamp cuts off.

        A level counts as cut off only above tau_s + ENERGY_TIE_TOL; None for a
        block with no such level.
        """
        out = []
        for sp, ts in zip(self.base.block_spectra(), self.tau_s):
            high = sp.columns(np.flatnonzero(~in_window(sp.eigenvalues, hi=ts)))
            out.append(high @ high.conj().T if high.size else None)
        return out


def energy_cutoff(spectrum: SpectralData, tau_s: float) -> np.ndarray:
    """Clamp a decomposed block Hamiltonian at tau_s.

    Eigenvectors are untouched, eigenvalues become min(E, tau_s), so the
    result commutes with the decomposed matrix exactly.
    """
    return spectrum.matrix_of(np.minimum(spectrum.eigenvalues, tau_s))


def build_effective(T: TruncatedHamiltonian, tau: float) -> EffectiveHamiltonian:
    """Apply the per-block cut-off at tau_s = E_{s,0} + tau.

    A clamp that cuts nothing (`cuts_nothing`) is T: it keeps its own tau
    and tau_s and takes T's blocks, `T.spectral()` and `T.filter_ranks`, so
    it is never solved.  Requires balanced block origins (|E_{s,0}| <= g0),
    which `truncate_interactions` sets up for a chain that meets
    Assumption 1; a block ground energy above g0 raises `ValueError`.  The
    `effnorm` record measures ||H_eff|| against the analytic cap
    (q+2)(tau + 2 g0).
    """
    if tau <= 0:
        raise ValueError(f"cut-off offset must be positive, got tau={tau}")
    if np.max(np.abs(T.block_ground_energies())) > T.envelope.g0 + ENERGY_TIE_TOL:
        raise ValueError("block ground energies exceed g0: unbalanced block origins or Assumption 1 violated")
    tau_s = [float(e) + tau for e in T.block_ground_energies()]
    eff = EffectiveHamiltonian(T, tau, tau_s, T.internal, T.spectral(), T.filter_ranks)
    if eff.cuts_nothing():
        return eff
    return EffectiveHamiltonian(T, tau, tau_s, [energy_cutoff(sp, ts) for sp, ts in zip(T.block_spectra(), tau_s)])


def theorem5_precondition_tau(T: TruncatedHamiltonian, gap_t: float) -> float:
    """Smallest tau admitted by the gap-preservation theorem's hypothesis."""
    g0 = T.envelope.g0
    q = T.q
    lam, lam_p = T.lambdas
    first = 8.0 * g0 + math.log(88.0 * g0 * (q + 1) * (q + 2) / gap_t) / lam_p
    second = 4.0 * g0 + math.log(432.0 * (q + 2) / (lam * gap_t)) / lam
    return max(first, second)


def theorem5_check(T: TruncatedHamiltonian, tau_grid, clamp_at) -> list[BoundRecord]:
    """Gap preservation, ground-state drift and leakage of the clamp, per tau.

    Every grid tau gets a `thm5.kappa` record, the leakage kappa against its
    unconditional bound 11(q+2)exp(-lambda'(tau - 8 g0)).  Where tau meets
    the theorem's hypothesis (`theorem5_precondition_tau`), `thm5.gap`
    (gap_eff against gap_t/2) and `thm5.overlap` (the drift against the
    exponential overlap bound) follow.  Where no grid tau meets it, as at
    desk scale, the `thm5.gap` placeholder is followed by the decay of the
    drift read off by slope: a least-squares fit of log(drift) against tau
    over the unsaturated (> 1e-12) points, recorded as slope <= 0 and
    R^2 >= 0.9 with at least 5 points, else a placeholder.  Each tau takes
    its two lowest eigenpairs from the `spectral()` of `clamp_at(tau)`, the
    caller's clamp of T at tau (`Pipeline.eff_at`); this check builds none.
    """
    taus = sorted(float(t) for t in tau_grid)
    if not taus or taus[0] <= 0:
        raise ValueError("tau grid must be ascending positives")
    gap_t = T.spectral().gap
    gs_t = T.spectral().columns([0])[:, 0]
    g0 = T.envelope.g0
    q = T.q
    lam, lam_p = T.lambdas
    tau_min = theorem5_precondition_tau(T, gap_t)
    records, dists = [], []
    for tau in taus:
        clamp = clamp_at(tau)
        sp = clamp.spectral()
        w_e, v_e = sp.eigenvalues[:2], sp.columns([0, 1])
        dist = float(np.linalg.norm(align_phase(gs_t, v_e[:, 0]) - gs_t))
        dists.append(dist)
        kappa = 0.0
        for block, proj in zip(T.blocks.blocks, clamp.tail_projectors()):
            if proj is not None:
                kappa += top_singular_value(apply_on_block(block, proj, v_e))
        kappa_bound = 11.0 * (q + 2) * math.exp(-lam_p * (tau - 8.0 * g0))
        records.append(BoundRecord("thm5.kappa", kappa, kappa_bound, {"tau": tau}))
        if tau >= tau_min:
            overlap_bound = 54.0 * (q + 2) / (lam * gap_t) * math.exp(-lam * (tau - 4.0 * g0))
            records.append(BoundRecord("thm5.gap", 0.5 * gap_t, float(w_e[1] - w_e[0]), {"tau": tau}))
            records.append(BoundRecord("thm5.overlap", dist, overlap_bound, {"tau": tau}))
    if taus[-1] >= tau_min:
        return records
    records.append(vacuous("thm5.gap", "hypothesis vacuous on grid"))
    drifts = np.asarray(dists)
    keep = drifts > 1e-12  # numerically saturated drifts carry no slope
    used = int(keep.sum())
    if used < 5:
        records.append(vacuous("thm5.overlap", "grid too small for slope"))
        return records
    x, y = np.asarray(taus)[keep], np.log(drifts[keep])
    coeffs = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - np.polyval(coeffs, x)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    records.append(BoundRecord("thm5.overlap", float(coeffs[0]), 0.0, {"variant": "decay-slope", "points": used}))
    records.append(BoundRecord("thm5.overlap", 0.9, r2, {"variant": "decay-fit-r2", "points": used}))
    return records


def _block_overlap_matrix(T: TruncatedHamiltonian, s: int, basis: np.ndarray) -> np.ndarray:
    """Overlaps of the columns of `basis` with block-s eigenvectors times product states.

    Rows run over (block-s level, other sites), the level slowest; levels
    ascend, so those above any energy are a row suffix.
    """
    sp, block = T.block_spectra()[s], T.blocks.blocks[s]
    U_dag = sp.columns(np.arange(len(sp.eigenvalues))).conj().T
    if len(block) == 0:
        return U_dag[0, 0] * basis
    a, b = block[0], block[-1]
    resh = basis.reshape(2 ** (a - 1), 2 ** (b - a + 1), -1)
    # One BLAS product per prefix configuration, written straight into level-major rows.
    out = np.empty((resh.shape[1], resh.shape[0], resh.shape[2]), dtype=np.result_type(U_dag, basis))
    np.matmul(U_dag, resh, out=out.transpose(1, 0, 2))
    return out.reshape(basis.shape)


def _overlap_row_parities(T: TruncatedHamiltonian, s: int) -> np.ndarray:
    """Popcount parity of each row (level, prefix, suffix) of `_block_overlap_matrix`.

    A row's parity is its level's (`SpectralData.parities`) plus the
    popcounts of the sites before and after the block; -1 for a level whose
    sector holds both parities.
    """
    levels, block = T.block_spectra()[s].parities(), T.blocks.blocks[s]
    before, after = (T.lattice.dim, 1) if len(block) == 0 else (2 ** (block[0] - 1), 2 ** (T.lattice.n - block[-1]))
    rows = levels[:, None, None] ^ popcount_parity(before)[:, None] ^ popcount_parity(after)
    return np.where(levels[:, None, None] < 0, -1, rows).ravel()


def _corner_norms(spec: SpectralData, apply, labels: np.ndarray, corners: list[tuple[int, int]]) -> list[float]:
    """2-norms of the corners (r, c), rows r: and columns :c, of the unitary apply(V) of `spec`'s eigenvectors V.

    `SpectralData.images` splits the product by sector; each corner is then
    the max over the sectors' corners, each read by `unitary_block_norms`.
    """
    parts = spec.images(np.arange(max((c for _, c in corners), default=0)), apply, labels)
    norms = [
        unitary_block_norms(Y, [(np.searchsorted(rows, r), np.searchsorted(sec.positions, c)) for r, c in corners])
        for sec, rows, Y in parts
    ]
    return [float(np.max(values)) for values in zip(*norms)]


def energy_distribution_lhs(T: TruncatedHamiltonian, spec: SpectralData, E_prime_grid, E_grid) -> list[list[float]]:
    """Per block s, the `energy_distribution_check` lhs on `spec` (T's or a clamp's), E' outer, E inner."""
    low = [int(in_window(spec.eigenvalues, hi=float(E)).sum()) for E in E_grid]
    lhs = []
    for s, sp in enumerate(T.block_spectra()):
        per_level = T.lattice.dim // len(sp.eigenvalues)
        first_rows = [per_level * int(in_window(sp.eigenvalues, hi=float(Ep)).sum()) for Ep in E_prime_grid]
        corners = list(product(first_rows, low))
        lhs.append(_corner_norms(spec, lambda X: _block_overlap_matrix(T, s, X), _overlap_row_parities(T, s), corners))
    return lhs


def energy_distribution_check(eff: EffectiveHamiltonian, E_prime_grid, E_grid, lhs_t=None) -> list[BoundRecord]:
    """Block high-energy leakage of low-energy projectors, plain and clamped.

    For every block s and grid pair: ||P^(s)_{>E'} P_{<=E}|| against
    C*exp(-lambda*(E' - E_{s,0} - (E - E_t0) - 4 g0)) and the clamped
    analogue ||P^(s)_{>E'} P_eff_{<=E}|| against
    C*exp(-lambda'*(min(E', tau_s) - E_{s,0} - (E - E_eff0) - 4 g0)), with
    C = 4 e^{3/2} / (e - 1).  Each lhs is a corner of the unitary
    `_block_overlap_matrix`: the block levels above E' (a row suffix) against
    the eigenvectors of H_t, or H_eff, at or below E (a column prefix).  The
    overlap is taken per sector of the spectrum, its rows labelled by
    `_overlap_row_parities` (`_corner_norms`), and `unitary_block_norms`
    decides a corner exactly wherever its row and column counts sum past the
    sector's (`energy_distribution_lhs`).  The caller may pass the plain lhs
    as `lhs_t`; a clamp that cuts nothing has T's spectrum, and reuses them.
    """
    T = eff.base
    lam, lam_p = T.lambdas
    g0 = T.envelope.g0
    spec_t = T.spectral()
    spec_e = eff.spectral()
    e_t0 = spec_t.ground_energy
    e_eff0 = spec_e.ground_energy
    block_e0 = T.block_ground_energies()
    E_primes, E_grid = [float(Ep) for Ep in E_prime_grid], [float(E) for E in E_grid]
    lhs_t = energy_distribution_lhs(T, spec_t, E_primes, E_grid) if lhs_t is None else lhs_t
    lhs_e = lhs_t if spec_e is spec_t else energy_distribution_lhs(T, spec_e, E_primes, E_grid)
    records = []
    for s in range(len(block_e0)):
        for (E_prime, E), plain, clamped in zip(product(E_primes, E_grid), lhs_t[s], lhs_e[s]):
            context = {"s": s, "E_prime": E_prime, "E": E}
            expo = lam * ((E_prime - block_e0[s]) - (E - e_t0) - 4.0 * g0)
            records.append(BoundRecord("prop8.energy-dist", plain, E_DIST_PREFACTOR * math.exp(-expo), context))
            expo = lam_p * (min(E_prime, eff.tau_s[s]) - block_e0[s] - (E - e_eff0) - 4.0 * g0)
            records.append(BoundRecord("prop8.energy-dist-eff", clamped, E_DIST_PREFACTOR * math.exp(-expo), context))
    return records


def effective_difference_check(
    T: TruncatedHamiltonian, eff: EffectiveHamiltonian, E_grid
) -> list[BoundRecord]:
    """Norm of the clamping error on low-energy states.

    ||(H_t - H_eff) P_{<=E}|| <= (27(q+2)/lambda) exp(-lambda(tau - dE - 4g0))
    per grid energy; at E = E_t0 this bounds ||H_eff |0_t>||.  The bonds
    cancel exactly, so H_t - H_eff is the sum of the block differences
    h_s - h_s^eff, each applied on its own block, to the eigenvectors of H_t
    at or below E one sector at a time (`SpectralData.images`).  A clamp
    that cuts nothing keeps T's blocks: every lhs is 0.
    """
    lam, _ = T.lambdas
    g0 = T.envelope.g0
    spec_t = T.spectral()
    diffs = [(block, h - h_eff) for block, h, h_eff in zip(T.blocks.blocks, T.internal, eff.internal_eff)]

    def block_differences(X: np.ndarray) -> np.ndarray:
        return sum(apply_on_block(block, h, X) for block, h in diffs)

    e_t0 = spec_t.ground_energy
    uncut = eff.internal_eff is T.internal
    records = []
    for E in E_grid:
        parts = [] if uncut else spec_t.images(np.flatnonzero(in_window(spec_t.eigenvalues, hi=E)), block_differences)
        lhs = 0.0 if uncut else float(np.max([top_singular_value(Y) for _, _, Y in parts]))
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
    eff: EffectiveHamiltonian,
    lhs_t: np.ndarray | None = None,
) -> list[BoundRecord]:
    """Exponential suppression of block operators between energy sectors.

    For a block-s operator commuting with h_s:
    ||P_{>=E'} O_s P_{<=E}|| <= 4 ||O_s|| exp(-lambda (E' - E)), and the
    clamped analogue with lambda' on the spectrum of `eff`.
    `E` and `E_prime` are scalars or 1-D grids (`exponential_filter_lhs`).
    The caller may pass the plain lhs as `lhs_t`; a clamp that cuts nothing
    has T's spectrum, and reuses them.  Records run E' outer, E inner, with
    variant "filter" before "filter-eff" at each grid pair.
    """
    h_s = T.internal[s]
    comm = O_s @ h_s - h_s @ O_s
    scale = max(T.block_spectra()[s].norm, 1.0) * max(np.max(np.abs(O_s)), 1e-30)
    if np.max(np.abs(comm)) > COMMUTATION_TOL * scale:
        raise ValueError("operator does not commute with its block Hamiltonian")
    lam, lam_p = T.lambdas
    norm_O = top_singular_value(O_s)
    E, E_prime = np.atleast_1d(E), np.atleast_1d(E_prime)
    spec_t, spec_e = T.spectral(), eff.spectral()
    lhs_t = exponential_filter_lhs(T, s, O_s, spec_t, E, E_prime) if lhs_t is None else lhs_t
    lhs_e = lhs_t if spec_e is spec_t else exponential_filter_lhs(T, s, O_s, spec_e, E, E_prime)
    variants = [("filter", lam, lhs_t), ("filter-eff", lam_p, lhs_e)]
    return [
        BoundRecord(
            "lemma14.filter",
            float(lhs[j, i]),
            4.0 * norm_O * math.exp(-rate * (Ep - Ei)),
            {"s": s, "E_prime": float(Ep), "E": float(Ei), "variant": label},
        )
        for j, Ep in enumerate(E_prime)
        for i, Ei in enumerate(E)
        for label, rate, lhs in variants
    ]


def exponential_filter_lhs(T: TruncatedHamiltonian, s: int, O_s: np.ndarray, spec: SpectralData, E, E_prime):
    """The `exponential_filter_check` lhs on `spec` (T's or a clamp's), indexed [E', E].

    Each entry forms only its own block V_{>=E'}^dag O_s V_{<=E} of V^dag O_s V, one sector
    at a time (`SpectralData.images`), so a grid and a loop of scalars compute the same
    products.  The image O_s V_{<=E} is formed once and read for every E'.
    """
    E, E_prime = np.atleast_1d(E), np.atleast_1d(E_prime)

    def apply_O(X: np.ndarray) -> np.ndarray:
        return apply_on_block(T.blocks.blocks[s], O_s, X)

    lhs = np.empty((len(E_prime), len(E)))
    for i, Ei in enumerate(E):
        parts = spec.images(np.flatnonzero(in_window(spec.eigenvalues, hi=Ei)), apply_O)
        for j, Ep in enumerate(E_prime):
            # Ascending eigenvalues: the rows are a suffix, the columns a prefix.
            above = np.flatnonzero(in_window(spec.eigenvalues, lo=Ep))
            lhs[j, i] = np.max([top_singular_value(sec.columns(above).conj().T @ Y) for sec, _, Y in parts])
    return lhs


def commutator_bound_check(T: TruncatedHamiltonian) -> list[BoundRecord]:
    """Commutator growth of each bond term against the k-local budget.

    ||[H_t, h_{s,s+1}]|| <= 6 g k q ||h_{s,s+1}|| with q = 2k (a bond term
    spans sites drawn from two blocks).  Only the pieces of H_t whose support
    meets the bond's fail to commute with it, and ||A (x) I|| = ||A||, so the
    commutator is formed on the union of those supports, a contiguous
    region.  Both operators are Hermitian, so with X = bond . local, formed
    by one `apply_on_block` of the bond on its positions in the region, the
    commutator is [local, bond] = X^dag - X.
    """
    records = []
    for s in range(T.q + 1):
        sites = T.bond_support(s)
        near = [(support, m) for support, m in T.pieces() if set(sites).intersection(support)]
        region = tuple(sorted(set(sites).union(*(support for support, _ in near))))
        local = region_sum(region, near)
        X = apply_on_block(tuple(region.index(site) + 1 for site in sites), T.bonds[s], local)
        del local
        X = X.conj().T - X  # the commutator; the norm below needs it alone
        lhs = top_singular_value(X)
        rhs = 6.0 * T.local_g * T.k * (2 * T.k) * top_singular_value(T.bonds[s])
        records.append(BoundRecord("lemma15.commutator", lhs, rhs, {"s": s}))
    return records
