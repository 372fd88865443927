"""Chebyshev ground-state filters and their measured quality parameters.

A filter K is a degree-m Chebyshev polynomial of the clamped Hamiltonian,
normalized to 1 at the (shifted) ground energy.  Its quality is measured by
three numbers: the drift delta_K of its fixed state from the target ground
state, the residual action epsilon_K on the orthogonal complement, and the
operator Schmidt rank D_K across the cut.  The bootstrapping construction
turns a good filter into a low-Schmidt-rank approximate ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .effective import EffectiveHamiltonian
from .spectral import top_singular_value
from .truncation import align_phase

SR_REL_TOL = 1e-10
SR_ABS_TOL = 1e-12


def chebyshev_T(m: int, x):
    """Chebyshev polynomial T_m(x) by the three-term recurrence (vectorized)."""
    if m < 0:
        raise ValueError(f"degree must be non-negative, got {m}")
    x = np.asarray(x, dtype=float)
    t_prev = np.ones_like(x)
    if m == 0:
        return t_prev if t_prev.ndim else float(t_prev)
    t_cur = x.copy()
    for _ in range(m - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur if t_cur.ndim else float(t_cur)


@dataclass
class ChebyshevFilter:
    """Polynomial filter K(m, H_eff) pinned to 1 at the effective ground energy."""

    m: int
    matrix: np.ndarray
    fixed_state: np.ndarray
    gap_eff: float
    width: float
    eff: EffectiveHamiltonian

    @property
    def cheb_bound(self) -> float:
        """Guaranteed residual 2*exp(-2m*sqrt(gap/width)) on excited states."""
        return 2.0 * math.exp(-2.0 * self.m * math.sqrt(self.gap_eff / self.width))

    def excited_residual(self) -> float:
        """Exact sup of |K| over excited eigenvalues (shares the K eigenbasis)."""
        sp = self.eff.spectral()
        vals = _filter_values(self.m, sp.eigenvalues, self.gap_eff, self.width)
        return float(np.max(np.abs(vals[1:]))) if len(vals) > 1 else 0.0

    def schmidt_rank(self, cut: int) -> int:
        """Operator Schmidt rank of K across `cut`.

        K is a function of its clamp's spectrum and m, so the rank is cached
        on the clamp under (m, cut): one SVD per clamp, degree and cut,
        whichever filter object asks.
        """
        key = (self.m, cut)
        if key not in self.eff.filter_ranks:
            d = self.eff.base.lattice.d
            self.eff.filter_ranks[key] = operator_schmidt_rank(self.matrix, cut, d=d).rank
        return self.eff.filter_ranks[key]


def _filter_values(m: int, eigenvalues: np.ndarray, gap: float, width: float) -> np.ndarray:
    x = eigenvalues - eigenvalues[0]
    scaled = (2.0 * x - (width + gap)) / (width - gap)
    denom = chebyshev_T(m, -(width + gap) / (width - gap))
    return chebyshev_T(m, scaled) / denom


def agsp_filter(eff: EffectiveHamiltonian, m: int) -> ChebyshevFilter:
    """Build the degree-m Chebyshev filter of the clamped Hamiltonian.

    The energy origin is shifted to the effective ground energy, so the
    filter satisfies K(ground) = 1 exactly; the suppression window spans
    [gap, width] of the shifted spectrum.
    """
    sp = eff.spectral()
    gap = sp.gap
    width = sp.width
    if gap <= 1e-10:
        raise ValueError(f"effective spectrum is (near-)degenerate: gap = {gap:g}")
    if width - gap <= 1e-10:
        raise ValueError("effective spectrum has no excited window above the gap")
    vals = _filter_values(m, sp.eigenvalues, gap, width)
    K = (sp.eigenvectors * vals) @ sp.eigenvectors.conj().T
    return ChebyshevFilter(
        m=m,
        matrix=K,
        fixed_state=sp.eigenvectors[:, 0],
        gap_eff=gap,
        width=width,
        eff=eff,
    )


def chebyshev_matrix_recurrence(filt: ChebyshevFilter) -> np.ndarray:
    """Re-evaluate the filter by the matrix three-term recurrence.

    Independent of the eigenbasis evaluation; the two agree entrywise to
    1e-8 on well-conditioned windows (cross-check, not the production path).
    """
    sp = filt.eff.spectral()
    dim = sp.source_dim
    gap, width = filt.gap_eff, filt.width
    H = filt.eff.assemble_dense() - sp.ground_energy * np.eye(dim)
    Y = (2.0 * H - (width + gap) * np.eye(dim)) / (width - gap)
    t_prev = np.eye(dim)
    if filt.m == 0:
        num = t_prev
    else:
        t_cur = Y
        for _ in range(filt.m - 1):
            t_prev, t_cur = t_cur, 2.0 * Y @ t_cur - t_prev
        num = t_cur
    denom = chebyshev_T(filt.m, -(width + gap) / (width - gap))
    return num / denom


@dataclass
class SchmidtRankResult:
    rank: int
    singular_values: np.ndarray
    tolerance_used: float


def rank_threshold(svals: np.ndarray, tol: float | None = None) -> float:
    """Cut-off above which a descending singular value counts toward a Schmidt rank.

    `tol` when given, else max(1e-10 * sigma_max, 1e-12).
    """
    return tol if tol is not None else max(SR_REL_TOL * svals[0], SR_ABS_TOL)


def operator_schmidt_rank(O: np.ndarray, cut: int, d: int = 2, tol: float | None = None) -> SchmidtRankResult:
    """Numerical Schmidt rank of an operator across a contiguous cut.

    Reshapes O across the bipartition ((row_L, col_L) x (row_R, col_R)) and
    counts singular values above max(1e-10 * sigma_max, 1e-12); undercounting
    is safe because every rank bound checked here is one-sided.
    """
    dim = O.shape[0]
    dL = d**cut
    if dim % dL != 0:
        raise ValueError(f"cut at {cut} sites does not divide dimension {dim}")
    dR = dim // dL
    rearranged = (
        O.reshape(dL, dR, dL, dR).transpose(0, 2, 1, 3).reshape(dL * dL, dR * dR)
    )
    svals = np.linalg.svd(rearranged, compute_uv=False)
    threshold = rank_threshold(svals, tol)
    rank = int(np.sum(svals > threshold))
    return SchmidtRankResult(rank=rank, singular_values=svals, tolerance_used=float(threshold))


def state_schmidt_rank(state: np.ndarray, cut: int, d: int = 2, tol: float | None = None) -> int:
    """Numerical Schmidt rank of a pure state across a contiguous cut."""
    dL = d**cut
    svals = np.linalg.svd(state.reshape(dL, -1), compute_uv=False)
    return int(np.sum(svals > rank_threshold(svals, tol)))


@dataclass
class AgspReport:
    """Measured quality triple of a filter against a target ground state."""

    m: int
    delta_K: float
    epsilon_K: float
    D_K: int
    cheb_bound: float

    @property
    def bootstrap_ready(self) -> bool:
        return self.epsilon_K**2 * self.D_K <= 0.5


def measure_agsp(
    filt: ChebyshevFilter,
    target_gs: np.ndarray,
    cut: int | None = None,
    dense_epsilon: bool = True,
) -> AgspReport:
    """Measure (delta_K, epsilon_K, D_K) of a filter against `target_gs`.

    delta_K is the phase-aligned distance from the filter's fixed state to
    the target; epsilon_K the norm of K restricted to the fixed state's
    complement (dense 2-norm by default, which coincides with the exact
    eigenbasis supremum); D_K the operator Schmidt rank across the block cut.
    """
    K = filt.matrix
    fixed = filt.fixed_state
    residual = np.linalg.norm(K @ fixed - fixed)
    if residual > 1e-8:
        raise ValueError(f"filter does not fix its ground state: residual {residual:g}")
    aligned = align_phase(target_gs, fixed)
    delta = float(np.linalg.norm(target_gs - aligned))
    if dense_epsilon:
        complement = K - np.outer(K @ fixed, fixed.conj())
        epsilon = top_singular_value(complement)
    else:
        epsilon = filt.excited_residual()
    if cut is None:
        cut = filt.eff.base.blocks.cut
    return AgspReport(
        m=filt.m,
        delta_K=delta,
        epsilon_K=float(epsilon),
        D_K=filt.schmidt_rank(cut),
        cheb_bound=filt.cheb_bound,
    )


@dataclass
class SchmidtRankBoundReport:
    """Measured SR(H^m) against the product and counting bounds."""

    power: int
    measured: int
    product_bound: float
    counting_bound: float
    counting_assumption_met: bool
    effective: bool


def schmidt_rank_bound_check(source, m: int, effective: bool = False) -> SchmidtRankBoundReport:
    """Measure SR(H_t^m) (or the clamped analogue) against both rank bounds.

    Product bound: [2 + (2 d l)^k]^m.  Counting bound: the simplified form
    d^{2ql}[e(q+1)^2(2dl)^k]^{m/(q+1)} when (q+m+1)^{q+1} <= d^{ql} holds,
    otherwise the unsimplified d^{ql}(q+m+1)^{q+1}[...]^{m/(q+1)}.
    """
    if isinstance(source, EffectiveHamiltonian):
        T = source.base
        dense = source.assemble_dense()
        effective = True
    else:
        T = source
        dense = T.assemble_dense()
    d = T.lattice.d
    q, l, k = T.q, T.blocks.l, T.k
    powered = np.linalg.matrix_power(dense, m) if m != 1 else dense
    measured = operator_schmidt_rank(powered, T.blocks.cut, d=d).rank if m > 0 else 1
    product_bound = float(2 + (2 * d * l) ** k) ** m
    base_factor = (math.e * (q + 1) ** 2 * (2 * d * l) ** k) ** (m / (q + 1))
    assumption = (q + m + 1) ** (q + 1) <= d ** (q * l)
    if assumption:
        counting = float(d) ** (2 * q * l) * base_factor
    else:
        counting = float(d) ** (q * l) * (q + m + 1) ** (q + 1) * base_factor
    return SchmidtRankBoundReport(
        power=m,
        measured=measured,
        product_bound=product_bound,
        counting_bound=counting,
        counting_assumption_met=assumption,
        effective=effective,
    )


@dataclass
class BootstrapDiagnostics:
    """Outcome of the product-state bootstrap for one filter."""

    report: AgspReport
    precondition_met: bool
    mu1: float | None = None
    mu1_floor: float | None = None
    top_tie: bool = False
    state_rank: int | None = None
    distance: float | None = None
    distance_bound: float | None = None


def bootstrap_state(
    filt: ChebyshevFilter,
    target_gs: np.ndarray,
    cut: int | None = None,
    report: AgspReport | None = None,
):
    """Filtered top-Schmidt product state: a low-rank approximate ground state.

    Requires epsilon_K^2 * D_K <= 1/2; then the top Schmidt coefficient of
    the fixed state obeys mu_1 >= 1/sqrt(2 D_K), and psi = K|P_1>/||K|P_1>||
    lands within epsilon_K*sqrt(2 D_K) + delta_K of the target with Schmidt
    rank at most D_K.  Returns (psi, diagnostics); psi is None when the
    precondition fails.
    """
    if cut is None:
        cut = filt.eff.base.blocks.cut
    d = filt.eff.base.lattice.d
    if report is None:
        report = measure_agsp(filt, target_gs, cut=cut)
    if not report.bootstrap_ready:
        return None, BootstrapDiagnostics(report=report, precondition_met=False)
    dL = d**cut
    # The distance bound chains through delta_K, which is measured with the
    # fixed state phase-aligned to the target; bootstrap from the same gauge.
    fixed = align_phase(target_gs, filt.fixed_state)
    M = fixed.reshape(dL, -1)
    U, svals, Vh = np.linalg.svd(M, full_matrices=False)
    top_tie = len(svals) > 1 and abs(svals[0] - svals[1]) <= 1e-12
    product = np.outer(U[:, 0], Vh[0, :].conj()).reshape(-1)
    filtered = filt.matrix @ product
    psi = filtered / np.linalg.norm(filtered)
    distance = float(np.linalg.norm(psi - target_gs))
    diag = BootstrapDiagnostics(
        report=report,
        precondition_met=True,
        mu1=float(svals[0]),
        mu1_floor=1.0 / math.sqrt(2.0 * report.D_K),
        top_tie=top_tie,
        state_rank=state_schmidt_rank(psi, cut, d=d),
        distance=distance,
        distance_bound=report.epsilon_K * math.sqrt(2.0 * report.D_K) + report.delta_K,
    )
    return psi, diag
