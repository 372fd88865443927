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
from .hamiltonian import parity_sectors, region_sum
from .spectral import top_singular_value
from .truncation import TruncatedHamiltonian, align_phase

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

    def schmidt_rank(self) -> int:
        """Operator Schmidt rank of K across its clamp's block cut.

        K is a function of its clamp's spectrum and m, so the rank is cached
        on the clamp under m: one SVD per clamp and degree, whichever filter
        object asks.
        """
        ranks = self.eff.filter_ranks
        if self.m not in ranks:
            blocks, d = self.eff.base.blocks, self.eff.base.lattice.d
            ranks[self.m] = operator_schmidt_rank(self.matrix, blocks.cut, d=d)
        return ranks[self.m]


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


def rank_threshold(svals: np.ndarray) -> float:
    """Cut-off above which a descending singular value counts toward a Schmidt rank.

    max(1e-10 * sigma_max, 1e-12): the one threshold of every rank here.
    """
    return max(SR_REL_TOL * svals[0], SR_ABS_TOL)


def operator_schmidt_rank(O: np.ndarray, cut: int, d: int = 2) -> int:
    """Numerical Schmidt rank of an operator across a contiguous cut.

    Reshapes O across the bipartition ((row_L, col_L) x (row_R, col_R)) and
    counts singular values above max(1e-10 * sigma_max, 1e-12); undercounting
    is safe because every rank bound checked here is one-sided.  The reshape
    keeps popcount parity (popcount(i_L d_L + j_L) = popcount(i_L) +
    popcount(j_L) for d_L = 2^cut), so the SVD runs per `parity_sectors`
    sector of the rearranged matrix.
    """
    dim = O.shape[0]
    dL = d**cut
    if dim % dL != 0:
        raise ValueError(f"cut at {cut} sites does not divide dimension {dim}")
    dR = dim // dL
    rearranged = (
        O.reshape(dL, dR, dL, dR).transpose(0, 2, 1, 3).reshape(dL * dL, dR * dR)
    )
    sectors = parity_sectors(rearranged)
    svals = np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) for _, _, b in sectors]))[::-1]
    return int(np.sum(svals > rank_threshold(svals)))


def state_schmidt_rank(state: np.ndarray, cut: int, d: int = 2) -> int:
    """Numerical Schmidt rank of a pure state across a contiguous cut."""
    dL = d**cut
    svals = np.linalg.svd(state.reshape(dL, -1), compute_uv=False)
    return int(np.sum(svals > rank_threshold(svals)))


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


def measure_agsp(filt: ChebyshevFilter, target_gs: np.ndarray) -> AgspReport:
    """Measure (delta_K, epsilon_K, D_K) of a filter against `target_gs`.

    delta_K is the phase-aligned distance from the filter's fixed state to
    the target; epsilon_K the dense 2-norm of K restricted to the fixed
    state's complement (exact for any K, also one that is not a function of
    its clamp's spectrum); D_K the operator Schmidt rank across the block cut.
    """
    K = filt.matrix
    fixed = filt.fixed_state
    residual = np.linalg.norm(K @ fixed - fixed)
    if residual > 1e-8:
        raise ValueError(f"filter does not fix its ground state: residual {residual:g}")
    aligned = align_phase(target_gs, fixed)
    delta = float(np.linalg.norm(target_gs - aligned))
    epsilon = top_singular_value(K - np.outer(K @ fixed, fixed.conj()))
    return AgspReport(
        m=filt.m,
        delta_K=delta,
        epsilon_K=epsilon,
        D_K=filt.schmidt_rank(),
        cheb_bound=filt.cheb_bound,
    )


@dataclass
class SchmidtRankBoundReport:
    """Measured SR(H_t^m) against the product and counting bounds."""

    power: int
    measured: int
    product_bound: float
    counting_bound: float
    counting_assumption_met: bool


def _cut_factors(T: TruncatedHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Stacked factors L_a, R_a with H_t = sum_a L_a (x) R_a across the block cut.

    Pieces wholly left (right) of the cut sum to H_L (H_R), giving the words
    H_L (x) I and I (x) H_R.  A crossing piece b on S_L + S_R is split over the
    matrix units of S_L, b = sum_ij E_ij (x) b[i, :, j, :]; only units with a
    nonzero slice are kept, so no threshold enters.
    """
    cut, n = T.blocks.cut, T.lattice.n
    left, right = tuple(range(1, cut + 1)), tuple(range(cut + 1, n + 1))
    left_pieces, right_pieces, crossing = [], [], []
    for support, m in T.pieces():
        if all(s <= cut for s in support):
            left_pieces.append((support, m))
        elif all(s > cut for s in support):
            right_pieces.append((support, m))
        else:
            crossing.append((support, m))
    Ls = [region_sum(T.lattice, left, left_pieces), np.eye(T.lattice.d**cut)]
    Rs = [np.eye(T.lattice.d ** (n - cut)), region_sum(T.lattice, right, right_pieces)]
    for support, m in crossing:
        sl = tuple(s for s in support if s <= cut)
        sr = support[len(sl) :]
        dl, dr = T.lattice.d ** len(sl), T.lattice.d ** len(sr)
        slices = m.reshape(dl, dr, dl, dr)
        for i in range(dl):
            for j in range(dl):
                if np.any(slices[i, :, j, :]):
                    unit = np.zeros((dl, dl))
                    unit[i, j] = 1.0
                    Ls.append(region_sum(T.lattice, left, [(sl, unit)]))
                    Rs.append(region_sum(T.lattice, right, [(sr, slices[i, :, j, :])]))
    return np.array(Ls), np.array(Rs)


def _merge(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exactly regroup sum_w X_w (x) Y_w into fewer words.

    Words with a zero factor are dropped, and the Y_w of words whose X_w are
    bitwise equal are summed.
    """
    groups: dict[bytes, list[int]] = {}
    for w, x in enumerate(X):
        if x.any() and Y[w].any():
            groups.setdefault(x.tobytes(), []).append(w)
    words = list(groups.values())
    merged = np.array([Y[ws].sum(axis=0) for ws in words]).reshape(-1, *Y.shape[1:])
    return X[[ws[0] for ws in words]], merged


def _compress(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exactly re-express sum_w X_w (x) Y_w with at most X_w.size words.

    With the stacked vec(X_w) = Q R (orthonormal Q), the X side becomes the
    matrices of Q's columns and the Y side R times the stacked vec(Y_w).
    """
    q, r = np.linalg.qr(X.reshape(len(X), -1).T)
    return q.T.reshape(-1, *X.shape[1:]), (r @ Y.reshape(len(Y), -1)).reshape(-1, *Y.shape[1:])


def _sum_schmidt_rank(A: np.ndarray, B: np.ndarray) -> int:
    """Operator Schmidt rank of sum_w A_w (x) B_w across the A|B cut.

    Rearranged as in `operator_schmidt_rank`, the operator is P^T Q with P, Q
    the stacked vec(A_w), vec(B_w).  From P^T = Q_P R_P and Q^T = Q_Q R_Q
    (orthonormal columns) it has the singular values of R_P R_Q^T.
    """
    if len(A) == 0:
        return 0
    r_p = np.linalg.qr(A.reshape(len(A), -1).T, mode="r")
    r_q = np.linalg.qr(B.reshape(len(B), -1).T, mode="r")
    svals = np.linalg.svd(r_p @ r_q.T, compute_uv=False)
    return int(np.sum(svals > rank_threshold(svals)))


def _power_schmidt_rank(T: TruncatedHamiltonian, m: int) -> int:
    """Operator Schmidt rank of H_t^m across the block cut, from the cut factors.

    H_t^m is the sum over words w in the factors of `_cut_factors` of
    L_w1...L_wm (x) R_w1...R_wm.  After each factor the words are regrouped
    by `_merge` on both sides, and re-expressed by `_compress` when they
    outnumber a side's operator space; every step is an exact identity and
    no d^n x d^n matrix is formed.
    """
    if m < 0:
        raise ValueError(f"power must be non-negative, got {m}")
    Ls, Rs = _cut_factors(T)
    A, B = np.eye(Ls.shape[1])[None], np.eye(Rs.shape[1])[None]
    for _ in range(m):
        A = (A[:, None] @ Ls[None]).reshape(-1, *Ls.shape[1:])
        B = (B[:, None] @ Rs[None]).reshape(-1, *Rs.shape[1:])
        A, B = _merge(A, B)
        B, A = _merge(B, A)
        if len(A) > Ls[0].size:
            A, B = _compress(A, B)
        if len(B) > Rs[0].size:
            B, A = _compress(B, A)
    return _sum_schmidt_rank(A, B)


def schmidt_rank_bound_check(T: TruncatedHamiltonian, m: int) -> SchmidtRankBoundReport:
    """Measure SR(H_t^m) (see `_power_schmidt_rank`) against both rank bounds.

    Product bound: [2 + (2 d l)^k]^m.  Counting bound: the simplified form
    d^{2ql}[e(q+1)^2(2dl)^k]^{m/(q+1)} when (q+m+1)^{q+1} <= d^{ql} holds,
    otherwise the unsimplified d^{ql}(q+m+1)^{q+1}[...]^{m/(q+1)}.
    """
    d = T.lattice.d
    q, l, k = T.q, T.blocks.l, T.k
    measured = _power_schmidt_rank(T, m)
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
    )


@dataclass
class BootstrapDiagnostics:
    """Outcome of the product-state bootstrap for one filter."""

    report: AgspReport
    precondition_met: bool
    mu1: float | None = None
    mu1_floor: float | None = None
    state_rank: int | None = None
    distance: float | None = None
    distance_bound: float | None = None


def bootstrap_state(filt: ChebyshevFilter, target_gs: np.ndarray, report: AgspReport):
    """Filtered top-Schmidt product state: a low-rank approximate ground state.

    `report` is `measure_agsp(filt, target_gs)`.  Requires epsilon_K^2 * D_K
    <= 1/2; then the top Schmidt coefficient of the fixed state obeys
    mu_1 >= 1/sqrt(2 D_K), and psi = K|P_1>/||K|P_1>|| lands within
    epsilon_K*sqrt(2 D_K) + delta_K of the target with Schmidt rank at most
    D_K, across the clamp's block cut.  Returns (psi, diagnostics); psi is
    None when the precondition fails.
    """
    cut, d = filt.eff.base.blocks.cut, filt.eff.base.lattice.d
    if not report.bootstrap_ready:
        return None, BootstrapDiagnostics(report=report, precondition_met=False)
    dL = d**cut
    # The distance bound chains through delta_K, which is measured with the
    # fixed state phase-aligned to the target; bootstrap from the same gauge.
    fixed = align_phase(target_gs, filt.fixed_state)
    M = fixed.reshape(dL, -1)
    U, svals, Vh = np.linalg.svd(M, full_matrices=False)
    product = np.outer(U[:, 0], Vh[0, :].conj()).reshape(-1)
    filtered = filt.matrix @ product
    psi = filtered / np.linalg.norm(filtered)
    distance = float(np.linalg.norm(psi - target_gs))
    diag = BootstrapDiagnostics(
        report=report,
        precondition_met=True,
        mu1=float(svals[0]),
        mu1_floor=1.0 / math.sqrt(2.0 * report.D_K),
        state_rank=state_schmidt_rank(psi, cut, d=d),
        distance=distance,
        distance_bound=report.epsilon_K * math.sqrt(2.0 * report.D_K) + report.delta_K,
    )
    return psi, diag
