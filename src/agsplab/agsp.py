"""Chebyshev ground-state filters and their measured quality parameters.

A filter K is a degree-m Chebyshev polynomial of the clamped Hamiltonian,
normalized to 1 at the (shifted) ground energy.  Its quality is three numbers,
each measured along one path by `ChebyshevFilter`: the drift delta_K of its
fixed state from a target (`drift`), the residual epsilon_K on the fixed
state's complement, exactly max_{j>=1} |f(E_j)| (`excited_residual`), and the
operator Schmidt rank D_K across the cut (`schmidt_rank`).  Bootstrapping
turns a filter with epsilon_K^2 D_K <= 1/2 into a low-Schmidt-rank
approximate ground state.  Every rank is counted by `spectral.numerical_rank`.

K is Hermitian to the last bit by construction, so a real K is exactly
symmetric, and `spectral.operator_schmidt_rank` splits its Schmidt reshape
into the blocks of swap-symmetric and -antisymmetric index pairs on top of
the parity sectors.  D_K is cached on the clamp (`filter_ranks`); a clamp
that cuts nothing is T and uses T's cache (`effective.build_effective`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .effective import EffectiveHamiltonian
from .entanglement import schmidt_decompose, truncate_to_rank
from .hamiltonian import region_sum
from .registry import BoundRecord, vacuous
from .spectral import DEGENERACY_THRESHOLD, align_phase, numerical_rank, operator_schmidt_rank
from .truncation import TruncatedHamiltonian


def chebyshev_T(m: int, x):
    """Chebyshev polynomial T_m(x) by the three-term recurrence (vectorized); numpy warns past the float range."""
    t, e = scaled_chebyshev_T(m, x)
    value = t * np.exp2(e)
    return value if value.ndim else float(value)


def scaled_chebyshev_T(m: int, x) -> tuple[np.ndarray, np.ndarray]:
    """T_m(x) = t * 2^e by the recurrence, both terms divided by 2^1000 (exactly) when one reaches it.

    No term overflows for |x| < 2^20; where |T_m(x)| < 2^1000, t is the plain recurrence value.
    """
    if m < 0:
        raise ValueError(f"degree must be non-negative, got {m}")
    x = np.asarray(x, dtype=float)
    t_prev, t_cur, e = np.ones_like(x), x.copy(), np.zeros(x.shape, dtype=int)
    if m == 0:
        return t_prev, e
    for _ in range(m - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
        shift = np.where(np.maximum(np.abs(t_prev), np.abs(t_cur)) >= 2.0**1000, 1000, 0)
        t_prev, t_cur, e = np.ldexp(t_prev, -shift), np.ldexp(t_cur, -shift), e + shift
    return t_cur, e


@dataclass
class ChebyshevFilter:
    """Degree-m filter K = V f(w) V^dag of a clamp's spectrum V, w, built by `agsp_filter`.

    f = T_m(x)/T_m(x0) (`_filter_values`) has f(E_0) = 1 exactly, so the fixed
    state is the clamp's ground state.  K's sector blocks are formed on first use.
    """

    eff: EffectiveHamiltonian
    m: int

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """K as its (rows, block) sectors, the clamp's, each K'_s = (U_s f_s) U_s^dag kept as (K'_s + K'_s^dag) / 2.

        Floating-point addition commutes, so a real K is exactly symmetric, as `operator_schmidt_rank` reads.
        """
        sp = self.eff.spectral()
        vals = _filter_values(self.m, sp.eigenvalues, sp.gap, sp.width)
        return tuple((rows, 0.5 * (block + block.conj().T)) for rows, block in sp.function_blocks(vals))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """K v, one sector block at a time."""
        out = np.zeros(len(v), dtype=np.result_type(v, *(block for _, block in self.blocks)))
        for rows, block in self.blocks:
            out[rows] = block @ v[rows]
        return out

    @property
    def fixed_state(self) -> np.ndarray:
        return self.eff.spectral().columns([0])[:, 0]

    @property
    def gap_eff(self) -> float:
        return self.eff.spectral().gap

    @property
    def width(self) -> float:
        return self.eff.spectral().width

    @property
    def cheb_bound(self) -> float:
        """Guaranteed residual 2*exp(-2m*sqrt(gap/width)) on excited states."""
        return 2.0 * math.exp(-2.0 * self.m * math.sqrt(self.gap_eff / self.width))

    def excited_residual(self) -> float:
        """epsilon_K = ||K (1 - |fixed><fixed|)|| = max_{j>=1} |f(E_j)|, exact (K shares the clamp's eigenbasis)."""
        sp = self.eff.spectral()
        vals = _filter_values(self.m, sp.eigenvalues, sp.gap, sp.width)
        return float(np.max(np.abs(vals[1:]))) if len(vals) > 1 else 0.0

    def drift(self, target: np.ndarray) -> tuple[float, np.ndarray]:
        """delta_K = ||target - fixed||, with the fixed state phase-aligned to `target`; returns both."""
        fixed = align_phase(target, self.fixed_state)
        return float(np.linalg.norm(target - fixed)), fixed

    def schmidt_rank(self) -> int:
        """Operator Schmidt rank D_K of K across its clamp's block cut.

        K is a function of its clamp's spectrum and m, so the rank is cached
        on the clamp under m: one SVD per clamp and degree, whichever filter
        object asks.
        """
        ranks = self.eff.filter_ranks
        if self.m not in ranks:
            ranks[self.m] = operator_schmidt_rank(self.blocks, self.eff.base.blocks.cut)
        return ranks[self.m]


def _filter_values(m: int, eigenvalues: np.ndarray, gap: float, width: float) -> np.ndarray:
    """K's eigenvalues T_m(x)/T_m(x0), x the spectrum mapped so that [gap, width] is [-1, 1].

    With x0 < -1 the ground's image and phi0 = acosh|x0|, the ratio is
    cos(m acos x) / ((-1)^m cosh(m phi0)) inside the window and
    +-exp(m (phi - phi0)) (1 + e^{-2 m phi}) / (1 + e^{-2 m phi0}) outside,
    phi = acosh|x|.  No factor overflows (the raw recurrence does past
    m ~ 1000), and the ground's value is exactly 1.
    """
    x = eigenvalues - eigenvalues[0]
    scaled = (2.0 * x - (width + gap)) / (width - gap)
    phi0 = np.arccosh((width + gap) / (width - gap))
    sign0 = -1.0 if m % 2 else 1.0
    decay0 = np.exp(-2.0 * m * phi0)
    inside = np.abs(scaled) <= 1.0
    out = np.empty_like(scaled)
    # 1 / cosh(m phi0) = 2 e^{-m phi0} / (1 + e^{-2 m phi0})
    out[inside] = sign0 * np.cos(m * np.arccos(scaled[inside])) * 2.0 * np.exp(-m * phi0) / (1.0 + decay0)
    outside = scaled[~inside]
    phi = np.arccosh(np.abs(outside))
    growth = np.exp(m * (phi - phi0)) * (1.0 + np.exp(-2.0 * m * phi)) / (1.0 + decay0)
    out[~inside] = np.where(outside < 0.0, 1.0, sign0) * growth
    return out


def agsp_filter(eff: EffectiveHamiltonian, m: int) -> ChebyshevFilter:
    """The degree-m Chebyshev filter of a clamp, suppressing [gap, width] above its ground energy.

    A (near-)degenerate spectrum, or one with no level above the gap, is refused.
    """
    sp = eff.spectral()
    if sp.gap <= DEGENERACY_THRESHOLD:
        raise ValueError(f"effective spectrum is (near-)degenerate: gap = {sp.gap:g}")
    if sp.width - sp.gap <= DEGENERACY_THRESHOLD:
        raise ValueError("effective spectrum has no excited window above the gap")
    return ChebyshevFilter(eff=eff, m=m)


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
    Ls = [region_sum(left, left_pieces), np.eye(2**cut)]
    Rs = [np.eye(2 ** (n - cut)), region_sum(right, right_pieces)]
    for support, m in crossing:
        sl = tuple(s for s in support if s <= cut)
        sr = support[len(sl) :]
        dl, dr = 2 ** len(sl), 2 ** len(sr)
        slices = m.reshape(dl, dr, dl, dr)
        for i in range(dl):
            for j in range(dl):
                if np.any(slices[i, :, j, :]):
                    unit = np.zeros((dl, dl))
                    unit[i, j] = 1.0
                    Ls.append(region_sum(left, [(sl, unit)]))
                    Rs.append(region_sum(right, [(sr, slices[i, :, j, :])]))
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
    (orthonormal columns) it has the singular values of R_P R_Q^T; a
    non-finite entry (an overflowed H_t^m) raises `LinAlgError` first.
    """
    if len(A) == 0:
        return 0
    r_p = np.linalg.qr(A.reshape(len(A), -1).T, mode="r")
    r_q = np.linalg.qr(B.reshape(len(B), -1).T, mode="r")
    core = r_p @ r_q.T
    if not all(np.isfinite(M).all() for M in (A, B, core)):
        raise np.linalg.LinAlgError("operator sum_w A_w (x) B_w (a power H_t^m) has a non-finite entry")
    return numerical_rank(np.linalg.svd(core, compute_uv=False))


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


def schmidt_rank_bound_check(T: TruncatedHamiltonian, m: int) -> list[BoundRecord]:
    """`sr.lemma8` and `sr.prop4` records of SR(H_t^m) (see `_power_schmidt_rank`).

    With the local dimension d = 2 of qubits, product bound: [2 + (2 d l)^k]^m.
    Counting bound: the simplified form d^{2ql}[e(q+1)^2(2dl)^k]^{m/(q+1)}
    when (q+m+1)^{q+1} <= d^{ql} holds, otherwise the unsimplified
    d^{ql}(q+m+1)^{q+1}[...]^{m/(q+1)}; the `sr.prop4` context says which
    (`assumption_met`).
    """
    q, l, k = T.q, T.blocks.l, T.k
    measured = _power_schmidt_rank(T, m)
    product_bound = float(2 + (2 * 2 * l) ** k) ** m
    base_factor = (math.e * (q + 1) ** 2 * (2 * 2 * l) ** k) ** (m / (q + 1))
    assumption = (q + m + 1) ** (q + 1) <= 2 ** (q * l)
    if assumption:
        counting = 2.0 ** (2 * q * l) * base_factor
    else:
        counting = 2.0 ** (q * l) * (q + m + 1) ** (q + 1) * base_factor
    return [
        BoundRecord("sr.lemma8", measured, product_bound, {"m": m}),
        BoundRecord("sr.prop4", measured, counting, {"m": m, "assumption_met": assumption}),
    ]


def bootstrap_state(filt: ChebyshevFilter, target_gs: np.ndarray):
    """Filtered top-Schmidt product state: a low-rank approximate ground state.

    Requires epsilon_K^2 * D_K <= 1/2; then the top Schmidt coefficient of
    the fixed state obeys mu_1 >= 1/sqrt(2 D_K), and psi = K|P_1>/||K|P_1>||
    lands within epsilon_K*sqrt(2 D_K) + delta_K of `target_gs` with Schmidt
    rank at most D_K, across the clamp's block cut.  Returns (psi, records):
    the `bootstrap.mu1` and `prop2.distance` records, with context m.  When
    the precondition fails psi is None and both records are not-applicable
    placeholders.
    """
    epsilon, D = filt.excited_residual(), filt.schmidt_rank()
    if epsilon**2 * D > 0.5:
        note = "epsilon_K^2 * D_K > 1/2"
        return None, [vacuous("bootstrap.mu1", note, m=filt.m), vacuous("prop2.distance", note, m=filt.m)]
    # The distance bound chains through delta_K, which is measured with the
    # fixed state phase-aligned to the target; bootstrap from the same gauge.
    delta, fixed = filt.drift(target_gs)
    schmidt = schmidt_decompose(fixed, filt.eff.base.blocks.cut)
    filtered = filt.apply(truncate_to_rank(schmidt, 1))
    psi = filtered / np.linalg.norm(filtered)
    mu1 = float(schmidt.coefficients[0])
    distance_bound = epsilon * math.sqrt(2.0 * D) + delta
    return psi, [
        BoundRecord("bootstrap.mu1", 1.0 / math.sqrt(2.0 * D), mu1, {"m": filt.m}),
        BoundRecord("prop2.distance", float(np.linalg.norm(psi - target_gs)), distance_bound, {"m": filt.m}),
    ]
