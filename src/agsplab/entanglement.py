"""Schmidt decompositions, entanglement entropies, and MPS compression.

Entropies are in natural-log units everywhere.  The compression routine is
a single left-to-right sweep of truncated SVDs, which is exactly the
construction whose error is controlled by twice the summed tail weights of
the original state's Schmidt spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agsp import rank_threshold, state_schmidt_rank

# First filter degree of `agsp_sequence`, and how many times one of its steps
# may escalate (m, l, tau) before the target counts as unreachable.
M_START = 4
ESCALATION_BUDGET = 14


@dataclass
class SchmidtData:
    """Descending Schmidt coefficients and vectors of a pure state at a cut."""

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    cut: int

    def reconstruct(self) -> np.ndarray:
        M = (self.left_vectors * self.coefficients) @ self.right_vectors
        return M.reshape(-1)

    def numerical_rank(self) -> int:
        return int(np.sum(self.coefficients > rank_threshold(self.coefficients)))

    def tail_weight(self, rank: int) -> float:
        """Sum of squared coefficients beyond the given rank."""
        return float(np.sum(self.coefficients[rank:] ** 2))


def schmidt_decompose(state: np.ndarray, cut: int, d: int = 2) -> SchmidtData:
    """Schmidt decomposition of a unit vector across sites [1..cut] | rest."""
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized: ||state|| = {nrm:.12g}")
    dL = d**cut
    if state.size % dL != 0:
        raise ValueError(f"cut at {cut} sites does not divide dimension {state.size}")
    M = state.reshape(dL, -1)
    U, mu, Vh = np.linalg.svd(M, full_matrices=False)
    return SchmidtData(coefficients=mu, left_vectors=U, right_vectors=Vh, cut=cut)


def entropy(schmidt: SchmidtData) -> float:
    """Von Neumann entropy -sum mu^2 ln mu^2 (0 ln 0 = 0), in nats."""
    p = schmidt.coefficients**2
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def renyi2(schmidt: SchmidtData) -> float:
    """Second Renyi entropy -ln tr(rho_L^2) = -ln sum mu^4, in nats."""
    return -math.log(float(np.sum(schmidt.coefficients**4)))


@dataclass
class EckartYoungRecord:
    comparison_rank: int
    tail_weight: float
    distance_squared: float


def eckart_young_check(psi: np.ndarray, psi_prime: np.ndarray, cut: int, d: int = 2) -> EckartYoungRecord:
    """Tail Schmidt weight of psi beyond rank(psi') against ||psi - psi'||^2."""
    schmidt = schmidt_decompose(psi, cut, d=d)
    rank = state_schmidt_rank(psi_prime, cut, d=d)
    return EckartYoungRecord(
        comparison_rank=rank,
        tail_weight=schmidt.tail_weight(rank),
        distance_squared=float(np.linalg.norm(psi - psi_prime) ** 2),
    )


def truncate_to_rank(schmidt: SchmidtData, rank: int) -> np.ndarray:
    """Renormalized best rank-`rank` approximation of the decomposed state."""
    mu = schmidt.coefficients[:rank]
    M = (schmidt.left_vectors[:, :rank] * mu) @ schmidt.right_vectors[:rank]
    v = M.reshape(-1)
    return v / np.linalg.norm(v)


@dataclass
class MpsState:
    """Left-canonical site tensors (D_left, d, D_right) with D_0 = D_n = 1."""

    site_tensors: list[np.ndarray]
    truncation_weights: list[float]

    def contract(self) -> np.ndarray:
        acc = self.site_tensors[0].reshape(-1, self.site_tensors[0].shape[2])
        for tensor in self.site_tensors[1:]:
            acc = np.tensordot(acc, tensor, axes=([1], [0]))
            acc = acc.reshape(-1, tensor.shape[2])
        return acc.reshape(-1)


def mps_compress(state: np.ndarray, D: int, d: int = 2) -> MpsState:
    """One left-to-right sweep of rank-D SVD truncations.

    Truncation weights are the tail weights of the *original* state's
    Schmidt spectrum at each bond, which is what controls the final error:
    ||state - contraction||^2 <= 2 * sum_i delta_i.
    """
    if D < 1:
        raise ValueError(f"bond dimension must be >= 1, got {D}")
    n = int(round(math.log(state.size, d)))
    if d**n != state.size:
        raise ValueError(f"state dimension {state.size} is not a power of {d}")
    weights = []
    for i in range(1, n):
        mu = np.linalg.svd(state.reshape(d**i, -1), compute_uv=False)
        weights.append(float(np.sum(mu[D:] ** 2)))
    tensors = []
    rank = 1
    vec = state
    for _ in range(n - 1):
        M = vec.reshape(rank * d, -1)
        U, S, Vh = np.linalg.svd(M, full_matrices=False)
        keep = min(D, len(S))
        tensors.append(U[:, :keep].reshape(rank, d, keep))
        vec = (S[:keep, None] * Vh[:keep]).reshape(-1)
        rank = keep
    tensors.append(vec.reshape(rank, d, 1))
    return MpsState(site_tensors=tensors, truncation_weights=weights)


@dataclass
class MpsCompressionRecord:
    D: int
    error_squared: float
    weight_bound: float


def mps_compression_check(state: np.ndarray, D: int, d: int = 2) -> MpsCompressionRecord:
    mps = mps_compress(state, D, d=d)
    err = float(np.linalg.norm(state - mps.contract()) ** 2)
    return MpsCompressionRecord(
        D=D,
        error_squared=err,
        weight_bound=2.0 * float(sum(mps.truncation_weights)),
    )


def agsp_entropy_bound(
    D_phi: float,
    gamma_sequence,
    D_sequence,
    schmidt_cap: float,
) -> float:
    """Entropy cap assembled from a filter sequence's measured (gamma_p, D_p).

    ln(D_phi) - sum_{p=0}^{P-1} gamma_p^2 ln(gamma_p^2 / (3 D_{p+1})) with
    gamma_0 = 1, plus the closing tail term -gamma_P^2 ln(gamma_P^2 /
    (3 * schmidt_cap)): beyond the last measured filter the remaining
    Schmidt weight (at most gamma_P^2, by monotonicity) is spread over at
    most `schmidt_cap` coefficients, so the reported value is a true upper
    bound of the infinite-sequence expression.
    """
    gammas = [float(g) for g in gamma_sequence]
    Ds = [float(x) for x in D_sequence]
    if len(gammas) != len(Ds):
        raise ValueError("gamma and D sequences must have equal length")
    if any(g > 1.0 + 1e-12 for g in gammas):
        raise ValueError("every gamma_p must be <= 1")
    full = [1.0] + gammas
    bound = math.log(D_phi)
    for p in range(len(full) - 1):
        g2 = full[p] ** 2
        if g2 > 0.0:
            bound -= g2 * math.log(g2 / (3.0 * Ds[p]))
    g2_last = full[-1] ** 2
    if g2_last > 0.0:
        bound -= g2_last * math.log(g2_last / (3.0 * float(schmidt_cap)))
    return bound


@dataclass
class AgspSequenceStep:
    """One accepted filter of the escalating sequence."""

    p: int
    m: int
    l: int
    tau: float
    gamma: float
    delta: float
    epsilon: float
    D: int
    distance: float
    target_met: bool


def agsp_sequence(
    filter_factory,
    ground: np.ndarray,
    base_state: np.ndarray,
    p_max: int,
    l_start: int,
    tau_start: float,
    l_max: int,
    tau_max: float,
):
    """Escalating filter sequence driving gamma_p below 1/p.

    `filter_factory(m, l, tau)` must return a ChebyshevFilter for the
    ground-state problem at hand.  Per step p the schedule (m, l, tau) is
    escalated (m doubles from M_START, l and tau grow to their caps l_max
    and tau_max) until the measured gamma_p = epsilon_p / (1 - nu0 -
    delta_p) + delta_p drops to 1/p; the filtered base state is then checked
    to lie within gamma_p of the ground state, and D_p is the filter's
    Schmidt rank across its clamp's block cut.  Returns (steps, exhausted)
    where `exhausted` flags a step whose target was unreachable within
    ESCALATION_BUDGET escalations (iteration stops there).
    """
    from .truncation import align_phase

    nu0 = float(np.linalg.norm(ground - align_phase(ground, base_state)))
    if nu0 > 0.5 + 1e-12:
        raise ValueError(f"base state is too far from the ground state: nu0 = {nu0:.4g}")
    steps: list[AgspSequenceStep] = []
    m, l, tau = M_START, l_start, float(tau_start)
    for p in range(1, p_max + 1):
        target = 1.0 / p
        attempt = 0
        while True:
            filt = filter_factory(m, l, tau)
            fixed = align_phase(ground, filt.fixed_state)
            delta = float(np.linalg.norm(ground - fixed))
            epsilon = filt.excited_residual()
            denominator = 1.0 - nu0 - delta
            gamma = epsilon / denominator + delta if denominator > 0 else math.inf
            if gamma <= target or attempt >= ESCALATION_BUDGET:
                break
            attempt += 1
            m *= 2
            if attempt % 2 == 0:
                if l < l_max:
                    l += 1
                if tau < tau_max:
                    tau = min(tau * 1.5, tau_max)
        met = gamma <= target
        overlap = np.vdot(fixed, base_state)
        phase = overlap.conjugate() / abs(overlap) if abs(overlap) > 0 else 1.0
        filtered = filt.matrix @ (phase * base_state)
        psi = filtered / np.linalg.norm(filtered)
        distance = float(np.linalg.norm(psi - ground))
        steps.append(
            AgspSequenceStep(
                p=p,
                m=filt.m,
                l=l,
                tau=tau,
                gamma=float(gamma),
                delta=delta,
                epsilon=epsilon,
                D=filt.schmidt_rank(),
                distance=distance,
                target_met=met,
            )
        )
        if not met:
            return steps, True
    return steps, False
