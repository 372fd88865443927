"""Schmidt decompositions, ranks, entanglement entropies, and MPS compression.

`schmidt_decompose` is the one place a state's Schmidt spectrum is computed,
with its vectors or, for a caller that reads only entropies, without them;
its ranks are counted by `spectral.numerical_rank`, the rule that counts
every operator Schmidt rank too.  Entropies are in natural-log units
everywhere.  The compression routine is a single left-to-right sweep of
truncated SVDs, which is exactly the construction whose error is controlled
by twice the summed tail weights of the original state's Schmidt spectra.
States live on chains of qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .registry import BoundRecord, vacuous
from .spectral import align_phase, numerical_rank

# First filter degree of `agsp_sequence`, and how many times one of its steps
# may escalate (m, l, tau) before the target counts as unreachable.
M_START = 4
ESCALATION_BUDGET = 14

@dataclass
class SchmidtData:
    """Descending Schmidt coefficients and vectors (None if not asked for) of a pure state at a cut."""

    coefficients: np.ndarray
    left_vectors: np.ndarray | None
    right_vectors: np.ndarray | None
    cut: int

    def reconstruct(self) -> np.ndarray:
        M = (self.left_vectors * self.coefficients) @ self.right_vectors
        return M.reshape(-1)

    def numerical_rank(self) -> int:
        return numerical_rank(self.coefficients)

    def tail_weight(self, rank: int) -> float:
        """Sum of squared coefficients beyond the given rank."""
        return float(np.sum(self.coefficients[rank:] ** 2))


def schmidt_decompose(state: np.ndarray, cut: int, vectors: bool = True) -> SchmidtData:
    """Schmidt decomposition of a unit vector across sites [1..cut] | rest (coefficients only if not `vectors`)."""
    nrm = np.linalg.norm(state)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized: ||state|| = {nrm:.12g}")
    if state.size % 2**cut != 0:
        raise ValueError(f"cut at {cut} sites does not divide dimension {state.size}")
    M = state.reshape(2**cut, -1)
    if not vectors:
        return SchmidtData(np.linalg.svd(M, compute_uv=False), None, None, cut)
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


def eckart_young_check(schmidt: SchmidtData, psi_prime: np.ndarray) -> BoundRecord:
    """`eckart-young` record: tail Schmidt weight of psi beyond rank(psi') against ||psi - psi'||^2.

    psi is the state that `schmidt` decomposes; the rank of psi' is taken at
    the same cut, and the context carries it.
    """
    rank = schmidt_decompose(psi_prime, schmidt.cut).numerical_rank()
    err = float(np.linalg.norm(schmidt.reconstruct() - psi_prime) ** 2)
    return BoundRecord("eckart-young", schmidt.tail_weight(rank), err, {"rank": rank})


def truncate_to_rank(schmidt: SchmidtData, rank: int) -> np.ndarray:
    """Renormalized best rank-`rank` approximation of the decomposed state."""
    mu = schmidt.coefficients[:rank]
    M = (schmidt.left_vectors[:, :rank] * mu) @ schmidt.right_vectors[:rank]
    v = M.reshape(-1)
    return v / np.linalg.norm(v)


@dataclass
class MpsState:
    """Left-canonical site tensors (D_left, 2, D_right) with D_0 = D_n = 1."""

    site_tensors: list[np.ndarray]

    def contract(self) -> np.ndarray:
        acc = self.site_tensors[0].reshape(-1, self.site_tensors[0].shape[2])
        for tensor in self.site_tensors[1:]:
            acc = np.tensordot(acc, tensor, axes=([1], [0]))
            acc = acc.reshape(-1, tensor.shape[2])
        return acc.reshape(-1)


def _chain_length(state: np.ndarray) -> int:
    """Number of sites n of a state of dimension 2^n."""
    n = int(round(math.log2(state.size)))
    if 2**n != state.size:
        raise ValueError(f"state dimension {state.size} is not a power of 2")
    return n


def mps_compress(state: np.ndarray, D: int) -> MpsState:
    """One left-to-right sweep of rank-D SVD truncations."""
    if D < 1:
        raise ValueError(f"bond dimension must be >= 1, got {D}")
    n = _chain_length(state)
    tensors = []
    rank = 1
    vec = state
    for _ in range(n - 1):
        M = vec.reshape(rank * 2, -1)
        U, S, Vh = np.linalg.svd(M, full_matrices=False)
        keep = min(D, len(S))
        tensors.append(U[:, :keep].reshape(rank, 2, keep))
        vec = (S[:keep, None] * Vh[:keep]).reshape(-1)
        rank = keep
    tensors.append(vec.reshape(rank, 2, 1))
    return MpsState(site_tensors=tensors)


def mps_compression_check(state: np.ndarray, Ds) -> list[BoundRecord]:
    """`claim7.mps` records: ||state - psi_D||^2 against 2 * sum_i delta_i(D), per D in `Ds`.

    psi_D is the swept rank-D compression and delta_i(D) the tail weight of
    the state's own Schmidt spectrum beyond rank D at bond i; each bond is
    decomposed once for every D.  At D at or above the full bond dimension
    max_i min(2^i, 2^(n-i)) = 2^(n//2) the sweep is lossless and the bound
    reads 0, so that record is a not-applicable placeholder.
    """
    n = _chain_length(state)
    spectra = [schmidt_decompose(state, i) for i in range(1, n)]
    records = []
    for D in Ds:
        if D >= 2 ** (n // 2):
            records.append(vacuous("claim7.mps", "D at or above the full bond dimension; lossless", D=D))
            continue
        err = float(np.linalg.norm(state - mps_compress(state, D).contract()) ** 2)
        records.append(BoundRecord("claim7.mps", err, 2.0 * sum(sd.tail_weight(D) for sd in spectra), {"D": D}))
    return records


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
            delta, fixed = filt.drift(ground)
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
        filtered = filt.apply(align_phase(fixed, base_state))
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
