"""Shared fixtures and independent oracle constructions.

The oracle helpers below build operators by explicit Kronecker products and
occupation-number bookkeeping, deliberately sharing no code with the
package's index-arithmetic embedding; agreement between the two paths is
itself part of the verification.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import pytest

from agsplab.agsp import operator_schmidt_rank
from agsplab.config import ExperimentConfig
from agsplab.experiment import Pipeline, build_pipeline, run_points
from agsplab.spectral import in_window

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
EYE2 = np.eye(2)


def kron_chain(n: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    """Oracle embedding: explicit kron product, sites 1-based."""
    return reduce(np.kron, [ops.get(i, EYE2) for i in range(1, n + 1)])


def oracle_ising(n: int, alpha: float, J: float, B: float) -> np.ndarray:
    """Independent construction of the power-law XX + transverse-field chain."""
    H = np.zeros((2**n, 2**n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            H += (J / (j - i) ** alpha) * kron_chain(n, {i: PAULI_X, j: PAULI_X})
        if B != 0.0:
            H += B * kron_chain(n, {i: PAULI_Z})
    return H


def oracle_fermion_annihilator(i: int, n: int) -> np.ndarray:
    """Annihilator in the occupation basis (site i 1-based, bit i-1 = occupied)."""
    dim = 2**n
    M = np.zeros((dim, dim))
    bit = 1 << (i - 1)
    for s in range(dim):
        if s & bit:
            sign = (-1) ** bin(s & (bit - 1)).count("1")
            M[s & ~bit, s] = sign
    return M


def oracle_fermion_chain(n: int, alpha: float, A: float, B: float) -> np.ndarray:
    """Occupation-basis construction of the quadratic long-range chain."""
    ops = [oracle_fermion_annihilator(i, n) for i in range(1, n + 1)]
    H = np.zeros((2**n, 2**n))
    for i in range(n):
        for j in range(i + 1, n):
            r = float(j - i) ** alpha
            t = (A / r) * ops[i] @ ops[j].T + (B / r) * ops[i] @ ops[j]
            H += t + t.T
    return H


def oracle_ground_vector(M: np.ndarray) -> np.ndarray:
    """Lowest eigenvector of a dense Hermitian matrix from one unsplit `eigh`."""
    return np.linalg.eigh(M)[1][:, 0]


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def power_law_profile(H) -> dict[int, float]:
    """max_i sum_{Z containing i, diam(Z)=r} ||h_Z|| for each diameter r >= 1."""
    n = H.lattice.n
    sums: dict[int, np.ndarray] = {}
    for idx, term in enumerate(H.terms):
        r = term.diameter
        if r == 0:
            continue
        acc = sums.setdefault(r, np.zeros(n + 1))
        nrm = H.term_norm(idx)
        for s in term.support:
            acc[s] += nrm
    return {r: float(acc.max()) for r, acc in sorted(sums.items())}


def verify_power_law(H, atol: float = 1e-9) -> bool:
    """Check the per-pair metadata envelope ||h_Z|| <= J/diam(Z)^alpha, ||h_i|| <= B."""
    meta = H.metadata
    if meta is None:
        raise ValueError("Hamiltonian has no power-law metadata")
    for idx, term in enumerate(H.terms):
        nrm = H.term_norm(idx)
        if term.diameter == 0:
            if nrm > meta.field + atol:
                return False
        elif nrm > meta.coupling / term.diameter**meta.alpha + atol:
            return False
    return True


def entropy_from_density(rho: np.ndarray) -> float:
    """Von Neumann entropy from a density matrix (independent of any SVD path)."""
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-15]
    return float(-np.sum(evals * np.log(evals)))


def renyi2_from_density(rho: np.ndarray) -> float:
    """Second Renyi entropy -ln tr(rho^2) from a density matrix."""
    return -float(np.log(np.real(np.trace(rho @ rho))))


def reduced_density(state: np.ndarray, cut: int, d: int = 2) -> np.ndarray:
    M = state.reshape(d**cut, -1)
    return M @ M.conj().T


def chebyshev_matrix_recurrence(filt) -> np.ndarray:
    """A Chebyshev filter re-evaluated by the matrix three-term recurrence.

    Shares nothing with the package's eigenbasis evaluation but the clamp's
    dense matrix and ground energy; the normalization T_m at the window edge
    comes from numpy's Chebyshev series.
    """
    sp = filt.eff.spectral()
    dim = sp.source_dim
    gap, width = filt.gap_eff, filt.width
    H = filt.eff.assemble_dense() - sp.ground_energy * np.eye(dim)
    Y = (2.0 * H - (width + gap) * np.eye(dim)) / (width - gap)
    t_prev, t_cur = np.eye(dim), Y
    for _ in range(filt.m - 1):
        t_prev, t_cur = t_cur, 2.0 * Y @ t_cur - t_prev
    num = t_prev if filt.m == 0 else t_cur
    edge = -(width + gap) / (width - gap)
    return num / np.polynomial.chebyshev.chebval(edge, [0.0] * filt.m + [1.0])


def kron_embed(T, sites: tuple[int, ...], op: np.ndarray) -> np.ndarray:
    """Oracle embedding of an operator on contiguous `sites` into the full chain."""
    d, n = T.lattice.d, T.lattice.n
    return reduce(np.kron, [np.eye(d ** (sites[0] - 1)), op, np.eye(d ** (n - sites[-1]))])


def dense_power_schmidt_rank(T, m: int) -> int:
    """SR(H_t^m) across the block cut from the d^n x d^n power of H_t."""
    powered = np.linalg.matrix_power(T.assemble_dense(), m)
    return operator_schmidt_rank(powered, T.blocks.cut, d=T.lattice.d)


def dense_commutator_norms(T) -> list[float]:
    """||[H_t, h_{s,s+1}]|| of every bond, formed on the full chain."""
    H = T.assemble_dense()
    norms = []
    for s, bond in enumerate(T.bonds):
        emb = kron_embed(T, T.bond_support(s), bond)
        norms.append(float(np.linalg.norm(H @ emb - emb @ H, 2)))
    return norms


def dense_filter_lhs(T, s: int, O: np.ndarray, E: float, E_prime: float, spectrum) -> float:
    """||P_{>=E'} O_s P_{<=E}|| from the full rotation V^dag O_s V of `spectrum`."""
    V, w = spectrum.eigenvectors, spectrum.eigenvalues
    rot = V.conj().T @ kron_embed(T, T.blocks.blocks[s], O) @ V
    block = rot[np.ix_(in_window(w, lo=E_prime), in_window(w, hi=E))]
    return float(np.linalg.norm(block, 2)) if block.size else 0.0


def verify_all(cfg: ExperimentConfig) -> list:
    """Records for every grid point of the (possibly swept) config."""
    return [r for point in run_points(cfg) for r in point.records]


# The reference instance of the acceptance criteria: long-range Ising,
# n=10, alpha=3, J=1, B=2, q=2, l=2.  Building it once saves minutes.
REFERENCE_CONFIG = ExperimentConfig(
    family="long_range_ising",
    n=10,
    alpha=3.0,
    J=1.0,
    B=2.0,
    q=2,
    l=2,
    taus=[6.0],
    ms=[4, 8],
    seed=7,
)


@pytest.fixture(scope="session")
def reference_pipeline() -> Pipeline:
    return build_pipeline(REFERENCE_CONFIG)


@pytest.fixture(scope="session")
def small_pipeline() -> Pipeline:
    cfg = ExperimentConfig(n=8, alpha=3.0, J=1.0, B=2.0, q=2, l=2, taus=[5.0], ms=[4], seed=3)
    return build_pipeline(cfg)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
