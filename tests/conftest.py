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

from agsplab.config import ExperimentConfig
from agsplab.effective import EffectiveHamiltonian
from agsplab.experiment import Pipeline, build_pipeline, run_points
from agsplab.hamiltonian import region_sum
from agsplab.spectral import Sector, SpectralData, in_window, operator_schmidt_rank

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


def dense_eigenvectors(spectrum) -> np.ndarray:
    """The d x d eigenvector matrix of a decomposition, column j the level at ascending position j.

    Written from the sector blocks themselves, zero between sectors.
    """
    dtype = np.result_type(*(sec.vectors for sec in spectrum.sectors))
    U = np.zeros((len(spectrum.eigenvalues),) * 2, dtype=dtype)
    for sec in spectrum.sectors:
        U[np.ix_(sec.rows, sec.positions)] = sec.vectors
    return U


def one_sector_spectrum(eigenvalues: np.ndarray, U: np.ndarray) -> SpectralData:
    """A decomposition with the d x d eigenvector matrix U as its one sector, every index its rows."""
    d = U.shape[0]
    return SpectralData(eigenvalues, (Sector(np.arange(d), np.arange(d), U),))


def held_matrices(obj) -> list[np.ndarray]:
    """Every 2-D array that an object holds, through its fields, tuples and lists."""
    if isinstance(obj, np.ndarray):
        return [obj] if obj.ndim == 2 else []
    if isinstance(obj, (tuple, list)):
        return [m for item in obj for m in held_matrices(item)]
    if hasattr(obj, "__dict__"):
        return [m for value in vars(obj).values() for m in held_matrices(value)]
    return []


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
    for term in H.terms:
        r = term.support[-1] - term.support[0]
        if r == 0:
            continue
        acc = sums.setdefault(r, np.zeros(n + 1))
        for s in term.support:
            acc[s] += term.norm
    return {r: float(acc.max()) for r, acc in sorted(sums.items())}


def verify_power_law(H, atol: float = 1e-9) -> bool:
    """Check the per-pair metadata envelope ||h_Z|| <= J/diam(Z)^alpha, ||h_i|| <= B."""
    meta = H.metadata
    if meta is None:
        raise ValueError("Hamiltonian has no power-law metadata")
    for term in H.terms:
        nrm = term.norm
        diameter = term.support[-1] - term.support[0]
        if diameter == 0:
            if nrm > meta.field + atol:
                return False
        elif nrm > meta.coupling / diameter**meta.alpha + atol:
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


def reduced_density(state: np.ndarray, cut: int) -> np.ndarray:
    M = state.reshape(2**cut, -1)
    return M @ M.conj().T


def bond_tail_weights(state: np.ndarray, D: int) -> list[float]:
    """Squared singular values beyond rank D at every bond, one full SVD per bond."""
    n = int(np.log2(state.size))
    weights = []
    for i in range(1, n):
        svals = np.linalg.svd(state.reshape(2**i, -1), compute_uv=False)
        weights.append(float(np.sum(svals[D:] ** 2)))
    return weights


def chain_sum(lattice, pieces) -> np.ndarray:
    """The d^n x d^n sum of (support, matrix) pieces on the whole chain: `region_sum` over every site."""
    return region_sum(tuple(range(1, lattice.n + 1)), pieces)


def assemble_dense(H) -> np.ndarray:
    """The d^n x d^n matrix of a Hamiltonian, which no package check forms."""
    return chain_sum(H.lattice, H.terms)


def dense_operator(op, internal=None) -> np.ndarray:
    """The d^n x d^n sum of a truncation's pieces (`internal` replacing its blocks), or of a clamp's."""
    if isinstance(op, EffectiveHamiltonian):
        op, internal = op.base, op.internal_eff
    return chain_sum(op.lattice, op.pieces(internal))


def dense_of_sectors(sectors) -> np.ndarray:
    """The matrix of (rows, block) sectors, zero between them."""
    sectors = list(sectors)
    dim = sum(len(rows) for rows, _ in sectors)
    out = np.zeros((dim, dim), dtype=np.result_type(*(block for _, block in sectors)))
    for rows, block in sectors:
        out[np.ix_(rows, rows)] = block
    return out


def dense_filter(filt) -> np.ndarray:
    """A filter's K as one d^n x d^n matrix, from its sector blocks."""
    return dense_of_sectors(filt.blocks)


def chebyshev_matrix_recurrence(filt) -> np.ndarray:
    """A Chebyshev filter re-evaluated by the matrix three-term recurrence.

    Shares nothing with the package's eigenbasis evaluation but the clamp's
    dense matrix and ground energy; the normalization T_m at the window edge
    comes from numpy's Chebyshev series.
    """
    H = dense_operator(filt.eff)
    dim = H.shape[0]
    gap, width = filt.gap_eff, filt.width
    H = H - filt.eff.spectral().ground_energy * np.eye(dim)
    Y = (2.0 * H - (width + gap) * np.eye(dim)) / (width - gap)
    t_prev, t_cur = np.eye(dim), Y
    for _ in range(filt.m - 1):
        t_prev, t_cur = t_cur, 2.0 * Y @ t_cur - t_prev
    num = t_prev if filt.m == 0 else t_cur
    edge = -(width + gap) / (width - gap)
    return num / np.polynomial.chebyshev.chebval(edge, [0.0] * filt.m + [1.0])


def dense_epsilon(filt) -> float:
    """epsilon_K = ||K (1 - |g><g|)|| by one unsplit SVD, g the clamp's ground state from an unsplit `eigh`."""
    g = oracle_ground_vector(dense_operator(filt.eff))
    K = dense_filter(filt)
    return float(np.linalg.svd(K - np.outer(K @ g, g.conj()), compute_uv=False)[0])


def kron_embed(T, sites: tuple[int, ...], op: np.ndarray) -> np.ndarray:
    """Oracle embedding of an operator on contiguous `sites` into the full chain."""
    n = T.lattice.n
    return reduce(np.kron, [np.eye(2 ** (sites[0] - 1)), op, np.eye(2 ** (n - sites[-1]))])


def dense_power_schmidt_rank(T, m: int) -> int:
    """SR(H_t^m) across the block cut from the d^n x d^n power of H_t."""
    powered = np.linalg.matrix_power(dense_operator(T), m)
    return operator_schmidt_rank(powered, T.blocks.cut)


def dense_commutator_norms(T) -> list[float]:
    """||[H_t, h_{s,s+1}]|| of every bond, formed on the full chain."""
    H = dense_operator(T)
    norms = []
    for s, bond in enumerate(T.bonds):
        emb = kron_embed(T, T.bond_support(s), bond)
        norms.append(float(np.linalg.norm(H @ emb - emb @ H, 2)))
    return norms


def dense_filter_lhs(T, s: int, O: np.ndarray, E: float, E_prime: float, spectrum) -> float:
    """||P_{>=E'} O_s P_{<=E}|| from the full rotation V^dag O_s V of `spectrum`."""
    V, w = dense_eigenvectors(spectrum), spectrum.eigenvalues
    rot = V.conj().T @ kron_embed(T, T.blocks.blocks[s], O) @ V
    block = rot[np.ix_(in_window(w, lo=E_prime), in_window(w, hi=E))]
    return float(np.linalg.norm(block, 2)) if block.size else 0.0


def unsplit_hermitian_norm(M: np.ndarray) -> float:
    """Operator 2-norm of a Hermitian matrix from one unsplit `eigvalsh`."""
    return float(np.max(np.abs(np.linalg.eigvalsh(M))))


def x_parity_flipping(rng, x_sites: int, y_sites: int, field: str) -> np.ndarray:
    """Random Hermitian matrix on X then Y qubits whose every entry flips both the X and the Y parity.

    Parities are counted as strings of bits (no shared index arithmetic); the
    X bits are the high bits of an index.
    """
    dim = 2 ** (x_sites + y_sites)
    A = rng.standard_normal((dim, dim))
    if field == "complex":
        A = A + 1j * rng.standard_normal((dim, dim))
    bits = [format(i, f"0{x_sites + y_sites}b") for i in range(dim)]
    px = np.array([b[:x_sites].count("1") % 2 for b in bits])
    py = np.array([b[x_sites:].count("1") % 2 for b in bits])
    flips = (px[:, None] != px[None, :]) & (py[:, None] != py[None, :])
    return (A + A.conj().T) / np.sqrt(dim) * flips


def dense_energy_dist_lhs(T, s: int, spectrum, E_prime: float, E: float) -> float:
    """||P^(s)_{>E'} P_{<=E}|| from the product-basis overlap, by `np.ix_` and an unsplit SVD.

    The overlap is kron(I, U_s, I)^dag V with rows in product order and each
    row labelled by its block-s eigenvalue through a Kronecker product.
    """
    n, sp = T.lattice.n, T.block_spectra()[s]
    block = T.blocks.blocks[s]
    if block:
        U = kron_embed(T, block, dense_eigenvectors(sp))
        labels = np.kron(np.kron(np.ones(2 ** (block[0] - 1)), sp.eigenvalues), np.ones(2 ** (n - block[-1])))
    else:
        U = dense_eigenvectors(sp)[0, 0] * np.eye(2**n)
        labels = np.full(2**n, sp.eigenvalues[0])
    overlap = U.conj().T @ dense_eigenvectors(spectrum)
    sub = overlap[np.ix_(~in_window(labels, hi=E_prime), in_window(spectrum.eigenvalues, hi=E))]
    return float(np.linalg.svd(sub, compute_uv=False)[0]) if sub.size else 0.0


def mp_chebyshev_ratio(m: int, x: float, x0: float):
    """T_m(x) / T_m(x0) in mpmath at the working precision, from cos/cosh (no recurrence)."""
    import mpmath

    def T(y):
        y = mpmath.mpf(float(y))
        if abs(y) <= 1:
            return mpmath.cos(m * mpmath.acos(y))
        return mpmath.sign(y) ** m * mpmath.cosh(m * mpmath.acosh(abs(y)))

    with mpmath.workdps(60):
        return T(x) / T(x0)


def mp_chebyshev_growth(m: int, xs) -> tuple:
    """max over `xs` (all >= 1) of |T_m(x)| / ((2x)^m / 2) and of e^{2m sqrt((x-1)/(x+1))} / (2 |T_m(x)|).

    In mpmath at the working precision, with T_m(x) = cosh(m acosh x) (no recurrence).
    """
    import mpmath

    with mpmath.workdps(60):
        upper, lower = [], []
        for x in xs:
            x = mpmath.mpf(float(x))
            T = mpmath.cosh(m * mpmath.acosh(x))
            upper.append(T / ((2 * x) ** m / 2))
            lower.append(mpmath.exp(2 * m * mpmath.sqrt((x - 1) / (x + 1))) / (2 * T))
        return max(upper), max(lower)


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
