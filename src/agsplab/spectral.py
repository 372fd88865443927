"""Dense Hermitian eigendecomposition and derived spectral objects.

Everything downstream (gaps, ground states, energy windows, filter
operators) consumes the `SpectralData` produced here.  Solvers are dense
LAPACK calls, except that ground states of sparse matrices come from
Lanczos (`eigsh`); near-degenerate ground states are rejected rather than
perturbed.  `top_singular_value` is the one kernel for operator 2-norms of
dense blocks: the largest eigenvalue of the smaller Gram matrix;
`unitary_block_norms` skips it where a corner block of a unitary has norm 1
exactly, and reads every other corner as a view.

`eigendecompose` and `top_singular_value`, like `hamiltonian.spectral_norm`
and the operator Schmidt SVD, solve on the spin-flip parity sectors that
`hamiltonian.parity_sectors` finds by reading the matrix: rows and columns
are split by the popcount parity of their index, and the split is taken
only when both cross blocks are exactly zero.  It is then a permutation
similarity, so the spectrum is exactly the union of the two sectors', at a
quarter of the flops of one solve.  Both families conserve prod Z, so on
the reference config H, H_t, every block h_s, H_eff and delta split; a split
eigendecomposition has exact zeros, so the clamps, the filters K and K's
Schmidt reshape split exactly too.  That reshape splits once more by the
swap of its pair indices, because K is exactly symmetric
(`agsp.operator_schmidt_rank`).  A clamp that cuts nothing is T and takes
`T.spectral()`, so it is never solved (`effective.build_effective`).  The
Assumption-1 interactions V_{X,Y}
split further: `hamiltonian.interaction_norm` solves each on the two
D/4 x D/4 blocks that flip both the X and the Y parity, through
`top_singular_value`, where the matrix has only those blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .hamiltonian import parity_sectors

DEGENERACY_THRESHOLD = 1e-10
# Eigenvalues this close to an energy threshold count as lying on it, so that
# no record depends on the last bits of an eigensolver's rounding.
ENERGY_TIE_TOL = 1e-9


class DegenerateGroundStateError(ValueError):
    """Ground-state gap below threshold; instance violates the non-degeneracy assumption."""


@dataclass
class SpectralData:
    """Full eigendecomposition M = U diag(w) U^dag with w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def gap(self) -> float:
        return float(self.eigenvalues[1] - self.eigenvalues[0])

    @property
    def norm(self) -> float:
        """Operator 2-norm max(|w_0|, |w_-1|) of the decomposed matrix."""
        return max(abs(float(self.eigenvalues[0])), abs(float(self.eigenvalues[-1])))

    @property
    def width(self) -> float:
        """Spectral width above the ground energy."""
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    def apply_function(self, f) -> np.ndarray:
        """Matrix function f(M) evaluated in the eigenbasis."""
        vals = np.asarray([f(w) for w in self.eigenvalues])
        return (self.eigenvectors * vals) @ self.eigenvectors.conj().T


@dataclass
class GroundStateInfo:
    energy: float
    state: np.ndarray
    gap: float


def eigendecompose(M: np.ndarray) -> SpectralData:
    """Eigendecompose a Hermitian matrix.

    Prefers the symmetric real path (the built families are real symmetric).
    Hermiticity is not checked: `eigh` reads the lower triangle.  A matrix
    that `parity_sectors` splits is solved per sector, and each sector's
    eigenvectors are written straight into their ascending-order columns of
    one output array (zero elsewhere).  A non-finite entry raises
    `LinAlgError`.
    """
    if np.iscomplexobj(M) and np.max(np.abs(M.imag)) < 1e-14:
        M = M.real
    sectors = parity_sectors(M)
    if len(sectors) == 1:
        w, U = np.linalg.eigh(M)
        return SpectralData(eigenvalues=w, eigenvectors=U)
    solved = [(rows, *np.linalg.eigh(block)) for rows, _, block in sectors]
    w = np.concatenate([w_s for _, w_s, _ in solved])
    order = np.argsort(w, kind="stable")
    # column[j]: ascending position of the j-th sector eigenvalue
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    U = np.zeros(M.shape, dtype=np.result_type(*(U_s for _, _, U_s in solved)))
    start = 0
    for rows, w_s, U_s in solved:
        U[np.ix_(rows, column[start : start + len(w_s)])] = U_s
        start += len(w_s)
    return SpectralData(eigenvalues=w[order], eigenvectors=U)


def top_singular_value(A: np.ndarray) -> float:
    """Largest singular value (operator 2-norm) of a dense matrix.

    sqrt of the top `eigvalsh` eigenvalue of the smaller Gram matrix, A^dag A
    or A A^dag, per parity sector of A (`parity_sectors`); the relative error
    is O(machine epsilon) for the top value.  Full `eigvalsh` on purpose: the
    LAPACK subset drivers (evr, evx) raised errors on some of these Gram
    matrices.  Empty input gives 0.0; non-finite input, or a Gram matrix that
    overflows, gives NaN.
    """
    if A.size == 0:
        return 0.0
    if not np.isfinite(A).all():
        return float("nan")
    return float(np.max([_gram_top(block) for _, _, block in parity_sectors(A)]))


def _gram_top(A: np.ndarray) -> float:
    gram = A.conj().T @ A if A.shape[0] >= A.shape[1] else A @ A.conj().T
    if not np.isfinite(gram).all():  # overflow
        return float("nan")
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def unitary_block_norms(W: np.ndarray, corners) -> list[float]:
    """2-norms of the corner blocks W[r:, :c] of a unitary W, one per (r, c) in `corners`.

    A block is the product P W Q of two coordinate projectors with W, so its
    norm is ||P (W Q W^dag)||, a norm of a product of two projectors.  When
    their ranks (dim - r) + c sum past dim their ranges intersect and the
    norm is 1 exactly (the dimension count of Halmos' two-subspace theory);
    otherwise `top_singular_value` of the block, read as a view.  W is
    checked for finiteness once: a non-finite W gives NaN for every corner.
    """
    if not np.isfinite(W).all():
        return [float("nan")] * len(corners)
    dim = W.shape[0]
    return [1.0 if (dim - r) + c > dim else top_singular_value(W[r:, :c]) for r, c in corners]


def ground_state(M: np.ndarray | SpectralData | scipy.sparse.sparray) -> GroundStateInfo:
    """Lowest eigenpair and gap; rejects gaps at or below `DEGENERACY_THRESHOLD`.

    `M` is a `SpectralData`, a dense array (`eigendecompose`) or a scipy
    sparse matrix (Lanczos, `eigsh`).  The Lanczos start vector is a
    fixed-seed Gaussian, which overlaps every eigenvector.  A structured one
    can miss a whole symmetry sector, and with it the gap or a degeneracy;
    the constant vector is itself an eigenvector of the Ising chain at zero
    field.  Non-convergence raises `ArpackNoConvergence`.
    """
    if scipy.sparse.issparse(M) and M.shape[0] > 2:  # ARPACK needs k=2 < dim
        v0 = np.random.default_rng(0).standard_normal(M.shape[0])
        w, v = scipy.sparse.linalg.eigsh(M, k=2, which="SA", tol=0, v0=v0)
        order = np.argsort(w)
        w, vec = w[order], v[:, order[0]]
    else:
        if scipy.sparse.issparse(M):
            M = M.toarray()
        sp = M if isinstance(M, SpectralData) else eigendecompose(M)
        w, vec = sp.eigenvalues[:2], sp.eigenvectors[:, 0]
    gap = float(w[1] - w[0])
    if gap <= DEGENERACY_THRESHOLD:
        raise DegenerateGroundStateError(
            f"gap {gap:g} at or below degeneracy threshold {DEGENERACY_THRESHOLD:g}"
        )
    vec = vec / np.linalg.norm(vec)
    return GroundStateInfo(energy=float(w[0]), state=vec, gap=gap)


def in_window(w: np.ndarray, lo: float = -np.inf, hi: float = np.inf) -> np.ndarray:
    """Mask of the energies in the closed window lo - tol <= w <= hi + tol.

    tol is `ENERGY_TIE_TOL`; "above x" is the complement of `in_window(w, hi=x)`.
    """
    return (w >= lo - ENERGY_TIE_TOL) & (w <= hi + ENERGY_TIE_TOL)
