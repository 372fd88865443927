"""Dense Hermitian eigendecomposition and derived spectral objects.

Everything downstream (gaps, ground states, interval projectors, filter
operators) consumes the `SpectralData` produced here.  All solvers are dense
LAPACK calls; near-degenerate ground states are rejected rather than
perturbed.  `top_singular_value` is the one kernel for operator 2-norms of
dense blocks: the largest eigenvalue of the smaller Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .hamiltonian import is_hermitian

DEGENERACY_THRESHOLD = 1e-10


class DegenerateGroundStateError(ValueError):
    """Ground-state gap below threshold; instance violates the non-degeneracy assumption."""


@dataclass
class SpectralData:
    """Full eigendecomposition M = U diag(w) U^dag with w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source_dim: int

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

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T

    def apply_function(self, f) -> np.ndarray:
        """Matrix function f(M) evaluated in the eigenbasis."""
        vals = np.asarray([f(w) for w in self.eigenvalues])
        return (self.eigenvectors * vals) @ self.eigenvectors.conj().T


@dataclass
class GroundStateInfo:
    energy: float
    state: np.ndarray
    gap: float


def eigendecompose(M: np.ndarray, check: bool = True) -> SpectralData:
    """Eigendecompose a Hermitian matrix.

    Prefers the symmetric real path (the built families are real symmetric);
    raises on non-Hermitian input.
    """
    if check and not is_hermitian(M, atol=1e-10 * (1.0 + np.max(np.abs(M)))):
        raise ValueError("matrix is not Hermitian")
    if np.iscomplexobj(M) and np.max(np.abs(M.imag)) < 1e-14:
        M = M.real
    w, U = np.linalg.eigh(M)
    return SpectralData(eigenvalues=w, eigenvectors=U, source_dim=M.shape[0])


def eigenvalues_only(M: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(M) and np.max(np.abs(M.imag)) < 1e-14:
        M = M.real
    return np.linalg.eigvalsh(M)


def top_singular_value(A: np.ndarray) -> float:
    """Largest singular value (operator 2-norm) of a dense matrix.

    sqrt of the top `eigvalsh` eigenvalue of the smaller Gram matrix, A^dag A
    or A A^dag; the relative error is O(machine epsilon) for the top value.
    Full `eigvalsh` on purpose: the LAPACK subset drivers (evr, evx) raised
    errors on some of these Gram matrices.  Empty input gives 0.0;
    non-finite input, or a Gram matrix that overflows, gives NaN.
    """
    if A.size == 0:
        return 0.0
    gram = A.conj().T @ A if A.shape[0] >= A.shape[1] else A @ A.conj().T
    # A non-finite entry of A always reaches the Gram diagonal (|a|^2 terms).
    if not np.isfinite(gram).all():
        return float("nan")
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def lowest_eigenpairs(M: np.ndarray, count: int = 2, destroy_input: bool = False):
    """Lowest `count` eigenpairs without forming the full eigenvector set.

    With `destroy_input`, a symmetric real matrix is consumed in place
    (M.T is an F-contiguous view equal to M), which avoids the workspace
    copy that matters at the 16384-dim ceiling.
    """
    if np.iscomplexobj(M) and np.max(np.abs(M.imag)) < 1e-14:
        M = M.real
    overwrite = False
    if destroy_input and not np.iscomplexobj(M):
        if M.flags["C_CONTIGUOUS"]:
            M = M.T
        overwrite = M.flags["F_CONTIGUOUS"]
    w, v = scipy.linalg.eigh(
        M,
        subset_by_index=(0, count - 1),
        driver="evr",
        overwrite_a=overwrite,
        check_finite=False,
    )
    return w, v


def ground_state(
    M: np.ndarray | SpectralData,
    threshold: float = DEGENERACY_THRESHOLD,
) -> GroundStateInfo:
    """Lowest eigenpair and gap; rejects (near-)degenerate ground spaces."""
    if isinstance(M, SpectralData):
        w = M.eigenvalues[:2]
        vec = M.eigenvectors[:, 0]
    else:
        w, v = lowest_eigenpairs(M, count=2)
        vec = v[:, 0]
    gap = float(w[1] - w[0])
    if gap <= threshold:
        raise DegenerateGroundStateError(
            f"gap {gap:g} at or below degeneracy threshold {threshold:g}"
        )
    vec = vec / np.linalg.norm(vec)
    return GroundStateInfo(energy=float(w[0]), state=vec, gap=gap)


def sector_ground_state(
    M: np.ndarray,
    sectors,
    threshold: float = DEGENERACY_THRESHOLD,
) -> GroundStateInfo:
    """Ground state of a matrix that is block-diagonal over given index sets.

    Each sector (an index array) is diagonalized independently
    (dense LAPACK on the submatrix); energies are merged across sectors, so
    the returned gap is the true global gap.  The caller is responsible for
    the sectors actually being invariant subspaces.
    """
    best = []  # (energy, sector position, local vector)
    for pos, sector in enumerate(sectors):
        sub = M[np.ix_(sector, sector)]
        count = min(2, sub.shape[0])
        w, v = lowest_eigenpairs(sub, count=count, destroy_input=True)
        del sub
        for j in range(count):
            best.append((float(w[j]), pos, v[:, j]))
    best.sort(key=lambda item: item[0])
    gap = best[1][0] - best[0][0]
    if gap <= threshold:
        raise DegenerateGroundStateError(
            f"gap {gap:g} at or below degeneracy threshold {threshold:g}"
        )
    energy, pos, local = best[0]
    state = np.zeros(M.shape[0], dtype=local.dtype)
    state[np.asarray(sectors[pos])] = local / np.linalg.norm(local)
    return GroundStateInfo(energy=energy, state=state, gap=gap)


def interval_projector(
    S: SpectralData,
    lo: float = -np.inf,
    hi: float = np.inf,
    include_lo: bool = True,
    include_hi: bool = True,
) -> np.ndarray:
    """Projector onto the eigenspaces with eigenvalue in the given interval."""
    w = S.eigenvalues
    mask = (w >= lo) if include_lo else (w > lo)
    mask &= (w <= hi) if include_hi else (w < hi)
    if not mask.any():
        return np.zeros((S.source_dim, S.source_dim), dtype=S.eigenvectors.dtype)
    V = S.eigenvectors[:, mask]
    return V @ V.conj().T


def proj_leq(S: SpectralData, x: float) -> np.ndarray:
    return interval_projector(S, hi=x, include_hi=True)


def proj_gt(S: SpectralData, x: float) -> np.ndarray:
    return interval_projector(S, lo=x, include_lo=False)
