"""The one module that solves: eigensolves, sector splits, 2-norms and ranks.

Everything downstream (gaps, ground states, energy windows, filter
operators) consumes the `SpectralData` produced here.  Solvers are dense
LAPACK calls, except that ground states of sparse matrices come from
Lanczos (`eigsh`); near-degenerate ground states are rejected rather than
perturbed.  No other module of the package calls an eigensolver or splits
a matrix into sectors, and this one imports none of them.

`top_singular_value` is the one kernel for operator 2-norms of dense
blocks, and the matrix decides its path: a square sector block equal to its
conjugate transpose bit for bit takes max |eigvalsh|, every other block the
largest eigenvalue of its smaller Gram matrix.  `unitary_block_norms` skips
it where a corner block of a unitary has norm 1 exactly, and reads every
other corner as a view.  `numerical_rank` is the one rule that turns
singular values into a rank, for states and operators alike.

`eigendecompose`, `top_singular_value` and `operator_schmidt_rank` solve on
the spin-flip parity sectors that `parity_sectors` finds by reading the
matrix: rows and columns are split by the popcount parity of their index,
and the split is taken only when both cross blocks are exactly zero.  It is
then a permutation similarity, so the spectrum is exactly the union of the
two sectors', at a quarter of the flops of one solve.  Both families
conserve prod Z, so on the reference config H, H_t, every block h_s, H_eff
and delta split; a split eigendecomposition has exact zeros, so the clamps,
the filters K and K's Schmidt reshape split exactly too.  That reshape
splits once more by the swap of its pair indices, because K is exactly
symmetric (`operator_schmidt_rank`).  The Assumption-1 interactions V_{X,Y}
split further: `interaction_norm` solves each on the two D/4 x D/4 blocks
that flip both the X and the Y parity, through `top_singular_value`, where
the matrix has only those blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

DEGENERACY_THRESHOLD = 1e-10
# Eigenvalues this close to an energy threshold count as lying on it, so that
# no record depends on the last bits of an eigensolver's rounding.
ENERGY_TIE_TOL = 1e-9

SR_REL_TOL = 1e-10
SR_ABS_TOL = 1e-12


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


@lru_cache(maxsize=None)
def _parity_halves(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices 0 .. dim-1 of even and of odd popcount."""
    idx = np.arange(dim)
    odd = np.zeros(dim, dtype=bool)
    for bit in range(dim.bit_length()):
        odd ^= ((idx >> bit) & 1).astype(bool)
    halves = np.flatnonzero(~odd), np.flatnonzero(odd)
    for half in halves:
        half.setflags(write=False)  # shared by every caller through the cache
    return halves


def parity_sectors(matrix: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Diagonal blocks of a matrix over the popcount parity of its indices.

    Returns [(rows, cols, block)] with block = matrix[rows][:, cols].  When
    both dimensions are powers of two (at least 2) and the two diagonal
    blocks (even rows x even columns, odd rows x odd columns) hold every
    nonzero entry, so that both cross blocks are exactly zero, these are the
    even and the odd sector; otherwise the one entry holds the whole matrix.
    The cross blocks are never copied: the nonzero counts decide.  A split
    is a permutation similarity (an equivalence for rectangular input), so
    eigenvalues and singular values are exactly the union of the sectors'.
    On the computational basis of qubits the popcount parity is the
    eigenvalue of prod Z, so every operator that commutes with prod Z (the
    Ising and fermion families, their blocks, clamps and filters, and the
    operator-Schmidt reshape of such a filter) splits; a single nonzero cross
    entry, rounding noise included, does not.
    A non-finite entry raises `LinAlgError`: LAPACK may return a finite
    value for it (a NaN on the diagonal can vanish from `eigvalsh`).
    """
    if not np.isfinite(matrix).all():
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    shape = matrix.shape
    if all(m >= 2 and m & (m - 1) == 0 for m in shape):
        (even_r, odd_r), (even_c, odd_c) = _parity_halves(shape[0]), _parity_halves(shape[1])
        sectors = [(r, c, matrix[np.ix_(r, c)]) for r, c in ((even_r, even_c), (odd_r, odd_c))]
        if sum(np.count_nonzero(block) for _, _, block in sectors) == np.count_nonzero(matrix):
            return sectors
    return [(np.arange(shape[0]), np.arange(shape[1]), matrix)]


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

    Solved per parity sector of A (`parity_sectors`), and each sector block
    decides its path.  A square block equal to its conjugate transpose bit
    for bit gives max |eigvalsh|.  Any other block gives sqrt of the top
    `eigvalsh` eigenvalue of its smaller Gram matrix, A^dag A or A A^dag;
    the relative error is O(machine epsilon) for the top value.  Full
    `eigvalsh` on purpose: the LAPACK subset drivers (evr, evx) raised
    errors on some of these Gram matrices.  Empty input gives 0.0;
    non-finite input, or a Gram matrix that overflows, gives NaN.
    """
    if A.size == 0:
        return 0.0
    if not np.isfinite(A).all():
        return float("nan")
    return float(np.max([_block_top(block) for _, _, block in parity_sectors(A)]))


def _block_top(A: np.ndarray) -> float:
    if A.shape[0] == A.shape[1] and np.array_equal(A, A.conj().T):
        return float(np.max(np.abs(np.linalg.eigvalsh(A))))
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


def interaction_norm(V: np.ndarray, x_sites: int) -> float:
    """Operator 2-norm of a Hermitian V on the sites of X (the high bits, |X| = `x_sites`), then Y.

    If every term flips an odd number of X sites and keeps the total parity,
    each total-parity sector of V, ordered by X parity, is [[0, B], [B^dag, 0]]
    with eigenvalues exactly +-sigma(B): the norm is the larger
    `top_singular_value` of the two D/4 x D/4 blocks B.  As in
    `parity_sectors`, the matrix decides: the adjoint blocks of a Hermitian V
    hold as many nonzero entries as the B blocks, so the split is taken only
    when V has exactly twice the nonzero entries of the two B (none outside
    the four blocks that flip both parities), else `top_singular_value` of
    V.  The adjoints are never copied.  A non-finite entry raises
    `LinAlgError` before either path is taken.
    """
    if not np.isfinite(V).all():
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    dx, dy = 2**x_sites, V.shape[0] >> x_sites
    if dx >= 2 and dy >= 2:
        (xe, xo), (ye, yo) = _parity_halves(dx), _parity_halves(dy)
        V4, q = V.reshape(dx, dy, dx, dy), V.shape[0] // 4
        # B of the even and of the odd total-parity sector.
        Bs = [V4[np.ix_(*idx)].reshape(q, q) for idx in ((xo, yo, xe, ye), (xo, ye, xe, yo))]
        if 2 * sum(map(np.count_nonzero, Bs)) == np.count_nonzero(V):
            return max(top_singular_value(B) for B in Bs)
    return top_singular_value(V)


def numerical_rank(svals: np.ndarray) -> int:
    """Number of singular values above max(1e-10 * sigma_max, 1e-12): the one rank rule here.

    Undercounting is safe because every rank bound checked here is one-sided.
    """
    return int(np.sum(svals > max(SR_REL_TOL * np.max(svals, initial=0.0), SR_ABS_TOL)))


def operator_schmidt_rank(O: np.ndarray, cut: int) -> int:
    """Numerical Schmidt rank of an operator across a contiguous cut.

    Reshapes O across the bipartition ((row_L, col_L) x (row_R, col_R)) and
    counts its singular values by `numerical_rank`.  The reshape keeps
    popcount parity (popcount(i_L d_L + j_L) = popcount(i_L) + popcount(j_L)
    for d_L = 2^cut), so the SVD runs per `parity_sectors` sector of the
    rearranged matrix.  A real O that is exactly symmetric (read by
    `np.array_equal(O, O.T)`, as every real filter K is) gives a reshape R
    with R[(j_L, i_L), (j_R, i_R)] = R[(i_L, j_L), (i_R, j_R)]: it maps
    swap-symmetric pairs to swap-symmetric ones and antisymmetric to
    antisymmetric, so each sector splits further into those two blocks
    (`_swap_halves`, Nielsen et al., PRA 67, 052301).  Both splits are
    orthogonal changes of basis: the singular values are the union of the
    blocks', at n = 8 four blocks of 72/56/64/64 in place of 2 x 128.  A
    complex O is never swap-split.
    """
    dim = O.shape[0]
    dL = 2**cut
    if dim % dL != 0:
        raise ValueError(f"cut at {cut} sites does not divide dimension {dim}")
    dR = dim // dL
    rearranged = (
        O.reshape(dL, dR, dL, dR).transpose(0, 2, 1, 3).reshape(dL * dL, dR * dR)
    )
    sectors = parity_sectors(rearranged)  # also rejects a non-finite entry
    if np.isrealobj(O) and np.array_equal(O, O.T):
        blocks = [half for rows, cols, b in sectors for half in _swap_halves(b, rows, cols, dL, dR)]
    else:
        blocks = [b for _, _, b in sectors]
    return numerical_rank(np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks]))


def _swap_halves(block: np.ndarray, rows: np.ndarray, cols: np.ndarray, dL: int, dR: int) -> list[np.ndarray]:
    """The swap-symmetric and -antisymmetric blocks of a swap-invariant Schmidt-reshape block.

    `rows` (`cols`) are the flat pair indices i d_L + j (k d_R + l) of the
    block's rows (columns), a set closed under the swap (i, j) -> (j, i).  In
    the orthonormal bases e_ii, (e_ij +- e_ji)/sqrt(2) (i < j) the block is
    [[B_dd, sqrt2 B_du], [sqrt2 B_ud, B_uu + B_ul]] on the symmetric pairs and
    B_uu - B_ul on the antisymmetric ones; d, u and l index the pairs with
    i = j, i < j and the mirror j d + i of each i < j.
    """
    r_diag, r_up, r_mirror = _pair_classes(rows, dL)
    c_diag, c_up, c_mirror = _pair_classes(cols, dR)
    up, mirror = block[np.ix_(r_up, c_up)], block[np.ix_(r_up, c_mirror)]
    root2 = math.sqrt(2.0)
    symmetric = np.block(
        [
            [block[np.ix_(r_diag, c_diag)], root2 * block[np.ix_(r_diag, c_up)]],
            [root2 * block[np.ix_(r_up, c_diag)], up + mirror],
        ]
    )
    return [symmetric, up - mirror]


def _pair_classes(index: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions in `index` (flat pairs i d + j) of the pairs i = j, the pairs i < j and their mirrors."""
    i, j = np.divmod(index, d)
    position = np.empty(d * d, dtype=int)
    position[index] = np.arange(len(index))
    up = i < j
    return np.flatnonzero(i == j), np.flatnonzero(up), position[j[up] * d + i[up]]


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


def align_phase(reference: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Multiply `state` by the unit phase making <reference|state> real >= 0."""
    overlap = np.vdot(reference, state)
    if abs(overlap) < 1e-300:
        return state
    return state * (overlap.conjugate() / abs(overlap))
