"""The one module that solves: eigensolves, 2-norms and ranks, per parity sector.

Everything downstream consumes the `SpectralData` produced here.  Dense
solves are LAPACK calls, sparse ground states Lanczos (`ground_state`); a
near-degenerate ground state is rejected; a sum of bit flips, its exact
Walsh-Hadamard spectrum (`flip_sum_norm`).  No other module calls an
eigensolver, and this one imports none of the package's.  Both families
conserve prod Z, whose eigenvalue on a basis index is its popcount parity,
so `hamiltonian` writes each operator straight into its even and odd
sectors (index r at r >> 1), and `eigendecompose`, `top_singular_value`
and `operator_schmidt_rank` take those (rows, block) sectors as they are.
A reader holding one sector's block (a corner, an image) passes it to
`top_singular_value` as a one-block list.  Only a dense matrix handed in
whole (a block Hamiltonian or operator, a test's) is split by reading it
into the same (rows, block) format (`parity_sectors`).  Each spectrum
keeps its sectors' eigenvectors apart (`Sector`), and `numerical_rank` is
the one rule that turns singular values into a rank.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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


@dataclass(frozen=True, eq=False)
class Sector:
    """One sector of a decomposition: eigenvectors on the basis `rows`, at ascending `positions` of the spectrum.

    `vectors` is (len(rows), len(positions)); column j is the eigenvector of
    level `positions[j]`, zero off `rows`.
    """

    rows: np.ndarray
    positions: np.ndarray
    vectors: np.ndarray

    def columns(self, positions) -> np.ndarray:
        """The sector's own columns among the ascending `positions`, on its rows.

        A contiguous run of columns (a prefix or a suffix of the levels) is
        returned as a read-only view.
        """
        take = _members(self.positions, np.asarray(positions, dtype=np.intp))
        if len(take) and take[-1] - take[0] + 1 == len(take):
            view = self.vectors[:, take[0] : take[-1] + 1]
            view.flags.writeable = False
            return view
        return self.vectors[:, take]


def _members(levels: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Indices into the ascending `levels` of those that are in the ascending `positions`."""
    at = np.searchsorted(positions, levels)
    found = at < len(positions)
    found[found] = positions[at[found]] == levels[found]
    return np.flatnonzero(found)


@dataclass
class SpectralData:
    """Eigendecomposition M = sum_s U_s diag(w_s) U_s^dag with the levels w ascending.

    `sectors` holds each parity sector's eigenvectors as its own block
    (`Sector`); the d x d eigenvector matrix, half zeros when M splits, is
    never formed.
    """

    eigenvalues: np.ndarray
    sectors: tuple[Sector, ...]

    @property
    def dim(self) -> int:
        return sum(len(sec.rows) for sec in self.sectors)

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

    def columns(self, positions) -> np.ndarray:
        """Dense eigenvectors of the levels at the ascending `positions`, one full-length column each.

        The one reader of a few columns: ground vectors, the lowest pairs and
        the small block spectra.
        """
        positions = np.asarray(positions, dtype=np.intp)
        out = np.zeros((self.dim, len(positions)), dtype=np.result_type(*(sec.vectors for sec in self.sectors)))
        for sec in self.sectors:
            take = _members(sec.positions, positions)
            out[np.ix_(sec.rows, np.searchsorted(positions, sec.positions[take]))] = sec.vectors[:, take]
        return out

    def parities(self) -> np.ndarray:
        """Per level (ascending), the popcount parity of its sector's rows; -1 where they hold both parities."""
        out = np.empty(len(self.eigenvalues), dtype=np.int8)
        parity = popcount_parity(self.dim)
        for sec in self.sectors:
            p = parity[sec.rows]
            out[sec.positions] = p[0] if np.all(p == p[0]) else -1
        return out

    def function_blocks(self, values: np.ndarray):
        """Per sector, its rows and its block (U_s diag(values_s)) U_s^dag of U diag(values) U^dag.

        `values` holds one value per level, in ascending order.  The blocks
        are yielded one at a time; every other entry of the matrix is zero.
        """
        for sec in self.sectors:
            yield sec.rows, (sec.vectors * values[sec.positions]) @ sec.vectors.conj().T

    def matrix_of(self, values: np.ndarray) -> np.ndarray:
        """U diag(values) U^dag, one value per ascending level, formed per sector."""
        dtype = np.result_type(values, *(sec.vectors for sec in self.sectors))
        out = np.zeros((self.dim, self.dim), dtype=dtype)
        for rows, block in self.function_blocks(values):
            out[np.ix_(rows, rows)] = block
        return out

    def apply_function(self, f) -> np.ndarray:
        """Matrix function f(M) evaluated in the eigenbasis."""
        return self.matrix_of(np.asarray([f(w) for w in self.eigenvalues]))

    def images(self, positions, apply, labels: np.ndarray | None = None) -> list[tuple[Sector, np.ndarray, np.ndarray]]:
        """apply(V) for the eigenvectors V of the levels at the ascending `positions`, per sector.

        Each sector's columns go in as full-length columns, zero off its rows,
        and only that sector's rows of the image come back: the output rows
        whose parity in `labels` is the sector's (default: the popcount
        parity of the output index, so the sector's own rows).  Returns
        [(sector, rows read, image rows)], the image's columns the sector's
        levels among `positions`.  As in `parity_sectors`, the matrix decides:
        the split is kept only when every image is exactly zero on the rows
        not read (a NaN there counts as nonzero), so that an operator keeping
        parity gives norms that are the max over the sectors'.  Otherwise, or
        for a spectrum that is one sector, the one entry holds the whole
        image of the dense columns, all rows read.
        """
        positions = np.asarray(positions, dtype=np.intp)
        if len(self.sectors) > 1:
            parity = popcount_parity(self.dim)
            labels = parity if labels is None else labels
            parts = []
            for sec in self.sectors:
                cols = sec.columns(positions)
                X = np.zeros((self.dim, cols.shape[1]), dtype=cols.dtype)
                X[sec.rows] = cols
                Y = apply(X)
                del X
                read = labels == parity[sec.rows[0]]
                if np.any(Y, where=~read[:, None]):
                    break
                parts.append((sec, np.flatnonzero(read), Y[read]))
            else:
                return parts
            levels = np.arange(len(self.eigenvalues))
            whole = Sector(np.arange(self.dim), levels, self.columns(levels))
        else:
            [whole] = self.sectors
        Y = apply(whole.columns(positions))
        return [(whole, np.arange(Y.shape[0]), Y)]


@dataclass
class GroundStateInfo:
    energy: float
    state: np.ndarray
    gap: float


@lru_cache(maxsize=None)
def popcount_parity(dim: int) -> np.ndarray:
    """Popcount parity (0 or 1) of each index 0 .. dim-1."""
    idx = np.arange(dim)
    odd = np.zeros(dim, dtype=np.int8)
    for bit in range(dim.bit_length()):
        odd ^= ((idx >> bit) & 1).astype(np.int8)
    odd.setflags(write=False)  # shared by every caller through the cache
    return odd


@lru_cache(maxsize=None)
def parity_halves(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices 0 .. dim-1 of even and of odd popcount."""
    odd = popcount_parity(dim)
    halves = np.flatnonzero(odd == 0), np.flatnonzero(odd)
    for half in halves:
        half.setflags(write=False)  # shared by every caller through the cache
    return halves


def parity_sectors(matrix: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Diagonal blocks of a matrix over the popcount parity of its indices, found by reading it.

    Returns (rows, block) sectors with block = matrix[rows][:, rows], the
    format of `hamiltonian.embed_sectors`: the even and the odd sector when
    the matrix is square, its dimension a power of two (at least 2), and the
    nonzero counts say both cross blocks are exactly zero (they are never
    copied); otherwise the whole matrix, any rectangular one included.  A
    split is a permutation similarity, so eigenvalues and singular values
    are exactly the union of the sectors'.  A single nonzero cross entry,
    rounding noise included, keeps the matrix whole.  A non-finite entry
    raises `LinAlgError`: LAPACK may return a finite value for it (a NaN on
    the diagonal can vanish from `eigvalsh`).
    """
    if not np.isfinite(matrix).all():
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    dim = matrix.shape[0]
    if matrix.shape == (dim, dim) and dim >= 2 and dim & (dim - 1) == 0:
        sectors = [(rows, matrix[np.ix_(rows, rows)]) for rows in parity_halves(dim)]
        if sum(np.count_nonzero(block) for _, block in sectors) == np.count_nonzero(matrix):
            return sectors
    return [(np.arange(dim), matrix)]


def eigendecompose(M) -> SpectralData:
    """Eigendecompose a Hermitian matrix, dense or as its sectors.

    `M` is a dense array (`parity_sectors`) or an iterable of (rows, block)
    sectors (`hamiltonian.embed_sectors`), each solved on its own (as real
    below 1e-14 imaginary part; `eigh` reads the lower triangle) and kept as
    its own `Sector`.  A non-finite entry raises `LinAlgError`: LAPACK may
    return a finite value for it (`parity_sectors`).  So does a non-finite
    level from finite entries (the -inf levels of Ising at J = 1e308).
    """
    solved = []
    for rows, block in parity_sectors(M) if isinstance(M, np.ndarray) else M:
        if not np.isfinite(block).all():
            raise np.linalg.LinAlgError("matrix has a non-finite entry")
        if np.iscomplexobj(block) and np.max(np.abs(block.imag)) < 1e-14:
            block = block.real
        solved.append((rows, *np.linalg.eigh(block)))
    w = np.concatenate([w_s for _, w_s, _ in solved])
    if not np.isfinite(w).all():
        raise np.linalg.LinAlgError("eigensolve returned a non-finite eigenvalue")
    order = np.argsort(w, kind="stable")
    position = np.empty_like(order)  # position[j]: ascending position of the j-th sector level
    position[order] = np.arange(len(order))
    sectors, start = [], 0
    for rows, w_s, U_s in solved:
        sectors.append(Sector(rows, position[start : start + len(w_s)], U_s))
        start += len(w_s)
    return SpectralData(eigenvalues=w[order], sectors=tuple(sectors))


def top_singular_value(A) -> float:
    """Largest singular value (operator 2-norm) of a dense matrix, or the largest over a list of blocks.

    A dense A is solved per `parity_sectors` block; a list holds the blocks
    of a matrix zero elsewhere up to a permutation (sectors, B blocks, one
    held block), each solved as it is.  A square block equal to its conjugate
    transpose bit for bit gives max |eigvalsh|, any other sqrt of the top
    `eigvalsh` eigenvalue of its smaller Gram matrix (the LAPACK subset
    drivers raised errors on some).  Empty input gives 0.0; non-finite
    input, or a Gram overflow, NaN.
    """
    blocks = [b for b in ([A] if isinstance(A, np.ndarray) else A) if b.size]
    if not blocks:
        return 0.0
    if not all(np.isfinite(b).all() for b in blocks):
        return float("nan")
    if isinstance(A, np.ndarray):
        blocks = [block for _, block in parity_sectors(A)]
    return float(np.max([_block_top(block) for block in blocks]))


def _block_top(A: np.ndarray) -> float:
    if A.shape[0] == A.shape[1] and np.array_equal(A, A.conj().T):
        return float(np.max(np.abs(np.linalg.eigvalsh(A))))
    gram = A.conj().T @ A if A.shape[0] >= A.shape[1] else A @ A.conj().T
    if not np.isfinite(gram).all():  # overflow
        return float("nan")
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def flip_sum_norm(n: int, flips) -> float:
    """Operator 2-norm of sum_t c_t X^(mask_t) on n qubits, from its exact spectrum.

    `flips` lists (mask, c) pairs, c X on each site of mask.  They commute,
    and Walsh-Hadamard state z has eigenvalue sum_t c_t (-1)^popcount(z & mask_t):
    the norm is the max of its |.| over z.  No pairs give 0.0, a non-finite sum NaN.
    """
    masks, coeffs = np.array([m for m, _ in flips], dtype=np.int64), np.array([c for _, c in flips], dtype=float)
    signs = 1.0 - 2.0 * popcount_parity(2**n)[np.arange(2**n)[:, None] & masks]
    top = float(np.max(np.abs(signs @ coeffs), initial=0.0))
    return top if math.isfinite(top) else float("nan")


def unitary_block_norms(W: np.ndarray, corners) -> list[float]:
    """2-norms of the corner blocks W[r:, :c] of a W with orthonormal columns, one per (r, c) in `corners`.

    W is a unitary or its leading columns (one parity sector of one, in
    `effective._corner_norms`), with dim = W.shape[0] rows.  A block is the
    product P W Q of two coordinate projectors with W, so its norm is
    ||P (W Q W^dag)||, a norm of a product of two projectors.  When their
    ranks (dim - r) + c sum past dim their ranges intersect and the norm is
    1 exactly (the dimension count of Halmos' two-subspace theory);
    otherwise `top_singular_value` of the block, read as a view.  W is
    checked for finiteness once: a non-finite W gives NaN for every corner.
    """
    if not np.isfinite(W).all():
        return [float("nan")] * len(corners)
    dim = W.shape[0]
    return [1.0 if (dim - r) + c > dim else top_singular_value([W[r:, :c]]) for r, c in corners]


def numerical_rank(svals: np.ndarray) -> int:
    """Number of singular values above max(1e-10 * sigma_max, 1e-12): the one rank rule here.

    Undercounting is safe because every rank bound checked here is one-sided.
    """
    return int(np.sum(svals > max(SR_REL_TOL * np.max(svals, initial=0.0), SR_ABS_TOL)))


def operator_schmidt_rank(O, cut: int) -> int:
    """Numerical Schmidt rank of an operator across a contiguous cut.

    `O` is a dense array (`parity_sectors`) or its (rows, block) sectors (the
    filters K).  The reshape R[(i_L, j_L), (i_R, j_R)] = O[(i_L, i_R), (j_L, j_R)]
    keeps popcount parity (popcount(i_L 2^cut + j_L) = popcount(i_L) +
    popcount(j_L)), so its singular values are taken per sector, gathered
    from O's (`_schmidt_sectors`), and counted by `numerical_rank`.  A real
    O with every block equal to its transpose (every real K) maps
    swap-symmetric pairs (i, j) <-> (j, i) to swap-symmetric ones, so each
    sector splits further (`_swap_halves`, Nielsen et al., PRA 67, 052301):
    at n = 8, four blocks of 72/56/64/64 in place of 2 x 128.  A non-finite
    entry raises `LinAlgError`.
    """
    sectors = parity_sectors(O) if isinstance(O, np.ndarray) else list(O)
    if not all(np.isfinite(b).all() for _, b in sectors):
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    dim, dL = sum(len(rows) for rows, _ in sectors), 2**cut
    if dim % dL != 0:
        raise ValueError(f"cut at {cut} sites does not divide dimension {dim}")
    if dL in (1, dim):  # R is one row or one column, its one singular value ||O||_F
        return numerical_rank(np.array([math.sqrt(sum(np.vdot(b, b).real for _, b in sectors))]))
    reshaped = _schmidt_sectors([b for _, b in sectors], dL, dim // dL)
    if all(np.isrealobj(b) and np.array_equal(b, b.T) for _, b in sectors):
        blocks = [half for rows, cols, b in reshaped for half in _swap_halves(b, rows, cols, dL, dim // dL)]
    else:
        blocks = [b for _, _, b in reshaped]
    return numerical_rank(np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks]))


def _schmidt_sectors(blocks: list[np.ndarray], dL: int, dR: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The parity sectors of the Schmidt reshape of O, from O's even and odd blocks (index r at r >> 1).

    R's sector p has rows (i_L, j_L) and columns (i_R, j_R) of parity p, its
    entry in O's sector popcount(i_L) + popcount(i_R): split by those two
    parities, each part is indexed straight out of one block viewed as
    (d_L, d_R/2, d_L, d_R/2), as r >> 1 = i_L d_R/2 + (i_R >> 1).  One block,
    O whole, gives its whole reshape.
    """
    if len(blocks) == 2:
        views = [b.reshape(dL, dR // 2, dL, dR // 2) for b in blocks]
        sectors = []
        for rows, cols in zip(parity_halves(dL * dL), parity_halves(dR * dR)):
            (iL, jL), (iR, jR) = np.divmod(rows, dL), np.divmod(cols, dR)
            R = np.empty((len(rows), len(cols)), dtype=np.result_type(*blocks))
            by_left = [np.flatnonzero(popcount_parity(dL)[iL] == a) for a in (0, 1)]
            by_right = [np.flatnonzero(popcount_parity(dR)[iR] == b) for b in (0, 1)]
            for a, r in enumerate(by_left):
                for b, c in enumerate(by_right):
                    R[np.ix_(r, c)] = views[a ^ b][iL[r, None], iR[c] >> 1, jL[r, None], jR[c] >> 1]
            sectors.append((rows, cols, R))
        return sectors
    rearranged = blocks[0].reshape(dL, dR, dL, dR).transpose(0, 2, 1, 3).reshape(dL * dL, dR * dR)
    return [(np.arange(dL * dL), np.arange(dR * dR), rearranged)]


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


def ground_state(M: np.ndarray | SpectralData | scipy.sparse.sparray | Iterable) -> GroundStateInfo:
    """Lowest eigenpair and gap; rejects gaps at or below `DEGENERACY_THRESHOLD`, and NaN.

    `M` is a `SpectralData`, a dense array (`eigendecompose`), or sparse:
    an iterable of (rows, CSR) blocks of a block-diagonal matrix on
    ascending index sets that together cover every index
    (`hamiltonian.sparse_sectors`), or one scipy sparse matrix, the one
    block of every row.  Each block is solved as it arrives, by Lanczos
    (`eigsh`) or, at or below ARPACK's k < dim limit, densely (its two
    lowest levels), and dropped before the next is asked for; the two lowest
    levels of the union give the gap.  Lanczos asks the first block for two
    levels and every later one for its lowest alone: the union's lowest E0
    lies in some block g, and its second is E1 = min(e1_g, e0_s over
    s != g), while e1_s >= e0_s >= E1 for every s != g, so only g's second
    level is read.  `sparse_sectors` yields the sector of H's lowest diagonal entry
    first, its predicted g.  A later block whose one level lies strictly
    below the lowest so far is g, and it is solved again for two levels
    while its CSR is alive (one more solve; never on the dense path).  A
    block's Lanczos start vector is its rows of one fixed-seed Gaussian over
    every index (drawn in order, so the first rows[-1] + 1 draws hold them),
    which overlaps every eigenvector.  A structured one can miss a whole
    symmetry sector, and with it the gap or a degeneracy; the constant
    vector is itself an eigenvector of the Ising chain at zero field.
    Non-convergence raises `ArpackNoConvergence`.
    """
    if isinstance(M, (SpectralData, np.ndarray)):
        sp = M if isinstance(M, SpectralData) else eigendecompose(M)
        w, state = sp.eigenvalues[:2], sp.columns([0])[:, 0]
    else:
        if scipy.sparse.issparse(M):
            M = [(np.arange(M.shape[0]), M)]
        lowest, dim = [], 0  # the two lowest (level, rows, vector) of the sectors so far
        for rows, S in M:
            levels, vector = _sector_lowest(rows, S, k=1 if lowest else 2)
            # One level of a wider sector, below the lowest so far: it holds the ground state.
            if len(levels) == 1 < len(rows) and levels[0] < lowest[0][0]:
                levels, vector = _sector_lowest(rows, S, k=2)
            del S  # the sector's CSR dies here, before the next one is built
            dim += len(rows)
            found = [(levels[0], rows, vector)] + [(level, rows, None) for level in levels[1:2]]
            lowest = sorted(lowest + found, key=lambda t: t[0])[:2]
        w = np.array([level for level, _, _ in lowest])
        _, rows, vector = lowest[0]
        state = np.zeros(dim, dtype=vector.dtype)
        state[rows] = vector
    gap = float(w[1] - w[0])
    if not gap > DEGENERACY_THRESHOLD:  # a NaN gap too
        raise DegenerateGroundStateError(
            f"gap {gap:g} at or below degeneracy threshold {DEGENERACY_THRESHOLD:g}"
        )
    state = state / np.linalg.norm(state)
    return GroundStateInfo(energy=float(w[0]), state=state, gap=gap)


def _sector_lowest(rows: np.ndarray, S, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest levels of a sparse sector block and the lowest one's vector, on its rows.

    k is 2 where the block's second level may be the gap's (`ground_state`),
    else 1: on the Ising chain's second sector (n = 10, 12, 13, 16) that
    takes ARPACK 81, 111, 121 and 161 matrix-vector products in place of
    163, 235, 289 and 414.  A block of dim <= 2 is solved densely, with its
    (up to) two lowest levels whatever k.
    """
    if S.shape[0] > 2:  # ARPACK needs k=2 < dim
        v0 = np.random.default_rng(0).standard_normal(rows[-1] + 1)[rows]
        w, v = scipy.sparse.linalg.eigsh(S, k=k, which="SA", tol=0, v0=v0)
        order = np.argsort(w)
        return w[order], v[:, order[0]]
    sp = eigendecompose(S.toarray())
    return sp.eigenvalues[:2], sp.columns([0])[:, 0]


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
