"""The one module that solves: eigensolves, sector splits, 2-norms and ranks.

Everything downstream (gaps, ground states, energy windows, filter
operators) consumes the `SpectralData` produced here.  Solvers are dense
LAPACK calls, except that ground states of sparse matrices come from
Lanczos (`eigsh`); near-degenerate ground states are rejected rather than
perturbed.  A sparse Hamiltonian reaches `ground_state` one parity sector
at a time, as `hamiltonian.sparse_sectors` writes it (index r stored as
r >> 1), and each sector is solved and dropped before the next is written.
Lanczos asks each sector only for the levels the gap reads: two in the
first, the sector of H's lowest diagonal entry and so the predicted ground
sector, and one in the other.  That is exact: the two lowest levels of the
union are E0, the ground sector's lowest, and min(its second, every other
sector's lowest), so no other sector's second level is ever read.  A
prediction that misses shows as a one-level solve below the lowest so far,
and that sector is solved again for two.  No other module of the package
calls an eigensolver or splits a matrix into sectors, and this one imports
none of them.

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
and delta split.  A `SpectralData` keeps each sector's eigenvectors as its
own block (`Sector`: basis rows, ascending level positions, U_s) and never
writes them into a d x d array that would be half zeros; a matrix that does
not split is one sector.  Its readers work per sector: `columns` gives the
few dense columns that ground states and the clamp's tails need,
`function_blocks` forms f(M) one sector block at a time (the clamps and the
filters K), and `images` applies an operator to wide column sets one sector
at a time and keeps the split only where the image says the operator kept
parity.  K's Schmidt reshape splits by parity too, and once more by the
swap of its pair indices, because K is exactly symmetric
(`operator_schmidt_rank`).  The Assumption-1 interactions V_{X,Y} split
further: `interaction_norm` solves each on the two D/4 x D/4 blocks that
flip both the X and the Y parity, through `top_singular_value`, where the
matrix has only those blocks.
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
def _parity_halves(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices 0 .. dim-1 of even and of odd popcount."""
    odd = popcount_parity(dim)
    halves = np.flatnonzero(odd == 0), np.flatnonzero(odd)
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
    Hermiticity is not checked: `eigh` reads the lower triangle.  Each
    `parity_sectors` sector of M is solved on its own and kept as its own
    `Sector`, labelled with the ascending positions of its levels; a matrix
    that does not split is the one sector.  A non-finite entry raises
    `LinAlgError`.
    """
    if np.iscomplexobj(M) and np.max(np.abs(M.imag)) < 1e-14:
        M = M.real
    solved = [(rows, *np.linalg.eigh(block)) for rows, _, block in parity_sectors(M)]
    w = np.concatenate([w_s for _, w_s, _ in solved])
    order = np.argsort(w, kind="stable")
    position = np.empty_like(order)  # position[j]: ascending position of the j-th sector level
    position[order] = np.arange(len(order))
    sectors, start = [], 0
    for rows, w_s, U_s in solved:
        sectors.append(Sector(rows, position[start : start + len(w_s)], U_s))
        start += len(w_s)
    return SpectralData(eigenvalues=w[order], sectors=tuple(sectors))


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
    for d_L = 2^cut), so the SVD runs per parity sector of the rearranged
    matrix (`_schmidt_sectors`).  A real O that is exactly symmetric (read by
    `np.array_equal(O, O.T)`, as every real filter K is) gives a reshape R
    with R[(j_L, i_L), (j_R, i_R)] = R[(i_L, j_L), (i_R, j_R)]: it maps
    swap-symmetric pairs to swap-symmetric ones and antisymmetric to
    antisymmetric, so each sector splits further into those two blocks
    (`_swap_halves`, Nielsen et al., PRA 67, 052301).  Both splits are
    orthogonal changes of basis: the singular values are the union of the
    blocks', at n = 8 four blocks of 72/56/64/64 in place of 2 x 128.  A
    complex O is never swap-split.  A non-finite entry raises `LinAlgError`.
    """
    dim = O.shape[0]
    dL = 2**cut
    if dim % dL != 0:
        raise ValueError(f"cut at {cut} sites does not divide dimension {dim}")
    sectors = _schmidt_sectors(O, dL, dim // dL)
    if np.isrealobj(O) and np.array_equal(O, O.T):
        blocks = [half for rows, cols, b in sectors for half in _swap_halves(b, rows, cols, dL, dim // dL)]
    else:
        blocks = [b for _, _, b in sectors]
    return numerical_rank(np.concatenate([np.linalg.svd(b, compute_uv=False) for b in blocks]))


def _schmidt_sectors(O: np.ndarray, dL: int, dR: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """`parity_sectors` of the Schmidt reshape R[(i_L, j_L), (i_R, j_R)] = O[(i_L, i_R), (j_L, j_R)].

    The two diagonal blocks are indexed straight out of O.reshape(d_L, d_R,
    d_L, d_R), so the reshape itself is never copied.  As in
    `parity_sectors`, the nonzero counts decide: the split is taken when the
    blocks hold every nonzero entry of O, and only otherwise is the whole
    reshape formed.  A non-finite entry raises `LinAlgError`.
    """
    if not np.isfinite(O).all():
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    O4 = O.reshape(dL, dR, dL, dR)
    if all(m >= 2 and m & (m - 1) == 0 for m in (dL * dL, dR * dR)):
        sectors = []
        for rows, cols in zip(_parity_halves(dL * dL), _parity_halves(dR * dR)):
            (iL, jL), (iR, jR) = np.divmod(rows, dL), np.divmod(cols, dR)
            sectors.append((rows, cols, O4[iL[:, None], iR, jL[:, None], jR]))
        if sum(np.count_nonzero(block) for _, _, block in sectors) == np.count_nonzero(O):
            return sectors
    rearranged = O4.transpose(0, 2, 1, 3).reshape(dL * dL, dR * dR)
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
    """Lowest eigenpair and gap; rejects gaps at or below `DEGENERACY_THRESHOLD`.

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
    if gap <= DEGENERACY_THRESHOLD:
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
