"""Long-range qubit-chain Hamiltonians as explicit interaction-term lists.

Builds named Hamiltonian families (power-law transverse Ising, long-range
fermionic hopping chains in their spin representation), extracts block-block
interactions, and provides the algebraic decay envelopes (g0, abar) that
every downstream truncation/filter bound is measured against.

Site indices are 1-based throughout the public API; distances are
r_ij = |i - j|.  Every site is a qubit (local dimension 2), and each term
owns its operator norm (`InteractionTerm.norm`, computed once).  Every norm
is solved by `spectral` (`top_singular_value`, `interaction_norm`); this
module builds the matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .registry import BoundRecord
from .spectral import interaction_norm, popcount_parity, top_singular_value

HERMITICITY_ATOL = 1e-12
# Largest dimensions built: a dense array by `embed_sum` (2 GiB of float64 at
# n = 14), a CSR Hamiltonian with int32 indices by `assemble_sparse`, one
# parity sector at a time (`agsplab entropy` on a 2-vCPU box, Lanczos asking the
# second sector for one level: 123 MiB peak RSS and 4.0-4.2 s at n = 16,
# 353 MiB and 24-25 s at n = 18).
DENSE_DIM_CEILING = 2**14
SPARSE_DIM_CEILING = 2**18

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # (sigma_x + i sigma_y)/2


class DimensionCeilingError(ValueError):
    """A dense or sparse build past its desk-scale Hilbert-space ceiling."""


@dataclass(frozen=True)
class LatticeSpec:
    """Open 1D chain of n qubits."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one site, got n={self.n}")

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class InteractionTerm:
    """One Hermitian interaction on an explicit support set of sites."""

    support: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        support = tuple(self.support)
        if list(support) != sorted(set(support)):
            raise ValueError(f"support must be sorted and distinct, got {support}")
        object.__setattr__(self, "support", support)
        m = np.asarray(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"term matrix must be square, got shape {m.shape}")
        skew = np.conj(m.T)  # the one term-sized temporary: |m - m^dag| is written over it
        if not np.max(np.abs(np.subtract(m, skew, out=skew), out=skew).real) <= HERMITICITY_ATOL:  # NaN fails too
            raise ValueError("term matrix is not Hermitian to 1e-12")

    def __iter__(self):
        """Unpack as the (support, matrix) piece that `embed_sum` takes."""
        return iter((self.support, self.matrix))

    @cached_property
    def norm(self) -> float:
        """Operator norm of the term, computed on first use and kept."""
        return top_singular_value(self.matrix)

    @cached_property
    def keeps_parity(self) -> bool:
        """Whether the term commutes with prod Z, read exactly from its own matrix and kept.

        True iff every nonzero entry (a, b) has popcount(a) = popcount(b) mod 2.
        """
        a, b = np.nonzero(self.matrix)
        parity = popcount_parity(len(self.matrix))
        return bool(np.all(parity[a] == parity[b]))


@dataclass(frozen=True)
class PowerLawMetadata:
    """Parameters of a named power-law family.

    `coupling` is the per-pair envelope: every two-site term obeys
    ||h_{i,j}|| <= coupling / r_ij^alpha.  `field` bounds single-site terms.
    """

    family: str
    alpha: float
    coupling: float
    field: float


@dataclass(frozen=True)
class DecayEnvelope:
    """Uniform bound ||V_{X,Y}|| <= g0 * r^(-alpha_bar) for concatenated X, Y."""

    g0: float
    alpha_bar: float

    def __post_init__(self):
        if self.g0 < 1.0:
            raise ValueError(f"g0 must be >= 1, got {self.g0}")
        if self.alpha_bar <= 0.0:
            raise ValueError(f"alpha_bar must be positive, got {self.alpha_bar}")

    def bound(self, r: float) -> float:
        return self.g0 * float(r) ** (-self.alpha_bar)


@dataclass
class Hamiltonian:
    """Sum of local terms on a chain, with optional power-law metadata."""

    lattice: LatticeSpec
    terms: list[InteractionTerm]
    k: int = 2
    metadata: PowerLawMetadata | None = None

    def __post_init__(self):
        n = self.lattice.n
        for term in self.terms:
            if term.support[0] < 1 or term.support[-1] > n:
                raise ValueError(f"term support {term.support} outside [1, {n}]")
            if len(term.support) > self.k:
                raise ValueError(
                    f"term on {term.support} exceeds locality k={self.k}"
                )
            expected = 2 ** len(term.support)
            if term.matrix.shape[0] != expected:
                raise ValueError(
                    f"term on {term.support} has dimension {term.matrix.shape[0]}, "
                    f"expected {expected}"
                )


def _embed_indexing(n: int, support: tuple[int, ...]):
    """Index arithmetic for embedding a support-local matrix into 2^n.

    Returns (base, offsets): `base` enumerates all configurations of the
    complement sites in ascending order (support bits frozen at zero), and
    `offsets[a]` is the index shift realizing local configuration `a` on the
    support, the first site listed the most significant (`region_sum` lists
    them out of order).  Site s is bit n - s of an index.  base[i] is i with
    a zero bit opened at each support place, so it has the popcount of i.
    """
    places = [1 << (n - s) for s in support]
    base = np.arange(1 << (n - len(support)), dtype=np.int64)
    for p in sorted(places):
        base += base & -p  # open a zero bit at p: the bits from p up move one place left
    offsets = np.zeros(1, dtype=np.int64)
    for p in reversed(places):
        offsets = np.concatenate([offsets, offsets + p])
    return base, offsets


def embed_sum(lattice: LatticeSpec, pieces) -> np.ndarray:
    """Dense d^n x d^n sum of identity-padded support-local matrices.

    `pieces` yields (support, matrix) pairs with 1-based sorted supports; an
    empty support embeds a 1x1 matrix as a multiple of the identity.  Real
    output whenever every matrix is real.  Pieces are added in order, each
    by one scatter of its nonzero entries: within a piece, (complement
    configuration, a, b) -> (row, col) is injective, so no index repeats.
    """
    dim = lattice.dim
    if dim > DENSE_DIM_CEILING:
        raise DimensionCeilingError(f"dense dimension {dim} exceeds ceiling {DENSE_DIM_CEILING}")
    pieces = [(tuple(support), np.asarray(m)) for support, m in pieces]
    dtype = np.complex128 if any(np.iscomplexobj(m) for _, m in pieces) else np.float64
    out = np.zeros((dim, dim), dtype=dtype)
    for rows, cols, vals in _scatter(lattice, pieces):
        out[rows, cols] += vals
    return out


def _scatter(lattice: LatticeSpec, pieces):
    """Flat (rows, cols, values) of each identity-padded piece's nonzero entries."""
    for support, m in pieces:
        base, offsets = _embed_indexing(lattice.n, support)
        a, b = np.nonzero(m)
        rows = (base[:, None] + offsets[a]).ravel()
        cols = (base[:, None] + offsets[b]).ravel()
        yield rows, cols, np.tile(m[a, b], len(base))


def assemble_dense(H: Hamiltonian) -> np.ndarray:
    """Dense d^n x d^n matrix of the Hamiltonian (identity-padded terms).

    Real output whenever every term matrix is real; Hermitian to 1e-12 by
    construction.
    """
    return embed_sum(H.lattice, H.terms)


def assemble_sparse(H: Hamiltonian, parity: int | None = None):
    """CSR matrix of the Hamiltonian, or of its popcount-parity sector `parity`, written in place.

    The one sparse writer, from the index source of `embed_sum`.  With
    `parity` p it writes the block on the indices of parity p, which is all
    of H there when every term keeps parity (else `ValueError`); each pair
    {2k, 2k+1} holds one index of each parity, so index r is stored as
    r >> 1, the order of `spectral`'s dense sectors (`_sector_embedding`).

    Two passes over the terms; both embed one term at a time, so no term's
    index arrays outlive it.  Pass 1 counts each row's entries: term t gives
    row r the nonzeros of row a_t(r) of its matrix, where a_t(r) is r's
    configuration on the term's support, and `indptr` is their cumulative
    sum.  Pass 2 writes each term's columns and values at per-row cursors,
    in term order and, within a row, in the column order of the term's
    matrix: each row holds the entry sequence that a COO of the
    concatenated `_scatter` gives it on conversion to CSR.  `sum_duplicates`
    then sorts and sums each row in place, so the result is that
    conversion's CSR, or its restriction S[rows][:, rows] to the sector, bit
    for bit, int32 indices included: duplicate (row, col) entries of
    different terms are summed in the same order (entries may differ from
    `assemble_dense` in the last bit), and a sum that cancels to exactly 0
    stays stored (the Ising diagonal at popcount n/2 for even n).  No COO is
    held: the peak is the final arrays with their duplicate surplus (the
    Ising diagonal's n entries per row before they are summed into one).
    `data` and `indices` stay views of those buffers: copying the kept
    entries out would hold both at once (n=18 `agsplab entropy` on a 2-vCPU
    box: 356 MiB peak RSS as they are, 566 MiB with the copy).
    """
    dim = H.lattice.dim
    if dim > SPARSE_DIM_CEILING:
        raise DimensionCeilingError(f"sparse dimension {dim} exceeds ceiling {SPARSE_DIM_CEILING}")
    if parity is not None and not all(term.keeps_parity for term in H.terms):
        raise ValueError("a parity sector of a Hamiltonian with a term that breaks parity")
    size = dim if parity is None else dim // 2
    if not H.terms:
        return scipy.sparse.csr_array((size, size))
    # int32 indices: the ceiling keeps every row and column below 2^18, and the
    # entry count (about 4.5e7 for the Ising chain at n = 18) well below 2^31.
    indptr = np.zeros(size + 1, dtype=np.int32)
    for term in H.terms:
        per_row = np.bincount(term.matrix.nonzero()[0], minlength=len(term.matrix))
        if (per_row == per_row[0]).all():
            indptr[1:] += per_row[0]
        else:
            a = np.arange(len(per_row))
            meets, offsets, comp = _sector_embedding(H.lattice, term.support, parity, a)
            a = a[meets]
            indptr[1:][offsets[a, None] + comp] += per_row[a, None].astype(np.int32)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=np.result_type(*(t.matrix.dtype for t in H.terms)))
    # Row r's next free slot is cursor[r] + shift.  A term whose matrix rows all
    # hold the same number of nonzeros (every Ising term, and every fermion
    # term when A and B are both nonzero) advances every row alike, so it
    # moves `shift` alone, and pass 1 adds its count without embedding it.
    cursor, shift = indptr[:-1].astype(np.intp), 0
    for term in H.terms:
        a, b = term.matrix.nonzero()
        per_row = np.bincount(a, minlength=len(term.matrix))
        rank = np.arange(len(a)) - a.searchsorted(a)
        meets, offsets, comp = _sector_embedding(H.lattice, term.support, parity, a)
        a, b, rank = a[meets], b[meets], rank[meets]
        rows = offsets[a, None] + comp  # local row a, then ascending rows: monotone writes
        # The k-th nonzero of local row a goes k places past its row's slot.
        pos = cursor[rows] + (rank + shift)[:, None]
        if (per_row == per_row[0]).all():
            shift += per_row[0]
        else:
            last = rank == per_row[a] - 1
            cursor[rows[last]] = pos[last] + (1 - shift)
        indices[pos] = offsets[b, None] + comp
        data[pos] = term.matrix[a, b][:, None]
    S = scipy.sparse.csr_array((data, indices, indptr), shape=(size, size))
    S.sum_duplicates()
    return S


def _sector_embedding(lattice: LatticeSpec, support: tuple[int, ...], parity: int | None, a: np.ndarray):
    """Where the local rows `a` of a parity-keeping term land in one sector (`parity` None: the whole space).

    Returns (meets, offsets, comp): a[meets] are the local rows that meet
    the sector, and the j-th of them, on complement configuration c, lands
    on row offsets[a] + c for each c in comp[j], ascending (comp is one
    broadcast row where they share it); its columns b land alike.  A sector
    stores r as r >> 1, dropping site n, so this is the arithmetic of sites
    1 .. n-1.  A support without site n embeds there as it is: one of each
    two complement configurations that differ at site n is in the sector.
    Otherwise site n, last in the sorted support, is the lowest bit of a,
    and row c + offsets[a] lies in sector p when c has parity
    p ^ popcount(a): the complement configurations are split by parity
    once, and the local row's parity picks its half.  A support that covers
    the chain has no odd half, so its local rows of the other parity meet
    no row.
    """
    if parity is None:
        base, offsets = _embed_indexing(lattice.n, support)
        return slice(None), offsets, base[None, :]
    if support[-1] != lattice.n:
        base, offsets = _embed_indexing(lattice.n - 1, support)
        return slice(None), offsets, base[None, :]
    base, offsets = _embed_indexing(lattice.n - 1, support[:-1])
    half = popcount_parity(2 * len(offsets))[a] ^ parity
    if len(base) == 1:
        return half == 0, offsets.repeat(2), base[None, :]
    # base[i] has the popcount of i, and the pair {2j, 2j+1} holds one i of each parity.
    pair = np.arange(0, len(base), 2)
    even = popcount_parity(len(base) // 2)
    return slice(None), offsets.repeat(2), np.stack([base[pair + even], base[pair + 1 - even]])[half]


def sparse_sectors(H: Hamiltonian):
    """The CSR Hamiltonian one popcount-parity sector at a time, as (rows, CSR) pairs.

    When every term keeps parity (`InteractionTerm.keeps_parity`), H is
    block-diagonal over the even and the odd sector, and each is written
    (`assemble_sparse`) only when the consumer asks for it; `rows` lists its
    indices ascending.  The first is the sector of H's lowest diagonal entry
    (`_diagonal`, dropped before either CSR is written; the first such
    index on a tie, so a constant diagonal gives even, then odd): the
    lowest-energy basis configuration predicts the ground sector, and
    `spectral.ground_state` asks Lanczos for the second level only there,
    which is exact whichever sector holds the ground state.  Otherwise the
    one pair is every row and the full CSR.
    """
    dim = H.lattice.dim
    if dim >= 2 and all(term.keeps_parity for term in H.terms):
        first = int(popcount_parity(dim)[_diagonal(H).argmin()])  # the diagonal dies here
        for parity in (first, 1 - first):
            yield np.flatnonzero(popcount_parity(dim) == parity), assemble_sparse(H, parity)
    else:
        yield np.arange(dim), assemble_sparse(H)


def _diagonal(H: Hamiltonian) -> np.ndarray:
    """The diagonal of H, one float64 per basis configuration, summed from each term's own diagonal."""
    out = np.zeros(H.lattice.dim)
    for term in H.terms:
        d = np.diagonal(term.matrix).real
        if d.any():
            base, offsets = _embed_indexing(H.lattice.n, term.support)
            out[base[:, None] + offsets] += d
    return out


def region_sum(region: tuple[int, ...], pieces) -> np.ndarray:
    """Sum of (support, matrix) pieces as a dense matrix on the sites of `region`.

    `region` lists distinct sites that contain every piece's support; the
    result acts on them in their order (1x1 zero if `region` is empty).
    """
    if len(region) == 0:
        return np.zeros((1, 1))
    pos = {site: p + 1 for p, site in enumerate(region)}
    sub = LatticeSpec(n=len(region))
    return embed_sum(sub, ((tuple(pos[s] for s in support), m) for support, m in pieces))


def build_long_range_ising(n: int, alpha: float, J: float, B: float) -> Hamiltonian:
    """Transverse-field Ising chain with power-law XX couplings.

    H = sum_{i<j} (J / r_ij^alpha) X_i X_j + B * sum_i Z_i; zero-coefficient
    terms are omitted.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    lattice = LatticeSpec(n=n)
    xx = np.kron(SIGMA_X, SIGMA_X)
    terms = []
    if J != 0.0:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                coeff = J / float(j - i) ** alpha
                terms.append(InteractionTerm((i, j), coeff * xx))
    if B != 0.0:
        for i in range(1, n + 1):
            terms.append(InteractionTerm((i,), B * SIGMA_Z))
    meta = PowerLawMetadata("long_range_ising", alpha, abs(J), abs(B))
    return Hamiltonian(lattice, terms, k=2, metadata=meta)


def _window_term(w: int, hop: float, pair: float) -> np.ndarray:
    """hop a_i a_j^dag + pair a_i a_j + h.c. on the w-site window from site i to site j, w >= 2.

    Jordan-Wigner convention a_i -> (prod_{k<i} Z_k)(X_i + iY_i)/2; the Z
    strings of a pair term cancel outside the window, so the window-local
    matrix is the full-chain pair term exactly.  Each of its parts is a
    signed partial permutation of the local configurations (site i the first
    bit, site j the last): a_i a_j^dag takes a column with the first bit set
    and the last clear to the column with the two swapped, with sign
    (-1)^popcount(col) from the string of a_j^dag; a_i a_j takes a column
    with both bits set to the column with both cleared, with sign
    (-1)^popcount(col - last).  The four parts never share an entry, so each
    is written straight into one zero matrix, and a zero coefficient writes
    nothing.
    """
    first, last = 1 << (w - 1), 1
    col = np.arange(1 << w)
    odd = popcount_parity(1 << w).astype(bool)
    m = np.zeros((1 << w, 1 << w))
    for coeff, kept, shift in ((hop, 0, last - first), (pair, last, -first - last)):
        if coeff != 0.0:
            c = col[(col & first != 0) & (col & last == kept)]
            m[c + shift, c] = m[c, c + shift] = np.where(odd[c - kept], -coeff, coeff)
    return m


def build_long_range_fermion_chain(n: int, alpha: float, A: float, B: float) -> Hamiltonian:
    """Spin representation of the long-range fermionic hopping/pairing chain.

    H = sum_{i<j} r_ij^(-alpha) (A a_i a_j^dag + B a_i a_j + h.c.), with
    uniform couplings A and B, mapped through the Jordan-Wigner string; each
    pair term is recorded with its full support {i, ..., j} (`_window_term`).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    lattice = LatticeSpec(n=n)
    A, B = float(A), float(B)
    terms = []
    max_support = 2
    if A != 0.0 or B != 0.0:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                r_alpha = float(j - i) ** alpha
                terms.append(InteractionTerm(tuple(range(i, j + 1)), _window_term(j - i + 1, A / r_alpha, B / r_alpha)))
                max_support = max(max_support, j - i + 1)
    meta = PowerLawMetadata("long_range_fermion", alpha, max(abs(A), abs(B)), 0.0)
    return Hamiltonian(lattice, terms, k=max_support, metadata=meta)


def block_interaction(
    H: Hamiltonian,
    X: set[int] | tuple[int, ...],
    Y: set[int] | tuple[int, ...],
) -> tuple[np.ndarray, float]:
    """Interaction operator between site sets X and Y.

    Sums exactly the terms h_Z with Z inside X | Y touching both X and Y;
    returns the operator on the sites of X, then of Y (each ascending), and
    its norm: `interaction_norm`, or exactly 0.0 with no solve when no term
    is picked.
    """
    X, Y = set(X), set(Y)
    if X & Y:
        raise ValueError(f"X and Y overlap: {sorted(X & Y)}")
    region = X | Y
    picked = [
        t
        for t in H.terms
        if set(t.support) <= region and set(t.support) & X and set(t.support) & Y
    ]
    out = region_sum(tuple(sorted(X)) + tuple(sorted(Y)), picked)
    return out, interaction_norm(out, len(X)) if picked else 0.0


def decay_envelope(H: Hamiltonian) -> DecayEnvelope:
    """Analytic (g0, alpha_bar) for the named family, with g0 clamped to >= 1.

    Generic power-law couplings give g0 = alpha*J/(alpha-2), abar = alpha-2
    (requires alpha > 2); the quadratic fermionic family decays with
    abar = alpha - 3/2 (requires alpha > 3/2).
    """
    meta = H.metadata
    if meta is None:
        raise ValueError("Hamiltonian has no power-law metadata")
    alpha, J = meta.alpha, meta.coupling
    if meta.family == "long_range_fermion":
        if alpha <= 1.5:
            raise ValueError(
                f"fermionic envelope needs alpha > 3/2, got alpha={alpha}"
            )
        g0 = 4.0 * J * np.sqrt(2 * alpha / (2 * alpha - 1)) * (2 * alpha - 1) / (2 * alpha - 3)
        abar = alpha - 1.5
    else:
        if alpha <= 2.0:
            raise ValueError(
                f"generic envelope needs alpha > 2, got alpha={alpha}"
            )
        g0 = alpha * J / (alpha - 2.0)
        abar = alpha - 2.0
    return DecayEnvelope(g0=max(float(g0), 1.0), alpha_bar=float(abar))


def pair_distance(X, Y) -> int:
    return min(abs(i - j) for i in X for j in Y)


def contiguous_pair_samples(n: int, max_pairs: int | None = None):
    """Deterministic list of concatenated (X, Y) pairs covering all distances.

    Exhausts every (left prefix-segment, right suffix-segment) split; for
    larger n, callers may cap the count (earliest pairs keep r small, where
    the envelope is tightest).
    """
    pairs = []
    for r in range(1, n - 1):
        for a in range(1, n - r + 1):
            for b in range(a + r, n + 1):
                X = tuple(range(1, a + 1))
                Y = tuple(range(a + r, b + 1))
                pairs.append((X, Y))
    if max_pairs is not None:
        pairs = pairs[:max_pairs]
    return pairs


def verify_assumption1(H: Hamiltonian, envelope: DecayEnvelope, sample_pairs) -> list[BoundRecord]:
    """One `assumption1` record per sampled pair: ||V_{X,Y}|| against g0 * r^(-abar).

    Each record's context carries the pair distance r and the sites X, Y.
    """
    records = []
    for X, Y in sample_pairs:
        r = pair_distance(X, Y)
        if r < 1:
            raise ValueError(f"pair {X}, {Y} is not separated")
        _, norm = block_interaction(H, X, Y)
        records.append(BoundRecord("assumption1", norm, envelope.bound(r), {"r": r, "X": tuple(X), "Y": tuple(Y)}))
    return records


def local_energy_g(H: Hamiltonian) -> float:
    """One-site energy scale g = max_i sum_{Z containing i} ||h_Z||."""
    per_site = np.zeros(H.lattice.n + 1)
    for term in H.terms:
        for s in term.support:
            per_site[s] += term.norm
    return float(per_site.max())
