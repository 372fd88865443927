"""Long-range spin-chain Hamiltonians as explicit interaction-term lists.

Builds named Hamiltonian families (power-law transverse Ising, long-range
fermionic hopping chains in their spin representation), extracts block-block
interactions, and provides the algebraic decay envelopes (g0, abar) that
every downstream truncation/filter bound is measured against.

Site indices are 1-based throughout the public API; distances are
r_ij = |i - j|.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse

HERMITICITY_ATOL = 1e-12
DEFAULT_DIM_CEILING = 16384
DIM_CEILING_ENV = "AGSPLAB_DIM_CEILING"

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # (sigma_x + i sigma_y)/2


class DimensionCeilingError(ValueError):
    """Requested Hilbert-space dimension exceeds the configured desk-scale ceiling."""


def dim_ceiling() -> int:
    """Active Hilbert-space dimension ceiling (env override wins)."""
    raw = os.environ.get(DIM_CEILING_ENV)
    return int(raw) if raw else DEFAULT_DIM_CEILING


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
    both dimensions are powers of two (at least 2) and both cross blocks
    (even rows x odd columns, odd rows x even columns) are exactly zero,
    these are the even and the odd sector; otherwise the one entry holds the
    whole matrix.  A split is a permutation similarity (an equivalence for
    rectangular input), so eigenvalues and singular values are exactly the
    union of the sectors'.  On the computational basis of qubits the
    popcount parity is the eigenvalue of prod Z, so every operator that
    commutes with prod Z (the Ising and fermion families, their blocks,
    clamps and filters, and the operator-Schmidt reshape of such a filter)
    splits; a single nonzero cross entry, rounding noise included, does not.
    A non-finite entry raises `LinAlgError`: LAPACK may return a finite
    value for it (a NaN on the diagonal can vanish from `eigvalsh`).
    """
    if not np.isfinite(matrix).all():
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    shape = matrix.shape
    if all(m >= 2 and m & (m - 1) == 0 for m in shape):
        (even_r, odd_r), (even_c, odd_c) = _parity_halves(shape[0]), _parity_halves(shape[1])
        if not (matrix[np.ix_(even_r, odd_c)].any() or matrix[np.ix_(odd_r, even_c)].any()):
            return [(r, c, matrix[np.ix_(r, c)]) for r, c in ((even_r, even_c), (odd_r, odd_c))]
    return [(np.arange(shape[0]), np.arange(shape[1]), matrix)]


def spectral_norm(matrix: np.ndarray) -> float:
    """Operator 2-norm of a Hermitian matrix via dense eigensolves of its parity sectors."""
    if matrix.size == 0:
        return 0.0
    w = np.concatenate([np.linalg.eigvalsh(block) for _, _, block in parity_sectors(matrix)])
    return float(np.max(np.abs(w)))


@dataclass(frozen=True)
class LatticeSpec:
    """Open 1D chain of n sites with local dimension d."""

    n: int
    d: int = 2
    boundary: str = "open"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one site, got n={self.n}")
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got d={self.d}")
        if self.boundary != "open":
            raise ValueError(f"only open boundaries are supported, got {self.boundary!r}")
        if self.dim > dim_ceiling():
            raise DimensionCeilingError(
                f"d^n = {self.d}**{self.n} = {self.dim} exceeds ceiling {dim_ceiling()}"
            )

    @property
    def dim(self) -> int:
        return self.d**self.n

    @property
    def sites(self) -> range:
        return range(1, self.n + 1)


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
        if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_ATOL:  # NaN fails too
            raise ValueError("term matrix is not Hermitian to 1e-12")

    def __iter__(self):
        """Unpack as the (support, matrix) piece that `embed_sum` takes."""
        return iter((self.support, self.matrix))

    @property
    def diameter(self) -> int:
        return self.support[-1] - self.support[0]

    @property
    def norm(self) -> float:
        return spectral_norm(self.matrix)


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
    _norms: dict[int, float] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = self.lattice.n
        for term in self.terms:
            if term.support[0] < 1 or term.support[-1] > n:
                raise ValueError(f"term support {term.support} outside [1, {n}]")
            if len(term.support) > self.k:
                raise ValueError(
                    f"term on {term.support} exceeds locality k={self.k}"
                )
            expected = self.lattice.d ** len(term.support)
            if term.matrix.shape[0] != expected:
                raise ValueError(
                    f"term on {term.support} has dimension {term.matrix.shape[0]}, "
                    f"expected {expected}"
                )

    def term_norm(self, idx: int) -> float:
        if idx not in self._norms:
            self._norms[idx] = self.terms[idx].norm
        return self._norms[idx]


def _embed_indexing(lattice: LatticeSpec, support: tuple[int, ...]):
    """Index arithmetic for embedding a support-local matrix into d^n.

    Returns (base, offsets): `base` enumerates all configurations of the
    complement sites (support digits frozen at zero) and `offsets[a]` is the
    index shift realizing local configuration `a` on the support.
    """
    n, d = lattice.n, lattice.d
    dim = lattice.dim
    places = np.array([d ** (n - s) for s in support], dtype=np.int64)
    idx = np.arange(dim, dtype=np.int64)
    on_support = np.zeros(dim, dtype=bool)
    for p in places:
        on_support |= (idx // p) % d != 0
    base = idx[~on_support]
    ds = d ** len(support)
    local = np.arange(ds, dtype=np.int64)
    offsets = np.zeros(ds, dtype=np.int64)
    for axis, p in enumerate(places):
        digit = (local // d ** (len(support) - 1 - axis)) % d
        offsets += digit * p
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
    if dim > dim_ceiling():
        raise DimensionCeilingError(f"dimension {dim} exceeds ceiling {dim_ceiling()}")
    pieces = [(tuple(support), np.asarray(m)) for support, m in pieces]
    dtype = np.complex128 if any(np.iscomplexobj(m) for _, m in pieces) else np.float64
    out = np.zeros((dim, dim), dtype=dtype)
    for rows, cols, vals in _scatter(lattice, pieces):
        out[rows, cols] += vals
    return out


def _scatter(lattice: LatticeSpec, pieces):
    """Flat (rows, cols, values) of each identity-padded piece's nonzero entries."""
    for support, m in pieces:
        base, offsets = _embed_indexing(lattice, support)
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


def assemble_sparse(H: Hamiltonian):
    """CSR d^n x d^n matrix of the Hamiltonian, from the same scatter as `embed_sum`.

    Duplicate (row, col) entries of different terms are summed by scipy, so
    entries may differ from `assemble_dense` in the last bit.
    """
    dim = H.lattice.dim
    parts = list(zip(*_scatter(H.lattice, H.terms)))
    if not parts:
        return scipy.sparse.csr_array((dim, dim))
    rows, cols, vals = (np.concatenate(p) for p in parts)
    return scipy.sparse.csr_array((vals, (rows, cols)), shape=(dim, dim))


def region_sum(lattice: LatticeSpec, region: tuple[int, ...], pieces) -> np.ndarray:
    """Sum of (support, matrix) pieces as a dense matrix on the sites of `region`.

    `region` lists sites of `lattice` that contain every piece's support; the
    result acts on them in their order (1x1 zero if `region` is empty).
    """
    if len(region) == 0:
        return np.zeros((1, 1))
    pos = {site: p + 1 for p, site in enumerate(region)}
    sub = LatticeSpec(n=len(region), d=lattice.d)
    return embed_sum(sub, ((tuple(pos[s] for s in support), m) for support, m in pieces))


def build_long_range_ising(n: int, alpha: float, J: float, B: float) -> Hamiltonian:
    """Transverse-field Ising chain with power-law XX couplings.

    H = sum_{i<j} (J / r_ij^alpha) X_i X_j + B * sum_i Z_i; zero-coefficient
    terms are omitted.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    lattice = LatticeSpec(n=n, d=2)
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


def _window_annihilators(w: int) -> tuple[np.ndarray, np.ndarray]:
    """Jordan-Wigner annihilation operators at the two ends of a w-site window.

    Convention a_i -> (prod_{j<i} Z_j)(X_i + iY_i)/2; the Z strings of a pair
    term cancel outside the window, so window-local operators generate the
    full-chain pair term exactly.
    """
    eye = np.eye(2)
    a_left = reduce(np.kron, [SIGMA_PLUS] + [eye] * (w - 1))
    a_right = reduce(np.kron, [SIGMA_Z] * (w - 1) + [SIGMA_PLUS])
    return a_left, a_right


def build_long_range_fermion_chain(n: int, alpha: float, A_couplings, B_couplings) -> Hamiltonian:
    """Spin representation of the long-range fermionic hopping/pairing chain.

    H = sum_{i<j} r_ij^(-alpha) (A_ij a_i a_j^dag + B_ij a_i a_j + h.c.),
    mapped through the Jordan-Wigner string; each pair term is recorded with
    its full support {i, ..., j}.  Scalars are broadcast to uniform coupling
    tables.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    lattice = LatticeSpec(n=n, d=2)
    A = np.asarray(A_couplings, dtype=float)
    Bp = np.asarray(B_couplings, dtype=float)
    if A.ndim == 0:
        A = np.full((n, n), float(A))
    if Bp.ndim == 0:
        Bp = np.full((n, n), float(Bp))
    if A.shape != (n, n) or Bp.shape != (n, n):
        raise ValueError(
            f"coupling tables must be scalars or ({n},{n}) arrays, "
            f"got {A.shape} and {Bp.shape}"
        )
    terms = []
    max_support = 2
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a, b = A[i - 1, j - 1], Bp[i - 1, j - 1]
            if a == 0.0 and b == 0.0:
                continue
            w = j - i + 1
            a_i, a_j = _window_annihilators(w)
            hop = a * (a_i @ a_j.conj().T)
            pair = b * (a_i @ a_j)
            m = (hop + pair + hop.conj().T + pair.conj().T) / float(j - i) ** alpha
            terms.append(InteractionTerm(tuple(range(i, j + 1)), m))
            max_support = max(max_support, w)
    j_tilde = max(np.max(np.abs(A)), np.max(np.abs(Bp)))
    meta = PowerLawMetadata("long_range_fermion", alpha, float(j_tilde), 0.0)
    return Hamiltonian(lattice, terms, k=max_support, metadata=meta)


def block_interaction(
    H: Hamiltonian,
    X: set[int] | tuple[int, ...],
    Y: set[int] | tuple[int, ...],
) -> tuple[np.ndarray, float]:
    """Interaction operator between site sets X and Y.

    Sums exactly the terms h_Z with Z inside X | Y touching both X and Y;
    returns the operator embedded on the sites of X | Y together with its
    operator norm (dense eigensolve; exactly 0.0 when no term is picked).
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
    out = region_sum(H.lattice, tuple(sorted(region)), picked)
    return out, spectral_norm(out) if picked else 0.0


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


@dataclass(frozen=True)
class EnvelopeSample:
    """One measured ||V_{X,Y}|| against its g0 * r^(-abar) budget."""

    X: tuple[int, ...]
    Y: tuple[int, ...]
    r: int
    norm: float
    bound: float


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


def verify_assumption1(
    H: Hamiltonian,
    envelope: DecayEnvelope,
    sample_pairs,
) -> list[EnvelopeSample]:
    """Measure ||V_{X,Y}|| and its budget g0 * r^(-abar) on each sampled pair.

    Samples are returned unjudged; `registry.BoundRecord` decides.
    """
    report = []
    for X, Y in sample_pairs:
        r = pair_distance(X, Y)
        if r < 1:
            raise ValueError(f"pair {X}, {Y} is not separated")
        _, norm = block_interaction(H, X, Y)
        report.append(
            EnvelopeSample(tuple(X), tuple(Y), r, norm, envelope.bound(r))
        )
    return report


def local_energy_g(H: Hamiltonian) -> float:
    """One-site energy scale g = max_i sum_{Z containing i} ||h_Z||."""
    per_site = np.zeros(H.lattice.n + 1)
    for idx, term in enumerate(H.terms):
        nrm = H.term_norm(idx)
        for s in term.support:
            per_site[s] += nrm
    return float(per_site.max())
