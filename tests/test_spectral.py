import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agsplab import spectral
from agsplab.hamiltonian import (
    Hamiltonian,
    InteractionTerm,
    LatticeSpec,
    assemble_sparse,
    build_long_range_fermion_chain,
    build_long_range_ising,
    local_energy_g,
    sparse_sectors,
)
from agsplab.spectral import (
    ENERGY_TIE_TOL,
    DegenerateGroundStateError,
    SpectralData,
    eigendecompose,
    flip_sum_norm,
    ground_state,
    in_window,
    numerical_rank,
    operator_schmidt_rank,
    parity_halves,
    parity_sectors,
    top_singular_value,
    unitary_block_norms,
)
from conftest import PAULI_X, PAULI_Z, assemble_dense, dense_eigenvectors, held_matrices, kron_chain, one_sector_spectrum

# Frozen at first run: gap of the n=8, alpha=3, J=1, B=2 chain.
GAP_N8_A3_J1_B2 = 2.397328047305237


def reconstruct(S) -> np.ndarray:
    """U diag(w) U^dag of a decomposition."""
    U = dense_eigenvectors(S)
    return (U * S.eigenvalues) @ U.conj().T


class TestEigendecompose:
    def test_identity(self):
        S = eigendecompose(np.eye(4))
        np.testing.assert_allclose(S.eigenvalues, np.ones(4))

    def test_sigma_z(self):
        S = eigendecompose(PAULI_Z)
        np.testing.assert_allclose(S.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_and_orthonormality(self, rng):
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        M = M + M.conj().T
        S = eigendecompose(M)
        scale = 1.0 + np.max(np.abs(S.eigenvalues))
        assert np.max(np.abs(reconstruct(S) - M)) <= 1e-9 * scale
        U = dense_eigenvectors(S)
        gram = U.conj().T @ U
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-10

    def test_preserves_input(self, rng):
        split = assemble_dense(build_long_range_ising(4, 3.0, 1.0, 2.0)) + 0j
        assert len(parity_sectors(split)) == 2
        whole = rng.standard_normal((16, 16))
        for H in (split, whole + whole.T):
            copy = H.copy()
            eigendecompose(H)
            np.testing.assert_array_equal(H, copy)

    def test_eigenvalues_ascending(self, rng):
        M = rng.standard_normal((16, 16))
        M = M + M.T
        S = eigendecompose(M)
        assert np.all(np.diff(S.eigenvalues) >= 0)


    def test_norm_is_largest_absolute_eigenvalue(self, rng):
        M = rng.standard_normal((7, 7))
        M = M + M.T
        assert eigendecompose(M).norm == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)
        assert eigendecompose(-5.0 * PAULI_Z + PAULI_X).norm == pytest.approx(np.sqrt(26.0))


def diagonal_chain(n: int) -> Hamiltonian:
    """Z fields and ferromagnetic ZZ bonds, all coefficients distinct: all-down, then all-up, both even at even n."""
    fields = [InteractionTerm((i,), (0.05 + 0.01 * i) * PAULI_Z) for i in range(1, n + 1)]
    bonds = [InteractionTerm((i, i + 1), -(1.0 + 0.1 * i) * np.kron(PAULI_Z, PAULI_Z)) for i in range(1, n)]
    return Hamiltonian(LatticeSpec(n), fields + bonds)


class TestGroundState:
    def test_sigma_z(self):
        info = ground_state(PAULI_Z)
        assert info.energy == pytest.approx(-1.0)
        assert info.gap == pytest.approx(2.0)
        assert np.linalg.norm(info.state) == pytest.approx(1.0, abs=1e-12)

    def test_single_site_gap_saturates_2g(self):
        H = build_long_range_ising(1, 3.0, 1.0, 1.0)
        g = local_energy_g(H)
        info = ground_state(assemble_dense(H))
        assert info.gap == pytest.approx(2.0 * g)

    def test_frozen_gap_regression(self):
        H = assemble_dense(build_long_range_ising(8, 3.0, 1.0, 2.0))
        info = ground_state(H)
        assert info.gap == pytest.approx(GAP_N8_A3_J1_B2, abs=1e-8)

    def test_degenerate_rejected(self):
        # X (x) X has doubly degenerate ground space
        M = np.kron(PAULI_X, PAULI_X)
        with pytest.raises(DegenerateGroundStateError):
            ground_state(M)

    def test_gap_below_2g_on_instances(self):
        for n, B in [(4, 0.5), (6, 2.0), (5, 1.0)]:
            H = build_long_range_ising(n, 3.0, 1.0, B)
            info = ground_state(assemble_dense(H))
            assert 0.0 < info.gap <= 2.0 * local_energy_g(H) + 1e-9

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "cross-pair"])
    def test_non_finite_dense_input_raises(self, where):
        # (0, 1) couples the even and odd parity sectors of diag(1, 2, 3, 4)
        M = np.diag([1.0, 2.0, 3.0, 4.0])
        M[where] = M[where[::-1]] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            ground_state(M)

    @pytest.mark.parametrize(
        "H",
        [
            build_long_range_ising(1, 3.0, 1.0, 2.0),
            build_long_range_ising(2, 3.0, 1.0, 2.0),
            build_long_range_ising(6, 3.0, 1.0, 2.0),
            build_long_range_ising(7, 3.0, 1.0, 2.0),
            build_long_range_ising(8, 3.0, 1.0, 2.0),
            build_long_range_ising(8, 3.0, 1.0, 0.7),
            build_long_range_fermion_chain(8, 3.0, 1.0, 0.5),
            diagonal_chain(6),
        ],
        ids=["ising-n1-B2", "ising-n2-B2", "ising-n6-B2", "ising-n7-B2", "ising-n8-B2", "ising-n8-B0.7", "fermion-n8", "diagonal-n6"],
    )
    def test_sparse_solve_matches_dense(self, H):
        # The Ising gap is to the odd spin-flip sector: a start vector
        # confined to one sector would report a wrong gap here.  Solved per
        # parity sector and as the one sector of the full CSR; at n = 1 and 2
        # the sectors (dimension 1 and 2) are solved densely.
        dense = ground_state(assemble_dense(H))
        for sparse in (ground_state(sparse_sectors(H)), ground_state(assemble_sparse(H))):
            assert sparse.energy == pytest.approx(dense.energy, abs=1e-10)
            assert sparse.gap == pytest.approx(dense.gap, abs=1e-9)
            assert abs(np.vdot(sparse.state, dense.state)) == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(sparse.state) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_chain_has_its_two_lowest_levels_in_one_sector(self):
        # So its gap comes from the second level of one sector's solve, not from the other sector.
        levels = eigendecompose(assemble_dense(diagonal_chain(6)))
        assert levels.parities()[0] == levels.parities()[1] == 0 and levels.parities()[2] == 1

    def test_odd_ground_state_at_n13_matches_the_full_csr_solve(self):
        # The field B = 2 favours every spin down, popcount 13: the ground state lies in the odd
        # sector, which holds the lowest diagonal entry and so is solved first.  A dense oracle
        # would be a 512 MiB matrix, so the Lanczos solve of the full CSR (one sector of every
        # row) stands in for it.
        H = build_long_range_ising(13, 3.0, 1.0, 2.0)
        full = ground_state(assemble_sparse(H))
        sectors = ground_state(sparse_sectors(H))
        even = spectral.popcount_parity(H.lattice.dim) == 0
        assert not np.any(sectors.state[even])
        assert sectors.energy == pytest.approx(full.energy, abs=1e-10)
        assert sectors.gap == pytest.approx(full.gap, abs=1e-9)
        assert abs(np.vdot(sectors.state, full.state)) == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def spy_eigsh(monkeypatch) -> list[int]:
        """The k of every `eigsh` call from here on, in order."""
        asked, eigsh = [], scipy.sparse.linalg.eigsh

        def spy(*args, **kwargs):
            asked.append(kwargs["k"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
        return asked

    def test_second_sector_is_asked_for_one_level(self, monkeypatch):
        # Its second level lies above its first, which already bounds the gap.
        H = build_long_range_ising(10, 3.0, 1.0, 2.0)
        asked = self.spy_eigsh(monkeypatch)
        ground_state(sparse_sectors(H))
        assert asked == [2, 1]
        asked.clear()
        ground_state(assemble_sparse(H))  # one block: both levels from it
        assert asked == [2]

    def test_a_sector_below_the_first_is_solved_again_for_two_levels(self, monkeypatch):
        # The fermion diagonal is zero, so the even sector is solved first, but at n=10, B=0.5
        # the ground state is odd: the odd sector's one level lies below the even ground
        # level, and that sector is solved again for its second level.
        H = build_long_range_fermion_chain(10, 3.0, 1.0, 0.5)
        asked = self.spy_eigsh(monkeypatch)
        sparse = ground_state(sparse_sectors(H))
        assert asked == [2, 1, 2]
        assert not np.any(sparse.state[spectral.popcount_parity(H.lattice.dim) == 0])
        dense = ground_state(assemble_dense(H))
        assert sparse.energy == pytest.approx(dense.energy, abs=1e-10)
        assert sparse.gap == pytest.approx(dense.gap, abs=1e-9)
        assert abs(np.vdot(sparse.state, dense.state)) == pytest.approx(1.0, abs=1e-9)

    def test_sparse_two_dim_input(self):
        # Below ARPACK's k < dim limit the sparse input is solved densely.
        info = ground_state(assemble_sparse(build_long_range_ising(1, 3.0, 1.0, 2.0)))
        assert info.energy == pytest.approx(-2.0)
        assert info.gap == pytest.approx(4.0)

    @pytest.mark.parametrize("n", [4, 6])
    def test_sparse_solve_detects_degeneracy(self, n):
        # B = 0: exact double degeneracy split across parity sectors
        H = build_long_range_ising(n, 3.0, 1.0, 0.0)
        with pytest.raises(DegenerateGroundStateError):
            ground_state(assemble_sparse(H))
        with pytest.raises(DegenerateGroundStateError):
            ground_state(sparse_sectors(H))


def window_projector(S, mask) -> np.ndarray:
    V = dense_eigenvectors(S)[:, mask]
    return V @ V.conj().T


class TestIntervalProjector:
    """Spectral projectors selected by `in_window` masks."""

    def test_full_interval_is_identity(self):
        S = eigendecompose(PAULI_Z)
        np.testing.assert_allclose(window_projector(S, in_window(S.eigenvalues)), np.eye(2), atol=1e-12)

    def test_empty_interval_zero(self):
        S = eigendecompose(PAULI_Z)
        P = window_projector(S, in_window(S.eigenvalues, lo=2.0, hi=3.0))
        np.testing.assert_array_equal(P, np.zeros((2, 2)))

    def test_sigma_z_negative_sector(self):
        S = eigendecompose(PAULI_Z)
        P = window_projector(S, in_window(S.eigenvalues, hi=0.0))
        assert np.trace(P) == pytest.approx(1.0)
        np.testing.assert_allclose(P, np.diag([0.0, 1.0]), atol=1e-12)

    def test_projector_properties(self, rng):
        M = rng.standard_normal((12, 12))
        M = M + M.T
        S = eigendecompose(M)
        P = window_projector(S, in_window(S.eigenvalues, lo=-1.0, hi=1.0))
        assert np.max(np.abs(P @ P - P)) <= 1e-10
        assert np.max(np.abs(P - P.conj().T)) <= 1e-10
        expected_rank = int(np.sum((S.eigenvalues >= -1.0) & (S.eigenvalues <= 1.0)))
        assert np.trace(P) == pytest.approx(expected_rank, abs=1e-9)

    def test_leq_gt_partition_of_identity(self, rng):
        M = rng.standard_normal((10, 10))
        M = M + M.T
        S = eigendecompose(M)
        for x in np.linspace(S.eigenvalues[0] - 1, S.eigenvalues[-1] + 1, 7):
            leq = in_window(S.eigenvalues, hi=x)
            total = window_projector(S, leq) + window_projector(S, ~leq)
            np.testing.assert_allclose(total, np.eye(10), atol=1e-10)

    def test_open_vs_closed_endpoints(self):
        # the window is closed; "above x" and "below x" are its open complements
        w = np.array([0.0, 1.0, 1.0, 2.0])
        assert in_window(w, hi=1.0).sum() == 3
        assert (~in_window(w, hi=1.0)).sum() == 1
        assert in_window(w, lo=1.0).sum() == 3
        assert (~in_window(w, lo=1.0)).sum() == 1

    def test_ties_within_tolerance(self):
        # eigensolver noise around a threshold never moves a level across it
        w = np.array([1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.0 + 0.5 * ENERGY_TIE_TOL])
        assert in_window(w, hi=1.0).all() and in_window(w, lo=1.0).all()
        assert not in_window(np.array([1.0 + 2 * ENERGY_TIE_TOL]), hi=1.0).any()
        assert not in_window(np.array([1.0 - 2 * ENERGY_TIE_TOL]), lo=1.0).any()


class TestTopSingularValue:
    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (7, 0)])
    def test_empty_is_zero(self, shape):
        assert top_singular_value(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5)])
    def test_non_finite_input_never_finite(self, rng, shape, bad):
        A = rng.standard_normal(shape)
        A[1, 2] = bad
        try:
            value = top_singular_value(A)
        except (ValueError, np.linalg.LinAlgError):
            return
        assert np.isnan(value)

    def test_overflowing_gram_never_finite(self, rng):
        A = 1e200 * rng.standard_normal((6, 4))
        try:
            with np.errstate(over="ignore"):
                value = top_singular_value(A)
        except (ValueError, np.linalg.LinAlgError):
            return
        assert np.isnan(value)


@settings(max_examples=60, deadline=None)
@given(
    flips=st.lists(
        st.tuples(
            st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3, unique=True),
            st.one_of(st.sampled_from([0.0, -1.0, 0.5]), st.floats(min_value=-3.0, max_value=3.0)),
        ),
        max_size=6,
    ),
    extra=st.integers(min_value=0, max_value=2),
)
# Frustrated: the eigenvalues run from -3 (z = 0) to 1, so the norm needs the |.|.
@example(flips=[([1, 2], -1.0), ([2, 3], -1.0), ([1, 3], -1.0)], extra=0)
def test_property_flip_sum_norm_matches_kron_oracle(flips, extra):
    # Each flip is c X on 1-3 of n <= 8 sites; site s is bit n - s of a mask, as in the Kronecker order.
    n = min(8, max((max(support) for support, _ in flips), default=1) + extra)
    oracle = np.zeros((2**n, 2**n))
    for support, c in flips:
        oracle += c * kron_chain(n, {s: PAULI_X for s in support})
    masks = [(sum(1 << (n - s) for s in support), c) for support, c in flips]
    expected = float(np.max(np.abs(np.linalg.eigvalsh(oracle))))
    assert flip_sum_norm(n, masks) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "flips", [[(0b11, 1e308), (0b11, 1e308)], [(0b01, 1e308), (0b10, 1e308)], [(0b01, 1e308), (0b01, -np.inf)]]
)
def test_flip_sum_norm_of_an_overflowing_sum_is_nan(flips):
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(flip_sum_norm(2, flips))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rows=st.integers(min_value=1, max_value=40),
    aspect=st.sampled_from(["tall", "square", "wide"]),
    field=st.sampled_from(["real", "complex"]),
    rank1=st.booleans(),
    scale=st.sampled_from([1.0, 1e-8]),
)
def test_property_top_singular_value_matches_svd(seed, rows, aspect, field, rank1, scale):
    rng = np.random.default_rng(seed)
    cols = {"tall": max(1, rows // 3), "square": rows, "wide": 2 * rows + 1}[aspect]

    def draw(*shape):
        out = rng.standard_normal(shape)
        return out + 1j * rng.standard_normal(shape) if field == "complex" else out

    A = np.outer(draw(rows), draw(cols).conj()) if rank1 else draw(rows, cols)
    A = scale * A
    expected = np.linalg.svd(A, compute_uv=False)[0]
    assert top_singular_value(A) == pytest.approx(expected, rel=1e-12, abs=0.0)


def random_unitary(rng, dim: int, field: str) -> np.ndarray:
    """Q factor of a Gaussian matrix: a random orthogonal or unitary."""
    G = rng.standard_normal((dim, dim))
    if field == "complex":
        G = G + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(G)[0]


def random_mask(rng, dim: int, count: int) -> np.ndarray:
    mask = np.zeros(dim, dtype=bool)
    mask[rng.choice(dim, size=count, replace=False)] = True
    return mask


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    dim=st.integers(min_value=1, max_value=24),
    field=st.sampled_from(["real", "complex"]),
    past_dim=st.booleans(),
)
def test_property_unitary_block_norm_matches_gram_kernel(seed, dim, field, past_dim):
    rng = np.random.default_rng(seed)
    W = random_unitary(rng, dim, field)
    # a rank sum on the requested side of dim
    r = int(rng.integers(1, dim + 1)) if past_dim else int(rng.integers(0, dim + 1))
    c = int(rng.integers(dim - r + 1, dim + 1)) if past_dim else int(rng.integers(0, dim - r + 1))
    rows, cols = random_mask(rng, dim, r), random_mask(rng, dim, c)
    expected = top_singular_value(W[np.ix_(rows, cols)])
    # The same block as a corner of a unitary: the chosen rows last, the chosen columns first.
    P = W[np.concatenate([np.flatnonzero(~rows), np.flatnonzero(rows)])]
    P = P[:, np.concatenate([np.flatnonzero(cols), np.flatnonzero(~cols)])]
    [value] = unitary_block_norms(P, [(dim - r, c)])
    assert abs(value - expected) <= 1e-12
    if past_dim:
        assert value == 1.0


class TestUnitaryBlockNorm:
    def test_non_finite_entry_gives_nan(self, rng):
        W = random_unitary(rng, 8, "real")
        W[5, 6] = np.nan
        # The first corner misses the NaN; the second has a rank sum past dim.
        values = unitary_block_norms(W, [(6, 2), (2, 8)])
        assert len(values) == 2 and all(np.isnan(v) for v in values)

    def test_empty_masks_give_zero(self, rng):
        W = random_unitary(rng, 8, "complex")
        assert unitary_block_norms(W, [(8, 8), (0, 0), (8, 0)]) == [0.0, 0.0, 0.0]

    def test_each_corner_is_read_in_order(self, rng):
        W = random_unitary(rng, 8, "complex")
        corners = [(5, 2), (0, 1), (3, 6), (6, 5)]
        expected = [top_singular_value(W[r:, :c]) if (8 - r) + c <= 8 else 1.0 for r, c in corners]
        assert unitary_block_norms(W, corners) == expected
        assert unitary_block_norms(W, []) == []


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), dim=st.integers(min_value=2, max_value=12))
def test_property_weyl_inequality(seed, dim):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    A = A + A.T
    B = rng.standard_normal((dim, dim))
    B = B + B.T
    wa, wb = np.linalg.eigvalsh(A), np.linalg.eigvalsh(B)
    diff_norm = np.max(np.abs(np.linalg.eigvalsh(A - B)))
    assert np.max(np.abs(wa - wb)) <= diff_norm + 1e-9


def popcount_parity(dim: int) -> np.ndarray:
    """Parity of the number of set bits of each index 0 .. dim-1 (string count, no bit tricks)."""
    return np.array([bin(i).count("1") % 2 for i in range(dim)])


def parity_conserving(rng, rows: int, cols: int, field: str, hermitian: bool = False) -> np.ndarray:
    """Gaussian matrix with every entry between indices of unequal parity set to zero."""
    A = rng.standard_normal((rows, cols))
    if field == "complex":
        A = A + 1j * rng.standard_normal((rows, cols))
    if hermitian:
        A = A + A.conj().T
    A = A / np.sqrt(max(rows, cols))
    return A * (popcount_parity(rows)[:, None] == popcount_parity(cols)[None, :])


def unsplit_gram_top(A: np.ndarray) -> float:
    """`top_singular_value` without the split: the Gram kernel on the whole matrix."""
    gram = A.conj().T @ A if A.shape[0] >= A.shape[1] else A @ A.conj().T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def schmidt_reshape(O: np.ndarray, cut: int) -> np.ndarray:
    dL = 2**cut
    dR = O.shape[0] // dL
    return O.reshape(dL, dR, dL, dR).transpose(0, 2, 1, 3).reshape(dL * dL, dR * dR)


def unsplit_schmidt_rank(O: np.ndarray, cut: int) -> int:
    return numerical_rank(np.linalg.svd(schmidt_reshape(O, cut), compute_uv=False))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    log_dim=st.integers(min_value=2, max_value=6),
    field=st.sampled_from(["real", "complex"]),
)
def test_property_split_spectrum_matches_unsplit_oracle(seed, log_dim, field):
    rng = np.random.default_rng(seed)
    dim = 2**log_dim
    M = parity_conserving(rng, dim, dim, field, hermitian=True)
    assert len(parity_sectors(M)) == 2
    expected = np.linalg.eigvalsh(M)
    S = eigendecompose(M)
    assert np.all(np.diff(S.eigenvalues) >= 0.0)
    assert np.max(np.abs(S.eigenvalues - expected)) <= 1e-12
    U = dense_eigenvectors(S)
    assert np.max(np.abs(U.conj().T @ U - np.eye(dim))) <= 1e-12
    assert np.max(np.abs(reconstruct(S) - M)) <= 1e-12
    assert abs(top_singular_value(M) - np.linalg.svd(M, compute_uv=False)[0]) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    log_rows=st.integers(min_value=1, max_value=6),
    log_cols=st.integers(min_value=1, max_value=6),
    field=st.sampled_from(["real", "complex"]),
)
def test_property_split_singular_values_match_unsplit_oracle(seed, log_rows, log_cols, field):
    rng = np.random.default_rng(seed)
    A = parity_conserving(rng, 2**log_rows, 2**log_cols, field)
    sectors = parity_sectors(A)
    assert len(sectors) == 2
    for rows, cols, block in sectors:
        assert np.array_equal(block, A[np.ix_(rows, cols)])
    split = np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) for _, _, b in sectors]))[::-1]
    expected = np.linalg.svd(A, compute_uv=False)
    assert np.max(np.abs(split - expected)) <= 1e-12
    assert abs(top_singular_value(A) - expected[0]) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=6),
    words=st.integers(min_value=1, max_value=6),
    field=st.sampled_from(["real", "complex"]),
    hermitian=st.booleans(),
)
def test_property_split_schmidt_rank_matches_unsplit_oracle(seed, n, words, field, hermitian):
    # A sum of `words` products of parity-conserving factors conserves parity
    # and has operator Schmidt rank at most `words` across the factor cut;
    # O + O^dag has at most twice that.  A real O + O^T is exactly symmetric
    # and takes the swap split on top of the parity split.
    rng = np.random.default_rng(seed)
    cut = int(rng.integers(1, n))
    O = sum(
        np.kron(parity_conserving(rng, 2**cut, 2**cut, field), parity_conserving(rng, 2 ** (n - cut), 2 ** (n - cut), field))
        for _ in range(words)
    )
    if hermitian:
        O = O + O.conj().T
        # A Hermitian O is symmetric exactly when it is real: always for a real
        # field, and for a complex one when n = 2 makes both factors diagonal.
        assert np.array_equal(O, O.T) == (field == "real" or not O.imag.any())
    assert len(parity_sectors(schmidt_reshape(O, cut))) == 2
    assert operator_schmidt_rank(O, cut) == unsplit_schmidt_rank(O, cut)


class TestParitySectors:
    def test_sector_indices_are_popcount_parity(self):
        parity = popcount_parity(16)
        (even_r, _, _), (odd_r, _, _) = parity_sectors(np.eye(16))
        assert np.array_equal(even_r, np.flatnonzero(parity == 0))
        assert np.array_equal(odd_r, np.flatnonzero(parity == 1))

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_tiny_cross_entry_keeps_the_unsplit_result(self, rng, field):
        M = parity_conserving(rng, 16, 16, field, hermitian=True)
        M[0, 1] = 1e-300  # index 0 is even, index 1 odd
        M[1, 0] = np.conj(M[0, 1])
        assert len(parity_sectors(M)) == 1
        w, U = np.linalg.eigh(M)
        S = eigendecompose(M)
        assert np.array_equal(S.eigenvalues, w) and np.array_equal(dense_eigenvectors(S), U)
        assert top_singular_value(M) == float(np.max(np.abs(np.linalg.eigvalsh(M))))
        assert operator_schmidt_rank(M, 2) == unsplit_schmidt_rank(M, 2)

    @pytest.mark.parametrize("dim", [3, 6, 12, 24])
    def test_dimension_not_a_power_of_two_stays_unsplit(self, rng, dim):
        M = parity_conserving(rng, dim, dim, "real", hermitian=True)
        assert len(parity_sectors(M)) == 1
        w, U = np.linalg.eigh(M)
        S = eigendecompose(M)
        assert np.array_equal(S.eigenvalues, w) and np.array_equal(dense_eigenvectors(S), U)
        # The matrix decides the path: a Hermitian one is read by `eigvalsh`, any other by its Gram.
        assert top_singular_value(M) == float(np.max(np.abs(np.linalg.eigvalsh(M))))
        A = parity_conserving(rng, dim, 8, "complex")
        assert top_singular_value(A) == unsplit_gram_top(A)
        N = parity_conserving(rng, dim, dim, "real")
        assert top_singular_value(N) == unsplit_gram_top(N)

    @pytest.mark.parametrize("cross", [(0, 1), (1, 0)], ids=["even-rows-odd-cols", "odd-rows-even-cols"])
    def test_either_cross_block_alone_keeps_the_matrix_whole(self, rng, cross):
        # `cross` is the (row, column) parity of the one nonzero cross block.
        # Only a non-Hermitian matrix can have one, so this is the case that
        # tells a check of both cross blocks from a check of one.
        A = parity_conserving(rng, 8, 16, "real")
        A[cross] = 1.0  # index 0 has parity 0, index 1 parity 1
        assert len(parity_sectors(A)) == 1
        assert top_singular_value(A) == pytest.approx(np.linalg.svd(A, compute_uv=False)[0], rel=1e-12)
        # A rank-one parity-conserving product plus one unit whose Schmidt
        # reshape lands in the same cross block: rank 2, and 1 if split.
        O = np.kron(np.diag([1.0, 2.0]), np.diag([1.0, 3.0]))
        O[(0, 1) if cross == (0, 1) else (2, 0)] = 1.0
        R = schmidt_reshape(O, 1)
        parity = popcount_parity(4)
        assert [(parity[r], parity[c]) for r, c in zip(*np.nonzero(R)) if parity[r] != parity[c]] == [cross]
        assert len(parity_sectors(R)) == 1
        assert operator_schmidt_rank(O, 1) == unsplit_schmidt_rank(O, 1) == 2


class TestSwapSplit:
    """`operator_schmidt_rank` splits the reshape of an exactly symmetric real operator by the pair swap."""

    @staticmethod
    def spy(monkeypatch) -> list[tuple]:
        """Shapes of the blocks of every `_swap_halves` call."""
        calls = []
        halves = spectral._swap_halves

        def counted(*args):
            out = halves(*args)
            calls.append(tuple(b.shape for b in out))
            return out

        monkeypatch.setattr(spectral, "_swap_halves", counted)
        return calls

    @staticmethod
    def low_rank(rng, n, cut, words, field="real"):
        """A generic sum of `words` products across the cut: no parity conservation."""

        def draw(d):
            M = rng.standard_normal((d, d))
            return M if field == "real" else M + 1j * rng.standard_normal((d, d))

        return sum(np.kron(draw(2**cut), draw(2 ** (n - cut))) for _ in range(words))

    def test_parity_conserving_symmetric_splits_four_ways(self, rng, monkeypatch):
        calls = self.spy(monkeypatch)
        O = parity_conserving(rng, 256, 256, "real", hermitian=True)
        assert np.array_equal(O, O.T)
        assert operator_schmidt_rank(O, 4) == unsplit_schmidt_rank(O, 4) == 256
        # even sector: 16 diagonal + 56 same-parity pairs (72 symmetric, 56 antisymmetric);
        # odd sector: 64 mixed pairs each way.
        assert calls == [((72, 72), (56, 56)), ((64, 64), (64, 64))]

    def test_symmetric_parity_breaking_splits_by_swap_alone(self, rng, monkeypatch):
        calls = self.spy(monkeypatch)
        A = self.low_rank(rng, 4, 2, 3)
        O = A + A.T
        assert np.array_equal(O, O.T) and len(parity_sectors(schmidt_reshape(O, 2))) == 1
        assert operator_schmidt_rank(O, 2) == unsplit_schmidt_rank(O, 2) == 6
        assert calls == [((10, 10), (6, 6))]

    def test_non_symmetric_takes_no_swap_split(self, rng, monkeypatch):
        calls = self.spy(monkeypatch)
        O = self.low_rank(rng, 4, 2, 3)
        assert not np.array_equal(O, O.T)
        assert operator_schmidt_rank(O, 2) == unsplit_schmidt_rank(O, 2) == 3
        assert calls == []

    def test_complex_hermitian_takes_no_swap_split(self, rng, monkeypatch):
        calls = self.spy(monkeypatch)
        A = self.low_rank(rng, 4, 2, 2, field="complex")
        O = A + A.conj().T
        assert np.array_equal(O, O.conj().T) and not np.array_equal(O, O.T)
        assert operator_schmidt_rank(O, 2) == unsplit_schmidt_rank(O, 2) == 4
        assert calls == []


def _expect_loud(kernel, M):
    """`M` is a dense matrix or a list of (rows, block) sectors."""
    if kernel == "top_singular_value":
        assert np.isnan(top_singular_value(M if isinstance(M, np.ndarray) else [block for _, block in M]))
        return
    solve = {
        "eigendecompose": eigendecompose,
        "operator_schmidt_rank": lambda A: operator_schmidt_rank(A, 1),
    }[kernel]
    with pytest.raises(np.linalg.LinAlgError):
        solve(M)


@pytest.mark.parametrize("kernel", ["eigendecompose", "top_singular_value", "operator_schmidt_rank"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "form, where",
    [("dense", w) for w in [(0, 0), (3, 3), (1, 1), (2, 2), (0, 1), (3, 2)]]
    + [("sectors", w) for w in [(0, 0), (1, 1), (0, 3), (1, 2)]],
)
def test_non_finite_entry_fails_loudly_through_the_split(kernel, bad, form, where):
    # diag(1, 2, 3, 4): indices 0, 3 form the even sector, 1, 2 the odd one;
    # (0, 1) and (3, 2) are cross entries.  The unsplit `eigvalsh` returns
    # 4.0 for a NaN at (0, 0); no kernel may return a finite number, neither
    # for the matrix nor for its two sectors as `hamiltonian.embed_sectors`
    # writes them (a sum of finite terms that overflows gives inf).
    M = np.diag([1.0, 2.0, 3.0, 4.0])
    M[where] = bad
    M[where[::-1]] = bad
    if form == "sectors":
        M = [(rows, M[np.ix_(rows, rows)]) for rows in parity_halves(4)]
    _expect_loud(kernel, M)


def sector_case(rng, case: str, dim: int = 32) -> tuple[np.ndarray, SpectralData]:
    """A Hermitian matrix and its decomposition: split in two sectors, or one sector.

    "split" is parity conserving; "complex" is a dense complex unitary as the one
    sector of a `SpectralData`; "cross-entry" is parity conserving but for one pair of
    cross entries, so it does not split.
    """
    if case == "complex":
        Q = random_unitary(rng, dim, "complex")
        w = np.sort(rng.standard_normal(dim))
        return (Q * w) @ Q.conj().T, one_sector_spectrum(w, Q)
    M = parity_conserving(rng, dim, dim, "real", hermitian=True)
    if case == "cross-entry":
        M[0, 1] = M[1, 0] = 0.25  # index 0 is even, index 1 odd
    return M, eigendecompose(M)


class TestSectorStorage:
    """`SpectralData` keeps each sector's eigenvectors as their own block."""

    def test_split_spectrum_stores_at_most_half_the_eigenvector_entries(self):
        M = assemble_dense(build_long_range_ising(6, 3.0, 1.0, 2.0))
        assert len(parity_sectors(M)) == 2
        S = eigendecompose(M)
        assert sum(a.size for a in held_matrices(S)) <= M.size // 2

    @pytest.mark.parametrize("case", ["split", "complex", "cross-entry"])
    def test_sector_count(self, rng, case):
        _, S = sector_case(rng, case)
        assert len(S.sectors) == (2 if case == "split" else 1)
        for sec in S.sectors:
            assert np.all(np.diff(sec.positions) > 0) and sec.vectors.shape == (len(sec.rows), len(sec.positions))

    @pytest.mark.parametrize("case", ["split", "complex", "cross-entry"])
    def test_columns_and_apply_function_match_the_unsplit_oracle(self, rng, case):
        M, S = sector_case(rng, case)
        w, V = np.linalg.eigh(M)
        assert np.max(np.abs(S.eigenvalues - w)) <= 1e-12
        # Column phases are free: compare the projectors onto the columns read.
        for positions in ([0], [0, 1], np.arange(5, 20), np.arange(32)):
            C, D = S.columns(positions), V[:, positions]
            assert np.max(np.abs(C @ C.conj().T - D @ D.conj().T)) <= 1e-12

        def f(x):
            return math.exp(-0.5 * x) - x**2

        expected = (V * np.array([f(x) for x in w])) @ V.conj().T
        assert np.max(np.abs(S.apply_function(f) - expected)) <= 1e-12
        # The clamp of `effective.energy_cutoff`: every level above the median set to it.
        tau = float(np.median(w))
        clamped = (V * np.minimum(w, tau)) @ V.conj().T
        assert np.max(np.abs(S.matrix_of(np.minimum(S.eigenvalues, tau)) - clamped)) <= 1e-12

    @pytest.mark.parametrize("operator", ["parity-conserving", "cross-entry"])
    @pytest.mark.parametrize("case", ["split", "complex", "cross-entry"])
    def test_images_match_the_unsplit_product(self, rng, case, operator):
        M, S = sector_case(rng, case)
        A = parity_conserving(rng, 32, 32, "real")
        if operator == "cross-entry":
            A[2, 0] = 0.5  # even column 0 to odd row 2
        below, above = np.arange(11), np.arange(20, 32)
        parts = S.images(below, lambda X: A @ X)
        split = case == "split" and operator == "parity-conserving"
        assert len(parts) == (2 if split else 1)
        if split:
            assert [len(rows) for _, rows, _ in parts] == [16, 16]
        _, V = np.linalg.eigh(M)
        image = A @ V[:, below]
        got = float(np.max([top_singular_value(Y) for _, _, Y in parts]))
        assert abs(got - np.linalg.norm(image, 2)) <= 1e-12
        got = float(np.max([top_singular_value(sec.columns(above).conj().T @ Y) for sec, _, Y in parts]))
        assert abs(got - np.linalg.norm(V[:, above].conj().T @ image, 2)) <= 1e-12

    @pytest.mark.parametrize("nan_row", ["read", "not-read"])
    def test_a_nan_counts_as_nonzero_in_the_split_decision(self, rng, nan_row):
        _, S = sector_case(rng, "split")
        A = parity_conserving(rng, 32, 32, "real")
        calls = []

        def apply(X):
            Y = A @ X
            if not calls:  # the first sector's image: a NaN on a row of its own parity, or of the other
                Y[np.flatnonzero(np.any(Y != 0, axis=1) == (nan_row == "read"))[0]] = np.nan
            calls.append(X.shape)
            return Y

        parts = S.images(np.arange(11), apply)
        if nan_row == "read":
            assert len(parts) == 2 and np.isnan(parts[0][2]).any()
        else:
            assert len(parts) == 1 and len(parts[0][1]) == 32 and not np.isnan(parts[0][2]).any()
