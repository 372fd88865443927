import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsplab.agsp import operator_schmidt_rank, rank_threshold
from agsplab.hamiltonian import (
    assemble_dense,
    assemble_sparse,
    build_long_range_fermion_chain,
    build_long_range_ising,
    local_energy_g,
    parity_sectors,
    spectral_norm,
)
from agsplab.spectral import (
    ENERGY_TIE_TOL,
    DegenerateGroundStateError,
    eigendecompose,
    ground_state,
    in_window,
    top_singular_value,
    unitary_block_norm,
)
from conftest import PAULI_X, PAULI_Z

# Frozen at first run: gap of the n=8, alpha=3, J=1, B=2 chain.
GAP_N8_A3_J1_B2 = 2.397328047305237


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
        assert np.max(np.abs(S.reconstruct() - M)) <= 1e-9 * scale
        gram = S.eigenvectors.conj().T @ S.eigenvectors
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
            build_long_range_ising(6, 3.0, 1.0, 2.0),
            build_long_range_ising(8, 3.0, 1.0, 2.0),
            build_long_range_ising(8, 3.0, 1.0, 0.7),
            build_long_range_fermion_chain(8, 3.0, 1.0, 0.5),
        ],
        ids=["ising-n6-B2", "ising-n8-B2", "ising-n8-B0.7", "fermion-n8"],
    )
    def test_sparse_solve_matches_dense(self, H):
        # The Ising gap is to the odd spin-flip sector: a start vector
        # confined to one sector would report a wrong gap here.
        dense = ground_state(assemble_dense(H))
        sparse = ground_state(assemble_sparse(H))
        assert sparse.energy == pytest.approx(dense.energy, abs=1e-10)
        assert sparse.gap == pytest.approx(dense.gap, abs=1e-9)
        assert abs(np.vdot(sparse.state, dense.state)) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(sparse.state) == pytest.approx(1.0, abs=1e-12)

    def test_sparse_two_dim_input(self):
        # Below ARPACK's k < dim limit the sparse input is solved densely.
        info = ground_state(assemble_sparse(build_long_range_ising(1, 3.0, 1.0, 2.0)))
        assert info.energy == pytest.approx(-2.0)
        assert info.gap == pytest.approx(4.0)

    @pytest.mark.parametrize("n", [4, 6])
    def test_sparse_solve_detects_degeneracy(self, n):
        # B = 0: exact double degeneracy split across parity sectors
        H = assemble_sparse(build_long_range_ising(n, 3.0, 1.0, 0.0))
        with pytest.raises(DegenerateGroundStateError):
            ground_state(H)


def window_projector(S, mask) -> np.ndarray:
    V = S.eigenvectors[:, mask]
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
    value = unitary_block_norm(W, rows, cols)
    assert abs(value - expected) <= 1e-12
    if past_dim:
        assert value == 1.0


class TestUnitaryBlockNorm:
    def test_non_finite_entry_gives_nan(self, rng):
        W = random_unitary(rng, 8, "real")
        W[5, 6] = np.nan
        rows, cols = np.zeros(8, dtype=bool), np.zeros(8, dtype=bool)
        rows[:2], cols[:2] = True, True  # the NaN lies outside the block
        assert np.isnan(unitary_block_norm(W, rows, cols))
        assert np.isnan(unitary_block_norm(W, ~rows, ~cols))  # rank sum past dim

    def test_empty_masks_give_zero(self, rng):
        W = random_unitary(rng, 8, "complex")
        none, every = np.zeros(8, dtype=bool), np.ones(8, dtype=bool)
        assert unitary_block_norm(W, none, every) == 0.0
        assert unitary_block_norm(W, every, none) == 0.0
        assert unitary_block_norm(W, none, none) == 0.0


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
    svals = np.linalg.svd(schmidt_reshape(O, cut), compute_uv=False)
    return int(np.sum(svals > rank_threshold(svals)))


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
    U = S.eigenvectors
    assert np.max(np.abs(U.conj().T @ U - np.eye(dim))) <= 1e-12
    assert np.max(np.abs(S.reconstruct() - M)) <= 1e-12
    assert abs(spectral_norm(M) - np.max(np.abs(expected))) <= 1e-12
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
)
def test_property_split_schmidt_rank_matches_unsplit_oracle(seed, n, words, field):
    # A sum of `words` products of parity-conserving factors conserves parity
    # and has operator Schmidt rank at most `words` across the factor cut.
    rng = np.random.default_rng(seed)
    cut = int(rng.integers(1, n))
    O = sum(
        np.kron(parity_conserving(rng, 2**cut, 2**cut, field), parity_conserving(rng, 2 ** (n - cut), 2 ** (n - cut), field))
        for _ in range(words)
    )
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
        assert np.array_equal(S.eigenvalues, w) and np.array_equal(S.eigenvectors, U)
        assert spectral_norm(M) == float(np.max(np.abs(np.linalg.eigvalsh(M))))
        assert top_singular_value(M) == unsplit_gram_top(M)
        assert operator_schmidt_rank(M, 2) == unsplit_schmidt_rank(M, 2)

    @pytest.mark.parametrize("dim", [3, 6, 12, 24])
    def test_dimension_not_a_power_of_two_stays_unsplit(self, rng, dim):
        M = parity_conserving(rng, dim, dim, "real", hermitian=True)
        assert len(parity_sectors(M)) == 1
        w, U = np.linalg.eigh(M)
        S = eigendecompose(M)
        assert np.array_equal(S.eigenvalues, w) and np.array_equal(S.eigenvectors, U)
        assert spectral_norm(M) == float(np.max(np.abs(np.linalg.eigvalsh(M))))
        assert top_singular_value(M) == unsplit_gram_top(M)
        A = parity_conserving(rng, dim, 8, "complex")
        assert top_singular_value(A) == unsplit_gram_top(A)

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


def _expect_loud(kernel, M):
    if kernel == "top_singular_value":
        assert np.isnan(top_singular_value(M))
        return
    solve = {
        "spectral_norm": spectral_norm,
        "eigendecompose": eigendecompose,
        "operator_schmidt_rank": lambda A: operator_schmidt_rank(A, 1),
    }[kernel]
    with pytest.raises(np.linalg.LinAlgError):
        solve(M)


@pytest.mark.parametrize("kernel", ["spectral_norm", "eigendecompose", "top_singular_value", "operator_schmidt_rank"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (3, 3), (1, 1), (2, 2), (0, 1), (3, 2)])
def test_non_finite_entry_fails_loudly_through_the_split(kernel, bad, where):
    # diag(1, 2, 3, 4): indices 0, 3 form the even sector, 1, 2 the odd one;
    # (0, 1) and (3, 2) are cross entries.  The unsplit `eigvalsh` returns
    # 4.0 for a NaN at (0, 0); no kernel may return a finite number.
    M = np.diag([1.0, 2.0, 3.0, 4.0])
    M[where] = bad
    M[where[::-1]] = bad
    _expect_loud(kernel, M)
