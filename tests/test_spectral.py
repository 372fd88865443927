import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsplab.hamiltonian import (
    assemble_dense,
    assemble_sparse,
    build_long_range_fermion_chain,
    build_long_range_ising,
    local_energy_g,
)
from agsplab.spectral import (
    ENERGY_TIE_TOL,
    DegenerateGroundStateError,
    eigendecompose,
    ground_state,
    in_window,
    lowest_eigenpairs,
    top_singular_value,
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

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

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

    def test_lowest_eigenpairs_preserves_input(self):
        H = assemble_dense(build_long_range_ising(4, 3.0, 1.0, 2.0))
        copy = H.copy()
        lowest_eigenpairs(H, count=2)
        np.testing.assert_array_equal(H, copy)

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
