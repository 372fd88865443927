import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsplab.hamiltonian import (
    assemble_dense,
    build_long_range_ising,
    local_energy_g,
    spin_flip_parity_indices,
)
from agsplab.spectral import (
    DegenerateGroundStateError,
    eigendecompose,
    ground_state,
    interval_projector,
    lowest_eigenpairs,
    proj_gt,
    proj_leq,
    sector_ground_state,
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

    @pytest.mark.parametrize("n,B", [(6, 2.0), (8, 2.0), (8, 0.7)])
    def test_parity_sector_solve_matches_full(self, n, B):
        dense = assemble_dense(build_long_range_ising(n, 3.0, 1.0, B))
        full = ground_state(dense)
        sector = sector_ground_state(dense.copy(), spin_flip_parity_indices(n))
        assert sector.energy == pytest.approx(full.energy, abs=1e-10)
        assert sector.gap == pytest.approx(full.gap, abs=1e-9)
        assert abs(np.vdot(sector.state, full.state)) == pytest.approx(1.0, abs=1e-9)

    def test_sector_solve_detects_degeneracy(self):
        # B = 0: exact double degeneracy split across parity sectors
        dense = assemble_dense(build_long_range_ising(4, 3.0, 1.0, 0.0))
        with pytest.raises(DegenerateGroundStateError):
            sector_ground_state(dense, spin_flip_parity_indices(4))


class TestIntervalProjector:
    def test_full_interval_is_identity(self):
        S = eigendecompose(PAULI_Z)
        np.testing.assert_allclose(interval_projector(S), np.eye(2), atol=1e-12)

    def test_empty_interval_zero(self):
        S = eigendecompose(PAULI_Z)
        np.testing.assert_array_equal(interval_projector(S, lo=2.0, hi=3.0), np.zeros((2, 2)))

    def test_sigma_z_negative_sector(self):
        S = eigendecompose(PAULI_Z)
        P = interval_projector(S, hi=0.0)
        assert np.trace(P) == pytest.approx(1.0)
        np.testing.assert_allclose(P, np.diag([0.0, 1.0]), atol=1e-12)

    def test_projector_properties(self, rng):
        M = rng.standard_normal((12, 12))
        M = M + M.T
        S = eigendecompose(M)
        P = interval_projector(S, lo=-1.0, hi=1.0)
        assert np.max(np.abs(P @ P - P)) <= 1e-10
        assert np.max(np.abs(P - P.conj().T)) <= 1e-10
        expected_rank = int(np.sum((S.eigenvalues >= -1.0) & (S.eigenvalues <= 1.0)))
        assert np.trace(P) == pytest.approx(expected_rank, abs=1e-9)

    def test_leq_gt_partition_of_identity(self, rng):
        M = rng.standard_normal((10, 10))
        M = M + M.T
        S = eigendecompose(M)
        for x in np.linspace(S.eigenvalues[0] - 1, S.eigenvalues[-1] + 1, 7):
            np.testing.assert_allclose(proj_leq(S, x) + proj_gt(S, x), np.eye(10), atol=1e-10)

    def test_open_vs_closed_endpoints(self):
        S = eigendecompose(np.diag([0.0, 1.0, 1.0, 2.0]))
        assert np.trace(interval_projector(S, hi=1.0, include_hi=True)) == pytest.approx(3.0)
        assert np.trace(interval_projector(S, hi=1.0, include_hi=False)) == pytest.approx(1.0)
        assert np.trace(interval_projector(S, lo=1.0, include_lo=True)) == pytest.approx(3.0)
        assert np.trace(interval_projector(S, lo=1.0, include_lo=False)) == pytest.approx(1.0)


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
