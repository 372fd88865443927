import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsplab.agsp import (
    AgspReport,
    ChebyshevFilter,
    agsp_filter,
    bootstrap_state,
    chebyshev_T,
    measure_agsp,
    operator_schmidt_rank,
    rank_threshold,
    schmidt_rank_bound_check,
    state_schmidt_rank,
)
from agsplab.effective import build_effective
from agsplab.entanglement import schmidt_decompose
from agsplab.hamiltonian import build_long_range_fermion_chain, build_long_range_ising
from agsplab.truncation import decompose_blocks, shift_block_energies, truncate_interactions
from conftest import (
    PAULI_X,
    chebyshev_matrix_recurrence,
    dense_power_schmidt_rank,
    kron_chain,
    oracle_ground_vector,
)


def make_eff(n=8, l=2, tau=6.0, B=2.0):
    H = build_long_range_ising(n, 3.0, 1.0, B)
    T = shift_block_energies(truncate_interactions(H, decompose_blocks(n, 2, l)))
    return T, build_effective(T, tau)


class TestChebyshev:
    def test_listed_values(self):
        assert chebyshev_T(2, 0.5) == pytest.approx(-0.5)
        assert chebyshev_T(5, 0.3) == pytest.approx(16 * 0.3**5 - 20 * 0.3**3 + 5 * 0.3)
        for m in range(12):
            assert chebyshev_T(m, 1.0) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(min_value=0, max_value=30), x=st.floats(min_value=-1.0, max_value=1.0))
    def test_property_cos_form_inside_box(self, m, x):
        assert chebyshev_T(m, x) == pytest.approx(math.cos(m * math.acos(x)), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(min_value=1, max_value=20), x=st.floats(min_value=1.0, max_value=4.0))
    def test_property_growth_bounds(self, m, x):
        val = abs(chebyshev_T(m, x))
        assert val <= (2 * x) ** m / 2 + 1e-9
        assert val >= 0.5 * math.exp(2 * m * math.sqrt((x - 1) / (x + 1))) - 1e-9

    def test_box_bound(self):
        xs = np.linspace(-1, 1, 501)
        for m in (1, 3, 7, 16):
            assert np.max(np.abs(chebyshev_T(m, xs))) <= 1.0 + 1e-12

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_T(-1, 0.5)


class TestFilter:
    def test_degree_zero_is_identity(self):
        _, eff = make_eff()
        filt = agsp_filter(eff, 0)
        np.testing.assert_allclose(filt.matrix, np.eye(256), atol=1e-12)

    def test_fixes_effective_ground_state(self):
        _, eff = make_eff()
        filt = agsp_filter(eff, 6)
        res = np.linalg.norm(filt.matrix @ filt.fixed_state - filt.fixed_state)
        assert res <= 1e-10

    def test_excited_suppression_bound(self):
        _, eff = make_eff()
        filt = agsp_filter(eff, 6)
        assert filt.excited_residual() <= filt.cheb_bound + 1e-9

    def test_matrix_recurrence_cross_check(self):
        _, eff = make_eff(n=6, l=1, tau=5.0)
        filt = agsp_filter(eff, 5)
        K2 = chebyshev_matrix_recurrence(filt)
        assert np.max(np.abs(filt.matrix - K2)) <= 1e-8

    def test_degenerate_window_rejected(self):
        _, eff = make_eff()

        class Stub:
            eigenvalues = np.array([0.0, 1.0, 1.0 + 1e-14])
            eigenvectors = np.eye(3)
            gap = 1.0
            width = 1.0 + 1e-14

        eff._spectral = Stub()  # the clamp's spectrum is the filter's only source
        with pytest.raises(ValueError):
            agsp_filter(eff, 3)


class TestMeasure:
    def test_identity_filter(self):
        T, eff = make_eff()
        filt = agsp_filter(eff, 0)
        v = oracle_ground_vector(T.assemble_dense())
        rep = measure_agsp(filt, v)
        assert rep.epsilon_K == pytest.approx(1.0, abs=1e-9)
        assert rep.D_K == 1

    def test_exact_projector(self):
        T, eff = make_eff()
        gs = oracle_ground_vector(T.assemble_dense())
        proj = ChebyshevFilter(
            m=0, matrix=np.outer(gs, gs), fixed_state=gs, gap_eff=1.0, width=2.0, eff=eff
        )
        rep = measure_agsp(proj, gs)
        assert rep.delta_K <= 1e-10
        assert rep.epsilon_K <= 1e-10

    def test_broken_fixed_state_rejected(self):
        T, eff = make_eff()
        filt = agsp_filter(eff, 4)
        sp = eff.spectral()
        broken = ChebyshevFilter(
            m=4, matrix=filt.matrix, fixed_state=sp.eigenvectors[:, 1],
            gap_eff=filt.gap_eff, width=filt.width, eff=eff,
        )
        v = oracle_ground_vector(T.assemble_dense())
        with pytest.raises(ValueError, match="does not fix"):
            measure_agsp(broken, v)

    def test_dense_epsilon_equals_eigenbasis_sup(self):
        T, eff = make_eff()
        filt = agsp_filter(eff, 4)
        v = oracle_ground_vector(T.assemble_dense())
        dense = measure_agsp(filt, v).epsilon_K
        assert dense == pytest.approx(filt.excited_residual(), abs=1e-10)

    def test_chebyshev_bound_holds(self):
        T, eff = make_eff()
        v = oracle_ground_vector(T.assemble_dense())
        for m in (2, 4, 6):
            rep = measure_agsp(agsp_filter(eff, m), v)
            assert rep.epsilon_K <= rep.cheb_bound + 1e-9

    def test_pipeline_delta_triangle(self):
        # delta against the untruncated ground state is at most the
        # truncation drift plus the clamping drift
        n = 8
        H = build_long_range_ising(n, 3.0, 1.0, 2.0)
        from agsplab.hamiltonian import assemble_dense

        dense = assemble_dense(H)
        gs = oracle_ground_vector(dense)
        T = shift_block_energies(truncate_interactions(H, decompose_blocks(n, 2, 2)))
        eff = build_effective(T, 6.0)
        vt = oracle_ground_vector(T.assemble_dense())
        from agsplab.truncation import align_phase

        gs_t = align_phase(gs, vt)
        filt = agsp_filter(eff, 6)
        rep = measure_agsp(filt, gs)
        d_trunc = np.linalg.norm(gs - gs_t)
        d_clamp = np.linalg.norm(gs_t - align_phase(gs_t, filt.fixed_state))
        assert rep.delta_K <= d_trunc + d_clamp + 1e-9


class TestOperatorSchmidtRank:
    def test_identity_rank_one(self):
        assert operator_schmidt_rank(np.eye(16), 2) == 1

    def test_filter_rank_is_cached(self, monkeypatch):
        T, eff = make_eff()
        filt = agsp_filter(eff, 4)
        cut = T.blocks.cut
        expected = operator_schmidt_rank(filt.matrix, cut)
        calls = []
        # Counted at the function that owns the solve: it runs one SVD per parity sector.
        from agsplab import agsp

        rank = agsp.operator_schmidt_rank
        monkeypatch.setattr(agsp, "operator_schmidt_rank", lambda *a, **k: calls.append(a[0].shape) or rank(*a, **k))
        assert filt.schmidt_rank() == expected
        assert len(calls) == 1
        assert filt.schmidt_rank() == expected
        assert measure_agsp(filt, filt.fixed_state).D_K == expected
        assert len(calls) == 1

    def test_product_operator_rank_one(self):
        O = kron_chain(4, {1: PAULI_X, 3: PAULI_X})
        assert operator_schmidt_rank(O, 2) == 1

    def test_swap_rank_four(self):
        swap = np.zeros((4, 4))
        for a in range(2):
            for b in range(2):
                swap[2 * b + a, 2 * a + b] = 1.0
        assert operator_schmidt_rank(swap, 1) == 4

    def test_state_rank(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
        assert state_schmidt_rank(bell, 1) == 2
        assert state_schmidt_rank(np.array([1.0, 0, 0, 0]), 1) == 1

    def test_rank_threshold(self):
        assert rank_threshold(np.array([3.0, 1e-11])) == pytest.approx(3e-10)
        assert rank_threshold(np.array([1e-4, 0.0])) == 1e-12

    def test_one_threshold_for_states_and_schmidt_data(self, rng):
        # rank 3 across the 2|3 cut, plus a tail below the relative threshold
        psi = sum(rng.standard_normal(4)[:, None] * rng.standard_normal(8)[None, :] for _ in range(3))
        psi = psi.reshape(-1) + 1e-13 * rng.standard_normal(32)
        psi /= np.linalg.norm(psi)
        assert state_schmidt_rank(psi, 2) == 3
        assert schmidt_decompose(psi, 2).numerical_rank() == 3

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=9999))
    def test_property_product_and_sum_rules(self, seed):
        rng = np.random.default_rng(seed)
        d = 4  # two qubits per side
        A1 = rng.standard_normal((d * d, d * d))
        A2 = rng.standard_normal((d * d, d * d))
        r1 = operator_schmidt_rank(A1, 2)
        r2 = operator_schmidt_rank(A2, 2)
        assert operator_schmidt_rank(A1 @ A2, 2) <= r1 * r2
        assert operator_schmidt_rank(A1 + A2, 2) <= r1 + r2

    def test_cut_enlargement_rule(self, rng):
        # moving one site across the cut costs at most d^2 in rank
        O = rng.standard_normal((16, 16))
        r2 = operator_schmidt_rank(O, 2)
        r1 = operator_schmidt_rank(O, 1)
        r3 = operator_schmidt_rank(O, 3)
        assert r1 <= 4 * r2 and r3 <= 4 * r2


class TestSchmidtRankBounds:
    def test_power_zero(self):
        T, _ = make_eff()
        rep = schmidt_rank_bound_check(T, 0)
        assert rep.measured == 1
        assert rep.measured <= rep.product_bound + 1e-9
        assert rep.measured <= rep.counting_bound + 1e-9

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_n8_powers(self, m):
        T, _ = make_eff()
        rep = schmidt_rank_bound_check(T, m)
        assert rep.measured <= rep.product_bound + 1e-9
        assert rep.measured <= rep.counting_bound + 1e-9

    def test_nearest_neighbor_single_power(self):
        # H with only adjacent-bond terms at l=1: SR(H_t) <= 2 + (2dl)^k = 18
        H = build_long_range_ising(6, 6.0, 1.0, 1.0)
        T = shift_block_energies(truncate_interactions(H, decompose_blocks(6, 2, 1)))
        rep = schmidt_rank_bound_check(T, 1)
        assert rep.measured <= 2 + (2 * 2 * 1) ** 2


class TestPowerSchmidtRank:
    """SR(H_t^m) from the cut factors against the d^n x d^n power."""

    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("family", ["ising", "fermion"])
    def test_matches_dense_power(self, family, n, l):
        if family == "ising":
            H = build_long_range_ising(n, 3.0, 1.0, 2.0)
        else:
            H = build_long_range_fermion_chain(n, 3.0, 1.0, 0.5)
        # One cut with both edge blocks occupied, one with an empty right edge.
        for cut in (l + 1, n - l):
            T = shift_block_energies(truncate_interactions(H, decompose_blocks(n, 2, l, cut)))
            for m in range(4):
                measured = schmidt_rank_bound_check(T, m).measured
                assert measured == dense_power_schmidt_rank(T, m), (cut, m)

    def test_zero_hamiltonian_powers_vanish(self):
        H = build_long_range_ising(6, 3.0, 0.0, 0.0)
        T = truncate_interactions(H, decompose_blocks(6, 2, 2))
        assert [schmidt_rank_bound_check(T, m).measured for m in range(3)] == [1, 0, 0]
        assert [dense_power_schmidt_rank(T, m) for m in range(3)] == [1, 0, 0]

    def test_negative_power_rejected(self):
        T, _ = make_eff(n=6)
        with pytest.raises(ValueError, match="non-negative"):
            schmidt_rank_bound_check(T, -1)


class TestBootstrap:
    def test_reference_instance(self):
        T, eff = make_eff()
        gs_t = oracle_ground_vector(T.assemble_dense())
        filt = agsp_filter(eff, 8)
        psi, diag = bootstrap_state(filt, gs_t, measure_agsp(filt, gs_t))
        assert diag.precondition_met
        assert diag.mu1 >= diag.mu1_floor - 1e-9
        assert diag.distance <= diag.distance_bound + 1e-9
        assert diag.state_rank <= diag.report.D_K

    def test_precondition_failure_returns_none(self):
        T, eff = make_eff()
        v = oracle_ground_vector(T.assemble_dense())
        filt = agsp_filter(eff, 0)  # identity: epsilon = 1, precondition fails
        psi, diag = bootstrap_state(filt, v, measure_agsp(filt, v))
        assert psi is None and not diag.precondition_met

    def test_exact_projector_on_product_ground_state(self):
        # field-only chain: the ground state is a product state, and the
        # exact projector bootstraps it with zero error
        H = build_long_range_ising(4, 3.0, 0.0, 1.0)
        from agsplab.hamiltonian import assemble_dense

        gs = oracle_ground_vector(assemble_dense(H))
        T, eff = make_eff(n=4, l=1, tau=3.0)
        proj = ChebyshevFilter(
            m=1, matrix=np.outer(gs, gs), fixed_state=gs, gap_eff=1.0, width=2.0, eff=eff
        )
        assert eff.base.blocks.cut == 2
        rep = measure_agsp(proj, gs)
        psi, diag = bootstrap_state(proj, gs, rep)
        assert diag.precondition_met
        np.testing.assert_allclose(np.abs(np.vdot(psi, gs)), 1.0, atol=1e-10)
        assert diag.distance <= 1e-9

    def test_zero_epsilon_rank_one_bound_reads_delta(self):
        rep = AgspReport(m=1, delta_K=0.125, epsilon_K=0.0, D_K=1, cheb_bound=1.0)
        assert rep.bootstrap_ready
        assert rep.epsilon_K * math.sqrt(2 * rep.D_K) + rep.delta_K == pytest.approx(0.125)
