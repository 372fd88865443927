import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsplab.agsp import (
    _filter_values,
    _sum_schmidt_rank,
    agsp_filter,
    bootstrap_state,
    chebyshev_T,
    schmidt_rank_bound_check,
)
from agsplab.config import ExperimentConfig
from agsplab.effective import build_effective
from agsplab.entanglement import schmidt_decompose
from agsplab.experiment import _agsp_records, build_pipeline
from agsplab.hamiltonian import build_long_range_fermion_chain, build_long_range_ising
from agsplab.spectral import align_phase, numerical_rank, operator_schmidt_rank
from agsplab.truncation import decompose_blocks, truncate_interactions
from conftest import (
    PAULI_X,
    REFERENCE_CONFIG,
    assemble_dense,
    chebyshev_matrix_recurrence,
    dense_eigenvectors,
    dense_epsilon,
    dense_filter,
    dense_operator,
    dense_power_schmidt_rank,
    kron_chain,
    mp_chebyshev_ratio,
    one_sector_spectrum,
    oracle_ground_vector,
)


def make_eff(n=8, l=2, tau=6.0, B=2.0):
    H = build_long_range_ising(n, 3.0, 1.0, B)
    T = truncate_interactions(H, decompose_blocks(n, 2, l))
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


class TestFilterValues:
    # (gap, width) of the window: every excited value underflows to 0 at these
    # degrees; an O(1) window near the ground (small gap, one to three levels
    # inside); and a window that leaves the level at 0.2 below it.
    WINDOWS = [(0.1, 1.0), (1e-6, 1.0), (1e-7, 3.0), (0.3, 1.0)]

    @pytest.mark.parametrize("m", [2048, 8192])
    @pytest.mark.parametrize("gap, width", WINDOWS)
    def test_high_degree_matches_mpmath(self, m, gap, width):
        # The raw recurrence overflows here: all-NaN at (2048, 0.1, 1.0).
        w = np.linspace(0.0, 1.0, 6)
        vals = _filter_values(m, w, gap, width)
        assert vals[0] == 1.0
        # The oracle takes the same double-rounded window coordinates.
        scaled = (2.0 * w - (width + gap)) / (width - gap)
        x0 = -(width + gap) / (width - gap)
        for got, x in zip(vals, scaled):
            exact = float(mp_chebyshev_ratio(m, x, x0))
            assert abs(got - exact) <= m * 1e-15 * max(1.0, abs(exact))

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 8, 64])
    def test_low_degree_matches_recurrence(self, m):
        w = np.array([0.0, 0.4, 0.55, 1.3, 2.0])
        gap, width = 0.4, 2.0
        x0 = -(width + gap) / (width - gap)
        expected = chebyshev_T(m, (2.0 * w - (width + gap)) / (width - gap)) / chebyshev_T(m, x0)
        np.testing.assert_allclose(_filter_values(m, w, gap, width), expected, rtol=0, atol=1e-13)


class TestFilter:
    def test_degree_zero_is_identity(self):
        _, eff = make_eff()
        filt = agsp_filter(eff, 0)
        np.testing.assert_allclose(dense_filter(filt), np.eye(256), atol=1e-12)

    def test_fixes_effective_ground_state(self):
        _, eff = make_eff()
        filt = agsp_filter(eff, 6)
        res = np.linalg.norm(dense_filter(filt) @ filt.fixed_state - filt.fixed_state)
        assert res <= 1e-10

    def test_excited_suppression_bound(self):
        _, eff = make_eff()
        filt = agsp_filter(eff, 6)
        assert filt.excited_residual() <= filt.cheb_bound + 1e-9

    def test_matrix_recurrence_cross_check(self):
        _, eff = make_eff(n=6, l=1, tau=5.0)
        filt = agsp_filter(eff, 5)
        K2 = chebyshev_matrix_recurrence(filt)
        assert np.max(np.abs(dense_filter(filt) - K2)) <= 1e-8

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matrix_is_hermitian_to_the_last_bit(self, rng, field):
        # The swap split of `operator_schmidt_rank` needs K == K^T exactly;
        # a complex K must stay Hermitian, so it is mirrored with the conjugate.
        _, eff = make_eff(n=4, l=1, tau=3.0)
        if field == "complex":
            Q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
            eff._spectral = one_sector_spectrum(np.concatenate([[0.0], np.linspace(1.0, 3.0, 15)]), Q)
        sp = eff.spectral()
        K = dense_filter(agsp_filter(eff, 5))
        assert np.array_equal(K, K.conj().T)
        assert np.array_equal(K, K.T) == (field == "real")
        vals = _filter_values(5, sp.eigenvalues, sp.gap, sp.width)
        U = dense_eigenvectors(sp)
        assert np.max(np.abs(K - (U * vals) @ U.conj().T)) <= 1e-13

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
        _, eff = make_eff()
        filt = agsp_filter(eff, 0)
        assert filt.excited_residual() == pytest.approx(1.0, abs=1e-9)
        assert filt.schmidt_rank() == 1

    def test_exact_projector(self):
        # At this degree every excited value underflows to 0: K is the
        # projector onto the clamp's ground state, with no residual.
        _, eff = make_eff()
        filt = agsp_filter(eff, 2048)
        gs = oracle_ground_vector(dense_operator(eff))
        delta, fixed = filt.drift(gs)
        assert delta <= 1e-10
        assert filt.excited_residual() <= 1e-10
        np.testing.assert_allclose(dense_filter(filt), np.outer(gs, gs), rtol=0, atol=1e-10)

    def test_dense_epsilon_equals_eigenbasis_sup(self):
        _, eff = make_eff()
        for m in (0, 2, 4, 6):
            filt = agsp_filter(eff, m)
            assert filt.excited_residual() == pytest.approx(dense_epsilon(filt), abs=1e-12)

    def test_chebyshev_bound_holds(self):
        _, eff = make_eff()
        for m in (2, 4, 6):
            filt = agsp_filter(eff, m)
            assert filt.excited_residual() <= filt.cheb_bound + 1e-9

    def test_pipeline_delta_triangle(self):
        # delta against the untruncated ground state is at most the
        # truncation drift plus the clamping drift
        n = 8
        H = build_long_range_ising(n, 3.0, 1.0, 2.0)
        gs = oracle_ground_vector(assemble_dense(H))
        T = truncate_interactions(H, decompose_blocks(n, 2, 2))
        eff = build_effective(T, 6.0)
        vt = oracle_ground_vector(dense_operator(T))
        gs_t = align_phase(gs, vt)
        filt = agsp_filter(eff, 6)
        delta, _ = filt.drift(gs)
        d_trunc = np.linalg.norm(gs - gs_t)
        d_clamp = np.linalg.norm(gs_t - align_phase(gs_t, filt.fixed_state))
        assert delta <= d_trunc + d_clamp + 1e-9


FERMION_CONFIG = ExperimentConfig(
    family="long_range_fermion", n=8, alpha=3.0, A=1.0, B=0.5, q=2, l=2, taus=[2.0, 8.0], ms=[4, 8, 16], seed=7
)


@pytest.mark.parametrize("cfg", [REFERENCE_CONFIG, FERMION_CONFIG], ids=["reference", "fermion-n8"])
def test_every_epsilon_record_matches_the_dense_oracle(cfg):
    """Each `agsp.epsilon` lhs is the dense ||K (1 - |g><g|)|| of its filter."""
    pipe = build_pipeline(cfg)
    records, _ = _agsp_records(pipe, [])
    checked = [r for r in records if r.bound_id == "agsp.epsilon"]
    assert [r.context["m"] for r in checked] == cfg.ms
    for r in checked:
        oracle = dense_epsilon(agsp_filter(pipe.eff_at(r.context["tau"]), r.context["m"]))
        assert abs(r.lhs - oracle) <= 1e-12, r.context


class TestOperatorSchmidtRank:
    def test_identity_rank_one(self):
        assert operator_schmidt_rank(np.eye(16), 2) == 1

    def test_filter_rank_is_cached(self, monkeypatch):
        T, eff = make_eff()
        filt = agsp_filter(eff, 4)
        cut = T.blocks.cut
        expected = operator_schmidt_rank(dense_filter(filt), cut)
        calls = []
        # Counted at the function that owns the solve: it runs one SVD per parity sector.
        from agsplab import agsp

        rank = agsp.operator_schmidt_rank
        monkeypatch.setattr(agsp, "operator_schmidt_rank", lambda *a, **k: calls.append(a[0]) or rank(*a, **k))
        assert filt.schmidt_rank() == expected
        assert len(calls) == 1
        assert filt.schmidt_rank() == expected
        assert agsp_filter(eff, 4).schmidt_rank() == expected
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
        assert schmidt_decompose(bell, 1).numerical_rank() == 2
        assert schmidt_decompose(np.array([1.0, 0, 0, 0]), 1).numerical_rank() == 1

    def test_rank_threshold(self):
        # the threshold is max(1e-10 * sigma_max, 1e-12): 3e-10 here ...
        assert numerical_rank(np.array([3.0, 3.1e-10])) == 2
        assert numerical_rank(np.array([3.0, 2.9e-10])) == 1
        # ... and the absolute floor 1e-12 here
        assert numerical_rank(np.array([1e-4, 1.1e-12])) == 2
        assert numerical_rank(np.array([1e-4, 0.9e-12])) == 1
        assert numerical_rank(np.array([1e-4, 0.0])) == 1

    def test_one_threshold_for_states_and_schmidt_data(self, rng):
        # rank 3 across the 2|3 cut, plus a tail below the relative threshold
        psi = sum(rng.standard_normal(4)[:, None] * rng.standard_normal(8)[None, :] for _ in range(3))
        psi = psi.reshape(-1) + 1e-13 * rng.standard_normal(32)
        psi /= np.linalg.norm(psi)
        assert numerical_rank(np.linalg.svd(psi.reshape(4, 8), compute_uv=False)) == 3
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


def measured_rank(T, m) -> int:
    """SR(H_t^m), the lhs shared by both records of `schmidt_rank_bound_check`."""
    product, counting = schmidt_rank_bound_check(T, m)
    assert product.lhs == counting.lhs
    return product.lhs


class TestSchmidtRankBounds:
    def test_power_zero(self):
        T, _ = make_eff()
        product, counting = schmidt_rank_bound_check(T, 0)
        assert product.lhs == 1
        assert product.lhs <= product.rhs + 1e-9
        assert counting.lhs <= counting.rhs + 1e-9

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_n8_powers(self, m):
        T, _ = make_eff()
        product, counting = schmidt_rank_bound_check(T, m)
        assert (product.bound_id, counting.bound_id) == ("sr.lemma8", "sr.prop4")
        assert product.context == {"m": m} and counting.context["m"] == m
        assert product.lhs <= product.rhs + 1e-9
        assert counting.lhs <= counting.rhs + 1e-9

    def test_nearest_neighbor_single_power(self):
        # H with only adjacent-bond terms at l=1: SR(H_t) <= 2 + (2dl)^k = 18
        H = build_long_range_ising(6, 6.0, 1.0, 1.0)
        T = truncate_interactions(H, decompose_blocks(6, 2, 1))
        assert measured_rank(T, 1) <= 2 + (2 * 2 * 1) ** 2


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
            T = truncate_interactions(H, decompose_blocks(n, 2, l, cut))
            for m in range(4):
                measured = measured_rank(T, m)
                assert measured == dense_power_schmidt_rank(T, m), (cut, m)

    def test_zero_hamiltonian_powers_vanish(self):
        H = build_long_range_ising(6, 3.0, 0.0, 0.0)
        T = truncate_interactions(H, decompose_blocks(6, 2, 2))
        assert [measured_rank(T, m) for m in range(3)] == [1, 0, 0]
        assert [dense_power_schmidt_rank(T, m) for m in range(3)] == [1, 0, 0]

    def test_negative_power_rejected(self):
        T, _ = make_eff(n=6)
        with pytest.raises(ValueError, match="non-negative"):
            schmidt_rank_bound_check(T, -1)

    @pytest.mark.parametrize("where", ["A", "B", "product"])
    def test_non_finite_operator_raises_before_the_svd(self, monkeypatch, where):
        # An inf entry in either factor, or finite factors whose R_P R_Q^T overflows (an H_t^m near 1e308).
        A, B = np.ones((2, 4, 4)), np.ones((2, 4, 4))
        if where == "product":
            A, B = 1e200 * A, 1e200 * B
        else:
            {"A": A, "B": B}[where][1, 2, 3] = np.inf

        def refused(*args, **kwargs):
            raise AssertionError("SVD of a non-finite matrix")

        monkeypatch.setattr(np.linalg, "svd", refused)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            _sum_schmidt_rank(A, B)


def field_only_eff(n=4, tau=3.0):
    """Clamp of the field-only chain (J = 0), whose ground state is a product state."""
    H = build_long_range_ising(n, 3.0, 0.0, 1.0)
    T = truncate_interactions(H, decompose_blocks(n, 2, 1))
    return H, build_effective(T, tau)


class TestBootstrap:
    def test_reference_instance(self):
        T, eff = make_eff()
        gs_t = oracle_ground_vector(dense_operator(T))
        filt = agsp_filter(eff, 8)
        psi, (mu1, dist) = bootstrap_state(filt, gs_t)
        assert psi is not None
        assert (mu1.bound_id, dist.bound_id) == ("bootstrap.mu1", "prop2.distance")
        assert mu1.context == dist.context == {"m": 8}
        assert mu1.rhs >= mu1.lhs - 1e-9  # mu_1 >= 1/sqrt(2 D_K)
        assert dist.lhs <= dist.rhs + 1e-9
        assert schmidt_decompose(psi, T.blocks.cut).numerical_rank() <= filt.schmidt_rank()

    def test_precondition_failure_returns_none(self):
        T, eff = make_eff()
        v = oracle_ground_vector(dense_operator(T))
        filt = agsp_filter(eff, 0)  # identity: epsilon = 1, precondition fails
        assert filt.excited_residual() ** 2 * filt.schmidt_rank() > 0.5
        psi, records = bootstrap_state(filt, v)
        assert psi is None
        note = "epsilon_K^2 * D_K > 1/2"
        assert [(r.bound_id, r.lhs, r.rhs, r.context) for r in records] == [
            ("bootstrap.mu1", 0.0, 0.0, {"m": 0, "note": note}),
            ("prop2.distance", 0.0, 0.0, {"m": 0, "note": note}),
        ]

    def test_exact_projector_on_product_ground_state(self):
        # field-only chain: the ground state is a product state, and the
        # filter at a degree where it is the exact projector bootstraps it
        # with zero error
        H, eff = field_only_eff()
        gs = oracle_ground_vector(assemble_dense(H))
        filt = agsp_filter(eff, 2048)
        assert eff.base.blocks.cut == 2
        assert filt.excited_residual() == 0.0 and filt.schmidt_rank() == 1
        psi, (_, dist) = bootstrap_state(filt, gs)
        assert psi is not None
        np.testing.assert_allclose(np.abs(np.vdot(psi, gs)), 1.0, atol=1e-10)
        assert dist.lhs <= 1e-9

    def test_complex_fixed_state_bootstraps_its_top_schmidt_product(self, rng):
        # A clamp whose eigenvectors are a complex unitary: psi must be K
        # applied to the top Schmidt product of the phase-aligned fixed
        # state.  Built from outer(U[:, 0], Vh[0].conj()), the product
        # state's overlap with the fixed state carries a phase, and psi
        # lands a phase away from the target, far outside the distance bound.
        _, eff = make_eff(n=4, l=1, tau=3.0)
        Q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        eff._spectral = one_sector_spectrum(np.concatenate([[0.0], np.linspace(1.0, 3.0, 15)]), Q)
        fixed = Q[:, 0]
        filt = agsp_filter(eff, 16)
        psi, (mu1, dist) = bootstrap_state(filt, fixed)
        assert psi is not None
        assert abs(np.vdot(fixed, psi)) == pytest.approx(1.0, abs=1e-12)
        assert dist.rhs <= 1e-6
        assert dist.lhs <= dist.rhs + 1e-12

    def test_zero_epsilon_rank_one_bound_reads_delta(self):
        # epsilon_K = 0 and D_K = 1: the distance bound is delta_K itself
        H, eff = field_only_eff()
        gs = oracle_ground_vector(assemble_dense(H))
        filt = agsp_filter(eff, 2048)
        target = gs + 0.125 * np.roll(gs, 1)
        target /= np.linalg.norm(target)
        delta, _ = filt.drift(target)
        assert delta > 0.1
        psi, (_, dist) = bootstrap_state(filt, target)
        assert psi is not None
        assert dist.rhs == delta
        assert dist.lhs <= dist.rhs + 1e-9
