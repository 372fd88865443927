import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsplab.agsp import agsp_filter
from agsplab.effective import build_effective
from agsplab.entanglement import (
    agsp_entropy_bound,
    agsp_sequence,
    eckart_young_check,
    entropy,
    mps_compress,
    mps_compression_check,
    renyi2,
    schmidt_decompose,
    truncate_to_rank,
)
from agsplab.hamiltonian import assemble_dense, build_long_range_ising
from agsplab.truncation import decompose_blocks, shift_block_energies, truncate_interactions
from conftest import (
    entropy_from_density,
    oracle_ground_vector,
    random_state,
    reduced_density,
    renyi2_from_density,
)

# sum_{p>=1} p^{-2} ln(p^2) = -2 zeta'(2); verified against mpmath and
# direct partial sums with an integral tail bracket.
LOG_SQUARE_SERIES = 1.8750965086316875

BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)


def ghz(n):
    v = np.zeros(2**n)
    v[0] = v[-1] = 1 / math.sqrt(2)
    return v


class TestSchmidtDecompose:
    def test_product_state(self):
        v = np.kron([1.0, 0.0], [0.6, 0.8])
        sd = schmidt_decompose(v, 1)
        assert sd.coefficients[0] == pytest.approx(1.0)
        assert sd.numerical_rank() == 1

    def test_bell_pair(self):
        sd = schmidt_decompose(BELL, 1)
        np.testing.assert_allclose(sd.coefficients, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_reconstruction_random(self, rng):
        v = random_state(rng, 64)
        sd = schmidt_decompose(v, 3)
        assert np.linalg.norm(sd.reconstruct() - v) <= 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.array([1.0, 1.0]), 1)

    def test_descending_order(self, rng):
        sd = schmidt_decompose(random_state(rng, 32), 2)
        assert np.all(np.diff(sd.coefficients) <= 0)
        assert np.sum(sd.coefficients**2) == pytest.approx(1.0, abs=1e-10)


class TestEntropies:
    def test_product_zero(self):
        v = np.kron([1.0, 0.0], [0.0, 1.0])
        assert entropy(schmidt_decompose(v, 1)) == pytest.approx(0.0, abs=1e-12)
        assert renyi2(schmidt_decompose(v, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_bell_ln2(self):
        sd = schmidt_decompose(BELL, 1)
        assert entropy(sd) == pytest.approx(math.log(2), abs=1e-12)
        assert renyi2(sd) == pytest.approx(math.log(2), abs=1e-12)

    def test_ghz_half_cut(self):
        sd = schmidt_decompose(ghz(4), 2)
        assert entropy(sd) == pytest.approx(math.log(2), abs=1e-12)

    def test_entropy_bounded_by_log_dim(self, rng):
        v = random_state(rng, 64)
        assert 0.0 <= entropy(schmidt_decompose(v, 2)) <= math.log(4) + 1e-12

    def test_density_matrix_cross_check(self, rng):
        for _ in range(3):
            v = random_state(rng, 64)
            sd = schmidt_decompose(v, 3)
            rho = reduced_density(v, 3)
            assert entropy(sd) == pytest.approx(entropy_from_density(rho), abs=1e-9)
            assert renyi2(sd) == pytest.approx(renyi2_from_density(rho), abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=99999))
    def test_property_renyi_below_von_neumann(self, seed):
        rng = np.random.default_rng(seed)
        v = random_state(rng, 32)
        sd = schmidt_decompose(v, 2)
        assert renyi2(sd) <= entropy(sd) + 1e-12


class TestEckartYoung:
    def test_identical_states(self, rng):
        v = random_state(rng, 16)
        rec = eckart_young_check(v, v, 2)
        assert rec.tail_weight <= 1e-12
        assert rec.tail_weight <= rec.distance_squared + 1e-12

    def test_truncations_all_ranks(self, rng):
        v = random_state(rng, 64)
        sd = schmidt_decompose(v, 3)
        for D in range(1, len(sd.coefficients)):
            approx = truncate_to_rank(sd, D)
            rec = eckart_young_check(v, approx, 3)
            assert rec.comparison_rank <= D
            assert rec.tail_weight <= rec.distance_squared + 1e-12

    def test_random_pairs(self, rng):
        for _ in range(10):
            a, b = random_state(rng, 64), random_state(rng, 64)
            rec = eckart_young_check(a, b, 3)
            assert rec.tail_weight <= rec.distance_squared + 1e-12


class TestMpsCompress:
    def test_lossless_at_full_rank(self, rng):
        v = random_state(rng, 64)
        mps = mps_compress(v, D=64)
        assert np.linalg.norm(v - mps.contract()) <= 1e-10
        assert all(w <= 1e-20 for w in mps.truncation_weights)

    def test_product_state_bond_one(self):
        v = np.kron(np.kron([1.0, 0.0], [0.6, 0.8]), [0.0, 1.0])
        mps = mps_compress(v, D=1)
        assert np.linalg.norm(v - mps.contract()) <= 1e-10
        assert [t.shape[2] for t in mps.site_tensors[:-1]] == [1, 1]

    def test_left_canonical_tensors(self, rng):
        mps = mps_compress(random_state(rng, 128), D=4)
        for t in mps.site_tensors[:-1]:
            mat = t.reshape(-1, t.shape[2])
            np.testing.assert_allclose(
                mat.conj().T @ mat, np.eye(t.shape[2]), atol=1e-10
            )
        nrm = np.linalg.norm(mps.contract())
        assert 0.0 < nrm <= 1.0 + 1e-12  # truncation never grows the norm

    @pytest.mark.parametrize("D", [1, 2, 4, 8])
    def test_error_bound(self, rng, D):
        v = random_state(rng, 256)
        rec = mps_compression_check(v, D)
        assert rec.error_squared <= rec.weight_bound + 1e-9

    def test_error_monotone_in_D_for_ground_state(self):
        H = assemble_dense(build_long_range_ising(8, 3.0, 1.0, 2.0))
        gs = oracle_ground_vector(H)
        errors = [mps_compression_check(gs, D).error_squared for D in (1, 2, 4, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_invalid_bond_dimension(self):
        with pytest.raises(ValueError):
            mps_compress(np.ones(4) / 2.0, 0)


class TestEntropyBound:
    def test_all_zero_gammas_specialization(self):
        val = agsp_entropy_bound(5.0, [0.0, 0.0], [7.0, 9.0], schmidt_cap=16)
        assert val == pytest.approx(math.log(5.0) + math.log(3 * 7.0))

    def test_inverse_p_series_constant(self):
        # gamma_p = 1/p with constant D: the assembled sum approaches
        # zeta(2)*ln(3D) + sum p^-2 ln(p^2) as the sequence grows
        D = 4.0
        P = 4000
        gammas = [1.0 / p for p in range(1, P + 1)]
        Ds = [D] * P
        val = agsp_entropy_bound(1.0, gammas, Ds, schmidt_cap=D)
        # p = 0 term contributes ln(3D); tail term is o(1)
        expected = math.log(3 * D) + sum(
            (1 / p**2) * (math.log(3 * D) + math.log(p**2)) for p in range(1, P + 1)
        )
        assert val == pytest.approx(expected, abs=1e-6)
        zeta2 = math.pi**2 / 6
        analytic = math.log(3 * D) * (1 + zeta2) + LOG_SQUARE_SERIES
        # truncation undershoots the infinite series by at most the
        # integral tail estimate (ln(3D) + 2 ln P + 2)/P
        tail = (math.log(3 * D) + 2 * math.log(P) + 2) / P
        assert 0.0 <= analytic - val <= tail + 1e-9
        # the series constant itself matches the independently computed value
        partial = sum(math.log(p**2) / p**2 for p in range(1, 200_000))
        assert abs(partial + 2 * (math.log(200_000) + 1) / 200_000 - LOG_SQUARE_SERIES) < 1e-4

    def test_gamma_above_one_rejected(self):
        with pytest.raises(ValueError):
            agsp_entropy_bound(2.0, [1.5], [3.0], schmidt_cap=4)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            agsp_entropy_bound(2.0, [0.5], [3.0, 4.0], schmidt_cap=4)


class TestAgspSequence:
    def _setup(self, n=6):
        H = build_long_range_ising(n, 3.0, 1.0, 2.0)
        dense = assemble_dense(H)
        gs = oracle_ground_vector(dense)
        truncs = {}

        def factory(m, l, tau):
            if l not in truncs:
                blocks = decompose_blocks(n, 2, l)
                truncs[l] = shift_block_energies(truncate_interactions(H, blocks))
            T = truncs[l]
            width = max(sp.width for sp in T.block_spectra()) + 1.0
            return agsp_filter(build_effective(T, min(tau, width)), m)

        return H, gs, factory

    def test_sequence_meets_targets(self):
        H, gs, factory = self._setup()
        sd = schmidt_decompose(gs, 3)
        base = truncate_to_rank(sd, 2)
        steps, exhausted = agsp_sequence(
            factory, gs, base, p_max=3, l_start=1, tau_start=3.0, l_max=3, tau_max=40.0
        )
        assert not exhausted
        assert len(steps) == 3
        for step in steps:
            assert step.target_met and step.gamma <= 1.0 / step.p + 1e-12
            assert step.distance <= step.gamma + 1e-9
        Ds = [s.D for s in steps]
        assert all(b >= a for a, b in zip(Ds, Ds[1:]))

    def test_measured_entropy_below_assembled_bound(self):
        H, gs, factory = self._setup()
        sd = schmidt_decompose(gs, 3)
        base = truncate_to_rank(sd, 2)
        steps, _ = agsp_sequence(
            factory, gs, base, p_max=3, l_start=1, tau_start=3.0, l_max=3, tau_max=40.0
        )
        usable = [s for s in steps if s.target_met]
        bound = agsp_entropy_bound(
            2.0, [s.gamma for s in usable], [s.D for s in usable], schmidt_cap=8
        )
        assert entropy(sd) <= bound + 1e-9

    def test_far_base_state_rejected(self):
        H, gs, factory = self._setup()
        bad = np.zeros_like(gs)
        bad[-1] = 1.0
        if abs(np.vdot(bad, gs)) < 0.4:  # ensure it is actually far
            with pytest.raises(ValueError):
                agsp_sequence(
                    factory, gs, bad, p_max=1, l_start=1, tau_start=3.0, l_max=3, tau_max=40.0
                )
