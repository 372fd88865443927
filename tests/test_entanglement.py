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
from agsplab.hamiltonian import build_long_range_ising
from agsplab.truncation import decompose_blocks, truncate_interactions
from conftest import (
    assemble_dense,
    bond_tail_weights,
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


def entropies(v, cut, vectors):
    """(S, S2) of v at `cut`; a values-only decomposition must match the full one within 1e-14."""
    sd = schmidt_decompose(v, cut, vectors=vectors)
    S, S2 = entropy(sd), renyi2(sd)
    if not vectors:
        assert sd.left_vectors is None and sd.right_vectors is None
        full = schmidt_decompose(v, cut)
        assert abs(S - entropy(full)) <= 1e-14 and abs(S2 - renyi2(full)) <= 1e-14
    return S, S2


class TestEntropies:
    def test_product_zero(self):
        v = np.kron([1.0, 0.0], [0.0, 1.0])
        assert entropy(schmidt_decompose(v, 1)) == pytest.approx(0.0, abs=1e-12)
        assert renyi2(schmidt_decompose(v, 1)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("vectors", [True, False], ids=["full", "values-only"])
    def test_bell_ln2(self, vectors):
        S, S2 = entropies(BELL, 1, vectors)
        assert S == pytest.approx(math.log(2), abs=1e-12)
        assert S2 == pytest.approx(math.log(2), abs=1e-12)

    @pytest.mark.parametrize("vectors", [True, False], ids=["full", "values-only"])
    def test_ghz_half_cut(self, vectors):
        S, _ = entropies(ghz(4), 2, vectors)
        assert S == pytest.approx(math.log(2), abs=1e-12)

    def test_entropy_bounded_by_log_dim(self, rng):
        v = random_state(rng, 64)
        assert 0.0 <= entropy(schmidt_decompose(v, 2)) <= math.log(4) + 1e-12

    @pytest.mark.parametrize("vectors", [True, False], ids=["full", "values-only"])
    def test_density_matrix_cross_check(self, rng, vectors):
        for _ in range(3):
            v = random_state(rng, 64)
            S, S2 = entropies(v, 3, vectors)
            rho = reduced_density(v, 3)
            assert S == pytest.approx(entropy_from_density(rho), abs=1e-9)
            assert S2 == pytest.approx(renyi2_from_density(rho), abs=1e-9)

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
        rec = eckart_young_check(schmidt_decompose(v, 2), v)
        assert rec.bound_id == "eckart-young" and rec.context == {"rank": 4}
        assert rec.lhs <= 1e-12
        assert rec.lhs <= rec.rhs + 1e-12

    def test_truncations_all_ranks(self, rng):
        v = random_state(rng, 64)
        sd = schmidt_decompose(v, 3)
        for D in range(1, len(sd.coefficients)):
            approx = truncate_to_rank(sd, D)
            rec = eckart_young_check(sd, approx)
            assert rec.context["rank"] <= D
            assert rec.lhs <= rec.rhs + 1e-12

    def test_random_pairs(self, rng):
        for _ in range(10):
            a, b = random_state(rng, 64), random_state(rng, 64)
            rec = eckart_young_check(schmidt_decompose(a, 3), b)
            assert rec.lhs <= rec.rhs + 1e-12


class TestMpsCompress:
    def test_lossless_at_full_rank(self, rng):
        v = random_state(rng, 64)
        mps = mps_compress(v, D=64)
        assert np.linalg.norm(v - mps.contract()) <= 1e-10
        assert all(schmidt_decompose(v, i).tail_weight(64) <= 1e-20 for i in range(1, 6))

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
        (rec,) = mps_compression_check(v, (D,))
        assert rec.bound_id == "claim7.mps" and rec.context == {"D": D}
        assert rec.lhs <= rec.rhs + 1e-9

    def test_error_monotone_in_D_for_ground_state(self):
        H = assemble_dense(build_long_range_ising(8, 3.0, 1.0, 2.0))
        gs = oracle_ground_vector(H)
        errors = [rec.lhs for rec in mps_compression_check(gs, (1, 2, 4, 8))]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("n,full", [(5, 4), (6, 8)])
    def test_full_bond_dimension_is_a_placeholder(self, rng, n, full):
        # max_i min(d^i, d^(n-i)) = d^(n//2): from there the sweep is lossless
        v = random_state(rng, 2**n)
        assert mps_compression_check(v, (full - 1,))[0].context == {"D": full - 1}
        for D in (full, 2 * full):
            (rec,) = mps_compression_check(v, (D,))
            note = "D at or above the full bond dimension; lossless"
            assert (rec.bound_id, rec.lhs, rec.rhs, rec.context) == ("claim7.mps", 0.0, 0.0, {"D": D, "note": note})

    def test_invalid_bond_dimension(self):
        with pytest.raises(ValueError):
            mps_compress(np.ones(4) / 2.0, 0)

    @pytest.mark.parametrize("D", [1, 2, 8])
    def test_check_rejects_a_state_of_no_chain(self, D):
        # dimension 6 is no power of 2: an error, never a lossless placeholder
        with pytest.raises(ValueError, match="not a power of 2"):
            mps_compression_check(np.ones(6) / math.sqrt(6.0), (D,))

    def test_one_call_per_D_list_matches_single_D_calls_and_full_svd_tails(self, rng):
        v = random_state(rng, 256)
        Ds = (1, 2, 4, 8)
        records = mps_compression_check(v, Ds)
        for D, rec in zip(Ds, records):
            (single,) = mps_compression_check(v, (D,))
            assert (rec.lhs, rec.rhs, rec.context) == (single.lhs, single.rhs, {"D": D})
            assert rec.rhs == pytest.approx(2.0 * sum(bond_tail_weights(v, D)), rel=1e-12, abs=1e-15)


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
                truncs[l] = truncate_interactions(H, blocks)
            T = truncs[l]
            return agsp_filter(build_effective(T, min(tau, T.clamp_ceiling())), m)

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
