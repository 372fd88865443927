import math

import numpy as np
import pytest

from agsplab.effective import (
    build_effective,
    commutator_bound_check,
    effective_difference_check,
    energy_cutoff,
    energy_distribution_check,
    exponential_filter_check,
    fit_log_slope,
    theorem5_check,
)
from agsplab.hamiltonian import (
    build_long_range_fermion_chain,
    build_long_range_ising,
    decay_envelope,
    local_energy_g,
    spectral_norm,
)
from agsplab.spectral import eigendecompose
from agsplab.truncation import decompose_blocks, shift_block_energies, truncate_interactions
from conftest import PAULI_Z, dense_commutator_norms, dense_filter_lhs


def make_T(n=6, alpha=3.0, J=1.0, B=2.0, q=2, l=1):
    H = build_long_range_ising(n, alpha, J, B)
    return H, shift_block_energies(truncate_interactions(H, decompose_blocks(n, q, l)))


def fermion_T(n=8, l=2):
    H = build_long_range_fermion_chain(n, 3.0, 1.0, 0.5)
    return shift_block_energies(truncate_interactions(H, decompose_blocks(n, 2, l)))


LOCAL_CASES = {
    "ising-n8-l1": lambda: make_T(n=8, l=1)[1],
    "ising-n8-l2": lambda: make_T(n=8, l=2)[1],
    "fermion-n7-l2": lambda: fermion_T(n=7, l=2),
    "fermion-n8-l2": lambda: fermion_T(n=8, l=2),
}


class TestEnergyCutoff:
    def test_above_top_is_identity_map(self, rng):
        M = rng.standard_normal((6, 6))
        M = M + M.T
        top = np.max(np.linalg.eigvalsh(M))
        np.testing.assert_allclose(energy_cutoff(eigendecompose(M), top + 1.0), M, atol=1e-12)

    def test_at_ground_flattens(self, rng):
        M = rng.standard_normal((5, 5))
        M = M + M.T
        e0 = np.linalg.eigvalsh(M)[0]
        np.testing.assert_allclose(energy_cutoff(eigendecompose(M), e0), e0 * np.eye(5), atol=1e-12)

    def test_sigma_z_clamp_at_zero(self):
        clamped = energy_cutoff(eigendecompose(PAULI_Z), 0.0)
        np.testing.assert_allclose(np.linalg.eigvalsh(clamped), [-1.0, 0.0], atol=1e-12)

    def test_commutes_with_input(self, rng):
        M = rng.standard_normal((8, 8))
        M = M + M.T
        C = energy_cutoff(eigendecompose(M), 0.3)
        assert np.max(np.abs(C @ M - M @ C)) <= 1e-10


class TestBuildEffective:
    def test_large_tau_reproduces_truncated(self):
        _, T = make_T()
        width = max(sp.width for sp in T.block_spectra())
        eff = build_effective(T, width + 1.0)
        np.testing.assert_allclose(eff.assemble_dense(), T.assemble_dense(), atol=1e-10)

    def test_norm_budget(self):
        H, T = make_T(n=8, l=2)
        env = decay_envelope(H)
        eff = build_effective(T, 6.0)
        norm = spectral_norm(eff.assemble_dense())
        assert norm <= (T.q + 2) * (6.0 + 2 * env.g0) + 1e-9

    def test_gap_of_clamp_below_4g0(self):
        # the clamped operator's gap never exceeds 4*g0
        for tau in (2.0, 4.0, 8.0):
            H, T = make_T(n=8, l=2)
            env = decay_envelope(H)
            eff = build_effective(T, tau)
            assert eff.spectral().gap <= 4.0 * env.g0 + 1e-9

    def test_requires_balanced_blocks(self):
        # weak coupling (g0 clamps to 1) with lopsided block sizes: the raw
        # block origins sit far from zero until shift_block_energies runs
        H = build_long_range_ising(8, 3.0, 0.05, 2.0)
        T = truncate_interactions(H, decompose_blocks(8, 2, 1))  # not shifted
        assert np.max(np.abs(T.block_ground_energies())) > T.envelope.g0
        with pytest.raises(ValueError):
            build_effective(T, 4.0)
        build_effective(shift_block_energies(T), 4.0)

    def test_rejects_nonpositive_tau(self):
        _, T = make_T()
        with pytest.raises(ValueError):
            build_effective(T, 0.0)

    def test_lambda_formulas(self):
        H, T = make_T()
        g = local_energy_g(H)
        g0 = decay_envelope(H).g0
        lam, lam_p = T.lambdas
        assert lam == pytest.approx(1.0 / (12 * g * 4 + 4 * g0))
        assert lam_p == pytest.approx(min(1.0 / (112 * g0), 1.0 / (12 * g * 4)))

    def test_clamped_blocks_through_truncated_assembly(self):
        _, T = make_T(n=8, l=2)
        eff = build_effective(T, 3.0)
        np.testing.assert_array_equal(T.assemble_dense(eff.internal_eff), eff.assemble_dense())
        assert eff.spectral().norm == pytest.approx(spectral_norm(eff.assemble_dense()), rel=1e-12)

    def test_internal_commute_with_blocks(self):
        _, T = make_T()
        eff = build_effective(T, 3.0)
        for h, ht in zip(T.internal, eff.internal_eff):
            assert np.max(np.abs(h @ ht - ht @ h)) <= 1e-10


class TestTheorem5:
    def test_distances_decay_and_kappa_bound(self):
        _, T = make_T(n=8, l=2)
        diags = theorem5_check(T, [2, 3, 4, 5, 6, 7, 8, 9])
        dists = [d.overlap_distance for d in diags]
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
        assert all(d.kappa <= d.kappa_bound + 1e-9 for d in diags)
        assert all(d.kappa >= 0 for d in diags)

    def test_saturated_tau_zero_distance(self):
        _, T = make_T()
        width = max(sp.width for sp in T.block_spectra())
        [diag] = theorem5_check(T, [width + 1.0])
        assert diag.overlap_distance <= 1e-9
        assert diag.gap_eff / diag.gap_t == pytest.approx(1.0, abs=1e-9)

    def test_slope_fit_negative(self):
        _, T = make_T(n=8, l=2)
        diags = theorem5_check(T, np.linspace(2, 10, 8))
        slope, r2, used = fit_log_slope(
            [d.tau for d in diags], [d.overlap_distance for d in diags]
        )
        assert slope < 0 and r2 >= 0.9 and used >= 5

    def test_e_bot_formula(self):
        H, T = make_T(n=8, l=2)
        g0 = decay_envelope(H).g0
        [diag] = theorem5_check(T, [5.0])
        expected = diag.gap_t * (1 - diag.kappa) ** 2 - 2 * g0 * diag.kappa * (
            1 + diag.kappa
        ) * (T.q + 1)
        assert diag.e_bot == pytest.approx(expected, abs=1e-12)


class TestEnergyTies:
    def test_level_just_above_cutoff_is_a_tie(self):
        # a block level 1e-13 above tau_s = E_{s,0} + tau (eigensolver noise)
        # must leave the clamp tails and kappa exactly as the exact tie does
        _, T = make_T(n=8, l=2)
        e0 = float(T.block_ground_energies()[1])
        level = float(T.block_spectra()[1].eigenvalues[1])
        tau = level - e0
        near = tau - 1e-13
        assert e0 + tau == level and 0.0 < level - (e0 + near) < 2e-13
        tails_tie = build_effective(T, tau).tail_projectors()
        tails_near = build_effective(T, near).tail_projectors()
        for a, b in zip(tails_tie, tails_near):
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_allclose(a, b, atol=1e-12)
        [tie], [off] = theorem5_check(T, [tau]), theorem5_check(T, [near])
        assert off.kappa == pytest.approx(tie.kappa, abs=1e-9)


class TestEnergyDistribution:
    def test_grid_holds(self):
        _, T = make_T(n=8, l=2)
        eff = build_effective(T, 5.0)
        e0, width = T.spectral().ground_energy, T.spectral().width
        recs = energy_distribution_check(
            eff,
            np.linspace(-2.0, 8.0, 3),
            np.linspace(e0, e0 + width, 3),
        )
        assert len(recs) == 2 * (T.q + 2) * 9
        assert all(r.holds for r in recs)

    def test_vacuous_regime_low_e_prime(self):
        # E' below every block eigenvalue: lhs <= 1 while the bound exceeds 1
        _, T = make_T()
        eff = build_effective(T, 4.0)
        recs = energy_distribution_check(eff, [-50.0], [0.0])
        for r in recs:
            if r.bound_id == "prop8.energy-dist":
                assert r.lhs <= 1.0 + 1e-12
                assert r.rhs >= 1.0

    def test_high_e_prime_empty_rows(self):
        _, T = make_T()
        eff = build_effective(T, 4.0)
        top = T.spectral().eigenvalues[-1]
        recs = energy_distribution_check(eff, [top + 50.0], [top + 1.0])
        assert all(r.lhs == 0.0 for r in recs)


class TestEffectiveDifference:
    def test_saturated_tau_zero(self):
        _, T = make_T()
        width = max(sp.width for sp in T.block_spectra())
        eff = build_effective(T, width + 1.0)
        recs = effective_difference_check(T, eff, [0.0, 1.0])
        assert all(r.lhs <= 1e-10 for r in recs)

    def test_ground_energy_case(self):
        _, T = make_T(n=8, l=2)
        eff = build_effective(T, 6.0)
        lam, _ = T.lambdas
        g0 = T.envelope.g0
        spec_t = T.spectral()
        e0 = spec_t.ground_energy
        assert abs(e0) < 1e-9
        [rec] = effective_difference_check(T, eff, [e0])
        # at E = E_t0 the lhs is exactly ||H_eff |0_t>||
        direct = np.linalg.norm(eff.assemble_dense() @ spec_t.eigenvectors[:, 0])
        assert rec.lhs == pytest.approx(direct, abs=1e-9)
        assert rec.rhs == pytest.approx(
            27 * (T.q + 2) / lam * math.exp(-lam * (6.0 - 4 * g0)), rel=1e-9
        )
        assert rec.holds


class TestExponentialFilter:
    def test_identity_operator(self):
        _, T = make_T()
        dim_block = T.internal[1].shape[0]
        recs = exponential_filter_check(T, 1, np.eye(dim_block), E=1.0, E_prime=2.0)
        assert recs[0].lhs <= 1e-12  # orthogonal spectral sectors of the same operator

    def test_clamp_tail_projector_case(self):
        _, T = make_T(n=8, l=2)
        eff = build_effective(T, 4.0)
        e0 = T.spectral().ground_energy
        s = 1
        P = eff.tail_projectors()[s]
        assert P is not None
        recs = exponential_filter_check(T, s, P, E=e0 + 1.0, E_prime=e0 + 6.0, eff=eff)
        assert len(recs) == 2
        assert all(r.holds for r in recs)

    def test_random_block_diagonal(self, rng):
        _, T = make_T()
        s = 2
        sp = T.block_spectra()[s]
        diag = rng.uniform(-1, 1, size=sp.source_dim)
        O = (sp.eigenvectors * diag) @ sp.eigenvectors.conj().T
        recs = exponential_filter_check(T, s, O, E=0.5, E_prime=4.0)
        assert all(r.holds for r in recs)

    def test_grid_call_matches_scalar_loop(self, rng):
        _, T = make_T(n=8, l=2)
        eff = build_effective(T, 4.0)
        e0, width = T.spectral().ground_energy, T.spectral().width
        s = 1
        sp = T.block_spectra()[s]
        O = (sp.eigenvectors * rng.uniform(-1, 1, size=sp.source_dim)) @ sp.eigenvectors.T
        E_grid = [e0, e0 + width / 8, e0 + width / 4]
        E_prime_grid = [e0 + width / 3, e0 + 2 * width / 3]
        grid = exponential_filter_check(T, s, O, E=E_grid, E_prime=E_prime_grid, eff=eff)
        looped = [
            rec
            for E_prime in E_prime_grid
            for E in E_grid
            for rec in exponential_filter_check(T, s, O, E=E, E_prime=E_prime, eff=eff)
        ]
        assert len(grid) == len(looped) == 2 * len(E_grid) * len(E_prime_grid)
        assert [(r.bound_id, r.context, r.lhs, r.rhs) for r in grid] == [
            (r.bound_id, r.context, r.lhs, r.rhs) for r in looped
        ]

    @pytest.mark.parametrize("case", sorted(LOCAL_CASES))
    def test_window_lhs_matches_full_rotation(self, case, rng):
        T = LOCAL_CASES[case]()
        eff = build_effective(T, 4.0)
        e0, width = T.spectral().ground_energy, T.spectral().width
        E_grid = [e0, e0 + width / 4]
        E_prime_grid = [e0 + width / 3, e0 + 2 * width / 3]
        for s in range(1, T.q + 1):
            sp = T.block_spectra()[s]
            O = (sp.eigenvectors * rng.uniform(-1, 1, size=sp.source_dim)) @ sp.eigenvectors.conj().T
            recs = iter(exponential_filter_check(T, s, O, E=E_grid, E_prime=E_prime_grid, eff=eff))
            for E_prime in E_prime_grid:
                for E in E_grid:
                    for spectrum in (T.spectral(), eff.spectral()):
                        expected = dense_filter_lhs(T, s, O, E, E_prime, spectrum)
                        assert next(recs).lhs == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_noncommuting_rejected(self, rng):
        _, T = make_T()
        dim_block = T.internal[1].shape[0]
        M = rng.standard_normal((dim_block, dim_block))
        M = M + M.T
        with pytest.raises(ValueError):
            exponential_filter_check(T, 1, M, E=0.0, E_prime=1.0)


class TestCommutatorBound:
    def test_bond_terms(self):
        _, T = make_T(n=8, l=2)
        recs = commutator_bound_check(T)
        assert len(recs) == T.q + 1
        assert all(r.holds for r in recs)

    def test_scaling_with_g(self):
        H, T = make_T(n=6)
        g = local_energy_g(H)
        recs = commutator_bound_check(T)
        for r, bond in zip(recs, T.bonds):
            assert r.rhs == pytest.approx(6 * g * 2 * 4 * spectral_norm(bond), rel=1e-12)

    @pytest.mark.parametrize("case", sorted(LOCAL_CASES))
    def test_bond_neighbourhood_matches_full_chain(self, case):
        T = LOCAL_CASES[case]()
        got = [r.lhs for r in commutator_bound_check(T)]
        assert got == pytest.approx(dense_commutator_norms(T), rel=1e-12)
