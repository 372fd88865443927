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
    assemble_dense,
    build_long_range_ising,
    decay_envelope,
    local_energy_g,
    spectral_norm,
)
from agsplab.spectral import eigendecompose, lowest_eigenpairs
from agsplab.truncation import decompose_blocks, shift_block_energies, truncate_interactions
from conftest import PAULI_Z


def make_T(n=6, alpha=3.0, J=1.0, B=2.0, q=2, l=1):
    H = build_long_range_ising(n, alpha, J, B)
    return H, shift_block_energies(truncate_interactions(H, decompose_blocks(n, q, l)))


class TestEnergyCutoff:
    def test_above_top_is_identity_map(self, rng):
        M = rng.standard_normal((6, 6))
        M = M + M.T
        top = np.max(np.linalg.eigvalsh(M))
        np.testing.assert_allclose(energy_cutoff(M, top + 1.0), M, atol=1e-12)

    def test_at_ground_flattens(self, rng):
        M = rng.standard_normal((5, 5))
        M = M + M.T
        e0 = np.linalg.eigvalsh(M)[0]
        np.testing.assert_allclose(energy_cutoff(M, e0), e0 * np.eye(5), atol=1e-12)

    def test_sigma_z_clamp_at_zero(self):
        clamped = energy_cutoff(PAULI_Z, 0.0)
        np.testing.assert_allclose(np.linalg.eigvalsh(clamped), [-1.0, 0.0], atol=1e-12)

    def test_commutes_with_input(self, rng):
        M = rng.standard_normal((8, 8))
        M = M + M.T
        C = energy_cutoff(M, 0.3)
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
        eff = build_effective(T, 4.0)
        g = local_energy_g(H)
        g0 = decay_envelope(H).g0
        lam, lam_p = eff.lambdas
        assert lam == pytest.approx(1.0 / (12 * g * 4 + 4 * g0))
        assert lam_p == pytest.approx(min(1.0 / (112 * g0), 1.0 / (12 * g * 4)))

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
        assert all(d.kappa_holds for d in diags)
        assert all(d.kappa >= 0 for d in diags)

    def test_saturated_tau_zero_distance(self):
        _, T = make_T()
        width = max(sp.width for sp in T.block_spectra())
        [diag] = theorem5_check(T, [width + 1.0])
        assert diag.overlap_distance <= 1e-9
        assert diag.gap_ratio == pytest.approx(1.0, abs=1e-9)

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


class TestEnergyDistribution:
    def test_grid_holds(self):
        _, T = make_T(n=8, l=2)
        eff = build_effective(T, 5.0)
        spec_t = eigendecompose(T.assemble_dense(), check=False)
        e0, width = spec_t.ground_energy, spec_t.width
        recs = energy_distribution_check(
            eff,
            np.linspace(-2.0, 8.0, 3),
            np.linspace(e0, e0 + width, 3),
            spec_t=spec_t,
        )
        assert len(recs) == 2 * (T.q + 2) * 9
        assert all(r.holds for r in recs)

    def test_vacuous_regime_low_e_prime(self):
        # E' below every block eigenvalue: lhs <= 1 while the bound exceeds 1
        _, T = make_T()
        eff = build_effective(T, 4.0)
        recs = energy_distribution_check(eff, [-50.0], [0.0])
        for r in recs:
            if r.label == "energy-dist":
                assert r.lhs <= 1.0 + 1e-12
                assert r.rhs >= 1.0

    def test_high_e_prime_empty_rows(self):
        _, T = make_T()
        eff = build_effective(T, 4.0)
        spec_t = eigendecompose(T.assemble_dense(), check=False)
        top = spec_t.eigenvalues[-1]
        recs = energy_distribution_check(eff, [top + 50.0], [top + 1.0], spec_t=spec_t)
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
        lam, _ = eff.lambdas
        g0 = T.envelope.g0
        spec_t = eigendecompose(T.assemble_dense(), check=False)
        e0 = spec_t.ground_energy  # ~0 up to eigensolver noise
        assert abs(e0) < 1e-9
        [rec] = effective_difference_check(T, eff, [e0], spec_t=spec_t)
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
        spec_t = eigendecompose(T.assemble_dense(), check=False)
        dim_block = T.internal[1].shape[0]
        recs = exponential_filter_check(T, 1, np.eye(dim_block), E=1.0, E_prime=2.0, spec_t=spec_t)
        assert recs[0].lhs <= 1e-12  # orthogonal spectral sectors of the same operator

    def test_clamp_tail_projector_case(self):
        _, T = make_T(n=8, l=2)
        eff = build_effective(T, 4.0)
        spec_t = eigendecompose(T.assemble_dense(), check=False)
        s = 1
        sp = T.block_spectra()[s]
        high = sp.eigenvectors[:, sp.eigenvalues > eff.tau_s[s]]
        P = high @ high.conj().T
        recs = exponential_filter_check(
            T, s, P, E=spec_t.ground_energy + 1.0, E_prime=spec_t.ground_energy + 6.0,
            spec_t=spec_t, eff=eff,
        )
        assert len(recs) == 2
        assert all(r.holds for r in recs)

    def test_random_block_diagonal(self, rng):
        _, T = make_T()
        spec_t = eigendecompose(T.assemble_dense(), check=False)
        s = 2
        sp = T.block_spectra()[s]
        diag = rng.uniform(-1, 1, size=sp.source_dim)
        O = (sp.eigenvectors * diag) @ sp.eigenvectors.conj().T
        recs = exponential_filter_check(T, s, O, E=0.5, E_prime=4.0, spec_t=spec_t)
        assert all(r.holds for r in recs)

    def test_grid_call_matches_scalar_loop(self, rng):
        _, T = make_T(n=8, l=2)
        eff = build_effective(T, 4.0)
        spec_t = eigendecompose(T.assemble_dense(), check=False)
        e0, width = spec_t.ground_energy, spec_t.width
        s = 1
        sp = T.block_spectra()[s]
        O = (sp.eigenvectors * rng.uniform(-1, 1, size=sp.source_dim)) @ sp.eigenvectors.T
        E_grid = [e0, e0 + width / 8, e0 + width / 4]
        E_prime_grid = [e0 + width / 3, e0 + 2 * width / 3]
        grid = exponential_filter_check(T, s, O, E=E_grid, E_prime=E_prime_grid, spec_t=spec_t, eff=eff)
        looped = [
            rec
            for E_prime in E_prime_grid
            for E in E_grid
            for rec in exponential_filter_check(T, s, O, E=E, E_prime=E_prime, spec_t=spec_t, eff=eff)
        ]
        assert len(grid) == len(looped) == 2 * len(E_grid) * len(E_prime_grid)
        assert [(r.label, r.context, r.lhs, r.rhs) for r in grid] == [
            (r.label, r.context, r.lhs, r.rhs) for r in looped
        ]

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
