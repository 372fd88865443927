import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from agsplab import effective
from agsplab.effective import (
    build_effective,
    commutator_bound_check,
    effective_difference_check,
    energy_cutoff,
    energy_distribution_check,
    exponential_filter_check,
    theorem5_check,
    theorem5_precondition_tau,
)
from agsplab.agsp import _filter_values, agsp_filter
from agsplab.hamiltonian import (
    InteractionTerm,
    build_long_range_fermion_chain,
    build_long_range_ising,
    decay_envelope,
    local_energy_g,
)
from agsplab.spectral import SpectralData, eigendecompose, in_window
from agsplab.truncation import decompose_blocks, truncate_interactions
from conftest import (
    PAULI_Z,
    dense_commutator_norms,
    dense_eigenvectors,
    dense_energy_dist_lhs,
    dense_filter,
    dense_filter_lhs,
    dense_operator,
    kron_embed,
    one_sector_spectrum,
    unsplit_hermitian_norm,
)


def make_T(n=6, alpha=3.0, J=1.0, B=2.0, q=2, l=1):
    H = build_long_range_ising(n, alpha, J, B)
    return H, truncate_interactions(H, decompose_blocks(n, q, l))


def fermion_T(n=8, l=2):
    H = build_long_range_fermion_chain(n, 3.0, 1.0, 0.5)
    return truncate_interactions(H, decompose_blocks(n, 2, l))


def x_field_T(n=8, l=2):
    """The Ising chain plus a 0.3 X field on every site: no spin-flip parity sector."""
    H = build_long_range_ising(n, 3.0, 1.0, 2.0)
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    H = replace(H, terms=H.terms + [InteractionTerm((i,), 0.3 * X) for i in range(1, n + 1)])
    return truncate_interactions(H, decompose_blocks(n, 2, l))


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
        np.testing.assert_allclose(dense_operator(eff), dense_operator(T), atol=1e-10)

    def test_norm_budget(self):
        H, T = make_T(n=8, l=2)
        env = decay_envelope(H)
        eff = build_effective(T, 6.0)
        norm = unsplit_hermitian_norm(dense_operator(eff))
        assert norm <= (T.q + 2) * (6.0 + 2 * env.g0) + 1e-9

    def test_gap_of_clamp_below_4g0(self):
        # the clamped operator's gap never exceeds 4*g0
        for tau in (2.0, 4.0, 8.0):
            H, T = make_T(n=8, l=2)
            env = decay_envelope(H)
            eff = build_effective(T, tau)
            assert eff.spectral().gap <= 4.0 * env.g0 + 1e-9

    def test_requires_balanced_blocks(self):
        # zero-sum block shifts keep the operator but move two block ground energies past g0
        H = build_long_range_ising(8, 3.0, 0.05, 2.0)
        T = truncate_interactions(H, decompose_blocks(8, 2, 1))
        build_effective(T, 4.0)
        c = 2.0 * T.envelope.g0
        shifts = [c, -c] + [0.0] * T.q
        unbalanced = replace(
            T,
            internal=[h + cs * np.eye(h.shape[0]) for h, cs in zip(T.internal, shifts)],
            _block_spectra=[replace(sp, eigenvalues=sp.eigenvalues + cs) for sp, cs in zip(T.block_spectra(), shifts)],
        )
        np.testing.assert_allclose(dense_operator(unbalanced), dense_operator(T), atol=1e-12)
        assert np.max(np.abs(unbalanced.block_ground_energies())) > T.envelope.g0
        with pytest.raises(ValueError, match="exceed g0"):
            build_effective(unbalanced, 4.0)

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
        np.testing.assert_array_equal(dense_operator(T, eff.internal_eff), dense_operator(eff))
        assert eff.spectral().norm == pytest.approx(unsplit_hermitian_norm(dense_operator(eff)), rel=1e-12)

    def test_internal_commute_with_blocks(self):
        _, T = make_T()
        eff = build_effective(T, 3.0)
        for h, ht in zip(T.internal, eff.internal_eff):
            assert np.max(np.abs(h @ ht - ht @ h)) <= 1e-10


def per_tau(records, bound_id: str) -> dict:
    """{tau: record} of the per-tau `bound_id` records of `theorem5_check`."""
    return {r.context["tau"]: r for r in records if r.bound_id == bound_id and "tau" in r.context}


@pytest.fixture()
def hypothesis_everywhere(monkeypatch):
    """Theorem 5's tau threshold lowered to 0: every grid tau records its gap and drift."""
    monkeypatch.setattr(effective, "theorem5_precondition_tau", lambda T, gap_t: 0.0)


class TestTheorem5:
    def test_distances_decay_and_kappa_bound(self, hypothesis_everywhere):
        _, T = make_T(n=8, l=2)
        taus = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        recs = theorem5_check(T, taus, partial(build_effective, T))
        overlap, kappa = per_tau(recs, "thm5.overlap"), per_tau(recs, "thm5.kappa")
        assert sorted(overlap) == sorted(kappa) == taus
        dists = [overlap[tau].lhs for tau in taus]
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))
        assert all(r.lhs <= r.rhs + 1e-9 for r in kappa.values())
        assert all(r.lhs >= 0 for r in kappa.values())

    def test_saturated_tau_zero_distance(self, hypothesis_everywhere):
        _, T = make_T()
        tau = max(sp.width for sp in T.block_spectra()) + 1.0
        recs = theorem5_check(T, [tau], partial(build_effective, T))
        [overlap], [gap] = per_tau(recs, "thm5.overlap").values(), per_tau(recs, "thm5.gap").values()
        assert overlap.lhs <= 1e-9
        # the gap record is gap_t / 2 <= gap_eff
        assert gap.rhs / (2.0 * gap.lhs) == pytest.approx(1.0, abs=1e-9)

    def test_slope_fit_negative(self):
        _, T = make_T(n=8, l=2)
        recs = theorem5_check(T, np.linspace(2, 10, 8), partial(build_effective, T))
        fit = {r.context["variant"]: r for r in recs if "variant" in r.context}
        slope, r2, used = fit["decay-slope"].lhs, fit["decay-fit-r2"].rhs, fit["decay-slope"].context["points"]
        assert slope < 0 and r2 >= 0.9 and used >= 5

    def test_hypothesis_met_on_reference(self, reference_pipeline):
        # tau_min (2667 on the reference chain) clamps above every block level:
        # real gap and drift records, no placeholder, and all of them hold
        T = reference_pipeline.T
        tau_min = theorem5_precondition_tau(T, T.spectral().gap)
        assert tau_min > reference_pipeline.T.clamp_ceiling()
        recs = theorem5_check(T, [tau_min], partial(build_effective, T))
        assert [r.bound_id for r in recs] == ["thm5.kappa", "thm5.gap", "thm5.overlap"]
        assert all(r.context == {"tau": tau_min} and r.holds for r in recs)
        kappa, gap, overlap = recs
        assert kappa.lhs == 0.0
        assert gap.rhs == pytest.approx(2.0 * gap.lhs, rel=1e-9)
        assert overlap.lhs <= 1e-9 < overlap.rhs


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
        eff_tie, eff_near = build_effective(T, tau), build_effective(T, near)
        for a, b in zip(eff_tie.tail_projectors(), eff_near.tail_projectors()):
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_allclose(a, b, atol=1e-12)
        clamp_at = partial(build_effective, T)
        [tie] = per_tau(theorem5_check(T, [tau], clamp_at), "thm5.kappa").values()
        [off] = per_tau(theorem5_check(T, [near], clamp_at), "thm5.kappa").values()
        assert off.lhs == pytest.approx(tie.lhs, abs=1e-9)


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

    @staticmethod
    def pipeline_grids(T):
        """The E' and E grids `verify_point` uses, plus a tie with a block level."""
        e0, width = T.spectral().ground_energy, T.spectral().width
        lo = min(sp.eigenvalues[0] for sp in T.block_spectra())
        hi = max(sp.eigenvalues[-1] for sp in T.block_spectra())
        tie = float(T.block_spectra()[1].eigenvalues[1])
        return [*np.linspace(lo - 0.5, hi + 0.5, 5), tie], np.linspace(e0, e0 + width, 5)

    @pytest.mark.parametrize("l", [1, 3], ids=["edge-blocks", "empty-edge-blocks"])
    def test_every_lhs_matches_the_product_basis_oracle(self, l):
        _, T = make_T(n=6, l=l)
        eff = build_effective(T, 4.0)
        E_primes, Es = self.pipeline_grids(T)
        recs = energy_distribution_check(eff, E_primes, Es)
        assert len(recs) == 2 * (T.q + 2) * len(E_primes) * len(Es)
        spectra = {"prop8.energy-dist": T.spectral(), "prop8.energy-dist-eff": eff.spectral()}
        solved = 0
        for r in recs:
            c = r.context
            expected = dense_energy_dist_lhs(T, c["s"], spectra[r.bound_id], c["E_prime"], c["E"])
            assert abs(r.lhs - expected) <= 1e-12
            solved += 0.0 < r.lhs < 1.0
        assert solved > 0  # some corners go through the Gram kernel, not only the identities

    def test_non_finite_eigenvector_gives_nan_for_every_record_read_from_it(self):
        _, T = make_T()
        eff = build_effective(T, 4.0)
        E_primes, Es = self.pipeline_grids(T)
        sp = eff.spectral()
        poisoned = dense_eigenvectors(sp)
        poisoned[7, 40] = np.nan
        eff._spectral = one_sector_spectrum(sp.eigenvalues, poisoned)
        recs = energy_distribution_check(eff, E_primes, Es)
        assert all(np.isnan(r.lhs) for r in recs if r.bound_id == "prop8.energy-dist-eff")
        assert all(np.isfinite(r.lhs) for r in recs if r.bound_id == "prop8.energy-dist")
        block = T.block_spectra()[2]
        block.sectors[0].vectors[0, 0] = np.nan
        recs = energy_distribution_check(eff, E_primes, Es)
        assert all(np.isnan(r.lhs) == (r.context["s"] == 2 or r.bound_id == "prop8.energy-dist-eff") for r in recs)


class TestEffectiveDifference:
    def test_saturated_tau_zero(self):
        _, T = make_T()
        width = max(sp.width for sp in T.block_spectra())
        eff = build_effective(T, width + 1.0)
        recs = effective_difference_check(T, eff, [0.0, 1.0])
        assert all(r.lhs <= 1e-10 for r in recs)

    @pytest.mark.parametrize("family", ["ising", "fermion"])
    def test_block_differences_match_dense_difference(self, family):
        T = make_T(n=8, l=2)[1] if family == "ising" else fermion_T()
        eff = build_effective(T, 1.0)
        spec_t = T.spectral()
        grid = np.linspace(0.0, 0.5 * spec_t.width, 4)
        diff = dense_operator(T) - dense_operator(eff)
        for E, rec in zip(grid, effective_difference_check(T, eff, grid)):
            basis = dense_eigenvectors(spec_t)[:, spec_t.eigenvalues <= E + 1e-9]
            assert rec.lhs == pytest.approx(np.linalg.norm(diff @ basis, 2), abs=1e-12)

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
        direct = np.linalg.norm(dense_operator(eff) @ dense_eigenvectors(spec_t)[:, 0])
        assert rec.lhs == pytest.approx(direct, abs=1e-9)
        assert rec.rhs == pytest.approx(
            27 * (T.q + 2) / lam * math.exp(-lam * (6.0 - 4 * g0)), rel=1e-9
        )
        assert rec.holds


class TestExponentialFilter:
    def test_identity_operator(self):
        _, T = make_T()
        dim_block = T.internal[1].shape[0]
        recs = exponential_filter_check(T, 1, np.eye(dim_block), E=1.0, E_prime=2.0, eff=build_effective(T, 4.0))
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
        U = dense_eigenvectors(sp)
        diag = rng.uniform(-1, 1, size=U.shape[0])
        O = (U * diag) @ U.conj().T
        recs = exponential_filter_check(T, s, O, E=0.5, E_prime=4.0, eff=build_effective(T, 4.0))
        assert all(r.holds for r in recs)

    def test_grid_call_matches_scalar_loop(self, rng):
        _, T = make_T(n=8, l=2)
        eff = build_effective(T, 4.0)
        e0, width = T.spectral().ground_energy, T.spectral().width
        s = 1
        sp = T.block_spectra()[s]
        U = dense_eigenvectors(sp)
        O = (U * rng.uniform(-1, 1, size=U.shape[0])) @ U.T
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

    def test_one_image_per_variant_and_E(self, rng, monkeypatch):
        _, T = make_T(n=8, l=2)
        eff = build_effective(T, 4.0)
        e0, width = T.spectral().ground_energy, T.spectral().width
        s = 1
        U = dense_eigenvectors(T.block_spectra()[s])
        O = (U * rng.uniform(-1, 1, size=U.shape[0])) @ U.T
        E_grid = [e0, e0 + width / 8, e0 + width / 4]
        E_prime_grid = [e0 + width / 3, e0 + width / 2, e0 + 2 * width / 3]
        expected = exponential_filter_check(T, s, O, E=E_grid, E_prime=E_prime_grid, eff=eff)
        images, built = SpectralData.images, []

        def spy(sp, positions, apply, labels=None):
            built.append((id(sp), tuple(positions)))
            return images(sp, positions, apply, labels)

        monkeypatch.setattr(SpectralData, "images", spy)
        recs = exponential_filter_check(T, s, O, E=E_grid, E_prime=E_prime_grid, eff=eff)
        # 2 variants x 3 E, each read for all 3 E' (18 before); the records are unchanged bit for bit.
        assert len(built) == len(set(built)) == 2 * len(E_grid)
        assert [(r.bound_id, r.context, r.lhs, r.rhs) for r in recs] == [
            (r.bound_id, r.context, r.lhs, r.rhs) for r in expected
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
            U = dense_eigenvectors(sp)
            O = (U * rng.uniform(-1, 1, size=U.shape[0])) @ U.conj().T
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
            exponential_filter_check(T, 1, M, E=0.0, E_prime=1.0, eff=build_effective(T, 4.0))


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
            assert r.rhs == pytest.approx(6 * g * 2 * 4 * unsplit_hermitian_norm(bond), rel=1e-12)

    @pytest.mark.parametrize("case", sorted(LOCAL_CASES))
    def test_bond_neighbourhood_matches_full_chain(self, case):
        T = LOCAL_CASES[case]()
        got = [r.lhs for r in commutator_bound_check(T)]
        assert got == pytest.approx(dense_commutator_norms(T), rel=1e-12)

    def test_peak_stays_within_three_dense_arrays(self, reference_pipeline):
        # The middle bond's region is the whole n=10 chain, so one region
        # array is a d^n x d^n float64.
        T = reference_pipeline.T
        dense = T.lattice.dim**2 * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            commutator_bound_check(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two region products and both operators peak at 4.0 arrays, X = bond . local
        # held with its commutator at 2.78.  With `local` released and X rebound
        # to the commutator before the norm, the peak is 2.016 arrays.
        assert peak <= 2.02 * dense


SECTOR_CASES = {"split": lambda: make_T(n=8, l=2)[1], "x-field": x_field_T}


class TestSectorReaders:
    """Each per-sector reader against its unsplit oracle, on a chain that splits and on one that does not."""

    @pytest.fixture(params=sorted(SECTOR_CASES))
    def clamp(self, request):
        T = SECTOR_CASES[request.param]()
        eff = build_effective(T, 2.0)
        sectors = 2 if request.param == "split" else 1
        assert not eff.cuts_nothing()
        assert len(T.spectral().sectors) == len(eff.spectral().sectors) == sectors
        return eff

    def test_filter_matrix(self, clamp):
        H = dense_operator(clamp)
        w, V = np.linalg.eigh(H)
        K = dense_filter(agsp_filter(clamp, 4))
        assert np.array_equal(K, K.T)
        expected = (V * _filter_values(4, w, w[1] - w[0], w[-1] - w[0])) @ V.T
        assert np.max(np.abs(K - expected)) <= 1e-12

    def test_prop9_diff(self, clamp):
        T = clamp.base
        w, V = np.linalg.eigh(dense_operator(T))
        diff = dense_operator(T) - dense_operator(clamp)
        grid = np.linspace(0.0, 0.5 * (w[-1] - w[0]), 4)
        for E, rec in zip(grid, effective_difference_check(T, clamp, grid)):
            expected = np.linalg.norm(diff @ V[:, in_window(w, hi=E)], 2)
            assert abs(rec.lhs - expected) <= 1e-12

    def test_lemma14_filter(self, clamp):
        T = clamp.base
        e0, width = T.spectral().ground_energy, T.spectral().width
        s = 1
        h = T.internal[s]
        O = h @ h - 0.5 * h  # commutes with h_s, whatever its sectors
        E_grid, E_prime_grid = [e0, e0 + width / 4], [e0 + width / 3, e0 + 2 * width / 3]
        recs = iter(exponential_filter_check(T, s, O, E=E_grid, E_prime=E_prime_grid, eff=clamp))
        for E_prime in E_prime_grid:
            for E in E_grid:
                for H in (dense_operator(T), dense_operator(clamp)):
                    w, V = np.linalg.eigh(H)
                    rot = V.conj().T @ kron_embed(T, T.blocks.blocks[s], O) @ V
                    block = rot[np.ix_(in_window(w, lo=E_prime), in_window(w, hi=E))]
                    expected = np.linalg.norm(block, 2) if block.size else 0.0
                    assert abs(next(recs).lhs - expected) <= 1e-12 * max(1.0, np.linalg.norm(O, 2))

    def test_prop8(self, clamp):
        T = clamp.base
        E_primes = np.linspace(-1.0, 4.0, 4)
        E_grid = np.linspace(0.0, T.spectral().width, 4)
        spectra = {"prop8.energy-dist": T.spectral(), "prop8.energy-dist-eff": clamp.spectral()}
        for r in energy_distribution_check(clamp, E_primes, E_grid):
            c = r.context
            expected = dense_energy_dist_lhs(T, c["s"], spectra[r.bound_id], c["E_prime"], c["E"])
            assert abs(r.lhs - expected) <= 1e-12
