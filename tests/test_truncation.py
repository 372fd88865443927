import numpy as np
import pytest

from agsplab.hamiltonian import (
    Hamiltonian,
    InteractionTerm,
    LatticeSpec,
    assemble_dense,
    build_long_range_fermion_chain,
    build_long_range_ising,
    decay_envelope,
    spectral_norm,
)
from agsplab.spectral import eigendecompose
from agsplab.truncation import (
    align_phase,
    decompose_blocks,
    shift_block_energies,
    truncate_interactions,
    verify_lemma3_4,
)
from conftest import oracle_ground_vector


class TestDecomposeBlocks:
    def test_n8_q2_l2(self):
        b = decompose_blocks(8, 2, 2)
        assert b.blocks == ((1, 2), (3, 4), (5, 6), (7, 8))
        assert b.cut == 4

    def test_n4_q2_l1(self):
        b = decompose_blocks(4, 2, 1)
        assert b.blocks == ((1,), (2,), (3,), (4,))

    def test_empty_edges_allowed(self):
        b = decompose_blocks(8, 4, 2)
        assert b.blocks[0] == () and b.blocks[-1] == ()
        flat = [s for blk in b.blocks for s in blk]
        assert flat == list(range(1, 9))

    def test_odd_leftover_goes_left(self):
        b = decompose_blocks(7, 2, 2)
        assert len(b.blocks[0]) == 2 and len(b.blocks[-1]) == 1

    def test_explicit_cut(self):
        b = decompose_blocks(8, 2, 2, cut_position=3)
        assert b.cut == 3
        assert b.blocks[0] == (1,) and b.blocks[-1] == (6, 7, 8)
        with pytest.raises(ValueError):
            decompose_blocks(8, 2, 2, cut_position=1)

    @pytest.mark.parametrize("n,q,l", [(6, 2, 1), (8, 2, 3), (9, 4, 2), (12, 6, 2)])
    def test_partition_invariant(self, n, q, l):
        b = decompose_blocks(n, q, l)
        flat = sorted(s for blk in b.blocks for s in blk)
        assert flat == list(range(1, n + 1))
        for s in range(1, q + 1):
            assert len(b.blocks[s]) == l

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            decompose_blocks(8, 3, 2)
        with pytest.raises(ValueError):
            decompose_blocks(4, 2, 3)
        with pytest.raises(ValueError):
            decompose_blocks(8, 0, 1)


def nearest_neighbor_chain(n, J=1.0, B=0.5):
    terms = []
    xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]).astype(float)
    z = np.diag([1.0, -1.0])
    for i in range(1, n):
        terms.append(InteractionTerm((i, i + 1), J * xx))
    for i in range(1, n + 1):
        terms.append(InteractionTerm((i,), B * z))
    return Hamiltonian(LatticeSpec(n=n), terms)


class TestTruncate:
    def test_nearest_neighbor_nothing_dropped(self):
        H = nearest_neighbor_chain(6)
        T = truncate_interactions(H, decompose_blocks(6, 2, 1))
        assert T.dropped_count == 0
        dense = T.assemble_dense() + T.origin_shift * np.eye(64)
        np.testing.assert_allclose(dense, assemble_dense(H), atol=1e-10)
        # represented operator has its ground energy pinned at zero
        assert np.linalg.eigvalsh(T.assemble_dense())[0] == pytest.approx(0.0, abs=1e-10)

    def test_dropped_terms_enumeration(self):
        H = build_long_range_ising(6, 3.0, 1.0, 1.0)
        blocks = decompose_blocks(6, 2, 1)  # B0={1,2} B1={3} B2={4} B3={5,6}
        T = truncate_interactions(H, blocks)
        owner = {}
        for s, blk in enumerate(blocks.blocks):
            for site in blk:
                owner[site] = s
        expected_dropped = [
            t.support
            for t in H.terms
            if len(t.support) == 2
            and (
                abs(owner[t.support[0]] - owner[t.support[1]]) > 1
            )
        ]
        assert T.dropped_count == len(expected_dropped)
        delta = assemble_dense(H) - (T.assemble_dense() + T.origin_shift * np.eye(64))
        triangle = sum(
            1.0 / (j - i) ** 3 for (i, j) in expected_dropped
        )
        assert np.max(np.abs(np.linalg.eigvalsh(delta))) <= triangle + 1e-12

    @pytest.mark.parametrize("l", [1, 2])
    def test_norm_distance_bound(self, l):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        env = decay_envelope(H)
        T = truncate_interactions(H, decompose_blocks(8, 2, l))
        delta = assemble_dense(H) - (T.assemble_dense() + T.origin_shift * np.eye(256))
        norm = np.max(np.abs(np.linalg.eigvalsh(delta)))
        assert norm <= env.g0 * 2 * l ** (-env.alpha_bar) + 1e-9

    def test_bond_norms_below_g0(self):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        env = decay_envelope(H)
        T = truncate_interactions(H, decompose_blocks(8, 2, 2))
        assert all(spectral_norm(b) <= env.g0 + 1e-9 for b in T.bonds)


class TestSpectral:
    @pytest.mark.parametrize("l", [1, 2])
    def test_matches_assembled_operator(self, l):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        T = truncate_interactions(H, decompose_blocks(8, 2, l))
        sp = T.spectral()
        assert sp.eigenvalues[0] == 0.0
        np.testing.assert_allclose(sp.eigenvalues, np.linalg.eigvalsh(T.assemble_dense()), atol=1e-10)
        # the eigenvectors belong to the represented (origin-shifted) operator
        residual = T.assemble_dense() @ sp.eigenvectors - sp.eigenvectors * sp.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-10

    def test_survives_block_shift(self):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        T0 = truncate_interactions(H, decompose_blocks(8, 2, 2))
        T1 = shift_block_energies(T0)
        assert T1.spectral() is T0.spectral()
        assert T1.spectral().eigenvalues[0] == 0.0
        np.testing.assert_allclose(
            T1.spectral().eigenvalues, np.linalg.eigvalsh(T1.assemble_dense()), atol=1e-10
        )


class TestShiftBlockEnergies:
    def test_sum_zero_and_lemma_bound(self):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        env = decay_envelope(H)
        T = shift_block_energies(truncate_interactions(H, decompose_blocks(8, 2, 2)))
        assert sum(T.energy_shifts) == pytest.approx(0.0, abs=1e-10)
        q = T.q
        for e in T.block_ground_energies():
            assert abs(e) <= (q + 1) / (q + 2) * env.g0 + 1e-9

    def test_idempotent(self):
        H = build_long_range_ising(6, 3.0, 1.0, 1.0)
        T1 = shift_block_energies(truncate_interactions(H, decompose_blocks(6, 2, 1)))
        T2 = shift_block_energies(T1)
        for a, b in zip(T1.internal, T2.internal):
            np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(T1.energy_shifts, T2.energy_shifts, atol=1e-12)

    def test_spectrum_invariant(self):
        H = build_long_range_ising(6, 3.0, 1.0, 1.0)
        T0 = truncate_interactions(H, decompose_blocks(6, 2, 1))
        T1 = shift_block_energies(T0)
        w0 = np.linalg.eigvalsh(T0.assemble_dense())
        w1 = np.linalg.eigvalsh(T1.assemble_dense())
        np.testing.assert_allclose(w0, w1, atol=1e-10)

    def test_symmetric_blocks_get_equal_shifts(self):
        H = nearest_neighbor_chain(4, J=0.3, B=1.0)
        T = shift_block_energies(truncate_interactions(H, decompose_blocks(4, 2, 1)))
        shifts = np.asarray(T.energy_shifts)
        # mirror symmetry of the chain pairs blocks (0,3) and (1,2)
        assert shifts[0] == pytest.approx(shifts[3], abs=1e-10)
        assert shifts[1] == pytest.approx(shifts[2], abs=1e-10)


class TestVerifyLemma34:
    def test_no_tail_truncation_is_exact(self):
        H = nearest_neighbor_chain(6)
        T = shift_block_energies(truncate_interactions(H, decompose_blocks(6, 2, 1)))
        rep = verify_lemma3_4(H, T, eigendecompose(assemble_dense(H)))
        assert rep.delta_norm <= 1e-10
        assert rep.weyl_max <= 1e-9
        assert rep.overlap_applicable and rep.overlap_distance <= 1e-7
        assert rep.delta_bound is None or rep.delta_norm <= rep.delta_bound + 1e-9
        assert rep.weyl_max <= rep.delta_norm + 1e-9
        assert rep.gap_t >= rep.gap - 2.0 * rep.delta_norm - 1e-9
        assert rep.overlap_distance <= rep.overlap_bound + 1e-9
        assert rep.delta_norm <= T.dropped_norm_sum + 1e-9

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_reference_family_n8(self, l):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        T = shift_block_energies(truncate_interactions(H, decompose_blocks(8, 2, l)))
        rep = verify_lemma3_4(H, T, eigendecompose(assemble_dense(H)))
        assert rep.delta_norm <= rep.delta_bound + 1e-9
        assert rep.weyl_max <= rep.delta_norm + 1e-9
        assert rep.gap_t >= rep.gap - 2.0 * rep.delta_norm - 1e-9
        assert not rep.overlap_applicable or rep.overlap_distance <= rep.overlap_bound + 1e-9
        assert rep.delta_norm <= T.dropped_norm_sum + 1e-9

    @pytest.mark.parametrize(
        "H,l",
        [
            (build_long_range_ising(8, 3.0, 1.0, 2.0), 1),
            (build_long_range_ising(8, 3.0, 1.0, 2.0), 2),
            (build_long_range_ising(9, 2.5, 1.0, 1.0), 2),
            (build_long_range_fermion_chain(8, 3.0, 1.0, 0.5), 2),
        ],
    )
    def test_delta_from_dropped_terms_matches_dense_difference(self, H, l):
        # delta = H - H_t(raw), with H_t(raw) = H_t + origin_shift * I
        T = shift_block_energies(truncate_interactions(H, decompose_blocks(H.lattice.n, 2, l)))
        dense = assemble_dense(H) - T.assemble_dense() - T.origin_shift * np.eye(H.lattice.dim)
        rep = verify_lemma3_4(H, T, eigendecompose(assemble_dense(H)))
        assert rep.delta_norm == pytest.approx(float(np.max(np.abs(np.linalg.eigvalsh(dense)))), abs=1e-12)

    def test_overlap_guard_when_gap_too_small(self):
        # near-critical field: tiny gap, so 4*||dH|| >= gap and the overlap
        # bound is recorded as inapplicable rather than asserted
        H = build_long_range_ising(8, 2.2, 1.0, 1.0)
        T = shift_block_energies(truncate_interactions(H, decompose_blocks(8, 2, 1)))
        rep = verify_lemma3_4(H, T, eigendecompose(assemble_dense(H)))
        assert not rep.overlap_applicable
        assert rep.overlap_distance is None
        assert not rep.overlap_applicable or rep.overlap_distance <= rep.overlap_bound + 1e-9

    def test_phase_alignment_convention(self):
        H = build_long_range_ising(6, 3.0, 1.0, 2.0)
        gs = oracle_ground_vector(assemble_dense(H))
        flipped = -gs.copy()
        aligned = align_phase(gs, flipped)
        assert np.vdot(gs, aligned).real >= 0
        np.testing.assert_allclose(aligned, gs, atol=1e-12)
