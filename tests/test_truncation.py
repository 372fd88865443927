import numpy as np
import pytest

from agsplab.hamiltonian import (
    Hamiltonian,
    InteractionTerm,
    LatticeSpec,
    PowerLawMetadata,
    build_long_range_fermion_chain,
    build_long_range_ising,
    decay_envelope,
)
from agsplab.spectral import align_phase, eigendecompose
from agsplab.truncation import (
    decompose_blocks,
    truncate_interactions,
    verify_lemma3_4,
)
from conftest import assemble_dense, dense_eigenvectors, dense_operator, oracle_ground_vector, unsplit_hermitian_norm


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
    """XX chain with nearest-neighbour couplings only and a Z field.

    Its one-bond terms sit inside every power-law envelope J / r^alpha; the
    metadata names alpha = 3, which gives the generic decay envelope.
    """
    terms = []
    xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]).astype(float)
    z = np.diag([1.0, -1.0])
    for i in range(1, n):
        terms.append(InteractionTerm((i, i + 1), J * xx))
    for i in range(1, n + 1):
        terms.append(InteractionTerm((i,), B * z))
    return Hamiltonian(LatticeSpec(n=n), terms, metadata=PowerLawMetadata("nearest_neighbor", 3.0, abs(J), abs(B)))


def ising_with_yy_tail(n: int) -> Hamiltonian:
    """The n-site reference Ising chain plus one Y Y term on its end sites: a dropped tail that mixes XX and YY."""
    H = build_long_range_ising(n, 3.0, 1.0, 2.0)
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    return Hamiltonian(H.lattice, H.terms + [InteractionTerm((1, n), 0.1 * yy)], metadata=H.metadata)


def dropped_terms(H, blocks) -> list:
    """Terms of H that touch more than one block, other than two adjacent ones."""
    owner = {site: s for s, blk in enumerate(blocks.blocks) for site in blk}
    return [t for t in H.terms if max(owner[x] for x in t.support) - min(owner[x] for x in t.support) > 1]


def dropped_norm_sum(H, T) -> float:
    return sum(t.norm for t in dropped_terms(H, T.blocks))


class TestTruncate:
    def test_requires_decay_envelope(self):
        H = nearest_neighbor_chain(4)
        with pytest.raises(ValueError, match="no power-law metadata"):
            truncate_interactions(Hamiltonian(H.lattice, H.terms), decompose_blocks(4, 2, 1))

    def test_nearest_neighbor_nothing_dropped(self):
        H = nearest_neighbor_chain(6)
        blocks = decompose_blocks(6, 2, 1)
        T = truncate_interactions(H, blocks)
        assert dropped_terms(H, blocks) == []
        dense = dense_operator(T) + T.origin_shift * np.eye(64)
        np.testing.assert_allclose(dense, assemble_dense(H), atol=1e-10)
        # represented operator has its ground energy pinned at zero
        assert np.linalg.eigvalsh(dense_operator(T))[0] == pytest.approx(0.0, abs=1e-10)

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
        delta = assemble_dense(H) - (dense_operator(T) + T.origin_shift * np.eye(64))
        # exactly the expected terms are dropped: delta is their sum
        expected_terms = [t for t in H.terms if t.support in expected_dropped]
        np.testing.assert_allclose(delta, assemble_dense(Hamiltonian(H.lattice, expected_terms)), atol=1e-12)
        triangle = sum(
            1.0 / (j - i) ** 3 for (i, j) in expected_dropped
        )
        assert np.max(np.abs(np.linalg.eigvalsh(delta))) <= triangle + 1e-12

    @pytest.mark.parametrize("l", [1, 2])
    def test_norm_distance_bound(self, l):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        env = decay_envelope(H)
        T = truncate_interactions(H, decompose_blocks(8, 2, l))
        delta = assemble_dense(H) - (dense_operator(T) + T.origin_shift * np.eye(256))
        norm = np.max(np.abs(np.linalg.eigvalsh(delta)))
        assert norm <= env.g0 * 2 * l ** (-env.alpha_bar) + 1e-9

    def test_bond_norms_below_g0(self):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        env = decay_envelope(H)
        T = truncate_interactions(H, decompose_blocks(8, 2, 2))
        assert all(unsplit_hermitian_norm(b) <= env.g0 + 1e-9 for b in T.bonds)


class TestSpectral:
    @pytest.mark.parametrize("l", [1, 2])
    def test_matches_assembled_operator(self, l):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        T = truncate_interactions(H, decompose_blocks(8, 2, l))
        sp = T.spectral()
        assert sp.eigenvalues[0] == 0.0
        np.testing.assert_allclose(sp.eigenvalues, np.linalg.eigvalsh(dense_operator(T)), atol=1e-10)
        # the eigenvectors belong to the represented (origin-shifted) operator
        U = dense_eigenvectors(sp)
        residual = dense_operator(T) @ U - U * sp.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-10

    def test_survives_block_shift(self):
        # lopsided weak-coupling chain: large block shifts, which cancel against origin_shift
        H = build_long_range_ising(8, 3.0, 0.05, 2.0)
        blocks = decompose_blocks(8, 2, 1)
        T = truncate_interactions(H, blocks)
        raw = assemble_dense(Hamiltonian(H.lattice, kept_terms(H, blocks)))
        np.testing.assert_allclose(dense_operator(T) + T.origin_shift * np.eye(256), raw, atol=1e-12)
        sp = T.spectral()
        assert sp.eigenvalues[0] == 0.0
        np.testing.assert_allclose(sp.eigenvalues, np.linalg.eigvalsh(dense_operator(T)), atol=1e-10)
        U = dense_eigenvectors(sp)
        residual = dense_operator(T) @ U - U * sp.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-10


def kept_terms(H, blocks) -> list:
    """Terms of H inside one block or two adjacent ones: the raw truncation."""
    dropped = {id(t) for t in dropped_terms(H, blocks)}
    return [t for t in H.terms if id(t) not in dropped]


class TestShiftBlockEnergies:
    """The block balancing that `truncate_interactions` applies."""

    def test_sum_zero_and_lemma_bound(self):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        env = decay_envelope(H)
        T = truncate_interactions(H, decompose_blocks(8, 2, 2))
        # equal block ground energies, each within (q+1)/(q+2) g0
        e = np.array([np.linalg.eigvalsh(h)[0] for h in T.internal])
        np.testing.assert_allclose(e, e[0], atol=1e-10)
        np.testing.assert_allclose(T.block_ground_energies(), e, atol=1e-10)
        assert np.all(np.abs(e) <= (T.q + 1) / (T.q + 2) * env.g0 + 1e-9)
        # the represented operator keeps its ground energy at 0
        assert T.spectral().eigenvalues[0] == 0.0
        np.testing.assert_allclose(T.spectral().eigenvalues, np.linalg.eigvalsh(dense_operator(T)), atol=1e-10)

    def test_spectrum_invariant(self):
        # balancing moves only the energy origin: the raw truncation's spectrum, less E_t0
        H = build_long_range_ising(6, 3.0, 1.0, 1.0)
        blocks = decompose_blocks(6, 2, 1)
        T = truncate_interactions(H, blocks)
        w_raw = np.linalg.eigvalsh(assemble_dense(Hamiltonian(H.lattice, kept_terms(H, blocks))))
        assert T.origin_shift == pytest.approx(w_raw[0], abs=1e-10)
        np.testing.assert_allclose(T.spectral().eigenvalues, w_raw - w_raw[0], atol=1e-10)

    def test_symmetric_blocks_get_equal_shifts(self):
        H = nearest_neighbor_chain(4, J=0.3, B=1.0)
        T = truncate_interactions(H, decompose_blocks(4, 2, 1))
        # each one-site block term is its raw field Z plus a multiple of I
        shifts = [h[0, 0] - 1.0 for h in T.internal]
        for h, c in zip(T.internal, shifts):
            np.testing.assert_allclose(h, np.diag([1.0 + c, -1.0 + c]), atol=1e-12)
        assert sum(shifts) == pytest.approx(-T.origin_shift, abs=1e-10)
        # mirror symmetry of the chain pairs blocks (0,3) and (1,2)
        assert shifts[0] == pytest.approx(shifts[3], abs=1e-10)
        assert shifts[1] == pytest.approx(shifts[2], abs=1e-10)

    @pytest.mark.parametrize("q", [2, 4])
    def test_one_eigendecompose_per_block(self, monkeypatch, q):
        from agsplab import truncation

        dims = []

        def counted(M):
            # a dense block, or the whole truncation as its sectors
            M = M if isinstance(M, np.ndarray) else list(M)
            dims.append(M.shape[0] if isinstance(M, np.ndarray) else sum(len(rows) for rows, _ in M))
            return eigendecompose(M)

        monkeypatch.setattr(truncation, "eigendecompose", counted)
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        T = truncate_interactions(H, decompose_blocks(8, q, 2))  # q=4 has empty edge blocks
        # q+2 block solves and the one of the whole truncation
        assert sorted(dims) == sorted([h.shape[0] for h in T.internal] + [256])
        assert len(dims) == q + 3
        for h, sp in zip(T.internal, T.block_spectra()):
            U, w = dense_eigenvectors(sp), sp.eigenvalues
            assert np.max(np.abs(h @ U - U * w)) <= 1e-10


def lemma34_records(H, T) -> list:
    """The lemma3.norm, weyl, lemma3.gap and lemma4.overlap records of `verify_lemma3_4`, in that order."""
    dense = assemble_dense(H)
    records = verify_lemma3_4(H, T, np.linalg.eigvalsh(dense), oracle_ground_vector(dense))
    assert [r.bound_id for r in records] == ["lemma3.norm", "weyl", "lemma3.gap", "lemma4.overlap"]
    return records


class TestVerifyLemma34:
    def test_no_tail_truncation_is_exact(self):
        H = nearest_neighbor_chain(6)
        T = truncate_interactions(H, decompose_blocks(6, 2, 1))
        norm, weyl, gap, overlap = lemma34_records(H, T)
        delta_norm = weyl.rhs
        assert delta_norm <= 1e-10
        assert weyl.lhs <= 1e-9
        assert "note" not in overlap.context and overlap.lhs <= 1e-7
        assert weyl.lhs <= weyl.rhs + 1e-9
        assert gap.rhs >= gap.lhs - 1e-9
        assert overlap.lhs <= overlap.rhs + 1e-9
        assert delta_norm <= dropped_norm_sum(H, T) + 1e-9

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_reference_family_n8(self, l):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        T = truncate_interactions(H, decompose_blocks(8, 2, l))
        norm, weyl, gap, overlap = lemma34_records(H, T)
        assert norm.context == {} and norm.lhs == weyl.rhs  # ||delta||, measured against its budget
        assert norm.lhs <= norm.rhs + 1e-9
        assert weyl.lhs <= weyl.rhs + 1e-9
        assert gap.rhs >= gap.lhs - 1e-9
        assert overlap.lhs <= overlap.rhs + 1e-9  # 0 <= 0 when 4||delta|| >= gap
        assert weyl.rhs <= dropped_norm_sum(H, T) + 1e-9

    @pytest.mark.parametrize(
        "H,l",
        [
            (build_long_range_ising(8, 3.0, 1.0, 2.0), 1),
            (build_long_range_ising(8, 3.0, 1.0, 2.0), 2),
            (build_long_range_ising(9, 2.5, 1.0, 1.0), 2),
            (build_long_range_fermion_chain(8, 3.0, 1.0, 0.5), 2),
            (ising_with_yy_tail(8), 2),
        ],
    )
    def test_delta_from_dropped_terms_matches_dense_difference(self, H, l):
        # delta = H - H_t(raw), with H_t(raw) = H_t + origin_shift * I
        T = truncate_interactions(H, decompose_blocks(H.lattice.n, 2, l))
        dense = assemble_dense(H) - dense_operator(T) - T.origin_shift * np.eye(H.lattice.dim)
        _, weyl, _, _ = lemma34_records(H, T)
        delta_norm = weyl.rhs
        assert delta_norm == pytest.approx(float(np.max(np.abs(np.linalg.eigvalsh(dense)))), abs=1e-12)

    def test_overlap_guard_when_gap_too_small(self):
        # near-critical field: tiny gap, so 4*||dH|| >= gap and the overlap
        # bound is recorded as inapplicable rather than asserted
        H = build_long_range_ising(8, 2.2, 1.0, 1.0)
        T = truncate_interactions(H, decompose_blocks(8, 2, 1))
        _, weyl, gap, overlap = lemma34_records(H, T)
        assert 4.0 * weyl.rhs >= gap.lhs + 2.0 * weyl.rhs  # 4||dH|| >= gap, as gap.lhs = gap - 2||dH||
        assert (overlap.lhs, overlap.rhs) == (0.0, 0.0)
        assert overlap.context == {"note": "4||dH|| >= gap; bound vacuous"}

    def test_phase_alignment_convention(self):
        H = build_long_range_ising(6, 3.0, 1.0, 2.0)
        gs = oracle_ground_vector(assemble_dense(H))
        flipped = -gs.copy()
        aligned = align_phase(gs, flipped)
        assert np.vdot(gs, aligned).real >= 0
        np.testing.assert_allclose(aligned, gs, atol=1e-12)
