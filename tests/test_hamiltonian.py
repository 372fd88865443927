import tracemalloc
import weakref
from functools import reduce

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from agsplab import hamiltonian, spectral
from agsplab.hamiltonian import (
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimensionCeilingError,
    Hamiltonian,
    InteractionTerm,
    LatticeSpec,
    assemble_sparse,
    block_interaction,
    build_long_range_fermion_chain,
    build_long_range_ising,
    contiguous_pair_samples,
    decay_envelope,
    embed_sectors,
    embed_sum,
    local_energy_g,
    region_sum,
    verify_assumption1,
)
from agsplab.experiment import build_model
from agsplab.spectral import top_singular_value
from conftest import (
    PAULI_X,
    PAULI_Z,
    REFERENCE_CONFIG,
    assemble_dense,
    kron_chain,
    oracle_fermion_chain,
    oracle_ising,
    power_law_profile,
    unsplit_hermitian_norm,
    verify_power_law,
    x_parity_flipping,
)

# Frozen oracle values (computed once with the independent constructions in
# conftest and pinned here).
GROUND_N4_A2_J1_B05 = -3.140975654389395
FERMION_GROUND_N4_A2 = -2.198459038833017


class TestLatticeAndTerms:
    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(n=0)

    def test_dimension_ceiling(self):
        # The lattice itself has no ceiling; the sparse assembly stops past 2^18.
        assert LatticeSpec(n=19).dim == 2**19
        with pytest.raises(DimensionCeilingError, match="sparse"):
            assemble_sparse(build_long_range_ising(19, 3.0, 1.0, 2.0))

    def test_term_requires_hermitian(self):
        with pytest.raises(ValueError):
            InteractionTerm((1,), np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "matrix, hermitian",
        [
            (np.array([[0.0, np.nan], [np.nan, 0.0]]), False),
            (np.array([[0.0, 1j], [1j, 0.0]]), False),
            (np.array([[0.0, 1.0 + 2e-12], [1.0, 0.0]]), False),
            (np.array([[0.0, 1j], [-1j, 0.0]]), True),
            (np.array([[0.0, 1.0 + 5e-13], [1.0, 0.0]]), True),
        ],
        ids=["nan", "complex-symmetric", "past-tolerance", "sigma-y", "within-tolerance"],
    )
    def test_hermiticity_tolerance_and_nan(self, matrix, hermitian):
        if hermitian:
            InteractionTerm((1,), matrix)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                InteractionTerm((1,), matrix)

    def test_hermiticity_check_holds_one_term_sized_temporary(self):
        m = hamiltonian._window_term(10, 1.0, 0.5)
        tracemalloc.start()
        try:
            InteractionTerm(tuple(range(1, 11)), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # m - m^dag and its abs as two arrays: 2.00x the term.  One copy of m^dag, overwritten in place: 1.02x.
        assert peak <= 1.05 * m.nbytes

    def test_term_support_sorted_distinct(self):
        with pytest.raises(ValueError):
            InteractionTerm((2, 1), np.eye(4))
        with pytest.raises(ValueError):
            InteractionTerm((1, 1), np.eye(4))

    def test_term_norm_is_computed_once(self, monkeypatch):
        t = InteractionTerm((1, 2), -0.5 * np.kron(PAULI_X, PAULI_X))
        calls = []
        monkeypatch.setattr(hamiltonian, "top_singular_value", lambda m: calls.append(m) or 0.5)
        assert t.norm == t.norm == 0.5
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "matrix, keeps, flip",
        [
            (np.kron(SIGMA_X, SIGMA_X), True, 1.0),
            (-0.75 * np.kron(SIGMA_X, SIGMA_X), True, -0.75),
            (0.0 * np.kron(SIGMA_X, SIGMA_X), True, 0.0),
            (np.kron(SIGMA_Y, SIGMA_X), True, None),
            (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y), True, None),
            (np.kron(SIGMA_Z, SIGMA_Z), True, None),
            (SIGMA_Z, True, None),
            (np.kron(SIGMA_PLUS, SIGMA_PLUS.T) + np.kron(SIGMA_PLUS.T, SIGMA_PLUS), True, None),
            (SIGMA_X, False, 1.0),
            (np.kron(SIGMA_Z, SIGMA_Y), False, None),
            # a complex matrix, even one with the entries of c X X
            (0.5 * np.kron(SIGMA_X, SIGMA_X).astype(complex), True, None),
            # one entry off c X X, however small
            (0.5 * np.kron(SIGMA_X, SIGMA_X) + np.diag([1e-300, 0.0, 0.0, 0.0]), True, None),
            # one entry that changes the parity, however small
            (np.diag([1.0, 2.0, 3.0, 4.0]) + 1e-300 * (np.eye(4, k=1) + np.eye(4, k=-1)), False, None),
        ],
        ids=["xx", "neg-xx", "zero-xx", "yx", "xx+yy", "zz", "z", "hop", "x", "zy", "complex-xx", "tiny-off-xx", "tiny-cross"],
    )
    def test_term_keeps_parity_is_read_from_its_matrix(self, matrix, keeps, flip):
        support = (1,) if len(matrix) == 2 else (1, 2)
        term = InteractionTerm(support, matrix)
        assert term.keeps_parity is keeps
        assert term.flip_coefficient == flip

    def test_hamiltonian_validates_supports(self):
        lat = LatticeSpec(n=3)
        bad = InteractionTerm((3, 4), np.eye(4))
        with pytest.raises(ValueError):
            Hamiltonian(lat, [bad])
        with pytest.raises(ValueError):
            Hamiltonian(lat, [InteractionTerm((1, 2, 3), np.eye(8))], k=2)


class TestIsingBuilder:
    def test_two_sites_single_term(self):
        H = build_long_range_ising(2, 1.0, 1.0, 0.0)
        assert len(H.terms) == 1
        assert H.terms[0].support == (1, 2)
        np.testing.assert_allclose(H.terms[0].matrix, np.kron(PAULI_X, PAULI_X))
        w = np.linalg.eigvalsh(assemble_dense(H))
        assert np.max(np.abs(w)) == pytest.approx(1.0, abs=1e-12)

    def test_single_site_field(self):
        H = build_long_range_ising(1, 3.0, 1.0, 1.0)
        w = np.linalg.eigvalsh(assemble_dense(H))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_ground_energy_against_oracle(self):
        H = assemble_dense(build_long_range_ising(4, 2.0, 1.0, 0.5))
        w = np.linalg.eigvalsh(H)
        assert w[0] == pytest.approx(GROUND_N4_A2_J1_B05, abs=1e-10)
        w_oracle = np.linalg.eigvalsh(oracle_ising(4, 2.0, 1.0, 0.5))
        np.testing.assert_allclose(w, w_oracle, atol=1e-12)

    @pytest.mark.parametrize("n,alpha,J,B", [(3, 2.5, 0.7, 0.3), (5, 3.0, 1.0, 2.0), (6, 4.0, 0.5, 1.1)])
    def test_dense_matches_kron_oracle(self, n, alpha, J, B):
        ours = assemble_dense(build_long_range_ising(n, alpha, J, B))
        np.testing.assert_allclose(ours, oracle_ising(n, alpha, J, B), atol=1e-13)

    def test_per_pair_power_law_and_profile(self):
        H = build_long_range_ising(6, 3.0, 1.0, 1.0)
        assert verify_power_law(H)
        profile = power_law_profile(H)
        # Interior sites touch two terms per diameter, so the per-site
        # envelope of this family is 2*J/r^alpha (and tight).
        for r, total in profile.items():
            assert total <= 2.0 / r**3 + 1e-12
        assert profile[1] == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            build_long_range_ising(4, 0.0, 1.0, 1.0)


class TestAssembleDense:
    def test_empty_terms_zero_matrix(self):
        H = Hamiltonian(LatticeSpec(n=3), [])
        np.testing.assert_array_equal(assemble_dense(H), np.zeros((8, 8)))

    def test_full_support_term_unchanged(self, rng):
        M = rng.standard_normal((8, 8))
        M = M + M.T
        H = Hamiltonian(LatticeSpec(n=3), [InteractionTerm((1, 2, 3), M)], k=3)
        np.testing.assert_allclose(assemble_dense(H), M, atol=1e-14)

    def test_traceless_without_field(self):
        H = assemble_dense(build_long_range_ising(3, 2.0, 1.0, 0.0))
        assert abs(np.trace(H)) < 1e-12

    def test_embedding_matches_oracle_on_random_terms(self, rng):
        lat = LatticeSpec(n=4)
        m2 = rng.standard_normal((4, 4))
        m2 = m2 + m2.T
        m1 = rng.standard_normal((2, 2))
        m1 = m1 + m1.T
        H = Hamiltonian(lat, [InteractionTerm((2, 4), m2), InteractionTerm((3,), m1)])
        # bit-level oracle: match matrix elements site by site
        dim = 16
        expected = np.zeros((dim, dim))
        for a in range(dim):
            for b in range(dim):
                abits = [(a >> (3 - k)) & 1 for k in range(4)]
                bbits = [(b >> (3 - k)) & 1 for k in range(4)]
                if abits[0] == bbits[0] and abits[2] == bbits[2]:
                    expected[a, b] += m2[2 * abits[1] + abits[3], 2 * bbits[1] + bbits[3]]
                if abits[0] == bbits[0] and abits[1] == bbits[1] and abits[3] == bbits[3]:
                    expected[a, b] += m1[abits[2], bbits[2]]
        np.testing.assert_allclose(assemble_dense(H), expected, atol=1e-13)


def _elementary_oracle(n: int, pieces) -> np.ndarray:
    """Sum of m[a, b] * E_ab over every piece, each E_ab a kron chain of site-local E's."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for support, m in pieces:
        w = len(support)
        for a in range(m.shape[0]):
            for b in range(m.shape[1]):
                ops = {}
                for k, site in enumerate(support):
                    e = np.zeros((2, 2))
                    e[(a >> (w - 1 - k)) & 1, (b >> (w - 1 - k)) & 1] = 1.0
                    ops[site] = e
                out += m[a, b] * kron_chain(n, ops)
    return out


@st.composite
def _pieces(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pieces = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        width = draw(st.integers(min_value=0, max_value=min(3, n)))
        support = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=width, max_size=width))))
        m = rng.standard_normal((2**width, 2**width))
        if draw(st.booleans()):
            m = m + 1j * rng.standard_normal(m.shape)
        m[rng.random(m.shape) < 0.3] = 0.0  # explicit zero entries
        pieces.append((support, m))
    return n, pieces


class TestEmbedSum:
    @settings(max_examples=60, deadline=None)
    @given(case=_pieces())
    def test_property_matches_elementary_kron_oracle(self, case):
        n, pieces = case
        got = embed_sum(LatticeSpec(n=n), pieces)
        assert np.iscomplexobj(got) == any(np.iscomplexobj(m) for _, m in pieces)
        np.testing.assert_allclose(got, _elementary_oracle(n, pieces), rtol=0, atol=1e-12)

    def test_noncontiguous_support_and_identity_piece(self):
        m = np.arange(1.0, 65.0).reshape(8, 8)
        pieces = [((1, 3, 6), m), ((), np.array([[2.5]]))]
        got = embed_sum(LatticeSpec(n=6), pieces)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, _elementary_oracle(6, pieces).real)

    def test_dimension_ceiling(self):
        # Raised before any array is allocated.
        with pytest.raises(DimensionCeilingError, match="dense"):
            embed_sum(LatticeSpec(n=15), [((1,), PAULI_Z)])

    @pytest.mark.parametrize(
        "n, pieces, split",
        [
            (8, build_long_range_ising(8, 3.0, 1.0, 2.0).terms, True),
            (7, build_long_range_fermion_chain(7, 3.0, 1.0, 0.5).terms, True),
            (5, [((2, 4), 0.3 * np.kron(SIGMA_X, SIGMA_Y)), ((1, 5), np.kron(SIGMA_X, SIGMA_X)), ((3,), SIGMA_Z)], True),
            (5, [((1, 2), np.kron(SIGMA_X, SIGMA_X)), ((3,), 0.4 * SIGMA_X), ((5,), SIGMA_Z)], False),
        ],
        ids=["ising-n8", "fermion-n7", "complex-piece", "x-field"],
    )
    def test_sectors_are_the_restriction_of_the_whole_sum(self, n, pieces, split):
        # The oracle is the whole sum, restricted by index parity read from bit strings.
        lattice = LatticeSpec(n=n)
        whole = embed_sum(lattice, pieces)
        sectors = embed_sectors(lattice, pieces)
        if not split:  # a piece that breaks parity: the whole sum, one sector of every row
            [(rows, block)] = sectors
            np.testing.assert_array_equal(rows, np.arange(2**n))
            assert block.dtype == whole.dtype and block.tobytes() == whole.tobytes()
            return
        odd = np.array([bin(i).count("1") % 2 for i in range(2**n)])
        assert [rows.tolist() for rows, _ in sectors] == [np.flatnonzero(odd == p).tolist() for p in (0, 1)]
        for rows, block in sectors:
            restricted = whole[np.ix_(rows, rows)]
            assert block.dtype == whole.dtype and block.tobytes() == restricted.tobytes()  # bit for bit
        assert not whole[np.ix_(sectors[0][0], sectors[1][0])].any()

    def test_region_sum_relabels_and_empty_region(self):
        H = build_long_range_ising(5, 2.0, 1.0, 0.5)
        picked = [t for t in H.terms if set(t.support) <= {2, 4, 5}]
        pos = {2: 1, 4: 2, 5: 3}
        expected = _elementary_oracle(
            3, [(tuple(pos[s] for s in t.support), t.matrix) for t in picked]
        )
        np.testing.assert_allclose(region_sum((2, 4, 5), picked), expected.real, atol=1e-14)
        np.testing.assert_array_equal(region_sum((), []), np.zeros((1, 1)))


class TestAssembleSparse:
    @pytest.mark.parametrize(
        "H",
        [
            build_long_range_ising(2, 3.0, 1.0, 2.0),
            build_long_range_ising(5, 2.0, -0.7, 0.5),
            build_long_range_ising(8, 3.0, 1.0, 2.0),
            build_long_range_fermion_chain(3, 2.0, 1.0, 0.0),
            build_long_range_fermion_chain(6, 3.0, 1.0, 0.5),
            build_long_range_fermion_chain(8, 3.0, 1.0, 0.5),
        ],
        ids=["ising-n2", "ising-n5", "ising-n8", "fermion-n3", "fermion-n6", "fermion-n8"],
    )
    def test_matches_dense(self, H):
        # Duplicates are summed by scipy in its own order: equal up to rounding.
        S = assemble_sparse(H)
        assert S.format == "csr" and S.shape == (H.lattice.dim,) * 2
        assert S.has_canonical_format and S.indices.dtype == S.indptr.dtype == np.int32
        np.testing.assert_allclose(S.toarray(), assemble_dense(H), rtol=0, atol=1e-14)

    def test_empty_terms_zero_matrix(self):
        S = assemble_sparse(Hamiltonian(LatticeSpec(n=3), []))
        assert S.shape == (8, 8) and S.nnz == 0

    @staticmethod
    def concatenated_csr(H):
        """The COO of every term's int64 scatter, concatenated, then converted to CSR in one call."""
        dim = H.lattice.dim
        parts = list(zip(*hamiltonian._scatter(H.lattice, H.terms)))
        if not parts:
            return scipy.sparse.csr_array((dim, dim))
        rows, cols, vals = (np.concatenate(p) for p in parts)
        return scipy.sparse.csr_array((vals, (rows, cols)), shape=(dim, dim))

    @pytest.mark.parametrize(
        "H",
        [
            # even n: the field diagonal 2 (n - 2 popcount) cancels to exactly 0, stored C(8, 4) times
            build_long_range_ising(8, 3.0, 1.0, 2.0),
            build_long_range_fermion_chain(6, 3.0, 1.0, 0.5),
            Hamiltonian(
                LatticeSpec(n=4),
                [
                    InteractionTerm((1, 3), 0.3 * np.kron(SIGMA_Y, SIGMA_X)),
                    InteractionTerm((2, 3), np.kron(SIGMA_X, SIGMA_X)),
                    InteractionTerm((2,), 0.5 * SIGMA_Y),
                    # diagonal sums +-0.1 +-0.2 +-0.3 round differently in another order
                    InteractionTerm((1,), 0.1 * SIGMA_Z),
                    InteractionTerm((3,), 0.2 * SIGMA_Z),
                    InteractionTerm((4,), 0.3 * SIGMA_Z),
                ],
            ),
            Hamiltonian(LatticeSpec(n=3), []),
        ],
        ids=["ising-n8", "fermion-n6", "complex-n4", "empty"],
    )
    def test_csr_is_bit_identical_to_the_concatenated_build(self, H):
        S, ref = assemble_sparse(H), self.concatenated_csr(H)
        assert S.nnz == ref.nnz and S.data.dtype == ref.data.dtype
        np.testing.assert_array_equal(S.indptr, ref.indptr)
        np.testing.assert_array_equal(S.indices, ref.indices)
        np.testing.assert_array_equal(S.data, ref.data)
        assert S.indptr.dtype == S.indices.dtype == np.int32

    @pytest.mark.parametrize(
        "H",
        [
            build_long_range_ising(12, 3.0, 1.0, 2.0),
            build_long_range_fermion_chain(10, 3.0, 1.0, 0.5),
            # pure hopping: half the rows of each term's matrix are empty, so the cursors move per row
            build_long_range_fermion_chain(10, 3.0, 1.0, 0.0),
        ],
        ids=["ising-n12", "fermion-n10", "hopping-n10"],
    )
    def test_assembly_peak_is_within_1_4_csrs(self, H):
        tracemalloc.start()
        try:
            S = assemble_sparse(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Preallocated int32 COO: 2.74 / 2.38 / 2.38 CSRs.  Written in place: 1.24 / 1.18 / 1.31,
        # the final arrays, the Ising diagonal's duplicate surplus (78 entries per row summed to 67
        # at n=12) and one term's index arrays.
        assert peak <= 1.4 * (S.data.nbytes + S.indices.nbytes + S.indptr.nbytes)

    @pytest.mark.parametrize(
        "family, n, B",
        [("ising", n, B) for n in (3, 4, 6, 8, 10, 12, 13) for B in (0.0, 2.0)]
        + [("fermion", n, B) for n in (3, 4, 6, 8, 10) for B in (0.0, 0.5)],
    )
    def test_sector_csr_is_bit_identical_to_the_restriction(self, family, n, B):
        # Each sector is the concatenated build's CSR restricted to the indices of one popcount
        # parity, explicit zeros and int32 indices included; fermion terms on every site meet each
        # sector in half their local rows.
        H = build_long_range_ising(n, 3.0, 1.0, B) if family == "ising" else build_long_range_fermion_chain(n, 3.0, 1.0, B)
        ref = self.concatenated_csr(H)
        sectors = list(hamiltonian.sparse_sectors(H))
        parity = spectral.popcount_parity(H.lattice.dim)
        assert sorted(parity[rows[0]] for rows, _ in sectors) == [0, 1]  # either may come first
        for rows, S in sectors:
            np.testing.assert_array_equal(rows, np.flatnonzero(parity == parity[rows[0]]))
            restricted = ref[rows][:, rows]
            assert S.nnz == restricted.nnz and S.data.dtype == restricted.data.dtype
            np.testing.assert_array_equal(S.indptr, restricted.indptr)
            np.testing.assert_array_equal(S.indices, restricted.indices)
            np.testing.assert_array_equal(S.data, restricted.data)
            assert S.indptr.dtype == S.indices.dtype == np.int32
        assert sum(S.nnz for _, S in sectors) == ref.nnz  # no entry crosses the sectors

    def test_a_term_that_breaks_parity_leaves_one_sector(self):
        H = build_long_range_ising(6, 3.0, 1.0, 2.0)
        H.terms.append(InteractionTerm((3,), 0.4 * SIGMA_X))
        assert not H.terms[-1].keeps_parity and all(t.keeps_parity for t in H.terms[:-1])
        [(rows, S)] = hamiltonian.sparse_sectors(H)
        ref = self.concatenated_csr(H)
        np.testing.assert_array_equal(rows, np.arange(H.lattice.dim))
        assert S.nnz == ref.nnz
        np.testing.assert_array_equal(S.indptr, ref.indptr)
        np.testing.assert_array_equal(S.indices, ref.indices)
        np.testing.assert_array_equal(S.data, ref.data)
        with pytest.raises(ValueError, match="breaks parity"):
            assemble_sparse(H, 0)
        dense = spectral.ground_state(assemble_dense(H))
        sparse = spectral.ground_state(hamiltonian.sparse_sectors(H))
        assert sparse.energy == pytest.approx(dense.energy, abs=1e-10)
        assert sparse.gap == pytest.approx(dense.gap, abs=1e-9)
        assert abs(np.vdot(sparse.state, dense.state)) == pytest.approx(1.0, abs=1e-9)

    def test_first_sector_csr_is_dead_before_the_second_is_built(self, monkeypatch):
        built, alive_at_build = [], []
        write = hamiltonian.assemble_sparse

        def spy(H, parity=None):
            alive_at_build.append([ref() is not None for ref in built])
            S = write(H, parity)
            built.extend([weakref.ref(S), weakref.ref(S.data), weakref.ref(S.indices)])
            return S

        monkeypatch.setattr(hamiltonian, "assemble_sparse", spy)
        spectral.ground_state(hamiltonian.sparse_sectors(build_long_range_ising(8, 3.0, 1.0, 2.0)))
        assert alive_at_build == [[], [False, False, False]]

    @pytest.mark.parametrize(
        "H, first",
        [
            # B = 2 favours every spin down, popcount n: the odd sector first at odd n
            (build_long_range_ising(7, 3.0, 1.0, 2.0), 1),
            (build_long_range_ising(13, 3.0, 1.0, 2.0), 1),
            (build_long_range_ising(8, 3.0, 1.0, 2.0), 0),
            # a zero diagonal: argmin's first index, 0, is even
            (build_long_range_fermion_chain(7, 3.0, 1.0, 0.5), 0),
        ],
        ids=["ising-n7", "ising-n13", "ising-n8", "fermion-n7"],
    )
    def test_first_sector_holds_the_lowest_diagonal_entry(self, H, first):
        rows, _ = next(hamiltonian.sparse_sectors(H))
        np.testing.assert_array_equal(rows, np.flatnonzero(spectral.popcount_parity(H.lattice.dim) == first))

    @pytest.mark.parametrize(
        "H",
        [
            build_long_range_ising(6, 3.0, 1.0, 2.0),
            build_long_range_ising(5, 2.0, -0.7, 0.5),
            build_long_range_fermion_chain(6, 3.0, 1.0, 0.5),
            Hamiltonian(
                LatticeSpec(n=4),
                [
                    InteractionTerm((1, 3), np.kron(SIGMA_Z, SIGMA_Z) + 0.3 * np.kron(SIGMA_Y, SIGMA_Y)),
                    InteractionTerm((2, 3, 4), np.diag(np.arange(8.0)) + 0.1 * np.kron(SIGMA_Y, np.eye(4))),
                    InteractionTerm((4,), 0.2 * SIGMA_Z),
                ],
                k=3,
            ),
            Hamiltonian(LatticeSpec(n=3), []),
        ],
        ids=["ising-n6", "ising-n5", "fermion-n6", "complex-n4", "empty"],
    )
    def test_diagonal_matches_the_dense_diagonal(self, H):
        d = hamiltonian._diagonal(H)
        assert d.dtype == np.float64
        np.testing.assert_allclose(d, np.diagonal(assemble_dense(H)).real, rtol=0, atol=1e-14)

    def test_diagonal_is_dead_before_the_first_sector_is_built(self, monkeypatch):
        diagonals, alive_at_build = [], []
        read, write = hamiltonian._diagonal, hamiltonian.assemble_sparse

        def read_spy(H):
            d = read(H)
            diagonals.append(weakref.ref(d))
            return d

        def write_spy(H, parity=None):
            alive_at_build.append([ref() is not None for ref in diagonals])
            return write(H, parity)

        monkeypatch.setattr(hamiltonian, "_diagonal", read_spy)
        monkeypatch.setattr(hamiltonian, "assemble_sparse", write_spy)
        spectral.ground_state(hamiltonian.sparse_sectors(build_long_range_ising(8, 3.0, 1.0, 2.0)))
        assert alive_at_build == [[False], [False]]

    def test_uniform_and_per_row_cursors_interleave(self):
        # Pure-hopping terms (per-row cursors) between field terms (one shared shift), with a
        # diagonal that repeats across terms, against the concatenated build.
        hop = np.kron(SIGMA_PLUS, SIGMA_PLUS.T) + np.kron(SIGMA_PLUS.T, SIGMA_PLUS)
        H = Hamiltonian(
            LatticeSpec(n=5),
            [
                InteractionTerm((2,), 0.3 * SIGMA_Z),
                InteractionTerm((1, 4), 0.7 * hop),
                InteractionTerm((3,), 0.1 * SIGMA_Z + 0.2 * SIGMA_X),
                InteractionTerm((2, 3), np.diag([0.1, 0.0, 0.0, 0.2])),
                InteractionTerm((5,), 0.2 * SIGMA_Z),
            ],
        )
        S, ref = assemble_sparse(H), self.concatenated_csr(H)
        assert S.nnz == ref.nnz
        np.testing.assert_array_equal(S.indptr, ref.indptr)
        np.testing.assert_array_equal(S.indices, ref.indices)
        np.testing.assert_array_equal(S.data, ref.data)


def dense_interaction(H, X, Y):
    """V_{X,Y} on the sites of X, then of Y, summed from the terms `block_interaction` picks, and its norm."""
    terms, norm = block_interaction(H, X, Y)
    return region_sum(tuple(sorted(X)) + tuple(sorted(Y)), terms), norm


class TestBlockInteraction:
    def test_disconnected_sets_zero(self):
        H = build_long_range_ising(4, 2.0, 0.0, 1.0)  # field only
        V, norm = dense_interaction(H, {1}, {3})
        assert norm == 0.0
        np.testing.assert_array_equal(V, np.zeros_like(V))

    def test_no_picked_term_needs_no_eigensolve(self, monkeypatch):
        # Fermion pair terms span every site between their ends, so none lies
        # inside X | Y once X and Y are separated by a gap.
        H = build_long_range_fermion_chain(6, 3.0, 1.0, 0.5)

        def refused(*args, **kwargs):
            raise AssertionError("eigensolve requested")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        V, norm = dense_interaction(H, {1, 2}, {4, 5})
        assert norm == 0.0
        np.testing.assert_array_equal(V, np.zeros((16, 16)))

    def test_n4_example_matrix_and_norm(self):
        H = build_long_range_ising(4, 2.0, 1.0, 0.7)
        V, norm = dense_interaction(H, {1, 2}, {3, 4})
        expected = (
            kron_chain(4, {1: PAULI_X, 3: PAULI_X}) / 4
            + kron_chain(4, {1: PAULI_X, 4: PAULI_X}) / 9
            + kron_chain(4, {2: PAULI_X, 3: PAULI_X})
            + kron_chain(4, {2: PAULI_X, 4: PAULI_X}) / 4
        )
        np.testing.assert_allclose(V, expected, atol=1e-13)
        # all-X terms commute; the norm is the sum of coefficients
        assert norm == pytest.approx(1 + 0.25 + 0.25 + 1 / 9, abs=1e-10)

    def test_field_terms_never_included(self):
        H = build_long_range_ising(5, 2.0, 1.0, 3.0)
        V, _ = dense_interaction(H, {1, 2}, {4, 5})  # embedded on sites 1, 2, 4, 5
        # remove the field by symmetry: V must be traceless pure-XX
        assert abs(np.trace(V)) < 1e-12
        VZ = kron_chain(4, {1: PAULI_Z})
        assert np.abs(np.trace(V @ VZ)) < 1e-12

    def test_symmetric_in_X_and_Y(self):
        H = build_long_range_ising(5, 3.0, 1.0, 0.5)
        _, n1 = block_interaction(H, {1, 2}, {4})
        _, n2 = block_interaction(H, {4}, {1, 2})
        assert n1 == pytest.approx(n2, abs=1e-12)

    def test_overlapping_sets_rejected(self):
        H = build_long_range_ising(4, 2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            block_interaction(H, {1, 2}, {2, 3})

    def test_norm_subadditive_in_terms(self):
        H = build_long_range_ising(6, 2.5, 1.0, 1.0)
        for X, Y in [({1, 2}, {3, 4}), ({1}, {5, 6}), ({2, 3}, {5})]:
            _, norm = block_interaction(H, X, Y)
            triangle = sum(t.norm for t in H.terms if set(t.support) & X and set(t.support) & Y)
            assert norm <= triangle + 1e-12


    @pytest.mark.parametrize("family", ["ising", "fermion"])
    @pytest.mark.parametrize("X, Y", [((5, 6), (1, 2, 3)), ((4,), (1, 2, 3)), ((1,), (2, 3, 4, 5)), ((6,), (1, 3))])
    def test_x_after_y_and_single_site_x(self, family, X, Y):
        if family == "ising":
            H = build_long_range_ising(6, 3.0, 1.0, 1.0)
        else:
            H = build_long_range_fermion_chain(6, 3.0, 1.0, 0.5)
        V, norm = dense_interaction(H, X, Y)
        # On the sites of X, then of Y: the same operator as on the sorted region, reordered.
        W, _ = dense_interaction(H, Y, X)
        nx, ny = len(X), len(Y)
        swapped = W.reshape(2**ny, 2**nx, 2**ny, 2**nx).transpose(1, 0, 3, 2).reshape(V.shape)
        np.testing.assert_array_equal(V, swapped)
        assert norm == pytest.approx(unsplit_hermitian_norm(V), rel=1e-12, abs=0.0)


def interaction_of(terms, x_sites: int, y_sites: int) -> float:
    """`block_interaction`'s norm for `terms` given as (support, matrix) on sites 1 .. x + y, X the first `x_sites`."""
    n = x_sites + y_sites
    H = Hamiltonian(LatticeSpec(n=n), [InteractionTerm(support, m) for support, m in terms], k=n)
    return block_interaction(H, range(1, x_sites + 1), range(x_sites + 1, n + 1))[1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    x_sites=st.integers(min_value=1, max_value=4),
    y_sites=st.integers(min_value=1, max_value=4),
    field=st.sampled_from(["real", "complex"]),
)
def test_property_x_parity_norm_matches_unsplit_oracle(seed, x_sites, y_sites, field):
    V = x_parity_flipping(np.random.default_rng(seed), x_sites, y_sites, field)
    support = tuple(range(1, x_sites + y_sites + 1))
    assert interaction_of([(support, V)], x_sites, y_sites) == pytest.approx(
        unsplit_hermitian_norm(V), rel=1e-12, abs=0.0
    )


class TestInteractionNorm:
    """`block_interaction` takes V's two B blocks from the terms when every term entry allows it, else V whole."""

    SUPPORT = (1, 2, 3, 4)  # X = sites 1, 2 (the high bits), Y = sites 3, 4

    @staticmethod
    def spy(monkeypatch) -> list:
        calls = []
        full = hamiltonian.top_singular_value
        shapes = lambda M: M.shape if isinstance(M, np.ndarray) else [block.shape for block in M]  # noqa: E731
        monkeypatch.setattr(hamiltonian, "top_singular_value", lambda M: calls.append(shapes(M)) or full(M))
        return calls

    def test_block_structure_skips_the_full_solve(self, rng, monkeypatch):
        calls = self.spy(monkeypatch)
        V = x_parity_flipping(rng, 2, 3, "complex")
        assert interaction_of([((1, 2, 3, 4, 5), V)], 2, 3) == pytest.approx(
            unsplit_hermitian_norm(V), rel=1e-12, abs=0.0
        )
        assert calls == [[(8, 8), (8, 8)]]  # the two B blocks at once, never the 32 x 32 V

    def test_b_blocks_are_the_whole_sums_entries(self, rng):
        V = x_parity_flipping(rng, 2, 2, "real")
        B_even, B_odd = hamiltonian._interaction_blocks(self.SUPPORT, 2, [(self.SUPPORT, V / 3), (self.SUPPORT, V)])
        # Rows: x odd; columns: x even; y of the same parity as x in the even-sector B, of the other in the odd.
        bits = [format(i, "04b") for i in range(16)]
        px = np.array([b[:2].count("1") % 2 for b in bits])
        py = np.array([b[2:].count("1") % 2 for b in bits])
        W = region_sum(self.SUPPORT, [(self.SUPPORT, V / 3), (self.SUPPORT, V)])
        for B, y_parity in ((B_even, 0), (B_odd, 1)):
            rows = np.flatnonzero((px == 1) & (py == 1 - y_parity))
            cols = np.flatnonzero((px == 0) & (py == y_parity))
            assert B.tobytes() == W[np.ix_(rows, cols)].tobytes()

    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (3, 7)], ids=["diagonal", "y-flip-only", "x-flip-only"])
    def test_tiny_forbidden_entry_takes_the_full_path(self, rng, monkeypatch, where):
        # X = 2 high bits, Y = 2 low bits: index 1 flips only a Y bit of 0,
        # and 7 = 0b0111 flips only an X bit of 3 = 0b0011.
        V = x_parity_flipping(rng, 2, 2, "real")
        V[where] = V[where[::-1]] = 1e-300
        calls = self.spy(monkeypatch)
        value = interaction_of([(self.SUPPORT, V)], 2, 2)
        assert calls == [(16, 16)]
        assert value == top_singular_value(V)
        assert value == pytest.approx(unsplit_hermitian_norm(V), rel=1e-12, abs=0.0)

    def test_forbidden_entries_that_cancel_in_the_sum_take_the_full_path(self, rng, monkeypatch):
        # The terms decide, not their sum: V + E and -E sum to V, whose entries all flip both parities.
        V = x_parity_flipping(rng, 2, 2, "real")
        E = np.zeros_like(V)
        E[0, 0] = 0.5
        calls = self.spy(monkeypatch)
        value = interaction_of([(self.SUPPORT, V + E), (self.SUPPORT, -E)], 2, 2)
        assert calls == [(16, 16)]
        assert value == pytest.approx(unsplit_hermitian_norm(V), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("field", [SIGMA_X, SIGMA_Y, SIGMA_X + SIGMA_Z], ids=["flips", "b-blocks", "whole"])
    def test_overflowing_sum_gives_nan(self, field):
        # Each term is finite; their sum is not.  X X is a flip (`flip_norm`); Y Y flips both parities
        # (the B path); Z Z keeps the X parity.
        m = 1e308 * np.kron(field, field)
        with np.errstate(over="ignore"):
            assert np.isnan(interaction_of([((1, 2), m), ((1, 2), m)], 1, 1))

    XX, YY = np.kron(SIGMA_X, SIGMA_X), np.kron(SIGMA_Y, SIGMA_Y)

    @pytest.mark.parametrize(
        "terms, calls",
        [
            ([((1, 3), 0.5 * XX), ((2, 4), -0.25 * XX), ((1, 4), 0.0 * XX)], []),
            ([((1, 3), 0.5 * XX), ((2, 4), -0.25 * YY)], [[(4, 4), (4, 4)]]),
        ],
        ids=["flips", "xx+yy"],
    )
    def test_flip_terms_alone_take_the_flip_spectrum(self, monkeypatch, terms, calls):
        # Every term c X X: no 2-norm solve; one term that is not a flip sends all to the B blocks.
        spied = self.spy(monkeypatch)
        value = interaction_of(terms, 2, 2)
        assert spied == calls
        assert value == pytest.approx(unsplit_hermitian_norm(region_sum(self.SUPPORT, terms)), rel=1e-12, abs=0.0)

    def test_flip_path_matches_the_b_blocks_on_every_pair(self):
        H = build_long_range_ising(8, 3.0, 1.0, 2.0)
        for X, Y in contiguous_pair_samples(8):
            picked, norm = block_interaction(H, X, Y)
            assert all(t.flip_coefficient is not None for t in picked)
            blocks = hamiltonian._interaction_blocks(X + Y, len(X), picked)
            assert norm == pytest.approx(top_singular_value(blocks), rel=1e-13, abs=0.0)

    def test_reference_records_match_the_oracle(self):
        H = build_model(REFERENCE_CONFIG)
        pairs = contiguous_pair_samples(REFERENCE_CONFIG.n, max_pairs=60)
        records = verify_assumption1(H, decay_envelope(H), pairs)
        assert len(records) == 60
        for (X, Y), rec in zip(pairs, records):
            V, _ = dense_interaction(H, X, Y)
            assert rec.lhs == pytest.approx(unsplit_hermitian_norm(V), rel=1e-12, abs=0.0)


class TestDecayEnvelope:
    def test_ising_formula(self):
        env = decay_envelope(build_long_range_ising(4, 3.0, 1.0, 0.0))
        assert env.g0 == pytest.approx(3.0) and env.alpha_bar == pytest.approx(1.0)
        env = decay_envelope(build_long_range_ising(4, 4.0, 2.0, 0.0))
        assert env.g0 == pytest.approx(4.0) and env.alpha_bar == pytest.approx(2.0)

    def test_alpha_two_pole(self):
        with pytest.raises(ValueError):
            decay_envelope(build_long_range_ising(4, 2.0, 1.0, 0.0))

    def test_g0_clamped_to_one(self):
        env = decay_envelope(build_long_range_ising(4, 3.0, 0.01, 0.0))
        assert env.g0 == 1.0

    def test_fermion_formula(self):
        H = build_long_range_fermion_chain(4, 2.0, 1.0, 0.5)
        env = decay_envelope(H)
        expected = 4.0 * 1.0 * np.sqrt(4.0 / 3.0) * 3.0 / 1.0
        assert env.g0 == pytest.approx(expected)
        assert env.alpha_bar == pytest.approx(0.5)
        with pytest.raises(ValueError):
            decay_envelope(build_long_range_fermion_chain(4, 1.5, 1.0, 0.0))


class TestAssumption1:
    def test_exhaustive_n6(self):
        H = build_long_range_ising(6, 3.0, 1.0, 1.0)
        env = decay_envelope(H)
        pairs = contiguous_pair_samples(6)
        assert len(pairs) > 20
        records = verify_assumption1(H, env, pairs)
        assert len(records) == len(pairs) and {r.bound_id for r in records} == {"assumption1"}
        assert all(r.lhs <= r.rhs + 1e-9 for r in records)

    def test_adjacent_blocks_read_g0(self):
        H = build_long_range_ising(6, 3.0, 1.0, 1.0)
        env = decay_envelope(H)
        [rec] = verify_assumption1(H, env, [((1, 2, 3), (4, 5, 6))])
        assert rec.context == {"r": 1, "X": (1, 2, 3), "Y": (4, 5, 6)}
        assert rec.rhs == pytest.approx(env.g0)
        assert rec.lhs <= env.g0

    def test_zero_coupling_full_slack(self):
        H = build_long_range_ising(4, 3.0, 0.0, 1.0)
        env = decay_envelope(build_long_range_ising(4, 3.0, 1.0, 1.0))
        for rec in verify_assumption1(H, env, [((1,), (2,)), ((1, 2), (4,))]):
            assert rec.lhs == 0.0
            assert rec.rhs - rec.lhs == pytest.approx(env.bound(rec.context["r"]))


class TestLocalEnergy:
    def test_zero_hamiltonian(self):
        assert local_energy_g(Hamiltonian(LatticeSpec(n=2), [])) == 0.0

    def test_single_site_field(self):
        assert local_energy_g(build_long_range_ising(1, 3.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_envelope_per_pair_convention(self):
        # Two-sided per-pair couplings: g <= B + 2*alpha*J/(alpha-1).
        H = build_long_range_ising(6, 3.0, 1.0, 1.0)
        g = local_energy_g(H)
        exact_mid = 1.0 + sum(1.0 / r**3 for r in (1, 1, 2, 2, 3))
        assert g == pytest.approx(exact_mid, abs=1e-12)
        assert g <= 1.0 + 2.0 * 3.0 * 1.0 / 2.0


class TestFermionChain:
    def test_two_site_hopping_spectrum(self):
        H = assemble_dense(build_long_range_fermion_chain(2, 1.0, 1.0, 0.0))
        np.testing.assert_allclose(np.linalg.eigvalsh(H), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_all_zero_couplings(self):
        H = build_long_range_fermion_chain(3, 2.0, 0.0, 0.0)
        assert len(H.terms) == 0
        np.testing.assert_array_equal(assemble_dense(H), np.zeros((8, 8)))

    def test_ground_energy_is_negative_mode_sum(self):
        n, alpha = 4, 2.0
        H = assemble_dense(build_long_range_fermion_chain(n, alpha, 1.0, 0.0))
        w = np.linalg.eigvalsh(H)
        M = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                M[i, j] = M[j, i] = -1.0 / (j - i) ** alpha
        modes = np.linalg.eigvalsh(M)
        assert w[0] == pytest.approx(modes[modes < 0].sum(), abs=1e-10)
        assert w[0] == pytest.approx(FERMION_GROUND_N4_A2, abs=1e-10)

    @pytest.mark.parametrize("n,alpha,A,B", [(3, 2.0, 0.7, 0.4), (5, 2.5, 0.3, 0.9), (4, 1.8, 1.0, 0.2)])
    def test_spectrum_matches_occupation_oracle(self, n, alpha, A, B):
        ours = np.linalg.eigvalsh(assemble_dense(build_long_range_fermion_chain(n, alpha, A, B)))
        oracle = np.linalg.eigvalsh(oracle_fermion_chain(n, alpha, A, B))
        np.testing.assert_allclose(ours, oracle, atol=1e-11)

    @pytest.mark.parametrize("n", [4, 6])
    def test_spectrum_is_mode_subset_sums(self, n):
        import itertools

        H = assemble_dense(build_long_range_fermion_chain(n, 2.0, 1.0, 0.0))
        w = np.sort(np.linalg.eigvalsh(H))
        M = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                M[i, j] = M[j, i] = -1.0 / (j - i) ** 2.0
        modes = np.linalg.eigvalsh(M)
        sums = sorted(
            sum(c) for k in range(n + 1) for c in itertools.combinations(modes, k)
        )
        np.testing.assert_allclose(w, sums, atol=1e-10)

    @staticmethod
    def kronecker_terms(n, alpha, A, B):
        """Each (support, matrix) pair term from the Jordan-Wigner operators as Kronecker products."""
        terms = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                w = j - i + 1
                a_i = reduce(np.kron, [SIGMA_PLUS] + [np.eye(2)] * (w - 1))
                a_j = reduce(np.kron, [SIGMA_Z] * (w - 1) + [SIGMA_PLUS])
                hop, pair = A * (a_i @ a_j.conj().T), B * (a_i @ a_j)
                terms.append((tuple(range(i, j + 1)), (hop + pair + hop.conj().T + pair.conj().T) / float(j - i) ** alpha))
        return terms

    @pytest.mark.parametrize("A, B", [(1.0, 0.5), (1.0, 0.0), (0.0, 1.0), (0.3, -0.7)])
    def test_terms_match_the_kronecker_construction(self, A, B):
        # Written as signed partial permutations, every entry bit for bit, signs of zeros included.
        for n in range(2, 11):
            H = build_long_range_fermion_chain(n, 3.0, A, B)
            oracle = self.kronecker_terms(n, 3.0, A, B)
            assert [t.support for t in H.terms] == [support for support, _ in oracle]
            for term, (_, m) in zip(H.terms, oracle):
                assert term.matrix.dtype == m.dtype
                assert np.array_equal(term.matrix, m)
                assert np.array_equal(np.signbit(term.matrix), np.signbit(m))

    def test_coupling_table_shape_error(self):
        # The couplings are uniform scalars; a table of any shape is refused.
        for table in (np.ones((3, 3)), np.ones((4, 4))):
            with pytest.raises(TypeError):
                build_long_range_fermion_chain(4, 2.0, table, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    alpha=st.floats(min_value=2.1, max_value=5.0),
    J=st.floats(min_value=0.1, max_value=2.0),
    B=st.floats(min_value=0.0, max_value=2.0),
)
def test_property_envelope_dominates_all_contiguous_pairs(n, alpha, J, B):
    H = build_long_range_ising(n, alpha, J, B)
    env = decay_envelope(H)
    records = verify_assumption1(H, env, contiguous_pair_samples(n))
    assert all(r.lhs <= r.rhs + 1e-9 for r in records)
