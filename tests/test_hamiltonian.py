import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agsplab.hamiltonian import (
    DimensionCeilingError,
    Hamiltonian,
    InteractionTerm,
    LatticeSpec,
    assemble_dense,
    assemble_sparse,
    block_interaction,
    build_long_range_fermion_chain,
    build_long_range_ising,
    contiguous_pair_samples,
    decay_envelope,
    embed_sum,
    local_energy_g,
    region_sum,
    verify_assumption1,
)
from conftest import (
    PAULI_X,
    PAULI_Z,
    kron_chain,
    oracle_fermion_chain,
    oracle_ising,
    power_law_profile,
    verify_power_law,
)

# Frozen oracle values (computed once with the independent constructions in
# conftest and pinned here).
GROUND_N4_A2_J1_B05 = -3.140975654389395
FERMION_GROUND_N4_A2 = -2.198459038833017


class TestLatticeAndTerms:
    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(n=0)
        with pytest.raises(ValueError):
            LatticeSpec(n=4, d=1)
        with pytest.raises(ValueError):
            LatticeSpec(n=4, boundary="periodic")

    def test_dimension_ceiling(self, monkeypatch):
        with pytest.raises(DimensionCeilingError):
            LatticeSpec(n=15)
        monkeypatch.setenv("AGSPLAB_DIM_CEILING", "64")
        with pytest.raises(DimensionCeilingError):
            LatticeSpec(n=7)
        assert LatticeSpec(n=6).dim == 64

    def test_term_requires_hermitian(self):
        with pytest.raises(ValueError):
            InteractionTerm((1,), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_term_support_sorted_distinct(self):
        with pytest.raises(ValueError):
            InteractionTerm((2, 1), np.eye(4))
        with pytest.raises(ValueError):
            InteractionTerm((1, 1), np.eye(4))

    def test_term_diameter(self):
        t = InteractionTerm((2, 5), np.eye(4))
        assert t.diameter == 3

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

    def test_dimension_ceiling(self, monkeypatch):
        lat = LatticeSpec(n=4)
        monkeypatch.setenv("AGSPLAB_DIM_CEILING", "8")
        with pytest.raises(DimensionCeilingError):
            embed_sum(lat, [((1,), PAULI_Z)])

    def test_region_sum_relabels_and_empty_region(self):
        H = build_long_range_ising(5, 2.0, 1.0, 0.5)
        picked = [t for t in H.terms if set(t.support) <= {2, 4, 5}]
        pos = {2: 1, 4: 2, 5: 3}
        expected = _elementary_oracle(
            3, [(tuple(pos[s] for s in t.support), t.matrix) for t in picked]
        )
        np.testing.assert_allclose(region_sum(H.lattice, (2, 4, 5), picked), expected.real, atol=1e-14)
        np.testing.assert_array_equal(region_sum(H.lattice, (), []), np.zeros((1, 1)))


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
        np.testing.assert_allclose(S.toarray(), assemble_dense(H), rtol=0, atol=1e-14)

    def test_empty_terms_zero_matrix(self):
        S = assemble_sparse(Hamiltonian(LatticeSpec(n=3), []))
        assert S.shape == (8, 8) and S.nnz == 0


class TestBlockInteraction:
    def test_disconnected_sets_zero(self):
        H = build_long_range_ising(4, 2.0, 0.0, 1.0)  # field only
        V, norm = block_interaction(H, {1}, {3})
        assert norm == 0.0
        np.testing.assert_array_equal(V, np.zeros_like(V))

    def test_no_picked_term_needs_no_eigensolve(self, monkeypatch):
        # Fermion pair terms span every site between their ends, so none lies
        # inside X | Y once X and Y are separated by a gap.
        H = build_long_range_fermion_chain(6, 3.0, 1.0, 0.5)

        def refused(*args, **kwargs):
            raise AssertionError("eigensolve requested")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        V, norm = block_interaction(H, {1, 2}, {4, 5})
        assert norm == 0.0
        np.testing.assert_array_equal(V, np.zeros((16, 16)))

    def test_n4_example_matrix_and_norm(self):
        H = build_long_range_ising(4, 2.0, 1.0, 0.7)
        V, norm = block_interaction(H, {1, 2}, {3, 4})
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
        V, _ = block_interaction(H, {1, 2}, {4, 5})  # embedded on sites 1, 2, 4, 5
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
            triangle = sum(
                H.term_norm(i)
                for i, t in enumerate(H.terms)
                if set(t.support) & X and set(t.support) & Y
            )
            assert norm <= triangle + 1e-12


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
        report = verify_assumption1(H, env, pairs)
        assert all(s.norm <= s.bound + 1e-9 for s in report)

    def test_adjacent_blocks_read_g0(self):
        H = build_long_range_ising(6, 3.0, 1.0, 1.0)
        env = decay_envelope(H)
        [sample] = verify_assumption1(H, env, [((1, 2, 3), (4, 5, 6))])
        assert sample.r == 1
        assert sample.bound == pytest.approx(env.g0)
        assert sample.norm <= env.g0

    def test_zero_coupling_full_slack(self):
        H = build_long_range_ising(4, 3.0, 0.0, 1.0)
        env = decay_envelope(build_long_range_ising(4, 3.0, 1.0, 1.0))
        report = verify_assumption1(H, env, [((1,), (2,)), ((1, 2), (4,))])
        for s in report:
            assert s.norm == 0.0
            assert s.bound - s.norm == pytest.approx(env.bound(s.r))


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

    def test_coupling_table_shape_error(self):
        with pytest.raises(ValueError):
            build_long_range_fermion_chain(4, 2.0, np.ones((3, 3)), 0.0)


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
    report = verify_assumption1(H, env, contiguous_pair_samples(n))
    assert all(s.norm <= s.bound + 1e-9 for s in report)
