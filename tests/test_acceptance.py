"""Acceptance gate: every criterion prints one pass/fail line and asserts.

Reference instance throughout: long-range Ising chain, n=10, alpha=3, J=1,
B=2, blocks q=2, l=2 (session fixture `reference_pipeline`).
"""

import json
import math
import os
import time
from functools import partial

import numpy as np
import pytest

from agsplab import agsp as am
from agsplab import effective as em
from agsplab import entanglement as en
from agsplab import hamiltonian as ham
from agsplab import truncation as tr
from agsplab.spectral import eigendecompose, ground_state
from conftest import assemble_dense, dense_eigenvectors, dense_epsilon, random_state

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "area_law_entropies.json")
TOL = 1e-9


def report(criterion: str, ok: bool, detail: str):
    print(f"acceptance[{criterion}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def reference_tau(pipe) -> float:
    """Cut-off above the gap-preservation hypothesis, or at spectrum top."""
    required = em.theorem5_precondition_tau(pipe.T, pipe.T.spectral().gap)
    top = pipe.T.clamp_ceiling()
    return required if required <= top else top


def test_criterion_1_chebyshev_filter_bound(reference_pipeline):
    start = time.perf_counter()
    pipe = reference_pipeline
    eff = pipe.eff_at(reference_tau(pipe))
    worst = -np.inf
    for m in (2, 4, 6, 8, 12, 16):
        filt = am.agsp_filter(eff, m)
        worst = max(worst, dense_epsilon(filt) - filt.cheb_bound)
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and elapsed <= 60.0
    report(
        "1 chebyshev-filter",
        ok,
        f"max(eps_K - bound) = {worst:.3e} over m in {{2,4,6,8,12,16}}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_2_truncation_suite():
    start = time.perf_counter()
    failures = []
    for n in (8, 10, 12):
        H = ham.build_long_range_ising(n, 3.0, 1.0, 2.0)
        dense = assemble_dense(H)
        spec = eigendecompose(dense)
        gs = ground_state(spec).state
        for l in (1, 2, 3):
            T = tr.truncate_interactions(H, tr.decompose_blocks(n, 2, l))
            # lemma3.norm, weyl, lemma3.gap, lemma4.overlap (0 <= 0 when 4||dH|| >= gap)
            for rec in tr.verify_lemma3_4(H, T, spec.eigenvalues, gs):
                if rec.lhs > rec.rhs + TOL or (rec.bound_id == "lemma3.norm" and "note" in rec.context):
                    failures.append(f"{rec.bound_id}(n={n},l={l})")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed <= 120.0
    report(
        "2 truncation-suite",
        ok,
        f"n in {{8,10,12}} x l in {{1,2,3}}: {failures or 'all bounds hold'}, {elapsed:.1f}s",
    )


def test_criterion_3_gap_preservation_decay(reference_pipeline):
    start = time.perf_counter()
    pipe = reference_pipeline
    top = pipe.T.clamp_ceiling()
    taus = np.linspace(2.0, 0.95 * top, 9)
    recs = em.theorem5_check(pipe.T, taus, partial(em.build_effective, pipe.T))
    fit = {r.context["variant"]: r for r in recs if "variant" in r.context}
    slope, r2, used = fit["decay-slope"].lhs, fit["decay-fit-r2"].rhs, fit["decay-slope"].context["points"]
    # gap_t / 2 <= gap_eff and drift <= bound, at every tau that meets the hypothesis
    conditional_ok = all(
        r.lhs <= r.rhs + TOL for r in recs if r.bound_id in ("thm5.gap", "thm5.overlap") and "tau" in r.context
    )
    elapsed = time.perf_counter() - start
    ok = slope < 0 and r2 >= 0.9 and used >= 8 and conditional_ok and elapsed <= 120.0
    report(
        "3 clamp-decay",
        ok,
        f"slope = {slope:.3f}, R^2 = {r2:.4f} over {used} points, "
        f"conditional bounds {'hold' if conditional_ok else 'FAIL'}, {elapsed:.1f}s",
    )


def test_criterion_4_spectral_filter_machinery(reference_pipeline):
    pipe = reference_pipeline
    T = pipe.T
    eff = pipe.eff_at(reference_tau(pipe))
    e0, width = T.spectral().ground_energy, T.spectral().width
    block_specs = T.block_spectra()
    lo = min(sp.eigenvalues[0] for sp in block_specs)
    hi = max(sp.eigenvalues[-1] for sp in block_specs)
    recs = em.energy_distribution_check(
        eff, np.linspace(lo - 0.5, hi + 0.5, 5), np.linspace(e0, e0 + width, 5)
    )
    n_dist = len(recs)
    bad = [r for r in recs if not r.holds]
    recs9 = em.effective_difference_check(T, eff, np.linspace(e0, e0 + 0.5 * width, 5))
    bad += [r for r in recs9 if not r.holds]
    rng = np.random.default_rng(5)
    n_filter = 0
    for s in range(T.q + 2):
        sp = block_specs[s]
        U = dense_eigenvectors(sp)
        diag = rng.uniform(-1, 1, size=U.shape[0])
        O = (U * diag) @ U.conj().T
        for rec in em.exponential_filter_check(
            T, s, O, E=e0 + width / 4, E_prime=e0 + width / 2, eff=eff
        ):
            n_filter += 1
            if not rec.holds:
                bad.append(rec)
    comm = em.commutator_bound_check(T)
    bad += [r for r in comm if not r.holds]
    ok = not bad
    report(
        "4 filter-machinery",
        ok,
        f"{n_dist} distribution + {len(recs9)} clamp-difference + {n_filter} filter + "
        f"{len(comm)} commutator checks: {len(bad)} violations",
    )


def test_criterion_5_bootstrapping(reference_pipeline):
    pipe = reference_pipeline
    eff = pipe.eff_at(reference_tau(pipe))
    m, psi = 4, None
    for _ in range(7):
        psi, (mu1, dist) = am.bootstrap_state(am.agsp_filter(eff, m), pipe.gs_t)
        if psi is not None:  # epsilon_K^2 D_K <= 1/2
            break
        m *= 2
    ok = (
        psi is not None
        and mu1.rhs >= mu1.lhs - TOL  # mu_1 >= 1/sqrt(2 D_K)
        and dist.lhs <= dist.rhs + TOL
    )
    detail = "precondition never met" if psi is None else (
        f"m = {m}: mu1 = {mu1.rhs:.4f} >= {mu1.lhs:.4f}, "
        f"distance = {dist.lhs:.3e} <= {dist.rhs:.3e}"
    )
    report("5 bootstrapping", ok, detail)


def test_criterion_6_schmidt_rank_bounds():
    failures = []
    for l in (1, 2):
        H = ham.build_long_range_ising(8, 3.0, 1.0, 2.0)
        T = tr.truncate_interactions(H, tr.decompose_blocks(8, 2, l))
        for m in (1, 2, 3):
            product, counting = am.schmidt_rank_bound_check(T, m)
            if product.lhs > product.rhs + TOL:
                failures.append(f"product(l={l},m={m})")
            if counting.lhs > counting.rhs + TOL:
                failures.append(f"counting(l={l},m={m},assumption={counting.context['assumption_met']})")
    report(
        "6 schmidt-rank",
        not failures,
        f"SR(H_t^m) bounds at n=8, l in {{1,2}}, m in {{1,2,3}}: {failures or 'all hold'}",
    )


def test_criterion_7_compression_suite(reference_pipeline):
    rng = np.random.default_rng(2024)
    ey_bad = 0
    checked = 0
    for _ in range(100):
        state = random_state(rng, 64)
        sd = en.schmidt_decompose(state, 3)
        for D in range(1, 8):
            approx = en.truncate_to_rank(sd, D)
            rec = en.eckart_young_check(sd, approx)
            checked += 1
            if rec.lhs > rec.rhs + 1e-12:
                ey_bad += 1
    gs = reference_pipeline.gs_vector
    mps_bad = []
    for rec in en.mps_compression_check(gs, (1, 2, 4, 8, 16)):
        if "note" in rec.context or rec.lhs > rec.rhs + TOL:
            mps_bad.append(rec.context["D"])
    s2_ok = True
    for state, cut in [(gs, 5)] + [(random_state(rng, 64), 3) for _ in range(5)]:
        sd = en.schmidt_decompose(state, cut)
        if en.renyi2(sd) > en.entropy(sd) + 1e-12:
            s2_ok = False
    ok = ey_bad == 0 and not mps_bad and s2_ok
    report(
        "7 compression-suite",
        ok,
        f"{checked} tail-weight checks ({ey_bad} bad), rank-D sweep bound "
        f"{'holds' if not mps_bad else mps_bad}, S2<=S {'holds' if s2_ok else 'FAIL'}",
    )


def half_chain_entropy(n: int) -> float:
    H = ham.build_long_range_ising(n, 3.0, 1.0, 2.0)
    gs = ground_state(ham.assemble_sparse(H))
    return en.entropy(en.schmidt_decompose(gs.state, n // 2))


def test_criterion_8_area_law_saturation():
    start = time.perf_counter()
    sizes = (6, 8, 10, 12, 14)
    entropies = {n: half_chain_entropy(n) for n in sizes}
    elapsed = time.perf_counter() - start
    if not os.path.exists(FIXTURE_PATH):
        os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
        with open(FIXTURE_PATH, "w") as fh:
            json.dump({str(k): v for k, v in entropies.items()}, fh, indent=2)
        frozen_ok, frozen_note = True, "fixture recorded on first run"
    else:
        frozen = {int(k): v for k, v in json.load(open(FIXTURE_PATH)).items()}
        drift = max(abs(entropies[n] - frozen[n]) for n in sizes)
        frozen_ok, frozen_note = drift <= 1e-6, f"max drift vs fixture = {drift:.2e}"
    saturating = abs(entropies[14] - entropies[12]) < abs(entropies[8] - entropies[6])
    enveloped = max(entropies.values()) < math.log(2) + entropies[6]
    ok = saturating and enveloped and frozen_ok and elapsed <= 600.0
    report(
        "8 area-law-trend",
        ok,
        f"S = {[round(entropies[n], 6) for n in sizes]}, "
        f"|S14-S12| = {abs(entropies[14]-entropies[12]):.2e} < "
        f"|S8-S6| = {abs(entropies[8]-entropies[6]):.2e}, {frozen_note}, {elapsed:.0f}s",
    )


def test_criterion_9_entropy_bound_consistency(reference_pipeline):
    pipe = reference_pipeline
    cut = pipe.cut
    sd = en.schmidt_decompose(pipe.gs_vector, cut)
    base = en.truncate_to_rank(sd, max(1, sd.numerical_rank() // 2))
    truncs = {}

    def factory(m, l, tau):
        if l not in truncs:
            blocks = tr.decompose_blocks(pipe.cfg.n, 2, l)
            truncs[l] = tr.truncate_interactions(pipe.H, blocks)
        T = truncs[l]
        return am.agsp_filter(em.build_effective(T, min(tau, T.clamp_ceiling())), m)

    steps, exhausted = en.agsp_sequence(
        factory, pipe.gs_vector, base, p_max=3,
        l_start=2, tau_start=6.0, l_max=pipe.cfg.n // 2, tau_max=pipe.T.clamp_ceiling(),
    )
    usable = [s for s in steps if s.target_met and s.gamma <= 1.0]
    assert usable, f"no usable sequence step (exhausted={exhausted})"
    D_phi = max(1, en.schmidt_decompose(base, cut).numerical_rank())
    cap = min(2**cut, 2 ** (pipe.cfg.n - cut))
    bound = en.agsp_entropy_bound(
        D_phi, [s.gamma for s in usable], [s.D for s in usable], schmidt_cap=cap
    )
    S = en.entropy(sd)
    ok = S <= bound + TOL and all(s.distance <= s.gamma + TOL for s in usable)
    report(
        "9 entropy-bound",
        ok,
        f"measured S = {S:.4f} <= assembled bound = {bound:.4f} "
        f"({len(usable)} sequence steps, measured gammas "
        f"{[round(s.gamma, 4) for s in usable]})",
    )
