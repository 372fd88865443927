"""Config-driven experiment pipeline.

Builds the model, runs truncation -> energy cut-off -> Chebyshev filter ->
compression, measures every registered inequality, and persists CSV/text
reports.  Sweep grid points are independent pure computations merged in
grid order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import agsp as agsp_mod
from . import effective as eff_mod
from . import entanglement as ent
from . import hamiltonian as ham
from . import truncation as trunc
from .config import ExperimentConfig
from .registry import BoundRecord
from .spectral import (
    eigendecompose,
    eigenvalues_only,
    ground_state,
    lowest_eigenpairs,
    sector_ground_state,
)


@dataclass
class EntropyRow:
    n: int
    cut: int
    S_nats: float
    S2_nats: float
    bond_dims: list[int]


@dataclass
class PointResult:
    config: ExperimentConfig
    records: list[BoundRecord]
    entropy_rows: list[EntropyRow]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.records)


def build_model(cfg: ExperimentConfig) -> ham.Hamiltonian:
    if cfg.family == "long_range_ising":
        return ham.build_long_range_ising(cfg.n, cfg.alpha, cfg.J, cfg.B)
    if cfg.family == "long_range_fermion":
        return ham.build_long_range_fermion_chain(cfg.n, cfg.alpha, cfg.A, cfg.B)
    raise ValueError(f"unknown family {cfg.family!r}")


@dataclass
class Pipeline:
    """All objects of one fully built experiment point."""

    cfg: ExperimentConfig
    H: ham.Hamiltonian
    H_dense: np.ndarray
    envelope: ham.DecayEnvelope
    g: float
    gs_energy: float
    gs_gap: float
    gs_vector: np.ndarray
    T: trunc.TruncatedHamiltonian
    spec_t: object
    gs_t: np.ndarray
    effs: dict[float, eff_mod.EffectiveHamiltonian] = field(default_factory=dict)

    @property
    def cut(self) -> int:
        return self.T.blocks.cut

    def eff_at(self, tau: float) -> eff_mod.EffectiveHamiltonian:
        if tau not in self.effs:
            self.effs[tau] = eff_mod.build_effective(self.T, tau)
        return self.effs[tau]

    def block_width_top(self) -> float:
        """Cut-off beyond which clamping is a no-op (max block width)."""
        return max(sp.width for sp in self.T.block_spectra()) + 1.0


def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    H = build_model(cfg)
    H_dense = ham.assemble_dense(H)
    envelope = ham.decay_envelope(H)
    g = ham.local_energy_g(H)
    gs = ground_state(H_dense)
    blocks = trunc.decompose_blocks(cfg.n, cfg.q, cfg.l, cfg.cut)
    T = trunc.shift_block_energies(trunc.truncate_interactions(H, blocks))
    spec_t = eigendecompose(T.assemble_dense(), check=False)
    gs_t = trunc.align_phase(gs.state, spec_t.eigenvectors[:, 0])
    return Pipeline(
        cfg=cfg,
        H=H,
        H_dense=H_dense,
        envelope=envelope,
        g=g,
        gs_energy=gs.energy,
        gs_gap=gs.gap,
        gs_vector=gs.state,
        T=T,
        spec_t=spec_t,
        gs_t=gs_t,
    )


def _assumption1_records(pipe: Pipeline, tol: float) -> list[BoundRecord]:
    n = pipe.cfg.n
    cap = None if n <= 8 else 60
    pairs = ham.contiguous_pair_samples(n, max_pairs=cap)
    samples = ham.verify_assumption1(pipe.H, pipe.envelope, pairs)
    return [
        BoundRecord(
            "assumption1",
            s.norm,
            s.bound,
            {"r": s.r, "X": s.X, "Y": s.Y},
            slack=tol,
        )
        for s in samples
    ]


def _truncation_records(pipe: Pipeline, tol: float) -> list[BoundRecord]:
    rep = trunc.verify_lemma3_4(pipe.H, pipe.T, pipe.envelope, H_dense=pipe.H_dense)
    records = [
        BoundRecord("lemma3.norm", rep.delta_norm, rep.delta_bound, slack=tol),
        BoundRecord("weyl", rep.weyl_max, rep.delta_norm, slack=tol),
        BoundRecord("lemma3.gap", rep.gap - 2.0 * rep.delta_norm, rep.gap_t, slack=tol),
    ]
    if rep.overlap_applicable:
        records.append(
            BoundRecord("lemma4.overlap", rep.overlap_distance, rep.overlap_bound, slack=tol)
        )
    else:
        records.append(
            BoundRecord("lemma4.overlap", 0.0, 0.0, {"note": "4||dH|| >= gap; bound vacuous"}, slack=tol)
        )
    return records


def _theorem5_records(pipe: Pipeline, tol: float) -> list[BoundRecord]:
    diags = eff_mod.theorem5_check(pipe.T, pipe.cfg.taus, spec_t=pipe.spec_t)
    records = []
    met_any = False
    for dg in diags:
        records.append(
            BoundRecord("thm5.kappa", dg.kappa, dg.kappa_bound, {"tau": dg.tau}, slack=tol)
        )
        if dg.precondition_met:
            met_any = True
            records.append(
                BoundRecord("thm5.gap", 0.5 * dg.gap_t, dg.gap_eff, {"tau": dg.tau}, slack=tol)
            )
            records.append(
                BoundRecord(
                    "thm5.overlap", dg.overlap_distance, dg.overlap_bound, {"tau": dg.tau}, slack=tol
                )
            )
    if not met_any:
        # Hypothesis vacuous on this grid: check exponential decay by slope.
        records.append(
            BoundRecord("thm5.gap", 0.0, 0.0, {"note": "hypothesis vacuous on grid"}, slack=tol)
        )
        taus = [dg.tau for dg in diags]
        dists = [dg.overlap_distance for dg in diags]
        try:
            slope, r2, used = eff_mod.fit_log_slope(taus, dists)
        except ValueError:
            slope, r2, used = 0.0, 1.0, 0
        if used >= 5:
            records.append(
                BoundRecord(
                    "thm5.overlap",
                    slope,
                    0.0,
                    {"variant": "decay-slope", "points": used},
                    slack=tol,
                )
            )
            records.append(
                BoundRecord(
                    "thm5.overlap",
                    0.9,
                    r2,
                    {"variant": "decay-fit-r2", "points": used},
                    slack=tol,
                )
            )
        else:
            records.append(
                BoundRecord(
                    "thm5.overlap", 0.0, 0.0, {"note": "grid too small for slope"}, slack=tol
                )
            )
    return records


def _filter_machinery_records(pipe: Pipeline, rng, tol: float) -> list[BoundRecord]:
    T = pipe.T
    tau_star = max(pipe.cfg.taus)
    eff = pipe.eff_at(tau_star)
    records = [
        BoundRecord(
            "effnorm",
            ham.spectral_norm(eff.assemble_dense()),
            eff.norm_budget(),
            {"tau": tau_star},
            slack=tol,
        )
    ]
    e0 = pipe.spec_t.ground_energy
    width = pipe.spec_t.width
    block_specs = T.block_spectra()
    lo = min(sp.eigenvalues[0] for sp in block_specs)
    hi = max(sp.eigenvalues[-1] for sp in block_specs)
    E_prime_grid = np.linspace(lo - 0.5, hi + 0.5, 5)
    E_grid = np.linspace(e0, e0 + width, 5)
    for rec in eff_mod.energy_distribution_check(eff, E_prime_grid, E_grid, spec_t=pipe.spec_t):
        bid = "prop8.energy-dist" if rec.label == "energy-dist" else "prop8.energy-dist-eff"
        records.append(BoundRecord(bid, rec.lhs, rec.rhs, rec.context, slack=tol))
    for rec in eff_mod.effective_difference_check(T, eff, np.linspace(e0, e0 + 0.5 * width, 5), spec_t=pipe.spec_t):
        records.append(BoundRecord("prop9.diff", rec.lhs, rec.rhs, rec.context, slack=tol))
    for s in range(T.q + 2):
        sp = block_specs[s]
        high = sp.eigenvectors[:, sp.eigenvalues > eff.tau_s[s]]
        ops = []
        if high.size:
            ops.append(("clamp-tail", high @ high.conj().T))
        diag = rng.uniform(-1.0, 1.0, size=sp.source_dim)
        ops.append(("random-diagonal", (sp.eigenvectors * diag) @ sp.eigenvectors.conj().T))
        for name, O in ops:
            for rec in eff_mod.exponential_filter_check(
                T,
                s,
                O,
                E=(e0, e0 + width / 4.0),
                E_prime=(e0 + width / 3.0, e0 + 2.0 * width / 3.0),
                spec_t=pipe.spec_t,
                eff=eff,
            ):
                ctx = dict(rec.context)
                ctx["operator"] = name
                ctx["variant"] = rec.label
                records.append(BoundRecord("lemma14.filter", rec.lhs, rec.rhs, ctx, slack=tol))
    for rec in eff_mod.commutator_bound_check(T):
        records.append(BoundRecord("lemma15.commutator", rec.lhs, rec.rhs, rec.context, slack=tol))
    return records


def _chebyshev_records(pipe: Pipeline, tol: float) -> list[BoundRecord]:
    records = []
    xs_in = np.linspace(-1.0, 1.0, 201)
    xs_out = np.linspace(1.0, 3.0, 101)
    for m in sorted({max(m, 1) for m in pipe.cfg.ms}):
        vals_in = np.abs(agsp_mod.chebyshev_T(m, xs_in))
        records.append(
            BoundRecord("cheb.lemma11", float(vals_in.max()), 1.0, {"m": m, "regime": "box"}, slack=tol)
        )
        vals_out = np.abs(agsp_mod.chebyshev_T(m, xs_out))
        upper = (2.0 * xs_out) ** m / 2.0
        lower = 0.5 * np.exp(2.0 * m * np.sqrt((xs_out - 1.0) / (xs_out + 1.0)))
        records.append(
            BoundRecord(
                "cheb.lemma11",
                float(np.max(vals_out / upper)),
                1.0,
                {"m": m, "regime": "growth-upper"},
                slack=tol,
            )
        )
        records.append(
            BoundRecord(
                "cheb.lemma11",
                float(np.max(lower / vals_out)),
                1.0,
                {"m": m, "regime": "growth-lower"},
                slack=tol,
            )
        )
    return records


def _agsp_records(pipe: Pipeline, tol: float):
    """Filter quality, bootstrap, and the assembled entropy bound."""
    records = []
    tau_star = max(pipe.cfg.taus)
    eff = pipe.eff_at(tau_star)
    reports = {}
    for m in pipe.cfg.ms:
        filt = agsp_mod.agsp_filter(eff, m)
        rep = agsp_mod.measure_agsp(filt, pipe.gs_t)
        reports[m] = (filt, rep)
        records.append(
            BoundRecord("agsp.epsilon", rep.epsilon_K, rep.cheb_bound, {"m": m, "tau": tau_star}, slack=tol)
        )
    for power in pipe.cfg.sr_powers:
        rep = agsp_mod.schmidt_rank_bound_check(pipe.T, power)
        records.append(
            BoundRecord("sr.lemma8", rep.measured, rep.product_bound, {"m": power}, slack=tol)
        )
        records.append(
            BoundRecord(
                "sr.prop4",
                rep.measured,
                rep.counting_bound,
                {"m": power, "assumption_met": rep.counting_assumption_met},
                slack=tol,
            )
        )
    m_boot = max(pipe.cfg.ms)
    psi = diag = None
    for _ in range(8):
        filt, rep = reports.get(m_boot, (None, None))
        if filt is None:
            filt = agsp_mod.agsp_filter(eff, m_boot)
            rep = agsp_mod.measure_agsp(filt, pipe.gs_t)
            reports[m_boot] = (filt, rep)
        psi, diag = agsp_mod.bootstrap_state(filt, pipe.gs_t, report=rep)
        if diag.precondition_met:
            break
        m_boot *= 2
    if diag is not None and diag.precondition_met:
        records.append(
            BoundRecord("bootstrap.mu1", diag.mu1_floor, diag.mu1, {"m": m_boot}, slack=tol)
        )
        records.append(
            BoundRecord("prop2.distance", diag.distance, diag.distance_bound, {"m": m_boot}, slack=tol)
        )
    else:
        records.append(
            BoundRecord("bootstrap.mu1", 0.0, 0.0, {"note": "precondition unmet within budget"}, slack=tol)
        )
        records.append(
            BoundRecord("prop2.distance", 0.0, 0.0, {"note": "precondition unmet within budget"}, slack=tol)
        )
    return records, psi


def _sequence_records(pipe: Pipeline, psi_base: np.ndarray | None, tol: float) -> list[BoundRecord]:
    cfg = pipe.cfg
    cut = pipe.cut
    d = pipe.H.lattice.d
    base = psi_base
    if base is None or np.linalg.norm(pipe.gs_vector - trunc.align_phase(pipe.gs_vector, base)) > 0.5:
        schmidt = ent.schmidt_decompose(pipe.gs_vector, cut, d=d)
        base = ent.truncate_to_rank(schmidt, max(1, schmidt.numerical_rank() // 2))
    if np.linalg.norm(pipe.gs_vector - trunc.align_phase(pipe.gs_vector, base)) > 0.5:
        base = pipe.gs_vector  # always admissible (zero base drift)
    truncations: dict[int, trunc.TruncatedHamiltonian] = {}

    def factory(m, l, tau):
        if l not in truncations:
            blocks = trunc.decompose_blocks(cfg.n, cfg.q, l)
            truncations[l] = trunc.shift_block_energies(
                trunc.truncate_interactions(pipe.H, blocks)
            )
        T_l = truncations[l]
        width = max(sp.width for sp in T_l.block_spectra()) + 1.0
        eff = eff_mod.build_effective(T_l, min(tau, width))
        return agsp_mod.agsp_filter(eff, m)

    steps, exhausted = ent.agsp_sequence(
        factory,
        pipe.gs_vector,
        base,
        p_max=4,
        cut=cut,
        d=d,
        l_start=cfg.l,
        tau_start=max(cfg.taus),
        l_max=cfg.n // cfg.q,
        tau_max=pipe.block_width_top(),
    )
    records = []
    usable = [s for s in steps if s.target_met and s.gamma <= 1.0]
    if usable:
        gammas = [s.gamma for s in usable]
        Ds = [s.D for s in usable]
        D_phi = max(1, agsp_mod.state_schmidt_rank(base, cut, d=d))
        cap = min(d**cut, d ** (cfg.n - cut))
        bound = ent.agsp_entropy_bound(D_phi, gammas, Ds, schmidt_cap=cap)
        S = ent.entropy(ent.schmidt_decompose(pipe.gs_vector, cut, d=d))
        records.append(
            BoundRecord(
                "prop3.entropy-bound",
                S,
                bound,
                {"steps": len(usable), "exhausted": exhausted},
                slack=tol,
            )
        )
    else:
        records.append(
            BoundRecord("prop3.entropy-bound", 0.0, 0.0, {"note": "no usable sequence step"}, slack=tol)
        )
    return records


def _compression_records(pipe: Pipeline, rng, tol: float) -> list[BoundRecord]:
    records = []
    d = pipe.H.lattice.d
    cut = pipe.cut
    gs = pipe.gs_vector
    schmidt = ent.schmidt_decompose(gs, cut, d=d)
    states = [("ground", gs, schmidt)]
    for idx in range(2):
        v = rng.standard_normal(gs.size)
        v /= np.linalg.norm(v)
        states.append((f"random{idx}", v, ent.schmidt_decompose(v, cut, d=d)))
    for name, state, sd in states:
        for D in (1, 2, 4):
            if D >= len(sd.coefficients):
                continue
            approx = ent.truncate_to_rank(sd, D)
            rec = ent.eckart_young_check(state, approx, cut, d=d)
            records.append(
                BoundRecord(
                    "eckart-young",
                    rec.tail_weight,
                    rec.distance_squared,
                    {"state": name, "D": D},
                    slack=tol,
                )
            )
        S = ent.entropy(sd)
        records.append(
            BoundRecord("s2≤s", ent.renyi2(sd), S, {"state": name}, slack=tol)
        )
    for D in (1, 2, 4, 8, 16):
        rec = ent.mps_compression_check(gs, D, d=d)
        records.append(
            BoundRecord("claim7.mps", rec.error_squared, rec.weight_bound, {"D": D}, slack=tol)
        )
    return records


def entropy_row(cfg: ExperimentConfig) -> EntropyRow:
    """Half-chain (or configured-cut) entropies of the model ground state."""
    H = build_model(cfg)
    dense = ham.assemble_dense(H)
    if cfg.family == "long_range_ising":
        # spin-flip parity sectors cut the solve cost by 8x at the ceiling
        gs = sector_ground_state(dense, ham.spin_flip_parity_indices(cfg.n))
    else:
        gs = ground_state(dense)
    dim = dense.shape[0]
    del dense
    cut = cfg.cut if cfg.cut is not None else cfg.n // 2
    sd = ent.schmidt_decompose(gs.state, cut, d=H.lattice.d)
    exact = ent.mps_compress(gs.state, D=dim, d=H.lattice.d)
    return EntropyRow(
        n=cfg.n,
        cut=cut,
        S_nats=ent.entropy(sd),
        S2_nats=ent.renyi2(sd),
        bond_dims=exact.bond_dims,
    )


def verify_point(cfg: ExperimentConfig) -> PointResult:
    """Full single-point pipeline: every registered inequality plus entropies."""
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.tolerance
    pipe = build_pipeline(cfg)
    records = []
    records.append(BoundRecord("gap≤2g", pipe.gs_gap, 2.0 * pipe.g, slack=tol))
    records.extend(_assumption1_records(pipe, tol))
    records.extend(_truncation_records(pipe, tol))
    records.extend(_theorem5_records(pipe, tol))
    records.extend(_filter_machinery_records(pipe, rng, tol))
    records.extend(_chebyshev_records(pipe, tol))
    agsp_records, psi = _agsp_records(pipe, tol)
    records.extend(agsp_records)
    records.extend(_sequence_records(pipe, psi, tol))
    records.extend(_compression_records(pipe, rng, tol))
    row = entropy_row(cfg)
    return PointResult(config=cfg, records=records, entropy_rows=[row])


def verify_all(cfg: ExperimentConfig) -> list[BoundRecord]:
    """Records for every grid point of the (possibly swept) config."""
    return [r for point in run_points(cfg) for r in point.records]


def run_points(cfg: ExperimentConfig, entropy_only: bool = False) -> list[PointResult]:
    points = cfg.grid_points()
    worker = _entropy_point if entropy_only else verify_point
    if cfg.jobs > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            return list(pool.map(worker, points))
    return [worker(p) for p in points]


def _entropy_point(cfg: ExperimentConfig) -> PointResult:
    return PointResult(config=cfg, records=[], entropy_rows=[entropy_row(cfg)])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_reports(cfg: ExperimentConfig, points: list[PointResult], out_dir: str | None = None) -> dict:
    """Write results.csv, summary.txt, entropy.csv; returns file paths."""
    from .registry import BOUND_REGISTRY

    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    sweep_col = [cfg.sweep_param] if cfg.sweep_param else []
    results_path = os.path.join(out, "results.csv")
    with open(results_path, "w") as fh:
        fh.write(",".join(["bound_id", "lhs", "rhs", "holds"] + sweep_col) + "\n")
        for point in points:
            extra = []
            if cfg.sweep_param:
                extra = [_fmt(getattr_point(point.config, cfg.sweep_param))]
            for r in point.records:
                fh.write(
                    ",".join([r.bound_id, _fmt(r.lhs), _fmt(r.rhs), str(r.holds).lower()] + extra)
                    + "\n"
                )
    entropy_path = os.path.join(out, "entropy.csv")
    with open(entropy_path, "w") as fh:
        fh.write(",".join(["n", "cut", "S_nats", "S2_nats", "bond_dims"] + sweep_col) + "\n")
        for point in points:
            extra = []
            if cfg.sweep_param:
                extra = [_fmt(getattr_point(point.config, cfg.sweep_param))]
            for row in point.entropy_rows:
                dims = "|".join(str(b) for b in row.bond_dims)
                fh.write(
                    ",".join(
                        [str(row.n), str(row.cut), _fmt(row.S_nats), _fmt(row.S2_nats), dims] + extra
                    )
                    + "\n"
                )
    summary_path = os.path.join(out, "summary.txt")
    by_id: dict[str, list[BoundRecord]] = {}
    for point in points:
        for r in point.records:
            by_id.setdefault(r.bound_id, []).append(r)
    with open(summary_path, "w") as fh:
        total_fail = 0
        for bid in sorted(by_id):
            recs = by_id[bid]
            fails = sum(1 for r in recs if not r.holds)
            total_fail += fails
            status = "PASS" if fails == 0 else f"FAIL ({fails}/{len(recs)})"
            fh.write(f"{bid}: {status} [{len(recs)} checks]\n")
            fh.write(f"    {BOUND_REGISTRY[bid]}\n")
        fh.write(f"\noverall: {'PASS' if total_fail == 0 else 'FAIL'}\n")
    return {"results": results_path, "entropy": entropy_path, "summary": summary_path}


def getattr_point(cfg: ExperimentConfig, param: str):
    if param == "tau":
        return cfg.taus[0]
    if param == "m":
        return cfg.ms[0]
    return getattr(cfg, param)
