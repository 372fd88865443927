"""Config-driven experiment pipeline.

Builds the model, runs truncation -> energy cut-off -> Chebyshev filter ->
compression, measures every registered inequality, and persists CSV/text
reports.  Sweep grid points are independent pure computations merged in
grid order.
"""

from __future__ import annotations

import functools
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
from .registry import BOUND_REGISTRY, BoundRecord, tally
from .spectral import SpectralData, eigendecompose, ground_state


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


def build_model(cfg: ExperimentConfig) -> ham.Hamiltonian:
    if cfg.family == "long_range_ising":
        return ham.build_long_range_ising(cfg.n, cfg.alpha, cfg.J, cfg.B)
    if cfg.family == "long_range_fermion":
        return ham.build_long_range_fermion_chain(cfg.n, cfg.alpha, cfg.A, cfg.B)
    raise ValueError(f"unknown family {cfg.family!r}")


@dataclass
class Pipeline:
    """All objects of one experiment point, each built once.

    Truncations (per block length l, at the configured cut) and clamps (per
    (l, tau)) are built on first use and shared by every check of the point.
    """

    cfg: ExperimentConfig
    H: ham.Hamiltonian
    H_spec: SpectralData
    envelope: ham.DecayEnvelope
    g: float
    gs_gap: float
    gs_vector: np.ndarray
    _truncations: dict[int, trunc.TruncatedHamiltonian] = field(default_factory=dict, repr=False)
    _effs: dict[tuple[int, float], eff_mod.EffectiveHamiltonian] = field(default_factory=dict, repr=False)

    def truncation(self, l: int) -> trunc.TruncatedHamiltonian:
        if l not in self._truncations:
            blocks = trunc.decompose_blocks(self.cfg.n, self.cfg.q, l, self.cfg.cut)
            self._truncations[l] = trunc.shift_block_energies(trunc.truncate_interactions(self.H, blocks))
        return self._truncations[l]

    def eff_at(self, tau: float, l: int | None = None) -> eff_mod.EffectiveHamiltonian:
        key = (self.cfg.l if l is None else l, tau)
        if key not in self._effs:
            self._effs[key] = eff_mod.build_effective(self.truncation(key[0]), tau)
        return self._effs[key]

    @property
    def T(self) -> trunc.TruncatedHamiltonian:
        return self.truncation(self.cfg.l)

    @functools.cached_property
    def gs_t(self) -> np.ndarray:
        """Ground state of T, phase-aligned to the ground state of H."""
        return trunc.align_phase(self.gs_vector, self.T.spectral().eigenvectors[:, 0])

    @property
    def cut(self) -> int:
        return self.T.blocks.cut

    def block_width_top(self) -> float:
        """Cut-off beyond which clamping is a no-op (max block width)."""
        return max(sp.width for sp in self.T.block_spectra()) + 1.0


def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    H = build_model(cfg)
    H_spec = eigendecompose(ham.assemble_dense(H))
    gs = ground_state(H_spec)
    return Pipeline(
        cfg=cfg,
        H=H,
        H_spec=H_spec,
        envelope=ham.decay_envelope(H),
        g=ham.local_energy_g(H),
        gs_gap=gs.gap,
        gs_vector=gs.state,
    )


def _vacuous(bound_id: str, note: str, **context) -> BoundRecord:
    """Placeholder 0 <= 0 record of a bound whose precondition is unmet."""
    return BoundRecord(bound_id, 0.0, 0.0, {**context, "note": note})


def _assumption1_records(pipe: Pipeline) -> list[BoundRecord]:
    n = pipe.cfg.n
    pairs = ham.contiguous_pair_samples(n, max_pairs=None if n <= 8 else 60)
    return [
        BoundRecord("assumption1", s.norm, s.bound, {"r": s.r, "X": s.X, "Y": s.Y})
        for s in ham.verify_assumption1(pipe.H, pipe.envelope, pairs)
    ]


def _truncation_records(pipe: Pipeline) -> list[BoundRecord]:
    rep = trunc.verify_lemma3_4(pipe.H, pipe.T, H_spec=pipe.H_spec)
    return [
        BoundRecord("lemma3.norm", rep.delta_norm, rep.delta_bound),
        BoundRecord("weyl", rep.weyl_max, rep.delta_norm),
        BoundRecord("lemma3.gap", rep.gap - 2.0 * rep.delta_norm, rep.gap_t),
        BoundRecord("lemma4.overlap", rep.overlap_distance, rep.overlap_bound)
        if rep.overlap_applicable
        else _vacuous("lemma4.overlap", "4||dH|| >= gap; bound vacuous"),
    ]


def _theorem5_records(pipe: Pipeline) -> list[BoundRecord]:
    diags = eff_mod.theorem5_check(pipe.T, pipe.cfg.taus, eff=pipe.eff_at(max(pipe.cfg.taus)))
    records = []
    for dg in diags:
        records.append(BoundRecord("thm5.kappa", dg.kappa, dg.kappa_bound, {"tau": dg.tau}))
        if dg.precondition_met:
            records.append(BoundRecord("thm5.gap", 0.5 * dg.gap_t, dg.gap_eff, {"tau": dg.tau}))
            records.append(
                BoundRecord("thm5.overlap", dg.overlap_distance, dg.overlap_bound, {"tau": dg.tau})
            )
    if any(dg.precondition_met for dg in diags):
        return records
    # Hypothesis vacuous on this grid: check exponential decay by slope.
    records.append(_vacuous("thm5.gap", "hypothesis vacuous on grid"))
    try:
        slope, r2, used = eff_mod.fit_log_slope(
            [dg.tau for dg in diags], [dg.overlap_distance for dg in diags]
        )
    except ValueError:
        used = 0
    if used >= 5:
        records.append(BoundRecord("thm5.overlap", slope, 0.0, {"variant": "decay-slope", "points": used}))
        records.append(BoundRecord("thm5.overlap", 0.9, r2, {"variant": "decay-fit-r2", "points": used}))
    else:
        records.append(_vacuous("thm5.overlap", "grid too small for slope"))
    return records


def _filter_machinery_records(pipe: Pipeline, rng) -> list[BoundRecord]:
    T = pipe.T
    tau_star = max(pipe.cfg.taus)
    eff = pipe.eff_at(tau_star)
    records = [BoundRecord("effnorm", eff.spectral().norm, eff.norm_budget(), {"tau": tau_star})]
    e0 = T.spectral().ground_energy
    width = T.spectral().width
    block_specs = T.block_spectra()
    lo = min(sp.eigenvalues[0] for sp in block_specs)
    hi = max(sp.eigenvalues[-1] for sp in block_specs)
    E_prime_grid = np.linspace(lo - 0.5, hi + 0.5, 5)
    E_grid = np.linspace(e0, e0 + width, 5)
    records.extend(eff_mod.energy_distribution_check(eff, E_prime_grid, E_grid))
    records.extend(eff_mod.effective_difference_check(T, eff, np.linspace(e0, e0 + 0.5 * width, 5)))
    for s, tail in enumerate(eff.tail_projectors()):
        sp = block_specs[s]
        ops = [] if tail is None else [("clamp-tail", tail)]
        diag = rng.uniform(-1.0, 1.0, size=sp.source_dim)
        ops.append(("random-diagonal", (sp.eigenvectors * diag) @ sp.eigenvectors.conj().T))
        for name, O in ops:
            for rec in eff_mod.exponential_filter_check(
                T,
                s,
                O,
                E=(e0, e0 + width / 4.0),
                E_prime=(e0 + width / 3.0, e0 + 2.0 * width / 3.0),
                eff=eff,
            ):
                rec.context["operator"] = name
                records.append(rec)
    records.extend(eff_mod.commutator_bound_check(T))
    return records


def _chebyshev_records(pipe: Pipeline) -> list[BoundRecord]:
    records = []
    xs_in = np.linspace(-1.0, 1.0, 201)
    xs_out = np.linspace(1.0, 3.0, 101)
    for m in sorted({max(m, 1) for m in pipe.cfg.ms}):
        vals_in = np.abs(agsp_mod.chebyshev_T(m, xs_in))
        records.append(BoundRecord("cheb.lemma11", float(vals_in.max()), 1.0, {"m": m, "regime": "box"}))
        vals_out = np.abs(agsp_mod.chebyshev_T(m, xs_out))
        upper = (2.0 * xs_out) ** m / 2.0
        lower = 0.5 * np.exp(2.0 * m * np.sqrt((xs_out - 1.0) / (xs_out + 1.0)))
        for regime, ratio in (("growth-upper", vals_out / upper), ("growth-lower", lower / vals_out)):
            records.append(BoundRecord("cheb.lemma11", float(np.max(ratio)), 1.0, {"m": m, "regime": regime}))
    return records


def _agsp_records(pipe: Pipeline):
    """Filter quality, bootstrap, and the assembled entropy bound."""
    records = []
    tau_star = max(pipe.cfg.taus)
    eff = pipe.eff_at(tau_star)
    reports = {}
    for m in pipe.cfg.ms:
        filt = agsp_mod.agsp_filter(eff, m)
        rep = agsp_mod.measure_agsp(filt, pipe.gs_t)
        reports[m] = (filt, rep)
        records.append(BoundRecord("agsp.epsilon", rep.epsilon_K, rep.cheb_bound, {"m": m, "tau": tau_star}))
    for power in pipe.cfg.sr_powers:
        rep = agsp_mod.schmidt_rank_bound_check(pipe.T, power)
        records.append(BoundRecord("sr.lemma8", rep.measured, rep.product_bound, {"m": power}))
        records.append(
            BoundRecord(
                "sr.prop4",
                rep.measured,
                rep.counting_bound,
                {"m": power, "assumption_met": rep.counting_assumption_met},
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
        records.append(BoundRecord("bootstrap.mu1", diag.mu1_floor, diag.mu1, {"m": m_boot}))
        records.append(BoundRecord("prop2.distance", diag.distance, diag.distance_bound, {"m": m_boot}))
    else:
        records.append(_vacuous("bootstrap.mu1", "precondition unmet within budget"))
        records.append(_vacuous("prop2.distance", "precondition unmet within budget"))
    return records, psi


def _sequence_records(pipe: Pipeline, psi_base: np.ndarray | None) -> list[BoundRecord]:
    cfg = pipe.cfg
    cut = pipe.cut
    d = pipe.H.lattice.d
    base = psi_base
    if base is None or np.linalg.norm(pipe.gs_vector - trunc.align_phase(pipe.gs_vector, base)) > 0.5:
        schmidt = ent.schmidt_decompose(pipe.gs_vector, cut, d=d)
        base = ent.truncate_to_rank(schmidt, max(1, schmidt.numerical_rank() // 2))
    if np.linalg.norm(pipe.gs_vector - trunc.align_phase(pipe.gs_vector, base)) > 0.5:
        base = pipe.gs_vector  # always admissible (zero base drift)

    @functools.lru_cache(maxsize=1)  # a step that repeats (m, l, tau) reuses its filter
    def factory(m, l, tau):
        width = max(sp.width for sp in pipe.truncation(l).block_spectra()) + 1.0
        return agsp_mod.agsp_filter(pipe.eff_at(min(tau, width), l), m)

    steps, exhausted = ent.agsp_sequence(
        factory,
        pipe.gs_vector,
        base,
        p_max=4,
        l_start=cfg.l,
        tau_start=max(cfg.taus),
        # every l whose q bulk blocks fit around the cut (decompose_blocks' domain)
        l_max=min(cfg.n // cfg.q, 2 * cut // cfg.q, 2 * (cfg.n - cut) // cfg.q),
        tau_max=pipe.block_width_top(),
    )
    usable = [s for s in steps if s.target_met and s.gamma <= 1.0]
    if not usable:
        return [_vacuous("prop3.entropy-bound", "no usable sequence step")]
    D_phi = max(1, agsp_mod.state_schmidt_rank(base, cut, d=d))
    cap = min(d**cut, d ** (cfg.n - cut))
    bound = ent.agsp_entropy_bound(D_phi, [s.gamma for s in usable], [s.D for s in usable], schmidt_cap=cap)
    S = ent.entropy(ent.schmidt_decompose(pipe.gs_vector, cut, d=d))
    return [BoundRecord("prop3.entropy-bound", S, bound, {"steps": len(usable), "exhausted": exhausted})]


def _compression_records(pipe: Pipeline, rng) -> list[BoundRecord]:
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
                BoundRecord("eckart-young", rec.tail_weight, rec.distance_squared, {"state": name, "D": D})
            )
        records.append(BoundRecord("s2≤s", ent.renyi2(sd), ent.entropy(sd), {"state": name}))
    n = pipe.cfg.n
    full = max(min(d**i, d ** (n - i)) for i in range(1, n))
    for D in (1, 2, 4, 8, 16):
        if D >= full:
            records.append(_vacuous("claim7.mps", "D at or above the full bond dimension; lossless", D=D))
            continue
        rec = ent.mps_compression_check(gs, D, d=d)
        records.append(BoundRecord("claim7.mps", rec.error_squared, rec.weight_bound, {"D": D}))
    return records


def _entropy_row(cfg: ExperimentConfig, state: np.ndarray, d: int) -> EntropyRow:
    """Entropies of a normalized state at the configured cut.

    `bond_dims` is the untruncated bond-dimension profile min(d^i, d^(n-i)),
    i = 1 .. n-1: the bond dimensions of a lossless left-to-right SVD sweep,
    which depend on the chain alone.
    """
    cut = cfg.cut if cfg.cut is not None else cfg.n // 2
    sd = ent.schmidt_decompose(state, cut, d=d)
    return EntropyRow(
        n=cfg.n,
        cut=cut,
        S_nats=ent.entropy(sd),
        S2_nats=ent.renyi2(sd),
        bond_dims=[min(d**i, d ** (cfg.n - i)) for i in range(1, cfg.n)],
    )


def entropy_row(cfg: ExperimentConfig) -> EntropyRow:
    """Half-chain (or configured-cut) entropies of the model ground state.

    The ground state comes from Lanczos on the sparse Hamiltonian; no
    d^n x d^n array is built.
    """
    H = build_model(cfg)
    gs = ground_state(ham.assemble_sparse(H))
    return _entropy_row(cfg, gs.state, H.lattice.d)


def verify_point(cfg: ExperimentConfig) -> PointResult:
    """Full single-point pipeline: every registered inequality plus entropies."""
    rng = np.random.default_rng(cfg.seed)
    pipe = build_pipeline(cfg)
    records = [BoundRecord("gap≤2g", pipe.gs_gap, 2.0 * pipe.g)]
    records.extend(_assumption1_records(pipe))
    records.extend(_truncation_records(pipe))
    records.extend(_theorem5_records(pipe))
    records.extend(_filter_machinery_records(pipe, rng))
    records.extend(_chebyshev_records(pipe))
    agsp_records, psi = _agsp_records(pipe)
    records.extend(agsp_records)
    records.extend(_sequence_records(pipe, psi))
    records.extend(_compression_records(pipe, rng))
    for r in records:
        r.slack = cfg.tolerance  # the one comparison slack of every record
    row = _entropy_row(cfg, pipe.gs_vector, pipe.H.lattice.d)
    return PointResult(config=cfg, records=records, entropy_rows=[row])


def run_points(cfg: ExperimentConfig, entropy_only: bool = False) -> list[PointResult]:
    points = cfg.grid_points()
    worker = _entropy_point if entropy_only else verify_point
    if cfg.jobs > 1 and len(points) > 1:
        # Linux's fork start method starts every worker at the first submit.
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(points))) as pool:
            return list(pool.map(worker, points))
    return [worker(p) for p in points]


def _entropy_point(cfg: ExperimentConfig) -> PointResult:
    return PointResult(config=cfg, records=[], entropy_rows=[entropy_row(cfg)])


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _sweep_value(cfg: ExperimentConfig, point: PointResult) -> list[str]:
    """The sweep column of one point's rows (empty without a sweep)."""
    return [_fmt(getattr_point(point.config, cfg.sweep_param))] if cfg.sweep_param else []


def write_entropy_report(cfg: ExperimentConfig, points: list[PointResult], out_dir: str | None = None) -> str:
    """Write entropy.csv alone; returns its path."""
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    sweep_col = [cfg.sweep_param] if cfg.sweep_param else []
    entropy_path = os.path.join(out, "entropy.csv")
    with open(entropy_path, "w") as fh:
        fh.write(",".join(["n", "cut", "S_nats", "S2_nats", "bond_dims"] + sweep_col) + "\n")
        for point in points:
            extra = _sweep_value(cfg, point)
            for row in point.entropy_rows:
                dims = "|".join(str(b) for b in row.bond_dims)
                fh.write(
                    ",".join(
                        [str(row.n), str(row.cut), _fmt(row.S_nats), _fmt(row.S2_nats), dims] + extra
                    )
                    + "\n"
                )
    return entropy_path


def write_reports(cfg: ExperimentConfig, points: list[PointResult], out_dir: str | None = None) -> dict:
    """Write results.csv, entropy.csv, summary.txt; returns file paths."""
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    sweep_col = [cfg.sweep_param] if cfg.sweep_param else []
    results_path = os.path.join(out, "results.csv")
    with open(results_path, "w") as fh:
        fh.write(",".join(["bound_id", "lhs", "rhs", "holds"] + sweep_col) + "\n")
        for point in points:
            extra = _sweep_value(cfg, point)
            for r in point.records:
                fh.write(
                    ",".join([r.bound_id, _fmt(r.lhs), _fmt(r.rhs), str(r.holds).lower()] + extra)
                    + "\n"
                )
    entropy_path = write_entropy_report(cfg, points, out)
    summary_path = os.path.join(out, "summary.txt")
    counts = tally(r for point in points for r in point.records)
    with open(summary_path, "w") as fh:
        for bid, (ok, total) in counts.items():
            status = "PASS" if ok == total else f"FAIL ({total - ok}/{total})"
            fh.write(f"{bid}: {status} [{total} checks]\n")
            fh.write(f"    {BOUND_REGISTRY[bid]}\n")
        overall = all(ok == total for ok, total in counts.values())
        fh.write(f"\noverall: {'PASS' if overall else 'FAIL'}\n")
    return {"results": results_path, "entropy": entropy_path, "summary": summary_path}


def getattr_point(cfg: ExperimentConfig, param: str):
    if param == "tau":
        return cfg.taus[0]
    if param == "m":
        return cfg.ms[0]
    return getattr(cfg, param)
