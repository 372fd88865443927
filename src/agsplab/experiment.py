"""Config-driven experiment pipeline.

Builds the model, runs truncation -> energy cut-off -> Chebyshev filter ->
compression, measures every registered inequality, and persists CSV/text
reports.

Sweep grid points run in one process.  Points that agree on the model
(family, n, alpha, J, A, B, cut) and on the blocks (q, l) form a group with
one `Pipeline`: H, its levels, the ground state, its Schmidt decomposition
at the block cut and the truncations.  Once per group run the checks that
read neither tau nor m (`gap≤2g`, `assumption1`, Lemma 3-4,
`lemma15.commutator`, `sr.*`, the compression and `claim7.mps` records, and
the entropy row), and the filter machinery's lhs on T's spectrum; every
point holds them by reference (records and rows are frozen).  Per point run
Theorem 5, the clamp at max(taus) and the checks that read it, and the
Chebyshev, AGSP and sequence checks.  A clamp that cuts nothing is T
(`effective.build_effective`), so it reuses T's lhs.  Entropy runs solve
one ground state per model, whatever q and l say.  Results come back in
grid order.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import agsp as agsp_mod
from . import effective as eff_mod
from . import entanglement as ent
from . import hamiltonian as ham
from . import truncation as trunc
from .config import ExperimentConfig
from .registry import BOUND_REGISTRY, BoundRecord, tally, vacuous
from .spectral import align_phase, eigendecompose, ground_state


@dataclass(frozen=True)
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
    (l, tau)) are built on first use and shared by every check of the point,
    except the Theorem-5 clamps below max(taus), which one check reads once
    (`eff_at`).
    The points of a group share a pipeline's H, its levels and ground
    state, the ground state's Schmidt decomposition at the block cut and the
    truncations, through `dataclasses.replace`, each with its own `cfg` and
    clamps; `_verify_group` makes the group's tau-free records and lhs once.
    A clamp that cuts nothing takes its spectrum and filter ranks from its
    truncation, so the points share those, and the lhs read on them, too.
    The model scalars live with their owners: g and the decay envelope on
    each truncation (`T.local_g`, `T.envelope`), the gap on `H_levels`.  No
    check reads an excited eigenvector of H, so H keeps only its levels and
    its ground vector.
    """

    cfg: ExperimentConfig
    H: ham.Hamiltonian
    H_levels: np.ndarray  # every eigenvalue of H, ascending
    gs_vector: np.ndarray
    gs_schmidt: ent.SchmidtData  # of the ground state of H across the block cut
    _truncations: dict[int, trunc.TruncatedHamiltonian] = field(default_factory=dict, repr=False)
    _effs: dict[tuple[int, float], eff_mod.EffectiveHamiltonian] = field(default_factory=dict, repr=False)

    def truncation(self, l: int) -> trunc.TruncatedHamiltonian:
        if l not in self._truncations:
            blocks = trunc.decompose_blocks(self.cfg.n, self.cfg.q, l, self.cfg.cut)
            self._truncations[l] = trunc.truncate_interactions(self.H, blocks)
        return self._truncations[l]

    def eff_at(self, tau: float, l: int | None = None) -> eff_mod.EffectiveHamiltonian:
        """The clamp of truncation l (default: the configured one) at tau.

        It is the one owner of that clamp: Theorem 5, the filter machinery and
        the AGSP sequence all read it from here.  Only Theorem 5 reads a clamp
        of the configured l below max(taus), once per grid tau (the filter
        machinery reads max(taus), and `agsp_sequence` only raises tau from
        there), so such a clamp is not kept: its spectrum is released before
        the next grid tau's is solved.  Every other clamp is kept for the
        point's lifetime.
        """
        key = (self.cfg.l if l is None else l, tau)
        if key in self._effs:
            return self._effs[key]
        eff = eff_mod.build_effective(self.truncation(key[0]), tau)
        if key[0] != self.cfg.l or tau >= max(self.cfg.taus):
            self._effs[key] = eff
        return eff

    @property
    def T(self) -> trunc.TruncatedHamiltonian:
        return self.truncation(self.cfg.l)

    @functools.cached_property
    def gs_t(self) -> np.ndarray:
        """Ground state of T, phase-aligned to the ground state of H."""
        return align_phase(self.gs_vector, self.T.spectral().columns([0])[:, 0])

    @property
    def cut(self) -> int:
        return self.T.blocks.cut


def build_pipeline(cfg: ExperimentConfig) -> Pipeline:
    H = build_model(cfg)
    H_spec = eigendecompose(ham.embed_sectors(H.lattice, H.terms))
    gs = ground_state(H_spec)  # rejects a degenerate ground state
    cut = trunc.decompose_blocks(cfg.n, cfg.q, cfg.l, cfg.cut).cut
    return Pipeline(
        cfg=cfg,
        H=H,
        H_levels=H_spec.eigenvalues,
        gs_vector=gs.state,
        gs_schmidt=ent.schmidt_decompose(gs.state, cut),
    )


class _SharedLhs(NamedTuple):
    """The filter machinery's inputs and lhs that read T alone, never tau or m (`_shared_lhs`)."""

    grids: tuple[np.ndarray, np.ndarray]  # (E', E) of `prop8.energy-dist`
    energy_dist: list[list[float]]  # its lhs on T's spectrum, per block
    windows: tuple[tuple[float, float], tuple[float, float]]  # (E, E') of `lemma14.filter`
    diagonals: list[tuple[np.ndarray, np.ndarray]]  # per block, a random diagonal O_s and its lhs on T's spectrum


def _shared_lhs(T: trunc.TruncatedHamiltonian, rng) -> _SharedLhs:
    """The `_SharedLhs` of T, drawing one uniform array per block from `rng` for the random diagonals."""
    spec = T.spectral()
    e0, width = spec.ground_energy, spec.width
    block_specs = T.block_spectra()
    lo = min(sp.eigenvalues[0] for sp in block_specs)
    hi = max(sp.eigenvalues[-1] for sp in block_specs)
    grids = (np.linspace(lo - 0.5, hi + 0.5, 5), np.linspace(e0, e0 + width, 5))
    windows = ((e0, e0 + width / 4.0), (e0 + width / 3.0, e0 + 2.0 * width / 3.0))
    diagonals = [sp.matrix_of(rng.uniform(-1.0, 1.0, size=len(sp.eigenvalues))) for sp in block_specs]
    energy_dist = eff_mod.energy_distribution_lhs(T, spec, *grids)
    filters = [(O, eff_mod.exponential_filter_lhs(T, s, O, spec, *windows)) for s, O in enumerate(diagonals)]
    return _SharedLhs(grids, energy_dist, windows, filters)


def _filter_machinery_records(pipe: Pipeline, shared: _SharedLhs) -> list[BoundRecord]:
    """`effnorm`, `prop8.*`, `prop9.diff` and `lemma14.filter` records of the point's clamp at max(taus)."""
    T = pipe.T
    tau_star = max(pipe.cfg.taus)
    eff = pipe.eff_at(tau_star)
    records = [BoundRecord("effnorm", eff.spectral().norm, eff.norm_budget(), {"tau": tau_star})]
    records.extend(eff_mod.energy_distribution_check(eff, *shared.grids, shared.energy_dist))
    e0, width = T.spectral().ground_energy, T.spectral().width
    records.extend(eff_mod.effective_difference_check(T, eff, np.linspace(e0, e0 + 0.5 * width, 5)))
    for s, tail in enumerate(eff.tail_projectors()):
        ops = [] if tail is None else [("clamp-tail", tail, None)]
        ops.append(("random-diagonal", *shared.diagonals[s]))
        for name, O, lhs_t in ops:
            for rec in eff_mod.exponential_filter_check(T, s, O, *shared.windows, eff=eff, lhs_t=lhs_t):
                records.append(replace(rec, context={**rec.context, "operator": name}))
    return records


def _chebyshev_records(ms) -> list[BoundRecord]:
    """`cheb.lemma11` records of T_m on [-1, 1] and [1, 3], per degree m in `ms` (0 read as 1).

    The growth ratios |T_m(x)| / ((2x)^m / 2) and e^{2m sqrt((x-1)/(x+1))} / (2 |T_m(x)|)
    are taken in log form from `scaled_chebyshev_T`, so no degree overflows.
    """
    records = []
    xs_in = np.linspace(-1.0, 1.0, 201)
    xs_out = np.linspace(1.0, 3.0, 101)
    for m in sorted({max(m, 1) for m in ms}):
        vals_in = np.abs(agsp_mod.chebyshev_T(m, xs_in))
        records.append(BoundRecord("cheb.lemma11", float(vals_in.max()), 1.0, {"m": m, "regime": "box"}))
        t, e = agsp_mod.scaled_chebyshev_T(m, xs_out)
        log_out = np.log(np.abs(t)) + e * np.log(2.0)
        log_upper = m * np.log(2.0 * xs_out) - np.log(2.0)
        log_lower = np.log(0.5) + 2.0 * m * np.sqrt((xs_out - 1.0) / (xs_out + 1.0))
        for regime, log_ratio in (("growth-upper", log_out - log_upper), ("growth-lower", log_lower - log_out)):
            ratio = float(np.exp(np.max(log_ratio)))
            records.append(BoundRecord("cheb.lemma11", ratio, 1.0, {"m": m, "regime": regime}))
    return records


def _agsp_records(pipe: Pipeline, sr_records: list[BoundRecord]):
    """Filter quality and the bootstrap, with the group's `sr.*` records (`sr_records`) between them."""
    records = []
    tau_star = max(pipe.cfg.taus)
    eff = pipe.eff_at(tau_star)
    for m in pipe.cfg.ms:
        filt = agsp_mod.agsp_filter(eff, m)
        epsilon = filt.excited_residual()
        records.append(BoundRecord("agsp.epsilon", epsilon, filt.cheb_bound, {"m": m, "tau": tau_star}))
    records.extend(sr_records)
    m_boot = max(pipe.cfg.ms)
    for _ in range(8):  # double m until the bootstrap precondition holds
        psi, boot_records = agsp_mod.bootstrap_state(agsp_mod.agsp_filter(eff, m_boot), pipe.gs_t)
        if psi is not None:
            break
        m_boot *= 2
    return records + boot_records, psi


def _sequence_records(pipe: Pipeline, psi_base: np.ndarray | None) -> list[BoundRecord]:
    cfg = pipe.cfg
    cut = pipe.cut
    schmidt = pipe.gs_schmidt
    base = psi_base
    if base is None or np.linalg.norm(pipe.gs_vector - align_phase(pipe.gs_vector, base)) > 0.5:
        base = ent.truncate_to_rank(schmidt, max(1, schmidt.numerical_rank() // 2))
    if np.linalg.norm(pipe.gs_vector - align_phase(pipe.gs_vector, base)) > 0.5:
        base = pipe.gs_vector  # always admissible (zero base drift)

    # A step that repeats (m, l, tau) reuses its filter.  A tau past a
    # truncation's widest block cuts nothing there, so its clamp is T.
    @functools.lru_cache(maxsize=1)
    def factory(m, l, tau):
        return agsp_mod.agsp_filter(pipe.eff_at(tau, l), m)

    steps, exhausted = ent.agsp_sequence(
        factory,
        pipe.gs_vector,
        base,
        p_max=4,
        l_start=cfg.l,
        tau_start=max(cfg.taus),
        # every l whose q bulk blocks fit around the cut (decompose_blocks' domain)
        l_max=min(cfg.n // cfg.q, 2 * cut // cfg.q, 2 * (cfg.n - cut) // cfg.q),
        tau_max=pipe.T.clamp_ceiling(),
    )
    usable = [s for s in steps if s.target_met and s.gamma <= 1.0]
    if not usable:
        return [vacuous("prop3.entropy-bound", "no usable sequence step")]
    D_phi = max(1, ent.schmidt_decompose(base, cut).numerical_rank())
    cap = min(2**cut, 2 ** (cfg.n - cut))
    bound = ent.agsp_entropy_bound(D_phi, [s.gamma for s in usable], [s.D for s in usable], schmidt_cap=cap)
    S = ent.entropy(schmidt)
    return [BoundRecord("prop3.entropy-bound", S, bound, {"steps": len(usable), "exhausted": exhausted})]


def _compression_records(pipe: Pipeline, rng) -> list[BoundRecord]:
    """Eckart-Young and `s2≤s` records of the ground state and two random states at the block cut."""
    records = []
    gs = pipe.gs_vector
    states = [("ground", pipe.gs_schmidt)]
    for idx in range(2):
        v = rng.standard_normal(gs.size)
        v /= np.linalg.norm(v)
        states.append((f"random{idx}", ent.schmidt_decompose(v, pipe.cut)))
    for name, sd in states:
        for D in (1, 2, 4):
            if D >= len(sd.coefficients):
                continue
            rec = ent.eckart_young_check(sd, ent.truncate_to_rank(sd, D))
            records.append(replace(rec, context={**rec.context, "state": name, "D": D}))
        records.append(BoundRecord("s2≤s", ent.renyi2(sd), ent.entropy(sd), {"state": name}))
    return records


def _entropy_row(cfg: ExperimentConfig, state: np.ndarray) -> EntropyRow:
    """Entropies of a normalized state at the configured cut (n//2 without one).

    That cut can differ from the block cut (at odd n), so the row decomposes
    the state itself, once per model (`_verify_group`).  `bond_dims` is the
    untruncated bond-dimension profile min(2^i, 2^(n-i)), i = 1 .. n-1: the
    bond dimensions of a lossless left-to-right SVD sweep, which depend on
    the chain alone.  S and S2 read only the coefficients, so the SVD builds
    no U or V^T: a full one, run on numpy's BLAS threads beside ARPACK's
    (scipy's), stalled and slowed the next Lanczos solve.
    """
    cut = cfg.cut if cfg.cut is not None else cfg.n // 2
    sd = ent.schmidt_decompose(state, cut, vectors=False)
    return EntropyRow(
        n=cfg.n,
        cut=cut,
        S_nats=ent.entropy(sd),
        S2_nats=ent.renyi2(sd),
        bond_dims=[min(2**i, 2 ** (cfg.n - i)) for i in range(1, cfg.n)],
    )


def entropy_row(cfg: ExperimentConfig) -> EntropyRow:
    """Half-chain (or configured-cut) entropies of the model ground state.

    The ground state comes from Lanczos on the sparse Hamiltonian, one
    parity sector at a time (`hamiltonian.sparse_sectors`, index r stored as
    r >> 1): each sector's CSR is written, solved and dropped before the
    next, so half the CSR is held, and no d^n x d^n array is built.
    """
    H = build_model(cfg)
    gs = ground_state(ham.sparse_sectors(H))
    return _entropy_row(cfg, gs.state)


def _model_key(cfg: ExperimentConfig) -> tuple:
    """The config fields `entropy_row` reads; points that agree on them share a ground state."""
    return (cfg.family, cfg.n, cfg.alpha, cfg.J, cfg.A, cfg.B, cfg.cut)


def _pipeline_key(cfg: ExperimentConfig) -> tuple:
    """The config fields `build_pipeline` and `Pipeline` read: the model and its blocks."""
    return _model_key(cfg) + (cfg.q, cfg.l)


def _model_records(pipe: Pipeline) -> list[BoundRecord]:
    """`gap≤2g`, `assumption1` and Lemma 3-4 records: they read H and the blocks, not tau or m."""
    records = [BoundRecord("gap≤2g", float(pipe.H_levels[1] - pipe.H_levels[0]), 2.0 * pipe.T.local_g)]
    pairs = ham.contiguous_pair_samples(pipe.cfg.n, max_pairs=None if pipe.cfg.n <= 8 else 60)
    records.extend(ham.verify_assumption1(pipe.H, pipe.T.envelope, pairs))
    records.extend(trunc.verify_lemma3_4(pipe.H, pipe.T, pipe.H_levels, pipe.gs_vector))
    return records


def _with_slack(records: list[BoundRecord], slack: float) -> list[BoundRecord]:
    """`records`, each judged with `slack`; a record is copied only if its own slack differs."""
    return [r if r.slack == slack else replace(r, slack=slack) for r in records]


def _verify_group(points: list[ExperimentConfig]) -> list[PointResult]:
    """`verify_point` of grid points with one `_pipeline_key`, the model built once.

    `tolerance`, `seed` and `sr_powers` are not sweepable, so the group makes the records that
    read neither tau nor m, and `_shared_lhs`, once: with its one slack and its seeded draws in
    a single point's order.  Each point holds them by reference in a single point's places.
    """
    shared = build_pipeline(points[0])
    slack, T = points[0].tolerance, shared.T
    model_records = _with_slack(_model_records(shared), slack)
    rng = np.random.default_rng(points[0].seed)
    lhs = _shared_lhs(T, rng)
    compression = _with_slack(_compression_records(shared, rng), slack)
    commutator = _with_slack(eff_mod.commutator_bound_check(T), slack)
    sr = _with_slack([r for p in points[0].sr_powers for r in agsp_mod.schmidt_rank_bound_check(T, p)], slack)
    mps_records = _with_slack(ent.mps_compression_check(shared.gs_vector, (1, 2, 4, 8, 16)), slack)
    row = _entropy_row(points[0], shared.gs_vector)
    results = []
    for cfg in points:
        # The point's own cfg and clamps; H, its levels, its ground state and the truncations are shared.
        pipe = replace(shared, cfg=cfg, _effs={})
        records = eff_mod.theorem5_check(pipe.T, cfg.taus, pipe.eff_at)
        records.extend(_filter_machinery_records(pipe, lhs))
        records.extend(commutator)
        records.extend(_chebyshev_records(cfg.ms))
        agsp_records, psi = _agsp_records(pipe, sr)
        records.extend(agsp_records)
        records.extend(_sequence_records(pipe, psi))
        records.extend(compression)
        # The group's records already carry `slack`, so `_with_slack` keeps them by reference.
        records = model_records + _with_slack(records, slack) + mps_records
        results.append(PointResult(config=cfg, records=records, entropy_rows=[row]))
    return results


def verify_point(cfg: ExperimentConfig) -> PointResult:
    """Full single-point pipeline: every registered inequality plus entropies."""
    return _verify_group([cfg])[0]


def _entropy_group(points: list[ExperimentConfig]) -> list[PointResult]:
    row = entropy_row(points[0])
    return [PointResult(config=cfg, records=[], entropy_rows=[row]) for cfg in points]


def run_points(cfg: ExperimentConfig, entropy_only: bool = False) -> list[PointResult]:
    """Every grid point, in grid order, one model build per distinct model.

    Points that agree on `_pipeline_key` (`_model_key` for entropy runs)
    form a group, and each group builds its model once.
    """
    points = cfg.grid_points()
    key, run_group = (_model_key, _entropy_group) if entropy_only else (_pipeline_key, _verify_group)
    groups: dict[tuple, list[int]] = {}
    for i, point in enumerate(points):
        groups.setdefault(key(point), []).append(i)
    results = [None] * len(points)
    for idx in groups.values():
        for i, result in zip(idx, run_group([points[i] for i in idx])):
            results[i] = result
    return results


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
