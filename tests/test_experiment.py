import copy
import gc
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace
from types import MappingProxyType

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from agsplab import hamiltonian as ham
from agsplab.cli import main
from agsplab.config import ConfigError, ExperimentConfig, parse_config
from agsplab.experiment import (
    PointResult,
    _chebyshev_records,
    build_model,
    build_pipeline,
    entropy_row,
    run_points,
    verify_point,
    write_reports,
)
from agsplab.registry import BOUND_REGISTRY, BoundRecord
from conftest import REFERENCE_CONFIG, dense_of_sectors, dense_operator, held_matrices, mp_chebyshev_growth, verify_all

# Every registered id, in the order of its first record in `verify_point`.
BOUND_IDS_IN_ORDER = [
    "gap≤2g", "assumption1", "lemma3.norm", "weyl", "lemma3.gap", "lemma4.overlap",
    "thm5.kappa", "thm5.gap", "thm5.overlap", "effnorm", "prop8.energy-dist",
    "prop8.energy-dist-eff", "prop9.diff", "lemma14.filter", "lemma15.commutator",
    "cheb.lemma11", "agsp.epsilon", "sr.lemma8", "sr.prop4", "bootstrap.mu1",
    "prop2.distance", "prop3.entropy-bound", "eckart-young", "s2≤s", "claim7.mps",
]
EXPECTED_BOUND_IDS = set(BOUND_IDS_IN_ORDER)

MINI = """
[model]
family = long_range_ising
n = 4
alpha = 3.0
J = 1.0
B = 2.0

[blocks]
q = 2
l = 1

[effective]
tau = 5.0

[agsp]
m = 4

[output]
dir = {out}

[run]
seed = 3
"""


# Keys that take exactly one integer.
SINGLE_INT_KEYS = [
    ("model", "n"), ("blocks", "q"), ("blocks", "l"), ("blocks", "cut"), ("run", "seed"),
]


@pytest.fixture()
def mini_cfg_file(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI.format(out=tmp_path / "out"))
    return str(path)


class TestConfig:
    def test_parse_minimal(self, mini_cfg_file):
        cfg = parse_config(mini_cfg_file)
        assert cfg.n == 4 and cfg.q == 2 and cfg.l == 1
        assert cfg.taus == [5.0] and cfg.ms == [4]
        assert cfg.seed == 3

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nn = 4\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(str(path))

    def test_unknown_section_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nn = 4\n\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(str(path))

    def test_sweep_validation(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("[sweep]\nparam = banana\nvalues = 1,2\n")
        with pytest.raises(ConfigError):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[model]\nn = 4\nthis line has no equals sign\n")
        with pytest.raises(ConfigError, match=r"line  3"):
            parse_config(str(path))

    def test_malformed_number(self, tmp_path):
        path = tmp_path / "nan.cfg"
        path.write_text("[model]\nalpha = banana\n")
        with pytest.raises(ConfigError, match="banana"):
            parse_config(str(path))

    @pytest.mark.parametrize("value", ["banana", "inf", "nan", "-inf"])
    @pytest.mark.parametrize(
        "section,key,text",
        [
            ("model", "alpha", "alpha = {}"),
            ("model", "J", "J = {}"),
            ("model", "B", "B = {}"),
            ("model", "A", "A = {}"),
            ("effective", "tau", "tau = 2.0 {}"),
            ("sweep", "values", "param = alpha\nvalues = 3.0 {}"),
        ],
    )
    def test_bad_number_names_key_and_value(self, tmp_path, section, key, text, value):
        path = tmp_path / "num.cfg"
        path.write_text(f"[{section}]\n{text.format(value)}\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: expected .*numbers, got .*{value}"):
            parse_config(str(path))

    @pytest.mark.parametrize("value", ["8 10", "", "2.5", "inf", "nan"])
    @pytest.mark.parametrize("section,key", SINGLE_INT_KEYS)
    def test_single_integer_key_rejects(self, tmp_path, section, key, value):
        path = tmp_path / "int.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match="integer"):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "section,key,value", [("run", "seed", "-1"), ("agsp", "m", "4 -1"), ("agsp", "powers", "-1")]
    )
    def test_negative_count_names_key(self, tmp_path, section, key, value):
        path = tmp_path / "neg.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be >= 0"):
            parse_config(str(path))

    def test_grid_points(self):
        cfg = ExperimentConfig(n=4, sweep_param="n", sweep_values=[4, 6])
        pts = cfg.grid_points()
        assert [p.n for p in pts] == [4, 6]
        assert cfg.with_param("tau", 3.0).taus == [3.0]

    def test_with_param_refuses_to_cut_an_integer(self):
        cfg = ExperimentConfig(n=4)
        assert cfg.with_param("m", 8.0).ms == [8]
        with pytest.raises(ConfigError, match="m must be an integer"):
            cfg.with_param("m", 2.5)


class TestBoundRecord:
    def test_holds_definition(self):
        assert BoundRecord("weyl", 1.0, 1.0).holds
        assert BoundRecord("weyl", 1.0 + 5e-10, 1.0).holds
        assert not BoundRecord("weyl", 1.0 + 2e-9, 1.0).holds

    def test_non_finite_never_holds(self):
        assert not BoundRecord("weyl", float("nan"), 1.0).holds
        assert not BoundRecord("weyl", 0.0, float("inf")).holds
        assert not BoundRecord("weyl", float("-inf"), 1.0).holds

    @pytest.mark.parametrize(
        "lhs, rhs",
        [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (math.inf, math.inf)],
    )
    def test_non_finite_inputs_never_hold(self, lhs, rhs):
        assert not BoundRecord("lemma14.filter", lhs, rhs).holds

    def test_finite_within_slack_holds(self):
        assert BoundRecord("lemma14.filter", 1.0 + 5e-10, 1.0).holds
        assert not BoundRecord("lemma14.filter", 1.0 + 2e-9, 1.0).holds

    def test_unregistered_id_rejected(self):
        with pytest.raises(KeyError):
            BoundRecord("not-a-bound", 0.0, 1.0)

    def test_context_is_read_only(self):
        rec = BoundRecord("weyl", 1.0, 2.0, {"s": 1, "E": 0.5})
        writes = [
            lambda c: c.__setitem__("s", 2),
            lambda c: c.__delitem__("s"),
            lambda c: c.update(s=2),
            lambda c: c.setdefault("tau", 1.0),
            lambda c: c.pop("s"),
            lambda c: c.popitem(),
            lambda c: c.clear(),
            lambda c: c.__ior__({"s": 2}),
        ]
        for write in writes:
            with pytest.raises(TypeError, match="read-only"):
                write(rec.context)
        assert rec.context == {"s": 1, "E": 0.5}
        # A new record is built from a copy: the caller's dict stays writable and unshared.
        given = {"s": 1}
        rec = BoundRecord("weyl", 1.0, 2.0, given)
        given["s"] = 2
        assert rec.context == {"s": 1}

    def test_context_serialises_as_a_dict(self):
        ctx = {"variant": "filter", "s": 1, "E": 0.25, "X": (1, 2), "nan": math.nan}
        rec = BoundRecord("lemma14.filter", 0.5, 1.0, ctx)
        assert json.dumps(rec.context, sort_keys=True, default=repr) == json.dumps(ctx, sort_keys=True, default=repr)
        assert repr(rec.context) == repr(ctx) and str(rec) == str(BoundRecord("lemma14.filter", 0.5, 1.0, dict(ctx)))

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))], ids=["deepcopy", "pickle"])
    def test_context_copies_and_pickles(self, clone):
        rec = BoundRecord("assumption1", 0.5, 1.0, {"r": 1, "X": (1,), "Y": (3, 4)})
        twin = clone(rec)
        assert twin == rec and twin.context is not rec.context
        with pytest.raises(TypeError, match="read-only"):
            twin.context["r"] = 2

    def test_registry_covers_exactly_expected_ids(self):
        assert set(BOUND_REGISTRY) == EXPECTED_BOUND_IDS
        # each id maps to exactly one statement
        assert all(isinstance(v, str) and v for v in BOUND_REGISTRY.values())


@pytest.fixture(scope="module")
def mini_result():
    cfg = ExperimentConfig(n=4, alpha=3.0, J=1.0, B=2.0, q=2, l=1, taus=[5.0], ms=[4], seed=3)
    return verify_point(cfg)


def record_keys(point: PointResult) -> list[tuple]:
    """Everything a record reports, with lhs and rhs to the last bit."""
    return [(r.bound_id, repr(r.lhs), repr(r.rhs), r.context, r.holds) for r in point.records]


class TestVerifyPoint:
    def test_all_bounds_pass(self, mini_result):
        bad = [r for r in mini_result.records if not r.holds]
        assert bad == []

    def test_tolerance_is_every_slack(self, mini_result):
        tight = verify_point(replace(mini_result.config, tolerance=1e-6))
        assert [r.slack for r in tight.records] == [1e-6] * len(mini_result.records)
        assert [(r.bound_id, r.lhs, r.rhs) for r in tight.records] == [
            (r.bound_id, r.lhs, r.rhs) for r in mini_result.records
        ]

    def test_every_registered_id_emitted(self, mini_result):
        emitted = {r.bound_id for r in mini_result.records}
        assert emitted == EXPECTED_BOUND_IDS

    def test_bound_ids_in_pipeline_order(self, mini_result):
        # each check returns its own records; verify_point keeps them in its call order
        assert list(dict.fromkeys(r.bound_id for r in mini_result.records)) == BOUND_IDS_IN_ORDER

    def test_entropy_row(self, mini_result):
        [row] = mini_result.entropy_rows
        assert row.n == 4 and row.cut == 2
        assert 0.0 <= row.S2_nats <= row.S_nats + 1e-12
        # verify_point reuses the pipeline's dense ground state; entropy_row
        # solves the sparse Hamiltonian on its own.
        alone = entropy_row(mini_result.config)
        assert alone.S_nats == pytest.approx(row.S_nats, abs=1e-12)
        assert alone.S2_nats == pytest.approx(row.S2_nats, abs=1e-12)
        assert alone.bond_dims == row.bond_dims

    def test_norm_cap_breach_is_a_failing_record(self, mini_result, monkeypatch):
        from agsplab import effective

        monkeypatch.setattr(effective.EffectiveHamiltonian, "norm_budget", lambda self: 0.5)
        result = verify_point(mini_result.config)
        [rec] = [r for r in result.records if r.bound_id == "effnorm"]
        assert rec.rhs == 0.5 and rec.lhs > 0.5 and not rec.holds

    def test_alpha_at_pole_surfaces_requirement(self):
        cfg = ExperimentConfig(n=4, alpha=2.0)
        with pytest.raises(ValueError, match="alpha > 2"):
            verify_point(cfg)


class TestChebyshevRecords:
    @pytest.mark.parametrize("m", [512, 1024, 4096])
    def test_high_degree_growth_matches_mpmath(self, m):
        # The raw recurrence and (2x)^m overflow here: NaN records before the log form.
        records = {r.context["regime"]: r for r in _chebyshev_records([m])}
        upper, lower = mp_chebyshev_growth(m, np.linspace(1.0, 3.0, 101))
        for regime, exact in (("growth-upper", upper), ("growth-lower", lower)):
            assert abs(records[regime].lhs - float(exact)) <= m * 1e-15 * float(exact), regime
        assert records["box"].lhs == pytest.approx(1.0, abs=1e-9)
        assert all(r.holds for r in records.values())

    def test_high_degree_point_passes(self):
        result = verify_point(ExperimentConfig(n=6, q=2, l=1, taus=[4.0], ms=[4, 1024]))
        cheb = [r for r in result.records if r.bound_id == "cheb.lemma11"]
        assert len(cheb) == 6 and all(math.isfinite(r.lhs) for r in cheb)
        assert [r for r in result.records if not r.holds] == []


class TestSharedBuilds:
    @pytest.fixture()
    def builds(self, monkeypatch):
        """Block lengths/cuts of every truncation and (l, tau) of every clamp built."""
        from agsplab import effective, truncation

        seen = {"truncations": [], "clamps": []}
        truncate, build = truncation.truncate_interactions, effective.build_effective

        def counted_truncate(H, blocks):
            seen["truncations"].append((blocks.l, blocks.cut))
            return truncate(H, blocks)

        def counted_build(T, tau):
            seen["clamps"].append((T.blocks.l, tau))
            return build(T, tau)

        monkeypatch.setattr(truncation, "truncate_interactions", counted_truncate)
        monkeypatch.setattr(effective, "build_effective", counted_build)
        return seen

    def test_each_truncation_and_clamp_built_once(self, small_pipeline, builds):
        verify_point(small_pipeline.cfg)
        ls = [l for l, _ in builds["truncations"]]
        assert 2 in ls and sorted(ls) == sorted(set(ls)), ls
        assert (2, 5.0) in builds["clamps"]
        assert len(builds["clamps"]) == len(set(builds["clamps"])), builds["clamps"]

    def test_sequence_truncations_honour_cut(self, builds):
        cfg = ExperimentConfig(n=8, alpha=3.0, J=1.0, B=2.0, q=2, l=2, cut=3, taus=[5.0], ms=[4], seed=3)
        verify_point(cfg)
        assert builds["truncations"] and {cut for _, cut in builds["truncations"]} == {3}


class TestSolveCounts:
    """Each expensive solve of a reference-shaped point runs once."""

    CFG = ExperimentConfig(n=6, alpha=3.0, J=1.0, B=2.0, q=2, l=2, taus=[6.0], ms=[4, 8], seed=7)

    def test_one_schmidt_svd_per_filter_and_one_clamp_solve(self, monkeypatch):
        from agsplab import agsp, effective, spectral

        tau_star = max(self.CFG.taus)
        h_eff = dense_operator(build_pipeline(self.CFG).eff_at(tau_star))
        filters, ranks, solves = [], {}, []
        build, rank = agsp.agsp_filter, agsp.operator_schmidt_rank

        def counted_build(eff, m):
            filt = build(eff, m)
            filters.append((filt, (m, eff.base.blocks.l, eff.tau)))
            return filt

        def counted_rank(O, *args, **kwargs):
            for filt, key in filters:
                if O is vars(filt).get("blocks"):
                    ranks[key] = ranks.get(key, 0) + 1
            return rank(O, *args, **kwargs)

        def counted_solver(solve):
            def wrapped(M, *args, **kwargs):
                M = M if isinstance(M, np.ndarray) else list(M)
                dense = M if isinstance(M, np.ndarray) else dense_of_sectors(M)
                if dense.shape == h_eff.shape and np.array_equal(dense, h_eff):
                    solves.append(solve.__name__)
                return solve(M, *args, **kwargs)

            return wrapped

        monkeypatch.setattr(agsp, "agsp_filter", counted_build)
        monkeypatch.setattr(agsp, "operator_schmidt_rank", counted_rank)
        # Counted at the functions that own the solve: a parity-split matrix
        # reaches LAPACK only as its two sectors.
        wrapped = counted_solver(spectral.eigendecompose)
        for module in (spectral, effective):
            monkeypatch.setattr(module, "eigendecompose", wrapped)
        verify_point(self.CFG)
        assert (4, self.CFG.l, tau_star) in ranks and (8, self.CFG.l, tau_star) in ranks
        assert set(ranks.values()) == {1}, ranks
        assert len(solves) == 1, solves

    def test_one_solve_per_theorem5_clamp_that_cuts(self, monkeypatch):
        from agsplab import effective

        # The theorem-5 grid of CI's ising8-taus config: taus 8.25 and up cut nothing.
        cfg = ExperimentConfig(n=8, alpha=3.0, J=1.0, B=2.0, taus=[2.0, 3.25, 4.5, 5.75, 7.0, 8.25, 9.5, 10.75, 12.0])
        built, solved = [], []
        build, decompose = effective.build_effective, effective.eigendecompose

        def collected_build(T, tau):
            built.append(build(T, tau))
            return built[-1]

        def counted_decompose(M):
            M = list(M)
            solved.append(dense_of_sectors(M))
            return decompose(M)

        monkeypatch.setattr(effective, "build_effective", collected_build)
        # effective's eigendecompose solves the clamps alone (`EffectiveHamiltonian.spectral`)
        monkeypatch.setattr(effective, "eigendecompose", counted_decompose)
        verify_point(cfg)
        assert [eff.tau for eff in built if eff.cuts_nothing()] == [8.25, 9.5, 10.75, 12.0]
        assert all(eff.spectral() is eff.base.spectral() for eff in built if eff.cuts_nothing())
        cutting = [dense_operator(eff) for eff in built if not eff.cuts_nothing()]
        assert len(solved) == len(cutting) == 5
        assert all(np.array_equal(M, H_eff) for M, H_eff in zip(solved, cutting))

    def test_theorem5_clamps_below_max_tau_are_released(self, monkeypatch):
        from agsplab import effective, experiment

        taus = [2.0, 3.25, 4.5, 5.75, 7.0, 8.25, 9.5, 10.75, 12.0]
        cfg = ExperimentConfig(n=8, alpha=3.0, J=1.0, B=2.0, taus=taus)
        clamps, alive = [], []
        build, machinery = effective.build_effective, experiment._filter_machinery_records

        def weakly_collected_build(T, tau):
            eff = build(T, tau)
            clamps.append(((T.blocks.l, tau), weakref.ref(eff)))
            return eff

        def noting_machinery(pipe, shared):
            gc.collect()
            alive.extend(key for key, ref in clamps if ref() is not None)
            return machinery(pipe, shared)

        monkeypatch.setattr(effective, "build_effective", weakly_collected_build)
        monkeypatch.setattr(experiment, "_filter_machinery_records", noting_machinery)
        verify_point(cfg)
        # Theorem 5 built every grid clamp; once it has returned, only the max(taus) one lives on.
        assert [key for key, _ in clamps][: len(taus)] == [(cfg.l, tau) for tau in taus]
        assert alive == [(cfg.l, 12.0)]


    def test_no_full_eigenvector_matrix(self, monkeypatch):
        from agsplab import effective, experiment, spectral, truncation

        cfg = ExperimentConfig(n=8, alpha=3.0, J=1.0, B=2.0, q=2, l=2, taus=[4.0, 6.0], ms=[4, 8], seed=7)
        dim = 2**cfg.n
        spectra, read = [], []
        decompose = spectral.eigendecompose

        def collected(M):
            spectra.append(decompose(M))
            return spectra[-1]

        for module in (spectral, effective, truncation, experiment):
            monkeypatch.setattr(module, "eigendecompose", collected)
        columns = getattr(spectral.SpectralData, "columns", None)

        def counted_columns(self, positions):
            read.append(len(positions))
            return columns(self, positions)

        monkeypatch.setattr(spectral.SpectralData, "columns", counted_columns, raising=False)
        verify_point(cfg)
        # H, T and the clamps at both taus are solved at d^n; none holds a d^n x d^n block.
        assert sum(len(sp.eigenvalues) == dim for sp in spectra) >= 4
        assert all(m.shape != (dim, dim) for sp in spectra for m in held_matrices(sp))
        assert read and max(read) < dim

    def test_held_sectors_are_not_split_again(self, monkeypatch):
        # The corners of a sector's unitary, the filter products, the clamping-error
        # images and the kappa images are each read as the one block they are: none
        # reaches `parity_sectors`.  The reads left are ||O_s|| of the dense block
        # operators in `exponential_filter_check`.
        import inspect

        from agsplab import effective, experiment, spectral

        cfg = replace(REFERENCE_CONFIG, n=8)
        pipe = build_pipeline(cfg)
        T = pipe.T  # built, with its block spectra, before the spy
        callers, split = [], spectral.parity_sectors

        def spied(matrix):
            callers.append({frame.function for frame in inspect.stack(context=0)})
            return split(matrix)

        monkeypatch.setattr(spectral, "parity_sectors", spied)
        shared = experiment._shared_lhs(T, np.random.default_rng(cfg.seed))
        experiment._filter_machinery_records(pipe, shared)
        effective.theorem5_check(T, cfg.taus, pipe.eff_at)
        readers = {"unitary_block_norms", "exponential_filter_lhs", "effective_difference_check", "theorem5_check"}
        assert [names & readers for names in callers if names & readers] == []
        assert callers and all("exponential_filter_check" in names for names in callers)

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(n=8, alpha=3.0, J=1.0, B=2.0, q=2, l=2, taus=[4.0, 6.0], ms=[4, 8], seed=7),
            ExperimentConfig(family="long_range_fermion", n=6, alpha=3.0, A=1.0, B=0.5, taus=[2.0], ms=[4, 8], seed=7),
        ],
        ids=["ising-n8", "fermion-n6"],
    )
    def test_no_full_operator_leaves_the_builders(self, monkeypatch, cfg):
        # Every function and method of the four modules that build operators is
        # wrapped; what it hands to another module (arrays, inside tuples, lists
        # and yielded items) must hold no d^n x d^n array.  One piece may be that
        # large: the bond of a truncation whose two blocks are the chain (q = 2
        # with empty edges, the AGSP sequence's l = n/2 step at fermion n=6).
        # It is a term of T, not an operator summed from T's pieces.
        import functools
        import inspect

        from agsplab import agsp, effective, hamiltonian, truncation

        dim, leaks, bonds = 2**cfg.n, [], []
        package = [m for name, m in sys.modules.items() if name.startswith("agsplab.")]

        def check(name, value):
            if isinstance(value, np.ndarray) and value.shape == (dim, dim):
                leaks.append((name, value))
            elif isinstance(value, (tuple, list)):
                for item in value:
                    check(name, item)

        def checked_items(name, items):
            for item in items:
                check(name, item)
                yield item

        def spied(module, name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if isinstance(out, truncation.TruncatedHamiltonian):
                    bonds.extend(out.bonds)
                if sys._getframe(1).f_globals.get("__name__") == module.__name__:
                    return out  # a call inside the module: nothing leaves it
                if inspect.isgenerator(out):
                    return checked_items(name, out)
                check(name, out)
                return out

            return wrapper

        for module in (hamiltonian, truncation, effective, agsp):
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = spied(module, name, obj)
                    for target in package:
                        if vars(target).get(name) is obj:
                            monkeypatch.setattr(target, name, wrapped)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("__"):
                            continue
                        if inspect.isfunction(member):
                            monkeypatch.setattr(obj, attr, spied(module, f"{name}.{attr}", member))
                        elif isinstance(member, property):
                            monkeypatch.setattr(obj, attr, property(spied(module, f"{name}.{attr}", member.fget)))
                        elif isinstance(member, functools.cached_property):
                            cached = functools.cached_property(spied(module, f"{name}.{attr}", member.func))
                            cached.__set_name__(obj, attr)
                            monkeypatch.setattr(obj, attr, cached)
        verify_point(cfg)
        assert all(any(array is bond for bond in bonds) for _, array in leaks), [name for name, _ in leaks]
        assert bool(leaks) == (cfg.family == "long_range_fermion")

    def test_pipeline_holds_no_eigenvector_matrix_of_H(self):
        from agsplab.spectral import SpectralData

        dim = 2**self.CFG.n
        pipe = build_pipeline(self.CFG)
        # The truncations and clamps (private fields) own the spectra of H_t and H_eff.
        fields = [value for name, value in vars(pipe).items() if not name.startswith("_")]
        assert not any(isinstance(value, SpectralData) for value in fields)
        assert all(m.shape != (dim, dim) for m in held_matrices(fields))
        assert pipe.H_levels.shape == (dim,) and np.all(np.diff(pipe.H_levels) >= 0)
        assert pipe.gs_vector.shape == (dim,)

    def test_schmidt_rank_bounds_build_no_full_matrix(self, monkeypatch):
        from agsplab import agsp, hamiltonian, truncation

        T = build_pipeline(self.CFG).T
        sizes = []
        embed = hamiltonian.embed_sectors

        def counted_embed(lattice, pieces):
            sizes.append(lattice.n)
            return embed(lattice, pieces)

        def refused(*args, **kwargs):
            raise AssertionError("d^n x d^n matrix requested")

        monkeypatch.setattr(hamiltonian, "embed_sectors", counted_embed)
        monkeypatch.setattr(truncation, "embed_sectors", refused)
        monkeypatch.setattr(np.linalg, "matrix_power", refused)
        for m in (0, 1, 2, 3):
            agsp.schmidt_rank_bound_check(T, m)
        assert sizes and max(sizes) < self.CFG.n


class TestReports:
    def _point(self, tmp_path, records):
        cfg = ExperimentConfig(n=4, output_dir=str(tmp_path / "o"))
        return cfg, [PointResult(config=cfg, records=records, entropy_rows=[entropy_row(cfg)])]

    def test_corrupted_bound_flagged_exactly(self, tmp_path):
        records = [
            BoundRecord("weyl", 0.0, 1.0),
            BoundRecord("lemma3.norm", 2.0, 1.0),  # deliberately violated
            BoundRecord("s2≤s", 0.5, 0.7),
        ]
        cfg, points = self._point(tmp_path, records)
        paths = write_reports(cfg, points)
        summary = open(paths["summary"]).read()
        assert "lemma3.norm: FAIL (1/1)" in summary
        assert "weyl: PASS" in summary
        assert "overall: FAIL" in summary
        results = open(paths["results"]).read().splitlines()
        flagged = [ln for ln in results if ln.endswith("false")]
        assert len(flagged) == 1 and flagged[0].startswith("lemma3.norm")

    def test_csv_schema_and_float_format(self, tmp_path):
        records = [BoundRecord("weyl", 1.0 / 3.0, 2.0 / 3.0)]
        cfg, points = self._point(tmp_path, records)
        paths = write_reports(cfg, points)
        lines = open(paths["results"]).read().splitlines()
        assert lines[0] == "bound_id,lhs,rhs,holds"
        bid, lhs, rhs, holds = lines[1].split(",")
        assert float(lhs) == 1.0 / 3.0  # 17 significant digits round-trip
        assert holds == "true"
        header = open(paths["entropy"]).read().splitlines()[0]
        assert header == "n,cut,S_nats,S2_nats,bond_dims"


class TestSweepAndDeterminism:
    def test_sweep_rows(self, tmp_path):
        cfg = ExperimentConfig(
            n=6, sweep_param="n", sweep_values=[6, 8, 10, 12], output_dir=str(tmp_path / "s")
        )
        points = run_points(cfg, entropy_only=True)
        paths = write_reports(cfg, points)
        lines = open(paths["entropy"]).read().splitlines()
        assert lines[0].endswith(",n")
        assert len(lines) == 5  # header + one row per grid point
        assert [ln.split(",")[0] for ln in lines[1:]] == ["6", "8", "10", "12"]

    def test_theorem5_grid_matches_single_tau_runs(self):
        # every grid tau reads its clamp from the point's pipeline (`Pipeline.eff_at`)
        cfg = ExperimentConfig(n=6, alpha=3.0, J=1.0, B=2.0, q=2, l=1, taus=[2.0, 4.0, 6.0], ms=[4], seed=7)

        def thm5(point):
            return {
                (r.bound_id, r.context["tau"]): (r.lhs, r.rhs)
                for r in point.records
                if r.bound_id.startswith("thm5.") and "tau" in r.context
            }

        grid = thm5(verify_point(cfg))
        single = {}
        for tau in cfg.taus:
            single.update(thm5(verify_point(replace(cfg, taus=[tau]))))
        assert {tau for _, tau in grid} == set(cfg.taus)
        assert grid.keys() == single.keys()
        for key, (lhs, rhs) in grid.items():
            assert lhs == pytest.approx(single[key][0], abs=1e-12, rel=0), key
            assert rhs == pytest.approx(single[key][1], abs=1e-12, rel=0), key

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig(n=4, q=2, l=1, taus=[5.0], ms=[4], seed=11)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        pa = write_reports(cfg, [verify_point(cfg)], out_dir=out_a)
        pb = write_reports(cfg, [verify_point(cfg)], out_dir=out_b)
        for key in ("results", "entropy", "summary"):
            assert open(pa[key], "rb").read() == open(pb[key], "rb").read()


class TestSweepSharing:
    """Grid points of one model share its pipeline and model-level records, and nothing else."""

    CFG = ExperimentConfig(n=6, alpha=3.0, J=1.0, B=2.0, q=2, l=2, taus=[6.0], ms=[4], seed=7)

    @pytest.mark.parametrize(
        "param,values", [("tau", [2.0, 4.0, 6.0]), ("m", [4, 8, 16]), ("l", [1, 2, 3])], ids=["tau", "m", "l"]
    )
    def test_points_match_standalone_runs(self, param, values):
        cfg = replace(self.CFG, sweep_param=param, sweep_values=values)
        points = run_points(cfg)
        assert [p.config for p in points] == cfg.grid_points()
        for point in points:
            assert record_keys(point) == record_keys(verify_point(point.config))

    @pytest.mark.parametrize("param,values", [("tau", [2.0, 4.0, 6.0]), ("m", [4, 8, 16])], ids=["tau", "m"])
    def test_shared_lhs_never_cross_spectra(self, monkeypatch, param, values):
        from agsplab import effective

        def hex_records(point):
            return [(r.bound_id, *(float(x).hex() for x in (r.lhs, r.rhs, r.slack)), dict(r.context)) for r in point.records]

        cfg = replace(self.CFG, sweep_param=param, sweep_values=values)
        standalone = [hex_records(verify_point(point)) for point in cfg.grid_points()]
        built, build = [], effective.build_effective

        def collected_build(T, tau):
            built.append(build(T, tau))
            return built[-1]

        monkeypatch.setattr(effective, "build_effective", collected_build)
        points = run_points(cfg)
        # Every clamp of the configured l cuts something: each has a spectrum of its own, never T's.
        main = [eff for eff in built if eff.base.blocks.l == cfg.l]
        assert len(main) >= len(points) and not any(eff.cuts_nothing() for eff in main)
        assert [hex_records(p) for p in points] == standalone

    def test_tau_free_checks_run_once_per_group(self, monkeypatch):
        from agsplab import agsp, effective

        cfg = ExperimentConfig(
            family="long_range_fermion", n=6, alpha=3.0, A=1.0, B=0.5, q=2, l=2, taus=[2.0], ms=[4, 8, 16],
            seed=7, sweep_param="tau", sweep_values=[2.0, 4.0, 6.0],
        )
        standalone = [record_keys(verify_point(point)) for point in cfg.grid_points()]
        calls = {"commutator": 0, "corners": 0, "powers": []}
        commutator, rank_check, corners = (
            effective.commutator_bound_check, agsp.schmidt_rank_bound_check, effective._corner_norms
        )

        def counted_commutator(T):
            calls["commutator"] += 1
            return commutator(T)

        def counted_rank_check(T, m):
            calls["powers"].append(m)
            return rank_check(T, m)

        def counted_corners(*args):
            calls["corners"] += 1
            return corners(*args)

        monkeypatch.setattr(effective, "commutator_bound_check", counted_commutator)
        monkeypatch.setattr(agsp, "schmidt_rank_bound_check", counted_rank_check)
        monkeypatch.setattr(effective, "_corner_norms", counted_corners)
        points = run_points(cfg)
        # Every clamp of the three points cuts nothing, so none reads a spectrum of its own.
        blocks = len(build_pipeline(cfg).T.block_spectra())
        assert calls == {"commutator": 1, "corners": blocks, "powers": cfg.sr_powers}
        assert [record_keys(p) for p in points] == standalone
        for bid in ("lemma15.commutator", "sr.prop4", "eckart-young"):
            firsts = [next(r for r in p.records if r.bound_id == bid) for p in points]
            assert all(r is firsts[0] for r in firsts), bid

    def test_returned_record_contexts_are_not_written(self, monkeypatch):
        from agsplab import effective, entanglement

        def read_only(check):
            def wrapped(*args, **kwargs):
                out = check(*args, **kwargs)
                records = [out] if isinstance(out, BoundRecord) else out
                frozen = [replace(r, context=MappingProxyType(r.context)) for r in records]
                return frozen[0] if isinstance(out, BoundRecord) else frozen

            return wrapped

        # The checks whose records the experiment labels with the operator, state and D.
        expected = record_keys(verify_point(self.CFG))
        monkeypatch.setattr(effective, "exponential_filter_check", read_only(effective.exponential_filter_check))
        monkeypatch.setattr(entanglement, "eckart_young_check", read_only(entanglement.eckart_young_check))
        assert record_keys(verify_point(self.CFG)) == expected

    def test_points_share_frozen_model_records(self):
        points = run_points(replace(self.CFG, sweep_param="tau", sweep_values=[2.0, 4.0, 6.0]))
        model = [r for r in points[0].records if r.bound_id == "assumption1"]
        for point in points[1:]:
            shared = [r for r in point.records if r.bound_id == "assumption1"]
            assert len(shared) == len(model) and all(a is b for a, b in zip(shared, model))
        with pytest.raises(FrozenInstanceError):
            model[0].lhs = -1.0
        with pytest.raises(FrozenInstanceError):
            model[0].slack = 1.0

    def test_repeated_model_keeps_grid_order(self):
        points = run_points(replace(self.CFG, sweep_param="n", sweep_values=[5, 6, 5]))
        assert [p.config.n for p in points] == [5, 6, 5]
        assert record_keys(points[0]) == record_keys(points[2])
        assert record_keys(points[0]) != record_keys(points[1])

    @pytest.mark.parametrize(
        "param,values,builds",
        [("tau", [3.0, 4.0, 5.0], 1), ("alpha", [2.5, 3.0, 3.5], 3)],
        ids=["tau", "alpha"],
    )
    def test_model_work_once_per_model(self, monkeypatch, param, values, builds):
        from agsplab import experiment, hamiltonian

        calls = {"assumption1": 0, "H": 0}
        verify, decompose = hamiltonian.verify_assumption1, experiment.eigendecompose

        def counted_verify(*args):
            calls["assumption1"] += 1
            return verify(*args)

        def counted_decompose(M):
            calls["H"] += 1
            return decompose(M)

        monkeypatch.setattr(hamiltonian, "verify_assumption1", counted_verify)
        # experiment's own eigendecompose solves H alone (build_pipeline)
        monkeypatch.setattr(experiment, "eigendecompose", counted_decompose)
        cfg = ExperimentConfig(n=4, q=2, l=1, taus=[5.0], ms=[4], seed=3, sweep_param=param, sweep_values=values)
        points = run_points(cfg)
        assert calls == {"assumption1": builds, "H": builds}
        assert [p.config for p in points] == cfg.grid_points()

    def test_ground_state_schmidt_once_per_model(self, monkeypatch):
        from agsplab import entanglement

        calls = [0]
        decompose = entanglement.schmidt_decompose

        def counted(*args, **kwargs):
            calls[0] += 1
            return decompose(*args, **kwargs)

        monkeypatch.setattr(entanglement, "schmidt_decompose", counted)
        cfg = replace(self.CFG, sweep_param="tau", sweep_values=[2.0, 4.0, 6.0])
        standalone = [verify_point(point) for point in cfg.grid_points()]
        standalone_calls, calls[0] = calls[0], 0
        points = run_points(cfg)
        # The ground state's decompositions are made once, not once per point: at the block
        # cut, at each of the n-1 = 5 bonds of `claim7.mps` and at the entropy row's cut.  So
        # are the compression records': the two seeded random states at the block cut, and
        # the 3 x 3 Eckart-Young checks of those and the ground state at D = 1, 2, 4.
        assert calls[0] == standalone_calls - 2 * (1 + 5 + 1 + 2 + 9)
        assert [record_keys(p) for p in points] == [record_keys(p) for p in standalone]
        assert [p.entropy_rows for p in points] == [p.entropy_rows for p in standalone]

    def test_clamps_that_cut_nothing_share_one_spectrum(self, monkeypatch):
        from agsplab import agsp, effective

        cfg = ExperimentConfig(
            family="long_range_fermion", n=6, alpha=3.0, A=1.0, B=0.5, q=2, l=2, taus=[2.0], ms=[4, 8, 16],
            seed=7, sweep_param="tau", sweep_values=[2.0, 4.0, 6.0],
        )
        standalone = [verify_point(point) for point in cfg.grid_points()]
        built, solved, ranked = [], [], []
        build, decompose, rank = effective.build_effective, effective.eigendecompose, agsp.operator_schmidt_rank

        def collected_build(T, tau):
            built.append(build(T, tau))
            return built[-1]

        def counted_decompose(M):
            M = list(M)
            solved.append(dense_of_sectors(M))
            return decompose(M)

        def counted_rank(O, cut):
            ranked.append(dense_of_sectors(O))
            return rank(O, cut)

        monkeypatch.setattr(effective, "build_effective", collected_build)
        # effective's eigendecompose solves the clamps alone (`EffectiveHamiltonian.spectral`)
        monkeypatch.setattr(effective, "eigendecompose", counted_decompose)
        monkeypatch.setattr(agsp, "operator_schmidt_rank", counted_rank)
        points = run_points(cfg)
        assert [record_keys(p) for p in points] == [record_keys(p) for p in standalone]

        def pairwise_distinct(mats):
            return not any(a.shape == b.shape and np.array_equal(a, b) for i, a in enumerate(mats) for b in mats[:i])

        # Every main clamp (tau 2, 4, 6 at l=2) and the sequence's l=3 clamps at
        # tau 4 and 4.24 cut nothing: each takes its truncation's spectrum.  The
        # l=3, tau=3 clamp cuts, and is the one clamp solved.
        uncut = [eff for eff in built if eff.cuts_nothing()]
        assert uncut and all(eff.spectral() is eff.base.spectral() for eff in uncut)
        cutting = build_pipeline(cfg.grid_points()[0]).eff_at(3.0, 3)
        assert not cutting.cuts_nothing()
        assert len(solved) == 1 and np.array_equal(solved[0], dense_operator(cutting))
        # One rank per (operator, m): the shared l=2 clamp at m = 4, 16, 32, the
        # shared l=3 one and the cutting one at m = 16.
        assert len(ranked) == 5 and pairwise_distinct(ranked)

    @pytest.mark.parametrize("param", ["l", "q"])
    def test_entropy_sweep_of_blocks_solves_once(self, monkeypatch, param):
        from agsplab import experiment

        calls = []

        def counted(cfg):
            calls.append(cfg)
            return entropy_row(cfg)

        monkeypatch.setattr(experiment, "entropy_row", counted)
        values = [1, 2, 3] if param == "l" else [2, 4, 6]
        cfg = ExperimentConfig(n=6, l=1, sweep_param=param, sweep_values=values)
        points = run_points(cfg, entropy_only=True)
        assert len(calls) == 1
        assert [getattr(p.config, param) for p in points] == values
        assert [p.entropy_rows for p in points] == [points[0].entropy_rows] * 3


class TestCli:
    def test_run_minimal_exit_zero(self, mini_cfg_file, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "run", mini_cfg_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        out_dir = str(tmp_path / "out")
        for name in ("results.csv", "summary.txt", "entropy.csv"):
            assert os.path.exists(os.path.join(out_dir, name))

    def test_alpha_two_config_errors_out(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nn = 4\nalpha = 2.0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "run", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "alpha > 2" in proc.stderr

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_tolerance_that_cannot_judge_rejected(self, tmp_path, via, value):
        out = tmp_path / "out"
        text, flag = MINI.format(out=out), []
        if via == "config":
            text += f"tolerance = {value}\n"  # lands in the trailing [run] section
        else:
            flag = ["--tolerance", value]
        path = tmp_path / "tol.cfg"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "run", str(path), *flag],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "tolerance" in proc.stderr
        assert "PASS" not in proc.stdout and not out.exists()

    @pytest.mark.parametrize("value", ["8 10", ""])
    def test_malformed_single_integer_is_config_error(self, tmp_path, value):
        out = tmp_path / "out"
        path = tmp_path / "n.cfg"
        path.write_text(MINI.format(out=out).replace("n = 4", f"n = {value}"))
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "entropy", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit,flag,key",
        [
            (("seed = 3", "seed = -1"), [], "[run] seed"),
            (("m = 4", "m = 4\npowers = 1 -1"), [], "[agsp] powers"),
            (("m = 4", "m = -4"), [], "[agsp] m"),
            (None, ["--seed", "-1"], "--seed"),
        ],
    )
    def test_negative_count_is_config_error(self, tmp_path, edit, flag, key):
        out = tmp_path / "out"
        text = MINI.format(out=out)
        if edit is not None:
            text = text.replace(*edit)
        path = tmp_path / "neg.cfg"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "run", str(path), *flag],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert f"config error: {key} must be >= 0" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_removed_jobs_setting_exits_two(self, tmp_path, via):
        out = tmp_path / "out"
        text, flag = MINI.format(out=out), []
        if via == "config":
            text += "jobs = 2\n"  # lands in the trailing [run] section
        else:
            flag = ["--jobs", "2"]
        path = tmp_path / "jobs.cfg"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "run", str(path), *flag],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        expected = "unknown key 'jobs'" if via == "config" else "unrecognized arguments: --jobs 2"
        assert expected in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_non_finite_number_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "nan.cfg"
        path.write_text(MINI.format(out=out).replace("alpha = 3.0", "alpha = nan"))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error: [model] alpha" in err and "nan" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "error",
        [
            np.linalg.LinAlgError("Eigenvalues did not converge"),
            ArpackNoConvergence("No convergence", np.empty(0), np.empty((0, 0))),
        ],
        ids=["LinAlgError", "ArpackNoConvergence"],
    )
    def test_solver_failure_exits_two(self, mini_cfg_file, capsys, monkeypatch, error):
        from agsplab import cli

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "run_points", failing)
        assert main(["run", mini_cfg_file]) == 2
        assert f"error: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("param", ["n", "q", "l", "m"])
    @pytest.mark.parametrize("value,message", [("2.5", "must be integers"), ("-1", "must be >= 0")])
    def test_bad_integer_sweep_value_is_config_error(self, tmp_path, param, value, message):
        out = tmp_path / "out"
        path = tmp_path / "sweep.cfg"
        path.write_text(MINI.format(out=out) + f"\n[sweep]\nparam = {param}\nvalues = 4 {value}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "sweep", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "config error: [sweep] values" in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr and not out.exists()

    def test_entropy_leaves_run_reports_alone(self, mini_cfg_file, tmp_path):
        out = tmp_path / "out"
        run = subprocess.run([sys.executable, "-m", "agsplab.cli", "run", mini_cfg_file], capture_output=True)
        assert run.returncode == 0, run.stderr
        before = {name: (out / name).read_bytes() for name in ("results.csv", "summary.txt")}
        (out / "entropy.csv").unlink()
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "entropy", mini_cfg_file], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert {name: (out / name).read_bytes() for name in before} == before
        assert (out / "entropy.csv").exists()
        assert proc.stdout == f"wrote {out / 'entropy.csv'}\n"

    def test_verify_prints_run_lines_and_writes_nothing(self, mini_cfg_file, tmp_path, capsys):
        out = tmp_path / "verify_out"
        out.mkdir()
        assert main(["verify", mini_cfg_file, "--out", str(out)]) == 0
        verify_lines = capsys.readouterr().out.splitlines()
        assert list(out.iterdir()) == []
        assert main(["run", mini_cfg_file, "--out", str(out)]) == 0
        run_lines = capsys.readouterr().out.splitlines()
        assert sorted(p.name for p in out.iterdir()) == ["entropy.csv", "results.csv", "summary.txt"]
        assert run_lines[-1].startswith("wrote ") and verify_lines == run_lines[:-1]
        assert len(verify_lines) == len(EXPECTED_BOUND_IDS)

    def test_verify_exit_code_follows_failures(self, mini_cfg_file, tmp_path, capsys, monkeypatch):
        from agsplab import effective

        monkeypatch.setattr(effective.EffectiveHamiltonian, "norm_budget", lambda self: 0.5)
        out = tmp_path / "verify_out"
        out.mkdir()
        assert main(["verify", mini_cfg_file, "--out", str(out)]) == 1
        assert "FAIL  effnorm  (0/1 checks)" in capsys.readouterr().out
        assert list(out.iterdir()) == []

    def test_zero_tolerance_lossless_mps_passes(self, mini_cfg_file):
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "run", mini_cfg_file, "--tolerance", "0"],
            capture_output=True,
            text=True,
        )
        assert "PASS  claim7.mps  (5/5 checks)" in proc.stdout, proc.stdout

    def test_sweep_requires_section(self, mini_cfg_file):
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "sweep", mini_cfg_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_entropy_command(self, mini_cfg_file, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "entropy", mini_cfg_file, "--out", str(tmp_path / "e")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(tmp_path / "e" / "entropy.csv")

    def test_dense_run_past_the_ceiling_exits_two(self, tmp_path, capsys):
        path = tmp_path / "big.cfg"
        path.write_text("[model]\nn = 15\n")
        assert main(["verify", str(path)]) == 2
        assert "exceeds ceiling" in capsys.readouterr().err

    def test_fermion_family_config(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text(
            "[model]\nfamily = long_range_fermion\nn = 6\nalpha = 2.5\nA = 1.0\nB = 0.3\n"
            f"\n[output]\ndir = {tmp_path / 'f_out'}\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "agsplab.cli", "entropy", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        rows = open(tmp_path / "f_out" / "entropy.csv").read().splitlines()
        assert len(rows) == 2 and rows[1].startswith("6,3,")


def test_verify_all_returns_flat_records():
    cfg = ExperimentConfig(n=4, q=2, l=1, taus=[5.0], ms=[4], seed=3)
    records = verify_all(cfg)
    assert all(isinstance(r, BoundRecord) for r in records)
    assert {r.bound_id for r in records} == EXPECTED_BOUND_IDS


def test_entropy_row_peaks_below_one_full_csr():
    # Ising n=12, traced heap: the full CSR written and solved whole peaked at 1.65 of its own
    # data, indices and indptr bytes; one parity sector at a time (half the CSR with its duplicate
    # surplus, the Lanczos basis and the Schmidt decomposition) peaks at about 0.85.
    cfg = ExperimentConfig(n=12, alpha=3.0, J=1.0, B=2.0)
    S = ham.assemble_sparse(build_model(cfg))
    full_csr = S.data.nbytes + S.indices.nbytes + S.indptr.nbytes
    del S
    tracemalloc.start()
    try:
        entropy_row(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * full_csr


@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig(n=10, alpha=3.0, J=1.0, B=2.0),
        ExperimentConfig(family="long_range_fermion", n=8, alpha=3.0, A=1.0, B=0.5),
    ],
    ids=["ising-n10", "fermion-n8"],
)
def test_entropy_row_asks_for_schmidt_coefficients_only(cfg, monkeypatch):
    # S and S2 read only the coefficients.  A full SVD builds U and V^T on numpy's BLAS
    # threads, which then contend with ARPACK's (scipy's) in the next Lanczos solve.
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    entropy_row(cfg)
    assert len(calls) == 1 and calls[0].get("compute_uv") is False


@pytest.mark.slow
def test_sparse_entropy_past_the_dense_ceiling():
    # n=16 is past the dense ceiling; the entropy is saturated at the n=14 value.
    row = entropy_row(ExperimentConfig(n=16, alpha=3.0, J=1.0, B=2.0))
    assert row.cut == 8
    assert row.S_nats == pytest.approx(0.07531685939191048, abs=1e-6)
