import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from agsplab.cli import main
from agsplab.config import ConfigError, ExperimentConfig, parse_config
from agsplab.experiment import (
    PointResult,
    build_pipeline,
    entropy_row,
    run_points,
    verify_point,
    write_reports,
)
from agsplab.registry import BOUND_REGISTRY, BoundRecord
from conftest import verify_all

EXPECTED_BOUND_IDS = {
    "assumption1", "gap≤2g", "lemma3.norm", "weyl", "lemma3.gap", "lemma4.overlap",
    "effnorm", "thm5.gap", "thm5.overlap", "thm5.kappa", "prop8.energy-dist",
    "prop8.energy-dist-eff", "prop9.diff", "lemma14.filter", "lemma15.commutator",
    "cheb.lemma11", "agsp.epsilon", "sr.lemma8", "sr.prop4", "bootstrap.mu1",
    "prop2.distance", "eckart-young", "claim7.mps", "s2≤s", "prop3.entropy-bound",
}

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
    ("model", "n"), ("blocks", "q"), ("blocks", "l"), ("blocks", "cut"), ("run", "seed"), ("run", "jobs"),
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

    def test_registry_covers_exactly_expected_ids(self):
        assert set(BOUND_REGISTRY) == EXPECTED_BOUND_IDS
        # each id maps to exactly one statement
        assert all(isinstance(v, str) and v for v in BOUND_REGISTRY.values())


@pytest.fixture(scope="module")
def mini_result():
    cfg = ExperimentConfig(n=4, alpha=3.0, J=1.0, B=2.0, q=2, l=1, taus=[5.0], ms=[4], seed=3)
    return verify_point(cfg)


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
        h_eff = build_pipeline(self.CFG).eff_at(tau_star).assemble_dense()
        filters, ranks, solves = [], {}, []
        build, rank = agsp.agsp_filter, agsp.operator_schmidt_rank

        def counted_build(eff, m):
            filt = build(eff, m)
            filters.append((filt.matrix, (m, eff.base.blocks.l, eff.tau)))
            return filt

        def counted_rank(O, *args, **kwargs):
            for K, key in filters:
                if O is K:
                    ranks[key] = ranks.get(key, 0) + 1
            return rank(O, *args, **kwargs)

        def counted_solver(solve):
            def wrapped(M, *args, **kwargs):
                if M.shape == h_eff.shape and np.array_equal(M, h_eff):
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


    def test_schmidt_rank_bounds_build_no_full_matrix(self, monkeypatch):
        from agsplab import agsp, hamiltonian, truncation

        T = build_pipeline(self.CFG).T
        sizes = []
        embed = hamiltonian.embed_sum

        def counted_embed(lattice, pieces):
            sizes.append(lattice.n)
            return embed(lattice, pieces)

        def refused(*args, **kwargs):
            raise AssertionError("d^n x d^n matrix requested")

        monkeypatch.setattr(hamiltonian, "embed_sum", counted_embed)
        monkeypatch.setattr(truncation.TruncatedHamiltonian, "assemble_dense", refused)
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

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = ExperimentConfig(n=4, sweep_param="n", sweep_values=[4, 5], jobs=2)
        parallel = run_points(cfg, entropy_only=True)
        cfg_serial = ExperimentConfig(n=4, sweep_param="n", sweep_values=[4, 5], jobs=1)
        serial = run_points(cfg_serial, entropy_only=True)
        for a, b in zip(parallel, serial):
            assert a.entropy_rows[0].S_nats == b.entropy_rows[0].S_nats

    def test_workers_capped_by_grid_size(self, monkeypatch):
        from agsplab import experiment

        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
        cfg = ExperimentConfig(n=4, sweep_param="n", sweep_values=[4, 5], jobs=100_000)
        points = run_points(cfg, entropy_only=True)
        assert pools == [2] and [p.config.n for p in points] == [4, 5]
        run_points(replace(cfg, jobs=1), entropy_only=True)
        assert pools == [2]  # one worker: no pool at all

    def test_theorem5_grid_matches_single_tau_runs(self):
        # taus other than the pipeline's max(taus) get transient clamps
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
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, via, jobs):
        out = tmp_path / "out"
        text, flag = MINI.format(out=out), []
        if via == "config":
            text += f"jobs = {jobs}\n"  # lands in the trailing [run] section
        else:
            flag = ["--jobs", jobs]
        path = tmp_path / "jobs.cfg"
        path.write_text(text)
        assert main(["run", str(path), *flag]) == 2
        key = "[run] jobs" if via == "config" else "--jobs"
        assert f"config error: {key} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_number_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = tmp_path / "nan.cfg"
        path.write_text(MINI.format(out=out).replace("alpha = 3.0", "alpha = nan"))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error: [model] alpha" in err and "nan" in err
        assert not out.exists()

    def test_solver_failure_exits_two(self, mini_cfg_file, capsys, monkeypatch):
        from agsplab import cli

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "run_points", failing)
        assert main(["run", mini_cfg_file]) == 2
        assert "error: Eigenvalues did not converge" in capsys.readouterr().err

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
