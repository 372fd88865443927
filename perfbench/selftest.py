"""Self-test of the benchmark at n=6; takes about half a minute.

    python3 perfbench/selftest.py

Runs every workload kind through run.py with tracing off and on, checks the
result line against BENCHMARK.json (keys, metric names, units), checks the
oracle's failure accounting on an injected NaN record, and checks that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _run(args, cwd=ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done.returncode, done.stdout.strip().splitlines()


def check_result_lines(spec) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for wl in spec["workloads"]:
            code, lines = _run(["--workload", wl["name"], "--seed", "3", "--seconds", "0.1",
                                "--trace", str(trace), "--tiny"])
            assert code == 0, f"{wl['name']} trace={trace}: exit {code}"
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{wl['name']} trace={trace}: {sorted(set(got) ^ set(expected))}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
            if trace == 0:
                assert all(result["metrics"][name]["value"] > 0 for name in expected), result
            assert any(line.startswith("fail_frac ") for line in lines), lines
            print(f"ok  {wl['name']:<15} trace={trace}  attempted={result['attempted']}")


def check_failure_accounting() -> None:
    configs = workloads.build_configs("verify-ref", 3, tiny=True)
    out = workloads.run_pass("verify-ref", configs, str(ROOT / ".bench_out" / "selftest"))
    attempted, failed, _ = workloads.check(out, None, 3, {})
    assert (attempted, failed) == (out.operations, 0), (attempted, failed)

    bid, lhs, rhs, holds, ctx = out.records[5]
    nan_out = replace(out, records=list(out.records))
    nan_out.records[5] = (bid, math.nan, rhs, holds, ctx)  # holds stays True: NaN alone must fail
    attempted, failed, problems = workloads.check(nan_out, None, 3, {})
    assert (attempted, failed) == (out.operations, 1), (attempted, failed, problems)

    reference = workloads.reference_payload({workloads.REFERENCE_SEED: out})
    assert workloads.check(out, reference, workloads.REFERENCE_SEED, {})[1] == 0
    off = replace(out, records=list(out.records))
    off.records[2] = (off.records[2][0], off.records[2][1] * (1 + 1e-6) + 1e-6, *off.records[2][2:])
    assert workloads.check(off, reference, workloads.REFERENCE_SEED, {})[1] == 1
    short = replace(out, records=out.records[:-2])
    assert workloads.check(short, reference, workloads.REFERENCE_SEED, {})[:2] == (out.operations, 2)
    print(f"ok  fail accounting: 1 NaN, 1 drifted, 2 missing of {out.operations} operations")


def check_tracer_binding() -> None:
    import numpy as np

    import agsplab
    from agsplab import effective, experiment, spectral
    from tracer import Tracer

    originals = (experiment.ground_state, effective.eigendecompose, spectral.SpectralData.apply_function)
    tracer = Tracer(agsplab)
    tracer.install()
    try:
        bound = (experiment.ground_state, effective.eigendecompose, spectral.SpectralData.apply_function)
        assert all(getattr(f, "__bench_traced__", False) for f in bound), bound
        assert agsplab.ground_state is experiment.ground_state is spectral.ground_state
        assert np.linalg.svd.__bench_traced__
        experiment.entropy_row(workloads.build_configs("entropy-ladder", 3, tiny=True)[0])
        assert tracer.layer_calls["experiment"] >= 1 and tracer.kernels["svd"].calls >= 1
    finally:
        tracer.uninstall()
    restored = (experiment.ground_state, effective.eigendecompose, spectral.SpectralData.apply_function)
    assert restored == originals and not hasattr(np.linalg.svd, "__bench_traced__")
    print("ok  tracer binds every import site and restores them")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, lines = _run(["--workload", "verify-ref", "--seed", "7", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print(f"ok  refuses to run without sources (exit {code})")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_failure_accounting()
    check_tracer_binding()
    check_refuses_without_sources()
    check_result_lines(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
