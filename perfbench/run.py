"""agsplab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify-ref --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout (the package is imported from its
`src/`).  With `--trace 0` it reports the end-to-end metrics: set-up time
(median over several fresh processes), median wall time of a full pass, and
the worker's peak RSS.  With `--trace 1` it runs the same passes, then one
more under the layer tracer, and reports the per-layer metrics.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it are the run manifest and a readable table.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-ref", "entropy-ladder", "sweep-fermion")
SETUP_PROBES = 8  # timed set-up-only processes, besides the measuring worker
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))  # never more threads than cores
DEADLINE_S = 170.0


def _parse(argv):
    p = argparse.ArgumentParser(description="agsplab benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7, help="workload seed (reference seed: 7)")
    p.add_argument("--seconds", type=float, default=10.0, help="measure passes for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="n=6 chains, no stored reference (self-test)")
    return p.parse_args(argv)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=20, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


class BenchError(RuntimeError):
    pass


def _start(worker_args, env) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready` line; returns (process, set-up seconds)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *worker_args], stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    line = proc.stdout.readline().strip()
    setup = perf_counter() - t0
    if line != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not become ready (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return stdout


def run(args) -> tuple[dict, dict]:
    """(result object, manifest) of one benchmark run."""
    deadline = perf_counter() + DEADLINE_S
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS))
    worker_args = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])

    setups = []
    if not args.trace:
        # One untimed probe first warms the file cache and bytecode, which a
        # user's repeated CLI calls also find warm.
        for i in range(SETUP_PROBES + 1):
            proc, seconds = _start(worker_args + ["--setup-only"], env)
            _finish(proc, deadline)
            if i:
                setups.append(seconds)

    proc, seconds = _start(
        worker_args + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env
    )
    setups.append(seconds)
    measured = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    for problem in measured["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in measured["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(measured["pass_s"]), "unit": "s"},
            "peak_rss_mib": {"value": measured["peak_rss_mib"], "unit": "MiB"},
        }
    manifest = dict(
        measured["manifest"],
        git_commit=_git_commit(),
        passes=len(measured["pass_s"]),
        pass_s=measured["pass_s"],
        setup_samples_s=setups,
    )
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    return result, manifest


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "agsplab" / "__init__.py").is_file():
        print(f"no agsplab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        result, manifest = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("manifest " + json.dumps(manifest, sort_keys=True))
    fail_frac = result["failed"] / result["attempted"]
    for name, m in [*result["metrics"].items(), ("fail_frac", {"value": fail_frac, "unit": "1"})]:
        print(f"{name:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
