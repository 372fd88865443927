"""Benchmark worker: one fresh process that sets up and runs one workload.

It prints `ready` as soon as the package is imported and the workload's
configs are built (the harness times that as set-up).  Unless
`--setup-only` is given it then runs passes until `--seconds` have elapsed,
checks every pass with the oracle, optionally repeats one pass under the
tracer, and prints one JSON line with its measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="n=6 chains (benchmark self-test)")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "agsplab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _manifest(args, configs, workloads) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "source_sha256": _source_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "config_sha256": workloads.config_hash(configs),
    }


def _timed_pass(workloads, args, configs, on_config=None):
    """(outputs or None, seconds, traceback text or None); reports are read back."""
    t0 = perf_counter()
    try:
        out = workloads.run_pass(args.workload, configs, str(OUT / args.workload), on_config)
    except Exception:  # a raising pass is a counted failure, not a crash
        return None, perf_counter() - t0, traceback.format_exc()
    seconds = perf_counter() - t0
    workloads.read_reports(out)
    return out, seconds, None


class Tally:
    """Operations attempted and failed over every pass of the run."""

    def __init__(self, workloads, reference, seed, fixture):
        self.workloads, self.reference, self.seed, self.fixture = workloads, reference, seed, fixture
        self.expected = len(reference["records"]) + len(reference["rows"]) if reference else 1
        self.attempted, self.failed, self.problems = 0, 0, []

    def add(self, out, error) -> None:
        if out is None:
            self.attempted += self.expected
            self.failed += self.expected
            self.problems.append(error)
            return
        a, f, p = self.workloads.check(out, self.reference, self.seed, self.fixture)
        self.attempted += a
        self.failed += f
        self.problems += p


def _differences(a, b) -> int:
    """Outputs that differ between two passes, counted per record and row."""
    n = sum(x != y for x, y in zip(a.records, b.records)) + sum(x != y for x, y in zip(a.rows, b.rows))
    n += abs(len(a.records) - len(b.records)) + abs(len(a.rows) - len(b.rows))
    return n + (a.report_records != b.report_records) + (a.report_rows != b.report_rows)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (set-up covers the numerical stack)
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import agsplab

    if Path(agsplab.__file__).resolve().parent != SRC / "agsplab":
        print(f"agsplab imported from {agsplab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    configs = workloads.build_configs(args.workload, args.seed, tiny=args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reference = workloads.load_reference(args.workload, args.tiny)
    tally = Tally(workloads, reference, args.seed, workloads.load_fixture(str(ROOT), configs))
    pass_s, first = [], None
    start = perf_counter()
    while True:
        out, seconds, error = _timed_pass(workloads, args, configs)
        pass_s.append(seconds)
        tally.add(out, error)
        first = first or out
        if out is None or perf_counter() - start >= args.seconds:
            break

    result = {"pass_s": pass_s, "manifest": _manifest(args, configs, workloads)}
    if args.trace and first is not None:
        from tracer import Tracer

        tracer = Tracer(agsplab)
        tracer.install()
        try:
            # Both families are spin-1/2 chains, so the full dimension is 2^n.
            traced, traced_s, error = _timed_pass(
                workloads, args, configs, on_config=lambda cfg: setattr(tracer, "full_dim", 2**cfg.n)
            )
        finally:
            tracer.uninstall()
        tally.add(traced, error)
        diff = _differences(first, traced) if traced is not None else 0
        if diff:
            tally.failed += min(diff, first.operations)
            tally.problems.append(f"{diff} traced outputs differ from the untraced pass")
        metrics = tracer.metrics()
        report = tracer.functions.get("experiment.write_reports", [0, 0.0, 0.0])
        metrics["experiment.report_s"] = (report[1], "s")
        metrics["experiment.report_bytes"] = (workloads.report_bytes(traced) if traced else 0, "B")
        # Overhead is taken against an untraced pass run right after the traced
        # one: the process's first pass also pays one-time warm-up costs.
        after, untraced_s, error = _timed_pass(workloads, args, configs)
        tally.add(after, error)
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        result["per_layer"] = metrics
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}.json", "w") as fh:
            json.dump({"manifest": result["manifest"], **tracer.layer_table()}, fh, indent=1)

    result.update(
        attempted=tally.attempted,
        failed=min(tally.failed, tally.attempted),
        problems=tally.problems[:20],
    )
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
