"""The benchmark's workloads, one pass over each, and the output oracle.

A workload is a list of `ExperimentConfig`s built from the seed, plus the
public entry point that runs them.  A pass returns plain `Outputs` that the
oracle compares against the stored reference (seed 7) or, for any other
seed, checks for holding, finite records and seed-independent values.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field

from agsplab import experiment
from agsplab.config import ExperimentConfig

REFERENCE_SEED = 7
# Agreement with stored reference values: no looser than the package's
# default comparison slack (registry.DEFAULT_SLACK), relative above 1.
TOLERANCE = 1e-9

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
# Frozen half-chain entropies of the acceptance suite (Ising, alpha=3, J=1, B=2).
FIXTURE = os.path.join("tests", "fixtures", "area_law_entropies.json")


def _ising(n: int, seed: int, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        family="long_range_ising", n=n, alpha=3.0, J=1.0, B=2.0, q=2, l=2, seed=seed, **kw
    )


def build_configs(name: str, seed: int, tiny: bool = False) -> list[ExperimentConfig]:
    """Configs of one workload; `tiny` shrinks every chain to n=6 for the self-test."""
    if name == "verify-ref":
        # The acceptance reference instance (tests/conftest.py REFERENCE_CONFIG).
        return [_ising(6 if tiny else 10, seed, taus=[6.0], ms=[4, 8])]
    if name == "entropy-ladder":
        return [_ising(n, seed) for n in ((6,) if tiny else (10, 12, 13))]
    if name == "sweep-fermion":
        return [
            ExperimentConfig(
                family="long_range_fermion",
                n=6 if tiny else 8,
                alpha=3.0,
                A=1.0,
                B=0.5,
                q=2,
                l=2,
                taus=[2.0],
                ms=[4, 8, 16],
                sweep_param="tau",
                sweep_values=[2.0, 4.0] if tiny else [2.0, 4.0, 6.0, 8.0],
                seed=seed,
            )
        ]
    raise ValueError(f"unknown workload {name!r}")


def config_hash(configs: list[ExperimentConfig]) -> str:
    blob = json.dumps([asdict(c) for c in configs], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Outputs:
    """Everything a pass produced, in comparable plain form."""

    # (bound_id, lhs, rhs, holds, context as stable JSON)
    records: list[tuple] = field(default_factory=list)
    # (n, cut, S_nats, S2_nats, bond_dims)
    rows: list[tuple] = field(default_factory=list)
    report_paths: list[str] = field(default_factory=list)
    # records and rows as read back from the written CSV reports
    report_records: list[tuple] | None = None
    report_rows: list[tuple] | None = None
    summary_pass: bool | None = None

    @property
    def operations(self) -> int:
        return len(self.records) + len(self.rows)


def _row(row) -> tuple:
    return (row.n, row.cut, float(row.S_nats), float(row.S2_nats), list(row.bond_dims))


def _collect(points, out: Outputs) -> None:
    for point in points:
        for r in point.records:
            ctx = json.dumps(r.context, sort_keys=True, default=repr)
            out.records.append((r.bound_id, float(r.lhs), float(r.rhs), bool(r.holds), ctx))
        out.rows.extend(_row(row) for row in point.entropy_rows)


def run_pass(name: str, configs: list[ExperimentConfig], out_dir: str, on_config=None) -> Outputs:
    """One full pass over a workload through the package's public API.

    `on_config(cfg)` is called before each config runs (the tracer uses it
    to learn the full Hilbert-space dimension).
    """
    out = Outputs()
    for cfg in configs:
        if on_config is not None:
            on_config(cfg)
        if name == "verify-ref":
            _collect([experiment.verify_point(cfg)], out)
        elif name == "entropy-ladder":
            out.rows.append(_row(experiment.entropy_row(cfg)))
        else:
            points = experiment.run_points(cfg)
            paths = experiment.write_reports(cfg, points, out_dir=out_dir)
            _collect(points, out)
            out.report_paths = [paths["results"], paths["entropy"], paths["summary"]]
    return out


def read_reports(out: Outputs) -> None:
    """Parse the written reports back into `out` (outside the timed region)."""
    if not out.report_paths:
        return
    results, entropy, summary = out.report_paths
    with open(results, newline="") as fh:
        out.report_records = [
            (row["bound_id"], float(row["lhs"]), float(row["rhs"]), row["holds"] == "true")
            for row in csv.DictReader(fh)
        ]
    with open(entropy, newline="") as fh:
        out.report_rows = [
            (int(row["n"]), int(row["cut"]), float(row["S_nats"]), float(row["S2_nats"]),
             [int(b) for b in row["bond_dims"].split("|")])
            for row in csv.DictReader(fh)
        ]
    with open(summary) as fh:
        out.summary_pass = fh.read().strip().splitlines()[-1] == "overall: PASS"


def report_bytes(out: Outputs) -> int:
    return sum(os.path.getsize(p) for p in out.report_paths)


# ---------------------------------------------------------------- oracle


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def load_reference(name: str, tiny: bool) -> dict | None:
    """Stored reference outputs at REFERENCE_SEED; None for the tiny self-test sizes."""
    if tiny:
        return None
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_fixture(root: str, configs: list[ExperimentConfig]) -> dict[int, float]:
    """Fixture entropies by n, when the configs are the chain the fixture froze."""
    if any((c.family, c.alpha, c.J, c.B) != ("long_range_ising", 3.0, 1.0, 2.0) for c in configs):
        return {}
    with open(os.path.join(root, FIXTURE)) as fh:
        return {int(n): float(s) for n, s in json.load(fh).items()}


def check(out: Outputs, reference: dict | None, seed: int, fixture: dict[int, float]) -> tuple[int, int, list[str]]:
    """Count (attempted, failed) operations of one pass and explain each failure.

    An operation is a record or an entropy row.  It fails when a record does
    not hold, a value is not finite, or an output disagrees with the
    reference, the frozen area-law fixture, or the written reports.
    """
    problems: list[str] = []
    failed_records: set[int] = set()
    failed_rows: set[int] = set()
    unmatched = 0  # outputs missing from, or surplus to, what they are checked against

    for i, (bid, lhs, rhs, holds, ctx) in enumerate(out.records):
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            failed_records.add(i)
            problems.append(f"record {i} {bid}: non-finite lhs={lhs} rhs={rhs} {ctx}")
        elif not holds:
            failed_records.add(i)
            problems.append(f"record {i} {bid}: does not hold, lhs={lhs} rhs={rhs} {ctx}")
    for i, (n, cut, S, S2, dims) in enumerate(out.rows):
        if not (math.isfinite(S) and math.isfinite(S2)):
            failed_rows.add(i)
            problems.append(f"row {i} n={n}: non-finite entropy S={S} S2={S2}")
        if n in fixture and cut == n // 2 and not _close(S, fixture[n]):
            failed_rows.add(i)
            problems.append(f"row {i} n={n}: S={S!r} disagrees with fixture {fixture[n]!r}")

    attempted = out.operations
    if reference is not None:
        ref_records, ref_rows = reference["records"], reference["rows"]
        attempted = max(attempted, len(ref_records) + len(ref_rows))
        unmatched += abs(len(out.records) - len(ref_records)) + abs(len(out.rows) - len(ref_rows))
        if unmatched:
            problems.append(
                f"{len(out.records)} records / {len(out.rows)} rows, "
                f"reference has {len(ref_records)} / {len(ref_rows)}"
            )
        for i, (got, ref) in enumerate(zip(out.records, ref_records)):
            bid, lhs, rhs = got[:3]
            if bid != ref["bound_id"]:
                failed_records.add(i)
                problems.append(f"record {i}: bound id {bid} where reference has {ref['bound_id']}")
            elif (seed == REFERENCE_SEED or not ref["seeded"]) and not (
                _close(lhs, ref["lhs"]) and _close(rhs, ref["rhs"])
            ):
                failed_records.add(i)
                problems.append(
                    f"record {i} {bid}: ({lhs!r}, {rhs!r}) vs reference ({ref['lhs']!r}, {ref['rhs']!r})"
                )
        for i, (got, ref) in enumerate(zip(out.rows, ref_rows)):
            n, cut, S, S2, dims = got
            if (n, cut, dims) != (ref["n"], ref["cut"], ref["bond_dims"]) or not (
                _close(S, ref["S_nats"]) and _close(S2, ref["S2_nats"])
            ):
                failed_rows.add(i)
                problems.append(f"row {i} n={n}: {got} vs reference {ref}")

    if out.report_records is not None:
        written = [r[:4] for r in out.records]
        for i, (got, exp) in enumerate(zip(out.report_records, written)):
            if got != exp:
                failed_records.add(i)
                problems.append(f"results.csv row {i}: {got} but the pass returned {exp}")
        if len(out.report_records) != len(written):
            unmatched += abs(len(out.report_records) - len(written))
            problems.append(f"results.csv has {len(out.report_records)} rows for {len(written)} records")
        if out.report_rows != [tuple(r) for r in out.rows]:
            failed_rows.update(range(len(out.rows)))
            problems.append("entropy.csv disagrees with the returned entropy rows")
        if not out.summary_pass and not failed_records:
            unmatched += 1
            problems.append("summary.txt reports FAIL although every record holds")

    failed = len(failed_records) + len(failed_rows) + unmatched
    return attempted, min(failed, attempted), problems


def reference_payload(outs: dict[int, Outputs]) -> dict:
    """Reference file contents from passes at REFERENCE_SEED and other seeds.

    A record is marked `seeded` when its value differs at any other seed;
    only unseeded records are compared exactly at seeds other than 7.
    """
    base = outs[REFERENCE_SEED]
    others = [o for s, o in outs.items() if s != REFERENCE_SEED]
    records = []
    for i, (bid, lhs, rhs, _holds, _ctx) in enumerate(base.records):
        seeded = any(o.records[i][1:3] != (lhs, rhs) for o in others)
        records.append({"bound_id": bid, "lhs": lhs, "rhs": rhs, "seeded": seeded})
    rows = [
        {"n": n, "cut": cut, "S_nats": S, "S2_nats": S2, "bond_dims": dims}
        for n, cut, S, S2, dims in base.rows
    ]
    return {"seed": REFERENCE_SEED, "records": records, "rows": rows}
