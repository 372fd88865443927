"""Regenerate the oracle's stored reference outputs.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload at the reference seed and at two other seeds, and writes
perfbench/reference/<workload>.json: every record's (bound_id, lhs, rhs) and
entropy row at seed 7, with records whose values change with the seed
marked `seeded`.  Regenerate only when a change of the program is meant to
change its outputs, and say so in the change; never to absorb a regression.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

OTHER_SEEDS = (8, 9)


def main(names) -> int:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in names:
        outs = {}
        for seed in (workloads.REFERENCE_SEED, *OTHER_SEEDS):
            configs = workloads.build_configs(name, seed)
            outs[seed] = workloads.run_pass(name, configs, str(ROOT / ".bench_out" / name))
        payload = workloads.reference_payload(outs)
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:  # one record or row per line, for readable diffs
            fh.write(f'{{"seed": {payload["seed"]},\n')
            for key in ("records", "rows"):
                items = ",\n".join(json.dumps(item, ensure_ascii=False) for item in payload[key])
                fh.write(f'"{key}": [\n{items}\n]' + (",\n" if key == "records" else "}\n"))
        seeded = sum(r["seeded"] for r in payload["records"])
        print(f"{path}: {len(payload['records'])} records ({seeded} seeded), {len(payload['rows'])} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["verify-ref", "entropy-ladder", "sweep-fermion"]))
