"""Command-line interface: run, verify, entropy, and sweep subcommands."""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, check_jobs, check_non_negative, check_tolerance, parse_config
from .experiment import run_points, write_entropy_report, write_reports
from .registry import tally


def _add_common(sub):
    sub.add_argument("config", help="experiment config file")
    sub.add_argument("--jobs", type=int, default=None, help="max concurrent grid workers")
    sub.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
    sub.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    sub.add_argument(
        "--tolerance", type=float, default=None, help="comparison slack (default 1e-9)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agsplab",
        description="Verify truncation/filter/compression inequalities on long-range chains.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
        ("run", "full pipeline: verify every bound and write all reports"),
        ("verify", "verify every bound; print one pass/fail line per bound id"),
        ("entropy", "ground-state entropies only (entropy.csv)"),
        ("sweep", "run the configured sweep grid (requires a [sweep] section)"),
    ]:
        _add_common(subs.add_parser(name, help=descr))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.tolerance is not None:
            cfg.tolerance = check_tolerance(args.tolerance)
        if args.seed is not None:
            cfg.seed = check_non_negative("--seed", args.seed)
        if args.jobs is not None:
            cfg.jobs = check_jobs("--jobs", args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.output_dir
    if args.command == "sweep" and not cfg.sweep_param:
        print("config error: sweep command needs a [sweep] section", file=sys.stderr)
        return 2
    try:
        points = run_points(cfg, entropy_only=(args.command == "entropy"))
    except ValueError as exc:  # DimensionCeilingError, DegenerateGroundStateError, LinAlgError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "entropy":
        print(f"wrote {write_entropy_report(cfg, points, out_dir)}")
        return 0
    paths = write_reports(cfg, points, out_dir=out_dir)
    counts = tally(r for point in points for r in point.records)
    for bid, (ok, total) in counts.items():
        print(f"{'PASS' if ok == total else 'FAIL'}  {bid}  ({ok}/{total} checks)")
    print(f"wrote {paths['results']}, {paths['summary']}, {paths['entropy']}")
    return 0 if all(ok == total for ok, total in counts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
