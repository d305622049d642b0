"""One fresh benchmark process: set up a workload, run its passes, report.

Started by ``run.py``; prints one JSON object on stdout.  With
``--setup-only`` it stops after timing the set-up, so ``run.py`` can
take the set-up time as a median over several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from pathlib import Path

import measure
from sampling import StackSampler
from speed import PROBE_CODES, SpeedProbe
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"


def import_repro() -> Path:
    """Import ``repro`` from this checkout's sources; return its directory."""
    sys.path.insert(0, str(SOURCE_DIR))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import repro from {SOURCE_DIR}: {exc}")
    package_dir = Path(repro.__file__).resolve().parent
    if SOURCE_DIR.resolve() not in package_dir.parents:
        raise SystemExit(f"bench: repro was imported from {package_dir}")
    return package_dir


def load_pins(workload: str, seed: int) -> dict[str, dict[str, object]]:
    """Pinned outputs per variant; only the default seed has pins."""
    if seed != DEFAULT_SEED:
        return {}
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with SpeedProbe() as probe:
        package_dir = import_repro()
        variants = WORKLOADS[args.workload](args.seed)
    report: dict[str, object] = {"setup": [probe.seconds, probe.loop_seconds]}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tally = measure.Tally()
    references = measure.warm_up(
        variants, tally, load_pins(args.workload, args.seed)
    )
    warm_up_ops = tally.attempted
    timed = measure.timed_ops(variants, references, tally, seconds=args.seconds)
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    report["timed"] = [
        [t.seconds, t.loop_seconds, t.sim_seconds] for t in timed
    ]
    if args.trace:
        sampler = StackSampler(str(package_dir), skip=PROBE_CODES)
        cycles = max(1, math.ceil(len(timed) / 4 / len(variants)))
        traced = measure.timed_ops(
            variants, references, tally, cycles=cycles, sampler=sampler
        )
        counts = measure.check_counts(variants, references, tally)
        if timed and traced:
            report["per_layer"] = measure.per_layer(sampler, timed, traced, counts)
        report["traced_ops"] = len(traced)
    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        warm_up_ops=warm_up_ops,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
