"""Run the benchmark: simulator speed end to end and per layer.

    python3 bench/run.py --workload testbed8 --seed 11 --seconds 20 --trace 0
    python3 bench/run.py [--seed 11] [--repeats 1] [--out results.json]

With ``--workload`` it runs one workload and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without ``--workload`` it runs every
workload, ``--repeats`` times with tracing off and once with it on.
``--out`` writes every run, with host and commit metadata, to a file
``compare.py`` reads.

Each run happens in fresh child processes (``child.py``), one at a time.
The ``repro`` sources are imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import MIN_P90_SAMPLES, OpTime, end_to_end, p90
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: ``setup_s`` is the median over this many fresh processes.
SETUP_PROCESSES = 5
#: Wall-clock budget of one workload run, children included.
RUN_DEADLINE_S = 175.0


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _child(args: list[str], deadline: float) -> dict:
    command = [sys.executable, str(BENCH_DIR / "child.py"), *args]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(args)}") from exc
    if done.returncode != 0:
        raise BenchError(f"child exited {done.returncode}: {' '.join(args)}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child printed nothing: {' '.join(args)}")
    return json.loads(lines[-1])


def _units(spec: dict, trace: int) -> dict[str, str]:
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def run_workload(
    spec: dict, workload: str, seed: int, seconds: float, trace: int
) -> dict:
    """One run of one workload: every child it needs, folded into a record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    report = _child(base + ["--trace", str(trace)], deadline)
    times = [OpTime(*row) for row in report["timed"]]
    if not times:
        raise BenchError(f"{workload}: no op succeeded: {report['errors']}")
    setups = [report["setup"]]
    if trace:
        if "per_layer" not in report:
            raise BenchError(f"{workload}: traced pass produced no samples")
        metrics = report["per_layer"]
    else:
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(_child(base + ["--setup-only"], deadline)["setup"])
        metrics = end_to_end(times, setups, report["peak_rss_mb"])
    units = _units(spec, trace)
    if set(metrics) != set(units):
        raise BenchError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}"
        )
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "errors": report["errors"],
        "ops": {
            "warm_up": report["warm_up_ops"],
            "timed": len(times),
            "traced": report.get("traced_ops", 0),
        },
        "raw": {
            "run_s_p50": statistics.median(t.seconds for t in times),
            "setup_s": statistics.median(setup for setup, _ in setups),
            "setup_processes": len(setups),
        },
        "run_s_p90": p90([t.normalized for t in times]),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }


def result_line(record: dict) -> str:
    """The JSON object that ends a single-workload run's output."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def report_lines(record: dict) -> list[str]:
    """Human-readable summary of one run, every metric with its unit."""
    ops = record["ops"]
    lines = [
        f"== {record['workload']}  seed {record['seed']}  trace "
        f"{record['trace']}  ({record['seconds']:g} s timed)",
        f"   ops: {ops['warm_up']} warm-up, {ops['timed']} timed, "
        f"{ops['traced']} traced; failed {record['failed']} of "
        f"{record['attempted']}",
    ]
    lines += [f"   error: {error}" for error in record["errors"]]
    raw = record["raw"]
    notes = {
        "run_s_p50": f"n={ops['timed']} ops; raw {raw['run_s_p50']:.4f} s",
        "setup_s": f"median of {raw['setup_processes']} processes; "
        f"raw {raw['setup_s']:.4f} s",
    }
    for name, metric in record["metrics"].items():
        lines.append(
            f"   {name:<52} {metric['value']:>14.6g} {metric['unit']:<9} "
            f"{notes.get(name, '')}"
        )
    if not record["trace"]:
        value = record["run_s_p90"]
        shown = (
            f"{value:>14.6g} s        " if value is not None
            else f"{'-':>14} (below {MIN_P90_SAMPLES} ops)"
        )
        lines.append(
            f"   {'run_s_p90 (report only)':<52} {shown} n={ops['timed']} ops"
        )
    return lines


def metadata(args: argparse.Namespace) -> dict:
    head = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                timeout=10,
            )
            if done.returncode == 0:
                head = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_head": head,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds and --repeats must be positive")

    if args.workload:
        plan = [(args.workload, args.trace)]
    else:
        plan = [
            (workload["name"], trace)
            for workload in spec["workloads"]
            for trace in [0] * args.repeats + [1]
        ]
    records = []
    try:
        for workload, trace in plan:
            record = run_workload(spec, workload, args.seed, args.seconds, trace)
            print("\n".join(report_lines(record)), flush=True)
            records.append(record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        args.out.write_text(
            json.dumps({"meta": metadata(args), "runs": records}, indent=1) + "\n",
            encoding="utf-8",
        )
    if args.workload:
        print(result_line(records[0]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in records),
                    "attempted": sum(r["attempted"] for r in records),
                    "failed": sum(r["failed"] for r in records),
                    "runs": len(records),
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
