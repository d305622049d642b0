"""Compare two result files written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

For each end-to-end (metric, workload) pair it prints both medians, the
bound from ``BENCHMARK.json``, the larger of the two sides' run-to-run
spreads (interquartile range over median) and a verdict for B against A:

* ``ok`` — B is no worse than A by more than the bound;
* ``regressed`` — B is worse than A by more than the bound;
* ``unresolved`` — a side's spread exceeds the bound, so the runs cannot
  tell, unless every run of B beats every run of A.

The check-pass counts are properties of the simulation, not the host,
so they compare exactly: any difference is ``changed``.  The exit status
is 1 on any regression or changed count.  When the two files come from
different hosts, the end-to-end verdicts are printed with a warning and
do not affect the exit status; the counts still do.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import typing as _t
from pathlib import Path

from counting import COUNT_NAMES

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("python", "platform", "cpu_count")


def spread(values: _t.Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(
    a: _t.Sequence[float], b: _t.Sequence[float], better: str, bound: float
) -> str:
    """B's verdict against A for one end-to-end metric."""
    lower = better == "lower"
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = (median_b - median_a) if lower else (median_a - median_b)
    if max(spread(a), spread(b)) > bound:
        beats = max(b) < min(a) if lower else min(b) > max(a)
        return "ok" if beats else "unresolved"
    return "regressed" if worse > bound * median_a else "ok"


def _values(runs: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload
        and run["trace"] == trace
        and metric in run["metrics"]
    ]


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether B fails the gate against A."""
    lines = []
    same_host = all(a["meta"].get(k) == b["meta"].get(k) for k in HOST_KEYS)
    if not same_host:
        lines.append(
            "warning: the files come from different hosts "
            + ", ".join(
                f"{k}={a['meta'].get(k)}/{b['meta'].get(k)}" for k in HOST_KEYS
            )
            + "; end-to-end verdicts are advisory"
        )
    workloads = [w["name"] for w in spec["workloads"]]
    failed = False
    lines.append(
        f"{'metric':<18} {'workload':<16} {'A median':>12} {'B median':>12} "
        f"{'bound':>6} {'spread':>7}  verdict"
    )
    for metric in spec["end_to_end"]:
        for workload in workloads:
            va = _values(a["runs"], workload, 0, metric["name"])
            vb = _values(b["runs"], workload, 0, metric["name"])
            if not va or not vb:
                continue
            result = verdict(va, vb, metric["better"], metric["bound"])
            failed |= same_host and result == "regressed"
            lines.append(
                f"{metric['name']:<18} {workload:<16} "
                f"{statistics.median(va):>12.6g} {statistics.median(vb):>12.6g} "
                f"{metric['bound']:>6.0%} {max(spread(va), spread(vb)):>7.1%}  "
                f"{result}  (n={len(va)}/{len(vb)})"
            )
    lines.append(f"{'count':<26} {'workload':<16} {'A':>14} {'B':>14}  verdict")
    for name in COUNT_NAMES:
        for workload in workloads:
            va = sorted(set(_values(a["runs"], workload, 1, name)))
            vb = sorted(set(_values(b["runs"], workload, 1, name)))
            if not va or not vb:
                continue
            result = "same" if va == vb else "changed"
            failed |= result == "changed"
            lines.append(
                f"{name:<26} {workload:<16} {va[0]:>14.8g} {vb[0]:>14.8g}  {result}"
            )
    return lines, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path, help="the baseline result file")
    parser.add_argument("b", type=Path, help="the result file judged against it")
    args = parser.parse_args(argv)
    files = []
    for path in (args.a, args.b, ROOT / "BENCHMARK.json"):
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    lines, failed = compare(*files)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
