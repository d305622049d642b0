"""Ledger validation CLI: ``python -m repro.store.validate LEDGER...``.

Opens each SQLite ledger, checks its schema version, and runs
:meth:`repro.store.ledger.RunLedger.validate` — dense sequential ids,
referential integrity of samples/events/sweep-jobs/cluster-jobs, known
sample series and worker phase codes, known sweep statuses and cluster
schedulers.  A file that is not a ledger of this schema is reported as
``cannot load``.  CI runs this on the ledger a dashboard artifact was
rendered from.  Exit code 0 means every file passed.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing as _t

from repro.errors import ReproError
from repro.store.ledger import RunLedger


def validate_file(path: str) -> list[str]:
    """Validate one ledger file; returns the list of problems found.

    A missing file is a problem, not an empty ledger: opening it would
    create one, and a mistyped path would pass.
    """
    if not os.path.exists(path):
        return [f"no such file: {path}"]
    try:
        with RunLedger(path) as ledger:
            return ledger.validate()
    except (OSError, ValueError, ReproError) as exc:
        return [f"cannot load {path}: {exc}"]


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.validate",
        description="validate SQLite run-ledger files",
    )
    parser.add_argument("paths", nargs="+", help="ledger files")
    args = parser.parse_args(argv)

    failed = False
    for path in args.paths:
        problems = validate_file(path)
        if problems:
            failed = True
            print(f"{path}: INVALID")
            for problem in problems:
                print(f"  - {problem}")
        else:
            with RunLedger(path) as ledger:
                counts = (
                    f"{len(ledger.runs())} runs, "
                    f"{len(ledger.sweeps())} sweeps, "
                    f"{len(ledger.cluster_runs())} cluster runs"
                )
            print(f"{path}: OK ({counts})")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
