import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]

# The benchmark's modules import each other as top-level modules, the
# way they do when run as scripts from ``bench/``; ``repro`` comes from
# the checkout's sources.
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
