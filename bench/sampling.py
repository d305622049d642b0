"""A statistical stack sampler that splits host time across repro's layers.

``SIGPROF`` fires on a CPU-time interval timer; the handler charges the
sample to the layer of the innermost Python frame (its *self* time) and
to every public entry point found on the stack (its *inclusive* time).
Time spent in C code lands on the Python frame that called it.  The
kernel rounds the interval up to its tick, so a 1 ms request samples
about every 4 ms on a 250 Hz kernel.
"""

from __future__ import annotations

import collections
import os
import signal
import typing as _t

#: ``repro`` subpackages reported as layers.  Frames in any other part of
#: ``repro`` count as ``other``; frames outside it (standard library,
#: this benchmark) count as ``external``.
PACKAGE_LAYERS = (
    "sim",
    "net",
    "core",
    "hardware",
    "faults",
    "stragglers",
    "cluster",
    "tuning",
    "exec",
    "obs",
    "partition",
    "models",
)
LAYERS = PACKAGE_LAYERS + ("other", "external")

#: CPU seconds between samples requested from the kernel.
INTERVAL = 0.001

#: Public functions whose inclusive share is reported, keyed by
#: (module path inside ``repro``, function name).
ENTRIES: dict[tuple[str, str], str] = {
    ("net/fabric.py", "transfer"): "fabric.transfer",
    ("net/fabric.py", "transfer_many"): "fabric.transfer_many",
    ("core/server.py", "request_token"): "ts.request_token",
    ("core/server.py", "report_completion"): "ts.report_completion",
    ("hardware/gpu.py", "train_time"): "gpu.train_time",
    ("core/collectives.py", "ring_allreduce"): "collectives.ring_allreduce",
    (
        "core/collectives.py",
        "hierarchical_allreduce",
    ): "collectives.hierarchical_allreduce",
    ("cluster/schedulers.py", "plan"): "scheduler.plan",
    ("tuning/tuner.py", "tune"): "tuner.tune",
}
ENTRY_NAMES = tuple(ENTRIES.values())


def _relative(filename: str, package_dir: str) -> str | None:
    """``filename`` relative to the ``repro`` package, or ``None``."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    return filename[len(prefix):].replace(os.sep, "/")


def layer_of(filename: str, package_dir: str) -> str:
    """The layer a frame executing in ``filename`` belongs to."""
    relative = _relative(filename, package_dir)
    if relative is None:
        return "external"
    head, _, rest = relative.partition("/")
    return head if rest and head in PACKAGE_LAYERS else "other"


def entry_of(filename: str, function: str, package_dir: str) -> str | None:
    """The reported entry point a frame executes, if any."""
    relative = _relative(filename, package_dir)
    return None if relative is None else ENTRIES.get((relative, function))


class StackSampler:
    """Samples the main thread's stack while used as a context manager.

    A sample whose stack runs any code object in ``skip`` is dropped:
    the benchmark's own speed probe runs inside the ops it samples.
    """

    def __init__(self, package_dir: str, skip: _t.Collection[_t.Any] = ()) -> None:
        self.package_dir = os.path.realpath(package_dir)
        self.skip = frozenset(skip)
        self.samples = 0
        self.layers: collections.Counter[str] = collections.Counter()
        self.entries: collections.Counter[str] = collections.Counter()
        self._code: dict[_t.Any, tuple[str, str | None]] = {}
        self._previous: _t.Any = None

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *_exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _classify(self, code: _t.Any) -> tuple[str, str | None]:
        known = self._code.get(code)
        if known is None:
            filename = os.path.realpath(code.co_filename)
            known = (
                layer_of(filename, self.package_dir),
                entry_of(filename, code.co_name, self.package_dir),
            )
            self._code[code] = known
        return known

    def _on_sample(self, _signum: int, frame: _t.Any) -> None:
        if frame is None:
            return
        leaf = frame.f_code
        seen = set()
        while frame is not None:
            if frame.f_code in self.skip:
                return
            entry = self._classify(frame.f_code)[1]
            if entry is not None:
                seen.add(entry)
            frame = frame.f_back
        self.samples += 1
        self.layers[self._classify(leaf)[0]] += 1
        self.entries.update(seen)

    def layer_shares(self) -> dict[str, float]:
        total = self.samples or 1
        return {layer: self.layers[layer] / total for layer in LAYERS}

    def entry_shares(self) -> dict[str, float]:
        total = self.samples or 1
        return {entry: self.entries[entry] / total for entry in ENTRY_NAMES}
