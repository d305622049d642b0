"""Trace exporters.

Two output formats:

* **Chrome trace-event JSON** (:func:`chrome_trace` /
  :func:`write_chrome_trace`) — loadable in Perfetto
  (https://ui.perfetto.dev) and ``chrome://tracing``.  Every
  :class:`~repro.obs.events.TraceEvent` becomes a complete ("X") event;
  token lifecycle chains additionally become flow events
  (``s``/``t``/``f``) so the UI draws arrows from mint to sync.
* **Timeline spans** (:func:`timeline_spans`) — the bridge that lets
  :class:`~repro.metrics.timeline.TimelineRecorder` consume the trace
  stream instead of being a second, parallel recording path.

Plus the inverse direction: :func:`read_chrome_trace` /
:func:`complete_events` parse an exported file back, and
:func:`validate_chrome_trace` / :func:`verify_causal_chains` check a
payload against the event schema (CI runs these on a freshly traced
experiment).
"""

from __future__ import annotations

import io
import json
import typing as _t

from repro.errors import ObservabilityError
from repro.obs.events import (
    CATEGORIES,
    EV_ALLREDUCE,
    EV_FETCH,
    EV_TRAINED,
    TOKEN_LIFECYCLE,
    TS_TRACK,
    TraceEvent,
)

#: Seconds -> microseconds (the trace-event format's time unit).
_US = 1e6

#: Chrome event phases this exporter produces / the validator accepts.
#: "C" (counter) events carry the sampler's gauge time-series.
_PHASES = frozenset({"M", "X", "i", "s", "t", "f", "C"})

#: pid used for the whole simulated cluster.
_PID = 0


def _tid(track: int) -> int:
    """Chrome thread ids must be non-negative; shift our tracks by one."""
    return track + 1


def _track_name(track: int) -> str:
    return "token-server" if track == TS_TRACK else f"worker-{track}"


# -- Chrome trace-event JSON --------------------------------------------------


def chrome_trace(
    events: _t.Sequence[TraceEvent],
    *,
    process_name: str = "fela-sim",
    samples: _t.Sequence[_t.Any] = (),
) -> dict[str, _t.Any]:
    """Render events (plus optional sampler gauges) as Chrome trace JSON.

    ``samples`` is a sequence of
    :class:`~repro.obs.timeseries.Sample` rows; each distinct
    ``(series, time)`` pair becomes one counter ("C") event whose args
    hold every key sampled at that instant, so Perfetto draws the
    buffer depths, fabric utilization and membership gauges as stacked
    counter tracks alongside the span timeline.
    """
    trace_events: list[dict[str, _t.Any]] = []

    trace_events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    )
    tracks = sorted({event.track for event in events})
    for sort_index, track in enumerate(tracks):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": _tid(track),
                "args": {"name": _track_name(track)},
            }
        )
        trace_events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": _PID,
                "tid": _tid(track),
                "args": {"sort_index": sort_index},
            }
        )

    for event in events:
        trace_events.append(
            {
                "name": event.name,
                "cat": event.category,
                "ph": "X",
                "ts": event.start * _US,
                "dur": event.duration * _US,
                "pid": _PID,
                "tid": _tid(event.track),
                "args": dict(event.args),
            }
        )

    trace_events.extend(_flow_events(events))
    trace_events.extend(_counter_events(samples))
    return {"displayTimeUnit": "ms", "traceEvents": trace_events}


def _counter_events(
    samples: _t.Sequence[_t.Any],
) -> list[dict[str, _t.Any]]:
    """Sampler gauges as counter events, one per (series, tick)."""
    grouped: dict[tuple[str, float], dict[str, float]] = {}
    for sample in samples:
        grouped.setdefault((sample.series, sample.time), {})[
            sample.key or "value"
        ] = sample.value
    return [
        {
            "name": series,
            "cat": "sample",
            "ph": "C",
            "ts": ts * _US,
            "pid": _PID,
            "tid": 0,
            "args": {key: values[key] for key in sorted(values)},
        }
        for (series, ts), values in sorted(grouped.items())
    ]


def _flow_events(
    events: _t.Sequence[TraceEvent],
) -> list[dict[str, _t.Any]]:
    """Causal arrows: one flow per token, minted -> ... -> level sync."""
    lifecycle_rank = {name: rank for rank, name in enumerate(TOKEN_LIFECYCLE)}
    chains: dict[int, list[TraceEvent]] = {}
    syncs: dict[tuple[int, int], TraceEvent] = {}
    for event in events:
        if event.name in lifecycle_rank:
            chains.setdefault(event.args["token"], []).append(event)
        elif (
            event.name == EV_ALLREDUCE
            and "iteration" in event.args
            and "level" in event.args
        ):
            syncs[(event.args["iteration"], event.args["level"])] = event

    flows: list[dict[str, _t.Any]] = []
    for tid in sorted(chains):
        chain = sorted(chains[tid], key=lambda event: event.seq)
        steps: list[tuple[str, float, int]] = [
            (event.name, event.start, event.track) for event in chain
        ]
        sync = syncs.get(
            (chain[0].args["iteration"], chain[0].args["level"])
        )
        if sync is not None:
            steps.append((sync.name, sync.start, sync.track))
        for index, (name, ts, track) in enumerate(steps):
            phase = (
                "s"
                if index == 0
                else ("f" if index == len(steps) - 1 else "t")
            )
            flow: dict[str, _t.Any] = {
                "name": "token-flow",
                "cat": "token",
                "ph": phase,
                "id": tid,
                "pid": _PID,
                "tid": _tid(track),
                "ts": ts * _US,
            }
            if phase == "f":
                flow["bp"] = "e"
            flows.append(flow)
    return flows


def dump_chrome_trace(
    events: _t.Sequence[TraceEvent], **kwargs: _t.Any
) -> str:
    """Serialize events as canonical (byte-stable) trace JSON."""
    return json.dumps(
        chrome_trace(events, **kwargs),
        sort_keys=True,
        separators=(",", ":"),
    )


def write_chrome_trace(
    path: _t.Any, events: _t.Sequence[TraceEvent], **kwargs: _t.Any
) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    with io.open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_chrome_trace(events, **kwargs))
    return len(events)


def read_chrome_trace(path: _t.Any) -> dict[str, _t.Any]:
    """Load a trace JSON file written by :func:`write_chrome_trace`."""
    with io.open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ObservabilityError(
            f"trace file {path} does not hold a JSON object"
        )
    return payload


def complete_events(payload: dict[str, _t.Any]) -> list[dict[str, _t.Any]]:
    """The "X" (complete) events of a parsed trace, in file order.

    These correspond 1:1, in order, to the tracer's emitted
    :class:`~repro.obs.events.TraceEvent` stream — the round-trip
    property the export tests pin down.
    """
    return [
        event
        for event in payload.get("traceEvents", ())
        if isinstance(event, dict) and event.get("ph") == "X"
    ]


# -- validation ---------------------------------------------------------------


def validate_chrome_trace(payload: _t.Any) -> list[str]:
    """Check a parsed trace against the event schema; return problems."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["top-level value is not a JSON object"]
    trace_events = payload.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["missing or non-list 'traceEvents'"]
    if payload.get("displayTimeUnit") not in (None, "ms", "ns"):
        problems.append(
            f"displayTimeUnit must be 'ms' or 'ns', got "
            f"{payload.get('displayTimeUnit')!r}"
        )
    for index, event in enumerate(trace_events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing integer {field!r}")
        if phase != "M":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: missing numeric 'ts'")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"{where}: 'X' event needs dur >= 0")
            category = event.get("cat")
            if category not in CATEGORIES:
                problems.append(
                    f"{where}: unknown category {category!r}"
                )
        if phase in ("s", "t", "f") and "id" not in event:
            problems.append(f"{where}: flow event without 'id'")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: 'args' is not an object")
            continue
        if phase == "C":
            if not isinstance(args, dict) or not args:
                problems.append(
                    f"{where}: counter event needs non-empty 'args'"
                )
            else:
                for key in sorted(args):
                    if not isinstance(args[key], (int, float)):
                        problems.append(
                            f"{where}: counter value {key!r} is not "
                            "numeric"
                        )
    return problems


def verify_causal_chains(payload: dict[str, _t.Any]) -> list[str]:
    """Check the acceptance property of an exported Fela trace.

    Every ``(iteration, level)`` that appears in the trace must contain
    at least one token with a *complete* lifecycle (all of
    ``minted -> buffered -> assigned -> trained -> reported``) plus the
    level's synchronization span.  Returns a list of problems (empty
    when every level has a complete minted->synced chain).
    """
    stages: dict[tuple[int, int], dict[int, set[str]]] = {}
    synced: set[tuple[int, int]] = set()
    lifecycle = set(TOKEN_LIFECYCLE)
    for event in complete_events(payload):
        args = event.get("args") or {}
        name = event.get("name")
        if name in lifecycle:
            key = (args.get("iteration"), args.get("level"))
            if None in key:
                continue
            stages.setdefault(key, {}).setdefault(
                args.get("token"), set()
            ).add(_t.cast(str, name))
        elif (
            name == EV_ALLREDUCE
            and "iteration" in args
            and "level" in args
        ):
            synced.add((args["iteration"], args["level"]))

    problems = []
    if not stages:
        problems.append("trace contains no token lifecycle events")
    for key in sorted(stages):
        complete = [
            tid
            for tid, seen in stages[key].items()
            if lifecycle <= seen
        ]
        if not complete:
            problems.append(
                f"iteration {key[0]} level {key[1]}: no token with a "
                "complete lifecycle"
            )
        elif key not in synced:
            problems.append(
                f"iteration {key[0]} level {key[1]}: lifecycle chains "
                "but no synchronization span"
            )
    return problems


# -- timeline bridge ----------------------------------------------------------


def timeline_spans(
    events: _t.Iterable[TraceEvent],
) -> _t.Iterator[tuple[int, str, float, float, str]]:
    """Map trace events to ``(worker, kind, start, end, label)`` spans.

    This is how the ASCII Gantt timeline is derived from the trace
    stream: ``token.trained`` spans become ``compute`` activity and
    ``worker.fetch`` spans become ``fetch`` activity, in emission order.
    """
    for event in events:
        if event.name == EV_TRAINED:
            kind = "compute"
        elif event.name == EV_FETCH:
            kind = "fetch"
        else:
            continue
        yield (
            event.track,
            kind,
            event.start,
            event.end,
            str(event.args.get("token_type", "")),
        )
