"""Trace exporters: Chrome ``trace_event`` JSON and flat JSONL.

The Chrome form is the ``{"traceEvents": [...]}`` object format that
``chrome://tracing`` and Perfetto load directly: complete (``"X"``)
events for spans, instant (``"i"``) events for markers, and metadata
(``"M"``) events naming the two clock-domain "processes" (runtime wall
clock vs simulated clock) and each worker thread. Timestamps are
microseconds, per the format.

The JSONL form is one self-describing JSON object per record — the
greppable flat log for ad-hoc analysis (``jq``-friendly), carrying the
same spans with seconds-resolution floats and the parent-span link the
Chrome format only encodes positionally.

:func:`validate_chrome_trace` is the minimal schema check
``tests/runtime/test_serve_command.py::test_trace_smoke`` runs over a
traced stream's trace — it validates exactly the invariants the
exporters promise, nothing more, so it needs no external JSON-schema
dependency.
"""

from __future__ import annotations

import json
from typing import IO, Any

from .trace import PID_REAL, PID_SIM, SpanRecord, TraceRecorder

__all__ = [
    "chrome_trace",
    "jsonl_records",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]

_PROCESS_NAMES = {
    PID_REAL: "runtime (wall clock)",
    PID_SIM: "simulator (sim clock)",
}


def chrome_trace(recorder: TraceRecorder) -> dict[str, Any]:
    """The recorder's records as a Chrome ``trace_event`` object."""
    records = recorder.records()
    events: list[dict[str, Any]] = []
    pids = sorted({r.pid for r in records}) or [PID_REAL]
    for pid in pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": _PROCESS_NAMES.get(pid, f"pid {pid}")},
            }
        )
    for tid, label in sorted(recorder.thread_names().items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PID_REAL,
                "tid": tid,
                "ts": 0,
                "args": {"name": label},
            }
        )
    for r in records:
        if r.t1 is None:
            events.append(
                {
                    "name": r.name,
                    "cat": r.cat,
                    "ph": "i",
                    "s": "t",
                    "ts": r.t0 * 1e6,
                    "pid": r.pid,
                    "tid": r.tid,
                    "args": r.args,
                }
            )
        else:
            events.append(
                {
                    "name": r.name,
                    "cat": r.cat,
                    "ph": "X",
                    "ts": r.t0 * 1e6,
                    "dur": max(0.0, (r.t1 - r.t0) * 1e6),
                    "pid": r.pid,
                    "tid": r.tid,
                    "args": r.args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(recorder: TraceRecorder, fh: IO[str]) -> int:
    """Write the Chrome-trace JSON; returns the number of events."""
    payload = chrome_trace(recorder)
    json.dump(payload, fh, default=str)
    fh.write("\n")
    return len(payload["traceEvents"])


def _jsonl_record(r: SpanRecord) -> dict[str, Any]:
    out: dict[str, Any] = {
        "type": "instant" if r.t1 is None else "span",
        "name": r.name,
        "cat": r.cat,
        "t0_s": r.t0,
        "pid": r.pid,
        "tid": r.tid,
    }
    if r.t1 is not None:
        out["dur_s"] = r.t1 - r.t0
    if r.parent is not None:
        out["parent"] = r.parent
    if r.args:
        out["args"] = r.args
    return out


def jsonl_records(recorder: TraceRecorder) -> list[dict[str, Any]]:
    """The flat-log form, one plain dict per record."""
    return [_jsonl_record(r) for r in recorder.records()]


def write_jsonl(recorder: TraceRecorder, fh: IO[str]) -> int:
    """Write one JSON object per line; returns the number of lines."""
    n = 0
    for rec in jsonl_records(recorder):
        fh.write(json.dumps(rec, default=str))
        fh.write("\n")
        n += 1
    return n


# ----------------------------------------------------------------------
# minimal schema validation (what test_trace_smoke runs over a trace)
# ----------------------------------------------------------------------
_VALID_PH = {"X", "i", "M"}
_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")


def validate_chrome_trace(payload: Any) -> list[str]:
    """Check a Chrome-trace payload against the minimal schema.

    Returns a list of human-readable problems (empty = valid): the
    top-level shape, the per-event required keys, phase-specific fields
    (``dur`` for complete events, ``s`` for instants, ``args.name`` for
    metadata), and type sanity for every field the exporters emit.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["top level must carry a 'traceEvents' list"]
    if not events:
        errors.append("'traceEvents' is empty")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        missing = [k for k in _REQUIRED_KEYS if k not in ev]
        if missing:
            errors.append(f"{where}: missing keys {missing}")
            continue
        ph = ev["ph"]
        if ph not in _VALID_PH:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev["name"], str):
            errors.append(f"{where}: 'name' must be a string")
        if not isinstance(ev["ts"], (int, float)):
            errors.append(f"{where}: 'ts' must be a number")
        for k in ("pid", "tid"):
            if not isinstance(ev[k], int):
                errors.append(f"{where}: {k!r} must be an integer")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(
                    f"{where}: complete event needs a non-negative 'dur'"
                )
        elif ph == "i":
            if ev.get("s") not in ("t", "p", "g"):
                errors.append(
                    f"{where}: instant event needs scope 's' in t/p/g"
                )
        elif ph == "M":
            args = ev.get("args")
            if not isinstance(args, dict) or not isinstance(
                args.get("name"), str
            ):
                errors.append(
                    f"{where}: metadata event needs args.name string"
                )
    return errors
