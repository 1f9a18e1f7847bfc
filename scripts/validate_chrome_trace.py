#!/usr/bin/env python
"""Validate a Chrome trace_event JSON file against the minimal schema.

Usage::

    python scripts/validate_chrome_trace.py trace.json [more.json ...]

Exit code 0 when every file passes; 1 with one line per violation
otherwise. The schema is the one ``repro trace`` promises (see
``repro.obs.validate_chrome_trace``): a ``traceEvents`` list of
complete ("X"), instant ("i"), and metadata ("M") events with the
required per-phase fields. ``tests/runtime/test_serve_command.py``
runs it over the traces ``repro trace`` writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import validate_chrome_trace  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: validate_chrome_trace.py TRACE_JSON [...]",
              file=sys.stderr)
        return 2
    failures = 0
    for arg in argv:
        try:
            payload = json.loads(Path(arg).read_text())
        except (OSError, ValueError) as exc:
            print(f"{arg}: unreadable: {exc}", file=sys.stderr)
            failures += 1
            continue
        errors = validate_chrome_trace(payload)
        if errors:
            for e in errors:
                print(f"{arg}: {e}", file=sys.stderr)
            failures += 1
        else:
            n = len(payload["traceEvents"])
            print(f"{arg}: ok ({n} events)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
