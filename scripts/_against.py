"""Compare two checkouts: run a sizing script's worker on each ``src/``.

A sizing script's ``--against DIR`` measures this checkout's ``src/``
and ``DIR/src`` each in a fresh interpreter: the script re-runs itself
as ``script --worker SRC ARGV...``, and the worker prints what it
measured as one JSON line, last, and exits 0. From one rep to the next
the trees alternate which goes first, so a drift of the machine falls
on both. Only ``src/`` differs between the trees — the script and this
helper always come from this checkout — so ``DIR`` may be an older
commit, as long as the script uses nothing that is not public API.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import median

SRC = Path(__file__).resolve().parents[1] / "src"


def trees(against: str | None) -> list[tuple[str, str]]:
    """``(name, src)`` per tree: ``"against"``'s if given, then
    ``"this"``."""
    this = [("this", str(SRC))]
    if against is None:
        return this
    return [("against", str(Path(against).resolve() / "src"))] + this


def run_once(
    script: Path, pair: list[tuple[str, str]], rep: int, argv: list[str]
) -> dict[str, object]:
    """Each tree's worker once, in rep ``rep``'s order: tree name → the
    JSON its worker printed last. A worker that fails ends the script
    (exit 2) after printing its stderr."""
    got = {}
    for name, src in pair if rep % 2 == 0 else pair[::-1]:
        done = subprocess.run(
            [sys.executable, str(script), "--worker", src, *argv],
            capture_output=True, text=True,
        )
        if done.returncode or not done.stdout.strip():
            print(f"{name} rep {rep}: worker failed")
            print(done.stderr)
            raise SystemExit(2)
        got[name] = json.loads(done.stdout.splitlines()[-1])
    return got


def alternate(
    script: Path, against: str, reps: int, argv: list[str]
) -> dict[str, list]:
    """``reps`` runs of both trees: tree name → each rep's JSON."""
    pair = trees(against)
    runs: dict[str, list] = {name: [] for name, _ in pair}
    for rep in range(reps):
        for name, got in run_once(script, pair, rep, argv).items():
            runs[name].append(got)
        print(f"rep {rep} done", flush=True)
    return runs


def medians(runs: dict[str, list], i: int, col: str) -> tuple[float, float]:
    """Row ``i``'s ``col``, the median over the reps: (against, this)."""
    a, t = (
        median(run[i][col] for run in runs[name])
        for name in ("against", "this")
    )
    return a, t


def compare(runs: dict[str, list], i: int, col: str, fmt=None) -> str:
    """Row ``i``'s ``col`` as a table cell: against / this /
    this ÷ against."""
    fmt = fmt or (lambda v: f"{v:.3f}")
    a, t = medians(runs, i, col)
    return f"{fmt(a)} / {fmt(t)} / " + (f"{t / a:.2f}" if a else "–")
