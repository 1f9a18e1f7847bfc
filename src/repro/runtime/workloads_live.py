"""Update-stream generators over the existing Datalog workloads.

A :class:`LiveWorkload` is a program plus an initial EDB plus a mutator
that fabricates *valid* update batches: insertions sample new facts
from the per-column value pools observed in the initial EDB (so joins
keep firing), deletions pick facts that are actually present (the
workload maintains a mirror of the EDB as batches are generated).
Everything is driven by a seeded generator — the same seed yields the
same stream, batch for batch.

Five stream shapes, per the paper's serving scenarios:

* ``steady`` — one modest batch per round (the drip-feed baseline);
* ``bursty`` — quiet rounds punctuated by multi-batch bursts (what the
  coalescing path exists for);
* ``hotkey`` — steady rate but heavily skewed toward one hot key, so
  the same downstream cone is re-maintained round after round;
* ``deletions`` — retraction-skewed batches (~80% deletions of
  present facts), the deletion-path stress the maintenance
  strategies differ on;
* ``mixed`` — real work interleaved with insert/retract churn pairs
  that exactly cancel under weighted coalescing, including whole
  rounds of pure churn (effective no-ops).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..datalog.ast import Program
from ..datalog.database import Database
from ..datalog.zset import Delta
from ..workloads.datalog_workloads import DATALOG_WORKLOADS

__all__ = [
    "PROGRAM_ALIASES",
    "STREAM_KINDS",
    "LiveWorkload",
    "live_workload",
    "make_stream",
]

#: CLI-friendly aliases → canonical workload names
PROGRAM_ALIASES = {
    "tc": "transitive_closure",
    "sg": "same_generation",
    "retail": "retail_rollup",
    "analytics": "retail_analytics",
    "flat": "retail_flat",
    "pt": "points_to",
    **{name: name for name in DATALOG_WORKLOADS},
}

STREAM_KINDS = ("steady", "bursty", "hotkey", "deletions", "mixed")


@dataclass
class LiveWorkload:
    """A program, its EDB, and a fabricator of valid update batches."""

    name: str
    program: Program
    edb: Database
    rng: np.random.Generator
    #: live mirror of EDB facts, updated as batches are generated
    _mirror: dict[str, set[tuple]] = field(default_factory=dict)
    #: per-predicate, per-column value pools sampled for insertions
    _pools: dict[str, list[list]] = field(default_factory=dict)
    #: the skew target for ``hotkey`` streams: (predicate, column-0 key)
    hot_key: tuple[str, object] | None = None

    def __post_init__(self) -> None:
        idb = self.program.idb_predicates()
        for pred, rel in self.edb.relations.items():
            if pred in idb or len(rel) == 0:
                continue
            facts = set(rel)
            self._mirror[pred] = facts
            arity = len(next(iter(facts)))
            self._pools[pred] = [
                sorted({f[i] for f in facts}, key=repr)
                for i in range(arity)
            ]
        if self._mirror:
            pred = max(self._mirror, key=lambda p: len(self._mirror[p]))
            vals = [f[0] for f in self._mirror[pred]]
            self.hot_key = (pred, max(set(vals), key=vals.count))

    # ------------------------------------------------------------------
    def _sample_fact(self, pred: str, hot: bool) -> tuple:
        pools = self._pools[pred]
        fact = [
            pool[int(self.rng.integers(0, len(pool)))] for pool in pools
        ]
        if hot and self.hot_key is not None and pred == self.hot_key[0]:
            fact[0] = self.hot_key[1]
        return tuple(fact)

    def random_batch(
        self, size: int = 2, hot: bool = False, delete_frac: float = 0.3
    ) -> Delta:
        """One valid update batch of ``size`` operations.

        ``delete_frac`` of the ops (30% by default) are deletions of
        currently-present facts, the rest insertions; with ``hot`` the
        ops target the hot key's predicate and pin its first column.
        A deletion falls back to an insertion when its relation has
        emptied, so delete-heavy streams never starve.
        """
        delta = Delta()
        preds = sorted(self._mirror)
        if not preds:
            return delta
        weights = np.array(
            [len(self._mirror[p]) for p in preds], dtype=np.float64
        )
        weights /= weights.sum()
        for _ in range(size):
            if hot and self.hot_key is not None:
                pred = self.hot_key[0]
            else:
                pred = preds[int(self.rng.choice(len(preds), p=weights))]
            facts = self._mirror[pred]
            if self.rng.random() < delete_frac and facts:
                victim = sorted(facts, key=repr)[
                    int(self.rng.integers(0, len(facts)))
                ]
                delta.delete(pred, victim)
                facts.discard(victim)
            else:
                fact = self._sample_fact(pred, hot)
                for _retry in range(4):
                    if fact not in facts:
                        break
                    fact = self._sample_fact(pred, hot)
                delta.insert(pred, fact)
                facts.add(fact)
        return delta

    def churn_batches(self, size: int = 2) -> list[Delta]:
        """A pair of batches that exactly cancel under coalescing.

        The first inserts ``size`` fresh (absent) facts, the second
        deletes the same facts again. Merged into one round, every
        operation cancels — the effective weighted delta is empty —
        so the service can skip the corresponding compile and index
        work. The mirror is untouched (the pair is a net no-op).
        """
        ins, dels = Delta(), Delta()
        preds = sorted(self._pools)
        if not preds:
            return [ins, dels]
        for _ in range(size):
            pred = preds[int(self.rng.integers(0, len(preds)))]
            present = self._mirror.get(pred, set())
            fact = self._sample_fact(pred, False)
            for _retry in range(4):
                if fact not in present:
                    break
                fact = self._sample_fact(pred, False)
            if fact in present:
                # pool exhausted for this predicate — a present fact
                # would net to a real deletion, not a cancellation
                continue
            ins.insert(pred, fact)
            dels.delete(pred, fact)
        return [ins, dels]


def live_workload(
    name: str, seed: int = 0, **kwargs
) -> LiveWorkload:
    """Build a named workload (alias or canonical) for live streaming.

    The workload factory's built-in one-shot delta is discarded — live
    streams fabricate their own batches.
    """
    try:
        canonical = PROGRAM_ALIASES[name]
    except KeyError:
        raise KeyError(
            f"unknown live program {name!r}; "
            f"choose from {sorted(PROGRAM_ALIASES)}"
        ) from None
    program, edb, _delta = DATALOG_WORKLOADS[canonical](**kwargs)
    return LiveWorkload(
        name=canonical,
        program=program,
        edb=edb,
        rng=np.random.default_rng(seed),
    )


def make_stream(
    workload: LiveWorkload,
    kind: str,
    rounds: int,
    batch_size: int = 2,
    burst_every: int = 4,
    burst_batches: int = 5,
) -> Iterator[list[Delta]]:
    """Yield ``rounds`` lists of update batches (one list per round).

    ``steady`` yields one batch per round; ``bursty`` yields one small
    batch on quiet rounds and ``burst_batches`` batches every
    ``burst_every``-th round; ``hotkey`` is steady-rate but skewed to
    the workload's hot key; ``deletions`` is steady-rate but ~80%
    retractions; ``mixed`` pairs a real batch with cancelling
    insert/retract churn, and every third round is pure churn (an
    effective no-op round). Batches within a round are what the
    service coalesces.
    """
    if kind not in STREAM_KINDS:
        raise ValueError(
            f"unknown stream kind {kind!r}; choose from {STREAM_KINDS}"
        )
    for i in range(rounds):
        if kind == "steady":
            yield [workload.random_batch(batch_size)]
        elif kind == "hotkey":
            yield [workload.random_batch(batch_size, hot=True)]
        elif kind == "deletions":
            yield [workload.random_batch(batch_size, delete_frac=0.8)]
        elif kind == "mixed":
            if (i + 1) % 3 == 0:
                yield workload.churn_batches(batch_size)
            else:
                yield [
                    workload.random_batch(batch_size),
                    *workload.churn_batches(max(1, batch_size // 2)),
                ]
        else:  # bursty
            if (i + 1) % burst_every == 0:
                yield [
                    workload.random_batch(batch_size)
                    for _ in range(burst_batches)
                ]
            else:
                yield [workload.random_batch(1)]
