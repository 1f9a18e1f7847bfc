"""Stationary, seeded update streams for the end-to-end benchmark.

``repro.runtime.workloads_live.LiveWorkload.random_batch`` picks the
predicate of every operation in proportion to the relation's *current*
size, so a balanced insert/delete stream random-walks relations to
empty: a long run measures an emptying database, not a steady state.
This generator keeps the database's shape fixed instead:

* predicate weights are frozen at the initial relation sizes;
* inserted facts are drawn from per-column value pools taken from the
  initial EDB, so joins keep firing;
* a *replace* operation deletes one present fact and inserts one absent
  fact of the same predicate, so every relation keeps its size;
* :func:`premix` replaces the hand-built initial structure (the
  transitive-closure chain, say) by facts of the stream's own
  distribution *before* the service exists, so round cost does not
  drift while that structure is churned away during measurement.

Everything is drawn from one ``random.Random(seed)``: the same seed
gives the same stream, batch for batch. The program under test only
ever receives the plain :class:`~repro.datalog.incremental.Delta`
objects built here.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from repro.datalog.ast import Program
from repro.datalog.database import Database
from repro.datalog.incremental import Delta, apply_delta

#: draws allowed when looking for a fact the relation does not hold
_ABSENT_RETRIES = 256

#: draws one candidate fact of a predicate
Sampler = Callable[[random.Random], tuple]


class StationaryStream:
    """Seeded generator of size-preserving update batches.

    ``mirror`` tracks the EDB the stream has produced so far; the
    harness compares it with the service's database after a run.
    ``samplers`` replaces the column-pool draw of the predicates it
    names, for a workload whose facts must keep a structure.
    """

    def __init__(
        self,
        program: Program,
        edb: Database,
        seed: int,
        samplers: dict[str, Sampler] | None = None,
    ) -> None:
        self.rng = random.Random(seed)
        self._samplers = samplers or {}
        idb = program.idb_predicates()
        #: predicate → its present facts, in a seed-determined order
        self._facts: dict[str, list[tuple]] = {}
        self._present: dict[str, set[tuple]] = {}
        self._pools: dict[str, list[list]] = {}
        for pred in sorted(edb.relations):
            rel = edb.relations[pred]
            if pred in idb or len(rel) == 0:
                continue
            facts = sorted(rel, key=repr)
            self._facts[pred] = facts
            self._present[pred] = set(facts)
            self._pools[pred] = [
                sorted({f[i] for f in facts}, key=repr)
                for i in range(len(facts[0]))
            ]
        # a relation that holds most combinations of its pools (all of
        # them for retail's store_open) has no absent fact to draw
        self.preds = [
            p for p, pools in self._pools.items()
            if p in self._samplers
            or math.prod(len(c) for c in pools) > 2 * len(self._facts[p])
        ]
        if not self.preds:
            raise ValueError("no updatable EDB predicate")
        self._cum_weights: list[int] = []
        total = 0
        for p in self.preds:
            total += len(self._facts[p])
            self._cum_weights.append(total)

    # ------------------------------------------------------------------
    def sizes(self) -> dict[str, int]:
        """Present facts per predicate."""
        return {p: len(f) for p, f in self._facts.items()}

    def mirror(self) -> dict[str, set[tuple]]:
        """The EDB this stream has produced so far."""
        return {p: set(f) for p, f in self._present.items()}

    def _pick_pred(self) -> str:
        return self.rng.choices(
            self.preds, cum_weights=self._cum_weights
        )[0]

    def _take_present(self, pred: str) -> tuple:
        facts = self._facts[pred]
        if not facts:
            raise RuntimeError(f"relation {pred!r} ran empty")
        i = self.rng.randrange(len(facts))
        facts[i], facts[-1] = facts[-1], facts[i]
        fact = facts.pop()
        self._present[pred].discard(fact)
        return fact

    def _draw_absent(self, pred: str) -> tuple:
        present = self._present[pred]
        pools = self._pools[pred]
        sampler = self._samplers.get(pred)
        for _ in range(_ABSENT_RETRIES):
            if sampler is not None:
                fact = sampler(self.rng)
            else:
                fact = tuple(self.rng.choice(pool) for pool in pools)
            if fact not in present:
                return fact
        raise RuntimeError(f"no absent fact found for {pred!r}")

    def _put(self, pred: str, fact: tuple) -> None:
        self._facts[pred].append(fact)
        self._present[pred].add(fact)

    # ------------------------------------------------------------------
    def replace_batch(self, n: int) -> Delta:
        """``n`` replace ops: each deletes one present fact and inserts
        one absent fact of the same predicate."""
        delta = Delta()
        for _ in range(n):
            pred = self._pick_pred()
            delta.delete(pred, self._take_present(pred))
            fact = self._draw_absent(pred)
            delta.insert(pred, fact)
            self._put(pred, fact)
        return delta

    def insert_batch(self, n: int) -> Delta:
        """``n`` insertions of absent facts."""
        delta = Delta()
        for _ in range(n):
            pred = self._pick_pred()
            fact = self._draw_absent(pred)
            delta.insert(pred, fact)
            self._put(pred, fact)
        return delta

    def delete_batch(self, n: int) -> Delta:
        """``n`` deletions of present facts."""
        delta = Delta()
        for _ in range(n):
            pred = self._pick_pred()
            delta.delete(pred, self._take_present(pred))
        return delta

    def churn_pair(self, n: int) -> list[Delta]:
        """Two batches that cancel when coalesced into one round: the
        first inserts ``n`` absent facts, the second deletes them."""
        ins, dels = Delta(), Delta()
        for _ in range(n):
            pred = self._pick_pred()
            fact = self._draw_absent(pred)
            ins.insert(pred, fact)
            dels.delete(pred, fact)
        return [ins, dels]


def premix(stream: StationaryStream, edb: Database, factor: int = 3) -> Database:
    """``edb`` after ``factor × |EDB|`` replace ops drawn from ``stream``."""
    n_ops = factor * sum(stream.sizes().values())
    return apply_delta(edb, stream.replace_batch(n_ops))
