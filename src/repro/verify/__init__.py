"""Correctness tooling for schedulers and the Datalog programs they run.

Three legs, all wired into CI and the ``repro verify`` CLI:

* :mod:`repro.verify.lint` — an AST pass over scheduler source that
  enforces the :mod:`repro.schedulers.base` contract statically
  (no clairvoyance, honest ops accounting, structural API rules);
* :mod:`repro.verify.program` — a whole-program static analyzer for
  Datalog sources: safety, stratification cycles, arity/schema
  consistency, dead rules, duplicate/subsumed rules, cartesian joins —
  plus the join-order hints the plan cache consumes at runtime;
* :mod:`repro.verify.invariants` — an offline checker that re-derives
  ground truth from a :class:`~repro.tasks.JobTrace` and verifies a
  recorded :class:`~repro.sim.SimulationResult` end to end, including
  the paper's makespan bounds (Lemma 3/5, Theorem 9).

The two static passes share one finding shape, severity levels, and
suppression syntax (:mod:`repro.verify.diagnostics`), so their output
is interchangeable for tooling. ``simulate(..., strict=True)`` runs the
invariant checker after every simulation and raises
:class:`InvariantViolationError` on failure.
"""

from .diagnostics import (
    SEVERITIES,
    Finding,
    apply_suppressions,
    findings_to_json,
    format_findings,
)
from .invariants import (
    VIOLATION_KINDS,
    InvariantViolationError,
    VerificationReport,
    Violation,
    check_invariants,
)
from .lint import (
    ALL_RULES,
    LintFinding,
    lint_modules,
    lint_paths,
    lint_source,
)
from .program import (
    ALL_PROGRAM_RULES,
    ProgramAnalysis,
    analyze_path,
    analyze_program,
    analyze_source,
)

__all__ = [
    "SEVERITIES",
    "Finding",
    "apply_suppressions",
    "findings_to_json",
    "format_findings",
    "ALL_RULES",
    "LintFinding",
    "lint_source",
    "lint_modules",
    "lint_paths",
    "ALL_PROGRAM_RULES",
    "ProgramAnalysis",
    "analyze_path",
    "analyze_program",
    "analyze_source",
    "VIOLATION_KINDS",
    "Violation",
    "VerificationReport",
    "InvariantViolationError",
    "check_invariants",
]
