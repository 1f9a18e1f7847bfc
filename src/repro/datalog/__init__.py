"""A from-scratch Datalog engine: the substrate the paper's schedulers serve.

Parsing → stratification → semi-naive materialization → incremental
maintenance (weighted Z-set deltas, the static DAG ``G`` run over
committed node values) → compilation of an update into the
computation-DAG job traces that :mod:`repro.schedulers` schedules.
"""

from .ast import (
    Atom,
    Comparison,
    Constant,
    Literal,
    Program,
    Rule,
    Variable,
)
from .columnar import (
    ColumnarRelation,
    InternPool,
    InternTable,
    eval_rule_columnar,
)
from .compiler import CompiledUpdate, compile_update
from .database import Database, Relation
from .depgraph import DependencyGraph, StratificationError
from .incremental import IncrementalEngine, MaintenanceTrace
from .parser import (
    ParseError,
    parse_program,
    parse_program_lenient,
    parse_rule,
)
from .plancache import CompiledProgramCache
from .provenance import Derivation, explain
from .query import parse_goal, query, query_facts
from .seminaive import EvaluationTrace, naive_evaluate, seminaive_evaluate
from .zset import (
    Delta,
    ZSetDelta,
    apply_delta,
    apply_zdelta,
    effective_zdelta,
    merge_deltas,
)

__all__ = [
    "Variable",
    "Constant",
    "Atom",
    "Comparison",
    "Literal",
    "Rule",
    "Program",
    "parse_program",
    "parse_program_lenient",
    "parse_rule",
    "ParseError",
    "Database",
    "Relation",
    "DependencyGraph",
    "StratificationError",
    "naive_evaluate",
    "seminaive_evaluate",
    "EvaluationTrace",
    "Delta",
    "ZSetDelta",
    "apply_zdelta",
    "effective_zdelta",
    "InternTable",
    "InternPool",
    "ColumnarRelation",
    "eval_rule_columnar",
    "IncrementalEngine",
    "apply_delta",
    "merge_deltas",
    "MaintenanceTrace",
    "compile_update",
    "CompiledUpdate",
    "CompiledProgramCache",
    "explain",
    "Derivation",
    "parse_goal",
    "query",
    "query_facts",
]
