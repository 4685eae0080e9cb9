"""Toolkit for step-by-step natural-language reasoning explanations.

A reasoning explanation is modelled as a directed acyclic graph whose nodes
are textual logical units (context facts, question parts, answer options,
derivation steps, and a final answer) and whose edges connect each step's
premises to its conclusion. The package provides:

- a data model with validation (`graph`)
- a linearized text format with tolerant parsing (`codec`)
- segmentation of free text into textual logical units (`tlu`)
- node-similarity policies, including math-value matching and external
  scorers (`similarity`)
- graph edit distance by an anytime branch-and-bound search (`ged`)
- answer accuracy, graph accuracy, and graph similarity metrics (`metrics`)
- world simulators and corpus generators for state-manipulation tasks
  (`scone`)
- corpus ingestion, statistics, and inter-annotator agreement (`corpus`)
- a command-line interface (`cli`, console script `rgraph`)
"""

from .codec import (
    LinearizedExample,
    ModelProofParse,
    ParseFailure,
    components_from_block,
    parse,
    parse_model_output,
    render,
    serialize,
)
from .corpus import (
    CorpusRecord,
    DatasetStats,
    IngestReport,
    KappaResult,
    TaskStats,
    corpus_stats,
    fleiss_kappa,
    fleiss_kappa_details,
    ingest,
    ingest_lines,
    record_from_strings,
    render_stats,
    write_records,
)
from .errors import (
    AnswerTypeMismatchError,
    ExactnessBoundExceededError,
    ExternalScorerUnavailableError,
    FileUnreadableError,
    InsufficientRatersError,
    InvalidActionError,
    MissingAnswerNodeError,
    ReasoningGraphError,
    SchemaError,
)
from .ged import (
    DEFAULT_EXACT_BOUND,
    GedOutcome,
    approx_ged,
    exact_ged,
    ged,
)
from .graph import (
    AnswerValue,
    Choice,
    Node,
    NodeKind,
    Number,
    QaComponents,
    ReasoningGraph,
    Violation,
    WorldState,
    ancestors,
    build,
    extract_answer,
    topological_order,
    validate,
)
from .scone import SUB_TASKS, generate, generate_records
from .metrics import (
    QuestionScore,
    RunReport,
    ScoreRun,
    TaskBreakdown,
    aggregate,
    answer_accuracy,
    eq1_similarity,
    graph_similarity,
    reasoning_graph_accuracy,
    render_table,
    score_question,
    score_records,
)
from .similarity import (
    DEFAULT_SOFT_THRESHOLD,
    ExternalScorer,
    PolicyKind,
    SimilarityPolicy,
    builtin_overlap_score,
    default_policy,
    extract_math_values,
    sigma,
    sigma_exact,
    sigma_math,
    sigma_soft,
)
from .tasks import TASKS, AnswerType, TaskSpec, get_task
from .tlu import extract_tlus, segment, tokenize

__version__ = "0.1.0"

__all__ = [
    "AnswerType",
    "AnswerTypeMismatchError",
    "AnswerValue",
    "Choice",
    "CorpusRecord",
    "DEFAULT_EXACT_BOUND",
    "DEFAULT_SOFT_THRESHOLD",
    "DatasetStats",
    "ExactnessBoundExceededError",
    "ExternalScorer",
    "ExternalScorerUnavailableError",
    "FileUnreadableError",
    "GedOutcome",
    "IngestReport",
    "InsufficientRatersError",
    "InvalidActionError",
    "KappaResult",
    "LinearizedExample",
    "MissingAnswerNodeError",
    "ModelProofParse",
    "Node",
    "NodeKind",
    "Number",
    "ParseFailure",
    "PolicyKind",
    "QaComponents",
    "QuestionScore",
    "ReasoningGraph",
    "ReasoningGraphError",
    "RunReport",
    "SUB_TASKS",
    "SchemaError",
    "ScoreRun",
    "SimilarityPolicy",
    "TASKS",
    "TaskBreakdown",
    "TaskSpec",
    "TaskStats",
    "Violation",
    "WorldState",
    "aggregate",
    "ancestors",
    "answer_accuracy",
    "approx_ged",
    "build",
    "builtin_overlap_score",
    "components_from_block",
    "corpus_stats",
    "default_policy",
    "eq1_similarity",
    "exact_ged",
    "extract_answer",
    "extract_math_values",
    "extract_tlus",
    "fleiss_kappa",
    "fleiss_kappa_details",
    "ged",
    "generate",
    "generate_records",
    "get_task",
    "graph_similarity",
    "ingest",
    "ingest_lines",
    "parse",
    "parse_model_output",
    "reasoning_graph_accuracy",
    "record_from_strings",
    "render_stats",
    "render_table",
    "score_question",
    "score_records",
    "segment",
    "serialize",
    "sigma",
    "sigma_exact",
    "sigma_math",
    "sigma_soft",
    "tokenize",
    "topological_order",
    "validate",
    "write_records",
]
