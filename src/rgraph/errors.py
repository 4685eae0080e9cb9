"""Exception types shared across the toolkit.

Batch-facing operations (model-output parsing, corpus ingestion, scoring)
never let these escape a record boundary: they are caught and converted to
per-record failure values so one bad record cannot abort a run.
"""

from __future__ import annotations


class ReasoningGraphError(Exception):
    """Base class for all toolkit errors."""


# --- graph construction / traversal ---


class GraphError(ReasoningGraphError):
    pass


class DanglingPremiseError(GraphError):
    """A step references a premise id that has not been assigned yet."""


class CycleError(GraphError):
    """The edge set contains a directed cycle."""


class EmptyStepTextError(GraphError):
    """A node text is empty after whitespace trimming."""


class UnknownNodeError(GraphError):
    """An operation referenced a node id that is not in the graph."""


# --- answer extraction ---


class AnswerError(ReasoningGraphError):
    pass


class MissingAnswerNodeError(AnswerError):
    """No unique sink node starting with the answer prefix was found."""


class UnparseableAnswerTextError(AnswerError):
    """The answer node text does not contain a recognizable answer value."""


class AnswerTypeMismatchError(AnswerError):
    """Two answer values of different variants were compared."""


# --- linearized text codec ---


class CodecError(ReasoningGraphError):
    pass


class ProofSyntaxError(CodecError):
    """A clause failed to parse.

    Carries the character position within the block and a short description
    of what was expected there.
    """

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"at {position}: expected {expected}")


class NonConsecutiveStepIdError(CodecError):
    """A step target id does not continue the 1-based consecutive numbering."""


class DuplicateStepIdError(CodecError):
    """A step target id was assigned twice."""


# --- similarity ---


class ExternalScorerUnavailableError(ReasoningGraphError):
    """The external scorer process could not be started or stopped responding."""


# --- graph edit distance ---


class ExactnessBoundExceededError(ReasoningGraphError):
    """The editable step count exceeds the exact solver's bound."""


# --- world simulators ---


class InvalidActionError(ReasoningGraphError):
    """An action's preconditions do not hold in the current world state."""


# --- corpus ---


class CorpusError(ReasoningGraphError):
    pass


class FileUnreadableError(CorpusError):
    pass


class SchemaError(CorpusError):
    """A corpus line is not a valid record. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")

    def __reduce__(self):  # rebuilt from both fields when it crosses a process boundary
        return SchemaError, (self.line_no, self.message)


class InsufficientRatersError(CorpusError):
    """Rating counts do not describe >= 2 raters per item (or are uneven)."""
