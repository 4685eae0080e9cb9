"""Node-text similarity policies.

Whether two step texts "say the same thing" is task-dependent:

- exact: byte equality after trimming outer whitespace (state-manipulation
  tasks, whose step texts are templated);
- math-value-set: equality of the sets of numeric literals mentioned
  ("Natalia sold 48/2 = 24 clips in May" -> {48, 2, 24});
- soft-threshold: a learned or heuristic score must exceed a threshold
  (default 0.25). The score comes from an external scorer process when one
  is configured, else from the builtin token-overlap F1.

The external scorer protocol is line-oriented: the toolkit writes one JSON
record {"candidate": ..., "reference": ...} per pair to the scorer's stdin
and reads one decimal score per line from its stdout, in order. The scorer
must flush after every line. At most one scorer process runs at a time and
(candidate, reference) results are cached. A scorer that has not replied
REPLY_DEADLINE_S seconds after a request is killed and counts as
unavailable.
"""

from __future__ import annotations

import contextlib
import enum
import json
import os
import re
import select
import shlex
import string
import subprocess
import threading
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from .errors import ExternalScorerUnavailableError
from .tasks import TaskSpec

DEFAULT_SOFT_THRESHOLD = 0.25
REPLY_DEADLINE_S = 30.0  # longest wait for one scorer reply

_NUMBER_TOKEN_RE = re.compile(r"[-+]?(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?")
_SIGN_PRECEDERS = frozenset("=(")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


class PolicyKind(enum.Enum):
    EXACT = "exact"
    MATH_VALUE_SET = "math-value-set"
    SOFT_THRESHOLD = "soft-threshold"


def _close_pipes(proc: subprocess.Popen[bytes]) -> None:
    for pipe in (proc.stdin, proc.stdout):
        with contextlib.suppress(OSError):
            pipe.close()


class ExternalScorer:
    """Handle on a line-oriented external scoring process."""

    def __init__(self, command: str):
        self.command = command
        self._proc: subprocess.Popen[bytes] | None = None
        self._pending = b""  # bytes read past the last reply line
        self._poller = select.poll()  # readiness of the scorer's output
        self._lock = threading.Lock()
        self._cache: dict[tuple[str, str], float] = {}

    def _ensure_process(self) -> subprocess.Popen[bytes]:
        if self._proc is not None and self._proc.poll() is None:
            return self._proc
        try:
            self._proc = subprocess.Popen(
                shlex.split(self.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as e:
            raise ExternalScorerUnavailableError(
                f"could not start scorer {self.command!r}: {e}"
            ) from e
        self._pending = b""
        self._poller = select.poll()
        self._poller.register(self._proc.stdout.fileno(), select.POLLIN)
        return self._proc

    def _kill(self) -> None:
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.kill()
            proc.wait()
            _close_pipes(proc)

    def _read_reply(self, proc: subprocess.Popen[bytes]) -> bytes | None:
        """The next reply line; what is left, or None, at end of output.

        Kills the scorer and raises when it stays silent past the deadline.
        """
        fd = proc.stdout.fileno()
        while b"\n" not in self._pending:
            if not self._poller.poll(REPLY_DEADLINE_S * 1000):
                self._kill()
                raise ExternalScorerUnavailableError(
                    f"scorer {self.command!r} did not reply within {REPLY_DEADLINE_S}s"
                )
            chunk = os.read(fd, 65536)
            if not chunk:
                line, self._pending = self._pending, b""
                return line or None
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def score(self, candidate: str, reference: str) -> float:
        key = (candidate, reference)
        with self._lock:
            if key in self._cache:
                return self._cache[key]
            proc = self._ensure_process()
            record = json.dumps({"candidate": candidate, "reference": reference})
            try:
                assert proc.stdin is not None and proc.stdout is not None
                proc.stdin.write(record.encode("utf-8") + b"\n")
                proc.stdin.flush()
                reply = self._read_reply(proc)
            except (OSError, ValueError) as e:
                raise ExternalScorerUnavailableError(
                    f"scorer {self.command!r} pipe failed: {e}"
                ) from e
            if reply is None:
                raise ExternalScorerUnavailableError(
                    f"scorer {self.command!r} closed its output"
                )
            line = reply.decode("utf-8", errors="replace")
            try:
                value = float(line.strip())
            except ValueError:
                raise ExternalScorerUnavailableError(
                    f"scorer {self.command!r} wrote a non-numeric line: {line!r}"
                ) from None
            self._cache[key] = value
            return value

    def score_batch(self, pairs: list[tuple[str, str]]) -> list[float]:
        return [self.score(c, r) for c, r in pairs]

    def close(self) -> None:
        with self._lock:
            proc, self._proc = self._proc, None
            if proc is None:
                return
            if proc.poll() is None:
                try:
                    proc.stdin.close()
                    proc.terminate()
                    proc.wait(timeout=5)
                except OSError:
                    pass
            _close_pipes(proc)

    def __enter__(self) -> "ExternalScorer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class SimilarityPolicy:
    kind: PolicyKind
    threshold: float = DEFAULT_SOFT_THRESHOLD
    scorer: ExternalScorer | None = None  # None -> builtin overlap score


def default_policy(
    task: TaskSpec,
    scorer: ExternalScorer | None = None,
    threshold: float = DEFAULT_SOFT_THRESHOLD,
) -> SimilarityPolicy:
    """The similarity each task family uses by default."""
    if task.is_scone:
        return SimilarityPolicy(PolicyKind.EXACT)
    if task.family in ("gsm8k", "aqua-rat"):
        return SimilarityPolicy(PolicyKind.MATH_VALUE_SET)
    return SimilarityPolicy(PolicyKind.SOFT_THRESHOLD, threshold=threshold, scorer=scorer)


def sigma_exact(candidate: str, reference: str) -> bool:
    return candidate.strip() == reference.strip()


def extract_math_values(text: str) -> frozenset[Decimal]:
    """The set of numeric literals mentioned in a text.

    A literal is a maximal digit run with optional thousands commas and one
    optional decimal point. A leading sign is honored only where it cannot
    be an infix operator: at the start of the text or after '=' or '('
    (ignoring whitespace). Values are exact decimals, so 24 == 24.0 and the
    result is a set: duplicated mentions collapse.
    """
    values: set[Decimal] = set()
    for m in _NUMBER_TOKEN_RE.finditer(text):
        literal = m.group()
        if literal[0] in "+-":
            j = m.start() - 1
            while j >= 0 and text[j].isspace():
                j -= 1
            if j >= 0 and text[j] not in _SIGN_PRECEDERS:
                literal = literal[1:]
        try:
            values.add(Decimal(literal.replace(",", "")))
        except InvalidOperation:  # pragma: no cover - the regex precludes this
            continue
    return frozenset(values)


def sigma_math(candidate: str, reference: str) -> bool:
    return extract_math_values(candidate) == extract_math_values(reference)


def _overlap_tokens(text: str) -> Counter[str]:
    return Counter(text.lower().translate(_PUNCT_TABLE).split())


def builtin_overlap_score(candidate: str, reference: str) -> float:
    """Token-multiset F1 over lowercased, punctuation-stripped tokens."""
    cand = _overlap_tokens(candidate)
    ref = _overlap_tokens(reference)
    if not cand or not ref:
        return 1.0 if cand == ref else 0.0
    common = sum((cand & ref).values())
    if common == 0:
        return 0.0
    precision = common / sum(cand.values())
    recall = common / sum(ref.values())
    return 2 * precision * recall / (precision + recall)


def sigma_soft(candidate: str, reference: str, policy: SimilarityPolicy) -> bool:
    """True when the configured score strictly exceeds the threshold."""
    if policy.scorer is not None:
        score = policy.scorer.score(candidate, reference)
    else:
        score = builtin_overlap_score(candidate, reference)
    return score > policy.threshold


def sigma(policy: SimilarityPolicy, candidate: str, reference: str) -> bool:
    """Dispatch on the policy kind; candidate is the predicted text."""
    if policy.kind is PolicyKind.EXACT:
        return sigma_exact(candidate, reference)
    if policy.kind is PolicyKind.MATH_VALUE_SET:
        return sigma_math(candidate, reference)
    return sigma_soft(candidate, reference, policy)
