"""Command-line interface.

Subcommands: validate, score, stats, scone-gen, tlu. Every flag can also be
set through an environment variable with the RGRAPH_ prefix (flag --scorer-cmd
becomes RGRAPH_SCORER_CMD); explicit flags win.

Exit codes: 0 success, 1 data findings (invalid records, unscorable
predictions), 2 environment or usage failure. Reports never include wall
times, so outputs are byte-identical across parallelism settings; timing
goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import time
from typing import Callable, Sequence, TextIO

from .corpus import (
    CorpusRecord,
    corpus_stats,
    ingest,
    render_stats,
    write_records,
)
from .errors import (
    ExternalScorerUnavailableError,
    FileUnreadableError,
    ReasoningGraphError,
)
from .metrics import aggregate, render_table, score_lines
from .scone import DEFAULT_N_ACTIONS, SUB_TASKS, generate_records
from .similarity import DEFAULT_SOFT_THRESHOLD, ExternalScorer
from .tasks import TASKS, get_task
from .tlu import segment

ENV_PREFIX = "RGRAPH_"


def _env_name(flag: str) -> str:
    return ENV_PREFIX + flag.lstrip("-").upper().replace("-", "_")


def _env(flag: str, fallback=None):
    return os.environ.get(_env_name(flag), fallback)


def _add_common_scoring_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scorer-cmd",
        default=_env("--scorer-cmd"),
        help="external similarity scorer command (line-oriented JSON protocol)",
    )
    p.add_argument(
        "--scorer-threshold",
        type=float,
        default=_env("--scorer-threshold", DEFAULT_SOFT_THRESHOLD),
        help="soft-similarity acceptance threshold (score must exceed it)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=_env("--jobs", 1),
        help="worker processes (an external scorer forces 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgraph",
        description="Validate, score, and generate step-by-step reasoning graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="check every record in a corpus file"
    )
    p_validate.add_argument("--in", dest="infile", default=_env("--in"), required=_env("--in") is None)
    p_validate.add_argument("--task", default=_env("--task"), help="restrict to one task")
    p_validate.set_defaults(func=cmd_validate)

    p_score = sub.add_parser(
        "score", help="score predicted proofs against gold graphs"
    )
    p_score.add_argument("--in", dest="infile", default=_env("--in"), required=_env("--in") is None)
    p_score.add_argument(
        "--out",
        default=_env("--out"),
        help="output prefix (default: input path without extension); writes "
        "<prefix>.scores.jsonl and <prefix>.report.json",
    )
    p_score.add_argument("--task", default=_env("--task"), help="restrict to one task")
    _add_common_scoring_flags(p_score)
    p_score.set_defaults(func=cmd_score)

    p_stats = sub.add_parser("stats", help="dataset statistics over gold graphs")
    p_stats.add_argument("--in", dest="infile", default=_env("--in"), required=_env("--in") is None)
    p_stats.add_argument(
        "--out",
        default=_env("--out"),
        help="output prefix (default: input path without extension); writes "
        "<prefix>.stats.json",
    )
    p_stats.add_argument("--task", default=_env("--task"), help="restrict to one task")
    p_stats.set_defaults(func=cmd_stats)

    p_gen = sub.add_parser(
        "scone-gen", help="generate state-manipulation records"
    )
    p_gen.add_argument(
        "--task",
        default=_env("--task"),
        required=_env("--task") is None,
        help="sub-task: alchemy, scene, or tangrams",
    )
    p_gen.add_argument("--n", type=int, default=_env("--n", 10), help="number of records")
    p_gen.add_argument(
        "--steps",
        type=int,
        default=_env("--steps", DEFAULT_N_ACTIONS),
        help="actions per record",
    )
    p_gen.add_argument("--seed", type=int, default=_env("--seed", 0))
    p_gen.add_argument("--out", default=_env("--out"), help="output file (default: stdout)")
    p_gen.add_argument(
        "--with-predictions",
        action="store_true",
        default=_env("--with-predictions") is not None,
        help="copy each gold proof into predicted_proof (self-scoring corpora)",
    )
    p_gen.set_defaults(func=cmd_scone_gen)

    p_tlu = sub.add_parser("tlu", help="split text into textual logical units")
    p_tlu.add_argument(
        "--file",
        "--in",
        dest="infile",
        default=_env("--file", _env("--in")),
        help="read the text from a file",
    )
    p_tlu.add_argument("--text", default=_env("--text"), help="inline text to split")
    p_tlu.set_defaults(func=cmd_tlu)

    return parser


def _check_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if getattr(args, "scorer_threshold", None) is not None:
        if not 0.0 <= args.scorer_threshold <= 1.0:
            parser.error("--scorer-threshold must be in [0, 1]")
    if getattr(args, "jobs", None) is not None:
        if args.jobs < 1:
            parser.error("--jobs must be at least 1")
    if getattr(args, "n", None) is not None and args.n < 1:
        parser.error("--n must be at least 1")
    if getattr(args, "steps", None) is not None and args.steps < 1:
        parser.error("--steps must be at least 1")
    task = getattr(args, "task", None)
    if task is not None and args.command != "scone-gen":
        try:
            get_task(task)
        except KeyError:
            parser.error(
                f"unknown task {task!r}; known: {', '.join(sorted(TASKS))}"
            )


def _filter_task(records: Sequence[CorpusRecord], task: str | None):
    if task is None:
        return list(records)
    name = get_task(task).name
    return [r for r in records if r.task.name == name]


def cmd_validate(args: argparse.Namespace) -> int:
    report = ingest(args.infile)
    for err in report.errors:
        print(f"invalid: {err}")
    records = _filter_task(report.records, args.task)
    print(f"{len(records)} valid records, {len(report.errors)} invalid lines")
    return 1 if report.errors else 0


def _out_prefix(args: argparse.Namespace) -> str:
    if args.out:
        return args.out
    return os.path.splitext(args.infile)[0]


def _write_all(outputs: list[tuple[str, Callable[[TextIO], None]]]) -> None:
    """Write each file to a temporary sibling, then rename them all into place.

    A failure before the renames leaves the previous files as they were and
    no temporary file behind.
    """
    temps: list[str] = []
    try:
        for path, write in outputs:
            temps.append(f"{path}.{os.getpid()}.tmp")
            with open(temps[-1], "w", encoding="utf-8") as fh:
                write(fh)
        for temp, (path, _) in zip(temps, outputs):
            os.replace(temp, path)
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def cmd_score(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    task = get_task(args.task).name if args.task else None
    scorer = ExternalScorer(args.scorer_cmd) if args.scorer_cmd else None
    try:
        with open(args.infile, encoding="utf-8") as fh:
            n_lines = sum(1 for _ in fh)
            fh.seek(0)
            run, errors = score_lines(
                fh, n_lines, task, scorer, args.scorer_threshold, args.jobs
            )
    finally:
        if scorer is not None:
            scorer.close()
    for err in errors:
        print(f"invalid: {err}", file=sys.stderr)
    result = aggregate(run)
    scorer_kind = (
        f"external:{args.scorer_cmd}" if args.scorer_cmd else "builtin-overlap"
    )

    def write_scores(fh: TextIO) -> None:
        for score in run.scores:
            fh.write(json.dumps(score.to_json(), ensure_ascii=False) + "\n")

    def write_report(fh: TextIO) -> None:
        payload = {"scorer": scorer_kind, **result.to_json()}
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")

    prefix = _out_prefix(args)
    _write_all(
        [(prefix + ".scores.jsonl", write_scores), (prefix + ".report.json", write_report)]
    )

    print(render_table(result))
    print(f"scorer: {scorer_kind}")
    if result.fallback_similarity:
        print(
            "note: the external scorer became unavailable mid-run; remaining "
            "pairs used the builtin overlap score (fallback-similarity)"
        )
    exact_fraction = result.overall.ged_exact_fraction
    if exact_fraction is not None:
        print(f"edit distances solved exactly: {exact_fraction:.1%}")
    if run.skipped:
        print(f"skipped (no predicted_proof): {len(run.skipped)}")
    elapsed = time.perf_counter() - started
    print(
        f"scored {len(run.scores)} records in {elapsed:.2f}s "
        f"(jobs={args.jobs})",
        file=sys.stderr,
    )
    return 1 if errors or run.skipped else 0


def cmd_stats(args: argparse.Namespace) -> int:
    report = ingest(args.infile)
    for err in report.errors:
        print(f"invalid: {err}", file=sys.stderr)
    records = _filter_task(report.records, args.task)
    stats = corpus_stats(records)
    print(render_stats(stats))

    def write_stats(fh: TextIO) -> None:
        json.dump(stats.to_json(), fh, ensure_ascii=False, indent=2)
        fh.write("\n")

    _write_all([(_out_prefix(args) + ".stats.json", write_stats)])
    return 1 if report.errors else 0


def cmd_scone_gen(args: argparse.Namespace) -> int:
    sub_task = re.sub(r"^scone[-_]", "", args.task.strip().lower())
    if sub_task not in SUB_TASKS:
        print(
            f"error: unknown sub-task {args.task!r}; "
            f"choose from {', '.join(SUB_TASKS)}",
            file=sys.stderr,
        )
        return 2
    records = generate_records(
        args.seed, sub_task, args.n, args.steps, args.with_predictions
    )
    if args.out:
        write_records(args.out, records)
    else:
        for record in records:
            print(json.dumps(record.to_json(), ensure_ascii=False))
    return 0


def cmd_tlu(args: argparse.Namespace) -> int:
    if args.text is not None:
        text = args.text
    elif args.infile:
        try:
            with open(args.infile, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise FileUnreadableError(f"cannot read {args.infile}: {e}") from e
    else:
        text = sys.stdin.read()
    for i, tlu in enumerate(segment(text), start=1):
        print(f"({i}) {tlu}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_config(parser, args)
    try:
        return args.func(args)
    except FileUnreadableError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ExternalScorerUnavailableError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ReasoningGraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
