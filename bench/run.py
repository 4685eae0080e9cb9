#!/usr/bin/env python3
"""Benchmark of `rgraph score`, end to end (--trace 0) or layer by layer (--trace 1).

    python3 bench/run.py --workload acc9-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is run from `src/` of
that checkout. The run generates the workload's corpus from --seed under
`.bench_work/`, measures for --seconds (whole rounds that fit, at least one), checks
the outputs against `reference.py`, writes a record of the run to
`.bench_runs/`, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

A round of an end-to-end run scores the whole corpus at --jobs 1 and at
--jobs N, N being the number of usable CPUs, with one scoring of a
one-record slice before, between and after them. Each record of a
whole-corpus scoring is one attempted operation, and a record whose output
fails a check a failed one, so the failed share is the same in every run;
the slice scorings only time start-up. The traced run scores the corpus in
this process with the layer functions rebound (see tracer.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import corpora  # noqa: E402
import reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402

RUN_LIMIT_S = 170  # a run ends within this, or is killed with no result
STARTED = time.monotonic()
ENTRY = "import sys; from rgraph.cli import main; sys.exit(main())"
WORKLOADS = {
    # name: (records, generator, output check, uses the stub scorer)
    "acc9-mixed": (10_000, corpora.acc9_mixed, checks.check_acc9, False),
    "ged-stress": (1_400, corpora.ged_stress, checks.check_edited, False),
    "soft-scorer": (350, corpora.soft_scorer, checks.check_edited, True),
}
MICRO_LIMIT = 2_000  # texts for tlu.segment, records for scone.generate_records


def source_id() -> dict:
    """The git commit when ROOT is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    sha = None
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        sha = head
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


# --- child runs ---


class Child:
    """One `rgraph score` process: wall time and the rusage of it and its workers."""

    def __init__(self, args: list[str], log_path: str):
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(log_path, "ab") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", ENTRY, *args],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
            timer = threading.Timer(max(1.0, STARTED + RUN_LIMIT_S - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - started
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        if self.returncode != 0:
            raise RuntimeError(f"rgraph {' '.join(args)} exited {self.returncode}; see {log_path}")


def score_args(corpus: str, out: str, jobs: int, scorer_log: str | None) -> list[str]:
    args = ["score", "--in", corpus, "--out", out, "--jobs", str(jobs)]
    if scorer_log is not None:
        cmd = shlex.join([sys.executable, os.path.join(BENCH, "stub_scorer.py"), "--log", scorer_log])
        args.append(f"--scorer-cmd={cmd}")
    return args


def read_bytes(prefix: str) -> bytes:
    with open(prefix + ".scores.jsonl", "rb") as a, open(prefix + ".report.json", "rb") as b:
        return a.read() + b"\0" + b.read()


# --- output checks ---


def log_size(path: str | None) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def check_outputs(name: str, corpus: corpora.Corpus, prefix: str, work: str, stub_log: tuple) -> checks.Findings:
    """Check one run's outputs; stub_log is (path, start, end) of its scorer's log lines."""
    _, _, check, uses_scorer = WORKLOADS[name]
    found = checks.Findings()
    rows = checks.read_rows(prefix + ".scores.jsonl")
    with open(prefix + ".report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    if len(rows) != len(corpus.lines):
        found.run.append(f"{len(rows)} score rows for {len(corpus.lines)} records")
        return found
    check(found, corpus.lines, corpus.facts, rows)
    checks.check_aggregates(found, rows, report)
    if uses_scorer:
        builtin = os.path.join(work, "builtin")
        Child(score_args(os.path.join(work, "corpus.jsonl"), builtin, 1, None), os.path.join(work, "child.log"))
        checks.check_soft_scorer(found, prefix, builtin, stub_log)
    return found


def failures(found: checks.Findings, corpus: corpora.Corpus) -> tuple[bool, int]:
    """(correct, failed records): only the planted family may fail."""
    planted = {f["id"] for f in corpus.facts if f.get("kind") == "planted"}
    correct = not found.run and set(found.by_record) <= planted
    return correct, len(found.by_record)


# --- end-to-end run ---


def end_to_end(name: str, corpus: corpora.Corpus, work: str, seconds: float, jobs_n: int) -> tuple[dict, dict]:
    uses_scorer = WORKLOADS[name][3]
    path = os.path.join(work, "corpus.jsonl")
    one = os.path.join(work, "slice.jsonl")
    log = os.path.join(work, "child.log")
    n = len(corpus.lines)

    stub_log = os.path.join(work, "stub.log") if uses_scorer else None
    Child(score_args(one, os.path.join(work, "warm"), 1, stub_log), log)
    rounds = []
    started = time.perf_counter()
    reference_bytes = None
    found = None
    round_s = 0.0  # measured time of the longest round so far
    # start a round only when it should end within --seconds: a run then
    # measures close to --seconds, not up to a round more
    while not rounds or time.perf_counter() - started + round_s < seconds:
        r = len(rounds)
        round_started = time.perf_counter()
        setup: list[float] = []

        # one slice scoring at each of three points of the round: start-up
        # time drifts over seconds on a shared host, and samples spread over
        # the round see more of that drift than a burst of them does
        def time_setup() -> None:
            setup.append(Child(score_args(one, os.path.join(work, "slice"), 1, stub_log), log).wall_s)

        time_setup()
        log_offset = log_size(stub_log)
        one_job = Child(score_args(path, os.path.join(work, "jobs1"), 1, stub_log), log)
        jobs1_log = (stub_log, log_offset, log_size(stub_log))
        time_setup()
        many = Child(score_args(path, os.path.join(work, "jobsN"), jobs_n, stub_log), log)
        time_setup()
        round_s = max(round_s, time.perf_counter() - round_started)
        rounds.append({
            "setup_s": setup,
            "jobs1_wall_s": one_job.wall_s,
            "jobs1_cpu_s": one_job.cpu_s,
            "jobsN_wall_s": many.wall_s,
            "jobsN_cpu_s": many.cpu_s,
            "jobs1_maxrss_mb": one_job.maxrss_mb,
        })
        if found is None:  # checks are not part of the measured time
            checking = time.perf_counter()
            found = check_outputs(name, corpus, os.path.join(work, "jobs1"), work, jobs1_log)
            reference_bytes = read_bytes(os.path.join(work, "jobs1"))
            first_row = reference_bytes.split(b"\n", 1)[0]
            if read_bytes(os.path.join(work, "slice")).split(b"\n", 1)[0] != first_row:
                found.run.append("the one-record slice scores differently from the full run")
            started += time.perf_counter() - checking
        for tag in ("jobs1", "jobsN"):
            if read_bytes(os.path.join(work, tag)) != reference_bytes:
                found.run.append(f"round {r}: {tag} outputs differ from round 0 at --jobs 1")
    correct, failed_records = failures(found, corpus)
    med = statistics.median
    metrics = {
        "setup_s": (med([s for r in rounds for s in r["setup_s"]]), "s"),
        "records_per_s.jobs1": (med([n / r["jobs1_wall_s"] for r in rounds]), "1/s"),
        "records_per_s.jobsN": (med([n / r["jobsN_wall_s"] for r in rounds]), "1/s"),
        "cpu_ms_per_record.jobsN": (med([1e3 * r["jobsN_cpu_s"] / n for r in rounds]), "ms"),
        "peak_rss_mb": (med([r["jobs1_maxrss_mb"] for r in rounds]), "MB"),
    }
    result = {
        "correct": correct,
        "attempted": 2 * n * len(rounds),
        "failed": 2 * failed_records * len(rounds),
        "metrics": metrics,
    }
    return result, {"rounds": rounds, "jobs_n": jobs_n, "checks": found.to_json()}


# --- traced run ---


def _sigma_kind(args) -> str:
    kind = args[0].kind.value  # exact, math-value-set or soft-threshold
    return "similarity.sigma." + {"math-value-set": "math", "soft-threshold": "soft"}.get(kind, kind)


def _editable(graph) -> int:
    dropped = set(graph.zero_antecedent_step_ids)
    return sum(1 for i in graph.step_ids if i not in dropped and i != graph.answer_node_id)


def install_layers(tracer: Tracer, mappings: list[int]) -> None:
    """Rebind the public functions of every layer the score path crosses."""
    codec, ged, graph, metrics, similarity = (
        importlib.import_module(f"rgraph.{m}") for m in ("codec", "ged", "graph", "metrics", "similarity")
    )

    def ged_kind(args, outcome) -> str:
        big, small = sorted((_editable(args[0]), _editable(args[1])), reverse=True)
        if not outcome.exact:
            return "ged.greedy"
        count = 1
        for k in range(small):
            count *= big - k
        mappings.append(count)
        return "ged.exact." + ("le3" if big <= 3 else "4to5" if big <= 5 else "6")

    def external_kind(args) -> str:
        scorer, key = args[0], (args[1], args[2])
        return "similarity.external." + ("hit" if key in scorer._cache else "request")

    install_stages(tracer)
    tracer.install(codec, "parse", "codec.parse")
    tracer.install(codec, "components_from_block", "codec.components_from_block")
    tracer.install(codec, "parse_model_output", "codec.parse_model_output")
    tracer.install(graph, "validate", "graph.validate")
    tracer.install(graph, "extract_answer", "graph.extract_answer")
    tracer.install(graph, "topological_order", "graph.topological_order")
    tracer.install(similarity, "sigma", "similarity.sigma", before=_sigma_kind)
    tracer.install(similarity.ExternalScorer, "score", "similarity.external", before=external_kind)
    tracer.install(ged, "ged", "ged", after=ged_kind)
    tracer.install(metrics, "score_question", "metrics.score_question")
    tracer.install(metrics, "reasoning_graph_accuracy", "metrics.accuracy_check")


def install_stages(tracer: Tracer) -> None:
    # cli binds names from the layers at import: load it before any rebinding
    cli, corpus, metrics = (importlib.import_module(f"rgraph.{m}") for m in ("cli", "corpus", "metrics"))

    tracer.install(corpus, "ingest", "corpus.ingest")
    tracer.install(metrics, "score_records", "metrics.score_records")
    tracer.install(metrics, "aggregate", "metrics.aggregate")


def in_process(args: list[str], tracer: Tracer) -> float:
    """Run `rgraph` in this process under tracer; returns the wall time."""
    from rgraph.cli import main

    gc.collect()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        rc = main(args)
        wall = time.perf_counter() - started
    tracer.restore()
    if rc != 0:
        raise RuntimeError(f"rgraph {' '.join(args)} exited {rc}: {sink.getvalue()[-2000:]}")
    return wall


def traced(name: str, corpus: corpora.Corpus, work: str, runs_dir: str, jobs_n: int) -> tuple[dict, dict]:
    uses_scorer = WORKLOADS[name][3]
    path = os.path.join(work, "corpus.jsonl")
    n = len(corpus.lines)
    stub_log = os.path.join(work, "stub.log") if uses_scorer else None

    stage1 = Tracer()
    install_stages(stage1)
    wall_stage1 = in_process(score_args(path, os.path.join(work, "stage1"), 1, stub_log), stage1)

    full = Tracer()
    mappings: list[int] = []
    install_layers(full, mappings)
    log_offset = log_size(stub_log)
    wall_traced = in_process(score_args(path, os.path.join(work, "traced"), 1, stub_log), full)
    traced_log = (stub_log, log_offset, log_size(stub_log))

    # a second untraced run after the traced one, so that a drift in the
    # machine's speed during the three runs does not read as tracing cost
    again = Tracer()
    install_stages(again)
    wall_untraced = (wall_stage1 + in_process(score_args(path, os.path.join(work, "stage1"), 1, stub_log), again)) / 2

    stage_n = Tracer()
    install_stages(stage_n)
    in_process(score_args(path, os.path.join(work, "stageN"), jobs_n, stub_log), stage_n)

    found = check_outputs(name, corpus, os.path.join(work, "traced"), work, traced_log)
    expected = read_bytes(os.path.join(work, "traced"))
    for tag in ("stage1", "stageN"):
        if read_bytes(os.path.join(work, tag)) != expected:
            found.run.append(f"{tag} outputs differ from the traced run")
    correct, failed_records = failures(found, corpus)

    spans = full.summary()
    s1, sn = stage1.summary(), stage_n.summary()

    def calls(key: str, table=spans) -> int:
        return table.get(key, {}).get("calls", 0)

    def self_per_call(*keys: str) -> float:
        c = sum(calls(k) for k in keys)
        return sum(spans[k]["self_us"] for k in keys if k in spans) / c if c else 0.0

    def inclusive(key: str, table) -> float:
        return table.get(key, {}).get("us", 0.0)

    requests = checks.read_stub_log(*traced_log)["requests"] if uses_scorer else 0
    stages_us = sum(inclusive(k, s1) for k in ("corpus.ingest", "metrics.score_records", "metrics.aggregate"))
    m = {
        "corpus.ingest.us_per_record": (inclusive("corpus.ingest", s1) / n, "us"),
        "codec.parse.us_per_call": (self_per_call("codec.parse"), "us"),
        "codec.components_from_block.calls_per_record": (calls("codec.components_from_block") / n, "calls/record"),
        "graph.validate.us_per_call": (self_per_call("graph.validate"), "us"),
        "codec.parse_model_output.us_per_call": (self_per_call("codec.parse_model_output"), "us"),
        "graph.extract_answer.calls_per_record": (calls("graph.extract_answer") / n, "calls/record"),
        "graph.extract_answer.us_per_call": (self_per_call("graph.extract_answer"), "us"),
        "graph.topological_order.calls_per_record": (calls("graph.topological_order") / n, "calls/record"),
        "graph.topological_order.us_per_call": (self_per_call("graph.topological_order"), "us"),
        "metrics.accuracy_check.us_per_call": (self_per_call("metrics.accuracy_check"), "us"),
        "ged.calls.exact": (sum(calls(f"ged.exact.{s}") for s in ("le3", "4to5", "6")), "count"),
        "ged.calls.greedy": (calls("ged.greedy"), "count"),
        "ged.exact.us_per_call.le3": (self_per_call("ged.exact.le3"), "us"),
        "ged.exact.us_per_call.4to5": (self_per_call("ged.exact.4to5"), "us"),
        "ged.exact.us_per_call.6": (self_per_call("ged.exact.6"), "us"),
        "ged.exact.mappings": (sum(mappings), "count"),
        "ged.greedy.us_per_call": (self_per_call("ged.greedy"), "us"),
    }
    for kind in ("exact", "math", "soft"):
        m[f"similarity.sigma.evals.{kind}"] = (calls(f"similarity.sigma.{kind}"), "count")
    for kind in ("exact", "math", "soft"):
        m[f"similarity.sigma.us_per_eval.{kind}"] = (self_per_call(f"similarity.sigma.{kind}"), "us")
    m.update({
        "similarity.external.score_calls": (
            calls("similarity.external.hit") + calls("similarity.external.request"), "count"),
        "similarity.external.requests": (requests, "count"),
        "similarity.external.us_per_request": (
            inclusive("similarity.external.request", spans) / calls("similarity.external.request")
            if calls("similarity.external.request") else 0.0, "us"),
        "metrics.score_records.s.jobs1": (inclusive("metrics.score_records", s1) / 1e6, "s"),
        "metrics.score_records.s.jobsN": (inclusive("metrics.score_records", sn) / 1e6, "s"),
        "metrics.score_question.self_us_per_record": (
            spans.get("metrics.score_question", {}).get("self_us", 0.0) / n, "us"),
        "metrics.aggregate.ms": (inclusive("metrics.aggregate", s1) / 1e3, "ms"),
        "cli.remainder.ms": ((wall_stage1 * 1e6 - stages_us) / 1e3, "ms"),
        "tlu.segment.us_per_call": (time_segment(corpus), "us"),
        "scone.generate_records.us_per_record": (time_generate(corpus), "us"),
        "trace.overhead_s": (wall_traced - wall_untraced, "s"),
    })
    full.write(os.path.join(runs_dir, f"{name}.spans.tsv.gz"))
    result = {"correct": correct, "attempted": 4 * n, "failed": 4 * failed_records, "metrics": m}
    detail = {
        "jobs_n": jobs_n,
        "wall_s": {"untraced_jobs1": wall_untraced, "traced_jobs1": wall_traced},
        "spans": {k: spans[k] for k in sorted(spans)},
        "checks": found.to_json(),
    }
    return result, detail


def time_segment(corpus: corpora.Corpus) -> float:
    """Mean tlu.segment time over the plain text of the workload's question blocks."""
    from rgraph.tlu import segment

    texts = [" ".join(ref.split_question(json.loads(line)["question"])) for line in corpus.lines[:MICRO_LIMIT]]
    started = time.perf_counter_ns()
    for text in texts:
        segment(text)
    return (time.perf_counter_ns() - started) / 1e3 / len(texts)


def time_generate(corpus: corpora.Corpus) -> float:
    """Mean generate_records time per record, replaying the workload's own SCONE traces."""
    from rgraph.scone import generate_records

    budget, records, elapsed = MICRO_LIMIT, 0, 0
    for seed, sub, count, actions in corpus.scone_calls:
        count = min(count, budget - records)
        if count <= 0:
            break
        started = time.perf_counter_ns()
        generate_records(seed, sub, count, actions)
        elapsed += time.perf_counter_ns() - started
        records += count
    return elapsed / 1e3 / records if records else 0.0


# --- command line ---


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--records", type=int, help="corpus size (default: the workload's own)")
    args = ap.parse_args(argv)
    # rgraph reads its defaults from RGRAPH_* variables: measure the defaults,
    # the same in the child processes and in the traced in-process runs
    for key in [k for k in os.environ if k.startswith("RGRAPH_")]:
        del os.environ[key]

    if not os.path.isfile(os.path.join(SRC, "rgraph", "cli.py")):
        print(f"error: no program to measure: {SRC}/rgraph is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rgraph

    if os.path.dirname(os.path.dirname(os.path.abspath(rgraph.__file__))) != SRC:
        print(f"error: imported rgraph from {rgraph.__file__}, not {SRC}", file=sys.stderr)
        return 2

    default_records, make, _, uses_scorer = WORKLOADS[args.workload]
    signal.alarm(RUN_LIMIT_S + 5)  # last resort against a hang inside this process
    jobs_n = len(os.sched_getaffinity(0))  # nproc
    if uses_scorer:
        # The program runs a scored corpus in one process whatever --jobs says.
        # On one CPU each request to the scorer is a switch on that CPU, not a
        # wake-up of another CPU whose delay varies with the host's load.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runs_dir = os.path.join(ROOT, ".bench_runs")
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(runs_dir, exist_ok=True)
    try:
        started = time.perf_counter()
        corpus = make(args.seed, args.records or default_records)
        corpus.write(os.path.join(work, "corpus.jsonl"))
        with open(os.path.join(work, "slice.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(corpus.lines[0] + "\n")
        generated_s = time.perf_counter() - started
        if args.trace:
            result, detail = traced(args.workload, corpus, work, runs_dir, jobs_n)
        else:
            result, detail = end_to_end(args.workload, corpus, work, args.seconds, jobs_n)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "records": len(corpus.lines), "corpus_generation_s": generated_s,
        "nproc": jobs_n, "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), **source_id(),
    }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    with open(os.path.join(runs_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"meta": meta, "result": result, **detail}, fh, indent=1)
    print(json.dumps({"meta": meta, "checks": detail["checks"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
