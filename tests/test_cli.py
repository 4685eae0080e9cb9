"""End-to-end tests for the command-line interface.

Everything goes through main(argv) in-process so exit codes, stdout/stderr
separation, file outputs and environment-variable overrides are all checked
exactly as a shell user would see them.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from fixtures import ALL_FIXTURES, AR_LSAT_LOCKERS, ARC_SUN, GSM8K_AGES

from rgraph import metrics, similarity
from rgraph.cli import main
from rgraph.similarity import ExternalScorer

STUB_SCORER = f"{sys.executable} {Path(__file__).with_name('stub_scorer.py')}"

NATALIA_QUESTION = (
    "Natalia sold clips to 48 of her friends in April, and then she sold "
    "half as many clips in May. How many clips did Natalia sell altogether "
    "in April and May?"
)


def gen_corpus(tmp_path, name="corpus.jsonl", sub="alchemy", n=5, seed=3, pred=True):
    path = tmp_path / name
    argv = [
        "scone-gen",
        "--task",
        sub,
        "--n",
        str(n),
        "--seed",
        str(seed),
        "--out",
        str(path),
    ]
    if pred:
        argv.append("--with-predictions")
    assert main(argv) == 0
    return path


SRC = Path(__file__).resolve().parent.parent / "src"


def fixture_line(fx, record_id=None, **extra) -> str:
    obj = {"id": record_id or fx.name, "task": fx.task, "question": fx.question, "proof": fx.proof}
    obj.update(extra)
    return json.dumps(obj)


def messy_lines(tmp_path) -> list[str]:
    """Valid and invalid lines of every kind a corpus file can hold."""
    scene = gen_corpus(tmp_path, name="scene.jsonl", sub="scene", n=12, seed=5)
    scene_lines = scene.read_text(encoding="utf-8").splitlines()
    scene_ids = [json.loads(line)["id"] for line in scene_lines]
    no_prediction = json.loads(scene_lines[6])
    del no_prediction["predicted_proof"]
    ages = GSM8K_AGES
    return (
        [fixture_line(fx, predicted_proof=fx.proof) for fx in ALL_FIXTURES]
        + [
            "",
            "{broken",
            fixture_line(ages, "wrong", predicted_proof=ages.proof.replace("is 12", "is 13")),
            fixture_line(ages, "malformed", predicted_proof="@@@@"),
            fixture_line(ages, "no-prediction"),
            json.dumps({"id": "no-proof", "task": "gsm8k", "question": ages.question}),
            fixture_line(ages, "sudoku", task="sudoku"),
            # the first copy of an id is in a task that --task scone-scene drops
            fixture_line(ages, scene_ids[3], predicted_proof=ages.proof),
            "   ",
        ]
        + scene_lines[:6]
        + [fixture_line(ages, "wrong", predicted_proof=ages.proof), json.dumps(no_prediction)]
        + scene_lines[7:]
        + [fixture_line(ARC_SUN, predicted_proof=ARC_SUN.proof)]
    )


def score_run(capsys, path, out, *flags) -> tuple[int, bytes, bytes, list[str]]:
    """Exit code, scores and report bytes, and the invalid: lines of one run."""
    rc = main(["score", "--in", str(path), "--out", str(out), *flags])
    err = capsys.readouterr().err
    invalid = [line for line in err.splitlines() if line.startswith("invalid:")]
    scores = Path(f"{out}.scores.jsonl").read_bytes()
    return rc, scores, Path(f"{out}.report.json").read_bytes(), invalid


def score_rows(prefix) -> list[dict]:
    text = Path(f"{prefix}.scores.jsonl").read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines()]


def _stat(pid) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name, or None if gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text[text.rindex(")") + 2 :].split()


def children_of(pid: int) -> list[int]:
    pids = [int(p.name) for p in Path("/proc").iterdir() if p.name.isdigit()]
    return [p for p in pids if (f := _stat(p)) and int(f[1]) == pid]


def alive(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"  # a zombie has exited


def ages_line(**extra) -> str:
    obj = {
        "id": "ages",
        "task": "gsm8k",
        "question": GSM8K_AGES.question,
        "proof": GSM8K_AGES.proof,
    }
    obj.update(extra)
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


class TestValidate:
    def test_clean_corpus_exits_zero(self, tmp_path, capsys):
        path = gen_corpus(tmp_path)
        assert main(["validate", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert "5 valid records, 0 invalid lines" in out

    def test_bad_line_exits_one_and_reports(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text(ages_line() + "\n{broken\n", encoding="utf-8")
        assert main(["validate", "--in", str(path)]) == 1
        out = capsys.readouterr().out
        assert "invalid:" in out
        assert "1 valid records, 1 invalid lines" in out

    def test_task_filter_changes_count(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        gen = gen_corpus(tmp_path, name="g.jsonl", sub="scene", n=3)
        path.write_text(
            ages_line() + "\n" + gen.read_text(encoding="utf-8"), encoding="utf-8"
        )
        assert main(["validate", "--in", str(path), "--task", "gsm8k"]) == 0
        assert "1 valid records" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["validate", "--in", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_task_is_usage_error(self, tmp_path):
        path = gen_corpus(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["validate", "--in", str(path), "--task", "sudoku"])
        assert err.value.code == 2

    def test_in_flag_is_required(self):
        with pytest.raises(SystemExit) as err:
            main(["validate"])
        assert err.value.code == 2

    def test_in_flag_via_environment(self, tmp_path, monkeypatch, capsys):
        path = gen_corpus(tmp_path)
        monkeypatch.setenv("RGRAPH_IN", str(path))
        assert main(["validate"]) == 0
        assert "5 valid records" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


class TestScore:
    def test_self_scoring_corpus_is_perfect(self, tmp_path, capsys):
        path = gen_corpus(tmp_path, n=4)
        assert main(["score", "--in", str(path)]) == 0
        captured = capsys.readouterr()
        assert "scorer: builtin-overlap" in captured.out
        assert "edit distances solved exactly: 100.0%" in captured.out

        report = json.loads((tmp_path / "corpus.report.json").read_text())
        assert report["scorer"] == "builtin-overlap"
        assert report["overall"]["answer_accuracy"] == 100.0
        assert report["overall"]["reasoning_graph_accuracy"] == 100.0
        assert report["overall"]["graph_similarity"] == 100.0
        assert report["skipped"] == []
        assert "similarity" not in report  # no fallback happened

        lines = (tmp_path / "corpus.scores.jsonl").read_text().splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert first["answer_correct"] is True
        assert first["ged_delta"] == 0.0

    def test_default_prefix_strips_extension(self, tmp_path):
        path = gen_corpus(tmp_path, name="run7.jsonl", n=2)
        assert main(["score", "--in", str(path)]) == 0
        assert (tmp_path / "run7.scores.jsonl").exists()
        assert (tmp_path / "run7.report.json").exists()

    def test_out_prefix_flag(self, tmp_path):
        path = gen_corpus(tmp_path, n=2)
        prefix = tmp_path / "elsewhere" / "res"
        prefix.parent.mkdir()
        assert main(["score", "--in", str(path), "--out", str(prefix)]) == 0
        assert (tmp_path / "elsewhere" / "res.report.json").exists()

    def test_records_without_predictions_are_skipped(self, tmp_path, capsys):
        path = gen_corpus(tmp_path, n=3, pred=False)
        assert main(["score", "--in", str(path)]) == 1
        out = capsys.readouterr().out
        assert "skipped (no predicted_proof): 3" in out
        report = json.loads((tmp_path / "corpus.report.json").read_text())
        assert len(report["skipped"]) == 3

    def test_timing_goes_to_stderr_only(self, tmp_path, capsys):
        path = gen_corpus(tmp_path, n=2)
        main(["score", "--in", str(path)])
        captured = capsys.readouterr()
        assert "scored 2 records in" in captured.err
        assert "scored 2 records in" not in captured.out

    def test_outputs_byte_identical_across_jobs(self, tmp_path):
        path = gen_corpus(tmp_path, n=6, sub="scene")
        for jobs in ("1", "3"):
            assert (
                main(
                    [
                        "score",
                        "--in",
                        str(path),
                        "--out",
                        str(tmp_path / f"j{jobs}"),
                        "--jobs",
                        jobs,
                    ]
                )
                == 0
            )
        assert (tmp_path / "j1.report.json").read_bytes() == (
            tmp_path / "j3.report.json"
        ).read_bytes()
        assert (tmp_path / "j1.scores.jsonl").read_bytes() == (
            tmp_path / "j3.scores.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize("task", [None, "scone-scene"])
    def test_messy_corpus_same_across_jobs(self, tmp_path, capsys, task):
        path = tmp_path / "messy.jsonl"
        lines = messy_lines(tmp_path)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        flags = ["--task", task] if task else []
        runs = {
            jobs: score_run(capsys, path, tmp_path / f"j{jobs}", "--jobs", str(jobs), *flags)
            for jobs in (1, 2, 3)
        }
        assert runs[1] == runs[2] == runs[3]
        rc, _, report, invalid = runs[1]
        assert rc == 1
        f = len(ALL_FIXTURES)
        # invalid JSON, a missing key, an unknown task, then three repeated ids
        assert [int(line.split()[2].rstrip(":")) for line in invalid] == [
            f + 2, f + 6, f + 7, f + 13, f + 16, len(lines)
        ]
        assert all("duplicate record id" in line for line in invalid[3:])
        rows = score_rows(tmp_path / "j1")
        assert len({r["id"] for r in rows}) == len(rows)
        skipped = json.loads(report)["skipped"]
        if task is None:
            assert skipped == ["no-prediction", "scone-scene-11"]
            assert [r["id"] for r in rows[:f]] == [fx.name for fx in ALL_FIXTURES]
            assert len(rows) == f + 3 + 10
        else:
            assert skipped == ["scone-scene-11"]
            kept = [5, 6, 7, 9, 10, 12, 13, 14, 15, 16]
            assert [r["id"] for r in rows] == ["scene_people"] + [f"scone-scene-{i}" for i in kept]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scoring_error_becomes_failure_row(self, tmp_path, monkeypatch, jobs):
        path = gen_corpus(tmp_path, n=8, sub="scene")
        assert main(["score", "--in", str(path), "--out", str(tmp_path / "ok")]) == 0
        healthy = score_rows(tmp_path / "ok")
        victim = healthy[5]["id"]
        score_question = metrics.score_question

        def flaky(record, *args, **kwargs):
            if record.id == victim:
                raise KeyError("boom")
            return score_question(record, *args, **kwargs)

        monkeypatch.setattr(metrics, "score_question", flaky)
        out = tmp_path / f"j{jobs}"
        assert main(["score", "--in", str(path), "--out", str(out), "--jobs", jobs]) == 0
        rows = score_rows(out)
        assert rows[:5] + rows[6:] == healthy[:5] + healthy[6:]
        assert rows[5] == {
            **healthy[5],
            "answer_correct": False,
            "graph_accurate": False,
            "graph_similarity": 0.0,
            "parse_error": "KeyError: 'boom'",
            "ged_delta": None,
            "ged_exact": None,
        }

    def test_dead_worker_costs_only_its_chunk(self, tmp_path, monkeypatch):
        path = gen_corpus(tmp_path, n=24, sub="scene")
        assert main(["score", "--in", str(path), "--out", str(tmp_path / "ok")]) == 0
        healthy = score_rows(tmp_path / "ok")
        victim = healthy[10]["id"]
        parent = os.getpid()
        score_question = metrics.score_question

        def deadly(record, *args, **kwargs):
            if record.id == victim and os.getpid() != parent:
                os._exit(1)
            return score_question(record, *args, **kwargs)

        monkeypatch.setattr(metrics, "score_question", deadly)
        out = tmp_path / "j2"
        assert main(["score", "--in", str(path), "--out", str(out), "--jobs", "2"]) == 0
        rows = score_rows(out)
        assert [r["id"] for r in rows] == [r["id"] for r in healthy]
        lost = [i for i, r in enumerate(rows) if r != healthy[i]]
        # one chunk of 24 / (4 * 2) lines, the victim's, is lost
        assert len(lost) == 3 and 10 in lost and lost == list(range(lost[0], lost[0] + 3))
        for i in lost:
            assert rows[i]["parse_error"].startswith("BrokenProcessPool: ")
            assert rows[i]["graph_similarity"] == 0.0

    def test_workers_ignore_default_start_method(self, tmp_path):
        path = gen_corpus(tmp_path, n=8, sub="scene")
        assert main(["score", "--in", str(path), "--out", str(tmp_path / "j1")]) == 0
        out = tmp_path / "forkserver"
        code = (
            "import multiprocessing, sys; multiprocessing.set_start_method('forkserver'); "
            "from rgraph.cli import main; sys.exit(main())"
        )
        subprocess.run(
            [sys.executable, "-c", code, "score", "--in", str(path), "--out", str(out),
             "--jobs", "2"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            timeout=60,
            check=True,
        )
        assert score_rows(out) == score_rows(tmp_path / "j1")

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the process table in /proc")
    def test_killed_run_leaves_no_worker(self, tmp_path):
        gen = gen_corpus(tmp_path, n=20, sub="alchemy")
        lines = gen.read_text(encoding="utf-8").splitlines()
        path = tmp_path / "big.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for i in range(4000):
                fh.write(json.dumps({**json.loads(lines[i % 20]), "id": f"r{i}"}) + "\n")
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from rgraph.cli import main; sys.exit(main())",
             "score", "--in", str(path), "--jobs", "2"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 30
            while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
                workers = children_of(proc.pid)
            assert len(workers) == 2, "the run ended before both workers were seen"
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5
            while any(map(alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(alive, workers))
        finally:
            proc.kill()
            proc.wait(timeout=10)
            for pid in filter(alive, workers):
                os.kill(pid, signal.SIGKILL)

    def test_repeat_runs_byte_identical(self, tmp_path):
        path = gen_corpus(tmp_path, n=4)
        main(["score", "--in", str(path), "--out", str(tmp_path / "r1")])
        main(["score", "--in", str(path), "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1.report.json").read_bytes() == (
            tmp_path / "r2.report.json"
        ).read_bytes()

    def test_external_scorer_recorded_in_report(self, tmp_path, capsys):
        path = tmp_path / "one.jsonl"
        path.write_text(
            ages_line(predicted_proof=GSM8K_AGES.proof) + "\n", encoding="utf-8"
        )
        assert main(["score", "--in", str(path), "--scorer-cmd", STUB_SCORER]) == 0
        report = json.loads((tmp_path / "one.report.json").read_text())
        assert report["scorer"] == f"external:{STUB_SCORER}"
        assert report["overall"]["reasoning_graph_accuracy"] == 100.0
        assert "scorer: external:" in capsys.readouterr().out

    def test_silent_scorer_times_out_into_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setattr(similarity, "REPLY_DEADLINE_S", 0.5)
        started = []
        ensure = ExternalScorer._ensure_process

        def recording(scorer):
            proc = ensure(scorer)
            if proc not in started:
                started.append(proc)
            return proc

        monkeypatch.setattr(ExternalScorer, "_ensure_process", recording)
        path = tmp_path / "soft.jsonl"
        lines = [
            json.dumps(
                {
                    "id": fx.name,
                    "task": fx.task,
                    "question": fx.question,
                    "proof": fx.proof,
                    "predicted_proof": fx.proof,
                }
            )
            for fx in (ARC_SUN, AR_LSAT_LOCKERS)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            rc = main(
                ["score", "--in", str(path), "--scorer-cmd", f"{STUB_SCORER} --hang-after 1"]
            )
        finally:
            left = [proc for proc in started if proc.poll() is None]
            for proc in left:
                proc.kill()
                proc.wait()
        assert rc == 0
        report = json.loads((tmp_path / "soft.report.json").read_text())
        assert report["similarity"] == "fallback-similarity"
        assert report["overall"]["count"] == 2
        assert started and left == []

    def test_failed_write_keeps_previous_outputs(self, tmp_path, monkeypatch):
        path = gen_corpus(tmp_path, n=2)
        assert main(["score", "--in", str(path)]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def broken_dump(*args, **kwargs):
            raise RuntimeError("disk gave out")

        # the scores file is written in full, then the report write fails
        monkeypatch.setattr(json, "dump", broken_dump)
        with pytest.raises(RuntimeError):
            main(["score", "--in", str(path)])
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert after == before

    def test_bad_threshold_is_usage_error(self, tmp_path):
        path = gen_corpus(tmp_path, n=1)
        with pytest.raises(SystemExit) as err:
            main(["score", "--in", str(path), "--scorer-threshold", "1.5"])
        assert err.value.code == 2

    def test_bad_jobs_is_usage_error(self, tmp_path):
        path = gen_corpus(tmp_path, n=1)
        with pytest.raises(SystemExit) as err:
            main(["score", "--in", str(path), "--jobs", "0"])
        assert err.value.code == 2

    def test_jobs_env_override(self, tmp_path, monkeypatch, capsys):
        path = gen_corpus(tmp_path, n=2)
        monkeypatch.setenv("RGRAPH_JOBS", "2")
        assert main(["score", "--in", str(path)]) == 0
        assert "(jobs=2)" in capsys.readouterr().err

    def test_flag_beats_environment(self, tmp_path, monkeypatch, capsys):
        path = gen_corpus(tmp_path, n=2)
        monkeypatch.setenv("RGRAPH_JOBS", "2")
        assert main(["score", "--in", str(path), "--jobs", "1"]) == 0
        assert "(jobs=1)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


class TestStats:
    def test_writes_json_and_prints_sections(self, tmp_path, capsys):
        path = gen_corpus(tmp_path, sub="tangrams", n=3)
        assert main(["stats", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[scone-tangrams]" in out
        assert "[all]" in out
        payload = json.loads((tmp_path / "corpus.stats.json").read_text())
        assert payload["overall"]["questions"] == 3

    def test_bad_line_exits_one(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text(ages_line() + "\njunk\n", encoding="utf-8")
        assert main(["stats", "--in", str(path)]) == 1
        assert "invalid:" in capsys.readouterr().err

    def test_task_filter(self, tmp_path, capsys):
        gen = gen_corpus(tmp_path, sub="scene", n=2)
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(
            gen.read_text(encoding="utf-8") + ages_line() + "\n", encoding="utf-8"
        )
        assert main(["stats", "--in", str(mixed), "--task", "gsm8k"]) == 0
        payload = json.loads((tmp_path / "mixed.stats.json").read_text())
        assert payload["overall"]["questions"] == 1


# ---------------------------------------------------------------------------
# scone-gen
# ---------------------------------------------------------------------------


class TestSconeGen:
    def test_writes_requested_count(self, tmp_path):
        path = gen_corpus(tmp_path, sub="scene", n=7, pred=False)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 7
        assert all(json.loads(line)["task"] == "scone-scene" for line in lines)

    def test_stdout_mode(self, capsys):
        assert main(["scone-gen", "--task", "tangrams", "--n", "2", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["id"] == "scone-tangrams-1"

    def test_deterministic_output(self, tmp_path):
        a = gen_corpus(tmp_path, name="a.jsonl", seed=11)
        b = gen_corpus(tmp_path, name="b.jsonl", seed=11)
        assert a.read_bytes() == b.read_bytes()

    def test_task_name_normalization(self, tmp_path):
        a = gen_corpus(tmp_path, name="a.jsonl", sub="alchemy")
        b = gen_corpus(tmp_path, name="b.jsonl", sub="scone-alchemy")
        c = gen_corpus(tmp_path, name="c.jsonl", sub="SCONE_ALCHEMY")
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_unknown_sub_task_exits_two(self, capsys):
        assert main(["scone-gen", "--task", "chess", "--n", "1"]) == 2
        assert "unknown sub-task" in capsys.readouterr().err

    def test_with_predictions_populates_field(self, tmp_path):
        path = gen_corpus(tmp_path, n=3, pred=True)
        for line in path.read_text(encoding="utf-8").splitlines():
            obj = json.loads(line)
            assert obj["predicted_proof"] == obj["proof"]

    def test_zero_count_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["scone-gen", "--task", "alchemy", "--n", "0"])
        assert err.value.code == 2

    def test_generated_corpus_revalidates(self, tmp_path, capsys):
        path = gen_corpus(tmp_path, sub="tangrams", n=4, pred=False)
        assert main(["validate", "--in", str(path)]) == 0
        assert "4 valid records" in capsys.readouterr().out

    def test_env_overrides(self, tmp_path, monkeypatch):
        out = tmp_path / "env.jsonl"
        monkeypatch.setenv("RGRAPH_TASK", "scene")
        monkeypatch.setenv("RGRAPH_N", "3")
        monkeypatch.setenv("RGRAPH_SEED", "9")
        monkeypatch.setenv("RGRAPH_OUT", str(out))
        assert main(["scone-gen"]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["id"] == "scone-scene-9"


# ---------------------------------------------------------------------------
# tlu
# ---------------------------------------------------------------------------


class TestTlu:
    def test_inline_text_three_units(self, capsys):
        assert main(["tlu", "--text", NATALIA_QUESTION]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "(1) Natalia sold clips to 48 of her friends in April, and then",
            "(2) she sold half as many clips in May.",
            "(3) How many clips did Natalia sell altogether in April and May?",
        ]

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "q.txt"
        path.write_text(NATALIA_QUESTION, encoding="utf-8")
        assert main(["tlu", "--file", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_in_alias(self, tmp_path, capsys):
        path = tmp_path / "q.txt"
        path.write_text("One sentence only.", encoding="utf-8")
        assert main(["tlu", "--in", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == ["(1) One sentence only."]

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["tlu", "--file", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err
