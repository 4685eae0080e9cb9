"""End-to-end tests for the command-line interface.

Everything goes through main(argv) in-process so exit codes, stdout/stderr
separation, file outputs and environment-variable overrides are all checked
exactly as a shell user would see them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from fixtures import AR_LSAT_LOCKERS, ARC_SUN, GSM8K_AGES

from rgraph import similarity
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
