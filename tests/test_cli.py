"""End-to-end CLI behavior: artifacts, determinism, exit codes, formats."""

import argparse
import collections
import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import abstainrl
from abstainrl import cli, synthenv
from abstainrl.cli import _TRAIN_DEFAULTS, build_parser, main
from abstainrl.grpo import GrpoConfig, RewardTable, evaluate_items
from abstainrl.policy import ALL_ACTIONS, ALL_FEATURES, ActionId, Choice, Evidence, PolicyParams
from abstainrl.synthenv import GenConfig, generate_dataset, iter_dataset
from scalar_reference import columns_of, item_evals, item_to_dict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


def _gen(tmp_path, name="data.jsonl", n=60, p=0.3, seed=5, ambiguity=0.25):
    path = tmp_path / name
    code = main(
        [
            "gen",
            "--n", str(n),
            "--p-unans", str(p),
            "--ambiguity", str(ambiguity),
            "--seed", str(seed),
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGen:
    def test_writes_expected_counts(self, tmp_path, capsys):
        path = _gen(tmp_path, n=1000, p=0.5, seed=7)
        lines = path.read_text().splitlines()
        assert len(lines) == 1000
        unans = sum(1 for line in lines if json.loads(line)["gold"] is None)
        assert unans == 500
        assert "500 unanswerable" in capsys.readouterr().out

    @pytest.mark.parametrize("p", ["0.5", "0", "1"])
    def test_message_counts_the_null_golds(self, tmp_path, capsys, p):
        """The counts gen prints agree with the "gold": null lines it wrote,
        at the README config and at either end of --p-unans."""
        path = tmp_path / "data.jsonl"
        argv = ["gen", "--n", "1000", "--p-unans", p, "--ambiguity", "0.5", "--seed", "7"]
        assert main([*argv, "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        k = sum('"gold": null' in line for line in lines)
        assert k == sum(json.loads(line)["gold"] is None for line in lines)
        assert capsys.readouterr().out == (
            f"wrote {len(lines)} items ({k} unanswerable, fraction {k / len(lines):.6f}) -> {path}\n"
        )

    def test_creates_missing_output_dir(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "data.jsonl"
        assert main(["gen", "--n", "10", "--out", str(out)]) == 0
        assert out.exists()

    def test_invalid_fraction_is_usage_error(self, tmp_path):
        code = main(
            ["gen", "--n", "10", "--p-unans", "1.5", "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2

    def test_negative_seed_is_usage_error(self, tmp_path):
        out = tmp_path / "x.jsonl"
        code, err = _main_stderr(["gen", "--n", "10", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert err == "error: seed must be >= 0\n"
        assert not out.exists()

    def test_zero_items_is_named_as_its_flag(self, tmp_path):
        out = tmp_path / "x.jsonl"
        code, err = _main_stderr(["gen", "--n", "0", "--out", str(out)])
        assert (code, err) == (2, "error: n must be >= 1\n")
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 30, "p_unans": 0.5, "seed": 3}))
        out = tmp_path / "from_config.jsonl"
        assert main(["gen", "--config", str(cfg), "--n", "20", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 20  # flag wins
        assert sum(1 for ln in lines if json.loads(ln)["gold"] is None) == 10

    def test_streamed_gen_holds_less_than_the_generated_list(self, tmp_path):
        """gen writes each item as it is drawn: the traced peak of a whole
        gen command stays below what the list ``generate_dataset`` returns
        for the same config holds."""
        cfg = GenConfig(n=3000, p_unans=0.3, ambiguity=0.25, seed=4)
        generate_dataset(cfg)  # first-use costs, which the list would otherwise count
        gc.collect()  # resets the collector's counts: collections fall alike in every run
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            items = generate_dataset(cfg)
            held = tracemalloc.get_traced_memory()[0] - base
            del items
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _gen(tmp_path, n=3000, seed=4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < held


class TestBuildMc:
    def _sources(self, tmp_path, n=50):
        path = tmp_path / "mc_src.jsonl"
        with path.open("w") as fh:
            for i in range(n):
                fh.write(
                    json.dumps(
                        {
                            "question": f"q{i}",
                            "options": [f"o{i}{j}" for j in range(4)],
                            "answer_key": "ABCD"[i % 4],
                        }
                    )
                    + "\n"
                )
        return path

    def test_build(self, tmp_path):
        src = self._sources(tmp_path)
        out = tmp_path / "mc.jsonl"
        assert main(["build-mc", "--in", str(src), "--ratio", "0.12", "--seed", "1",
                     "--out", str(out)]) == 0
        items = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(items) == 50
        assert sum(1 for i in items if i["unanswerable"]) == 6
        assert all(len(i["options"]) == 3 for i in items)

    def test_bad_source_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"question": "q", "options": ["a", "b"], "answer_key": "A"}) + "\n")
        assert main(["build-mc", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 3

    def test_non_utf8_source_is_data_error(self, tmp_path):
        src = self._sources(tmp_path, n=3)
        src.write_bytes(src.read_bytes() + b"\xff\n")
        out = tmp_path / "o.jsonl"
        code, err = _main_stderr(["build-mc", "--in", str(src), "--out", str(out)])
        assert code == 3
        assert f"{src}:4: not valid UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [(["--ratio", "2"], "ratio must lie in [0, 1], got 2.0"),
         (["--seed", "-1"], "seed must be >= 0")],
        ids=["ratio", "seed"],
    )
    def test_bad_setting_is_refused_before_the_source_is_read(
        self, tmp_path, monkeypatch, setting, message
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        out = tmp_path / "o.jsonl"
        argv = ["build-mc", "--in", str(bad), *setting, "--out", str(out)]
        assert _main_stderr(argv) == (2, f"error: {message}\n")
        monkeypatch.setattr(cli, "read_mc_sources", lambda path: pytest.fail("source read"))
        assert _main_stderr(argv) == (2, f"error: {message}\n")
        assert not out.exists()


class TestExtract:
    def test_sub_context_rules(self, tmp_path, capsys):
        code = main(
            [
                "extract",
                "--mode", "sub-context",
                "--question", "Where did he live from 1921 to 1923?",
                "--context", "He moved in 1921. He was happy. He left in 1980.",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "rules"
        assert payload["sentences"] == ["He moved in 1921."]

    def test_kg_heuristic(self, tmp_path):
        out = tmp_path / "extract.json"
        code = main(
            [
                "extract",
                "--mode", "kg",
                "--context", "Anna Karina married Pierre Fabre in 1968.",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["quadruples"][0]["head"] == "Anna Karina"

    def test_kg_context_file_needs_no_question(self, tmp_path, capsys):
        """--mode kg reads only the context: without --question it exits 0
        and prints the quadruples of the file's sentences."""
        context = tmp_path / "context.txt"
        context.write_text("He moved in 1921.\nAnna Karina married Pierre Fabre in 1968.\n")
        assert main(["extract", "--mode", "kg", "--context-file", str(context)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"mode": "kg", "source": "rules", "quadruples": [
            {"head": "Anna Karina", "relation": "associated_with", "tail": "Pierre Fabre",
             "timestamp": "1968-1968"},
        ]}

    def test_dataset_to_store(self, tmp_path):
        data = _gen(tmp_path, n=20, p=0.0)
        out = tmp_path / "store.jsonl"
        assert main(["extract", "--mode", "kg", "--dataset", str(data), "--out", str(out)]) == 0
        quads = [json.loads(line) for line in out.read_text().splitlines()]
        assert quads and all({"head", "relation", "tail", "timestamp"} <= set(q) for q in quads)

    def test_malformed_last_record_writes_no_store(self, tmp_path):
        """The dataset streams into the store, which is built before --out
        is written: a cut-short last record exits 3 naming its line."""
        data = _gen(tmp_path)
        *lines, last = data.read_text().splitlines()
        lines.append(last[: len(last) // 2])
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "store.jsonl"
        code, err = _main_stderr(
            ["extract", "--mode", "kg", "--dataset", str(data), "--out", str(out)]
        )
        assert code == 3
        assert f"{data}:{len(lines)}: invalid JSON" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_question_is_usage_error(self):
        assert main(["extract", "--mode", "sub-context", "--context", "c"]) == 2

    def test_window_sets_the_question_interval(self, capsys):
        argv = ["extract", "--question", "Where did he live in 1921?",
                "--context", "He moved in 1921. He left in 1980."]
        assert main([*argv, "--window", "1979:1990"]) == 0
        assert json.loads(capsys.readouterr().out)["sentences"] == ["He left in 1980."]

    @pytest.mark.parametrize("window", ["1990", "a:b", "1:2:3", "1995:1990", "", "1990:"])
    def test_malformed_window_is_usage_error(self, window):
        code, err = _main_stderr(["extract", "--question", "Where in 1921?",
                                  "--context", "He moved in 1921.", "--window", window])
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1
        assert "--window" in lines[0] and "LO:HI" in lines[0] and repr(window) in lines[0]

    def test_non_utf8_context_file_is_data_error(self, tmp_path):
        context = tmp_path / "context.txt"
        context.write_bytes(b"He moved in 1921.\r\nHe left in \xe9t\xe9 1980.\n")
        code, err = _main_stderr(["extract", "--question", "Where in 1921?",
                                  "--context-file", str(context)])
        assert code == 3
        assert f"{context}:2: not valid UTF-8" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--question", "Where in 1921?", "--context", "He moved in 1921.",
              "--context-file", "context.txt"],
             "--context and --context-file both give the context: drop one"),
            (["--mode", "kg", "--question", "Who?", "--context-file", "context.txt",
              "--window", "1800:1801"],
             "--mode kg reads no question interval: drop --window"),
            (["--mode", "kg", "--question", "Who?", "--context-file", "context.txt"],
             "--mode kg reads no question: drop --question"),
            *(
                (["--mode", "kg", "--dataset", "data.jsonl", flag, value],
                 f"--dataset conversion reads only the dataset: drop {flag}")
                for flag, value in [("--question", "Where in 1921?"),
                                    ("--context", "He moved in 1921."),
                                    ("--context-file", "context.txt"),
                                    ("--window", "1800:1801")]
            ),
        ],
        ids=["context-twice", "kg-window", "kg-question", "dataset-question", "dataset-context",
             "dataset-context-file", "dataset-window"],
    )
    def test_an_ignored_flag_is_refused_before_anything_is_read(
        self, tmp_path, monkeypatch, extra, message
    ):
        """A flag that the command line would ignore exits 2 naming it; no
        file is read and nothing is written."""
        monkeypatch.setattr(synthenv, "read_text", lambda path: pytest.fail("context read"))
        monkeypatch.setattr(cli, "iter_dataset", lambda path: pytest.fail("dataset read"))
        monkeypatch.chdir(tmp_path)
        assert _main_stderr(["extract", "--out", "out.json", *extra]) == (2, f"error: {message}\n")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "flag",
        [["--remote"], ["--endpoint", "http://127.0.0.1:9"], ["--model", "stub"],
         ["--api-key-env", "KEY"], ["--timeout", "1"]],
        ids=lambda flag: flag[0],
    )
    def test_remote_flag_is_unrecognized(self, tmp_path, monkeypatch, capsys, flag):
        """extract has no remote client, so its former flags are argparse
        usage errors, before the dataset is opened."""
        monkeypatch.setattr(cli, "iter_dataset", lambda path: pytest.fail("dataset read"))
        out = tmp_path / "store.jsonl"
        argv = ["extract", "--mode", "kg", "--dataset", str(tmp_path / "data.jsonl"),
                "--out", str(out), *flag]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")
        assert not out.exists()


# a bad GRPO setting and its one error line, which names it as its flag does
_BAD_GRPO_SETTINGS = [
    pytest.param("--iters", "-1", "iters must be >= 0", id="iters"),
    pytest.param("--beta", "-1", "beta must be >= 0", id="beta"),
    pytest.param("--beta", "inf", "beta must be finite, got inf", id="beta-inf"),
]


def _train_args(data, out_dir, iters="12", extra=()):
    return [
        "train",
        "--dataset", str(data),
        "--out-dir", str(out_dir),
        "--iters", iters,
        "--batch-size", "8",
        "--seed", "3",
        *extra,
    ]


class TestTrain:
    def test_artifacts_written(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "run"
        assert main(_train_args(data, out)) == 0
        for name in ("config.json", "train_log.jsonl", "policy.json", "summary.csv", "curves.svg"):
            assert (out / name).exists(), name
        config = json.loads((out / "config.json").read_text())
        assert config["group_size"] == 4
        assert config["clip_eps"] == 0.2
        assert config["beta"] == 0.01
        assert config["seed"] == 3

    def test_rerun_identical_log(self, tmp_path):
        data = _gen(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(_train_args(data, out_a)) == 0
        assert main(_train_args(data, out_b)) == 0
        assert (out_a / "train_log.jsonl").read_bytes() == (out_b / "train_log.jsonl").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_beta_zero_runs(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "kl_free"
        assert main(_train_args(data, out, extra=["--beta", "0"])) == 0
        record = json.loads((out / "train_log.jsonl").read_text().splitlines()[0])
        assert set(record) == {
            "iteration", "mean_reward", "abstain_rate", "kl", "objective", "tp", "fp", "fn",
        }

    def test_sft_phase(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "sft_run"
        code = main(
            _train_args(
                data, out, iters="5",
                extra=["--sft-traces", str(data), "--sft-epochs", "50"],
            )
        )
        assert code == 0
        assert (out / "policy.json").exists()

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert main(_train_args(tmp_path / "nope.jsonl", tmp_path / "o")) == 3

    @pytest.mark.parametrize(
        "setting",
        [["--lr", "nan"], ["--group-size", "1"], ["--reward-variant", "bogus"],
         ["--sft-lr=-1", "--sft-traces", "t.jsonl"], ["--seed", "-1"]],
    )
    def test_bad_setting_is_refused_before_the_dataset_is_read(
        self, tmp_path, monkeypatch, setting
    ):
        missing = tmp_path / "nope.jsonl"
        assert main(_train_args(missing, tmp_path / "o", extra=setting)) == 2
        data = _gen(tmp_path)
        for reader in ("read_columns", "iter_dataset"):
            monkeypatch.setattr(cli, reader, lambda path: pytest.fail("dataset read"))
        assert main(_train_args(data, tmp_path / "o", extra=setting)) == 2
        assert not (tmp_path / "o").exists()

    def test_non_utf8_dataset_is_data_error(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_bytes(b"\xff" + _gen(tmp_path, name="valid.jsonl").read_bytes())
        code, err = _main_stderr(_train_args(data, tmp_path / "o"))
        assert code == 3
        assert f"{data}:1: not valid UTF-8" in err
        assert "Traceback" not in err

    def test_lone_surrogate_in_dataset_is_data_error(self, tmp_path):
        """An id JSON-escaped as a lone surrogate, which UTF-8 cannot encode,
        is refused before any artifact is written."""
        data = _gen(tmp_path)
        *lines, last = data.read_text().splitlines()
        lines.append(json.dumps({**json.loads(last), "id": "q\ud800x"}))
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        out.mkdir()
        (out / "earlier.txt").write_text("kept")
        code, err = _main_stderr(_train_args(data, out))
        assert code == 3
        assert f"{data}:{len(lines)}: bad dataset record: id must not hold a lone surrogate" in err
        assert "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["earlier.txt"]
        assert (out / "earlier.txt").read_text() == "kept"
        summary = tmp_path / "s.csv"
        code, err = _main_stderr(["eval", "--checkpoint", str(_oracle_checkpoint(tmp_path)),
                                  "--dataset", str(data), "--out", str(summary)])
        assert code == 3 and f"{data}:{len(lines)}: bad dataset record: id" in err
        assert not summary.exists()

    def test_sft_traces_naming_the_dataset_are_read_once(self, tmp_path, monkeypatch):
        """--sft-traces that resolves to the --dataset file reuses the
        dataset's reward table, with the same artifacts as traces read from
        a copy.  Each file is read once: a copy into a reward table of its
        own."""
        data = _gen(tmp_path)
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(data.read_bytes())
        reads = []
        for name in ("read_columns", "iter_dataset"):
            reader = getattr(cli, name)
            monkeypatch.setattr(
                cli, name,
                lambda path, name=name, reader=reader: reads.append((name, Path(path)))
                or reader(path),
            )
        same = tmp_path / "same"
        spelled = tmp_path / "sub" / ".." / data.name
        (tmp_path / "sub").mkdir()
        assert main(_train_args(data, same, extra=["--sft-traces", str(spelled)])) == 0
        assert reads == [("read_columns", data)]
        copied = tmp_path / "copied"
        assert main(_train_args(data, copied, extra=["--sft-traces", str(copy)])) == 0
        assert reads[1:] == [("read_columns", data), ("read_columns", copy)]
        for name in ("policy.json", "train_log.jsonl", "summary.csv"):
            assert (same / name).read_bytes() == (copied / name).read_bytes()

    @pytest.mark.parametrize("sft", [False, True], ids=["streamed", "same-file-sft"])
    def test_malformed_last_record_is_data_error(self, tmp_path, sft):
        """A dataset whose last record is cut short exits 3 naming its line,
        whether the file streams into the reward table or is read whole for
        SFT as well, and an existing run directory keeps every byte."""
        data = _gen(tmp_path)
        extra = ["--sft-traces", str(data), "--sft-epochs", "5"] if sft else []
        out = tmp_path / "run"
        assert main(_train_args(data, out, extra=extra)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        *lines, last = data.read_text().splitlines()
        lines.append(last[: len(last) // 2])
        data.write_text("\n".join(lines) + "\n")
        code, err = _main_stderr(_train_args(data, out, iters="3", extra=extra))
        assert code == 3
        assert f"{data}:{len(lines)}: invalid JSON" in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_streamed_train_holds_less_than_the_parsed_dataset(self, tmp_path):
        """Without SFT the dataset streams into the reward table: the traced
        peak of a whole train command stays below what the list of parsed
        items alone holds."""
        data = _gen(tmp_path, n=3000, seed=4)
        gc.collect()  # resets the collector's counts: collections fall alike in every run
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            items = list(iter_dataset(data))
            held = tracemalloc.get_traced_memory()[0] - base
            del items
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code, err = _main_stderr(_train_args(data, tmp_path / "run", iters="3"))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < held

    def test_same_file_sft_holds_no_list_of_heads(self, tmp_path):
        """SFT from the dataset's own reward table adds no more than a small
        slack to the traced peak of a train command: the dataset is never
        held as a list of heads (on 3000 items that list is over 200 KiB)."""
        data = _gen(tmp_path, n=3000, seed=4)

        def peak(name, extra=()):
            gc.collect()  # resets the collector's counts: collections fall alike in every run
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                code, err = _main_stderr(_train_args(data, tmp_path / name, iters="3", extra=extra))
                assert code == 0, err
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        peak("warm-up")  # first-use costs: compiled patterns, memos
        plain = peak("plain")
        sft = peak("sft", ["--sft-traces", str(data), "--sft-epochs", "5"])
        assert sft <= plain + 64 * 1024, (sft, plain)

    @pytest.mark.parametrize("traces", ["missing", "not-utf8", "no-traces"])
    def test_bad_sft_traces_are_data_error(self, tmp_path, traces):
        data = _gen(tmp_path)
        path = tmp_path / "traces.jsonl"
        if traces == "not-utf8":
            path.write_bytes(b"\xff\n")
        elif traces == "no-traces":
            path.write_text("")
        out = tmp_path / "o"
        code, err = _main_stderr(_train_args(data, out, extra=["--sft-traces", str(path)]))
        assert code == 3
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            _train_args("{empty}", "{tmp}/o"),
            ["sweep", "--axis", "beta", "--values", "0,1", "--dataset", "{empty}",
             "--out-dir", "{tmp}/s"],
        ],
        ids=["train", "sweep"],
    )
    def test_empty_dataset_is_data_error(self, tmp_path, argv):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main([arg.format(empty=empty, tmp=tmp_path) for arg in argv]) == 3

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--sft-lr", "-1", "sft_lr must be >= 0"),
            ("--sft-lr", "nan", "sft_lr must be finite"),
            ("--sft-lr", "inf", "sft_lr must be finite"),
            ("--sft-epochs", "-3", "sft_epochs must be >= 0"),
        ],
    )
    def test_bad_sft_setting_is_usage_error(self, tmp_path, capsys, flag, value, message):
        data = _gen(tmp_path)
        out = tmp_path / "o"
        extra = ["--sft-traces", str(data), f"{flag}={value}"]
        capsys.readouterr()
        assert main(_train_args(data, out, extra=extra)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_loadable(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "ckpt_run"
        assert main(_train_args(data, out)) == 0
        params = PolicyParams.loads((out / "policy.json").read_text())
        assert params.logits.shape == (6, 6)

    def test_non_finite_hyperparameter_is_usage_error(self, tmp_path, capsys):
        data = _gen(tmp_path)
        for flag, field in (("--lr", "lr"), ("--beta", "beta"), ("--std-eps", "std_eps")):
            capsys.readouterr()
            assert main(_train_args(data, tmp_path / "o", extra=[flag, "nan"])) == 2
            assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", _BAD_GRPO_SETTINGS)
    def test_a_bad_grpo_setting_is_named_as_its_flag(self, tmp_path, flag, value, message):
        out = tmp_path / "o"
        code, err = _main_stderr(_train_args(_gen(tmp_path), out, extra=[f"{flag}={value}"]))
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--lr", "1e308"],
            ["--lr", "1e308", "--inner-steps", "3"],
            ["--sft-traces", "{data}", "--sft-lr", "1e308"],
        ],
    )
    def test_overflowing_lr_is_numerical_failure(self, tmp_path, extra):
        """The run diverges at once, in RL through the objective or the
        logits, or in SFT; the exit code says so, and stderr holds one
        message, with no traceback and no numpy warning."""
        data = _gen(tmp_path)
        extra = [arg.format(data=data) for arg in extra]
        src_root = str(Path(abstainrl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src_root, PYTHONWARNINGS="default")
        proc = subprocess.run(
            [sys.executable, "-m", "abstainrl.cli",
             *_train_args(data, tmp_path / "o", extra=extra)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("numerical failure:")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr

    def test_diverging_train_leaves_an_earlier_run_as_it_was(self, tmp_path):
        """A run that diverges into the directory of an earlier run leaves
        every file of that run byte for byte, so the directory still
        reproduces from its own config.json."""
        data = _gen(tmp_path)
        out = tmp_path / "run"
        assert main(_train_args(data, out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(_train_args(data, out, extra=["--lr", "1e308"])) == 4
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        again = tmp_path / "again"
        assert main(["train", "--config", str(out / "config.json"), "--out-dir", str(again)]) == 0
        assert (again / "train_log.jsonl").read_bytes() == before["train_log.jsonl"]

    @pytest.mark.parametrize(
        "argv",
        [
            _train_args("{data}", "{tmp}/o", extra=["--lr", "1e308"]),
            ["sweep", "--axis", "beta", "--values", "0.01,0.1", "--dataset", "{data}",
             "--out-dir", "{tmp}/o", "--lr", "1e308"],
        ],
        ids=["train", "sweep"],
    )
    def test_diverging_run_into_a_fresh_path_creates_nothing(self, tmp_path, argv):
        data = _gen(tmp_path)
        assert main([arg.format(data=data, tmp=tmp_path) for arg in argv]) == 4
        assert not (tmp_path / "o").exists()

    def test_own_config_is_accepted_as_config(self, tmp_path):
        data = _gen(tmp_path)
        first = tmp_path / "first"
        assert main(_train_args(data, first, extra=["--lr", "0.05", "--sft-traces", str(data)])) == 0
        again = tmp_path / "again"
        assert main(["train", "--config", str(first / "config.json"), "--out-dir", str(again)]) == 0
        assert (again / "train_log.jsonl").read_bytes() == (first / "train_log.jsonl").read_bytes()


def _set_logit(edit):
    """A zero checkpoint with one entry replaced."""
    feature, action_name, value = edit
    payload = PolicyParams.zeros().to_json_dict()
    payload["logits"][feature.name][action_name] = value
    return payload


def _oracle_checkpoint(tmp_path):
    """A checkpoint that answers candidate A in supports rows, abstains elsewhere."""
    logits = np.zeros((6, 6))
    for f in ALL_FEATURES:
        target = (
            ActionId(Choice.ANSWER_A, True)
            if f.evidence is Evidence.SUPPORTS
            else ActionId(Choice.ABSTAIN, True)
        )
        logits[f.index, target.index] = 50.0
    path = tmp_path / "oracle_policy.json"
    path.write_text(PolicyParams(logits).dumps())
    return path


def _oracle_solvable_dataset(tmp_path):
    """Noise-free items rewritten so the gold is always candidate A."""
    items = generate_dataset(GenConfig(n=40, p_unans=0.3, ambiguity=0.0, seed=9))
    fixed = []
    for item in items:
        d = item_to_dict(item)
        if d["gold"] is not None and d["candidates"][0] not in d["gold"]:
            d["candidates"] = [d["candidates"][1], d["candidates"][0]]
        fixed.append(d)
    path = tmp_path / "solvable.jsonl"
    path.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in fixed))
    return path


_SUMMARY_ITEMS = generate_dataset(GenConfig(n=12, p_unans=0.4, ambiguity=0.5, seed=3))


class TestEval:
    def test_bad_reward_variant_is_refused_before_anything_is_read(self, tmp_path, monkeypatch):
        argv = ["eval", "--checkpoint", str(tmp_path / "nope.json"),
                "--dataset", str(tmp_path / "nope.jsonl"), "--reward-variant", "bogus"]
        assert main(argv) == 2
        argv[2], argv[4] = str(_oracle_checkpoint(tmp_path)), str(_gen(tmp_path))
        for reader in ("read_columns", "iter_dataset"):
            monkeypatch.setattr(cli, reader, lambda path: pytest.fail("dataset read"))
        assert main(argv) == 2

    def test_malformed_last_record_writes_no_summary(self, tmp_path):
        data = _gen(tmp_path)
        *lines, last = data.read_text().splitlines()
        lines.append(json.dumps({k: v for k, v in json.loads(last).items() if k != "candidates"}))
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "summary.csv"
        code, err = _main_stderr(["eval", "--checkpoint", str(_oracle_checkpoint(tmp_path)),
                                  "--dataset", str(data), "--out", str(out)])
        assert code == 3
        assert f"{data}:{len(lines)}: bad dataset record: missing field 'candidates'" in err
        assert not out.exists()

    def test_csv_header_and_oracle_scores(self, tmp_path, capsys):
        data = _oracle_solvable_dataset(tmp_path)
        ckpt = _oracle_checkpoint(tmp_path)
        out = tmp_path / "summary.csv"
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,r1,r2,rl,sem,em,tp,fp,fn"
        rows = list(csv.DictReader(lines))
        assert len(rows) == 40
        assert all(row["em"] == "1" for row in rows)
        assert all(row["fp"] == "0" and row["fn"] == "0" for row in rows)
        printed = capsys.readouterr().out
        assert "em_rate=1.0000" in printed

    def test_id_column_is_the_dataset_ids(self, tmp_path):
        ids = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " pad ", "plain"]
        items = generate_dataset(GenConfig(n=len(ids), p_unans=0.3, seed=9))
        data = tmp_path / "ids.jsonl"
        data.write_text("".join(
            json.dumps({**item_to_dict(item), "id": item_id}) + "\n"
            for item, item_id in zip(items, ids)
        ))
        out = tmp_path / "summary.csv"
        assert main(["eval", "--checkpoint", str(_oracle_checkpoint(tmp_path)),
                     "--dataset", str(data), "--out", str(out)]) == 0
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == ids

    @given(st.lists(st.text(max_size=6), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
    @example(["a\rb", 'c"\r'], 0)
    @example(["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "plain"], 1)
    @settings(max_examples=50)
    def test_summary_equals_one_csv_row_per_item(self, tmp_path_factory, ids, seed):
        """Each distinct evaluation is formatted once, yet the file reads
        back as one row per item, each field quoted exactly where it holds
        a special character, and where no id holds a carriage return it is
        what the csv writer writes row by row."""
        items = [
            dataclasses.replace(item, id=item_id)
            for item, item_id in zip(_SUMMARY_ITEMS, ids)
        ]
        params = PolicyParams(np.random.default_rng(seed).normal(size=(6, 6)))
        table = RewardTable(columns_of(items))
        evals = evaluate_items(params, table)
        path = tmp_path_factory.mktemp("summary") / "summary.csv"
        cli._write_summary_csv(path, table.ids, evals)
        rows = [["id", "r1", "r2", "rl", "sem", "em", "tp", "fp", "fn"]] + [
            [item.id, f"{e.rouge1:.6f}", f"{e.rouge2:.6f}", f"{e.rouge_l:.6f}",
             f"{e.semantic:.6f}", str(int(e.em)), str(e.tp), str(e.fp), str(e.fn)]
            for item, e in zip(items, item_evals(evals))
        ]
        text = path.read_bytes().decode("utf-8")
        assert list(csv.reader(io.StringIO(text, newline=""))) == rows
        assert text == "".join(",".join(map(cli._csv_field, row)) + "\n" for row in rows)
        if not any("\r" in item_id for item_id in ids):
            want = io.StringIO()
            csv.writer(want, lineterminator="\n").writerows(rows)
            assert text == want.getvalue()

    def test_empty_dataset_is_data_error(self, tmp_path):
        ckpt = _oracle_checkpoint(tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(empty)]) == 3

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        data = _gen(tmp_path)
        assert main(["eval", "--checkpoint", str(tmp_path / "no.json"),
                     "--dataset", str(data)]) == 3

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda t: t.clear(), "supports:easy"),
            (lambda t: t.update(bogus={}), "bogus"),
            (lambda t: t["contradicts:hard"].pop("abstain:bare"), "abstain:bare"),
            (lambda t: t["contradicts:hard"].update({"answer_a:loud": 0.0}), "answer_a:loud"),
            (lambda t: t["supports:easy"].update({"answer_b:bare": float("nan")}), "answer_b:bare"),
            (lambda t: t["supports:easy"].update({"answer_b:bare": "1.0"}), "answer_b:bare"),
            (lambda t: t["supports:easy"].update({"answer_b:bare": True}), "answer_b:bare"),
        ],
        ids=["empty", "unknown-feature", "missing-action", "unknown-action", "nan", "string", "bool"],
    )
    def test_malformed_checkpoint_is_data_error(self, tmp_path, capsys, edit, named):
        payload = json.loads(_oracle_checkpoint(tmp_path).read_text())
        edit(payload["logits"])
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(payload))
        data = _gen(tmp_path)
        assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data),
                     "--out", str(tmp_path / "s.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input-data error: malformed checkpoint") and named in err


class TestSweep:
    def test_p_unans_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--axis", "p-unans",
                "--values", "0.124,0.5",
                "--out-dir", str(out),
                "--n", "40",
                "--ambiguity", "0.5",
                "--iters", "10",
                "--batch-size", "8",
                "--seed", "2",
            ]
        )
        assert code == 0
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "axis,value,mean_reward,abstain_rate,em_rate,tp,fp,fn"
        assert len(summary) == 3
        for value in ("0.124", "0.5"):
            run_dir = out / f"p-unans_{value}"
            assert (run_dir / "train_log.jsonl").exists()
            assert (run_dir / "dataset.jsonl").exists()

    def test_p_unans_sweep_holds_less_than_a_generated_list(self, tmp_path):
        """A p-unans sweep streams each run's items into its dataset file
        and that file's heads into the reward table, as gen then train do:
        the traced peak of the whole sweep stays below what the list
        ``generate_dataset`` returns for one of its runs holds."""
        cfg = GenConfig(n=3000, p_unans=0.124, ambiguity=0.25, seed=4)
        argv = ["sweep", "--axis", "p-unans", "--values", "0.124,0.5", "--n", "3000",
                "--ambiguity", "0.25", "--iters", "3", "--seed", "4"]
        with contextlib.redirect_stdout(io.StringIO()):
            # first-use costs, which the sweep would otherwise count
            assert main([*argv, "--out-dir", str(tmp_path / "warm")]) == 0
        gc.collect()  # resets the collector's counts: collections fall alike in every run
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            items = generate_dataset(cfg)
            held = tracemalloc.get_traced_memory()[0] - base
            del items
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*argv, "--out-dir", str(tmp_path / "sweep")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < held

    def test_beta_sweep_uses_shared_dataset(self, tmp_path):
        data = _gen(tmp_path)
        out = tmp_path / "betas"
        code = main(
            [
                "sweep",
                "--axis", "beta",
                "--values", "0,0.01",
                "--dataset", str(data),
                "--out-dir", str(out),
                "--iters", "8",
                "--batch-size", "8",
                "--seed", "2",
            ]
        )
        assert code == 0
        cfg = json.loads((out / "beta_0.01" / "config.json").read_text())
        assert cfg["beta"] == 0.01

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--axis", "p-unans", "--values", "0.1,0.5", "--n", "20", "--sft-lr=-1"],
             "sft_lr must be >= 0"),
            (["--axis", "beta", "--values", "0.01,-1", "--dataset", "{data}"], "beta must be >= 0"),
            (["--axis", "beta", "--values", "0.01,inf", "--dataset", "{data}"],
             "beta must be finite, got inf"),
            (["--axis", "beta", "--values=-1,0.1", "--dataset", "{data}"], "beta must be >= 0"),
            (["--axis", "p-unans", "--values", "0.1,1.5", "--n", "20"],
             "p_unans must lie in [0, 1], got 1.5"),
        ],
        ids=["sft-lr", "late-beta", "late-beta-inf", "first-beta-negative", "late-p-unans"],
    )
    def test_bad_run_setting_writes_nothing(self, tmp_path, argv, message):
        """Every run is checked before the first one writes anything; the
        error names the setting as its flag does."""
        data = _gen(tmp_path)
        out = tmp_path / "s"
        argv = [arg.format(data=data) for arg in argv]
        code, err = _main_stderr(["sweep", *argv, "--out-dir", str(out), "--iters", "2",
                                  "--batch-size", "4"])
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["--axis", "p-unans", "--values", "0.1,0.5", "--n", "20"],
         ["--axis", "beta", "--values", "0,0.01", "--dataset", "{data}"]],
        ids=["p-unans", "beta"],
    )
    def test_negative_seed_is_refused_before_anything_is_read(self, tmp_path, monkeypatch, argv):
        data = _gen(tmp_path)
        for reader in ("read_columns", "iter_dataset"):
            monkeypatch.setattr(cli, reader, lambda path: pytest.fail("dataset read"))
        out = tmp_path / "s"
        argv = [arg.format(data=data) for arg in argv]
        code, err = _main_stderr(["sweep", *argv, "--out-dir", str(out), "--iters", "2",
                                  "--seed", "-1"])
        assert code == 2
        assert err == "error: seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", _BAD_GRPO_SETTINGS)
    @pytest.mark.parametrize(
        "argv",
        [["--axis", "p-unans", "--values", "0.1,0.5", "--n", "20"],
         ["--axis", "reward-variant", "--values", "rouge,rouge+em", "--dataset", "{data}"]],
        ids=["p-unans", "reward-variant"],
    )
    def test_a_bad_grpo_setting_is_named_as_its_flag(self, tmp_path, argv, flag, value, message):
        data = _gen(tmp_path)
        out = tmp_path / "s"
        argv = [arg.format(data=data) for arg in argv]
        code, err = _main_stderr(["sweep", *argv, "--out-dir", str(out), f"{flag}={value}"])
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--n", "0", "n must be >= 1"),
         ("--difficulty-mix", "-1", "difficulty_mix must lie in [0, 1], got -1.0"),
         ("--ambiguity", "7", "ambiguity must lie in [0, 1], got 7.0")],
        ids=["n", "difficulty-mix", "ambiguity"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["--axis", "p-unans", "--values", "0.1,0.5"],
         ["--axis", "beta", "--values", "0,0.01", "--dataset", "{data}"],
         ["--axis", "reward-variant", "--values", "rouge,rouge+em", "--dataset", "{data}"]],
        ids=["p-unans", "beta", "reward-variant"],
    )
    def test_generator_settings_are_checked_on_every_axis(
        self, tmp_path, monkeypatch, argv, flag, value, message
    ):
        """A bad generator setting exits 2 before anything is read: a p-unans
        sweep checks it, and the other axes, which generate nothing, refuse
        the flag."""
        if argv[1] != "p-unans":
            message = f"sweep over {argv[1]} generates no dataset: drop {flag}"
        data = _gen(tmp_path)
        for reader in ("read_columns", "iter_dataset"):
            monkeypatch.setattr(cli, reader, lambda path: pytest.fail("dataset read"))
        out = tmp_path / "s"
        argv = [arg.format(data=data) for arg in argv]
        code, err = _main_stderr(["sweep", *argv, "--out-dir", str(out), "--iters", "2",
                                  flag, value])
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--axis", "p-unans", "--values", "0.1,0.5", "--dataset", "/nonexistent.jsonl"],
             "sweep over p-unans writes each run's dataset: drop --dataset"),
            *(
                (["--axis", axis, "--values", values, "--dataset", "data.jsonl", flag, value],
                 f"sweep over {axis} generates no dataset: drop {flag}")
                for axis, values in [("beta", "0,0.01"), ("reward-variant", "rouge,rouge+em")]
                for flag, value in [("--n", "7"), ("--difficulty-mix", "0.5"),
                                    ("--ambiguity", "0.9")]
            ),
            (["--axis", "beta", "--values", "0,0.01", "--dataset", "data.jsonl", "--beta", "5"],
             "sweep over beta sets the value per run: drop --beta"),
            (["--axis", "reward-variant", "--values", "rouge+em,rouge+sem", "--dataset",
              "data.jsonl", "--reward-variant", "rouge"],
             "sweep over reward-variant sets the value per run: drop --reward-variant"),
        ],
        ids=["p-unans-dataset", "beta-n", "beta-difficulty-mix", "beta-ambiguity",
             "reward-variant-n", "reward-variant-difficulty-mix", "reward-variant-ambiguity",
             "beta-beta", "reward-variant-reward-variant"],
    )
    def test_an_ignored_flag_is_refused_before_anything_is_read(
        self, tmp_path, monkeypatch, argv, message
    ):
        """A flag that the sweep's axis would ignore or override exits 2
        naming it; no dataset or config file is read and nothing is
        written."""
        for reader in ("read_columns", "iter_dataset"):
            monkeypatch.setattr(cli, reader, lambda path: pytest.fail("dataset read"))
        monkeypatch.chdir(tmp_path)
        # a config file that does not exist: reading it would exit 3
        argv = ["sweep", *argv, "--out-dir", "s", "--config", "missing.json"]
        assert _main_stderr(argv) == (2, f"error: {message}\n")
        assert not (tmp_path / "s").exists()

    def test_a_runs_config_is_accepted_as_config(self, tmp_path):
        """A run's config.json carries the dataset, beta and reward variant
        that the sweep flags refuse; as --config they are accepted, and the
        axis still sets its value per run."""
        data = _gen(tmp_path)
        run = tmp_path / "run"
        assert main(_train_args(data, run, iters="4", extra=["--beta", "5"])) == 0
        for axis, values in [("beta", "0.0,0.01"), ("reward-variant", "rouge,rouge+em"),
                             ("p-unans", "0.1,0.5")]:
            out = tmp_path / axis
            assert main(["sweep", "--axis", axis, "--values", values, "--out-dir", str(out),
                         "--config", str(run / "config.json")]) == 0
            first = json.loads((out / f"{axis}_{values.split(',')[0]}" / "config.json").read_text())
            assert first["beta"] == (0.0 if axis == "beta" else 5.0)
            if axis == "p-unans":
                assert first["dataset"] == str(out / "p-unans_0.1" / "dataset.jsonl")

    def test_p_unans_runs_equal_gen_then_train(self, tmp_path):
        """Each run of a p-unans sweep, which trains on the items it has just
        generated, equals gen followed by a lone train with the same settings
        (the lone run directory carries the sweep's run name, since
        curves.svg shows the name)."""
        values = ["0.124", "0.5"]
        flags = ["--iters", "20", "--lr", "0.05", "--batch-size", "8", "--seed", "7"]
        out = tmp_path / "sweep"
        assert main(["sweep", "--axis", "p-unans", "--values", ",".join(values),
                     "--out-dir", str(out), "--n", "300", "--ambiguity", "0.5", *flags]) == 0
        for value in values:
            data = tmp_path / f"gen_{value}.jsonl"
            assert main(["gen", "--n", "300", "--p-unans", value, "--ambiguity", "0.5",
                         "--seed", "7", "--out", str(data)]) == 0
            alone = tmp_path / "alone" / f"p-unans_{value}"
            assert main(["train", "--dataset", str(data), "--out-dir", str(alone), *flags]) == 0
            run = out / f"p-unans_{value}"
            assert (run / "dataset.jsonl").read_bytes() == data.read_bytes()
            for name in ("train_log.jsonl", "policy.json", "summary.csv", "curves.svg"):
                assert (run / name).read_bytes() == (alone / name).read_bytes(), (value, name)

    def test_a_p_unans_runs_config_regenerates_its_dataset(self, tmp_path):
        """A p-unans run's config.json records the generator settings the
        run used: gen with its n, p_unans, difficulty_mix, ambiguity and
        seed writes the run's dataset byte for byte, and so does a p-unans
        sweep given the file as --config, whose flags win over it."""
        out = tmp_path / "sweep"
        assert main(["sweep", "--axis", "p-unans", "--values", "0.2,0.5", "--out-dir", str(out),
                     "--n", "50", "--difficulty-mix", "0.3", "--ambiguity", "0.5",
                     "--iters", "3", "--seed", "7"]) == 0
        gen_keys = ("n", "p_unans", "difficulty_mix", "ambiguity", "seed")
        for value in ("0.2", "0.5"):
            run = out / f"p-unans_{value}"
            config = json.loads((run / "config.json").read_text())
            assert {key: config[key] for key in gen_keys} == {
                "n": 50, "p_unans": float(value), "difficulty_mix": 0.3, "ambiguity": 0.5,
                "seed": 7,
            }
            data = tmp_path / f"gen_{value}.jsonl"
            flags = [arg for key in gen_keys for arg in (f"--{key.replace('_', '-')}",
                                                         str(config[key]))]
            assert main(["gen", *flags, "--out", str(data)]) == 0
            assert data.read_bytes() == (run / "dataset.jsonl").read_bytes()
            again = tmp_path / f"again_{value}"
            assert main(["sweep", "--axis", "p-unans", "--values", f"{value},0.9",
                         "--out-dir", str(again), "--config", str(run / "config.json")]) == 0
            assert (again / f"p-unans_{value}" / "dataset.jsonl").read_bytes() == data.read_bytes()
        flagged = tmp_path / "flagged"
        assert main(["sweep", "--axis", "p-unans", "--values", "0.2,0.9", "--out-dir", str(flagged),
                     "--config", str(out / "p-unans_0.2" / "config.json"), "--n", "20"]) == 0
        config = json.loads((flagged / "p-unans_0.2" / "config.json").read_text())
        assert (config["n"], config["ambiguity"]) == (20, 0.5)
        assert len((flagged / "p-unans_0.2" / "dataset.jsonl").read_text().splitlines()) == 20

    def test_shared_inputs_are_read_and_fitted_once(self, tmp_path, monkeypatch):
        """The dataset and the traces are read once and the cold start is
        fitted once, in a beta sweep and in a reward-variant sweep, and
        every run still matches a lone train run."""
        data = _gen(tmp_path)
        calls = collections.Counter()

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        counted("read_columns")
        counted("iter_dataset")
        counted("sft_train")
        flags = ["--dataset", str(data), "--iters", "6", "--batch-size", "8", "--seed", "2",
                 "--sft-traces", str(data), "--sft-epochs", "20"]
        for axis, values, flag in (
            ("beta", ["0.0", "0.01", "0.1"], "--beta"),
            ("reward-variant", ["rouge", "rouge+sem+em", "rouge+em"], "--reward-variant"),
        ):
            calls.clear()
            out = tmp_path / axis
            assert main(["sweep", "--axis", axis, "--values", ",".join(values),
                         "--out-dir", str(out), *flags]) == 0
            assert calls == {"read_columns": 1, "sft_train": 1}
            for value in values:
                alone = tmp_path / f"alone_{axis}_{value}"
                assert main(["train", "--out-dir", str(alone), flag, value, *flags]) == 0
                for name in ("policy.json", "train_log.jsonl", "summary.csv"):
                    assert (out / f"{axis}_{value}" / name).read_bytes() == (
                        alone / name
                    ).read_bytes(), (value, name)

    @pytest.mark.parametrize(
        "axis, values",
        [("beta", "0,0.01,0.1"), ("reward-variant", "rouge+em,rouge,rouge+sem,rouge+sem+em")],
        ids=["beta", "reward-variant"],
    )
    def test_runs_share_one_reward_table(self, tmp_path, scoring_calls, axis, values):
        """A beta or reward-variant sweep scores the dataset once for all its
        runs: over the whole sweep each distinct completion text is parsed
        once and each (answer, gold) measured once."""
        data = _gen(tmp_path)
        parsed, measured = scoring_calls
        assert main(["sweep", "--axis", axis, "--values", values, "--dataset", str(data),
                     "--out-dir", str(tmp_path / "s"), "--iters", "4", "--batch-size", "8"]) == 0
        assert parsed and len(parsed) == len(set(parsed))
        assert measured and len(measured) == len(set(measured))

    def test_duplicate_values_rejected(self, tmp_path):
        assert main(
            ["sweep", "--axis", "beta", "--values", "0.1,0.1",
             "--dataset", "x.jsonl", "--out-dir", str(tmp_path / "s")]
        ) == 2

    def test_single_value_rejected(self, tmp_path):
        assert main(
            ["sweep", "--axis", "beta", "--values", "0.1",
             "--dataset", "x.jsonl", "--out-dir", str(tmp_path / "s")]
        ) == 2

    def test_unknown_axis_rejected(self, tmp_path):
        assert main(
            ["sweep", "--axis", "lr", "--values", "0.1,0.2",
             "--dataset", "x.jsonl", "--out-dir", str(tmp_path / "s")]
        ) == 2


class TestReport:
    def test_svg_and_aggregate(self, tmp_path):
        data = _gen(tmp_path)
        run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
        assert main(_train_args(data, run_a, iters="6")) == 0
        assert main(_train_args(data, run_b, iters="6")) == 0
        out = tmp_path / "report"
        assert main(["report", "--runs", str(run_a), str(run_b), "--out-dir", str(out)]) == 0
        svg = (out / "curves.svg").read_text()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        rows = (out / "aggregate.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 runs

    def test_missing_log_is_data_error(self, tmp_path):
        assert main(["report", "--runs", str(tmp_path / "ghost"),
                     "--out-dir", str(tmp_path / "r")]) == 3

    def test_run_without_records(self, tmp_path):
        data = _gen(tmp_path)
        run = tmp_path / "idle"
        assert main(_train_args(data, run, iters="0")) == 0
        out = tmp_path / "report"
        assert main(["report", "--runs", str(run), "--out-dir", str(out)]) == 0
        assert (out / "aggregate.csv").read_text().splitlines()[1] == "idle,0,,,,,"
        ET.fromstring((out / "curves.svg").read_text())

    RECORD = {"iteration": 0, "mean_reward": 0.5, "abstain_rate": 0.25, "kl": 0.0,
              "objective": 0.1, "tp": 1, "fp": 2, "fn": 3}

    def _report(self, tmp_path, second_line):
        run = tmp_path / "run"
        run.mkdir()
        (run / "train_log.jsonl").write_text(json.dumps(self.RECORD) + "\n" + second_line + "\n")
        return _main_stderr(["report", "--runs", str(run), "--out-dir", str(tmp_path / "r")])

    def test_unknown_key_is_ignored(self, tmp_path):
        later = {**self.RECORD, "iteration": 1, "entropy": 0.3}
        code, _ = self._report(tmp_path, json.dumps(later))
        assert code == 0
        assert (tmp_path / "r" / "aggregate.csv").read_text().splitlines()[1] == (
            "run,2,0.500000,0.250000,1,2,3"
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            (json.dumps({**RECORD, "mean_reward": "a"}), "field 'mean_reward' must be a float"),
            (json.dumps({**RECORD, "mean_reward": 10**400}), "field 'mean_reward' must be a float"),
            (json.dumps({**RECORD, "mean_reward": float("nan")}),
             "field 'mean_reward' must be a float and finite, got nan"),
            (json.dumps({**RECORD, "abstain_rate": float("inf")}),
             "field 'abstain_rate' must be a float and finite, got inf"),
            (json.dumps({**RECORD, "kl": float("-inf")}),
             "field 'kl' must be a float and finite, got -inf"),
            (json.dumps({**RECORD, "objective": float("nan")}),
             "field 'objective' must be a float and finite, got nan"),
            (json.dumps({**RECORD, "tp": True}), "field 'tp' must be an integer"),
            (json.dumps({**RECORD, "iteration": 1.0}), "field 'iteration' must be an integer"),
            (json.dumps({k: v for k, v in RECORD.items() if k != "kl"}),
             "bad train record: missing field 'kl'"),
            ("[1, 2]", "bad train record: record must be a JSON object, got [1, 2]"),
            ("{not json", "invalid JSON"),
        ],
        ids=["string", "overflowing", "nan", "inf", "minus-inf", "nan-objective", "bool",
             "float-count", "missing", "array", "bad-json"],
    )
    def test_malformed_log_is_data_error(self, tmp_path, line, message):
        code, err = self._report(tmp_path, line)
        assert code == 3
        assert "train_log.jsonl:2: " in err and message in err

    @pytest.mark.parametrize("field", ["iteration", "tp", "fp", "fn"])
    def test_negative_count_is_data_error(self, tmp_path, field):
        code, err = self._report(tmp_path, json.dumps({**self.RECORD, field: -5}))
        assert code == 3
        assert f"train_log.jsonl:2: bad train record: field {field!r} must be an integer >= 0" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "lines, labels",
        [
            ([{"mean_reward": -5.0}], ['y="320.0">-5.00<']),
            ([{"abstain_rate": 5.0}], ["(dashed, 0-5 scale)"]),
            ([{"mean_reward": -1.7e308, "abstain_rate": -1.7e308},
              {"mean_reward": 1.7e308, "abstain_rate": 1.7e308}],
             [f">{-1.7e308:.2f}<", f">{1.7e308:.2f}<", "(dashed, -1.7e+308-1.7e+308 scale)"]),
        ],
        ids=["negative-reward", "abstain-above-one", "extremes"],
    )
    def test_every_curve_lies_on_the_plot(self, tmp_path, lines, labels):
        """Values that train never writes but TrainLog.read accepts widen
        the scales, whose labels show them, and stay inside the SVG."""
        later = [json.dumps({**self.RECORD, "iteration": i + 1, **edit})
                 for i, edit in enumerate(lines)]
        assert self._report(tmp_path, "\n".join(later))[0] == 0
        svg = (tmp_path / "r" / "curves.svg").read_text()
        root = ET.fromstring(svg)
        _, _, width, height = map(float, root.get("viewBox").split())
        points = [
            tuple(map(float, xy.split(",")))
            for polyline in root.iter("{http://www.w3.org/2000/svg}polyline")
            for xy in polyline.get("points").split()
        ]
        assert len(points) == 2 * (1 + len(lines))
        assert all(0 <= x <= width and 0 <= y <= height for x, y in points)
        for label in labels:
            assert label in svg

    def test_run_names_with_csv_specials_read_back(self, tmp_path):
        # a lone "\r" must be quoted too, or a reader ends the row there
        names = ["a\rb", "c,d", 'e"f', "g\r\nh", "plain"]
        for name in names:
            (tmp_path / name).mkdir()
            (tmp_path / name / "train_log.jsonl").write_text(json.dumps(self.RECORD) + "\n")
        out = tmp_path / "r"
        assert main(["report", "--runs", *(str(tmp_path / n) for n in names),
                     "--out-dir", str(out)]) == 0
        with open(out / "aggregate.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == names
        assert all(row[1:] == ["1", "0.500000", "0.250000", "1", "2", "3"] for row in rows[1:])

    # a name with a character XML forbids, and one with a byte that is not UTF-8
    @pytest.mark.parametrize("name", ["a\x01b", os.fsdecode(b"run\xff")])
    def test_any_run_name_gives_well_formed_artifacts(self, tmp_path, name):
        data = _gen(tmp_path)
        run = tmp_path / name
        assert main(_train_args(data, run, iters="4")) == 0
        ET.fromstring((run / "curves.svg").read_text(encoding="utf-8"))
        out = tmp_path / "r"
        assert main(["report", "--runs", str(run), "--out-dir", str(out)]) == 0
        ET.fromstring((out / "curves.svg").read_text(encoding="utf-8"))
        rows = (out / "aggregate.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1].split(",")[:2] == [name.replace("\udcff", "\ufffd"), "4"]

    def test_single_run_svg_parses(self, tmp_path):
        data = _gen(tmp_path)
        run = tmp_path / "solo"
        assert main(_train_args(data, run, iters="4")) == 0
        ET.fromstring((run / "curves.svg").read_text())


class TestTrainFlags:
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("key", list(_TRAIN_DEFAULTS))
    def test_every_train_key_is_a_flag(self, command, key):
        default = _TRAIN_DEFAULTS[key]
        value = {type(None): "x.jsonl", int: 3, float: 0.25, str: "rouge"}[type(default)]
        argv = [command, f"--{key.replace('_', '-')}", str(value)]
        if command == "sweep":
            argv += ["--axis", "beta", "--values", "0,1"]
        args = build_parser().parse_args(argv)
        # sweep's --out-dir names the parent of its run directories
        dest = "out_dir_sweep" if (command, key) == ("sweep", "out_dir") else key
        assert getattr(args, dest) == value

    @pytest.mark.parametrize("field", dataclasses.fields(GrpoConfig), ids=lambda f: f.name)
    def test_each_grpo_field_is_a_train_and_sweep_flag(self, field):
        """A GRPO setting has one name and one default, its config field's."""
        default = _TRAIN_DEFAULTS[field.name]
        assert (type(default), default) == (type(field.default), field.default)
        for argv in (["train"], ["sweep", "--axis", "beta", "--values", "0,1"]):
            args = build_parser().parse_args([*argv, f"--{field.name.replace('_', '-')}", "7"])
            assert getattr(args, field.name) == 7

    @pytest.mark.parametrize("field", dataclasses.fields(GenConfig), ids=lambda f: f.name)
    def test_each_generator_field_is_a_gen_setting(self, field):
        """A generator setting has one name and one default, its config field's."""
        default = cli._GEN_DEFAULTS[field.name]
        assert (type(default), default) == (type(field.default), field.default)


# every subcommand's flags, in order: (option strings, dest, type, default);
# a flag whose default is None takes its value from --config or the
# command's own defaults
FLAGS = {
    "gen": [
        (("--n",), "n", int, None),
        (("--p-unans",), "p_unans", float, None),
        (("--difficulty-mix",), "difficulty_mix", float, None),
        (("--ambiguity",), "ambiguity", float, None),
        (("--seed",), "seed", int, None),
        (("--out",), "out", str, None),
        (("--config",), "config", str, None),
    ],
    "build-mc": [
        (("--in",), "in_path", str, None),
        (("--ratio",), "ratio", float, None),
        (("--seed",), "seed", int, None),
        (("--out",), "out", str, None),
        (("--config",), "config", str, None),
    ],
    "extract": [
        (("--mode",), "mode", None, "sub-context"),
        (("--question",), "question", str, None),
        (("--context",), "context", str, None),
        (("--context-file",), "context_file", str, None),
        (("--dataset",), "dataset", str, None),
        (("--window",), "window", str, None),
        (("--out",), "out", str, None),
    ],
    "train": [
        (("--dataset",), "dataset", str, None),
        (("--out-dir",), "out_dir", str, None),
        (("--iters",), "iters", int, None),
        (("--group-size",), "group_size", int, None),
        (("--clip-eps",), "clip_eps", float, None),
        (("--beta",), "beta", float, None),
        (("--lr",), "lr", float, None),
        (("--inner-steps",), "inner_steps", int, None),
        (("--std-eps",), "std_eps", float, None),
        (("--batch-size",), "batch_size", int, None),
        (("--seed",), "seed", int, None),
        (("--reward-variant",), "reward_variant", str, None),
        (("--sft-traces",), "sft_traces", str, None),
        (("--sft-lr",), "sft_lr", float, None),
        (("--sft-epochs",), "sft_epochs", int, None),
        (("--config",), "config", str, None),
    ],
    "eval": [
        (("--checkpoint",), "checkpoint", str, None),
        (("--dataset",), "dataset", str, None),
        (("--reward-variant",), "reward_variant", str, "rouge+em"),
        (("--out",), "out", str, "summary.csv"),
    ],
    "sweep": [
        (("--axis",), "axis", str, None),
        (("--values",), "values", str, None),
        (("--out-dir",), "out_dir_sweep", str, None),
        (("--n",), "n", int, None),
        (("--difficulty-mix",), "difficulty_mix", float, None),
        (("--ambiguity",), "ambiguity", float, None),
        (("--dataset",), "dataset", str, None),
        (("--iters",), "iters", int, None),
        (("--group-size",), "group_size", int, None),
        (("--clip-eps",), "clip_eps", float, None),
        (("--beta",), "beta", float, None),
        (("--lr",), "lr", float, None),
        (("--inner-steps",), "inner_steps", int, None),
        (("--std-eps",), "std_eps", float, None),
        (("--batch-size",), "batch_size", int, None),
        (("--seed",), "seed", int, None),
        (("--reward-variant",), "reward_variant", str, None),
        (("--sft-traces",), "sft_traces", str, None),
        (("--sft-lr",), "sft_lr", float, None),
        (("--sft-epochs",), "sft_epochs", int, None),
        (("--config",), "config", str, None),
    ],
    "report": [
        (("--runs",), "runs", None, None),
        (("--out-dir",), "out_dir", str, "report"),
    ],
}


def test_every_subcommand_has_exactly_its_flags():
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    assert list(subcommands) == list(FLAGS)
    for name, parser in subcommands.items():
        flags = [
            (tuple(a.option_strings), a.dest, a.type, a.default)
            for a in parser._actions
            if a.dest != "help"
        ]
        assert flags == FLAGS[name], name


# the exit code, stdout and stderr of each command line, recorded at 80
# columns from the parser that built every subcommand's flags on every call
CLI_OUTPUTS = json.loads((Path(__file__).parent / "data" / "cli_outputs.json").read_text())


@pytest.mark.parametrize("case", CLI_OUTPUTS, ids=[" ".join(c["argv"]) or "-" for c in CLI_OUTPUTS])
def test_help_and_usage_errors_are_unchanged(monkeypatch, capsys, case):
    """``abstainrl --help``, each subcommand's ``--help`` and a usage error
    of each subcommand print what the parser of every subcommand printed,
    byte for byte, with the same exit code."""
    monkeypatch.setenv("COLUMNS", "80")
    assert main(list(case["argv"])) == case["code"]
    out, err = capsys.readouterr()
    assert (out, err) == (case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "argv, built",
    [
        (["gen", "--help"], ["gen"]),
        (["train", "--iters", "x"], ["train"]),
        (["report", "--help"], ["report"]),
        (["--help"], list(cli._SUBCOMMANDS)),
        (["bogus"], []),
    ],
)
def test_a_command_line_builds_only_its_subcommands_flags(monkeypatch, capsys, argv, built):
    """Only the subcommand a command line names gets its flags; with none
    named, every subcommand does."""
    calls = []
    for name, (help_text, add_flags) in cli._SUBCOMMANDS.items():
        def recording(parser, name=name, add_flags=add_flags):
            calls.append(name)
            add_flags(parser)

        monkeypatch.setitem(cli._SUBCOMMANDS, name, (help_text, recording))
    main(argv)
    capsys.readouterr()
    assert calls == built


class TestConfigKeys:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--out", "{tmp}/x.jsonl"],
            ["build-mc", "--in", "{tmp}/x.jsonl", "--out", "{tmp}/y.jsonl"],
            ["train", "--dataset", "{tmp}/x.jsonl", "--out-dir", "{tmp}/o"],
            ["sweep", "--axis", "beta", "--values", "0,1", "--dataset", "{tmp}/x.jsonl",
             "--out-dir", "{tmp}/s"],
        ],
    )
    def test_unknown_keys_are_usage_error(self, tmp_path, capsys, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "bogus_key": 1, "lr_typo": 0.1}))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "'bogus_key'" in err and "'lr_typo'" in err

    @pytest.mark.parametrize("value", [None, "3", 3.0, True, [3]])
    def test_wrongly_typed_value_is_usage_error(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": value}))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.jsonl")]) == 2
        assert "'n'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("n", "many"), ("ambiguity", True), ("p_unans", [1]), ("command", 5)]
    )
    @pytest.mark.parametrize("axis", [None, "beta", "p-unans"])
    def test_a_wrongly_typed_run_record_key_is_usage_error(self, tmp_path, capsys, key, value,
                                                           axis):
        """The keys a run's config.json carries besides the command's own
        settings are accepted as --config, but only with their JSON type,
        by every command that ignores them as well as by the p-unans sweep
        that reads the generator settings."""
        data = _gen(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        if axis is None:
            argv = _train_args(data, tmp_path / "run", iters="2")
        else:
            argv = ["sweep", "--axis", axis, "--values", "0,1", "--out-dir", str(tmp_path / "s")]
            argv += [] if axis == "p-unans" else ["--dataset", str(data)]
        assert main([*argv, "--config", str(cfg)]) == 2
        assert f"config key {key!r} has the wrong type" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{bad", "Expecting property name enclosed in double quotes"),
            (b'{"n": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
            (b"[1]", "must hold a JSON object"),
            ("missing", "[Errno 2] No such file or directory"),
            ("directory", "[Errno 21] Is a directory"),
        ],
        ids=["invalid-json", "not-utf8", "not-an-object", "missing", "directory"],
    )
    def test_bad_file_is_named(self, tmp_path, content, message):
        cfg = tmp_path / "cfg.json"
        if content == "directory":
            cfg.mkdir()
        elif content != "missing":
            cfg.write_bytes(content)
        code, err = _main_stderr(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert err.startswith(f"error: config file {cfg}: ") and message in err
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("command, key", [("gen", "p_unans"), ("train", "lr")])
    def test_an_integer_too_large_for_a_float_is_usage_error(self, tmp_path, command, key):
        """A float setting given as an integer no float can hold (10**400)
        is refused and named, and nothing is written."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": 1{"0" * 400}}}')
        if command == "gen":
            argv = ["gen", "--out", str(tmp_path / "x.jsonl")]
        else:
            argv = _train_args(_gen(tmp_path), tmp_path / "run", iters="2")
        code, err = _main_stderr([*argv, "--config", str(cfg)])
        assert (code, err) == (2, f"error: config key {key!r} is too large for a float\n")
        assert not (tmp_path / "x.jsonl").exists() and not (tmp_path / "run").exists()


class TestTooLarge:
    """A size too large to allocate or to index is a usage error: one
    ``error:`` line, exit 2, nothing written.  Every size here is past a
    47-bit address space, so no allocation is made."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("gen", "--n", 10**15),  # MemoryError
            ("gen", "--n", 10**23),  # OverflowError
            ("train", "--batch-size", 10**15),  # numpy's _ArrayMemoryError
        ],
    )
    def test_is_usage_error(self, tmp_path, command, flag, value):
        out = tmp_path / "out"
        out.mkdir()
        if command == "gen":
            argv = ["gen", "--out", str(out / "x.jsonl")]
        else:
            argv = _train_args(_gen(tmp_path), out / "run", iters="2")
        code, err = _main_stderr([*argv, flag, str(value)])
        assert code == 2
        assert err.startswith("error: a setting is too large: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["gen", "--n", "20", "--seed", "1", "--out", str(root / "data.jsonl")]) == 0
    return root


def _main_stderr(argv):
    """Exit code and stderr of one in-process run; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestFuzz:
    """Any JSON object as a config file or a checkpoint ends in a contract
    exit code (an escaping exception would fail the test) with no traceback."""

    # the flags pin the run's size, so that a fuzzed config cannot ask for a
    # long run; every other setting comes from the fuzzed file
    SIZE_FLAGS = ["--iters", "1", "--batch-size", "2", "--group-size", "2",
                  "--inner-steps", "1", "--sft-epochs", "1"]

    @given(
        st.sampled_from(["gen", "train"]),
        st.dictionaries(
            st.sampled_from([*_TRAIN_DEFAULTS, "n", "p_unans", "difficulty_mix", "ambiguity"])
            | st.text(max_size=8),
            json_values,
            max_size=4,
        ),
    )
    @example("train", {"sft_traces": "."})
    @settings(max_examples=150)
    def test_config_files(self, fuzz_dir, command, config):
        cfg = fuzz_dir / "cfg.json"
        cfg.write_text(json.dumps(config))
        if command == "gen":
            argv = ["gen", "--n", "5", "--out", str(fuzz_dir / "gen.jsonl")]
        else:
            argv = ["train", "--dataset", str(fuzz_dir / "data.jsonl"),
                    "--out-dir", str(fuzz_dir / "run"), *self.SIZE_FLAGS]
        code, err = _main_stderr([*argv, "--config", str(cfg)])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err

    @given(
        st.one_of(
            st.dictionaries(st.text(max_size=8), json_values, max_size=3),
            st.fixed_dictionaries({"logits": json_values}),
            st.tuples(
                st.sampled_from(ALL_FEATURES), st.sampled_from([a.name for a in ALL_ACTIONS]),
                json_values,
            ).map(_set_logit),
        )
    )
    @settings(max_examples=150)
    def test_checkpoints(self, fuzz_dir, payload):
        ckpt = fuzz_dir / "ckpt.json"
        ckpt.write_text(json.dumps(payload))
        code, err = _main_stderr(["eval", "--checkpoint", str(ckpt), "--dataset",
                                  str(fuzz_dir / "data.jsonl"), "--out", str(fuzz_dir / "s.csv")])
        assert code in (0, 3)
        assert "Traceback" not in err


def _field(record, path):
    for key in path:
        record = record[key]
    return record


# a valid answerable record with one fact, and a path to each of its values
VALID_RECORD = item_to_dict(generate_dataset(GenConfig(n=1, p_unans=0.0, seed=4))[0])
RECORD_PATHS = [
    ("id",), ("question",), ("gold",), ("gold", 0), ("candidates",), ("candidates", 0),
    ("candidates", 1), ("specifier",), ("specifier", "kind"), ("specifier", "years"),
    ("specifier", "years", 0), ("facts",), ("facts", 0),
    *[("facts", 0, key) for key in ("subject", "relation", "object", "start", "end")],
    ("feature",), ("feature", "evidence"), ("feature", "difficulty"),
]


def _retyped_field(path, record=VALID_RECORD):
    """``path`` and a JSON value of another type than the valid record's
    (bool and int count as different types, as do int and float)."""
    original = type(_field(record, path))
    return st.tuples(st.just(path), json_values.filter(lambda v: type(v) is not original))


class TestDatasetFuzz:
    """A dataset record with one value of the wrong JSON type ends in exit 0
    (the value is accepted) or 3 (the record is rejected), never in a
    traceback, for every command that reads a dataset."""

    @given(st.sampled_from(RECORD_PATHS).flatmap(_retyped_field))
    @example((("candidates", 0), 1))
    @example((("facts", 0, "subject"), 7))
    @example((("specifier", "years", 0), 1.5))
    @example((("facts", 0, "start"), True))
    @settings(max_examples=100)
    def test_one_retyped_field(self, fuzz_dir, edit):
        path, value = edit
        record = json.loads(json.dumps(VALID_RECORD))
        *parents, last = path
        _field(record, parents)[last] = value
        data = fuzz_dir / "retyped.jsonl"
        data.write_text(json.dumps(record) + "\n")
        ckpt = fuzz_dir / "zeros.json"
        ckpt.write_text(PolicyParams.zeros().dumps())
        for argv in (
            ["train", "--dataset", str(data), "--out-dir", str(fuzz_dir / "run"),
             *TestFuzz.SIZE_FLAGS],
            ["eval", "--checkpoint", str(ckpt), "--dataset", str(data),
             "--out", str(fuzz_dir / "s.csv")],
            ["extract", "--mode", "kg", "--dataset", str(data), "--out", str(fuzz_dir / "kg.jsonl")],
        ):
            code, err = _main_stderr(argv)
            assert code in (0, 3), (argv[0], err)
            assert "Traceback" not in err


VALID_MC_SOURCE = {"question": "q", "options": ["a", "b", "c", "d"], "answer_key": "B"}
MC_SOURCE_PATHS = [
    ("question",), ("options",), *[("options", i) for i in range(4)], ("answer_key",),
]


class TestMcSourceFuzz:
    """A multiple-choice source record with one value of another JSON type
    breaks the schema build-mc requires (a string question, four string
    options, a string answer key), so it ends in exit 3, never in a
    traceback, and nothing is written."""

    @given(st.sampled_from(MC_SOURCE_PATHS).flatmap(lambda p: _retyped_field(p, VALID_MC_SOURCE)))
    @example((("options",), "abcd"))
    @example((("question",), 7))
    @example((("options", 0), 1))
    @settings(max_examples=100)
    def test_one_retyped_field(self, fuzz_dir, edit):
        path, value = edit
        record = json.loads(json.dumps(VALID_MC_SOURCE))
        *parents, last = path
        _field(record, parents)[last] = value
        src = fuzz_dir / "mc_src.jsonl"
        src.write_text(json.dumps(record) + "\n")
        out = fuzz_dir / "mc_out.jsonl"
        code, err = _main_stderr(["build-mc", "--in", str(src), "--out", str(out)])
        assert code == 3, err
        assert "Traceback" not in err
        assert not out.exists()


TRAIN_RECORD_PATHS = [(key,) for key in TestReport.RECORD]


class TestTrainLogFuzz:
    """A train log record with one value of another JSON type ends in exit 0
    (an integer where a float is due) or 3, never in a traceback."""

    @given(st.sampled_from(TRAIN_RECORD_PATHS).flatmap(
        lambda p: _retyped_field(p, TestReport.RECORD)))
    @example((("iteration",), 10**400))
    @settings(max_examples=100)
    def test_one_retyped_field(self, fuzz_dir, edit):
        (key,), value = edit
        run = fuzz_dir / "logged"
        run.mkdir(exist_ok=True)
        (run / "train_log.jsonl").write_text(json.dumps({**TestReport.RECORD, key: value}) + "\n")
        code, err = _main_stderr(["report", "--runs", str(run), "--out-dir", str(fuzz_dir / "rep")])
        assert code in (0, 3), err
        assert "Traceback" not in err


class TestWriteTargets:
    """An artifact path that is a directory is an input-data error, and the
    temporary file the artifact was streamed into is removed."""

    @pytest.mark.parametrize("command", ["gen", "train", "extract", "eval"])
    def test_directory_target_is_data_error(self, tmp_path, command):
        data = _gen(tmp_path)
        target = tmp_path / "target"
        argv = {
            "gen": ["gen", "--n", "5", "--out", str(target)],
            # policy.json is written after config.json and the train log
            "train": _train_args(data, target.parent / "run", iters="2"),
            "extract": ["extract", "--question", "Who in 1990?", "--context", "In 1990.",
                        "--out", str(target)],
            "eval": ["eval", "--checkpoint", str(_oracle_checkpoint(tmp_path)),
                     "--dataset", str(data), "--out", str(target)],
        }[command]
        if command == "train":
            target = target.parent / "run" / "policy.json"
        target.mkdir(parents=True)
        code, err = _main_stderr(argv)
        assert code == 3
        assert f"Is a directory: {str(target)!r}" in err
        assert not list(tmp_path.rglob("*.tmp"))


class TestPrintedPaths:
    """A success line names its path with the bytes that are not UTF-8 as
    U+FFFD, so that a strict UTF-8 stdout (a UTF-8 locale without UTF-8
    mode) takes it and the command exits 0."""

    @pytest.mark.parametrize(
        "command", ["gen", "build-mc", "extract", "extract-kg", "train", "eval", "sweep", "report"]
    )
    def test_non_utf8_path_prints_on_a_strict_stdout(self, tmp_path, monkeypatch, command):
        data = _gen(tmp_path)
        target = tmp_path / os.fsdecode(b"d\xff")
        assert main(_train_args(data, tmp_path / "run", iters="2")) == 0
        argv = {
            "gen": ["gen", "--n", "20", "--out", str(target)],
            "build-mc": ["build-mc", "--in", str(TestBuildMc()._sources(tmp_path)),
                         "--out", str(target)],
            "extract": ["extract", "--question", "Who in 1990?", "--context", "In 1990.",
                        "--out", str(target)],
            "extract-kg": ["extract", "--mode", "kg", "--dataset", str(data), "--out", str(target)],
            "train": _train_args(data, target, iters="2"),
            "eval": ["eval", "--checkpoint", str(_oracle_checkpoint(tmp_path)),
                     "--dataset", str(data), "--out", str(target)],
            "sweep": ["sweep", "--axis", "beta", "--values", "0,0.1", "--dataset", str(data),
                      "--out-dir", str(target), "--iters", "2", "--batch-size", "4"],
            "report": ["report", "--runs", str(tmp_path / "run"), "--out-dir", str(target)],
        }[command]
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdout", stdout)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0, err.getvalue()
        stdout.flush()
        assert f"{tmp_path}/d\ufffd" in stdout.buffer.getvalue().decode("utf-8")
        if command == "train":
            assert "d\ufffd" in (target / "curves.svg").read_text(encoding="utf-8")


class TestImport:
    def test_no_module_imports_the_network(self):
        """No abstainrl module opens a socket or speaks HTTP, so importing
        every one of them leaves the network modules unloaded."""
        src_root = str(Path(abstainrl.__file__).resolve().parents[1])
        code = (
            "import importlib, pkgutil, sys, abstainrl\n"
            "for m in pkgutil.iter_modules(abstainrl.__path__):\n"
            "    importlib.import_module('abstainrl.' + m.name)\n"
            "print(sorted(m.name for m in pkgutil.iter_modules(abstainrl.__path__)))\n"
            "print([m for m in ('socket', 'ssl', 'http.client', 'urllib.request')"
            " if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src_root),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        modules, loaded = proc.stdout.splitlines()
        assert "'cli'" in modules and "'retrieval'" in modules
        assert loaded == "[]"

    def test_each_module_imports_alone(self):
        """The package imports none of its modules, and each module imports
        alone in a fresh interpreter with warnings as errors, so no module
        leans on another having been imported first.  The policy, a table
        of logits, imports no other module of the package."""
        src_root = str(Path(abstainrl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src_root)
        loaded = "import sys; print(sorted(m for m in sys.modules if m.startswith('abstainrl.')))"
        proc = subprocess.run([sys.executable, "-W", "error", "-c", f"import abstainrl; {loaded}"],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
        modules = [m.name for m in pkgutil.iter_modules(abstainrl.__path__)]
        assert "cli" in modules and "textmetrics" in modules
        for name in modules:
            proc = subprocess.run([sys.executable, "-W", "error", "-c", f"import abstainrl.{name}"],
                                  env=env, capture_output=True, text=True)
            assert (proc.returncode, proc.stderr) == (0, ""), name
        proc = subprocess.run([sys.executable, "-c", f"import abstainrl.policy; {loaded}"],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "['abstainrl.policy']\n")

    @given(st.text(alphabet=st.sampled_from("&<>;a\"' "), max_size=20) | st.text(max_size=20))
    def test_svg_escape_equals_saxutils(self, text):
        from xml.sax.saxutils import escape

        assert cli._escape(text) == escape(text)


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2
