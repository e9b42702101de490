"""Regression against a committed training run.

``tests/data/golden_train`` holds the artifacts of

    abstainrl gen --n 200 --seed 3 --out data.jsonl
    abstainrl train --dataset data.jsonl --out-dir run --iters 50 \\
        --sft-traces data.jsonl

as recorded by the per-sample scalar training loop.  A change that reorders
float sums may move the floats by rounding, but nothing else: integer log
fields must match exactly, float log fields within ``LOG_RTOL`` relative,
logits within ``LOGITS_ATOL``, and the greedy evaluation byte for byte.
"""

import json
from pathlib import Path

import pytest

from abstainrl.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_train"
LOG_RTOL = 1e-9
LOGITS_ATOL = 1e-12
REPORT = (
    "items=200 mean_reward=1.4650 em_rate=0.5050 abstain_rate=0.0450 r1=0.5257 "
    "r2=0.3886 rl=0.5257 sem=0.5465 tp=9 fp=0 fn=16"
)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    data = tmp / "data.jsonl"
    assert main(["gen", "--n", "200", "--seed", "3", "--out", str(data)]) == 0
    out = tmp / "run"
    argv = ["train", "--dataset", str(data), "--out-dir", str(out), "--iters", "50",
            "--sft-traces", str(data)]
    assert main(argv) == 0
    return out


def _records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_train_log_matches_golden(run_dir):
    got, want = _records(run_dir / "train_log.jsonl"), _records(GOLDEN / "train_log.jsonl")
    assert len(got) == len(want) == 50
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key, expected in w.items():
            if isinstance(expected, int):
                assert g[key] == expected, (w["iteration"], key)
            else:
                assert g[key] == pytest.approx(expected, rel=LOG_RTOL, abs=0.0), (
                    w["iteration"], key
                )


def test_logits_match_golden(run_dir):
    got = json.loads((run_dir / "policy.json").read_text(encoding="utf-8"))["logits"]
    want = json.loads((GOLDEN / "policy.json").read_text(encoding="utf-8"))["logits"]
    assert got.keys() == want.keys()
    for feature, row in want.items():
        assert got[feature].keys() == row.keys()
        for action, value in row.items():
            assert abs(got[feature][action] - value) <= LOGITS_ATOL, (feature, action)


def test_evaluation_matches_golden(run_dir, capsys):
    assert (run_dir / "summary.csv").read_bytes() == (GOLDEN / "summary.csv").read_bytes()
    ckpt = run_dir / "policy.json"
    data = run_dir.parent / "data.jsonl"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data),
                 "--out", str(run_dir.parent / "eval.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == REPORT
