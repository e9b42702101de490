"""Coverage of the benchmark's tracer.

On a short training config the traced call counts must equal closed forms of
the config, which holds only if every binding site of the counted functions
is wrapped.  Run with:

    python3 -m pytest e2ebench/test_tracer.py -q
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from abstainrl import cli, grpo, retrieval  # noqa: E402

import tracer as tracer_mod  # noqa: E402

ITERS, BATCH, GROUP = 5, 6, 3


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_train_call_counts_match_closed_forms(tmp_path):
    data = tmp_path / "data.jsonl"
    assert _quiet_main(["gen", "--n", "40", "--seed", "3", "--out", str(data)]) == 0
    tracer = tracer_mod.Tracer()
    with tracer_mod.installed(tracer):
        tracer.request_id = 0
        code = _quiet_main(
            [
                "train", "--dataset", str(data), "--out-dir", str(tmp_path / "run"),
                "--iters", str(ITERS), "--batch-size", str(BATCH), "--group-size", str(GROUP),
                "--sft-traces", str(data), "--sft-epochs", "2",
            ]
        )
    assert code == 0
    spans = tracer.spans()
    assert spans.calls("cli.main") == 1
    assert spans.calls("grpo.rollout_group") == ITERS * BATCH
    assert spans.calls("reward.total_reward", spans.within("grpo.train_rl")) == ITERS * BATCH * GROUP
    # once from cli directly, once through evaluate_policy in grpo
    assert spans.calls("grpo.evaluate_items") == 2
    assert spans.calls("synthenv.read_dataset") == 2


def test_self_times_partition_the_root_spans():
    tracer = tracer_mod.Tracer()
    store = retrieval.KGStore([retrieval.Quadruple("Ann Lee", "team", "Rovers", "1990-1992")])
    with tracer_mod.installed(tracer):
        retrieval.topk_semantic(store, "Which team did Ann Lee play for in 1991?")
    spans = tracer.spans()
    roots = spans.parent < 0
    assert np.isclose(spans.self_time.sum(), spans.duration[roots].sum())
    assert (spans.self_time >= -1e-9).all()


def test_retrieval_embeds_one_query_plus_every_fact():
    quads = [retrieval.Quadruple(f"Person {i}", "employer", f"Firm {i}", "1990-1995") for i in range(7)]
    store = retrieval.KGStore(quads)
    tracer = tracer_mod.Tracer()
    with tracer_mod.installed(tracer):
        retrieval.topk_semantic(store, "Who employed Person 3?", k=3)
    spans = tracer.spans()
    embeds = spans.calls("textmetrics.trigram_embedding", spans.within("retrieval.topk_semantic"))
    assert embeds == 1 + len(quads)


def test_originals_are_restored():
    bindings = [
        (cli, "evaluate_items"),
        (grpo, "evaluate_items"),
        (grpo, "total_reward"),
        (grpo, "parse_completion"),
        (retrieval, "trigram_embedding"),
        (retrieval.KGStore, "add"),
    ]
    before = [getattr(owner, attr) for owner, attr in bindings]
    with tracer_mod.installed(tracer_mod.Tracer()):
        assert all(getattr(o, a) is not b for (o, a), b in zip(bindings, before))
    assert [getattr(owner, attr) for owner, attr in bindings] == before
