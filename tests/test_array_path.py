"""The array training path against the per-sample scalar loops it replaced.

``scalar_reference`` keeps those loops as oracles: one rollout group and one
completion at a time, every draw re-rendered and re-scored from text.
"""

import dataclasses
import gc
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import grpo_step
import scalar_reference as ref
from scalar_reference import columns_of, render_completion
from abstainrl import grpo, policy, synthenv
from abstainrl.grpo import (
    GrpoConfig,
    GrpoDivergenceError,
    RewardTable,
    evaluate_items,
    train_rl,
)
from abstainrl.policy import (
    ALL_ACTIONS,
    ALL_FEATURES,
    PolicyParams,
    log_softmax,
    sft_train,
)
from abstainrl.reward import (
    DEFAULT_VARIANT,
    RewardBreakdown,
    RewardVariant,
    is_no_answer,
    parse_completion,
    total_reward,
)
from abstainrl.synthenv import (
    GenConfig,
    ItemHead,
    SynthQAItem,
    generate_dataset,
    iter_dataset,
    iter_lines,
    read_columns,
)
from abstainrl.textmetrics import GoldAnswer, exact_match
from test_synthenv import _VALID_RECORDS

ITEMS = generate_dataset(GenConfig(n=40, p_unans=0.4, ambiguity=0.4, seed=31))


def _payout(raw: str, item) -> RewardBreakdown:
    """The bandit payout rule of acceptance criterion A6."""
    pc = parse_completion(raw)
    if pc.format_ok and pc.answer == item.candidate_a:
        return RewardBreakdown(format=0.5, answer=2.0, total=2.5)
    return RewardBreakdown(format=0.0, answer=0.5, total=0.5)


def _column_bytes(table, name):
    """A column array of ``table`` as (dtype, shape, bytes)."""
    column = getattr(table, name)
    return column.dtype, column.shape, column.tobytes()


index_pairs = st.lists(
    st.tuples(st.integers(0, len(ITEMS) - 1), st.integers(0, len(ALL_ACTIONS) - 1)),
    min_size=1,
    max_size=40,
)


class TestRewardTable:
    @given(index_pairs, st.sampled_from(list(RewardVariant)), st.booleans())
    def test_entries_equal_per_call_reward(self, pairs, variant, bandit):
        table = (
            ref.payout_table(ITEMS, _payout) if bandit else RewardTable(columns_of(ITEMS), variant)
        )
        items = np.array([j for j, _ in pairs])
        actions = np.array([a for _, a in pairs])
        rewards, abstained = ref.gather(table, items, actions)
        for k, (j, a) in enumerate(pairs):
            text = render_completion(ALL_ACTIONS[a], ITEMS[j])
            rule = _payout(text, ITEMS[j]) if bandit else total_reward(text, ITEMS[j].gold, variant)
            assert rewards[k] == rule.total
            assert abstained[k] == is_no_answer(parse_completion(text).answer)
            assert table.formatted[table.row[j], a] == parse_completion(text).format_ok

    @given(index_pairs)
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_each_pair_evaluated_once(self, scoring_calls, pairs):
        """The table parses every distinct completion of the (item, action)
        pairs once, and measures every distinct (answer, answerable gold)
        once, when it is built, and never when it is gathered from."""
        parsed, measured = scoring_calls
        parsed.clear()
        measured.clear()
        table = RewardTable(columns_of(ITEMS))
        every_pair = [(render_completion(a, item), item) for item in ITEMS for a in ALL_ACTIONS]
        answers = {
            (parse_completion(text).answer, item.gold)
            for text, item in every_pair
            if not item.gold.is_no_answer
        }
        assert sorted(parsed) == sorted({text for text, _ in every_pair})
        assert len(measured) == len(set(measured)) and set(measured) == answers
        built = (list(parsed), list(measured))
        items = np.array([j for j, _ in pairs])
        actions = np.array([a for _, a in pairs])
        first, _ = ref.gather(table, items, actions)
        again, _ = ref.gather(table, items, actions)
        assert (parsed, measured) == built
        np.testing.assert_array_equal(first, again)

    def test_evaluation_rescores_no_pair_training_scored(self, scoring_calls):
        parsed, measured = scoring_calls
        table = RewardTable(columns_of(ITEMS))
        built = (list(parsed), list(measured))
        cfg = GrpoConfig(iters=5, batch_size=8, seed=1)
        params, _ = train_rl(PolicyParams.zeros(), table, cfg)
        evals = ref.item_evals(evaluate_items(params, table))
        # the table scored each distinct text once; training and evaluation only gather
        assert (parsed, measured) == built
        assert len(parsed) == len(set(parsed)) < len(ITEMS) * len(ALL_ACTIONS)
        for item, e in zip(ITEMS, evals):
            action = ALL_ACTIONS[int(np.argmax(params.logits[item.feature.index]))]
            text = render_completion(action, item)
            assert e.reward == total_reward(text, item.gold).total
            assert e.abstained == is_no_answer(parse_completion(text).answer)

    @given(st.sampled_from(["No Answer", "no answer", "No  Answer.", "no-answer", "No", "Answer"]))
    def test_abstained_follows_the_text_not_the_action(self, candidate):
        item = dataclasses.replace(ITEMS[0], candidate_a=candidate)
        table = RewardTable(columns_of([item]))
        actions = np.arange(len(ALL_ACTIONS))
        rewards, abstained = ref.gather(table, np.zeros(len(actions), dtype=int), actions)
        for a, action in enumerate(ALL_ACTIONS):
            text = render_completion(action, item)
            assert abstained[a] == is_no_answer(parse_completion(text).answer)
            assert rewards[a] == total_reward(text, item.gold).total
        if candidate == "No Answer":
            assert abstained[:2].all()  # both renderings of candidate A read as abstention

    def test_rows_are_keyed_by_candidates_and_gold(self):
        """Items that differ only in id, question and facts share a content
        row; a gold that differs only by case gets its own."""
        base = next(item for item in ITEMS if not item.gold.is_no_answer)
        twin = dataclasses.replace(base, id="twin", question="Who else?", facts=())
        recased = dataclasses.replace(
            base, id="recased", gold=GoldAnswer(tuple(a.swapcase() for a in base.gold.aliases))
        )
        items = [base, twin, recased]
        table = RewardTable(columns_of(items))
        assert table.row.tolist() == [0, 0, 1]
        assert table.rewards.shape == (2, len(ALL_ACTIONS))
        for j, item in enumerate(items):
            for a, action in enumerate(ALL_ACTIONS):
                text = render_completion(action, item)
                reward = ref.gather(table, np.array(j), np.array(a))[0]
                assert reward == total_reward(text, item.gold).total

    def test_item_columns_equal_per_item_construction(self, tmp_path):
        """The features, unanswerable flags and content rows of the columns
        ``read_columns`` reads from a file of items equal the per-item
        construction, whether the items share their feature and gold
        objects, hold equal copies, or mix both, and equal those of the
        items."""
        first: dict = {}
        shared = [
            dataclasses.replace(
                item,
                gold=first.setdefault(item.gold, item.gold),
                feature=first.setdefault(item.feature, item.feature),
            )
            for item in ITEMS
        ]
        copied = [
            dataclasses.replace(item, gold=GoldAnswer(tuple(item.gold.aliases))) for item in ITEMS
        ]
        for n, items in enumerate((shared, copied, shared + copied[::-1])):
            path = tmp_path / f"items{n}.jsonl"
            ref.write_items(items, path)
            table = RewardTable(read_columns(path))
            index: dict = {}
            row = [index.setdefault((i.candidate_a, i.candidate_b, i.gold), len(index)) for i in items]
            assert np.array_equal(table.features, [ALL_FEATURES.index(i.feature) for i in items])
            assert np.array_equal(table.unanswerable, [not i.gold.aliases for i in items])
            assert np.array_equal(table.row, row)
        read = RewardTable(read_columns(tmp_path / "items0.jsonl"))
        want = RewardTable(columns_of(ITEMS))
        for name in ("features", "unanswerable", "row"):
            assert _column_bytes(read, name) == _column_bytes(want, name), name

    @pytest.mark.parametrize(
        "variant", [DEFAULT_VARIANT, RewardVariant.ROUGE_PLUS_SEM_PLUS_EM], ids=["rule", "rule-sem"]
    )
    def test_one_shot_stream_equals_list(self, tmp_path, variant):
        """A table built from the columns of a dataset file's one-shot
        stream of decoded items, or from the columns ``read_columns`` reads
        from that file, equals the table of the same items as a list bit for
        bit, and keeps none of the streamed items."""
        path = tmp_path / "items.jsonl"
        ref.write_items(ITEMS, path)
        want = RewardTable(columns_of(ITEMS), variant)

        def n_items_alive() -> int:
            gc.collect()
            return sum(isinstance(o, SynthQAItem) for o in gc.get_objects())

        alive = n_items_alive()
        for columns in (columns_of(iter_dataset(path)), read_columns(path)):
            got = RewardTable(columns, variant)
            assert n_items_alive() == alive
            assert len(got) == len(ITEMS)
            assert got.ids == want.ids == [item.id for item in ITEMS]
            for name in ("features", "unanswerable", "row", "rewards", "abstained", "metrics"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    @pytest.mark.parametrize("variant", list(RewardVariant))
    def test_all_distinct_items_equal_per_pair_reward(self, variant):
        """With no content shared, the table holds one row per item, equal to
        the rule applied to each rendered pair."""
        items = [
            dataclasses.replace(item, candidate_a=f"{item.candidate_a} {j}")
            for j, item in enumerate(ITEMS)
        ]
        table = RewardTable(columns_of(items), variant)
        assert table.row.tolist() == list(range(len(items)))
        for j, item in enumerate(items):
            for a, action in enumerate(ALL_ACTIONS):
                text = render_completion(action, item)
                assert table.rewards[j, a] == total_reward(text, item.gold, variant).total
                assert table.abstained[j, a] == is_no_answer(parse_completion(text).answer)

    @pytest.mark.parametrize("variant", list(RewardVariant))
    def test_rewards_are_read_from_the_metrics(self, variant):
        """Bit for bit, each cell's reward is its format reward plus 1 for
        abstaining on a No-Answer gold, 0 for any other abstention or
        No-Answer gold, and else ROUGE-L, then EM, then semantic similarity
        as the variant uses them, read from the cell's own metrics row."""
        items = generate_dataset(GenConfig(n=300, p_unans=0.4, ambiguity=0.5, seed=21))
        table = RewardTable(columns_of(items), variant)
        gold_of_row = {}
        for item, r in zip(items, table.row.tolist()):
            gold_of_row.setdefault(r, item.gold)
        assert len(gold_of_row) == len(table.rewards)
        answered = 0
        for r, gold in gold_of_row.items():
            for a, action in enumerate(ALL_ACTIONS):
                want = 0.5 if action.formatted else 0.0
                if table.abstained[r, a] and gold.is_no_answer:
                    want += 1.0
                elif not table.abstained[r, a] and not gold.is_no_answer:
                    em, _, _, rouge_l, semantic = table.metrics[r, a].tolist()
                    score = rouge_l
                    if variant.uses_em:
                        score += em
                    if variant.uses_sem:
                        score += semantic
                    want += score
                    answered += score > 0
                assert table.rewards[r, a] == want, (r, a)
        assert answered > 0

    @given(st.lists(_VALID_RECORDS, min_size=1, max_size=8))
    def test_with_variant_equals_a_table_built_under_it(self, records):
        """For every pair of variants (v, w), the table built under w and
        rescored under v holds, column by column, the bytes of the table
        built under v; the rescored copy shares every column but
        ``rewards`` with the table it was made from, which it leaves as it
        was."""
        items = [ref.item_from_dict(record) for record in records]
        built = {variant: RewardTable(columns_of(items), variant) for variant in RewardVariant}
        for w, base in built.items():
            before = base.rewards.copy()
            for v, want in built.items():
                got = base.with_variant(v)
                assert vars(got).keys() == vars(want).keys()
                for name, column in vars(want).items():
                    if isinstance(column, np.ndarray):
                        assert _column_bytes(got, name) == _column_bytes(want, name), name
                    else:
                        assert getattr(got, name) == column, name
                    if name != "rewards":
                        assert getattr(got, name) is getattr(base, name), name
                assert got.rewards is not base.rewards
            assert base.rewards.tobytes() == before.tobytes()

    def test_only_expert_cells_matches_candidates(self, monkeypatch):
        """Building and rescoring a table run no exact match of a candidate:
        only SFT's ``expert_cells`` does, once per distinct (candidate,
        answerable gold) of the content rows."""
        asked = []
        monkeypatch.setattr(
            grpo, "exact_match",
            lambda candidate, gold: asked.append((candidate, gold)) or exact_match(candidate, gold),
        )
        table = RewardTable(columns_of(ITEMS)).with_variant(RewardVariant.ROUGE_ONLY)
        assert asked == []
        table.expert_cells()
        pairs = {
            (candidate, item.gold)
            for item in ITEMS if not item.gold.is_no_answer
            for candidate in (item.candidate_a, item.candidate_b)
        }
        assert len(asked) == len(set(asked)) == len(pairs) < 2 * len(ITEMS)
        assert set(asked) == pairs

    @given(
        st.integers(0, 2**32 - 1), st.sampled_from(list(RewardVariant)), st.booleans()
    )
    @settings(max_examples=30)
    def test_evaluation_equals_per_item_scoring(self, seed, variant, bandit):
        """Gathered greedy evaluation equals rendering, parsing and scoring
        each item's completion."""
        table = (
            ref.payout_table(ITEMS, _payout) if bandit else RewardTable(columns_of(ITEMS), variant)
        )
        params = PolicyParams(np.random.default_rng(seed).normal(size=(6, 6)))
        got = ref.item_evals(evaluate_items(params, table))
        assert got == ref.evaluate_items(params, ITEMS, variant, _payout if bandit else None)

    @given(
        st.integers(0, 2**32 - 1), st.sampled_from(list(RewardVariant)), st.booleans()
    )
    @settings(max_examples=30)
    def test_summary_equals_the_scalar_summary(self, seed, variant, bandit):
        """The report of the per-item arrays equals, float for float, the
        scalar oracle's, which sums its records one at a time in item order;
        so does every field of every item, and each item's cell is its
        content row and greedy action."""
        table = (
            ref.payout_table(ITEMS, _payout) if bandit else RewardTable(columns_of(ITEMS), variant)
        )
        params = PolicyParams(np.random.default_rng(seed).normal(size=(6, 6)))
        got = evaluate_items(params, table)
        want = ref.evaluate_items(params, ITEMS, variant, _payout if bandit else None)
        assert grpo.summarize_items(got) == ref.summarize_items(want)
        assert ref.item_evals(got) == want
        greedy = np.argmax(params.logits, axis=1)[table.features]
        assert got.cell.tolist() == (table.row * len(ALL_ACTIONS) + greedy).tolist()


# candidate and alias texts that render, parse, abstain and match in every
# way a cell can: surrounding whitespace, the abstention phrase spelled
# otherwise, template tags inside a candidate, case and article variants
_TEXTS = st.one_of(
    st.sampled_from([
        "Alma", " Alma ", "alma", "\tAlma\n", "the Alma.", "Seabrook Rovers",
        "seabrook  rovers", "No Answer", "no answer", " NO ANSWER ", "No  Answer.",
        "no-answer", "No", "Answer", "<think>t</think><answer>Alma</answer>",
        "Alma</answer>", "<answer>Alma", "<think>", "</think>", "</answer>", "A", "a", ".",
    ]),
    st.text(st.sampled_from(list("aAnsw <>/thik.-\t")), min_size=1, max_size=10),
)
_GOLDS = st.one_of(
    st.just(GoldAnswer.no_answer()),
    st.lists(_TEXTS, min_size=1, max_size=3).map(lambda aliases: GoldAnswer(tuple(aliases))),
    _TEXTS.map(lambda alias: GoldAnswer((alias, alias.swapcase(), alias.upper()))),
)


@st.composite
def _heads(draw):
    """Heads with unique ids whose content often repeats: candidate B is
    candidate A in some, and rows share candidates and golds."""
    texts = draw(st.lists(_TEXTS, min_size=1, max_size=4))
    golds = draw(st.lists(_GOLDS, min_size=1, max_size=3))
    heads = []
    for j in range(draw(st.integers(1, 8))):
        a = draw(st.sampled_from(texts))
        b = a if draw(st.booleans()) else draw(st.sampled_from(texts))
        feature = draw(st.sampled_from(ALL_FEATURES))
        heads.append(ItemHead(f"q{j}", feature, draw(st.sampled_from(golds)), a, b))
    return heads


class TestDistinctTextTable:
    """The table built from distinct texts against the per-cell build it
    replaced (``scalar_reference.per_cell_table``)."""

    @given(_heads(), st.sampled_from(list(RewardVariant)))
    @settings(max_examples=150)
    @example(
        [ItemHead("q0", ALL_FEATURES[0], GoldAnswer(("Alma", "ALMA", "the alma")), " Alma ", " Alma "),
         ItemHead("q1", ALL_FEATURES[3], GoldAnswer.no_answer(), "No Answer", "no-answer"),
         ItemHead("q2", ALL_FEATURES[5], GoldAnswer(("No Answer",)),
                  "<think>t</think><answer>Alma</answer>", "Alma</answer>")],
        DEFAULT_VARIANT,
    )
    def test_equals_the_per_cell_oracle(self, heads, variant):
        """Bit for bit, in every column, under every variant; and each row's
        oracle action is ``scalar_reference.oracle_action`` of its head."""
        columns = columns_of(heads)
        table = RewardTable(columns, variant)
        want = ref.per_cell_table(columns, variant)
        for name, column in want.items():
            assert _column_bytes(table, name) == (column.dtype, column.shape, column.tobytes()), name
        oracle = [ref.oracle_action(head).index for head in columns.heads]
        assert table.oracle_actions().tolist() == oracle


def _reserialized(line: str) -> str:
    """The record of ``line`` in another JSON form, which is decoded, not
    scanned: compact separators and the top-level keys in reverse order."""
    return json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":"))


def _bad_line(record: dict, kind: str) -> bytes:
    """``record`` made malformed in one way, as a written-form line unless
    the fault is one that form cannot spell."""
    record = json.loads(json.dumps(record))
    if kind == "scope start past end":
        fact = {"end": 1990, "object": "Ashford", "relation": "residence", "subject": "Ann Lee"}
        record["facts"] = [*record["facts"], {**fact, "start": 1991}]
    elif kind == "unknown evidence":
        record["feature"]["evidence"] = "rumour"
    elif kind == "empty gold":
        record["gold"] = []
    elif kind == "bad specifier":
        record["specifier"] = {"kind": "between", "years": [1991, 1990]}
    elif kind == "lone surrogate":
        record["id"] = "q\ud800"
    line = json.dumps(record, sort_keys=True).encode()
    if kind == "invalid UTF-8":
        line = line.replace(b'"id": "', b'"id": "\xff', 1)
    return line


_BAD_KINDS = ("scope start past end", "unknown evidence", "empty gold", "bad specifier",
              "lone surrogate", "invalid UTF-8")

# a dataset as gen writes it: its size, share of unanswerable items, ambiguity and seed
_GEN_CONFIGS = st.builds(
    GenConfig,
    n=st.integers(1, 60),
    p_unans=st.sampled_from([0.0, 0.124, 0.5, 1.0]),
    ambiguity=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**16),
)


def _lines(cfg: GenConfig, form: str, flips: list[bool]) -> list[bytes]:
    """The lines ``gen`` writes for ``cfg``, as written, each re-serialized,
    or mixed: line i re-serialized where ``flips[i % len(flips)]``."""
    lines = list(iter_lines(cfg))
    if form != "written":
        lines = [
            _reserialized(line) if form == "re-serialized" or flips[i % len(flips)] else line
            for i, line in enumerate(lines)
        ]
    return [line.encode() for line in lines]


def _read_or_error(read, path):
    try:
        return read(path)
    except synthenv.DatasetError as exc:
        return str(exc)


class TestTableFromFile:
    """The table read from a dataset file, through the scan of
    ``read_columns``, is held to the table of the oracle heads
    (``scalar_reference.head_of`` of each record decoded and built whole), and a
    malformed line to the oracle's error."""

    @given(_GEN_CONFIGS, st.sampled_from(["written", "re-serialized", "mixed"]),
           st.lists(st.booleans(), min_size=1, max_size=5), st.sampled_from(list(RewardVariant)))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_table_of_the_oracle_heads(self, tmp_path_factory, cfg, form, flips, variant):
        path = tmp_path_factory.mktemp("table") / "data.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in _lines(cfg, form, flips)))
        got = RewardTable(read_columns(path), variant)
        want = RewardTable(columns_of(ref.iter_heads(path)), variant)
        assert got.ids == want.ids
        for name in ("features", "unanswerable", "row", "formatted", "abstained", "metrics",
                     "rewards"):
            assert _column_bytes(got, name) == _column_bytes(want, name), name

    @given(_GEN_CONFIGS, st.sampled_from(["written", "re-serialized", "mixed"]),
           st.lists(st.booleans(), min_size=1, max_size=5), st.sampled_from(_BAD_KINDS),
           st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_malformed_line_raises_the_oracle_error(
        self, tmp_path_factory, cfg, form, flips, kind, at
    ):
        lines = _lines(cfg, form, flips)
        at = min(at, len(lines))
        record = json.loads(lines[min(at, len(lines) - 1)])
        lines.insert(at, _bad_line(record, kind))
        path = tmp_path_factory.mktemp("bad") / "data.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        got = _read_or_error(read_columns, path)
        assert got == _read_or_error(lambda p: list(ref.iter_heads(p)), path)
        assert isinstance(got, str) and got.startswith(f"{path}:{at + 1}: "), got


probs_rows = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=6, max_size=6
).filter(lambda w: sum(w) > 0).map(lambda w: np.array(w) / sum(w))


class TestSampler:
    @given(probs_rows, st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
    def test_matches_scalar_sampler_per_draw(self, probs, draws):
        # u = 0, every running sum exactly, and the float just below each one
        cum = np.cumsum(probs[:-1])
        u = np.array([0.0, *cum, *np.nextafter(cum, 0.0), *draws])
        got = ref.inverse_cdf(probs[None, :], u[None, :])[0]
        want = [ref.sample_categorical(probs, float(x)) for x in u]
        assert got.tolist() == want

    @given(st.lists(probs_rows, min_size=1, max_size=4), st.integers(0, 2**32 - 1))
    def test_rows_are_independent(self, rows, seed):
        probs = np.stack(rows)
        u = np.random.default_rng(seed).random((len(rows), 5))
        got = ref.inverse_cdf(probs, u)
        for b in range(len(rows)):
            assert got[b].tolist() == ref.inverse_cdf(probs[b], u[b]).tolist()


class TestAdvantages:
    @given(
        st.lists(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 1 / 3]), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_batched_rows_equal_single_groups(self, rows):
        batched = grpo_step.advantages(np.array(rows))
        for b, row in enumerate(rows):
            np.testing.assert_array_equal(batched[b], ref.compute_advantages(np.array(row), 1e-8))

    @given(
        st.lists(
            st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5)
            | st.lists(st.sampled_from([0.0, 0.1, 1 / 3, 1.5]), min_size=5, max_size=5)
            | st.builds(lambda x: [x] * 5, st.floats(-3.0, 3.0)),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([1e-8, 0.0, 0.5]),
    )
    # a subnormal spread: the std underflows to 0 while the rewards differ
    @example(rows=[[0.0, 0.0, 0.0, 0.0, 1.1125369292536007e-308]], std_eps=0.0)
    def test_equals_numpy_mean_and_std(self, rows, std_eps):
        """Sharing the centered values changes no bit: every group equals
        (r - mean) / (std + eps) by np.mean and np.std, +-inf and NaN
        included where the std underflows, and a group whose rewards are all
        equal is exactly zero."""
        r = np.array(rows)
        flat = r.max(axis=-1, keepdims=True) == r.min(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            formula = (r - r.mean(-1, keepdims=True)) / (r.std(-1, keepdims=True) + std_eps)
        want = np.where(flat, 0.0, formula)
        assert grpo_step.advantages(r, std_eps).tobytes() == want.tobytes()

    @pytest.mark.parametrize("std_eps", [1e-8, 0.0])
    def test_flat_groups_are_exactly_zero(self, std_eps):
        # the mean of three 0.1s rounds away from 0.1, so only the explicit
        # zero-variance rule gives exact zeros (and no 0/0 at std_eps = 0)
        rewards = np.array([[0.1, 0.1, 0.1], [0.0, 0.5, 1.0]])
        with np.errstate(all="raise"):
            adv = grpo._advantages(rewards, std_eps)
        assert not adv[0].any()
        assert adv[1].any()


class TestSft:
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=60
        ),
        st.floats(0.01, 1.0),
        st.integers(0, 30),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50)
    def test_count_matrix_equals_per_trace_loop(self, pairs, lr, epochs, seed):
        traces = [
            ref.ExpertTrace(ALL_FEATURES[f], ALL_ACTIONS[a], "", GoldAnswer.no_answer())
            for f, a in pairs
        ]
        params = PolicyParams(np.random.default_rng(seed).normal(size=(6, 6)))
        got = sft_train(params, [trace.cell for trace in traces], lr=lr, epochs=epochs)
        want = ref.sft_train(params, traces, lr=lr, epochs=epochs)
        np.testing.assert_allclose(got.logits, want.logits, rtol=0, atol=1e-12)


def _record(candidates, gold):
    """A valid dataset record with ``candidates`` and ``gold`` (its aliases,
    or None for No-Answer)."""
    return {
        "id": "q", "question": "Who?", "specifier": {"kind": "in_year", "years": [1990]},
        "facts": [], "gold": gold, "candidates": candidates,
        "feature": {"evidence": "supports", "difficulty": "easy"},
    }


_TEMPLATE = "<think>t</think><answer>Alma</answer>"
# the normalized words of the malformed completion the oracle renders for the
# candidate "<answer>", reversed: ROUGE-1 F1 1 against it, ROUGE-L F1 1/8
_REVERSED = "<answer><think><answer><answer><answer> to point window queried in facts <think>the"


class TestExpertCells:
    @given(
        st.lists(_VALID_RECORDS, min_size=1, max_size=8),
        st.sampled_from(list(RewardVariant)),
        st.booleans(),
    )
    # the oracle answers a candidate that is itself a template: its rendered
    # completion is malformed, and its whole text is not the gold
    @example([_record([_TEMPLATE, "Alma"], [_TEMPLATE])], DEFAULT_VARIANT, False)
    @example([_record([_TEMPLATE, "Alma"], ["Alma"])], DEFAULT_VARIANT, True)
    # an exact match on the gold that abstains, which scores 0
    @example([_record(["No Answer", "Alma"], ["No Answer"])], DEFAULT_VARIANT, False)
    # the verdict reads ROUGE-L, not another overlap score
    @example([_record(["<answer>", "Alma"], ["<answer>", _REVERSED])], DEFAULT_VARIANT, False)
    # a gold in neither candidate: the oracle abstains on an answerable item
    @example([_record(["Alma", "Seabrook Rovers"], ["Nowhere"]), _record(["Alma", "Alma"], None)],
             RewardVariant.ROUGE_ONLY, False)
    # a gold that candidate B matches only once both are normalized
    @example([_record(["Alma", "the seabrook  rovers."], ["Seabrook Rovers"])],
             DEFAULT_VARIANT, False)
    def test_equal_the_reference_traces(self, records, variant, bandit):
        """A table's expert cells are the reference's kept traces, in item
        order, whatever the table's reward rule."""
        items = [ref.item_from_dict(record) for record in records]
        table = (
            ref.payout_table(items, _payout) if bandit else RewardTable(columns_of(items), variant)
        )
        want = [trace.cell for trace in ref.make_expert_traces(items)]
        assert table.expert_cells().tolist() == want


class TestLogSoftmax:
    def test_matches_kernel(self):
        logits = np.random.default_rng(3).normal(scale=5.0, size=(200, 6))
        want = np.array([ref.log_softmax(row) for row in logits])
        np.testing.assert_allclose(log_softmax(logits), want, rtol=0, atol=1e-15)


def _as_groups(batch, items):
    """The batch as the scalar oracle's rollout groups."""
    groups = []
    for b, j in enumerate(batch.item_idx.tolist()):
        item = items[j]
        actions = tuple(ALL_ACTIONS[a] for a in batch.actions[b].tolist())
        groups.append(
            ref.RolloutGroup(
                item=item,
                actions=actions,
                rendered=tuple(render_completion(a, item) for a in actions),
                logp_old=batch.logp_old[b],
                logp_ref=batch.logp_ref[b],
                rewards=batch.rewards[b],
                advantages=batch.advantages[b],
            )
        )
    return groups


class TestGradient:
    @pytest.mark.parametrize("beta", [0.0, 0.01, 1.0])
    def test_gradient_and_objective_equal_scalar_oracle(self, beta):
        table = RewardTable(columns_of(ITEMS))
        rng = np.random.default_rng(55)
        for trial in range(20):
            cfg = GrpoConfig(beta=beta, batch_size=6, group_size=2 + trial % 5, seed=trial)
            old = PolicyParams(rng.normal(0, 0.5, (6, 6)))
            reference = PolicyParams(rng.normal(0, 0.5, (6, 6)))
            batch = grpo_step.batch(old, reference, table, cfg, rng)
            groups = _as_groups(batch, ITEMS)
            # far enough from the snapshot that some ratios clip
            params = PolicyParams(old.logits + rng.normal(0, 0.3, (6, 6)))
            np.testing.assert_allclose(
                grpo_step.gradient(params, batch, cfg),
                ref.grpo_gradient(params, groups, cfg),
                rtol=0,
                atol=1e-12,
            )
            assert grpo_step.objective(params, batch, cfg) == pytest.approx(
                ref.grpo_objective(params, groups, cfg), rel=0, abs=1e-12
            )

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.01, 1.0]),
        st.integers(2, 9),
        st.sampled_from([0.05, 0.2, 0.5]),
    )
    @settings(max_examples=60)
    def test_gradient_equals_add_at_form(self, seed, beta, group_size, clip_eps):
        """One bincount over the one-hot cells, then the softmax cells, adds
        to each cell in the order the two np.add.at scatters did: the
        gradients are equal bit for bit."""
        rng = np.random.default_rng(seed)
        cfg = GrpoConfig(beta=beta, batch_size=int(rng.integers(1, 12)),
                         group_size=group_size, clip_eps=clip_eps)
        old = PolicyParams(rng.normal(0, 1.0, (6, 6)))
        reference = PolicyParams(rng.normal(0, 1.0, (6, 6)))
        batch = grpo_step.batch(old, reference, RewardTable(columns_of(ITEMS)), cfg, rng)
        params = PolicyParams(old.logits + rng.normal(0, 0.5, (6, 6)))
        got = grpo_step.gradient(params, batch, cfg)
        assert got.tobytes() == ref.grpo_gradient_add_at(params, batch, cfg).tobytes()

    def test_one_log_softmax_per_snapshot(self, monkeypatch):
        """The reference and every snapshot an update builds compute their
        log-probs once, shared by sampling, gradient, objective and KL."""
        calls = []
        original = policy.log_softmax
        monkeypatch.setattr(
            policy, "log_softmax", lambda logits: calls.append(logits) or original(logits)
        )
        cfg = GrpoConfig(iters=7, inner_steps=3, batch_size=4, seed=0)
        params0, table = PolicyParams.zeros(), RewardTable(columns_of(ITEMS))
        assert not calls
        params, _ = train_rl(params0, table, cfg)
        assert len(calls) == 1 + cfg.iters * cfg.inner_steps
        assert not params.log_probs.flags.writeable

    def test_train_rl_steps_with_grpo_gradient(self, monkeypatch):
        """The gradient A5 checks is the one train_rl steps with: every step
        goes through one core, ``grpo._gradient``, on the completions'
        coefficients and a snapshot's probs, and takes its coefficients
        from the clipped ``grpo._clipped_coeff`` that A5 checks too, the
        first of an iteration at ratio 1.0, which the next test holds to
        the ratios there."""
        calls, clipped = [], []
        original, original_coeff = grpo._gradient, grpo._clipped_coeff

        def spy(coeff, probs, rows, scatter):
            calls.append((rows, scatter))
            return original(coeff, probs, rows, scatter)

        def spy_coeff(*args):
            clipped.append(args)
            return original_coeff(*args)

        monkeypatch.setattr(grpo, "_gradient", spy)
        monkeypatch.setattr(grpo, "_clipped_coeff", spy_coeff)
        cfg = GrpoConfig(iters=3, inner_steps=2, batch_size=4, seed=0)
        train_rl(PolicyParams.zeros(), RewardTable(columns_of(ITEMS)), cfg)
        assert len(calls) == 6 and len(clipped) == 6
        assert all(used_cfg is cfg for *_, used_cfg in clipped)

    @pytest.mark.parametrize("beta", [0.0, 0.01, 1.0])
    def test_first_inner_step_is_the_clipped_step_at_ratio_one(self, monkeypatch, beta):
        """An iteration's first step, taken at its snapshot, steps with the
        coefficients ``grpo._clipped_coeff`` gives at the ratios there,
        ``importance_ratio(logp, logp)``, every one 1, bit for bit."""
        steps, coeffs, snapshots = [], [], []

        def kept(results, fn):
            return lambda *args: results.append(fn(*args)) or results[-1]

        gradient = grpo._gradient
        monkeypatch.setattr(grpo._Rollouts, "step", kept(steps, grpo._Rollouts.step))
        monkeypatch.setattr(policy, "log_softmax", kept(snapshots, policy.log_softmax))
        monkeypatch.setattr(
            grpo, "_gradient", lambda coeff, *args: coeffs.append(coeff) or gradient(coeff, *args)
        )
        for seed in range(4):
            params0 = PolicyParams(np.random.default_rng(seed).normal(0, 1.0, (6, 6)))
            ref_log_probs = params0.log_probs
            # iteration t's snapshot: the reference, then each update's log-probs
            snapshots[:], steps[:], coeffs[:] = [ref_log_probs], [], []
            cfg = GrpoConfig(iters=5, beta=beta, batch_size=6, seed=seed)
            train_rl(params0, RULE_TABLE, cfg)
            assert len(coeffs) == len(steps) == cfg.iters
            for (_, cells, _, adv), log_probs, coeff in zip(steps, snapshots, coeffs):
                assert np.isfinite(log_probs).all()
                logp = log_probs.take(cells)
                kl_coeff = beta * (np.exp(ref_log_probs.take(cells) - logp) - 1.0)
                ratio = grpo.importance_ratio(logp, logp)
                want = grpo._clipped_coeff(ratio, adv, kl_coeff, cfg)
                assert coeff.tobytes() == want.tobytes()


class TestTrainRl:
    @pytest.mark.parametrize(
        "variant, bandit, inner_steps, sft",
        [
            (RewardVariant.ROUGE_PLUS_EM, False, 1, True),
            (RewardVariant.ROUGE_PLUS_SEM_PLUS_EM, False, 3, False),
            (RewardVariant.ROUGE_ONLY, True, 1, False),
        ],
    )
    def test_matches_scalar_loop(self, scoring_calls, variant, bandit, inner_steps, sft):
        items = generate_dataset(GenConfig(n=80, p_unans=0.5, ambiguity=0.5, seed=8))
        reward_fn = _payout if bandit else None
        params0 = PolicyParams.zeros()
        cfg = GrpoConfig(iters=40, inner_steps=inner_steps, lr=0.05, batch_size=16, seed=4)
        parsed, measured = scoring_calls
        table = (
            ref.payout_table(items, _payout) if bandit else RewardTable(columns_of(items), variant)
        )
        built = (list(parsed), list(measured))
        if sft:
            params0 = sft_train(params0, table.expert_cells())
        params, log = train_rl(params0, table, cfg)
        # each distinct text scored once, when the table is built; SFT and training only gather
        assert (parsed, measured) == built
        assert len(parsed) == len(set(parsed)) < len(items) * len(ALL_ACTIONS)
        if sft:
            want_params0 = ref.sft_train(PolicyParams.zeros(), ref.make_expert_traces(items))
            np.testing.assert_allclose(params0.logits, want_params0.logits, rtol=0, atol=1e-12)
        want_params, want_log = ref.train_rl(params0, items, variant, cfg, reward_fn)
        np.testing.assert_allclose(params.logits, want_params.logits, rtol=0, atol=1e-12)
        assert len(log.records) == len(want_log.records)
        for got, want in zip(log.records, want_log.records):
            assert (got.iteration, got.tp, got.fp, got.fn) == (
                want.iteration, want.tp, want.fp, want.fn
            )
            for field in ("mean_reward", "abstain_rate", "kl", "objective"):
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), rel=1e-9, abs=0.0
                ), (got.iteration, field)

    def test_each_completion_text_is_parsed_once(self, scoring_calls):
        """A table build parses each distinct completion text once, for its
        answer, its format and its reward alike."""
        items = generate_dataset(GenConfig(n=80, p_unans=0.5, ambiguity=0.5, seed=8))
        parsed, _ = scoring_calls
        RewardTable(columns_of(items))
        texts = {render_completion(action, item) for item in items for action in ALL_ACTIONS}
        assert set(parsed) == texts
        assert len(parsed) == len(texts) < len(items) * len(ALL_ACTIONS)

    @pytest.mark.parametrize(
        "variant", [RewardVariant.ROUGE_PLUS_EM, RewardVariant.ROUGE_PLUS_SEM_PLUS_EM]
    )
    def test_default_rule_scores_each_content_key_once(self, scoring_calls, variant):
        """The default rule reads the table's content-keyed scorer: when the
        table is built, each distinct completion text is parsed once and
        each distinct (answer, answerable gold) measured once, and the run
        equals one over a table whose every (content row, action) is scored
        on its own (``scalar_reference.per_cell_table``)."""
        items = generate_dataset(GenConfig(n=80, p_unans=0.5, ambiguity=0.5, seed=8))
        cfg = GrpoConfig(iters=40, lr=0.05, batch_size=16, seed=4)
        per_cell = ref.payout_table(items, lambda raw, head: total_reward(raw, head.gold, variant))
        want_params, want_log = train_rl(PolicyParams.zeros(), per_cell, cfg)
        pairs = [(render_completion(action, item), item) for item in items for action in ALL_ACTIONS]
        texts = {raw for raw, _ in pairs}
        answers = {
            (parse_completion(raw).answer, item.gold)
            for raw, item in pairs
            if not item.gold.is_no_answer
        }

        parsed, measured = scoring_calls
        parsed.clear()
        measured.clear()
        table = RewardTable(columns_of(items), variant)
        built = (list(parsed), list(measured))
        params, log = train_rl(PolicyParams.zeros(), table, cfg)
        evaluate_items(params, table)
        np.testing.assert_array_equal(params.logits, want_params.logits)
        assert log.jsonl_lines() == want_log.jsonl_lines()
        assert (parsed, measured) == built  # training and evaluation score nothing
        assert len(parsed) == len(set(parsed)) and set(parsed) == texts
        assert len(measured) == len(set(measured)) and set(measured) == answers
        assert len(texts) < len(pairs)  # items share completions


    def test_log_statistics_take_bounded_memory(self):
        """The per-iteration log statistics are reduced in blocks of a fixed
        number of completions: a run of 3 000 iterations of 256 groups of 16
        would hold about 105 MiB in one (iterations, B * G) buffer of its
        float rewards and boolean abstention flags alone, and it peaks below
        8 MiB (its records included)."""
        table = RewardTable(columns_of(ITEMS[:8]))
        cfg = GrpoConfig(iters=3000, batch_size=256, group_size=16, seed=0)
        tracemalloc.start()
        try:
            _, log = train_rl(PolicyParams.zeros(), table, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(log.records) == cfg.iters
        assert peak < 8 * 2**20, peak


RULE_TABLE = RewardTable(columns_of(ITEMS))
BANDIT_TABLE = ref.payout_table(ITEMS, _payout)


def _outcome(run):
    """What ``run()`` (one training run) gives: its log lines, the bytes of
    its final logits and the final state of the generator it made, or the
    message of the ``GrpoDivergenceError`` it raised."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(default_rng(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", recording):
        try:
            params, log = run()[:2]
        except GrpoDivergenceError as exc:
            return str(exc)
    [rng] = made
    return log.jsonl_lines(), params.logits.tobytes(), rng.bit_generator.state


def _assert_same_run(params0, table, cfg):
    got = _outcome(lambda: train_rl(params0, table, cfg))
    want = _outcome(lambda: ref.frozen_train_rl(params0, table, cfg))
    if isinstance(want, str):
        assert got == want
    else:
        assert got[0] == want[0]  # every log line
        assert got[1] == want[1]  # the final logits, bit for bit
        assert got[2] == want[2]  # the generator, drawn from in the same order
    return want


# a run whose ratios leave the clip range from the second inner step on
CLIPPING = GrpoConfig(iters=4, inner_steps=3, lr=1.0, clip_eps=0.05, batch_size=16, seed=3)


@pytest.fixture(scope="module")
def readme_table():
    """The README run's reward table (``gen --n 1000 --p-unans 0.5
    --ambiguity 0.5 --seed 7``) and its SFT start."""
    items = generate_dataset(GenConfig(n=1000, p_unans=0.5, ambiguity=0.5, seed=7))
    table = RewardTable(columns_of(items))
    return table, sft_train(PolicyParams.zeros(), table.expert_cells())


class TestFrozenLoop:
    """``train_rl`` against the batched loop it was reworked from
    (``scalar_reference.frozen_train_rl``): the same float operations in
    the same order, so every byte is equal."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(1, 3),
        st.integers(2, 9),
        st.integers(1, 64),
        st.sampled_from([0.0, 0.01, 1.0]),
        st.sampled_from([0.0, 1e-8]),
        st.sampled_from([0.05, 0.2, 0.5]),
        st.sampled_from([0.0, 0.05, 0.3, 1.0, 30.0]),
        st.booleans(),
        st.sampled_from(["zeros", "random", "sft"]),
    )
    @settings(max_examples=80)
    @example(0, CLIPPING.iters, CLIPPING.inner_steps, CLIPPING.group_size,
             CLIPPING.batch_size, CLIPPING.beta, CLIPPING.std_eps, CLIPPING.clip_eps,
             CLIPPING.lr, False, "sft")
    # within one block, the objective turns non-finite at iteration 1 and the
    # logits at iteration 2: the objective's message, at iteration 1
    @example(10, 8, 3, 4, 8, 0.01, 1e-8, 0.2, 30.0, True, "zeros")
    # within one block, the logits turn non-finite at iteration 1, after a
    # finite objective at iteration 0
    @example(2, 8, 3, 4, 8, 0.01, 1e-8, 0.2, 30.0, True, "zeros")
    def test_equals_the_frozen_loop(self, seed, iters, inner_steps, group_size,
                                    batch_size, beta, std_eps, clip_eps, lr, bandit, start):
        table = BANDIT_TABLE if bandit else RULE_TABLE
        if start == "zeros":
            params0 = PolicyParams.zeros()
        elif start == "random":
            params0 = PolicyParams(np.random.default_rng(seed).normal(0.0, 2.0, (6, 6)))
        else:
            params0 = sft_train(PolicyParams.zeros(), RULE_TABLE.expert_cells())
        cfg = GrpoConfig(
            group_size=group_size, clip_eps=clip_eps, beta=beta, lr=lr,
            iters=iters, inner_steps=inner_steps, std_eps=std_eps,
            batch_size=batch_size, seed=seed % 1000,
        )
        _assert_same_run(params0, table, cfg)

    @pytest.mark.parametrize(
        "batch_size, group_size, iters", [(4, 3, 5), (64, 9, 40), (300, 16, 3)]
    )
    def test_irregular_rewards_equal_the_frozen_loop(self, batch_size, group_size, iters):
        """Rewards with full mantissas, so that the order a record's mean
        adds in shows in its last bits, over runs of several log blocks
        and of blocks of one iteration."""
        def payout(raw, item):
            value = math.sqrt(sum(map(ord, raw + item.id))) / 7.0
            return RewardBreakdown(format=0.0, answer=value, total=value)

        table = ref.payout_table(ITEMS, payout)
        cfg = GrpoConfig(iters=iters, batch_size=batch_size, group_size=group_size,
                         lr=0.3, seed=batch_size)
        want = _assert_same_run(PolicyParams.zeros(), table, cfg)
        assert len(want[0]) == iters

    @pytest.mark.parametrize(
        "settings",
        [
            {},  # the README configuration
            {"batch_size": 33, "group_size": 3},  # an odd B: a pending 32-bit half
            {"inner_steps": 3},  # clipped steps after the first
        ],
        ids=["readme", "odd-batch", "inner-steps-3"],
    )
    def test_readme_runs_equal_the_frozen_loop(self, readme_table, settings):
        """The README run (its dataset, its SFT start, 300 iterations over
        five log blocks) and two variants of it."""
        table, params0 = readme_table
        cfg = GrpoConfig(iters=300, lr=0.05, seed=1, **settings)
        want = _assert_same_run(params0, table, cfg)
        assert len(want[0]) == cfg.iters

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize(
        "table, cfg",
        [
            (RULE_TABLE, GrpoConfig(iters=7, lr=0.3, inner_steps=2, batch_size=8, seed=4)),
            (RULE_TABLE, GrpoConfig(iters=40, lr=40.0, inner_steps=3, batch_size=8, seed=3)),
            (RULE_TABLE, GrpoConfig(iters=40, lr=30.0, inner_steps=2, batch_size=8, seed=1)),
            (BANDIT_TABLE, GrpoConfig(iters=40, lr=30.0, beta=1.0, batch_size=8, seed=1)),
            (BANDIT_TABLE, GrpoConfig(iters=8, lr=30.0, inner_steps=3, batch_size=8,
                                      seed=10)),
        ],
    )
    def test_block_edges_equal_the_frozen_loop(self, monkeypatch, table, cfg, block):
        """Log blocks of one to three iterations: runs and divergences that
        span block edges, or fall on them."""
        monkeypatch.setattr(grpo, "_LOG_BLOCK_CELLS", block * cfg.batch_size * cfg.group_size)
        _assert_same_run(PolicyParams.zeros(), table, cfg)

    def test_clipping_example_clips(self):
        """The example above reaches ratios outside [1 - eps, 1 + eps]."""
        params0 = sft_train(PolicyParams.zeros(), RULE_TABLE.expert_cells())
        log_probs = ref.frozen_log_softmax(params0.logits)
        batch = ref.frozen_rollout(log_probs, log_probs, RULE_TABLE, CLIPPING,
                                   np.random.default_rng(CLIPPING.seed))
        logits = params0.logits + CLIPPING.lr * ref.frozen_gradient(log_probs, batch, CLIPPING)
        stepped = ref.frozen_log_softmax(logits).take(batch.cells)
        ratio = np.exp(stepped - batch.logp_old)
        assert (np.abs(ratio - 1.0) > CLIPPING.clip_eps).any()

    @pytest.mark.parametrize(
        "table, cfg, message",
        [
            (RULE_TABLE, GrpoConfig(iters=40, lr=40.0, inner_steps=3, batch_size=8, seed=3),
             "logits became non-finite at iteration 1"),
            (RULE_TABLE, GrpoConfig(iters=40, lr=30.0, inner_steps=2, batch_size=8, seed=1),
             "objective became non-finite at iteration 7"),
            (BANDIT_TABLE, GrpoConfig(iters=40, lr=30.0, beta=1.0, batch_size=8, seed=1),
             "objective became non-finite at iteration 24"),
            (BANDIT_TABLE, GrpoConfig(iters=3, lr=1e306, inner_steps=2, batch_size=8, seed=1),
             "logits became non-finite at iteration 0"),
        ],
    )
    def test_divergence_equals_the_frozen_loop(self, table, cfg, message):
        """A run stops with the frozen loop's GrpoDivergenceError, at the
        same iteration, whichever check fires."""
        assert _assert_same_run(PolicyParams.zeros(), table, cfg) == message

    def test_subnormal_spread_diverges_as_the_frozen_loop(self):
        """Rewards a subnormal apart have a group std of exactly 0: at
        std_eps = 0 both loops stop at the logits check, warning-free."""
        tiny = 1.1125369292536007e-308

        def payout(raw, item):
            reward = tiny if parse_completion(raw).format_ok else 0.0
            return RewardBreakdown(format=reward, answer=0.0, total=reward)

        table = ref.payout_table(ITEMS, payout)
        cfg = GrpoConfig(iters=3, std_eps=0.0, seed=1)
        message = _assert_same_run(PolicyParams.zeros(), table, cfg)
        assert message == "logits became non-finite at iteration 0"

    def test_nan_rewards_diverge_as_the_frozen_loop(self):
        """A NaN reward makes its group's advantages NaN: the first step's
        coefficients there are the KL term alone, as the clipped form's
        comparison gives, so the logits stay finite and the objective's
        check fires."""
        def payout(raw, item):
            reward = math.nan if not parse_completion(raw).format_ok else 1.0
            return RewardBreakdown(format=reward, answer=0.0, total=reward)

        table = ref.payout_table(ITEMS, payout)
        cfg = GrpoConfig(iters=3, seed=2)
        message = _assert_same_run(PolicyParams.zeros(), table, cfg)
        assert message == "objective became non-finite at iteration 0"
