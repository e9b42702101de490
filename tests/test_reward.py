"""Completion parsing, the piecewise reward rules and the answer metrics a
reward table shares."""

import dataclasses
import functools
import gc
import string
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scalar_reference import columns_of
from abstainrl.grpo import RewardTable
from abstainrl.reward import (
    AnswerMetrics,
    RewardVariant,
    answer_metrics,
    answer_reward,
    format_reward,
    is_no_answer,
    parse_completion,
    rule_rewards,
    total_reward,
)
from abstainrl.synthenv import GenConfig, generate_dataset
from abstainrl.textmetrics import (
    GoldAnswer,
    TextParts,
    exact_match,
    rouge_l,
    rouge_n,
    semantic_sim,
)

NO_ANSWER_GOLD = GoldAnswer.no_answer()
PARIS = GoldAnswer.of("paris")


class TestParseCompletion:
    def test_well_formed(self):
        pc = parse_completion("<think>t</think><answer>Paris</answer>")
        assert pc.format_ok
        assert pc.think == "t"
        assert pc.answer == "Paris"

    def test_no_tags(self):
        pc = parse_completion("Paris")
        assert not pc.format_ok
        assert pc.think is None
        assert pc.answer == "Paris"

    def test_wrong_order(self):
        raw = "<answer>x</answer><think>y</think>"
        pc = parse_completion(raw)
        assert not pc.format_ok
        assert pc.answer == raw

    def test_whitespace_outside_blocks_allowed(self):
        pc = parse_completion("  <think>a</think>\n <answer>b</answer>  \n")
        assert pc.format_ok
        assert pc.answer == "b"

    def test_text_outside_blocks_rejected(self):
        pc = parse_completion("hi <think>a</think><answer>b</answer>")
        assert not pc.format_ok
        pc = parse_completion("<think>a</think><answer>b</answer> bye")
        assert not pc.format_ok

    def test_duplicate_blocks_rejected(self):
        pc = parse_completion("<think>a</think><think>c</think><answer>b</answer>")
        assert not pc.format_ok
        pc = parse_completion("<think>a</think><answer>b</answer><answer>c</answer>")
        assert not pc.format_ok

    def test_case_sensitive_tags(self):
        assert not parse_completion("<THINK>a</THINK><ANSWER>b</ANSWER>").format_ok

    @given(
        st.text(alphabet=st.characters(blacklist_characters="<>"), max_size=20),
        st.text(alphabet=st.characters(blacklist_characters="<>"), max_size=20),
    )
    def test_roundtrip_idempotent(self, think, answer):
        first = parse_completion(f"<think>{think}</think><answer>{answer}</answer>")
        assert first.format_ok
        again = parse_completion(
            f"<think>{first.think}</think><answer>{first.answer}</answer>"
        )
        assert (again.think, again.answer) == (first.think, first.answer)


class TestFormatReward:
    def test_values(self):
        assert format_reward(parse_completion("<think>a</think><answer>b</answer>")) == 0.5
        assert format_reward(parse_completion("b")) == 0.0
        assert format_reward(parse_completion("")) == 0.0


class TestIsNoAnswer:
    @pytest.mark.parametrize(
        "text", ["No Answer", "no  answer.", "NO ANSWER", "The No Answer"]
    )
    def test_positive(self, text):
        assert is_no_answer(text)

    @pytest.mark.parametrize("text", ["No", "answer", "noanswer", "", "paris"])
    def test_negative(self, text):
        assert not is_no_answer(text)


class TestAnswerReward:
    def test_correct_abstention(self):
        for variant in RewardVariant:
            assert answer_reward("No Answer", NO_ANSWER_GOLD, variant) == 1.0

    def test_hallucination_scores_zero(self):
        assert answer_reward("x", NO_ANSWER_GOLD) == 0.0

    def test_over_abstention_scores_zero(self):
        assert answer_reward("No Answer", PARIS) == 0.0

    def test_exact_answer_default_variant(self):
        assert answer_reward("paris", PARIS, RewardVariant.ROUGE_PLUS_EM) == 2.0

    def test_rouge_only(self):
        assert answer_reward("paris", PARIS, RewardVariant.ROUGE_ONLY) == 1.0

    def test_sem_variants(self):
        with_sem = answer_reward("paris", PARIS, RewardVariant.ROUGE_PLUS_SEM)
        assert with_sem == 2.0  # rouge 1.0 + identical-string sem 1.0
        everything = answer_reward("paris", PARIS, RewardVariant.ROUGE_PLUS_SEM_PLUS_EM)
        assert everything == 3.0

    def test_variant_names_roundtrip(self):
        for variant in RewardVariant:
            assert RewardVariant.from_name(variant.value) is variant
        with pytest.raises(ValueError):
            RewardVariant.from_name("bogus")


_unit_floats = st.floats(0.0, 1.0)


class TestRuleRewards:
    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans(),
                              st.tuples(*[_unit_floats] * 5)), min_size=1, max_size=20),
           st.sampled_from(list(RewardVariant)))
    # (0.1 + 0.2) + 0.6 != (0.1 + 0.6) + 0.2: the order of the terms shows
    @example([(False, False, False, (0.2, 0.0, 0.0, 0.1, 0.6))],
             RewardVariant.ROUGE_PLUS_SEM_PLUS_EM)
    def test_equals_the_piecewise_rule(self, cells, variant):
        """Over arbitrary metrics, one array call gives, bit for bit, the
        format reward plus 1 for a correct abstention, 0 for any other
        abstention or No-Answer gold, and else ROUGE-L, then EM, then
        semantic similarity, added in that order as the variant uses them."""
        want = []
        for formatted, abstained, no_answer, (em, _, _, rouge_l, semantic) in cells:
            if abstained or no_answer:
                score = 1.0 if abstained and no_answer else 0.0
            else:
                score = rouge_l
                if variant.uses_em:
                    score += em
                if variant.uses_sem:
                    score += semantic
            want.append((0.5 if formatted else 0.0) + score)
        got = rule_rewards(*map(np.array, zip(*cells)), variant)
        assert got.tolist() == want


class TestTotalReward:
    def test_formatted_abstention(self):
        breakdown = total_reward(
            "<think>t</think><answer>No Answer</answer>", NO_ANSWER_GOLD
        )
        assert (breakdown.format, breakdown.answer, breakdown.total) == (0.5, 1.0, 1.5)

    def test_unparsed_text_is_the_answer(self):
        breakdown = total_reward("garbage", GoldAnswer.of("garbage"))
        assert breakdown.format == 0.0
        assert breakdown.answer == 2.0

    def test_empty_answer_segment(self):
        breakdown = total_reward("<think></think><answer></answer>", GoldAnswer.of("x"))
        assert (breakdown.format, breakdown.answer, breakdown.total) == (0.5, 0.0, 0.5)


_completion_texts = st.one_of(
    st.text(max_size=30),
    st.builds(
        "<think>{}</think><answer>{}</answer>".format,
        st.text(alphabet="ab ", max_size=10),
        st.sampled_from(["No Answer", "paris", "london", "", "x y"]),
    ),
)
_golds = st.sampled_from([NO_ANSWER_GOLD, PARIS, GoldAnswer.of("x y", "london")])


class TestRewardBounds:
    @given(_completion_texts, _golds)
    def test_default_variant_bounds(self, raw, gold):
        breakdown = total_reward(raw, gold, RewardVariant.ROUGE_PLUS_EM)
        assert 0.0 <= breakdown.total <= 2.5
        assert breakdown.total == breakdown.format + breakdown.answer

    @given(_completion_texts, _golds)
    def test_richest_variant_bounds(self, raw, gold):
        breakdown = total_reward(raw, gold, RewardVariant.ROUGE_PLUS_SEM_PLUS_EM)
        assert 0.0 <= breakdown.total <= 3.5

    @given(_completion_texts)
    def test_abstain_honesty(self, raw):
        """Against a No-Answer gold, a well-formatted abstention dominates."""
        honest = total_reward("<think>.</think><answer>No Answer</answer>", NO_ANSWER_GOLD)
        assert honest.total == 1.5
        other = total_reward(raw, NO_ANSWER_GOLD)
        if not is_no_answer(parse_completion(raw).answer):
            assert other.total <= 0.5

    @given(_golds)
    def test_abstention_answer_component(self, gold):
        breakdown = total_reward("<think>.</think><answer>No Answer</answer>", gold)
        assert breakdown.answer == (1.0 if gold.is_no_answer else 0.0)


# Candidates that stress the content key: a closing tag inside the answer
# (the completion no longer parses as formatted), surrounding whitespace
# (trimmed from the answer, kept in the text), abstention spellings and
# case variants of one answer.
_candidates = st.sampled_from(
    ["Paris", "paris", "PARIS", " paris ", "paris</answer>", "</answer>", "No Answer",
     "no answer.", "\tNo Answer\n", "x y", "London", ""]
)
_scored_texts = st.one_of(
    _candidates,
    st.builds("<think>t</think><answer>{}</answer>".format, _candidates),
    st.builds(" <think>{}</think>\n<answer>{}</answer> ".format, _candidates, _candidates),
)
# aliases that differ only by case make distinct golds with equal scores
_scored_golds = st.sampled_from(
    [NO_ANSWER_GOLD, PARIS, GoldAnswer.of("Paris"), GoldAnswer.of("PARIS", "paris"),
     GoldAnswer.of("x y", "london")]
)


# texts that normalize to nothing (empty, punctuation, articles), to each
# other, or to a token an alias shares
_metric_texts = st.sampled_from(
    ["", " ", "...", "?!", "the", "a an the", "The  A.", "Paris", "paris!", "the paris",
     "Paris, Paris", "paris london", "x y", "y x", "London"]
) | st.text(max_size=12)


def _rule_inputs(parts, text, gold):
    """``rule_rewards``' inputs for completion ``text`` against ``gold``,
    its metrics taken from texts ``parts`` takes apart; an abstention or a
    No-Answer gold is not measured."""
    parsed = parse_completion(text)
    abstains = is_no_answer(parsed.answer)
    measured = not (abstains or gold.is_no_answer)
    metrics = answer_metrics(parsed.answer, gold, parts) if measured else (0.0,) * 5
    return parsed.format_ok, abstains, gold.is_no_answer, metrics


class TestScorer:
    """The scoring a reward table does: every value equals a direct call on
    the same inputs, over a sequence of keys whose texts one memo of
    ``TextParts`` takes apart, as a table build shares it, so that a key
    collision or a stale entry would show."""

    @given(st.lists(st.tuples(_scored_texts, _scored_golds), min_size=1, max_size=30),
           st.sampled_from(list(RewardVariant)))
    def test_rule_over_memos_equals_total_reward(self, pairs, variant):
        """The rule over the parses and metrics, with and without a shared
        parts memo, equals ``total_reward`` bit for bit, key by key and as
        one array call."""
        pairs = pairs * 2  # the second pass reads the memo
        want = [total_reward(text, gold, variant).total for text, gold in pairs]
        for parts in (TextParts, functools.cache(TextParts)):
            inputs = [_rule_inputs(parts, text, gold) for text, gold in pairs]
            assert [float(rule_rewards(*cell, variant)) for cell in inputs] == want
            assert rule_rewards(*map(np.array, zip(*inputs)), variant).tolist() == want
            for (text, _), (_, abstains, _, _) in zip(pairs, inputs):
                assert abstains == is_no_answer(parse_completion(text).answer)

    @given(st.lists(st.tuples(
        _candidates | _metric_texts,
        _scored_golds.filter(lambda gold: not gold.is_no_answer)
        | st.lists(_metric_texts.filter(bool), min_size=1, max_size=3).map(
            lambda aliases: GoldAnswer.of(*aliases)),
    ), min_size=1, max_size=30))
    def test_metrics_equal_direct_metrics(self, pairs):
        """``answer_metrics``, with fresh parts and with a memo that takes
        each text apart once and reuses it across golds, equals the metric
        functions called one by one, bit for bit."""
        parts = functools.cache(TextParts)
        for answer, gold in pairs * 2:
            direct = AnswerMetrics(
                em=exact_match(answer, gold),
                rouge1=rouge_n(answer, gold, 1).f1,
                rouge2=rouge_n(answer, gold, 2).f1,
                rouge_l=rouge_l(answer, gold).f1,
                semantic=max(semantic_sim(answer, alias) for alias in gold.aliases),
            )
            want = [v.hex() for v in direct]
            assert [v.hex() for v in answer_metrics(answer, gold, parts)] == want
            assert [v.hex() for v in answer_metrics(answer, gold)] == want

    @staticmethod
    def _module_caches() -> dict[str, int]:
        """The size of every module-level dict, list and set of abstainrl's
        modules, and of every unbounded function cache among them."""
        sizes = {}
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "abstainrl":
                continue
            for attr, value in vars(module).items():
                if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                    sizes[f"{name}.{attr}"] = len(value)
                elif hasattr(value, "cache_info") and value.cache_info().maxsize is None:
                    sizes[f"{name}.{attr}()"] = value.cache_info().currsize
        return sizes

    def test_no_memo_outlives_a_table_build(self):
        """The memos of a table build, parts of texts included, end with
        it: no part of a text stays alive, and no module-level cache grows
        when texts never scored before are (their characters were seen)."""
        RewardTable(columns_of(generate_dataset(GenConfig(n=30, seed=4))))
        answer_metrics(string.ascii_letters + string.digits + " ", PARIS)
        before = self._module_caches()
        items = generate_dataset(GenConfig(n=30, seed=5))
        renamed = [
            dataclasses.replace(item, candidate_a=f"{item.candidate_a} v{j}")
            for j, item in enumerate(items)
        ]
        table = RewardTable(columns_of(renamed))
        assert table.metrics.any()
        gc.collect()
        assert not any(isinstance(o, TextParts) for o in gc.get_objects())
        assert self._module_caches() == before
