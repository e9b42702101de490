"""Softmax policy: probabilities, sampling, rendering, gradients, SFT."""

import collections
import dataclasses
import math

import numpy as np
import pytest

import scalar_reference as ref
from abstainrl.grpo import RewardTable
from abstainrl.policy import (
    ALL_ACTIONS,
    ALL_FEATURES,
    ActionId,
    Choice,
    ContextFeature,
    PolicyParams,
    log_softmax,
    sft_train,
)
from abstainrl.reward import answer_reward, parse_completion
from abstainrl.synthenv import GenConfig, generate_dataset
from abstainrl.textmetrics import GoldAnswer

F0 = ALL_FEATURES[0]


def _probs(params):
    return np.exp(log_softmax(params.logits))


def _draws(params, feature, rng, n):
    """``n`` actions of ``feature``'s row, as the rollout samples them."""
    return ref.inverse_cdf(_probs(params)[feature.index], rng.random(n)).tolist()


class TestIndexing:
    def test_feature_bijection(self):
        indices = [f.index for f in ALL_FEATURES]
        assert sorted(indices) == list(range(6))
        for f in ALL_FEATURES:
            assert ContextFeature.from_index(f.index) == f
        assert len({f.name for f in ALL_FEATURES}) == 6

    def test_action_bijection(self):
        indices = [a.index for a in ALL_ACTIONS]
        assert sorted(indices) == list(range(6))
        for a in ALL_ACTIONS:
            assert ActionId.from_index(a.index) == a
        assert len({a.name for a in ALL_ACTIONS}) == 6

    def test_params_shape_validation(self):
        with pytest.raises(ValueError):
            PolicyParams(np.zeros((5, 6)))
        with pytest.raises(ValueError):
            PolicyParams(np.full((6, 6), np.inf))

    def test_checkpoint_roundtrip(self):
        rng = np.random.default_rng(0)
        params = PolicyParams(rng.normal(size=(6, 6)))
        again = PolicyParams.loads(params.dumps())
        np.testing.assert_allclose(again.logits, params.logits)


class TestLogProbs:
    def test_uniform(self):
        log_probs = log_softmax(PolicyParams.zeros().logits)
        np.testing.assert_allclose(log_probs, math.log(1 / 6), rtol=1e-12, atol=0)

    def test_dominant_logit(self):
        logits = np.zeros((6, 6))
        logits[F0.index, 0] = 10.0
        params = PolicyParams(logits)
        # exact softmax value: e^10 / (e^10 + 5)
        expected = math.exp(10.0) / (math.exp(10.0) + 5.0)
        assert _probs(params)[F0.index, 0] == pytest.approx(expected, abs=1e-12)
        assert _probs(params)[F0.index, 0] > 0.999

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 6))
        shifted = logits.copy()
        shifted[F0.index] += 17.5
        np.testing.assert_allclose(
            log_softmax(shifted)[F0.index], log_softmax(logits)[F0.index], rtol=0, atol=1e-12
        )

    def test_normalization(self):
        rng = np.random.default_rng(2)
        params = PolicyParams(rng.normal(scale=3, size=(6, 6)))
        np.testing.assert_allclose(_probs(params).sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestSampling:
    def test_degenerate_row(self):
        logits = np.zeros((6, 6))
        logits[F0.index, 3] = 1e6
        params = PolicyParams(logits)
        rng = np.random.default_rng(0)
        assert _draws(params, F0, rng, 1000) == [3] * 1000

    def test_uniform_frequencies(self):
        params = PolicyParams.zeros()
        rng = np.random.default_rng(7)
        counts = collections.Counter(_draws(params, F0, rng, 10000))
        for idx in range(6):
            assert counts[idx] / 10000 == pytest.approx(1 / 6, abs=0.05)

    def test_seed_determinism(self):
        params = PolicyParams(np.random.default_rng(3).normal(size=(6, 6)))
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        seq_a = _draws(params, F0, rng_a, 50)
        # one uniform per draw: drawing one at a time gives the same sequence
        seq_b = [_draws(params, F0, rng_b, 1)[0] for _ in range(50)]
        assert seq_a == seq_b

    def test_sample_categorical_edge_draws(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        # u at or beyond the final cumulative boundary lands on the last index
        for u, want in ((0.0, 0), (0.999999999, 3)):
            assert ref.sample_categorical(probs, u) == want
            assert ref.inverse_cdf(probs, np.array([u])).tolist() == [want]


def _one_item():
    items = generate_dataset(GenConfig(n=1, p_unans=0.0, seed=4))
    return items[0]


class TestRenderCompletion:
    def test_formatted_abstain(self):
        text = ref.render_completion(ActionId(Choice.ABSTAIN, True), _one_item())
        pc = parse_completion(text)
        assert pc.format_ok
        assert pc.answer == "No Answer"

    def test_bare_candidate(self):
        item = _one_item()
        text = ref.render_completion(ActionId(Choice.ANSWER_A, False), item)
        assert text == item.candidate_a

    def test_parser_roundtrip(self):
        item = _one_item()
        for action in ALL_ACTIONS:
            if not action.formatted:
                continue
            expected = {
                Choice.ANSWER_A: item.candidate_a,
                Choice.ANSWER_B: item.candidate_b,
                Choice.ABSTAIN: "No Answer",
            }[action.choice]
            assert parse_completion(ref.render_completion(action, item)).answer == expected


def _sft_step(params, feature, action):
    """One SFT epoch at lr 1 on a single trace: the gradient of
    log pi(action | feature) that SFT ascends."""
    cell = feature.index * len(ALL_ACTIONS) + action.index
    return sft_train(params, [cell], lr=1.0, epochs=1).logits - params.logits


class TestGradLogProb:
    def test_uniform_formula(self):
        params = PolicyParams.zeros()
        action = ALL_ACTIONS[2]
        grad = _sft_step(params, F0, action)
        expected_row = np.full(6, -1 / 6)
        expected_row[action.index] = 5 / 6
        np.testing.assert_allclose(grad[F0.index], expected_row, atol=1e-12)

    def test_other_rows_zero(self):
        rng = np.random.default_rng(5)
        params = PolicyParams(rng.normal(size=(6, 6)))
        grad = _sft_step(params, ALL_FEATURES[3], ALL_ACTIONS[1])
        for f in ALL_FEATURES:
            if f.index != 3:
                assert not grad[f.index].any()

    def test_row_sums_to_zero(self):
        rng = np.random.default_rng(6)
        params = PolicyParams(rng.normal(size=(6, 6)))
        grad = _sft_step(params, F0, ALL_ACTIONS[4])
        assert float(grad[F0.index].sum()) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        params = PolicyParams(rng.normal(size=(6, 6)))
        feature, action = ALL_FEATURES[2], ALL_ACTIONS[5]
        analytic = _sft_step(params, feature, action)
        h = 1e-5
        worst = 0.0
        for r in range(6):
            for c in range(6):
                bump = np.zeros((6, 6))
                bump[r, c] = h
                plus = log_softmax(params.logits + bump)[feature.index, action.index]
                minus = log_softmax(params.logits - bump)[feature.index, action.index]
                worst = max(worst, abs((plus - minus) / (2 * h) - analytic[r, c]))
        assert worst < 1e-6


def _cells(traces):
    return [trace.cell for trace in traces]


class TestExpertTraces:
    def test_oracle_traces_all_kept_and_correct(self):
        items = generate_dataset(GenConfig(n=80, p_unans=0.3, seed=9))
        traces = ref.make_expert_traces(items)
        assert len(traces) == len(items)
        for trace in traces:
            answer = parse_completion(trace.rendered).answer
            assert answer_reward(answer, trace.gold) >= 1.0
        assert RewardTable(ref.columns_of(items)).expert_cells().tolist() == _cells(traces)

    def test_wrong_proposals_filtered(self):
        items = generate_dataset(GenConfig(n=40, p_unans=0.3, seed=10))
        # a gold in neither candidate: the oracle abstains, which is wrong on
        # every answerable item and right on every unanswerable one
        elsewhere = GoldAnswer.of("Nowhere In Particular")
        items = [
            item if item.gold.is_no_answer else dataclasses.replace(item, gold=elsewhere)
            for item in items
        ]
        unanswerable = [item for item in items if item.gold.is_no_answer]
        assert 0 < len(unanswerable) < len(items)
        abstain = ActionId(Choice.ABSTAIN, True).index
        assert RewardTable(ref.columns_of(items)).expert_cells().tolist() == [
            item.feature.index * len(ALL_ACTIONS) + abstain for item in unanswerable
        ]

    def test_oracle_actions_equal_the_oracle_per_row(self):
        """Each content row's oracle action is ``scalar_reference.oracle_action`` of the
        row's head, and every item of a generated dataset keeps its row's."""
        items = generate_dataset(GenConfig(n=300, p_unans=0.3, ambiguity=0.5, seed=14))
        columns = ref.columns_of(items)
        assert len(columns.heads) < len(items)
        table = RewardTable(columns)
        assert table.oracle_actions().tolist() == [
            ref.oracle_action(head).index for head in columns.heads
        ]
        assert table.expert_cells().tolist() == [
            item.feature.index * len(ALL_ACTIONS) + ref.oracle_action(item).index for item in items
        ]

    def test_oracle_answers_correct_candidate(self):
        items = generate_dataset(GenConfig(n=60, p_unans=0.0, seed=12))
        for item in items:
            action = ref.oracle_action(item)
            chosen = item.candidate_a if action.choice is Choice.ANSWER_A else item.candidate_b
            assert chosen in item.gold.aliases


class TestSftTrain:
    def _traces(self, feature, action, count=8):
        return [feature.index * len(ALL_ACTIONS) + action.index] * count

    def test_convergence_on_single_action(self):
        traces = self._traces(F0, ALL_ACTIONS[2])
        params = sft_train(PolicyParams.zeros(), traces, lr=0.5, epochs=200)
        assert _probs(params)[F0.index, 2] > 0.95

    def test_zero_epochs_is_identity(self):
        params = PolicyParams(np.random.default_rng(13).normal(size=(6, 6)))
        trained = sft_train(params, self._traces(F0, ALL_ACTIONS[0]), epochs=0)
        np.testing.assert_array_equal(trained.logits, params.logits)

    def test_duplicated_traces_same_trajectory(self):
        traces = self._traces(F0, ALL_ACTIONS[1], count=4)
        once = sft_train(PolicyParams.zeros(), traces, lr=0.3, epochs=50)
        tripled = sft_train(PolicyParams.zeros(), traces * 3, lr=0.3, epochs=50)
        np.testing.assert_allclose(once.logits, tripled.logits, atol=1e-12)

    def test_empty_traces_rejected(self):
        with pytest.raises(ValueError):
            sft_train(PolicyParams.zeros(), [])

    def test_loss_non_increasing(self):
        items = generate_dataset(GenConfig(n=120, p_unans=0.3, seed=14))
        traces = RewardTable(ref.columns_of(items)).expert_cells()
        params = PolicyParams.zeros()
        rows, actions = np.divmod(traces, len(ALL_ACTIONS))

        def loss(params):
            return -float(log_softmax(params.logits)[rows, actions].mean())

        previous = loss(params)
        for _ in range(20):
            params = sft_train(params, traces, lr=0.5, epochs=10)
            current = loss(params)
            assert current <= previous + 1e-9
            previous = current

    def test_recovers_expert_argmax_per_row(self):
        items = generate_dataset(GenConfig(n=400, p_unans=0.3, seed=15))
        traces = RewardTable(ref.columns_of(items)).expert_cells()
        params = sft_train(PolicyParams.zeros(), traces, lr=0.5, epochs=200)
        by_row: dict[int, collections.Counter] = collections.defaultdict(collections.Counter)
        for cell in traces.tolist():
            by_row[cell // len(ALL_ACTIONS)][cell % len(ALL_ACTIONS)] += 1
        assert len(by_row) == 6
        recovered = 0
        for f in ALL_FEATURES:
            counts = by_row[f.index]
            mode, mode_count = counts.most_common(1)[0]
            runner_up = counts.most_common(2)[1][1] if len(counts) > 1 else 0
            if mode_count == runner_up:
                recovered += 1  # tied mode: any argmax is a valid recovery
            else:
                recovered += ref.greedy_action(params, f).index == mode
        assert recovered == 6
