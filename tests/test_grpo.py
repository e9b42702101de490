"""GRPO pieces: advantages, ratios, clipping, the k3 KL estimator, the
objective/gradient pair, the training loop, and greedy evaluation."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import grpo_step
import scalar_reference
from scalar_reference import columns_of
from abstainrl.grpo import (
    GrpoConfig,
    GrpoDivergenceError,
    RewardTable,
    TrainLog,
    TrainRecord,
    clipped_term,
    evaluate_items,
    importance_ratio,
    kl_k3,
    summarize_items,
    train_rl,
)
from abstainrl.policy import (
    ALL_FEATURES,
    ActionId,
    Choice,
    Evidence,
    PolicyParams,
    log_softmax,
)
from abstainrl.reward import RewardBreakdown, parse_completion
from abstainrl.synthenv import GenConfig, generate_dataset


class TestComputeAdvantages:
    def test_zero_variance(self):
        np.testing.assert_array_equal(grpo_step.advantages([1, 1, 1, 1]), np.zeros(4))

    def test_two_point_group(self):
        adv = grpo_step.advantages([0.0, 2.0], std_eps=0.0)
        np.testing.assert_allclose(adv, [-1.0, 1.0])

    @given(
        st.lists(
            st.floats(min_value=0, max_value=3, allow_nan=False),
            min_size=2,
            max_size=8,
        )
    )
    def test_normalization_identity(self, rewards):
        adv = grpo_step.advantages(rewards)
        # loose bound: groups with microscopic variance amplify rounding
        # through the 1e-8-padded denominator
        assert abs(float(adv.mean())) < 5e-8
        if max(rewards) == min(rewards):
            np.testing.assert_array_equal(adv, np.zeros(len(rewards)))
        else:
            # exact effect of the eps-padded denominator: std maps to
            # sigma / (sigma + eps)
            sigma = float(np.std(rewards))
            assert float(adv.std()) == pytest.approx(sigma / (sigma + 1e-8), rel=1e-6)

    @given(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5]),
            min_size=2,
            max_size=8,
        )
    )
    def test_tolerances_on_reward_lattice(self, rewards):
        """On the rewards this pipeline actually emits, mean and std meet the
        tight tolerances whenever the group has any variance."""
        adv = grpo_step.advantages(rewards)
        assert abs(float(adv.mean())) < 1e-9
        if np.std(rewards) > 0:
            assert float(adv.std()) == pytest.approx(1.0, abs=1e-6)


class TestImportanceRatio:
    def test_equal_log_probs(self):
        assert importance_ratio(-1.3, -1.3) == 1.0

    def test_log_two_gap(self):
        assert importance_ratio(-1.0, -1.0 - math.log(2)) == pytest.approx(2.0)

    @given(st.floats(-10, 0), st.floats(-10, 0))
    def test_positive(self, a, b):
        assert importance_ratio(a, b) > 0.0


class TestClippedTerm:
    def test_positive_advantage_clips(self):
        assert clipped_term(1.5, 1.0, 0.2) == pytest.approx(1.2)

    def test_negative_advantage_keeps_min(self):
        assert clipped_term(1.5, -1.0, 0.2) == pytest.approx(-1.5)

    @given(st.floats(-3, 3))
    def test_unit_ratio_passthrough(self, advantage):
        assert clipped_term(1.0, advantage, 0.2) == advantage

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            clipped_term(1.0, 1.0, 1.5)


class TestKlK3:
    def test_zero_at_equality(self):
        assert kl_k3(-0.7, -0.7) == 0.0

    def test_u_two(self):
        value = kl_k3(math.log(0.25), math.log(0.5))  # u = 2
        assert value == pytest.approx(2 - math.log(2) - 1, abs=1e-12)

    def test_u_half(self):
        value = kl_k3(math.log(0.5), math.log(0.25))  # u = 0.5
        assert value == pytest.approx(0.5 - math.log(0.5) - 1, abs=1e-12)

    @given(st.floats(-20, 0), st.floats(-20, 0))
    def test_nonnegative(self, lp_theta, lp_ref):
        assert kl_k3(lp_theta, lp_ref) >= 0.0

    def test_monte_carlo_matches_exact_kl(self):
        p = np.array([0.3, 0.2, 0.15, 0.15, 0.1, 0.1])
        q = np.array([0.2, 0.25, 0.15, 0.1, 0.2, 0.1])
        exact = float(np.sum(p * np.log(p / q)))
        rng = np.random.default_rng(42)
        draws = rng.choice(6, size=100_000, p=p)
        estimate = float(
            np.mean([kl_k3(math.log(p[i]), math.log(q[i])) for i in draws])
        )
        assert estimate == pytest.approx(exact, abs=1e-2)


def _table(n=60, p_unans=0.4, ambiguity=0.4, seed=2):
    cfg = GenConfig(n, p_unans=p_unans, ambiguity=ambiguity, seed=seed)
    return RewardTable(columns_of(generate_dataset(cfg)))


def _batch(table, old, ref, cfg, seed, count=6):
    """A rollout batch of ``count`` groups."""
    rng = np.random.default_rng(seed)
    return grpo_step.batch(old, ref, table, dataclasses.replace(cfg, batch_size=count), rng)


class TestObjective:
    def test_zero_at_old_params_without_kl(self):
        table = _table()
        cfg = GrpoConfig(beta=0.0, seed=0)
        params = PolicyParams(np.random.default_rng(1).normal(size=(6, 6)))
        batch = _batch(table, params, params, cfg, seed=3)
        # ratios are 1, so the objective is the mean advantage, which centers to 0
        assert grpo_step.objective(params, batch, cfg) == pytest.approx(0.0, abs=1e-9)

    def test_kl_term_zero_when_ref_equals_params(self):
        table = _table()
        params = PolicyParams(np.random.default_rng(4).normal(size=(6, 6)))
        batch = _batch(table, params, params, GrpoConfig(seed=0), seed=5)
        without = grpo_step.objective(params, batch, GrpoConfig(beta=0.0, seed=0))
        with_kl = grpo_step.objective(params, batch, GrpoConfig(beta=5.0, seed=0))
        assert with_kl == pytest.approx(without, abs=1e-12)

    def test_raising_best_action_logit_increases_objective(self):
        table = _table()
        cfg = GrpoConfig(beta=0.0, seed=0)
        old = PolicyParams.zeros()
        batch = _batch(table, old, old, cfg, seed=6, count=12)
        base = grpo_step.objective(old, batch, cfg)
        # find a rollout with the highest advantage in its group
        b, i = np.unravel_index(np.argmax(batch.advantages), batch.advantages.shape)
        bumped = np.array(old.logits)
        bumped[batch.rows[b], batch.actions[b, i]] += 0.05  # ratio stays well under 1 + eps
        assert grpo_step.objective(PolicyParams(bumped), batch, cfg) > base


class TestGradient:
    def test_zero_when_all_advantages_zero_and_beta_zero(self):
        table = _table()
        cfg = GrpoConfig(beta=0.0, seed=0)
        params = PolicyParams.zeros()
        batch = _batch(table, params, params, cfg, seed=8, count=3)
        flattened = batch._replace(advantages=np.zeros_like(batch.advantages))
        np.testing.assert_allclose(grpo_step.gradient(params, flattened, cfg), 0.0, atol=1e-15)

    def test_rows_absent_from_batch_are_zero(self):
        table = _table()
        cfg = GrpoConfig(seed=0)
        params = PolicyParams.zeros()
        batch = _batch(table, params, params, cfg, seed=9, count=4)
        present = set(batch.rows.tolist())
        grad = grpo_step.gradient(params, batch, cfg)
        for f in ALL_FEATURES:
            if f.index not in present:
                assert not grad[f.index].any()

    @pytest.mark.parametrize("beta", [0.0, 0.01])
    def test_finite_difference_agreement(self, beta):
        table = _table()
        rng = np.random.default_rng(10)
        cfg = GrpoConfig(beta=beta, seed=0)
        old = PolicyParams(rng.normal(0, 0.5, (6, 6)))
        ref = PolicyParams(rng.normal(0, 0.5, (6, 6)))
        batch = _batch(table, old, ref, cfg, seed=11, count=5)
        params = PolicyParams(old.logits + rng.normal(0, 0.3, (6, 6)))
        analytic = grpo_step.gradient(params, batch, cfg)
        h = 1e-5
        for r in range(6):
            for c in range(6):
                bump = np.zeros((6, 6))
                bump[r, c] = h
                numeric = (
                    grpo_step.objective(PolicyParams(params.logits + bump), batch, cfg)
                    - grpo_step.objective(PolicyParams(params.logits - bump), batch, cfg)
                ) / (2 * h)
                denom = max(abs(numeric), 1e-8)
                assert abs(analytic[r, c] - numeric) / denom < 1e-4


# the floats and ints a log record can hold: signed zeros, subnormals, the
# bounds of repr's fixed and exponent forms, large counts, and the
# non-finite values a record's float fields can hold
_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-7, 1e-4, 0.1, 1e308]
_LOG_FLOATS = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_LOG_INTS = st.one_of(st.integers(0, 300), st.integers(-(2**70), 2**70), st.just(10**100))


def _log_records(floats, ints):
    return st.lists(
        st.builds(TrainRecord, ints, floats, floats, floats, floats, ints, ints, ints), max_size=6
    )


class TestTrainLogLines:
    def test_fixed_records_lines(self):
        """The exact text of two records' lines, non-finite floats and a
        negative zero included."""
        records = [
            TrainRecord(3, 0.5, 0.25, 1e-05, -0.0, 2, 0, 1),
            TrainRecord(0, math.nan, math.inf, -math.inf, 1e16, 0, 2**64, 1),
        ]
        assert TrainLog(records).jsonl_lines() == [
            '{"abstain_rate": 0.25, "fn": 1, "fp": 0, "iteration": 3, "kl": 1e-05, '
            '"mean_reward": 0.5, "objective": -0.0, "tp": 2}',
            '{"abstain_rate": Infinity, "fn": 1, "fp": 18446744073709551616, "iteration": 0, '
            '"kl": -Infinity, "mean_reward": NaN, "objective": 1e+16, "tp": 0}',
        ]

    @given(_log_records(_LOG_FLOATS, _LOG_INTS))
    @example([TrainRecord(0, math.nan, math.inf, -math.inf, -0.0, 0, 2**64, 1)])
    def test_each_line_is_the_records_json(self, records):
        """A line's keys come in sorted order, and it decodes to
        ``vars(record)`` with each value's type, a NaN as a NaN and a
        negative zero kept, for every int and float a field can hold."""
        lines = TrainLog(records).jsonl_lines()
        assert len(lines) == len(records)
        for line, record in zip(lines, records):
            pairs = json.loads(line, object_pairs_hook=list)
            assert [key for key, _ in pairs] == sorted(vars(record))
            assert [(key, type(value), repr(value)) for key, value in pairs] == [
                (key, type(value), repr(value)) for key, value in sorted(vars(record).items())
            ]

    @given(_log_records(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_SPECIAL_FLOATS)),
        st.one_of(st.integers(0, 300), st.integers(0, 2**70)),
    ))
    def test_written_log_reads_back(self, tmp_path_factory, records):
        """``read`` of a written log returns records equal to the ones
        written, wherever ``read`` accepts their values."""
        path = tmp_path_factory.mktemp("log") / "train_log.jsonl"
        TrainLog(records).write(path)
        read = TrainLog.read(path)
        assert read.records == records
        assert read.jsonl_lines() == TrainLog(records).jsonl_lines()  # -0.0 stays -0.0


class TestTrainRl:
    def test_zero_lr_keeps_params_and_logs(self):
        table = _table(n=30)
        cfg = GrpoConfig(iters=5, lr=0.0, batch_size=8, seed=1)
        params0 = PolicyParams(np.random.default_rng(12).normal(size=(6, 6)))
        params, log = train_rl(params0, table, cfg)
        np.testing.assert_array_equal(params.logits, params0.logits)
        assert len(log.records) == 5

    def test_same_seed_identical_logs(self):
        table = _table(n=40)
        cfg = GrpoConfig(iters=8, batch_size=8, seed=5)
        _, log_a = train_rl(PolicyParams.zeros(), table, cfg)
        _, log_b = train_rl(PolicyParams.zeros(), table, cfg)
        assert log_a.jsonl_lines() == log_b.jsonl_lines()

    def test_log_fields_finite(self):
        table = _table(n=30)
        _, log = train_rl(
            PolicyParams.zeros(), table, GrpoConfig(iters=4, batch_size=8, seed=2)
        )
        for record in log.records:
            for value in (record.mean_reward, record.abstain_rate, record.kl, record.objective):
                assert math.isfinite(value)

    def test_inner_steps_exercise_clipping(self):
        table = _table(n=40)
        cfg = GrpoConfig(iters=6, inner_steps=3, lr=0.3, batch_size=8, seed=3)
        params, log = train_rl(PolicyParams.zeros(), table, cfg)
        assert len(log.records) == 6
        assert np.all(np.isfinite(params.logits))

    def test_underflowing_group_std_is_divergence(self):
        """Rewards a subnormal apart have a group std of exactly 0, so at
        std_eps = 0 their advantages are infinite: train_rl stops with
        GrpoDivergenceError, not with numpy's divide-by-zero warning."""
        tiny = 1.1125369292536007e-308

        def payout(raw: str, item) -> RewardBreakdown:
            reward = tiny if parse_completion(raw).format_ok else 0.0
            return RewardBreakdown(format=reward, answer=0.0, total=reward)

        items = generate_dataset(GenConfig(n=20, seed=4))
        table = scalar_reference.payout_table(items, payout)
        with pytest.raises(GrpoDivergenceError, match="iteration 0"):
            train_rl(PolicyParams.zeros(), table, GrpoConfig(iters=3, std_eps=0.0, seed=1))

    def test_kl_anchoring_monotone_in_beta(self):
        items = generate_dataset(GenConfig(n=200, p_unans=0.5, ambiguity=0.3, seed=21))
        table = RewardTable(columns_of(items))
        ref = PolicyParams.zeros()
        tv = {}
        for beta in (0.0, 0.01, 10.0):
            trained, _ = train_rl(
                ref, table, GrpoConfig(iters=150, lr=0.05, beta=beta, seed=7)
            )
            gap = np.exp(log_softmax(trained.logits)) - np.exp(log_softmax(ref.logits))
            # mean over feature rows of the total-variation distance
            tv[beta] = float(np.mean(0.5 * np.abs(gap).sum(axis=1)))
        assert tv[10.0] <= tv[0.01] <= tv[0.0]
        assert tv[10.0] < tv[0.0]


def _constant_policy(action: ActionId) -> PolicyParams:
    logits = np.zeros((6, 6))
    logits[:, action.index] = 50.0
    return PolicyParams(logits)


class TestEvaluatePolicy:
    def test_always_abstain_on_all_unanswerable(self):
        items = generate_dataset(GenConfig(n=25, p_unans=1.0, seed=6))
        abstain = _constant_policy(ActionId(Choice.ABSTAIN, True))
        report = summarize_items(evaluate_items(abstain, RewardTable(columns_of(items))))
        assert report.confusion.tp == 25
        assert report.confusion.fp == 0
        assert report.confusion.fn == 0

    def test_always_abstain_on_all_answerable(self):
        items = generate_dataset(GenConfig(n=25, p_unans=0.0, seed=7))
        abstain = _constant_policy(ActionId(Choice.ABSTAIN, True))
        report = summarize_items(evaluate_items(abstain, RewardTable(columns_of(items))))
        assert report.confusion.fp == 25
        assert report.em_rate == 0.0

    def test_oracle_style_policy_has_clean_confusion(self):
        # with no observation noise, "answer in supports rows, abstain
        # elsewhere" never abstains on answerable items nor answers
        # unanswerable ones
        items = generate_dataset(GenConfig(n=60, p_unans=0.4, ambiguity=0.0, seed=8))
        logits = np.zeros((6, 6))
        for f in ALL_FEATURES:
            target = (
                ActionId(Choice.ANSWER_A, True)
                if f.evidence is Evidence.SUPPORTS
                else ActionId(Choice.ABSTAIN, True)
            )
            logits[f.index, target.index] = 50.0
        table = RewardTable(columns_of(items))
        report = summarize_items(evaluate_items(PolicyParams(logits), table))
        assert report.confusion.fp == 0
        assert report.confusion.fn == 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            RewardTable(columns_of([]))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_size": 1},
            {"clip_eps": 0.0},
            {"clip_eps": 1.0},
            {"beta": -0.1},
            {"inner_steps": 0},
            {"batch_size": 0},
        ],
    )
    def test_bad_configs(self, kwargs):
        with pytest.raises(ValueError):
            GrpoConfig(**kwargs)
