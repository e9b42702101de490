"""Acceptance criteria A1-A12.

Each test implements one criterion at its stated tolerance; the conftest
hook prints a PASS/FAIL line per criterion at the end of the session.
"""

import itertools

import numpy as np
import pytest

import grpo_step
import scalar_reference
from abstainrl.cli import main
from abstainrl.grpo import (
    GrpoConfig,
    RewardTable,
    evaluate_items,
    kl_k3,
    summarize_items,
    train_rl,
)
from abstainrl.policy import (
    ALL_ACTIONS,
    ALL_FEATURES,
    ActionId,
    Choice,
    Evidence,
    PolicyParams,
    sft_train,
)
from abstainrl.retrieval import (
    KGStore,
    Quadruple,
    extract_keywords,
    kg_sentence,
    topk_lexical,
    topk_semantic,
)
from abstainrl.reward import (
    RewardBreakdown,
    parse_completion,
    total_reward,
)
from abstainrl.synthenv import (
    CONTRADICT_FRACTION,
    GenConfig,
    MCSourceRecord,
    build_abstained_mc,
    generate_dataset,
)
from abstainrl.textmetrics import (
    GoldAnswer,
    abstention_confusion,
    cosine,
    lcs_length,
    normalize_text,
    rouge_l,
    trigram_embedding,
)


def test_a1_rouge_l_oracle_equivalence():
    """500 random token pairs: LCS equals brute-force subsequence enumeration;
    ROUGE-L F1 matches the hand formula to 1e-12."""

    def subsequences(seq):
        out = set()
        for r in range(len(seq) + 1):
            out.update(itertools.combinations(seq, r))
        return out

    alphabet = ["red", "blue", "green"]
    rng = np.random.default_rng(101)
    for _ in range(500):
        x = [alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(0, 8)))]
        y = [alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(0, 8)))]
        brute = max(len(s) for s in subsequences(tuple(x)) & subsequences(tuple(y)))
        assert lcs_length(x, y) == brute
        if x and y:
            triple = rouge_l(" ".join(x), GoldAnswer.of(" ".join(y)))
            p = brute / len(x)
            r = brute / len(y)
            f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert abs(triple.f1 - f1) < 1e-12
            assert abs(triple.precision - p) < 1e-12
            assert abs(triple.recall - r) < 1e-12


def test_a2_reward_table_fidelity():
    """Golden 12-case table across the four answer-reward branches, with
    formatted/unformatted completions and abstention spelling variants."""
    na = GoldAnswer.no_answer()
    paris = GoldAnswer.of("paris")
    rouge_two_thirds = 2 * (1 / 2) * 1 / ((1 / 2) + 1)  # candidate "paris city"
    cases = [
        # (raw completion, gold, expected format, expected answer)
        ("<think>t</think><answer>No Answer</answer>", na, 0.5, 1.0),
        ("<think>t</think><answer>no  answer.</answer>", na, 0.5, 1.0),
        ("NO ANSWER", na, 0.0, 1.0),
        ("<think>t</think><answer>paris</answer>", na, 0.5, 0.0),
        ("paris", na, 0.0, 0.0),
        ("<think>t</think><answer>No Answer</answer>", paris, 0.5, 0.0),
        ("no answer", paris, 0.0, 0.0),
        ("<think>t</think><answer>paris</answer>", paris, 0.5, 2.0),
        ("<think>t</think><answer>Paris.</answer>", paris, 0.5, 2.0),
        ("paris", paris, 0.0, 2.0),
        ("<think>t</think><answer>paris city</answer>", paris, 0.5, rouge_two_thirds),
        ("<think>t</think><answer></answer>", paris, 0.5, 0.0),
    ]
    assert len(cases) == 12
    for raw, gold, expected_format, expected_answer in cases:
        breakdown = total_reward(raw, gold)
        assert breakdown.format in (0.0, 0.5)
        assert breakdown.format == expected_format, raw
        assert breakdown.answer == pytest.approx(expected_answer, abs=1e-12), raw
        assert breakdown.total == pytest.approx(expected_format + expected_answer, abs=1e-12)


def test_a3_advantage_normalization():
    """1000 random groups, G in {2,4,8}: |mean| < 1e-9, population std within
    1e-6 of 1 when the group has variance, zeros otherwise."""
    rng = np.random.default_rng(202)
    lattice = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
    checked_zero_variance = 0
    for trial in range(1000):
        g = int(rng.choice([2, 4, 8]))
        if trial % 10 == 0:
            rewards = np.full(g, float(rng.choice(lattice)))
        else:
            rewards = rng.choice(lattice, size=g)
        adv = grpo_step.advantages(rewards)
        if float(rewards.max()) == float(rewards.min()):
            checked_zero_variance += 1
            assert not adv.any()
        else:
            assert abs(float(adv.mean())) < 1e-9
            assert abs(float(adv.std()) - 1.0) < 1e-6
    assert checked_zero_variance >= 100


def test_a4_kl_estimator():
    """k3 is nonnegative on 1e5 random log-prob pairs; its Monte Carlo mean
    over 1e5 draws matches the exact categorical KL within 1e-2."""
    rng = np.random.default_rng(303)
    lp = rng.uniform(-20.0, 0.0, size=(100_000, 2))
    for a, b in lp:
        value = kl_k3(float(a), float(b))
        assert value >= 0.0
        if a == b:
            assert value == 0.0

    p = np.array([0.35, 0.25, 0.15, 0.1, 0.1, 0.05])
    q = np.array([0.2, 0.2, 0.2, 0.15, 0.15, 0.1])
    exact = float(np.sum(p * np.log(p / q)))
    draws = rng.choice(6, size=100_000, p=p)
    log_p, log_q = np.log(p), np.log(q)
    estimate = float(np.mean([kl_k3(float(log_p[i]), float(log_q[i])) for i in draws]))
    assert abs(estimate - exact) < 1e-2


def test_a5_gradient_check():
    """Analytic GRPO gradient vs central finite differences (h=1e-5), 20
    random (params, batch) instances, beta in {0, 0.01}, rel err < 1e-4."""
    items = generate_dataset(GenConfig(n=50, p_unans=0.4, ambiguity=0.4, seed=2))
    table = RewardTable(scalar_reference.columns_of(items))
    rng = np.random.default_rng(404)
    h = 1e-5
    for trial in range(20):
        beta = 0.0 if trial % 2 == 0 else 0.01
        cfg = GrpoConfig(beta=beta, batch_size=5, seed=trial)
        old = PolicyParams(rng.normal(0, 0.5, (6, 6)))
        ref = PolicyParams(rng.normal(0, 0.5, (6, 6)))
        # the rollout, gradient and objective cores train_rl itself runs
        batch = grpo_step.batch(old, ref, table, cfg, rng)
        # evaluate away from the old snapshot so some ratios clip; random
        # offsets land on exact clip boundaries with probability zero
        params = PolicyParams(old.logits + rng.normal(0, 0.3, (6, 6)))
        analytic = grpo_step.gradient(params, batch, cfg)
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


def _bandit_table(seed: int) -> RewardTable:
    """Items under a payout rule that gives one action 2.5 and every other
    action at most 0.5 (margin 2.0)."""

    def payout(raw: str, item) -> RewardBreakdown:
        pc = parse_completion(raw)
        if pc.format_ok and pc.answer == item.candidate_a:
            return RewardBreakdown(format=0.5, answer=2.0, total=2.5)
        return RewardBreakdown(format=0.0, answer=0.5, total=0.5)

    items = generate_dataset(GenConfig(n=120, p_unans=0.5, ambiguity=0.3, seed=seed))
    return scalar_reference.payout_table(items, payout)


def test_a6_bandit_sanity():
    """300 GRPO iterations at the defaults recover the dominant action in all
    6 feature rows."""
    table = _bandit_table(seed=5)
    target = ActionId(Choice.ANSWER_A, formatted=True)
    # closed-form payout table: the target action earns 2.5 on every item,
    # every other action earns 0.5 -- margin 2.0 >= 1.0
    n_items = len(table)
    payouts, _ = scalar_reference.gather(
        table, np.arange(n_items)[:, None], np.arange(len(ALL_ACTIONS))
    )
    assert (payouts[:, target.index] == 2.5).all()
    assert (np.delete(payouts, target.index, axis=1) <= 0.5).all()

    cfg = GrpoConfig(iters=300, seed=9)  # G=4, eps=0.2, beta=0.01, lr=1e-2
    trained, _ = train_rl(PolicyParams.zeros(), table, cfg)
    for feature in ALL_FEATURES:
        assert scalar_reference.greedy_action(trained, feature) == target, feature.name


def _expected_answer_value(p_unans: float, ambiguity: float) -> float:
    """Closed-form expected total reward of the better answering action in a
    no-evidence (ambiguous) context, from the generator probabilities.

    The generator hides the true evidence with probability `ambiguity`, so
    P(no-evidence | answerable) = ambiguity and P(no-evidence | unanswerable)
    = contradict_fraction * ambiguity + (1 - contradict_fraction).  The gold
    sits in either candidate with probability 1/2 and the wrong candidate is
    token-disjoint, so answering earns (rouge 1 + em 1) * 1/2 = 1.0 when the
    question is answerable, plus the 0.5 format reward.
    """
    obs_given_ans = ambiguity
    obs_given_unans = CONTRADICT_FRACTION * ambiguity + (1.0 - CONTRADICT_FRACTION)
    posterior = ((1 - p_unans) * obs_given_ans) / (
        (1 - p_unans) * obs_given_ans + p_unans * obs_given_unans
    )
    return 0.5 + posterior


def test_a7_data_ratio_collapse():
    """At a 50% unanswerable ratio with ambiguity high enough that answering
    in ambiguous contexts expects < 1.0 reward, training abstains on > 90%
    of ambiguous contexts with FN = 0; at the 12.4% ratio under the same
    seeds the overall abstain rate is strictly lower."""
    ambiguity = 0.5
    # the derived oracle flips between the two ratios
    assert _expected_answer_value(0.5, ambiguity) < 1.0
    assert _expected_answer_value(0.124, ambiguity) > 1.0

    cfg = GrpoConfig(iters=400, lr=0.05, seed=3)

    def run(p_unans):
        items = generate_dataset(
            GenConfig(n=400, p_unans=p_unans, ambiguity=ambiguity, seed=11)
        )
        table = RewardTable(scalar_reference.columns_of(items))
        params, _ = train_rl(PolicyParams.zeros(), table, cfg)
        return items, table, params

    items_hi, table_hi, params_hi = run(0.5)
    report_hi = summarize_items(evaluate_items(params_hi, table_hi))
    abstained = evaluate_items(params_hi, table_hi).abstained.tolist()
    ambiguous = [
        a for a, item in zip(abstained, items_hi)
        if item.feature.evidence is Evidence.NO_EVIDENCE
    ]
    assert ambiguous
    abstain_on_ambiguous = sum(ambiguous) / len(ambiguous)
    assert abstain_on_ambiguous > 0.90
    assert report_hi.confusion.fn == 0
    assert report_hi.confusion.fp > 0  # collapse signature: over-abstention

    _, table_lo, params_lo = run(0.124)
    report_lo = summarize_items(evaluate_items(params_lo, table_lo))
    assert report_lo.abstain_rate < report_hi.abstain_rate


def test_a8_confusion_metric_definitions():
    """Nine-case golden table over every (prediction, gold) combination."""
    na = GoldAnswer.no_answer()
    gold = GoldAnswer.of("paris")
    cases = [
        # (prediction, gold, tp, fp, fn); None means the prediction abstained
        (None, na, 1, 0, 0),
        (None, gold, 0, 1, 0),
        ("paris", na, 0, 0, 1),
        ("paris", gold, 0, 0, 0),
        ("london", gold, 0, 0, 0),
        ("", na, 0, 0, 1),
        ("", gold, 0, 0, 0),
        (None, GoldAnswer.of("x", "y"), 0, 1, 0),
        ("anything at all", na, 0, 0, 1),
    ]
    assert len(cases) == 9
    for pred, g, tp, fp, fn in cases:
        counts = abstention_confusion([(pred, g)])
        assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn), (pred, g)
    batch = abstention_confusion([(pred, g) for pred, g, *_ in cases])
    assert (batch.tp, batch.fp, batch.fn) == (1, 2, 3)


def test_a9_dataset_builder():
    """100 synthetic 4-option records at ratio 0.12: exactly 12 unanswerable,
    all outputs 3 options with valid remapped keys."""
    records = [
        MCSourceRecord(
            question=f"question {i}",
            options=(f"o{i}a", f"o{i}b", f"o{i}c", f"o{i}d"),
            answer_key="ABCD"[i % 4],
        )
        for i in range(100)
    ]
    items = build_abstained_mc(records, ratio=0.12, seed=13)
    assert len(items) == 100
    assert sum(1 for item in items if item.unanswerable) == 12
    for record, item in zip(records, items):
        assert len(item.options) == 3
        correct_text = record.options["ABCD".index(record.answer_key)]
        if item.unanswerable:
            assert item.answer_key == "D"
            assert correct_text not in item.options
        else:
            assert item.answer_key in ("A", "B", "C")
            assert item.options["ABC".index(item.answer_key)] == correct_text


def test_a10_retrieval_oracle_equivalence():
    """Semantic and lexical top-k match brute-force scoring order on 100
    random stores (<= 50 facts) for k in {1, 10, |store|}; default k is 10."""
    words = ["alpha", "bravo", "chart", "delta", "ember", "frost", "grove", "haven"]
    rng = np.random.default_rng(505)

    def random_store(size):
        return KGStore(
            Quadruple(
                head=words[int(rng.integers(0, 8))],
                relation=words[int(rng.integers(0, 8))],
                tail=words[int(rng.integers(0, 8))],
                timestamp=str(int(rng.integers(1900, 2000))) if rng.random() < 0.5 else None,
            )
            for _ in range(size)
        )

    def brute_semantic(store, query, k):
        qv = trigram_embedding(query)
        scored = [(i, cosine(qv, trigram_embedding(s))) for i, s in enumerate(store.sentences)]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return [(store.quads[i], s) for i, s in scored[: min(k, len(store))]]

    def brute_lexical(store, question, k):
        keywords = extract_keywords(question)
        scored = []
        for i, quad in enumerate(store.quads):
            tokens = set()
            for part in (quad.head, quad.relation, quad.tail, quad.timestamp or ""):
                tokens.update(normalize_text(part))
            scored.append((i, sum(1 for kw in keywords if kw in tokens)))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return [(store.quads[i], s) for i, s in scored[: min(k, len(store))]]

    question = "where was alpha's grove near frost in 1950"
    for _ in range(100):
        store = random_store(int(rng.integers(1, 51)))
        query = kg_sentence(store.quads[int(rng.integers(0, len(store)))])
        for k in (1, 10, len(store)):
            assert topk_semantic(store, query, k) == brute_semantic(store, query, k)
            assert topk_lexical(store, question, k) == brute_lexical(store, question, k)

    big = random_store(30)
    assert len(topk_semantic(big, "alpha")) == 10
    assert len(topk_lexical(big, question)) == 10


def test_a11_train_determinism(tmp_path):
    """Two `train` executions with identical config and seed produce
    byte-identical train_log.jsonl."""
    data = tmp_path / "data.jsonl"
    assert main(
        ["gen", "--n", "60", "--p-unans", "0.3", "--seed", "4", "--out", str(data)]
    ) == 0
    args = lambda out: [  # noqa: E731 - tiny local helper
        "train",
        "--dataset", str(data),
        "--out-dir", str(out),
        "--iters", "25",
        "--batch-size", "8",
        "--seed", "17",
    ]
    assert main(args(tmp_path / "run_a")) == 0
    assert main(args(tmp_path / "run_b")) == 0
    log_a = (tmp_path / "run_a" / "train_log.jsonl").read_bytes()
    log_b = (tmp_path / "run_b" / "train_log.jsonl").read_bytes()
    assert log_a == log_b


def test_a12_sft_cold_start_direction():
    """On 3 seeds, RL from an SFT checkpoint reaches evaluation reward >= the
    from-scratch run after 100 iterations (majority rule)."""
    wins = 0
    for seed in (1, 2, 3):
        items = generate_dataset(GenConfig(n=300, seed=seed))
        table = RewardTable(scalar_reference.columns_of(items))
        sft_params = sft_train(PolicyParams.zeros(), table.expert_cells())
        cfg = GrpoConfig(iters=100, seed=seed)
        from_sft, _ = train_rl(sft_params, table, cfg)
        from_scratch, _ = train_rl(PolicyParams.zeros(), table, cfg)
        reward_sft = summarize_items(evaluate_items(from_sft, table)).mean_reward
        reward_scratch = summarize_items(evaluate_items(from_scratch, table)).mean_reward
        wins += reward_sft >= reward_scratch
    assert wins >= 2
