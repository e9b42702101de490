"""Per-sample scalar reference implementations of the training hot path.

These are the loops the array code in ``abstainrl.grpo`` and
``abstainrl.policy.sft_train`` replaced: one rollout group at a time, one
completion at a time, rewards recomputed from text on every draw, and
evaluation one item at a time from its rendered greedy completion.  They are
kept only as oracles; the tests hold the array path to them.  The scalar
log-softmax and inverse-CDF sampler they call are the oracles for
``policy.log_softmax`` and ``policy.inverse_cdf``.  ``grpo_gradient_add_at``
is the batched gradient as two ``np.add.at`` scatters, the oracle for the
single ``np.bincount`` in ``grpo.grpo_gradient``.  ``item_from_dict``, which
builds every part of a dataset record afresh, is the oracle for
``synthenv.read_dataset``.  ``trigram_counts``, a per-character loop over an
already padded string, is the oracle for ``textmetrics.trigram_embedding``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from abstainrl import policy
from abstainrl.grpo import GrpoConfig, ItemEval, RewardFn, RolloutBatch, TrainLog, TrainRecord
from abstainrl.policy import (
    ALL_ACTIONS,
    N_ACTIONS,
    N_FEATURES,
    ActionId,
    ContextFeature,
    Difficulty,
    Evidence,
    ExpertTrace,
    PolicyParams,
    render_completion,
)
from abstainrl.reward import (
    DEFAULT_VARIANT,
    RewardVariant,
    is_no_answer,
    parse_completion,
    total_reward,
)
from abstainrl.synthenv import (
    SpecKind,
    SynthQAItem,
    TemporalFact,
    TimeInterval,
    TimeSpecifier,
    _json_int,
    _json_list,
    _json_object,
    _json_text,
)
from abstainrl.textmetrics import (
    ConfusionCounts,
    GoldAnswer,
    abstention_confusion,
    exact_match,
    rouge_l,
    rouge_n,
    semantic_sim,
)


def log_softmax(row: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax of a 1-D array."""
    row = np.asarray(row, dtype=np.float64)
    shifted = row - row.max()
    ex = np.exp(shifted)
    total = 0.0
    for v in ex:
        total += float(v)
    return shifted - math.log(total)


def sample_categorical(probs: np.ndarray, u: float) -> int:
    """Index sampled from ``probs`` by inverting the CDF at uniform draw ``u``."""
    cum = 0.0
    last = len(probs) - 1
    for i in range(last):
        cum += float(probs[i])
        if u < cum:
            return i
    return last


def trigram_counts(text: str, dim: int) -> np.ndarray:
    """Hashed character-trigram count vector of ``text``.

    Each trigram is bucketed by a fixed base-31 polynomial over its code
    points, modulo ``dim``.
    """
    out = np.zeros(dim, dtype=np.float64)
    for i in range(len(text) - 2):
        h = (ord(text[i]) * 961 + ord(text[i + 1]) * 31 + ord(text[i + 2])) % dim
        out[h] += 1.0
    return out


def kl_k3(logp_theta: float, logp_ref: float) -> float:
    d = logp_ref - logp_theta
    return max(0.0, math.expm1(d) - d)


def clipped_term(ratio: float, advantage: float, clip_eps: float) -> float:
    clipped = min(max(ratio, 1.0 - clip_eps), 1.0 + clip_eps)
    return min(ratio * advantage, clipped * advantage)


def compute_advantages(rewards: np.ndarray, std_eps: float) -> np.ndarray:
    r = np.asarray(rewards, dtype=np.float64)
    if float(r.max()) == float(r.min()):
        return np.zeros_like(r)
    mean = float(r.mean())
    std = float(r.std())
    return (r - mean) / (std + std_eps)


@dataclass(frozen=True)
class RolloutGroup:
    """G completions for one question under a fixed old-policy snapshot."""

    item: SynthQAItem
    actions: tuple[ActionId, ...]
    rendered: tuple[str, ...]
    logp_old: np.ndarray
    logp_ref: np.ndarray
    rewards: np.ndarray
    advantages: np.ndarray


def row_log_probs_table(params: PolicyParams) -> np.ndarray:
    out = np.empty((N_FEATURES, N_ACTIONS))
    for row in range(N_FEATURES):
        out[row] = log_softmax(params.logits[row])
    return out


def reward(
    text: str, item: SynthQAItem, variant: RewardVariant, reward_fn: RewardFn | None
) -> float:
    """The reward rule applied to one rendered completion."""
    if reward_fn is not None:
        return reward_fn(text, item).total
    return total_reward(text, item.gold, variant).total


def rollout_group(
    params_old: PolicyParams,
    params_ref: PolicyParams,
    item: SynthQAItem,
    cfg: GrpoConfig,
    rng: np.random.Generator,
    variant: RewardVariant = DEFAULT_VARIANT,
    reward_fn: RewardFn | None = None,
) -> RolloutGroup:
    row = item.feature.index
    logp_old_row = np.asarray(log_softmax(params_old.logits[row]))
    logp_ref_row = np.asarray(log_softmax(params_ref.logits[row]))
    probs = np.exp(logp_old_row)
    actions, rendered = [], []
    rewards = np.empty(cfg.group_size)
    logp_old = np.empty(cfg.group_size)
    logp_ref = np.empty(cfg.group_size)
    for i in range(cfg.group_size):
        idx = sample_categorical(probs, float(rng.random()))
        action = ALL_ACTIONS[idx]
        text = render_completion(action, item)
        actions.append(action)
        rendered.append(text)
        rewards[i] = reward(text, item, variant, reward_fn)
        logp_old[i] = logp_old_row[idx]
        logp_ref[i] = logp_ref_row[idx]
    return RolloutGroup(
        item=item,
        actions=tuple(actions),
        rendered=tuple(rendered),
        logp_old=logp_old,
        logp_ref=logp_ref,
        rewards=rewards,
        advantages=compute_advantages(rewards, cfg.std_eps),
    )


def grpo_objective(
    params: PolicyParams, groups: Sequence[RolloutGroup], cfg: GrpoConfig
) -> float:
    log_probs = row_log_probs_table(params)
    total = 0.0
    for group in groups:
        row = group.item.feature.index
        acc = 0.0
        for i, action in enumerate(group.actions):
            logp_new = log_probs[row, action.index]
            ratio = math.exp(logp_new - float(group.logp_old[i]))
            acc += clipped_term(ratio, float(group.advantages[i]), cfg.clip_eps)
            acc -= cfg.kl_beta * kl_k3(logp_new, float(group.logp_ref[i]))
        total += acc / cfg.group_size
    return total / len(groups)


def grpo_gradient(
    params: PolicyParams, groups: Sequence[RolloutGroup], cfg: GrpoConfig
) -> np.ndarray:
    log_probs = row_log_probs_table(params)
    grad = np.zeros((N_FEATURES, N_ACTIONS))
    lo, hi = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps
    scale = 1.0 / (len(groups) * cfg.group_size)
    for group in groups:
        row = group.item.feature.index
        probs = np.exp(log_probs[row])
        for i, action in enumerate(group.actions):
            logp_new = log_probs[row, action.index]
            ratio = math.exp(logp_new - float(group.logp_old[i]))
            advantage = float(group.advantages[i])
            unclipped = ratio * advantage
            clipped = min(max(ratio, lo), hi) * advantage
            coeff = 0.0
            if unclipped <= clipped:
                coeff += unclipped
            u = math.exp(float(group.logp_ref[i]) - logp_new)
            coeff += cfg.kl_beta * (u - 1.0)
            grad[row] -= scale * coeff * probs
            grad[row, action.index] += scale * coeff
    return grad


def grpo_gradient_add_at(
    params: PolicyParams, batch: RolloutBatch, cfg: GrpoConfig
) -> np.ndarray:
    """The batched gradient with every one-hot term scattered by one
    ``np.add.at``, in batch order, then every row's softmax terms by a second."""
    log_probs = policy.log_softmax(params.logits)
    logp_new = log_probs[batch.rows[:, None], batch.actions]
    ratio = np.exp(logp_new - batch.logp_old)
    unclipped = ratio * batch.advantages
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * batch.advantages
    coeff = np.where(unclipped <= clipped, unclipped, 0.0)
    coeff += cfg.kl_beta * (np.exp(batch.logp_ref - logp_new) - 1.0)
    weight = (1.0 / coeff.size) * coeff
    grad = np.zeros((N_FEATURES, N_ACTIONS))
    np.add.at(grad, (batch.rows[:, None], batch.actions), weight)
    np.add.at(grad, batch.rows, -weight.sum(axis=1)[:, None] * np.exp(log_probs[batch.rows]))
    return grad


def batch_confusion(groups: Sequence[RolloutGroup]) -> ConfusionCounts:
    pairs = []
    for group in groups:
        for text in group.rendered:
            answer = parse_completion(text).answer
            pairs.append((None if is_no_answer(answer) else answer, group.item.gold))
    return abstention_confusion(pairs)


def train_rl(
    params0: PolicyParams,
    items: Sequence[SynthQAItem],
    variant: RewardVariant = DEFAULT_VARIANT,
    cfg: GrpoConfig = GrpoConfig(),
    reward_fn: RewardFn | None = None,
) -> tuple[PolicyParams, TrainLog]:
    """The per-group training loop."""
    ref = params0
    params = params0
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    for iteration in range(cfg.outer_iters):
        old = params
        item_idx = rng.integers(0, len(items), size=cfg.batch_size)
        groups = [
            rollout_group(old, ref, items[int(j)], cfg, rng, variant, reward_fn)
            for j in item_idx
        ]
        for _ in range(cfg.inner_steps):
            step = grpo_gradient(params, groups, cfg)
            params = PolicyParams(params.logits + cfg.lr * step)
        objective = grpo_objective(params, groups, cfg)
        rewards = np.concatenate([g.rewards for g in groups])
        abstained = 0
        kl_total = 0.0
        count = 0
        log_probs = row_log_probs_table(params)
        for group in groups:
            row = group.item.feature.index
            for i, action in enumerate(group.actions):
                kl_total += kl_k3(float(log_probs[row, action.index]), float(group.logp_ref[i]))
                if is_no_answer(parse_completion(group.rendered[i]).answer):
                    abstained += 1
                count += 1
        confusion = batch_confusion(groups)
        log.records.append(
            TrainRecord(
                iteration=iteration,
                mean_reward=float(rewards.mean()),
                abstain_rate=abstained / count,
                kl=kl_total / count,
                objective=float(objective),
                tp=confusion.tp,
                fp=confusion.fp,
                fn=confusion.fn,
            )
        )
    return params, log


def sft_train(
    params: PolicyParams, traces: Sequence[ExpertTrace], lr: float = 0.5, epochs: int = 200
) -> PolicyParams:
    """Full-batch SFT, one trace at a time."""
    logits = np.array(params.logits)
    n = len(traces)
    for _ in range(epochs):
        grad = np.zeros_like(logits)
        for trace in traces:
            row = trace.feature.index
            probs = np.exp(log_softmax(logits[row]))
            grad[row] -= probs
            grad[row, trace.action.index] += 1.0
        logits += lr * grad / n
    return PolicyParams(logits)


def evaluate_items(
    params: PolicyParams,
    items: Sequence[SynthQAItem],
    variant: RewardVariant = DEFAULT_VARIANT,
    reward_fn: RewardFn | None = None,
) -> list[ItemEval]:
    """Greedy evaluation one item at a time: render the argmax action, parse
    it, and score the answer against the gold directly."""
    out = []
    for item in items:
        action = ALL_ACTIONS[int(np.argmax(params.logits[item.feature.index]))]
        text = render_completion(action, item)
        answer = parse_completion(text).answer
        abstain = is_no_answer(answer)
        gold = item.gold
        if gold.is_no_answer:
            em = 1.0 if abstain else 0.0
            r1 = r2 = rl = sem = 0.0
            tp, fp, fn = (1, 0, 0) if abstain else (0, 0, 1)
        else:
            em = exact_match(answer, gold)
            r1 = rouge_n(answer, gold, 1).f1
            r2 = rouge_n(answer, gold, 2).f1
            rl = rouge_l(answer, gold).f1
            sem = max(semantic_sim(answer, alias) for alias in gold.aliases)
            tp, fp, fn = (0, 1, 0) if abstain else (0, 0, 0)
        out.append(
            ItemEval(
                reward(text, item, variant, reward_fn), abstain, em, r1, r2, rl, sem, tp, fp, fn
            )
        )
    return out


def item_from_dict(payload: object) -> SynthQAItem:
    """One dataset record, every part built afresh.  Texts must be strings
    with no lone surrogate and years integers; ValueError names the first
    field that breaks this, and KeyError the first missing one."""
    record = _json_object(payload, "record")
    spec_json = _json_object(record["specifier"], "specifier")
    years = _json_list(spec_json["years"], "specifier years")
    spec = TimeSpecifier(
        SpecKind(spec_json["kind"]),
        tuple(_json_int(y, "specifier year") for y in years),
    )
    facts = tuple(
        TemporalFact(
            _json_text(f["subject"], "fact subject"),
            _json_text(f["relation"], "fact relation"),
            _json_text(f["object"], "fact object"),
            TimeInterval(_json_int(f["start"], "fact start"), _json_int(f["end"], "fact end")),
        )
        for f in (_json_object(f, "fact") for f in _json_list(record["facts"], "facts"))
    )
    gold_aliases = record["gold"]
    if gold_aliases is None:
        gold = GoldAnswer.no_answer()
    else:
        aliases = _json_list(gold_aliases, "gold")
        # all-string aliases are checked for surrogates before GoldAnswer's
        # own checks; GoldAnswer names any other alias
        if all(isinstance(a, str) for a in aliases):
            aliases = [_json_text(a, "gold alias") for a in aliases]
        gold = GoldAnswer.of(*aliases)
    feature_json = _json_object(record["feature"], "feature")
    feature = ContextFeature(
        Evidence(feature_json["evidence"]),
        Difficulty(feature_json["difficulty"]),
    )
    candidates = [
        _json_text(c, "candidate") for c in _json_list(record["candidates"], "candidates")
    ]
    if len(candidates) != 2:
        raise ValueError(f"candidates must hold two options, got {len(candidates)}")
    return SynthQAItem(
        id=_json_text(record["id"], "id"),
        question=_json_text(record["question"], "question"),
        facts=facts,
        specifier=spec,
        gold=gold,
        candidate_a=candidates[0],
        candidate_b=candidates[1],
        feature=feature,
    )
