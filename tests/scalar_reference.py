"""Per-sample scalar reference implementations of the training hot path.

These are the loops the array code in ``abstainrl.grpo`` and
``abstainrl.policy.sft_train`` replaced: one rollout group at a time, one
completion at a time, rewards recomputed from text on every draw, and
evaluation one item at a time from its rendered greedy completion.  They are
kept only as oracles; the tests hold the array path to them.  The scalar
log-softmax and inverse-CDF sampler they call are the oracles for
``policy.log_softmax`` and for ``inverse_cdf``, the draw ``grpo.train_rl``
makes through ``policy.cdf_bounds`` and ``policy.draw_at_bounds``.
``gather`` reads a ``grpo.RewardTable``'s rewards and abstention flags at
(item, action) index arrays.  ``grpo_gradient_add_at``
is the batched gradient as two ``np.add.at`` scatters, the oracle for the
single ``np.bincount`` in ``grpo._gradient``.  ``item_from_dict``, which
builds every part of a dataset record afresh, is the oracle for the items
``synthenv.iter_dataset`` reads.  ``trigram_counts``, a per-character loop over an
already padded string, is the oracle for ``textmetrics.trigram_embedding``.
``make_expert_traces``, which renders and scores the oracle's completion of
every item, is the oracle for ``grpo.RewardTable.expert_cells``.
``per_cell_table``, which renders, parses and measures every (content row,
action) on its own, is the oracle for the columns ``grpo.RewardTable``
gathers from its distinct texts; ``payout_table`` puts its per-cell rewards
under a payout rule in place of a table's rule rewards, which is how the
bandit sanity environments get their payout tables.
``evaluate_items``, which renders and scores each item's greedy completion
into an ``ItemEval`` record, and ``summarize_items``, which sums those
records one at a time, are the oracles for ``grpo.evaluate_items`` and
``grpo.summarize_items``; ``item_evals`` reads the per-item arrays of a
``grpo.Evaluation`` back as records.
``frozen_train_rl``, with ``frozen_rollout``, ``frozen_advantages``,
``frozen_gradient`` and ``frozen_objective``, is the batched training loop
as it stood before its step layer was reworked: the bit-for-bit oracle for
``grpo.train_rl``.
``rouge_n_per_alias`` and ``rouge_l_per_alias``, which build a
``ScoreTriple`` per alias from
fresh n-gram counts and LCS lengths and keep the first with the highest F1,
are the oracles for ``textmetrics.TextParts``' ROUGE methods.
``item_to_dict``, a dataset record as a dict, is the oracle for the lines
``synthenv.iter_lines`` spells: each is ``json.dumps(item_to_dict(item),
sort_keys=True)``, the line ``write_items`` writes for any item.
``iter_heads``, which decodes and builds every record whole, and
``columns_of``, which fills the columns one head at a time, are the oracles
for the columns ``synthenv.read_columns`` fills; ``columns_of`` is also how
a test builds a ``grpo.RewardTable`` from items.  ``oracle_action``, the
oracle's action decided one item at a time, is the oracle for
``grpo.RewardTable.oracle_actions``; it, ``render_completion`` (an action's
completion text for one item) and ``greedy_action`` (a feature's argmax
action) are the per-item entry points no command calls.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path
from dataclasses import dataclass, fields

import numpy as np

import grpo_step
from abstainrl import policy
from abstainrl.grpo import (
    EvalReport,
    Evaluation,
    GrpoConfig,
    GrpoDivergenceError,
    RewardTable,
    TrainLog,
    TrainRecord,
)
from abstainrl.policy import (
    ALL_ACTIONS,
    N_ACTIONS,
    N_FEATURES,
    ActionId,
    Choice,
    ContextFeature,
    Difficulty,
    Evidence,
    PolicyParams,
)
from abstainrl.reward import (
    DEFAULT_VARIANT,
    RewardBreakdown,
    RewardVariant,
    answer_metrics,
    answer_reward,
    completion_text,
    is_no_answer,
    parse_completion,
    rule_rewards,
    total_reward,
)
from abstainrl.synthenv import (
    ItemColumns,
    ItemHead,
    SpecKind,
    SynthQAItem,
    TemporalFact,
    TimeInterval,
    TimeSpecifier,
    _json_int,
    _json_list,
    _json_object,
    _json_text,
    read_records,
    write_lines,
)
from abstainrl.textmetrics import (
    ConfusionCounts,
    GoldAnswer,
    ScoreTriple,
    abstention_confusion,
    exact_match,
    lcs_length,
    normalize_text,
    rouge_l,
    rouge_n,
    semantic_sim,
)

# a payout rule: the reward of a completion text for an item or its head
RewardFn = Callable[[str, ItemHead | SynthQAItem], RewardBreakdown]


def head_of(item: ItemHead | SynthQAItem) -> ItemHead:
    """The fields of ``item`` that training and evaluation read."""
    return ItemHead(item.id, item.feature, item.gold, item.candidate_a, item.candidate_b)


def columns_of(items: Iterable[ItemHead | SynthQAItem]) -> ItemColumns:
    """The ``ItemColumns`` of ``items`` or of their heads, read once, in
    order: items with equal (candidate_a, candidate_b, gold) share a
    content row, numbered in first-seen order, whose head is its first
    item's."""
    columns = ItemColumns([], [], [], [])
    ids, features, row, heads = columns
    rows: dict[tuple, int] = {}
    for item in items:
        head = head_of(item)
        ids.append(head.id)
        features.append(head.feature.index)
        r = rows.setdefault((head.candidate_a, head.candidate_b, head.gold), len(heads))
        if r == len(heads):
            heads.append(head)
        row.append(r)
    return columns


def greedy_action(params: PolicyParams, feature: ContextFeature) -> ActionId:
    return ALL_ACTIONS[int(np.argmax(params.logits[feature.index]))]


def render_completion(action: ActionId, item: ItemHead | SynthQAItem) -> str:
    """Render an action as completion text for one question."""
    if action.choice is Choice.ANSWER_A:
        return completion_text(item.candidate_a, action.formatted)
    if action.choice is Choice.ANSWER_B:
        return completion_text(item.candidate_b, action.formatted)
    return completion_text(None, action.formatted)


def oracle_action(item: ItemHead | SynthQAItem) -> ActionId:
    """The environment oracle's preferred action: the correct formatted answer,
    or a formatted abstention when the question is unanswerable."""
    if item.gold.is_no_answer:
        return ActionId(Choice.ABSTAIN, formatted=True)
    if exact_match(item.candidate_a, item.gold) == 1.0:
        return ActionId(Choice.ANSWER_A, formatted=True)
    if exact_match(item.candidate_b, item.gold) == 1.0:
        return ActionId(Choice.ANSWER_B, formatted=True)
    return ActionId(Choice.ABSTAIN, formatted=True)


def log_softmax(row: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax of a 1-D array."""
    row = np.asarray(row, dtype=np.float64)
    shifted = row - row.max()
    ex = np.exp(shifted)
    total = 0.0
    for v in ex:
        total += float(v)
    return shifted - math.log(total)


def inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices drawn by inverting each row's CDF at the uniform draws ``u``,
    as ``grpo.train_rl`` draws them: ``probs`` is (..., K) and ``u`` is
    (..., M), one row of draws per row of probabilities."""
    return policy.draw_at_bounds(policy.cdf_bounds(probs), u)


def gather(
    table: RewardTable, items: np.ndarray, actions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rewards and abstention flags of ``table`` at the (broadcast) item
    and action index arrays."""
    cells = table.first_cell.take(items) + actions
    return table.rewards.take(cells), table.abstained.take(cells)


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
            acc -= cfg.beta * kl_k3(logp_new, float(group.logp_ref[i]))
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
            coeff += cfg.beta * (u - 1.0)
            grad[row] -= scale * coeff * probs
            grad[row, action.index] += scale * coeff
    return grad


def grpo_gradient_add_at(
    params: PolicyParams, batch: grpo_step.Batch, cfg: GrpoConfig
) -> np.ndarray:
    """The gradient of a ``grpo_step`` batch with every one-hot term
    scattered by one ``np.add.at``, in batch order, then every row's
    softmax terms by a second."""
    log_probs = policy.log_softmax(params.logits)
    logp_new = log_probs[batch.rows[:, None], batch.actions]
    ratio = np.exp(logp_new - batch.logp_old)
    unclipped = ratio * batch.advantages
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * batch.advantages
    coeff = np.where(unclipped <= clipped, unclipped, 0.0)
    coeff += cfg.beta * (np.exp(batch.logp_ref - logp_new) - 1.0)
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
    for iteration in range(cfg.iters):
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


# --- the batched training loop, frozen --------------------------------------
#
# ``grpo.train_rl`` and its step functions as they stood when the step layer
# still built a frozen ``RolloutBatch`` dataclass, checked each update's
# logits before its ``PolicyParams`` checked them again, and computed a second
# KL for the log.  Every
# expression is copied here, with the numpy helpers it called inlined, so that
# the oracle does not move when ``grpo`` or ``policy`` change: ``train_rl``
# must give the same log lines, the same logits and the same generator state,
# bit for bit, and raise the same ``GrpoDivergenceError`` at the same
# iteration.


def frozen_log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


@dataclass(frozen=True)
class FrozenBatch:
    item_idx: np.ndarray
    rows: np.ndarray
    unanswerable: np.ndarray
    actions: np.ndarray
    cells: np.ndarray
    logp_old: np.ndarray
    logp_ref: np.ndarray
    rewards: np.ndarray
    abstained: np.ndarray
    advantages: np.ndarray


def frozen_advantages(rewards: np.ndarray, std_eps: float) -> np.ndarray:
    r = np.asarray(rewards, dtype=np.float64)
    flat = r.max(axis=-1, keepdims=True) == r.min(axis=-1, keepdims=True)
    n = r.shape[-1]
    centered = r - np.add.reduce(r, axis=-1, keepdims=True) / n
    scale = np.sqrt(np.add.reduce(np.square(centered), axis=-1, keepdims=True) / n) + std_eps
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(centered, scale, out=np.zeros(r.shape), where=~flat)


def frozen_rollout(
    logp_old_table: np.ndarray,
    logp_ref_table: np.ndarray,
    table: RewardTable,
    cfg: GrpoConfig,
    rng: np.random.Generator,
) -> FrozenBatch:
    item_idx = rng.integers(0, len(table), size=cfg.batch_size)
    u = rng.random((cfg.batch_size, cfg.group_size))
    rows = table.features[item_idx]
    probs = np.exp(logp_old_table)[rows]
    cum = np.add.accumulate(probs[..., :-1], axis=-1)
    actions = np.add.reduce(u[..., :, None] >= cum[..., None, :], axis=-1)
    cells = rows[:, None] * N_ACTIONS + actions
    table_cells = table.row[item_idx[:, None]] * N_ACTIONS + actions
    rewards, abstained = table.rewards.take(table_cells), table.abstained.take(table_cells)
    return FrozenBatch(
        item_idx=item_idx,
        rows=rows,
        unanswerable=table.unanswerable[item_idx],
        actions=actions,
        cells=cells,
        logp_old=logp_old_table.take(cells),
        logp_ref=logp_ref_table.take(cells),
        rewards=rewards,
        abstained=abstained,
        advantages=frozen_advantages(rewards, cfg.std_eps),
    )


def frozen_objective(log_probs: np.ndarray, batch: FrozenBatch, cfg: GrpoConfig) -> float:
    logp_new = log_probs.take(batch.cells)
    ratio = np.exp(np.subtract(logp_new, batch.logp_old))
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
    surrogate = np.minimum(np.multiply(ratio, batch.advantages), clipped * batch.advantages)
    d = np.subtract(batch.logp_ref, logp_new)
    terms = surrogate - cfg.beta * np.maximum(0.0, np.expm1(d) - d)
    return float(terms.sum()) / terms.size


def frozen_gradient(log_probs: np.ndarray, batch: FrozenBatch, cfg: GrpoConfig) -> np.ndarray:
    logp_new = log_probs.take(batch.cells)
    ratio = np.exp(np.subtract(logp_new, batch.logp_old))
    unclipped = ratio * batch.advantages
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * batch.advantages
    coeff = np.where(unclipped <= clipped, unclipped, 0.0)
    coeff += cfg.beta * (np.exp(batch.logp_ref - logp_new) - 1.0)
    weight = (1.0 / coeff.size) * coeff
    softmax_cells = batch.rows[:, None] * N_ACTIONS + np.arange(N_ACTIONS)
    softmax_terms = -weight.sum(axis=1)[:, None] * np.exp(log_probs)[batch.rows]
    grad = np.bincount(
        np.concatenate((batch.cells.ravel(), softmax_cells.ravel())),
        np.concatenate((weight.ravel(), softmax_terms.ravel())),
        minlength=N_FEATURES * N_ACTIONS,
    )
    return grad.reshape(N_FEATURES, N_ACTIONS)


def frozen_train_rl(
    params0: PolicyParams, table: RewardTable, cfg: GrpoConfig
) -> tuple[PolicyParams, TrainLog, np.random.Generator]:
    """The frozen loop; also returns its generator, to compare its state."""
    logits = np.array(params0.logits)
    ref_log_probs = log_probs = frozen_log_softmax(logits)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(cfg.iters):
            batch = frozen_rollout(log_probs, ref_log_probs, table, cfg, rng)
            for _ in range(cfg.inner_steps):
                logits = logits + cfg.lr * frozen_gradient(log_probs, batch, cfg)
                if not np.isfinite(logits).all():
                    raise GrpoDivergenceError(
                        f"logits became non-finite at iteration {iteration}"
                    )
                log_probs = frozen_log_softmax(logits)
            objective = frozen_objective(log_probs, batch, cfg)
            if not math.isfinite(objective):
                raise GrpoDivergenceError(
                    f"objective became non-finite at iteration {iteration}"
                )
            d = np.subtract(batch.logp_ref, log_probs.take(batch.cells))
            kl = np.maximum(0.0, np.expm1(d) - d)
            abstained = batch.abstained
            n_abstained = int(np.count_nonzero(abstained))
            tp = int(np.count_nonzero(abstained & batch.unanswerable[:, None]))
            n_unanswerable = int(np.count_nonzero(batch.unanswerable)) * abstained.shape[1]
            log.records.append(
                TrainRecord(
                    iteration=iteration,
                    mean_reward=float(batch.rewards.sum()) / batch.rewards.size,
                    abstain_rate=n_abstained / abstained.size,
                    kl=float(kl.sum()) / kl.size,
                    objective=objective,
                    tp=tp,
                    fp=n_abstained - tp,
                    fn=n_unanswerable - tp,
                )
            )
    return PolicyParams(logits), log, rng


def per_cell_table(
    columns: ItemColumns, variant: RewardVariant = DEFAULT_VARIANT, reward_fn: RewardFn | None = None
) -> dict[str, np.ndarray]:
    """The ``formatted``, ``abstained``, ``metrics`` and ``rewards`` columns
    of the reward table of ``columns``, as the table built them one cell at
    a time: each (content row, action) rendered from the row's head,
    parsed, and measured against the row's gold (zero metrics for a
    No-Answer gold); ``reward_fn``, if given, called once per cell in row
    order, else the rule under ``variant``."""
    formatted, abstained, metrics, rewards = [], [], [], []
    for head in columns.heads:
        for action in ALL_ACTIONS:
            text = render_completion(action, head)
            parsed = parse_completion(text)
            formatted.append(parsed.format_ok)
            abstained.append(is_no_answer(parsed.answer))
            if reward_fn is not None:
                rewards.append(reward_fn(text, head).total)
            metrics.append(
                (0.0,) * 5 if head.gold.is_no_answer else answer_metrics(parsed.answer, head.gold)
            )
    shape = (len(columns.heads), N_ACTIONS)
    table = {
        "formatted": np.array(formatted).reshape(shape),
        "abstained": np.array(abstained).reshape(shape),
        "metrics": np.array(metrics, dtype=float).reshape(shape + (5,)),
    }
    if reward_fn is not None:
        table["rewards"] = np.array(rewards, dtype=float).reshape(shape)
    else:
        no_answer = np.array([head.gold.is_no_answer for head in columns.heads])
        table["rewards"] = rule_rewards(
            table["formatted"], table["abstained"], no_answer[:, None], table["metrics"], variant
        )
    return table


def payout_table(items: Iterable[ItemHead | SynthQAItem], payout: RewardFn) -> RewardTable:
    """The reward table of ``items`` with ``payout``'s rewards in place of
    the rule's, as ``with_variant`` puts a variant's: ``per_cell_table``'s,
    ``payout`` called once per (content row, action) with the cell's
    completion and the row's head."""
    columns = columns_of(items)
    table = RewardTable(columns)
    table.rewards = per_cell_table(columns, reward_fn=payout)["rewards"]
    return table


@dataclass(frozen=True)
class ExpertTrace:
    feature: ContextFeature
    action: ActionId
    rendered: str
    gold: GoldAnswer

    @property
    def cell(self) -> int:
        return self.feature.index * N_ACTIONS + self.action.index


def make_expert_traces(items: Sequence[SynthQAItem]) -> list[ExpertTrace]:
    """The oracle's completion of each item, in item order, kept where its
    answer reward under the default variant is at least 1."""
    kept = []
    for item in items:
        action = oracle_action(item)
        rendered = render_completion(action, item)
        if answer_reward(parse_completion(rendered).answer, item.gold) >= 1.0:
            kept.append(ExpertTrace(item.feature, action, rendered, item.gold))
    return kept


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


@dataclass(frozen=True)
class ItemEval:
    """Greedy-decoding metrics for one item.

    Lexical/semantic scores are against the gold aliases and are zero for
    unanswerable items, where only the abstention buckets are meaningful;
    ``em`` treats a correct abstention as a match.
    """

    reward: float
    abstained: bool
    em: float
    rouge1: float
    rouge2: float
    rouge_l: float
    semantic: float
    tp: int
    fp: int
    fn: int


def item_evals(evaluation: Evaluation) -> list[ItemEval]:
    """The per-item arrays of ``evaluation`` as one record per item."""
    columns = (getattr(evaluation, f.name).tolist() for f in fields(ItemEval))
    return [ItemEval(*values) for values in zip(*columns)]


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


def summarize_items(evals: Sequence[ItemEval]) -> EvalReport:
    """Aggregate per-item evaluations, one record at a time; ROUGE/semantic
    means cover the answerable subset."""
    answerable = [e for e in evals if e.tp == 0 and e.fn == 0]
    confusion = ConfusionCounts(
        tp=sum(e.tp for e in evals), fp=sum(e.fp for e in evals), fn=sum(e.fn for e in evals)
    )

    def _mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return EvalReport(
        n_items=len(evals),
        mean_reward=_mean([e.reward for e in evals]),
        em_rate=_mean([e.em for e in evals]),
        abstain_rate=_mean([1.0 if e.abstained else 0.0 for e in evals]),
        confusion=confusion,
        rouge1=_mean([e.rouge1 for e in answerable]),
        rouge2=_mean([e.rouge2 for e in answerable]),
        rouge_l=_mean([e.rouge_l for e in answerable]),
        semantic=_mean([e.semantic for e in answerable]),
    )


def _best_triple(triples: Iterator[ScoreTriple]) -> ScoreTriple:
    best = ScoreTriple.zero()
    for triple in triples:
        if triple.f1 > best.f1:
            best = triple
    return best


def rouge_n_per_alias(candidate: str, gold: GoldAnswer, n: int) -> ScoreTriple:
    """ROUGE-N F1's best alias, one ``ScoreTriple`` per alias."""
    def grams(text: str) -> Counter:
        tokens = normalize_text(text)
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    cand = grams(candidate)
    refs = [grams(alias) for alias in gold.aliases]
    return _best_triple(
        ScoreTriple.from_pr(
            sum(min(count, ref[g]) for g, count in cand.items()) / sum(cand.values()),
            sum(min(count, ref[g]) for g, count in cand.items()) / sum(ref.values()),
        )
        for ref in refs if cand and ref
    )


def rouge_l_per_alias(candidate: str, gold: GoldAnswer) -> ScoreTriple:
    """ROUGE-L F1's best alias, one ``ScoreTriple`` per alias."""
    cand = normalize_text(candidate)
    refs = [normalize_text(alias) for alias in gold.aliases]
    return _best_triple(
        ScoreTriple.from_pr(lcs_length(cand, ref) / len(cand), lcs_length(cand, ref) / len(ref))
        for ref in refs if cand and ref
    )


def item_to_dict(item: SynthQAItem) -> dict:
    """The record of ``item``, the inverse of ``item_from_dict``."""
    return {
        "id": item.id,
        "question": item.question,
        "specifier": {"kind": item.specifier.kind.value, "years": list(item.specifier.years)},
        "facts": [
            {
                "subject": f.subject,
                "relation": f.relation,
                "object": f.obj,
                "start": f.scope.start,
                "end": f.scope.end,
            }
            for f in item.facts
        ],
        "gold": list(item.gold.aliases) if not item.gold.is_no_answer else None,
        "candidates": [item.candidate_a, item.candidate_b],
        "feature": {
            "evidence": item.feature.evidence.value,
            "difficulty": item.feature.difficulty.value,
        },
    }


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


def write_items(items: Iterable[SynthQAItem], path: str | Path) -> None:
    """Write the line of each of ``items``, ``json.dumps`` of its record
    with sorted keys, to ``path``."""
    write_lines(path, (json.dumps(item_to_dict(item), sort_keys=True) for item in items))


def iter_heads(path: str | Path) -> Iterator[ItemHead]:
    """``head_of(item_from_dict(record))`` of each record of the dataset
    at ``path``, read by ``synthenv.read_records``, so with its
    ``DatasetError``s."""
    return read_records(path, "dataset", lambda record: head_of(item_from_dict(record)))
