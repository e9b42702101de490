"""Group-relative policy optimization over the tabular softmax policy.

Each outer iteration snapshots the current policy, rolls out a group of G
completions per sampled question under that snapshot, scores them with the
rule-based reward, standardizes rewards within each group into advantages,
and takes gradient-ascent steps on the clipped importance-weighted surrogate
with a k3 KL penalty against a frozen reference policy.

A batch is held as B x G arrays of action indices.  An item has only 6
possible completions, so the reward table scores every (item, action) pair
once when it is built, one row per distinct item content; rollout and
evaluation gather from it and never render or score completion text.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from abstainrl.policy import (
    ALL_ACTIONS,
    N_ACTIONS,
    N_FEATURES,
    DivergenceError,
    PolicyParams,
    inverse_cdf,
    oracle_action,
    render_completion,
)
from abstainrl.reward import (
    DEFAULT_VARIANT,
    RewardBreakdown,
    RewardVariant,
    Scorer,
    is_no_answer,
    parse_completion,  # noqa: F401  re-exported: e2ebench's tracer tests wrap it here
    rule_rewards,
    total_reward,  # noqa: F401  re-exported: e2ebench's tracer tests wrap it here
)
from abstainrl.synthenv import ItemColumns, ItemHead, SynthQAItem, read_records, write_lines
from abstainrl.textmetrics import ConfusionCounts


class GrpoDivergenceError(DivergenceError):
    """Raised when the RL logits or the objective stop being finite."""


@dataclass(frozen=True)
class GrpoConfig:
    group_size: int = 4
    clip_eps: float = 0.2
    kl_beta: float = 0.01
    lr: float = 1e-2
    outer_iters: int = 200
    inner_steps: int = 1
    std_eps: float = 1e-8
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("clip_eps", "kl_beta", "lr", "std_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must lie in (0, 1)")
        if self.kl_beta < 0.0:
            raise ValueError("kl_beta must be >= 0")
        if self.lr < 0.0:
            raise ValueError("lr must be >= 0")
        if self.outer_iters < 0:
            raise ValueError("outer_iters must be >= 0")
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be >= 1")
        if self.std_eps < 0.0:
            raise ValueError("std_eps must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


_COUNT_FIELDS = frozenset({"iteration", "tp", "fp", "fn"})


def _record_field(d: dict, name: str) -> int | float:
    """Field ``name`` of a train log record: an integer (not a bool) >= 0 for
    the iteration and the counts, a finite float for the rest."""
    value = d[name]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if name in _COUNT_FIELDS:
        if number and isinstance(value, int) and value >= 0:
            return value
        raise ValueError(f"field {name!r} must be an integer >= 0, got {value!r}")
    if number:
        with contextlib.suppress(OverflowError):
            if math.isfinite(value := float(value)):
                return value
    raise ValueError(f"field {name!r} must be a float and finite, got {value!r}")


# written as vars(record): that holds exactly the fields only while there is no cached_property
@dataclass(frozen=True)
class TrainRecord:
    iteration: int
    mean_reward: float
    abstain_rate: float
    kl: float
    objective: float
    tp: int
    fp: int
    fn: int


def _train_record_from_dict(d: dict) -> TrainRecord:
    return TrainRecord(**{f.name: _record_field(d, f.name) for f in fields(TrainRecord)})


@dataclass
class TrainLog:
    records: list[TrainRecord] = field(default_factory=list)

    def jsonl_lines(self) -> list[str]:
        return [json.dumps(vars(r), sort_keys=True) for r in self.records]

    def write(self, path: str | Path) -> None:
        write_lines(path, self.jsonl_lines())

    @classmethod
    def read(cls, path: str | Path) -> "TrainLog":
        """The records of a log ``write`` wrote.  Each line needs the eight
        ``TrainRecord`` fields; other keys are ignored, so that a log with
        fields added later still reads."""
        return cls(list(read_records(path, "train", _train_record_from_dict)))


RewardFn = Callable[[str, ItemHead | SynthQAItem], RewardBreakdown]

_NO_METRICS = (0.0,) * 5


class RewardTable:
    """Reward, format flag, abstention flag and eval metrics of every (item,
    action) pair of a dataset, computed once when the table is built.

    ``items`` are ``SynthQAItem``s, their heads (``ItemHead``), read once,
    in order, or their ``ItemColumns``, which is how a file reaches the
    table: ``synthenv.read_columns`` scans each line straight into the
    columns and builds no item.  The table keeps the columns as arrays,
    ``ids``, ``features`` (the feature row index), ``unanswerable`` and
    ``row``, each item's content row, plus ``first_cell``, ``row * 6``, the
    flat index of the row's first cell; a lookup is a gather.  Each content
    row is scored from the head of its first item, which the table keeps
    for ``expert_cells``: one ``Scorer`` parses each distinct text and
    measures each distinct (answer, answerable gold) once; the metrics are
    zero for a No-Answer gold.  ``rewards`` is ``reward.rule_rewards``
    under ``variant`` over the ``formatted``, ``abstained`` and ``metrics``
    columns, which ``with_variant`` reuses.  ``reward_fn`` overrides the
    rule, which is how the bandit sanity environments install their own
    payout tables; it is called once per (row, action) pair with the row's
    head, and under it items given as items, not columns, get a row each,
    since a payout may depend on the item.
    """

    def __init__(
        self,
        items: Iterable[ItemHead | SynthQAItem] | ItemColumns,
        variant: RewardVariant = DEFAULT_VARIANT,
        reward_fn: RewardFn | None = None,
    ) -> None:
        if not isinstance(items, ItemColumns):
            items = ItemColumns.of(map(ItemHead.of, items), share_rows=reward_fn is None)
        if not items.ids:
            raise ValueError("a reward table needs at least one item")
        self.ids = items.ids
        self.features = np.array(items.features)
        self.unanswerable = np.array(items.unanswerable)
        self.row = np.array(items.row)
        self.first_cell = self.row * N_ACTIONS
        self._row_heads = items.heads
        formatted = []
        abstained = []
        # em, rouge1, rouge2, rouge_l and semantic: AnswerMetrics' and Evaluation's order
        metrics = []
        rewards = []
        scorer = Scorer()
        for head in items.heads:
            for action in ALL_ACTIONS:
                text = render_completion(action, head)
                parsed = scorer.parse(text)
                formatted.append(parsed.format_ok)
                abstained.append(is_no_answer(parsed.answer))
                if reward_fn is not None:
                    rewards.append(reward_fn(text, head).total)
                metrics.append(
                    _NO_METRICS if head.gold.is_no_answer
                    else scorer.metrics(parsed.answer, head.gold)
                )
        shape = (len(items.heads), N_ACTIONS)
        self.formatted = np.array(formatted).reshape(shape)
        self.abstained = np.array(abstained).reshape(shape)
        self.metrics = np.array(metrics, dtype=float).reshape(shape + (5,))
        self.rewards = (
            np.array(rewards, dtype=float).reshape(shape) if reward_fn is not None
            else self._rule(variant, self.formatted)
        )

    def _rule(self, variant: RewardVariant, formatted: ArrayLike) -> np.ndarray:
        """``rule_rewards`` of every cell, with ``formatted`` as the format flags."""
        no_answer = np.empty(len(self.abstained), dtype=bool)
        no_answer[self.row] = self.unanswerable
        return rule_rewards(formatted, self.abstained, no_answer[:, None], self.metrics, variant)

    def with_variant(self, variant: RewardVariant) -> "RewardTable":
        """This table with the rule's rewards under ``variant`` (in place of
        a ``reward_fn``'s too): a shallow copy whose only new array is
        ``rewards``."""
        table = copy.copy(self)
        table.rewards = self._rule(variant, self.formatted)
        return table

    def __len__(self) -> int:
        """The number of items."""
        return len(self.ids)

    def expert_cells(self) -> np.ndarray:
        """``feature * 6 + action`` of every item whose content row has an
        expert action, in item order: the traces SFT fits.  A row's expert
        action is the oracle's (``policy.oracle_action``) where the rule's
        answer reward (no format reward) there under the default variant is
        at least 1.  Only SFT reads it, so it is decided here, not when the
        table is built."""
        oracle = np.array([oracle_action(item).index for item in self._row_heads])
        answer = self._rule(DEFAULT_VARIANT, False)[np.arange(len(oracle)), oracle]
        expert = np.where(answer >= 1.0, oracle, -1)[self.row]
        return (self.features * N_ACTIONS + expert)[expert >= 0]

    def lookup(self, items: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rewards and abstention flags at the (broadcast) index arrays."""
        cells = self.first_cell.take(items) + actions
        return self.rewards.take(cells), self.abstained.take(cells)


class RolloutBatch(NamedTuple):
    """B groups of G completions drawn under one old-policy snapshot.

    Group b answers item ``item_idx[b]`` of the reward table, whose feature
    row is ``rows[b]``; the per-completion arrays are B x G.  ``cells`` is
    each completion's flat index ``row * 6 + action`` into a 6 x 6 table,
    so a per-completion log-probability is one ``take``.  ``scatter`` is
    every cell the gradient adds to, in the order it adds: ``cells`` in
    batch order, then the six cells of each group's row.
    """

    item_idx: np.ndarray
    rows: np.ndarray
    unanswerable: np.ndarray
    actions: np.ndarray
    cells: np.ndarray
    scatter: np.ndarray
    logp_old: np.ndarray
    logp_ref: np.ndarray
    rewards: np.ndarray
    abstained: np.ndarray
    advantages: np.ndarray


def compute_advantages(
    rewards: Sequence[float] | np.ndarray, std_eps: float = 1e-8
) -> np.ndarray:
    """Group-standardized rewards along the last axis:
    (r - mean) / (population std + std_eps).

    A zero-variance group maps to all-zero advantages.  A group whose std
    underflows to 0 while its rewards differ (a subnormal spread) divides by
    a zero ``scale`` into +-inf or NaN, as the formula does, without a
    warning; ``train_rl``'s finiteness check rejects that.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ValueError("advantage normalization needs groups of >= 2 rewards")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _advantages(r, std_eps)


def _advantages(r: np.ndarray, std_eps: float) -> np.ndarray:
    """``compute_advantages`` of a float64 array, under the caller's
    ``errstate``."""
    # exactly zero variance (np.std of identical values can round to a
    # nonzero dust value, so compare the rewards instead): a group varies
    # where a reward differs from its first, as where its max and min differ
    varied = np.logical_or.reduce(r != r[..., :1], axis=-1, keepdims=True)
    # np.mean and np.std's own operations, with the centered values shared
    n = r.shape[-1]
    centered = r - np.add.reduce(r, axis=-1, keepdims=True) / n
    scale = np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / n) + std_eps
    return np.divide(centered, scale, out=np.zeros(r.shape), where=varied)


def importance_ratio(logp_new: ArrayLike, logp_old: ArrayLike) -> np.ndarray | float:
    return np.exp(np.subtract(logp_new, logp_old))


def clipped_term(
    ratio: ArrayLike, advantage: ArrayLike, clip_eps: float
) -> np.ndarray | float:
    if not 0.0 < clip_eps < 1.0:
        raise ValueError("clip_eps must lie in (0, 1)")
    clipped = np.minimum(np.maximum(ratio, 1.0 - clip_eps), 1.0 + clip_eps)
    return np.minimum(np.multiply(ratio, advantage), clipped * advantage)


def kl_k3(logp_theta: ArrayLike, logp_ref: ArrayLike) -> np.ndarray | float:
    """k3 estimator u - log(u) - 1 with u = pi_ref / pi_theta; always >= 0.

    Elementwise on arrays, as are ``importance_ratio`` and ``clipped_term``.
    """
    d = np.subtract(logp_ref, logp_theta)
    # expm1 keeps u - 1 accurate near u = 1; the true value is nonnegative,
    # so clamp away float dust.
    return np.maximum(0.0, np.expm1(d) - d)


# row f holds the flat indices f * 6 + a of feature row f's six cells
_ROW_CELLS = np.arange(N_FEATURES * N_ACTIONS).reshape(N_FEATURES, N_ACTIONS)


def rollout_batch(
    params_old: PolicyParams,
    params_ref: PolicyParams,
    table: RewardTable,
    cfg: GrpoConfig,
    rng: np.random.Generator,
) -> RolloutBatch:
    """Draw B items, then G completions of each under the old-policy snapshot.

    The generator is consumed as B one-group rollouts would consume it: the
    B item indices first, then the B * G uniforms in group order.  The
    advantages are computed under the caller's ``errstate`` (``train_rl``
    runs the loop under one): a subnormal reward spread at ``std_eps = 0``
    warns of its division by zero otherwise.
    """
    item_idx = rng.integers(0, len(table), size=cfg.batch_size)
    u = rng.random((cfg.batch_size, cfg.group_size))
    rows = table.features.take(item_idx)
    row_cells = _ROW_CELLS.take(rows, axis=0)
    actions = inverse_cdf(params_old.probs.take(row_cells), u)
    cells = row_cells[:, :1] + actions
    rewards, abstained = table.lookup(item_idx[:, None], actions)
    return RolloutBatch(
        item_idx=item_idx,
        rows=rows,
        unanswerable=table.unanswerable.take(item_idx),
        actions=actions,
        cells=cells,
        scatter=np.concatenate((cells, row_cells), axis=None),
        logp_old=params_old.log_probs.take(cells),
        logp_ref=params_ref.log_probs.take(cells),
        rewards=rewards,
        abstained=abstained,
        advantages=_advantages(rewards, cfg.std_eps),
    )


def _objective_and_kl(
    params: PolicyParams, batch: RolloutBatch, cfg: GrpoConfig
) -> tuple[float, float]:
    """``grpo_objective`` and the mean k3 KL of ``params`` on ``batch``,
    both from one KL array."""
    logp_new = params.log_probs.take(batch.cells)
    ratio = importance_ratio(logp_new, batch.logp_old)
    kl = kl_k3(logp_new, batch.logp_ref)
    terms = clipped_term(ratio, batch.advantages, cfg.clip_eps) - cfg.kl_beta * kl
    # np.add.reduce over every cell is what ndarray.sum runs, without its wrapper
    objective = float(np.add.reduce(terms, axis=None)) / terms.size
    return objective, float(np.add.reduce(kl, axis=None)) / kl.size


def grpo_objective(params: PolicyParams, batch: RolloutBatch, cfg: GrpoConfig) -> float:
    """Mean over groups of the per-group mean clipped surrogate minus beta * KL."""
    if batch.actions.shape[1] != cfg.group_size:
        raise ValueError("rollout group size does not match the configuration")
    return _objective_and_kl(params, batch, cfg)[0]


def grpo_gradient(params: PolicyParams, batch: RolloutBatch, cfg: GrpoConfig) -> np.ndarray:
    """Exact gradient of the objective with respect to the logits.

    The min/clip is handled by active-branch selection: a clipped term
    contributes no gradient through the ratio (ties go to the unclipped
    branch).
    """
    logp_new = params.log_probs.take(batch.cells)
    ratio = importance_ratio(logp_new, batch.logp_old)
    advantages = batch.advantages
    unclipped = ratio * advantages
    clipped = np.minimum(np.maximum(ratio, 1.0 - cfg.clip_eps), 1.0 + cfg.clip_eps) * advantages
    coeff = np.where(unclipped <= clipped, unclipped, 0.0)
    coeff += cfg.kl_beta * (np.exp(batch.logp_ref - logp_new) - 1.0)
    weight = (1.0 / coeff.size) * coeff
    # d logpi / d logits on a row is onehot(action) - softmax(row); each cell
    # sums its one-hot terms in batch order, then its softmax terms
    probs = params.probs.take(batch.rows, axis=0)
    softmax_terms = -np.add.reduce(weight, axis=1)[:, None] * probs
    grad = np.bincount(
        batch.scatter,
        np.concatenate((weight, softmax_terms), axis=None),
        minlength=N_FEATURES * N_ACTIONS,
    )
    return grad.reshape(N_FEATURES, N_ACTIONS)


def train_rl(
    params0: PolicyParams, table: RewardTable, cfg: GrpoConfig = GrpoConfig()
) -> tuple[PolicyParams, TrainLog]:
    """Run the full RL loop over the table's items; the reference policy is
    params0, frozen.

    Deterministic given (params0, the table's items and reward rule, cfg):
    the same seed reproduces an identical training log.
    """
    ref = params0
    params = params0
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    # overflow, inf - inf and a group std that underflows to 0 arise only
    # once a run diverges; the finiteness checks turn that into
    # GrpoDivergenceError instead of warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iteration in range(cfg.outer_iters):
            batch = rollout_batch(params, ref, table, cfg, rng)
            for _ in range(cfg.inner_steps):
                logits = params.logits + cfg.lr * grpo_gradient(params, batch, cfg)
                try:
                    params = PolicyParams(logits)
                except ValueError:  # PolicyParams holds only finite logits
                    raise GrpoDivergenceError(
                        f"logits became non-finite at iteration {iteration}"
                    ) from None
            objective, kl = _objective_and_kl(params, batch, cfg)
            if not math.isfinite(objective):
                raise GrpoDivergenceError(
                    f"objective became non-finite at iteration {iteration}"
                )
            rewards, abstained = batch.rewards, batch.abstained
            n_abstained = int(np.count_nonzero(abstained))
            tp = int(np.count_nonzero(abstained & batch.unanswerable[:, None]))
            n_unanswerable = int(np.count_nonzero(batch.unanswerable)) * abstained.shape[1]
            log.records.append(
                TrainRecord(
                    iteration=iteration,
                    mean_reward=float(np.add.reduce(rewards, axis=None)) / rewards.size,
                    abstain_rate=n_abstained / abstained.size,
                    kl=kl,
                    objective=objective,
                    tp=tp,
                    fp=n_abstained - tp,
                    fn=n_unanswerable - tp,
                )
            )
    return params, log


@dataclass(frozen=True, eq=False)
class Evaluation:
    """Greedy-decoding metrics of a reward table's items, one array entry
    per item.  Every field is gathered at ``cell``, the flat index ``row * 6
    + greedy action`` into the table's per-row arrays.  Lexical/semantic
    scores are zero for unanswerable items, where only the abstention
    buckets (``tp``, ``fp``, ``fn``: 0 or 1) are meaningful; ``em`` treats
    a correct abstention as a match."""

    cell: np.ndarray
    reward: np.ndarray
    abstained: np.ndarray
    em: np.ndarray
    rouge1: np.ndarray
    rouge2: np.ndarray
    rouge_l: np.ndarray
    semantic: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    n_items: int
    mean_reward: float
    em_rate: float
    abstain_rate: float
    confusion: ConfusionCounts
    rouge1: float
    rouge2: float
    rouge_l: float
    semantic: float


def evaluate_items(params: PolicyParams, table: RewardTable) -> Evaluation:
    """Greedy (argmax) evaluation of every item of the table, gathered from
    the table's rewards, abstention flags and metrics at each item's cell."""
    cell = table.first_cell + np.argmax(params.logits, axis=1)[table.features]
    abstained, unanswerable = table.abstained.take(cell), table.unanswerable
    em, *scores = (table.metrics[..., k].take(cell) for k in range(5))
    # on an unanswerable item a correct abstention is the exact match
    em = np.where(unanswerable, abstained, em)
    tp, fp, fn = abstained & unanswerable, abstained & ~unanswerable, ~abstained & unanswerable
    return Evaluation(
        cell, table.rewards.take(cell), abstained, em, *scores, *np.array([tp, fp, fn], dtype=int)
    )


def summarize_items(ev: Evaluation) -> EvalReport:
    """Aggregate per-item evaluations; ROUGE/semantic means cover the answerable subset."""
    answerable = (ev.tp == 0) & (ev.fn == 0)

    def _mean(values: np.ndarray) -> float:
        # Python's sum in item order: NumPy's pairwise sum rounds otherwise
        return sum(values.tolist()) / len(values) if len(values) else 0.0

    return EvalReport(
        n_items=len(ev.cell),
        mean_reward=_mean(ev.reward),
        em_rate=_mean(ev.em),
        abstain_rate=_mean(ev.abstained),
        confusion=ConfusionCounts(*(int(np.count_nonzero(c)) for c in (ev.tp, ev.fp, ev.fn))),
        rouge1=_mean(ev.rouge1[answerable]),
        rouge2=_mean(ev.rouge2[answerable]),
        rouge_l=_mean(ev.rouge_l[answerable]),
        semantic=_mean(ev.semantic[answerable]),
    )


def evaluate_policy(params: PolicyParams, table: RewardTable) -> EvalReport:
    """Aggregate greedy-decoding report of every item of the table."""
    return summarize_items(evaluate_items(params, table))
