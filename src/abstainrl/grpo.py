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
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.typing import ArrayLike

from abstainrl.policy import (
    ALL_ACTIONS,
    N_ACTIONS,
    N_FEATURES,
    DivergenceError,
    PolicyParams,
    inverse_cdf,
    render_completion,
)
from abstainrl.reward import (
    DEFAULT_VARIANT,
    RewardBreakdown,
    RewardVariant,
    Scorer,
    is_no_answer,
    parse_completion,  # noqa: F401  re-exported: e2ebench's tracer tests wrap it here
    total_reward,  # noqa: F401  re-exported: e2ebench's tracer tests wrap it here
)
from abstainrl.synthenv import SynthQAItem, read_records, write_lines
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


RewardFn = Callable[[str, SynthQAItem], RewardBreakdown]


class RewardTable:
    """Reward, abstention flag and eval metrics of every (item, action) pair
    of a dataset, computed once when the table is built.

    An item's six completions depend only on its two candidates, and the
    rule-based QA reward under ``variant`` only on the completion and the
    gold, so items with the same (candidate_a, candidate_b, gold) share a
    content row; ``row`` maps each item to its row, and a lookup is a
    gather.  ``reward_fn`` overrides the rule, which is how the bandit
    sanity environments install their own payout tables; it is called once
    per (item, action) pair, and every item gets its own row, since a
    payout may depend on the item.  Each distinct text is parsed and each
    distinct (answer, answerable gold) measured once, and the rule reads its
    reward from those eval metrics; they are zero for a No-Answer gold.
    """

    def __init__(
        self,
        items: Sequence[SynthQAItem],
        variant: RewardVariant = DEFAULT_VARIANT,
        reward_fn: RewardFn | None = None,
    ) -> None:
        if not items:
            raise ValueError("a reward table needs at least one item")
        self.items = items
        self.features = np.array([item.feature.index for item in items])
        self.unanswerable = np.array([item.gold.is_no_answer for item in items])
        if reward_fn is None:
            index: dict[tuple, int] = {}
            keys = ((item.candidate_a, item.candidate_b, item.gold) for item in items)
            self.row = np.array([index.setdefault(key, len(index)) for key in keys])
            # rows are numbered in first-seen order; each is built from its first item
            rows = [items[j] for j in np.unique(self.row, return_index=True)[1].tolist()]
        else:
            self.row = np.arange(len(items))
            rows = items
        shape = (len(rows), N_ACTIONS)
        self.rewards = np.empty(shape)
        self.abstained = np.empty(shape, dtype=bool)
        # em, rouge1, rouge2, rouge_l and semantic, in ItemEval's order
        self.metrics = np.zeros(shape + (5,))
        scorer = Scorer(variant)
        for r, item in enumerate(rows):
            for a, action in enumerate(ALL_ACTIONS):
                text = render_completion(action, item)
                answer = scorer.parse(text).answer
                if reward_fn is None:
                    breakdown, abstains = scorer.score(text, item.gold)
                else:
                    breakdown, abstains = reward_fn(text, item), is_no_answer(answer)
                self.rewards[r, a] = breakdown.total
                self.abstained[r, a] = abstains
                if not item.gold.is_no_answer:
                    m = scorer.metrics(answer, item.gold)
                    self.metrics[r, a] = (m.em, m.rouge1, m.rouge2, m.rouge_l, m.semantic)

    def lookup(self, items: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rewards and abstention flags at the (broadcast) index arrays."""
        cells = self.row[items] * N_ACTIONS + actions
        return self.rewards.take(cells), self.abstained.take(cells)


@dataclass(frozen=True)
class RolloutBatch:
    """B groups of G completions drawn under one old-policy snapshot.

    Group b answers item ``item_idx[b]`` of the reward table, whose feature
    row is ``rows[b]``; the per-completion arrays are B x G.  ``cells`` is
    each completion's flat index ``row * 6 + action`` into a 6 x 6 table,
    so a per-completion log-probability is one ``take``.
    """

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


def compute_advantages(
    rewards: Sequence[float] | np.ndarray, std_eps: float = 1e-8
) -> np.ndarray:
    """Group-standardized rewards along the last axis:
    (r - mean) / (population std + std_eps).

    A zero-variance group maps to all-zero advantages.  A group whose std
    underflows to 0 while its rewards differ (a subnormal spread) divides by
    a zero ``scale`` into +-inf or NaN, as the formula does; ``train_rl``'s
    finiteness check rejects that.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ValueError("advantage normalization needs groups of >= 2 rewards")
    # exactly zero variance (np.std of identical values can round to a
    # nonzero dust value, so compare the extremes instead)
    flat = r.max(axis=-1, keepdims=True) == r.min(axis=-1, keepdims=True)
    # np.mean and np.std's own operations, with the centered values shared
    n = r.shape[-1]
    centered = r - np.add.reduce(r, axis=-1, keepdims=True) / n
    scale = np.sqrt(np.add.reduce(np.square(centered), axis=-1, keepdims=True) / n) + std_eps
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(centered, scale, out=np.zeros(r.shape), where=~flat)


def importance_ratio(logp_new: ArrayLike, logp_old: ArrayLike) -> np.ndarray | float:
    return np.exp(np.subtract(logp_new, logp_old))


def clipped_term(
    ratio: ArrayLike, advantage: ArrayLike, clip_eps: float
) -> np.ndarray | float:
    if not 0.0 < clip_eps < 1.0:
        raise ValueError("clip_eps must lie in (0, 1)")
    clipped = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)
    return np.minimum(np.multiply(ratio, advantage), clipped * advantage)


def kl_k3(logp_theta: ArrayLike, logp_ref: ArrayLike) -> np.ndarray | float:
    """k3 estimator u - log(u) - 1 with u = pi_ref / pi_theta; always >= 0.

    Elementwise on arrays, as are ``importance_ratio`` and ``clipped_term``.
    """
    d = np.subtract(logp_ref, logp_theta)
    # expm1 keeps u - 1 accurate near u = 1; the true value is nonnegative,
    # so clamp away float dust.
    return np.maximum(0.0, np.expm1(d) - d)


def rollout_batch(
    params_old: PolicyParams,
    params_ref: PolicyParams,
    table: RewardTable,
    cfg: GrpoConfig,
    rng: np.random.Generator,
) -> RolloutBatch:
    """Draw B items, then G completions of each under the old-policy snapshot.

    The generator is consumed as B one-group rollouts would consume it: the
    B item indices first, then the B * G uniforms in group order.
    """
    item_idx = rng.integers(0, len(table.items), size=cfg.batch_size)
    u = rng.random((cfg.batch_size, cfg.group_size))
    rows = table.features[item_idx]
    actions = inverse_cdf(np.exp(params_old.log_probs)[rows], u)
    cells = rows[:, None] * N_ACTIONS + actions
    rewards, abstained = table.lookup(item_idx[:, None], actions)
    return RolloutBatch(
        item_idx=item_idx,
        rows=rows,
        unanswerable=table.unanswerable[item_idx],
        actions=actions,
        cells=cells,
        logp_old=params_old.log_probs.take(cells),
        logp_ref=params_ref.log_probs.take(cells),
        rewards=rewards,
        abstained=abstained,
        advantages=compute_advantages(rewards, cfg.std_eps),
    )


def grpo_objective(params: PolicyParams, batch: RolloutBatch, cfg: GrpoConfig) -> float:
    """Mean over groups of the per-group mean clipped surrogate minus beta * KL."""
    if batch.actions.shape[1] != cfg.group_size:
        raise ValueError("rollout group size does not match the configuration")
    logp_new = params.log_probs.take(batch.cells)
    surrogate = clipped_term(
        importance_ratio(logp_new, batch.logp_old), batch.advantages, cfg.clip_eps
    )
    terms = surrogate - cfg.kl_beta * kl_k3(logp_new, batch.logp_ref)
    return float(terms.sum()) / terms.size


def grpo_gradient(params: PolicyParams, batch: RolloutBatch, cfg: GrpoConfig) -> np.ndarray:
    """Exact gradient of the objective with respect to the logits.

    The min/clip is handled by active-branch selection: a clipped term
    contributes no gradient through the ratio (ties go to the unclipped
    branch).
    """
    logp_new = params.log_probs.take(batch.cells)
    ratio = importance_ratio(logp_new, batch.logp_old)
    unclipped = ratio * batch.advantages
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * batch.advantages
    coeff = np.where(unclipped <= clipped, unclipped, 0.0)
    coeff += cfg.kl_beta * (np.exp(batch.logp_ref - logp_new) - 1.0)
    weight = (1.0 / coeff.size) * coeff
    # d logpi / d logits on a row is onehot(action) - softmax(row); each cell
    # sums its one-hot terms in batch order, then its softmax terms
    softmax_cells = batch.rows[:, None] * N_ACTIONS + np.arange(N_ACTIONS)
    softmax_terms = -weight.sum(axis=1)[:, None] * np.exp(params.log_probs)[batch.rows]
    grad = np.bincount(
        np.concatenate((batch.cells.ravel(), softmax_cells.ravel())),
        np.concatenate((weight.ravel(), softmax_terms.ravel())),
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
    # overflow and inf - inf arise only once a run diverges; the finiteness
    # checks turn that into GrpoDivergenceError instead of warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(cfg.outer_iters):
            batch = rollout_batch(params, ref, table, cfg, rng)
            for _ in range(cfg.inner_steps):
                logits = params.logits + cfg.lr * grpo_gradient(params, batch, cfg)
                if not np.isfinite(logits).all():
                    raise GrpoDivergenceError(
                        f"logits became non-finite at iteration {iteration}"
                    )
                params = PolicyParams(logits)
            objective = grpo_objective(params, batch, cfg)
            if not math.isfinite(objective):
                raise GrpoDivergenceError(
                    f"objective became non-finite at iteration {iteration}"
                )
            kl = kl_k3(params.log_probs.take(batch.cells), batch.logp_ref)
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
    return params, log


@dataclass(frozen=True)
class ItemEval:
    """Greedy-decoding metrics for one item.

    Lexical/semantic scores are against the gold aliases and are zero for
    unanswerable items, where only the abstention buckets are meaningful;
    ``em`` treats a correct abstention as a match.  The values depend only
    on the item's content row and greedy action, so items that share both
    share one object, which therefore names no item.
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


def evaluate_items(params: PolicyParams, table: RewardTable) -> list[ItemEval]:
    """Greedy (argmax) evaluation of every item of the table, in item
    order, gathered from the table's rewards, abstention flags and metrics.
    Items with the same content row and greedy action get the same
    ``ItemEval`` object."""
    actions = np.argmax(params.logits, axis=1)[table.features]
    # items of one content row with the same greedy action share every value
    _, first, cell = np.unique(
        table.row * N_ACTIONS + actions, return_index=True, return_inverse=True
    )
    rows, actions = table.row[first], actions[first]
    abstained, unanswerable = table.abstained[rows, actions], table.unanswerable[first]
    metrics = table.metrics[rows, actions]
    # on an unanswerable item a correct abstention is the exact match
    metrics[:, 0] = np.where(unanswerable, abstained, metrics[:, 0])
    tp, fp, fn = abstained & unanswerable, abstained & ~unanswerable, ~abstained & unanswerable
    evals = [
        ItemEval(*values)
        for values in zip(
            table.rewards[rows, actions].tolist(), abstained.tolist(), *metrics.T.tolist(),
            *np.array([tp, fp, fn], dtype=int).tolist(),
        )
    ]
    return [evals[c] for c in cell.tolist()]


def summarize_items(evals: Sequence[ItemEval]) -> EvalReport:
    """Aggregate per-item evaluations; ROUGE/semantic means cover the
    answerable subset."""
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


def evaluate_policy(params: PolicyParams, table: RewardTable) -> EvalReport:
    """Aggregate greedy-decoding report of every item of the table."""
    return summarize_items(evaluate_items(params, table))
