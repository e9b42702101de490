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
import functools
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.typing import ArrayLike

from abstainrl import policy
from abstainrl.policy import (
    ALL_ACTIONS,
    N_ACTIONS,
    N_FEATURES,
    ActionId,
    Choice,
    DivergenceError,
    PolicyParams,
    cdf_bounds,
    draw_at_bounds,
)
from abstainrl.reward import (
    DEFAULT_VARIANT,
    RewardVariant,
    answer_metrics,
    completion_text,
    is_no_answer,
    parse_completion,
    rule_rewards,
    total_reward,  # noqa: F401  re-exported: e2ebench's tracer tests wrap it here
)
from abstainrl.synthenv import ItemColumns, read_records, write_lines
from abstainrl.textmetrics import ConfusionCounts, GoldAnswer, TextParts, exact_match


class GrpoDivergenceError(DivergenceError):
    """Raised when the RL logits or the objective stop being finite."""


@dataclass(frozen=True)
class GrpoConfig:
    iters: int = 200
    group_size: int = 4
    clip_eps: float = 0.2
    beta: float = 0.01
    lr: float = 1e-2
    inner_steps: int = 1
    std_eps: float = 1e-8
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("clip_eps", "beta", "lr", "std_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must lie in (0, 1)")
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")
        if self.lr < 0.0:
            raise ValueError("lr must be >= 0")
        if self.iters < 0:
            raise ValueError("iters must be >= 0")
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


# written as vars(record): that holds exactly the fields only while there is
# no cached_property.  Not frozen: train_rl makes one per iteration, and a
# frozen dataclass sets each field through object.__setattr__, which takes
# about five times as long.
@dataclass
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
        """Each record as ``json.dumps(vars(record), sort_keys=True)``."""
        return [json.dumps(vars(r), sort_keys=True) for r in self.records]

    def write(self, path: str | Path) -> None:
        write_lines(path, self.jsonl_lines())

    @classmethod
    def read(cls, path: str | Path) -> "TrainLog":
        """The records of a log ``write`` wrote.  Each line needs the eight
        ``TrainRecord`` fields; other keys are ignored, so that a log with
        fields added later still reads."""
        return cls(list(read_records(path, "train", _train_record_from_dict)))


# per action: its choice's column in a row's candidates (A, B, then the
# abstention) and whether it is bare, which together pick its text
_ACTION_CHOICE = np.array([list(Choice).index(action.choice) for action in ALL_ACTIONS])
_ACTION_BARE = np.array([not action.formatted for action in ALL_ACTIONS])
# the oracle's actions: each choice, formatted
_ANSWER_A, _ANSWER_B, _ABSTAIN = (ActionId(choice, formatted=True).index for choice in Choice)


class RewardTable:
    """Reward, format flag, abstention flag and eval metrics of every (item,
    action) pair of a dataset, computed once when the table is built.

    The table takes a dataset's ``ItemColumns``, which
    ``synthenv.read_columns`` fills from a file line by line.  It keeps the
    columns as arrays, ``ids``, ``features`` (the feature row index) and
    ``row``, each item's content row, plus ``unanswerable``, whether the
    item's row's gold is No-Answer, and ``first_cell``, ``row * 6``, the
    flat index of the row's first cell; a lookup is a gather.

    A cell's completion is the formatted or the bare text of one of its
    row's two candidates or of the abstention, so the table is scored from
    the distinct texts: ``parse_completion`` parses the two completions of
    each distinct candidate and of the abstention once, and
    ``answer_metrics`` measures each distinct (answer, answerable gold)
    once, taking each distinct text apart once (``textmetrics.TextParts``,
    kept only while the table is built); the metrics are zero for a
    No-Answer gold.  The per-cell ``formatted``, ``abstained`` and
    ``metrics`` columns are gathers from those.  ``rewards`` holds the one
    reward rule's values, ``reward.rule_rewards`` under ``variant`` over
    those columns, which ``with_variant`` reuses to rescore under another
    variant.
    """

    def __init__(self, columns: ItemColumns, variant: RewardVariant = DEFAULT_VARIANT) -> None:
        if not columns.ids:
            raise ValueError("a reward table needs at least one item")
        self.ids = columns.ids
        self.features = np.array(columns.features)
        self.row = np.array(columns.row)
        self.first_cell = self.row * N_ACTIONS
        # each row's candidates (A, B, the abstention) and gold as indexes
        # into the distinct ones; candidate 0 is the abstention, and golds are
        # keyed by their aliases
        candidates: dict[str | None, int] = {None: 0}
        gold_index: dict[tuple[str, ...], int] = {}
        self._golds: list[GoldAnswer] = []
        row_candidates = []
        row_gold = []
        for _, _, gold, candidate_a, candidate_b in columns.heads:
            row_candidates.append((
                candidates.setdefault(candidate_a, len(candidates)),
                candidates.setdefault(candidate_b, len(candidates)),
                0,
            ))
            g = gold_index.setdefault(gold.aliases, len(self._golds))
            if g == len(self._golds):
                self._golds.append(gold)
            row_gold.append(g)
        self._candidates = list(candidates)
        self._row_candidates = np.array(row_candidates)
        self._row_gold = np.array(row_gold)
        self._no_answer = np.array([gold.is_no_answer for gold in self._golds])[self._row_gold]
        self.unanswerable = self._no_answer[self.row]
        # text 2k is candidate k's formatted completion, 2k + 1 its bare one
        texts = [completion_text(c, formatted) for c in candidates for formatted in (True, False)]
        cell_text = 2 * self._row_candidates[:, _ACTION_CHOICE] + _ACTION_BARE
        parsed = [parse_completion(text) for text in texts]
        answers: dict[str, int] = {}
        text_answer = np.array([answers.setdefault(p.answer, len(answers)) for p in parsed])
        cell_answer = text_answer[cell_text]
        self.formatted = np.array([p.format_ok for p in parsed])[cell_text]
        self.abstained = np.array([is_no_answer(answer) for answer in answers])[cell_answer]
        # em, rouge1, rouge2, rouge_l and semantic: AnswerMetrics' and
        # Evaluation's order; measured once per distinct (answer, gold)
        pairs, where = self._answerable_pairs(cell_answer)
        answer_texts = list(answers)
        parts = functools.cache(TextParts)
        measured = [answer_metrics(answer_texts[a], gold, parts) for a, gold in pairs]
        self.metrics = np.zeros(cell_text.shape + (5,))
        self.metrics[~self._no_answer] = np.array(measured, dtype=float).reshape(-1, 5)[where]
        self.rewards = self._rule(variant, self.formatted)

    def _answerable_pairs(self, x: np.ndarray) -> tuple[list[tuple[int, GoldAnswer]], np.ndarray]:
        """The distinct (x, gold) pairs of the rows whose gold is
        answerable, ``x`` holding k ints per row, and each such row's k
        pairs as indexes into them."""
        n_golds = len(self._golds)
        codes, where = np.unique(
            (x * n_golds + self._row_gold[:, None])[~self._no_answer], return_inverse=True
        )
        pairs = [(code // n_golds, self._golds[code % n_golds]) for code in codes.tolist()]
        return pairs, where.reshape(-1, x.shape[1])

    def _rule(self, variant: RewardVariant, formatted: ArrayLike) -> np.ndarray:
        """``rule_rewards`` of every cell, with ``formatted`` as the format flags."""
        return rule_rewards(
            formatted, self.abstained, self._no_answer[:, None], self.metrics, variant
        )

    def with_variant(self, variant: RewardVariant) -> "RewardTable":
        """This table with the rule's rewards under ``variant``: a shallow
        copy whose only new array is ``rewards``."""
        table = copy.copy(self)
        table.rewards = self._rule(variant, self.formatted)
        return table

    def __len__(self) -> int:
        """The number of items."""
        return len(self.ids)

    def oracle_actions(self) -> np.ndarray:
        """The oracle's action of each content row: the formatted candidate
        A if it exactly matches an answerable gold, else B if it does, else
        the formatted abstention.
        ``exact_match`` runs once per distinct (candidate, answerable gold)."""
        pairs, where = self._answerable_pairs(self._row_candidates[:, :2])
        matched = np.array(
            [exact_match(self._candidates[c], gold) == 1.0 for c, gold in pairs], dtype=bool
        )[where]
        answerable = ~self._no_answer
        oracle = np.full(len(answerable), _ABSTAIN)
        oracle[answerable] = np.where(
            matched[:, 0], _ANSWER_A, np.where(matched[:, 1], _ANSWER_B, _ABSTAIN)
        )
        return oracle

    def expert_cells(self) -> np.ndarray:
        """``feature * 6 + action`` of every item whose content row has an
        expert action, in item order: the traces SFT fits.  A row's expert
        action is its oracle action where the rule's answer reward (no
        format reward) there under the default variant is at least 1.  Only
        SFT reads it, so it is decided here, not when the table is built."""
        oracle = self.oracle_actions()
        answer = self._rule(DEFAULT_VARIANT, False)[np.arange(len(oracle)), oracle]
        expert = np.where(answer >= 1.0, oracle, -1)[self.row]
        return (self.features * N_ACTIONS + expert)[expert >= 0]


def _advantages(r: np.ndarray, std_eps: float) -> np.ndarray:
    """Group-standardized float64 rewards along the last axis:
    (r - mean) / (population std + std_eps), under the caller's
    ``errstate``.

    A zero-variance group maps to all-zero advantages.  A group whose std
    underflows to 0 while its rewards differ (a subnormal spread) divides by
    a zero ``scale`` into +-inf or NaN, as the formula does;
    ``train_rl``'s finiteness check rejects that.
    """
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


_N_CELLS = N_FEATURES * N_ACTIONS


class _Rollouts:
    """The rollouts of ``iters`` consecutive iterations.  Their draws, each
    iteration's ``rng.integers(0, n, size=B)`` then ``rng.random((B, G))``,
    and what they gather from the table are made at once: each iteration's
    items' ``rows`` and ``unanswerable`` flags, and its ``scatter`` cells,
    every cell the gradient adds to in the order it adds: the B * G
    completions' ``cells`` in batch order, then each group's row's six
    cells.  ``step`` draws an iteration's actions, the one part of a
    rollout that depends on the policy, and fills in its ``cells`` and
    ``table_cells``, the completions' flat indexes into the table's per-row
    arrays."""

    __slots__ = (
        "rows", "unanswerable", "item_idx", "scatter", "cells", "table_cells", "_uniforms",
        "_row_cells", "_first_cells", "_first_table_cells", "_rewards", "_std_eps",
    )

    def __init__(
        self, table: RewardTable, cfg: GrpoConfig, rng: np.random.Generator, iters: int
    ) -> None:
        size = cfg.batch_size * cfg.group_size
        shape = (iters, cfg.batch_size, cfg.group_size)
        self.item_idx = np.empty((iters, cfg.batch_size), dtype=np.int64)
        self._uniforms = np.empty(shape)
        for t in range(iters):
            self.item_idx[t] = rng.integers(0, len(table), size=cfg.batch_size)
            self._uniforms[t] = rng.random((cfg.batch_size, cfg.group_size))
        self.rows = table.features.take(self.item_idx)
        self.unanswerable = table.unanswerable.take(self.item_idx)
        self.scatter = np.empty((iters, size + cfg.batch_size * N_ACTIONS), dtype=np.intp)
        self.cells = self.scatter[:, :size].reshape(shape)
        # the flat indices row * 6 + a of each group's row's six cells
        self._row_cells = self.scatter[:, size:].reshape(iters, cfg.batch_size, N_ACTIONS)
        np.add(self.rows[..., None] * N_ACTIONS, np.arange(N_ACTIONS), out=self._row_cells)
        self.table_cells = np.empty(shape, dtype=np.intp)
        # each group's first cell, in a 6 x 6 table and in the reward table
        self._first_cells = self._row_cells[..., :1]
        self._first_table_cells = table.first_cell.take(self.item_idx)[..., None]
        self._rewards = table.rewards
        self._std_eps = cfg.std_eps

    def step(self, t: int, probs: np.ndarray) -> tuple[np.ndarray, ...]:
        """Iteration ``t``'s actions (``policy.draw_at_bounds`` of the
        ``cdf_bounds`` of the snapshot ``probs``), their cells, rewards and
        advantages.  The advantages are computed under the caller's
        ``errstate``."""
        bounds = cdf_bounds(probs).take(self._row_cells[t])
        actions = draw_at_bounds(bounds, self._uniforms[t])
        cells = np.add(self._first_cells[t], actions, out=self.cells[t])
        rewards = self._rewards.take(
            np.add(self._first_table_cells[t], actions, out=self.table_cells[t])
        )
        return actions, cells, rewards, _advantages(rewards, self._std_eps)


def _objectives_and_kl(
    logp_new: np.ndarray,
    logp_old: np.ndarray,
    logp_ref: np.ndarray,
    advantages: np.ndarray,
    cfg: GrpoConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Per iteration, along the first axis: the mean over its completions
    of the clipped surrogate minus beta * KL, and of the k3 KL.  Each
    iteration's mean adds along one row, in the order a reduction over its
    array alone adds."""
    kl = kl_k3(logp_new, logp_ref)
    terms = clipped_term(importance_ratio(logp_new, logp_old), advantages, cfg.clip_eps)
    terms -= cfg.beta * kl
    n = len(terms)
    size = terms.size // n
    return (
        np.add.reduce(terms.reshape(n, -1), axis=1) / size,
        np.add.reduce(kl.reshape(n, -1), axis=1) / size,
    )


def _clipped_coeff(
    ratio: np.ndarray | float, advantages: np.ndarray, kl_coeff: np.ndarray, cfg: GrpoConfig
) -> np.ndarray:
    """Each completion's derivative of its objective term with respect to
    its log-probability, at its importance ``ratio`` (1.0 at the snapshot):
    the clipped surrogate's, 0 where the clip binds or the advantage is
    NaN, plus ``kl_coeff``, the k3 penalty's, ``beta * (pi_ref / pi - 1)``."""
    unclipped = ratio * advantages
    clipped = np.minimum(np.maximum(ratio, 1.0 - cfg.clip_eps), 1.0 + cfg.clip_eps) * advantages
    coeff = np.where(unclipped <= clipped, unclipped, 0.0)
    coeff += kl_coeff
    return coeff


def _gradient(
    coeff: np.ndarray, probs: np.ndarray, rows: np.ndarray, scatter: np.ndarray
) -> np.ndarray:
    """The gradient with respect to the logits of the objective whose
    derivatives with respect to the B x G completions' log-probabilities
    are ``coeff``, at the probabilities ``probs``.  ``rows`` are the
    groups' feature rows and ``scatter`` the cells the gradient adds to
    (``_Rollouts.scatter``).  A clipped term contributes no gradient
    through its ratio (``_clipped_coeff``: ties go to the unclipped
    branch)."""
    weight = (1.0 / coeff.size) * coeff
    # d logpi / d logits on a row is onehot(action) - softmax(row); each cell
    # sums its one-hot terms in batch order, then its softmax terms
    softmax_terms = -np.add.reduce(weight, axis=1)[:, None] * probs.take(rows, axis=0)
    grad = np.bincount(
        scatter, np.concatenate((weight, softmax_terms), axis=None), minlength=_N_CELLS
    )
    return grad.reshape(N_FEATURES, N_ACTIONS)


# the most completions train_rl draws, gathers and keeps the statistics of
# before it reduces them into a block of records: a block's arrays, and the
# block reduction's temporaries, grow with it
_LOG_BLOCK_CELLS = 1 << 11


def train_rl(
    params0: PolicyParams, table: RewardTable, cfg: GrpoConfig = GrpoConfig()
) -> tuple[PolicyParams, TrainLog]:
    """Run the full RL loop over the table's items; the reference policy is
    params0, frozen.

    The loop runs in blocks of iterations of at most ``_LOG_BLOCK_CELLS``
    completions (at least one iteration).  A block's draws and gathers are
    made at once (``_Rollouts``); each iteration then draws its actions
    from the ``policy.cdf_bounds`` of its snapshot and steps on arrays:
    each update's logits, their log-softmax (one call of
    ``policy.log_softmax``) and its ``exp``.  Every inner step takes its
    coefficients from ``_clipped_coeff``, at ratio 1.0 for the first, which
    is taken at the snapshot, and with the KL derivatives gathered from the
    6 x 6 table of them.  Each iteration's objective and KL are reduced once
    per block from the stacked snapshots (an iteration's post-update
    log-probs are the next one's snapshot), then the block's log records.

    Deterministic given (params0, the table's items and reward rule, cfg):
    the same seed reproduces an identical training log.
    """
    state = params0.logits, params0.log_probs, params0.probs
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    block = max(1, _LOG_BLOCK_CELLS // (cfg.batch_size * cfg.group_size))
    # overflow, inf - inf and a group std that underflows to 0 arise only
    # once a run diverges; the finiteness checks turn that into
    # GrpoDivergenceError instead of warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for first in range(0, cfg.iters, block):
            # a block's arrays live only while it runs
            rollouts = _Rollouts(table, cfg, rng, min(block, cfg.iters - first))
            state = _train_block(first, rollouts, state, params0.log_probs, table, cfg, log)
            del rollouts
    return (PolicyParams(state[0]) if cfg.iters else params0), log


def _train_block(
    first: int,
    rollouts: _Rollouts,
    state: tuple[np.ndarray, np.ndarray, np.ndarray],
    ref_log_probs: np.ndarray,
    table: RewardTable,
    cfg: GrpoConfig,
    log: TrainLog,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the block ``rollouts`` of ``train_rl``'s iterations, from
    iteration ``first`` on, and append their records to ``log``.
    ``state`` is the logits, log-probs and probs the block starts from;
    returns them as its last update left them."""
    logits, log_probs, probs = state
    lr, beta = cfg.lr, cfg.beta
    snapshots, rewards, advantages = [log_probs], [], []
    for t, (rows, scatter) in enumerate(zip(rollouts.rows, rollouts.scatter)):
        _, cells, r, adv = rollouts.step(t, probs)
        rewards.append(r)
        advantages.append(adv)
        logp_old = log_probs.take(cells)
        for step in range(cfg.inner_steps):
            # at the snapshot every ratio is exp(0) == 1
            ratio = importance_ratio(log_probs.take(cells), logp_old) if step else 1.0
            kl_coeff = beta * (np.exp(ref_log_probs - log_probs) - 1.0)
            coeff = _clipped_coeff(ratio, adv, kl_coeff.take(cells), cfg)
            logits = logits + lr * _gradient(coeff, probs, rows, scatter)
            if not np.isfinite(logits).all():
                # the block's earlier objectives were checked first
                _block_objectives(first, snapshots, rollouts, advantages[:t], ref_log_probs, cfg)
                raise GrpoDivergenceError(f"logits became non-finite at iteration {first + t}")
            # looked up on the module at each call, as PolicyParams.log_probs
            # looks it up
            log_probs = policy.log_softmax(logits)
            probs = np.exp(log_probs)
        snapshots.append(log_probs)
    objectives, kl = _block_objectives(first, snapshots, rollouts, advantages, ref_log_probs, cfg)
    log.records += _records(
        first, objectives, kl, _stacked(rewards), table.abstained.take(rollouts.table_cells),
        rollouts.unanswerable,
    )
    return logits, log_probs, probs


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.stack(arrays)`` of equally shaped arrays, by one concatenation."""
    return np.concatenate(arrays).reshape(len(arrays), *arrays[0].shape)


def _block_objectives(
    first: int,
    snapshots: list[np.ndarray],
    rollouts: _Rollouts,
    advantages: list[np.ndarray],
    ref_log_probs: np.ndarray,
    cfg: GrpoConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """The objectives and mean KLs of a block's first ``len(advantages)``
    iterations, from iteration ``first`` on: iteration t's snapshot is
    ``snapshots[t]`` and its post-update log-probs ``snapshots[t + 1]``.
    Raises ``GrpoDivergenceError`` at the first objective that is not
    finite."""
    n = len(advantages)
    if not n:
        return np.empty(0), np.empty(0)
    cells = rollouts.cells[:n]
    steps = _stacked(snapshots[: n + 1]).reshape(-1)
    at = cells + (_N_CELLS * np.arange(n))[:, None, None]
    logp_old = steps.take(at)
    at += _N_CELLS
    objectives, kl = _objectives_and_kl(
        steps.take(at), logp_old, ref_log_probs.take(cells), _stacked(advantages), cfg
    )
    finite = np.isfinite(objectives)
    if not finite.all():
        raise GrpoDivergenceError(
            f"objective became non-finite at iteration {first + int(finite.argmin())}"
        )
    return objectives, kl


def _records(
    first: int,
    objectives: np.ndarray,
    kl: np.ndarray,
    rewards: np.ndarray,
    abstained: np.ndarray,
    unanswerable: np.ndarray,
) -> list[TrainRecord]:
    """The log records of consecutive iterations from iteration ``first``:
    their objectives and mean KLs, their n x B x G rewards and abstention
    flags, and their n x B unanswerable flags."""
    n, _, group = abstained.shape
    # each iteration's B x G array as one row: a reduction along a row adds
    # in the order a reduction over the iteration's array alone does
    rewards, abstained = rewards.reshape(n, -1), abstained.reshape(n, -1)
    size = rewards.shape[1]
    n_abstained = np.count_nonzero(abstained, axis=1)
    tp = np.count_nonzero(abstained & unanswerable.repeat(group, axis=1), axis=1)
    n_unanswerable = np.count_nonzero(unanswerable, axis=1) * group
    return list(map(
        TrainRecord,
        range(first, first + n),
        (np.add.reduce(rewards, axis=1) / size).tolist(),
        (n_abstained / size).tolist(),
        kl.tolist(),
        objectives.tolist(),
        tp.tolist(),
        (n_abstained - tp).tolist(),
        (n_unanswerable - tp).tolist(),
    ))


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
