"""Tabular contextual-softmax policy standing in for the language model.

The policy maps one of 6 observable context features (evidence signal x
difficulty) to a distribution over 6 discrete completion actions (answer
candidate A, answer candidate B, or abstain; each rendered either in the
``<think>/<answer>`` template or bare).  Gradients are exact, which is what
makes the optimizer checkable against finite differences.
"""

from __future__ import annotations

import enum
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from abstainrl.reward import NO_ANSWER_TEXT
from abstainrl.textmetrics import exact_match

if TYPE_CHECKING:
    from abstainrl.synthenv import ItemHead, SynthQAItem


class Evidence(enum.Enum):
    SUPPORTS = "supports"
    CONTRADICTS = "contradicts"
    NO_EVIDENCE = "no_evidence"


class Difficulty(enum.Enum):
    EASY = "easy"
    HARD = "hard"


class Choice(enum.Enum):
    ANSWER_A = "answer_a"
    ANSWER_B = "answer_b"
    ABSTAIN = "abstain"


_EVIDENCE_ORDER = (Evidence.SUPPORTS, Evidence.CONTRADICTS, Evidence.NO_EVIDENCE)
_DIFFICULTY_ORDER = (Difficulty.EASY, Difficulty.HARD)
_CHOICE_ORDER = (Choice.ANSWER_A, Choice.ANSWER_B, Choice.ABSTAIN)


@dataclass(frozen=True)
class ContextFeature:
    evidence: Evidence
    difficulty: Difficulty

    # cached on the object: generated items and the scanned heads of a dataset
    # share their features
    @cached_property
    def index(self) -> int:
        return _EVIDENCE_ORDER.index(self.evidence) * 2 + _DIFFICULTY_ORDER.index(
            self.difficulty
        )

    @property
    def name(self) -> str:
        return f"{self.evidence.value}:{self.difficulty.value}"

    @classmethod
    def from_index(cls, index: int) -> "ContextFeature":
        return cls(_EVIDENCE_ORDER[index // 2], _DIFFICULTY_ORDER[index % 2])

    @classmethod
    def from_name(cls, name: str) -> "ContextFeature":
        ev, diff = name.split(":")
        return cls(Evidence(ev), Difficulty(diff))


@dataclass(frozen=True)
class ActionId:
    choice: Choice
    formatted: bool

    @property
    def index(self) -> int:
        return _CHOICE_ORDER.index(self.choice) * 2 + (0 if self.formatted else 1)

    @property
    def name(self) -> str:
        return f"{self.choice.value}:{'formatted' if self.formatted else 'bare'}"

    @classmethod
    def from_index(cls, index: int) -> "ActionId":
        return cls(_CHOICE_ORDER[index // 2], index % 2 == 0)

    @classmethod
    def from_name(cls, name: str) -> "ActionId":
        choice, style = name.split(":")
        return cls(Choice(choice), style == "formatted")


ALL_FEATURES = tuple(ContextFeature.from_index(i) for i in range(6))
ALL_ACTIONS = tuple(ActionId.from_index(i) for i in range(6))
N_FEATURES = len(ALL_FEATURES)
N_ACTIONS = len(ALL_ACTIONS)

DEFAULT_SFT_LR = 0.5
DEFAULT_SFT_EPOCHS = 200


class DivergenceError(RuntimeError):
    """Raised when training drives the logits or the objective non-finite."""


def _exact_keys(obj: object, names: Sequence[str], where: str) -> dict:
    """``obj`` as a dict holding exactly ``names``; ValueError otherwise."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}")
    missing = [name for name in names if name not in obj]
    if missing:
        raise ValueError(f"{where} is missing {missing}")
    return obj


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """A 6x6 table of logits; treated as an immutable value between updates."""

    logits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.logits, dtype=np.float64)
        if arr.shape != (N_FEATURES, N_ACTIONS):
            raise ValueError(f"logits must have shape (6, 6), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("logits must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "logits", arr)

    @classmethod
    def zeros(cls) -> "PolicyParams":
        return cls(np.zeros((N_FEATURES, N_ACTIONS)))

    @cached_property
    def log_probs(self) -> np.ndarray:
        """Row-wise log-softmax of the logits, computed once per snapshot;
        read-only, like the logits."""
        out = log_softmax(self.logits)
        out.flags.writeable = False
        return out

    @cached_property
    def probs(self) -> np.ndarray:
        """``exp(log_probs)``, computed once per snapshot and shared by
        sampling and the gradient's softmax terms; read-only."""
        out = np.exp(self.log_probs)
        out.flags.writeable = False
        return out

    def to_json_dict(self) -> dict:
        table = {
            f.name: {a.name: float(self.logits[f.index, a.index]) for a in ALL_ACTIONS}
            for f in ALL_FEATURES
        }
        return {"logits": table}

    @classmethod
    def from_json_dict(cls, payload: object) -> "PolicyParams":
        """Inverse of ``to_json_dict``.  Every one of the 36 entries must be
        present as a finite number and no other key may appear; ValueError
        names the first key that breaks this."""
        table = _exact_keys(payload, ["logits"], "checkpoint")["logits"]
        rows = _exact_keys(table, [f.name for f in ALL_FEATURES], "logits")
        arr = np.empty((N_FEATURES, N_ACTIONS))
        for f in ALL_FEATURES:
            where = f"logits[{f.name!r}]"
            row = _exact_keys(rows[f.name], [a.name for a in ALL_ACTIONS], where)
            for a in ALL_ACTIONS:
                value = row[a.name]
                # bool is an int subclass; NaN fails the comparison, and an int
                # too large for a float compares exactly instead of overflowing
                if (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max
                ):
                    raise ValueError(f"{where}[{a.name!r}] must be a finite number, got {value!r}")
                arr[f.index, a.index] = value
        return cls(arr)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @classmethod
    def loads(cls, text: str) -> "PolicyParams":
        return cls.from_json_dict(json.loads(text))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax along the last axis."""
    # the reductions .max and .sum run, without their Python wrappers
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Indices drawn by inverting each row's CDF at the uniform draws ``u``.

    ``probs`` is (..., K) and ``u`` is (..., M), one row of draws per row of
    probabilities.  A draw lands on the first index i < K - 1 whose running
    sum exceeds it, else on K - 1; the running sums are accumulated left to
    right, as a scalar loop over the row would.
    """
    return draw_at_bounds(cdf_bounds(probs), u)


def cdf_bounds(probs: np.ndarray) -> np.ndarray:
    """The bounds ``inverse_cdf`` draws from: each row's running sums of
    all but its last probability, accumulated left to right, then +inf."""
    # the row's running sums, with the last (the row's total) then replaced
    bounds = np.add.accumulate(probs, axis=-1, dtype=np.float64)
    bounds[..., -1] = np.inf
    return bounds


def draw_at_bounds(bounds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``inverse_cdf`` from rows of ``cdf_bounds``: the first index whose
    bound exceeds the draw."""
    return (u[..., :, None] >= bounds[..., None, :]).argmin(axis=-1)


def greedy_action(params: PolicyParams, feature: ContextFeature) -> ActionId:
    return ALL_ACTIONS[int(np.argmax(params.logits[feature.index]))]


def render_completion(action: ActionId, item: "ItemHead | SynthQAItem") -> str:
    """Render an action as completion text for one question."""
    if action.choice is Choice.ANSWER_A:
        return completion_text(item.candidate_a, action.formatted)
    if action.choice is Choice.ANSWER_B:
        return completion_text(item.candidate_b, action.formatted)
    return completion_text(None, action.formatted)


def completion_text(candidate: str | None, formatted: bool) -> str:
    """The completion that answers ``candidate``, or abstains where it is
    None, in the ``<think>/<answer>`` template or bare."""
    if candidate is None:
        answer = NO_ANSWER_TEXT
        think = "The queried window has no single supported fact."
    else:
        answer = candidate
        think = f"The facts in the queried window point to {candidate}."
    if formatted:
        return f"<think>{think}</think><answer>{answer}</answer>"
    return answer


def oracle_action(item: "ItemHead | SynthQAItem") -> ActionId:
    """The environment oracle's preferred action: the correct formatted answer,
    or a formatted abstention when the question is unanswerable."""
    if item.gold.is_no_answer:
        return ActionId(Choice.ABSTAIN, formatted=True)
    if exact_match(item.candidate_a, item.gold) == 1.0:
        return ActionId(Choice.ANSWER_A, formatted=True)
    if exact_match(item.candidate_b, item.gold) == 1.0:
        return ActionId(Choice.ANSWER_B, formatted=True)
    return ActionId(Choice.ABSTAIN, formatted=True)


def sft_train(
    params: PolicyParams,
    cells: Sequence[int] | np.ndarray,
    lr: float = DEFAULT_SFT_LR,
    epochs: int = DEFAULT_SFT_EPOCHS,
) -> PolicyParams:
    """Full-batch gradient ascent on the mean log-likelihood of the expert
    traces, one flat cell ``feature * 6 + action`` per trace
    (``RewardTable.expert_cells``).

    The likelihood depends on the traces only through how often each
    (feature, action) pair occurs, so they are reduced once to a count
    matrix C; each epoch's gradient is then C - n_row * softmax(row).
    Raises DivergenceError once the logits stop being finite.
    """
    n = len(cells)
    if not n:
        raise ValueError("sft_train needs at least one trace")
    counts = np.bincount(cells, minlength=N_FEATURES * N_ACTIONS)
    counts = counts.reshape(N_FEATURES, N_ACTIONS).astype(np.float64)
    row_totals = counts.sum(axis=1, keepdims=True)
    logits = np.array(params.logits)
    # overflow and inf - inf arise only once a run diverges; the finiteness
    # check turns that into DivergenceError instead of warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            grad = counts - row_totals * np.exp(log_softmax(logits))
            logits += lr * grad / n
            if not np.isfinite(logits).all():
                raise DivergenceError(f"SFT logits became non-finite at epoch {epoch}")
    return PolicyParams(logits)
