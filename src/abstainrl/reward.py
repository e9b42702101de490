"""The completion template, completion parsing and the rule-based reward.

``completion_text`` renders a completion in the template or bare.  A
completion is well-formatted when it is exactly one ``<think>...</think>``
block followed by exactly one ``<answer>...</answer>`` block, with nothing
but whitespace outside them.  The total reward is a format component
(0.5 or 0) plus a piecewise answer component:

* 1.0 when both prediction and gold are No-Answer,
* when neither is, ROUGE-L F1 plus EM and semantic similarity as the
  variant uses them, read from the answer's eval metrics,
* 0 otherwise (hallucination and over-abstention both score zero).

``rule_rewards`` is that rule, as array code; the other reward functions
apply it to one completion.  ``grpo.RewardTable`` applies it to a
dataset's distinct parses and metrics.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from abstainrl.textmetrics import GoldAnswer, TextParts, normalize_text

FORMAT_REWARD = 0.5

_TEMPLATE_RE = re.compile(
    r"\A\s*<think>(.*?)</think>\s*<answer>(.*?)</answer>\s*\Z", re.DOTALL
)

_NO_ANSWER_TOKENS = ["no", "answer"]

NO_ANSWER_TEXT = "No Answer"


@dataclass(frozen=True)
class ParsedCompletion:
    raw: str
    think: str | None
    answer: str
    format_ok: bool


class RewardVariant(enum.Enum):
    """Answer-reward composition; ROUGE_PLUS_EM is the default."""

    ROUGE_PLUS_EM = "rouge+em"
    ROUGE_ONLY = "rouge"
    ROUGE_PLUS_SEM = "rouge+sem"
    ROUGE_PLUS_SEM_PLUS_EM = "rouge+sem+em"

    @property
    def uses_em(self) -> bool:
        return self in (RewardVariant.ROUGE_PLUS_EM, RewardVariant.ROUGE_PLUS_SEM_PLUS_EM)

    @property
    def uses_sem(self) -> bool:
        return self in (RewardVariant.ROUGE_PLUS_SEM, RewardVariant.ROUGE_PLUS_SEM_PLUS_EM)

    @classmethod
    def from_name(cls, name: str) -> "RewardVariant":
        for variant in cls:
            if variant.value == name:
                return variant
        raise ValueError(
            f"unknown reward variant {name!r}; expected one of "
            f"{[v.value for v in cls]}"
        )


DEFAULT_VARIANT = RewardVariant.ROUGE_PLUS_EM


@dataclass(frozen=True)
class RewardBreakdown:
    format: float
    answer: float
    total: float


def parse_completion(raw: str) -> ParsedCompletion:
    """Split a raw completion into think/answer segments.

    Malformed input never fails: the whole trimmed text becomes the answer
    segment and ``format_ok`` is False.
    """
    match = _TEMPLATE_RE.match(raw)
    if (
        match
        and raw.count("<think>") == 1
        and raw.count("</think>") == 1
        and raw.count("<answer>") == 1
        and raw.count("</answer>") == 1
    ):
        return ParsedCompletion(raw, match.group(1).strip(), match.group(2).strip(), True)
    return ParsedCompletion(raw, None, raw.strip(), False)


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


def format_reward(pc: ParsedCompletion) -> float:
    return FORMAT_REWARD if pc.format_ok else 0.0


def is_no_answer(answer: str) -> bool:
    """True iff the answer normalizes to the abstention phrase."""
    return normalize_text(answer) == _NO_ANSWER_TOKENS


class AnswerMetrics(NamedTuple):
    """Eval metrics of an answer against an answerable gold, each the best
    over the gold's aliases (F1 for the ROUGE scores); as a tuple, one row
    of ``grpo.RewardTable.metrics``."""

    em: float
    rouge1: float
    rouge2: float
    rouge_l: float
    semantic: float


def answer_metrics(
    answer: str, gold: GoldAnswer, parts: Callable[[str], TextParts] = TextParts
) -> AnswerMetrics:
    """EM, ROUGE-1/2/L F1 and semantic similarity of ``answer``, as
    ``textmetrics``' ``exact_match``, ``rouge_n``, ``rouge_l`` and the best
    ``semantic_sim`` over the aliases give them; ``gold`` must be
    answerable.  ``parts`` takes each text apart (``grpo.RewardTable``
    passes its memo of them)."""
    if gold.is_no_answer:
        raise ValueError("answer metrics are undefined against a No-Answer gold")
    cand = parts(answer)
    aliases = [parts(alias) for alias in gold.aliases]
    return AnswerMetrics(
        em=cand.exact_match(aliases),
        rouge1=cand.rouge_n(aliases, 1).f1,
        rouge2=cand.rouge_n(aliases, 2).f1,
        rouge_l=cand.rouge_l(aliases).f1,
        semantic=max(cand.semantic_sim(alias) for alias in aliases),
    )


def rule_rewards(
    formatted: ArrayLike, abstained: ArrayLike, no_answer: ArrayLike, metrics: ArrayLike,
    variant: RewardVariant = DEFAULT_VARIANT,
) -> np.ndarray:
    """The rule-based reward under ``variant``, elementwise over broadcast
    arrays: the format reward where ``formatted``, plus the answer reward of
    an answer that ``abstained`` against a gold that is ``no_answer``.
    ``metrics`` holds eval metrics in ``AnswerMetrics``' order along its
    last axis, read only where neither is No-Answer: ROUGE-L, then EM, then
    semantic similarity are added."""
    metrics = np.asarray(metrics, dtype=float)
    answer = metrics[..., 3]
    if variant.uses_em:
        answer = answer + metrics[..., 0]
    if variant.uses_sem:
        answer = answer + metrics[..., 4]
    answer = np.where(abstained | no_answer, abstained & no_answer, answer)
    return np.where(formatted, FORMAT_REWARD, 0.0) + answer


def answer_reward(pred: str, gold: GoldAnswer, variant: RewardVariant = DEFAULT_VARIANT) -> float:
    """Piecewise answer reward on the answer segment only."""
    # zero metrics for a No-Answer gold, as a reward table holds them
    metrics = (0.0,) * 5 if gold.is_no_answer else answer_metrics(pred, gold)
    return float(rule_rewards(False, is_no_answer(pred), gold.is_no_answer, metrics, variant))


def total_reward(
    raw: str, gold: GoldAnswer, variant: RewardVariant = DEFAULT_VARIANT
) -> RewardBreakdown:
    """Parse the completion, then combine format and answer rewards."""
    parsed = parse_completion(raw)
    fmt, ans = format_reward(parsed), answer_reward(parsed.answer, gold, variant)
    return RewardBreakdown(format=fmt, answer=ans, total=fmt + ans)
