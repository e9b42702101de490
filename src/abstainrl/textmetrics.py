"""Text normalization, lexical overlap metrics, trigram embeddings, and
abstention confusion counts.

Normalization follows the extractive-QA convention: lowercase, strip
punctuation, drop the articles a/an/the, split on whitespace.  ROUGE and
exact match score against every alias of a gold answer and keep the best.
"""

from __future__ import annotations

import functools
import unicodedata
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

EMBEDDING_DIM = 512

_ARTICLES = frozenset({"a", "an", "the"})

@functools.cache
def _keep(ch: str) -> str:
    """``ch``'s replacement: '' for punctuation, the char otherwise."""
    return "" if unicodedata.category(ch).startswith("P") else ch


@dataclass(frozen=True)
class GoldAnswer:
    """Ground-truth answer: a tuple of acceptable aliases, empty for No-Answer."""

    aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for alias in self.aliases:
            if not isinstance(alias, str) or not alias:
                raise ValueError("answerable aliases must be non-empty strings")

    @classmethod
    def no_answer(cls) -> "GoldAnswer":
        return cls(())

    @classmethod
    def of(cls, *aliases: str) -> "GoldAnswer":
        if not aliases:
            raise ValueError("an answerable gold needs at least one alias")
        return cls(tuple(aliases))

    # cached on the object: the scanned heads of a dataset share their golds
    @functools.cached_property
    def is_no_answer(self) -> bool:
        return not self.aliases


def _f1(precision: float, recall: float) -> float:
    """The harmonic mean of precision and recall, 0 where both are 0."""
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class ScoreTriple:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "ScoreTriple":
        return cls(precision, recall, _f1(precision, recall))

    @classmethod
    def zero(cls) -> "ScoreTriple":
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ConfusionCounts:
    """Abstention confusion: tp = abstained on unanswerable, fp = abstained on
    answerable, fn = answered an unanswerable question."""

    tp: int = 0
    fp: int = 0
    fn: int = 0


def normalize_text(raw: str) -> list[str]:
    """Normalized token sequence: lowercased, punctuation-stripped, articles
    removed.  Each call returns a new list."""
    return list(_normalized_tokens(raw))


# Scoring normalizes the same few aliases and candidates over and over (a
# train request has 25 distinct strings), so the tokens of recent strings
# are kept; the bound caps what a long-lived process holds, say one serving
# retrieval queries, whose questions rarely repeat.
@functools.lru_cache(maxsize=256)
def _normalized_tokens(raw: str) -> tuple[str, ...]:
    stripped = "".join(_keep(ch) for ch in raw.lower())
    return tuple(tok for tok in stripped.split() if tok not in _ARTICLES)


def _require_answerable(references: GoldAnswer, op: str) -> None:
    if references.is_no_answer:
        raise ValueError(f"{op} is undefined against a No-Answer gold")


def lcs_length(a: Sequence[object], b: Sequence[object]) -> int:
    """Length of the longest common subsequence of two token sequences."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return 0
    prev = [0] * (m + 1)
    for i in range(1, n + 1):
        cur = [0] * (m + 1)
        ai = a[i - 1]
        for j in range(1, m + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                left = cur[j - 1]
                up = prev[j]
                cur[j] = left if left >= up else up
        prev = cur
    return prev[m]


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


class TextParts:
    """One text as the metrics read it: its normalized tokens and, each
    made on first use, their n-gram counts and the trigram embedding of the
    normalized text with its norm.  The metric functions below take each
    text apart afresh; ``grpo.RewardTable`` keeps one per distinct text for
    the length of its build, so a text scored against many golds is taken
    apart once.  The methods score this text against others' parts."""

    __slots__ = ("tokens", "_grams", "_embedding")

    def __init__(self, text: str) -> None:
        self.tokens = _normalized_tokens(text)
        self._grams: dict[int, Counter] = {}
        self._embedding: tuple[np.ndarray, float] | None = None

    def grams(self, n: int) -> Counter:
        grams = self._grams.get(n)
        if grams is None:
            grams = self._grams[n] = _ngrams(self.tokens, n)
        return grams

    def embedding(self) -> tuple[np.ndarray, float]:
        """The trigram embedding of the normalized text and its norm."""
        if self._embedding is None:
            vector = trigram_embedding(" ".join(self.tokens))
            self._embedding = vector, float(np.linalg.norm(vector))
        return self._embedding

    # the best triple is kept as floats and built once: a frozen dataclass
    # is slow to build, and most references do not beat the best

    def rouge_l(self, references: Iterable["TextParts"]) -> ScoreTriple:
        """``rouge_l`` against the texts of ``references``."""
        cand = self.tokens
        best = (0.0, 0.0, 0.0)
        for reference in references:
            ref = reference.tokens
            if not cand or not ref:
                continue
            lcs = lcs_length(cand, ref)
            precision, recall = lcs / len(cand), lcs / len(ref)
            f1 = _f1(precision, recall)
            if f1 > best[2]:
                best = precision, recall, f1
        return ScoreTriple(*best)

    def rouge_n(self, references: Iterable["TextParts"], n: int) -> ScoreTriple:
        """``rouge_n`` against the texts of ``references``."""
        cand_grams = self.grams(n)
        best = (0.0, 0.0, 0.0)
        for reference in references:
            ref_grams = reference.grams(n)
            if not cand_grams or not ref_grams:
                continue
            overlap = sum(min(count, ref_grams.get(g, 0)) for g, count in cand_grams.items())
            precision = overlap / sum(cand_grams.values())
            recall = overlap / sum(ref_grams.values())
            f1 = _f1(precision, recall)
            if f1 > best[2]:
                best = precision, recall, f1
        return ScoreTriple(*best)

    def exact_match(self, references: Iterable["TextParts"]) -> float:
        """``exact_match`` against the texts of ``references``."""
        return 1.0 if any(self.tokens == reference.tokens for reference in references) else 0.0

    def semantic_sim(self, reference: "TextParts") -> float:
        """``semantic_sim`` against the text of ``reference``."""
        # tokens hold no whitespace, so equal tokens are equal joined texts
        if self.tokens == reference.tokens:
            return 1.0
        sim = _cosine(*self.embedding(), *reference.embedding())
        return min(1.0, max(0.0, sim))


def rouge_l(candidate: str, references: GoldAnswer) -> ScoreTriple:
    """LCS-based precision/recall/F1; the best-scoring alias (by F1) wins."""
    _require_answerable(references, "rouge_l")
    return TextParts(candidate).rouge_l(map(TextParts, references.aliases))


def rouge_n(candidate: str, references: GoldAnswer, n: int) -> ScoreTriple:
    """Clipped n-gram overlap precision/recall/F1 for n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    _require_answerable(references, "rouge_n")
    return TextParts(candidate).rouge_n(map(TextParts, references.aliases), n)


def exact_match(candidate: str, references: GoldAnswer) -> float:
    """1.0 iff the normalized candidate equals any normalized alias."""
    _require_answerable(references, "exact_match")
    return TextParts(candidate).exact_match(map(TextParts, references.aliases))


def trigram_embedding(text: str) -> np.ndarray:
    """Hashed character-trigram count vector of the lowercased text.

    The text is padded with boundary sentinels so even one-character strings
    embed to a non-zero vector; only the empty string maps to zero.  Each
    trigram is bucketed by a fixed base-31 polynomial over its code points,
    modulo ``EMBEDDING_DIM``.
    """
    codes = [ord(ch) for ch in "\x02" + text.lower() + "\x03"]
    buckets = [(a * 961 + b * 31 + c) % EMBEDDING_DIM for a, b, c in zip(codes, codes[1:], codes[2:])]
    return np.bincount(buckets, minlength=EMBEDDING_DIM).astype(np.float64)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return _cosine(a, float(np.linalg.norm(a)), b, float(np.linalg.norm(b)))


def _cosine(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    """``cosine`` of ``a`` and ``b``, given their norms."""
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def semantic_sim(candidate: str, reference: str) -> float:
    """Deterministic semantic-similarity stand-in: trigram cosine of the
    normalized strings, 1.0 for inputs that normalize identically."""
    return TextParts(candidate).semantic_sim(TextParts(reference))


def abstention_confusion(
    pairs: Iterable[tuple[str | None, GoldAnswer]],
) -> ConfusionCounts:
    """Bucket (prediction, gold) pairs; a ``None`` prediction means abstention.

    Answered answerable pairs fall in no bucket.
    """
    tp = fp = fn = 0
    for pred, gold in pairs:
        if pred is None:
            if gold.is_no_answer:
                tp += 1
            else:
                fp += 1
        elif gold.is_no_answer:
            fn += 1
    return ConfusionCounts(tp, fp, fn)
