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

# memo: char -> replacement ('' for punctuation, the char otherwise)
_char_cache: dict[str, str] = {}


def _keep(ch: str) -> str:
    try:
        return _char_cache[ch]
    except KeyError:
        kept = "" if unicodedata.category(ch).startswith("P") else ch
        _char_cache[ch] = kept
        return kept


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

    # cached on the object: the items of a dataset share their golds
    @functools.cached_property
    def is_no_answer(self) -> bool:
        return not self.aliases


@dataclass(frozen=True)
class ScoreTriple:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "ScoreTriple":
        if precision + recall == 0:
            return cls(precision, recall, 0.0)
        return cls(precision, recall, 2 * precision * recall / (precision + recall))

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


def rouge_l(candidate: str, references: GoldAnswer) -> ScoreTriple:
    """LCS-based precision/recall/F1; the best-scoring alias (by F1) wins."""
    _require_answerable(references, "rouge_l")
    cand = normalize_text(candidate)
    best = ScoreTriple.zero()
    for alias in references.aliases:
        ref = normalize_text(alias)
        if not cand or not ref:
            continue
        lcs = lcs_length(cand, ref)
        triple = ScoreTriple.from_pr(lcs / len(cand), lcs / len(ref))
        if triple.f1 > best.f1:
            best = triple
    return best


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: str, references: GoldAnswer, n: int) -> ScoreTriple:
    """Clipped n-gram overlap precision/recall/F1 for n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    _require_answerable(references, "rouge_n")
    cand_grams = _ngrams(normalize_text(candidate), n)
    best = ScoreTriple.zero()
    for alias in references.aliases:
        ref_grams = _ngrams(normalize_text(alias), n)
        if not cand_grams or not ref_grams:
            continue
        overlap = sum(min(count, ref_grams[g]) for g, count in cand_grams.items())
        triple = ScoreTriple.from_pr(
            overlap / sum(cand_grams.values()), overlap / sum(ref_grams.values())
        )
        if triple.f1 > best.f1:
            best = triple
    return best


def exact_match(candidate: str, references: GoldAnswer) -> float:
    """1.0 iff the normalized candidate equals any normalized alias."""
    _require_answerable(references, "exact_match")
    cand = normalize_text(candidate)
    return 1.0 if any(cand == normalize_text(alias) for alias in references.aliases) else 0.0


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
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def semantic_sim(candidate: str, reference: str) -> float:
    """Deterministic semantic-similarity stand-in: trigram cosine of the
    normalized strings, 1.0 for inputs that normalize identically."""
    a = " ".join(normalize_text(candidate))
    b = " ".join(normalize_text(reference))
    if a == b:
        return 1.0
    sim = cosine(trigram_embedding(a), trigram_embedding(b))
    return min(1.0, max(0.0, sim))


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
