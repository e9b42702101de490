"""Implicit reasoning-information extraction.

Rule-based pieces: year-expression parsing, time-relevant sub-context
filtering, a temporal knowledge-graph store with semantic (trigram-cosine)
and lexical (keyword-overlap) top-k retrieval, quadruple rephrasing, and a
heuristic quadruple extractor for free text.
"""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from abstainrl.synthenv import YEAR_FLOOR, YEAR_HORIZON, TemporalFact, TimeInterval
from abstainrl.synthenv import _json_str, read_records, write_jsonl
from abstainrl.textmetrics import EMBEDDING_DIM, normalize_text, trigram_embedding

DEFAULT_TOP_K = 10
DEFAULT_MAX_KEYWORDS = 5


# written as vars(quad): that holds exactly the fields only while there is no cached_property
@dataclass(frozen=True)
class Quadruple:
    head: str
    relation: str
    tail: str
    timestamp: str | None = None

    def __post_init__(self) -> None:
        if not self.head or not self.relation or not self.tail:
            raise ValueError("quadruples need non-empty head, relation, and tail")


def _quadruple_from_dict(d: dict) -> Quadruple:
    """A quadruple from its KG store record: string ``head``, ``relation``
    and ``tail``, and a string or null (or absent) ``timestamp``."""
    head, relation, tail = (_json_str(d[name], name) for name in ("head", "relation", "tail"))
    timestamp = d.get("timestamp")
    if timestamp is not None:
        _json_str(timestamp, "timestamp")
    return Quadruple(head, relation, tail, timestamp)


def kg_sentence(quad: Quadruple) -> str:
    """Space-joined serialization: head relation tail [timestamp]."""
    parts = [quad.head, quad.relation, quad.tail]
    if quad.timestamp is not None:
        parts.append(quad.timestamp)
    return " ".join(parts)


def fact_to_quadruple(fact: TemporalFact) -> Quadruple:
    return Quadruple(
        head=fact.subject,
        relation=fact.relation,
        tail=fact.obj,
        timestamp=f"{fact.scope.start}-{fact.scope.end}",
    )


class _TrigramIndex:
    """Fact-sentence embeddings as a bucket-major count matrix: column ``f``
    of ``counts`` is the trigram embedding of fact ``f``, and ``norms[f]``
    its norm.

    The matrix is held in the smallest unsigned type that fits the largest
    count seen, and widened when a larger one arrives.  Every embedding
    entry is an integer count, so a dot product over the matrix and the
    squared norms are exact integer sums in any order, and each score is
    bit-identical to ``cosine`` of the two embeddings.
    """

    def __init__(self, sentences: Sequence[str]) -> None:
        self.counts = np.zeros((EMBEDDING_DIM, len(sentences)), dtype=np.uint8)
        self.norms = np.zeros(len(sentences))
        for fact, sentence in enumerate(sentences):
            vec = trigram_embedding(sentence)
            top = int(vec.max())
            if top > np.iinfo(self.counts.dtype).max:
                self.counts = self.counts.astype(np.min_scalar_type(top))
            self.counts[:, fact] = vec
            self.norms[fact] = np.linalg.norm(vec)

    def cosines(self, query: str) -> np.ndarray:
        qv = trigram_embedding(query)
        qn = float(np.linalg.norm(qv))
        if qn == 0.0:
            return np.zeros(len(self.norms))
        b = np.flatnonzero(qv)
        # einsum widens the gathered counts in buffered chunks, where a
        # matrix product would first cast them all to one float64 temporary
        return np.einsum("i,ij->j", qv[b], self.counts[b]) / (qn * self.norms)


class _TokenIndex:
    """Inverted index of fact tokens: token -> ids of the facts whose head,
    relation, tail or timestamp contains it, in fact order."""

    def __init__(self, quads: Sequence[Quadruple]) -> None:
        self.n_facts = len(quads)
        self.postings: dict[str, array] = {}
        for fact, quad in enumerate(quads):
            tokens: set[str] = set()
            for part in (quad.head, quad.relation, quad.tail, quad.timestamp or ""):
                tokens.update(normalize_text(part))
            for token in tokens:
                self.postings.setdefault(token, array("i")).append(fact)

    def overlaps(self, keywords: Iterable[str]) -> np.ndarray:
        """Per fact, how many of the (distinct) keywords it contains."""
        hits = [
            np.frombuffer(self.postings[kw], dtype=np.intc) for kw in keywords if kw in self.postings
        ]
        if not hits:
            return np.zeros(self.n_facts, dtype=np.intp)
        return np.bincount(np.concatenate(hits), minlength=self.n_facts)


class KGStore:
    """Append-only quadruple store.

    Each retrieval index is built in one pass over all the facts by the
    first query that needs it, and ``add`` drops both, so a store that is
    only written never embeds or tokenizes a fact.  A query after an
    ``add`` rebuilds the index it reads from every fact.
    """

    def __init__(self, quads: Iterable[Quadruple] = ()) -> None:
        self._quads: list[Quadruple] = []
        self._trigrams: _TrigramIndex | None = None
        self._tokens: _TokenIndex | None = None
        for quad in quads:
            self.add(quad)

    def add(self, quad: Quadruple) -> None:
        self._quads.append(quad)
        self._trigrams = self._tokens = None

    def __len__(self) -> int:
        return len(self._quads)

    @property
    def quads(self) -> list[Quadruple]:
        return list(self._quads)

    @property
    def sentences(self) -> list[str]:
        return [kg_sentence(quad) for quad in self._quads]

    def _trigram_index(self) -> _TrigramIndex:
        if self._trigrams is None:
            self._trigrams = _TrigramIndex(self.sentences)
        return self._trigrams

    def _token_index(self) -> _TokenIndex:
        if self._tokens is None:
            self._tokens = _TokenIndex(self._quads)
        return self._tokens

    def write_jsonl(self, path: str | Path) -> None:
        write_jsonl(path, map(vars, self._quads))

    @classmethod
    def read_jsonl(cls, path: str | Path) -> "KGStore":
        return cls(read_records(path, "quadruple", _quadruple_from_dict))


# --- time-expression parsing ---------------------------------------------------

_RANGE_RES = (
    re.compile(r"\bfrom\s+(\d{4})\s+to\s+(\d{4})\b", re.IGNORECASE),
    re.compile(r"\b(\d{4})\s*[-–—]\s*(\d{4})\b"),
)
_AFTER_RE = re.compile(r"\b(?:since|after)\s+(\d{4})\b", re.IGNORECASE)
_BEFORE_RE = re.compile(r"\b(?:before|until)\s+(\d{4})\b", re.IGNORECASE)
_YEAR_RE = re.compile(r"\b(\d{4})\b")


def parse_time_expressions(sentence: str) -> list[TimeInterval]:
    """Year-granularity intervals mentioned in a sentence, in order of
    appearance.  Open-ended phrases clamp to the supported year range."""
    found: list[tuple[int, TimeInterval]] = []
    consumed: list[tuple[int, int]] = []

    def _take(start: int, end: int, interval: TimeInterval) -> None:
        found.append((start, interval))
        consumed.append((start, end))

    def _free(start: int, end: int) -> bool:
        return all(end <= lo or start >= hi for lo, hi in consumed)

    for pattern in _RANGE_RES:
        for m in pattern.finditer(sentence):
            if _free(m.start(), m.end()):
                a, b = int(m.group(1)), int(m.group(2))
                if a <= b:
                    _take(m.start(), m.end(), TimeInterval(a, b))
    for m in _AFTER_RE.finditer(sentence):
        if _free(m.start(), m.end()):
            y = int(m.group(1))
            _take(m.start(), m.end(), TimeInterval(min(y + 1, YEAR_HORIZON), YEAR_HORIZON))
    for m in _BEFORE_RE.finditer(sentence):
        if _free(m.start(), m.end()):
            y = int(m.group(1))
            _take(m.start(), m.end(), TimeInterval(YEAR_FLOOR, max(y - 1, YEAR_FLOOR)))
    for m in _YEAR_RE.finditer(sentence):
        if _free(m.start(), m.end()):
            y = int(m.group(1))
            _take(m.start(), m.end(), TimeInterval(y, y))
    found.sort(key=lambda pair: pair[0])
    return [interval for _, interval in found]


def split_sentences(context: str) -> list[str]:
    """Split on period/semicolon boundaries, keeping each sentence's text."""
    return [s.strip() for s in re.findall(r"[^.;]+[.;]?", context) if s.strip()]


def extract_time_sentences(question_interval: TimeInterval, context: str) -> list[str]:
    """Sentences whose parsed time expressions intersect the question interval,
    in original order and with original text."""
    kept = []
    for sentence in split_sentences(context):
        for interval in parse_time_expressions(sentence):
            if interval.intersects(question_interval.start, question_interval.end):
                kept.append(sentence)
                break
    return kept


# --- top-k retrieval ------------------------------------------------------------

def _check_query(store: KGStore, k: int) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(store) == 0:
        raise ValueError("cannot query an empty store")


def _ranked(scores: np.ndarray, k: int) -> list[int]:
    """Indices of the k highest scores; ties break toward the earlier index.

    The order of ``np.argsort(-scores, kind="stable")[:k]``, from a partial
    sort: every score tied with the k-th best is kept (and a NaN never
    compares greater), so the stable sort of those candidates begins with
    the same k indices as the full one.  With k clamped to the length, the
    k-th value is the largest (or a NaN) and every index is a candidate.
    """
    neg = -scores
    k = min(k, len(neg))
    kth = np.partition(neg, k - 1)[k - 1]
    cand = np.flatnonzero(~(neg > kth))
    return cand[np.argsort(neg[cand], kind="stable")[:k]].tolist()


def topk_semantic(
    store: KGStore, query: str, k: int = DEFAULT_TOP_K
) -> list[tuple[Quadruple, float]]:
    """Top-k facts by cosine similarity between the embedded query and the
    embedded fact sentences; ties break toward earlier store entries."""
    _check_query(store, k)
    scores = store._trigram_index().cosines(query)
    return [(store._quads[i], float(scores[i])) for i in _ranked(scores, k)]


_STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are aren't as at be
    because been before being below between both but by can cannot could
    couldn't did didn't do does doesn't doing don't down during each few for
    from further had hadn't has hasn't have haven't having he her here hers
    herself him himself his how i if in into is isn't it its itself just me
    more most my myself no nor not of off on once only or other our ours
    ourselves out over own same she should shouldn't so some such than that
    the their theirs them themselves then there these they this those through
    to too under until up very was wasn't we were weren't what when where
    which while who whom why will with won't would wouldn't you your yours
    yourself yourselves
    """.split()
)


def extract_keywords(question: str, max_k: int = DEFAULT_MAX_KEYWORDS) -> list[str]:
    """Salient question keywords: stopword-filtered normalized tokens ranked by
    frequency, then length (longer first), then lexicographically."""
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    counts: dict[str, int] = {}
    for token in normalize_text(question):
        if token not in _STOPWORDS:
            counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts, key=lambda t: (-counts[t], -len(t), t))
    return ranked[:max_k]


def topk_lexical(
    store: KGStore, question: str, k: int = DEFAULT_TOP_K
) -> list[tuple[Quadruple, int]]:
    """Top-k facts by the number of question keywords present in the fact's
    head, relation, tail, or timestamp (token match after normalization)."""
    _check_query(store, k)
    scores = store._token_index().overlaps(extract_keywords(question))
    return [(store._quads[i], int(scores[i])) for i in _ranked(scores, k)]


def rephrase_quadruples(quads: Sequence[Quadruple]) -> str:
    """One templated natural-language sentence per quadruple, newline-joined."""
    lines = []
    for quad in quads:
        if quad.timestamp is not None:
            lines.append(f"{quad.head}'s {quad.relation} was {quad.tail} during {quad.timestamp}.")
        else:
            lines.append(f"{quad.head}'s {quad.relation} was {quad.tail}.")
    return "\n".join(lines)


# --- heuristic KG extraction -----------------------------------------------------

_CAP_SPAN_RE = re.compile(r"\b(?:[A-Z][\w'-]*)(?:\s+[A-Z][\w'-]*)*")


def quadruples_from_context(context: str) -> list[Quadruple]:
    """Heuristic quadruples from time-bearing sentences: first capitalized span
    as head, last as tail, with the sentence's first time expression as the
    timestamp.  A deliberately rough offline stand-in for model extraction."""
    quads: list[Quadruple] = []
    for sentence in split_sentences(context):
        intervals = parse_time_expressions(sentence)
        if not intervals:
            continue
        spans = [m.group(0) for m in _CAP_SPAN_RE.finditer(sentence)]
        spans = [s for s in spans if not s.isdigit()]
        if len(spans) < 2:
            continue
        first = intervals[0]
        quads.append(
            Quadruple(
                head=spans[0],
                relation="associated_with",
                tail=spans[-1],
                timestamp=f"{first.start}-{first.end}",
            )
        )
    return quads
