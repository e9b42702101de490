"""Brute-force top-k reference of the kg-retrieval workload.

    python3 kg_reference.py DATASET KG_JSONL OUT_NPZ

For every question of DATASET it ranks every fact of KG_JSONL by the cosine
of trigram embeddings (semantic) and by the number of question keywords among
the fact's tokens (lexical), ties going to the earlier fact.  It uses only the
public `textmetrics.trigram_embedding` and `textmetrics.normalize_text`; the
keyword rule is this file's own copy of the documented one.  It runs in a
process of its own, so that its arrays do not count toward the peak memory of
the benchmark process.

OUT_NPZ holds, per question, the semantic reference as ragged arrays
`sem_idx`/`sem_score` split at `sem_offsets` (the top k plus every further
fact whose score is within SCORE_TOL of the k-th), and the lexical top k as
`lex_idx`/`lex_score` rows.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from abstainrl import textmetrics

TOP_K = 10
# Semantic scores are floats: facts whose reference scores lie within this
# distance may come back in either order, so a change of summation order is
# not a failure.  Lexical scores are integers and are compared exactly.
SCORE_TOL = 1e-9
MAX_KEYWORDS = 5
STOPWORDS = frozenset(
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
FIELDS = ("head", "relation", "tail", "timestamp")


def keywords(question: str) -> list[str]:
    """Non-stopword tokens by frequency, then length (longer first), then
    lexicographically; the first MAX_KEYWORDS."""
    counts: dict[str, int] = {}
    for token in textmetrics.normalize_text(question):
        if token not in STOPWORDS:
            counts[token] = counts.get(token, 0) + 1
    return sorted(counts, key=lambda t: (-counts[t], -len(t), t))[:MAX_KEYWORDS]


def ranked(scores: np.ndarray) -> np.ndarray:
    """All indices by descending score, ties to the earlier entry."""
    return np.lexsort((np.arange(len(scores)), -scores))


def reference(rows: list[dict], questions: list[str]) -> dict[str, np.ndarray]:
    sentences = [" ".join(r[f] for f in FIELDS if r.get(f)) for r in rows]
    emb = np.stack([textmetrics.trigram_embedding(s) for s in sentences])
    emb_norm = np.sqrt((emb * emb).sum(axis=1))
    # token -> the facts whose head, relation, tail or timestamp holds it
    postings: dict[str, list[int]] = {}
    for i, r in enumerate(rows):
        for token in set().union(*(textmetrics.normalize_text(r.get(f) or "") for f in FIELDS)):
            postings.setdefault(token, []).append(i)

    sem_idx, sem_score, sem_offsets = [], [], [0]
    lex_idx = np.empty((len(questions), TOP_K), dtype=np.int64)
    lex_score = np.empty((len(questions), TOP_K), dtype=np.int64)
    for qi, question in enumerate(questions):
        # cosine = dot / (|a| |b|), 0 when either vector is zero.
        qv = textmetrics.trigram_embedding(question)
        denom = emb_norm * float(np.sqrt(qv @ qv))
        dots = emb @ qv
        scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0)
        order = ranked(scores)
        keep = max(TOP_K, int((scores >= scores[order[TOP_K - 1]] - SCORE_TOL).sum()))
        sem_idx.append(order[:keep])
        sem_score.append(scores[order[:keep]])
        sem_offsets.append(sem_offsets[-1] + keep)

        lex = np.zeros(len(rows))
        for kw in keywords(question):
            lex[postings.get(kw, [])] += 1
        top = ranked(lex)[:TOP_K]
        lex_idx[qi] = top
        lex_score[qi] = lex[top]
    return {
        "sem_idx": np.concatenate(sem_idx),
        "sem_score": np.concatenate(sem_score),
        "sem_offsets": np.array(sem_offsets),
        "lex_idx": lex_idx,
        "lex_score": lex_score,
    }


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv: list[str]) -> int:
    dataset, kg, out = argv
    questions = [item["question"] for item in read_jsonl(dataset)]
    np.savez(out, **reference(read_jsonl(kg), questions))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
