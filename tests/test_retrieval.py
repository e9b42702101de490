"""Rule-based extraction and top-k retrieval against brute force."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abstainrl import cli, retrieval, synthenv, textmetrics
from abstainrl.retrieval import (
    DEFAULT_TOP_K,
    KGStore,
    Quadruple,
    default_embedding,
    extract_keywords,
    extract_time_sentences,
    fact_to_quadruple,
    kg_sentence,
    parse_time_expressions,
    quadruples_from_context,
    rephrase_quadruples,
    split_sentences,
    topk_lexical,
    topk_semantic,
)
from abstainrl.synthenv import (
    YEAR_FLOOR,
    YEAR_HORIZON,
    GenConfig,
    TimeInterval,
    generate_dataset,
)
from abstainrl.textmetrics import cosine, normalize_text


class TestParseTimeExpressions:
    def test_from_to_range(self):
        assert parse_time_expressions("from 1966 to 1967") == [TimeInterval(1966, 1967)]

    def test_dash_range(self):
        assert parse_time_expressions("held 1968-1974 overall") == [TimeInterval(1968, 1974)]
        assert parse_time_expressions("held 1968–1974 overall") == [TimeInterval(1968, 1974)]

    def test_no_dates(self):
        assert parse_time_expressions("no dates here") == []

    def test_bare_year(self):
        assert parse_time_expressions("in 1883") == [TimeInterval(1883, 1883)]

    def test_after_and_since(self):
        assert parse_time_expressions("after 1969") == [TimeInterval(1970, YEAR_HORIZON)]
        assert parse_time_expressions("since 1969") == [TimeInterval(1970, YEAR_HORIZON)]

    def test_before_and_until(self):
        assert parse_time_expressions("before 1957") == [TimeInterval(YEAR_FLOOR, 1956)]
        assert parse_time_expressions("until 1957") == [TimeInterval(YEAR_FLOOR, 1956)]

    def test_mixed_sentence_orders_by_position(self):
        intervals = parse_time_expressions("in 1950, then from 1960 to 1962, after 1970")
        assert intervals == [
            TimeInterval(1950, 1950),
            TimeInterval(1960, 1962),
            TimeInterval(1971, YEAR_HORIZON),
        ]

    def test_range_years_not_double_counted(self):
        assert parse_time_expressions("from 1966 to 1967") == [TimeInterval(1966, 1967)]
        assert len(parse_time_expressions("1968-1974")) == 1


class TestExtractTimeSentences:
    CONTEXT = (
        "He joined the club in 1921. He scored often; fans cheered. "
        "He retired in 1939. No dates in this one."
    )

    def test_keeps_matching_sentences_only(self):
        kept = extract_time_sentences(TimeInterval(1920, 1925), self.CONTEXT)
        assert kept == ["He joined the club in 1921."]

    def test_empty_context(self):
        assert extract_time_sentences(TimeInterval(1900, 2000), "") == []

    def test_undated_context(self):
        assert extract_time_sentences(TimeInterval(1900, 2000), "Nothing here. At all.") == []

    def test_output_is_subsequence_with_unchanged_text(self):
        sentences = split_sentences(self.CONTEXT)
        kept = extract_time_sentences(TimeInterval(1900, 2000), self.CONTEXT)
        it = iter(sentences)
        assert all(any(s == k for s in it) for k in kept)
        for sentence in kept:
            assert sentence in sentences


class TestKgSentence:
    def test_with_timestamp(self):
        quad = Quadruple("AnnaKarina", "spouse", "PierreFabre", "1968–1974")
        assert kg_sentence(quad) == "AnnaKarina spouse PierreFabre 1968–1974"

    def test_without_timestamp(self):
        assert kg_sentence(Quadruple("a", "b", "c")) == "a b c"

    def test_store_roundtrip_preserves_sentences(self):
        store = KGStore([Quadruple("a", "b", "c", "1900")])
        assert store.sentences[0] == kg_sentence(store.quads[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Quadruple("", "r", "t")


def _random_store(rng, size):
    words = ["alpha", "bravo", "chart", "delta", "ember", "frost", "grove", "haven"]
    quads = []
    for _ in range(size):
        quads.append(
            Quadruple(
                head=words[int(rng.integers(0, len(words)))],
                relation=words[int(rng.integers(0, len(words)))],
                tail=words[int(rng.integers(0, len(words)))],
                timestamp=f"{int(rng.integers(1900, 2000))}" if rng.random() < 0.5 else None,
            )
        )
    return KGStore(quads)


def brute_force_semantic(store, query, k):
    qv = default_embedding(query)
    scored = [
        (i, cosine(qv, default_embedding(sentence)))
        for i, sentence in enumerate(store.sentences)
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [(store.quads[i], s) for i, s in scored[: min(k, len(store))]]


def brute_force_lexical(store, question, k):
    keywords = extract_keywords(question)
    scored = []
    for i, quad in enumerate(store.quads):
        tokens = set()
        for part in (quad.head, quad.relation, quad.tail, quad.timestamp or ""):
            tokens.update(normalize_text(part))
        scored.append((i, sum(1 for kw in keywords if kw in tokens)))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [(store.quads[i], s) for i, s in scored[: min(k, len(store))]]


class TestTopK:
    def test_exact_sentence_ranks_first_with_unit_score(self):
        rng = np.random.default_rng(0)
        store = _random_store(rng, 12)
        quad = store.quads[5]
        ranked = topk_semantic(store, kg_sentence(quad), k=1)
        assert ranked[0][0] == quad
        assert ranked[0][1] == pytest.approx(1.0)

    def test_k_larger_than_store(self):
        rng = np.random.default_rng(1)
        store = _random_store(rng, 4)
        assert len(topk_semantic(store, "alpha", k=50)) == 4

    def test_default_k_is_ten(self):
        rng = np.random.default_rng(2)
        store = _random_store(rng, 25)
        assert len(topk_semantic(store, "alpha bravo")) == DEFAULT_TOP_K
        assert len(topk_lexical(store, "alpha bravo")) == DEFAULT_TOP_K

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            topk_semantic(KGStore(), "q")
        with pytest.raises(ValueError):
            topk_lexical(KGStore(), "q")

    def test_semantic_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            store = _random_store(rng, int(rng.integers(1, 30)))
            query = "alpha frost chart"
            for k in (1, 10, len(store)):
                assert topk_semantic(store, query, k) == brute_force_semantic(store, query, k)

    def test_lexical_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            store = _random_store(rng, int(rng.integers(1, 30)))
            question = "Who was alpha's bravo near grove"
            for k in (1, 10, len(store)):
                assert topk_lexical(store, question, k) == brute_force_lexical(store, question, k)

    def test_lexical_overlap_count_ordering(self):
        store = KGStore(
            [
                Quadruple("anna", "spouse", "karina"),
                Quadruple("someone", "spouse", "else"),
            ]
        )
        ranked = topk_lexical(store, "Who was the spouse of Anna Karina", k=2)
        assert ranked[0][0].head == "anna"
        assert ranked[0][1] > ranked[1][1]


class TestExtractKeywords:
    def test_stopwords_removed(self):
        kws = extract_keywords("Who was the spouse of Anna Karina")
        assert "spouse" in kws and "anna" in kws and "karina" in kws
        for stop in ("who", "was", "the", "of"):
            assert stop not in kws

    def test_all_stopwords(self):
        assert extract_keywords("who was the of") == []

    def test_deterministic_and_bounded(self):
        question = "green green blue stone stone stone river"
        first = extract_keywords(question, max_k=2)
        assert first == extract_keywords(question, max_k=2)
        assert first == ["stone", "green"]  # frequency, then length/lex tiebreaks

    def test_max_k_validated(self):
        with pytest.raises(ValueError):
            extract_keywords("q", max_k=0)


class TestRephrase:
    def test_with_timestamp(self):
        block = rephrase_quadruples([Quadruple("Anna", "spouse", "Pierre", "1968-1974")])
        assert block == "Anna's spouse was Pierre during 1968-1974."

    def test_without_timestamp(self):
        assert rephrase_quadruples([Quadruple("a", "role", "b")]) == "a's role was b."

    def test_empty(self):
        assert rephrase_quadruples([]) == ""

    def test_line_count(self):
        quads = [Quadruple(f"h{i}", "r", "t") for i in range(5)]
        assert len(rephrase_quadruples(quads).splitlines()) == 5


class TestStorePersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        store = _random_store(rng, 10)
        path = tmp_path / "store.jsonl"
        store.write_jsonl(path)
        again = KGStore.read_jsonl(path)
        assert again.quads == store.quads
        assert again.sentences == store.sentences

    def test_written_bytes(self, tmp_path):
        store = KGStore([Quadruple("Ann Lee", "team", "Rovers", "1990-1992"),
                         Quadruple("Bo", "role", "Chief")])
        path = tmp_path / "store.jsonl"
        store.write_jsonl(path)
        assert path.read_bytes() == (
            b'{"head": "Ann Lee", "relation": "team", "tail": "Rovers", "timestamp": "1990-1992"}\n'
            b'{"head": "Bo", "relation": "role", "tail": "Chief", "timestamp": null}\n'
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            *(
                (json.dumps({"head": "a", "relation": "b", "tail": "c", "timestamp": "1990", field: 1}),
                 f"{field} must be a string, got 1")
                for field in ("head", "relation", "tail", "timestamp")
            ),
            ('{"relation": "b", "tail": "c"}', "missing field 'head'"),
            ('{"head": "a", "tail": "c"}', "missing field 'relation'"),
            ('{"head": "a", "relation": "b"}', "missing field 'tail'"),
            ("[1]", r"record must be a JSON object, got \[1\]"),
        ],
        ids=["head-int", "relation-int", "tail-int", "timestamp-int",
             "no-head", "no-relation", "no-tail", "not-object"],
    )
    def test_bad_record_names_its_fault(self, tmp_path, line, message):
        path = tmp_path / "store.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(synthenv.DatasetError, match=f":1: bad quadruple record: {message}$"):
            KGStore.read_jsonl(path)

    def test_fact_conversion(self):
        items = generate_dataset(GenConfig(n_items=5, p_unans=0.0, seed=6))
        fact = items[0].facts[0]
        quad = fact_to_quadruple(fact)
        assert quad.head == fact.subject
        assert quad.tail == fact.obj
        assert str(fact.scope.start) in quad.timestamp


class TestHeuristicKgFallback:
    def test_extracts_quads_from_dated_sentences(self):
        context = "George Moorhouse joined Tranmere Rovers in 1921. The weather was mild."
        quads = quadruples_from_context("who did he play for", context)
        assert len(quads) == 1
        assert quads[0].head == "George Moorhouse"
        assert quads[0].timestamp == "1921-1921"

    def test_undated_context_yields_nothing(self):
        assert quadruples_from_context("q", "No years mentioned here.") == []


# "a" * 300 holds one trigram more than 255 times, past the smallest count type
_WORDS = ["alpha", "bravo", "the", "Ann Lee", "o'neil", "who", "ember", "x", "a" * 300]
_STAMPS = [None, "1990", "1990-1995", "2001–2003"]
_quads = st.builds(
    Quadruple,
    head=st.sampled_from(_WORDS),
    relation=st.sampled_from(_WORDS),
    tail=st.sampled_from(_WORDS),
    timestamp=st.sampled_from(_STAMPS),
)
_queries = st.one_of(
    st.sampled_from(["", "who was the of", "Who was Ann Lee's bravo in 1990?", "alpha alpha x"]),
    st.lists(st.sampled_from(_WORDS + ["1990", "in", "?"]), max_size=6).map(" ".join),
)


def _assert_matches_brute_force(store, query):
    n = len(store)
    for k in (1, 10, n, n + 5):
        assert topk_semantic(store, query, k) == brute_force_semantic(store, query, k)
        assert topk_lexical(store, query, k) == brute_force_lexical(store, query, k)


class TestIndexedTopK:
    """The store's lazy index against the brute-force helpers above."""

    @settings(max_examples=60, deadline=None)
    @given(
        facts=st.lists(_quads, min_size=1, max_size=20),
        repeats=st.integers(0, 5),
        query=_queries,
    )
    def test_matches_brute_force_with_ties(self, facts, repeats, query):
        store = KGStore(facts + facts[:repeats])  # duplicate facts tie exactly
        _assert_matches_brute_force(store, query)

    @given(
        scores=st.one_of(
            st.lists(
                st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, np.inf, np.nan]) | st.floats(),
                min_size=1,
                max_size=30,
            ).map(np.array),
            st.lists(st.integers(-3, 3), min_size=1, max_size=30).map(
                lambda values: np.array(values, dtype=np.intp)
            ),
        )
    )
    def test_ranked_equals_full_stable_sort(self, scores):
        n = len(scores)
        for k in {1, n - 1, n, n + 5} - {0}:
            assert retrieval._ranked(scores, k) == np.argsort(-scores, kind="stable")[:k].tolist()

    def test_empty_and_stopword_queries_score_zero(self):
        store = KGStore([Quadruple("alpha", "bravo", "chart", None), Quadruple("a", "b", "c")])
        _assert_matches_brute_force(store, "")
        _assert_matches_brute_force(store, "who was the of")
        assert [s for _, s in topk_semantic(store, "", 2)] == [0.0, 0.0]
        assert [s for _, s in topk_lexical(store, "who was the of", 2)] == [0, 0]

    @settings(max_examples=40, deadline=None)
    @given(
        first=st.lists(_quads, min_size=1, max_size=12),
        later=st.lists(_quads, min_size=1, max_size=12),
        query=_queries,
    )
    def test_add_after_query_equals_fresh_store(self, first, later, query):
        store = KGStore(first)
        _assert_matches_brute_force(store, query)
        for quad in later:
            store.add(quad)
        fresh = KGStore(first + later)
        n = len(fresh)
        for k in (1, 10, n, n + 5):
            assert topk_semantic(store, query, k) == topk_semantic(fresh, query, k)
            assert topk_lexical(store, query, k) == topk_lexical(fresh, query, k)


class _CallCounter:
    """Counts calls of ``trigram_embedding`` and ``normalize_text`` at every
    module that binds them."""

    def __init__(self, monkeypatch):
        self.counts = {"trigram_embedding": 0, "normalize_text": 0}
        for name in self.counts:
            real = getattr(textmetrics, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                self.counts[_name] += 1
                return _real(*args, **kwargs)

            for module in (textmetrics, retrieval, synthenv):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)

    def reset(self):
        self.counts = dict.fromkeys(self.counts, 0)


class TestIndexCost:
    def _quads(self, n=12):
        return [Quadruple(f"Person {i}", "employer", f"Firm {i % 3}", "1990-1995") for i in range(n)]

    def test_writers_never_build_the_index(self, tmp_path, monkeypatch):
        data = tmp_path / "data.jsonl"
        assert cli.main(["gen", "--n", "20", "--seed", "3", "--out", str(data)]) == 0
        KGStore(self._quads()).write_jsonl(tmp_path / "store.jsonl")
        counter = _CallCounter(monkeypatch)
        KGStore(self._quads())
        KGStore.read_jsonl(tmp_path / "store.jsonl")
        code = cli.main(
            ["extract", "--mode", "kg", "--dataset", str(data), "--out", str(tmp_path / "kg.jsonl")]
        )
        assert code == 0
        assert counter.counts == {"trigram_embedding": 0, "normalize_text": 0}

    def test_queries_after_the_first_embed_only_the_query(self, monkeypatch):
        quads = self._quads()
        store = KGStore(quads)
        counter = _CallCounter(monkeypatch)
        topk_semantic(store, "Who employed Person 3?")
        assert counter.counts["trigram_embedding"] == 1 + len(quads)
        for query in ("Who employed Person 3?", "Firm 2", ""):
            counter.reset()
            topk_semantic(store, query)
            assert counter.counts == {"trigram_embedding": 1, "normalize_text": 0}
        # an add drops the index, so the next query embeds itself and every fact
        store.add(Quadruple("Person 99", "employer", "Firm 9"))
        counter.reset()
        topk_semantic(store, "Person 99")
        assert counter.counts == {"trigram_embedding": 1 + len(quads) + 1, "normalize_text": 0}
        counter.reset()
        topk_semantic(store, "Person 99")
        assert counter.counts == {"trigram_embedding": 1, "normalize_text": 0}

    def test_query_makes_no_float64_copy_of_the_gathered_counts(self):
        """A semantic query widens the count rows of its nonzero trigram
        buckets in buffered chunks: its traced peak stays below one float64
        per (nonzero query bucket, fact)."""
        quads = [
            Quadruple(f"Person {i}", "employer", f"Firm {i % 97}", f"{1900 + i % 90}-{1905 + i % 90}")
            for i in range(2000)
        ]
        store = KGStore(quads)
        query = "Which company employed Person 1234 from 1950 to 1955?"
        want = topk_semantic(store, query)  # builds the index
        buckets = int(np.count_nonzero(textmetrics.trigram_embedding(query)))
        tracemalloc.start()
        try:
            got = topk_semantic(store, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 8 * buckets * len(quads)

    def test_lexical_queries_tokenize_only_the_question(self, monkeypatch):
        store = KGStore(self._quads())
        counter = _CallCounter(monkeypatch)
        topk_lexical(store, "Who employed Person 3?")
        assert counter.counts == {"trigram_embedding": 0, "normalize_text": 1 + 4 * len(store)}
        counter.reset()
        topk_lexical(store, "Firm 2 employer")
        assert counter.counts == {"trigram_embedding": 0, "normalize_text": 1}
        # an add drops the index, so the next query tokenizes every fact again
        store.add(Quadruple("Person 99", "employer", "Firm 9"))
        counter.reset()
        topk_lexical(store, "Person 99")
        assert counter.counts == {"trigram_embedding": 0, "normalize_text": 1 + 4 * len(store)}
        counter.reset()
        topk_lexical(store, "Person 99")
        assert counter.counts == {"trigram_embedding": 0, "normalize_text": 1}
