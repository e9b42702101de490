"""Text metrics against brute-force oracles and the documented edge cases."""

import itertools
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import scalar_reference as ref
from abstainrl.textmetrics import (
    EMBEDDING_DIM,
    ConfusionCounts,
    GoldAnswer,
    ScoreTriple,
    abstention_confusion,
    exact_match,
    lcs_length,
    normalize_text,
    rouge_l,
    rouge_n,
    semantic_sim,
    trigram_embedding,
)


def brute_force_lcs(x, y):
    """Reference oracle: enumerate every subsequence of both sequences."""

    def subsequences(seq):
        out = set()
        for r in range(len(seq) + 1):
            out.update(itertools.combinations(seq, r))
        return out

    common = subsequences(tuple(x)) & subsequences(tuple(y))
    return max(len(s) for s in common)


TOKENS = ["red", "blue", "green"]
token_seqs = st.lists(st.sampled_from(TOKENS), max_size=7)


class TestNormalizeText:
    def test_punctuation_and_case(self):
        assert normalize_text("Tranmere Rovers.") == ["tranmere", "rovers"]

    def test_empty(self):
        assert normalize_text("") == []

    def test_article_drop_and_whitespace_collapse(self):
        assert normalize_text("The  No   Answer") == ["no", "answer"]

    @given(st.lists(st.text(max_size=12) | st.sampled_from(["The Rovers.", "a, b"]), max_size=6))
    def test_equals_unmemoized_normalization(self, texts):
        for raw in texts + texts:
            stripped = "".join(
                ch for ch in raw.lower() if not unicodedata.category(ch).startswith("P")
            )
            assert normalize_text(raw) == [t for t in stripped.split() if t not in ("a", "an", "the")]

    def test_each_call_returns_a_new_list(self):
        first = normalize_text("The Seabrook Rovers")
        first.append("mutated")
        first[0] = "x"
        assert normalize_text("The Seabrook Rovers") == ["seabrook", "rovers"]

    @given(st.text(max_size=40))
    def test_tokens_are_clean(self, raw):
        for token in normalize_text(raw):
            assert token
            assert token == token.lower()
            assert not any(ch.isspace() for ch in token)


class TestLcsLength:
    def test_examples(self):
        assert lcs_length(["a", "b", "c"], ["a", "c"]) == 2
        assert lcs_length(["a"], ["b"]) == 0

    @given(token_seqs)
    def test_identity(self, seq):
        assert lcs_length(seq, seq) == len(seq)

    @given(token_seqs, token_seqs)
    def test_matches_brute_force(self, x, y):
        got = lcs_length(x, y)
        assert got == brute_force_lcs(x, y)
        assert got == lcs_length(y, x)
        assert got <= min(len(x), len(y))


class TestRougeL:
    def test_identical(self):
        assert rouge_l("tranmere rovers", GoldAnswer.of("tranmere rovers")).f1 == 1.0

    def test_partial_overlap(self):
        triple = rouge_l("the tranmere rovers club", GoldAnswer.of("tranmere rovers"))
        assert triple.precision == pytest.approx(2 / 3)
        assert triple.recall == 1.0
        assert triple.f1 == pytest.approx(0.8)

    def test_disjoint(self):
        assert rouge_l("paris", GoldAnswer.of("london")).f1 == 0.0

    def test_empty_candidate(self):
        assert rouge_l("", GoldAnswer.of("x")) == ScoreTriple.zero()

    def test_no_answer_gold_rejected(self):
        with pytest.raises(ValueError):
            rouge_l("anything", GoldAnswer.no_answer())

    def test_multi_alias_takes_best(self):
        gold = GoldAnswer.of("london", "tranmere rovers")
        assert rouge_l("tranmere rovers", gold).f1 == 1.0

    @given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=7))
    def test_self_f1_is_one(self, tokens):
        text = " ".join(tokens)
        assert rouge_l(text, GoldAnswer.of(text)).f1 == 1.0

    @given(token_seqs, st.lists(st.sampled_from(TOKENS), min_size=1, max_size=7))
    def test_bounds(self, cand, ref):
        triple = rouge_l(" ".join(cand), GoldAnswer.of(" ".join(ref)))
        for value in (triple.precision, triple.recall, triple.f1):
            assert 0.0 <= value <= 1.0
        assert triple.f1 <= max(triple.precision, triple.recall) + 1e-15


class TestRougeN:
    # the generic-token arithmetic from the contract, spelled with tokens
    # that survive article removal
    def test_bigram_identical(self):
        assert rouge_n("x y", GoldAnswer.of("x y"), 2).f1 == 1.0

    def test_unigram_counts(self):
        triple = rouge_n("x y z", GoldAnswer.of("x y"), 1)
        assert triple.precision == pytest.approx(2 / 3)
        assert triple.recall == 1.0
        assert triple.f1 == pytest.approx(0.8)

    def test_disjoint(self):
        assert rouge_n("x", GoldAnswer.of("y"), 1).f1 == 0.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rouge_n("x", GoldAnswer.of("x"), 3)

    def test_clipping(self):
        # candidate repeats a unigram more often than the reference holds it
        triple = rouge_n("x x x", GoldAnswer.of("x y"), 1)
        assert triple.precision == pytest.approx(1 / 3)
        assert triple.recall == pytest.approx(1 / 2)


# texts whose tokens repeat and overlap, and golds of one to three aliases
_WORDS = st.lists(st.sampled_from(["x", "y", "z", "the", "X.", "y,"]), max_size=6).map(" ".join)
_ALIASES = st.lists(_WORDS.filter(bool), min_size=1, max_size=3)


class TestRougeAgainstPerAlias:
    @given(_WORDS, _ALIASES)
    @example("x y", ["y x", "x y", "x"])
    # equal F1s from swapped precision and recall: the first alias is kept
    @example("x y", ["x", "x y x y"])
    def test_equals_a_triple_per_alias(self, candidate, aliases):
        """Bit for bit, the best (precision, recall, F1) kept as floats is
        the best of a ``ScoreTriple`` built per alias; ties keep the first."""
        gold = GoldAnswer(tuple(aliases))
        for n in (1, 2):
            assert rouge_n(candidate, gold, n) == ref.rouge_n_per_alias(candidate, gold, n)
        assert rouge_l(candidate, gold) == ref.rouge_l_per_alias(candidate, gold)


class TestExactMatch:
    def test_normalized_equality(self):
        assert exact_match("Tranmere Rovers.", GoldAnswer.of("tranmere rovers")) == 1.0

    def test_partial_is_not_exact(self):
        assert exact_match("rovers", GoldAnswer.of("tranmere rovers")) == 0.0

    def test_empty_candidate(self):
        assert exact_match("", GoldAnswer.of("x")) == 0.0

    @given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5))
    def test_invariance(self, tokens):
        text = " ".join(tokens)
        gold = GoldAnswer.of(text)
        assert exact_match(text.upper(), gold) == 1.0
        assert exact_match(f"  {text}.  ", gold) == 1.0
        assert exact_match(text.replace(" ", "   "), gold) == 1.0


class TestSemanticSim:
    def test_identity(self):
        assert semantic_sim("paris", "paris") == 1.0

    def test_no_shared_trigrams(self):
        assert semantic_sim("paris", "zzzzz") == 0.0

    def test_both_empty(self):
        assert semantic_sim("", "") == 1.0

    def test_one_empty(self):
        assert semantic_sim("", "paris") == 0.0
        assert semantic_sim("paris", "") == 0.0

    @given(st.text(max_size=20))
    def test_self_similarity(self, text):
        assert semantic_sim(text, text) == 1.0

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_range(self, a, b):
        assert 0.0 <= semantic_sim(a, b) <= 1.0

    def test_embedding_zero_only_for_empty(self):
        assert trigram_embedding("a").any()
        assert trigram_embedding("ab").any()
        assert not trigram_embedding("").any()

    def test_embedding_deterministic(self):
        np.testing.assert_array_equal(trigram_embedding("paris"), trigram_embedding("paris"))


# Every code point, lone surrogates (category Cs) included, and a few with
# a special lowercase: "İ" lowers to two characters, "\U00010400" outside the BMP.
_any_text = st.text(st.characters(exclude_categories=()), max_size=30)
_odd_text = st.text(st.sampled_from("aİß\U00010400\U0001F600\ud800\udfff \x02\x03"), max_size=12)


class TestTrigramEmbedding:
    @given(st.one_of(_any_text, _odd_text))
    @example("")
    @example("İ")
    @example("\ud800")
    @example("\U00010400x")
    def test_equals_scalar_oracle(self, text):
        got = trigram_embedding(text)
        want = ref.trigram_counts("\x02" + text.lower() + "\x03", EMBEDDING_DIM)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_fixed_vector(self):
        # \x02ca, caf, afé, fé_, é_1, _19, 196, 968, 68\x03: nine distinct buckets
        want = np.zeros(512)
        want[[72, 186, 187, 270, 317, 356, 385, 456, 480]] = 1.0
        np.testing.assert_array_equal(trigram_embedding("café 1968"), want)

    def test_repeats_and_short_text(self):
        # "aaa" occurs three times in "aaaaa"; the sentinel trigrams \x02aa and
        # aa\x03 land in buckets of their own
        vec = trigram_embedding("aaaaa")
        assert vec[97 * (961 + 31 + 1) % 512] == 3.0
        assert vec[(2 * 961 + 97 * 31 + 97) % 512] == 1.0
        assert vec[(97 * 961 + 97 * 31 + 3) % 512] == 1.0
        assert vec.sum() == 5.0
        # one character still makes one trigram: \x02a\x03
        want = np.zeros(512)
        want[(2 * 961 + 97 * 31 + 3) % 512] = 1.0
        np.testing.assert_array_equal(trigram_embedding("a"), want)


class TestAbstentionConfusion:
    def test_true_positive(self):
        counts = abstention_confusion([(None, GoldAnswer.no_answer())])
        assert counts == ConfusionCounts(tp=1, fp=0, fn=0)

    def test_fp_and_fn(self):
        counts = abstention_confusion(
            [(None, GoldAnswer.of("x")), ("y", GoldAnswer.no_answer())]
        )
        assert counts == ConfusionCounts(tp=0, fp=1, fn=1)

    def test_answered_answerable_unbucketed(self):
        counts = abstention_confusion([("x", GoldAnswer.of("x"))])
        assert counts == ConfusionCounts(0, 0, 0)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([None, "some answer"]),
                st.sampled_from([GoldAnswer.no_answer(), GoldAnswer.of("gold")]),
            ),
            max_size=30,
        )
    )
    def test_tp_plus_fn_counts_no_answer_golds(self, pairs):
        counts = abstention_confusion(pairs)
        n_no_answer = sum(1 for _, gold in pairs if gold.is_no_answer)
        assert counts.tp + counts.fn == n_no_answer
