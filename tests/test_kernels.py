"""The numeric kernels against brute force and fixed vectors, and the scalar
sampler oracle at its edge draws."""

import itertools

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import scalar_reference as ref
from abstainrl import kernels
from abstainrl.policy import inverse_cdf


def _brute_force_lcs(x, y):
    def subsequences(seq):
        return {s for r in range(len(seq) + 1) for s in itertools.combinations(seq, r)}

    return max(len(s) for s in subsequences(tuple(x)) & subsequences(tuple(y)))


str_seqs = st.lists(st.sampled_from(["red", "blue", "green"]), max_size=7)
int_seqs = st.lists(st.integers(0, 3), max_size=7)


@given(st.one_of(st.tuples(str_seqs, str_seqs), st.tuples(int_seqs, int_seqs)))
def test_lcs_length_matches_brute_force(pair):
    x, y = pair
    assert kernels.lcs_length(x, y) == _brute_force_lcs(x, y)


def test_trigram_counts_fixed_vector():
    # \x02ca, caf, afé, fé_, é_1, _19, 196, 968, 68\x03: nine distinct buckets
    want = np.zeros(512)
    want[[72, 186, 187, 270, 317, 356, 385, 456, 480]] = 1.0
    np.testing.assert_array_equal(kernels.trigram_counts("\x02café 1968\x03", 512), want)


def test_trigram_counts_repeats_and_short_text():
    # "aaa" occurs three times in "aaaaa"; 97 * (961 + 31 + 1) % 7 == 1
    want = np.zeros(7)
    want[1] = 3.0
    np.testing.assert_array_equal(kernels.trigram_counts("aaaaa", 7), want)
    np.testing.assert_array_equal(kernels.trigram_counts("ab", 7), np.zeros(7))


def test_backend_is_python():
    assert kernels.BACKEND == "python"


def test_sample_categorical_edge_draws():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    # u at or beyond the final cumulative boundary lands on the last index
    for u, want in ((0.0, 0), (0.999999999, 3)):
        assert ref.sample_categorical(probs, u) == want
        assert inverse_cdf(probs, np.array([u])).tolist() == [want]
