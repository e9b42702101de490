"""The kernel backend name, the LCS kernel against brute force, and the scalar
sampler oracle at its edge draws. The trigram kernel is tested with the text
metrics."""

import itertools

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import scalar_reference as ref
from abstainrl import kernels
from abstainrl.textmetrics import lcs_length


def _brute_force_lcs(x, y):
    def subsequences(seq):
        return {s for r in range(len(seq) + 1) for s in itertools.combinations(seq, r)}

    return max(len(s) for s in subsequences(tuple(x)) & subsequences(tuple(y)))


str_seqs = st.lists(st.sampled_from(["red", "blue", "green"]), max_size=7)
int_seqs = st.lists(st.integers(0, 3), max_size=7)


@given(st.one_of(st.tuples(str_seqs, str_seqs), st.tuples(int_seqs, int_seqs)))
def test_lcs_length_matches_brute_force(pair):
    x, y = pair
    assert lcs_length(x, y) == _brute_force_lcs(x, y)


def test_backend_is_python():
    assert kernels.BACKEND == "python"


def test_sample_categorical_edge_draws():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    # u at or beyond the final cumulative boundary lands on the last index
    for u, want in ((0.0, 0), (0.999999999, 3)):
        assert ref.sample_categorical(probs, u) == want
        assert ref.inverse_cdf(probs, np.array([u])).tolist() == [want]
