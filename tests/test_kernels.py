"""The kernel backend name and the LCS kernel against brute force on str and
int tokens. The trigram kernel is tested with the text metrics, the scalar
sampler oracle with the policy."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

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
