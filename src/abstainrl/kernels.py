"""The two numeric kernels under the text metrics: LCS length and hashed
character-trigram counts."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# The one implementation; the benchmark records this name with its results.
BACKEND = "python"


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


def trigram_counts(text: str, dim: int) -> np.ndarray:
    """Hashed character-trigram count vector of ``text``.

    Each trigram is bucketed by a fixed base-31 polynomial over its code
    points, modulo ``dim``.
    """
    out = np.zeros(dim, dtype=np.float64)
    for i in range(len(text) - 2):
        h = (ord(text[i]) * 961 + ord(text[i + 1]) * 31 + ord(text[i + 2])) % dim
        out[h] += 1.0
    return out
