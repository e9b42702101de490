"""Backend selection and compiled-vs-Python kernel equivalence."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abstainrl import kernels

BACKENDS = kernels.available_backends()
needs_compiled = pytest.mark.skipif(
    "compiled" not in BACKENDS, reason="compiled extension not built"
)


def test_some_backend_is_active():
    assert kernels.BACKEND in ("python", "compiled")
    assert "python" in BACKENDS


def test_env_var_forces_python_backend():
    code = "from abstainrl import kernels; print(kernels.BACKEND)"
    # the child sees a scrubbed environment, so hand it the package's source
    # root explicitly; an installed package would be found without it
    src_root = str(Path(kernels.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"ABSTAINRL_KERNELS": "python", "PATH": "/usr/bin:/bin", "PYTHONPATH": src_root},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "python"


@needs_compiled
class TestBackendEquivalence:
    def test_lcs_identical(self):
        rng = np.random.default_rng(0)
        py, cc = BACKENDS["python"], BACKENDS["compiled"]
        for _ in range(200):
            a = rng.integers(0, 5, size=int(rng.integers(0, 12))).tolist()
            b = rng.integers(0, 5, size=int(rng.integers(0, 12))).tolist()
            assert py.lcs_length(a, b) == cc.lcs_length(a, b)

    def test_trigram_counts_identical(self):
        py, cc = BACKENDS["python"], BACKENDS["compiled"]
        for text in ("", "a", "ab", "paris", "tranmere rovers", "\x02café 1968\x03"):
            np.testing.assert_array_equal(
                py.trigram_counts(text, 512), cc.trigram_counts(text, 512)
            )

    def test_log_softmax_close(self):
        rng = np.random.default_rng(1)
        py, cc = BACKENDS["python"], BACKENDS["compiled"]
        for _ in range(100):
            row = rng.normal(scale=5, size=6)
            np.testing.assert_allclose(
                py.log_softmax(row), cc.log_softmax(row), rtol=0, atol=1e-12
            )

    def test_sample_categorical_identical(self):
        rng = np.random.default_rng(2)
        py, cc = BACKENDS["python"], BACKENDS["compiled"]
        for _ in range(300):
            raw = rng.random(6)
            probs = raw / raw.sum()
            u = float(rng.random())
            assert py.sample_categorical(probs, u) == cc.sample_categorical(probs, u)

    def test_sample_categorical_edge_draws(self):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        for backend in BACKENDS.values():
            assert backend.sample_categorical(probs, 0.0) == 0
            # u at or beyond the final cumulative boundary lands on the last index
            assert backend.sample_categorical(probs, 0.999999999) == 3
