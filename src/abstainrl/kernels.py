"""The kernel backend name, kept only because ``e2ebench/run.py`` records it
and the benchmark tracer imports each layer it lists; the kernels themselves
live in ``textmetrics``."""

BACKEND = "python"
