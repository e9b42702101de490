"""Abstention-aware temporal-QA training harness.

The package couples a rule-based reward (format + piecewise answer score)
with group-relative policy optimization of a tabular softmax policy over a
synthetic temporal-QA environment, plus supervised cold start, retrieval
utilities, abstention metrics, and a reproducible experiment CLI.
"""
