import re

import pytest
from hypothesis import settings

from abstainrl import grpo, reward

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

@pytest.fixture
def scoring_calls(monkeypatch):
    """The lists of the texts ``reward.parse_completion`` and the (answer,
    gold) pairs ``reward.answer_metrics`` are called with from here on, in
    ``reward`` and in ``grpo``, whose reward table calls them."""
    parsed, measured = [], []
    parse, measure = reward.parse_completion, reward.answer_metrics
    for module in (reward, grpo):
        monkeypatch.setattr(
            module, "parse_completion", lambda raw: parsed.append(raw) or parse(raw)
        )
        monkeypatch.setattr(
            module, "answer_metrics",
            lambda a, gold, *parts: measured.append((a, gold)) or measure(a, gold, *parts),
        )
    return parsed, measured


_CRITERION_RE = re.compile(r"::test_(a\d+)_")
_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    match = _CRITERION_RE.search(report.nodeid)
    if match:
        _acceptance_results[match.group(1).upper()] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for criterion in sorted(_acceptance_results, key=lambda c: int(c[1:])):
        outcome = _acceptance_results[criterion]
        line = f"{criterion}: {'PASS' if outcome == 'PASSED' else 'FAIL'}"
        terminalreporter.write_line(line)
