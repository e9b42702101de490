"""Abstention-aware temporal-QA training harness.

The package couples a rule-based reward (format + piecewise answer score)
with group-relative policy optimization of a tabular softmax policy over a
synthetic temporal-QA environment, plus supervised cold start, retrieval
utilities, abstention metrics, and a reproducible experiment CLI.
"""

from abstainrl.grpo import (
    EvalReport,
    GrpoConfig,
    GrpoDivergenceError,
    RewardTable,
    TrainLog,
    evaluate_policy,
    kl_k3,
    train_rl,
)
from abstainrl.policy import (
    ActionId,
    Choice,
    ContextFeature,
    Difficulty,
    Evidence,
    PolicyParams,
    render_completion,
    sft_train,
)
from abstainrl.reward import (
    AnswerMetrics,
    ParsedCompletion,
    RewardBreakdown,
    RewardVariant,
    answer_reward,
    format_reward,
    is_no_answer,
    parse_completion,
    total_reward,
)
from abstainrl.synthenv import (
    GenConfig,
    GoldAnswer,
    SynthQAItem,
    TemporalFact,
    TimeInterval,
    TimeSpecifier,
    answerability_oracle,
    build_abstained_mc,
    generate_dataset,
)
from abstainrl.textmetrics import (
    ConfusionCounts,
    ScoreTriple,
    abstention_confusion,
    exact_match,
    lcs_length,
    normalize_text,
    rouge_l,
    rouge_n,
    semantic_sim,
)

__version__ = "0.1.0"
