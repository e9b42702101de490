"""One iteration of ``grpo.train_rl``'s step, through the cores it runs.

``batch`` draws B groups of G completions as a one-iteration block of
``grpo._Rollouts`` draws them, under ``train_rl``'s ``errstate``.  At
``params``, ``objective`` is ``grpo._objectives_and_kl``'s objective of the
batch and ``gradient`` is ``grpo._gradient`` of ``grpo._clipped_coeff`` at
the batch's importance ratios and k3 KL derivatives.
``advantages`` is ``grpo._advantages`` under the same ``errstate``.
"""

from typing import NamedTuple

import numpy as np

from abstainrl import grpo

# the scope train_rl runs its loop under
ERRSTATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


class Batch(NamedTuple):
    item_idx: np.ndarray
    rows: np.ndarray
    actions: np.ndarray
    cells: np.ndarray
    scatter: np.ndarray
    logp_old: np.ndarray
    logp_ref: np.ndarray
    rewards: np.ndarray
    advantages: np.ndarray


def batch(old, ref, table, cfg, rng) -> Batch:
    rollouts = grpo._Rollouts(table, cfg, rng, 1)
    with np.errstate(**ERRSTATE):
        actions, cells, rewards, adv = rollouts.step(0, old.probs)
    return Batch(rollouts.item_idx[0], rollouts.rows[0], actions, cells, rollouts.scatter[0],
                 old.log_probs.take(cells), ref.log_probs.take(cells), rewards, adv)


def advantages(rewards, std_eps=1e-8) -> np.ndarray:
    with np.errstate(**ERRSTATE):
        return grpo._advantages(np.asarray(rewards, dtype=np.float64), std_eps)


def objective(params, batch, cfg) -> float:
    logp_new = params.log_probs.take(batch.cells)
    objectives, _ = grpo._objectives_and_kl(
        logp_new[None], batch.logp_old[None], batch.logp_ref[None], batch.advantages[None], cfg
    )
    return float(objectives[0])


def gradient(params, batch, cfg) -> np.ndarray:
    logp_new = params.log_probs.take(batch.cells)
    ratio = grpo.importance_ratio(logp_new, batch.logp_old)
    kl_coeff = cfg.beta * (np.exp(batch.logp_ref - logp_new) - 1.0)
    coeff = grpo._clipped_coeff(ratio, batch.advantages, kl_coeff, cfg)
    return grpo._gradient(coeff, params.probs, batch.rows, batch.scatter)
