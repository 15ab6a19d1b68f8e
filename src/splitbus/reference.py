"""Single-process reference trainer.

Runs the same composed model (passive bottom + active bottom + top) as the
two-party runtime, but as a plain serial loop with no threads, broker or
parameter servers.  It shares the model construction, batch planning and
noise-stream derivation with the runtime, so a cooperative single-worker
run of the runtime must reproduce its per-epoch losses bit for bit — any
divergence points at a runtime bug, not at floating-point noise.  Like the
runtime, it reads each party's features as the table stored them, already
in the bottoms' dtype, casts nothing per run, and skips the bottoms'
raw-feature gradients (:func:`splitbus.runtime.bottom_backward`).
"""

from __future__ import annotations

import numpy as np

from . import nn
from .config import TrainConfig
from .data import Task, VerticalDataset
from .metrics import auc_score, rmse
from .privacy import add_noise, worker_noise_rng
from .runtime import (
    _SEED_NOISE,
    batch_loss_mean,
    bottom_backward,
    build_models,
    derive_seed,
    evaluate_models,
    noise_sigma,
    plan_for_epoch,
    top_input,
)


def run_reference(
    train: VerticalDataset,
    test: VerticalDataset | None,
    cfg: TrainConfig,
) -> dict:
    """Serial training; returns per-epoch losses, metrics and final models."""
    n = train.num_rows
    passive, active, top = build_models(
        cfg.shape, train.active_features.shape[1], train.passive_features.shape[1],
        train.task, cfg.seed,
    )
    sigma = noise_sigma(cfg, n)
    noise_rng = worker_noise_rng(derive_seed(cfg.seed, _SEED_NOISE), 0)
    embed_cols = active.out_dim

    epoch_losses: list[float] = []
    epoch_metrics: list[float | None] = []
    for epoch in range(1, cfg.epochs + 1):
        plan = plan_for_epoch(n, cfg.batch_size, cfg.seed, epoch)
        losses: list[tuple[int, float]] = []
        for batch in plan.batches:
            x_passive = train.passive_features[batch.indices]
            x_active = train.active_features[batch.indices]
            y = train.labels[batch.indices]

            z_passive, tape_passive = nn.forward(passive, x_passive)
            z_passive = add_noise(z_passive, sigma, noise_rng)
            z_active, tape_active = nn.forward(active, x_active)
            predictions, tape_top = nn.forward(top, top_input(top, z_active, z_passive))
            if train.task is Task.CLASSIFICATION:
                loss, d_pred = nn.cross_entropy_loss(predictions, y)
            else:
                loss, d_pred = nn.mse_loss(predictions, y)
            top_grads, d_top_input = nn.backward(top, tape_top, d_pred)
            d_z_active = d_top_input[:, :embed_cols]
            d_z_passive = np.ascontiguousarray(d_top_input[:, embed_cols:])
            active_grads = bottom_backward(active, tape_active, d_z_active)
            nn.sgd_step(top, top_grads, cfg.learning_rate)
            nn.sgd_step(active, active_grads, cfg.learning_rate)
            passive_grads = bottom_backward(passive, tape_passive, d_z_passive)
            nn.sgd_step(passive, passive_grads, cfg.learning_rate)
            losses.append((batch.batch_id, loss))
        epoch_losses.append(batch_loss_mean(losses))
        epoch_metrics.append(
            evaluate_models(passive, active, top, test) if test is not None else None
        )
        if cfg.loss_target is not None and epoch_losses[-1] <= cfg.loss_target:
            break

    return {
        "epoch_train_losses": epoch_losses,
        "epoch_test_metrics": epoch_metrics,
        "noise_sigma": sigma,
        "models": {"passive_bottom": passive, "active_bottom": active, "top": top},
    }
