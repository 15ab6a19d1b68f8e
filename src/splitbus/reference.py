"""Single-process reference trainer.

Runs the same composed model (passive bottom + active bottom + top) as the
two-party runtime, but as a plain serial loop with no threads, broker or
parameter servers.  It shares the model construction, batch planning and
noise-stream derivation with the runtime, and each batch goes through the
runtime's own per-party steps (:func:`~splitbus.runtime.passive_forward`,
:func:`~splitbus.runtime.active_step`, :func:`~splitbus.runtime.passive_update`),
so the arithmetic is the runtime's by construction and what this loop
checks is the choreography: the plan, the noise stream, the ordering and
the averaging.  A cooperative single-worker run of the runtime must
reproduce its per-epoch losses bit for bit — any divergence points at a
runtime bug, not at floating-point noise.
"""

from __future__ import annotations

from . import nn
from .config import TrainConfig
from .data import VerticalDataset
from .privacy import worker_noise_rng
from .runtime import (
    _SEED_NOISE,
    active_step,
    batch_loss_mean,
    build_models,
    derive_seed,
    evaluate_models,
    noise_sigma,
    passive_forward,
    passive_update,
    plan_for_epoch,
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

    epoch_losses: list[float] = []
    epoch_metrics: list[float | None] = []
    for epoch in range(1, cfg.epochs + 1):
        plan = plan_for_epoch(n, cfg.batch_size, cfg.seed, epoch)
        losses: list[tuple[int, float]] = []
        for batch in plan.batches:
            z_passive, tape_passive = passive_forward(
                passive, train.passive_features[batch.indices], sigma, noise_rng
            )
            bottom_out = nn.forward(active, train.active_features[batch.indices])
            sent: list = []
            loss = active_step(active, top, bottom_out, z_passive, train.labels[batch.indices],
                               train.task, cfg.learning_rate, sent.append)
            passive_update(passive, tape_passive, sent[0], cfg.learning_rate)
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
