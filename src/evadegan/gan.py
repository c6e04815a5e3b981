"""Adversarial traffic generator and critic, with the training loop.

The generator takes an encoded attack record concatenated with a uniform
noise vector and emits a full 41-dim replacement; the constraint mask then
keeps every functional feature at its original value, so only permitted
positions ever change. The critic is a Wasserstein-style scorer trained to
separate what the black-box detector labels normal from what it labels
attack; its mean-score gap drives the generator toward traffic the detector
waves through.

Two variants of every adversarial batch exist: a continuous one (binary
features left fractional) that feeds the critic so gradients stay defined,
and a discrete one (binary features snapped to {0,1}) that is shown to the
detector and used for every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import detectors, nn
from .masks import FeatureMask, apply_mask_batch, postprocess
from .nslkdd import N_FEATURES, FeatureSchema


class TrainingDiverged(RuntimeError):
    """Raised when losses or parameters stop being finite."""


class EmptyPartition(ValueError):
    """Raised when a critic batch has no predicted-normal or no predicted-attack rows."""


class TooFewAttacks(ValueError):
    """Raised when an attack group cannot spare a probe slice and still train."""


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 100
    lr_g: float = 1e-4
    lr_d: float = 1e-4
    clip_c: float = 0.01
    noise_dim: int = 9
    g_steps: int = 1
    d_steps: int = 1
    seed: int = 0
    gen_hidden: tuple = (64, 96, 96, 64)
    critic_hidden: tuple = (64, 32)
    rmsprop_rho: float = 0.99
    rmsprop_epsilon: float = 1e-8
    probe_size: int = 256

    def validate(self) -> None:
        for name in ("batch_size", "epochs", "noise_dim", "g_steps", "d_steps", "probe_size"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        for name in ("lr_g", "lr_d", "clip_c", "rmsprop_rho", "rmsprop_epsilon"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not np.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
        for name in ("gen_hidden", "critic_hidden"):
            if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in getattr(self, name)):
                raise ValueError(f"{name} must be integers >= 1")
        for name in ("batch_size", "lr_g", "lr_d", "clip_c", "noise_dim", "rmsprop_epsilon"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0 or self.g_steps < 1 or self.d_steps < 1 or self.probe_size < 1:
            raise ValueError("epochs must be >= 0, g_steps/d_steps/probe_size >= 1")
        if not 0 <= self.rmsprop_rho < 1:
            raise ValueError("rmsprop_rho must lie in [0, 1)")


@dataclass
class EpochStats:
    """One epoch's trace row.

    ``critic_updates`` counts the d-steps that updated the critic and
    ``skipped_critic_updates`` those skipped because the detector gave their
    whole batch one label; ``loss_d`` is NaN exactly when no d-step updated.
    """

    epoch: int
    loss_g: float
    loss_d: float
    probe_adv_dr: float
    critic_updates: int = 0
    skipped_critic_updates: int = 0


@dataclass
class TrainData:
    """Encoded generator-half traffic: normal records plus one attack group.

    ``normal_labels`` holds the detector's label for each normal record.
    The normals never change during training, so they are labelled once,
    outside the loop.
    """

    normals: np.ndarray
    normal_labels: np.ndarray
    attacks: np.ndarray


def build_generator(config: TrainConfig, rng: np.random.Generator) -> nn.Network:
    dims = (N_FEATURES + config.noise_dim, *config.gen_hidden, N_FEATURES)
    return nn.Network(dims, rng)


def build_critic(config: TrainConfig, rng: np.random.Generator) -> nn.Network:
    dims = (N_FEATURES, *config.critic_hidden, 1)
    return nn.Network(dims, rng)


def _masked_forward(gen, originals, mask, noise, cache=False):
    """Run the generator and constrain its output.

    Returns (raw network output, continuous masked batch).
    """
    net_in = np.concatenate([originals, noise], axis=1)
    raw = gen.forward(net_in, cache=cache)
    clamped = np.clip(raw, 0.0, 1.0)
    return raw, apply_mask_batch(originals, clamped, mask)


def _adversarial_forward(gen, originals, mask, schema, noise, cache=False):
    """Returns (raw network output, continuous masked batch, discrete batch)."""
    raw, continuous = _masked_forward(gen, originals, mask, noise, cache)
    return raw, continuous, postprocess(continuous, schema)


def generate(
    gen: nn.Network,
    originals: np.ndarray,
    mask: FeatureMask,
    schema: FeatureSchema,
    noise_rng: np.random.Generator,
):
    """Produce (continuous_batch, discrete_batch) adversarial versions.

    The continuous batch is the critic's view; the discrete batch is what
    detectors and evaluations consume. Frozen positions match the originals
    bit for bit in both.
    """
    originals = np.asarray(originals, dtype=float)
    noise = noise_rng.random((originals.shape[0], gen.dims[0] - N_FEATURES))
    _, continuous, discrete = _adversarial_forward(gen, originals, mask, schema, noise)
    return continuous, discrete


def _check_finite(*values) -> None:
    for v in values:
        if not np.all(np.isfinite(v)):
            raise TrainingDiverged("non-finite value during training")


def generator_step(gen, critic, optimizer, batch, mask, noise) -> float:
    """One generator update toward lower critic scores.

    Returns the loss: the critic's mean score over the masked continuous batch.
    """
    raw, continuous = _masked_forward(gen, batch, mask, noise, cache=True)
    scores = critic.forward(continuous, cache=True)
    loss = float(scores.mean())

    upstream = np.full((len(batch), 1), 1.0 / len(batch))
    grad_in = critic.backward(upstream, param_grads=False)
    # No gradient through frozen positions or saturated clamps.
    gate = mask.modifiable[None, :] & (raw > 0.0) & (raw < 1.0)
    gen.backward(grad_in * gate, input_grad=False)
    optimizer.step(gen.parameters())
    return loss


def critic_step(critic, optimizer, batch, pred_normal, clip_c) -> float:
    """One critic update on a batch partitioned by detector predictions.

    Returns the loss: the mean score of the predicted-normal rows minus that
    of the predicted-attack rows, both taken before the update.
    """
    n_pn = int(pred_normal.sum())
    n_pa = len(pred_normal) - n_pn
    if n_pn == 0 or n_pa == 0:
        raise EmptyPartition("critic batch is missing one predicted class")
    scores = critic.forward(batch, cache=True)
    loss = float(scores[pred_normal, 0].mean() - scores[~pred_normal, 0].mean())
    upstream = np.where(pred_normal[:, None], 1.0 / n_pn, -1.0 / n_pa)
    critic.backward(upstream, input_grad=False)
    optimizer.step(critic.parameters())
    nn.clip_network(critic, clip_c)
    return loss


def train(
    gen: nn.Network,
    critic: nn.Network,
    ids_model: detectors.ClassifierModel,
    data: TrainData,
    mask: FeatureMask,
    schema: FeatureSchema,
    config: TrainConfig,
) -> list:
    """Alternating generator/critic training against one black-box detector.

    Each outer iteration runs ``g_steps`` generator updates followed by
    ``d_steps`` critic updates. Critic batches mix normal traffic with
    freshly generated adversarial traffic and are partitioned by the
    detector's own predictions, never by ground truth: the normals by
    ``data.normal_labels``, the adversarial rows by a query. Critic
    parameters are clipped to ``[-clip_c, clip_c]`` after every critic step.
    The critic trains only on batches that hold both predicted classes; a
    batch the detector gives one label skips its update.

    Returns one EpochStats per epoch (generator loss, critic loss, critic
    updates, and the detection rate on a held-out probe slice of the
    training attacks).
    """
    config.validate()
    noise_dim = gen.dims[0] - N_FEATURES

    shuffle_rng = nn.make_rng(nn.derive_seed(config.seed, "shuffle"))
    noise_rng = nn.make_rng(nn.derive_seed(config.seed, "noise"))
    normal_rng = nn.make_rng(nn.derive_seed(config.seed, "normals"))
    probe_rng = nn.make_rng(nn.derive_seed(config.seed, "probe"))

    opt_g = nn.RmsProp(config.lr_g, config.rmsprop_rho, config.rmsprop_epsilon)
    opt_d = nn.RmsProp(config.lr_d, config.rmsprop_rho, config.rmsprop_epsilon)

    attacks = np.asarray(data.attacks, dtype=float)
    normals = np.asarray(data.normals, dtype=float)
    normal_labels = np.asarray(data.normal_labels)
    if normal_labels.shape != (len(normals),):
        raise ValueError("normal_labels must hold one label per normal record")

    # Hold out a probe slice from the training attacks for epoch monitoring:
    # a fifth of them, so at least 5 leave a probe row and rows to train on.
    if len(attacks) < 5:
        raise TooFewAttacks(f"{len(attacks)} attack records to train on; at least 5 are needed")
    probe_n = min(config.probe_size, len(attacks) // 5)
    order = shuffle_rng.permutation(len(attacks))
    probe = attacks[order[:probe_n]]
    train_attacks = attacks[order[probe_n:]]

    history = []
    for epoch in range(config.epochs):
        g_losses, d_losses = [], []
        skipped = 0
        order = shuffle_rng.permutation(len(train_attacks))
        for start in range(0, len(train_attacks), config.batch_size):
            batch = train_attacks[order[start : start + config.batch_size]]
            n_batch = len(batch)

            for _ in range(config.g_steps):
                noise = noise_rng.random((n_batch, noise_dim))
                g_losses.append(generator_step(gen, critic, opt_g, batch, mask, noise))

            for _ in range(config.d_steps):
                norm_idx = normal_rng.integers(0, len(normals), size=n_batch)
                noise = noise_rng.random((n_batch, noise_dim))
                _, adv_cont, adv_disc = _adversarial_forward(
                    gen, batch, mask, schema, noise
                )
                # Only the adversarial rows are new to the detector, which
                # sees them in their discrete form.
                labels = np.concatenate([normal_labels[norm_idx], ids_model.predict(adv_disc)])
                critic_view = np.vstack([normals[norm_idx], adv_cont])
                pred_normal = labels == detectors.LABEL_NORMAL
                try:
                    d_losses.append(
                        critic_step(critic, opt_d, critic_view, pred_normal, config.clip_c)
                    )
                except EmptyPartition:
                    skipped += 1

        loss_g = float(np.mean(g_losses)) if g_losses else float("nan")
        loss_d = float(np.mean(d_losses)) if d_losses else float("nan")
        probe_dr = _probe_detection_rate(gen, ids_model, probe, mask, schema, probe_rng)
        _check_finite([loss_g, 0.0 if np.isnan(loss_d) else loss_d], gen.params, critic.params)
        history.append(
            EpochStats(
                epoch=epoch,
                loss_g=loss_g,
                loss_d=loss_d,
                probe_adv_dr=probe_dr,
                critic_updates=len(d_losses),
                skipped_critic_updates=skipped,
            )
        )
    return history


def _probe_detection_rate(gen, ids_model, probe, mask, schema, probe_rng) -> float:
    _, disc = generate(gen, probe, mask, schema, probe_rng)
    labels = ids_model.predict(disc)
    return float((labels == detectors.LABEL_ATTACK).mean())


def write_trace_csv(path, history) -> None:
    """Per-epoch metrics as CSV: epoch, loss_g, loss_d, probe_adv_dr, critic_updates."""
    lines = ["epoch,loss_g,loss_d,probe_adv_dr,critic_updates"]
    for h in history:
        lines.append(
            f"{h.epoch},{h.loss_g!r},{h.loss_d!r},{h.probe_adv_dr!r},{h.critic_updates}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
