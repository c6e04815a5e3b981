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
from .masks import CategoryMismatch, FeatureMask, apply_mask_batch, postprocess
from .nslkdd import N_FEATURES, FeatureSchema


class TrainingDiverged(RuntimeError):
    """Raised when losses or parameters stop being finite."""


class EmptyPartition(ValueError):
    """Raised when a critic batch has no predicted-normal or no predicted-attack rows."""


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
        for name in ("batch_size", "lr_g", "lr_d", "clip_c", "noise_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0 or self.g_steps < 1 or self.d_steps < 1:
            raise ValueError("epochs must be >= 0, g_steps/d_steps >= 1")


@dataclass
class EpochStats:
    epoch: int
    loss_g: float
    loss_d: float
    probe_adv_dr: float
    skipped_critic_updates: int = 0


@dataclass
class TrainData:
    """Encoded generator-half traffic: normal records plus one attack group."""

    normals: np.ndarray
    attacks: np.ndarray


def build_generator(config: TrainConfig, rng: np.random.Generator) -> nn.Network:
    dims = (N_FEATURES + config.noise_dim, *config.gen_hidden, N_FEATURES)
    return nn.Network(dims, rng)


def build_critic(config: TrainConfig, rng: np.random.Generator) -> nn.Network:
    dims = (N_FEATURES, *config.critic_hidden, 1)
    return nn.Network(dims, rng)


def critic_scores(critic: nn.Network, batch: np.ndarray, cache: bool = False) -> np.ndarray:
    return critic.forward(np.asarray(batch, dtype=float), cache=cache)[:, 0]


def critic_loss(critic: nn.Network, pred_normal_batch, pred_attack_batch) -> float:
    """Mean critic score over predicted-normal rows minus predicted-attack rows."""
    pred_normal_batch = np.asarray(pred_normal_batch, dtype=float)
    pred_attack_batch = np.asarray(pred_attack_batch, dtype=float)
    if len(pred_normal_batch) == 0 or len(pred_attack_batch) == 0:
        raise EmptyPartition("critic batch is missing one predicted class")
    return float(
        critic_scores(critic, pred_normal_batch).mean()
        - critic_scores(critic, pred_attack_batch).mean()
    )


def generator_loss(critic: nn.Network, adversarial_batch) -> float:
    """Mean critic score of the (continuous) adversarial batch."""
    return float(critic_scores(critic, np.asarray(adversarial_batch, dtype=float)).mean())


def _adversarial_forward(gen, originals, mask, schema, noise, cache=False):
    """Run the generator and constrain its output.

    Returns (raw network output, continuous masked batch, discrete batch).
    """
    net_in = np.concatenate([originals, noise], axis=1)
    raw = gen.forward(net_in, cache=cache)
    clamped = np.clip(raw, 0.0, 1.0)
    continuous = apply_mask_batch(originals, clamped, mask)
    discrete = postprocess(continuous, schema)
    return raw, continuous, discrete


def generate(
    gen: nn.Network,
    originals: np.ndarray,
    mask: FeatureMask,
    schema: FeatureSchema,
    noise_rng: np.random.Generator,
    categories=None,
):
    """Produce (continuous_batch, discrete_batch) adversarial versions.

    The continuous batch is the critic's view; the discrete batch is what
    detectors and evaluations consume. Frozen positions match the originals
    bit for bit in both.
    """
    originals = np.asarray(originals, dtype=float)
    if categories is not None and any(c != mask.category for c in categories):
        raise CategoryMismatch(f"batch contains records outside {mask.category.value}")
    noise = noise_rng.random((originals.shape[0], gen.dims[0] - N_FEATURES))
    _, continuous, discrete = _adversarial_forward(gen, originals, mask, schema, noise)
    return continuous, discrete


def _check_finite(*values) -> None:
    for v in values:
        if not np.all(np.isfinite(v)):
            raise TrainingDiverged("non-finite value during training")


def generator_step(gen, critic, optimizer, batch, mask, schema, noise) -> float:
    """One generator update toward lower critic scores; returns the loss."""
    raw, continuous, _ = _adversarial_forward(gen, batch, mask, schema, noise, cache=True)
    scores = critic.forward(continuous, cache=True)
    loss = float(scores.mean())

    upstream = np.full((len(batch), 1), 1.0 / len(batch))
    critic.zero_grad()
    grad_in = critic.backward(upstream)
    critic.zero_grad()
    # No gradient through frozen positions or saturated clamps.
    gate = mask.modifiable[None, :] & (raw > 0.0) & (raw < 1.0)
    gen.zero_grad()
    gen.backward(grad_in * gate)
    optimizer.step(gen.parameters())
    return loss


def critic_step(critic, optimizer, batch, pred_normal, clip_c) -> float:
    """One critic update on a batch partitioned by detector predictions."""
    n_pn = int(pred_normal.sum())
    n_pa = len(pred_normal) - n_pn
    if n_pn == 0 or n_pa == 0:
        raise EmptyPartition("critic batch is missing one predicted class")
    scores = critic.forward(batch, cache=True)
    loss = float(scores[pred_normal, 0].mean() - scores[~pred_normal, 0].mean())
    upstream = np.where(pred_normal[:, None], 1.0 / n_pn, -1.0 / n_pa)
    critic.zero_grad()
    critic.backward(upstream)
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
    detector's own predictions, never by ground truth. Critic parameters
    are clipped to ``[-clip_c, clip_c]`` after every critic step.

    Returns one EpochStats per epoch (generator loss, critic loss, and the
    detection rate on a held-out probe slice of the training attacks).
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

    # Hold out a probe slice from the training attacks for epoch monitoring.
    probe_n = min(config.probe_size, len(attacks) // 5)
    order = shuffle_rng.permutation(len(attacks))
    probe = attacks[order[:probe_n]]
    train_attacks = attacks[order[probe_n:]]
    if len(train_attacks) == 0:
        raise ValueError("no attack records left to train on")

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
                g_losses.append(
                    generator_step(gen, critic, opt_g, batch, mask, schema, noise)
                )

            for _ in range(config.d_steps):
                norm_idx = normal_rng.integers(0, len(normals), size=n_batch)
                norm_batch = normals[norm_idx]
                noise = noise_rng.random((n_batch, noise_dim))
                _, adv_cont, adv_disc = _adversarial_forward(
                    gen, batch, mask, schema, noise
                )
                # The detector sees well-formed records: normals as encoded,
                # adversarial rows in their discrete form.
                ids_view = np.vstack([norm_batch, adv_disc])
                critic_view = np.vstack([norm_batch, adv_cont])
                labels = ids_model.predict(ids_view)
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
        _check_finite([loss_g], [0.0 if np.isnan(loss_d) else loss_d])
        for param, _ in list(gen.parameters()) + list(critic.parameters()):
            _check_finite(param)
        history.append(
            EpochStats(
                epoch=epoch,
                loss_g=loss_g,
                loss_d=loss_d,
                probe_adv_dr=probe_dr,
                skipped_critic_updates=skipped,
            )
        )
    return history


def _probe_detection_rate(gen, ids_model, probe, mask, schema, probe_rng) -> float:
    if len(probe) == 0:
        return float("nan")
    _, disc = generate(gen, probe, mask, schema, probe_rng)
    labels = ids_model.predict(disc)
    return float((labels == detectors.LABEL_ATTACK).mean())


def write_trace_csv(path, history) -> None:
    """Per-epoch metrics as CSV: epoch, loss_g, loss_d, probe_adv_dr."""
    lines = ["epoch,loss_g,loss_d,probe_adv_dr"]
    for h in history:
        lines.append(f"{h.epoch},{h.loss_g!r},{h.loss_d!r},{h.probe_adv_dr!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
