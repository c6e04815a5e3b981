"""Generator/critic losses, constrained generation, and the training loop."""

import csv

import numpy as np
import pytest

from evadegan import detectors, gan, nn
from evadegan.gan import (
    EmptyPartition,
    TrainConfig,
    TrainData,
    TrainingDiverged,
    build_critic,
    build_generator,
    critic_step,
    generate,
    generator_step,
    train,
)
from evadegan.masks import functional_mask
from evadegan.nslkdd import AttackCategory


def constant_critic(value: float) -> nn.Network:
    critic = nn.Network((41, 1), nn.make_rng(0))
    critic.layers[0].weights[:] = 0.0
    critic.layers[0].bias[:] = value
    return critic


def first_feature_critic() -> nn.Network:
    """D(x) = 2*x0 - 1: scores -1 when x0=0, +1 when x0=1."""
    critic = nn.Network((41, 1), nn.make_rng(0))
    critic.layers[0].weights[:] = 0.0
    critic.layers[0].weights[0, 0] = 2.0
    critic.layers[0].bias[:] = -1.0
    return critic


@pytest.fixture()
def dos_setup(encoded, schema):
    ids_X, ids_y, gan_X, gan_half = encoded
    normals = gan_X[gan_half.is_in((AttackCategory.NORMAL,))]
    attacks = gan_X[gan_half.is_in((AttackCategory.DOS,))]
    mask = functional_mask(AttackCategory.DOS)
    ids_model = detectors.fit("lr", ids_X, ids_y, seed=1)
    return normals, attacks, mask, ids_model


@pytest.fixture()
def dos_data(dos_setup):
    """dos_setup's traffic, its normals labelled by its detector once, as evaluate does."""
    normals, attacks, _, ids_model = dos_setup
    return TrainData(normals, ids_model.predict(normals), attacks)


class RecordingDetector:
    """A detector that keeps a copy of every batch it is asked to label."""

    def __init__(self, model):
        self.model = model
        self.queries = []

    def predict(self, X):
        self.queries.append(np.array(X, copy=True))
        return self.model.predict(X)


def critic_loss(critic, normal, attack) -> float:
    """The loss critic_step returns on predicted-normal rows, then predicted-attack rows."""
    pred_normal = np.arange(len(normal) + len(attack)) < len(normal)
    return critic_step(critic, nn.RmsProp(), np.vstack([normal, attack]), pred_normal, 0.01)


def generator_loss(critic, batch, schema, seed) -> tuple:
    """(loss generator_step returns, the masked continuous batch the critic scored)."""
    config = TrainConfig()
    gen = build_generator(config, nn.make_rng(seed))
    mask = functional_mask(AttackCategory.DOS)
    noise = nn.make_rng(seed + 1).random((len(batch), config.noise_dim))
    _, continuous, _ = gan._adversarial_forward(gen, batch, mask, schema, noise)
    loss = generator_step(gen, critic, nn.RmsProp(), batch, mask, noise)
    return loss, continuous


class TestCriticLoss:
    def test_constant_critic_gives_zero(self):
        critic = constant_critic(0.7)
        rng = nn.make_rng(1)
        loss = critic_loss(critic, rng.random((8, 41)), rng.random((5, 41)))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_hand_plus_minus_one(self):
        critic = first_feature_critic()
        normal = np.zeros((4, 41))
        attack = np.zeros((3, 41))
        attack[:, 0] = 1.0
        assert critic_loss(critic, normal, attack) == pytest.approx(-2.0, abs=1e-12)

    def test_matches_mean_difference_oracle(self):
        critic = nn.Network((41, 16, 1), nn.make_rng(3))
        rng = nn.make_rng(4)
        normal = rng.random((13, 41))
        attack = rng.random((9, 41))
        scores_n = critic.forward(normal, cache=False)[:, 0]
        scores_a = critic.forward(attack, cache=False)[:, 0]
        oracle = sum(scores_n) / len(scores_n) - sum(scores_a) / len(scores_a)
        got = critic_loss(critic, normal, attack)
        assert abs(got - oracle) <= 1e-12

    def test_empty_partition(self):
        critic = constant_critic(0.0)
        with pytest.raises(EmptyPartition):
            critic_step(critic, nn.RmsProp(), np.zeros((3, 41)), np.zeros(3, dtype=bool), 0.01)


class TestGeneratorLoss:
    def test_constant_critic(self, schema):
        critic = constant_critic(-0.3)
        batch = nn.make_rng(5).random((6, 41))
        loss, _ = generator_loss(critic, batch, schema, seed=15)
        assert loss == pytest.approx(-0.3, abs=1e-12)

    def test_matches_mean_oracle(self, schema):
        critic = nn.Network((41, 8, 1), nn.make_rng(6))
        batch = nn.make_rng(7).random((11, 41))
        loss, continuous = generator_loss(critic, batch, schema, seed=16)
        scores = critic.forward(continuous, cache=False)[:, 0]
        assert abs(loss - sum(scores) / len(scores)) <= 1e-12

    def test_constant_critic_gives_zero_generator_gradient(self):
        config = TrainConfig(seed=0)
        gen = build_generator(config, nn.make_rng(8))
        critic = constant_critic(1.0)
        opt = nn.RmsProp(config.lr_g)
        mask = functional_mask(AttackCategory.DOS)
        batch = nn.make_rng(9).random((8, 41))
        noise = nn.make_rng(10).random((8, config.noise_dim))
        before = {k: v.copy() for k, v in gen.param_arrays().items()}
        generator_step(gen, critic, opt, batch, mask, noise)
        after = gen.param_arrays()
        for key in before:
            assert np.array_equal(before[key], after[key])

    def test_zero_gradient_at_frozen_positions(self, schema):
        config = TrainConfig(seed=0)
        gen = build_generator(config, nn.make_rng(11))
        critic = build_critic(config, nn.make_rng(12))
        mask = functional_mask(AttackCategory.DOS)
        batch = nn.make_rng(13).random((8, 41))
        noise = nn.make_rng(14).random((8, config.noise_dim))

        raw, continuous, _ = gan._adversarial_forward(
            gen, batch, mask, schema, noise, cache=True
        )
        critic.forward(continuous, cache=True)
        grad_in = critic.backward(np.full((8, 1), 1.0 / 8))
        gate = mask.modifiable[None, :] & (raw > 0.0) & (raw < 1.0)
        gated = grad_in * gate
        assert np.all(gated[:, ~mask.modifiable] == 0.0)
        # and the loss is genuinely independent of frozen raw outputs
        raw2 = raw.copy()
        raw2[:, ~mask.modifiable] += 123.0
        from evadegan.masks import apply_mask_batch

        cont2 = apply_mask_batch(batch, np.clip(raw2, 0.0, 1.0), mask)
        assert np.array_equal(cont2, continuous)


class TestGenerate:
    def test_frozen_positions_bit_identical(self, dos_setup, schema):
        _, attacks, mask, _ = dos_setup
        config = TrainConfig()
        gen = build_generator(config, nn.make_rng(20))
        cont, disc = generate(gen, attacks, mask, schema, nn.make_rng(21))
        frozen = ~mask.modifiable
        assert np.array_equal(cont[:, frozen], attacks[:, frozen])
        assert np.array_equal(disc[:, frozen], attacks[:, frozen])

    def test_discrete_binary_features(self, dos_setup, schema):
        _, attacks, mask, _ = dos_setup
        gen = build_generator(TrainConfig(), nn.make_rng(22))
        _, disc = generate(gen, attacks, mask, schema, nn.make_rng(23))
        for i in schema.binary_indices:
            assert np.isin(disc[:, i], (0.0, 1.0)).all()
        assert disc.min() >= 0.0 and disc.max() <= 1.0

    def test_deterministic_given_seed(self, dos_setup, schema):
        _, attacks, mask, _ = dos_setup
        gen = build_generator(TrainConfig(), nn.make_rng(24))
        out1 = generate(gen, attacks, mask, schema, nn.make_rng(25))
        out2 = generate(gen, attacks, mask, schema, nn.make_rng(25))
        assert np.array_equal(out1[0], out2[0])
        assert np.array_equal(out1[1], out2[1])

    def test_generator_shape_contract(self):
        config = TrainConfig()
        gen = build_generator(config, nn.make_rng(28))
        assert len(gen.layers) == 5
        assert gen.dims[0] == 41 + config.noise_dim == 50
        assert gen.dims[-1] == 41


class TestCriticStep:
    def test_gap_non_increasing_on_frozen_batch(self):
        rng = nn.make_rng(30)
        critic = build_critic(TrainConfig(), nn.make_rng(31))
        opt = nn.RmsProp(1e-3)
        batch = rng.random((64, 41))
        pred_normal = rng.random(64) < 0.5
        losses = [critic_step(critic, opt, batch, pred_normal, 0.01) for _ in range(40)]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_clip_after_every_step(self):
        rng = nn.make_rng(32)
        critic = build_critic(TrainConfig(), nn.make_rng(33))
        opt = nn.RmsProp(0.1)  # deliberately large steps
        batch = rng.random((32, 41))
        pred_normal = rng.random(32) < 0.5
        for _ in range(10):
            critic_step(critic, opt, batch, pred_normal, 0.01)
            assert np.abs(critic.params).max() <= 0.01 + 1e-15

    def test_empty_partition_raises(self):
        critic = build_critic(TrainConfig(), nn.make_rng(34))
        with pytest.raises(EmptyPartition):
            critic_step(critic, nn.RmsProp(), np.zeros((4, 41)), np.ones(4, dtype=bool), 0.01)


class TestTrain:
    def small_config(self, **kw):
        defaults = dict(epochs=4, seed=77, probe_size=64)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_zero_epochs_leaves_networks_unchanged(self, dos_setup, dos_data, schema):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config(epochs=0)
        gen = build_generator(config, nn.make_rng(40))
        critic = build_critic(config, nn.make_rng(41))
        g_before = {k: v.copy() for k, v in gen.param_arrays().items()}
        c_before = {k: v.copy() for k, v in critic.param_arrays().items()}
        history = train(gen, critic, ids_model, dos_data, mask, schema, config)
        assert history == []
        assert all(np.array_equal(g_before[k], gen.param_arrays()[k]) for k in g_before)
        assert all(np.array_equal(c_before[k], critic.param_arrays()[k]) for k in c_before)

    def test_same_seed_identical_traces(self, dos_setup, dos_data, schema):
        normals, attacks, mask, ids_model = dos_setup

        def run():
            config = self.small_config()
            gen = build_generator(config, nn.make_rng(42))
            critic = build_critic(config, nn.make_rng(43))
            history = train(gen, critic, ids_model, dos_data, mask, schema, config)
            return history, gen.param_arrays()

        h1, p1 = run()
        h2, p2 = run()
        assert h1 == h2
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_critic_clipped_after_training(self, dos_setup, dos_data, schema):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config()
        gen = build_generator(config, nn.make_rng(44))
        critic = build_critic(config, nn.make_rng(45))
        train(gen, critic, ids_model, dos_data, mask, schema, config)
        assert np.abs(critic.params).max() <= config.clip_c + 1e-15

    def test_adversarial_outputs_respect_mask_after_training(self, dos_setup, dos_data, schema):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config()
        gen = build_generator(config, nn.make_rng(46))
        critic = build_critic(config, nn.make_rng(47))
        train(gen, critic, ids_model, dos_data, mask, schema, config)
        sample = attacks[:100]
        cont, disc = generate(gen, sample, mask, schema, nn.make_rng(48))
        frozen = ~mask.modifiable
        assert np.array_equal(cont[:, frozen], sample[:, frozen])
        assert np.array_equal(disc[:, frozen], sample[:, frozen])

    def test_detection_rate_drops(self, dos_setup, dos_data, schema):
        normals, attacks, mask, ids_model = dos_setup
        orig_dr = float((ids_model.predict(attacks) == detectors.LABEL_ATTACK).mean())
        config = self.small_config(epochs=40)
        gen = build_generator(config, nn.make_rng(49))
        critic = build_critic(config, nn.make_rng(50))
        train(gen, critic, ids_model, dos_data, mask, schema, config)
        _, disc = generate(gen, attacks, mask, schema, nn.make_rng(51))
        adv_dr = float((ids_model.predict(disc) == detectors.LABEL_ATTACK).mean())
        assert orig_dr > 0.9  # sanity: the detector does catch raw attacks
        assert adv_dr <= 0.05

    def test_divergence_detected(self, dos_setup, dos_data, schema):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config(epochs=2, lr_g=1e160)
        gen = build_generator(config, nn.make_rng(52))
        critic = build_critic(config, nn.make_rng(53))
        with pytest.raises(TrainingDiverged), np.errstate(all="ignore"):
            train(gen, critic, ids_model, dos_data, mask, schema, config)

    def test_d_steps_query_only_the_adversarial_rows(self, dos_setup, dos_data, schema, monkeypatch):
        normals, attacks, mask, ids_model = dos_setup
        discrete = []  # every discrete adversarial batch gan.train makes, in order
        real_forward = gan._adversarial_forward

        def recording_forward(*args, **kwargs):
            out = real_forward(*args, **kwargs)
            discrete.append(out[2].copy())
            return out

        monkeypatch.setattr(gan, "_adversarial_forward", recording_forward)
        detector = RecordingDetector(ids_model)
        config = self.small_config(epochs=2)
        gen = build_generator(config, nn.make_rng(56))
        critic = build_critic(config, nn.make_rng(57))
        train(gen, critic, detector, dos_data, mask, schema, config)

        # each epoch: one query per d-step (one per batch), then the probe's
        probe_n = min(config.probe_size, len(attacks) // 5)
        n_train = len(attacks) - probe_n
        epoch = [min(config.batch_size, n_train - s) for s in range(0, n_train, config.batch_size)]
        assert [len(q) for q in detector.queries] == (epoch + [probe_n]) * config.epochs
        assert len(discrete) == len(detector.queries)
        for asked, adversarial in zip(detector.queries, discrete):
            assert np.array_equal(asked, adversarial)

    def test_normal_labels_must_match_normals(self, dos_setup, schema):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config(epochs=1)
        data = TrainData(normals, ids_model.predict(normals)[:-1], attacks)
        gen = build_generator(config, nn.make_rng(58))
        critic = build_critic(config, nn.make_rng(59))
        with pytest.raises(ValueError, match="one label per normal"):
            train(gen, critic, ids_model, data, mask, schema, config)

    def test_needs_five_attack_records(self, dos_setup, dos_data, schema):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config(epochs=1)
        for n in (0, 4):
            data = TrainData(dos_data.normals, dos_data.normal_labels, attacks[:n])
            gen = build_generator(config, nn.make_rng(60))
            critic = build_critic(config, nn.make_rng(61))
            with pytest.raises(gan.TooFewAttacks, match=f"^{n} attack records"):
                train(gen, critic, ids_model, data, mask, schema, config)
        data = TrainData(dos_data.normals, dos_data.normal_labels, attacks[:5])
        (stats,) = train(gen, critic, ids_model, data, mask, schema, config)
        assert np.isfinite(stats.probe_adv_dr)

    def test_trace_csv_round_trip(self, dos_setup, dos_data, schema, tmp_path):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config(epochs=2)
        gen = build_generator(config, nn.make_rng(54))
        critic = build_critic(config, nn.make_rng(55))
        history = train(gen, critic, ids_model, dos_data, mask, schema, config)
        gan.write_trace_csv(tmp_path / "trace.csv", history)
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss_g,loss_d,probe_adv_dr,critic_updates"
        assert len(lines) == 1 + len(history)
    def test_nan_critic_loss_means_no_critic_update(self, dos_setup, schema, tmp_path):
        """At 100 epochs, every NaN loss_d in the trace sits on a row with critic_updates 0."""
        normals, attacks, mask, _ = dos_setup
        rng = np.random.default_rng(3)

        class CoinDetector:
            """Labels each whole batch normal or attack on a coin flip."""

            def predict(self, X):
                label = detectors.LABEL_ATTACK if rng.random() < 0.4 else detectors.LABEL_NORMAL
                return np.full(len(X), label)

        config = self.small_config(epochs=100, d_steps=2)
        # 20 attack rows: 4 probe rows and one batch of 16, so 2 d-steps an epoch.
        data = TrainData(normals, np.full(len(normals), detectors.LABEL_NORMAL), attacks[:20])
        gen = build_generator(config, nn.make_rng(62))
        critic = build_critic(config, nn.make_rng(63))
        history = train(gen, critic, CoinDetector(), data, mask, schema, config)
        assert [h.critic_updates + h.skipped_critic_updates for h in history] == [2] * 100
        assert {h.critic_updates for h in history} == {0, 1, 2}

        gan.write_trace_csv(tmp_path / "trace.csv", history)
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        for row in rows:
            assert np.isnan(float(row["loss_d"])) == (int(row["critic_updates"]) == 0), row
