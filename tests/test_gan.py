"""Generator/critic losses, constrained generation, and the training loop."""

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
    critic_loss,
    critic_step,
    generate,
    generator_loss,
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
        got = critic_loss(critic, normal, attack)
        scores_n = critic.forward(normal, cache=False)[:, 0]
        scores_a = critic.forward(attack, cache=False)[:, 0]
        oracle = sum(scores_n) / len(scores_n) - sum(scores_a) / len(scores_a)
        assert abs(got - oracle) <= 1e-12

    def test_empty_partition(self):
        critic = constant_critic(0.0)
        with pytest.raises(EmptyPartition):
            critic_loss(critic, np.zeros((0, 41)), np.zeros((3, 41)))


class TestGeneratorLoss:
    def test_constant_critic(self):
        critic = constant_critic(-0.3)
        batch = nn.make_rng(5).random((6, 41))
        assert generator_loss(critic, batch) == pytest.approx(-0.3, abs=1e-12)

    def test_matches_mean_oracle(self):
        critic = nn.Network((41, 8, 1), nn.make_rng(6))
        batch = nn.make_rng(7).random((11, 41))
        scores = critic.forward(batch, cache=False)[:, 0]
        assert abs(generator_loss(critic, batch) - sum(scores) / len(scores)) <= 1e-12

    def test_constant_critic_gives_zero_generator_gradient(self, schema):
        config = TrainConfig(seed=0)
        gen = build_generator(config, nn.make_rng(8))
        critic = constant_critic(1.0)
        opt = nn.RmsProp(config.lr_g)
        mask = functional_mask(AttackCategory.DOS)
        batch = nn.make_rng(9).random((8, 41))
        noise = nn.make_rng(10).random((8, config.noise_dim))
        before = {k: v.copy() for k, v in gen.param_arrays().items()}
        generator_step(gen, critic, opt, batch, mask, schema, noise)
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
        critic.zero_grad()
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

    def test_category_mismatch(self, dos_setup, schema):
        _, attacks, mask, _ = dos_setup
        gen = build_generator(TrainConfig(), nn.make_rng(26))
        cats = [AttackCategory.U2R] * len(attacks)
        with pytest.raises(gan.CategoryMismatch):
            generate(gen, attacks, mask, schema, nn.make_rng(27), categories=cats)

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
            assert nn.max_abs_param(critic) <= 0.01 + 1e-15

    def test_empty_partition_raises(self):
        critic = build_critic(TrainConfig(), nn.make_rng(34))
        with pytest.raises(EmptyPartition):
            critic_step(critic, nn.RmsProp(), np.zeros((4, 41)), np.ones(4, dtype=bool), 0.01)


class TestTrain:
    def small_config(self, **kw):
        defaults = dict(epochs=4, seed=77, probe_size=64)
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_zero_epochs_leaves_networks_unchanged(self, dos_setup, schema):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config(epochs=0)
        gen = build_generator(config, nn.make_rng(40))
        critic = build_critic(config, nn.make_rng(41))
        g_before = {k: v.copy() for k, v in gen.param_arrays().items()}
        c_before = {k: v.copy() for k, v in critic.param_arrays().items()}
        history = train(gen, critic, ids_model, TrainData(normals, attacks), mask, schema, config)
        assert history == []
        assert all(np.array_equal(g_before[k], gen.param_arrays()[k]) for k in g_before)
        assert all(np.array_equal(c_before[k], critic.param_arrays()[k]) for k in c_before)

    def test_same_seed_identical_traces(self, dos_setup, schema):
        normals, attacks, mask, ids_model = dos_setup

        def run():
            config = self.small_config()
            gen = build_generator(config, nn.make_rng(42))
            critic = build_critic(config, nn.make_rng(43))
            history = train(
                gen, critic, ids_model, TrainData(normals, attacks), mask, schema, config
            )
            return history, gen.param_arrays()

        h1, p1 = run()
        h2, p2 = run()
        assert h1 == h2
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_critic_clipped_after_training(self, dos_setup, schema):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config()
        gen = build_generator(config, nn.make_rng(44))
        critic = build_critic(config, nn.make_rng(45))
        train(gen, critic, ids_model, TrainData(normals, attacks), mask, schema, config)
        assert nn.max_abs_param(critic) <= config.clip_c + 1e-15

    def test_adversarial_outputs_respect_mask_after_training(self, dos_setup, schema):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config()
        gen = build_generator(config, nn.make_rng(46))
        critic = build_critic(config, nn.make_rng(47))
        train(gen, critic, ids_model, TrainData(normals, attacks), mask, schema, config)
        sample = attacks[:100]
        cont, disc = generate(gen, sample, mask, schema, nn.make_rng(48))
        frozen = ~mask.modifiable
        assert np.array_equal(cont[:, frozen], sample[:, frozen])
        assert np.array_equal(disc[:, frozen], sample[:, frozen])

    def test_detection_rate_drops(self, dos_setup, schema):
        normals, attacks, mask, ids_model = dos_setup
        orig_dr = float((ids_model.predict(attacks) == detectors.LABEL_ATTACK).mean())
        config = self.small_config(epochs=40)
        gen = build_generator(config, nn.make_rng(49))
        critic = build_critic(config, nn.make_rng(50))
        train(gen, critic, ids_model, TrainData(normals, attacks), mask, schema, config)
        _, disc = generate(gen, attacks, mask, schema, nn.make_rng(51))
        adv_dr = float((ids_model.predict(disc) == detectors.LABEL_ATTACK).mean())
        assert orig_dr > 0.9  # sanity: the detector does catch raw attacks
        assert adv_dr <= 0.05

    def test_divergence_detected(self, dos_setup, schema):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config(epochs=2, lr_g=1e160)
        gen = build_generator(config, nn.make_rng(52))
        critic = build_critic(config, nn.make_rng(53))
        with pytest.raises(TrainingDiverged), np.errstate(all="ignore"):
            train(gen, critic, ids_model, TrainData(normals, attacks), mask, schema, config)

    def test_trace_csv_round_trip(self, dos_setup, schema, tmp_path):
        normals, attacks, mask, ids_model = dos_setup
        config = self.small_config(epochs=2)
        gen = build_generator(config, nn.make_rng(54))
        critic = build_critic(config, nn.make_rng(55))
        history = train(gen, critic, ids_model, TrainData(normals, attacks), mask, schema, config)
        gan.write_trace_csv(tmp_path / "trace.csv", history)
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss_g,loss_d,probe_adv_dr"
        assert len(lines) == 1 + len(history)