"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 measure evasion quality on the real NSL-KDD benchmark and run
only when NSLKDD_DIR points at KDDTrain+.txt / KDDTest+.txt (they train the
full 28-cell grid at full-scale settings; expect a couple of hours on one
core, or set EVADEGAN_ACCEPT_JOBS to parallelize cells). Criteria 5-8 are
dataset-independent property suites and always run, using the bundled
synthetic corpus where traffic is needed.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os

import numpy as np
import pytest

from evadegan import detectors, evaluate, gan, nn, nslkdd
from evadegan.evaluate import (
    ExperimentConfig,
    UndefinedEIR,
    detection_rate,
    evasion_increase_rate,
    run_experiment,
)
from evadegan.masks import FUNCTIONAL_ONLY, mask_for
from evadegan.nslkdd import AttackCategory

from conftest import real_dataset_dir, requires_real_dataset


def report_line(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# criteria 1-4: quantitative evasion on the real benchmark


@pytest.fixture(scope="module")
def real_grid():
    """Full 7x2x2 grid on real NSL-KDD at full-scale default hyperparameters."""
    data = real_dataset_dir()
    if data is None:
        pytest.skip("real NSL-KDD not available (set NSLKDD_DIR)")
    config = ExperimentConfig(
        train_path=str(data / "KDDTrain+.txt"),
        test_path=str(data / "KDDTest+.txt"),
        master_seed=int(os.environ.get("EVADEGAN_ACCEPT_SEED", "42")),
        algorithms=detectors.ALGORITHMS,
        attacks=("dos", "u2r_r2l"),
        settings=("functional_only", "ablation"),
        gan=gan.TrainConfig(),  # defaults: 100 epochs, batch 64, lr 1e-4
        jobs=int(os.environ.get("EVADEGAN_ACCEPT_JOBS", "1")),
    )
    result = run_experiment(config)
    out = os.environ.get("EVADEGAN_ACCEPT_REPORT")
    if out:
        result.report.write_csv(out)
    return result


def _rows(result, attack, setting):
    return [
        r for r in result.report.rows if r.attack == attack and r.setting == setting
    ]


@requires_real_dataset
def test_c1_functional_dos_evasion(real_grid):
    rows = _rows(real_grid, "dos", "functional_only")
    assert len(rows) == 7
    good = [r for r in rows if r.adversarial_dr <= 0.05 and r.eir is not None and r.eir >= 0.90]
    detail = ", ".join(
        f"{r.algorithm}: adv {100 * r.adversarial_dr:.2f}% eir {100 * (r.eir or 0):.2f}%"
        for r in rows
    )
    ok = len(good) >= 5
    report_line("C1 functional-only DoS evasion", ok, f"{len(good)}/7 pass; {detail}")
    assert ok


@requires_real_dataset
def test_c2_functional_u2r_r2l_evasion(real_grid):
    rows = _rows(real_grid, "u2r_r2l", "functional_only")
    assert len(rows) == 7
    good = [r for r in rows if r.adversarial_dr <= 0.01]
    judged = [r for r in rows if r.original_dr >= 0.02]
    detail = (
        f"{len(good)}/7 adv DR <= 1%; EIR judged on {len(judged)} rows with orig DR >= 2%"
    )
    ok = len(good) >= 5
    report_line("C2 functional-only U2R&R2L evasion", ok, detail)
    assert ok


@requires_real_dataset
def test_c3_original_dos_dr_sane(real_grid):
    rows = _rows(real_grid, "dos", "functional_only") + _rows(real_grid, "dos", "ablation")
    bad = [r for r in rows if not 0.65 <= r.original_dr <= 0.90]
    detail = ", ".join(f"{r.algorithm}/{r.setting}: {100 * r.original_dr:.2f}%" for r in rows)
    ok = not bad
    report_line("C3 original DoS DR in [65%, 90%]", ok, detail)
    assert ok


@requires_real_dataset
def test_c4_ablation_reduces_or_maintains_eir(real_grid):
    wins = 0
    cells = []
    for attack in ("dos", "u2r_r2l"):
        for algorithm in detectors.ALGORITHMS:
            fun = next(
                r
                for r in _rows(real_grid, attack, "functional_only")
                if r.algorithm == algorithm
            )
            abl = next(
                r for r in _rows(real_grid, attack, "ablation") if r.algorithm == algorithm
            )
            comparable = fun.eir is not None and abl.eir is not None
            win = comparable and abl.eir <= fun.eir + 1e-12
            wins += int(win)
            cells.append(f"{algorithm}/{attack}: {'<=' if win else '>'}")
    ok = wins >= 12
    report_line("C4 ablation EIR direction", ok, f"{wins}/14 cells; " + ", ".join(cells))
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: constraint suite on sampled adversarial records


@pytest.fixture(scope="module")
def trained_generators(corpus_dir):
    """One trained (generator, mask, originals) per attack group."""
    records = nslkdd.load_file(corpus_dir / "train.txt")
    ids_half, gan_half = nslkdd.split_train(records, seed=42)
    schema = nslkdd.build_schema(ids_half)
    ids_X = nslkdd.encode_batch(ids_half, schema)
    ids_y = evaluate.detector_labels(ids_half)
    gan_X = nslkdd.encode_batch(gan_half, schema)
    normals = gan_X[gan_half.is_in((AttackCategory.NORMAL,))]
    ids_model = detectors.fit("lr", ids_X, ids_y, seed=7)

    out = {}
    for attack, categories in (("dos", (AttackCategory.DOS,)),
                               ("u2r_r2l", (AttackCategory.U2R, AttackCategory.R2L))):
        attacks = gan_X[gan_half.is_in(categories)]
        mask = mask_for(categories[0], FUNCTIONAL_ONLY)
        config = gan.TrainConfig(epochs=8, probe_size=32)
        generator = gan.build_generator(config, nn.make_rng(nn.derive_seed(13, attack, "g")))
        critic = gan.build_critic(config, nn.make_rng(nn.derive_seed(13, attack, "c")))
        data = gan.TrainData(normals, ids_model.predict(normals), attacks)
        gan.train(generator, critic, ids_model, data, mask, schema, config, 13)
        out[attack] = (generator, mask, attacks)
    return schema, out


def test_c5_constraint_suite_10k_records(trained_generators):
    schema, per_attack = trained_generators
    n_samples = 10_000
    failures = []
    for attack, (generator, mask, attacks) in per_attack.items():
        rng = nn.make_rng(nn.derive_seed(99, attack))
        idx = rng.integers(0, len(attacks), size=n_samples)
        originals = attacks[idx]
        cont, disc = gan.generate(generator, originals, mask, schema, rng)
        frozen = ~mask.modifiable
        if not np.array_equal(disc[:, frozen], originals[:, frozen]):
            failures.append(f"{attack}: frozen features changed")
        if not np.array_equal(cont[:, frozen], originals[:, frozen]):
            failures.append(f"{attack}: frozen features changed (continuous)")
        if disc.min() < 0.0 or disc.max() > 1.0:
            failures.append(f"{attack}: range violation")
        binary = list(schema.binary_indices)
        if not np.isin(disc[:, binary], (0.0, 1.0)).all():
            failures.append(f"{attack}: non-binary discrete feature")
    ok = not failures
    report_line(
        "C5 constraint suite",
        ok,
        f"{n_samples} adversarial records per group, "
        + ("zero violations" if ok else "; ".join(failures)),
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: numerical suite


def test_c6_numerical_suite():
    problems = []

    # finite-difference gradient checks for every pipeline layer configuration
    for dims in [(50, 64, 96, 96, 64, 41), (41, 64, 32, 1), (41, 64, 32, 2)]:
        rng = nn.make_rng(hash(dims) % (2**32))
        net = nn.Network(dims, rng)
        x = rng.random((3, dims[0]))
        target = rng.normal(size=(3, dims[-1]))
        net.forward(x)
        net.backward(2.0 * (net.forward(x) - target))

        def loss():
            return float(((net.forward(x, cache=False) - target) ** 2).sum())

        h = 1e-5
        for layer in net.layers:
            for param, grad in ((layer.weights, layer.grad_weights),
                                (layer.bias, layer.grad_bias)):
                flat_p, flat_g = param.reshape(-1), grad.reshape(-1)
                for i in rng.choice(flat_p.size, size=min(6, flat_p.size), replace=False):
                    orig = flat_p[i]
                    flat_p[i] = orig + h
                    up = loss()
                    flat_p[i] = orig - h
                    down = loss()
                    flat_p[i] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-8)
                    if rel > 1e-4:
                        problems.append(f"gradcheck {dims} rel {rel:.2e}")

    # critic parameters stay inside the clip box after updates
    critic = gan.build_critic(gan.TrainConfig(), nn.make_rng(1))
    opt = nn.RmsProp(0.05)
    rng = nn.make_rng(2)
    batch = rng.random((32, 41))
    pred_normal = rng.random(32) < 0.5
    for _ in range(25):
        gan.critic_step(critic, opt, batch, pred_normal, 0.01)
        if np.abs(critic.params).max() > 0.01 + 1e-15:
            problems.append("critic parameter escaped clip box")

    # RMSProp recurrence against a scripted oracle
    p = np.array([0.25])
    opt = nn.RmsProp(learning_rate=1e-4, rho=0.99, epsilon=1e-8)
    cache, q = 0.0, 0.25
    rng = nn.make_rng(3)
    for _ in range(50):
        g = float(rng.normal())
        opt.step(p, np.array([g]))
        cache = 0.99 * cache + 0.01 * g * g
        q -= 1e-4 * g / (np.sqrt(cache) + 1e-8)
        if abs(p[0] - q) > 1e-12:
            problems.append("rmsprop recurrence drift")

    # the losses the step functions return against mean / mean-difference oracles
    critic = nn.Network((41, 16, 1), nn.make_rng(4))
    rng = nn.make_rng(5)
    normal, attack = rng.random((10, 41)), rng.random((12, 41))
    config = gan.TrainConfig()
    generator = gan.build_generator(config, nn.make_rng(6))
    mask = mask_for(AttackCategory.DOS, FUNCTIONAL_ONLY)
    noise = rng.random((len(attack), config.noise_dim))
    _, adversarial = gan._masked_forward(generator, attack, mask, noise)
    adversarial_mean = critic.forward(adversarial, cache=False)[:, 0].mean()
    loss_g = gan.generator_step(generator, critic, nn.RmsProp(), attack, mask, noise)
    if abs(loss_g - adversarial_mean) > 1e-12:
        problems.append("generator loss oracle mismatch")
    sn = critic.forward(normal, cache=False)[:, 0]
    sa = critic.forward(attack, cache=False)[:, 0]
    pred_normal = np.arange(len(normal) + len(attack)) < len(normal)
    loss_d = gan.critic_step(critic, nn.RmsProp(), np.vstack([normal, attack]), pred_normal, 0.01)
    if abs(loss_d - (sn.mean() - sa.mean())) > 1e-12:
        problems.append("critic loss oracle mismatch")

    ok = not problems
    report_line("C6 numerical suite", ok, "all checks" if ok else "; ".join(problems))
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: metric suite


def test_c7_metric_suite():
    problems = []
    preds = np.array([detectors.LABEL_ATTACK] * 8237 + [detectors.LABEL_NORMAL] * 1763)
    if detection_rate(preds) != 8237 / 10000:
        problems.append("DR arithmetic")
    if detection_rate(np.full(10, detectors.LABEL_NORMAL)) != 0.0:
        problems.append("DR zero case")
    if detection_rate(np.full(10, detectors.LABEL_ATTACK)) != 1.0:
        problems.append("DR one case")
    if abs(evasion_increase_rate(0.8237, 0.0004) - (1 - 0.0004 / 0.8237)) > 1e-15:
        problems.append("EIR arithmetic")
    if evasion_increase_rate(0.5, 0.5) != 0.0:
        problems.append("EIR no-change case")
    if evasion_increase_rate(0.7, 0.0) != 1.0:
        problems.append("EIR full-evasion case")
    try:
        evasion_increase_rate(0.0, 0.1)
        problems.append("EIR accepted zero original DR")
    except UndefinedEIR:
        pass
    ok = not problems
    report_line("C7 metric suite", ok, "all checks" if ok else "; ".join(problems))
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: grid determinism


def test_c8_full_grid_byte_identical(corpus_dir, tmp_path):
    """Two full-grid runs, same master seed, byte-identical report CSVs.

    Runs the complete 7x2x2 grid; uses the synthetic corpus with shortened
    training so two passes stay test-sized (the code path is the same one
    the real grid takes).
    """
    config = ExperimentConfig(
        train_path=str(corpus_dir / "train.txt"),
        test_path=str(corpus_dir / "test.txt"),
        master_seed=4242,
        algorithms=detectors.ALGORITHMS,
        attacks=("dos", "u2r_r2l"),
        settings=("functional_only", "ablation"),
        gan=gan.TrainConfig(epochs=3, probe_size=32),
    )
    first = run_experiment(config)
    second = run_experiment(config)
    first.report.write_csv(tmp_path / "run1.csv")
    second.report.write_csv(tmp_path / "run2.csv")
    b1 = (tmp_path / "run1.csv").read_bytes()
    b2 = (tmp_path / "run2.csv").read_bytes()
    ok = b1 == b2 and len(first.report.rows) == 28
    report_line(
        "C8 determinism",
        ok,
        f"28-cell grid twice, reports {'identical' if b1 == b2 else 'differ'}",
    )
    assert ok