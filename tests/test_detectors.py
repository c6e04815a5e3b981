"""The seven black-box detectors: contracts, oracles, determinism, memory."""

import gc
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evadegan import detectors
from evadegan.detectors import (
    ALGORITHMS,
    LABEL_ATTACK,
    LABEL_NORMAL,
    SchemaMismatch,
    SingleClassData,
    fit,
    save_model,
)


@pytest.fixture(scope="module")
def toy_data():
    """Two well-separated Gaussian blobs in 41 dims."""
    rng = np.random.default_rng(1234)
    n = 120
    normal = rng.normal(0.25, 0.05, size=(n, 41)).clip(0, 1)
    attack = rng.normal(0.75, 0.05, size=(n, 41)).clip(0, 1)
    X = np.vstack([normal, attack])
    y = np.array([LABEL_NORMAL] * n + [LABEL_ATTACK] * n)
    return X, y


class TestFitContract:
    def test_single_class_rejected(self, toy_data):
        X, y = toy_data
        with pytest.raises(SingleClassData):
            fit("lr", X, np.zeros(len(y), dtype=int))

    def test_unknown_algorithm(self, toy_data):
        X, y = toy_data
        with pytest.raises(detectors.UnknownAlgorithm):
            fit("xgboost", X, y)

    def test_lr_separates_two_points(self):
        X = np.array([[0.0] * 41, [1.0] * 41])
        y = np.array([LABEL_NORMAL, LABEL_ATTACK])
        model = fit("lr", X, y, seed=0)
        assert np.array_equal(model.predict(X), y)

    def test_dt_fits_consistent_data_exactly(self, toy_data):
        X, y = toy_data
        model = fit("dt", X, y, seed=0, hyperparams={"max_depth": 64, "min_leaf": 1})
        assert (model.predict(X) == y).mean() == 1.0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_algorithms_learn_separable_data(self, toy_data, algorithm):
        X, y = toy_data
        model = fit(algorithm, X, y, seed=3)
        assert (model.predict(X) == y).mean() >= 0.95

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_deterministic_given_seed(self, toy_data, algorithm):
        X, y = toy_data
        probe = np.random.default_rng(5).random((40, 41))
        p1 = fit(algorithm, X, y, seed=11).predict(probe)
        p2 = fit(algorithm, X, y, seed=11).predict(probe)
        assert np.array_equal(p1, p2)


class TestPredictContract:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_batch_equals_concatenated_singles(self, toy_data, algorithm):
        X, y = toy_data
        model = fit(algorithm, X, y, seed=2)
        batch = np.random.default_rng(7).random((16, 41))
        whole = model.predict(batch)
        singles = np.concatenate([model.predict(batch[i : i + 1]) for i in range(16)])
        assert np.array_equal(whole, singles)

    def test_training_point_keeps_its_label(self, toy_data):
        X, y = toy_data
        model = fit("dt", X, y, seed=0)
        correct = model.predict(X) == y
        idx = int(np.argmax(correct))
        assert model.predict(X[idx : idx + 1])[0] == y[idx]

    def test_knn_self_neighbor(self, toy_data):
        X, y = toy_data
        model = fit("knn", X, y, seed=0, hyperparams={"k": 1})
        assert np.array_equal(model.predict(X), y)

    def test_wrong_width_rejected(self, toy_data):
        X, y = toy_data
        model = fit("lr", X, y, seed=0)
        with pytest.raises(SchemaMismatch):
            model.predict(np.zeros((3, 17)))


class TestAlgorithmOracles:
    def test_gnb_matches_log_domain_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.random((30, 5))
        y = rng.integers(0, 2, size=30)
        while len(np.unique(y)) < 2:
            y = rng.integers(0, 2, size=30)
        model = detectors.GaussianNB({"var_floor": 1e-9}, seed=0)
        model.fit(X, y, rng)
        queries = rng.random((10, 5))
        got = model.log_posteriors(queries)

        floor = 1e-9
        for c in (0, 1):
            Xc = X[y == c]
            mu = Xc.mean(axis=0)
            var = np.maximum(Xc.var(axis=0), floor)
            prior = np.log(len(Xc) / len(X))
            for r, q in enumerate(queries):
                manual = prior + sum(
                    -0.5 * np.log(2 * np.pi * var[j]) - (q[j] - mu[j]) ** 2 / (2 * var[j])
                    for j in range(5)
                )
                assert abs(got[r, c] - manual) <= 1e-9

    @pytest.mark.parametrize("algorithm", ["svm", "lr"])
    def test_linear_decision_is_affine_score(self, toy_data, algorithm):
        X, y = toy_data
        model = fit(algorithm, X, y, seed=1)
        queries = np.random.default_rng(8).random((25, 41))
        scores = model.decision_scores(queries)
        manual = np.array([float(np.dot(model.w, q)) + model.b for q in queries])
        assert np.allclose(scores, manual, atol=1e-12, rtol=0)
        assert np.array_equal(
            model.predict(queries),
            np.where(manual >= 0.0, LABEL_ATTACK, LABEL_NORMAL),
        )

    def test_rf_vote_is_mode_of_trees(self, toy_data):
        X, y = toy_data
        model = fit("rf", X, y, seed=4, hyperparams={"n_trees": 7})
        queries = np.random.default_rng(9).random((20, 41))
        votes = model.tree_votes(queries)
        assert votes.shape == (7, 20) and len(model.roots) == 7
        expected = np.where(
            votes.sum(axis=0) * 2 >= len(model.roots), LABEL_ATTACK, LABEL_NORMAL
        )
        assert np.array_equal(model.predict(queries), expected)

    def test_rf_even_tie_breaks_to_attack(self):
        # two one-leaf trees in the node store, voting 1 and 0 -> attack wins
        model = detectors.RandomForest(dict(detectors.DEFAULT_HYPERPARAMS["rf"]), seed=0)
        model.n_features = 4
        model.nodes = detectors._NodeStore()
        for label in (LABEL_ATTACK, LABEL_NORMAL):
            model.nodes.leaf_label[model.nodes.add_node()] = label
        model.nodes.freeze()
        model.roots = np.array([0, 1])
        assert model.tree_votes(np.array([[0.5] * 4]))[:, 0].tolist() == [1, 0]
        assert model.predict(np.array([[0.5] * 4]))[0] == LABEL_ATTACK

    @pytest.mark.parametrize(
        "algorithm,hyperparams",
        [("dt", {"max_depth": 20, "min_leaf": 1}), ("rf", {"n_trees": 7})],
    )
    def test_tree_votes_match_a_per_row_walk(self, algorithm, hyperparams):
        """The all-trees-at-once walk against one row walked down one tree at a time."""
        rng = np.random.default_rng(21)
        X = rng.random((400, 9))
        X[:, :3] = np.round(X[:, :3], 1)  # ties on some columns, as encoded tokens give
        y = (X[:, 0] + 0.5 * rng.random(400) > 0.7).astype(int)
        model = fit(algorithm, X, y, seed=8, hyperparams=hyperparams)
        nodes = model.nodes
        # rows sitting exactly on a split's threshold must go left
        internal = np.flatnonzero(nodes.leaf_label < 0)
        on_split = rng.random((len(internal), 9))
        on_split[np.arange(len(internal)), nodes.feature[internal]] = nodes.threshold[internal]
        queries = np.vstack([X[:50], rng.random((50, 9)), on_split])
        votes = model.tree_votes(queries)
        assert votes.shape == (len(model.roots), len(queries))
        for t, root in enumerate(model.roots):
            for i, q in enumerate(queries):
                node = root
                while nodes.leaf_label[node] < 0:
                    left = q[nodes.feature[node]] <= nodes.threshold[node]
                    node = nodes.left[node] if left else nodes.right[node]
                assert votes[t, i] == nodes.leaf_label[node]
        assert np.array_equal(
            model.predict(queries),
            np.where(votes.sum(axis=0) * 2 >= len(model.roots), LABEL_ATTACK, LABEL_NORMAL),
        )

    def test_every_direct_subclass_defines_predict(self):
        """The benchmark tracer wraps `predict` in each direct subclass's own body."""
        subclasses = detectors.ClassifierModel.__subclasses__()
        assert {detectors.AffineModel, detectors.ForestModel} <= set(subclasses)
        for cls in subclasses:
            assert "predict" in vars(cls), cls.__name__
            for sub in cls.__subclasses__():
                assert "predict" not in vars(sub), sub.__name__

    def test_knn_subsampling_capped_and_seeded(self, toy_data):
        X, y = toy_data
        model = fit("knn", X, y, seed=6, hyperparams={"max_reference": 50})
        assert len(model.ref_y) == 50
        model2 = fit("knn", X, y, seed=6, hyperparams={"max_reference": 50})
        assert np.array_equal(model.ref_X, model2.ref_X)


class TestSerialization:
    def test_manifest_written(self, toy_data, tmp_path):
        X, y = toy_data
        model = fit("dt", X, y, seed=13)
        save_model(model, tmp_path / "dt.blob")
        manifest = (tmp_path / "dt.manifest.json").read_text()
        assert '"algorithm": "dt"' in manifest
        assert '"seed": 13' in manifest


def knn_labels_512(model, X):
    """k-NN labels by the earlier formula: 512-row chunks, distances in one expression."""
    k = min(model.hyperparams["k"], len(model.ref_y))
    out = np.empty(X.shape[0], dtype=int)
    for start in range(0, X.shape[0], 512):
        q = X[start : start + 512]
        d2 = (q * q).sum(axis=1)[:, None] + model.ref_sq[None, :] - 2.0 * (q @ model.ref_X.T)
        nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        attack = model.ref_y[nearest].sum(axis=1)
        out[start : start + 512] = np.where(attack * 2 >= k, LABEL_ATTACK, LABEL_NORMAL)
    return out


def knn_labels_two_buffers(model, X):
    """k-NN labels by the earlier two-block predict: 2 q.r and the distances in
    two (128, R) arrays, each block's rows ranked whole by argpartition."""
    block_rows = 128
    k = min(model.hyperparams["k"], len(model.ref_y))
    out = np.empty(X.shape[0], dtype=int)
    shape = (block_rows, len(model.ref_y))
    cross, d2 = np.empty(shape), np.empty(shape)
    for start in range(0, X.shape[0], block_rows):
        q = X[start : start + block_rows]
        c, dist = cross[: len(q)], d2[: len(q)]
        np.matmul(q, model.ref_X.T, out=c)
        c *= 2.0
        np.add((q * q).sum(axis=1)[:, None], model.ref_sq[None, :], out=dist)
        dist -= c
        nearest = np.argpartition(dist, k - 1, axis=1)[:, :k]
        attack = model.ref_y[nearest].sum(axis=1)
        out[start : start + block_rows] = np.where(attack * 2 >= k, LABEL_ATTACK, LABEL_NORMAL)
    return out


# Multiples of 1/8: every distance below is computed exactly, whatever the
# BLAS kernel or call shape, so the labels depend only on the blocking and
# on how ties at the k-th neighbour are broken.
GRID = st.sampled_from([i / 8 for i in range(9)])


@st.composite
def knn_cases(draw):
    d = draw(st.integers(1, 5))
    base = draw(arrays(float, (draw(st.integers(1, 25)), d), elements=GRID))
    base_y = draw(arrays(int, len(base), elements=st.sampled_from([LABEL_NORMAL, LABEL_ATTACK])))
    # exact duplicates of reference rows with the opposite label
    dup = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=10))
    ref = np.vstack([base, base[dup]])
    ref_y = np.concatenate([base_y, 1 - base_y[dup]])
    # Sets this small have fewer groups than k; a wide set of grid points
    # has enough for candidate ranking, and ties at the k-th distance too.
    n_wide = draw(st.sampled_from([0, 0, 100, 300]))
    wide_rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ref = np.vstack([ref, wide_rng.integers(0, 9, size=(n_wide, d)) / 8])
    ref_y = np.concatenate([ref_y, wide_rng.integers(0, 2, size=n_wide)])
    extra = draw(arrays(float, (draw(st.integers(0, 10)), d), elements=GRID))
    # full slices, lone-row tails and several old 128-row blocks; 64 is the d-step's query
    n_query = draw(
        st.sampled_from([64, 1, 15, 16, 17, 33, 63, 127, 129, 200]) | st.integers(1, 400)
    )
    queries = np.resize(np.vstack([extra, ref]), (n_query, d))
    return ref, ref_y, queries, draw(st.integers(1, 7))


class TestMemoryBounds:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fit_leaves_no_cyclic_garbage(self, toy_data, algorithm):
        """Reference counting alone frees what a fit allocates.

        A reference cycle would keep, say, a forest's bootstrap copies alive
        until the cyclic collector happens to run.
        """
        X, y = toy_data
        fit(algorithm, X, y, seed=3)  # first calls may import or cache lazily
        gc.collect()
        gc.disable()
        try:
            fit(algorithm, X, y, seed=3)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0

    def test_knn_predict_peak_does_not_grow_with_queries(self):
        rng = np.random.default_rng(5)
        n_ref = 2000
        X, y = rng.random((n_ref, 41)), rng.integers(0, 2, n_ref)
        peaks = {}
        for n in (200, 2000):
            model = fit("knn", X, y, seed=0)
            queries = rng.random((n, 41))
            tracemalloc.start()
            try:
                model.predict(queries)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        slice_bytes = detectors.KNN_SLICE_ROWS * n_ref * 8
        assert peaks[2000] - peaks[200] <= slice_bytes

    def test_knn_predict_scratch_is_one_block(self):
        """Beyond its two slice buffers, in one block, predict holds little scratch."""
        rng = np.random.default_rng(6)
        n_ref = 2000
        model = fit("knn", rng.random((n_ref, 41)), rng.integers(0, 2, n_ref), seed=0)
        queries = rng.random((2000, 41))
        tracemalloc.start()
        try:
            model.predict(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 * detectors.KNN_SLICE_ROWS * n_ref * 8

    def test_knn_pickle_leaves_scratch_behind(self, toy_data):
        X, y = toy_data
        model = fit("knn", X, y, seed=0)
        size = len(pickle.dumps(model))
        labels = model.predict(X)
        assert len(pickle.dumps(model)) == size
        assert np.array_equal(pickle.loads(pickle.dumps(model)).predict(X), labels)

    @pytest.mark.parametrize("n_groups", [2, 8], ids=["fewer-groups-than-k", "candidates"])
    def test_knn_tie_at_kth_neighbour_takes_whole_row_choice(self, n_groups):
        """The 3rd and 4th nearest references are equidistant with opposite labels.

        Ranked whole, `np.argpartition` picks the later of the two (index 25)
        here, and the label follows it; the first candidate in index order
        would be the other (index 21).
        """
        n_ref = n_groups * detectors.KNN_GROUP_ROWS
        ref, ref_y = np.ones((n_ref, 2)), np.arange(n_ref) % 2
        for i, point, label in [
            (1, (1 / 8, 0), LABEL_ATTACK),
            (2, (0, 2 / 8), LABEL_NORMAL),
            (21, (3 / 8, 0), LABEL_ATTACK),
            (25, (0, 3 / 8), LABEL_NORMAL),
        ]:
            ref[i], ref_y[i] = point, label
        model = fit("knn", ref, ref_y, seed=0, hyperparams={"k": 3, "max_reference": 0})
        queries = np.zeros((20, 2))
        assert np.array_equal(model.predict(queries), knn_labels_two_buffers(model, queries))

    def test_knn_row_with_too_few_candidates_takes_whole_row_choice(self):
        """A NaN query's distances are all NaN, so none is a candidate: it is ranked whole."""
        rng = np.random.default_rng(8)
        n_ref = 8 * detectors.KNN_GROUP_ROWS
        model = fit("knn", rng.random((n_ref, 3)), rng.integers(0, 2, n_ref), seed=0)
        queries = rng.random((20, 3))
        queries[[3, 17]] = np.nan
        assert np.array_equal(model.predict(queries), knn_labels_two_buffers(model, queries))

    @settings(max_examples=60, deadline=None)
    @given(knn_cases())
    def test_knn_labels_do_not_depend_on_blocking(self, case):
        ref, ref_y, queries, k = case
        model = fit("knn", ref, ref_y, seed=0, hyperparams={"k": k, "max_reference": 0})
        whole = model.predict(queries)
        singles = np.concatenate([model.predict(q[None, :]) for q in queries])
        assert np.array_equal(whole, singles)
        assert np.array_equal(whole, knn_labels_512(model, queries))
        assert np.array_equal(whole, knn_labels_two_buffers(model, queries))
