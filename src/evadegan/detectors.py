"""Black-box traffic detectors: seven classic classifiers behind one interface.

Every model is trained from scratch on encoded [0,1] vectors with binary
labels (0 = normal, 1 = attack), is deterministic under a fixed seed, and
labels a record from that record alone, up to rounding. The models built on
matrix products (svm, mlp, lr, k-NN) compute scores whose last bits depend
on the shape of the product call, so a record within rounding of a
decision boundary (for k-NN, a near-tie at the k-th neighbour) can change
label with the rows batched around it. Reproducible runs therefore rest on
fixed call shapes, not on batch independence: k-NN computes its distances
with one product per block of KNN_BLOCK_ROWS query rows, and a run labels
its generator-half normals in one call per detector. Each block's distances
are then finished and ranked in slices of KNN_SLICE_ROWS rows; every row is
finished and ranked on its own, so the slicing cannot change a label. Vote
ties break toward "attack": the conservative call for a detector.

Two pairs of models share one decision rule each. svm and lr label attack
where ``x·w + b >= 0`` and differ only in their fit. dt is a forest of one
unbagged tree: dt and rf walk one node store holding all their trees at once.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import nn
from .blob import save_blob

LABEL_NORMAL = 0
LABEL_ATTACK = 1

ALGORITHMS = ("svm", "nb", "mlp", "lr", "dt", "rf", "knn")

DEFAULT_HYPERPARAMS = {
    "svm": {"lam": 1e-4, "learning_rate": 0.5, "epochs": 10, "batch_size": 256},
    "nb": {"var_floor": 1e-9},
    "mlp": {"hidden": (64, 32), "learning_rate": 1e-3, "epochs": 20, "batch_size": 64},
    "lr": {"learning_rate": 0.1, "epochs": 50, "batch_size": 256},
    "dt": {"max_depth": 12, "min_leaf": 5},
    "rf": {"n_trees": 30, "max_depth": 12, "min_leaf": 5, "features_per_split": 6},
    "knn": {"k": 5, "max_reference": 20000},
}

MODEL_FORMAT_VERSION = 2

# Query rows per k-NN distance block (the GAN's critic batch is 128 rows).
KNN_BLOCK_ROWS = 128
# Rows of a block whose distances are finished and ranked together, so the
# ranking's scratch stays small and the passes stay in cache.
KNN_SLICE_ROWS = 16


class SingleClassData(ValueError):
    """Raised when training data contains only one class."""


class SchemaMismatch(ValueError):
    """Raised when vectors do not have the width the model was fitted on."""


class UnknownAlgorithm(ValueError):
    pass


class ClassifierModel:
    """Shared surface: algorithm tag, hyperparams, seed, schema fingerprint."""

    algorithm = None

    def __init__(self, hyperparams, seed, schema_fingerprint=None):
        self.hyperparams = dict(hyperparams)
        self.seed = int(seed)
        self.schema_fingerprint = schema_fingerprint

    def fit(self, X, y, rng):
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        raise NotImplementedError

    def _check_input(self, X, n_features):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != n_features:
            raise SchemaMismatch(f"expected (n, {n_features}) vectors, got {X.shape}")
        return X

    # blob and manifest outputs; nothing in the package reads them back
    def _arrays(self) -> dict:
        raise NotImplementedError

    def manifest(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "algorithm": self.algorithm,
            "hyperparams": self.hyperparams,
            "seed": self.seed,
            "schema_fingerprint": self.schema_fingerprint,
        }

    def save(self, path) -> None:
        save_blob(path, self._arrays(), meta=self.manifest())


def _to_signed(y):
    """{0,1} labels -> {-1,+1} with attack = +1."""
    return np.where(np.asarray(y) == LABEL_ATTACK, 1.0, -1.0)


class AffineModel(ClassifierModel):
    """Labels attack where ``x·w + b >= 0``; a subclass only fits ``w`` and ``b``."""

    def decision_scores(self, X) -> np.ndarray:
        X = self._check_input(X, self.w.shape[0])
        return X @ self.w + self.b

    def predict(self, X) -> np.ndarray:
        # for lr, p >= 0.5 iff the affine score is >= 0
        return np.where(self.decision_scores(X) >= 0.0, LABEL_ATTACK, LABEL_NORMAL)

    def _arrays(self):
        return {"w": self.w, "b": np.array([self.b])}


class LinearSVM(AffineModel):
    """Linear SVM: constant-step subgradient descent on the L2-regularized hinge."""

    algorithm = "svm"

    def fit(self, X, y, rng):
        X = np.asarray(X, dtype=float)
        ys = _to_signed(y)
        n, d = X.shape
        lam = self.hyperparams["lam"]
        lr = self.hyperparams["learning_rate"]
        batch = min(self.hyperparams["batch_size"], n)
        self.w = np.zeros(d)
        self.b = 0.0
        for _ in range(self.hyperparams["epochs"]):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                xb, yb = X[idx], ys[idx]
                viol = yb * (xb @ self.w + self.b) < 1.0
                grad_w = lam * self.w
                grad_b = 0.0
                if viol.any():
                    grad_w = grad_w - (yb[viol, None] * xb[viol]).sum(axis=0) / len(idx)
                    grad_b = -yb[viol].sum() / len(idx)
                self.w -= lr * grad_w
                self.b -= lr * grad_b
        return self


class GaussianNB(ClassifierModel):
    """Gaussian Naive Bayes with a variance floor, computed in log domain."""

    algorithm = "nb"

    def fit(self, X, y, rng):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        floor = self.hyperparams["var_floor"]
        self.mean = np.zeros((2, X.shape[1]))
        self.var = np.zeros((2, X.shape[1]))
        self.log_prior = np.zeros(2)
        for c in (LABEL_NORMAL, LABEL_ATTACK):
            Xc = X[y == c]
            self.mean[c] = Xc.mean(axis=0)
            self.var[c] = np.maximum(Xc.var(axis=0), floor)
            self.log_prior[c] = np.log(len(Xc) / len(X))
        return self

    def log_posteriors(self, X) -> np.ndarray:
        X = self._check_input(X, self.mean.shape[1])
        out = np.zeros((X.shape[0], 2))
        for c in (LABEL_NORMAL, LABEL_ATTACK):
            diff = X - self.mean[c]
            out[:, c] = self.log_prior[c] - 0.5 * (
                np.log(2.0 * np.pi * self.var[c]) + diff * diff / self.var[c]
            ).sum(axis=1)
        return out

    def predict(self, X) -> np.ndarray:
        lp = self.log_posteriors(X)
        return np.where(lp[:, LABEL_ATTACK] >= lp[:, LABEL_NORMAL], LABEL_ATTACK, LABEL_NORMAL)

    def _arrays(self):
        return {"mean": self.mean, "var": self.var, "log_prior": self.log_prior}


class MlpClassifier(ClassifierModel):
    """Two-hidden-layer ReLU net with softmax cross-entropy, RMSProp-trained."""

    algorithm = "mlp"

    def fit(self, X, y, rng):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        n, d = X.shape
        hidden = tuple(self.hyperparams["hidden"])
        self.net = nn.Network((d, *hidden, 2), rng)
        opt = nn.RmsProp(learning_rate=self.hyperparams["learning_rate"])
        batch = min(self.hyperparams["batch_size"], n)
        for _ in range(self.hyperparams["epochs"]):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                logits = self.net.forward(X[idx])
                probs = _softmax(logits)
                grad = probs.copy()
                grad[np.arange(len(idx)), y[idx]] -= 1.0
                grad /= len(idx)
                self.net.backward(grad, input_grad=False)
                opt.step(self.net.parameters())
        return self

    def predict(self, X) -> np.ndarray:
        X = self._check_input(X, self.net.dims[0])
        logits = self.net.forward(X, cache=False)
        return np.where(
            logits[:, LABEL_ATTACK] >= logits[:, LABEL_NORMAL], LABEL_ATTACK, LABEL_NORMAL
        )

    def _arrays(self):
        return self.net.param_arrays()


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class LogisticRegression(AffineModel):
    """Plain logistic regression via shuffled mini-batch gradient descent."""

    algorithm = "lr"

    def fit(self, X, y, rng):
        X = np.asarray(X, dtype=float)
        y01 = np.asarray(y, dtype=float)
        n, d = X.shape
        lr = self.hyperparams["learning_rate"]
        batch = min(self.hyperparams["batch_size"], n)
        self.w = np.zeros(d)
        self.b = 0.0
        for _ in range(self.hyperparams["epochs"]):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                p = _sigmoid(X[idx] @ self.w + self.b)
                err = p - y01[idx]
                self.w -= lr * (X[idx].T @ err) / len(idx)
                self.b -= lr * err.mean()
        return self


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class _NodeStore:
    """Every node of a forest's trees; child indices are absolute, -1 at a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "leaf_label")

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.leaf_label = []

    def add_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_label.append(-1)
        return len(self.feature) - 1

    def freeze(self):
        self.feature = np.asarray(self.feature, dtype=int)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=int)
        self.right = np.asarray(self.right, dtype=int)
        self.leaf_label = np.asarray(self.leaf_label, dtype=int)


def _gini_counts(n_attack, n_total):
    """Gini impurity from attack counts; n_total may be an array."""
    with np.errstate(invalid="ignore", divide="ignore"):
        p = n_attack / n_total
        g = 1.0 - p * p - (1.0 - p) * (1.0 - p)
    return np.where(n_total > 0, g, 0.0)


def _best_split(X, y, feature_ids, min_leaf):
    """Best (feature, threshold, gain) over candidate features, or None."""
    n = len(y)
    parent_gini = _gini_counts(y.sum(), n)
    best = None
    for f in feature_ids:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        sorted_y = y[order]
        attack_left = np.cumsum(sorted_y)[:-1]
        n_left = np.arange(1, n)
        boundary = sorted_col[1:] != sorted_col[:-1]
        valid = boundary & (n_left >= min_leaf) & (n - n_left >= min_leaf)
        if not valid.any():
            continue
        n_right = n - n_left
        gini_l = _gini_counts(attack_left, n_left)
        gini_r = _gini_counts(y.sum() - attack_left, n_right)
        child = (n_left * gini_l + n_right * gini_r) / n
        gain = np.where(valid, parent_gini - child, -np.inf)
        pos = int(np.argmax(gain))
        if gain[pos] <= 1e-12:
            continue
        threshold = 0.5 * (sorted_col[pos] + sorted_col[pos + 1])
        if best is None or gain[pos] > best[2]:
            best = (int(f), float(threshold), float(gain[pos]))
    return best


def _leaf_label(y):
    n_attack = int(y.sum())
    # ties go to attack
    return LABEL_ATTACK if n_attack * 2 >= len(y) else LABEL_NORMAL


def _grow_node(nodes, X, y, rows, depth, limits):
    """Grow the subtree over ``X[rows]`` in pre-order; returns its root node.

    A plain recursive function, not a closure over itself: such a closure is
    a reference cycle that keeps ``X`` (a forest's bootstrap copy) alive
    until the cyclic garbage collector next runs.
    """
    max_depth, min_leaf, feature_rng, features_per_split = limits
    node = nodes.add_node()
    sub_y = y[rows]
    if depth >= max_depth or len(rows) < 2 * min_leaf or sub_y.min() == sub_y.max():
        nodes.leaf_label[node] = _leaf_label(sub_y)
        return node
    if feature_rng is not None:
        feats = np.sort(feature_rng.choice(X.shape[1], size=features_per_split, replace=False))
    else:
        feats = np.arange(X.shape[1])
    split = _best_split(X[rows], sub_y, feats, min_leaf)
    if split is None:
        nodes.leaf_label[node] = _leaf_label(sub_y)
        return node
    f, thr, _ = split
    go_left = X[rows, f] <= thr
    nodes.left[node] = _grow_node(nodes, X, y, rows[go_left], depth + 1, limits)
    nodes.right[node] = _grow_node(nodes, X, y, rows[~go_left], depth + 1, limits)
    nodes.feature[node] = f
    nodes.threshold[node] = thr
    return node


class ForestModel(ClassifierModel):
    """Trees in one node store, one root each; the majority of their votes labels a row."""

    def _grow(self, samples, feature_rng=None, features_per_split=None):
        """Grow one tree per ``(X, y)`` sample, in order, into one node store."""
        hp = self.hyperparams
        limits = (hp["max_depth"], hp["min_leaf"], feature_rng, features_per_split)
        self.nodes = _NodeStore()
        roots = []
        for X, y in samples:
            roots.append(_grow_node(self.nodes, X, y, np.arange(len(y)), 0, limits))
            # a forest's bootstrap sample is freed before the next is drawn
            del X, y
        self.nodes.freeze()
        self.roots = np.asarray(roots, dtype=int)

    def tree_votes(self, X) -> np.ndarray:
        """Each tree's label for each row, shape (trees, rows): all trees walk together."""
        X = self._check_input(X, self.n_features)
        nodes = self.nodes
        at = np.repeat(self.roots, X.shape[0])
        row = np.tile(np.arange(X.shape[0]), len(self.roots))
        walking = np.flatnonzero(nodes.leaf_label[at] < 0)
        while walking.size:
            here = at[walking]
            go_left = X[row[walking], nodes.feature[here]] <= nodes.threshold[here]
            at[walking] = np.where(go_left, nodes.left[here], nodes.right[here])
            walking = walking[nodes.leaf_label[at[walking]] < 0]
        return nodes.leaf_label[at].reshape(len(self.roots), X.shape[0])

    def predict(self, X) -> np.ndarray:
        attack = self.tree_votes(X).sum(axis=0)
        # ties go to attack
        return np.where(attack * 2 >= len(self.roots), LABEL_ATTACK, LABEL_NORMAL)

    def _arrays(self):
        """The flat layout: every node's fields, child indices absolute, and each tree's root."""
        nodes = {name: getattr(self.nodes, name) for name in _NodeStore.__slots__}
        return {"n_features": np.array([self.n_features]), "roots": self.roots} | nodes


class DecisionTree(ForestModel):
    """CART with Gini impurity, depth and leaf-size limits: one tree over all rows and features."""

    algorithm = "dt"

    def fit(self, X, y, rng):
        X = np.asarray(X, dtype=float)
        self.n_features = X.shape[1]
        self._grow([(X, np.asarray(y, dtype=int))])
        return self


class RandomForest(ForestModel):
    """Bagged CART trees with per-split feature subsampling, majority vote."""

    algorithm = "rf"

    def fit(self, X, y, rng):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        n = X.shape[0]
        self.n_features = X.shape[1]

        def bootstraps():
            # drawn lazily: each sample only once the previous tree is grown
            for _ in range(self.hyperparams["n_trees"]):
                rows = rng.integers(0, n, size=n)
                yield X[rows], y[rows]

        self._grow(
            bootstraps(),
            feature_rng=rng,
            features_per_split=min(self.hyperparams["features_per_split"], self.n_features),
        )
        return self


class KNearestNeighbors(ClassifierModel):
    """Brute-force k-NN on Euclidean distance over a stored reference set."""

    algorithm = "knn"

    def fit(self, X, y, rng):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        cap = self.hyperparams["max_reference"]
        if cap and len(X) > cap:
            keep = rng.choice(len(X), size=cap, replace=False)
            X, y = X[keep], y[keep]
        self.ref_X = X
        self.ref_y = y
        self.ref_sq = (X * X).sum(axis=1)
        return self

    def predict(self, X) -> np.ndarray:
        X = self._check_input(X, self.ref_X.shape[1])
        k = min(self.hyperparams["k"], len(self.ref_y))
        out = np.empty(X.shape[0], dtype=int)
        block = self._distance_block()
        for start in range(0, X.shape[0], KNN_BLOCK_ROWS):
            q = X[start : start + KNN_BLOCK_ROWS]
            dist = block[: len(q)]
            # One product per block gives 2 q.r: doubling is exact, so
            # doubling q first equals doubling the product.
            np.matmul(q + q, self.ref_X.T, out=dist)
            q_sq = (q * q).sum(axis=1)
            for s in range(0, len(q), KNN_SLICE_ROWS):
                d = dist[s : s + KNN_SLICE_ROWS]
                # |q|^2 + |r|^2 - 2 q.r, in that order. The row-constant
                # |q|^2 stays: dropping it changes the rounding.
                np.subtract(q_sq[s : s + KNN_SLICE_ROWS, None] + self.ref_sq, d, out=d)
                # No name holds the index array, so it is freed here, not
                # after the next slice's search.
                attack = self.ref_y[np.argpartition(d, k - 1, axis=1)[:, :k]].sum(axis=1)
                # ties go to attack
                out[start + s : start + s + len(d)] = np.where(
                    attack * 2 >= k, LABEL_ATTACK, LABEL_NORMAL
                )
        return out

    def _distance_block(self):
        """Scratch for one block of queries: 2 q.r, finished in place into distances.

        Peak memory is set by this block, not by the number of queries; the
        neighbour search's index array and the distance sums take only a
        slice of KNN_SLICE_ROWS rows at a time. The block is kept between
        calls: faulting in fresh pages for it on every call costs more than
        the distance arithmetic. A pickled copy of the model starts without
        it.
        """
        shape = (KNN_BLOCK_ROWS, len(self.ref_y))
        if getattr(self, "_block", None) is None or self._block.shape != shape:
            self._block = np.empty(shape)
        return self._block

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_block"}

    def _arrays(self):
        return {"ref_X": self.ref_X, "ref_y": self.ref_y.astype(float)}


_MODEL_CLASSES = {
    cls.algorithm: cls
    for cls in (
        LinearSVM,
        GaussianNB,
        MlpClassifier,
        LogisticRegression,
        DecisionTree,
        RandomForest,
        KNearestNeighbors,
    )
}


def fit(
    algorithm: str,
    X,
    y,
    seed: int = 0,
    schema_fingerprint: str | None = None,
    hyperparams: dict | None = None,
) -> ClassifierModel:
    """Train one detector; both classes must be present in the labels."""
    algorithm = algorithm.lower()
    if algorithm not in _MODEL_CLASSES:
        raise UnknownAlgorithm(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    y = np.asarray(y, dtype=int)
    if len(np.unique(y)) < 2:
        raise SingleClassData("training labels contain a single class")
    params = dict(DEFAULT_HYPERPARAMS[algorithm])
    params.update(hyperparams or {})
    model = _MODEL_CLASSES[algorithm](params, seed, schema_fingerprint)
    model.fit(np.asarray(X, dtype=float), y, nn.make_rng(seed))
    return model


def save_model(model: ClassifierModel, path) -> None:
    """Write the model blob and a JSON manifest beside it."""
    model.save(path)
    Path(path).with_suffix(".manifest.json").write_text(
        json.dumps(model.manifest(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
