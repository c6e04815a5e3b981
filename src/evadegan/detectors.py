"""Black-box traffic detectors: seven classic classifiers behind one interface.

Every model is trained from scratch on encoded [0,1] vectors with binary
labels (0 = normal, 1 = attack), is deterministic under a fixed seed, and
labels a record from that record alone, up to rounding. The models built on
matrix products (svm, mlp, lr, k-NN) compute scores whose last bits depend
on the shape of the product call, so a record within rounding of a
decision boundary (for k-NN, a near-tie at the k-th neighbour) can change
label with the rows batched around it. Reproducible runs therefore rest on
fixed call shapes, not on batch independence: k-NN computes its distances
with one product per slice of KNN_SLICE_ROWS query rows, and a run labels
its generator-half normals in one call per detector. k-NN ranks only the
references that can be among a row's k nearest: those at or under the k-th
smallest of its minima over groups of KNN_GROUP_ROWS references. A row with
a tie at the k-th distance is ranked whole, so its choice among the tied
references, and with it every label, is that of ranking every reference.
Vote ties break toward "attack": the conservative call for a detector.

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

# Query rows whose k-NN distances are computed and ranked together,
# so the scratch stays small and the passes stay in cache.
KNN_SLICE_ROWS = 16
# References per group whose minimum distance bounds a row's k nearest.
KNN_GROUP_ROWS = 32


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
        """Train on a float64 (n, d) ``X`` and int labels ``y``: `fit` converts them once."""
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


def _to_signed(y):
    """{0,1} labels -> {-1,+1} with attack = +1."""
    return np.where(y == LABEL_ATTACK, 1.0, -1.0)


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
                opt.step(self.net.params, self.net.grads)
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
                err = p - y[idx]
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
        self.n_features = X.shape[1]
        self._grow([(X, y)])
        return self


class RandomForest(ForestModel):
    """Bagged CART trees with per-split feature subsampling, majority vote."""

    algorithm = "rf"

    def fit(self, X, y, rng):
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
        cap = self.hyperparams["max_reference"]
        keep = slice(None)
        if cap and len(X) > cap:
            keep = rng.choice(len(X), size=cap, replace=False)
        self.ref_y = y[keep]
        sq = np.square(X[keep]).sum(axis=1)
        # [-2 X^T; 1; |r|^2]: one product with [q, |q|^2, 1] gives
        # |q|^2 + |r|^2 - 2 q.r. Filled one feature at a time, so no copy of
        # the kept rows is alive beside it.
        self.ref_aug = np.empty((X.shape[1] + 2, len(self.ref_y)))
        for j, row in enumerate(self.ref_aug[:-2]):
            np.multiply(X[keep, j], -2.0, out=row)
        self.ref_aug[-2], self.ref_aug[-1] = 1.0, sq
        return self

    def predict(self, X) -> np.ndarray:
        X = self._check_input(X, len(self.ref_aug) - 2)
        k = min(self.hyperparams["k"], len(self.ref_y))
        out = np.empty(X.shape[0], dtype=int)
        scratch = self._slice_scratch()
        for start in range(0, X.shape[0], KNN_SLICE_ROWS):
            q = X[start : start + KNN_SLICE_ROWS]
            dist = scratch[: len(q)]
            q_aug = np.column_stack((q, (q * q).sum(axis=1), np.ones(len(q))))
            np.matmul(q_aug, self.ref_aug, out=dist)
            attack = _nearest_attack_votes(dist, self.ref_y, k)
            # ties go to attack
            out[start : start + len(q)] = np.where(attack * 2 >= k, LABEL_ATTACK, LABEL_NORMAL)
        return out

    def _slice_scratch(self):
        """One (KNN_SLICE_ROWS, R) buffer: a slice of queries' distances to every reference.

        Peak memory is set by this buffer, not by the number of queries. It
        is kept between calls: faulting in fresh pages for it on every call
        costs more than the distance arithmetic. A pickled copy of the model
        starts without it.
        """
        shape = (KNN_SLICE_ROWS, len(self.ref_y))
        if getattr(self, "_scratch", None) is None or self._scratch.shape != shape:
            self._scratch = np.empty(shape)
        return self._scratch

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_scratch"}

    def _arrays(self):
        # scaling by -2 is exact, so this is the fitted reference set bit for bit
        return {"ref_X": self.ref_aug[:-2].T / -2.0, "ref_y": self.ref_y.astype(float)}


def _nearest_attack_votes(dist, ref_y, k):
    """How many of each row's k nearest references are attacks; sorts only candidates.

    Reference j belongs to group j mod G, for G = R // KNN_GROUP_ROWS. The k
    smallest of a row's group minima are k distinct references, so the k-th
    smallest bounds the row's k-th distance and its candidates are the
    references at or under it. Where the k-th and (k+1)-th candidates are not
    equidistant, the k nearest are one set: the set `np.argpartition` picks.
    A row with a tie there, or with fewer than k candidates (its distances
    are NaN), is ranked whole by `np.argpartition`, as is every row when
    G < k.
    """
    n, n_ref = dist.shape
    votes = np.empty(n, dtype=ref_y.dtype)
    n_groups = n_ref // KNN_GROUP_ROWS
    by_candidates = np.zeros(n, dtype=bool)
    if n_groups >= k:
        size = n_ref // n_groups
        lows = dist[:, : size * n_groups].reshape(n, size, n_groups).min(axis=1)
        rest = n_ref - size * n_groups  # fewer than G references left over
        np.minimum(lows[:, :rest], dist[:, size * n_groups :], out=lows[:, :rest])
        bound = np.partition(lows, k - 1, axis=1)[:, k - 1]
        flat = np.flatnonzero(dist <= bound[:, None])
        rows, cols = np.divmod(flat, n_ref)
        near = dist.ravel()[flat]
        order = np.lexsort((near, rows))
        cols, near = cols[order], near[order]
        counts = np.bincount(rows, minlength=n)
        kth = np.cumsum(counts) - counts + (k - 1)  # each row's k-th candidate
        by_candidates = counts == k
        more = counts > k
        by_candidates[more] = near[kth[more] + 1] != near[kth[more]]
        nearest = cols[kth[by_candidates, None] - np.arange(k)]
        votes[by_candidates] = ref_y[nearest].sum(axis=1)
    whole = ~by_candidates
    if whole.any():
        nearest = np.argpartition(dist[whole], k - 1, axis=1)[:, :k]
        votes[whole] = ref_y[nearest].sum(axis=1)
    return votes


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
    save_blob(path, model._arrays(), meta=model.manifest())
    Path(path).with_suffix(".manifest.json").write_text(
        json.dumps(model.manifest(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
