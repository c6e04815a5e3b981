"""The evadegan layers the traced rep wraps, and the per-layer metrics.

Layers are the package modules: nslkdd, masks, nn, detectors, gan, evaluate
and cli. Every ``*_s`` metric is self time summed over the rep: the time
inside that layer's wrapped calls minus the time of wrapped calls nested in
them. ``synthetic`` only makes the inputs and is not traced.
"""

from __future__ import annotations

from collections import defaultdict

from evadegan import cli, detectors, evaluate, gan, masks, nn, nslkdd

from checks import generated_violations
from tracer import Tracer

# (name, unit) of every per-layer metric, in report order.
METRICS = [
    ("run_s", "s"),
    ("trace_overhead_s", "s"),
    ("eir_mean", "ratio"),
    ("nslkdd.load_file_s", "s"),
    ("nslkdd.split_train_s", "s"),
    ("nslkdd.build_schema_s", "s"),
    ("nslkdd.encode_batch_s", "s"),
    ("nslkdd.rows", "count"),
    *[
        (f"detectors.{what}.{algorithm}", unit)
        for algorithm in detectors.ALGORITHMS
        for what, unit in (
            ("fit_s", "s"),
            ("predict_s", "s"),
            ("predict_calls", "count"),
            ("predict_rows", "count"),
        )
    ],
    ("detectors.query_share", "ratio"),
    ("gan.train_s", "s"),
    ("gan.generator_step_s", "s"),
    ("gan.generator_steps", "count"),
    ("gan.critic_step_s", "s"),
    ("gan.critic_updates_attempted", "count"),
    ("gan.critic_update_ratio", "ratio"),
    ("nn.forward_s", "s"),
    ("nn.forward_calls", "count"),
    ("nn.backward_s", "s"),
    ("nn.backward_calls", "count"),
    ("nn.rmsprop_step_s", "s"),
    ("nn.rmsprop_step_calls", "count"),
    ("nn.clip_s", "s"),
    ("nn.clip_calls", "count"),
    ("masks.apply_mask_batch_s", "s"),
    ("masks.postprocess_s", "s"),
    ("masks.frozen_violations", "count"),
    ("evaluate.cell_s.max", "s"),
    ("evaluate.cell_s.min", "s"),
    ("evaluate.cell_imbalance", "ratio"),
    ("evaluate.pool_efficiency", "ratio"),
    ("cli.write_artifacts_s", "s"),
]


def _cell_key(inputs, config, algorithm, attack, setting):
    return f"{algorithm}/{attack}/{setting}"


class LayerTrace:
    """A tracer wired into every layer, plus the counts its hooks collect.

    Use as a context manager: wrappers exist only inside the ``with`` block.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.rows_loaded = 0
        self.predict_rows = defaultdict(int)
        self.skipped_critic_updates = 0
        self.violations = 0
        self.violating_cells: set[str] = set()

    def __enter__(self):
        t = self.tracer
        try:
            for attr in ("load_file", "split_train", "build_schema", "encode_batch"):
                after = self._count_rows if attr == "load_file" else None
                t.wrap_function(nslkdd, attr, f"nslkdd.{attr}", after=after)
            for attr in ("apply_mask_batch", "postprocess"):
                t.wrap_function(masks, attr, f"masks.{attr}")
            t.wrap_method(nn.Network, "forward", "nn.forward")
            t.wrap_method(nn.Network, "backward", "nn.backward")
            t.wrap_method(nn.RmsProp, "step", "nn.rmsprop_step")
            t.wrap_function(nn, "clip_network", "nn.clip")
            t.wrap_function(detectors, "fit", "detectors.fit", key_of=lambda alg, *a, **k: alg)
            for cls in detectors.ClassifierModel.__subclasses__():
                t.wrap_method(
                    cls,
                    "predict",
                    "detectors.predict",
                    key_of=lambda model, X: model.algorithm,
                    after=self._count_predict,
                )
            t.wrap_function(gan, "train", "gan.train", after=self._count_skipped)
            t.wrap_function(gan, "generator_step", "gan.generator_step")
            t.wrap_function(gan, "critic_step", "gan.critic_step")
            t.wrap_function(gan, "generate", "gan.generate", after=self._check_generated)
            t.wrap_function(evaluate, "prepare_grid_inputs", "evaluate.prepare_grid_inputs")
            t.wrap_function(evaluate, "run_cell", "evaluate.run_cell", key_of=_cell_key)
            t.wrap_function(evaluate, "run_experiment", "evaluate.run_experiment")
            t.wrap_function(cli, "cmd_evaluate", "cli.cmd_evaluate")
        except BaseException:
            t.close()
            raise
        return self

    def __exit__(self, *exc):
        self.tracer.close()

    # hooks: they record, never raise
    def _count_rows(self, index, args, records):
        self.rows_loaded += len(records)

    def _count_predict(self, index, args, labels):
        self.predict_rows[self.tracer.spans[index].key] += len(labels)

    def _count_skipped(self, index, args, history):
        self.skipped_critic_updates += sum(h.skipped_critic_updates for h in history)

    def _check_generated(self, index, args, result):
        gen, originals, mask, schema = args[:4]
        bad = generated_violations(originals, mask, schema, *result)
        if bad:
            self.violations += bad
            cell = self.tracer.enclosing(index, "evaluate.run_cell")
            self.violating_cells.add(cell.key if cell else "")

    def metrics(
        self, *, run_s, pool_run_s, traced_s, untraced_s, eir_mean, jobs
    ) -> dict:
        """Every per-layer metric as ``{name: value}``.

        ``traced_s`` and ``untraced_s`` are the wall times of the traced
        (serial) rep and of the same command untraced; ``run_s`` is the
        untraced time after set-up. ``pool_run_s`` is that time for the
        same grid with ``jobs`` workers. The pool efficiency compares it
        with the best a pool can do: the larger of (sum of cell times) /
        jobs and the longest cell, with cell times scaled by
        untraced/traced wall time to take the tracing overhead out. Ratios
        with no base (no GAN training, no cells) read 0.
        """
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for span in self.tracer.spans:
            self_s[span.name, span.key] += span.self_s
            calls[span.name, span.key] += 1

        def self_time(name):
            return sum(v for (n, _), v in self_s.items() if n == name)

        def count(name):
            return sum(v for (n, _), v in calls.items() if n == name)

        spans = self.tracer.spans
        train_s = sum(s.total_s for s in spans if s.name == "gan.train")
        query_s = sum(
            s.total_s
            for i, s in enumerate(spans)
            if s.name == "detectors.predict" and self.tracer.enclosing(i, "gan.train")
        )
        attempted = count("gan.critic_step")
        cell_s = [s.total_s for s in spans if s.name == "evaluate.run_cell"]
        ideal_s = max(sum(cell_s) / jobs, max(cell_s, default=0.0)) * untraced_s / traced_s

        out = {
            "run_s": run_s,
            "trace_overhead_s": traced_s - untraced_s,
            "eir_mean": eir_mean,
            "nslkdd.rows": self.rows_loaded,
            "detectors.query_share": query_s / train_s if train_s else 0.0,
            "gan.train_s": self_time("gan.train"),
            "gan.generator_step_s": self_time("gan.generator_step"),
            "gan.generator_steps": count("gan.generator_step"),
            "gan.critic_step_s": self_time("gan.critic_step"),
            "gan.critic_updates_attempted": attempted,
            "gan.critic_update_ratio": (
                (attempted - self.skipped_critic_updates) / attempted if attempted else 0.0
            ),
            "masks.frozen_violations": self.violations,
            "evaluate.cell_s.max": max(cell_s, default=0.0),
            "evaluate.cell_s.min": min(cell_s, default=0.0),
            "evaluate.cell_imbalance": max(cell_s) / min(cell_s) if cell_s else 0.0,
            "evaluate.pool_efficiency": ideal_s / pool_run_s if cell_s and pool_run_s > 0 else 0.0,
            "cli.write_artifacts_s": self_time("cli.cmd_evaluate"),
        }
        for attr in ("load_file", "split_train", "build_schema", "encode_batch"):
            out[f"nslkdd.{attr}_s"] = self_time(f"nslkdd.{attr}")
        for attr in ("apply_mask_batch", "postprocess"):
            out[f"masks.{attr}_s"] = self_time(f"masks.{attr}")
        for layer in ("forward", "backward", "rmsprop_step", "clip"):
            out[f"nn.{layer}_s"] = self_time(f"nn.{layer}")
            out[f"nn.{layer}_calls"] = count(f"nn.{layer}")
        for algorithm in detectors.ALGORITHMS:
            out[f"detectors.fit_s.{algorithm}"] = self_s["detectors.fit", algorithm]
            out[f"detectors.predict_s.{algorithm}"] = self_s["detectors.predict", algorithm]
            out[f"detectors.predict_calls.{algorithm}"] = calls["detectors.predict", algorithm]
            out[f"detectors.predict_rows.{algorithm}"] = self.predict_rows[algorithm]
        return {name: out[name] for name, _ in METRICS}
