"""Span recorder and wrappers for the traced benchmark run.

Each traced name is replaced, in every regretlab module that binds it, by a
wrapper that records one span (label, start, end, parent span, operation).
Methods are wrapped on their class. Spans stay in flat arrays until the run
ends; self time is a span's duration minus the durations of its direct
children. Counters that are not spans (constructions, bytes written, paths
enumerated) are kept per operation.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# Operation tag of spans outside the timed operations: warm-up and checks.
UNTIMED = -1


def _emit_bytes(tracer, args, kwargs, result):
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    tracer.count("harness.emit.bytes", os.path.getsize(path))


def _path_count(tracer, args, kwargs, result):
    signed, _ = result
    tracer.count("complexity.paths.count", int(signed.size))


def _greedy(tracer, args, kwargs, result):
    if not result.exact:
        tracer.count("complexity.cover.greedy_calls")


def _skipped(tracer, args, kwargs, result):
    tracer.count("probtools.tails.points_skipped", sum(p.skipped for p in result.points))


def traced_names():
    """(label, owner, attribute, after-hook) for every wrapped callable.

    Module functions are listed once, in their defining module; ``install``
    finds every other module that imported the same object.
    """
    from regretlab import algorithms, bounds, cli, complexity, harness, oracle, probtools

    return [
        ("cli", cli, "main", None),
        ("harness.run", harness, "run_experiment", None),
        ("harness.audit_grid", harness, "audit_grid", None),
        ("harness.emit", harness, "emit_results", _emit_bytes),
        ("bounds.evaluate", bounds.AdaptiveRate, "evaluate", None),
        ("algorithms.state_update", algorithms.TwoLevelState, "update", None),
        ("algorithms.predict", algorithms, "twolevel_predict", None),
        ("algorithms.lambda", algorithms, "relaxation_lambda", None),
        ("algorithms.lambda", algorithms, "relaxation_value", None),
        ("algorithms.kl_ball", algorithms, "kl_ball_minimizer", None),
        ("oracle.achievability", oracle, "achievability_check", None),
        ("oracle.admissibility", oracle, "admissibility_check", None),
        ("oracle.certificate", oracle, "regret_certificate", None),
        ("oracle.matrix_game", oracle, "matrix_game_value", None),
        ("oracle.linprog", oracle, "linprog", None),
        ("oracle.leaf", oracle, "_leaf_value", None),
        ("complexity.paths", complexity, "_signed_and_square_sums", _path_count),
        ("complexity.cover", complexity, "covering_number_report", _greedy),
        ("complexity.dudley", complexity, "dudley_integral", None),
        ("probtools.tails", probtools, "tail_validate", _skipped),
    ]


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the running operation."""

    def __init__(self):
        self.op = UNTIMED
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.span_op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self._restore: list[tuple] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[self.op][name] += amount

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrapper(self, label: str, original, after):
        label_id = self._label_id(label)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(tracer.start)
            tracer.label.append(label_id)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.end.append(0.0)
            tracer._stack.append(sid)
            tracer.start.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[sid] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name wherever a regretlab module binds it."""
        from regretlab.core import Distribution

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "regretlab" or name.startswith("regretlab."))]
        for label, owner, attr, after in traced_names():
            original = getattr(owner, attr)
            traced = self._wrapper(label, original, after)
            if isinstance(owner, type):
                self._patch(owner, attr, traced)
                continue
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, traced)

        post_init = Distribution.__post_init__
        tracer = self

        def counted(obj):
            tracer.counters[tracer.op]["core.distribution.inits"] += 1
            post_init(obj)

        self._patch(Distribution, "__post_init__", counted)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "labels": np.array(self.labels),
            "label": np.frombuffer(self.label, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.span_op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(spans: dict) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of direct children."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child_total = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=duration.size)
    return duration - child_total


# Layers the certification round reaches; their metrics are reported for the
# round under a "certify." prefix, since the timed loops never reach the oracle.
CERTIFY_LAYERS = (
    "oracle.matrix_game.calls", "oracle.matrix_game.self_s", "oracle.linprog.calls",
    "oracle.linprog.self_s", "oracle.nodes", "oracle.achievability.self_s",
    "oracle.admissibility.self_s", "oracle.certificate.self_s",
    "algorithms.lambda.calls", "algorithms.lambda.self_s", "algorithms.state_update.calls",
    "algorithms.state_update.self_s", "algorithms.state_update.per_round",
    "algorithms.kl_ball.calls", "algorithms.kl_ball.self_s",
    "bounds.evaluate.calls", "bounds.evaluate.self_s",
)


def layer_metrics(tracer: Tracer, count_ops: range, time_ops: range, per: int,
                  game_rounds: int) -> dict:
    """Per-layer counts over ``count_ops`` and self seconds over ``time_ops`` / ``per``.

    For the timed loop, counts come from the operations of the first round,
    which are the same on every run with the same seed, and self times are
    summed over all timed operations and divided by the number of rounds.
    """
    spans = tracer.arrays()
    own = self_times(spans)
    ops = spans["op"]
    timed = (ops >= time_ops.start) & (ops < time_ops.stop)
    first = (ops >= count_ops.start) & (ops < count_ops.stop)
    calls, self_s = {}, {}
    for i, label in enumerate(spans["labels"]):
        mine = spans["label"] == i
        calls[label] = int(np.count_nonzero(mine & first))
        self_s[label] = float(own[mine & timed].sum()) / per
    counts = Counter()
    for op in count_ops:
        counts.update(tracer.counters.get(op, {}))

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    updates = c("algorithms.state_update")
    metrics = {
        "oracle.matrix_game.calls": (c("oracle.matrix_game"), "count"),
        "oracle.matrix_game.self_s": (s("oracle.matrix_game"), "s"),
        "oracle.linprog.calls": (c("oracle.linprog"), "count"),
        "oracle.linprog.self_s": (s("oracle.linprog"), "s"),
        "oracle.nodes": (c("oracle.matrix_game") + c("oracle.leaf"), "count"),
        "oracle.achievability.self_s": (s("oracle.achievability"), "s"),
        "oracle.admissibility.self_s": (s("oracle.admissibility"), "s"),
        "oracle.certificate.self_s": (s("oracle.certificate"), "s"),
        "algorithms.lambda.calls": (c("algorithms.lambda"), "count"),
        "algorithms.lambda.self_s": (s("algorithms.lambda"), "s"),
        "algorithms.state_update.calls": (updates, "count"),
        "algorithms.state_update.self_s": (s("algorithms.state_update"), "s"),
        "algorithms.state_update.per_round": (
            updates / game_rounds if game_rounds else 0.0, "ratio"),
        "algorithms.predict.calls": (c("algorithms.predict"), "count"),
        "algorithms.predict.self_s": (s("algorithms.predict"), "s"),
        "algorithms.kl_ball.calls": (c("algorithms.kl_ball"), "count"),
        "algorithms.kl_ball.self_s": (s("algorithms.kl_ball"), "s"),
        "bounds.evaluate.calls": (c("bounds.evaluate"), "count"),
        "bounds.evaluate.self_s": (s("bounds.evaluate"), "s"),
        "core.distribution.inits": (counts["core.distribution.inits"], "count"),
        "harness.run.self_s": (s("harness.run"), "s"),
        "harness.audit_grid.self_s": (s("harness.audit_grid"), "s"),
        "harness.emit.self_s": (s("harness.emit"), "s"),
        "harness.emit.bytes": (counts["harness.emit.bytes"], "bytes"),
        "cli.self_s": (s("cli"), "s"),
        "complexity.paths.self_s": (s("complexity.paths"), "s"),
        "complexity.paths.count": (counts["complexity.paths.count"], "count"),
        "complexity.cover.calls": (c("complexity.cover"), "count"),
        "complexity.cover.greedy_calls": (counts["complexity.cover.greedy_calls"], "count"),
        "complexity.cover.self_s": (s("complexity.cover"), "s"),
        "complexity.dudley.calls": (c("complexity.dudley"), "count"),
        "complexity.dudley.self_s": (s("complexity.dudley"), "s"),
        "probtools.tails.self_s": (s("probtools.tails"), "s"),
        "probtools.tails.points_skipped": (counts["probtools.tails.points_skipped"], "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
