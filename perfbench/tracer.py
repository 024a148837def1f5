"""Span tracing of ecglearn, installed from outside by patching public names.

A ``Tracer`` replaces the functions and methods the benchmark measures with
timed wrappers while a traced round is open, and puts the originals back when
it closes, so untraced rounds run the unmodified program.

Each span records its name, start, end and parent. Self time is the span's
duration minus the time its child spans cover. Spans stay in memory and are
written out when the run ends.

Tensor ops are measured forward and backward. Forward is the op call. For
backward, every graph node the op created (found by walking back from its
outputs to its inputs) gets its backward closure wrapped in a timed callable,
so a composite op such as ``gru_cell`` is charged for all of its nodes, not
only the last one. A node created by a nested traced op (``linear`` inside
``gru_cell``) stays charged to the innermost op, which makes op times self
times in both directions.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import ecglearn.dataio as dataio
import ecglearn.dataio.batches as dataio_batches
import ecglearn.learn as learn
import ecglearn.learn.train as learn_train
import ecglearn.models as models
import ecglearn.models.recurrent as models_recurrent
import ecglearn.tensor.functional as functional
import ecglearn.tensor.rnn as rnn
import ecglearn.transfer as transfer
from ecglearn.dataio.batches import BatchLoader
from ecglearn.learn.optim import Adam
from ecglearn.models.architectures import Model
from ecglearn.tensor import Tensor, is_grad_enabled

# op name -> every module that binds the op under that name at call time
TENSOR_OPS = {
    "conv1d": (functional,),
    "batchnorm": (functional,),
    "relu": (functional,),
    "maxpool1d": (functional,),
    "linear": (functional, rnn),
    "global_avg_pool1d": (functional,),
    "logsigmoid": (functional,),
    "concat": (functional, rnn),
    "gru_cell": (rnn,),
    "unroll": (models_recurrent,),
}

# (owner, attribute, span name) of every plain timed call
_CALLS = (
    (BatchLoader, "__init__", "dataio.loader_build"),
    (dataio_batches, "butterworth_bandpass", "signal.bandpass"),
    (dataio_batches, "segment_extract", "signal.segment"),
    (dataio_batches, "extract_segment_at", "signal.segment"),
    (dataio_batches, "normalize_array", "signal.normalize"),
    (dataio_batches, "apply_augmentations", "augment.apply"),
    (models, "build", "models.build"),
    (transfer, "build", "models.build"),
    (learn, "focal_loss", "learn.loss"),
    (Model, "zero_grad", "learn.zero_grad"),
    (Adam, "step", "learn.optim_step"),
    (learn, "evaluate", "learn.evaluate"),
    (learn_train, "evaluate", "learn.evaluate"),
    (learn_train, "compute_metrics", "learn.metrics"),
    (transfer, "adapt_head", "transfer.adapt_head"),
)


class _TimedBackward:
    """A graph node's backward closure, timed as one span of its owning op."""

    __slots__ = ("tracer", "name", "fn")

    def __init__(self, tracer: "Tracer", name: str, fn):
        self.tracer = tracer
        self.name = name
        self.fn = fn

    def __call__(self, g):
        sid = self.tracer.begin(self.name)
        try:
            return self.fn(g)
        finally:
            self.tracer.end(sid)


def _tensors_in(obj, out: list):
    if isinstance(obj, Tensor):
        out.append(obj)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _tensors_in(item, out)
    elif isinstance(obj, dict):
        for item in obj.values():
            _tensors_in(item, out)
    return out


class Tracer:
    """Records spans and counters for the rounds that are traced."""

    def __init__(self):
        self.spans: list[list] = []            # [name, parent, start, end]
        self._stack: list[list] = []           # [span id, start, child time]
        self.rounds = 0
        # span name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self.graph_nodes: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        now = time.perf_counter()
        self.spans.append([name, parent, now, None])
        self._stack.append([sid, now, 0.0])
        return sid

    def end(self, sid: int):
        now = time.perf_counter()
        top = self._stack.pop()
        if top[0] != sid:
            raise RuntimeError(f"span {self.spans[sid][0]!r} closed out of order")
        span = self.spans[sid]
        span[3] = now
        duration = now - top[1]
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.stats[span[0]]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - top[2]

    def count(self, name: str, amount: float):
        self.counters[name] += amount

    def gauge(self, name: str, value: float):
        self.gauges[name] = max(value, self.gauges.get(name, value))

    # -- rounds -----------------------------------------------------------------

    @contextmanager
    def round(self):
        """Trace one round: patch, open a root span, unpatch."""
        self.rounds += 1
        self._install()
        sid = self.begin("bench.round")
        try:
            yield
        finally:
            self.end(sid)
            self._uninstall()

    def per_round(self, name: str, field: int) -> float:
        """A span stat (0 calls, 1 total s, 2 self s) per traced round."""
        return self.stats[name][field] / max(1, self.rounds)

    def counter_per_round(self, name: str) -> float:
        return self.counters[name] / max(1, self.rounds)

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _install(self):
        wrapped: dict[int, object] = {}   # one wrapper per original function
        for owner, attr, name in _CALLS:
            fn = getattr(owner, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._timed(name, fn)
            self._patch(owner, attr, wrapped[id(fn)])
        for op, owners in TENSOR_OPS.items():
            fn = getattr(owners[0], op)
            replacement = self._timed_op(op, fn)
            for owner in owners:
                self._patch(owner, op, replacement)
        self._patch_load_records()
        self._patch_load_checkpoint()
        self._patch_batches()
        self._patch_forward()
        self._patch_backward()

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _timed(self, name: str, fn):
        tracer = self

        def timed(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(sid)

        return timed

    def _timed_op(self, op: str, fn):
        tracer = self
        fwd, bwd = f"tensor.{op}.fwd", f"tensor.{op}.bwd"

        def timed(*args, **kwargs):
            sid = tracer.begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            tracer._claim_nodes(bwd, out, args, kwargs)
            return out

        return timed

    def _claim_nodes(self, bwd_name: str, out, args, kwargs):
        stop = {id(t) for t in _tensors_in((args, kwargs), [])}
        stack = _tensors_in(out, [])
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            key = id(node)
            if key in seen or key in stop or node._backward is None:
                continue
            seen.add(key)
            if not isinstance(node._backward, _TimedBackward):
                node._backward = _TimedBackward(self, bwd_name, node._backward)
            stack.extend(node._parents)

    def _patch_load_records(self):
        timed = self._timed("dataio.load_records", dataio.load_records)
        tracer = self

        def load_records(manifest, directory):
            # WFDB layout: each row's header plus its sample file
            for row in manifest.rows:
                header = Path(directory) / row.path
                tracer.count("dataio.bytes_read", os.path.getsize(header)
                             + os.path.getsize(header.with_suffix(".dat")))
            return timed(manifest, directory)

        self._patch(dataio, "load_records", load_records)

    def _patch_load_checkpoint(self):
        timed = self._timed("transfer.load_checkpoint", transfer.load_checkpoint)
        tracer = self

        def load_checkpoint(path, *args, **kwargs):
            tracer.count("transfer.checkpoint_bytes", os.path.getsize(path))
            return timed(path, *args, **kwargs)

        self._patch(transfer, "load_checkpoint", load_checkpoint)

    def _patch_batches(self):
        original = BatchLoader.batches
        tracer = self

        def batches(loader, epoch=0):
            # the span covers the time spent inside the loader's generator,
            # including the call that finds it exhausted
            it = original(loader, epoch)
            while True:
                sid = tracer.begin("dataio.batch")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.end(sid)
                tracer.count("dataio.batches", 1)
                yield item

        self._patch(BatchLoader, "batches", batches)

    def _patch_forward(self):
        original = Model.forward
        tracer = self

        def forward(model, x):
            kind = "train" if is_grad_enabled() and model.net.training else "eval"
            sid = tracer.begin(f"models.forward_{kind}")
            try:
                return original(model, x)
            finally:
                tracer.end(sid)

        self._patch(Model, "forward", forward)
        self._patch(Model, "__call__", forward)

    def _patch_backward(self):
        original = Tensor.backward
        tracer = self

        def backward(tensor):
            tracer.graph_nodes.append(len(tensor._toposort()))
            sid = tracer.begin("tensor.backward")
            try:
                return original(tensor)
            finally:
                tracer.end(sid)

        self._patch(Tensor, "backward", backward)

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per traced round.

        Layer times are inclusive span totals; tensor op times are self times.
        """
        def total(span):
            return self.per_round(span, 1), "s"

        def calls(span):
            return self.per_round(span, 0), "count"

        metrics = {
            "dataio.load_records_s": total("dataio.load_records"),
            "dataio.bytes_read": (self.counter_per_round("dataio.bytes_read"),
                                  "bytes"),
            "dataio.loader_build_s": total("dataio.loader_build"),
            "dataio.records_held_bytes": (
                self.gauges.get("dataio.records_held_bytes", 0), "bytes"),
            "dataio.batch_s": total("dataio.batch"),
            "dataio.batches": (self.counter_per_round("dataio.batches"), "count"),
            "signal.bandpass_s": total("signal.bandpass"),
            "signal.bandpass_calls": calls("signal.bandpass"),
            "signal.segment_s": total("signal.segment"),
            "signal.normalize_s": total("signal.normalize"),
            "augment.apply_s": total("augment.apply"),
            "augment.calls": calls("augment.apply"),
            "models.build_s": total("models.build"),
            "models.forward_train_s": total("models.forward_train"),
            "models.forward_eval_s": total("models.forward_eval"),
            "tensor.backward_s": total("tensor.backward"),
            "tensor.graph_nodes_per_step": (self.graph_nodes_per_step(), "count"),
        }
        for op in TENSOR_OPS:
            metrics[f"tensor.{op}.fwd_s"] = (self.per_round(f"tensor.{op}.fwd", 2), "s")
            metrics[f"tensor.{op}.bwd_s"] = (self.per_round(f"tensor.{op}.bwd", 2), "s")
            metrics[f"tensor.{op}.calls"] = calls(f"tensor.{op}.fwd")
        metrics.update({
            "learn.loss_s": total("learn.loss"),
            "learn.zero_grad_s": total("learn.zero_grad"),
            "learn.optim_step_s": total("learn.optim_step"),
            "learn.evaluate_s": total("learn.evaluate"),
            "learn.metrics_s": total("learn.metrics"),
            "transfer.load_checkpoint_s": total("transfer.load_checkpoint"),
            "transfer.adapt_head_s": total("transfer.adapt_head"),
            "transfer.checkpoint_bytes": (
                self.counter_per_round("transfer.checkpoint_bytes"), "bytes"),
            "trace.overhead_pct": (overhead_pct, "%"),
        })
        return metrics

    def graph_nodes_per_step(self) -> int:
        """Nodes in one training step's graph; the same on every step."""
        return int(statistics.median(self.graph_nodes)) if self.graph_nodes else 0

    def layer_table(self) -> list[dict]:
        """Per span name, summed over the traced rounds: calls, total and
        self seconds."""
        return [{"name": name, "calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in sorted(self.stats.items())]
