"""Opt-in tracing of vnact from outside the package.

Tracing rebinds functions where their callers look them up: every vnact
module attribute that refers to a traced function is replaced by a timing
wrapper for the duration of an ``installed()`` block and restored after.
Nothing in vnact changes, and with no block open nothing is wrapped.

Two kinds of records are kept, both as totals in seconds plus call counts:

* layer spans, named ``<module>.<layer>`` (e.g. ``hftsn.backbone_fwd``),
  around the layer entry points listed in ``_LAYER_SPANS``;
* op spans per op group (``conv2d``, ``elementwise``, ...): forward time
  around every function that records a tape node through ``apply_op``, and
  backward time around the closure each op hands to ``apply_op``.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np

import vnact
from vnact import cells, hftsn, heads, models, ops, synthetic, tensor, training, twostream

# apply_op kind -> op group reported as ops.<group>.*; unknown kinds are "other".
OP_GROUPS = {
    "conv2d": "conv2d", "conv3d": "conv3d", "matmul": "matmul",
    **{k: "elementwise" for k in (
        "add", "subtract", "hadamard", "scale", "sigmoid", "tanh", "exp", "log", "relu")},
    **{k: "shape" for k in (
        "reshape", "transpose", "concat", "narrow", "index_select", "take_rows")},
    **{k: "softmax" for k in ("softmax_spatial", "softmax_spatial_scaled", "logsumexp")},
    **{k: "pooling" for k in ("spatial_avg_pool", "avg_pool2x2", "sum", "mean", "mean_all")},
}
GROUPS = ("conv2d", "conv3d", "matmul", "elementwise", "shape", "softmax", "pooling", "other")

# Layer entry points, by the function object the callers look up.
_LAYER_SPANS = {
    training._prepare_batch: "training.batch_prep",
    training.optimizer_step: "training.optimizer",
    heads.multi_task_loss: "heads.loss",
    heads.structured_forward: "heads.fwd",
    hftsn.backbone_forward: "hftsn.backbone_fwd",
    hftsn.hf_block: "hftsn.hf_block_fwd",
    cells.run_lsta_gru: "cells.rollout_fwd",
    twostream.cross_modal_rollout: "cells.rollout_fwd",
    twostream.motion_spatial_attention: "twostream.attention_fwd",
    models.load_bundle: "tnsf.load",
}


def vnact_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "vnact" or name.startswith("vnact."))]


@contextmanager
def rebound(original, replacement):
    """Point every vnact module attribute that names ``original`` at ``replacement``."""
    sites = [(m, name) for m in vnact_modules()
             for name, value in list(vars(m).items()) if value is original]
    for m, name in sites:
        setattr(m, name, replacement)
    try:
        yield
    finally:
        for m, name in sites:
            setattr(m, name, original)


@contextmanager
def patched(owner, name, replacement):
    """Temporarily replace one attribute of a class or module."""
    original = vars(owner)[name]
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def op_functions():
    """Every tensor/ops function that records its result through apply_op."""
    found = []
    for module in (tensor, ops):
        for name, fn in vars(module).items():
            if (callable(fn) and getattr(fn, "__module__", None) == module.__name__
                    and fn is not tensor.apply_op and hasattr(fn, "__code__")
                    and "apply_op" in fn.__code__.co_names):
                found.append(fn)
    return found


def _held_arrays(obj, roots, depth=0):
    """Collect the root buffers of arrays a backward closure keeps alive."""
    if isinstance(obj, vnact.Tensor):
        obj = obj.data
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        roots[id(obj)] = obj.nbytes
    elif isinstance(obj, (tuple, list)) and depth < 3:
        for item in obj:
            _held_arrays(item, roots, depth + 1)
    elif callable(obj) and getattr(obj, "__closure__", None) and depth < 3:
        for cell in obj.__closure__:
            try:
                _held_arrays(cell.cell_contents, roots, depth + 1)
            except ValueError:  # empty cell
                pass


class Tracer:
    """Totals of layer and op spans recorded while ``installed()`` is open."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = Counter()
        self.op_calls = Counter()
        self.op_fwd = defaultdict(float)
        self.op_bwd = defaultdict(float)
        self.tape_nodes = 0
        self.saved_bytes = 0
        # Time spent measuring saved bytes; callers subtract it from wall time.
        self.excluded = 0.0
        self._open = Counter()
        self._frames = []

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            self._open[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += perf_counter() - start
                self.calls[name] += 1
                self._open[name] -= 1
        return traced

    def _op(self, fn):
        def traced(*args, **kwargs):
            frame = [None, 0.0]  # kind recorded by apply_op, time of nested ops
            self._frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._frames.pop()
                if self._frames:
                    self._frames[-1][1] += elapsed
                if frame[0] is not None:
                    group = OP_GROUPS.get(frame[0], "other")
                    self.op_calls[group] += 1
                    self.op_fwd[group] += elapsed - frame[1]
        return traced

    def _apply_op(self, original):
        def traced(kind, inputs, out_data, backward_fn):
            if self._frames:
                self._frames[-1][0] = kind
            if backward_fn is not None:
                backward_fn = self._timed_backward(OP_GROUPS.get(kind, "other"), backward_fn)
            return original(kind, inputs, out_data, backward_fn)
        return traced

    def _timed_backward(self, group, backward_fn):
        def traced(g):
            start = perf_counter()
            try:
                return backward_fn(g)
            finally:
                self.op_bwd[group] += perf_counter() - start
        return traced

    def _tape_backward(self, original):
        span = self._span("tensor.backward", original)

        def traced(tape, loss):
            start = perf_counter()
            roots = {}
            for node in tape.nodes:
                if node.backward is not None:
                    _held_arrays(node.backward, roots)
            self.saved_bytes += sum(roots.values())
            self.tape_nodes += len(tape.nodes)
            self.excluded += perf_counter() - start
            return span(tape, loss)
        return traced

    def _fusion(self, fn):
        """Gate-bias convolutions of the cross-modal rollout (not the attention's)."""
        span = self._span("twostream.fusion_fwd", fn)

        def traced(*args, **kwargs):
            if self._open["twostream.attention_fwd"]:
                return fn(*args, **kwargs)
            return span(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self, model):
        """Trace every layer and op while the block is open."""
        with ExitStack() as stack:
            wrapped_ops = {fn: self._op(fn) for fn in op_functions()}
            for fn, wrapper in wrapped_ops.items():
                stack.enter_context(rebound(fn, wrapper))
            stack.enter_context(rebound(tensor.apply_op, self._apply_op(tensor.apply_op)))
            for fn, name in _LAYER_SPANS.items():
                stack.enter_context(rebound(fn, self._span(name, fn)))
            # The fusion convolutions are looked up in twostream's namespace,
            # where the op wrappers now sit; wrap those again.
            for op_name in ("conv2d", "conv3d"):
                stack.enter_context(patched(twostream, op_name,
                                            self._fusion(getattr(twostream, op_name))))
            from_stacked = vars(cells.GateBias)["from_stacked"].__func__
            stack.enter_context(patched(cells.GateBias, "from_stacked", classmethod(
                self._fusion(from_stacked))))
            stack.enter_context(patched(tensor.Tape, "backward",
                                        self._tape_backward(tensor.Tape.backward)))
            stack.enter_context(patched(synthetic.SyntheticDataset, "batch", self._span(
                "training.batch_prep", synthetic.SyntheticDataset.batch)))
            cls = type(model)
            stack.enter_context(patched(cls, "forward", self._span("models.forward",
                                                                    vars(cls)["forward"])))
            yield self
