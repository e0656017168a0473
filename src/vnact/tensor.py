"""Dense float64 tensors with a reverse-mode differentiation tape.

Every value in the package flows through :class:`Tensor`: feature maps,
recurrent states, weights, logits and losses. Tensors are immutable after
construction; operations produce new tensors and, when a :class:`Tape` is
active and an input participates in differentiation, record a node holding
the backward rule. All arithmetic is 64-bit so finite-difference checks
have headroom.

Storage and elementwise arithmetic are delegated to numpy. The tape and
the recording discipline live here. Every backward rule lives here (add,
hadamard, scale) or in :mod:`vnact.ops` (all others): no other module calls
:func:`apply_op`, no rule reads what another node's rule writes, and a rule
that needs only its inputs' shapes keeps those, not the inputs' arrays.

Importing this module pins glibc's allocator for the whole process (on
other C libraries it does nothing): ``M_MMAP_THRESHOLD`` is set to 32 MiB
and ``M_TRIM_THRESHOLD`` to 64 MiB, the values glibc's own dynamic rule
reaches after its largest possible free. Left dynamic, the threshold
stays at the largest block freed so far, so a step's few-MB activations
are mapped and unmapped afresh each time and fault their pages back in:
thousands of page faults per training step in a fresh process.

It also sets ``M_ARENA_MAX`` to 1, so every thread allocates from the main
arena. :func:`vnact.training.evaluate` scores each batch in parts on two
threads, and :func:`vnact.training.run_stage` trains a batch of 32 or more
clips as two shards on two threads; by default glibc gives the second thread an arena of its own,
whose pages no step has touched and whose freed blocks the main thread
cannot reuse. Unpinned, threaded evaluation raised a desk ``hf-tsn``
benchmark run's peak RSS 6-12% above single-threaded evaluation's 164 MB;
pinned, 3%.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError, TapeError

# mallopt parameters of glibc's malloc.h.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _pin_allocator() -> None:
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 1)


_pin_allocator()

_uid_counter = itertools.count(1)

_local = threading.local()


def _tape_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def active_tape() -> Optional["Tape"]:
    """The innermost tape currently recording, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """An immutable dense array, optionally tracked on a tape.

    Attributes:
        data: row-major float64 ndarray, marked read-only.
        shape: tuple of extents.
        grad_enabled: whether this tensor participates in differentiation.
        uid: process-unique id; a tape maps it to the tensor's node.
    """

    __slots__ = ("data", "grad_enabled", "uid")

    def __init__(self, data, grad_enabled: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        arr.flags.writeable = False
        self.data = arr
        self.grad_enabled = grad_enabled
        self.uid = next(_uid_counter)

    @classmethod
    def _wrap(cls, arr: np.ndarray, grad_enabled: bool = False) -> "Tensor":
        t = cls.__new__(cls)
        # np.ascontiguousarray would promote 0-d arrays to 1-d; keep rank.
        arr = np.asarray(arr, dtype=np.float64, order="C")
        if not arr.flags.c_contiguous or arr.base is not None and arr.flags.writeable:
            arr = arr.copy(order="C")
        arr.flags.writeable = False
        t.data = arr
        t.grad_enabled = grad_enabled
        t.uid = next(_uid_counter)
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad_enabled={self.grad_enabled})"

    def __add__(self, other):
        # The library calls add(); perfbench's forward-check test offsets a
        # conv2d output by a float with `+`.
        return add(self, other if isinstance(other, Tensor) else Tensor(other))


class TapeNode:
    """One recorded operation: kind, parent node ids, backward rule.

    ``backward`` maps the adjoint of this node's output to a tuple of
    adjoint contributions aligned with ``parents`` (None for inputs that
    need no gradient); :meth:`Tape.backward` clears it once it has run.
    Leaf nodes carry ``backward=None`` and remember the tensor they stand for.
    """

    __slots__ = ("kind", "parents", "backward", "leaf")

    def __init__(self, kind: str, parents: tuple, backward, leaf: Optional[Tensor] = None):
        self.kind = kind
        self.parents = parents
        self.backward = backward
        self.leaf = leaf


class Tape:
    """Ordered record of one forward computation.

    Nodes are appended in execution order, so the node list is always a
    valid topological order (parents precede children). A tape supports
    exactly one backward traversal; traversing again without re-recording
    raises :class:`TapeError`. Use as a context manager::

        with Tape() as tape:
            loss = model(...)
        grads = tape.backward(loss)
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._node_of_uid: dict[int, int] = {}
        self.consumed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise TapeError("tape context exited out of order")
        stack.pop()

    def node_of(self, t: Tensor) -> Optional[int]:
        return self._node_of_uid.get(t.uid)

    def _add_leaf(self, t: Tensor) -> int:
        nid = len(self.nodes)
        self.nodes.append(TapeNode("leaf", (), None, leaf=t))
        self._node_of_uid[t.uid] = nid
        return nid

    def _record(self, kind: str, parent_ids: tuple, backward, out: Tensor) -> int:
        nid = len(self.nodes)
        self.nodes.append(TapeNode(kind, parent_ids, backward))
        self._node_of_uid[out.uid] = nid
        return nid

    def backward(self, loss: Tensor) -> dict[int, Tensor]:
        """Traverse the tape once, returning gradients for grad-enabled leaves.

        The result maps each leaf tensor's ``uid`` to its gradient tensor.
        Fan-out is accumulated; the traversal order is the exact reverse of
        the recording order, so results are bit-deterministic. The tape is
        consumed by this call: each node's backward rule is dropped as the
        traversal passes it, so the arrays it saved are freed during the one
        traversal rather than when the tape is discarded.
        """
        if self.consumed:
            raise TapeError("tape already traversed; re-record the forward pass")
        self.consumed = True
        loss_nid = self._node_of_uid.get(loss.uid)
        if loss_nid is None:
            raise TapeError("loss tensor was not recorded on this tape")
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")

        adjoints: list[Optional[np.ndarray]] = [None] * len(self.nodes)
        adjoints[loss_nid] = np.ones_like(loss.data)
        for nid in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[nid]
            # Release the rule, and the arrays it saved, as soon as it is passed.
            backward, node.backward = node.backward, None
            grad_out = adjoints[nid]
            if grad_out is None or backward is None:
                continue
            contributions = backward(grad_out)
            for pid, contrib in zip(node.parents, contributions):
                if pid is None or contrib is None:
                    continue
                prev = adjoints[pid]
                # Never accumulate in place: contributions may alias saved data.
                adjoints[pid] = contrib if prev is None else prev + contrib
            adjoints[nid] = None

        grads: dict[int, Tensor] = {}
        for nid, node in enumerate(self.nodes):
            if node.leaf is not None and node.leaf.grad_enabled and adjoints[nid] is not None:
                grads[node.leaf.uid] = Tensor._wrap(adjoints[nid])
        return grads


def apply_op(
    kind: str,
    inputs: Sequence[Tensor],
    out_data: np.ndarray,
    backward_fn: Optional[Callable],
) -> Tensor:
    """Wrap an op result, check finiteness, and record it if a tape is active."""
    if not np.isfinite(out_data).all():
        raise NonFiniteError(f"operation '{kind}' produced non-finite values")
    tape = active_tape()
    if tape is not None and backward_fn is not None and any(t.grad_enabled for t in inputs):
        out = Tensor._wrap(out_data, grad_enabled=True)
        parent_ids = []
        for t in inputs:
            nid = tape.node_of(t)
            if nid is None and t.grad_enabled:
                # A leaf gets its node the first time an op consumes it.
                nid = tape._add_leaf(t)
            parent_ids.append(nid)
        tape._record(kind, tuple(parent_ids), backward_fn, out)
        return out
    return Tensor._wrap(out_data)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcastable(a: np.ndarray, b: np.ndarray, kind: str) -> None:
    for na, nb in zip(a.shape[::-1], b.shape[::-1]):
        if na != nb and na != 1 and nb != 1:
            raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} are not broadcastable")


# ---------------------------------------------------------------------------
# elementwise operations


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a.data, b.data, "add")
    with np.errstate(over="ignore"):
        out = a.data + b.data
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return apply_op("add", (a, b), out, bwd)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcastable(a.data, b.data, "hadamard")
    with np.errstate(over="ignore"):
        out = a.data * b.data
    # Each adjoint reads the other input: keep an array only for a partner that
    # takes a gradient (dropout's mask takes none, so x is not kept).
    sa, sb = a.shape, b.shape
    ad, bd = (a.data if b.grad_enabled else None), (b.data if a.grad_enabled else None)

    def bwd(g):
        return (None if bd is None else _unbroadcast(g * bd, sa),
                None if ad is None else _unbroadcast(g * ad, sb))

    return apply_op("hadamard", (a, b), out, bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    with np.errstate(over="ignore"):
        out = a.data * factor

    def bwd(g):
        return (g * factor,)

    return apply_op("scale", (a,), out, bwd)

