"""What a recorded training step keeps alive, before and after backward.

Convolutions save their input, not the column matrix their forward builds,
``Tape.backward`` drops every backward rule as it passes it, and a stage
records nothing that only its frozen parameters and the data feed. Saved
arrays are found the way the desk benchmark in perfbench/ counts them: by
walking each backward closure's cells to the root buffers of its arrays.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import _held_arrays  # noqa: E402
from vnact import Tape, Tensor, create_model, multi_task_loss, ops  # noqa: E402
from vnact.errors import TapeError  # noqa: E402
from vnact.synthetic import default_label_space, make_two_stream_synthetic  # noqa: E402
from vnact.training import PRESETS, AugmentationConfig, apply_overrides, run_stage  # noqa: E402
from vnact.tensor import add, scale  # noqa: E402

CONFIG = {"app": {"input_channels": 2, "stage_channels": [2, 3], "memory": 2},
          "motion": {"flow_channels": 2, "stage_channels": [2, 3], "memory": 2}}


def root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_training_step_keeps_only_what_backward_needs(monkeypatch):
    rng = np.random.default_rng(0)
    space = default_label_space(3, 4, 6, seed=0)
    model = create_model("two_stream", CONFIG, space, seed=1)
    inputs = {"frames": rng.normal(size=(2, 3, 2, 4, 4)), "flow": rng.normal(size=(2, 3, 2, 4, 4))}
    actions = rng.integers(0, space.num_actions, size=2)
    pairs = np.asarray(space.actions)
    labels = (pairs[actions, 0], pairs[actions, 1], actions)

    convs = []
    true_apply_op = ops.apply_op

    def recording(kind, inputs, out, backward):
        if kind in ("conv2d", "conv3d"):
            convs.append((kind, inputs, backward))
        return true_apply_op(kind, inputs, out, backward)

    monkeypatch.setattr(ops, "apply_op", recording)
    with Tape() as tape:
        loss = multi_task_loss(model.forward(inputs), labels)
        scale(loss, 2.0)  # a node recorded after the loss

    assert {kind for kind, _, _ in convs} == {"conv2d", "conv3d"}
    for kind, (x, kernel), backward in convs:
        held = {}
        _held_arrays(backward, held)
        assert id(root(x.data)) in held
        assert set(held) <= {id(root(x.data)), id(root(kernel.data))}, kind
        assert max(held.values()) <= max(root(x.data).nbytes, root(kernel.data).nbytes)

    tape.backward(loss)
    assert all(node.backward is None for node in tape.nodes)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_frozen_backbone_kernels_leave_no_trace(monkeypatch):
    """Under the two_stream preset every backbone kernel below the last stage
    is frozen: its convolutions still run, but no recorded node reads it."""
    space = default_label_space(3, 4, 6, seed=0)
    model = create_model("two_stream", CONFIG, space, seed=1)
    data = make_two_stream_synthetic(space, 4, 3, 2, 2, 4, 4, 0.5, seed=2, split_tag="custom")
    schedule = apply_overrides(PRESETS["two_stream"], {"epochs": 1, "batch_size": 4,
                                                       "frames_T": 3})
    frozen = {id(root(t.data)): name for name, t in model.params().items()
              if model.group_of(name) == "backbone" and name.endswith(".kernel")}
    assert len(frozen) == 2  # stage0 of each stream

    recorded, unrecorded = [], []
    true_apply_op = ops.apply_op

    def recording(kind, inputs, out, backward):
        result = true_apply_op(kind, inputs, out, backward)
        (recorded if result.grad_enabled else unrecorded).append(inputs)
        return result

    monkeypatch.setattr(ops, "apply_op", recording)
    run_stage(model, data, schedule, aug=AugmentationConfig(), seed=3)

    def reads_frozen(inputs):
        return [frozen[id(root(t.data))] for t in inputs if id(root(t.data)) in frozen]

    assert recorded
    assert sorted({n for inputs in unrecorded for n in reads_frozen(inputs)}) == sorted(
        frozen.values())
    assert not [n for inputs in recorded for n in reads_frozen(inputs)]


@pytest.mark.parametrize("rule", ["mean", "index_select", "add"])
def test_shape_only_rules_hold_no_input(rule):
    """A rule whose adjoint needs only its inputs' shapes keeps the shapes,
    not the input arrays, until backward."""
    x = Tensor(np.ones((2, 3, 4)), grad_enabled=True)
    y = Tensor(np.ones((3, 4)), grad_enabled=True)
    with Tape() as tape:
        out = {"mean": lambda: ops.mean_along(x, (-2, -1)),
               "index_select": lambda: ops.index_select(x, 1, 2),
               "add": lambda: add(x, y)}[rule]()
    node = tape.nodes[tape.node_of(out)]
    assert node.kind == rule
    held = {}
    _held_arrays(node.backward, held)
    assert held == {}


def test_dropout_node_holds_only_the_mask():
    """hadamard keeps an input's array only for its partner's adjoint: the
    dropout mask takes no gradient, so the node holds the mask, not x, and
    its rule returns None for the mask."""
    x = Tensor(np.ones((4, 8)), grad_enabled=True)
    with Tape() as tape:
        out = ops.dropout(x, 0.5, np.random.default_rng(0))
    node = tape.nodes[tape.node_of(out)]
    assert node.kind == "hadamard" and node.parents[1] is None
    held = {}
    _held_arrays(node.backward, held)
    assert id(root(x.data)) not in held and list(held.values()) == [x.data.nbytes]
    g = np.arange(32.0).reshape(4, 8)
    gx, gmask = node.backward(g)
    assert gmask is None
    assert gx.tobytes() == (g * out.data).tobytes()  # x is all ones: out is the mask
