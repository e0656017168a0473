"""The functions the desk benchmark in perfbench/ looks up in vnact.

The benchmark's tracer rebinds vnact functions where their callers look
them up, and its forward checks capture what the layers produced. Both run
here on one small model per traced family, so a refactor that moves one
of those hooks fails the tier-1 suite, not only the benchmark's own tests.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from vnact import Tape, create_model, multi_task_loss  # noqa: E402
from vnact.synthetic import default_label_space  # noqa: E402

CONFIGS = {
    "lsta_gru": {"input_channels": 2, "stage_channels": [2, 3], "memory": 2, "gru_hidden": 2},
    "hf_tsn": {"input_channels": 2, "stage_channels": [2, 3], "segments": 2, "hf_positions": [0, 1]},
    "two_stream": {"app": {"input_channels": 2, "stage_channels": [2, 3], "memory": 2},
                   "motion": {"flow_channels": 2, "stage_channels": [2, 3], "memory": 2}},
}


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_tracer_and_forward_checks_find_their_hooks(family):
    rng = np.random.default_rng(0)
    space = default_label_space(3, 4, 6, seed=0)
    model = create_model(family, CONFIGS[family], space, seed=1)
    inputs = {"frames": rng.normal(size=(2, 2, 2, 4, 4))}
    if family == "two_stream":
        inputs["flow"] = rng.normal(size=(2, 2, 2, 4, 4))
    actions = rng.integers(0, space.num_actions, size=2)
    pairs = np.asarray(space.actions)
    labels = (pairs[actions, 0], pairs[actions, 1], actions)

    tracer = Tracer()
    with tracer.installed(model):
        with Tape() as tape:
            loss = multi_task_loss(model.forward(inputs), labels)
        tape.backward(loss)
    assert tracer.calls["models.forward"] == 1
    assert tracer.calls["tensor.backward"] == 1 and tracer.tape_nodes > 0
    assert (tracer.calls["cells.rollout_fwd"] > 0) == (family != "hf_tsn")
    assert (tracer.calls["twostream.fusion_fwd"] > 0) == (family == "two_stream")
    assert (tracer.calls["hftsn.hf_block_fwd"] > 0) == (family == "hf_tsn")
    # The loss and the fused cell and backbone rules sit in ops, where the tracer
    # wraps them: one ops.other forward per call, and each call records one node.
    fused = sum(node.kind in ("cross_entropy", "gate_update", "gate_output", "gru_step",
                              "hf_mix", "bias_relu")
                for node in tape.nodes)
    assert fused >= 3 and tracer.op_calls["other"] == fused and tracer.op_fwd["other"] > 0

    checks.forward_properties(model, inputs)
