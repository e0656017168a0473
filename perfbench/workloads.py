"""The three desk workloads: their data, model, training schedule and eval plan.

All three use the acceptance-test desk data (6 verbs, 8 nouns, 12
actions; 500 train and 200 test clips; T=8, 16x16, noise sigma 0.5).
Data, label space and model initialization all derive from the workload
seed, so the same seed gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from vnact import models, synthetic, training
from vnact.init import derive_seed

TRAIN_CLIPS, TEST_CLIPS = 500, 200
T_LEN, HEIGHT, WIDTH, NOISE = 8, 16, 16, 0.5
STAGES = [8, 12, 16]
# Two epochs per round: enough for the loss to fall measurably, short
# enough that a run holds several rounds.
EPOCHS_PER_ROUND = 2
EVAL_BATCH = 32
AUG = training.AugmentationConfig(scale_jitter=None, horizontal_flip=0.0, temporal_jitter=True)


@dataclass(frozen=True)
class Workload:
    name: str
    two_stream_data: bool
    # (label space, seed) -> (model, *source streams)
    create: Callable[[object, int], tuple]
    schedule: training.StageSchedule
    crop: Optional[training.CropSpec] = None
    crop_size: Optional[int] = None

    def make_data(self, seed: int):
        space = synthetic.default_label_space(6, 8, 12, seed=seed)
        splits = []
        for split, count in (("train", TRAIN_CLIPS), ("test", TEST_CLIPS)):
            split_seed = derive_seed(seed, f"data:{split}")
            if self.two_stream_data:
                ds = synthetic.make_two_stream_synthetic(
                    space, count, T_LEN, 3, 4, HEIGHT, WIDTH, NOISE, split_seed, split_tag=split)
            else:
                ds = synthetic.make_synthetic(
                    space, count, T_LEN, 3, HEIGHT, WIDTH, NOISE, split_seed, split_tag=split)
            splits.append(ds)
        return space, splits[0], splits[1]

    def evaluate(self, model, dataset):
        return training.evaluate(model, dataset, frames_t=T_LEN, batch_size=EVAL_BATCH,
                                 crop=self.crop, crop_size=self.crop_size)


def _lsta_gru(space, seed):
    cfg = {"input_channels": 3, "stage_channels": STAGES, "memory": 16, "gru_hidden": 16}
    return (models.create_model("lsta_gru", cfg, space, derive_seed(seed, "init")),)


def _hf_tsn(space, seed):
    cfg = {"input_channels": 3, "stage_channels": STAGES, "segments": T_LEN,
           "hf_positions": [0, 1, 2]}
    return (models.create_model("hf_tsn", cfg, space, derive_seed(seed, "init")),)


def _two_stream(space, seed):
    app = models.create_model("lsta", {"input_channels": 3, "stage_channels": STAGES,
                                       "memory": 16}, space, derive_seed(seed, "init:app"))
    motion = models.create_model("motion", {"flow_channels": 4, "stage_channels": STAGES,
                                            "memory": 16}, space, derive_seed(seed, "init:motion"))
    return models.TwoStreamModel.from_streams(app, motion), app, motion


def _desk(preset: str, **overrides) -> training.StageSchedule:
    return training.apply_overrides(training.PRESETS[preset], {
        "epochs": EPOCHS_PER_ROUND, "frames_T": T_LEN, **overrides})


WORKLOADS = {
    w.name: w for w in (
        Workload("lsta-gru", False, _lsta_gru, _desk(
            "lsta_stage1", batch_size=8,
            trainable_groups=("heads", "lsta", "grus", "backbone", "backbone_last_stage"))),
        Workload("hf-tsn", False, _hf_tsn, _desk("hf_tsn")),
        Workload("two-stream", True, _two_stream, _desk("two_stream"),
                 crop=training.CropSpec("lsta_10view"), crop_size=12),
    )
}
