"""Verb/noun/action video recognition toolkit.

From-scratch differentiable building blocks (tape autodiff, conv and
recurrent cells), two clip-classification model families — an attentive
recurrent network with gated aggregators, and a segment-consensus network
with learnable temporal-interaction blocks — a structured three-task
prediction head, cross-modal two-stream fusion, reference training
schedules, metrics, ensembling and a CLI, all runnable on synthetic data.
"""

from .errors import (
    DeterminismError,
    FormatError,
    NonFiniteError,
    NumericalError,
    ShapeError,
    TapeError,
    ValidationError,
    VnactError,
)
from .gradcheck import GradReport, grad_check
from .heads import (
    LabelSpace,
    ScoreTriple,
    StructuredHeadParams,
    derive_pair,
    multi_task_loss,
    structured_forward,
)
from .models import FAMILIES, create_model, load_model
from .scores import (
    MetricsReport,
    ScoreTable,
    average_tables,
    compute_metrics,
    decode,
    read_score_json,
    topk_accuracy,
    write_score_json,
    write_submission_json,
)
from .tensor import Tape, Tensor
from .tnsf import load_bundle, read_tnsf, save_bundle, write_tnsf
from .training import (
    PRESETS,
    AugmentationConfig,
    CropSpec,
    StageSchedule,
    apply_overrides,
    eval_multiview,
    evaluate,
    lr_at,
    optimizer_step,
    run_stage,
    sample_frames,
)

__version__ = "0.1.0"
