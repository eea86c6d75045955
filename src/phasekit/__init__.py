"""phasekit: surgical phase inference on logit streams.

Calibrated-confidence switching between a 7-class baseline classifier and six
2-class transition models, plus temperature-scaling calibration, a buffer-
majority inference strategy, and a synthetic workflow simulator for
desk-scale verification.
"""

from .attention import AttentionWeights, HeadConfig, multi_head_attention, scaled_dot_attention
from .calibration import (
    CalibrationReport,
    Temperature,
    calibrate_report,
    ece,
    fit_temperature,
    nll,
    reliability_bins,
)
from .inference import (
    InferenceConfig,
    InferenceTrace,
    baseline_argmax,
    confidence_inference,
    transition_inference,
)
from .logits import (
    LogitSequence,
    TransitionLogitBank,
    load_bank,
    load_logits,
    save_bank,
    save_logits,
    softmax,
)
from .metrics import (
    CascadeReport,
    CascadeRun,
    accuracy,
    detect_cascades,
    evaluate_predictions,
    restricted_pair_accuracy,
)
from .simulate import (
    NoiseSpec,
    WorkflowSpec,
    generate_baseline_logits,
    generate_dataset,
    generate_ground_truth,
    generate_transition_bank,
)
from .workflow import (
    NUM_PHASES,
    PhaseTimeline,
    TransitionPair,
    all_transition_pairs,
    load_timelines,
    pair_for_phase,
    save_timelines,
    segment_boundaries,
)

__version__ = "0.1.0"
