"""Hyperbolic-Euclidean mixed similarity toolkit."""

from .contrastive import (
    GroundingBatch,
    ImageRecord,
    LossReport,
    contrastive_loss,
    gradient_check,
    hierarchical_loss,
)
from .decouple import (
    DecoupleError,
    DecoupleResult,
    ParseError,
    PromptParts,
    build_prompt,
    decouple_via_service,
    parse_response,
    render,
    rule_based_decompose,
)
from .grounding import AnchorRecord, AnchorSet, filter_anchors, ground
from .lorentz import (
    CurvedPoint,
    TangentVector,
    apex,
    exp_map,
    geodesic_distance,
    lift,
    log_map,
    lorentz_inner,
    tangent_project,
)
from .metrics import EvalSample, MatchReport, iou, iou_at_05, match_sample, n_acc, precision_at_f1
from .mixture import MixtureErrorModel, monte_carlo_mse, mse_of_mix, optimal_alpha, quadratic_coeffs
from .similarity import (
    ProjectionBundle,
    hemix,
    load_bundle,
    save_bundle,
    score_matrix,
    sim_euclidean,
    sim_hyperbolic,
)
from .trainer import (
    SyntheticHierarchy,
    TrainConfig,
    TrainingDiverged,
    apex_report,
    default_hierarchy,
    generate_dataset,
    selection_accuracy,
    train,
)

__version__ = "0.1.0"
