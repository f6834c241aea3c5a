"""Hyperbolic-Euclidean mixed similarity toolkit.

The public names below are loaded from their submodule on first use (PEP
562), so a process imports only the modules it calls: ``hemix pipeline``
never loads the trainer, the contrastive loss or the mixing analysis.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("GroundingBatch", "ImageRecord", "contrastive_loss", "gradient_check"), "contrastive"),
    **dict.fromkeys(("DecoupleError", "DecoupleResult", "ParseError", "PromptParts", "build_prompt",
                     "decouple_via_service", "parse_response", "render", "rule_based_decompose"), "decouple"),
    **dict.fromkeys(("AnchorRecord", "AnchorSet", "filter_anchors", "ground"), "grounding"),
    **dict.fromkeys(("CurvedPoint", "TangentVector", "apex", "exp_map", "geodesic_distance", "lift", "log_map",
                     "lorentz_inner", "tangent_project"), "lorentz"),
    **dict.fromkeys(("EvalSample", "MatchReport", "iou", "match_sample", "n_acc", "precision_at_f1"), "metrics"),
    **dict.fromkeys(("MixtureErrorModel", "monte_carlo_mse", "mse_of_mix", "optimal_alpha", "quadratic_coeffs"),
                    "mixture"),
    **dict.fromkeys(("ProjectionBundle", "hemix", "load_bundle", "save_bundle", "score_matrix", "sim_euclidean",
                     "sim_hyperbolic"), "similarity"),
    **dict.fromkeys(("SyntheticHierarchy", "TrainConfig", "TrainingDiverged", "apex_report", "default_hierarchy",
                     "generate_dataset", "selection_accuracy", "train"), "trainer"),
}
# The submodules that resolve as ``hemix.<name>`` without an import of their own.
_SUBMODULES = ("contrastive", "decouple", "grounding", "lorentz", "metrics", "mixture", "records", "similarity",
               "trainer")

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
