"""spineid: deterministic building blocks for vertebra identification pipelines.

The package turns noisy per-slice detections into ordered 3D vertebra
centers, scores embedding batches and label sequences, condenses Monte Carlo
confidence samples into uncertainty reports, and refines per-vertebra label
confidences by uncertainty-weighted message fusion with trainable matrices.
A seeded synthetic generator and an evaluation harness make every stage
testable end to end without any trained network.
"""

from .clustering import ClusterConfig, box_density, cluster_centers, embed_detections
from .domain import (
    DetectionSet,
    FusionParams,
    McSampleSet,
    SpineCase,
    SpineVertebra,
    UncertaintyReport,
    VertebraCenter,
    phi_offsets,
)
from .errors import (
    DegenerateGeometryError,
    DivergenceError,
    EmptyClusterError,
    ParseError,
    SpineError,
    ValidationError,
)
from .evaluate import EvalReport, constrained_decode, decode_states, evaluate
from .fusion import FusionTrace, TrainConfig, fuse, identity_params, initial_phi, train_phi
from .io import (
    load_case,
    load_centers,
    load_detections,
    load_embedding_batch,
    load_fusion_params,
    save_case,
    save_centers,
    save_detections,
    save_fusion_params,
)
from .labels import CANONICAL_NAMES, N_CLASSES, VertebraLabel
from .losses import EmbeddingBatch, LabelSequence, sequence_loss, supcon_grad, supcon_loss, total_loss
from .synthetic import ConfusionModel, DetectConfig, GenConfig, McConfig, gen_cases, generate_case
from .uncertainty import aggregate_samples, certainty_from_variance, entropy, report

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_NAMES",
    "ClusterConfig",
    "ConfusionModel",
    "DegenerateGeometryError",
    "DetectConfig",
    "DetectionSet",
    "DivergenceError",
    "EmbeddingBatch",
    "EmptyClusterError",
    "EvalReport",
    "FusionParams",
    "FusionTrace",
    "GenConfig",
    "LabelSequence",
    "McConfig",
    "McSampleSet",
    "N_CLASSES",
    "ParseError",
    "SpineCase",
    "SpineError",
    "SpineVertebra",
    "TrainConfig",
    "UncertaintyReport",
    "ValidationError",
    "VertebraCenter",
    "VertebraLabel",
    "aggregate_samples",
    "box_density",
    "certainty_from_variance",
    "cluster_centers",
    "constrained_decode",
    "decode_states",
    "embed_detections",
    "entropy",
    "evaluate",
    "fuse",
    "gen_cases",
    "generate_case",
    "identity_params",
    "initial_phi",
    "load_case",
    "load_centers",
    "load_detections",
    "load_embedding_batch",
    "load_fusion_params",
    "phi_offsets",
    "report",
    "save_case",
    "save_centers",
    "save_detections",
    "save_fusion_params",
    "sequence_loss",
    "supcon_grad",
    "supcon_loss",
    "total_loss",
    "train_phi",
]
