"""spineid: deterministic building blocks for vertebra identification pipelines.

The package turns noisy per-slice detections into ordered 3D vertebra
centers, scores embedding batches and label sequences, condenses Monte Carlo
confidence samples into uncertainty reports, and refines per-vertebra label
confidences by uncertainty-weighted message fusion with trainable matrices.
A seeded synthetic generator and an evaluation harness make every stage
testable end to end without any trained network.

The public names load lazily (PEP 562): ``import spineid`` runs no stage
module, and the first access to a name imports the module that defines it.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Every public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "clustering": ("ClusterConfig", "box_densities", "cluster_centers", "embed_detections"),
        "domain": ("DetectionSet", "FusionParams", "McSampleSet", "SpineCase", "SpineVertebra", "VertebraCenter",
                   "phi_offsets"),
        "errors": ("DegenerateGeometryError", "DivergenceError", "EmptyClusterError", "ParseError",
                   "SpineError", "ValidationError"),
        "evaluate": ("EvalReport", "constrained_decode", "decode_states", "evaluate"),
        "fusion": ("FusionTrace", "TrainConfig", "fuse", "identity_params", "initial_phi", "train_phi"),
        "io": ("load_case", "load_centers", "load_detections", "load_embedding_batch", "load_fusion_params",
               "save_case", "save_centers", "save_detections", "save_fusion_params"),
        "labels": ("CANONICAL_NAMES", "N_CLASSES", "label_index", "sequence_loss"),
        "losses": ("EmbeddingBatch", "supcon_grad", "supcon_loss", "total_loss"),
        "synthetic": ("ConfusionModel", "DetectConfig", "GenConfig", "McConfig", "gen_cases", "generate_case"),
        "uncertainty": ("aggregate_samples", "certainty_from_variance", "entropy", "report"),
    }.items()
    for name in names
}
_MODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULES})


class _Package(types.ModuleType):
    """Keeps an exported name bound to its value when a submodule of that name loads.

    Importing ``spineid.evaluate`` makes the import system set the package
    attribute ``evaluate`` to the submodule; the public ``evaluate`` is the
    function, as it was when this package imported every module eagerly.
    """

    def __setattr__(self, name: str, value) -> None:
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
