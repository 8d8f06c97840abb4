"""The package's public names: the same 54, each the object its module defines, loaded on first use.
Also: no module of the package keeps an import it does not use, or a private name nothing in the package reads.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from test_acceptance import _child_env

# The public API and the module that defines each name.
PUBLIC = {
    "clustering": ["ClusterConfig", "box_densities", "cluster_centers", "embed_detections"],
    "domain": ["DetectionSet", "FusionParams", "McSampleSet", "SpineCase", "SpineVertebra", "VertebraCenter",
               "phi_offsets"],
    "errors": ["DegenerateGeometryError", "DivergenceError", "EmptyClusterError", "ParseError", "SpineError",
               "ValidationError"],
    "evaluate": ["EvalReport", "constrained_decode", "decode_states", "evaluate"],
    "fusion": ["FusionTrace", "TrainConfig", "fuse", "identity_params", "initial_phi", "train_phi"],
    "io": ["load_case", "load_centers", "load_detections", "load_embedding_batch", "load_fusion_params",
           "save_case", "save_centers", "save_detections", "save_fusion_params"],
    "labels": ["CANONICAL_NAMES", "N_CLASSES", "label_index", "sequence_loss"],
    "losses": ["EmbeddingBatch", "supcon_grad", "supcon_loss", "total_loss"],
    "synthetic": ["ConfusionModel", "DetectConfig", "GenConfig", "McConfig", "gen_cases", "generate_case"],
    "uncertainty": ["aggregate_samples", "certainty_from_variance", "entropy", "report"],
}

# Runs in a fresh interpreter, since the test session has imported every module.
API_PROBE = """
import importlib, json, sys
public = json.loads(sys.argv[1])
out = {}
import spineid
out["loaded_on_import"] = sorted(m for m in sys.modules if m.startswith("spineid"))
out["all"] = spineid.__all__
out["dir"] = sorted(set(dir(spineid)) & {n for names in public.values() for n in names})
out["submodule"] = spineid.labels is sys.modules["spineid.labels"]
try:
    spineid.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
star = {}
exec("from spineid import *", star)
out["star"] = sorted(set(star) - {"__builtins__"})
out["wrong_object"] = [
    name for module, names in public.items() for name in names
    if not (getattr(spineid, name) is star[name] is getattr(importlib.import_module("spineid." + module), name))
]
out["evaluate_is_function"] = callable(spineid.evaluate) and spineid.evaluate.__module__ == "spineid.evaluate"
print(json.dumps(out))
"""


def test_public_api_is_unchanged_and_lazy():
    proc = subprocess.run([sys.executable, "-c", API_PROBE, json.dumps(PUBLIC)], capture_output=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    out = json.loads(proc.stdout)
    names = sorted(n for names in PUBLIC.values() for n in names)
    assert len(names) == 54
    assert out["loaded_on_import"] == ["spineid"]
    assert out["all"] == names
    assert out["dir"] == names
    assert out["submodule"] is True
    assert out["unknown"] == "module 'spineid' has no attribute 'no_such_name'"
    assert out["star"] == names
    assert out["wrong_object"] == []
    assert out["evaluate_is_function"] is True


def _unused_top_level_imports(source: str) -> list[str]:
    """Names a module's top-level import statements bind that nothing in the module reads or lists in ``__all__``."""
    tree = ast.parse(source)
    bound, used = [], {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.List) \
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_unused_import_check_sees_one():
    source = "import math\nimport numbers\nfrom . import io as x\nfrom .a import b, c\n__all__ = ['c']\nmath.pi\n"
    assert _unused_top_level_imports(source) == ["numbers", "x", "b"]


def test_no_module_keeps_an_unused_import():
    src = Path(__file__).resolve().parents[1] / "src" / "spineid"
    unused = {path.name: names for path in sorted(src.glob("*.py"))
              if (names := _unused_top_level_imports(path.read_text()))}
    assert unused == {}


def _unread_private_names(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per module, the private names (``_x``, not dunder) it binds at top level or in a top-level class body
    that no module of ``sources`` reads, as a name or as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = {}
    for module, tree in trees.items():
        bound = []
        for body in [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    bound.append(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        names = [n for n in bound if n.startswith("_") and not n.endswith("__") and n not in read]
        if names:
            unread[module] = names
    return unread


def test_unread_private_name_check_sees_them():
    sources = {
        "a.py": "_A, _B = 1, 2\n__x__ = 0\ndef _f(): return _A\nclass C:\n    _k = 0\n    def _m(self): pass\n",
        "b.py": "from .a import _f\n_f()\nC()._m()\n",
    }
    assert _unread_private_names(sources) == {"a.py": ["_B", "_k"]}


def test_no_private_name_goes_unread():
    src = Path(__file__).resolve().parents[1] / "src" / "spineid"
    assert _unread_private_names({path.name: path.read_text() for path in sorted(src.glob("*.py"))}) == {}
