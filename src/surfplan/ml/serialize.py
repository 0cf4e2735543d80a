"""Versioned JSON persistence for every fitted model kind.

Floats are written with Python's shortest-round-trip repr, so a loaded model
predicts bit-identically to the one saved. Loading rejects unknown format
tags, unknown versions, and truncated or otherwise corrupt files without
returning a partial model.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from ..core import HeuristicWeights
from ..heuristics import HeuristicKind, HeuristicModel, Standardizer
from ..oracle import OracleConfig
from .ensemble import BoostedModel, ForestModel
from .linear import LinearModel
from .pipeline import PipelineModel
from .tree import LEAF, TreeModel

FORMAT_TAG = "surfplan-model"
FORMAT_VERSION = 1


class ModelIOError(Exception):
    """Base error for model persistence problems."""


class ModelVersionError(ModelIOError):
    """The file's format tag or version is not supported."""


class CorruptModelError(ModelIOError):
    """The file is not a complete, well-formed model."""


def _tree_to_dict(tree: TreeModel) -> dict:
    return {
        "kind": "tree",
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
        "n_features": tree.n_features,
    }


def _trees_from_dicts(items: list, n_features: int) -> tuple[TreeModel, ...]:
    """Parse one stage's trees, checking their structure in one vectorized
    pass over the concatenated node arrays.

    Every node array of a tree has the same nonzero length; a leaf has no
    children; an internal node splits on a feature below ``n_features`` and
    its children come after it in the same tree, so prediction always ends at
    a leaf; thresholds and values are finite.
    """
    if not items:
        raise CorruptModelError("stage has no trees")
    counts = [len(item["feature"]) for item in items]
    if min(counts) < 1:
        raise CorruptModelError("tree has no nodes")
    for name in ("threshold", "left", "right", "value"):
        if [len(item[name]) for item in items] != counts:
            raise CorruptModelError(f"tree '{name}' array does not match its node count")
    if any(int(item["n_features"]) != n_features for item in items):
        raise CorruptModelError(f"tree n_features does not match the stage's {n_features}")

    def column(name, kinds, dtype):
        flat = []
        for item in items:
            flat += item[name]
        # Parse without a dtype first, so that a fractional index or a quoted
        # number is rejected instead of silently truncated or converted.
        array = np.asarray(flat)
        if array.dtype.kind not in kinds:
            raise CorruptModelError(f"tree '{name}' has a non-numeric or fractional entry")
        return array.astype(dtype, copy=False)

    feature, left, right = (column(name, "i", np.int64) for name in ("feature", "left", "right"))
    threshold, value = (column(name, "if", np.float64) for name in ("threshold", "value"))
    ends = np.cumsum(counts)
    starts = ends - counts
    local = np.arange(ends[-1]) - np.repeat(starts, counts)
    size = np.repeat(counts, counts)
    well_formed = np.where(
        feature == LEAF,
        (left == LEAF) & (right == LEAF),
        (feature >= 0) & (feature < n_features)
        & (left > local) & (left < size) & (right > local) & (right < size))
    if not well_formed.all():
        bad = int(np.argmin(well_formed))
        tree = int(np.searchsorted(ends, bad, side="right"))
        raise CorruptModelError(
            f"tree {tree} node {int(local[bad])} has an invalid feature or child index")
    if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
        raise CorruptModelError("tree thresholds and values must be finite")

    return tuple(
        TreeModel(feature=feature[lo:hi], threshold=threshold[lo:hi], left=left[lo:hi],
                  right=right[lo:hi], value=value[lo:hi], n_features=n_features)
        for lo, hi in zip(starts.tolist(), ends.tolist()))


def stage_to_dict(model) -> dict:
    if isinstance(model, TreeModel):
        return _tree_to_dict(model)
    if isinstance(model, ForestModel):
        return {"kind": "forest", "n_features": model.n_features,
                "trees": [_tree_to_dict(t) for t in model.trees]}
    if isinstance(model, BoostedModel):
        return {"kind": "boosted", "n_features": model.n_features,
                "learning_rate": model.learning_rate, "base_score": model.base_score,
                "trees": [_tree_to_dict(t) for t in model.trees]}
    if isinstance(model, LinearModel):
        return {"kind": "linear", "n_features": model.n_features,
                "coefficients": model.coefficients.tolist(),
                "intercept": model.intercept}
    raise ModelIOError(f"cannot serialize stage model of type {type(model).__name__}")


def stage_from_dict(data: dict):
    kind = data.get("kind")
    if kind == "tree":
        return _trees_from_dicts([data], int(data["n_features"]))[0]
    if kind == "forest":
        n_features = int(data["n_features"])
        return ForestModel(trees=_trees_from_dicts(data["trees"], n_features),
                           n_features=n_features)
    if kind == "boosted":
        n_features = int(data["n_features"])
        return BoostedModel(trees=_trees_from_dicts(data["trees"], n_features),
                            learning_rate=float(data["learning_rate"]),
                            base_score=float(data["base_score"]),
                            n_features=n_features)
    if kind == "linear":
        return LinearModel(coefficients=np.asarray(data["coefficients"], dtype=np.float64),
                           intercept=float(data["intercept"]),
                           n_features=int(data["n_features"]))
    raise CorruptModelError(f"unknown stage model kind {kind!r}")


def model_to_dict(model) -> dict:
    envelope = {"format": FORMAT_TAG, "version": FORMAT_VERSION}
    if isinstance(model, PipelineModel):
        envelope["model"] = {
            "kind": "pipeline",
            "stage1": stage_to_dict(model.stage1),
            "stage2": stage_to_dict(model.stage2),
            "stage1_schema": list(model.stage1_schema),
            "stage2_schema": list(model.stage2_schema),
            "oracle": asdict(model.oracle),
            "min_target": model.min_target,
            "max_target": model.max_target,
        }
        return envelope
    if isinstance(model, HeuristicModel):
        envelope["model"] = {
            "kind": "heuristic",
            "heuristic": model.kind.label,
            "weights": asdict(model.weights),
            "oracle": asdict(model.oracle),
            "noise": model.noise.tolist(),
            "log_ler": model.log_ler.tolist(),
            "distance": model.distance.tolist(),
            "rounds": model.rounds.tolist(),
            "stage1_scaler": asdict(model.stage1_scaler),
            "stage2_scaler": asdict(model.stage2_scaler),
        }
        return envelope
    envelope["model"] = stage_to_dict(model)
    return envelope


def model_from_dict(envelope: dict):
    if not isinstance(envelope, dict) or envelope.get("format") != FORMAT_TAG:
        raise ModelVersionError("not a surfplan model file (missing format tag)")
    if envelope.get("version") != FORMAT_VERSION:
        raise ModelVersionError(
            f"unsupported model version {envelope.get('version')!r}; "
            f"this build reads version {FORMAT_VERSION}")
    try:
        data = envelope["model"]
        kind = data["kind"]
        if kind == "pipeline":
            return PipelineModel(
                stage1=stage_from_dict(data["stage1"]),
                stage2=stage_from_dict(data["stage2"]),
                oracle=OracleConfig(**data["oracle"]),
                min_target=float(data["min_target"]),
                max_target=float(data["max_target"]),
                stage1_schema=tuple(data["stage1_schema"]),
                stage2_schema=tuple(data["stage2_schema"]),
            )
        if kind == "heuristic":
            return HeuristicModel(
                kind=HeuristicKind.parse(data["heuristic"]),
                weights=HeuristicWeights(**data["weights"]),
                oracle=OracleConfig(**data["oracle"]),
                noise=np.asarray(data["noise"], dtype=np.float64),
                log_ler=np.asarray(data["log_ler"], dtype=np.float64),
                distance=np.asarray(data["distance"], dtype=np.float64),
                rounds=np.asarray(data["rounds"], dtype=np.float64),
                stage1_scaler=Standardizer(
                    mean=tuple(data["stage1_scaler"]["mean"]),
                    scale=tuple(data["stage1_scaler"]["scale"])),
                stage2_scaler=Standardizer(
                    mean=tuple(data["stage2_scaler"]["mean"]),
                    scale=tuple(data["stage2_scaler"]["scale"])),
            )
        return stage_from_dict(data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptModelError(f"malformed model file: {exc}") from exc


def save_model(model, path: str | os.PathLike) -> None:
    text = json.dumps(model_to_dict(model), indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def load_model(path: str | os.PathLike):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except json.JSONDecodeError as exc:
        raise CorruptModelError(f"truncated or invalid model file {path}: {exc}") from exc
    return model_from_dict(envelope)
