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
from .pipeline import STAGE1_SCHEMA, STAGE2_SCHEMA, PipelineModel
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
        return _linear_from_dict(data)
    raise CorruptModelError(f"unknown stage model kind {kind!r}")


def _linear_from_dict(data: dict) -> LinearModel:
    """Parse a linear stage: exactly ``n_features`` finite coefficients and a
    finite intercept, all JSON numbers."""
    n_features = data["n_features"]
    if not isinstance(n_features, int) or isinstance(n_features, bool) or n_features < 1:
        raise CorruptModelError(
            f"linear stage 'n_features' must be a positive integer, got {n_features!r}")
    coefficients = _finite_array(data["coefficients"], "coefficients", "linear stage")
    if coefficients.shape != (n_features,):
        raise CorruptModelError(
            f"linear stage must have {n_features} coefficients, got shape {coefficients.shape}")
    intercept = _finite_array(data["intercept"], "intercept", "linear stage")
    if intercept.shape != ():
        raise CorruptModelError("linear stage 'intercept' must be one number")
    return LinearModel(coefficients=coefficients, intercept=float(intercept),
                       n_features=n_features)


def _finite_array(value, name: str, owner: str = "heuristic") -> np.ndarray:
    # Parse without a dtype first, so that a quoted number (or a bool, or an
    # integer too large for a float) is rejected instead of silently converted.
    array = np.asarray(value)
    if array.dtype.kind not in "if" or not np.isfinite(array).all():
        raise CorruptModelError(f"{owner} '{name}' must hold finite numbers")
    return array.astype(np.float64, copy=False)


def _scaler_from_dict(data: dict, name: str, width: int) -> Standardizer:
    mean = _finite_array(data["mean"], f"{name}.mean")
    scale = _finite_array(data["scale"], f"{name}.scale")
    if mean.shape != (width,) or scale.shape != (width,):
        raise CorruptModelError(f"heuristic '{name}' must have {width} means and scales")
    if not (scale > 0.0).all():
        raise CorruptModelError(f"heuristic '{name}' scales must be > 0")
    return Standardizer(mean=tuple(mean.tolist()), scale=tuple(scale.tolist()))


def _heuristic_from_dict(data: dict) -> HeuristicModel:
    """Parse a heuristic model, checking the embedded training records and the
    scalers: one noise row of four rates per record, equal-length record
    arrays, finite values, and positive scales of the width each stage uses.
    """
    kind = HeuristicKind.parse(data["heuristic"])
    noise = _finite_array(data["noise"], "noise")
    if noise.ndim != 2 or noise.shape[0] == 0 or noise.shape[1] != 4:
        raise CorruptModelError(
            f"heuristic 'noise' must be a non-empty list of 4 rates per record, "
            f"got shape {noise.shape}")
    records = {name: _finite_array(data[name], name)
               for name in ("log_ler", "distance", "rounds")}
    for name, array in records.items():
        if array.shape != (noise.shape[0],):
            raise CorruptModelError(
                f"heuristic '{name}' must have one entry per noise row "
                f"({noise.shape[0]}), got shape {array.shape}")
    return HeuristicModel(
        kind=kind,
        weights=HeuristicWeights(**data["weights"]),
        oracle=OracleConfig(**data["oracle"]),
        noise=noise,
        **records,
        stage1_scaler=_scaler_from_dict(data["stage1_scaler"], "stage1_scaler",
                                        2 if kind.weighted else 5),
        stage2_scaler=_scaler_from_dict(data["stage2_scaler"], "stage2_scaler", 2),
    )


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
            stage1 = stage_from_dict(data["stage1"])
            stage2 = stage_from_dict(data["stage2"])
            if (stage1.n_features, stage2.n_features) != (len(STAGE1_SCHEMA),
                                                           len(STAGE2_SCHEMA)):
                raise CorruptModelError(
                    f"pipeline stages must take {len(STAGE1_SCHEMA)} and "
                    f"{len(STAGE2_SCHEMA)} features, got {stage1.n_features} and "
                    f"{stage2.n_features}")
            return PipelineModel(
                stage1=stage1,
                stage2=stage2,
                oracle=OracleConfig(**data["oracle"]),
                min_target=float(data["min_target"]),
                max_target=float(data["max_target"]),
                stage1_schema=tuple(data["stage1_schema"]),
                stage2_schema=tuple(data["stage2_schema"]),
            )
        if kind == "heuristic":
            return _heuristic_from_dict(data)
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
