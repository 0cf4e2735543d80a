"""Versioned JSON persistence for every fitted model kind.

A model file is exactly ``json.dumps(model_to_dict(model), indent=1,
allow_nan=False) + "\n"``. ``_dumps`` writes those bytes without ``json``'s
pure-Python indenting encoder, and a tree that an ensemble repeats is
formatted once but still written out in full at each of its positions.
Floats are written with Python's shortest-round-trip repr, so a loaded model
predicts bit-identically to the one saved. Loading rejects unknown format
tags, unknown versions, and truncated or otherwise corrupt files without
returning a partial model.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

import numpy as np

from ..core import HeuristicWeights
from ..heuristics import HeuristicKind, HeuristicModel, Standardizer
from ..oracle import OracleConfig
from .ensemble import BoostedModel, ForestModel
from .linear import LinearModel
from .pipeline import STAGE1_SCHEMA, STAGE2_SCHEMA, PipelineModel
from .tree import LEAF, PackedTrees, TreeModel, pack_nodes

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


def _trees_to_dicts(trees) -> list[dict]:
    """One dict per distinct tree object, listed at each of its positions."""
    by_id = {}
    for tree in trees:
        if id(tree) not in by_id:
            by_id[id(tree)] = _tree_to_dict(tree)
    return [by_id[id(tree)] for tree in trees]


def _trees_from_dicts(items: list,
                      n_features: int) -> tuple[tuple[TreeModel, ...], PackedTrees]:
    """Parse one stage's trees, checking their structure in one vectorized
    pass over the concatenated node arrays, and pack them from those arrays.

    Every node array of a tree has the same nonzero length; a leaf has no
    children; an internal node splits on a feature below ``n_features`` and
    its children come after it in the same tree, so prediction always ends at
    a leaf; thresholds and values are finite. A tree whose node arrays have
    the same bits as the previous tree's is the previous ``TreeModel`` object,
    as boosting's repeated fixed-point tree is at fit.
    """
    if not items:
        raise CorruptModelError("stage has no trees")
    counts = [len(item["feature"]) for item in items]
    if min(counts) < 1:
        raise CorruptModelError("tree has no nodes")
    for name in ("threshold", "left", "right", "value"):
        if [len(item[name]) for item in items] != counts:
            raise CorruptModelError(f"tree '{name}' array does not match its node count")
    if any(_n_features(item, "tree") != n_features for item in items):
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

    trees, previous = [], None
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        nodes = (feature[lo:hi], threshold[lo:hi], left[lo:hi], right[lo:hi], value[lo:hi])
        # Bits, not values: -0.0 == 0.0, but a leaf's sign must survive.
        bits = [array.tobytes() for array in nodes]
        if bits != previous:
            tree = TreeModel(*nodes, n_features=n_features)
            previous = bits
        trees.append(tree)
    return tuple(trees), pack_nodes(np.asarray(counts), feature, threshold, left, right, value)


def stage_to_dict(model) -> dict:
    if isinstance(model, TreeModel):
        return _tree_to_dict(model)
    if isinstance(model, ForestModel):
        return {"kind": "forest", "n_features": model.n_features,
                "trees": _trees_to_dicts(model.trees)}
    if isinstance(model, BoostedModel):
        return {"kind": "boosted", "n_features": model.n_features,
                "learning_rate": model.learning_rate, "base_score": model.base_score,
                "trees": _trees_to_dicts(model.trees)}
    if isinstance(model, LinearModel):
        return {"kind": "linear", "n_features": model.n_features,
                "coefficients": model.coefficients.tolist(),
                "intercept": model.intercept}
    raise ModelIOError(f"cannot serialize stage model of type {type(model).__name__}")


def stage_from_dict(data: dict):
    kind = data.get("kind")
    if kind == "tree":
        return _trees_from_dicts([data], _n_features(data, "tree"))[0][0]
    if kind == "forest":
        n_features = _n_features(data, "forest stage")
        trees, packed = _trees_from_dicts(data["trees"], n_features)
        return ForestModel(trees=trees, n_features=n_features, _packing=packed)
    if kind == "boosted":
        n_features = _n_features(data, "boosted stage")
        trees, packed = _trees_from_dicts(data["trees"], n_features)
        learning_rate, base_score = (_finite_number(data[name], name, "boosted stage")
                                     for name in ("learning_rate", "base_score"))
        return BoostedModel(trees=trees, learning_rate=learning_rate, base_score=base_score,
                            n_features=n_features, _packing=packed)
    if kind == "linear":
        return _linear_from_dict(data)
    raise CorruptModelError(f"unknown stage model kind {kind!r}")


def _linear_from_dict(data: dict) -> LinearModel:
    """Parse a linear stage: exactly ``n_features`` finite coefficients and a
    finite intercept, all JSON numbers."""
    n_features = _n_features(data, "linear stage")
    coefficients = _finite_array(data["coefficients"], "coefficients", "linear stage")
    if coefficients.shape != (n_features,):
        raise CorruptModelError(
            f"linear stage must have {n_features} coefficients, got shape {coefficients.shape}")
    return LinearModel(coefficients=coefficients,
                       intercept=_finite_number(data["intercept"], "intercept", "linear stage"),
                       n_features=n_features)


def _n_features(data: dict, owner: str) -> int:
    n_features = data["n_features"]
    if not isinstance(n_features, int) or isinstance(n_features, bool) or n_features < 1:
        raise CorruptModelError(
            f"{owner} 'n_features' must be a positive integer, got {n_features!r}")
    return n_features


def _finite_array(value, name: str, owner: str = "heuristic") -> np.ndarray:
    # Parse without a dtype first, so that a quoted number (or a bool, or an
    # integer too large for a float) is rejected instead of silently converted.
    array = np.asarray(value)
    if array.dtype.kind not in "if" or not np.isfinite(array).all():
        raise CorruptModelError(f"{owner} '{name}' must hold finite numbers")
    return array.astype(np.float64, copy=False)


def _finite_number(value, name: str, owner: str) -> float:
    array = _finite_array(value, name, owner)
    if array.shape != ():
        raise CorruptModelError(f"{owner} '{name}' must be one number")
    return float(array)


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
            "stage1_schema": list(STAGE1_SCHEMA),
            "stage2_schema": list(STAGE2_SCHEMA),
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
            schemas = [data["stage1_schema"], data["stage2_schema"]]
            if schemas != [list(STAGE1_SCHEMA), list(STAGE2_SCHEMA)]:
                raise CorruptModelError(
                    f"pipeline schemas must be {list(STAGE1_SCHEMA)} and "
                    f"{list(STAGE2_SCHEMA)}, got {schemas[0]!r} and {schemas[1]!r}")
            return PipelineModel(
                stage1=stage1,
                stage2=stage2,
                oracle=OracleConfig(**data["oracle"]),
                min_target=_finite_number(data["min_target"], "min_target", "pipeline"),
                max_target=_finite_number(data["max_target"], "max_target", "pipeline"),
            )
        if kind == "heuristic":
            return _heuristic_from_dict(data)
        return stage_from_dict(data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptModelError(f"malformed model file: {exc}") from exc


def _dumps(value) -> str:
    """``json.dumps(value, indent=1, allow_nan=False)`` for a JSON value built
    of dicts with string keys, lists, tuples, strings, ints, floats, booleans
    and None, as ``model_to_dict`` builds it.

    The layout and the number and string formats are ``json``'s. A list of
    plain floats or of plain ints is joined in one call, and a container met
    again at the same depth reuses the text it was given the first time.
    """
    encoded = {}

    def float_text(number: float) -> str:
        text = float.__repr__(number)
        if "n" in text:  # nan, inf or -inf
            raise ValueError(
                "Out of range float values are not JSON compliant: " + repr(number))
        return text

    def encode(value, depth: int) -> str:
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            return float_text(value)
        if isinstance(value, dict):
            brackets = "{}"
        elif isinstance(value, (list, tuple)):
            brackets = "[]"
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        if not value:
            return brackets
        key = (id(value), depth)
        if key in encoded:
            return encoded[key]
        pad = "\n" + " " * (depth + 1)
        separator = "," + pad
        if brackets == "{}":
            body = separator.join([encode_basestring_ascii(name) + ": " + encode(item, depth + 1)
                                   for name, item in value.items()])
        else:
            kinds = set(map(type, value))
            if kinds == {float}:
                body = separator.join(map(float.__repr__, value))
                if "n" in body:  # nan, inf or -inf: raise for the first one
                    body = separator.join(map(float_text, value))
            elif kinds == {int}:
                body = separator.join(map(int.__repr__, value))
            else:
                body = separator.join([encode(item, depth + 1) for item in value])
        text = encoded[key] = brackets[0] + pad + body + pad[:-1] + brackets[1]
        return text

    try:
        return encode(value, 0)
    finally:
        # encode refers to itself, so without this the texts would stay alive
        # until the cycle collector next runs.
        encoded.clear()


def save_model(model, path: str | os.PathLike) -> None:
    text = _dumps(model_to_dict(model))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def load_model(path: str | os.PathLike):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise CorruptModelError(f"truncated or invalid model file {path}: {exc}") from exc
    return model_from_dict(envelope)
