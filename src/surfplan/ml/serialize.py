"""Versioned JSON persistence for every fitted model kind.

A model file is exactly ``json.dumps(model_to_dict(model), indent=1,
allow_nan=False) + "\n"``. ``_dumps`` writes those bytes without ``json``'s
pure-Python indenting encoder, and a tree that an ensemble repeats is
formatted once but still written out in full at each of its positions.
Floats are written with Python's shortest-round-trip repr, so a loaded model
predicts bit-identically to the one saved. Loading rejects unknown format
tags, unknown versions, and truncated or otherwise corrupt files without
returning a partial model. Every number in a file is read through
``_numbers``: a JSON number of the field's kind (integer or any), finite, in
the field's shape.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

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


def _numbers(value, what: str, kinds: str = "if", shape: tuple = (-1,)) -> np.ndarray:
    """``value``, a JSON number (``shape`` ()) or nested lists of them, as an
    int64 array (``kinds`` "i") or a float64 one (``kinds`` "if").

    Every entry must be a JSON integer, or for "if" also a JSON float, so a
    quoted number, a fractional index and a ``true`` or ``false`` are rejected
    instead of converted, as is a number that does not fit the dtype. Every
    entry must be finite, and the array must have ``shape``, where -1 matches
    any length.
    """
    cells = value if shape else [value]
    for _ in range(len(shape) - 1):
        cells = chain.from_iterable(cells)
    # The types json.load gives such numbers. A bool is an int to isinstance
    # and to numpy, but not to type().
    types, dtype, noun = (({int}, np.int64, "integers") if kinds == "i"
                          else ({int, float}, np.float64, "numbers"))
    if not set(map(type, cells)) <= types:
        raise CorruptModelError(f"{what} must hold only JSON {noun}")
    try:
        array = (np.fromiter(value, dtype, len(value)) if len(shape) == 1
                 else np.asarray(value, dtype=dtype))
    except (OverflowError, ValueError) as exc:  # too large, or ragged
        raise CorruptModelError(f"{what} is malformed: {exc}") from None
    if kinds != "i" and not np.isfinite(array).all():
        raise CorruptModelError(f"{what} must hold finite {noun}")
    if array.ndim != len(shape) or any(want not in (-1, got)
                                       for want, got in zip(shape, array.shape)):
        raise CorruptModelError(
            f"{what} must be " + ("one number" if shape == () else f"of shape {shape}")
            + f", got shape {array.shape}")
    return array


def _trees_from_dicts(items: list,
                      n_features: int) -> tuple[tuple[TreeModel, ...], PackedTrees]:
    """Parse one stage's trees, checking their structure in one vectorized
    pass over the concatenated node arrays, and pack them from those arrays.

    Every node array of a tree has the same nonzero length; a leaf has no
    children; an internal node splits on a feature below ``n_features`` and
    its children come after it in the same tree, so prediction always ends at
    a leaf. A tree whose node arrays have the same bits as the previous
    tree's is the previous ``TreeModel`` object, as boosting's repeated
    fixed-point tree is at fit.
    """
    if not items:
        raise CorruptModelError("stage has no trees")
    counts = list(map(len, map(itemgetter("feature"), items)))
    if min(counts) < 1:
        raise CorruptModelError("tree has no nodes")
    columns = []
    for name, kinds in (("feature", "i"), ("threshold", "if"), ("left", "i"), ("right", "i"),
                        ("value", "if")):
        if list(map(len, map(itemgetter(name), items))) != counts:
            raise CorruptModelError(f"tree '{name}' array does not match its node count")
        flat = []
        for item in items:
            flat += item[name]
        columns.append(_numbers(flat, f"tree '{name}'", kinds))
    widths = _numbers(list(map(itemgetter("n_features"), items)), "tree 'n_features'", "i")
    if (widths != n_features).any():
        raise CorruptModelError(f"tree 'n_features' does not match the stage's {n_features}")

    feature, threshold, left, right, value = columns
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

    # Bits, not values: -0.0 == 0.0, but a leaf's sign must survive.
    rows = np.column_stack([feature, threshold.view(np.int64), left, right,
                            value.view(np.int64)])
    trees, previous = [], None
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        bits = rows[lo:hi].tobytes()
        if bits != previous:
            tree = TreeModel(feature[lo:hi], threshold[lo:hi], left[lo:hi], right[lo:hi],
                             value[lo:hi], n_features=n_features)
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
    if not isinstance(data, dict):
        raise CorruptModelError(f"a stage must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("tree", "forest", "boosted", "linear"):
        raise CorruptModelError(f"unknown stage model kind {kind!r}")
    owner = f"{kind} stage"
    n_features = int(_numbers(data["n_features"], f"{owner} 'n_features'", "i", ()))
    if n_features < 1:
        raise CorruptModelError(f"{owner} 'n_features' must be >= 1, got {n_features}")
    if kind == "linear":
        return LinearModel(
            coefficients=_numbers(data["coefficients"], f"{owner} 'coefficients'",
                                  shape=(n_features,)),
            intercept=float(_numbers(data["intercept"], f"{owner} 'intercept'", shape=())),
            n_features=n_features)
    if kind == "tree":
        return _trees_from_dicts([data], n_features)[0][0]
    trees, packed = _trees_from_dicts(data["trees"], n_features)
    if kind == "forest":
        return ForestModel(trees=trees, n_features=n_features, _packing=packed)
    return BoostedModel(trees=trees, n_features=n_features, _packing=packed,
                        **{name: float(_numbers(data[name], f"{owner} '{name}'", shape=()))
                           for name in ("learning_rate", "base_score")})


def _scaler_from_dict(data: dict, name: str, width: int) -> Standardizer:
    mean, scale = (_numbers(data[field], f"heuristic '{name}.{field}'", shape=(width,))
                   for field in ("mean", "scale"))
    if not (scale > 0.0).all():
        raise CorruptModelError(f"heuristic '{name}' scales must be > 0")
    return Standardizer(mean=tuple(mean.tolist()), scale=tuple(scale.tolist()))


def _heuristic_from_dict(data: dict) -> HeuristicModel:
    """Parse a heuristic model, checking the embedded training records and the
    scalers: one noise row of four rates per record, equal-length record
    arrays, finite values, and positive scales of the width each stage uses.
    """
    kind = HeuristicKind.parse(data["heuristic"])
    # A list of no rows parses to shape (0,), so the shape also rejects it.
    noise = _numbers(data["noise"], "heuristic 'noise'", shape=(-1, 4))
    return HeuristicModel(
        kind=kind,
        weights=HeuristicWeights(**data["weights"]),
        oracle=OracleConfig(**data["oracle"]),
        noise=noise,
        **{name: _numbers(data[name], f"heuristic '{name}'", shape=(len(noise),))
           for name in ("log_ler", "distance", "rounds")},
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
                **{name: float(_numbers(data[name], f"pipeline '{name}'", shape=()))
                   for name in ("min_target", "max_target")},
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
