"""Versioned JSON persistence for predictors: pipelines and heuristic models.

A model file holds one predictor, a ``pipeline`` or a ``heuristic``; any
other object is refused by the writer, and any other ``kind`` by the reader.
A model file is exactly ``json.dumps(model_to_dict(model), allow_nan=False)
+ "\n"``: with no indent, CPython writes it with its C encoder. Each model is
stored as the arrays it was fitted from or holds. A pipeline's stages are
``forest``, ``boosted`` or ``linear``; a forest or boosted stage stores one
concatenated array per node field for its distinct trees, their node counts,
and ``tree_of``, the distinct tree at each position; a heuristic stores its
training records as ``Dataset`` columns and is refitted from them at load.
Floats are written with Python's shortest-round-trip repr, so a loaded model
predicts bit-identically to the one saved. Loading rejects unknown format
tags, unknown versions (version 1 included) and truncated or otherwise
corrupt files without returning a partial model, and ignores keys it does not
know. Every number in a file is read through ``_numbers``: a JSON number of
the field's kind (integer or any), finite, in the field's shape.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from itertools import chain

import numpy as np

from ..core import Dataset, HeuristicWeights
from ..heuristics import HeuristicKind, HeuristicModel, fit_heuristic
from ..oracle import OracleConfig
from .ensemble import MAX_ESTIMATORS, BoostedModel, ForestModel
from .linear import LinearModel
from .pipeline import STAGE1_SCHEMA, STAGE2_SCHEMA, PipelineModel
from .tree import LEAF, TreeModel

FORMAT_TAG = "surfplan-model"
FORMAT_VERSION = 2
# Each node field of an ensemble stage, with the kinds ``_numbers`` reads it as.
NODE_FIELDS = (("feature", "i"), ("threshold", "if"), ("left", "i"), ("right", "i"),
               ("value", "if"))


class ModelIOError(Exception):
    """Base error for model persistence problems."""


class ModelVersionError(ModelIOError):
    """The file's format tag or version is not supported."""


class CorruptModelError(ModelIOError):
    """The file is not a complete, well-formed model."""


def _trees_to_dict(trees) -> dict:
    """The node arrays of the distinct trees, concatenated, their node counts,
    and ``tree_of``: each position's distinct tree, numbered in order of first
    appearance. A repeated tree object (boosting repeats its fixed point)
    keeps its number; a new object is told apart by the bytes of its node
    arrays, so a -0.0 leaf and a 0.0 leaf stay apart."""
    by_object, numbers, distinct, tree_of = {}, {}, [], []
    for tree in trees:
        number = by_object.get(id(tree))
        if number is None:
            columns = [np.asarray(getattr(tree, name), np.int64 if kinds == "i" else np.float64)
                       for name, kinds in NODE_FIELDS]
            number = numbers.setdefault(b"".join(column.tobytes() for column in columns),
                                        len(distinct))
            if number == len(distinct):
                distinct.append(columns)
            by_object[id(tree)] = number
        tree_of.append(number)
    return {"node_counts": [len(columns[0]) for columns in distinct], "tree_of": tree_of,
            **{name: np.concatenate(column).tolist()
               for (name, _), column in zip(NODE_FIELDS, zip(*distinct))}}


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


def _trees_from_dict(data: dict, n_features: int) -> tuple[TreeModel, ...]:
    """Parse one stage's trees: the tree at each position.

    The counts and ``tree_of`` are checked before anything is repeated: every
    count is >= 1 and the counts sum to each node array's length; ``tree_of``
    holds at most ``MAX_ESTIMATORS`` positions, each naming a distinct tree,
    and every distinct tree first appears after the ones numbered below it.
    Then the distinct trees' structure is checked in one vectorized pass: a
    leaf has no children; an internal node splits on a feature below
    ``n_features`` and its children come after it in the same tree, so
    prediction always ends at a leaf. Each distinct tree is one ``TreeModel``,
    shared by its positions, as boosting's repeated fixed-point tree is at fit.
    The distinct trees appear in ``tree_of``'s first-appearance order, the
    numbering ``pack_trees`` gives them by identity, so the stage's
    constructor packs a loaded stage as it packs the fitted one.
    """
    counts = _numbers(data["node_counts"], "stage 'node_counts'", "i")
    tree_of = _numbers(data["tree_of"], "stage 'tree_of'", "i")
    columns = [_numbers(data[name], f"stage '{name}'", kinds) for name, kinds in NODE_FIELDS]
    if not counts.size or not tree_of.size:
        raise CorruptModelError("stage has no trees")
    if counts.min() < 1:
        raise CorruptModelError("stage 'node_counts' must be >= 1")
    total = sum(counts.tolist())  # Python ints: an int64 sum could wrap
    for (name, _), column in zip(NODE_FIELDS, columns):
        if column.size != total:
            raise CorruptModelError(
                f"stage '{name}' has {column.size} nodes, but 'node_counts' sum to {total}")
    first_seen = np.maximum.accumulate(tree_of)
    if (tree_of.size > MAX_ESTIMATORS or tree_of[0] != 0 or tree_of.min() < 0
            or (np.diff(first_seen) > 1).any() or first_seen[-1] != counts.size - 1):
        raise CorruptModelError(
            f"stage 'tree_of' must number at most {MAX_ESTIMATORS} positions' trees "
            f"0 to {counts.size - 1}, each first used after the ones below it")

    feature, threshold, left, right, value = columns
    ends = np.cumsum(counts)
    starts = ends - counts
    local = np.arange(total) - np.repeat(starts, counts)
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

    distinct = [TreeModel(feature[lo:hi], threshold[lo:hi], left[lo:hi], right[lo:hi],
                          value[lo:hi], n_features=n_features)
                for lo, hi in zip(starts.tolist(), ends.tolist())]
    return tuple(distinct[number] for number in tree_of.tolist())


def stage_to_dict(model) -> dict:
    if isinstance(model, ForestModel):
        return {"kind": "forest", "n_features": model.n_features,
                **_trees_to_dict(model.trees)}
    if isinstance(model, BoostedModel):
        return {"kind": "boosted", "n_features": model.n_features,
                "learning_rate": model.learning_rate, "base_score": model.base_score,
                **_trees_to_dict(model.trees)}
    if isinstance(model, LinearModel):
        return {"kind": "linear", "n_features": model.n_features,
                "coefficients": model.coefficients.tolist(),
                "intercept": model.intercept}
    raise ModelIOError(f"cannot serialize stage model of type {type(model).__name__}")


def stage_from_dict(data: dict):
    if not isinstance(data, dict):
        raise CorruptModelError(f"a stage must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("forest", "boosted", "linear"):
        raise CorruptModelError(
            f"unknown stage model kind {kind!r}; a stage is a forest, boosted or linear one")
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
    trees = _trees_from_dict(data, n_features)
    if kind == "forest":
        return ForestModel(trees=trees, n_features=n_features)
    return BoostedModel(trees=trees, n_features=n_features,
                        **{name: float(_numbers(data[name], f"{owner} '{name}'", shape=()))
                           for name in ("learning_rate", "base_score")})


def _heuristic_from_dict(data: dict) -> HeuristicModel:
    """Refit a heuristic from its training records. The block lengths must be
    >= 1 and sum to the record count; the records are then checked by the
    rules of ``Dataset``, so a model file and a dataset CSV follow one rule."""
    lengths = _numbers(data["block_lengths"], "heuristic 'block_lengths'", "i")
    columns = {name: _numbers(data[name], f"heuristic '{name}'", kinds)
               for name, kinds in (("distance", "i"), ("rounds", "i"),
                                   ("logical_error_rate", "if"))}
    if (lengths.size and lengths.min() < 1) or sum(lengths.tolist()) != len(columns["distance"]):
        raise CorruptModelError(
            "heuristic 'block_lengths' must be >= 1 and sum to the record count")
    records = Dataset(_numbers(data["profiles"], "heuristic 'profiles'", shape=(-1, 4)),
                      np.repeat(np.arange(lengths.size), lengths), **columns)
    return fit_heuristic(records, HeuristicKind.parse(data["heuristic"]),
                         HeuristicWeights(**data["weights"]), OracleConfig(**data["oracle"]))


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
        records = model.training.records
        envelope["model"] = {
            "kind": "heuristic",
            "heuristic": model.kind.label,
            "weights": asdict(model.training.weights),
            "oracle": asdict(model.oracle),
            "profiles": records.profiles.tolist(),
            "block_lengths": np.diff(records.block_bounds()).tolist(),
            "distance": records.distance.tolist(),
            "rounds": records.rounds.tolist(),
            "logical_error_rate": records.logical_error_rate.tolist(),
        }
        return envelope
    raise ModelIOError(f"cannot save a {type(model).__name__}: a model file holds a "
                       "pipeline or a heuristic model")


def model_from_dict(envelope: dict):
    if not isinstance(envelope, dict) or envelope.get("format") != FORMAT_TAG:
        raise ModelVersionError("not a surfplan model file (missing format tag)")
    if envelope.get("version") == 1:
        raise ModelVersionError(
            "model format version 1 is no longer read; retrain the model to write "
            f"version {FORMAT_VERSION}")
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
        raise CorruptModelError(
            f"model kind {kind!r} is not a predictor: a model file holds a pipeline or a "
            "heuristic model")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptModelError(f"malformed model file: {exc}") from exc


def save_model(model, path: str | os.PathLike) -> None:
    text = json.dumps(model_to_dict(model), allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_model(path: str | os.PathLike):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except (ValueError, RecursionError) as exc:
        raise CorruptModelError(f"truncated or invalid model file {path}: {exc}") from exc
    return model_from_dict(envelope)
