"""JSON chain files: the one on-disk format both chain kinds share.

Schema::

    {
      "kind": "dtmc" | "ctmc",
      "states": <int>,
      "matrix": [[row], ...],
      "labels": ["..."],              # optional
      "weight_function": [...],       # optional, strictly positive
      "perturbed_matrix": [[row], ...]  # optional, same kind and size
    }

Malformed structure raises ParseError with field diagnostics; a structurally
sound file whose matrix fails chain validation raises ValidationError naming
the offending row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .chains import IntensityMatrix, StochasticMatrix, WeightFunction
from .errors import ParseError
from .gallery import GalleryModel

__all__ = ["ChainFile", "load_chain_file", "save_chain_file"]


@dataclass
class ChainFile:
    kind: str
    states: int
    chain: StochasticMatrix | IntensityMatrix
    labels: list[str] | None = None
    weight_function: WeightFunction | None = None
    perturbed: StochasticMatrix | IntensityMatrix | None = None
    path: str | None = None


def _require(data: dict, key: str, kinds, where: str):
    if key not in data:
        raise ParseError(f"{where}: missing required field {key!r}")
    value = data[key]
    if not isinstance(value, kinds):
        raise ParseError(f"{where}: field {key!r} has type {type(value).__name__}")
    return value


def _check_number(x, where: str, what: str) -> None:
    """The one numeric-entry check of every parsed file: a JSON number, and
    not a boolean."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ParseError(f"{where}: {what} is not numeric")


def _parse_matrix(raw, n: int, key: str, where: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != n:
        raise ParseError(f"{where}: field {key!r} must be a list of {n} rows")
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where}: field {key!r} row {i} must have {n} entries")
        for j, x in enumerate(row):
            _check_number(x, where, f"field {key!r} entry ({i}, {j})")
    return np.array(raw, dtype=float)


def _parse_vector(raw, n: int, key: str, where: str) -> np.ndarray:
    """A list of ``n`` numbers, one per state, as a float vector."""
    if not isinstance(raw, list) or len(raw) != n:
        raise ParseError(f"{where}: field {key!r} must be a list of {n} numbers")
    for i, x in enumerate(raw):
        _check_number(x, where, f"field {key!r} entry {i}")
    return np.array(raw, dtype=float)


def load_chain_file(path: str) -> ChainFile:
    where = str(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{where}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{where}: top level must be an object")
    kind = _require(data, "kind", str, where)
    if kind not in ("dtmc", "ctmc"):
        raise ParseError(f"{where}: kind must be 'dtmc' or 'ctmc', got {kind!r}")
    states = _require(data, "states", int, where)
    if isinstance(states, bool) or states < 1:
        raise ParseError(f"{where}: states must be a positive integer")
    raw_matrix = _require(data, "matrix", list, where)
    matrix = _parse_matrix(raw_matrix, states, "matrix", where)
    make = StochasticMatrix if kind == "dtmc" else IntensityMatrix
    chain = make(matrix)

    labels = None
    if data.get("labels") is not None:
        labels = data["labels"]
        if (not isinstance(labels, list) or len(labels) != states
                or not all(isinstance(s, str) for s in labels)):
            raise ParseError(f"{where}: labels must be {states} strings")

    weights = None
    if data.get("weight_function") is not None:
        weights = WeightFunction(_parse_vector(data["weight_function"], states,
                                               "weight_function", where))

    perturbed = None
    if data.get("perturbed_matrix") is not None:
        perturbed = make(_parse_matrix(data["perturbed_matrix"], states,
                                       "perturbed_matrix", where))
    return ChainFile(kind=kind, states=states, chain=chain, labels=labels,
                     weight_function=weights, perturbed=perturbed, path=where)


def save_chain_file(model: GalleryModel, path: str) -> None:
    data = {
        "kind": model.kind,
        "states": model.chain.n,
        "matrix": [list(map(float, row)) for row in model.chain.entries],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")
