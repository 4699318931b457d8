"""On-disk formats: state files, unitary files and decomposition dumps.

A state file is a JSON document with exactly these fields:

    dims  -- list of subsystem dimensions
    kind  -- "pure" or "mixed"
    re,im -- row-major real and imaginary parts: flat vectors of length
             prod(dims) for a pure state, nested prod(dims)-square lists
             for a mixed one

Inconsistent shapes and entries that are not JSON numbers (strings,
booleans, null) are rejected rather than coerced.  A file above
``MAX_FILE_BYTES`` is refused before it is read, and a mixed state or
unitary above ``MAX_MATRIX_DIM`` before its entries are converted.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Tuple

import numpy as np

from .errors import InvalidStateError
from .states import DensityMatrix, PureState, StateLike

# state and unitary files larger than this are refused before they are read.
# It covers the largest state the package analyzes, a 10-qubit mixed one
# (loading one, its validating eigh included, takes 3.2 s on a 2-core
# machine): its file holds 2 x 1024^2 numbers of at most 24 characters, at
# most 55 MB, 50 MB for random_state(1024, 'mixed')
MAX_FILE_BYTES = 64 * 2 ** 20
# mixed states and basis unitaries of a larger dimension are refused before
# their entries are converted: the 10-qubit limit above
MAX_MATRIX_DIM = 1024


def _read_json(path, source: str) -> dict:
    try:
        size = Path(path).stat().st_size
        if size > MAX_FILE_BYTES:
            raise InvalidStateError(f"{source} holds {size} bytes, more than the "
                                    f"{MAX_FILE_BYTES} a file may hold")
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidStateError(f"cannot read {source}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidStateError(f"{source} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidStateError(f"{source} must hold a JSON object")
    return doc


def _is_number(x) -> bool:
    # bool is a subclass of int, but JSON true/false are not numbers
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _numbers(entries: list, field: str, source: str) -> np.ndarray:
    if not all(map(_is_number, entries)):
        raise InvalidStateError(f"{source}: field {field!r} must hold only numbers")
    return np.asarray(entries, dtype=float)


def _check_dim(dim: int, what: str, source: str) -> None:
    if dim > MAX_MATRIX_DIM:
        raise InvalidStateError(f"{source}: {what} of dimension {dim} exceeds the limit "
                                f"of {MAX_MATRIX_DIM}")


def _vector(doc: dict, field: str, length: int, source: str) -> np.ndarray:
    data = doc.get(field)
    if not isinstance(data, list) or len(data) != length:
        raise InvalidStateError(f"{source}: field {field!r} must be a flat list of length {length}")
    return _numbers(data, field, source)


def _matrix(doc: dict, field: str, dim: int, source: str) -> np.ndarray:
    data = doc.get(field)
    if (not isinstance(data, list) or len(data) != dim
            or any(not isinstance(row, list) or len(row) != dim for row in data)):
        raise InvalidStateError(f"{source}: field {field!r} must be a {dim}x{dim} nested list")
    return _numbers([x for row in data for x in row], field, source).reshape(dim, dim)


def load_state(path) -> StateLike:
    """Load a pure or mixed state from a state file."""
    source = f"state file {path}"
    doc = _read_json(path, source)
    missing = {"dims", "kind", "re", "im"} - set(doc)
    if missing:
        raise InvalidStateError(f"{source} lacks fields {sorted(missing)}")
    dims = doc["dims"]
    if (not isinstance(dims, list) or not dims
            or any(not isinstance(d, int) or isinstance(d, bool) or d < 1 for d in dims)):
        raise InvalidStateError(f"{source}: dims must be a list of positive integers")
    total = math.prod(dims)  # exact; a numpy product wraps modulo 2^64
    kind = doc["kind"]
    if kind == "pure":
        amp = _vector(doc, "re", total, source) + 1j * _vector(doc, "im", total, source)
        return PureState(amp, tuple(dims))
    if kind == "mixed":
        _check_dim(total, "a mixed state", source)
        mat = _matrix(doc, "re", total, source) + 1j * _matrix(doc, "im", total, source)
        return DensityMatrix(mat, tuple(dims))
    raise InvalidStateError(f"{source}: kind must be 'pure' or 'mixed', got {kind!r}")


def _state_doc(state: StateLike) -> dict:
    pure = isinstance(state, PureState)
    data = state.amplitudes if pure else state.matrix
    return {"dims": list(state.subsystem_dims or (state.dim,)),
            "kind": "pure" if pure else "mixed",
            "re": data.real.tolist(), "im": data.imag.tolist()}


def save_state(path, state: StateLike) -> None:
    """Write a state file for a pure or mixed state."""
    Path(path).write_text(json.dumps(_state_doc(state)) + "\n")


def load_unitary(path) -> np.ndarray:
    """Load a square complex matrix from a JSON file with re/im fields."""
    source = f"unitary file {path}"
    doc = _read_json(path, source)
    re = doc.get("re")
    if not isinstance(re, list) or not re:
        raise InvalidStateError(f"{source}: field 're' must be a nested list")
    dim = len(re)
    _check_dim(dim, "a unitary", source)
    u = _matrix(doc, "re", dim, source) + 1j * _matrix(doc, "im", dim, source)
    if not np.isfinite(u).all():
        raise InvalidStateError(f"{source} contains non-finite entries")
    return u


def save_decomposition(path, decomposition: List[Tuple[float, PureState]]) -> None:
    """Dump a pure-state decomposition as probabilities plus state documents."""
    doc = {
        "probabilities": [float(p) for p, _ in decomposition],
        "states": [_state_doc(state) for _, state in decomposition],
    }
    Path(path).write_text(json.dumps(doc) + "\n")
