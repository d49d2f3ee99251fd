"""Self-describing JSON document format for matrices, maps, and cone inputs.

One format carries every matrix in the toolkit: explicit dimensions and a
flat row-major list of [re, im] pairs, UTF-8 JSON.  Documents are diff-able
fixtures and trivially reproducible from other languages.

Document kinds:

- matrix:      {"rows": r, "cols": c, "data": [[re, im], ...]}
- map:         {"kind": "map", "m": m, "n": n, "encoding": e, "matrices": [...]}
               encodings: "choi" (one mn x mn matrix), "unit-action" (m^2
               output matrices in row-major unit order), "kraus" (any number
               of n x m operators summed as conjugations; the long token
               "kraus-like-sum-of-conjugations" is accepted as an alias)
- state:       {"kind": "state", "matrix": {...}}
- cone-input:  {"kind": "cone-input", "rho_a": {...}, "rho_b": {...}} plus
               either "vector" (a frame matrix of the product system) or
               "blocks" (row-major list of lists of matrices [a_ij]), and
               optionally "map" and "k" (an integer >= 1, default 1) for the
               weak-decomposability test; dim_a * dim_b is at most 36.

Dimensions and "k" must be JSON integers, matrix entries JSON numbers, and
the constants NaN and Infinity are rejected: nothing is coerced.

Optional "metadata" (name, seed, notes) is preserved verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .choi import MatrixMap
from .errors import ParseError
from .linalg import DESK_SCALE_DIM

ENCODINGS = ("choi", "unit-action", "kraus", "kraus-like-sum-of-conjugations")


def matrix_to_doc(m) -> dict:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in arr.reshape(-1)],
    }


def _integer(doc: dict, key: str, where: str) -> int:
    """doc[key] as a JSON integer; a missing key, a bool, a float or a string
    is an input error, never coerced."""
    value = doc.get(key)
    if type(value) is not int:
        raise ParseError(f"{where}: {key} must be a JSON integer, got {value!r:.40}")
    return value


def matrix_from_doc(doc, where: str = "matrix") -> np.ndarray:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got {type(doc).__name__}")
    rows, cols = _integer(doc, "rows", where), _integer(doc, "cols", where)
    data = doc.get("data")
    if rows <= 0 or cols <= 0:
        raise ParseError(f"{where}: non-positive dimensions {rows}x{cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(
            f"{where}: data length {len(data) if isinstance(data, list) else '?'} "
            f"!= rows*cols = {rows * cols}"
        )
    out = np.empty(rows * cols, dtype=complex)
    for idx, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{where}: entry {idx} is not an [re, im] pair")
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair):
            raise ParseError(f"{where}: entry {idx} is not numeric")
        try:
            out[idx] = complex(pair[0], pair[1])
        except OverflowError as exc:
            raise ParseError(f"{where}: entry {idx} is out of range") from exc
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise ParseError(f"{where}: non-finite entries")
    return out.reshape(rows, cols)


def map_to_document(phi: MatrixMap, encoding: str = "choi", metadata: dict | None = None) -> dict:
    if encoding not in ("choi", "unit-action"):
        raise ParseError(f"unsupported output encoding {encoding!r}")
    doc = {"kind": "map", "m": phi.m, "n": phi.n, "encoding": encoding}
    if encoding == "choi":
        doc["matrices"] = [matrix_to_doc(phi.choi())]
    else:
        doc["matrices"] = [
            matrix_to_doc(phi.unit_images[i, j]) for i in range(phi.m) for j in range(phi.m)
        ]
    if metadata:
        doc["metadata"] = metadata
    return doc


def map_from_document(doc) -> MatrixMap:
    if not isinstance(doc, dict) or doc.get("kind") != "map":
        raise ParseError("expected a map document with kind == 'map'")
    m, n = _integer(doc, "m", "map document"), _integer(doc, "n", "map document")
    encoding, matrices = doc.get("encoding"), doc.get("matrices")
    if m <= 0 or n <= 0:
        raise ParseError(f"map document: non-positive dimensions m={m}, n={n}")
    if m * n > DESK_SCALE_DIM:
        raise ParseError(
            f"map document: product dimension m*n = {m * n} exceeds the desk-scale "
            f"limit {DESK_SCALE_DIM}"
        )
    if encoding not in ENCODINGS:
        raise ParseError(f"map document: unknown encoding {encoding!r}")
    if not isinstance(matrices, list) or not matrices:
        raise ParseError("map document: matrices must be a non-empty list")
    if encoding == "choi":
        if len(matrices) != 1:
            raise ParseError("choi encoding expects exactly one matrix")
        h = matrix_from_doc(matrices[0], "matrices[0]")
        if h.shape != (m * n, m * n):
            raise ParseError(f"choi matrix shape {h.shape} != ({m*n}, {m*n})")
        return MatrixMap.from_choi(h, m, n)
    if encoding == "unit-action":
        if len(matrices) != m * m:
            raise ParseError(f"unit-action encoding expects {m*m} matrices, got {len(matrices)}")
        units = np.zeros((m, m, n, n), dtype=complex)
        for i in range(m):
            for j in range(m):
                mat = matrix_from_doc(matrices[i * m + j], f"matrices[{i * m + j}]")
                if mat.shape != (n, n):
                    raise ParseError(f"unit image {i},{j} has shape {mat.shape}, expected ({n}, {n})")
                units[i, j] = mat
        return MatrixMap(units)
    ops = [matrix_from_doc(k, f"matrices[{idx}]") for idx, k in enumerate(matrices)]
    return MatrixMap.from_kraus(ops, m, n)


def state_from_document(doc) -> np.ndarray:
    if not isinstance(doc, dict) or doc.get("kind") != "state":
        raise ParseError("expected a state document with kind == 'state'")
    if "matrix" not in doc:
        raise ParseError("state document: missing matrix")
    return matrix_from_doc(doc["matrix"], "matrix")


@dataclass(frozen=True)
class ConeInput:
    rho_a: np.ndarray
    rho_b: np.ndarray
    vector: np.ndarray | None
    blocks: np.ndarray | None
    map_doc: dict | None
    k: int
    metadata: dict


def cone_input_from_document(doc) -> ConeInput:
    if not isinstance(doc, dict) or doc.get("kind") != "cone-input":
        raise ParseError("expected a cone-input document with kind == 'cone-input'")
    for key in ("rho_a", "rho_b"):
        if key not in doc:
            raise ParseError(f"cone-input document: missing {key}")
    rho_a = matrix_from_doc(doc["rho_a"], "rho_a")
    rho_b = matrix_from_doc(doc["rho_b"], "rho_b")
    if rho_a.shape[0] * rho_b.shape[0] > DESK_SCALE_DIM:
        raise ParseError(
            f"cone-input document: product dimension {rho_a.shape[0]}*{rho_b.shape[0]} "
            f"exceeds the desk-scale limit {DESK_SCALE_DIM}"
        )
    vector = matrix_from_doc(doc["vector"], "vector") if "vector" in doc else None
    blocks = None
    if "blocks" in doc:
        rows = doc["blocks"]
        if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
            raise ParseError("cone-input document: blocks must be a list of lists")
        n = len(rows)
        dim_a = rho_a.shape[0]
        blocks = np.zeros((n, n, dim_a, dim_a), dtype=complex)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ParseError(f"cone-input document: blocks row {i} has length {len(row)} != {n}")
            for j, entry in enumerate(row):
                mat = matrix_from_doc(entry, f"blocks[{i}][{j}]")
                if mat.shape != (dim_a, dim_a):
                    raise ParseError(
                        f"blocks[{i}][{j}] shape {mat.shape} != ({dim_a}, {dim_a})"
                    )
                blocks[i, j] = mat
        if rho_b.shape != (n, n):
            raise ParseError(f"rho_b shape {rho_b.shape} inconsistent with {n} block rows")
    if vector is None and blocks is None and "map" not in doc:
        raise ParseError("cone-input document needs a vector, blocks, or a map")
    k = _integer(doc, "k", "cone-input document") if "k" in doc else 1
    if k < 1:
        raise ParseError(f"cone-input document: k must be >= 1, got {k}")
    return ConeInput(
        rho_a=rho_a,
        rho_b=rho_b,
        vector=vector,
        blocks=blocks,
        map_doc=doc.get("map"),
        k=k,
        metadata=doc.get("metadata", {}),
    )


def load_document(path: str) -> dict:
    """Parse a JSON document; the non-JSON constants NaN, Infinity and
    -Infinity, and numbers beyond float range, are input errors."""

    def reject(name: str):
        raise ParseError(f"{path}: {name} is not a JSON number")

    def integer(text: str) -> int:
        if len(text.lstrip("-")) > 308:  # below 1e308: every dimension, count and value fits a float
            raise ParseError(f"{path}: an integer of more than 308 digits is out of range")
        return int(text)

    def real(text: str) -> float:
        if abs(value := float(text)) == np.inf:
            raise ParseError(f"{path}: {text:.40} is beyond float range")
        return value

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject, parse_int=integer, parse_float=real)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def dump_document(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
