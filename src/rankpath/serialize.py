"""Wire formats: matrix/descriptor/path JSON codecs and deterministic output.

Every file this package writes is newline-terminated UTF-8 with numbers
rendered at 17 significant digits, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .numkernel import ScalarField, as_matrix
from .oracles import CHECKS_PER_EDGE, EDGE_MEMBERSHIP_TOL, OracleConfig
from .paths import BranchKind, BranchTag, PathCertificate, PiecewisePath
from .variety import VarietyDescriptor

_DOUBLE_MAX = float(np.finfo(np.float64).max)

#: JSON string literals, control characters escaped: json.dumps would build an encoder per call
_quote = json.JSONEncoder(ensure_ascii=False).encode


def format_number(value: float) -> str:
    """A number at 17 significant digits; a float always reads back as one.

    ``.17g`` writes an integral float such as 7.0 or -0.0 as a bare
    integer, which a JSON reader returns as an int, so those get ``.0``.
    """
    text = format(value, ".17g")
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"{value} is not representable in JSON")
        if text.lstrip("-").isdigit():
            text += ".0"
    return text


def dumps(obj, indent: int = 0) -> str:
    """Serialize dicts/lists/scalars deterministically (insertion order kept)."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_number(float(obj))
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {_quote(str(key))}: {dumps(value, indent + 2)}" for key, value in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {dumps(item, indent + 2)}" for item in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(obj, path) -> None:
    text = dumps(obj) + "\n"  # before opening: a value dumps refuses leaves the file as it was
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_csv(header: str, rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def matrix_to_json(a: np.ndarray) -> dict:
    a = as_matrix(a)
    if a.ndim != 2:
        raise ValueError("matrix JSON encodes 2-d arrays")
    if np.iscomplexobj(a):
        entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
        field = ScalarField.COMPLEX
    else:
        entries = [float(x) for x in a.reshape(-1)]
        field = ScalarField.REAL
    return {
        "m": a.shape[0],
        "n": a.shape[1],
        "field": field.value,
        "entries": entries,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A JSON number a double holds: a float, or an int (not a bool) within
    the double range, which ``float`` converts without an OverflowError."""
    return isinstance(value, float) or _is_int(value) and abs(value) <= _DOUBLE_MAX


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(is_number, value))


def _fields(data, what: str, *keys: str) -> list:
    """``data[key]`` for each key, with ``field`` read as a ScalarField.

    ValueError naming the key unless ``data`` is a JSON object holding every
    key, with ``m``, ``n`` and ``t`` JSON integers.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a {what} must be a JSON object with keys {', '.join(keys)}")
    values = []
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing the key {key!r}")
        value = data[key]
        if key in ("m", "n", "t") and not _is_int(value):
            raise ValueError(f"{what} key {key!r} must be a JSON integer, got {value!r}")
        values.append(ScalarField(value) if key == "field" else value)
    return values


def matrix_from_json(data: dict) -> np.ndarray:
    m, n, field, entries = _fields(data, "matrix", "m", "n", "field", "entries")
    if not isinstance(entries, list):
        raise ValueError("matrix key 'entries' must be a list")
    if len(entries) != m * n:
        raise ValueError(f"expected {m * n} entries, got {len(entries)}")
    if field is ScalarField.COMPLEX:
        kind, valid = "an [re, im] pair of numbers in the double range", _is_pair
    else:
        kind, valid = "a number in the double range", is_number
    for k, x in enumerate(entries):
        if not valid(x):
            raise ValueError(f"matrix key 'entries'[{k}] must be {kind}, got {x!r}")
    if field is ScalarField.COMPLEX:
        entries = [complex(*x) for x in entries]
    return np.array(entries, dtype=field.dtype).reshape(m, n)


def descriptor_to_json(d: VarietyDescriptor) -> dict:
    return {"m": d.m, "n": d.n, "t": d.t, "field": d.field.value}


def descriptor_from_json(data: dict) -> VarietyDescriptor:
    return VarietyDescriptor(*_fields(data, "descriptor", "m", "n", "t", "field"))


def branch_trace_to_json(trace: tuple[BranchTag, ...]) -> list:
    return [{"kind": tag.kind.value, "depth": tag.depth} for tag in trace]


def branch_trace_from_json(data) -> tuple[BranchTag, ...]:
    return tuple(BranchTag(BranchKind(item["kind"]), int(item["depth"])) for item in data)


def certificate_to_json(cert: PathCertificate) -> dict:
    return {
        "outer_distance": cert.outer_distance,
        "length": cert.length,
        "ratio": cert.ratio,
        "certified_bound": cert.certified_bound,
        "branch_trace": branch_trace_to_json(cert.branch_trace),
        "max_relative_residual": cert.max_relative_residual,
        "samples_per_segment": cert.samples_per_segment,
    }


def path_to_json(
    d: VarietyDescriptor, path: PiecewisePath, cert: PathCertificate
) -> dict:
    return {
        "descriptor": descriptor_to_json(d),
        "breakpoints": [matrix_to_json(b) for b in path.breakpoints],
        "certificate": certificate_to_json(cert),
    }


def oracle_config_to_json(cfg: OracleConfig) -> dict:
    return {
        "n_samples": cfg.n_samples,
        "edge_membership_tol": EDGE_MEMBERSHIP_TOL,
        "midpoint_checks_per_edge": CHECKS_PER_EDGE,
        "shorten_iterations": cfg.shorten_iterations,
        "seed": cfg.seed,
    }
