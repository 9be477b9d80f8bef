"""Structure files: strict JSON documents for the three value kinds.

A document is a JSON object with exactly the keys format_version ("1"),
kind ("hermitian" | "tournament" | "sign_matrix"), n, mode ("exact" |
"approx") and entries (an n x n matrix of strings). Unknown keys are
rejected, as are missing ones. Hermitian entries use the scalar grammar
("a/b+c/di" exact, "re,im" approx); tournaments use "0"/"1"; sign matrices
use "-1"/"0"/"1". Tournaments and sign matrices are integer objects, so
their mode must be "exact".

Exact values survive a serialize/parse round trip unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii

from .constructions import SignMatrix
from .core import HermitianStructure, Tournament
from .errors import InputError
from .scalars import APPROX, EXACT, parse_scalar

FORMAT_VERSION = "1"

_KINDS = ("hermitian", "tournament", "sign_matrix")
_KEYS = ("format_version", "kind", "n", "mode", "entries")
# the integral kinds: the name their messages use, the cells they allow,
# those cells as the messages spell them, and the constructor of the value
_INTEGRAL_KINDS = {
    "tournament": ("tournament", ("0", "1"), "'0' or '1'", Tournament.from_matrix),
    "sign_matrix": ("sign matrix", ("-1", "0", "1"), "'-1', '0' or '1'", SignMatrix),
}


@dataclass(frozen=True)
class LoadedDocument:
    kind: str
    mode: str
    value: object  # HermitianStructure | Tournament | SignMatrix


def _entry_grid(raw, n):
    if not isinstance(raw, list) or len(raw) != n:
        raise InputError(f"entries must be a list of {n} rows")
    grid = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"entries row {i} must be a list of {n} strings")
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise InputError(f"entry ({i},{j}) must be a string, got {cell!r}")
        grid.append(row)
    return grid


def parse_document(text):
    """Parse a structure document into a LoadedDocument.

    Raises InputError for anything that is not a well-formed document of a
    known kind, including unknown keys.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"document is not valid UTF-8: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"document is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError("document must be a JSON object")
    unknown = sorted(set(data) - set(_KEYS))
    if unknown:
        raise InputError(f"document has unknown keys: {unknown}")
    missing = [k for k in _KEYS if k not in data]
    if missing:
        raise InputError(f"document is missing keys: {missing}")
    if data["format_version"] != FORMAT_VERSION:
        raise InputError(
            f"unsupported format_version {data['format_version']!r}, "
            f"expected {FORMAT_VERSION!r}"
        )
    kind = data["kind"]
    if kind not in _KINDS:
        raise InputError(f"kind must be one of {_KINDS}, got {kind!r}")
    mode = data["mode"]
    if mode not in (EXACT, APPROX):
        raise InputError(f"mode must be 'exact' or 'approx', got {mode!r}")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"n must be a positive integer, got {n!r}")
    grid = _entry_grid(data["entries"], n)

    if kind == "hermitian":
        # each distinct cell is parsed once: parse_scalar is pure and its
        # scalars are immutable, so equal cells may share one
        parsed = {}
        labels = []
        for row in grid:
            out = []
            for cell in row:
                z = parsed.get(cell)
                if z is None:
                    z = parsed[cell] = parse_scalar(cell, mode)
                out.append(z)
            labels.append(out)
        return LoadedDocument(kind=kind, mode=mode, value=HermitianStructure(labels))

    if mode != EXACT:
        raise InputError(f"a {kind} document is integral; mode must be 'exact'")
    name, cells, spelled, build = _INTEGRAL_KINDS[kind]
    matrix = []
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            if cell not in cells:
                raise InputError(
                    f"{name} entry ({i},{j}) must be {spelled}, got {cell!r}"
                )
        matrix.append([int(cell) for cell in row])
    return LoadedDocument(kind=kind, mode=mode, value=build(matrix))


def document_dict(value):
    if isinstance(value, HermitianStructure):
        kind, mode = "hermitian", value.mode
        # equal labels often share one scalar object; render each once
        distinct = {id(z): z for row in value.labels for z in row}
        texts = {key: z.to_text() for key, z in distinct.items()}
        entries = [[texts[id(z)] for z in row] for row in value.labels]
    elif isinstance(value, Tournament):
        kind, mode = "tournament", EXACT
        entries = [["1" if row >> j & 1 else "0" for j in range(value.n)] for row in value.rows]
    elif isinstance(value, SignMatrix):
        kind, mode = "sign_matrix", EXACT
        entries = [[str(e) for e in row] for row in value.entries]
    else:
        raise InputError(f"cannot serialize {type(value).__name__} as a document")
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "n": value.n,
        "mode": mode,
        "entries": entries,
    }


def serialize_document(value):
    """Render a HermitianStructure, Tournament or SignMatrix as document text."""
    return render_json(document_dict(value)) + "\n"


def render_json(value, newline="\n"):
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for a
    value of dicts with string keys, lists, tuples and JSON scalars, without
    the pure-Python encoder that json.dumps runs given an indent. `newline`
    is the line break and indentation of the enclosing container."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        body = (
            encode_basestring_ascii(key) + ": " + render_json(item, inner)
            for key, item in sorted(value.items())
        )
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if all(map(isinstance, value, repeat(str))):
            body = map(encode_basestring_ascii, value)
        else:
            body = (render_json(item, inner) for item in value)
    elif isinstance(value, str):
        return encode_basestring_ascii(value)
    elif type(value) is int:
        return repr(value)
    else:
        return json.dumps(value)
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    return opening + inner + ("," + inner).join(body) + newline + closing
