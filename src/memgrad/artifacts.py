"""The one reader and writer of memgrad's JSON and CSV files.

Each schema in ``memgrad/schemas`` is compiled once per process.  Two JSON
Schema types differ: a number must be finite, and a tuple is an array (as
``json.dump`` writes it).  A CSV file must have its exact header.
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
import json
import math

import jsonschema
import referencing

from .errors import ParseError

_TYPES = jsonschema.Draft202012Validator.TYPE_CHECKER
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, type_checker=_TYPES.redefine_many({
        "number": lambda _, x: _TYPES.is_type(x, "number")
        and (isinstance(x, int) or math.isfinite(x)),
        "array": lambda _, x: isinstance(x, (list, tuple))}))


@functools.cache
def _validator(name: str):
    schema = json.loads((importlib.resources.files("memgrad.schemas") / name).read_text())
    # a schema refers to another by file name: {"$ref": "run_config.schema.json"}
    registry = referencing.Registry(
        retrieve=lambda ref: referencing.Resource.from_contents(_validator(ref).schema))
    return _Validator(schema, registry=registry)


def invalid_at(payload, schema: str) -> str | None:
    """``invalid at <json/path>: <message>`` for the fault that
    ``jsonschema.validate`` would raise first, or None."""
    error = jsonschema.exceptions.best_match(_validator(schema).iter_errors(payload))
    if error is not None:
        path = "/".join(map(str, error.absolute_path)) or "<root>"
        return f"invalid at {path}: {error.message}"


def read_json(path, schema: str):
    """Parse and validate a JSON file; any fault is a ParseError naming the file."""
    with open(path) as f:
        try:
            payload = json.load(f)
        except ValueError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    error = invalid_at(payload, schema)
    if error is not None:
        raise ParseError(f"{path}: {error}")
    return payload


def write_json(path, payload, schema: str | None = None, indent: int | None = 2):
    """Write ``payload`` once it passes ``schema`` (None: no schema)."""
    if schema and (error := invalid_at(payload, schema)):
        raise ValueError(f"{path}: {error}")   # a fault of the program, not the data
    with open(path, "w") as f:
        json.dump(payload, f, indent=indent)


def write_csv(path, header, rows):
    """Write a header line and then ``rows``, each a sequence of fields."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def read_csv(path, header, parse):
    """Yield ``(line, parse(row))`` for each row of a CSV file.

    ``header`` is the exact list of column names, or a function from the
    file's header to the names it must have (for files whose width varies).
    A row that has not exactly the header's fields, or on which ``parse``
    raises ValueError, is a ParseError naming the file and line.
    """
    with open(path, newline="") as f:
        rows = csv.reader(f)
        names = next(rows, [])
        expected = header(names) if callable(header) else header
        shown = ",".join(expected if len(expected) < 7 else [*expected[:2], "...", expected[-1]])
        if names != expected:
            raise ParseError(f"{path}:1: expected header {shown}, got {','.join(names)}")
        width = len(expected)
        for line, row in enumerate(rows, start=2):
            try:
                if len(row) != width:
                    raise ValueError
                value = parse(row)
            except ValueError as exc:
                raise ParseError(f"{path}:{line}: not a {shown} row") from exc
            yield line, value
