"""CSV and JSON persistence.

CSV files carry a header; the label column is named ``label`` and holds
values 1..K, every other column is a numeric feature.  They are read as
UTF-8, with or without a byte-order mark, and written as plain UTF-8.
Blank rows are skipped; repeated column names, missing or non-numeric
entries, text that is not UTF-8 and fields over the ``csv`` module's size
limit are rejected, a bad entry with its line number in the file.  Columns
are checked and converted over all rows at once; a row-by-row scan, run
only when that fails, names the first bad entry.  CSV, model and
feature-map files write floats in shortest round-trip form, so a save/load
cycle reproduces data and predictions bit for bit.  The numeric fields of
model and feature-map files (JSON) must be JSON numbers, and the class
count and threshold dimensions JSON integers; strings, booleans and
fractions there are rejected.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain
from operator import itemgetter

import numpy as np

from .core import Dataset, FeatureMap, Loss, MrcModel

__all__ = [
    "InputError",
    "load_dataset",
    "load_instances",
    "save_dataset",
    "array_rows",
    "save_model",
    "load_model",
    "save_feature_map",
    "load_feature_map",
]

FORMAT_VERSION = 1
# Rows per block when writing arrays to CSV: as fast as larger blocks, whose
# short-lived Python numbers leave more memory resident after the write.
_BLOCK_ROWS = 256


class InputError(Exception):
    """Malformed user input (maps to exit code 2 in the CLI)."""


def _read_table(path):
    """The header, the non-blank data rows and the file line of each row.

    Row widths and blank cells are checked over all rows at once;
    ``_check_rows`` names the first bad row only when that check fails.
    """
    rows, lines = [], []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                for row in reader:
                    if row:
                        rows.append(row)
                        lines.append(reader.line_num)
            except csv.Error as exc:
                raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if len(rows) < 2:
        raise InputError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise InputError(f"{path}: repeated column names {repeated}")
    body, lines = rows[1:], lines[1:]
    width = len(header)
    if set(map(len, body)) != {width} or not all(map(str.strip, chain.from_iterable(body))):
        _check_rows(path, width, body, lines)
    return header, body, lines


def _check_rows(path, width, body, lines):
    """Raise InputError for the first row of the wrong width or with a blank cell."""
    for line, row in zip(lines, body):
        if len(row) != width:
            raise InputError(f"{path}:{line}: expected {width} columns, got {len(row)}")
        if any(cell.strip() == "" for cell in row):
            raise InputError(f"{path}:{line}: missing values are not supported")


def _check_cells(path, header, body, lines, columns):
    """Raise InputError for the first cell, row by row, that is not a number."""
    for line, row in zip(lines, body):
        for col in columns:
            cell = row[col].strip()
            try:
                float(cell)
            except ValueError as exc:
                raise InputError(
                    f"{path}:{line}: non-numeric value {cell!r} in column {header[col]!r}"
                ) from exc


def _parse_numeric(path, header, body, lines, columns):
    """The (n, len(columns)) floats ``float(cell.strip())`` of the given
    columns, converted a column at a time; a conversion that fails leaves
    ``_check_cells`` to name the first bad cell in file order."""
    out = np.empty((len(body), len(columns)))
    try:
        for j, col in enumerate(columns):
            cells = map(str.strip, map(itemgetter(col), body))
            out[:, j] = np.fromiter(map(float, cells), np.float64, count=len(body))
    except ValueError:
        _check_cells(path, header, body, lines, columns)
        raise
    if not np.all(np.isfinite(out)):
        raise InputError(f"{path}: non-finite values are not supported")
    return out


def load_dataset(path, num_classes=None) -> Dataset:
    """Read a labeled CSV; the class count defaults to the largest label seen, at least 2."""
    header, body, lines = _read_table(path)
    if "label" not in header:
        raise InputError(f"{path}: no 'label' column")
    label_col = header.index("label")
    feat_cols = [j for j in range(len(header)) if j != label_col]
    if not feat_cols:
        raise InputError(f"{path}: no feature columns")
    X = _parse_numeric(path, header, body, lines, feat_cols)
    labels = _parse_numeric(path, header, body, lines, [label_col]).ravel()
    k = max(int(labels.max()), 2) if num_classes is None else int(num_classes)
    try:
        return Dataset(instances=X, labels=labels, num_classes=k)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_instances(path) -> np.ndarray:
    """Read the feature columns of a CSV, ignoring any label column."""
    header, body, lines = _read_table(path)
    feat_cols = [j for j, h in enumerate(header) if h != "label"]
    if not feat_cols:
        raise InputError(f"{path}: no feature columns")
    return _parse_numeric(path, header, body, lines, feat_cols)


def array_rows(*columns):
    """The CSV rows of (n,) and (n, m) arrays set side by side, as Python
    ints and floats (a float is written as its shortest round-trip
    ``repr``), made ``_BLOCK_ROWS`` rows at a time so that a writer fed from
    here holds one block, whatever n is."""
    n = len(columns[0])
    for start in range(0, n, _BLOCK_ROWS):
        block = [np.asarray(c)[start : start + _BLOCK_ROWS].astype(object) for c in columns]
        yield from np.column_stack(block).tolist()


def save_dataset(data: Dataset, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{j + 1}" for j in range(data.dim)] + ["label"])
        writer.writerows(array_rows(data.instances, data.labels))


_VARIANT_TO_JSON = {"expectation": "expectation", "instance_marginal": "instance-marginal"}


def save_model(model: MrcModel, path, lambda_policy: str, n: int, bounds=None):
    """Write the model JSON; ``bounds`` is an optional stored BoundReport-like dict."""
    if model.feature_map is None:
        raise InputError("cannot persist a model without a feature map")
    obj = {
        "format_version": FORMAT_VERSION,
        **model.loss.to_json(),
        "variant": _VARIANT_TO_JSON[model.variant],
        "num_classes": model.num_classes,
        "thresholds": [[d, t] for d, t in model.feature_map.thresholds],
        "mu": [float(v) for v in model.weights],
        "objective_value": float(model.objective_value),
        "lambda_policy": lambda_policy,
        "n": int(n),
        "converged": bool(model.converged),
    }
    if model.offset is not None:
        obj["nu"] = float(model.offset)
    if bounds is not None:
        obj["bounds"] = bounds
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _read_json(path, kind):
    """The JSON object in a ``kind`` file (model or feature map) of this format version."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {kind} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: a {kind} file holds a JSON object")
    if obj.get("format_version") != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported format_version {obj.get('format_version')!r}")
    return obj


def _json_number(value, what, integer=False):
    """``value`` when it is a JSON number (an integer if ``integer``), else
    ValueError.  Python reads true/false as the ints 1/0, so bools are
    refused by name, as are strings and floats that ``int`` would truncate."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{what} must be {'an integer' if integer else 'a number'}, not {value!r}")
    return value


def _feature_map(obj) -> FeatureMap:
    return FeatureMap(
        num_classes=_json_number(obj["num_classes"], "num_classes", integer=True),
        thresholds=tuple(
            (
                _json_number(d, "a threshold dimension", integer=True),
                float(_json_number(t, "a threshold value")),
            )
            for d, t in obj["thresholds"]
        ),
    )


def load_model(path):
    """Read a model JSON; returns (model, metadata dict)."""
    obj = _read_json(path, "model")
    converged = obj.get("converged", True)
    if not isinstance(converged, bool):  # bool("false") is True
        raise InputError(f"{path}: converged must be true or false, not {converged!r}")
    try:
        if "alpha" in obj:
            _json_number(obj["alpha"], "alpha")
        fm = _feature_map(obj)
        model = MrcModel(
            loss=Loss.from_spec(obj),
            weights=np.array([_json_number(v, "mu entries") for v in obj["mu"]], dtype=np.float64),
            offset=float(_json_number(obj["nu"], "nu")) if "nu" in obj else None,
            objective_value=float(_json_number(obj["objective_value"], "objective_value")),
            num_classes=fm.num_classes,
            feature_map=fm,
            converged=converged,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed model file ({exc})") from exc
    if obj.get("variant") != _VARIANT_TO_JSON[model.variant]:
        raise InputError(
            f'{path}: variant {obj.get("variant")!r} disagrees with "nu" ("expectation" '
            'files carry a scalar "nu", "instance-marginal" files none)'
        )
    params = model.weights if model.offset is None else np.append(model.weights, model.offset)
    if not np.all(np.isfinite(params)):
        raise InputError(f"{path}: non-finite mu or nu in model file")
    if not math.isfinite(model.objective_value):
        raise InputError(f"{path}: non-finite objective_value in model file")
    bounds = obj.get("bounds")
    if bounds is not None and not (
        isinstance(bounds, dict)
        and all(
            type(bounds.get(k)) in (int, float) and -np.inf < bounds[k] < np.inf
            for k in ("lower", "upper")
        )
    ):
        raise InputError(f"{path}: stored bounds need finite numeric 'lower' and 'upper'")
    meta = {
        "lambda_policy": obj.get("lambda_policy"),
        "n": obj.get("n"),
        "bounds": bounds,
    }
    return model, meta


def save_feature_map(fm: FeatureMap, path):
    obj = {
        "format_version": FORMAT_VERSION,
        "num_classes": fm.num_classes,
        "thresholds": [[d, t] for d, t in fm.thresholds],
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load_feature_map(path) -> FeatureMap:
    obj = _read_json(path, "feature map")
    try:
        return _feature_map(obj)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"cannot read feature map {path}: {exc}") from exc
