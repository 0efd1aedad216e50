"""Tiny JSON (de)serialization helpers used for caches and checkpoints.

The cubin deploy-cache (§4.2 of the paper), autotuner cache and training
statistics are stored as JSON so they are human-inspectable.  Numpy scalars
and arrays are converted to plain Python types on the way out.

The serving records (job records, reports, progress events, counters) are
dataclasses whose JSON forms come from their fields alone, through
:func:`fields_to_json` and :func:`fields_from_json`.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

_T = TypeVar("_T")


class _NumpyJSONEncoder(json.JSONEncoder):
    def default(self, obj: Any) -> Any:
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, (np.bool_,)):
            return bool(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return super().default(obj)


def to_json_file(path: str | Path, obj: Any, *, indent: int = 2) -> Path:
    """Serialize ``obj`` to ``path`` as JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf8") as fh:
        json.dump(obj, fh, cls=_NumpyJSONEncoder, indent=indent, sort_keys=True)
    return path


def from_json_file(path: str | Path) -> Any:
    """Load a JSON file written by :func:`to_json_file`."""
    with Path(path).open("r", encoding="utf8") as fh:
        return json.load(fh)


def to_json_str(obj: Any) -> str:
    """Serialize ``obj`` to a compact JSON string (used for cache keys)."""
    return json.dumps(obj, cls=_NumpyJSONEncoder, sort_keys=True, separators=(",", ":"))


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


#: Types whose values are their own JSON form.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _plain(value: Any) -> Any:
    if type(value) in _SCALARS:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def fields_to_json(obj: Any, *, omit: tuple[str, ...] = ()) -> dict[str, Any]:
    """The JSON form of dataclass ``obj``: one key per field but ``omit``,
    with enums as their values, tuples as lists (their items converted too)
    and dicts copied."""
    form = {}
    for name in _field_names(type(obj)):
        if name not in omit:
            value = getattr(obj, name)
            # Most fields are scalars: skip the call (every served request
            # builds a record and a report summary).
            form[name] = value if type(value) in _SCALARS else _plain(value)
    return form


def fields_from_json(cls: type[_T], payload: dict, **restore: Callable[[Any], Any]) -> _T:
    """Rebuild dataclass ``cls`` from its :func:`fields_to_json` form.

    Keys that name no field are ignored, so a form written before a field
    was retired still loads; a missing key takes the field's default.
    ``restore`` maps a field name to the callable that rebuilds its value
    from JSON (``status=JobStatus``, ``rules=tuple``).
    """
    values = {name: payload[name] for name in _field_names(cls) if name in payload}
    for name, rebuild in restore.items():
        if name in values:
            values[name] = rebuild(values[name])
    return cls(**values)
