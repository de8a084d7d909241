"""Strict JSON codec for frozen dataclasses such as :class:`SimulationConfig`.

A document mirrors the dataclass field names and order exactly, so each
format is defined once, by its dataclass. The writer leaves out fields whose
value is None. The reader rejects unknown keys at every nesting level, so
typos never silently fall back to defaults; a key may be missing only when
its field has a default.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

from .model import ConfigError, SimulationConfig

_PLAIN = (str, int, float, bool)


class ConfigFormatError(ConfigError):
    """The document is malformed (unknown keys, wrong types, bad enums)."""


class InputError(ConfigFormatError):
    """An input file at fault, with the file, the line where the fault is
    (None for the file as a whole) and the problem."""

    def __init__(self, what: str, path: str | Path, line: int | None, problem: str):
        self.path = str(path)
        self.line = line
        self.problem = problem
        at = "" if line is None else f", line {line}"
        super().__init__(f"{what} {path}{at}: {problem}")


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of the file ``what`` at ``path``, for every file the
    package reads; a missing file, or a byte that is not UTF-8, raises
    :class:`InputError`."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise InputError(what, path, None, "not found") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(what, path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from exc


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8 in one call, with no newline
    translation, for every file the package writes. Text that does not
    encode leaves no file; a failed write removes the partial file."""
    if not isinstance(path, Path):  # Path(path) would parse a Path again
        path = Path(path)
    data = text.encode("utf-8")
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError:
        path.unlink(missing_ok=True)
        raise
    return path


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, resolved type hint, has a default) per field, in field order."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            hints[f.name],
            f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def to_data(value: Any) -> Any:
    """JSON-ready view: dataclasses become dicts in field order, None fields
    are left out, enums become their values and tuples become lists."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [to_data(item) for item in value]
    if dataclasses.is_dataclass(value):
        data = {}
        for name, _, _ in _fields(type(value)):
            item = getattr(value, name)
            if item is not None:
                data[name] = to_data(item)
        return data
    return value


def from_data(tp: Any, data: Any, where: str) -> Any:
    """Parse ``data`` as type ``tp``; every error names the path ``where``."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(data, Mapping):
            raise ConfigFormatError(f"{where} must be an object, got {data!r}")
        fields = _fields(tp)
        unknown = set(data) - {name for name, _, _ in fields}
        if unknown:
            raise ConfigFormatError(f"unknown keys in {where}: {sorted(unknown)}")
        kwargs = {}
        for name, hint, has_default in fields:
            if name in data:
                kwargs[name] = from_data(hint, data[name], f"{where}.{name}")
            elif not has_default:
                raise ConfigFormatError(f"missing key {where}.{name}")
        return tp(**kwargs)
    origin = typing.get_origin(tp)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(data, list):
            raise ConfigFormatError(f"{where} must be a list, got {data!r}")
        item_tp = typing.get_args(tp)[0]
        return tuple(from_data(item_tp, item, f"{where}[{i}]") for i, item in enumerate(data))
    if origin in (types.UnionType, typing.Union):  # X | None
        if data is None:
            return None
        (inner,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        return from_data(inner, data, where)
    if issubclass(tp, Enum):
        try:
            return tp(data)
        except ValueError:
            raise ConfigFormatError(
                f"{where} must be one of {[m.value for m in tp]}, got {data!r}"
            ) from None
    if tp is float and type(data) in (int, float):
        return float(data)
    if type(data) is not tp:
        raise ConfigFormatError(f"{where} must be a {tp.__name__}, got {data!r}")
    if tp is str:
        # A JSON escape such as "\ud800" decodes to a lone surrogate, which
        # no output file could hold.
        try:
            data.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigFormatError(f"{where} cannot be written as UTF-8, got {data!r}") from None
    return data


def save_data(value: Any, path: str | Path) -> None:
    """Write ``to_data(value)`` as indented JSON plus a trailing newline."""
    write_text(path, json.dumps(to_data(value), indent=2) + "\n")


def load_data(tp: Any, path: str | Path, where: str) -> Any:
    """Read a JSON file as ``tp``; a missing file, a JSON syntax error or a
    key repeated in one object is an InputError, and a bad field a
    ConfigFormatError."""
    what = f"{where} file"
    raw = read_text(path, what)

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        data = {}
        for key, value in pairs:
            if key in data:
                raise InputError(what, path, None, f"repeats the key {key!r} in one object")
            data[key] = value
        return data

    try:
        data = json.loads(raw, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(what, path, exc.lineno, f"not valid JSON ({exc.msg})") from exc
    return from_data(tp, data, where)


def config_to_dict(config: SimulationConfig) -> dict[str, Any]:
    return to_data(config)


def config_from_dict(data: Mapping[str, Any]) -> SimulationConfig:
    return from_data(SimulationConfig, data, "config")


def save_config(config: SimulationConfig, path: str | Path) -> None:
    save_data(config, path)


def load_config(path: str | Path) -> SimulationConfig:
    return load_data(SimulationConfig, path, "config")
