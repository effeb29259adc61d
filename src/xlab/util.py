"""JSON digests, the checks of what xlab is given, its one seed rule, and the one
layout of every xlab file. Each check raises the caller's error class, naming what
it refuses.

The argument rule, :func:`checked_args`, holds for each public function and method
with a parameter annotated ``int``, ``float``, ``str`` or ``bool`` (or ``| None``): an
int is a Python int or a NumPy integer and a float any finite real number, neither a
bool, and the function receives a Python int or float; a str or a bool is exactly
that. Functions check only ranges; the helpers here raise ``TypeError`` under the
rule. :func:`check_fields` is stricter, as fields are digested and written to JSON,
where ``10`` and ``10.0`` differ: each field of a dataclass holds its annotated type
exactly (an int but no bool or NumPy integer, a finite float, a bool, a str, or a
list, tuple or str-keyed dict of these; a bare ``list`` or ``dict`` holds JSON
values). A list or tuple of one type is checked a whole level at a time; only a
misfit is then looked for part by part, to name it. :func:`checked_ids` checks that
ids have an integer dtype and, given a ``size``, lie in ``[0, size)``.

Every seeded generator of xlab comes from :func:`seeded_rng`: a seed is >= 0, its
type the argument rule's, and a negative one raises the caller's error.

The files are checkpoints (``XLCK``), token streams (``XLTS``), vocabularies
(``XLVB``), run records (``XLRR``) and scaling fits (``XLSF``). A file is the
caller's magic; ``<BI``, the version and the header length; the SHA-256 of the
header bytes followed by the payload; the JSON header, keys sorted, with the
caller's fields and ``tensors`` (a ``[name, shape, dtype]`` per array); then the
arrays in that order, C-ordered and little-endian. Vocabularies, run records and
scaling fits hold no arrays."""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import os
import struct
from contextlib import suppress
from dataclasses import fields
from itertools import chain
from numbers import Real
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

_NAMES = {int: "an int", float: "a finite float", bool: "a bool", str: "a str", dict: "a dict",
          object: "a JSON value"}
_JSON = (type(None), int, float, bool, str, list, dict)
_SCALARS = {"int": int, "float": float, "str": str, "bool": bool}


def _checked(value, kind: type, optional: bool, name: str, error: type[Exception]):
    """``value`` as a Python ``kind`` under the argument rule; ``error`` naming ``name``."""
    if type(value) is kind and kind is not float or value is None and optional:
        return value
    if kind is int and isinstance(value, np.integer):
        return int(value)
    if kind is float and type(value) is not bool and isinstance(value, Real):
        with suppress(OverflowError):  # an int too large for a float is no float
            if math.isfinite(number := float(value)):
                return number
    raise error(f"{name} must be {'a number' if kind is float else _NAMES[kind]}, got {value!r}")


def checked_args(error: type[Exception]):
    """The decorator of the argument rule, ``error`` naming the first parameter whose
    argument breaks it. It reads each annotation as the text ``X`` or ``X | None``, as
    every xlab module imports ``annotations`` from ``__future__``."""
    def decorate(fn):
        rules = []  # (position, name, kind, optional); a keyword-only one has no position
        for i, p in enumerate(inspect.signature(fn).parameters.values()):
            kinds = str(p.annotation).split(" | ")
            if kinds[0] in _SCALARS and kinds[1:] in ([], ["None"]):
                rules.append((i if p.kind <= p.POSITIONAL_OR_KEYWORD else math.inf, p.name,
                              _SCALARS[kinds[0]], len(kinds) > 1))

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            args = list(args)
            for i, name, kind, optional in rules:
                if i < len(args):
                    args[i] = _checked(args[i], kind, optional, name, error)
                elif name in kwargs:
                    kwargs[name] = _checked(kwargs[name], kind, optional, name, error)
            return fn(*args, **kwargs)
        return checked
    return decorate


def _all_fit(values: list | tuple, hint) -> bool:
    """Whether every item of ``values`` is of the type ``hint``, one C-level pass per
    level of nesting; False where a dict or a bare list is met, so the walk decides."""
    kind, args = get_origin(hint) or hint, get_args(hint)
    if not set(map(type, values)) <= {kind}:
        return False
    if kind is float:
        return all(map(math.isfinite, values))
    if kind is tuple and ... not in args:
        return set(map(len, values)) <= {len(args)} and all(map(_all_fit, zip(*values), args))
    if kind in (list, tuple):
        return bool(args) and _all_fit(list(chain.from_iterable(values)), args[0])
    return kind in (int, bool, str)


def _misfit(value, hint):
    """``(where, hint, part)`` of the first part of ``value``, at index path ``where``,
    that is not of the type ``hint``, or None. Only a misfit is looked for part by part."""
    if type(value) is hint and hint in (int, bool, str) or _all_fit((value,), hint):
        return None  # the common cases, first
    kind, args = get_origin(hint) or hint, get_args(hint)
    fixed = kind is tuple and ... not in args
    if (type(value) is not kind or kind is float and not math.isfinite(value)
            or fixed and len(value) != len(args)):
        return "", hint, value
    if kind not in (dict, list, tuple):
        return None
    if kind is dict and (keys := [k for k in value if type(k) is not str]):
        return " key", str, keys[0]
    for at, part in value.items() if kind is dict else enumerate(value):
        if not args:  # a bare list or dict holds JSON values
            part_hint = type(part) if type(part) in _JSON else object
        else:
            part_hint = args[at] if fixed else args[1 if kind is dict else 0]
        if bad := _misfit(part, part_hint):
            return f"[{at!r}]" + bad[0], *bad[1:]
    return None


@checked_args(TypeError)
def check_type(value, hint, error: type[Exception], name: str) -> None:
    """``error`` naming ``name`` and the part of ``value`` that is not of the type ``hint``."""
    if bad := _misfit(value, hint):
        raise error(f"{name}{bad[0]} must be {_NAMES.get(bad[1], bad[1])}, got {bad[2]!r}")


def seeded_rng(seed, error: type[Exception]) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for a ``seed`` >= 0, an int (the callers' argument
    rule); ``error`` naming ``seed`` otherwise."""
    if seed < 0:
        raise error(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def check_fields(obj, error: type[Exception]) -> None:
    """:func:`check_type` of each field of the dataclass ``obj`` against its annotation."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        check_type(getattr(obj, f.name), hints[f.name], error, f.name)


def _tuples(value):
    """A list as a tuple, and so the lists in it; anything else as it is."""
    return tuple(map(_tuples, value)) if type(value) is list else value


@checked_args(TypeError)
def from_fields(cls, header, error: type[Exception], prefix: str = ""):
    """The dataclass ``cls`` built from the fields of a JSON ``header``, the lists of a
    field annotated as a tuple read as tuples; ``error``, its message after ``prefix``,
    names every missing and unknown field, or what ``cls`` refuses."""
    if type(header) is not dict:
        raise error(f"{prefix}a {cls.__name__} is a JSON object, got {type(header).__name__}")
    names = {f.name for f in fields(cls)}
    missing, unknown = sorted(names - header.keys()), sorted(header.keys() - names)
    if missing or unknown:
        raise error(f"{prefix}{cls.__name__} with missing fields {missing} and unknown fields "
                    f"{unknown}")
    hints = get_type_hints(cls)
    try:
        return cls(**{name: _tuples(value) if get_origin(hints[name]) is tuple else value
                      for name, value in header.items()})
    except ValueError as e:  # each class raises its own ValueError
        raise error(f"{prefix}{e}") from e


@checked_args(TypeError)
def checked_ids(ids, size: int | None, error: type[Exception], what: str, where: str = "",
                dtype=np.int64) -> np.ndarray:
    """``ids`` as a contiguous ``dtype`` array; ``error`` unless they are integers, and
    in [0, size) if a ``size`` is given. Ids of ``dtype`` are not scanned when no value
    of that dtype lies outside the range, nor at all without a ``size``."""
    if not (isinstance(ids, np.ndarray) and ids.dtype == dtype and np.dtype(dtype).kind == "u"
            and np.iinfo(dtype).max < size):
        ids = np.asarray(ids)
        if ids.size and ids.dtype.kind not in "iu":
            raise error(f"{what}{where} must be integers, got dtype {ids.dtype}")
        if size is not None and ids.size and not 0 <= ids.min() <= int(ids.max()) < size:
            raise error(f"{what} {ids.min()}..{ids.max()} are outside [0, {size}){where}")
    return np.ascontiguousarray(ids, dtype=dtype)


def json_digest(obj) -> str:
    """SHA-256 of canonical JSON: sorted keys, no whitespace drift."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@checked_args(TypeError)
def write_arrays(path: str | Path, magic: bytes, version: int, header: dict,
                 arrays: dict[str, np.ndarray] | None = None) -> None:
    """Write ``header`` and ``arrays`` in the array layout, the header gaining the
    ``tensors`` list. The file is written next to ``path`` and moved into place, so
    a failed write leaves any earlier file at ``path`` and no partial file."""
    arrays = {n: np.asarray(a, dtype=a.dtype.newbyteorder("<"), order="C")
              for n, a in (arrays or {}).items()}
    header = {**header, "tensors": [[n, list(a.shape), a.dtype.str] for n, a in arrays.items()]}
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(raw)
    for a in arrays.values():
        digest.update(a)
    tmp = Path(path).with_name(Path(path).name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(magic)
            f.write(struct.pack("<BI", version, len(raw)))
            f.write(digest.digest())
            f.write(raw)
            for a in arrays.values():
                f.write(a)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@checked_args(TypeError)
def read_arrays(path: str | Path, magic: bytes, version: int,
                error: type[Exception]) -> tuple[dict, dict[str, np.ndarray]]:
    """``(header, {name: array})`` of an array file, the header without its
    ``tensors`` and the arrays writable views of one payload buffer (copies where
    misaligned) in their written dtypes; ``error`` naming the file on a bad magic
    or version, a truncated header, a digest mismatch (checked before any
    parsing), a bad header, or a payload of another size than the header lists."""
    with open(path, "rb") as f:
        got, prefix = f.read(len(magic)), f.read(5)
        if got != magic:
            raise error(f"{path}: bad magic {got!r}, expected {magic!r}")
        if len(prefix) != 5:
            raise error(f"{path}: truncated header")
        got_version, hlen = struct.unpack("<BI", prefix)
        if got_version != version:
            raise error(f"{path}: unsupported {magic.decode('ascii', 'replace')} version "
                        f"{got_version} (this xlab reads version {version})")
        want = f.read(32)
        size = os.fstat(f.fileno()).st_size - f.tell()
        if hlen > size:
            raise error(f"{path}: truncated header")
        raw, payload = f.read(hlen), bytearray(size - hlen)
        f.readinto(payload)
    digest = hashlib.sha256(raw)
    digest.update(payload)
    if digest.digest() != want:
        raise error(f"{path}: digest mismatch: the header or payload is not what was written")
    try:
        header = json.loads(raw)
        specs = [(str(n), tuple(int(d) for d in shape), np.dtype(dt))
                 for n, shape, dt in header.pop("tensors")]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise error(f"{path}: bad header ({type(e).__name__}: {e})") from e
    if any(dt.kind not in "biuf" or min(shape, default=0) < 0 for _, shape, dt in specs):
        raise error(f"{path}: the header lists an array of negative size or non-numeric dtype")
    need = sum(dt.itemsize * math.prod(shape) for _, shape, dt in specs)
    if len(payload) != need:
        raise error(f"{path}: the payload is {len(payload)} bytes, the header lists {need}")
    arrays, offset = {}, 0
    for name, shape, dt in specs:
        a = np.frombuffer(payload, dtype=dt, count=math.prod(shape), offset=offset)
        arrays[name] = (a.copy() if offset % dt.itemsize else a).reshape(shape)
        offset += a.nbytes
    return header, arrays
