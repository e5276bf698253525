"""The embedding file format and canonical JSON serialization.

Binary layout (little-endian throughout): 8-byte ASCII magic "IGAMEMB1",
u32 embedding dimension p, u64 record count, then per record a u32
category id followed by p IEEE-754 32-bit floats. It is the one embedding
format.

Embeddings are stored at 32-bit precision on disk regardless of in-memory
precision; the reader promotes to float64. Malformed input is reported with
the byte offset of the problem. The writer checks its arrays with
`errors.as_batch`, as every (features, ids) entry point of the package does,
and adds what the reader requires of a file: at least one record, p >= 1,
ids in the u32 range and values that stay finite at 32 bits. So it writes
only files the reader takes, and a bad array leaves no file behind.

`iter_embeddings` is the one reader: it yields a file as (X, categories)
chunks. The header and the file's size are checked before any record is
read, and then the records are read `chunk` at a time, so a caller that
folds each chunk away holds one chunk of records, never the file;
`read_embeddings` is its one-chunk case.

JSON emitted here is canonical: sorted keys, two-space indent, shortest
round-trip float formatting, no NaN/Infinity, trailing newline — so that
reading an emitted document and re-emitting it is byte-identical.
`canonical_dumps` gives the same bytes as the stdlib's `json.dumps` with
`sort_keys=True, indent=2, allow_nan=False` plus a newline, but spells
each float once with `float.__repr__` (the spelling `json` uses) and
joins a list of scalars in one `str.join`, instead of taking one step of
the stdlib's pure-Python indent encoder per value. Dict keys must be `str`.
Wherever it takes a list of floats it also takes a 1-D float64 `ndarray`,
written as that list would be: each distinct bit pattern in the array is
spelled once and the spellings are joined in array order, so the mirror
entries of a symmetric covariance cost no second spelling and the array
is never turned into Python floats.

One encoder makes the text in pieces: `canonical_dumps` joins them, and
`write_json` writes each to a file or to stdout as it is made, so a
written document is never held whole in memory. `read_json` passes an
optional `object_hook` to `json.loads`, which lets a reader turn each
entry's float lists into arrays as the entry is parsed.
"""

from __future__ import annotations

import json
import os
import stat
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import InputError, as_batch, as_int

__all__ = [
    "MAGIC",
    "iter_embeddings",
    "read_embeddings",
    "write_embeddings_binary",
    "canonical_dumps",
    "write_json",
    "read_json",
]

MAGIC = b"IGAMEMB1"
_HEADER = struct.Struct("<8sIQ")


def iter_embeddings(path, chunk: int | None = None):
    """(p, chunks): the embedding dimension and an iterator of (X, categories).

    The header and the file's size are checked now; the records are read
    lazily, `chunk` at a time (all at once when `chunk` is None).
    """
    if chunk is not None:
        chunk = as_int(chunk, "chunk size", minimum=1)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
    # A short file whose bytes agree with the magic so far is a truncated one.
    if not head.startswith(MAGIC[:len(head)]):
        raise InputError(f"{path}: bad magic {head[:len(MAGIC)]!r} at byte offset 0 "
                         f"(expected {MAGIC!r})")
    if len(head) < _HEADER.size:
        raise InputError(
            f"{path}: truncated header, {len(head)} bytes at byte offset 0 "
            f"(need {_HEADER.size})"
        )
    _, p, count = _HEADER.unpack(head)
    if p < 1:
        raise InputError(f"{path}: embedding dimension {p} at byte offset 8 must be >= 1")
    record_size = 4 + 4 * p
    expected = _HEADER.size + count * record_size
    if size != expected:
        raise InputError(
            f"{path}: declared {count} records of {record_size} bytes, expected file "
            f"size {expected}, got {size} (mismatch at byte offset "
            f"{min(expected, size)})"
        )
    if count == 0:
        raise InputError(f"{path}: no records after the header")
    return p, _binary_chunks(path, p, count, count if chunk is None else chunk)


def read_embeddings(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a whole embedding file; returns (X float64 (n, p), categories int64)."""
    _, chunks = iter_embeddings(path)
    return next(chunks)


def _record_dtype(p: int) -> np.dtype:
    return np.dtype([("category", "<u4"), ("vector", "<f4", (p,))])


def _binary_chunks(path, p: int, count: int, chunk: int):
    dtype = _record_dtype(p)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        for start in range(0, count, chunk):
            n = min(chunk, count - start)
            records = np.fromfile(fh, dtype=dtype, count=n)
            if records.shape[0] != n:
                missing = start + records.shape[0]
                raise InputError(
                    f"{path}: file ends early, record {missing} missing at byte offset "
                    f"{_HEADER.size + missing * dtype.itemsize}"
                )
            X = records["vector"].astype(np.float64)
            categories = records["category"].astype(np.int64)
            # Only one chunk is held at a time: the raw records go before the
            # yield, and the yielded arrays before the next chunk is read.
            del records
            # min and max propagate NaN and expose +-inf without an (n, p) temporary.
            if not (np.isfinite(X.min()) and np.isfinite(X.max())):
                bad = start + int(np.argmin(np.isfinite(X).all(axis=1)))
                offset = _HEADER.size + bad * dtype.itemsize + 4
                raise InputError(
                    f"{path}: non-finite coordinate in record {bad} at byte offset {offset}"
                )
            yield X, categories
            del X, categories


def write_embeddings_binary(path, X: np.ndarray, categories: np.ndarray) -> None:
    X, categories = as_batch(X, categories, str(path))
    n, p = X.shape
    if n == 0:
        raise InputError(f"{path}: no records to write")
    if p == 0:
        raise InputError(f"{path}: embedding dimension 0 must be >= 1")
    if np.any(categories > np.iinfo(np.uint32).max):
        raise InputError(f"{path}: category id exceeds the u32 range")
    # An overflow is reported below, by row, rather than warned about.
    with np.errstate(over="ignore"):
        vectors = X.astype(np.float32)
    if not (np.isfinite(vectors.min()) and np.isfinite(vectors.max())):
        row = int(np.argmin(np.isfinite(vectors).all(axis=1)))
        raise InputError(f"{path}: value in row {row} is beyond the float32 range")
    records = np.empty(n, dtype=_record_dtype(p))
    records["category"] = categories
    records["vector"] = vectors
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, p, n))
        fh.write(records.tobytes())


_encode_str = json.encoder.encode_basestring_ascii


def _scalar(o) -> str:
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        if "n" in text:  # nan, inf, -inf
            raise ValueError(f"Out of range float values are not JSON compliant: {text}")
        return text
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _join_scalars(items, sep: str) -> str | None:
    """`items` spelled and joined by `sep`, or None if any item is a container."""
    try:
        # float.__repr__ raises TypeError on any item that is not a float.
        text = sep.join(map(float.__repr__, items))
    except TypeError:
        if any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
            return None
        return sep.join(map(_scalar, items))
    if "n" in text:  # nan or inf: _scalar raises on the first one
        return sep.join(map(_scalar, items))
    return text


def _join_floats(a: np.ndarray, sep: str) -> str:
    """A nonempty 1-D float64 array spelled as a list of its floats and joined by `sep`."""
    # Unique bit patterns, not values, so 0.0 and -0.0 keep their own spellings.
    bits, inverse = np.unique(a.view(np.uint64), return_inverse=True)
    distinct = bits.view(np.float64)
    if not np.isfinite(distinct).all():
        _scalar(float(a[~np.isfinite(a)][0]))  # raises, naming the first in array order
    spelled = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
    return sep.join(spelled[inverse].tolist())


def _chunks(o, indent: str):
    """The canonical text of `o` in pieces; `indent` is its nesting prefix."""
    if isinstance(o, dict):
        if not o:
            yield "{}"
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            yield sep + _encode_str(key) + ": "
            sep = ",\n" + inner
            yield from _chunks(value, inner)
        yield "\n" + indent + "}"
    elif isinstance(o, (list, tuple)):
        if not o:
            yield "[]"
            return
        inner = indent + "  "
        sep = ",\n" + inner
        yield "[\n" + inner
        text = _join_scalars(o, sep)
        if text is not None:
            yield text
        else:
            for i, value in enumerate(o):
                if i:
                    yield sep
                yield from _chunks(value, inner)
        yield "\n" + indent + "]"
    elif isinstance(o, np.ndarray):
        if o.dtype != np.float64 or o.ndim != 1:
            raise TypeError(f"Object of type ndarray with dtype {o.dtype} and shape "
                            f"{o.shape} is not JSON serializable (only 1-D float64 is)")
        if not o.size:
            yield "[]"
            return
        inner = indent + "  "
        yield "[\n" + inner + _join_floats(o, ",\n" + inner) + "\n" + indent + "]"
    else:
        yield _scalar(o)


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, shortest-round-trip floats.

    A 1-D float64 array is written as the list of its floats. Raises
    ValueError on NaN or infinity and TypeError on a value that is not a
    dict, list, tuple, str, int, float, bool, None or 1-D float64 array,
    or on a non-str key.
    """
    return "".join([*_chunks(obj, ""), "\n"])


def write_json(path, obj) -> None:
    """Write `canonical_dumps(obj)` to `path`, one piece at a time as it is made.

    The text is never held whole: each piece of the encoder's output goes
    to the file as soon as it is made. It goes to a temporary file beside
    `path`, which replaces `path` only once the whole document is written,
    so an error mid-write (NaN, an unserializable value, a full disk)
    leaves no partial file and an earlier file at `path` untouched, with
    its permission bits kept for the new one. A symlink, or a path that
    exists and is not a regular file (such as `/dev/stdout`), is opened and
    written directly instead, as `open` would; an error there can leave
    part of the document. A falsy `path` (None or "") means `sys.stdout`,
    written directly too; the CLI checks each document before writing it,
    so only an I/O error can cut its stdout short.
    """
    if not path:
        _write_chunks(sys.stdout, obj)
        return
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w") as fh:
            _write_chunks(fh, obj)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            _write_chunks(fh, obj)
        if os.path.exists(path):
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_chunks(fh, obj) -> None:
    fh.writelines(_chunks(obj, ""))
    fh.write("\n")


def read_json(path, object_hook=None):
    """Parse the JSON file at `path`, passing `object_hook` to `json.loads`.

    The hook sees each decoded object as soon as it closes, so a caller can
    turn an entry's float lists into arrays before the next entry is parsed
    (`stats.stats_entry_arrays`). The file is read as UTF-8. An unreadable
    file, a byte that is not UTF-8 or invalid JSON raises InputError naming
    the path (and the line and column), as do NaN, Infinity and -Infinity,
    which `json.loads` takes by default, and an integer literal of more
    digits than `int()` converts.
    """
    def reject_constant(name):
        raise InputError(f"{path}: invalid JSON: {name} is not a JSON number")

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from None
    try:
        return json.loads(text, object_hook=object_hook, parse_constant=reject_constant)
    except InputError:
        raise
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond int()'s digit limit
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
