"""Embedding file formats and canonical JSON serialization.

Binary layout (little-endian throughout): 8-byte ASCII magic "IGAMEMB1",
u32 embedding dimension p, u64 record count, then per record a u32
category id followed by p IEEE-754 32-bit floats. The CSV alternative is
headered `category,e0,...,e{p-1}`; the JSON alternative mirrors the same
records as {"p": int, "records": [{"category": int, "vector": [...]}]}.

Embeddings are stored at 32-bit precision on disk regardless of in-memory
precision; readers promote to float64. Malformed binary input is reported
with the byte offset of the problem.

`iter_embeddings` yields a file as (X, categories) chunks. A binary file's
header and size are checked before any record is read, and then its records
are read `chunk` at a time, so a caller that folds each chunk away holds one
chunk of records, never the file; `read_embeddings_binary` is the one-chunk
case of the same reader. CSV and JSON files are parsed whole and come as a
single chunk.

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
`write_json` writes each to the file as it is made, so a document written
to disk is never held whole in memory. `read_json` passes an optional
`object_hook` to `json.loads`, which lets a reader turn each entry's float
lists into arrays as the entry is parsed.
"""

from __future__ import annotations

import csv
import json
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import InputError, as_choice, as_int, as_number_array

__all__ = [
    "MAGIC",
    "iter_embeddings",
    "read_embeddings",
    "write_embeddings",
    "read_embeddings_binary",
    "write_embeddings_binary",
    "read_embeddings_csv",
    "write_embeddings_csv",
    "read_embeddings_json",
    "write_embeddings_json",
    "detect_format",
    "canonical_dumps",
    "write_json",
    "read_json",
]

MAGIC = b"IGAMEMB1"
_HEADER = struct.Struct("<8sIQ")

FORMATS = ("bin", "csv", "json")

# Category ids are held as int64 once read.
_MAX_ID = int(np.iinfo(np.int64).max)

_EXTENSIONS = {".bin": "bin", ".csv": "csv", ".json": "json"}


def detect_format(path, fmt: str | None = None) -> str:
    """Resolve an embedding-file format from an explicit flag or extension."""
    if fmt is not None:
        return as_choice(fmt, "format", FORMATS)
    suffix = Path(path).suffix.lower()
    if suffix in _EXTENSIONS:
        return _EXTENSIONS[suffix]
    raise InputError(
        f"cannot infer embedding format from {Path(path).name!r}; pass --format bin|csv|json"
    )


def _checked_arrays(X, categories, where) -> tuple[np.ndarray, np.ndarray]:
    """(X float64 (n, p), categories int64 (n,)), with finite X and ids >= 0."""
    X = np.asarray(X, dtype=np.float64)
    categories = np.asarray(categories, dtype=np.int64)
    if X.ndim != 2:
        raise InputError(f"{where}: embeddings must be (n, p), got shape {X.shape}")
    if categories.shape != (X.shape[0],):
        raise InputError(
            f"{where}: {categories.shape[0]} categories for {X.shape[0]} records"
        )
    if not np.all(np.isfinite(X)):
        bad = int(np.argwhere(~np.isfinite(X).all(axis=1))[0, 0])
        raise InputError(f"{where}: non-finite coordinate in record {bad}")
    if np.any(categories < 0):
        bad = int(np.argmin(categories))
        raise InputError(f"{where}: negative category id in record {bad}")
    return X, categories


def _record_dtype(p: int) -> np.dtype:
    return np.dtype([("category", "<u4"), ("vector", "<f4", (p,))])


def _iter_binary(path, chunk: int | None):
    """Check a binary file's header and size; return (p, lazy chunk iterator)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise InputError(
            f"{path}: truncated header, {len(head)} bytes at byte offset 0 "
            f"(need {_HEADER.size})"
        )
    magic, p, count = _HEADER.unpack(head)
    if magic != MAGIC:
        raise InputError(f"{path}: bad magic {magic!r} at byte offset 0 (expected {MAGIC!r})")
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


def _binary_chunks(path, p: int, count: int, chunk: int):
    if chunk < 1:
        raise InputError(f"chunk size must be >= 1, got {chunk}")
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


def read_embeddings_binary(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a binary embedding file; returns (X float64 (n, p), categories int64)."""
    _, chunks = _iter_binary(path, None)
    return next(chunks)


def write_embeddings_binary(path, X: np.ndarray, categories: np.ndarray) -> None:
    X, categories = _checked_arrays(X, categories, path)
    if np.any(categories > np.iinfo(np.uint32).max):
        raise InputError(f"{path}: category id exceeds the u32 range")
    n, p = X.shape
    records = np.empty(n, dtype=_record_dtype(p))
    records["category"] = categories
    records["vector"] = X.astype(np.float32)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, p, n))
        fh.write(records.tobytes())


def _csv_header(p: int) -> list[str]:
    return ["category"] + [f"e{i}" for i in range(p)]


def read_embeddings_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, expected a CSV header") from None
        p = len(header) - 1
        if p < 1 or header != _csv_header(p):
            raise InputError(
                f"{path}: line 1: bad header {header!r}, expected 'category,e0,...'"
            )
        cats, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != p + 1:
                raise InputError(
                    f"{path}: line {lineno}: expected {p + 1} fields, got {len(row)}"
                )
            try:
                cat = int(row[0])
                vec = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from exc
            # int() and float() also take "1_0", "+0" and " 7": an id must be
            # spelled as `str(int)` spells it, and no coordinate holds a "_".
            if str(cat) != row[0]:
                raise InputError(f"{path}: line {lineno}: category {row[0]!r} is not a "
                                 "canonical decimal id")
            if any("_" in v for v in row[1:]):
                raise InputError(f"{path}: line {lineno}: '_' in a coordinate")
            if cat < 0:
                raise InputError(f"{path}: line {lineno}: negative category id {cat}")
            if cat > _MAX_ID:
                raise InputError(f"{path}: line {lineno}: category id {cat} exceeds {_MAX_ID}")
            if not all(np.isfinite(vec)):
                raise InputError(f"{path}: line {lineno}: non-finite coordinate")
            cats.append(cat)
            rows.append(vec)
    if not rows:
        raise InputError(f"{path}: no records after the header")
    return np.asarray(rows, dtype=np.float64), np.asarray(cats, dtype=np.int64)


def write_embeddings_csv(path, X: np.ndarray, categories: np.ndarray) -> None:
    X, categories = _checked_arrays(X, categories, path)
    # Round-trip through the on-disk f32 precision so CSV and binary
    # encodings of the same data load identically.
    X32 = X.astype(np.float32)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(X.shape[1]))
        for cat, row in zip(categories, X32):
            writer.writerow([int(cat)] + [repr(float(v)) for v in row])


def read_embeddings_json(path) -> tuple[np.ndarray, np.ndarray]:
    doc = read_json(path)
    try:
        raw_p = doc["p"]
        entries = doc["records"]
        raw_cats = [r["category"] for r in entries]
        rows = [r["vector"] for r in entries]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: malformed embedding document: {exc}") from exc
    p = as_int(raw_p, f"{path}: p")
    cats = [as_int(c, f"{path}: records[{i}].category", minimum=0)
            for i, c in enumerate(raw_cats)]
    for i, cat in enumerate(cats):
        if cat > _MAX_ID:
            raise InputError(f"{path}: records[{i}].category: category id {cat} exceeds {_MAX_ID}")
    if not entries:
        raise InputError(f"{path}: no records")
    X = as_number_array(rows, f"{path}: vectors").astype(np.float64, copy=False)
    if X.ndim != 2 or X.shape[1] != p:
        raise InputError(f"{path}: vectors do not all have declared length p={p}")
    return _checked_arrays(X, cats, path)


def write_embeddings_json(path, X: np.ndarray, categories: np.ndarray) -> None:
    X, categories = _checked_arrays(X, categories, path)
    X32 = X.astype(np.float32)
    doc = {
        "p": int(X.shape[1]),
        "records": [
            {"category": cat, "vector": row}
            for cat, row in zip(categories.tolist(), X32.tolist())
        ],
    }
    write_json(path, doc)


_READERS = {
    "bin": read_embeddings_binary,
    "csv": read_embeddings_csv,
    "json": read_embeddings_json,
}
_WRITERS = {
    "bin": write_embeddings_binary,
    "csv": write_embeddings_csv,
    "json": write_embeddings_json,
}


def read_embeddings(path, fmt: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Read (X, categories) from any supported embedding format."""
    return _READERS[detect_format(path, fmt)](path)


def iter_embeddings(path, fmt: str | None = None, chunk: int | None = None):
    """(p, chunks): the embedding dimension and an iterator of (X, categories).

    A binary file is checked up front and read lazily, `chunk` records at a
    time (all at once when `chunk` is None); a CSV or JSON file is read now
    and comes as one chunk.
    """
    fmt = detect_format(path, fmt)
    if fmt == "bin":
        return _iter_binary(path, chunk)
    X, categories = _READERS[fmt](path)
    return X.shape[1], iter([(X, categories)])


def write_embeddings(path, X: np.ndarray, categories: np.ndarray, fmt: str | None = None) -> None:
    _WRITERS[detect_format(path, fmt)](path, X, categories)


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
    part of the document.
    """
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
    (`stats.stats_entry_arrays`). An unreadable file or invalid JSON raises
    InputError naming the path (and the line and column).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text, object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
