"""Caption corpora and embedding matrices, with bit-exact file formats.

Corpus files are JSONL, one record per line:

    {"id": str, "text": str, "nsfw": bool, "text_in_image": bool|null,
     "meta": {...} | null}

Only the id, the text and the two flags are kept: `meta`, which no stage
reads, is optional, and is checked to be an object or null, then dropped.

Embedding files are a single binary blob so ids and rows cannot drift
apart:

    offset 0   magic b"EMB1"
    offset 4   dim   as little-endian uint32
    offset 8   count as little-endian uint64
    offset 16  count * dim little-endian float32 values, row-major
    then       one JSON string per line (LF): the row ids, in row order

Rows are stored exactly as produced by the encoder (no pre-normalization);
cosine normalization happens at computation time. All-zero rows are
rejected at load because cosine similarity is undefined for them, and
non-finite values are rejected because every downstream statistic assumes
finite scores. NSFW and text-in-image flags are trusted inputs produced by
upstream tooling; this module never recomputes them.

`read_jsonl` is the one JSONL row reader: the taxonomy, corpus,
candidate, prediction and pair loaders all read through it. It returns
columns, one list per field. The file is parsed in chunks of _JSONL_ROWS
rows, and kinds are checked once per chunk, as soon as it has parsed;
the earlier chunks are clean by then, so the fault reported is the first
by line, as a check of the whole file would find it.

A corpus file is read one way, through `caption_chunks`, which yields
its rows one chunk at a time, as `Captions` columns, and holds only their
ids: `match` scans its captions so, and `load_corpus(path, keep)` keeps
only the NSFW and text-in-image flags of the ids a stage uses, never a
text. Once the last chunk is read it reports a bad `meta`, then a
duplicate id, so these come after every kind fault in the file, whichever
rows are kept.

Ids are joined here too, so each id error is worded once. `index_keys`
builds the id indexes and reports the first key seen twice ("duplicate
{what} {key!r}", with both lines for a JSONL file); each file's ids are
checked once, by its loader or by the object it builds. `rows_of` and
`positions`, which `EmbeddingMatrix` and `EmbeddingFile` share, find
embedding rows by id; `positions` reports the first id that has none
("missing {role} embedding for id {id!r}"). An embedding file's duplicate
id, non-finite row or all-zero row is reported with the file's path.

An embedding file is read by one reader, `EmbeddingFile`: on opening,
its header is checked and its id trailer read whole and checked for
repeats (every duplicate id must be found), but no index of it is kept;
its payload is then read in bounded row chunks, each checked as it
arrives. `chunks` scans them through one reused buffer, as `nearest-text`
scans its corpus and `match` its captions; `load(keep)`, which
`load_embeddings(path, keep)` calls, keeps only the rows of the ids a
stage uses. Each row is checked once and each id checked for repeats
once. A non-finite row anywhere in the file is reported before an
all-zero row, whichever rows are kept.

Only the embedding code uses numpy, importing it when it runs, so the
JSONL readers, and the `sweep`, `assemble` and `eval` stages built on
them, never load it.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import reprlib
import struct
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import FormatError, MissingKeyError, ValidationError

if TYPE_CHECKING:
    import numpy as np

EMBEDDING_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sIQ")  # magic, dim as u32, count as u64
_HEADER_SIZE = _HEADER.size
_F32LE = "<f4"
# Values per chunk of the value check and of a chunked payload read: the
# reused float32 buffer stays 1 MiB and the check's boolean temporary 256 KiB.
_CHECK_VALUES = 1 << 18
# Rows per chunk of a JSONL read: a chunk's kinds are checked as soon as it
# has parsed, and `caption_chunks` holds one chunk's texts at a time.
_JSONL_ROWS = 4096


@dataclass(frozen=True)
class Captions:
    """Captions and their flags as columns, in file order.

    Row i is the caption `texts[i]` of instance `ids[i]`, with its NSFW
    flag and its text-in-image flag (None when unset). `caption_chunks`
    yields a corpus file's rows as one `Captions` per chunk.
    """

    ids: list[str]
    texts: list[str]
    nsfw: list[bool]
    text_in_image: list[bool | None]

    def __len__(self) -> int:
        return len(self.ids)


def index_keys(keys: Sequence, what: str, *, path=None, lines: Sequence[int] | None = None
               ) -> dict:
    """Each key of `keys` mapped to its position.

    Raises ValidationError "duplicate {what} {key!r}" for the first key
    seen twice. Given `lines`, the line number of each key, the message
    adds the line the key was first seen on, and the error names `path`
    and the line of the repeat.
    """
    index = {key: pos for pos, key in enumerate(keys)}
    if len(index) == len(keys):
        return index
    first: dict = {}
    for pos, key in enumerate(keys):
        if first.setdefault(key, pos) != pos:
            break
    message = f"duplicate {what} {key!r}"
    if lines is None:
        raise ValidationError(message, path=path)
    raise ValidationError(
        f"{message} (first seen on line {lines[first[key]]})", path=path, line=lines[pos]
    )


# Undecodable bytes, read with errors="surrogateescape", and JSON escapes
# such as "\ud800" both give lone surrogates, which no UTF-8 output can hold.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _is_text(value) -> bool:
    return isinstance(value, str) and (value.isascii() or not _SURROGATE.search(value))


def _is_text_list(value) -> bool:
    try:
        joined = "".join(value) if isinstance(value, list) else None
    except TypeError:  # an entry that is not a string
        return False
    return _is_text(joined)


# A WordNet noun id: "n" and 8 ASCII digits. The taxonomy checks its wnids
# with it too, so a wnid can never break a CSV row.
WNID_RE = re.compile("n[0-9]{8}")
_WNIDS_JOINED = re.compile("n[0-9]{8}(?: n[0-9]{8})*")


def _is_wnid(value) -> bool:
    return isinstance(value, str) and WNID_RE.fullmatch(value) is not None


def _is_wnid_list(value) -> bool:
    # One match over the entries joined by spaces. The length rules out an
    # entry that holds a space: k wnids joined take exactly 10k - 1 chars.
    if not isinstance(value, list) or not value:
        return isinstance(value, list)
    try:
        joined = " ".join(value)
    except TypeError:  # an entry that is not a string
        return False
    return len(joined) == 10 * len(value) - 1 and _WNIDS_JOINED.fullmatch(joined) is not None


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _all_finite(values: list) -> bool:
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an integer too large for a float
        return False


# Field kinds `read_jsonl` checks, as (the types a value may have, a check
# of the whole column once its types are right, the check of one value,
# how an error names the kind). The column check holds iff every value
# passes the one-value check; the latter only runs to find the first bad
# row. "any" takes every value and leaves the check to the caller. A str
# column is checked value by value, all-ASCII first, and never joined:
# joining would hold a chunk's texts twice.
_KINDS = {
    str: ({str}, lambda col: all(map(str.isascii, col)) or all(map(_is_text, col)), _is_text,
          "a Unicode string"),
    list: ({list}, lambda col: _is_text_list(list(chain.from_iterable(col))), _is_text_list,
           "a list of Unicode strings"),
    float: ({int, float}, _all_finite, _is_finite_number, "a finite number"),
    bool: ({bool}, None, lambda value: isinstance(value, bool), "a JSON boolean"),
    "bool or null": ({bool, type(None)}, None,
                     lambda value: value is None or isinstance(value, bool),
                     "a JSON boolean or null"),
    "wnid": ({str}, _is_wnid_list, _is_wnid, "a wnid ('n' and 8 digits)"),
    "wnid list": ({list}, lambda col: _is_wnid_list(list(chain.from_iterable(col))),
                  _is_wnid_list, "a list of wnids ('n' and 8 digits)"),
    "any": (None, None, lambda value: True, "any JSON value"),
}


class _Absent:
    """The value of an optional field a row leaves out, until the column is
    checked."""


_ABSENT = _Absent()
_DECODE = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"  # the only whitespace JSON allows around a value


def _loads(text: str, path, lineno: int):
    """`text` parsed by `json.loads`, or FormatError with its reason."""
    if not text.isascii() and _SURROGATE.search(text):
        raise FormatError("not UTF-8", path=path, line=lineno)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
        reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        raise FormatError(f"invalid JSON ({reason})", path=path, line=lineno) from None


def _json_lines(lines, path) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) for each non-blank line of `lines`, text
    decoded from UTF-8 with errors="surrogateescape".

    Each line is parsed by one `raw_decode` call on the line stripped of
    JSON whitespace. A line it does not parse whole, and that is not blank
    by `str.strip`, goes to `_loads`, whose FormatError names the line with
    the words `json.loads` gives.
    """
    for lineno, text in enumerate(lines, start=1):
        body = text.strip(_JSON_SPACE)
        if not body:
            continue
        if text.isascii() or not _SURROGATE.search(text):
            try:
                value, end = _DECODE(body)
            except (ValueError, RecursionError):
                pass
            else:
                if end == len(body):
                    yield lineno, value
                    continue
        if not text.strip():  # only whitespace JSON does not allow, such as U+00A0
            continue
        yield lineno, _loads(text, path, lineno)


def _bad_row(column: list, kind, required: bool) -> int | None:
    """The first row of `column` whose value is not of `kind` (a row that
    leaves out an optional field is never bad), or None."""
    types, column_ok, is_kind, _ = _KINDS[kind]
    if types is None:
        return None
    found = set(map(type, column))
    values = column
    if not required and _Absent in found:
        found.discard(_Absent)
        values = [value for value in column if value is not _ABSENT]
    if found <= types and (column_ok is None or not values or column_ok(values)):
        return None
    for row, value in enumerate(column):
        if not (is_kind(value) or (value is _ABSENT and not required)):
            return row
    return None


def _first_fault(columns, checks, lines, path) -> FormatError | None:
    """The fault of the earliest bad row in `columns`, by line and then by
    field order, as a FormatError; None if every value has its kind."""
    first = None
    for name, kind, required in checks:
        row = _bad_row(columns[name], kind, required)
        if row is not None and (first is None or row < first[0]):
            first = (row, name, kind)
    if first is None:
        return None
    row, name, kind = first
    return FormatError(
        f"field {name!r} must be {_KINDS[kind][3]}, got {reprlib.repr(columns[name][row])}",
        path=path,
        line=lines[row],
    )


def _jsonl_chunks(path: Path, fields: Mapping[str, object], optional: Mapping[str, object]
                  ) -> Iterator[tuple[list[int], dict[str, list]]]:
    """(line numbers, columns) of consecutive chunks of up to _JSONL_ROWS
    rows of a JSONL file, read and checked as `read_jsonl` describes. Each
    chunk's kinds are checked as soon as it has parsed, and a parse fault
    reports a kind fault on an earlier row of its chunk first; the earlier
    chunks are clean, so the fault raised is the first by line."""
    checks = [(name, kind, True) for name, kind in fields.items()]
    checks += [(name, kind, False) for name, kind in optional.items()]
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        rows = _json_lines(fh, path)
        while True:
            lines: list[int] = []
            columns: dict[str, list] = {name: [] for name, _, _ in checks}
            required_appends = [(name, columns[name].append) for name in fields]
            optional_appends = [(name, columns[name].append) for name in optional]
            try:
                for lineno, row in islice(rows, _JSONL_ROWS):
                    if not isinstance(row, dict):
                        raise FormatError("expected a JSON object", path=path, line=lineno)
                    lines.append(lineno)
                    try:
                        for name, append in required_appends:
                            append(row[name])
                    except KeyError as exc:  # the fields before it are in the columns
                        message = f"missing field {exc.args[0]!r}"
                        raise FormatError(message, path=path, line=lineno) from None
                    for name, append in optional_appends:
                        append(row.get(name, _ABSENT))
            except FormatError as fault:  # a kind fault among the rows read so far comes first
                raise _first_fault(columns, checks, lines, path) or fault from None
            if fault := _first_fault(columns, checks, lines, path):
                raise fault
            for name in optional:
                if _ABSENT in columns[name]:
                    columns[name] = [None if value is _ABSENT else value for value in columns[name]]
            if lines:
                yield lines, columns
            if len(lines) < _JSONL_ROWS:
                return


def read_jsonl(
    path, fields: Mapping[str, object], optional: Mapping[str, object] | None = None
) -> tuple[list[int], dict[str, list]]:
    """The non-blank lines of a JSONL file, as columns: (line numbers, one
    list per field named in `fields` or `optional`, in row order).

    Every row must be a JSON object holding each field named in `fields`,
    and may hold those named in `optional`, each with a value of its kind:
    `str` a string of valid Unicode (no lone surrogate), `list` a list of
    such strings, `float` a finite number, `bool` a JSON boolean, "bool or
    null" a JSON boolean or null, "wnid" a string of "n" and 8 digits,
    "wnid list" a list of those, and "any" any value. An optional field a
    row leaves out reads as None. Raises FormatError with the path and line
    of the first faulty line, for bad UTF-8, bad JSON, a row that is not an
    object, a missing required field and a field of the wrong kind; faults
    on one line are reported in that order, and fields in the order given.
    The file is streamed in chunks of _JSONL_ROWS rows; kinds are checked
    once per chunk, as soon as it has parsed.
    """
    optional = optional or {}
    lines: list[int] = []
    columns: dict[str, list] = {name: [] for name in chain(fields, optional)}
    for chunk_lines, chunk in _jsonl_chunks(Path(path), fields, optional):
        lines += chunk_lines
        for name, column in chunk.items():
            columns[name] += column
    return lines, columns


# A corpus row's fields beside its id and text, and the types its `meta` may have.
_CAPTION_FLAGS = {"nsfw": bool, "text_in_image": "bool or null", "meta": "any"}
_META_TYPES = {dict, type(None)}


def caption_chunks(path) -> Iterator[Captions]:
    """The rows of a JSONL corpus file as `Captions`, one per chunk of
    _JSONL_ROWS rows, each checked once it has parsed.

    Only the ids, and the line numbers, of the chunks passed on are held.
    Once the last chunk is read, a `meta` that is neither an object nor
    null is reported with its line, then a duplicate id with both its
    lines; `meta` itself is never kept.
    """
    # imported here: loading its extension module raised the peak RSS
    # of each `diagnose` stage, which reads no corpus, by 0.1 MiB
    from array import array

    path = Path(path)
    ids: list[str] = []
    lines = array("l")  # each id's line, for a duplicate's error: 8 bytes a row
    bad_meta = None  # the line of the first `meta` that is neither an object nor null
    for chunk_lines, columns in _jsonl_chunks(path, {"id": str, "text": str}, _CAPTION_FLAGS):
        metas = columns.pop("meta")
        if bad_meta is None and not set(map(type, metas)) <= _META_TYPES:
            bad_meta = next(line for line, meta in zip(chunk_lines, metas)
                            if type(meta) not in _META_TYPES)
        ids += columns["id"]
        lines.extend(chunk_lines)
        captions = Captions(columns["id"], columns["text"],
                            [value is True for value in columns["nsfw"]],
                            columns["text_in_image"])
        del chunk_lines, columns, metas  # the chunk is held by `captions` alone,
        yield captions
        del captions  # and freed before the next is parsed
    if bad_meta is not None:
        raise FormatError("field 'meta' must be an object", path=path, line=bad_meta)
    index_keys(ids, "instance id", path=path, lines=lines)


def load_corpus(path, keep=None) -> dict[str, tuple[bool, bool | None]]:
    """Each id of a JSONL corpus file mapped to its (NSFW, text-in-image)
    flags, in file order, read through `caption_chunks`; no text is held.

    With `keep`, a collection of ids, only the ids in `keep` are kept; an
    id the file lacks is passed over. Every row is checked, kept or not, so
    a fault raises as it would without `keep`.
    """
    flags: dict[str, tuple[bool, bool | None]] = {}
    for captions in caption_chunks(path):
        rows = zip(captions.ids, zip(captions.nsfw, captions.text_in_image))
        del captions  # its texts are freed before the next chunk is parsed
        flags.update(rows if keep is None else (row for row in rows if row[0] in keep))
    return flags


def _check_step(dim: int) -> int:
    """Rows per chunk of the value check and of a chunked read: about
    _CHECK_VALUES values."""
    return max(1, _CHECK_VALUES // max(dim, 1))


def _checked(chunks, ids: Sequence[str], path=None) -> Iterator[tuple[int, np.ndarray]]:
    """Each (lo, rows) of `chunks`, rows lo, lo + 1, ... of a matrix whose
    row ids are `ids`, once its values are checked.

    Raises ValidationError, naming `path`, at the first row with a
    non-finite value, and, once every chunk is checked and all are finite,
    for the first all-zero row: a non-finite row anywhere is reported
    before an all-zero one. From the chunk that holds an all-zero row on,
    chunks are checked but not passed on.
    """
    import numpy as np

    zero = None
    for lo, rows in chunks:
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            bad = lo + int(np.argmin(finite))
            raise ValidationError(f"non-finite values in row for id {ids[bad]!r}", path=path)
        if zero is None:
            empty = ~rows.any(axis=1)
            if empty.any():
                zero = lo + int(np.argmax(empty))
            else:
                yield lo, rows
    if zero is not None:
        raise ValidationError(f"all-zero vector for id {ids[zero]!r}", path=path)


class _IdRows:
    """Rows found by id: `_index_of(ids)` maps each of `ids` that has a row
    to that row."""

    ids: list[str]

    def rows_of(self, ids: Sequence[str]) -> np.ndarray:
        """The row of each of `ids`, in order, as an intp array; -1 for an
        id with no row."""
        import numpy as np

        index = self._index_of(ids)
        return np.fromiter((index.get(rid, -1) for rid in ids), np.intp, len(ids))

    def positions(self, ids: Sequence[str], role: str) -> list[int]:
        """The row of each of `ids`, in order. Raises MissingKeyError for
        the first id that has no row, naming its `role`."""
        index = self._index_of(ids)
        try:
            return [index[rid] for rid in ids]
        except KeyError as exc:
            raise MissingKeyError(f"missing {role} embedding for id {exc.args[0]!r}") from None


@dataclass
class EmbeddingMatrix(_IdRows):
    """Dense float32 vectors keyed by id; rows align 1:1 with ids. `path`,
    the file the rows were read from, if any, is named in errors about
    them."""

    rows: np.ndarray  # (count, dim) float32
    ids: list[str]
    path: Path | None = field(default=None, repr=False, compare=False)
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        import numpy as np

        rows = np.ascontiguousarray(self.rows, dtype=np.float32)
        if rows.ndim != 2:
            raise ValidationError(f"rows must be 2-D, got shape {rows.shape}", path=self.path)
        self.rows = rows
        if len(self.ids) != rows.shape[0]:
            raise ValidationError(
                f"{len(self.ids)} ids for {rows.shape[0]} rows; they must align 1:1",
                path=self.path,
            )
        self.index = index_keys(self.ids, "embedding id", path=self.path)
        for _ in _checked(self.chunks(_check_step(self.dim)), self.ids, self.path):
            pass

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])

    @property
    def count(self) -> int:
        return int(self.rows.shape[0])

    @classmethod
    def _prechecked(cls, rows: np.ndarray, ids: list[str], path) -> EmbeddingMatrix:
        """A matrix of float32 `rows` and of distinct `ids`, made without
        the checks of `__post_init__`: the caller makes them, so that each
        row is checked and each id checked for repeats once."""
        matrix = object.__new__(cls)
        matrix.rows, matrix.ids, matrix.path = rows, ids, path
        matrix.index = {rid: row for row, rid in enumerate(ids)}
        return matrix

    def _index_of(self, ids: Iterable[str]) -> dict[str, int]:
        return self.index

    def chunks(self, rows: int) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, rows lo .. lo + `rows` - 1) for consecutive chunks of the
        matrix, as views."""
        for lo in range(0, self.count, rows):
            yield lo, self.rows[lo : lo + rows]


def _truncated(count: int, dim: int, got: int, path) -> FormatError:
    return FormatError(
        f"payload truncated: expected {count * dim * 4} bytes for {count}x{dim} float32, "
        f"got {got}",
        path=path,
    )


def _read_layout(fh, path) -> tuple[int, list[str]]:
    """The dim and the row ids of the open embedding file `fh`: checks the
    header, the payload's size against the file's, and the id trailer,
    which it reads whole. Leaves `fh` at the payload's first byte."""
    header = fh.read(_HEADER_SIZE)
    if len(header) < _HEADER_SIZE or header[:4] != EMBEDDING_MAGIC:
        raise FormatError(f"bad magic: expected {EMBEDDING_MAGIC!r}, got {header[:4]!r}", path=path)
    _, dim, count = _HEADER.unpack(header)
    if dim == 0:
        raise FormatError("header declares dim = 0", path=path)
    payload_size = count * dim * 4
    available = os.fstat(fh.fileno()).st_size - _HEADER_SIZE
    if payload_size > available:
        raise _truncated(count, dim, max(available, 0), path)
    fh.seek(_HEADER_SIZE + payload_size)
    trailer = fh.read()
    fh.seek(_HEADER_SIZE)
    ids: list[str] = []
    trailer_lines = trailer.decode("utf-8", "surrogateescape").split("\n")
    for lineno, rid in _json_lines(trailer_lines, path):  # numbered from the trailer's start
        if not isinstance(rid, str):
            raise FormatError(f"id trailer entry {lineno} is not a string", path=path)
        ids.append(rid)
    if len(ids) != count:
        raise FormatError(
            f"id trailer has {len(ids)} entries but header declares {count} rows", path=path
        )
    return dim, ids


def _read_rows(fh, path, count: int, dim: int, step: int, out: np.ndarray | None = None
               ) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, rows lo .. lo + `step` - 1) of the payload at `fh`'s position,
    unchecked, each read with `readinto`: into those rows of `out`, a
    (count, dim) float32 array, or, without `out`, into one reused buffer
    that holds it until the next chunk is read."""
    import numpy as np

    buffer = np.empty((min(step, count), dim), dtype=_F32LE) if out is None else None
    got = 0
    for lo in range(0, count, step):
        chunk = buffer[: count - lo] if out is None else out[lo : lo + step]
        got += fh.readinto(memoryview(chunk.reshape(-1)).cast("B"))
        if got != (lo + len(chunk)) * dim * 4:
            raise _truncated(count, dim, got, path)
        yield lo, chunk


class EmbeddingFile(_IdRows):
    """The one reader that turns an embedding file into rows.

    On construction its header and id trailer are read and checked, and its
    ids checked for repeats, so a header or trailer fault or a duplicate id
    is raised then, naming the file. It keeps no index of its ids: each
    lookup by id scans them for the ids it asks for, and drops what it
    built on return. `chunks` scans the rows and `load` copies out those a
    stage keeps, both a checked chunk at a time, never re-reading the
    header or the trailer. It has the `path`, `dim`, `count`, `ids`,
    `rows_of`, `positions` and `chunks` of an `EmbeddingMatrix`, which is
    all `vectorops.cosine_blocks`, `nearest_rows` and
    `curator.score_candidates` read, so it can be scanned in a matrix's
    place.
    """

    def __init__(self, path):
        self.path = Path(path)
        with self.path.open("rb") as fh:
            self.dim, self.ids = _read_layout(fh, self.path)
        index_keys(self.ids, "embedding id", path=self.path)  # raises at a repeat; not kept

    def _index_of(self, ids: Iterable[str]) -> dict[str, int]:
        """The row of each of `ids` that the file holds, in file order: a
        dict of the asked-for ids alone."""
        wanted = set(ids)
        return {rid: row for row, rid in enumerate(self.ids) if rid in wanted}

    @property
    def count(self) -> int:
        return len(self.ids)

    def chunks(self, rows: int) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, rows lo .. lo + `rows` - 1) for consecutive chunks of the
        file's rows, each checked as `EmbeddingMatrix` checks its rows, so
        a fault raises once the chunk that shows it is read (an all-zero
        row only once every row is read). A chunk is a reused buffer, valid
        until the next is read. The file is open only while the chunks are
        read, and is closed when they end, raise or are abandoned."""
        with self.path.open("rb") as fh:
            fh.seek(_HEADER_SIZE)
            yield from _checked(_read_rows(fh, self.path, self.count, self.dim, rows),
                                self.ids, self.path)

    def load(self, keep=None) -> EmbeddingMatrix:
        """The file's rows as an `EmbeddingMatrix`, every value checked;
        faults raise naming the file.

        With `keep`, a collection of ids, only the rows whose id is in
        `keep` are kept, in file order, copied out of `chunks`; an id the
        file lacks is passed over. Without `keep`, or when it names every
        id, each chunk of about _CHECK_VALUES values is read straight into
        its own rows of the returned array, so a whole load costs one copy
        of the payload, plus the file's ids and the matrix's index.
        """
        import numpy as np

        step = _check_step(self.dim)
        kept = None if keep is None else self._index_of(keep)  # None for every row
        if kept is None or len(kept) == self.count:
            rows = np.empty((self.count, self.dim), dtype=_F32LE)
            with self.path.open("rb") as fh:
                fh.seek(_HEADER_SIZE)
                for _ in _checked(_read_rows(fh, self.path, self.count, self.dim, step, rows),
                                  self.ids, self.path):
                    pass
            return EmbeddingMatrix._prechecked(rows, self.ids, self.path)
        wanted = np.fromiter(kept.values(), np.intp, len(kept))  # the rows to keep, ascending
        rows = np.empty((len(wanted), self.dim), dtype=_F32LE)
        for lo, chunk in self.chunks(step):
            first, end = np.searchsorted(wanted, (lo, lo + len(chunk)))
            np.take(chunk, wanted[first:end] - lo, axis=0, out=rows[first:end])
        return EmbeddingMatrix._prechecked(rows, list(kept), self.path)


def load_embeddings(path, keep=None) -> EmbeddingMatrix:
    """The rows of the embedding file at `path`: `EmbeddingFile(path).load(keep)`."""
    return EmbeddingFile(path).load(keep)


def write_embeddings(matrix: EmbeddingMatrix, path) -> None:
    """Write the binary embedding format; load(write(m)) is bit-exact."""
    import numpy as np

    path = Path(path)
    buf = io.BytesIO()
    buf.write(_HEADER.pack(EMBEDDING_MAGIC, matrix.dim, matrix.count))
    buf.write(np.ascontiguousarray(matrix.rows, dtype=_F32LE).tobytes())
    for rid in matrix.ids:
        buf.write(json.dumps(rid, ensure_ascii=False).encode("utf-8"))
        buf.write(b"\n")
    path.write_bytes(buf.getvalue())
