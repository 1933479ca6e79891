"""Caption corpora and embedding matrices, with bit-exact file formats.

Corpus files are JSONL, one record per line:

    {"id": str, "text": str, "nsfw": bool, "text_in_image": bool|null,
     "meta": {str: str, ...}}

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
candidate, prediction and pair loaders all read through it.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import reprlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import FormatError, MissingKeyError, ValidationError

EMBEDDING_MAGIC = b"EMB1"
_HEADER_SIZE = 4 + 4 + 8  # magic + u32 dim + u64 count
_F32LE = np.dtype("<f4")


@dataclass(frozen=True)
class InstanceRecord:
    """One corpus item: caption text plus ingested safety/OCR flags."""

    id: str
    text: str
    nsfw: bool = False
    text_in_image: bool | None = None
    meta: Mapping[str, str] = field(default_factory=dict)


@dataclass
class Corpus:
    """Ordered, uniquely-keyed caption records; immutable after load."""

    records: list[InstanceRecord]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        index: dict[str, int] = {}
        for pos, record in enumerate(self.records):
            if record.id in index:
                raise ValidationError(f"duplicate instance id {record.id!r}")
            index[record.id] = pos
        self.index = index

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[InstanceRecord]:
        return iter(self.records)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self.index

    def get(self, instance_id: str) -> InstanceRecord:
        try:
            return self.records[self.index[instance_id]]
        except KeyError:
            raise MissingKeyError(f"unknown instance id {instance_id!r}") from None


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


# Field kinds `read_jsonl` checks, and how an error names them.
_KINDS = {
    str: (_is_text, "a Unicode string"),
    list: (_is_text_list, "a list of Unicode strings"),
    float: (_is_finite_number, "a finite number"),
    bool: (lambda value: isinstance(value, bool), "a JSON boolean"),
    "bool or null": (lambda value: value is None or isinstance(value, bool),
                     "a JSON boolean or null"),
    "wnid": (_is_wnid, "a wnid ('n' and 8 digits)"),
    "wnid list": (_is_wnid_list, "a list of wnids ('n' and 8 digits)"),
}


def _json_lines(lines, path, checks=None) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) for each non-blank line of `lines`, text
    decoded from UTF-8 with errors="surrogateescape". With `checks`, each
    value must be an object with those (name, predicate, kind, required)
    fields; a field that is not required may be absent."""
    for lineno, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        if not text.isascii() and _SURROGATE.search(text):
            raise FormatError("not UTF-8", path=path, line=lineno)
        try:
            value = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
            reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            raise FormatError(f"invalid JSON ({reason})", path=path, line=lineno) from None
        if checks is not None:
            if not isinstance(value, dict):
                raise FormatError("expected a JSON object", path=path, line=lineno)
            for name, is_kind, kind, required in checks:
                if name not in value:
                    if not required:
                        continue
                    raise FormatError(f"missing field {name!r}", path=path, line=lineno)
                if not is_kind(value[name]):
                    raise FormatError(
                        f"field {name!r} must be {kind}, got {reprlib.repr(value[name])}",
                        path=path,
                        line=lineno,
                    )
        yield lineno, value


def read_jsonl(
    path, fields: Mapping[str, object], optional: Mapping[str, object] | None = None
) -> Iterator[tuple[int, dict]]:
    """Yield (line number, row) for each non-blank line of a JSONL file.

    Every row must be a JSON object holding each field named in `fields`,
    and may hold those named in `optional`, each with a value of its kind:
    `str` a string of valid Unicode (no lone surrogate), `list` a list of
    such strings, `float` a finite number, `bool` a JSON boolean, "bool or
    null" a JSON boolean or null, "wnid" a string of "n" and 8 digits, and
    "wnid list" a list of those. Raises FormatError with the path and line
    for bad UTF-8, bad JSON, a row that is not an object, a missing
    required field and a field of the wrong kind.
    """
    path = Path(path)
    checks = [(name, *_KINDS[kind], True) for name, kind in fields.items()]
    checks += [(name, *_KINDS[kind], False) for name, kind in (optional or {}).items()]
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        yield from _json_lines(fh, path, checks)


def load_corpus(path) -> Corpus:
    """Stream-load a JSONL corpus, rejecting duplicate ids with line numbers."""
    path = Path(path)
    records: list[InstanceRecord] = []
    seen: dict[str, int] = {}
    flags = {"nsfw": bool, "text_in_image": "bool or null"}
    for lineno, row in read_jsonl(path, {"id": str, "text": str}, optional=flags):
        rid = row["id"]
        if rid in seen:
            raise ValidationError(
                f"duplicate instance id {rid!r} (first seen on line {seen[rid]})",
                path=path,
                line=lineno,
            )
        seen[rid] = lineno
        meta = row.get("meta") or {}
        if not isinstance(meta, dict):
            raise FormatError("field 'meta' must be an object", path=path, line=lineno)
        records.append(
            InstanceRecord(
                id=rid,
                text=row["text"],
                nsfw=row.get("nsfw", False),
                text_in_image=row.get("text_in_image"),
                meta=dict(meta),
            )
        )
    return Corpus(records)


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus to JSONL with a fixed key order (byte-reproducible)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for r in corpus:
            row = {
                "id": r.id,
                "text": r.text,
                "nsfw": r.nsfw,
                "text_in_image": r.text_in_image,
                "meta": dict(r.meta),
            }
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")


@dataclass
class EmbeddingMatrix:
    """Dense float32 vectors keyed by id; rows align 1:1 with ids."""

    rows: np.ndarray  # (count, dim) float32
    ids: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.float32)
        if rows.ndim != 2:
            raise ValidationError(f"rows must be 2-D, got shape {rows.shape}")
        self.rows = rows
        if len(self.ids) != rows.shape[0]:
            raise ValidationError(
                f"{len(self.ids)} ids for {rows.shape[0]} rows; they must align 1:1"
            )
        index: dict[str, int] = {}
        for pos, rid in enumerate(self.ids):
            if rid in index:
                raise ValidationError(f"duplicate embedding id {rid!r}")
            index[rid] = pos
        self.index = index
        if not np.isfinite(rows).all():
            bad = int(np.argwhere(~np.isfinite(rows).all(axis=1))[0][0])
            raise ValidationError(f"non-finite values in row for id {self.ids[bad]!r}")
        if rows.shape[0]:
            zero = ~rows.any(axis=1)
            if zero.any():
                bad = int(np.argmax(zero))
                raise ValidationError(f"all-zero vector for id {self.ids[bad]!r}")

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])

    @property
    def count(self) -> int:
        return int(self.rows.shape[0])

    def __contains__(self, rid: str) -> bool:
        return rid in self.index


def load_embeddings(path) -> EmbeddingMatrix:
    """Load the binary embedding format, validating header arithmetic."""
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.read(_HEADER_SIZE)
        if len(header) < _HEADER_SIZE or header[:4] != EMBEDDING_MAGIC:
            raise FormatError(
                f"bad magic: expected {EMBEDDING_MAGIC!r}, got {header[:4]!r}", path=path
            )
        dim = int(np.frombuffer(header, dtype="<u4", count=1, offset=4)[0])
        count = int(np.frombuffer(header, dtype="<u8", count=1, offset=8)[0])
        if dim == 0:
            raise FormatError("header declares dim = 0", path=path)
        payload_size = count * dim * 4
        available = os.fstat(fh.fileno()).st_size - _HEADER_SIZE
        if payload_size > available:
            raise FormatError(
                f"payload truncated: expected {payload_size} bytes for "
                f"{count}x{dim} float32, got {max(available, 0)}",
                path=path,
            )
        payload = fh.read(payload_size)
        trailer = fh.read()
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
    rows = np.frombuffer(payload, dtype=_F32LE).astype(np.float32).reshape(count, dim)
    return EmbeddingMatrix(rows=rows, ids=ids)


def write_embeddings(matrix: EmbeddingMatrix, path) -> None:
    """Write the binary embedding format; load(write(m)) is bit-exact."""
    path = Path(path)
    buf = io.BytesIO()
    buf.write(EMBEDDING_MAGIC)
    buf.write(np.uint32(matrix.dim).astype("<u4").tobytes())
    buf.write(np.uint64(matrix.count).astype("<u8").tobytes())
    buf.write(np.ascontiguousarray(matrix.rows, dtype=_F32LE).tobytes())
    for rid in matrix.ids:
        buf.write(json.dumps(rid, ensure_ascii=False).encode("utf-8"))
        buf.write(b"\n")
    path.write_bytes(buf.getvalue())
