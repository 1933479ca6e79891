"""Synset taxonomy: parsing, validation, and lemma normalization.

A taxonomy is a JSONL file, one synset per line:

    {"wnid": "n02125494", "lemmas": ["cougar", "puma"],
     "name": "cougar", "gloss": "large American feline resembling lion"}

Synsets are the classes of the curation pipeline. Each synset's query text
is its name and gloss joined by ": ", and its lemmas are the surface terms
searched for in captions (multiword lemmas use underscores in the source
data and spaces after normalization).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .corpus import WNID_RE, read_jsonl
from .errors import ValidationError


@dataclass(frozen=True)
class Synset:
    """One class: a WordNet-style id, its surface terms, name, and gloss."""

    wnid: str
    lemmas: tuple[str, ...]
    name: str
    gloss: str

    def __post_init__(self):
        if not WNID_RE.fullmatch(self.wnid):
            raise ValidationError(f"bad wnid {self.wnid!r}: expected 'n' + 8 digits")
        if not self.lemmas:
            raise ValidationError(f"synset {self.wnid}: lemmas list is empty")
        for lemma in self.lemmas:
            if not lemma.strip():
                raise ValidationError(f"synset {self.wnid}: empty lemma")


@dataclass
class Taxonomy:
    """Ordered, uniquely-keyed collection of synsets.

    Immutable after construction; safe for concurrent readers. Iteration
    order is the input order.
    """

    synsets: list[Synset]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        index: dict[str, int] = {}
        for pos, synset in enumerate(self.synsets):
            if synset.wnid in index:
                raise ValidationError(f"duplicate wnid {synset.wnid}")
            index[synset.wnid] = pos
        self.index = index

    def __len__(self) -> int:
        return len(self.synsets)

    def __iter__(self) -> Iterator[Synset]:
        return iter(self.synsets)

    def __contains__(self, wnid: str) -> bool:
        return wnid in self.index

    def get(self, wnid: str) -> Synset:
        return self.synsets[self.index[wnid]]

    def __eq__(self, other) -> bool:
        return isinstance(other, Taxonomy) and self.synsets == other.synsets


def load_taxonomy(path) -> Taxonomy:
    """Load and validate a JSONL taxonomy file.

    Raises FormatError (with line number) on unparseable rows and
    ValidationError on duplicate wnids or malformed synsets.
    """
    path = Path(path)
    fields = {"wnid": "wnid", "lemmas": list, "name": str, "gloss": str}
    lines, columns = read_jsonl(path, fields)
    synsets: list[Synset] = []
    seen: dict[str, int] = {}
    rows = zip(lines, columns["wnid"], columns["lemmas"], columns["name"], columns["gloss"])
    for lineno, wnid, lemmas, name, gloss in rows:
        if wnid in seen:
            raise ValidationError(
                f"duplicate wnid {wnid} (first seen on line {seen[wnid]})",
                path=path,
                line=lineno,
            )
        try:
            synset = Synset(wnid=wnid, lemmas=tuple(lemmas), name=name, gloss=gloss)
        except ValidationError as exc:
            raise ValidationError(str(exc), path=path, line=lineno) from exc
        seen[wnid] = lineno
        synsets.append(synset)
    return Taxonomy(synsets)


def save_taxonomy(taxonomy: Taxonomy, path) -> None:
    """Write a taxonomy back to JSONL (UTF-8, LF, fixed key order)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for s in taxonomy:
            row = {"wnid": s.wnid, "lemmas": list(s.lemmas), "name": s.name, "gloss": s.gloss}
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")


def fold_text(text: str) -> str:
    """Shared normalization: lowercase, underscores to spaces, collapse runs
    of whitespace to single spaces, strip the ends.

    Lowercasing is Unicode simple case mapping (str.lower), which is the
    identity on already-lowercase ASCII.
    """
    folded = text.lower().replace("_", " ")
    return " ".join(folded.split())


def normalize_lemma(lemma: str) -> str:
    """Normalize a lemma into the pattern form used for caption matching.

    Idempotent. Raises ValidationError if the lemma is empty or reduces to
    the empty string.
    """
    if not lemma or not lemma.strip():
        raise ValidationError("empty lemma")
    normalized = fold_text(lemma)
    if not normalized:
        raise ValidationError(f"lemma {lemma!r} is empty after normalization")
    return normalized
