"""Synset taxonomy: parsing, validation, and lemma normalization.

A taxonomy is a JSONL file, one synset per line:

    {"wnid": "n02125494", "lemmas": ["cougar", "puma"],
     "name": "cougar", "gloss": "large American feline resembling lion"}

Synsets are the classes of the curation pipeline. Each synset's query text
is its name and gloss joined by ": ", and its lemmas are the surface terms
searched for in captions (multiword lemmas use underscores in the source
data and spaces after normalization). A lemma that `fold_text` reduces to
nothing, such as "_", is refused when its synset is made, so the loader
names its line whichever lemmas the matcher would use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .corpus import WNID_RE, index_keys, read_jsonl
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
            if not fold_text(lemma):  # only whitespace and underscores
                raise ValidationError(f"synset {self.wnid}: empty lemma")


@dataclass
class Taxonomy:
    """Ordered, uniquely-keyed collection of synsets.

    Immutable after construction; safe for concurrent readers. Iteration
    order is the input order. `index` maps each wnid to its synset's
    position; it is built from the synsets unless given, as `load_taxonomy`
    gives the one it built while checking the file.
    """

    synsets: list[Synset]
    index: dict[str, int] | None = None

    def __post_init__(self):
        if self.index is None:
            self.index = index_keys([synset.wnid for synset in self.synsets], "wnid")

    def __len__(self) -> int:
        return len(self.synsets)

    def __iter__(self) -> Iterator[Synset]:
        return iter(self.synsets)


def load_taxonomy(path) -> Taxonomy:
    """Load and validate a JSONL taxonomy file.

    Raises FormatError (with line number) on unparseable rows and
    ValidationError on duplicate wnids, then on malformed synsets.
    """
    path = Path(path)
    fields = {"wnid": "wnid", "lemmas": list, "name": str, "gloss": str}
    lines, columns = read_jsonl(path, fields)
    index = index_keys(columns["wnid"], "wnid", path=path, lines=lines)
    synsets: list[Synset] = []
    rows = zip(lines, columns["wnid"], columns["lemmas"], columns["name"], columns["gloss"])
    for lineno, wnid, lemmas, name, gloss in rows:
        try:
            synsets.append(Synset(wnid=wnid, lemmas=tuple(lemmas), name=name, gloss=gloss))
        except ValidationError as exc:
            raise ValidationError(str(exc), path=path, line=lineno) from exc
    return Taxonomy(synsets, index=index)


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

    Idempotent. Raises ValidationError if the lemma reduces to the empty
    string.
    """
    normalized = fold_text(lemma)
    if not normalized:
        raise ValidationError(f"lemma {lemma!r} is empty after normalization")
    return normalized
