"""The taxonomy of synsets: parsing, validation, and text folding.

A taxonomy is a JSONL file, one synset per line:

    {"wnid": "n02125494", "lemmas": ["cougar", "puma"],
     "name": "cougar", "gloss": "large American feline resembling lion"}

The synsets are the classes of the curation pipeline. Each synset's query
text is its name and gloss joined by ": ", and its lemmas are the surface
terms searched for in captions (multiword lemmas use underscores in the
source data and spaces once folded by `fold_text`). A lemma that
`fold_text` reduces to nothing, such as "_", is refused by the loader with
its line, whichever lemmas the matcher would use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import index_keys, read_jsonl
from .errors import ValidationError


@dataclass(frozen=True)
class Taxonomy:
    """A taxonomy's synsets as columns, in file order.

    Row i is the synset `wnids[i]`, with its surface terms `lemmas[i]`, its
    name `names[i]` and its gloss `glosses[i]`.
    """

    wnids: list[str]
    lemmas: list[list[str]]
    names: list[str]
    glosses: list[str]

    def __len__(self) -> int:
        return len(self.wnids)


def load_taxonomy(path) -> Taxonomy:
    """Load and validate a JSONL taxonomy file.

    Raises FormatError (with line number) on unparseable rows and
    ValidationError on duplicate wnids, then, row by row, on an empty
    lemmas list or a lemma that folds to nothing.
    """
    path = Path(path)
    fields = {"wnid": "wnid", "lemmas": list, "name": str, "gloss": str}
    lines, columns = read_jsonl(path, fields)
    index_keys(columns["wnid"], "wnid", path=path, lines=lines)
    for lineno, wnid, lemmas in zip(lines, columns["wnid"], columns["lemmas"]):
        if not lemmas:
            raise ValidationError(f"synset {wnid}: lemmas list is empty", path=path, line=lineno)
        for lemma in lemmas:
            if not fold_text(lemma):  # only whitespace and underscores
                raise ValidationError(f"synset {wnid}: empty lemma", path=path, line=lineno)
    return Taxonomy(columns["wnid"], columns["lemmas"], columns["name"], columns["gloss"])


def fold_text(text: str) -> str:
    """Shared normalization: lowercase, underscores to spaces, collapse runs
    of whitespace to single spaces, strip the ends.

    Lowercasing is Unicode simple case mapping (str.lower), which is the
    identity on already-lowercase ASCII.
    """
    folded = text.lower().replace("_", " ")
    return " ".join(folded.split())
