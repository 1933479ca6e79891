"""Multi-pattern lemma matching over caption corpora.

This is the first curation filter: find, for every caption, all synsets
with at least one lemma occurring in the caption as a whole token. Both
captions and lemmas pass through the same normalization,
`taxonomy.fold_text` (lowercase, underscores to spaces, whitespace
collapsed), and a hit is only valid at word boundaries: the characters
adjacent to the matched span must be absent or non-alphanumeric. Raw
substring matching would label "pumas" with the lemma "puma";
token-boundary semantics avoid that while keeping lemmas exact (no
stemming, no pluralization). Multiword lemmas match across single spaces
only, which normalization guarantees.

The scan uses the Aho-Corasick algorithm (1975): insert every folded
lemma into a trie, compute failure links breadth-first (each node's
failure link points to the node for the longest proper suffix of its path
that is also a prefix of some pattern), and propagate pattern outputs down
failure chains so every occurrence, including patterns that are suffixes
of other patterns, is reported in a single left-to-right pass. Matching
is O(caption length + hits) per caption independent of the pattern count,
which is what makes scanning millions of captions against thousands of
lemmas tractable. The scan is serial: it is pure Python and holds the
interpreter lock, so threads would not speed it up. Each node's outputs
are a tuple, and the nodes without any share the empty tuple.

`find_matches` returns `Matches`, the occurrences as five columns, with
no object per occurrence. `match` calls it once per chunk of
`corpus.caption_chunks`, so the stage holds the file's ids and the
matches, never the caption texts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator

from .corpus import Captions
from .errors import ValidationError
from .taxonomy import Taxonomy, fold_text


@dataclass(frozen=True)
class LemmaMatch:
    """One word-boundary occurrence of a lemma, tagged with its synset.

    `span` is a (start, end) character range into the folded caption
    (`fold_text(text)`); the folded caption sliced at `span` equals `lemma`.
    """

    instance_id: str
    wnid: str
    lemma: str
    span: tuple[int, int]


@dataclass
class Matches:
    """Lemma occurrences as columns: row i is the lemma `lemmas[i]` of
    synset `wnids[i]` at the span (`starts[i]`, `ends[i]`) of instance
    `ids[i]`'s folded caption.

    Its length is the number of rows. Iterating it yields each row as a
    `LemmaMatch`, made on demand; `+=` appends another `Matches`' rows.
    """

    ids: list[str] = field(default_factory=list)
    wnids: list[str] = field(default_factory=list)
    lemmas: list[str] = field(default_factory=list)
    starts: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[LemmaMatch]:
        for row in zip(self.ids, self.wnids, self.lemmas, zip(self.starts, self.ends)):
            yield LemmaMatch(*row)

    def __iadd__(self, other: Matches) -> Matches:
        self.ids += other.ids
        self.wnids += other.wnids
        self.lemmas += other.lemmas
        self.starts += other.starts
        self.ends += other.ends
        return self


class _Node:
    __slots__ = ("children", "fail", "out")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.fail: _Node | None = None
        self.out: tuple[str, ...] = ()


class Matcher:
    """Immutable Aho-Corasick automaton over a taxonomy's folded lemmas.

    A lemma may belong to several synsets; `wnids_for` keeps the full
    multimap so one textual hit can report every owning synset.
    """

    def __init__(self, root: _Node, wnids_for: dict[str, tuple[str, ...]]):
        self._root = root
        self.wnids_for = wnids_for

    def scan(self, text: str) -> list[tuple[int, int, str]]:
        """All occurrences of any pattern in `text` as (start, end, pattern),
        without boundary filtering."""
        hits: list[tuple[int, int, str]] = []
        node = self._root
        for pos, ch in enumerate(text):
            while node is not self._root and ch not in node.children:
                node = node.fail
            node = node.children.get(ch, self._root)
            for pattern in node.out:
                hits.append((pos + 1 - len(pattern), pos + 1, pattern))
        return hits


def build_matcher(taxonomy: Taxonomy, max_lemmas_per_synset: int | None = None) -> Matcher:
    """Build the automaton over all folded lemmas of `taxonomy`.

    `max_lemmas_per_synset` optionally restricts matching to each synset's
    first N lemmas (N=1 means the headword only); the default uses all.
    Raises ValidationError for N < 1, and for a lemma that folds to
    nothing, which `load_taxonomy` refuses but a `Taxonomy` made in memory
    may hold.
    """
    if max_lemmas_per_synset is not None and max_lemmas_per_synset < 1:
        raise ValidationError(f"max_lemmas_per_synset must be >= 1, got {max_lemmas_per_synset}")
    wnid_sets: dict[str, set[str]] = {}
    for wnid, lemmas in zip(taxonomy.wnids, taxonomy.lemmas):
        for lemma in lemmas[:max_lemmas_per_synset]:
            pattern = fold_text(lemma)
            if not pattern:
                raise ValidationError(f"synset {wnid}: empty lemma")
            wnid_sets.setdefault(pattern, set()).add(wnid)
    wnids_for = {p: tuple(sorted(s)) for p, s in wnid_sets.items()}

    root = _Node()
    for pattern in wnids_for:
        node = root
        for ch in pattern:
            if ch not in node.children:  # not setdefault, which makes a node every time
                node.children[ch] = _Node()
            node = node.children[ch]
        node.out = (pattern,)

    # Failure links, breadth-first; outputs propagate down failure chains so
    # patterns that are suffixes of longer ones are still reported. A node
    # without outputs shares the empty tuple of its class.
    root.fail = root
    queue: deque[_Node] = deque()
    for child in root.children.values():
        child.fail = root
        queue.append(child)
    while queue:
        current = queue.popleft()
        for ch, child in current.children.items():
            fallback = current.fail
            while fallback is not root and ch not in fallback.children:
                fallback = fallback.fail
            child.fail = fallback.children.get(ch, root)  # shallower, never child itself
            if child.fail.out:
                child.out += child.fail.out
            queue.append(child)
    return Matcher(root, wnids_for)


def _boundary_ok(text: str, start: int, end: int) -> bool:
    if start > 0 and text[start - 1].isalnum():
        return False
    if end < len(text) and text[end].isalnum():
        return False
    return True


def find_matches(matcher: Matcher, corpus: Captions) -> Matches:
    """All word-boundary lemma occurrences in the captions of `corpus`, as
    columns, made with no object per occurrence beyond its sort key.

    Output order is deterministic: corpus order, then span start, then
    wnid (then span end and lemma).
    """
    matches = Matches()
    by_key = (matches.starts, matches.wnids, matches.ends, matches.lemmas)  # a hit's sort key
    wnids_for = matcher.wnids_for
    for instance_id, text in zip(corpus.ids, corpus.texts):
        folded = fold_text(text)
        hits = [
            (start, wnid, end, pattern)
            for start, end, pattern in matcher.scan(folded)
            if _boundary_ok(folded, start, end)
            for wnid in wnids_for[pattern]
        ]
        if not hits:
            continue
        hits.sort()
        matches.ids.extend([instance_id] * len(hits))
        for column, values in zip(by_key, zip(*hits)):
            column += values
    return matches


def write_matches(matches: Matches, path) -> None:
    """Write matches JSONL, one {"id", "wnid", "lemma", "start", "end"}
    object per line: the bytes `json.dumps` gives for it, with ASCII-escaped
    strings."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f'{{"id": {encode_basestring_ascii(instance_id)}, '
            f'"wnid": {encode_basestring_ascii(wnid)}, '
            f'"lemma": {encode_basestring_ascii(lemma)}, '
            f'"start": {start}, "end": {end}}}\n'
            for instance_id, wnid, lemma, start, end in zip(
                matches.ids, matches.wnids, matches.lemmas, matches.starts, matches.ends
            )
        )
