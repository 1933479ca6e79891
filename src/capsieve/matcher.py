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
lemma into a trie, compute failure links breadth-first (each state's
failure link points to the state for the longest proper suffix of its path
that is also a prefix of some pattern), and propagate pattern outputs down
failure chains so every occurrence, including patterns that are suffixes
of other patterns, is reported in a single left-to-right pass. Matching
is O(caption length + hits) per caption independent of the pattern count,
which is what makes scanning millions of captions against thousands of
lemmas tractable. The scan is serial: it is pure Python and holds the
interpreter lock, so threads would not speed it up.

The automaton (`Matcher`) is three flat tables indexed by state: `goto`,
`fail` and `out`, whose entries are already expanded over each lemma's
synsets. They hold only ints, strings and containers of them, so the
automaton has no reference cycles and refcounting frees it as soon as its
last user drops it. `find_matches` walks the tables inline and returns
`Matches`, the occurrences as five columns, with no object per
occurrence. `match` calls it once per chunk of `corpus.caption_chunks`,
so the stage holds the file's ids and the matches, never the caption
texts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, NamedTuple

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


class Matcher(NamedTuple):
    """Immutable Aho-Corasick automaton over a taxonomy's folded lemmas, as
    flat tables indexed by state, with the root at state 0.

    `goto[s]` maps a character to the next state, and every leaf shares one
    empty dict. `fail[s]` is the state of the longest proper suffix of s's
    path that is also a pattern prefix. `out[s]` holds a (length, wnid,
    lemma) entry for each synset of each pattern ending at s, suffixes
    included, so a lemma of several synsets has an entry per synset.
    """

    goto: list[dict[str, int]]
    fail: list[int]
    out: list[tuple[tuple[int, str, str], ...]]


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

    goto: list[dict[str, int]] = [{}]
    out: list[tuple[tuple[int, str, str], ...]] = [()]
    for pattern, wnids in wnid_sets.items():
        state = 0
        for ch in pattern:
            children = goto[state]
            if ch not in children:
                children[ch] = len(goto)
                goto.append({})
                out.append(())
            state = children[ch]
        out[state] = tuple((len(pattern), wnid, pattern) for wnid in sorted(wnids))

    # Failure links, breadth-first; outputs propagate down failure chains so
    # patterns that are suffixes of longer ones are still reported. A state
    # without outputs shares the empty tuple, or its failure state's tuple.
    fail = [0] * len(goto)
    queue = deque(goto[0].values())
    while queue:
        state = queue.popleft()
        for ch, child in goto[state].items():
            fallback = fail[state]
            while fallback and ch not in goto[fallback]:
                fallback = fail[fallback]
            fail[child] = goto[fallback].get(ch, 0)  # shallower, never child itself
            out[child] += out[fail[child]]
            queue.append(child)
    leaf: dict[str, int] = {}
    return Matcher([children or leaf for children in goto], fail, out)


def find_matches(matcher: Matcher, corpus: Captions) -> Matches:
    """All word-boundary lemma occurrences in the captions of `corpus`, as
    columns, made with no object per occurrence beyond its sort key.

    Output order is deterministic: corpus order, then span start, then
    wnid (then span end and lemma).
    """
    goto, fail, out = matcher.goto, matcher.fail, matcher.out
    matches = Matches()
    by_key = (matches.starts, matches.wnids, matches.ends, matches.lemmas)  # a hit's sort key
    for instance_id, text in zip(corpus.ids, corpus.texts):
        folded = fold_text(text)
        hits = []
        state = 0
        for end, ch in enumerate(folded, 1):
            while state and ch not in goto[state]:
                state = fail[state]
            state = goto[state].get(ch, 0)
            # past either end of `folded` a slice is empty, and ''.isalnum() is false
            if out[state] and not folded[end : end + 1].isalnum():
                hits += [
                    (end - length, wnid, end, lemma)
                    for length, wnid, lemma in out[state]
                    if not folded[end - length - 1 : end - length].isalnum()
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
