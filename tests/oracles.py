"""Deliberately simple reference implementations that tests hold the
package's optimized code to."""

from __future__ import annotations

from capsieve.corpus import Corpus
from capsieve.matcher import LemmaMatch
from capsieve.taxonomy import Taxonomy, fold_text, normalize_lemma


def _whole_token(text: str, start: int, end: int) -> bool:
    """The boundary rule, written independently of the matcher's: an empty
    slice is not alphanumeric, so the text's ends always count as boundaries."""
    return not text[start - 1 : start].isalnum() and not text[end : end + 1].isalnum()


def find_matches_naive(taxonomy: Taxonomy, corpus: Corpus) -> list[LemmaMatch]:
    """Reference scan: try every normalized lemma against every folded caption
    with str.find and keep whole-token hits. Quadratic; for testing."""
    wnid_sets: dict[str, set[str]] = {}
    for synset in taxonomy:
        for lemma in synset.lemmas:
            wnid_sets.setdefault(normalize_lemma(lemma), set()).add(synset.wnid)

    results: list[LemmaMatch] = []
    for record in corpus:
        folded = fold_text(record.text)
        matches = []
        for pattern, wnids in wnid_sets.items():
            start = folded.find(pattern)
            while start != -1:
                end = start + len(pattern)
                if _whole_token(folded, start, end):
                    for wnid in wnids:
                        matches.append(
                            LemmaMatch(
                                instance_id=record.id,
                                wnid=wnid,
                                lemma=pattern,
                                span=(start, end),
                            )
                        )
                start = folded.find(pattern, start + 1)
        matches.sort(key=lambda m: (m.span[0], m.wnid, m.span[1], m.lemma))
        results.extend(matches)
    return results
