from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capsieve.cli import _scan_captions
from capsieve.errors import ValidationError
from capsieve.matcher import LemmaMatch, Matches, build_matcher, find_matches
from capsieve.taxonomy import fold_text

from conftest import make_corpus, make_taxonomy, random_match_case, taxonomy_rows, write_jsonl
from oracles import find_matches_naive


def test_normalize_caption_rules():
    assert fold_text("The PUMA  store") == "the puma store"


def test_normalize_caption_empty():
    assert fold_text("") == ""


def test_normalize_caption_idempotent():
    once = fold_text("  Egyptian_Cat in   SNOW \t")
    twice = fold_text(once)
    assert twice == once


def test_shared_lemma_reports_both_synsets():
    taxonomy = make_taxonomy([["crane", "bird"], ["crane", "machine"]])
    matcher = build_matcher(taxonomy)
    corpus = make_corpus(["a crane at work"])
    matches = find_matches(matcher, corpus)
    crane = [m for m in matches if m.lemma == "crane"]
    assert [m.wnid for m in crane] == ["n00000001", "n00000002"]
    assert crane[0].span == crane[1].span


def patterns(matcher) -> set[str]:
    """The distinct folded lemmas the automaton reports."""
    return {lemma for entries in matcher.out for _, _, lemma in entries}


def test_empty_taxonomy_matches_nothing():
    matcher = build_matcher(make_taxonomy([]))
    assert len(patterns(matcher)) == 0
    assert list(find_matches(matcher, make_corpus(["anything at all"]))) == []


def test_pattern_count_is_distinct_normalized_lemmas():
    # "Ice_Bear" and "ice  bear" collapse to one pattern; "puma" repeats
    taxonomy = make_taxonomy([["Ice_Bear", "puma"], ["ice  bear"], ["puma", "cougar"]])
    matcher = build_matcher(taxonomy)
    assert len(patterns(matcher)) == len({"ice bear", "puma", "cougar"})


def test_a_lemma_that_folds_to_nothing_cannot_be_matched():
    # the loader refuses such a lemma; a taxonomy made in memory reaches here
    with pytest.raises(ValidationError) as info:
        build_matcher(make_taxonomy([["cat"], ["dog", " _ "]]))
    assert str(info.value) == "synset n00000002: empty lemma"
    assert len(patterns(build_matcher(make_taxonomy([["cat"], ["dog", " _ "]]), 1))) == 2


def test_single_word_match():
    matcher = build_matcher(make_taxonomy([["puma"]]))
    matches = list(find_matches(matcher, make_corpus(["a puma in the snow"])))
    assert len(matches) == 1
    match = matches[0]
    assert match.wnid == "n00000001"
    assert match.span == (2, 6)


def test_plural_is_a_distinct_token():
    matcher = build_matcher(make_taxonomy([["puma"]]))
    assert list(find_matches(matcher, make_corpus(["pumas are fast"]))) == []


def test_multiword_lemma_match():
    matcher = build_matcher(make_taxonomy([["Egyptian_cat"]]))
    matches = list(find_matches(matcher, make_corpus(["egyptian cat statue"])))
    assert len(matches) == 1
    assert matches[0].lemma == "egyptian cat"
    assert matches[0].span == (0, 12)


def test_boundary_allows_punctuation():
    matcher = build_matcher(make_taxonomy([["puma"]]))
    matches = find_matches(matcher, make_corpus(["puma! yes, puma."]))
    assert [m.span for m in matches] == [(0, 4), (11, 15)]


def test_suffix_pattern_also_reported():
    # "cat" is a suffix of "egyptian cat"; failure-link outputs must surface it
    taxonomy = make_taxonomy([["Egyptian_cat"], ["cat"]])
    matcher = build_matcher(taxonomy)
    matches = find_matches(matcher, make_corpus(["egyptian cat statue"]))
    assert {(m.wnid, m.span) for m in matches} == {
        ("n00000001", (0, 12)),
        ("n00000002", (9, 12)),
    }


def test_span_slice_equals_lemma(rng):
    taxonomy, corpus = random_match_case(rng, max_captions=50, max_lemmas=30)
    matcher = build_matcher(taxonomy)
    normalized = {rid: fold_text(text) for rid, text in zip(corpus.ids, corpus.texts)}
    for m in find_matches(matcher, corpus):
        start, end = m.span
        assert normalized[m.instance_id][start:end] == m.lemma
        # boundary rule holds on both sides
        text = normalized[m.instance_id]
        assert start == 0 or not text[start - 1].isalnum()
        assert end == len(text) or not text[end].isalnum()


def test_deterministic_order():
    taxonomy = make_taxonomy([["bb"], ["aa", "bb"]])
    matcher = build_matcher(taxonomy)
    corpus = make_corpus(["bb aa", "aa"], ids=["second", "first"])
    matches = find_matches(matcher, corpus)
    keys = [(m.instance_id, m.span[0], m.wnid) for m in matches]
    assert keys == [
        ("second", 0, "n00000001"),
        ("second", 0, "n00000002"),
        ("second", 3, "n00000002"),
        ("first", 0, "n00000002"),
    ]


def test_oracle_equivalence_small(rng):
    for _ in range(30):
        taxonomy, corpus = random_match_case(rng, max_captions=60, max_lemmas=25)
        matcher = build_matcher(taxonomy)
        assert list(find_matches(matcher, corpus)) == find_matches_naive(taxonomy, corpus)


def test_large_taxonomy_pattern_count(rng):
    lemma_lists = []
    for _ in range(1000):
        lemma_lists.append(
            ["_".join("".join("abcdefgh"[int(c)] for c in rng.integers(0, 8, size=3))
                      for _ in range(int(rng.integers(1, 3))))
             for _ in range(int(rng.integers(1, 4)))]
        )
    taxonomy = make_taxonomy(lemma_lists)
    matcher = build_matcher(taxonomy)
    distinct = {fold_text(l) for lemmas in lemma_lists for l in lemmas}
    assert len(patterns(matcher)) == len(distinct)


def test_max_lemmas_per_synset():
    taxonomy = make_taxonomy([["cougar", "puma"]])
    headword_only = build_matcher(taxonomy, max_lemmas_per_synset=1)
    assert len(patterns(headword_only)) == 1
    assert list(find_matches(headword_only, make_corpus(["a puma resting"]))) == []
    full = build_matcher(taxonomy)
    assert len(find_matches(full, make_corpus(["a puma resting"]))) == 1


def test_matches_are_columns_that_iterate_as_records():
    matcher = build_matcher(make_taxonomy([["puma"], ["snow"]]))
    matches = find_matches(matcher, make_corpus(["snow puma", "x", "puma"], ids=["a", "b", "c"]))
    assert matches == Matches(ids=["a", "a", "c"], wnids=["n00000002", "n00000001", "n00000001"],
                              lemmas=["snow", "puma", "puma"], starts=[0, 5, 0], ends=[4, 9, 4])
    assert len(matches) == 3
    assert list(matches)[1] == LemmaMatch("a", "n00000001", "puma", (5, 9))
    matches += find_matches(matcher, make_corpus(["puma"], ids=["d"]))
    assert (len(matches), matches.ids[-1], matches.starts[-1]) == (4, "d", 0)


def test_the_match_scan_holds_the_ids_and_the_matches_not_the_texts(tmp_path):
    # 40 960 captions, 565 bytes each as str: 22 MiB of texts. Each is padded
    # with spaces, which folding collapses, so the scan itself is short.
    count = 40_960
    texts = ["a puma" if row % 16 == 0 else "snow" for row in range(count)]
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, ({"id": f"i{row:05d}", "text": text + " " * 512}
                         for row, text in enumerate(texts)))
    assert count * sys.getsizeof("snow" + " " * 512) > 20 * 2**20
    taxonomy = tmp_path / "taxonomy.jsonl"
    write_jsonl(taxonomy, taxonomy_rows(make_taxonomy([["puma"]])))
    tracemalloc.start()
    try:
        matches = _scan_captions(taxonomy, corpus, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(matches) == count // 16
    # the ids, their index and line numbers (about 3.8 MiB) and one chunk of
    # 4096 captions (2.2 MiB), parsed before the next is read
    assert peak < 9 * 2**20, f"peak {peak / 2**20:.2f} MiB for 22 MiB of captions"


def test_a_dropped_matcher_is_freed_by_refcounting():
    # the automaton holds no reference cycles, so it is freed when dropped,
    # not at the next gen-2 collection
    taxonomy = make_taxonomy([["Egyptian_cat", "cat"], ["cat"], ["a", "a a"], ["b a a"]])
    gc.collect()
    gc.disable()
    try:
        build_matcher(taxonomy)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_match_is_frozen_record():
    match = LemmaMatch(instance_id="a", wnid="n00000001", lemma="x", span=(0, 1))
    with pytest.raises(AttributeError):
        match.lemma = "y"


# Unicode properties. Derandomized so every run draws the same examples.

# Characters whose folding or boundary behaviour differs from ASCII:
# dotted capital I lowercases to two code points, capital sigma has a
# context-dependent final form, "_" folds to a space, and U+00A0, U+2028
# and U+001C are whitespace to str.split but not to a naive " " split.
UNICODE_EDGES = ["İ", "Σ", "σ", "ς", "_", "\u00a0", "\u2028", "\x1c", " ", "-", "a", "b", "I"]
edge_text = st.text(st.sampled_from(UNICODE_EDGES) | st.characters(), max_size=12)


@settings(derandomize=True)
@given(st.text())
def test_fold_text_idempotent(text):
    assert fold_text(fold_text(text)) == fold_text(text)


@settings(derandomize=True)
@given(st.text(min_size=1))
@example("ΟΔΟΣ")
def test_caption_equal_to_lemma_matches_whole_caption(lemma):
    folded = fold_text(lemma)
    assume(folded)
    matcher = build_matcher(make_taxonomy([[lemma]]))
    matches = find_matches(matcher, make_corpus([lemma]))
    assert LemmaMatch("inst0000", "n00000001", folded, (0, len(folded))) in matches


@settings(derandomize=True, deadline=None)
@given(
    st.lists(st.lists(edge_text.filter(fold_text), min_size=1, max_size=3), min_size=1, max_size=4),
    st.lists(edge_text, min_size=1, max_size=5),
)
# nested prefixes, suffixes and one-character lemmas: outputs along failure chains
@example([["a"], ["a a"], ["b a a"]], ["b a a a", "a a b a a", "ba a", "a"])
@example([["a a", "a"], ["a"]], ["a a a", "aa a", "a_a"])
@example([["b a a", "a a"], ["İ", "i̇"]], ["b a a b a a", "xb a a", "İ i̇ İ"])
def test_oracle_equivalence_unicode(lemma_lists, texts):
    taxonomy = make_taxonomy(lemma_lists)
    corpus = make_corpus(texts)
    matches = find_matches(build_matcher(taxonomy), corpus)
    assert list(matches) == find_matches_naive(taxonomy, corpus)


@pytest.mark.parametrize("limit", [0, -1])
def test_lemma_limit_below_one_is_rejected(limit):
    # -1 used to drop each synset's last lemma, and 0 every lemma
    with pytest.raises(ValidationError, match="max_lemmas_per_synset must be >= 1"):
        build_matcher(make_taxonomy([["puma", "cougar"]]), max_lemmas_per_synset=limit)
