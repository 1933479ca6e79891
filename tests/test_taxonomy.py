from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsieve.errors import FormatError, ValidationError
from capsieve.matcher import build_matcher, find_matches
from capsieve.taxonomy import Taxonomy, fold_text, load_taxonomy

from conftest import make_corpus, taxonomy_rows, write_jsonl
from oracles import find_matches_naive


def synset_row(num, lemmas, name=None, gloss="a thing"):
    return {
        "wnid": f"n{num:08d}",
        "lemmas": list(lemmas),
        "name": name if name is not None else lemmas[0],
        "gloss": gloss,
    }


def test_load_preserves_count_and_order(tmp_path):
    rows = [synset_row(i + 1, [f"term{i}"]) for i in range(1000)]
    path = tmp_path / "tax.jsonl"
    write_jsonl(path, rows)
    taxonomy = load_taxonomy(path)
    assert len(taxonomy) == 1000
    assert taxonomy.wnids == [r["wnid"] for r in rows]
    assert taxonomy.lemmas[499] == ["term499"]


def test_duplicate_wnid_rejected(tmp_path):
    rows = [
        {"wnid": "n02084071", "lemmas": ["dog"], "name": "dog", "gloss": "a domestic animal"},
        synset_row(1, ["cat"]),
        {"wnid": "n02084071", "lemmas": ["hound"], "name": "hound", "gloss": "again"},
    ]
    path = tmp_path / "tax.jsonl"
    write_jsonl(path, rows)
    with pytest.raises(ValidationError, match="duplicate wnid 'n02084071'"):
        load_taxonomy(path)


def test_duplicate_wnid_is_reported_before_a_bad_synset(tmp_path):
    rows = [synset_row(1, ["  "]), synset_row(2, ["cat"]), synset_row(1, ["dog"])]
    path = tmp_path / "tax.jsonl"
    write_jsonl(path, rows)
    with pytest.raises(ValidationError) as info:
        load_taxonomy(path)
    assert str(info.value) == f"{path}: line 3: duplicate wnid 'n00000001' (first seen on line 1)"


def test_accepts_multi_lemma_synset(tmp_path):
    row = {
        "wnid": "n02125494",
        "lemmas": ["cougar", "puma"],
        "name": "cougar",
        "gloss": "large American feline resembling lion",
    }
    path = tmp_path / "tax.jsonl"
    write_jsonl(path, [row])
    assert load_taxonomy(path) == Taxonomy(
        wnids=["n02125494"], lemmas=[["cougar", "puma"]], names=["cougar"],
        glosses=["large American feline resembling lion"],
    )


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "tax.jsonl"
    path.write_text(
        json.dumps(synset_row(1, ["ok"])) + "\n" + "{not json\n", encoding="utf-8"
    )
    with pytest.raises(FormatError, match="line 2"):
        load_taxonomy(path)


def test_empty_lemma_rejected(tmp_path):
    path = tmp_path / "tax.jsonl"
    for lemma in ("  ", "_", " _\t__ "):  # each folds to nothing
        write_jsonl(path, [synset_row(1, ["cat"]), synset_row(2, ["dog", lemma])])
        with pytest.raises(ValidationError) as info:
            load_taxonomy(path)
        assert str(info.value) == f"{path}: line 2: synset n00000002: empty lemma"


def test_empty_lemmas_list_rejected(tmp_path):
    # reported before the empty lemma on a later line
    path = tmp_path / "tax.jsonl"
    rows = [synset_row(1, ["cat"]), {**synset_row(2, ["dog"]), "lemmas": []}, synset_row(3, ["_"])]
    write_jsonl(path, rows)
    with pytest.raises(ValidationError) as info:
        load_taxonomy(path)
    assert str(info.value) == f"{path}: line 2: synset n00000002: lemmas list is empty"


@pytest.mark.parametrize("wnid", ["x123", "n123"])
def test_bad_wnid_rejected(tmp_path, wnid):
    path = tmp_path / "tax.jsonl"
    write_jsonl(path, [synset_row(1, ["cat"]), {**synset_row(2, ["dog"]), "wnid": wnid}])
    with pytest.raises(FormatError) as info:
        load_taxonomy(path)
    assert str(info.value) == (
        f"{path}: line 2: field 'wnid' must be a wnid ('n' and 8 digits), got {wnid!r}"
    )


def test_fold_text_lemma_rules():
    # character-level oracle: lowercase each char, then '_' -> ' '
    assert fold_text("Egyptian_cat") == "".join(c.lower() for c in "Egyptian_cat").replace("_", " ")
    assert fold_text("Egyptian_cat") == "egyptian cat"
    assert fold_text("puma") == "puma"
    assert fold_text("  ice   bear ") == "ice bear"


def test_fold_text_idempotent_on_lemma_characters(rng):
    alphabet = list("abcDEF_  ")
    for _ in range(200):
        chars = rng.choice(len(alphabet), size=rng.integers(1, 12))
        once = fold_text("".join(alphabet[int(c)] for c in chars))
        assert fold_text(once) == once


def test_fold_text_reduces_blank_lemmas_to_nothing():
    for lemma in ("", "   ", "_", " _\t__ "):
        assert fold_text(lemma) == ""


def test_fold_text_handles_unicode_case():
    assert fold_text("Grosse Katze") == "grosse katze"
    assert fold_text("CAFÉ") == "café"


def test_round_trip_load_save_load(tmp_path):
    rows = [
        synset_row(1, ["dog", "domestic_dog"], gloss="a member of the genus Canis"),
        synset_row(2, ["cougar", "puma"], gloss="large American feline resembling lion"),
        synset_row(3, ["café au lait"], gloss="unicode: größe"),
    ]
    first = tmp_path / "a.jsonl"
    write_jsonl(first, rows)
    taxonomy = load_taxonomy(first)
    second = tmp_path / "b.jsonl"
    write_jsonl(second, taxonomy_rows(taxonomy))
    assert load_taxonomy(second) == taxonomy
    assert second.read_bytes() == first.read_bytes()


# Any Unicode the JSONL reader accepts: no lone surrogates, which no UTF-8
# file can hold. Lemmas must fold to something, or the loader refuses them.
unicode_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
synset_rows = st.lists(
    st.tuples(
        st.lists(unicode_text.filter(fold_text), min_size=1, max_size=3),
        unicode_text,
        unicode_text,
    ),
    max_size=5,
)


@settings(derandomize=True, deadline=None)
@given(synset_rows, st.lists(unicode_text, min_size=1, max_size=4))
def test_unicode_taxonomy_round_trips_and_matches_like_the_oracle(tmp_path_factory, rows, texts):
    first = tmp_path_factory.mktemp("tax") / "a.jsonl"
    write_jsonl(first, [{"wnid": f"n{num:08d}", "lemmas": lemmas, "name": name, "gloss": gloss}
                        for num, (lemmas, name, gloss) in enumerate(rows, 1)])
    taxonomy = load_taxonomy(first)
    second = first.with_name("b.jsonl")
    write_jsonl(second, taxonomy_rows(taxonomy))
    assert second.read_bytes() == first.read_bytes()
    # one caption holds every lemma, so each synset has something to match
    corpus = make_corpus([" ".join(sum(taxonomy.lemmas, [])), *texts])
    assert list(find_matches(build_matcher(taxonomy), corpus)) == find_matches_naive(taxonomy, corpus)
