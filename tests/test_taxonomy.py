from __future__ import annotations

import json

import pytest

from capsieve.errors import FormatError, ValidationError
from capsieve.taxonomy import (
    Synset,
    Taxonomy,
    fold_text,
    load_taxonomy,
    normalize_lemma,
    save_taxonomy,
)

from conftest import make_synset, make_taxonomy


def write_jsonl(path, rows):
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


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
    assert [s.wnid for s in taxonomy] == [r["wnid"] for r in rows]
    assert taxonomy.index["n00000500"] == 499


def test_duplicate_wnid_rejected(tmp_path):
    rows = [
        {"wnid": "n02084071", "lemmas": ["dog"], "name": "dog", "gloss": "a domestic animal"},
        synset_row(1, ["cat"]),
        {"wnid": "n02084071", "lemmas": ["hound"], "name": "hound", "gloss": "again"},
    ]
    path = tmp_path / "tax.jsonl"
    write_jsonl(path, rows)
    with pytest.raises(ValidationError, match="duplicate wnid n02084071"):
        load_taxonomy(path)


def test_accepts_multi_lemma_synset(tmp_path):
    row = {
        "wnid": "n02125494",
        "lemmas": ["cougar", "puma"],
        "name": "cougar",
        "gloss": "large American feline resembling lion",
    }
    path = tmp_path / "tax.jsonl"
    write_jsonl(path, [row])
    taxonomy = load_taxonomy(path)
    synset = taxonomy.get("n02125494")
    assert synset.lemmas == ("cougar", "puma")
    assert synset.gloss == "large American feline resembling lion"


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "tax.jsonl"
    path.write_text(
        json.dumps(synset_row(1, ["ok"])) + "\n" + "{not json\n", encoding="utf-8"
    )
    with pytest.raises(FormatError, match="line 2"):
        load_taxonomy(path)


def test_empty_lemma_rejected(tmp_path):
    path = tmp_path / "tax.jsonl"
    write_jsonl(path, [synset_row(1, ["dog", "  "])])
    with pytest.raises(ValidationError, match="empty lemma"):
        load_taxonomy(path)


def test_bad_wnid_rejected():
    with pytest.raises(ValidationError, match="bad wnid"):
        Synset(wnid="x123", lemmas=("a",), name="a", gloss="")
    with pytest.raises(ValidationError, match="bad wnid"):
        Synset(wnid="n123", lemmas=("a",), name="a", gloss="")


def test_duplicate_wnid_rejected_in_memory():
    with pytest.raises(ValidationError, match="duplicate"):
        Taxonomy([make_synset(1, ["a"]), make_synset(1, ["b"])])


def test_normalize_lemma_rules():
    # character-level oracle: lowercase each char, then '_' -> ' '
    assert normalize_lemma("Egyptian_cat") == "".join(c.lower() for c in "Egyptian_cat").replace("_", " ")
    assert normalize_lemma("Egyptian_cat") == "egyptian cat"
    assert normalize_lemma("puma") == "puma"
    assert normalize_lemma("  ice   bear ") == "ice bear"


def test_normalize_lemma_idempotent(rng):
    alphabet = list("abcDEF_  ")
    for _ in range(200):
        chars = rng.choice(len(alphabet), size=rng.integers(1, 12))
        lemma = "".join(alphabet[int(c)] for c in chars)
        try:
            once = normalize_lemma(lemma)
        except ValidationError:
            continue
        assert normalize_lemma(once) == once


def test_normalize_lemma_rejects_empty():
    with pytest.raises(ValidationError):
        normalize_lemma("")
    with pytest.raises(ValidationError):
        normalize_lemma("   ")
    with pytest.raises(ValidationError):
        normalize_lemma("_")


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
    save_taxonomy(taxonomy, second)
    assert load_taxonomy(second) == taxonomy
    # canonical writer round-trips bytes too
    third = tmp_path / "c.jsonl"
    save_taxonomy(load_taxonomy(second), third)
    assert third.read_bytes() == second.read_bytes()


def test_taxonomy_lookup():
    taxonomy = make_taxonomy([["a"], ["b"]])
    assert "n00000001" in taxonomy
    assert "n00000099" not in taxonomy
    assert taxonomy.get("n00000002").lemmas == ("b",)
