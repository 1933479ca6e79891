from __future__ import annotations

import ast
import gc
import json
import struct
import tracemalloc
from pathlib import Path
from typing import Iterator
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import capsieve
from capsieve import corpus, curator, evalmetrics, taxonomy
from capsieve.cli import _labelled_rows
from capsieve.corpus import (
    EMBEDDING_MAGIC,
    Captions,
    EmbeddingFile,
    EmbeddingMatrix,
    caption_chunks,
    index_keys,
    load_corpus,
    load_embeddings,
    read_jsonl,
    write_embeddings,
)
from capsieve.curator import load_candidates
from capsieve.errors import CapsieveError, FormatError, MissingKeyError, ValidationError
from capsieve.evalmetrics import load_predictions
from capsieve.taxonomy import load_taxonomy

from conftest import caption_flags, corpus_rows, read_captions, write_jsonl
from oracles import read_jsonl_per_line


def corpus_line(rid, text, **kw):
    row = {"id": rid, "text": text, "nsfw": False, "text_in_image": None, "meta": {}}
    row.update(kw)
    return json.dumps(row, ensure_ascii=False)


def test_load_three_records(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        "\n".join(
            [corpus_line("a", "a puma"), corpus_line("b", "snow"), corpus_line("c", "")]
        )
        + "\n",
        encoding="utf-8",
    )
    assert list(load_corpus(path)) == ["a", "b", "c"]
    assert read_captions(path).texts == ["a puma", "snow", ""]  # an empty caption is valid


def test_duplicate_id_names_line(tmp_path):
    lines = [corpus_line("a", "first")]
    lines += [corpus_line(f"x{i}", "...") for i in range(5)]
    lines += [corpus_line("a", "again")]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 7"):
        load_corpus(path)


def test_flag_passthrough(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        corpus_line("a", "x", nsfw=True, text_in_image=True, meta={"sel_freq": "0.7"}) + "\n",
        encoding="utf-8",
    )
    assert load_corpus(path) == {"a": (True, True)}


def test_corpus_jsonl_round_trips_bytes(tmp_path):
    corpus = Captions(
        ids=["a", "b"],
        texts=["a puma in the snow", "unicode café"],
        nsfw=[True, False],
        text_in_image=[None, False],
    )
    first = tmp_path / "one.jsonl"
    write_jsonl(first, corpus_rows(corpus))
    second = tmp_path / "two.jsonl"
    write_jsonl(second, corpus_rows(read_captions(first)))
    assert second.read_bytes() == first.read_bytes()


def matrix(rows, ids):
    return EmbeddingMatrix(rows=np.asarray(rows, dtype=np.float32), ids=ids)


def test_embedding_header_arithmetic(tmp_path):
    m = matrix([[1, 2, 3, 4], [5, 6, 7, 8]], ["a", "b"])
    path = tmp_path / "emb.bin"
    write_embeddings(m, path)
    raw = path.read_bytes()
    assert raw[:4] == EMBEDDING_MAGIC
    assert int.from_bytes(raw[4:8], "little") == 4
    assert int.from_bytes(raw[8:16], "little") == 2
    loaded = load_embeddings(path)
    assert loaded.dim == 4 and loaded.count == 2
    assert loaded.ids == ["a", "b"]


def test_embedding_round_trip_bitwise(tmp_path, rng):
    rows = rng.standard_normal((17, 9)).astype(np.float32)
    m = matrix(rows, [f"id{i}" for i in range(17)])
    path = tmp_path / "emb.bin"
    write_embeddings(m, path)
    loaded = load_embeddings(path)
    assert loaded.rows.tobytes() == rows.tobytes()
    # write(load(f)) reproduces f byte-for-byte
    path2 = tmp_path / "emb2.bin"
    write_embeddings(loaded, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_truncated_payload_rejected(tmp_path):
    m = matrix([[1, 2], [3, 4]], ["a", "b"])
    path = tmp_path / "emb.bin"
    write_embeddings(m, path)
    raw = path.read_bytes()
    head = 16 + 2 * 2 * 4
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(raw[: head - 4])  # drop 4 payload bytes and the trailer
    with pytest.raises(FormatError, match="truncated"):
        load_embeddings(clipped)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(FormatError, match="bad magic"):
        load_embeddings(path)


def test_trailer_count_mismatch(tmp_path):
    m = matrix([[1, 2], [3, 4]], ["a", "b"])
    path = tmp_path / "emb.bin"
    write_embeddings(m, path)
    raw = path.read_bytes()
    trimmed = tmp_path / "short_ids.bin"
    trimmed.write_bytes(raw[: raw.rindex(b'"b"')])
    with pytest.raises(FormatError, match="trailer has 1"):
        load_embeddings(trimmed)


def test_zero_vector_names_offending_id():
    with pytest.raises(ValidationError, match="id1"):
        matrix([[1.0, 0.0], [0.0, 0.0]], ["id0", "id1"])


def test_non_finite_rejected():
    with pytest.raises(ValidationError, match="non-finite"):
        matrix([[1.0, np.nan]], ["a"])


def test_duplicate_embedding_ids_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        matrix([[1.0], [2.0]], ["a", "a"])


def test_get_embedding(tmp_path):
    m = matrix([[1, 2], [3, 4]], ["a", "b"])
    assert m.rows[m.positions(["b"], "test")].tolist() == [[3.0, 4.0]]
    with pytest.raises(MissingKeyError, match="zzz"):
        m.positions(["zzz"], "test")


def test_every_id_resolves(rng):
    ids = [f"k{i}" for i in range(25)]
    m = matrix(rng.standard_normal((25, 3)).astype(np.float32), ids)
    assert m.positions(ids, "test") == list(range(25))
    assert m.positions(ids[::-3], "test") == list(range(25))[::-3]
    assert m.positions([], "test") == []


def test_positions_names_the_first_missing_id_and_its_role():
    m = matrix([[1, 2], [3, 4]], ["a", "b"])
    with pytest.raises(MissingKeyError) as info:
        m.positions(["b", "x", "a", "y"], "caption")
    assert str(info.value) == "missing caption embedding for id 'x'"


def test_index_keys_maps_each_key_to_its_position():
    assert index_keys(["b", "a", "c"], "id") == {"b": 0, "a": 1, "c": 2}
    assert index_keys([], "id") == {}
    assert index_keys([("a", "n1"), ("a", "n2")], "pair") == {("a", "n1"): 0, ("a", "n2"): 1}


def test_index_keys_reports_the_first_key_seen_twice():
    keys = ["a", "b", "c", "b", "a"]
    with pytest.raises(ValidationError) as info:
        index_keys(keys, "instance id")
    assert str(info.value) == "duplicate instance id 'b'"
    assert info.value.path is None and info.value.line is None
    with pytest.raises(ValidationError) as info:
        index_keys(keys, "instance id", path="c.jsonl", lines=[1, 3, 4, 7, 9])
    assert str(info.value) == "c.jsonl: line 7: duplicate instance id 'b' (first seen on line 3)"
    assert (info.value.path, info.value.line) == ("c.jsonl", 7)


def test_zero_row_file_loads(tmp_path):
    path = tmp_path / "empty.emb"
    write_embeddings(EmbeddingMatrix(rows=np.empty((0, 5), dtype=np.float32), ids=[]), path)
    loaded = load_embeddings(path)
    assert loaded.rows.shape == (0, 5) and loaded.ids == []


def test_non_finite_error_names_first_bad_row_across_blocks():
    # at d = 1024 the finiteness check reads 256 rows per block
    rows = np.ones((600, 1024), dtype=np.float32)
    rows[520, 0] = np.nan
    rows[300, 7] = np.inf
    with pytest.raises(ValidationError, match="non-finite values in row for id 'r300'"):
        matrix(rows, [f"r{i}" for i in range(600)])


def test_load_holds_one_copy_of_the_payload(tmp_path, rng):
    # a bytes copy of the payload, or a whole-matrix np.isfinite mask (2 MiB
    # here), would each push the peak past the bound; a `keep` that names
    # every id is a whole load too, read in place
    count, dim = 2000, 1024
    path = tmp_path / "big.emb"
    rows = rng.standard_normal((count, dim)).astype(np.float32)
    ids = [f"r{i}" for i in range(count)]
    write_embeddings(matrix(rows, ids), path)
    del rows
    payload = count * dim * 4
    for keep in (None, set(ids)):
        tracemalloc.start()
        try:
            loaded = load_embeddings(path, keep=keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.count == count and loaded.ids == ids
        assert peak < payload + 2**20, f"peak {(peak - payload) / 2**20:.2f} MiB above the payload"
        del loaded


def test_a_corpus_load_holds_no_texts(tmp_path):
    # 20 MiB of captions, of which 100 ids' flags are kept: only a chunk's
    # texts, and their joined copy for the kind check, are held at once
    text = "x" * 1024
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, ({"id": f"i{k:05d}", "text": text, "nsfw": k % 3 == 0,
                        "text_in_image": None} for k in range(20 * 1024)))
    keep = {f"i{k:05d}" for k in range(0, 20 * 1024, 205)}
    tracemalloc.start()
    try:
        flags = load_corpus(path, keep)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flags == {rid: (int(rid[1:]) % 3 == 0, None) for rid in sorted(keep)}
    chunk = corpus._JSONL_ROWS * len(text)
    assert held < 2**20 and peak < 3 * chunk + 2**21, f"peak {peak / 2**20:.2f} MiB"


def test_header_count_beyond_file_is_truncation(tmp_path):
    # checked against the file size before anything is allocated for it
    path = tmp_path / "huge.emb"
    path.write_bytes(EMBEDDING_MAGIC + struct.pack("<IQ", 4, 2**40) + b"\x00" * 16)
    with pytest.raises(FormatError, match="truncated"):
        load_embeddings(path)


@pytest.mark.parametrize(
    "header, trailer, message",
    [
        (struct.pack("<IQ", 0, 2), b'"a"\n"b"\n', "header declares dim = 0"),
        (struct.pack("<IQ", 1, 2), b'"a"\n7\n', "id trailer entry 2 is not a string"),
    ],
    ids=["dim-zero", "trailer-number"],
)
def test_embedding_layout_faults_name_the_file(tmp_path, header, trailer, message):
    path = tmp_path / "bad.emb"
    values = struct.unpack("<IQ", header)[0] * 2  # two rows of dim values
    path.write_bytes(EMBEDDING_MAGIC + header + np.ones(values, dtype="<f4").tobytes() + trailer)
    for read in (load_embeddings, EmbeddingFile):
        with pytest.raises(FormatError) as caught:
            read(path)
        assert str(caught.value) == f"{path}: {message}"


def test_embedding_matrix_refuses_rows_that_are_not_one_per_id():
    with pytest.raises(ValidationError, match=r"^rows must be 2-D, got shape \(3,\)$"):
        EmbeddingMatrix(rows=np.ones(3, dtype=np.float32), ids=["a", "b", "c"])
    message = r"^3 ids for 2 rows; they must align 1:1$"
    with pytest.raises(ValidationError, match=message):
        EmbeddingMatrix(rows=np.ones((2, 4), dtype=np.float32), ids=["a", "b", "c"])


def test_ids_with_unicode_line_separators_round_trip(tmp_path):
    # the trailer is split on LF only; U+2028 and U+0085 are written unescaped
    m = matrix([[1, 2], [3, 4]], ["a\u2028b", "c\x85d"])
    path = tmp_path / "emb.bin"
    write_embeddings(m, path)
    assert load_embeddings(path).ids == ["a\u2028b", "c\x85d"]


@pytest.mark.parametrize(
    "line, message",
    [
        (b'{"id": "\xff"}', "line 2: not UTF-8"),
        (b"{not json", "line 2: invalid JSON"),
        (b'["a", 1.0]', "line 2: expected a JSON object"),
        (b'{"id": "b"}', "line 2: missing field 'score'"),
        (b'{"id": 7, "score": 1.0}', "line 2: field 'id' must be a Unicode string"),
        (b'{"id": "\\udc80", "score": 1.0}', "line 2: field 'id' must be a Unicode string"),
        (b'{"id": "b", "score": NaN}', "line 2: field 'score' must be a finite number"),
        (b'{"id": "b", "score": 1' + b"0" * 400 + b"}", "line 2: field 'score' must be a finite"),
        (b'{"id": "b", "score": true}', "line 2: field 'score' must be a finite number"),
        (b'{"id": "b", "score": 1, "tags": ["x"]}\n{"id": "c", "score": 1, "tags": "x"}',
         "line 3: field 'tags' must be a list of Unicode"),
    ],
)
def test_read_jsonl_locates_each_fault(tmp_path, line, message):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"id": "a", "score": 0.5, "tags": []}\n' + line + b"\n")
    with pytest.raises(FormatError, match=message) as info:
        list(read_jsonl(path, {"id": str, "score": float, "tags": list}))
    assert str(info.value).startswith(f"{path}: ")


def test_read_jsonl_skips_blank_lines_and_keeps_numbers(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'\n{"id": "a", "score": 1}\r\n  \n{"id": "b", "score": -0.25}\n')
    assert read_jsonl(path, {"id": str, "score": float}) == (
        [2, 4],
        {"id": ["a", "b"], "score": [1, -0.25]},
    )


@pytest.mark.parametrize(
    "line, message",
    [
        (b'{"wnid": "n1234567"}', "field 'wnid' must be a wnid"),
        (b'{"wnid": "n123456789"}', "field 'wnid' must be a wnid"),
        (b'{"wnid": "n1234567\\u0668"}', "field 'wnid' must be a wnid"),  # Arabic-Indic 8
        (b'{"wnid": "n12345678\\n"}', "field 'wnid' must be a wnid"),
        (b'{"wnid": "N12345678"}', "field 'wnid' must be a wnid"),
        (b'{"wnid": "n12345678", "ranked": ["n12345678", 5]}', "field 'ranked' must be a list"),
        (b'{"wnid": "n12345678", "ranked": "n12345678"}', "field 'ranked' must be a list"),
        (b'{"wnid": "n12345678", "nsfw": "false"}', "field 'nsfw' must be a JSON boolean"),
        (b'{"wnid": "n12345678", "nsfw": null}', "field 'nsfw' must be a JSON boolean"),
        (b'{"wnid": "n12345678", "nsfw": 0}', "field 'nsfw' must be a JSON boolean"),
        (b'{"wnid": "n12345678", "tii": "no"}', "field 'tii' must be a JSON boolean or null"),
    ],
)
def test_read_jsonl_checks_wnids_and_optional_flags(tmp_path, line, message):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(line + b"\n")
    fields, optional = {"wnid": "wnid"}, {"ranked": "wnid list", "nsfw": bool,
                                          "tii": "bool or null"}
    with pytest.raises(FormatError, match=f"line 1: {message}"):
        list(read_jsonl(path, fields, optional))


def test_read_jsonl_optional_fields_may_be_absent(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"wnid": "n00000001"}, {"wnid": "n99999999", "ranked": [], "nsfw": False, "tii": None},
            {"wnid": "n00000002", "ranked": ["n00000001", "n00000003"], "tii": True}]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    optional = {"ranked": "wnid list", "nsfw": bool, "tii": "bool or null"}
    _, columns = read_jsonl(path, {"wnid": "wnid"}, optional)
    assert columns == {name: [row.get(name) for row in rows]
                       for name in ["wnid", "ranked", "nsfw", "tii"]}


def test_corpus_flags_load_as_written(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'{"id": "a", "text": "x", "nsfw": false, "text_in_image": null}\n'
                     b'{"id": "b", "text": "y", "nsfw": true, "text_in_image": false}\n'
                     b'{"id": "c", "text": "z", "text_in_image": true}\n')
    assert load_corpus(path) == {"a": (False, None), "b": (True, False), "c": (False, True)}


@pytest.mark.parametrize("meta", ["0", "[]", "false", '""', '"x"', "1.5"])
def test_corpus_meta_must_be_an_object_or_null(tmp_path, meta):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x", "meta": null}\n'
                    f'{{"id": "b", "text": "y", "meta": {meta}}}\n', encoding="utf-8")
    with pytest.raises(FormatError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path}: line 2: field 'meta' must be an object"


def test_corpus_meta_fault_comes_before_a_duplicate_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n'
                    '{"id": "b", "text": "z", "meta": []}\n', encoding="utf-8")
    with pytest.raises(FormatError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path}: line 3: field 'meta' must be an object"


def test_corpus_kind_fault_on_a_later_line_comes_before_a_meta_fault(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x", "meta": []}\n{"id": "a", "text": "y"}\n'
                    '{"id": "c", "text": 7}\n', encoding="utf-8")
    with pytest.raises(FormatError) as info:
        load_corpus(path)
    assert str(info.value) == f"{path}: line 3: field 'text' must be a Unicode string, got 7"


def test_corpus_meta_is_accepted_and_dropped(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x", "meta": null}\n{"id": "b", "text": "y"}\n'
                    '{"id": "c", "text": "z", "meta": {}}\n'
                    '{"id": "d", "text": "w", "meta": {"k": {"n": [1, {"m": null}]}}}\n',
                    encoding="utf-8")
    captions = read_captions(path)
    assert captions == Captions(ids=["a", "b", "c", "d"], texts=["x", "y", "z", "w"],
                                nsfw=[False] * 4, text_in_image=[None] * 4)
    assert not hasattr(captions, "meta")


@pytest.mark.parametrize(
    "ids, rows, message",
    [
        (["a", "a"], [[1.0], [2.0]], "duplicate embedding id 'a'"),
        (["a", "b"], [[1.0], [np.inf]], "non-finite values in row for id 'b'"),
        (["a", "b"], [[0.0], [2.0]], "all-zero vector for id 'a'"),
    ],
)
def test_embedding_file_errors_name_the_file(tmp_path, ids, rows, message):
    path = tmp_path / "bad.emb"
    path.write_bytes(EMBEDDING_MAGIC + struct.pack("<IQ", 1, len(ids))
                     + np.asarray(rows, dtype="<f4").tobytes()
                     + "".join(json.dumps(i) + "\n" for i in ids).encode())
    with pytest.raises(ValidationError) as info:
        load_embeddings(path)
    assert str(info.value) == f"{path}: {message}"
    assert info.value.path == path


def write_rows(path, rows, ids):
    """An embedding file of float32 `rows` and `ids`, written by hand, so
    that it may hold rows `EmbeddingMatrix` refuses."""
    rows = np.asarray(rows, dtype="<f4")
    path.write_bytes(EMBEDDING_MAGIC + struct.pack("<IQ", rows.shape[1], len(ids)) + rows.tobytes()
                     + "".join(json.dumps(i) + "\n" for i in ids).encode())


# Files of 0 to 13 rows at d = 3, read in chunks of 4 rows: counts on either
# side of one, two and three chunks.
@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(count=st.integers(0, 13), data=st.data())
def test_keeping_some_ids_equals_the_whole_load_restricted(tmp_path, count, data):
    rng = np.random.default_rng(count)
    ids = [f"r{i}" for i in rng.permutation(count)]  # file order is not id order
    path = tmp_path / "some.emb"
    write_rows(path, rng.standard_normal((count, 3)), ids)
    keep = data.draw(st.sets(st.sampled_from(ids + ["absent"])))
    with mock.patch.object(corpus, "_CHECK_VALUES", 4 * 3):
        whole = load_embeddings(path)
        kept = load_embeddings(path, keep=keep)
    order = [row for row, rid in enumerate(ids) if rid in keep]
    assert kept.ids == [ids[row] for row in order]
    assert kept.rows.shape == (len(order), 3)
    assert kept.rows.tobytes() == whole.rows[order].tobytes()
    assert kept.path == whole.path == path


@pytest.mark.parametrize("keep", [None, {"r0"}, set()], ids=["all", "one", "none"])
@pytest.mark.parametrize("nan, zero, message", [
    (7, None, "non-finite values in row for id 'r7'"),
    (None, 7, "all-zero vector for id 'r7'"),
    (9, 2, "non-finite values in row for id 'r9'"),  # a later chunk: still reported first
    (2, 9, "non-finite values in row for id 'r2'"),
])
def test_a_bad_row_outside_the_kept_rows_still_raises(tmp_path, keep, nan, zero, message):
    rows = np.ones((10, 3))
    if nan is not None:
        rows[nan, 1] = np.nan
    if zero is not None:
        rows[zero] = 0.0
    path = tmp_path / "bad.emb"
    write_rows(path, rows, [f"r{i}" for i in range(10)])
    with mock.patch.object(corpus, "_CHECK_VALUES", 4 * 3), pytest.raises(ValidationError) as info:
        load_embeddings(path, keep=keep)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("keep", [None, ["r3", "r1", "r4"], ["r3", "r1", "r0", "r2", "r4", "r1"],
                                  ["absent"]], ids=["whole", "some", "all", "none"])
def test_a_load_checks_each_row_and_indexes_each_id_once(tmp_path, rng, keep):
    ids = ["r3", "r1", "r0", "r2", "r4"]
    path = tmp_path / "e.emb"
    write_rows(path, rng.standard_normal((5, 3)), ids)
    with mock.patch.object(corpus, "_checked", wraps=corpus._checked) as checked, \
            mock.patch.object(corpus, "index_keys", wraps=corpus.index_keys) as indexed:
        loaded = load_embeddings(path, keep=keep)
    assert (checked.call_count, indexed.call_count) == (1, 1)
    kept = [rid for rid in ids if keep is None or rid in keep]
    assert loaded.ids == kept
    assert loaded.index == {rid: row for row, rid in enumerate(kept)}


def test_each_jsonl_loader_indexes_its_ids_once(tmp_path):
    (tmp_path / "c.jsonl").write_text(corpus_line("a", "x") + "\n" + corpus_line("b", "y") + "\n")
    (tmp_path / "t.jsonl").write_text(json.dumps(
        {"wnid": "n00000001", "lemmas": ["cat"], "name": "cat", "gloss": "a cat"}) + "\n")
    (tmp_path / "m.jsonl").write_text("".join(
        json.dumps({"id": rid, "wnid": "n00000001", "score": 0.5}) + "\n" for rid in "ab"))
    (tmp_path / "p.jsonl").write_text(json.dumps({"id": "a", "ranked": ["n00000001"]}) + "\n")
    loaders = [(corpus, load_corpus, "c.jsonl", 1), (taxonomy, load_taxonomy, "t.jsonl", 1),
               (curator, curator.load_manifest, "m.jsonl", 1),
               # only a repeated candidate or prediction id needs an index, for its lines
               (curator, load_candidates, "m.jsonl", 0),
               (evalmetrics, load_predictions, "p.jsonl", 0)]
    for module, loader, name, calls in loaders:
        with mock.patch.object(module, "index_keys", wraps=index_keys) as indexed:
            loader(tmp_path / name)
        assert indexed.call_count == calls, loader.__name__


def test_embedding_file_chunks_are_the_checked_rows(tmp_path, rng):
    rows = rng.standard_normal((11, 3)).astype(np.float32)
    path = tmp_path / "e.emb"
    write_rows(path, rows, [f"r{i}" for i in range(11)])
    source = EmbeddingFile(path)
    assert (source.path, source.dim, source.count) == (path, 3, 11)
    got = [(lo, chunk.copy()) for lo, chunk in source.chunks(4)]
    assert [lo for lo, _ in got] == [0, 4, 8]
    assert np.concatenate([chunk for _, chunk in got]).tobytes() == rows.tobytes()


def test_embedding_file_reads_its_header_and_trailer_on_construction(tmp_path):
    path = tmp_path / "dup.emb"
    write_rows(path, [[1.0], [np.nan]], ["a", "a"])  # the duplicate is found before any row
    with pytest.raises(ValidationError, match="duplicate embedding id 'a'"):
        EmbeddingFile(path)
    write_rows(path, [[1.0], [2.0]], ["a", "b"])
    path.write_bytes(path.read_bytes().removesuffix(b'"b"\n'))
    with pytest.raises(FormatError, match="trailer has 1 entries"):
        EmbeddingFile(path)


def test_a_scan_that_stops_or_raises_mid_file_closes_it(tmp_path):
    # a file left open would raise ResourceWarning, which fails the test
    rows = np.ones((10, 3))
    rows[9, 0] = np.inf
    path = tmp_path / "late.emb"
    write_rows(path, rows, [f"r{i}" for i in range(10)])
    source = EmbeddingFile(path)
    chunks = source.chunks(2)
    assert next(chunks)[0] == 0
    del chunks  # abandoned after one chunk
    with pytest.raises(ValidationError, match="non-finite values in row for id 'r9'"):
        for _ in source.chunks(2):
            pass
    gc.collect()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
FIELD_VALUES = JSON_VALUES | st.lists(st.text(max_size=4), max_size=3) | st.just("n00000001")
ROWS = st.fixed_dictionaries(
    {},
    optional={key: FIELD_VALUES for key in
              ["id", "wnid", "text", "lemmas", "name", "gloss", "score", "ranked", "meta",
               "nsfw", "text_in_image"]},
)
LINES = st.one_of(
    ROWS.map(lambda row: json.dumps(row).encode()),
    JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=40),
)


def _load_pairs(path):
    """A pairs file read as the CLI reads one, gathering its rows from an
    embedding file that holds the id "a" only."""
    embeddings = Path(path).with_suffix(".emb")
    write_embeddings(EmbeddingMatrix(rows=np.ones((1, 2)), ids=["a"]), embeddings)
    return _labelled_rows(path, embeddings, "text")


LOADERS = [load_taxonomy, load_corpus, load_candidates, load_predictions, _load_pairs]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
@settings(
    derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(content=st.lists(LINES, max_size=4).map(b"\n".join))
@example(content=b"[" * 100_000)
@example(content=b'{"id": "a", "wnid": "n00000001", "score": 1' + b"0" * 5000 + b"}")
def test_loaders_raise_only_capsieve_errors(tmp_path, loader, content):
    path = tmp_path / "input.jsonl"
    path.write_bytes(content)
    try:
        loader(path)
    except CapsieveError:
        pass


# Lines that test the reader's fast path against the per-line oracle: rows
# of every kind, right and wrong; the lines "1,2", "[3" and "4]", each
# invalid alone though together one JSON array of three values; a BOM; lines
# holding only U+00A0; a "\ud800" escape; trailing data; undecodable bytes.
ORACLE_FIELDS = {"id": str, "wnid": "wnid", "score": float}
ORACLE_OPTIONAL = {"tags": list, "flag": bool, "tii": "bool or null", "ranked": "wnid list",
                   "meta": "any"}
WNIDS = st.sampled_from(["n00000001", "n12345678", "n1234567", "n00000001 ", "N00000001"])
ORACLE_VALUES = {
    "id": st.text(max_size=4) | st.just("a\ud800") | st.integers(),
    "wnid": WNIDS | st.integers(),
    "score": st.floats() | st.integers() | st.booleans() | st.just(10**400) | st.text(max_size=2),
    "tags": st.lists(st.text(max_size=3) | st.just("\udc80"), max_size=3) | st.text(max_size=2),
    "flag": st.booleans() | st.none() | st.integers(0, 1),
    "tii": st.booleans() | st.none() | st.text(max_size=2),
    "ranked": st.lists(WNIDS, max_size=3) | st.lists(st.integers(), max_size=2, min_size=1),
    "meta": JSON_VALUES,
}
ORACLE_ROWS = st.fixed_dictionaries(
    {name: ORACLE_VALUES[name] for name in ORACLE_FIELDS},
    optional={name: ORACLE_VALUES[name] for name in ORACLE_OPTIONAL},
) | st.fixed_dictionaries({}, optional=ORACLE_VALUES)
ORACLE_LINES = st.one_of(
    st.tuples(ORACLE_ROWS, st.booleans(), st.sampled_from(["", " ", "\t", "\r", "  "])).map(
        lambda t: (json.dumps(t[0], ensure_ascii=t[1]) + t[2]).encode("utf-8", "surrogatepass")
    ),
    st.sampled_from([b"1,2", b"[3", b"4]", b"", b"  ", b"\xc2\xa0", b"\xc2\xa0\xc2\xa0 ",
                     b'\xef\xbb\xbf{"id": "a", "wnid": "n00000001", "score": 1}',
                     b'{"id": "\\ud800", "wnid": "n00000001", "score": 1}',
                     b'{"id": "a", "wnid": "n00000001", "score": 1} x',
                     b'{"id": "a", "wnid": "n00000001", "score": 1}{}',
                     b'{"id": "\xff", "wnid": "n00000001", "score": 1}', b"[]", b"7"]),
    JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=12),
)


def _outcome(reader, path):
    try:
        return repr(reader(path, ORACLE_FIELDS, ORACLE_OPTIONAL))
    except FormatError as exc:
        return ("FormatError", str(exc), exc.line)


@settings(derandomize=True, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(ORACLE_LINES, max_size=8), newline=st.sampled_from([b"\n", b"\r\n"]),
       rows=st.sampled_from([corpus._JSONL_ROWS, 1, 2, 3]))
@example(lines=[b"1,2", b"[3", b"4]"], newline=b"\n", rows=corpus._JSONL_ROWS)
@example(lines=[b'{"id": "a", "wnid": "n00000001", "score": 1, "tags": [1]}',
                b'{"id": "b", "wnid": "n00000001"}'], newline=b"\n", rows=corpus._JSONL_ROWS)
@example(lines=[b'{"id": "a", "wnid": "n00000001", "score": 1, "tags": [1]}',
                b'{"id": "b", "wnid": "n00000001"}'], newline=b"\n", rows=1)
@example(lines=[b'{"id": "a", "wnid": "n1", "score": 1}', b"[" * 100_000], newline=b"\n",
         rows=corpus._JSONL_ROWS)
@example(lines=[b'{"id": "a", "wnid": "n1", "score": 1}', b"[" * 100_000], newline=b"\n",
         rows=1)
def test_read_jsonl_agrees_with_per_line_oracle(tmp_path, lines, newline, rows):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(newline.join(lines))
    with mock.patch.object(corpus, "_JSONL_ROWS", rows):  # rows per chunk of the parse
        assert _outcome(read_jsonl, path) == _outcome(read_jsonl_per_line, path)


# One fault for a corpus line, made from the row it replaces.
CORPUS_FAULTS = {
    "bad JSON": lambda row: "{not json",
    "not an object": lambda row: json.dumps([row["id"]]),
    "missing field": lambda row: json.dumps({"id": row["id"]}),
    "wrong kind": lambda row: json.dumps({**row, "nsfw": "no"}),
    "bad meta": lambda row: json.dumps({**row, "meta": [1]}),
}


@st.composite
def corpus_files(draw) -> str:
    """A corpus file of 1-10 rows with blank lines among them, and up to
    two faults, each at any row: one of CORPUS_FAULTS, or a duplicate id."""
    count = draw(st.integers(1, 10))
    rows = [{"id": f"i{k}", "text": draw(st.text(max_size=4)), "nsfw": draw(st.booleans()),
             "text_in_image": draw(st.none() | st.booleans()),
             "meta": draw(st.none() | st.just({"k": [1]}))} for k in range(count)]
    lines = [json.dumps(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, count - 1))
        fault = draw(st.sampled_from([*CORPUS_FAULTS, "duplicate id"]))
        if fault == "duplicate id":
            lines[at] = json.dumps({**rows[at], "id": rows[draw(st.integers(0, count - 1))]["id"]})
        else:
            lines[at] = CORPUS_FAULTS[fault](rows[at])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    return "\n".join(lines) + "\n"


def _corpus_outcome(path):
    """Every id, text and flag of a corpus file, or its fault. `load_corpus`
    reads the same flags, and the same fault whichever ids it keeps."""
    try:
        loaded = read_captions(path)
    except CapsieveError as exc:
        fault = type(exc).__name__, str(exc)
        for keep in (None, {"i0"}, set()):
            with pytest.raises(CapsieveError) as info:
                load_corpus(path, keep)
            assert (type(info.value).__name__, str(info.value)) == fault
        return fault
    flags = caption_flags(loaded)
    assert load_corpus(path) == flags
    assert load_corpus(path, {"i0", "absent"}) == {k: v for k, v in flags.items() if k == "i0"}
    return loaded.ids, loaded.texts, loaded.nsfw, loaded.text_in_image


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=corpus_files())
def test_a_corpus_reads_the_same_in_chunks_of_any_size(tmp_path, content):
    path = tmp_path / "corpus.jsonl"
    path.write_text(content, encoding="utf-8")
    with mock.patch.object(corpus, "_JSONL_ROWS", 10**6):  # the whole file in one chunk
        whole = _corpus_outcome(path)
    for rows in (1, 2, 3, corpus._JSONL_ROWS):
        with mock.patch.object(corpus, "_JSONL_ROWS", rows):
            assert _corpus_outcome(path) == whole, rows
            if not isinstance(whole[0], str):  # no fault: each chunk holds at most `rows` rows
                sizes = [len(chunk) for chunk in caption_chunks(path)]
                assert sum(sizes) == len(whole[0]) and max(sizes) <= rows


def _literals(node) -> Iterator[tuple[int, str]]:
    """(line, text) of each string literal under `node`, an f-string as one
    literal with "{}" for each value."""
    if isinstance(node, ast.JoinedStr):
        yield node.lineno, "".join(part.value if isinstance(part, ast.Constant) else "{}"
                                   for part in node.values)
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            yield node.lineno, node.value
    else:
        for child in ast.iter_child_nodes(node):
            yield from _literals(child)


def id_lookup_errors(source: str) -> list[str]:
    """Each `raise` in a module's source whose message is a duplicate-key or
    missing-embedding error, as "line N: message": a string that starts with
    "duplicate " or holds " embedding for id"."""
    return [
        f"line {line}: {text}"
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)
        for line, text in _literals(node)
        if text.startswith("duplicate ") or " embedding for id" in text
    ]


def test_only_corpus_reports_duplicate_and_missing_ids():
    # Every duplicate goes through `index_keys` and every missing embedding
    # row through `EmbeddingMatrix.positions`, so each is worded in one place.
    sources = sorted(Path(capsieve.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = {p.name: id_lookup_errors(p.read_text(encoding="utf-8"))
             for p in sources if p.name != "corpus.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


@pytest.mark.parametrize(
    "source, found",
    [
        ('raise ValidationError(f"duplicate wnid {w}")', ["line 1: duplicate wnid {}"]),
        ('raise E("duplicate id " + repr(k))', ["line 1: duplicate id "]),
        ('raise MissingKeyError(f"missing {kind} embedding for id {rid!r}") from None',
         ["line 1: missing {} embedding for id {}"]),
        ('if x:\n    raise E(\n        f"duplicate {what}")', ["line 3: duplicate {}"]),
        ('raise E(f"no prediction for instance {i!r}")', []),
        ('log.info("duplicate rows")', []),
        ('raise E(f"{n} duplicates")', []),
    ],
)
def test_id_lookup_scan_finds_each_message(source, found):
    assert id_lookup_errors(source) == found
