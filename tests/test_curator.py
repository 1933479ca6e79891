from __future__ import annotations

import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capsieve.corpus import (
    EmbeddingFile,
    EmbeddingMatrix,
    load_corpus,
    load_embeddings,
    write_embeddings,
)
from capsieve.curator import (
    AssembleOptions,
    Candidates,
    DatasetManifest,
    assemble,
    load_candidates,
    load_manifest,
    relative_frequencies,
    score_candidates,
    threshold_sweep,
    top_k_per_class,
    write_candidates,
    write_manifest,
)
from capsieve.errors import MissingKeyError, ValidationError
from capsieve.matcher import LemmaMatch, write_matches
from capsieve.vectorops import cosine

from conftest import (
    candidate_rows,
    corpus_rows,
    make_candidates,
    make_corpus,
    make_flags,
    make_matches,
    random_matrix,
    write_jsonl,
)
from oracles import assemble_numpy, threshold_sweep_numpy, top_k_per_class_numpy


def match(instance_id, wnid):
    return LemmaMatch(instance_id=instance_id, wnid=wnid, lemma="x", span=(0, 1))


def cand(instance_id, wnid, score):
    return (instance_id, wnid, score)


def embeddings(ids, rows):
    return EmbeddingMatrix(rows=np.asarray(rows, dtype=np.float32), ids=list(ids))


def test_score_candidates_one_per_pair():
    caption = embeddings(["i1"], [[1.0, 0.0]])
    synsets = embeddings(["n00000001", "n00000002"], [[1.0, 0.0], [0.0, 1.0]])
    matches = [match("i1", "n00000001"), match("i1", "n00000002"), match("i1", "n00000001")]
    out = score_candidates(make_matches(matches), caption, synsets)
    assert list(zip(out.ids, out.wnids)) == [("i1", "n00000001"), ("i1", "n00000002")]
    assert out.scores[0] == pytest.approx(1.0, abs=1e-12)
    assert out.scores[1] == 0.0


def test_score_candidates_matches_cosine_oracle(rng):
    ids = [f"i{j}" for j in range(8)]
    wnids = [f"n{j:08d}" for j in range(1, 5)]
    captions = random_matrix(rng, ids, 6)
    synsets = random_matrix(rng, wnids, 6)
    drawn = [(ids[int(rng.integers(0, 8))], wnids[int(rng.integers(0, 4))]) for _ in range(30)]
    # each caption's matches one run, as `find_matches` gives them
    matches = make_matches(match(i, w) for i, w in sorted(drawn, key=lambda pair: pair[0]))
    for instance_id, wnid, score in candidate_rows(score_candidates(matches, captions, synsets)):
        expected = cosine(
            captions.rows[captions.index[instance_id]], synsets.rows[synsets.index[wnid]]
        )
        assert score == expected


def test_score_candidates_across_pair_blocks(rng):
    # 700 distinct pairs span 22 blocks of 32 at d = 512. Each caption's
    # matches are one run, as `find_matches` gives them, and the runs are out
    # of caption row order; repeats within a run keep first order
    ids = [f"i{j}" for j in range(70)]
    wnids = [f"n{j:08d}" for j in range(1, 11)]
    captions = random_matrix(rng, ids, 512)
    synsets = random_matrix(rng, wnids, 512)
    runs = [[(ids[int(i)], wnids[int(w)]) for w in rng.permutation(10)]
            for i in rng.permutation(70)]
    order = [pair for run in runs for pair in run]
    matches = [match(i, w) for run in runs for i, w in run + run[::3]]
    out = score_candidates(make_matches(matches), captions, synsets)
    assert list(zip(out.ids, out.wnids)) == order
    for instance_id, wnid, score in candidate_rows(out):
        expected = cosine(
            captions.rows[captions.index[instance_id]], synsets.rows[synsets.index[wnid]]
        )
        assert score == expected


def test_score_candidates_missing_embedding():
    captions = embeddings(["i1"], [[1.0, 0.0]])
    synsets = embeddings(["n00000001"], [[1.0, 0.0]])
    with pytest.raises(MissingKeyError, match="i9"):
        score_candidates(make_matches([match("i9", "n00000001")]), captions, synsets)
    with pytest.raises(MissingKeyError, match="n00000009"):
        score_candidates(make_matches([match("i1", "n00000009")]), captions, synsets)
    # the first pair with a missing row is named, its caption before its synset
    with pytest.raises(MissingKeyError, match="synset text embedding for id 'n00000009'"):
        both = make_matches([match("i1", "n00000009"), match("i9", "n00000001")])
        score_candidates(both, captions, synsets)


# At d = 2**16 + 1 an embedding file is read in chunks of 3 rows, each pair
# is a block of its own, and a contraction is long enough for einsum to add
# it up in pieces. At d = 8, read in chunks of 3 rows too, a chunk's pairs
# share one block.
WIDE = 2**16 + 1


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dim=st.sampled_from([WIDE, 8]), count=st.integers(7, 12), data=st.data())
def test_scoring_from_the_file_equals_scoring_the_loaded_rows(tmp_path, dim, count, data):
    # file rows shuffled against match order, pairs over at least 3 chunks,
    # several wnids per caption and one chunk that holds exactly one pair;
    # each caption's matches are one run, as `find_matches` gives them
    rng = np.random.default_rng(count)
    ids = [f"i{row}" for row in rng.permutation(count)]
    wnids = [f"n{j:08d}" for j in range(1, 5)]
    path = tmp_path / "captions.emb"
    write_embeddings(random_matrix(rng, ids, dim), path)
    synsets = random_matrix(rng, wnids, dim)
    labels = data.draw(st.lists(st.lists(st.sampled_from(wnids), min_size=1, max_size=3),
                                min_size=count, max_size=count))
    lone = 3 * data.draw(st.integers(0, count // 3 - 1))  # the first row of a one-pair chunk
    labels[lone : lone + 3] = [[wnids[0]], [], []]
    runs = [[(ids[row], wnid) for wnid in labels[row]]
            for row in data.draw(st.permutations(range(count)))]
    matches = [match(*pair) for run in runs for pair in run + run[: len(run) // 2]]
    with mock.patch("capsieve.corpus._CHECK_VALUES", 3 * dim):  # the default at WIDE
        streamed = score_candidates(make_matches(matches), EmbeddingFile(path), synsets)
        loaded = load_embeddings(path)
        in_memory = score_candidates(make_matches(matches), loaded, synsets)
    assert (streamed.ids, streamed.wnids) == (in_memory.ids, in_memory.wnids)
    assert np.array(streamed.scores).tobytes() == np.array(in_memory.scores).tobytes()
    assert list(zip(streamed.ids, streamed.wnids)) == list(dict.fromkeys(sum(runs, [])))
    for instance_id, wnid, score in candidate_rows(streamed):
        caption, synset = loaded.rows[loaded.index[instance_id]], synsets.rows[synsets.index[wnid]]
        assert score == cosine(caption, synset)


def test_scoring_from_a_file_holds_one_chunk_and_the_pairs(tmp_path, rng):
    # 20 000 x 256 rows (19.5 MiB), read in chunks of 256 rows (256 KiB)
    count, dim = 20_000, 256
    ids = [f"i{row}" for row in range(count)]
    path = tmp_path / "captions.emb"
    write_embeddings(random_matrix(rng, ids, dim), path)
    wnids = [f"n{j:08d}" for j in range(1, 11)]
    synsets = random_matrix(rng, wnids, dim)
    matches = [match(ids[int(row)], wnids[int(row) % 10]) for row in rng.permutation(count)[:2000]]
    source = EmbeddingFile(path)
    tracemalloc.start()
    try:
        out = score_candidates(make_matches(matches), source, synsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 2000
    chunk = 2**18
    assert peak < chunk + 2**20, f"peak {peak / 2**20:.2f} MiB for a 19.5 MiB file"


def test_score_candidates_checks_the_dimensions_before_the_caption_rows(tmp_path):
    path = tmp_path / "captions.emb"
    write_embeddings(embeddings(["i1"], [[1.0, 2.0]]), path)
    path.write_bytes(path.read_bytes().replace(np.float32(2.0).tobytes(),
                                               np.float32(np.nan).tobytes()))
    synsets = embeddings(["n00000001"], [[1.0, 0.0, 0.0]])
    message = "^dimension mismatch: captions 2 vs synset texts 3$"
    with pytest.raises(ValidationError, match=message):
        score_candidates(make_matches([match("i1", "n00000001")]), EmbeddingFile(path), synsets)
    with pytest.raises(ValidationError, match="non-finite values in row for id 'i1'"):
        # no pair: every row is still checked
        score_candidates(make_matches([]), EmbeddingFile(path), synsets)


def test_score_candidates_refuses_an_instance_split_over_two_runs():
    # two `find_matches` results concatenated: i1's second run would repeat
    # its (i1, n00000001) candidate, and i2 resumes first
    captions = embeddings(["i1", "i2", "i3"], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    synsets = embeddings(["n00000001", "n00000002"], [[1.0, 0.0], [0.0, 1.0]])
    pairs = [("i1", "n00000001"), ("i2", "n00000001"), ("i3", "n00000002"),
             ("i3", "n00000001"), ("i2", "n00000002"), ("i1", "n00000001")]
    with pytest.raises(ValidationError, match=r"^matches of instance 'i2' are not one run$"):
        score_candidates(make_matches([match(*pair) for pair in pairs]), captions, synsets)
    runs = sorted(pairs, key=lambda pair: pair[0])  # the same pairs, each instance one run
    out = score_candidates(make_matches([match(*pair) for pair in runs]), captions, synsets)
    assert list(zip(out.ids, out.wnids)) == list(dict.fromkeys(runs))

def test_sweep_trivial_points():
    candidates = make_candidates([cand("a", "n00000001", 0.5), cand("b", "n00000002", 0.3)])
    beyond = threshold_sweep(candidates, [0.9])
    assert beyond[0].n_classes == 0 and beyond[0].n_instances == 0
    everything = threshold_sweep(candidates, [-1.0])
    assert everything[0].n_classes == 2 and everything[0].n_instances == 2


def test_sweep_monotone(rng):
    for _ in range(30):
        n = int(rng.integers(1, 200))
        candidates = make_candidates(
            cand(f"i{j}", f"n{int(rng.integers(1, 20)):08d}", float(rng.uniform(-1, 1)))
            for j in range(n)
        )
        thresholds = sorted(set(float(t) for t in rng.uniform(-1.1, 1.1, size=9)))
        points = threshold_sweep(candidates, thresholds)
        for earlier, later in zip(points, points[1:]):
            assert earlier.n_instances >= later.n_instances
            assert earlier.n_classes >= later.n_classes
        for p in points:
            if p.n_classes > 0:
                assert p.n_instances >= p.n_classes


def test_sweep_counts_match_recount_oracle(rng):
    rows = [
        cand(f"i{j}", f"n{int(rng.integers(1, 6)):08d}", float(rng.uniform(-1, 1)))
        for j in range(100)
    ]
    for point in threshold_sweep(make_candidates(rows), [-0.5, 0.0, 0.5]):
        kept = [(i, w, score) for i, w, score in rows if score >= point.threshold]
        assert point.n_instances == len(kept)
        assert point.n_classes == len({w for _, w, _ in kept})


def test_sweep_requires_increasing_thresholds():
    with pytest.raises(ValidationError):
        threshold_sweep(make_candidates([]), [0.1, 0.1])


def test_assemble_multi_label_drop():
    flags = make_flags(["i1", "i2"])
    candidates = make_candidates([
        cand("i1", "n00000001", 0.9),
        cand("i1", "n00000002", 0.8),
        cand("i2", "n00000001", 0.7),
    ])
    manifest = assemble(candidates, 0.5, flags, AssembleOptions(drop_multi_label=True))
    assert list(zip(manifest.rows.ids, manifest.rows.wnids)) == [("i2", "n00000001")]
    assert manifest.drop_ledger["multi_label"] == 2


def test_assemble_multi_label_keep_best():
    flags = make_flags(["i1"])
    candidates = make_candidates([cand("i1", "n00000002", 0.8), cand("i1", "n00000001", 0.8)])
    manifest = assemble(candidates, 0.5, flags, AssembleOptions(drop_multi_label=False))
    # equal scores: the smaller wnid wins; manifest stays single-label
    assert list(zip(manifest.rows.ids, manifest.rows.wnids)) == [("i1", "n00000001")]
    assert manifest.drop_ledger["multi_label"] == 1


def test_assemble_threshold_precedes_multi_label():
    flags = make_flags(["i1"])
    candidates = make_candidates([cand("i1", "n00000001", 0.9), cand("i1", "n00000002", 0.2)])
    manifest = assemble(candidates, 0.5, flags, AssembleOptions(drop_multi_label=True))
    # the second label fell below the threshold first, so i1 is single-label
    assert len(manifest.rows) == 1
    assert manifest.drop_ledger == {
        "below_threshold": 1,
        "multi_label": 0,
        "nsfw": 0,
        "text_in_image": 0,
    }


def test_assemble_nsfw_gate():
    flags = make_flags(["i1", "i2"], nsfw=[True, False])
    candidates = make_candidates([cand("i1", "n00000001", 0.9), cand("i2", "n00000001", 0.9)])
    dropped = assemble(candidates, 0.5, flags, AssembleOptions(drop_nsfw=True))
    assert dropped.rows.ids == ["i2"]
    kept = assemble(candidates, 0.5, flags, AssembleOptions(drop_nsfw=False))
    assert kept.rows.ids == ["i1", "i2"]


def test_assemble_text_in_image_gate():
    flags = make_flags(["i1", "i2", "i3"], text_in_image=[True, False, None])
    candidates = make_candidates(cand(i, "n00000001", 0.9) for i in ["i1", "i2", "i3"])
    manifest = assemble(candidates, 0.5, flags, AssembleOptions(drop_text_in_image=True))
    # only an explicit True drops; unset flags pass through
    assert manifest.rows.ids == ["i2", "i3"]
    assert manifest.drop_ledger["text_in_image"] == 1


def test_assemble_ledger_sums(rng):
    for trial in range(25):
        n = int(rng.integers(1, 120))
        ids = [f"i{j}" for j in range(40)]
        flags = make_flags(
            ids,
            nsfw=[bool(rng.integers(0, 2)) for _ in range(40)],
            text_in_image=[
                [True, False, None][int(rng.integers(0, 3))] for _ in range(40)
            ],
        )
        seen = set()
        candidates = []
        for _ in range(n):
            key = (ids[int(rng.integers(0, 40))], f"n{int(rng.integers(1, 8)):08d}")
            if key in seen:
                continue
            seen.add(key)
            candidates.append(cand(key[0], key[1], float(rng.uniform(-1, 1))))
        options = AssembleOptions(
            drop_multi_label=bool(rng.integers(0, 2)),
            drop_nsfw=bool(rng.integers(0, 2)),
            drop_text_in_image=bool(rng.integers(0, 2)),
        )
        threshold = float(rng.uniform(-1, 1))
        manifest = assemble(make_candidates(candidates), threshold, flags, options)
        assert sum(manifest.drop_ledger.values()) == len(candidates) - len(manifest.rows)
        assert all(score >= threshold for score in manifest.rows.scores)
        kept = set(zip(manifest.rows.ids, manifest.rows.wnids))
        assert kept <= {(i, w) for i, w, score in candidates if score >= threshold}
        counts: dict[str, int] = {}
        for wnid in manifest.rows.wnids:
            counts[wnid] = counts.get(wnid, 0) + 1
        assert counts == manifest.class_counts


def test_assemble_missing_instance():
    with pytest.raises(MissingKeyError, match="ghost"):
        assemble(make_candidates([cand("ghost", "n00000001", 0.9)]), 0.5, make_flags(["i1"]))


def test_assemble_rejects_non_finite_threshold():
    with pytest.raises(ValidationError):
        assemble(make_candidates([]), float("nan"), make_flags(["i1"]))


def test_top_k_keeps_small_classes():
    manifest = DatasetManifest(
        rows=make_candidates(cand(f"i{j}", "n00000001", 0.9 - j / 100) for j in range(3)),
        threshold=0.0,
    )
    assert top_k_per_class(manifest, 50).rows == manifest.rows


@pytest.mark.parametrize("k", [sys.maxsize + 1, int(1e308)])
def test_top_k_past_sys_maxsize_keeps_every_row(k):
    # islice refuses a stop past sys.maxsize; the CLI takes --top-k 1e308
    manifest = DatasetManifest(
        rows=make_candidates(cand(f"i{j}", "n00000001", 0.9 - j / 100) for j in range(3)),
        threshold=0.0,
    )
    assert top_k_per_class(manifest, k).rows == manifest.rows


def test_top_k_matches_full_sort_oracle(rng):
    rows = []
    scores = {}
    for j in range(100):
        rid = f"i{j:03d}"
        score = float(rng.uniform(0, 1))
        rows.append(cand(rid, "n00000001", score))
        scores[rid] = score
    manifest = DatasetManifest(rows=make_candidates(rows), threshold=0.0)
    kept = top_k_per_class(manifest, 50).rows
    expected = sorted(scores, key=lambda rid: (-scores[rid], rid))[:50]
    assert sorted(kept.ids) == sorted(expected)


def test_top_k_tie_broken_by_id():
    rows = [cand("zz", "n00000001", 0.5), cand("aa", "n00000001", 0.5), cand("mm", "n00000001", 0.5)]
    manifest = DatasetManifest(rows=make_candidates(rows), threshold=0.0)
    kept = top_k_per_class(manifest, 2).rows
    assert sorted(kept.ids) == ["aa", "mm"]


def test_top_k_idempotent(rng):
    rows = [
        cand(f"i{j}", f"n{int(rng.integers(1, 5)):08d}", float(rng.uniform(0, 1)))
        for j in range(60)
    ]
    manifest = DatasetManifest(rows=make_candidates(rows), threshold=0.0)
    once = top_k_per_class(manifest, 7)
    twice = top_k_per_class(once, 7)
    assert twice.rows == once.rows
    assert twice.class_counts == once.class_counts


def test_relative_frequencies():
    manifest = DatasetManifest(
        rows=make_candidates([
            cand("i1", "n00000001", 1.0),
            cand("i2", "n00000001", 1.0),
            cand("i3", "n00000001", 1.0),
            cand("i4", "n00000002", 1.0),
        ]),
        threshold=0.0,
    )
    freqs = relative_frequencies(manifest)
    assert freqs == {"n00000001": 0.75, "n00000002": 0.25}


def test_relative_frequencies_single_class():
    manifest = DatasetManifest(rows=make_candidates([cand("i1", "n00000001", 1.0)]), threshold=0.0)
    assert relative_frequencies(manifest) == {"n00000001": 1.0}


def test_relative_frequencies_recount_oracle(rng):
    rows = [
        cand(f"i{j}", f"n{int(rng.integers(1, 11)):08d}", 1.0) for j in range(173)
    ]
    manifest = DatasetManifest(rows=make_candidates(rows), threshold=0.0)
    freqs = relative_frequencies(manifest)
    assert abs(sum(freqs.values()) - 1.0) <= 1e-12
    for wnid, f in freqs.items():
        assert f == sum(1 for _, w, _ in rows if w == wnid) / len(rows)


def test_relative_frequencies_empty():
    manifest = DatasetManifest(rows=make_candidates([]), threshold=0.0)
    with pytest.raises(ValidationError):
        relative_frequencies(manifest)


def test_load_manifest_names_both_lines_of_a_repeated_instance(tmp_path):
    path = tmp_path / "manifest.jsonl"
    rows = [cand("i1", "n00000001", 0.4), cand("i2", "n00000001", 0.9), cand("i1", "n00000002", 0.9)]
    lines = [json.dumps({"id": i, "wnid": w, "score": s}) for i, w, s in rows]
    path.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load_manifest(path)
    assert str(info.value) == f"{path}: line 4: duplicate instance id 'i1' (first seen on line 1)"
    assert (info.value.path, info.value.line) == (path, 4)


def test_candidates_file_round_trip(tmp_path, rng):
    candidates = make_candidates(
        cand(f"i{j}", f"n{int(rng.integers(1, 5)):08d}", float(rng.uniform(-1, 1)))
        for j in range(20)
    )
    path = tmp_path / "candidates.jsonl"
    write_candidates(candidates, path)
    assert load_candidates(path) == candidates
    again = tmp_path / "candidates2.jsonl"
    write_candidates(load_candidates(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_manifest_file_round_trip(tmp_path):
    manifest = DatasetManifest(
        rows=make_candidates([cand("i1", "n00000001", 0.9), cand("i2", "n00000002", 0.7)]),
        threshold=0.6,
        drop_ledger={"below_threshold": 3, "multi_label": 0, "nsfw": 1, "text_in_image": 0},
    )
    rows_path = tmp_path / "manifest.jsonl"
    meta_path = tmp_path / "manifest.meta.json"
    write_manifest(manifest, rows_path, meta_path)
    loaded = load_manifest(rows_path)
    assert loaded.rows == manifest.rows
    assert loaded.class_counts == manifest.class_counts
    sidecar = json.loads(meta_path.read_text(encoding="utf-8"))
    assert sidecar == {
        "threshold": manifest.threshold,
        "counts": manifest.class_counts,
        "drop_ledger": manifest.drop_ledger,
    }


def test_candidates_columns_must_align_and_be_finite():
    with pytest.raises(ValidationError, match="columns differ"):
        Candidates(ids=["i1", "i2"], wnids=["n00000001"], scores=[0.5, 0.5])
    with pytest.raises(ValidationError, match="non-finite score for candidate \\(i2, n00000002\\)"):
        Candidates(ids=["i1", "i2"], wnids=["n00000001", "n00000002"], scores=[0.5, np.inf])
    candidates = make_candidates([cand("i1", "n00000001", 0.5)])
    with pytest.raises(TypeError):
        candidates.scores[0] = 1.0  # the scores are frozen with the object


WRITTEN_TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é 😀", "\ud800"])
WRITTEN_SCORES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e300, -1e300, 0.1, 1.0]
)


@settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(WRITTEN_TEXT, WRITTEN_TEXT, WRITTEN_SCORES), max_size=6),
       spans=st.lists(st.integers(0, 10**9), min_size=12, max_size=12))
def test_writers_give_the_bytes_of_json_dumps(tmp_path, rows, spans):
    path = tmp_path / "candidates.jsonl"
    write_candidates(make_candidates(rows), path)
    expected = "".join(json.dumps({"id": i, "wnid": w, "score": s}) + "\n" for i, w, s in rows)
    assert path.read_bytes() == expected.encode()

    matches = [LemmaMatch(instance_id=i, wnid=w, lemma=w + i, span=(spans[j], spans[j + 6]))
               for j, (i, w, _) in enumerate(rows)]
    write_matches(make_matches(matches), path)
    expected = "".join(
        json.dumps({"id": m.instance_id, "wnid": m.wnid, "lemma": m.lemma, "start": m.span[0],
                    "end": m.span[1]}) + "\n"
        for m in matches
    )
    assert path.read_bytes() == expected.encode()


# -- the standard-library bookkeeping against the numpy oracles ---------------
#
# Few ids, wnids and score values, so that scores tie within and across
# classes, instances carry several labels, and thresholds land on scores.
# A pair may repeat, so two labels of an instance can tie on score and wnid.

TIE_SCORES = [-1.0, -0.5, -0.0, 0.0, 0.3, 0.5, 1.0]
SCORES = st.sampled_from(TIE_SCORES) | st.integers(-1, 1) | st.floats(-1, 1)
INSTANCES = [f"i{j}" for j in range(5)]
ROWS = st.lists(
    st.tuples(st.sampled_from(INSTANCES),
              st.sampled_from(["n00000001", "n00000002", "n00000003"]), SCORES),
    max_size=30,
)
THRESHOLDS = st.lists(SCORES, min_size=1, max_size=6).map(lambda ts: sorted(set(map(float, ts))))


def exact_rows(candidates):
    """The rows with each score as its repr, so -0.0 and 0.0 differ."""
    return [(i, w, repr(score)) for i, w, score in candidate_rows(candidates)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rows=ROWS, thresholds=THRESHOLDS)
def test_sweep_equals_the_numpy_oracle(rows, thresholds):
    candidates = make_candidates(rows)
    assert threshold_sweep(candidates, thresholds) == threshold_sweep_numpy(candidates, thresholds)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=ROWS, threshold=SCORES, nsfw=st.lists(st.booleans(), min_size=5, max_size=5),
       text_in_image=st.lists(st.sampled_from([True, False, None]), min_size=5, max_size=5),
       drops=st.tuples(st.booleans(), st.booleans(), st.booleans()), k=st.integers(1, 4))
def test_assemble_and_top_k_equal_the_numpy_oracles(tmp_path, rows, threshold, nsfw,
                                                    text_in_image, drops, k):
    path = tmp_path / "corpus.jsonl"
    corpus = make_corpus(["t"] * 5, ids=INSTANCES, nsfw=nsfw, text_in_image=text_in_image)
    write_jsonl(path, corpus_rows(corpus))
    flags = load_corpus(path)
    options = AssembleOptions(*drops)
    candidates = make_candidates(rows)
    got = assemble(candidates, threshold, flags, options)
    # the flags of the candidates alone, as the `assemble` stage loads them, give the same manifest
    assert assemble(candidates, threshold, load_corpus(path, set(candidates.ids)), options) == got
    expected = assemble_numpy(candidates, threshold, flags, options)
    assert exact_rows(got.rows) == exact_rows(expected.rows)
    assert (got.drop_ledger, got.class_counts) == (expected.drop_ledger, expected.class_counts)
    assert repr(got.threshold) == repr(expected.threshold)
    assert exact_rows(top_k_per_class(got, k).rows) == exact_rows(
        top_k_per_class_numpy(expected, k).rows
    )
    for manifest in (got, top_k_per_class(got, k)):  # one row per instance, none below threshold
        assert len(set(manifest.rows.ids)) == len(manifest.rows)
        assert all(score >= manifest.threshold for score in manifest.rows.scores)


# integers, signed zeros, and floats of every size, as a JSONL file may hold them
JSON_SCORES = (st.integers(-(2**70), 2**70) | st.sampled_from([0, -0.0, 0.0, 1, -1])
               | st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(st.sampled_from(INSTANCES),
                               st.sampled_from(["n00000001", "n00000002"]), JSON_SCORES),
                     max_size=10, unique_by=lambda row: row[:2]),
       thresholds=st.lists(JSON_SCORES, min_size=1, max_size=4).map(
           lambda ts: sorted(set(map(float, ts)))))
def test_jsonl_scores_read_as_numpy_read_them(tmp_path, rows, thresholds):
    def jsonl(rows):
        return "".join(json.dumps({"id": i, "wnid": w, "score": s}) + "\n" for i, w, s in rows)

    path = tmp_path / "candidates.jsonl"
    path.write_text(jsonl(rows), encoding="utf-8")
    loaded = load_candidates(path)
    as_numpy = np.array([s for _, _, s in rows], dtype=np.float64)
    assert list(map(repr, loaded.scores)) == list(map(repr, as_numpy.tolist()))
    assert threshold_sweep(loaded, thresholds) == threshold_sweep_numpy(loaded, thresholds)
    again = tmp_path / "again.jsonl"
    write_candidates(loaded, again)
    expected = jsonl((i, w, s) for (i, w, _), s in zip(rows, as_numpy.tolist()))
    assert again.read_text(encoding="utf-8") == expected
    one_per_id = {i: (i, w, s) for i, w, s in rows}.values()  # a manifest row per instance
    write_candidates(make_candidates(one_per_id), path)
    if one_per_id:
        lowest = np.min(np.array([s for _, _, s in one_per_id], dtype=np.float64))
        assert load_manifest(path).threshold == lowest  # -0.0 and 0.0 may swap
