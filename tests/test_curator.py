from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capsieve.corpus import EmbeddingMatrix
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

from conftest import candidate_rows, make_candidates, make_corpus, random_matrix


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
    out = score_candidates(matches, caption, synsets)
    assert list(zip(out.ids, out.wnids)) == [("i1", "n00000001"), ("i1", "n00000002")]
    assert out.scores[0] == pytest.approx(1.0, abs=1e-12)
    assert out.scores[1] == 0.0


def test_score_candidates_matches_cosine_oracle(rng):
    ids = [f"i{j}" for j in range(8)]
    wnids = [f"n{j:08d}" for j in range(1, 5)]
    captions = random_matrix(rng, ids, 6)
    synsets = random_matrix(rng, wnids, 6)
    matches = [
        match(ids[int(rng.integers(0, 8))], wnids[int(rng.integers(0, 4))]) for _ in range(30)
    ]
    for instance_id, wnid, score in candidate_rows(score_candidates(matches, captions, synsets)):
        expected = cosine(
            captions.rows[captions.index[instance_id]], synsets.rows[synsets.index[wnid]]
        )
        assert score == expected


def test_score_candidates_across_pair_blocks(rng):
    # 700 distinct pairs span three blocks of 256; repeats keep first order
    ids = [f"i{j}" for j in range(70)]
    wnids = [f"n{j:08d}" for j in range(1, 11)]
    captions = random_matrix(rng, ids, 512)
    synsets = random_matrix(rng, wnids, 512)
    pairs = [(i, w) for i in ids for w in wnids]
    order = [pairs[int(j)] for j in rng.permutation(len(pairs))]
    matches = [match(i, w) for i, w in order + order[::3]]
    out = score_candidates(matches, captions, synsets)
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
        score_candidates([match("i9", "n00000001")], captions, synsets)
    with pytest.raises(MissingKeyError, match="n00000009"):
        score_candidates([match("i1", "n00000009")], captions, synsets)
    # the first pair with a missing row is named, its caption before its synset
    with pytest.raises(MissingKeyError, match="synset text embedding for id 'n00000009'"):
        score_candidates([match("i1", "n00000009"), match("i9", "n00000001")], captions, synsets)


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
    corpus = make_corpus(["a", "b"], ids=["i1", "i2"])
    candidates = make_candidates([
        cand("i1", "n00000001", 0.9),
        cand("i1", "n00000002", 0.8),
        cand("i2", "n00000001", 0.7),
    ])
    manifest = assemble(candidates, 0.5, corpus, AssembleOptions(drop_multi_label=True))
    assert list(zip(manifest.rows.ids, manifest.rows.wnids)) == [("i2", "n00000001")]
    assert manifest.drop_ledger["multi_label"] == 2


def test_assemble_multi_label_keep_best():
    corpus = make_corpus(["a"], ids=["i1"])
    candidates = make_candidates([cand("i1", "n00000002", 0.8), cand("i1", "n00000001", 0.8)])
    manifest = assemble(candidates, 0.5, corpus, AssembleOptions(drop_multi_label=False))
    # equal scores: the smaller wnid wins; manifest stays single-label
    assert list(zip(manifest.rows.ids, manifest.rows.wnids)) == [("i1", "n00000001")]
    assert manifest.drop_ledger["multi_label"] == 1


def test_assemble_threshold_precedes_multi_label():
    corpus = make_corpus(["a"], ids=["i1"])
    candidates = make_candidates([cand("i1", "n00000001", 0.9), cand("i1", "n00000002", 0.2)])
    manifest = assemble(candidates, 0.5, corpus, AssembleOptions(drop_multi_label=True))
    # the second label fell below the threshold first, so i1 is single-label
    assert len(manifest.rows) == 1
    assert manifest.drop_ledger == {
        "below_threshold": 1,
        "multi_label": 0,
        "nsfw": 0,
        "text_in_image": 0,
    }


def test_assemble_nsfw_gate():
    corpus = make_corpus(["a", "b"], ids=["i1", "i2"], nsfw=[True, False])
    candidates = make_candidates([cand("i1", "n00000001", 0.9), cand("i2", "n00000001", 0.9)])
    dropped = assemble(candidates, 0.5, corpus, AssembleOptions(drop_nsfw=True))
    assert dropped.rows.ids == ["i2"]
    kept = assemble(candidates, 0.5, corpus, AssembleOptions(drop_nsfw=False))
    assert kept.rows.ids == ["i1", "i2"]


def test_assemble_text_in_image_gate():
    corpus = make_corpus(
        ["a", "b", "c"], ids=["i1", "i2", "i3"], text_in_image=[True, False, None]
    )
    candidates = make_candidates(cand(i, "n00000001", 0.9) for i in ["i1", "i2", "i3"])
    manifest = assemble(candidates, 0.5, corpus, AssembleOptions(drop_text_in_image=True))
    # only an explicit True drops; unset flags pass through
    assert manifest.rows.ids == ["i2", "i3"]
    assert manifest.drop_ledger["text_in_image"] == 1


def test_assemble_ledger_sums(rng):
    for trial in range(25):
        n = int(rng.integers(1, 120))
        ids = [f"i{j}" for j in range(40)]
        corpus = make_corpus(
            ["t"] * 40,
            ids=ids,
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
        manifest = assemble(make_candidates(candidates), threshold, corpus, options)
        assert sum(manifest.drop_ledger.values()) == len(candidates) - len(manifest.rows)
        assert all(score >= threshold for score in manifest.rows.scores)
        kept = set(zip(manifest.rows.ids, manifest.rows.wnids))
        assert kept <= {(i, w) for i, w, score in candidates if score >= threshold}
        counts: dict[str, int] = {}
        for wnid in manifest.rows.wnids:
            counts[wnid] = counts.get(wnid, 0) + 1
        assert counts == manifest.class_counts


def test_assemble_missing_instance():
    corpus = make_corpus(["a"], ids=["i1"])
    with pytest.raises(MissingKeyError, match="ghost"):
        assemble(make_candidates([cand("ghost", "n00000001", 0.9)]), 0.5, corpus)


def test_assemble_rejects_non_finite_threshold():
    corpus = make_corpus(["a"], ids=["i1"])
    with pytest.raises(ValidationError):
        assemble(make_candidates([]), float("nan"), corpus)


def test_top_k_keeps_small_classes():
    manifest = DatasetManifest(
        rows=make_candidates(cand(f"i{j}", "n00000001", 0.9 - j / 100) for j in range(3)),
        threshold=0.0,
    )
    assert top_k_per_class(manifest, 50).rows == manifest.rows


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


def test_manifest_invariants():
    with pytest.raises(ValidationError, match="more than once"):
        DatasetManifest(
            rows=make_candidates([cand("i1", "n00000001", 0.9), cand("i1", "n00000002", 0.8)]),
            threshold=0.0,
        )
    with pytest.raises(ValidationError, match="below threshold"):
        DatasetManifest(rows=make_candidates([cand("i1", "n00000001", 0.4)]), threshold=0.5)


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
        provenance="abc123",
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
        "config_digest": manifest.provenance,
    }


def test_candidates_columns_must_align_and_be_finite():
    with pytest.raises(ValidationError, match="columns differ"):
        Candidates(ids=["i1", "i2"], wnids=["n00000001"], scores=[0.5, 0.5])
    with pytest.raises(ValidationError, match="non-finite score for candidate \\(i2, n00000002\\)"):
        Candidates(ids=["i1", "i2"], wnids=["n00000001", "n00000002"], scores=[0.5, np.inf])
    candidates = make_candidates([cand("i1", "n00000001", 0.5)])
    with pytest.raises(ValueError):
        candidates.scores[0] = 1.0  # the columns are frozen with the object


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
    write_matches(matches, path)
    expected = "".join(
        json.dumps({"id": m.instance_id, "wnid": m.wnid, "lemma": m.lemma, "start": m.span[0],
                    "end": m.span[1]}) + "\n"
        for m in matches
    )
    assert path.read_bytes() == expected.encode()
