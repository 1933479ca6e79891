from __future__ import annotations

import pytest

from capsieve.curator import DatasetManifest
from capsieve.errors import MissingKeyError, ValidationError
from capsieve.evalmetrics import (
    ClassStat,
    equally_weighted_accuracy,
    load_predictions,
    per_class_recall,
    per_class_recall_diff_ci,
    wilson_interval,
    weighted_accuracy,
    write_predictions,
)

from conftest import make_candidates


def manifest_of(pairs):
    return DatasetManifest(rows=make_candidates((i, w, 1.0) for i, w in pairs), threshold=0.0)


def stat(wnid, value, n):
    lo, hi = wilson_interval(round(value * n), n)
    return ClassStat(wnid=wnid, value=value, ci_low=lo, ci_high=hi, n=n)


def test_wilson_basic_bounds():
    lo, hi = wilson_interval(1, 2)
    assert 0.0 <= lo <= 0.5 <= hi <= 1.0


def test_wilson_extremes():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo < 1.0


def test_per_class_recall_counts():
    manifest = manifest_of([(f"i{j}", "n00000001") for j in range(4)])
    predictions = {
        "i0": ["n00000001"],
        "i1": ["n00000001"],
        "i2": ["n00000009"],
        "i3": ["n00000009"],
    }
    stats = per_class_recall(manifest, predictions, k=1)
    assert len(stats) == 1
    assert stats[0].value == 0.5
    assert stats[0].n == 4


def test_per_class_recall_all_correct_has_unit_upper_bound():
    manifest = manifest_of([(f"i{j}", "n00000001") for j in range(5)])
    predictions = {f"i{j}": ["n00000001"] for j in range(5)}
    stats = per_class_recall(manifest, predictions, k=1)
    assert stats[0].value == 1.0
    assert stats[0].ci_high == 1.0
    assert stats[0].ci_low < 1.0  # Wilson keeps a sampling-error margin below


def test_per_class_recall_at_k():
    manifest = manifest_of([("i0", "n00000002")])
    predictions = {"i0": ["n00000001", "n00000002", "n00000003"]}
    assert per_class_recall(manifest, predictions, k=1)[0].value == 0.0
    assert per_class_recall(manifest, predictions, k=2)[0].value == 1.0


def test_per_class_recall_matches_recount_oracle(rng):
    wnids = [f"n{j:08d}" for j in range(1, 6)]
    pairs = [(f"i{j}", wnids[int(rng.integers(0, 5))]) for j in range(100)]
    manifest = manifest_of(pairs)
    predictions = {}
    for rid, _ in pairs:
        ranked = list(rng.permutation(wnids))[: int(rng.integers(1, 6))]
        predictions[rid] = ranked
    for k in (1, 3):
        for s in per_class_recall(manifest, predictions, k):
            members = [rid for rid, w in pairs if w == s.wnid]
            hits = sum(1 for rid in members if s.wnid in predictions[rid][:k])
            assert s.value == hits / len(members)
            assert s.n == len(members)


def test_per_class_recall_missing_prediction():
    manifest = manifest_of([("i0", "n00000001")])
    with pytest.raises(MissingKeyError, match="i0"):
        per_class_recall(manifest, {}, k=1)


def test_equally_weighted_accuracy():
    stats = [stat("n00000001", 1.0, 10), stat("n00000002", 0.0, 10)]
    assert equally_weighted_accuracy(stats) == 0.5
    assert equally_weighted_accuracy([stat("n00000001", 0.7, 10)]) == pytest.approx(0.7)


def test_equally_weighted_accuracy_mean_oracle(rng):
    values = [round(float(rng.integers(0, 11)) / 10, 1) for _ in range(10)]
    stats = [stat(f"n{j:08d}", v, 10) for j, v in enumerate(values, start=1)]
    assert equally_weighted_accuracy(stats) == pytest.approx(sum(values) / len(values), abs=1e-15)


def test_equally_weighted_accuracy_empty():
    with pytest.raises(ValidationError):
        equally_weighted_accuracy([])


def test_weighted_accuracy_hand_value():
    stats = [stat("n00000001", 0.8, 10), stat("n00000002", 0.4, 10)]
    weights = {"n00000001": 0.75, "n00000002": 0.25}
    assert weighted_accuracy(stats, weights) == pytest.approx(0.7, abs=1e-12)


def test_weighted_accuracy_uniform_equals_equally_weighted(rng):
    stats = [
        stat(f"n{j:08d}", float(rng.integers(0, 11)) / 10, 10) for j in range(1, 8)
    ]
    uniform = {s.wnid: 1.0 / len(stats) for s in stats}
    assert abs(weighted_accuracy(stats, uniform) - equally_weighted_accuracy(stats)) <= 1e-12


def test_weighted_accuracy_point_mass():
    stats = [stat("n00000001", 0.8, 10), stat("n00000002", 0.4, 10)]
    assert weighted_accuracy(stats, {"n00000001": 1.0, "n00000002": 0.0}) == pytest.approx(0.8)


def test_weighted_accuracy_renormalizes():
    stats = [stat("n00000001", 0.8, 10), stat("n00000002", 0.4, 10)]
    doubled = {"n00000001": 1.5, "n00000002": 0.5}
    assert weighted_accuracy(stats, doubled) == pytest.approx(0.8 * 0.75 + 0.4 * 0.25, abs=1e-12)


def test_weighted_accuracy_missing_weight():
    stats = [stat("n00000001", 0.8, 10)]
    with pytest.raises(MissingKeyError, match="n00000001"):
        weighted_accuracy(stats, {"n00000099": 1.0})


def test_weighted_accuracy_linear_in_weights(rng):
    stats = [stat(f"n{j:08d}", float(rng.integers(0, 11)) / 10, 10) for j in range(1, 6)]
    w1 = {s.wnid: float(rng.uniform(0.01, 1.0)) for s in stats}
    w2 = {s.wnid: float(rng.uniform(0.01, 1.0)) for s in stats}
    t1, t2 = sum(w1.values()), sum(w2.values())
    blend = {w: 0.3 * w1[w] / t1 + 0.7 * w2[w] / t2 for w in w1}
    expected = 0.3 * weighted_accuracy(stats, w1) + 0.7 * weighted_accuracy(stats, w2)
    assert weighted_accuracy(stats, blend) == pytest.approx(expected, abs=1e-12)


def test_weighted_accuracy_monotone_in_recall(rng):
    values = [float(rng.integers(0, 10)) / 10 for _ in range(5)]
    stats = [stat(f"n{j:08d}", v, 10) for j, v in enumerate(values, start=1)]
    weights = {s.wnid: float(rng.uniform(0.01, 1.0)) for s in stats}
    base = weighted_accuracy(stats, weights)
    for idx in range(len(stats)):
        raised = list(stats)
        raised[idx] = stat(stats[idx].wnid, min(1.0, stats[idx].value + 0.1), 10)
        assert weighted_accuracy(raised, weights) >= base - 1e-15


def test_diff_ci_identical_stats_straddle_zero(rng):
    stats = [stat(f"n{j:08d}", float(rng.integers(2, 9)) / 10, 40) for j in range(1, 6)]
    diffs = per_class_recall_diff_ci(stats, stats)
    for d in diffs:
        assert d.value == 0.0
        assert d.ci_low < 0.0 < d.ci_high


def test_diff_ci_extreme_case_excludes_zero():
    a = [stat("n00000001", 1.0, 50)]
    b = [stat("n00000001", 0.0, 50)]
    d = per_class_recall_diff_ci(a, b)[0]
    assert d.value == 1.0
    assert d.ci_low > 0.0


def test_diff_ci_sorted_ascending(rng):
    a = [stat(f"n{j:08d}", float(rng.integers(0, 11)) / 10, 30) for j in range(1, 9)]
    b = [stat(f"n{j:08d}", float(rng.integers(0, 11)) / 10, 30) for j in range(1, 9)]
    diffs = per_class_recall_diff_ci(a, b)
    values = [d.value for d in diffs]
    assert values == sorted(values)


def test_diff_ci_small_support_is_wide():
    a = [stat("n00000001", 1.0, 1)]
    b = [stat("n00000001", 0.0, 1)]
    d = per_class_recall_diff_ci(a, b)[0]
    assert (d.ci_low, d.ci_high) == (-1.0, 1.0)


def test_diff_ci_requires_shared_classes():
    a = [stat("n00000001", 1.0, 10)]
    b = [stat("n00000002", 1.0, 10)]
    with pytest.raises(ValidationError):
        per_class_recall_diff_ci(a, b)


def test_predictions_round_trip(tmp_path):
    predictions = {"a": ["n00000001", "n00000002"], "b": ["n00000002"]}
    path = tmp_path / "preds.jsonl"
    write_predictions(predictions, path)
    assert load_predictions(path) == predictions
    again = tmp_path / "preds2.jsonl"
    write_predictions(load_predictions(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_duplicate_ranked_entries_rejected(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "a", "ranked": ["n00000001"]}\n'
                    '{"id": "b", "ranked": ["n00000001", "n00000001"]}\n')
    with pytest.raises(ValidationError, match="distinct") as info:
        load_predictions(path)
    assert str(info.value).startswith(f"{path}: line 2: ")
