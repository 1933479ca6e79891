"""Acceptance suite: every criterion as an independently-runnable test that
prints one pass/fail line. Random checks use frozen Philox seeds, so each
criterion is deterministic; statistical calibrations were verified across
seeds before freezing."""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from capsieve import causalsim, curator, diagnostics, evalmetrics, matcher, vectorops
from capsieve.corpus import (
    EmbeddingMatrix,
    load_corpus,
    load_embeddings,
    write_embeddings,
)
from capsieve.errors import FormatError, ValidationError
from capsieve.seeding import stream
from capsieve.taxonomy import load_taxonomy

from conftest import (
    build_pipeline_fixture,
    caption_flags,
    corpus_rows,
    make_candidates,
    make_flags,
    random_match_case,
    read_captions,
    taxonomy_rows,
    write_jsonl,
)
from oracles import false_class_exhaustive, find_matches_naive
from test_cli import run_pipeline, tree_bytes
from test_diagnostics import class_set_from_vectors, rank_formula_oracle
from test_vectorops import full_sort_oracle


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number}. {name}: FAIL")
        raise
    print(f"[acceptance] {number}. {name}: PASS")


def test_criterion_1_matcher_oracle_equivalence():
    with criterion(1, "matcher automaton equals naive boundary scan on 200 random corpora"):
        rng = stream(101)
        started = time.monotonic()
        for _ in range(200):
            taxonomy, corpus = random_match_case(rng, max_captions=1000, max_lemmas=100)
            built = matcher.build_matcher(taxonomy)
            assert list(matcher.find_matches(built, corpus)) == find_matches_naive(taxonomy, corpus)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_vectorops_exactness():
    with criterion(2, "nearest row agrees with full-sort brute force, ties included"):
        rng = stream(202)
        for case in range(1000):
            n = int(rng.integers(1, 65))
            d = int(rng.integers(2, 33))
            rows = rng.standard_normal((n, d)).astype(np.float32)
            if case % 7 == 0 and n >= 2:  # force exact ties via duplicated rows
                rows[rng.integers(0, n)] = rows[rng.integers(0, n)]
            ids = [f"r{int(i):03d}" for i in rng.permutation(n)]
            m = EmbeddingMatrix(rows=rows, ids=ids)
            q = rng.standard_normal(d).astype(np.float32)
            (best,), (score,) = vectorops.nearest_rows([q], m)
            assert [(m.ids[best], float(score))] == full_sort_oracle(q, m, 1)


def test_criterion_3_curator_laws():
    with criterion(3, "sweep monotone; ledger sums; top-k idempotent; frequencies sum to 1"):
        rng = stream(303)
        for _ in range(100):
            n = int(rng.integers(1, 150))
            candidates = make_candidates(
                (f"i{j}", f"n{int(rng.integers(1, 15)):08d}", float(rng.uniform(-1, 1)))
                for j in range(n)
            )
            thresholds = sorted({float(t) for t in rng.uniform(-1.1, 1.1, size=12)})
            points = curator.threshold_sweep(candidates, thresholds)
            for earlier, later in zip(points, points[1:]):
                assert earlier.n_instances >= later.n_instances
                assert earlier.n_classes >= later.n_classes

        for _ in range(60):
            ids = [f"i{j}" for j in range(30)]
            flags = make_flags(
                ids,
                nsfw=[bool(rng.integers(0, 2)) for _ in range(30)],
                text_in_image=[[True, False, None][int(rng.integers(0, 3))] for _ in range(30)],
            )
            seen = set()
            candidates = []
            for _ in range(int(rng.integers(1, 90))):
                key = (ids[int(rng.integers(0, 30))], f"n{int(rng.integers(1, 6)):08d}")
                if key not in seen:
                    seen.add(key)
                    candidates.append((*key, float(rng.uniform(-1, 1))))
            options = curator.AssembleOptions(
                drop_multi_label=bool(rng.integers(0, 2)),
                drop_nsfw=bool(rng.integers(0, 2)),
                drop_text_in_image=bool(rng.integers(0, 2)),
            )
            manifest = curator.assemble(
                make_candidates(candidates), float(rng.uniform(-1, 1)), flags, options
            )
            assert sum(manifest.drop_ledger.values()) == len(candidates) - len(manifest.rows)

            if manifest.rows:
                k = int(rng.integers(1, 8))
                once = curator.top_k_per_class(manifest, k)
                assert curator.top_k_per_class(once, k).rows == once.rows
                freqs = curator.relative_frequencies(manifest)
                assert abs(sum(freqs.values()) - 1.0) <= 1e-12


def test_criterion_4_metrics_oracles():
    with criterion(4, "recall/accuracy/false-class match brute-force recomputation"):
        rng = stream(404)
        for _ in range(100):
            n_classes = int(rng.integers(2, 11))
            n_items = int(rng.integers(n_classes, 101))
            wnids = [f"n{j:08d}" for j in range(1, n_classes + 1)]
            pairs = [(f"i{j}", wnids[int(rng.integers(0, n_classes))]) for j in range(n_items)]
            manifest = curator.DatasetManifest(
                rows=make_candidates((i, w, 1.0) for i, w in pairs), threshold=0.0
            )
            predictions = {}
            for rid, _ in pairs:
                ranked = [wnids[int(j)] for j in rng.permutation(n_classes)]
                predictions[rid] = ranked
            k = int(rng.integers(1, n_classes + 1))
            stats = evalmetrics.per_class_recall(manifest, predictions, k)
            for s in stats:
                members = [rid for rid, w in pairs if w == s.wnid]
                hits = sum(1 for rid in members if s.wnid in predictions[rid][:k])
                assert s.value == hits / len(members)

            # accuracy oracles
            assert evalmetrics.equally_weighted_accuracy(stats) == pytest.approx(
                sum(s.value for s in stats) / len(stats), abs=1e-15
            )
            raw_weights = {s.wnid: float(rng.uniform(0.1, 2.0)) for s in stats}
            total = sum(raw_weights.values())
            expected = sum(raw_weights[s.wnid] / total * s.value for s in stats)
            assert evalmetrics.weighted_accuracy(stats, raw_weights) == pytest.approx(
                expected, abs=1e-12
            )
            uniform = {s.wnid: 1.0 / len(stats) for s in stats}
            assert abs(
                evalmetrics.weighted_accuracy(stats, uniform)
                - evalmetrics.equally_weighted_accuracy(stats)
            ) <= 1e-12

        # false-class proportion against an exhaustive ranking oracle: one
        # text in one bin, whose mean is that text's proportion
        for _ in range(100):
            n_synsets = int(rng.integers(2, 11))
            synsets = EmbeddingMatrix(
                rows=rng.standard_normal((n_synsets, 6)).astype(np.float32),
                ids=[f"n{j:08d}" for j in range(1, n_synsets + 1)],
            )
            text = rng.standard_normal(6)
            intended = f"n{int(rng.integers(1, n_synsets + 1)):08d}"
            edges = [-1.01, 1.01]
            (only,) = diagnostics.binned_false_class_means([text], [intended], synsets, edges)
            assert only.count == 1
            assert only.mean == false_class_exhaustive(text, intended, synsets)


def test_criterion_5_ci_calibration():
    with criterion(5, "Wilson and bootstrap CIs cover 95% +/- 2% on synthetic data"):
        started = time.monotonic()

        # Wilson recall interval on binomial draws
        rng = stream(123)
        trials, n, p = 2000, 100, 0.37
        covered = 0
        for _ in range(trials):
            lo, hi = evalmetrics.wilson_interval(int(rng.binomial(n, p)), n)
            covered += lo <= p <= hi
        wilson_coverage = covered / trials
        assert 0.93 <= wilson_coverage <= 0.97, f"wilson coverage {wilson_coverage}"

        # recall-difference interval on independent binomials
        rng = stream(77)
        na, nb, pa, pb = 120, 90, 0.6, 0.45
        covered = 0
        for _ in range(1000):
            xa, xb = int(rng.binomial(na, pa)), int(rng.binomial(nb, pb))
            la, ha = evalmetrics.wilson_interval(xa, na)
            lb, hb = evalmetrics.wilson_interval(xb, nb)
            d = evalmetrics.per_class_recall_diff_ci(
                [evalmetrics.ClassStat("n00000001", xa / na, la, ha, na)],
                [evalmetrics.ClassStat("n00000001", xb / nb, lb, hb, nb)],
            )[0]
            covered += d.ci_low <= (pa - pb) <= d.ci_high
        diff_coverage = covered / 1000
        assert 0.93 <= diff_coverage <= 0.97, f"diff coverage {diff_coverage}"

        # bootstrap mean-difference interval on Gaussian-embedding classes;
        # both sides share a distribution, so the true difference is 0
        rng = stream(42)
        mu = np.zeros(8)
        mu[0] = 2.0
        covered = 0
        trials = 500
        for trial in range(trials):
            sides = []
            for _ in range(2):
                x = mu + rng.standard_normal((80, 8))
                sides.append(class_set_from_vectors("n00000001", x.astype(np.float32)))
            stat = diagnostics.per_class_mean_diff_ci(
                [sides[0]], [sides[1]], n_boot=1000, seed=trial
            )[0]
            covered += stat.ci_low <= 0.0 <= stat.ci_high
        boot_coverage = covered / trials
        assert 0.93 <= boot_coverage <= 0.97, f"bootstrap coverage {boot_coverage}"

        elapsed = time.monotonic() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        print(
            f"    coverages: wilson={wilson_coverage:.3f} diff={diff_coverage:.3f} "
            f"bootstrap={boot_coverage:.3f} ({elapsed:.1f}s)"
        )


def test_criterion_6_diagnostics_identities():
    with criterion(6, "pair-count law; compare(A,A)=(0,0); spearman oracle"):
        rng = stream(606)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            s = class_set_from_vectors(
                "n00000001", rng.standard_normal((n, 5)).astype(np.float32)
            )
            blocks = diagnostics.pair_similarity_blocks(s)
            assert sum(len(b) for b in blocks) == n * (n - 1) // 2

        sets = [
            class_set_from_vectors(f"n{j:08d}", rng.standard_normal((6, 5)).astype(np.float32))
            for j in range(1, 6)
        ]
        comparison = diagnostics.compare_from_intervals(
            diagnostics.per_class_mean_diff_ci(sets, sets, n_boot=300, seed=9)
        )
        assert (comparison.prop_A_lower, comparison.prop_B_lower) == (0.0, 0.0)

        x = sorted(float(v) for v in rng.uniform(-5, 5, size=30))
        assert diagnostics.spearman(x, [v * 2 + 1 for v in x]) == 1.0
        assert diagnostics.spearman(x, [-v for v in x]) == -1.0
        checked = 0
        while checked < 1000:
            n = int(rng.integers(2, 20))
            tie_heavy = bool(rng.integers(0, 2))
            span = 4 if tie_heavy else 1000
            xs = [float(rng.integers(0, span)) for _ in range(n)]
            ys = [float(rng.integers(0, span)) for _ in range(n)]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert diagnostics.spearman(xs, ys) == pytest.approx(
                rank_formula_oracle(xs, ys), abs=1e-12
            )
            checked += 1


def test_criterion_7_bottleneck_theorem():
    with criterion(7, "text selection preserves non-text dims; image selection does not"):
        started = time.monotonic()
        cfg = causalsim.GenConfig(
            n_classes=4, x_dim=8, text_noise_sd=0.25, class_sep=2.0, seed=20240
        )
        samples = causalsim.generate(cfg, 100_000)
        text_rule = causalsim.SelectionRule(kind="text_threshold", threshold=1.0)
        prototype = tuple(causalsim.class_means(cfg)[0])
        image_rule = causalsim.SelectionRule(kind="image_ball", prototype=prototype)
        report = causalsim.bottleneck_gap(samples, text_rule, image_rule)  # radius matched
        radius = report.image_rule.radius

        # matched acceptance rates (+/- 10%)
        assert abs(report.acceptance_image - report.acceptance_text) <= 0.1 * report.acceptance_text

        # (a) text rule leaves non-bottleneck dims at the baseline variance
        assert np.abs(report.per_dim_var_text[1:] - 1.0).max() <= 0.05
        assert np.abs(report.baseline_var - 1.0).max() <= 0.05

        # (b) margin pinned by the truncated-normal Monte Carlo oracle: an
        # independent stream of standard normals truncated to the matched
        # ball predicts the selected per-dim variance for the prototype's
        # class; off-center classes shrink at least as much in aggregate.
        oracle_rng = stream(999_999)
        z = oracle_rng.standard_normal((400_000, 8))
        inside = (z * z).sum(axis=1) < radius * radius
        predicted_var = float(z[inside].var(axis=0, ddof=1).mean())
        assert predicted_var < 0.75  # the ball genuinely truncates
        margin = (1.0 - predicted_var) / 2.0
        assert (report.per_dim_var_image[1:] < report.per_dim_var_text[1:] - margin).all()

        # (c) conditional-independence bin test: text rule consistent,
        # image rule rejected (alpha 0.01, Bonferroni over comparisons)
        assert report.bin_test_text.n_comparisons > 0
        assert report.bin_test_text.reject is False
        assert report.bin_test_image.reject is True

        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        print(
            f"    text var (dims 1+): {report.per_dim_var_text[1:].min():.3f}.."
            f"{report.per_dim_var_text[1:].max():.3f}; image var max "
            f"{report.per_dim_var_image[1:].max():.3f}; margin {margin:.3f}; "
            f"bin stats text {report.bin_test_text.max_stat:.2f} (crit "
            f"{report.bin_test_text.critical:.2f}) image {report.bin_test_image.max_stat:.2f}"
        )


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "pipeline outputs byte-identical across two runs"):
        fixture = build_pipeline_fixture(tmp_path / "fx", seed=777)
        first = run_pipeline(fixture, tmp_path / "run1")
        second = run_pipeline(fixture, tmp_path / "run2")
        trees_first = {name: tree_bytes(d) for name, d in first.items()}
        trees_second = {name: tree_bytes(d) for name, d in second.items()}
        assert trees_first == trees_second
        total_files = sum(len(t) for t in trees_first.values())
        assert total_files >= 18
        print(f"    {total_files} files byte-identical across two runs")


def test_criterion_9_format_round_trips(tmp_path, rng):
    with criterion(9, "binary and JSONL formats round-trip bitwise; corruption errors"):
        fixture = build_pipeline_fixture(tmp_path / "fx", seed=888, n_instances=60)

        emb_path = fixture["caption_embeddings"]
        matrix = load_embeddings(emb_path)
        rewritten = tmp_path / "captions_rewrite.emb"
        write_embeddings(matrix, rewritten)
        assert rewritten.read_bytes() == emb_path.read_bytes()

        taxonomy = load_taxonomy(fixture["taxonomy"])
        tax_rewrite = tmp_path / "taxonomy_rewrite.jsonl"
        write_jsonl(tax_rewrite, taxonomy_rows(taxonomy))
        assert tax_rewrite.read_bytes() == fixture["taxonomy"].read_bytes()

        captions = read_captions(fixture["corpus"])
        corpus_rewrite = tmp_path / "corpus_rewrite.jsonl"
        write_jsonl(corpus_rewrite, corpus_rows(captions))
        assert corpus_rewrite.read_bytes() == fixture["corpus"].read_bytes()
        assert load_corpus(fixture["corpus"]) == caption_flags(captions)

        raw = emb_path.read_bytes()
        bad_magic = tmp_path / "bad_magic.emb"
        bad_magic.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(FormatError, match="bad magic"):
            load_embeddings(bad_magic)

        truncated = tmp_path / "truncated.emb"
        truncated.write_bytes(raw[: 16 + 60 * 16 * 4 - 4])
        with pytest.raises(FormatError, match="truncated"):
            load_embeddings(truncated)

        zeroed = bytearray(raw)
        row_bytes = 16 * 4
        zeroed[16 + row_bytes : 16 + 2 * row_bytes] = b"\x00" * row_bytes
        zero_path = tmp_path / "zero_row.emb"
        zero_path.write_bytes(bytes(zeroed))
        with pytest.raises(ValidationError, match="inst0001"):
            load_embeddings(zero_path)
