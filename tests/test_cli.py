from __future__ import annotations

import itertools
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import capsieve
from capsieve import causalsim, cli, corpus, vectorops
from capsieve.cli import _COMMANDS, _parse_edges, _parse_thresholds, _write_csv, run
from capsieve.corpus import EMBEDDING_MAGIC, EmbeddingMatrix, load_embeddings, write_embeddings
from capsieve.diagnostics import DEFAULT_BOOTSTRAP_REPLICATES
from capsieve.provenance import config_digest

from conftest import write_jsonl


def run_ok(argv):
    code = run([str(a) for a in argv])
    assert code == 0, f"exit {code} for {argv}"


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def run_pipeline(fx, out_root: Path, boot=50):
    """match -> sweep -> assemble -> eval -> diagnose, returning the dirs."""
    dirs = {name: out_root / name for name in
            ["match", "sweep", "assemble", "assemble_b", "eval", "intra", "compare",
             "cross_modal", "nearest", "correlate"]}
    run_ok(["match", "--taxonomy", fx["taxonomy"], "--corpus", fx["corpus"],
            "--caption-embeddings", fx["caption_embeddings"],
            "--synset-embeddings", fx["synset_embeddings"],
            "--out", dirs["match"]])
    candidates = dirs["match"] / "candidates.jsonl"
    run_ok(["sweep", "--candidates", candidates, "--thresholds", "0.0:0.9:0.1",
            "--out", dirs["sweep"]])
    run_ok(["assemble", "--candidates", candidates, "--corpus", fx["corpus"],
            "--threshold", "0.3", "--drop-multi-label", "--drop-nsfw",
            "--drop-text-in-image", "--out", dirs["assemble"]])
    run_ok(["assemble", "--candidates", candidates, "--corpus", fx["corpus"],
            "--threshold", "0.55", "--drop-nsfw", "--out", dirs["assemble_b"]])
    manifest = dirs["assemble"] / "manifest.jsonl"
    manifest_b = dirs["assemble_b"] / "manifest.jsonl"
    run_ok(["eval", "--manifest", manifest, "--predictions", fx["predictions"],
            "--weights", "freq", "--k", "1,5", "--out", dirs["eval"]])
    run_ok(["diagnose", "intra", "--manifest", manifest,
            "--image-embeddings", fx["image_embeddings"], "--out", dirs["intra"]])
    run_ok(["diagnose", "compare", "--manifest-a", manifest, "--manifest-b", manifest_b,
            "--image-embeddings-a", fx["image_embeddings"],
            "--image-embeddings-b", fx["image_embeddings"],
            "--boot", boot, "--seed", 1, "--out", dirs["compare"]])
    run_ok(["diagnose", "cross-modal", "--manifest", manifest,
            "--image-embeddings", fx["image_embeddings"],
            "--synset-embeddings", fx["synset_embeddings"],
            "--boot", boot, "--seed", 1, "--out", dirs["cross_modal"]])
    run_ok(["diagnose", "nearest-text", "--query-embeddings", fx["synset_embeddings"],
            "--query-labels", fx["query_labels"],
            "--corpus-embeddings", fx["caption_embeddings"],
            "--min-sim", "0.7", "--out", dirs["nearest"]])
    run_ok(["diagnose", "correlate", "--csv", dirs["eval"] / "recall_k1.csv",
            "--x-col", "value", "--y-col", "n", "--out", dirs["correlate"]])
    return dirs


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_full_pipeline_runs(pipeline_fixture, tmp_path):
    dirs = run_pipeline(pipeline_fixture, tmp_path)

    matches = (dirs["match"] / "matches.jsonl").read_text().splitlines()
    assert matches and all("wnid" in json.loads(line) for line in matches)

    sweep_lines = (dirs["sweep"] / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "threshold,n_classes,n_instances"
    rows = [line.split(",") for line in sweep_lines[1:]]
    classes = [int(r[1]) for r in rows]
    instances = [int(r[2]) for r in rows]
    assert classes == sorted(classes, reverse=True)
    assert instances == sorted(instances, reverse=True)
    assert instances[0] > 0

    meta = read_json(dirs["assemble"] / "manifest.meta.json")
    assert meta["threshold"] == 0.3
    assert sum(meta["counts"].values()) > 0
    assert set(meta["drop_ledger"]) == {"below_threshold", "multi_label", "nsfw", "text_in_image"}

    accuracy = read_json(dirs["eval"] / "accuracy.json")
    assert 0.0 <= accuracy["topk"]["1"]["equally_weighted"] <= 1.0
    assert accuracy["topk"]["5"]["equally_weighted"] >= accuracy["topk"]["1"]["equally_weighted"]

    comparison = read_json(dirs["compare"] / "comparison.json")
    assert comparison["n_shared"] > 0
    assert 0.0 <= comparison["prop_A_lower"] + comparison["prop_B_lower"] <= 1.0

    correlation = read_json(dirs["correlate"] / "correlation.json")
    assert -1.0 <= correlation["spearman"] <= 1.0

    nearest_rows = (dirs["nearest"] / "manifest.jsonl").read_text().splitlines()
    assert nearest_rows
    assert all(json.loads(line)["score"] >= 0.7 for line in nearest_rows)

    for d in dirs.values():
        assert (d / "provenance.json").exists()


def test_pipeline_byte_identical_across_runs_and_workers(pipeline_fixture, tmp_path):
    first = run_pipeline(pipeline_fixture, tmp_path / "one")
    second = run_pipeline(pipeline_fixture, tmp_path / "two")
    trees_first = {k: tree_bytes(d) for k, d in first.items()}
    trees_second = {k: tree_bytes(d) for k, d in second.items()}
    assert trees_first == trees_second


def test_scan_analyses_do_not_depend_on_the_tile_size(pipeline_fixture, tmp_path, monkeypatch):
    # the default tiles, then tiles of 7 queries by 7 rows at d = 16
    fx = pipeline_fixture
    pairs = tmp_path / "pairs.jsonl"  # a manifest, read as pairs by the first two
    pairs.write_text("".join(json.dumps({"id": f"inst{i:04d}", "wnid": f"n{i % 20 + 1:08d}",
                                         "score": 1.0}) + "\n" for i in range(0, 1000, 3)),
                     encoding="utf-8")
    trees = []
    for block in (None, 7 * 16):
        if block is not None:
            monkeypatch.setattr(vectorops, "_BLOCK_SCORES", block)
        out = tmp_path / str(block)
        run_ok(["diagnose", "nearest-text", "--query-embeddings", fx["caption_embeddings"],
                "--query-labels", pairs, "--corpus-embeddings", fx["image_embeddings"],
                "--min-sim", "0.5", "--out", out / "nearest"])
        run_ok(["diagnose", "false-class", "--text-embeddings", fx["caption_embeddings"],
                "--pairs", pairs, "--synset-embeddings", fx["synset_embeddings"],
                "--bin-edges=-1:1:0.1", "--out", out / "false_class"])
        run_ok(["diagnose", "cross-modal", "--manifest", pairs,
                "--image-embeddings", fx["image_embeddings"],
                "--synset-embeddings", fx["synset_embeddings"],
                "--boot", 50, "--seed", 1, "--out", out / "cross_modal"])
        trees.append(tree_bytes(out))
    assert len(trees[0]) == 7 and trees[0] == trees[1]


def test_match_does_not_depend_on_the_chunk_size(pipeline_fixture, tmp_path, monkeypatch):
    # the default chunks (one for the fixture's 1000 captions), then one row per chunk
    fx = pipeline_fixture
    trees = []
    for rows in (None, 1):
        if rows is not None:
            monkeypatch.setattr(corpus, "_JSONL_ROWS", rows)
        out = tmp_path / str(rows)
        run_ok(["match", "--taxonomy", fx["taxonomy"], "--corpus", fx["corpus"],
                "--caption-embeddings", fx["caption_embeddings"],
                "--synset-embeddings", fx["synset_embeddings"], "--out", out])
        trees.append(tree_bytes(out))
    assert len(trees[0]) == 3 and trees[0] == trees[1]


def test_each_stage_reads_each_embedding_header_once(pipeline_fixture, tmp_path, monkeypatch):
    # every embedding-reading stage of the pipeline, rerun in-process: each
    # .emb input's header and id trailer are parsed once, however many of
    # its rows the stage scans or keeps
    fx = pipeline_fixture
    dirs = run_pipeline(fx, tmp_path / "pipeline")
    manifest, manifest_b = (dirs[name] / "manifest.jsonl" for name in ("assemble", "assemble_b"))
    images_b = tmp_path / "images_b.emb"  # a side of its own, so each file is one input
    shutil.copyfile(fx["image_embeddings"], images_b)
    stages = {
        "match": ["match", "--taxonomy", fx["taxonomy"], "--corpus", fx["corpus"],
                  "--caption-embeddings", fx["caption_embeddings"],
                  "--synset-embeddings", fx["synset_embeddings"]],
        "false-class": ["diagnose", "false-class", "--text-embeddings", fx["caption_embeddings"],
                        "--pairs", dirs["match"] / "candidates.jsonl",
                        "--synset-embeddings", fx["synset_embeddings"], "--bin-edges=-1:1:0.25"],
        "nearest-text": ["diagnose", "nearest-text", "--query-embeddings", fx["synset_embeddings"],
                         "--query-labels", fx["query_labels"],
                         "--corpus-embeddings", fx["caption_embeddings"], "--min-sim", "0.7"],
        "intra": ["diagnose", "intra", "--manifest", manifest,
                  "--image-embeddings", fx["image_embeddings"]],
        "compare": ["diagnose", "compare", "--manifest-a", manifest, "--manifest-b", manifest_b,
                    "--image-embeddings-a", fx["image_embeddings"],
                    "--image-embeddings-b", images_b, "--boot", 50, "--seed", 1],
        "cross-modal": ["diagnose", "cross-modal", "--manifest", manifest,
                        "--image-embeddings", fx["image_embeddings"],
                        "--synset-embeddings", fx["synset_embeddings"], "--boot", 50, "--seed", 1],
    }
    parsed = []
    read_layout = corpus._read_layout

    def counted(fh, path):
        parsed.append(str(path))
        return read_layout(fh, path)

    monkeypatch.setattr(corpus, "_read_layout", counted)
    for name, argv in stages.items():
        parsed.clear()
        run_ok([*argv, "--out", tmp_path / name])
        inputs = [str(arg) for arg in argv if str(arg).endswith(".emb")]
        assert sorted(parsed) == sorted(inputs), name


def test_write_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, "a,b,c,d,e", [(None, 5, "n00000001", 0.1 + 0.2, np.float64(0.1))])
    assert path.read_bytes() == b"a,b,c,d,e\n,5,n00000001,0.30000000000000004,0.1\n"


# The header of each CSV output, as README's file formats list them.
CSV_HEADERS = {
    "sweep.csv": "threshold,n_classes,n_instances",
    "recall_k1.csv": "wnid,value,ci_low,ci_high,n",
    "recall_k5.csv": "wnid,value,ci_low,ci_high,n",
    "cross_modal.csv": "wnid,value,ci_low,ci_high,n",
    "intra_class_sims.csv": "wnid,n_images,n_pairs,mean_sim",
    "intra_hist.csv": "lo,hi,count",
    "intra_class_diff.csv": "wnid,value,ci_low,ci_high",
    "false_class_bins.csv": "lo,hi,count,mean_false_class_proportion",
    "variances.csv": "dim,baseline,text_rule,image_rule",
}
INT_COLUMNS = {"n_classes", "n_instances", "n", "n_images", "n_pairs", "count", "dim"}


def test_csv_outputs_hold_their_documented_headers_and_repr_floats(pipeline_fixture, tmp_path):
    fx = pipeline_fixture
    dirs = run_pipeline(fx, tmp_path, boot=10)
    run_ok(["diagnose", "intra", "--manifest", dirs["assemble"] / "manifest.jsonl",
            "--image-embeddings", fx["image_embeddings"], "--hist-edges=-1:1:0.25",
            "--out", tmp_path / "hist"])
    run_ok(["diagnose", "false-class", "--text-embeddings", fx["caption_embeddings"],
            "--pairs", dirs["match"] / "candidates.jsonl",
            "--synset-embeddings", fx["synset_embeddings"], "--bin-edges=-1:1:0.25",
            "--out", tmp_path / "false_class"])
    (tmp_path / "sim.json").write_text(json.dumps({**SIM_CONFIG, "n": 2000}), encoding="utf-8")
    run_ok(["simulate", "--config", tmp_path / "sim.json", "--out", tmp_path / "sim"])

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    written = {p.name: p for p in tmp_path.rglob("*.csv")}
    assert set(written) == set(CSV_HEADERS)
    for name, path in written.items():
        header, *lines = path.read_bytes().decode("utf-8").split("\n")
        assert header == CSV_HEADERS[name] and f"`{header}`" in readme
        assert lines and lines.pop() == ""  # every line ends in LF, none in CR
        columns = header.split(",")
        for line in lines:
            cells = line.split(",")
            assert len(cells) == len(columns)
            for column, cell in zip(columns, cells):
                if column == "wnid":
                    assert len(cell) == 9 and cell[0] == "n" and cell[1:].isdigit()
                elif column in INT_COLUMNS:
                    assert str(int(cell)) == cell
                elif cell:
                    assert repr(float(cell)) == cell, (name, line)


def test_assemble_threshold_out_of_range(pipeline_fixture, tmp_path):
    code = run(
        [
            "assemble",
            "--candidates", str(pipeline_fixture["corpus"]),
            "--corpus", str(pipeline_fixture["corpus"]),
            "--threshold", "1.01",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2


def test_unknown_subcommand_is_config_error(capsys):
    assert run(["transmogrify"]) == 2
    capsys.readouterr()


def test_missing_input_is_config_error(tmp_path):
    # referenced paths are checked at config-validation time
    code = run(
        [
            "sweep",
            "--candidates", str(tmp_path / "nope.jsonl"),
            "--thresholds", "0:1:0.5",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2


def test_malformed_data_is_data_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n", encoding="utf-8")
    code = run(
        ["sweep", "--candidates", str(bad), "--thresholds", "0:1:0.5", "--out", str(tmp_path / "o")]
    )
    assert code == 3


def test_bad_threshold_spec_is_config_error(pipeline_fixture, tmp_path):
    code = run(
        [
            "sweep",
            "--candidates", str(pipeline_fixture["corpus"]),
            "--thresholds", "backwards",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("0:1", "range must be a:b:step, got '0:1'"),
        ("a:b:c", "non-numeric range 'a:b:c'"),
        ("1:0:0.1", "range needs step > 0 and b >= a, got '1:0:0.1'"),
        ("0:1:0", "range needs step > 0 and b >= a, got '0:1:0'"),
        (",", "no numbers given"),
        # a step that adds nothing to a, so a repeats; the second used to
        # loop without end, its list of values growing
        ("1e16:1e16:1", "numbers must be strictly increasing, got '1e16:1e16:1'"),
        ("1e308:1e308:9223372036854775808",
         "numbers must be strictly increasing, got '1e308:1e308:9223372036854775808'"),
    ],
)
def test_each_bad_threshold_spec_is_named(tmp_path, capsys, spec, message):
    write_good_inputs(tmp_path)
    argv = ["sweep", "--candidates", str(tmp_path / "candidates.jsonl"), "--thresholds", spec,
            "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"capsieve: config error: --thresholds: {message}\n"
    assert not (tmp_path / "out").exists()


def rounded_range(a: float, b: float, step: float) -> list[float]:
    """The a:b:step values as every one was once rounded: round(v, 12)."""
    values = []
    while (v := a + len(values) * step) <= b + 1e-12:
        values.append(round(v, 12))
    return values


@pytest.mark.parametrize("a, b, step", [
    (0.0, 1.0, 0.1), (-5.0, 5.0, 0.25), (0.1, 10.1, 0.7), (-1.0, 1.0, 1e-3),
    (1e300, 1.1e300, 1e297), (-1e300, -0.9e300, 1e297), (2.0**52, 2.0**52 + 100, 3.5),
    (1e15, 1e15 + 10, 0.125), (3.0, 1e6, 9999.5),
])
def test_a_range_gives_the_values_round_gave(a, b, step):
    assert _parse_thresholds(f"{a!r}:{b!r}:{step!r}") == rounded_range(a, b, step)


def test_a_range_rounds_only_values_that_are_not_integers(monkeypatch):
    rounded = []

    def spy(value, digits):
        rounded.append(value)
        return round(value, digits)

    monkeypatch.setattr(cli, "round", spy, raising=False)
    assert len(_parse_thresholds("1e300:1.1e300:1e294")) == 100_001  # all integers
    assert rounded == []
    assert _parse_thresholds("0:2:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    assert rounded == [0.25, 0.5, 0.75, 1.25, 1.5, 1.75]


def test_a_cutoff_of_zero_is_config_error(tmp_path, capsys):
    write_good_inputs(tmp_path)
    argv = ["eval", "--manifest", str(tmp_path / "manifest.jsonl"),
            "--predictions", str(tmp_path / "predictions.jsonl"), "--k", "0",
            "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == "capsieve: config error: --k: must list integers >= 1, got [0]\n"


def test_a_config_that_is_not_an_object_is_config_error(tmp_path, capsys):
    write_good_inputs(tmp_path)
    config = tmp_path / "run.json"
    config.write_text('["sweep"]', encoding="utf-8")
    argv = ["sweep", "--config", str(config), "--candidates", str(tmp_path / "candidates.jsonl"),
            "--thresholds", "0:1:0.5", "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"capsieve: config error: config {config} must be a JSON object\n"


def test_config_file_with_flag_override(pipeline_fixture, tmp_path):
    config = {
        "taxonomy": str(pipeline_fixture["taxonomy"]),
        "corpus": str(pipeline_fixture["corpus"]),
        "out": str(tmp_path / "from_config"),
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    run_ok(["match", "--config", config_path])
    assert (tmp_path / "from_config" / "matches.jsonl").exists()
    # flag overrides the config's out
    run_ok(["match", "--config", config_path, "--out", tmp_path / "flag_wins"])
    assert (tmp_path / "flag_wins" / "matches.jsonl").exists()


def test_simulate_subcommand(tmp_path):
    config = {
        "n_classes": 2,
        "x_dim": 4,
        "text_noise_sd": 0.25,
        "class_sep": 1.5,
        "seed": 9,
        "n": 20000,
        "text_rule": {"kind": "text_threshold", "threshold": 0.8},
        "image_rule": {
            "kind": "image_ball",
            "radius": "match",
            "prototype": [1.0606601717798212, 0.0, 0.0, 0.0],
        },
        "out": str(tmp_path / "sim"),
    }
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    run_ok(["simulate", "--config", config_path])
    report = read_json(tmp_path / "sim" / "report.json")
    assert abs(report["acceptance_text"] - report["acceptance_image"]) < 0.02
    assert report["bin_test_image"]["reject"] is True
    assert report["bin_test_text"]["reject"] is False
    assert report["bin_test_text"]["critical"] > 0
    csv_lines = (tmp_path / "sim" / "variances.csv").read_text().splitlines()
    assert csv_lines[0] == "dim,baseline,text_rule,image_rule"
    assert len(csv_lines) == 1 + 4


def test_simulate_requires_config(tmp_path):
    assert run(["simulate", "--out", str(tmp_path / "sim")]) == 2


def test_diagnose_intra_histogram(pipeline_fixture, tmp_path):
    fx = pipeline_fixture
    dirs = run_pipeline(fx, tmp_path)
    run_ok(["diagnose", "intra", "--manifest", dirs["assemble"] / "manifest.jsonl",
            "--image-embeddings", fx["image_embeddings"],
            "--hist-edges=-1.0:1.0:0.25", "--out", tmp_path / "hist"])
    lines = (tmp_path / "hist" / "intra_hist.csv").read_text().splitlines()
    assert lines[0] == "lo,hi,count"
    assert len(lines) == 1 + 8
    assert sum(int(line.split(",")[2]) for line in lines[1:]) > 0


def test_provenance_contents(pipeline_fixture, tmp_path):
    fx = pipeline_fixture
    run_ok(["match", "--taxonomy", fx["taxonomy"], "--corpus", fx["corpus"],
            "--out", tmp_path / "m"])
    payload = read_json(tmp_path / "m" / "provenance.json")
    assert payload["command"] == "match"
    assert set(payload["inputs"]) == {"taxonomy", "corpus"}
    assert "matches.jsonl" in payload["outputs"]
    assert all(len(digest) == 64 for digest in payload["inputs"].values())


def sidecar_matches_rows(out: Path) -> dict:
    """The manifest sidecar of a stage's `out`, checked against its rows."""
    meta = read_json(out / "manifest.meta.json")
    assert set(meta) == {"threshold", "counts", "drop_ledger"}  # the config digest is the run's
    rows = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert meta["counts"] == dict(Counter(row["wnid"] for row in rows))
    assert all(row["score"] >= meta["threshold"] for row in rows)
    return meta


def test_assemble_records_top_k_in_the_run_config(pipeline_fixture, tmp_path):
    fx = pipeline_fixture
    run_ok(["match", "--taxonomy", fx["taxonomy"], "--corpus", fx["corpus"],
            "--caption-embeddings", fx["caption_embeddings"],
            "--synset-embeddings", fx["synset_embeddings"], "--out", tmp_path / "m"])
    base = ["assemble", "--candidates", tmp_path / "m" / "candidates.jsonl",
            "--corpus", fx["corpus"], "--threshold", "0.3"]
    run_ok([*base, "--out", tmp_path / "all"])
    run_ok([*base, "--top-k", "1", "--out", tmp_path / "top"])
    every, top = sidecar_matches_rows(tmp_path / "all"), sidecar_matches_rows(tmp_path / "top")
    assert top["threshold"] == every["threshold"] == 0.3
    assert set(top["counts"]) == set(every["counts"])
    assert all(count == 1 for count in top["counts"].values())
    assert top["counts"] != every["counts"]  # the fixture has a class with more than one row
    digests = [read_json(tmp_path / d / "provenance.json")["config_digest"] for d in ("all", "top")]
    assert digests[0] != digests[1]


def test_nearest_text_sidecar_holds_min_sim_counts_and_ledger(pipeline_fixture, tmp_path):
    fx = pipeline_fixture
    run_ok(["diagnose", "nearest-text", "--query-embeddings", fx["synset_embeddings"],
            "--query-labels", fx["query_labels"],
            "--corpus-embeddings", fx["caption_embeddings"],
            "--min-sim", "0.7", "--out", tmp_path / "n"])
    meta = sidecar_matches_rows(tmp_path / "n")
    assert meta["threshold"] == 0.7
    assert set(meta["drop_ledger"]) == {"below_min_sim", "duplicate_neighbor"}
    n_queries = len(Path(fx["query_labels"]).read_text().splitlines())
    assert sum(meta["counts"].values()) + sum(meta["drop_ledger"].values()) == n_queries


@pytest.mark.parametrize("value", ["false", 0])
def test_non_boolean_flag_in_config_is_config_error(pipeline_fixture, tmp_path, value):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"drop-nsfw": value}), encoding="utf-8")
    code = run(
        [
            "assemble", "--config", str(config_path),
            "--candidates", str(pipeline_fixture["corpus"]),
            "--corpus", str(pipeline_fixture["corpus"]),
            "--threshold", "0.3",
            "--out", str(tmp_path / "o"),
        ]
    )
    assert code == 2


VECTOR_IDS = ["a", "b", "c", "d", "n00000001", "n00000002"]
VECTORS = np.array(
    [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9], [1.0, 0.2], [0.2, 1.0]], dtype="<f4"
)
ROWS = [("a", "n00000001", 0.9), ("b", "n00000001", 0.8), ("c", "n00000002", 0.7),
        ("d", "n00000002", 0.6)]
GOOD_INPUTS = {
    "taxonomy.jsonl": "".join(
        json.dumps({"wnid": w, "lemmas": [name], "name": name, "gloss": f"a {name}"}) + "\n"
        for w, name in [("n00000001", "cat"), ("n00000002", "dog")]
    ).encode(),
    "corpus.jsonl": b'{"id": "a", "text": "a cat"}\n{"id": "b", "text": "the cat"}\n'
                    b'{"id": "c", "text": "a dog"}\n{"id": "d", "text": "big dog"}\n',
    "candidates.jsonl": "".join(json.dumps({"id": i, "wnid": w, "score": v}) + "\n"
                                for i, w, v in ROWS).encode(),
    "predictions.jsonl": "".join(json.dumps({"id": i, "ranked": [w]}) + "\n"
                                 for i, w, _ in ROWS).encode(),
    "pairs.jsonl": b'{"id": "a", "wnid": "n00000001"}\n',
    "table.csv": b"x,y\n1,2\n2,1\n3,3\n",
    # written out by hand so one byte of the id trailer can be corrupted
    "vectors.emb": (EMBEDDING_MAGIC + struct.pack("<IQ", 2, len(VECTOR_IDS)) + VECTORS.tobytes()
                    + "".join(f'"{i}"\n' for i in VECTOR_IDS).encode()),
}
GOOD_INPUTS["manifest.jsonl"] = GOOD_INPUTS["candidates.jsonl"]
GOOD_INPUTS["weights.json"] = b'{"n00000001": 0.75, "n00000002": 0.25}'
# Every option of a stage comes from its config, so that any of them can be
# given a value of the wrong type; values naming a file above are made paths.
STAGES = {
    "match": (["match"], {"taxonomy": "taxonomy.jsonl", "corpus": "corpus.jsonl",
                          "caption-embeddings": "vectors.emb",
                          "synset-embeddings": "vectors.emb", "max-lemmas": 2}),
    "sweep": (["sweep"], {"candidates": "candidates.jsonl", "thresholds": "0:1:0.5"}),
    "assemble": (["assemble"], {"candidates": "candidates.jsonl", "corpus": "corpus.jsonl",
                                "threshold": 0.3, "top-k": 1, "drop-nsfw": True}),
    "eval": (["eval"], {"manifest": "manifest.jsonl", "predictions": "predictions.jsonl",
                        "k": "1,2", "weights": "freq"}),
    "eval-weights": (["eval"], {"manifest": "manifest.jsonl", "predictions": "predictions.jsonl",
                                "weights": "weights.json"}),
    "intra": (["diagnose", "intra"], {"manifest": "manifest.jsonl",
                                      "image-embeddings": "vectors.emb",
                                      "hist-edges": "-1:1:0.5"}),
    "compare": (["diagnose", "compare"], {"manifest-a": "manifest.jsonl",
                                          "manifest-b": "manifest.jsonl",
                                          "image-embeddings-a": "vectors.emb",
                                          "image-embeddings-b": "vectors.emb",
                                          "boot": 20, "seed": 1}),
    "false-class": (["diagnose", "false-class"], {"text-embeddings": "vectors.emb",
                                                  "pairs": "pairs.jsonl",
                                                  "synset-embeddings": "vectors.emb",
                                                  "bin-edges": "-1,0,1"}),
    "nearest-text": (["diagnose", "nearest-text"], {"query-embeddings": "vectors.emb",
                                                    "query-labels": "pairs.jsonl",
                                                    "corpus-embeddings": "vectors.emb",
                                                    "min-sim": 0.7}),
    "cross-modal": (["diagnose", "cross-modal"], {"manifest": "manifest.jsonl",
                                                  "image-embeddings": "vectors.emb",
                                                  "synset-embeddings": "vectors.emb",
                                                  "boot": 20}),
    "correlate": (["diagnose", "correlate"], {"csv": "table.csv", "x-col": "x", "y-col": "y"}),
    "simulate": (["simulate"], {"n_classes": 2, "x_dim": 4, "text_noise_sd": 0.25,
                                "class_sep": 1.5, "seed": 9, "n": 2000,
                                "text_rule": {"kind": "text_threshold", "threshold": 0.8},
                                "image_rule": {"kind": "image_ball", "radius": 1.0,
                                               "prototype": [1.06, 0.0, 0.0, 0.0]}}),
}


def first_line(name, line):
    """The good `name` with its first line replaced by `line`."""
    return line + b"\n" + GOOD_INPUTS[name].split(b"\n", 1)[1]


NOT_UTF8 = b'{"id": "\xff"}'
NOT_OBJECT = b'["a", "n00000001", 0.9]'
BAD_SCORE = b'{"id": "a", "wnid": "n00000001", "score": "high"}'
BAD_TEXT = b'{"id": "a", "text": ["a", "cat"]}'
BAD_RANKED = b'{"id": "a", "ranked": "xyz"}'  # not a list, though its letters are distinct
BAD_LEMMAS = b'{"wnid": "n00000001", "lemmas": "cat", "name": "cat", "gloss": "a cat"}'
UNKNOWN_ID = b'{"id": "zzz", "wnid": "n00000001"}'
LONE_SURROGATE = b'{"id": "a", "wnid": "\\ud800", "score": 0.9}'  # valid JSON, not UTF-8 text
NSFW_STRING = b'{"id": "a", "text": "a cat", "nsfw": "false"}'  # was read as true
NSFW_NULL = b'{"id": "a", "text": "a cat", "nsfw": null}'
TEXT_IN_IMAGE_STRING = b'{"id": "a", "text": "a cat", "text_in_image": "no"}'
SPLIT_WNID = b'{"id": "a", "wnid": "x,y\\nz", "score": 0.9}'  # split a CSV row in two
SHORT_WNID = b'{"id": "a", "wnid": "n0000001", "score": 0.9}'
WIDE_DIGIT_WNID = b'{"id": "a", "wnid": "n0000000\\uff11", "score": 0.9}'  # fullwidth 1
BAD_RANKED_WNID = b'{"id": "a", "ranked": ["n00000001", "cat"]}'
BAD_PAIR_WNID = b'{"id": "a", "wnid": "n00000001\\n"}'
META_ZERO = b'{"id": "a", "text": "a cat", "meta": 0}'  # was read as {}
FILE, UNDER_FILE = "<a file>", "<a path below a file>"  # values for --out


def add_line(name, line):
    """The good `name` with `line` added at its end."""
    return GOOD_INPUTS[name] + line + b"\n"


REPEATED_WNID = b'{"wnid": "n00000001", "lemmas": ["puma"], "name": "puma", "gloss": "a puma"}'
REPEATED_INSTANCE = b'{"id": "a", "wnid": "n00000002", "score": 0.9}'  # a new pair, an old id
# (stage, file, value, the error after the file's path): a key seen twice
DUPLICATES = [
    ("match", "corpus.jsonl", add_line("corpus.jsonl", b'{"id": "a", "text": "again"}'),
     "line 5: duplicate instance id 'a' (first seen on line 1)"),
    ("match", "taxonomy.jsonl", add_line("taxonomy.jsonl", REPEATED_WNID),
     "line 3: duplicate wnid 'n00000001' (first seen on line 1)"),
    ("sweep", "candidates.jsonl",
     add_line("candidates.jsonl", b'{"id": "a", "wnid": "n00000001", "score": 0.5}'),
     "line 5: duplicate candidate ('a', 'n00000001') (first seen on line 1)"),
    ("eval", "manifest.jsonl", add_line("manifest.jsonl", REPEATED_INSTANCE),
     "line 5: duplicate instance id 'a' (first seen on line 1)"),
    ("intra", "manifest.jsonl", add_line("manifest.jsonl", REPEATED_INSTANCE),
     "line 5: duplicate instance id 'a' (first seen on line 1)"),
    ("eval", "predictions.jsonl", add_line("predictions.jsonl", b'{"id": "a", "ranked": []}'),
     "line 5: duplicate prediction id 'a' (first seen on line 1)"),
    ("match", "vectors.emb", GOOD_INPUTS["vectors.emb"].replace(b'"b"', b'"a"'),
     "duplicate embedding id 'a'"),
]
# (stage, target, value, exit code): `target` is an input file whose bytes
# become `value`, or a config key set to `value`; "run.json" is the config.
MALFORMED = [
    ("match", "taxonomy.jsonl", first_line("taxonomy.jsonl", NOT_UTF8), 3),
    ("match", "taxonomy.jsonl", first_line("taxonomy.jsonl", BAD_LEMMAS), 3),
    ("match", "corpus.jsonl", first_line("corpus.jsonl", NOT_UTF8), 3),
    ("match", "corpus.jsonl", first_line("corpus.jsonl", NOT_OBJECT), 3),
    ("match", "corpus.jsonl", first_line("corpus.jsonl", BAD_TEXT), 3),
    ("match", "max-lemmas", "x", 2),
    ("match", "out", 5, 2),
    ("match", "out", FILE, 2),
    ("match", "out", UNDER_FILE, 2),
    ("match", "run.json", b'{"max-lemmas": "\xff"}', 2),
    ("sweep", "candidates.jsonl", first_line("candidates.jsonl", NOT_UTF8), 3),
    ("sweep", "candidates.jsonl", first_line("candidates.jsonl", NOT_OBJECT), 3),
    ("sweep", "candidates.jsonl", first_line("candidates.jsonl", BAD_SCORE), 3),
    ("sweep", "thresholds", [0.1, 0.5], 2),
    ("assemble", "candidates.jsonl", first_line("candidates.jsonl", NOT_UTF8), 3),
    ("assemble", "candidates.jsonl", first_line("candidates.jsonl", NOT_OBJECT), 3),
    ("assemble", "candidates.jsonl", first_line("candidates.jsonl", BAD_SCORE), 3),
    ("assemble", "corpus.jsonl", first_line("corpus.jsonl", NOT_UTF8), 3),
    ("assemble", "corpus.jsonl", first_line("corpus.jsonl", NOT_OBJECT), 3),
    ("assemble", "corpus.jsonl", first_line("corpus.jsonl", BAD_TEXT), 3),
    ("assemble", "threshold", "abc", 2),
    ("assemble", "top-k", "x", 2),
    ("assemble", "top-k", 1.5, 2),
    ("assemble", "corpus.jsonl", first_line("corpus.jsonl", NSFW_STRING), 3),
    ("assemble", "corpus.jsonl", first_line("corpus.jsonl", NSFW_NULL), 3),
    ("assemble", "corpus.jsonl", first_line("corpus.jsonl", TEXT_IN_IMAGE_STRING), 3),
    ("match", "corpus.jsonl", first_line("corpus.jsonl", NSFW_STRING), 3),
    ("sweep", "candidates.jsonl", first_line("candidates.jsonl", SPLIT_WNID), 3),
    ("assemble", "out", FILE, 2),
    ("eval", "manifest.jsonl", first_line("manifest.jsonl", NOT_UTF8), 3),
    ("eval", "manifest.jsonl", first_line("manifest.jsonl", NOT_OBJECT), 3),
    ("eval", "manifest.jsonl", first_line("manifest.jsonl", BAD_SCORE), 3),
    ("eval", "manifest.jsonl", first_line("manifest.jsonl", LONE_SURROGATE), 3),
    ("eval", "predictions.jsonl", first_line("predictions.jsonl", NOT_UTF8), 3),
    ("eval", "predictions.jsonl", first_line("predictions.jsonl", NOT_OBJECT), 3),
    ("eval", "predictions.jsonl", first_line("predictions.jsonl", BAD_RANKED), 3),
    ("eval", "manifest.jsonl", first_line("manifest.jsonl", SPLIT_WNID), 3),
    ("eval", "manifest.jsonl", first_line("manifest.jsonl", SHORT_WNID), 3),
    ("eval", "manifest.jsonl", first_line("manifest.jsonl", WIDE_DIGIT_WNID), 3),
    ("eval", "predictions.jsonl", first_line("predictions.jsonl", BAD_RANKED_WNID), 3),
    ("eval", "k", "a", 2),
    ("eval", "weights", 5, 2),
    ("intra", "manifest.jsonl", first_line("manifest.jsonl", NOT_UTF8), 3),
    ("intra", "hist-edges", 0.5, 2),
    ("intra", "manifest.jsonl", first_line("manifest.jsonl", SPLIT_WNID), 3),
    ("compare", "manifest.jsonl", first_line("manifest.jsonl", NOT_UTF8), 3),
    ("compare", "manifest.jsonl", first_line("manifest.jsonl", SPLIT_WNID), 3),
    ("compare", "boot", "x", 2),
    ("compare", "boot", 2.5, 2),
    ("compare", "seed", 1.9, 2),
    ("false-class", "pairs.jsonl", NOT_UTF8, 3),
    ("false-class", "pairs.jsonl", b"{not json", 3),
    ("false-class", "pairs.jsonl", b'["a", "b"]', 3),
    ("false-class", "pairs.jsonl", b'{"id": "a"}', 3),
    ("false-class", "pairs.jsonl", UNKNOWN_ID, 3),
    ("false-class", "vectors.emb", GOOD_INPUTS["vectors.emb"].replace(b'"a"', b'"\xff"'), 3),
    ("false-class", "pairs.jsonl", BAD_PAIR_WNID, 3),
    ("false-class", "bin-edges", [-1, 0, 1], 2),
    ("nearest-text", "pairs.jsonl", NOT_UTF8, 3),
    ("nearest-text", "pairs.jsonl", b"{not json", 3),
    ("nearest-text", "pairs.jsonl", UNKNOWN_ID, 3),
    ("nearest-text", "pairs.jsonl", BAD_PAIR_WNID, 3),
    ("nearest-text", "min-sim", "x", 2),
    ("cross-modal", "manifest.jsonl", first_line("manifest.jsonl", BAD_SCORE), 3),
    ("cross-modal", "boot", "x", 2),
    ("correlate", "table.csv", b"x,y\n1,\xff\n", 3),
    ("correlate", "table.csv", b"x,y\n1,oops\n", 3),
    ("simulate", "run.json", b'{"n": "\xff"}', 2),
    ("simulate", "out", 5, 2),
    ("simulate", "out", FILE, 2),
    # non-finite numbers, and ranges too long to generate
    ("sweep", "thresholds", "0:inf:0.5", 2),
    ("sweep", "thresholds", "0:1e300:1", 2),
    ("sweep", "thresholds", "0.1,nan", 2),
    ("intra", "hist-edges", "-1,0,nan", 2),
    ("false-class", "bin-edges", "-1,inf", 2),
    # class weights that are not finite numbers >= 0
    ("eval-weights", "weights.json", b'{"n00000001": true, "n00000002": 1}', 3),
    ("eval-weights", "weights.json", b'{"n00000001": "nan", "n00000002": 1}', 3),
    ("eval-weights", "weights.json", b'{"n00000001": NaN, "n00000002": 1}', 3),
    ("eval-weights", "weights.json", b'{"n00000001": -0.5, "n00000002": 1}', 3),
    # integer options out of range, refused before any input is read
    ("match", "max-lemmas", -1, 2),
    ("match", "max-lemmas", 0, 2),
    ("assemble", "top-k", 0, 2),
    ("eval", "k", "1,1", 2),
    ("compare", "boot", 0, 2),
    ("cross-modal", "boot", -1, 2),
    ("compare", "seed", -1, 2),
    ("simulate", "n", 0, 2),
    ("simulate", "n_classes", 0, 2),
    ("simulate", "x_dim", 1, 2),
    # number lists that are not strictly increasing, refused before any input is read
    ("sweep", "thresholds", "0.5,0.1", 2),
    ("sweep", "thresholds", "0:1e-12:1e-13", 2),  # a range whose rounded values repeat
    ("intra", "hist-edges", "0.5,0.1", 2),
    ("false-class", "bin-edges", "1,0", 2),
    # one edge, which bounds no bin
    ("intra", "hist-edges", "0.5", 2),
    ("false-class", "bin-edges", "0.5", 2),
    # --min-sim outside [-1, 1], refused before any input is read
    ("nearest-text", "min-sim", 2, 2),
    ("nearest-text", "min-sim", "nan", 2),
    # non-finite CSV cells
    ("correlate", "table.csv", b"x,y\n1,nan\n2,3\n3,4\n", 3),
    ("correlate", "table.csv", b"x,y\n1,2\ninf,3\n3,4\n", 3),
    # a corpus meta that is not an object or null
    ("assemble", "corpus.jsonl", first_line("corpus.jsonl", META_ZERO), 3),
    *[(stage, target, value, 3) for stage, target, value, _ in DUPLICATES],
]


def _case_id(case):
    stage, target, value, _ = case
    if target.endswith(".emb"):
        value = "id-trailer"  # its leading bytes are the binary header
    elif isinstance(value, bytes):  # show the line that was corrupted
        good = GOOD_INPUTS.get(target, b"").split(b"\n")
        value = next(line for line in value.split(b"\n") if line not in good)
    return f"{stage}-{target}-{value!r}"


def run_corrupted(tmp_path, capsys, stage, target, value, out="out") -> int:
    """Run `stage` on the good inputs, then with the one corruption of a
    MALFORMED case and --out at `out`; the second run's exit code."""
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    command, options = STAGES[stage]
    config = {key: str(tmp_path / v) if isinstance(v, str) and v in GOOD_INPUTS else v
              for key, v in options.items()}
    config["out"] = str(tmp_path / "out")
    config_path = tmp_path / "run.json"
    argv = command + ["--config", str(config_path)]
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run(argv) == 0  # the inputs are valid before the one corruption
    capsys.readouterr()

    config["out"] = str(tmp_path / out)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    if target in GOOD_INPUTS or target == "run.json":
        (tmp_path / target).write_bytes(value)
    else:
        if value in (FILE, UNDER_FILE):
            value = str(tmp_path / "table.csv") + ("" if value == FILE else "/out")
        config_path.write_text(json.dumps({**config, target: value}), encoding="utf-8")
    return run(argv)


@pytest.mark.parametrize("stage, target, value, code", MALFORMED, ids=map(_case_id, MALFORMED))
def test_malformed_input_never_tracebacks(tmp_path, capsys, stage, target, value, code):
    assert run_corrupted(tmp_path, capsys, stage, target, value) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    prefix = {2: "capsieve: config error:", 3: "capsieve: data error:"}[code]
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err


@pytest.mark.parametrize("stage, target, value, message", DUPLICATES,
                         ids=[_case_id((*case[:3], 3)) for case in DUPLICATES])
def test_duplicate_key_names_its_file_and_lines(tmp_path, capsys, stage, target, value, message):
    assert run_corrupted(tmp_path, capsys, stage, target, value) == 3
    assert capsys.readouterr().err == f"capsieve: data error: {tmp_path / target}: {message}\n"


@pytest.mark.parametrize("max_lemmas", [None, 1])
def test_a_lemma_that_folds_to_nothing_is_refused_with_its_line(tmp_path, capsys, max_lemmas):
    # with --max-lemmas 1 the matcher never reads the bad lemma, which is not a headword
    taxonomy = tmp_path / "taxonomy.jsonl"
    write_jsonl(taxonomy, [{"wnid": "n00000001", "lemmas": ["cat"], "name": "cat", "gloss": "x"},
                           {"wnid": "n00000002", "lemmas": ["dog", "_"], "name": "dog",
                            "gloss": "y"}])
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"id": "a", "text": "a cat and a dog"}])
    argv = ["match", "--taxonomy", taxonomy, "--corpus", corpus, "--out", tmp_path / "out"]
    if max_lemmas is not None:
        argv += ["--max-lemmas", max_lemmas]
    assert run([str(a) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err == f"capsieve: data error: {taxonomy}: line 2: synset n00000002: empty lemma\n"


def test_embedding_error_names_the_file_it_is_in(tmp_path, capsys):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    zero_row = VECTORS.copy()
    zero_row[2] = 0.0
    images_b = tmp_path / "b.emb"
    images_b.write_bytes(GOOD_INPUTS["vectors.emb"].replace(VECTORS.tobytes(), zero_row.tobytes()))
    argv = ["diagnose", "compare", "--manifest-a", tmp_path / "manifest.jsonl",
            "--manifest-b", tmp_path / "manifest.jsonl",
            "--image-embeddings-a", tmp_path / "vectors.emb", "--image-embeddings-b", images_b,
            "--boot", "20", "--out", tmp_path / "out"]
    assert run([str(a) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err == f"capsieve: data error: {images_b}: all-zero vector for id 'c'\n"


FAILURES = [case for case in MALFORMED if case[1] != "out"]


@pytest.mark.parametrize("stage, target, value, code", FAILURES, ids=map(_case_id, FAILURES))
def test_a_failed_run_leaves_no_out(tmp_path, capsys, stage, target, value, code):
    # --out is made by a stage's first write, and every stage computes its
    # results before it writes
    assert run_corrupted(tmp_path, capsys, stage, target, value, out="fresh") == code
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("corpus, code, reason", [
    (GOOD_INPUTS["corpus.jsonl"], 2, "Not a directory"),
    (first_line("corpus.jsonl", NOT_UTF8), 3, None),
], ids=["good-corpus", "bad-corpus"])
def test_an_out_below_a_file_is_found_at_the_first_write(tmp_path, capsys, corpus, code, reason):
    write_good_inputs(tmp_path)
    (tmp_path / "corpus.jsonl").write_bytes(corpus)
    out = tmp_path / "table.csv" / "out"
    argv = ["match", "--taxonomy", tmp_path / "taxonomy.jsonl", "--corpus",
            tmp_path / "corpus.jsonl", "--out", out]
    assert run([str(a) for a in argv]) == code  # a fault of the corpus comes first
    err = capsys.readouterr().err
    if reason:
        assert err == f"capsieve: config error: --out: cannot make directory {out}: {reason}\n"
    else:
        assert err.startswith("capsieve: data error: "), err


def test_an_out_that_is_a_file_is_refused_before_any_input_is_read(tmp_path, capsys):
    write_good_inputs(tmp_path)
    (tmp_path / "corpus.jsonl").write_bytes(first_line("corpus.jsonl", NOT_UTF8))
    out = tmp_path / "table.csv"
    argv = ["match", "--taxonomy", tmp_path / "taxonomy.jsonl", "--corpus",
            tmp_path / "corpus.jsonl", "--out", out]
    assert run([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == (
        f"capsieve: config error: --out: cannot make directory {out}: File exists\n"
    )
    assert out.read_bytes() == GOOD_INPUTS["table.csv"]


def test_repeated_ranked_wnid_names_path_and_line(tmp_path, capsys):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_bytes(GOOD_INPUTS["predictions.jsonl"].replace(
        b'"ranked": ["n00000002"]}\n{"id": "d"', b'"ranked": ["n00000002", "n00000002"]}\n{"id": "d"'
    ))
    argv = ["eval", "--manifest", tmp_path / "manifest.jsonl", "--predictions", predictions,
            "--out", tmp_path / "out"]
    assert run([str(a) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err == (f"capsieve: data error: {predictions}: line 3: "
                   "ranked predictions for 'c' not distinct\n")


# Corpus rows after the good corpus's first three, which leave out "d", a
# candidate; no candidate names a row of these.
LATE_CORPUS_FAULTS = [
    ([b'{"id": "e", "text": "x"}', b'{"id": "f", "text": 7}'],
     "line 5: field 'text' must be a Unicode string, got 7"),
    ([b'{"id": "e", "text": "x"}', b'{"id": "e", "text": "y"}'],
     "line 5: duplicate instance id 'e' (first seen on line 4)"),
    ([b'{"id": "e", "text": "x", "meta": 0}'], "line 4: field 'meta' must be an object"),
]


@pytest.mark.parametrize("late, message", LATE_CORPUS_FAULTS, ids=["kind", "duplicate", "meta"])
def test_assemble_reports_a_corpus_fault_before_a_missing_candidate(tmp_path, capsys,
                                                                   monkeypatch, late, message):
    # `assemble` keeps only its candidates' flags, yet checks every corpus row first
    monkeypatch.setattr(corpus, "_JSONL_ROWS", 2)  # the fault is after the first chunk
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    path = tmp_path / "corpus.jsonl"
    argv = ["assemble", "--candidates", tmp_path / "candidates.jsonl", "--corpus", path,
            "--threshold", "0.3", "--out", tmp_path / "out"]
    head = GOOD_INPUTS["corpus.jsonl"].split(b"\n")[:3]
    path.write_bytes(b"\n".join(head) + b"\n")
    assert run([str(a) for a in argv]) == 3
    assert capsys.readouterr().err == "capsieve: data error: candidate instance 'd' not in corpus\n"
    path.write_bytes(b"\n".join(head + late) + b"\n")
    assert run([str(a) for a in argv]) == 3
    assert capsys.readouterr().err == f"capsieve: data error: {path}: {message}\n"


def test_false_class_with_no_pairs_reports_empty_bins(tmp_path):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    (tmp_path / "pairs.jsonl").write_bytes(b"")
    run_ok(["diagnose", "false-class", "--text-embeddings", tmp_path / "vectors.emb",
            "--pairs", tmp_path / "pairs.jsonl", "--synset-embeddings", tmp_path / "vectors.emb",
            "--bin-edges=-1,0,1", "--out", tmp_path / "out"])
    lines = (tmp_path / "out" / "false_class_bins.csv").read_text().splitlines()
    assert lines[1:] == ["-1.0,0.0,0,", "0.0,1.0,0,"]


def test_drop_nsfw_reads_the_flag_as_a_json_boolean(tmp_path, capsys):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    corpus = tmp_path / "corpus.jsonl"
    argv = ["assemble", "--candidates", tmp_path / "candidates.jsonl", "--corpus", corpus,
            "--threshold", "0.3", "--drop-nsfw", "--out", tmp_path / "out"]
    corpus.write_bytes(first_line("corpus.jsonl", b'{"id": "a", "text": "a cat", "nsfw": false}')
                       .replace(b'"big dog"}', b'"big dog", "nsfw": true}'))
    run_ok(argv)
    kept = [json.loads(line)["id"]
            for line in (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()]
    assert kept == ["a", "b", "c"]
    assert read_json(tmp_path / "out" / "manifest.meta.json")["drop_ledger"]["nsfw"] == 1

    # the string "false" used to count as true, and dropped the row
    corpus.write_bytes(first_line("corpus.jsonl", NSFW_STRING))
    (tmp_path / "out" / "manifest.jsonl").unlink()
    assert run([str(a) for a in argv]) == 3
    assert "field 'nsfw' must be a JSON boolean" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.jsonl").exists()


@pytest.mark.parametrize("key, value, same_as", [("boot", 20.0, 20), ("seed", 1.0, 1),
                                                  ("boot", "20", 20)])
def test_int_option_takes_values_that_convert_without_loss(tmp_path, key, value, same_as):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    command, options = STAGES["compare"]
    config = {k: str(tmp_path / v) if isinstance(v, str) and v in GOOD_INPUTS else v
              for k, v in options.items()}
    trees = []
    for given in (value, same_as):
        out = tmp_path / f"out-{given!r}"
        (tmp_path / "run.json").write_text(json.dumps({**config, key: given, "out": str(out)}))
        run_ok(command + ["--config", tmp_path / "run.json"])
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("stage, key", [("nearest-text", "min-sim"), ("eval", "k"),
                                        ("compare", "boot")])
def test_config_null_is_the_default(tmp_path, stage, key):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    command, options = STAGES[stage]
    config = {k: str(tmp_path / v) if isinstance(v, str) and v in GOOD_INPUTS else v
              for k, v in options.items() if k != key}
    trees = []
    for given in ({}, {key: None}):
        out = tmp_path / f"out-{len(trees)}"
        (tmp_path / "run.json").write_text(json.dumps({**config, **given, "out": str(out)}))
        run_ok(command + ["--config", tmp_path / "run.json"])
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]


def test_boot_defaults_to_the_library_default(tmp_path):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    command, options = STAGES["cross-modal"]
    argv = command + [f"--{k}={tmp_path / v}" for k, v in options.items() if v in GOOD_INPUTS]
    run_ok(argv + ["--out", tmp_path / "default"])
    run_ok(argv + ["--boot", DEFAULT_BOOTSTRAP_REPLICATES, "--out", tmp_path / "given"])
    assert tree_bytes(tmp_path / "default") == tree_bytes(tmp_path / "given")


@pytest.mark.parametrize(
    "stage",
    ["match", "sweep", "assemble", "eval", "intra", "false-class", "nearest-text", "correlate"],
)
def test_seed_is_refused_by_stages_that_draw_nothing(tmp_path, capsys, stage):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    command, options = STAGES[stage]
    config = {k: str(tmp_path / v) if isinstance(v, str) and v in GOOD_INPUTS else v
              for k, v in options.items()}
    (tmp_path / "run.json").write_text(json.dumps({**config, "out": str(tmp_path / "out")}))
    argv = command + ["--config", str(tmp_path / "run.json")]
    assert run(argv) == 0
    capsys.readouterr()
    assert run(argv + ["--seed", "1"]) == 2
    if command[0] == "diagnose":
        message = f"{' '.join(command)} takes no --seed"
    else:
        message = "unrecognized arguments: --seed 1"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "stage, flag, value",
    [("match", "max-lemmas", "two"), ("assemble", "threshold", "high"),
     ("assemble", "top-k", "2.5"), ("nearest-text", "min-sim", "x"), ("compare", "boot", "1.5"),
     ("cross-modal", "seed", "one"), ("simulate", "seed", "1.5"), ("simulate", "n", "1e3")],
)
def test_flag_of_the_wrong_kind_is_config_error(tmp_path, capsys, stage, flag, value):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    command, options = STAGES[stage]
    config = {k: str(tmp_path / v) if isinstance(v, str) and v in GOOD_INPUTS else v
              for k, v in options.items()}
    (tmp_path / "run.json").write_text(json.dumps({**config, "out": str(tmp_path / "out")}))
    argv = command + ["--config", str(tmp_path / "run.json")]
    assert run(argv + [f"--{flag}={value}"]) == 2
    assert capsys.readouterr().err == f"capsieve: config error: bad --{flag}: {value!r}\n"


# An option of each analysis that belongs to another one, with a value.
FOREIGN_OPTIONS = {
    "intra": ("pairs", "pairs.jsonl"),
    "compare": ("min-sim", "0.5"),
    "false-class": ("boot", "10"),
    "nearest-text": ("boot", "10"),
    "cross-modal": ("hist-edges", "-1:1:0.5"),
    "correlate": ("seed", "1"),
}


@pytest.mark.parametrize("stage", list(FOREIGN_OPTIONS))
def test_diagnose_refuses_the_options_of_another_analysis(tmp_path, capsys, stage):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    command, options = STAGES[stage]
    option, value = FOREIGN_OPTIONS[stage]
    value = str(tmp_path / value) if value in GOOD_INPUTS else value
    config = {k: str(tmp_path / v) if isinstance(v, str) and v in GOOD_INPUTS else v
              for k, v in options.items()}
    config_path, out = tmp_path / "run.json", tmp_path / "out"
    argv = command + ["--config", str(config_path)]
    config_path.write_text(json.dumps({**config, "out": str(out / "ok")}), encoding="utf-8")
    assert run(argv) == 0  # the config is valid before the foreign option
    capsys.readouterr()

    config_path.write_text(json.dumps({**config, "out": str(out / "flag")}), encoding="utf-8")
    assert run(argv + [f"--{option}={value}"]) == 2
    assert capsys.readouterr().err == (
        f"capsieve: config error: {' '.join(command)} takes no --{option}\n"
    )
    assert not (out / "flag").exists()  # refused before --out is made

    config_path.write_text(json.dumps({**config, option: value, "out": str(out / "key")}))
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"capsieve: config error: unknown config key(s) for {' '.join(command)}: {option!r}\n"
    )
    assert not (out / "key").exists()


@pytest.mark.parametrize("stage", list(STAGES))
def test_unknown_config_key_is_config_error(tmp_path, capsys, stage):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    command, options = STAGES[stage]
    config = {k: str(tmp_path / v) if isinstance(v, str) and v in GOOD_INPUTS else v
              for k, v in options.items()}
    config_path, out = tmp_path / "run.json", tmp_path / "out"
    argv = command + ["--config", str(config_path)]
    config_path.write_text(json.dumps({**config, "out": str(out / "ok")}), encoding="utf-8")
    assert run(argv) == 0  # the config is valid before the misspelt key
    capsys.readouterr()

    misspelt = next(iter(options)) + "z"
    config_path.write_text(json.dumps({**config, misspelt: 1, "out": str(out / "bad")}))
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        f"capsieve: config error: unknown config key(s) for {' '.join(command)}: {misspelt!r}\n"
    )
    assert not (out / "bad").exists()  # refused before --out is made


# The config keys each subcommand or analysis takes: its options, --out
# included. Each option but simulate's generator and rule keys is a flag too.
CONFIG_KEYS = {
    "match": {"out", "taxonomy", "corpus", "caption-embeddings", "synset-embeddings",
              "max-lemmas"},
    "sweep": {"out", "candidates", "thresholds"},
    "assemble": {"out", "candidates", "corpus", "threshold", "drop-multi-label", "drop-nsfw",
                 "drop-text-in-image", "top-k"},
    "eval": {"out", "manifest", "predictions", "weights", "k"},
    "diagnose intra": {"out", "manifest", "image-embeddings", "hist-edges"},
    "diagnose compare": {"out", "seed", "boot", "manifest-a", "manifest-b",
                         "image-embeddings-a", "image-embeddings-b"},
    "diagnose false-class": {"out", "text-embeddings", "pairs", "synset-embeddings",
                             "bin-edges"},
    "diagnose nearest-text": {"out", "query-embeddings", "query-labels", "corpus-embeddings",
                              "min-sim"},
    "diagnose cross-modal": {"out", "seed", "boot", "manifest", "image-embeddings",
                             "synset-embeddings"},
    "diagnose correlate": {"out", "csv", "x-col", "y-col"},
    "simulate": {"out", "seed", "n", "n_classes", "x_dim", "text_noise_sd", "class_sep",
                 "bin_width", "alpha", "text_rule", "image_rule"},
}
CONFIG_ONLY = {"n_classes", "x_dim", "text_noise_sd", "class_sep", "bin_width", "alpha",
               "text_rule", "image_rule"}


@pytest.mark.parametrize("command", list(CONFIG_KEYS))
def test_each_option_is_a_flag_and_a_config_key(tmp_path, capsys, command):
    argv = command.split()
    subcommand = argv[0]
    assert run([subcommand, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--([a-z][\w-]*)", capsys.readouterr().out))
    # diagnose's parser lists the flags of every analysis
    keys = set().union(*(v for k, v in CONFIG_KEYS.items() if k.split()[0] == subcommand))
    assert listed == {"help", "config"} | (keys - CONFIG_ONLY)

    config_path = tmp_path / "run.json"
    taken = set()
    for key in sorted(set().union(*CONFIG_KEYS.values()) |
                      {"config", "command", "analysis", "func", "help", "max_lemmas"}):
        config_path.write_text(json.dumps({key: None}), encoding="utf-8")
        assert run(argv + ["--config", str(config_path)]) == 2  # no --out
        if "unknown config key(s)" not in capsys.readouterr().err:
            taken.add(key)
    assert taken == CONFIG_KEYS[command]


@pytest.mark.parametrize("stage", ["intra", "compare"])
def test_missing_image_embedding_leaves_no_partial_csv(tmp_path, capsys, stage):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    with (tmp_path / "manifest.jsonl").open("a", encoding="utf-8") as fh:
        fh.write('{"id": "zzz", "wnid": "n00000002", "score": 0.5}\n')  # in the last class
    command, options = STAGES[stage]
    argv = command + [f"--{k}={tmp_path / v}" for k, v in options.items() if v in GOOD_INPUTS]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "capsieve: data error: missing image embedding for id 'zzz'\n"
    )
    assert not (tmp_path / "out").exists()


def test_compare_reads_a_side_to_its_end_after_the_last_shared_class(tmp_path, capsys):
    # side A's classes past every one of B's are only read by the merge's
    # drain: the last of them has an image with no embedding
    write_good_inputs(tmp_path)
    manifest_a = tmp_path / "manifest_a.jsonl"
    manifest_a.write_bytes(GOOD_INPUTS["manifest.jsonl"]
                           + b'{"id": "n00000001", "wnid": "n00000003", "score": 0.5}\n'
                           + b'{"id": "n00000002", "wnid": "n00000004", "score": 0.5}\n'
                           + b'{"id": "zzz", "wnid": "n00000005", "score": 0.5}\n')
    vectors = tmp_path / "vectors.emb"
    argv = ["diagnose", "compare", "--manifest-a", manifest_a,
            "--manifest-b", tmp_path / "manifest.jsonl", "--image-embeddings-a", vectors,
            "--image-embeddings-b", vectors, "--boot", 20, "--seed", 1, "--out", tmp_path / "out"]
    assert run([str(a) for a in argv]) == 3
    assert capsys.readouterr().err == (
        "capsieve: data error: missing image embedding for id 'zzz'\n"
    )
    assert not (tmp_path / "out").exists()


# (stage, input file, its bytes, the error): data that breaks only once the
# first output could have been written.
LATE_DATA_ERRORS = [
    ("match", "corpus.jsonl", GOOD_INPUTS["corpus.jsonl"] + b'{"id": "e", "text": "a cat"}\n',
     "missing caption embedding for id 'e'"),
    ("eval-weights", "weights.json", b'{"n00000001": 1.0}', "no weight for class 'n00000002'"),
]


@pytest.mark.parametrize("stage, name, content, error", LATE_DATA_ERRORS,
                         ids=[case[0] for case in LATE_DATA_ERRORS])
def test_late_data_error_leaves_no_out(tmp_path, capsys, stage, name, content, error):
    for good_name, good in GOOD_INPUTS.items():
        (tmp_path / good_name).write_bytes(good)
    (tmp_path / name).write_bytes(content)
    command, options = STAGES[stage]
    argv = command + [f"--{k}={tmp_path / v}" if v in GOOD_INPUTS else f"--{k}={v}"
                      for k, v in options.items()]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"capsieve: data error: {error}\n"
    assert not (tmp_path / "out").exists()


def test_eval_weights_file_is_recorded_by_content_not_path(tmp_path):
    for name, good in GOOD_INPUTS.items():
        (tmp_path / name).write_bytes(good)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "w.json").write_bytes(GOOD_INPUTS["weights.json"])
    trees = []
    for weights in (tmp_path / "weights.json", tmp_path / "sub" / "w.json"):
        out = tmp_path / "out" / weights.parent.name
        run_ok(["eval", "--manifest", tmp_path / "manifest.jsonl",
                "--predictions", tmp_path / "predictions.jsonl", "--weights", weights,
                "--out", out])
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]
    assert read_json(out / "accuracy.json")["weights_mode"] == "file"


SIM_CONFIG = {
    "n_classes": 2,
    "x_dim": 4,
    "text_noise_sd": 0.25,
    "class_sep": 1.5,
    "seed": 9,
    "n": 5000,
    "text_rule": {"kind": "text_threshold", "threshold": 0.8},
    "image_rule": {"kind": "image_ball", "radius": "match", "prototype": [1.06, 0.0, 0.0, 0.0]},
}
BALL = SIM_CONFIG["image_rule"]


@pytest.mark.parametrize(
    "key, value, code",
    [
        ("image_rule", {**BALL, "prototype": [1.06, 0.0]}, 3),
        ("n_classes", "two", 2),
        ("image_rule", [BALL], 2),
        ("image_rule", {**BALL, "radius": "wide"}, 2),
        ("text_rule", {"kind": "text_threshold", "threshold": "high"}, 2),
        ("image_rule", {**BALL, "prototype": ["a", 0.0, 0.0, 0.0]}, 2),
        ("bin_width", "narrow", 2),
        ("bin_width", float("nan"), 3),
        ("bin_width", 5e-324, 3),
        ("alpha", 0.0, 3),
        ("seed", -1, 2),
    ],
    ids=["proto-length-match", "n_classes-str", "image-rule-list", "radius-str", "threshold-str",
         "proto-entry-str", "bin-width-str", "bin-width-nan",
         "bin-width-overflows", "alpha-zero", "seed-negative"],
)
def test_malformed_simulate_config_is_rejected(tmp_path, capsys, key, value, code):
    config_path = tmp_path / "sim.json"
    argv = ["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]
    config_path.write_text(json.dumps(SIM_CONFIG), encoding="utf-8")
    assert run(argv) == 0  # the config is valid before the one change
    capsys.readouterr()

    config_path.write_text(json.dumps({**SIM_CONFIG, key: value}), encoding="utf-8")
    assert run(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    prefix = {2: "capsieve: config error:", 3: "capsieve: data error:"}[code]
    assert len(err.splitlines()) == 1 and err.startswith(prefix)


@pytest.mark.parametrize("rule, key, spec", [
    ("text_rule", "threshold", {"kind": "text_threshold", "threshold": float("nan")}),
    ("image_rule", "radius", {**BALL, "radius": float("inf")}),
    ("image_rule", "prototype entry", {**BALL, "prototype": [1.06, float("-inf"), 0.0, 0.0]}),
    ("image_rule", "text_threshold_also", {**BALL, "text_threshold_also": float("nan")}),
], ids=["threshold-nan", "radius-inf", "proto-entry-inf", "text-also-nan"])
def test_a_non_finite_rule_value_is_a_config_error_naming_its_key(tmp_path, capsys, rule, key,
                                                                    spec):
    # Python's json reads NaN and Infinity; a NaN threshold used to keep no
    # sample and exit 3 with a message about the matched-radius rate
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps({**SIM_CONFIG, rule: spec}), encoding="utf-8")
    assert run(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"capsieve: config error: {rule}: selection rule {key}: "), err
    assert err.endswith(" is not finite\n"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, kept, n", [
    ({"text_rule": {"kind": "text_threshold", "threshold": 1e308}}, 0, 5000),
    ({"text_rule": {"kind": "text_threshold", "threshold": -1e308}}, 5000, 5000),
    ({"n": 1}, 0, 1),
], ids=["keeps-none", "keeps-all", "one-sample"])
def test_a_matched_radius_refuses_a_text_rule_that_keeps_none_or_all(tmp_path, capsys, change,
                                                                    kept, n):
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps({**SIM_CONFIG, **change}), encoding="utf-8")
    assert run(["simulate", "--config", str(config_path), "--out", str(tmp_path / "sim")]) == 3
    assert capsys.readouterr().err == (
        f"capsieve: data error: text rule kept {kept} of {n} samples; "
        '"radius": "match" needs it to keep some but not all\n'
    )
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("change, message", [
    ({"text_noise_sd": 1e308}, "the text t overflows float64 with text_noise_sd 1e+308"),
    ({"class_sep": 1e308}, "the image_ball distances overflow float64"),
    ({"class_sep": 1e200, "image_rule": {"kind": "image_threshold", "threshold": 0.5}},
     "a mean or variance of the images overflows float64"),
    # t reaches 7e307, and the range over bin_width overflows; then the range itself
    ({"class_sep": 1e308, "image_rule": {"kind": "image_threshold", "threshold": 0.5}},
     "t's range, -3.26672 to 7.07107e+307, over bin_width 0.05 overflows float64"),
    ({"text_noise_sd": 4e307},
     "t's range, -1.59995e+308 to 1.72777e+308, itself overflows float64"),
], ids=["text-noise", "ball-distance", "bin-variance", "t-range-over-bin-width", "t-range"])
def test_simulate_refuses_a_value_that_overflows(tmp_path, capsys, change, message):
    # each used to exit 0 with infinities in its report, or 3 for the wrong
    # reason, and to print numpy RuntimeWarnings
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps({**SIM_CONFIG, **change}), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["simulate", "--config", str(config_path), "--out", str(tmp_path / "sim")])
    assert code == 3
    assert capsys.readouterr().err == f"capsieve: data error: {message}\n"
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not (tmp_path / "sim").exists()


# Sizes whose float64 array numpy refuses to make, without allocating it:
# more than sys.maxsize bytes. A size under that limit would be allocated
# for real, so none is run here.
TOO_BIG = {"2**62": 2**62, "2**63": 2**63, "1e308": 1e308}


@pytest.mark.parametrize("size", TOO_BIG.values(), ids=TOO_BIG.keys())
@pytest.mark.parametrize("key", ["n", "x_dim"])
def test_simulate_refuses_a_size_numpy_cannot_make_an_array_of(tmp_path, capsys, key, size):
    rows, x_dim = (int(size), SIM_CONFIG["x_dim"]) if key == "n" else (SIM_CONFIG["n"], int(size))
    with pytest.raises(ValueError):  # numpy's own refusal, which used to end in a traceback
        np.empty((rows, x_dim))
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps({**SIM_CONFIG, key: size}), encoding="utf-8")
    assert run(["simulate", "--config", str(config_path), "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err == (
        f"capsieve: config error: n x x_dim, {rows} x {x_dim}, is over 1152921504606846975 "
        "values\n"
    )
    assert not (tmp_path / "sim").exists()


def test_simulate_refuses_class_means_numpy_cannot_make_an_array_of(tmp_path, capsys):
    with pytest.raises(ValueError):
        np.empty((2**31, 2**31))
    config_path = tmp_path / "sim.json"
    config = {**SIM_CONFIG, "n": 1, "n_classes": 2**31, "x_dim": 2**31}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["simulate", "--config", str(config_path), "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err == (
        "capsieve: config error: n_classes x x_dim, 2147483648 x 2147483648, is over "
        "1152921504606846975 values\n"
    )
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("size", TOO_BIG.values(), ids=TOO_BIG.keys())
@pytest.mark.parametrize("analysis", ["compare", "cross-modal"])
def test_a_boot_numpy_cannot_make_an_array_of_is_a_config_error(stage_inputs, tmp_path, capsys,
                                                                analysis, size):
    with pytest.raises(ValueError):
        np.empty(int(size))
    inputs = {"compare": {"manifest-a": "manifest", "manifest-b": "manifest",
                          "image-embeddings-a": "image_embeddings",
                          "image-embeddings-b": "image_embeddings"},
              "cross-modal": {"manifest": "manifest", "image-embeddings": "image_embeddings",
                              "synset-embeddings": "synset_embeddings"}}[analysis]
    config_path = tmp_path / "run.json"
    config = {key: stage_inputs[name] for key, name in inputs.items()}
    config_path.write_text(json.dumps({**config, "boot": size}), encoding="utf-8")
    argv = ["diagnose", analysis, "--config", str(config_path), "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"capsieve: config error: --boot: {int(size)} outside [1, 1152921504606846975]\n"
    )
    assert not (tmp_path / "out").exists()


def test_a_prototype_that_is_not_a_list_is_config_error(tmp_path, capsys):
    config_path = tmp_path / "sim.json"
    config = {**SIM_CONFIG, "image_rule": {**BALL, "prototype": "1.06,0,0,0"}}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "capsieve: config error: image_rule: selection rule prototype must be a list, "
        "got '1.06,0,0,0'\n"
    )


@pytest.mark.parametrize("rule, spec, message", [
    ("text_rule", {"kind": "text_threshold", "treshold": 1.0},
     "unknown selection rule key(s): 'treshold'"),
    ("image_rule", {**BALL, "text_treshold_also": 5, "Radius": 1},
     "unknown selection rule key(s): 'Radius', 'text_treshold_also'"),
    ("image_rule", {"kind": "bogus", "threshold": 1.0},
     "unknown rule kind 'bogus'; expected ('text_threshold', 'image_ball', 'image_threshold')"),
    ("image_rule", {**BALL, "radius": -1.0}, "image_ball rule needs a radius >= 0"),
    ("image_rule", {"kind": "image_ball", "prototype": [1.06, 0.0, 0.0, 0.0]},
     'image_ball rule needs a radius >= 0 or "match"'),
    ("image_rule", {**BALL, "radius": None}, 'image_ball rule needs a radius >= 0 or "match"'),
    ("image_rule", {"kind": "image_ball", "radius": 1.0}, "image_ball rule needs a prototype vector"),
    ("text_rule", {"kind": "text_threshold"}, "text_threshold rule needs a threshold"),
    ("text_rule", {"kind": "text_threshold", "threshold": 0.8, "radius": "match"},
     "bad selection rule radius: 'match'"),
    ("text_rule", {"kind": "text_threshold", "threshold": 0.8, "text_threshold_also": 1.0},
     "text_threshold rule reads only t"),
    ("image_rule", {"kind": "image_threshold", "threshold": 0.3, "radius": 5},
     "image_threshold rule does not read radius"),
    ("image_rule", {"kind": "image_threshold", "threshold": 0.3, "prototype": [1]},
     "image_threshold rule does not read prototype"),
    ("image_rule", {**BALL, "threshold": 99}, "image_ball rule does not read threshold"),
], ids=["stray-key", "stray-keys", "unknown-kind", "negative-radius", "no-radius", "null-radius",
        "no-prototype", "no-threshold", "text-radius-match", "text-also", "image-threshold-radius",
        "image-threshold-prototype", "ball-threshold"])
def test_a_bad_selection_rule_is_a_config_error_before_out_is_made(tmp_path, capsys, rule, spec,
                                                                   message):
    # each of these used to exit 3 after --out was made, or (a stray key, or
    # one the rule's kind does not read) to exit 0 with the key ignored
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps({**SIM_CONFIG, rule: spec}), encoding="utf-8")
    assert run(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"capsieve: config error: {rule}: {message}\n"
    assert not (tmp_path / "out").exists()


# Values a rule key may hold in a config: numbers finite, huge and not
# finite, strings, null, booleans and lists of these. Small numbers and
# prototypes of the right length are drawn on their own too, so that about
# one run in ten finishes (33 of the 300).
_RULE_SCALARS = st.one_of(
    st.floats(-3, 3), st.integers(-3, 3),
    st.sampled_from([1e308, -1e308, float("nan"), float("inf"), float("-inf"), -1]),
    st.sampled_from(["match", "0.5", "nan", "", "text_threshold", "image_ball", "image_threshold"]),
    st.text(max_size=4), st.none(), st.booleans(),
)
_RULE_VALUES = st.one_of(
    st.floats(-3, 3), st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    _RULE_SCALARS, st.lists(_RULE_SCALARS, max_size=5),
)
_IMAGE_RULES = [
    {"kind": "image_ball", "radius": "match", "prototype": [1.06, 0.0, 0.0, 0.0]},
    {"kind": "image_threshold", "threshold": 0.3, "text_threshold_also": -1.0},
]
_DROP = object()
# The rule keys each kind does not read.
_UNREAD = {"text_threshold": {"radius", "prototype", "text_threshold_also"},
           "image_ball": {"threshold"}, "image_threshold": {"radius", "prototype"}}


def _sets_an_unread_key(spec) -> bool:
    """Whether a rule spec of a known kind gives a key its kind does not
    read a value other than null."""
    kind = spec.get("kind")
    unread = _UNREAD.get(kind, ()) if isinstance(kind, str) else ()
    return any(spec.get(key) is not None for key in unread)


@st.composite
def _simulate_rules(draw):
    """SIM_CONFIG's text rule and an image rule, with up to two keys of one
    of them (the five rule keys, or the stray key "treshold") set to any
    value or dropped."""
    rules = {"text_rule": dict(SIM_CONFIG["text_rule"]),
             "image_rule": dict(draw(st.sampled_from(_IMAGE_RULES)))}
    spec = rules[draw(st.sampled_from(sorted(rules)))]
    keys = ["kind", "threshold", "radius", "prototype", "text_threshold_also", "treshold"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        value = draw(st.just(_DROP) | _RULE_VALUES)
        if value is _DROP:
            spec.pop(key, None)
        else:
            spec[key] = value
    return rules


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rules=_simulate_rules())
def test_any_rule_spec_exits_cleanly(tmp_path, capsys, rules):
    config_path = tmp_path / "sim.json"
    config = {**SIM_CONFIG, "n": 400, **rules}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["simulate", "--config", str(config_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("capsieve: "), err
        assert not out.exists()
    if any("treshold" in spec or _sets_an_unread_key(spec) for spec in rules.values()):
        assert code == 2
    if code == 0:
        report = (out / "report.json").read_text(encoding="utf-8")
        assert not re.search(r"NaN|Infinity", report), report
        _, *rows = (out / "variances.csv").read_text(encoding="utf-8").splitlines()
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_readme_simulate_example_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("Example `sim.json`:", 1)[1].split("```json\n", 1)[1]
    config = json.loads(example.split("```", 1)[0])
    config.update(n=2000, out=str(tmp_path / "sim"))
    (tmp_path / "sim.json").write_text(json.dumps(config), encoding="utf-8")
    run_ok(["simulate", "--config", tmp_path / "sim.json"])
    report = read_json(tmp_path / "sim" / "report.json")
    assert report["acceptance_image"] == pytest.approx(report["acceptance_text"], abs=0.01)


@pytest.mark.parametrize("image_rule", [
    BALL, {**BALL, "radius": 1.5}, {"kind": "image_threshold", "threshold": 0.3},
], ids=["matched-ball", "ball", "image-threshold"])
def test_simulate_digests_its_options_and_reports_the_radius_applied(tmp_path, image_rule):
    config = {**SIM_CONFIG, "image_rule": image_rule}
    (tmp_path / "sim.json").write_text(json.dumps(config), encoding="utf-8")
    run_ok(["simulate", "--config", tmp_path / "sim.json", "--out", tmp_path / "sim"])
    provenance = read_json(tmp_path / "sim" / "provenance.json")
    params = {"command": "simulate", "bin_width": 0.05, "alpha": 0.01, **config}
    assert provenance["config_digest"] == config_digest(params)  # "match" as given
    assert provenance["inputs"] == {}  # the config file is covered by the config digest

    gen = causalsim.GenConfig(*(config[k] for k in
                                ("n_classes", "x_dim", "text_noise_sd", "class_sep", "seed")))
    radius = None if image_rule.get("radius") == "match" else image_rule.get("radius")
    fields = {**image_rule, "radius": radius}
    if "prototype" in fields:
        fields["prototype"] = tuple(fields["prototype"])
    report = causalsim.bottleneck_gap(causalsim.generate(gen, config["n"]),
                                      causalsim.SelectionRule(**config["text_rule"]),
                                      causalsim.SelectionRule(**fields))
    applied = read_json(tmp_path / "sim" / "report.json")["image_radius"]
    assert applied == report.image_rule.radius
    assert (applied is None) == (image_rule["kind"] == "image_threshold")


@pytest.mark.parametrize("key, value", [("bin_width", 0.1), ("alpha", 0.05)])
def test_simulate_config_digest_covers_each_setting(tmp_path, key, value):
    digests = []
    for config in (SIM_CONFIG, {**SIM_CONFIG, key: value}):
        out = tmp_path / str(len(digests))
        (tmp_path / "sim.json").write_text(json.dumps(config), encoding="utf-8")
        run_ok(["simulate", "--config", tmp_path / "sim.json", "--out", out])
        digests.append(read_json(out / "provenance.json")["config_digest"])
    assert digests[0] != digests[1]


@pytest.mark.parametrize("bin_width", [1e-9, 1e-300])
def test_simulate_with_a_tiny_bin_width_tests_no_bin(tmp_path, capsys, bin_width):
    # every sample falls in a t-bin of its own: ~1e10 bins at 1e-9, and
    # bin numbers past the int64 range at 1e-300
    config_path = tmp_path / "sim.json"
    config = {**SIM_CONFIG, "n": 2000, "bin_width": bin_width}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    run_ok(["simulate", "--config", config_path, "--out", tmp_path / "sim"])
    assert capsys.readouterr().err == ""
    report = read_json(tmp_path / "sim" / "report.json")
    for test in (report["bin_test_text"], report["bin_test_image"]):
        assert test["n_bins_tested"] == 0
        assert test["critical"] is None


def test_simulate_with_an_alpha_too_small_for_its_comparisons_is_a_data_error(tmp_path, capsys):
    # 1 - alpha / (2m) rounds to 1, where the normal quantile is undefined
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps({**SIM_CONFIG, "alpha": 1e-300}), encoding="utf-8")
    assert run(["simulate", "--config", str(config_path), "--out", str(tmp_path / "sim")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert re.fullmatch(
        r"capsieve: data error: alpha 1e-300 is too small for \d+ comparisons: "
        r"1 - alpha / \(2 \* \d+\) rounds to 1, so the test has no critical value\n",
        err,
    ), err
    assert not (tmp_path / "sim").exists()


def test_variances_csv_holds_the_report_numbers(tmp_path):
    config_path = tmp_path / "sim.json"
    config_path.write_text(json.dumps({**SIM_CONFIG, "n": 2000}), encoding="utf-8")
    run_ok(["simulate", "--config", config_path, "--out", tmp_path / "sim"])
    report = read_json(tmp_path / "sim" / "report.json")
    header, *lines = (tmp_path / "sim" / "variances.csv").read_text().splitlines()
    columns = list(zip(*([float(cell) for cell in line.split(",")] for line in lines)))
    assert header == "dim,baseline,text_rule,image_rule"
    assert columns == [
        tuple(range(SIM_CONFIG["x_dim"])),
        tuple(report["baseline_var"]),
        tuple(report["per_dim_var_text"]),
        tuple(report["per_dim_var_image"]),
    ]


@pytest.mark.parametrize(
    "content, code",
    [
        (None, 2),
        (b"{not json", 3),
        (b'["n00000001"]', 3),
        (b'{"n00000001": "heavy"}', 3),
        (b'{"n00000001": \xff}', 3),
    ],
    ids=["missing", "json", "not-object", "weight-str", "utf8"],
)
def test_malformed_eval_weights(tmp_path, capsys, content, code):
    (tmp_path / "manifest.jsonl").write_text(
        '{"id": "a", "wnid": "n00000001", "score": 0.9}\n', encoding="utf-8"
    )
    (tmp_path / "predictions.jsonl").write_text(
        '{"id": "a", "ranked": ["n00000001"]}\n', encoding="utf-8"
    )
    weights = tmp_path / "weights.json"
    weights.write_text('{"n00000001": 1.0}', encoding="utf-8")
    argv = ["eval", "--manifest", str(tmp_path / "manifest.jsonl"),
            "--predictions", str(tmp_path / "predictions.jsonl"),
            "--weights", str(weights), "--out", str(tmp_path / "out")]
    assert run(argv) == 0  # the weights file is valid before the one change
    capsys.readouterr()

    if content is None:
        weights.unlink()
    else:
        weights.write_bytes(content)
    assert run(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    prefix = {2: "capsieve: config error:", 3: "capsieve: data error:"}[code]
    assert len(err.splitlines()) == 1 and err.startswith(prefix)


def write_uneven_eval_inputs(root: Path) -> list[str]:
    """A manifest of 2 n00000001 images and 3 n00000002 images, and
    predictions that miss one n00000001 image, so the recalls at 1 are 0.5
    and 1.0. Returns the eval argv, without --weights and --out."""
    write_good_inputs(root)
    with (root / "manifest.jsonl").open("a", encoding="utf-8") as fh:
        fh.write('{"id": "e", "wnid": "n00000002", "score": 0.5}\n')
    (root / "predictions.jsonl").write_text("".join(
        json.dumps({"id": i, "ranked": [w]}) + "\n"
        for i, w in [("a", "n00000002"), ("b", "n00000001"), ("c", "n00000002"),
                     ("d", "n00000002"), ("e", "n00000002")]), encoding="utf-8")
    return ["eval", "--manifest", str(root / "manifest.jsonl"),
            "--predictions", str(root / "predictions.jsonl"), "--k", "1"]


def test_eval_uniform_weights_every_class_alike(tmp_path):
    argv = write_uneven_eval_inputs(tmp_path)
    for weights, weighted in (("uniform", 0.75), ("freq", 0.5 * 2 / 5 + 1.0 * 3 / 5)):
        run_ok([*argv, "--weights", weights, "--out", tmp_path / weights])
        accuracy = read_json(tmp_path / weights / "accuracy.json")
        assert accuracy["weights_mode"] == weights
        assert accuracy["topk"]["1"] == {"equally_weighted": 0.75, "n_classes": 2,
                                         "weighted": pytest.approx(weighted, abs=1e-15)}


def test_eval_weights_that_sum_to_zero_are_a_data_error(tmp_path, capsys):
    argv = write_uneven_eval_inputs(tmp_path)
    weights = tmp_path / "zero.json"
    weights.write_text('{"n00000001": 0, "n00000002": 0.0}', encoding="utf-8")
    assert run([*argv, "--weights", str(weights), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "capsieve: data error: class weights sum to zero over the evaluated classes\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("given, missing", [("caption-embeddings", "synset-embeddings"),
                                            ("synset-embeddings", "caption-embeddings")])
def test_match_with_one_embedding_file_is_config_error(pipeline_fixture, tmp_path, capsys,
                                                       given, missing):
    fx = pipeline_fixture
    argv = ["match", "--taxonomy", fx["taxonomy"], "--corpus", fx["corpus"],
            f"--{given}", fx[given.replace("-", "_")], "--out", tmp_path / "m"]
    assert run([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == f"capsieve: config error: --{given} needs --{missing}\n"
    assert not (tmp_path / "m").exists()


# Every variable OpenBLAS reads its thread count from, highest precedence
# first; the child's environment holds none unless a test sets one.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child(args, cwd, **env):
    """Run `python <args>` with the package on its path, as a fresh process.
    The environment is built here, not inherited as is: importing
    capsieve.cli in this process has already set OPENBLAS_NUM_THREADS."""
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child_env["PYTHONPATH"] = str(Path(capsieve.__file__).resolve().parents[1])
    child_env.update(env)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=child_env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_cli_child_runs_one_thread(tmp_path):
    # numpy loads only in the stages that score vectors, after the CLI, as here
    script = "import os, capsieve.cli, numpy; print(len(os.listdir('/proc/self/task')))"
    proc = child(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


def test_user_blas_thread_count_wins(tmp_path):
    proc = child(["-c", "import os, capsieve.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"],
                 tmp_path, OPENBLAS_NUM_THREADS="3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3"]


def test_cli_child_output_is_independent_of_blas_threads(pipeline_fixture, tmp_path):
    fx = pipeline_fixture
    run_ok(["match", "--taxonomy", fx["taxonomy"], "--corpus", fx["corpus"],
            "--caption-embeddings", fx["caption_embeddings"],
            "--synset-embeddings", fx["synset_embeddings"], "--out", tmp_path / "match"])
    for name, threshold in (("a", "0.3"), ("b", "0.55")):
        run_ok(["assemble", "--candidates", tmp_path / "match" / "candidates.jsonl",
                "--corpus", fx["corpus"], "--threshold", threshold,
                "--out", tmp_path / name])

    def compare(out):
        return ["diagnose", "compare",
                "--manifest-a", str(tmp_path / "a" / "manifest.jsonl"),
                "--manifest-b", str(tmp_path / "b" / "manifest.jsonl"),
                "--image-embeddings-a", str(fx["image_embeddings"]),
                "--image-embeddings-b", str(fx["image_embeddings"]),
                "--boot", "50", "--seed", "1", "--out", str(tmp_path / out)]

    run_ok(compare("in_process"))
    for out, env in (("unset", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        proc = child(["-m", "capsieve.cli", *compare(out)], tmp_path, **env)
        assert (proc.returncode, proc.stderr) == (0, "")
    expected = tree_bytes(tmp_path / "in_process")
    assert "comparison.json" in expected
    assert tree_bytes(tmp_path / "unset") == expected
    assert tree_bytes(tmp_path / "two") == expected


def test_cli_child_config_error_is_one_line(tmp_path):
    proc = child(["-m", "capsieve.cli", "sweep", "--candidates", "nope.jsonl",
                  "--thresholds", "0:1:0.5", "--out", "out"], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("capsieve: config error: ")


# -- what each CLI child imports ----------------------------------------------

# Runs one CLI stage in a fresh process, then reports its exit code, the
# capsieve modules it loaded, whether it loaded numpy, whether importing
# the CLI loaded hashlib, and whether OpenSSL (_hashlib) was loaded when
# the command function returned, before the stage took its digests, as
# JSON on the last line of stdout.
IMPORT_REPORT = """\
import json, sys
from capsieve import cli
imported = sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules)
returned = []
def wrap(function):
    def wrapped(*args, **kwargs):
        result = function(*args, **kwargs)
        returned.append("_hashlib" in sys.modules)
        return result
    return wrapped
cli._COMMANDS = {c: (wrap(f), options) for c, (f, options) in cli._COMMANDS.items()}
code = cli.run(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "numpy.ma": "numpy.ma" in sys.modules,
                  "capsieve": sorted(m for m in sys.modules if m.startswith("capsieve.")),
                  "imported": imported, "returned": returned,
                  "_hashlib": "_hashlib" in sys.modules}))
"""

SIMULATE_FREE = {"corpus", "curator", "diagnostics", "matcher", "taxonomy", "vectorops",
                 "evalmetrics"}
DIAGNOSE_FREE = {"causalsim", "matcher", "taxonomy"}
TABULAR_FREE = {"causalsim", "diagnostics", "matcher", "taxonomy", "vectorops", "seeding"}
# The stages whose command function loads OpenSSL (_hashlib) before it
# returns: compare, cross-modal and simulate draw random numbers, and
# numpy.random imports secrets, which imports hmac and so _hashlib. Every
# other stage, assemble and nearest-text included, loads it only when
# _Stage.run takes its provenance digests.
OPENSSL_BEFORE_RETURN = {"compare", "cross-modal", "simulate"}

# (stage, argv with {input} placeholders, exit code, loads numpy, modules it must not load);
# no stage loads numpy.ma
STAGE_IMPORTS = [
    ("match", ["match", "--taxonomy", "{taxonomy}", "--corpus", "{corpus}",
               "--caption-embeddings", "{caption_embeddings}",
               "--synset-embeddings", "{synset_embeddings}"],
     0, True, {"causalsim", "diagnostics", "evalmetrics", "seeding"}),
    ("sweep", ["sweep", "--candidates", "{candidates}", "--thresholds", "0:0.9:0.1"],
     0, False, TABULAR_FREE),
    ("assemble", ["assemble", "--candidates", "{candidates}", "--corpus", "{corpus}",
                  "--threshold", "0.3", "--drop-multi-label", "--drop-nsfw",
                  "--drop-text-in-image", "--top-k", "5"],
     0, False, TABULAR_FREE),
    ("eval", ["eval", "--manifest", "{manifest}", "--predictions", "{predictions}"],
     0, False, TABULAR_FREE),
    ("intra", ["diagnose", "intra", "--manifest", "{manifest}",
               "--image-embeddings", "{image_embeddings}", "--hist-edges", "0:1:0.5"],
     0, True, DIAGNOSE_FREE),
    ("compare", ["diagnose", "compare", "--manifest-a", "{manifest}", "--manifest-b",
                 "{manifest}", "--image-embeddings-a", "{image_embeddings}",
                 "--image-embeddings-b", "{image_embeddings}", "--boot", "20"],
     0, True, DIAGNOSE_FREE),
    ("false-class", ["diagnose", "false-class", "--text-embeddings", "{caption_embeddings}",
                     "--pairs", "{manifest}", "--synset-embeddings", "{synset_embeddings}",
                     "--bin-edges", "0:1:0.5"],
     0, True, DIAGNOSE_FREE),
    ("nearest-text", ["diagnose", "nearest-text", "--query-embeddings", "{synset_embeddings}",
                      "--query-labels", "{query_labels}",
                      "--corpus-embeddings", "{caption_embeddings}"],
     0, True, DIAGNOSE_FREE),
    ("cross-modal", ["diagnose", "cross-modal", "--manifest", "{manifest}",
                     "--image-embeddings", "{image_embeddings}",
                     "--synset-embeddings", "{synset_embeddings}", "--boot", "20"],
     0, True, DIAGNOSE_FREE),
    ("correlate", ["diagnose", "correlate", "--csv", "{recall_csv}", "--x-col", "value",
                   "--y-col", "n"],
     0, True, DIAGNOSE_FREE),
    ("simulate", ["simulate", "--config", "{sim_config}"], 0, True, SIMULATE_FREE),
    ("version", ["--version"], 0, False, set()),
    ("config-error", ["sweep", "--candidates", "{candidates}", "--thresholds", "1,0"],
     2, False, set()),
    ("diagnose-config-error", ["diagnose", "intra", "--manifest", "{manifest}",
                               "--image-embeddings", "{image_embeddings}", "--boot", "5"],
     2, False, set()),
]


@pytest.fixture(scope="module")
def stage_inputs(pipeline_fixture, tmp_path_factory):
    """The pipeline fixture's inputs plus the candidates, manifest, recall
    CSV and simulate config the later stages read, made in-process."""
    root = tmp_path_factory.mktemp("stage_inputs")
    fx = {name: str(path) for name, path in pipeline_fixture.items()}
    run_ok(["match", "--taxonomy", fx["taxonomy"], "--corpus", fx["corpus"],
            "--caption-embeddings", fx["caption_embeddings"],
            "--synset-embeddings", fx["synset_embeddings"], "--out", root / "match"])
    fx["candidates"] = str(root / "match" / "candidates.jsonl")
    run_ok(["assemble", "--candidates", fx["candidates"], "--corpus", fx["corpus"],
            "--threshold", "0.3", "--out", root / "assemble"])
    fx["manifest"] = str(root / "assemble" / "manifest.jsonl")
    run_ok(["eval", "--manifest", fx["manifest"], "--predictions", fx["predictions"],
            "--out", root / "eval"])
    fx["recall_csv"] = str(root / "eval" / "recall_k1.csv")
    fx["sim_config"] = str(root / "sim.json")
    Path(fx["sim_config"]).write_text(json.dumps({**SIM_CONFIG, "n": 2000}), encoding="utf-8")
    return fx


@pytest.mark.parametrize("stage, argv, code, loads_numpy, never", STAGE_IMPORTS,
                         ids=[case[0] for case in STAGE_IMPORTS])
def test_cli_child_imports_only_its_own_stage(stage_inputs, tmp_path, stage, argv, code,
                                              loads_numpy, never):
    argv = [arg.format(**stage_inputs) for arg in argv]
    if argv[0] != "--version":
        argv += ["--out", str(tmp_path / "out")]
    proc = child(["-c", IMPORT_REPORT, *argv], tmp_path)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == code, proc.stderr
    assert report["numpy"] is loads_numpy
    assert not report["numpy.ma"], f"{stage} loaded numpy.ma"
    loaded = {name.removeprefix("capsieve.") for name in report["capsieve"]}
    assert "cli" in loaded
    assert not loaded & never, f"{stage} loaded {sorted(loaded & never)}"
    assert report["imported"] == [], "importing capsieve.cli loaded hashlib"
    if code or argv[0] == "--version":  # no command ran, so no digest was taken
        assert report["returned"] == [] and not report["_hashlib"]
    elif stage not in OPENSSL_BEFORE_RETURN:
        assert report["returned"] == [False], f"{stage} loaded OpenSSL before its digests"


# -- embedding files read in row chunks ---------------------------------------


def write_good_inputs(root: Path) -> None:
    for name, good in GOOD_INPUTS.items():
        (root / name).write_bytes(good)


def test_nearest_text_on_an_empty_corpus_names_the_file(tmp_path, capsys):
    write_good_inputs(tmp_path)
    empty = tmp_path / "empty.emb"
    empty.write_bytes(EMBEDDING_MAGIC + struct.pack("<IQ", 2, 0))
    argv = ["diagnose", "nearest-text", "--query-embeddings", tmp_path / "vectors.emb",
            "--query-labels", tmp_path / "pairs.jsonl", "--corpus-embeddings", empty,
            "--out", tmp_path / "out"]
    assert run([str(a) for a in argv]) == 3
    assert capsys.readouterr().err == f"capsieve: data error: {empty}: empty matrix\n"
    assert not (tmp_path / "out").exists()


def test_correlate_names_a_missing_column_and_the_header(tmp_path, capsys):
    write_good_inputs(tmp_path)
    table = tmp_path / "table.csv"
    argv = ["diagnose", "correlate", "--csv", str(table), "--x-col", "x", "--y-col", "z",
            "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"capsieve: config error: column 'z' not found in {table}; its columns are 'x', 'y'\n"
    )
    assert not (tmp_path / "out").exists()


def test_false_class_reads_the_pairs_before_the_text_embeddings(tmp_path, capsys):
    write_good_inputs(tmp_path)
    (tmp_path / "pairs.jsonl").write_bytes(b"{not json\n")
    (tmp_path / "texts.emb").write_bytes(b"NOPE" + GOOD_INPUTS["vectors.emb"][4:])
    argv = ["diagnose", "false-class", "--text-embeddings", tmp_path / "texts.emb",
            "--pairs", tmp_path / "pairs.jsonl", "--synset-embeddings", tmp_path / "vectors.emb",
            "--bin-edges=-1,0,1", "--out", tmp_path / "out"]
    assert run([str(a) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"capsieve: data error: {tmp_path / 'pairs.jsonl'}: line 1: invalid JSON")


# The faults `false-class` may meet past its pairs file, by name: (which
# file, the edit of its good rows, the error, with {path} for that file's
# path). The pairs intend n00000001 (texts a and b) and n00000002 (text c);
# the synset file also holds n00000003, which no pair intends. An edit's
# rows are set before `keep` picks the rows that stay.
FALSE_CLASS_FAULTS = {
    "text zero": ("texts", {"rows": {0: 0.0}}, "{path}: all-zero vector for id 'a'"),
    "synset nan": ("synsets", {"rows": {(2, 1): np.nan}},
                   "{path}: non-finite values in row for id 'n00000003'"),
    "synset zero": ("synsets", {"rows": {2: 0.0}}, "{path}: all-zero vector for id 'n00000003'"),
    "one synset": ("synsets", {"keep": [2]}, "need at least 2 synsets to rank the intended one"),
    "missing synset": ("synsets", {"keep": [0, 2]},
                       "missing synset text embedding for id 'n00000002'"),
    "synset dim": ("synsets", {"dim": 3}, "dimension mismatch: query 2 vs matrix 3"),
}


def false_class_run(tmp_path, capsys, faults) -> tuple[int, str]:
    """The exit code and stderr of `false-class` on good inputs, with each
    of `faults` (names of FALSE_CLASS_FAULTS) made in its file."""
    write_jsonl(tmp_path / "pairs.jsonl", [{"id": "a", "wnid": "n00000001"},
                                           {"id": "b", "wnid": "n00000001"},
                                           {"id": "c", "wnid": "n00000002"}])
    edits = [FALSE_CLASS_FAULTS[name][1] for name in faults]
    dim = next((edit["dim"] for edit in edits if "dim" in edit), 2)
    files = {"texts": (np.arange(1.0, 7.0).reshape(3, 2), ["a", "b", "c"]),
             "synsets": (np.arange(1.0, 1.0 + 3 * dim).reshape(3, dim),
                         ["n00000001", "n00000002", "n00000003"])}
    for name in faults:
        which, edit, _ = FALSE_CLASS_FAULTS[name]
        rows, ids = files[which]
        for at, value in edit.get("rows", {}).items():
            rows[at] = value
        if "keep" in edit:
            files[which] = rows[edit["keep"]], [ids[k] for k in edit["keep"]]
    for which, (rows, ids) in files.items():
        (tmp_path / f"{which}.emb").write_bytes(embedding_bytes(rows, ids))
    argv = ["diagnose", "false-class", "--text-embeddings", tmp_path / "texts.emb",
            "--pairs", tmp_path / "pairs.jsonl", "--synset-embeddings", tmp_path / "synsets.emb",
            "--bin-edges=-1,0,1", "--out", tmp_path / "out"]
    code = run([str(a) for a in argv])
    return code, capsys.readouterr().err


def false_class_message(tmp_path, name) -> str:
    which, _, message = FALSE_CLASS_FAULTS[name]
    return f"capsieve: data error: {message.format(path=tmp_path / f'{which}.emb')}\n"


def test_false_class_runs_on_the_good_fault_inputs(tmp_path, capsys):
    assert false_class_run(tmp_path, capsys, []) == (0, "")


@pytest.mark.parametrize("name", sorted(FALSE_CLASS_FAULTS))
def test_false_class_reports_a_single_fault(tmp_path, capsys, name):
    assert false_class_run(tmp_path, capsys, [name]) == (3, false_class_message(tmp_path, name))
    assert not (tmp_path / "out").exists()


# Each pair is (the fault reported, a fault reported after it). The text
# file comes first; then every row of the synset file is checked, intended
# or not; then the synset count, the intended rows and last the texts'
# dimension against the synsets'.
FALSE_CLASS_FAULT_ORDER = [
    ("text zero", "synset nan"),
    ("text zero", "one synset"),
    ("synset nan", "one synset"),
    ("synset zero", "one synset"),
    ("synset nan", "missing synset"),
    ("synset zero", "missing synset"),
    ("synset nan", "synset dim"),
    ("one synset", "synset dim"),
    ("missing synset", "synset dim"),
]


@pytest.mark.parametrize("first, later", FALSE_CLASS_FAULT_ORDER)
def test_false_class_reports_its_faults_in_order(tmp_path, capsys, first, later):
    assert false_class_run(tmp_path, capsys, [first, later]) == (
        3, false_class_message(tmp_path, first))


def test_nearest_text_checks_the_queries_before_the_corpus_rows(tmp_path, capsys):
    write_good_inputs(tmp_path)
    corpus = tmp_path / "corpus.emb"
    argv = ["diagnose", "nearest-text", "--query-embeddings", tmp_path / "vectors.emb",
            "--query-labels", tmp_path / "pairs.jsonl", "--corpus-embeddings", corpus,
            "--out", tmp_path / "out"]
    for dim, error in [(3, "dimension mismatch: query 2 vs matrix 3"),  # the queries have d = 2
                       (2, f"{corpus}: non-finite values in row for id 'z'")]:
        rows = np.ones((4, dim), dtype="<f4")
        rows[3, 0] = np.nan
        corpus.write_bytes(EMBEDDING_MAGIC + struct.pack("<IQ", dim, 4) + rows.tobytes()
                           + b'"w"\n"x"\n"y"\n"z"\n')
        assert run([str(a) for a in argv]) == 3
        assert capsys.readouterr().err == f"capsieve: data error: {error}\n"


def test_match_does_not_depend_on_the_caption_row_order(pipeline_fixture, tmp_path,
                                                       monkeypatch):
    # the fixture's caption file, its rows permuted, and both read in chunks
    # of 64 rows (16 chunks) as well as in one
    fx = pipeline_fixture
    captions = load_embeddings(fx["caption_embeddings"])
    order = np.random.default_rng(3).permutation(captions.count)
    permuted = tmp_path / "permuted.emb"
    write_embeddings(EmbeddingMatrix(rows=captions.rows[order],
                                     ids=[captions.ids[row] for row in order]), permuted)
    assert permuted.read_bytes() != Path(fx["caption_embeddings"]).read_bytes()
    trees = []
    for step in (None, 64):
        if step is not None:
            monkeypatch.setattr(corpus, "_CHECK_VALUES", step * captions.dim)
        for source in (fx["caption_embeddings"], permuted):
            out = tmp_path / f"{step}_{Path(source).stem}"
            run_ok(["match", "--taxonomy", fx["taxonomy"], "--corpus", fx["corpus"],
                    "--caption-embeddings", source,
                    "--synset-embeddings", fx["synset_embeddings"], "--out", out])
            trees.append({name: (out / name).read_bytes()
                          for name in ("matches.jsonl", "candidates.jsonl")})
    assert trees[0]["candidates.jsonl"].count(b"\n") > 500
    assert all(tree == trees[0] for tree in trees)


def embedding_bytes(rows, ids, magic=EMBEDDING_MAGIC) -> bytes:
    """An embedding file of float32 `rows` and `ids`, written by hand, so
    that it may hold rows `EmbeddingMatrix` refuses."""
    rows = np.asarray(rows, dtype="<f4")
    return (magic + struct.pack("<IQ", rows.shape[1], len(ids)) + rows.tobytes()
            + "".join(f'"{rid}"\n' for rid in ids).encode())


# The faults `match` may meet in its embedding files, by name: (which file,
# the edit of its good magic, rows and ids, the error after that file's
# path or, for a missing row, the whole error). The good caption file holds
# a, b, c and d, the ids of corpus.jsonl (a and b match n00000001, c and d
# n00000002), and the good synset file those two wnids; all rows are ones.
MATCH_FAULTS = {
    "caption magic": ("captions", {"magic": b"NOPE"}, "bad magic: expected b'EMB1', got b'NOPE'"),
    "caption duplicate": ("captions", {"ids": {1: "a"}}, "duplicate embedding id 'a'"),
    "caption nan": ("captions", {"rows": {(2, 1): np.nan}}, "non-finite values in row for id 'c'"),
    "caption zero": ("captions", {"rows": {1: 0.0}}, "all-zero vector for id 'b'"),
    "missing caption": ("captions", {"drop": True}, "missing caption embedding for id 'd'"),
    "synset magic": ("synsets", {"magic": b"NOPE"}, "bad magic: expected b'EMB1', got b'NOPE'"),
    "synset duplicate": ("synsets", {"ids": {1: "n00000001"}},
                         "duplicate embedding id 'n00000001'"),
    "synset nan": ("synsets", {"rows": {(1, 0): np.inf}},
                   "non-finite values in row for id 'n00000002'"),
    "synset zero": ("synsets", {"rows": {0: 0.0}}, "all-zero vector for id 'n00000001'"),
    "missing synset": ("synsets", {"drop": True},
                       "missing synset text embedding for id 'n00000002'"),
}


def match_error(tmp_path, capsys, faults, synset_dim=2) -> str:
    """The error line of `match` on the good inputs, with each of `faults`
    (names of MATCH_FAULTS) made in its file."""
    write_good_inputs(tmp_path)
    files = {"captions": {"magic": EMBEDDING_MAGIC, "rows": np.ones((4, 2)),
                          "ids": ["a", "b", "c", "d"]},
             "synsets": {"magic": EMBEDDING_MAGIC, "rows": np.ones((2, synset_dim)),
                         "ids": ["n00000001", "n00000002"]}}
    for name in faults:
        which, edit, _ = MATCH_FAULTS[name]
        file = files[which]
        file["magic"] = edit.get("magic", file["magic"])
        for key in ("rows", "ids"):
            for at, value in edit.get(key, {}).items():
                file[key][at] = value
        if edit.get("drop"):
            file["rows"], file["ids"] = file["rows"][:-1], file["ids"][:-1]
    for which, file in files.items():
        (tmp_path / f"{which}.emb").write_bytes(
            embedding_bytes(file["rows"], file["ids"], file["magic"]))
    argv = ["match", "--taxonomy", tmp_path / "taxonomy.jsonl",
            "--corpus", tmp_path / "corpus.jsonl",
            "--caption-embeddings", tmp_path / "captions.emb",
            "--synset-embeddings", tmp_path / "synsets.emb", "--out", tmp_path / "out"]
    code = run([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 3, err
    assert not (tmp_path / "out").exists()
    return err


def match_message(tmp_path, name) -> str:
    which, _, message = MATCH_FAULTS[name]
    if name.startswith("missing"):
        return f"capsieve: data error: {message}\n"
    return f"capsieve: data error: {tmp_path / f'{which}.emb'}: {message}\n"


@pytest.mark.parametrize("name", sorted(MATCH_FAULTS))
def test_match_reports_a_single_embedding_fault(tmp_path, capsys, name):
    assert match_error(tmp_path, capsys, [name]) == match_message(tmp_path, name)


# Each pair is (the fault reported, a fault reported after it). The caption
# file's header, trailer and duplicate ids come first; then the synset file;
# then the first pair with a missing row; then, found while the caption rows
# are scanned, a non-finite or all-zero caption row.
MATCH_FAULT_ORDER = [
    *[(first, value) for first in ["synset magic", "synset duplicate", "synset nan",
                                   "synset zero", "missing synset"]
      for value in ["caption nan", "caption zero"]],
    ("missing caption", "caption nan"),
    ("missing caption", "caption zero"),
    ("synset nan", "missing caption"),
    ("caption magic", "synset duplicate"),
    ("caption duplicate", "synset nan"),
    ("caption duplicate", "missing synset"),
]


@pytest.mark.parametrize("first, later", MATCH_FAULT_ORDER)
def test_match_reports_its_embedding_faults_in_order(tmp_path, capsys, first, later):
    assert match_error(tmp_path, capsys, [first, later]) == match_message(tmp_path, first)


def test_match_checks_the_dimensions_before_the_caption_rows(tmp_path, capsys):
    assert match_error(tmp_path, capsys, ["caption nan"], synset_dim=3) == (
        "capsieve: data error: dimension mismatch: captions 2 vs synset texts 3\n"
    )


# The embedding inputs of each stage that reads one; each option gets its own
# copy of vectors.emb, so that one of them can be corrupted.
EMBEDDING_INPUTS = {
    "intra": ["image-embeddings"],
    "compare": ["image-embeddings-a", "image-embeddings-b"],
    "false-class": ["text-embeddings", "synset-embeddings"],
    "nearest-text": ["query-embeddings", "corpus-embeddings"],
    "cross-modal": ["image-embeddings", "synset-embeddings"],
}
_HEADER_BYTES = 16
_PAYLOAD_END = _HEADER_BYTES + VECTORS.nbytes
_REGIONS = {"header": (0, _HEADER_BYTES), "payload": (_HEADER_BYTES, _PAYLOAD_END),
            "trailer": (_PAYLOAD_END, len(GOOD_INPUTS["vectors.emb"]))}


def byte_edit(good: bytes, pos: int, edit: str, byte: int) -> bytes:
    """`good` with one edit at `pos`: a byte set, inserted or deleted, or
    everything from `pos` on cut off."""
    return {"set": good[:pos] + bytes([byte]) + good[pos + 1:],
            "insert": good[:pos] + bytes([byte]) + good[pos:],
            "delete": good[:pos] + good[pos + 1:],
            "truncate": good[:pos]}[edit]


BYTE_EDITS = dict(
    edit=st.sampled_from(["set", "insert", "delete", "truncate"]),
    byte=st.integers(0, 255),
)


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    stage=st.sampled_from(sorted(EMBEDDING_INPUTS)),
    which=st.integers(0, 1),
    region=st.sampled_from(sorted(_REGIONS)),
    at=st.floats(0, 1, exclude_max=True),
    **BYTE_EDITS,
)
def test_corrupt_embedding_files_exit_cleanly(tmp_path, capsys, stage, which, region, at, edit,
                                              byte):
    write_good_inputs(tmp_path)
    command, options = STAGES[stage]
    names = EMBEDDING_INPUTS[stage]
    target = names[which % len(names)]
    lo, hi = _REGIONS[region]
    good = GOOD_INPUTS["vectors.emb"]
    bad = byte_edit(good, lo + int(at * (hi - lo)), edit, byte)
    argv = list(command)
    for key, value in options.items():
        if key in names:
            path = tmp_path / f"{key}.emb"
            path.write_bytes(bad if key == target else good)
            value = path
        elif value in GOOD_INPUTS:
            value = tmp_path / value
        argv.append(f"--{key}={value}")
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    code = run(argv + [f"--out={out}"])  # any other exception fails the test with its traceback
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert len(err.splitlines()) == 1, err
        assert not out.exists()


# Each JSONL input of each stage of STAGES, as (stage, option).
JSONL_INPUTS = [(stage, key) for stage, (_, options) in STAGES.items()
                for key, value in options.items() if str(value).endswith(".jsonl")]


@settings(derandomize=True, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    target=st.sampled_from(JSONL_INPUTS),
    at=st.floats(0, 1, exclude_max=True),
    edit=BYTE_EDITS["edit"],
    # JSON's own punctuation, digits and escapes often, then any byte
    byte=st.sampled_from(b'{}[]",:\\\n 0-.eu') | BYTE_EDITS["byte"],
)
def test_byte_edited_jsonl_inputs_exit_cleanly(tmp_path, capsys, target, at, edit, byte):
    stage, key = target
    command, options = STAGES[stage]
    out = tmp_path / "out"
    config = dict(options, out=str(out))
    for name, value in options.items():
        if isinstance(value, str) and value in GOOD_INPUTS:
            path = tmp_path / f"{name}.{value}"  # its own copy, so only one is edited
            good = GOOD_INPUTS[value]
            path.write_bytes(byte_edit(good, int(at * len(good)), edit, byte)
                             if name == key else good)
            config[name] = str(path)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    shutil.rmtree(out, ignore_errors=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(command + ["--config", str(config_path)])  # any other exception fails
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code:  # after any WARNING lines, such as a skipped class's
        assert [line for line in err.splitlines() if line.startswith("capsieve:")] == [
            err.splitlines()[-1]], err
        assert not out.exists()
    else:
        assert _non_finite_in_outputs(out) == []


# The edges of every option kind, as config values: a flag gets str() of one.
_EDGES = [0, -1, 2**63, 1e308, 1e-320, float("nan"), float("inf"), "", [0.5], True]
_NUMBERS = [v for v in _EDGES if type(v) in (int, float)]
# Options that size the work, and the most any run gives them; a range
# gives at most _RANGE_CAP values.
_SIZE_CAPS = {"n": 400, "boot": 20, "x_dim": 8}
_RANGE_CAP = 1000
# Each stage of STAGES with each of its `_COMMANDS` options.
_STAGE_OPTIONS = [(stage, option) for stage, (command, _) in sorted(STAGES.items())
                  for option in _COMMANDS[" ".join(command)][1]]


def _range(a, b, step) -> str:
    """a:b:step, its step widened if it would give more than _RANGE_CAP
    values."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        count = (b - a) / step if step else math.inf
    if math.isfinite(count) and count > _RANGE_CAP:
        step = (b - a) / _RANGE_CAP
    return f"{a}:{b}:{step}"


# Every a:b:step of numeric edges, for the number-list options.
_RANGES = [_range(*abc) for abc in itertools.product(_NUMBERS, repeat=3)]


def _values(option) -> list:
    """The edges an option is given: its kind's, capped if it sizes the
    work, and every range of edges for a number list."""
    cap = _SIZE_CAPS.get(option.name, math.inf)
    values = [cap if v in _NUMBERS and v > cap else v for v in _EDGES]
    return values + _RANGES if option.kind in (_parse_thresholds, _parse_edges) else values


def _non_finite_in_outputs(out: Path) -> list[str]:
    """The output files that hold a NaN or an infinity, in JSON's or in
    float repr's spelling."""
    pattern = re.compile(r"NaN|Infinity|(?<![\w.])-?(nan|inf)(?!\w)")
    return [p.name for p in sorted(out.iterdir())
            if pattern.search(p.read_text(encoding="utf-8"))]


def check_edges(tmp_path, capsys, stage, given) -> None:
    """Run `stage` on the good inputs, each option named in `given` set to
    its (value, as_flag) and --out fresh: it exits 0, 2 or 3; an error is
    one `capsieve:` line, with no traceback and no --out left; a success
    writes no NaN or infinity; no run warns."""
    write_good_inputs(tmp_path)
    command, options = STAGES[stage]
    config = {k: str(tmp_path / v) if isinstance(v, str) and v in GOOD_INPUTS else v
              for k, v in options.items()}
    flags = []
    for name, (value, as_flag) in given.items():
        config.pop(name, None)
        if as_flag:
            flags.append(f"--{name}={value}")
        else:
            config[name] = value
    config_path, out = tmp_path / "run.json", tmp_path / "out"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    shutil.rmtree(out, ignore_errors=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(command + ["--config", str(config_path), f"--out={out}", *flags])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (given, err)
    assert "Traceback" not in err, given
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == [], given
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("capsieve: "), (given, err)
        assert not out.exists(), given
    else:
        assert _non_finite_in_outputs(out) == [], given


def _forms(option) -> list[bool]:
    """Whether the option is given in the config, as a flag, or either: a
    boolean flag takes no value."""
    return [False, True] if option.flag and option.kind is not bool else [False]


@pytest.mark.parametrize("stage, option", _STAGE_OPTIONS,
                         ids=[f"{stage}-{option.name}" for stage, option in _STAGE_OPTIONS])
def test_every_edge_of_an_option_exits_cleanly(tmp_path, capsys, stage, option):
    # --top-k 2**63 or 1e308 used to end in islice's traceback, and
    # --thresholds 1e308:1e308:9223372036854775808 to loop without end
    for value in _values(option):
        for as_flag in [False] if value in _RANGES else _forms(option):  # a string either way
            check_edges(tmp_path, capsys, stage, {option.name: (value, as_flag)})


@st.composite
def _two_option_edges(draw):
    """A stage of STAGES and two of its `_COMMANDS` options, each given one
    of its `_values` or, for a number list, a comma list of edges."""
    stage, first = draw(st.sampled_from(_STAGE_OPTIONS))
    second = draw(st.sampled_from([o for s, o in _STAGE_OPTIONS if s == stage]))
    given = {}
    for option in (first, second):
        value = draw(st.sampled_from(_values(option)))
        if option.kind in (_parse_thresholds, _parse_edges) and draw(st.booleans()):
            value = ",".join(map(str, draw(st.lists(st.sampled_from(_NUMBERS), min_size=1,
                                                    max_size=3))))
        given[option.name] = (value, draw(st.sampled_from(_forms(option))))
    return stage, given


@settings(derandomize=True, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_two_option_edges())
def test_any_two_option_edges_exit_cleanly(tmp_path, capsys, case):
    check_edges(tmp_path, capsys, *case)


_PEAK_REPORT = """\
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, *sys.argv[1:]], stdin=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def child_peak_mib(args, cwd) -> float:
    """Run `python <args>` in a fresh process and return its peak RSS in
    MiB, read from its own rusage with os.wait4, as bench/run.py reads a
    stage's. The process is started by a small `python` in between, which
    reports the number: a child's ru_maxrss starts from the RSS of the
    process that spawned it, and this test process is large."""
    proc = child(["-c", _PEAK_REPORT, *args], cwd)
    code, kib = proc.stdout.split()
    assert code == "0", proc.stderr
    return int(kib) / 1024.0  # Linux reports KiB


def test_stages_hold_only_the_embedding_rows_they_use(tmp_path):
    # a 40 000 x 256 image and text file, of which the manifests and pairs use 80 rows
    count, dim = 40_000, 256
    rng = np.random.default_rng(5)
    big = tmp_path / "big.emb"
    with big.open("wb") as fh:
        fh.write(EMBEDDING_MAGIC + struct.pack("<IQ", dim, count))
        for _ in range(0, count, 5000):
            fh.write(rng.standard_normal((5000, dim)).astype("<f4").tobytes())
        fh.write("".join(f'"r{i:05d}"\n' for i in range(count)).encode())
    payload_mib = count * dim * 4 / 2**20
    used = [(f"r{i:05d}", f"n{i % 4 + 1:08d}") for i in range(0, count, count // 80)]
    for name, rows in (("a.jsonl", used), ("b.jsonl", used[::2])):
        (tmp_path / name).write_text("".join(
            json.dumps({"id": rid, "wnid": wnid, "score": 0.5}) + "\n" for rid, wnid in rows))
    synsets = tmp_path / "synsets.emb"
    write_embeddings(EmbeddingMatrix(rows=rng.standard_normal((4, dim)),
                                     ids=[f"n{j:08d}" for j in range(1, 5)]), synsets)
    stages = {
        "intra": ["intra", "--manifest", "a.jsonl", "--image-embeddings", big],
        "compare": ["compare", "--manifest-a", "a.jsonl", "--manifest-b", "b.jsonl",
                    "--image-embeddings-a", big, "--image-embeddings-b", big, "--boot", "20"],
        "false-class": ["false-class", "--text-embeddings", big, "--pairs", "a.jsonl",
                        "--synset-embeddings", synsets, "--bin-edges=-1,0,1"],
    }
    floor = child_peak_mib(["-c", "import capsieve.cli, capsieve.diagnostics"], tmp_path)
    for stage, argv in stages.items():
        argv = ["-m", "capsieve.cli", "diagnose", *map(str, argv), "--out", f"out_{stage}"]
        peak = child_peak_mib(argv, tmp_path)
        assert peak < floor + payload_mib / 2, (
            f"{stage}: {peak:.1f} MiB against a {floor:.1f} MiB floor and a "
            f"{payload_mib:.1f} MiB payload"
        )
