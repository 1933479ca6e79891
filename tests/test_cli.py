from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from capsieve.cli import run
from capsieve.corpus import EMBEDDING_MAGIC


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
FILE, UNDER_FILE = "<a file>", "<a path below a file>"  # values for --out
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
    # number lists that are not strictly increasing, refused before any input is read
    ("sweep", "thresholds", "0.5,0.1", 2),
    ("sweep", "thresholds", "0:1e-12:1e-13", 2),  # a range whose rounded values repeat
    ("intra", "hist-edges", "0.5,0.1", 2),
    ("false-class", "bin-edges", "1,0", 2),
    # --min-sim outside [-1, 1], refused before any input is read
    ("nearest-text", "min-sim", 2, 2),
    ("nearest-text", "min-sim", "nan", 2),
    # non-finite CSV cells
    ("correlate", "table.csv", b"x,y\n1,nan\n2,3\n3,4\n", 3),
    ("correlate", "table.csv", b"x,y\n1,2\ninf,3\n3,4\n", 3),
]


def _case_id(case):
    stage, target, value, _ = case
    if target.endswith(".emb"):
        value = "id-trailer"  # its leading bytes are the binary header
    elif isinstance(value, bytes):  # show the line that was corrupted
        good = GOOD_INPUTS.get(target, b"").split(b"\n")
        value = next(line for line in value.split(b"\n") if line not in good)
    return f"{stage}-{target}-{value!r}"


@pytest.mark.parametrize("stage, target, value, code", MALFORMED, ids=map(_case_id, MALFORMED))
def test_malformed_input_never_tracebacks(tmp_path, capsys, stage, target, value, code):
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

    if target in GOOD_INPUTS or target == "run.json":
        (tmp_path / target).write_bytes(value)
    else:
        if value in (FILE, UNDER_FILE):
            value = str(tmp_path / "table.csv") + ("" if value == FILE else "/out")
        config_path.write_text(json.dumps({**config, target: value}), encoding="utf-8")
    assert run(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    prefix = {2: "capsieve: config error:", 3: "capsieve: data error:"}[code]
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err


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


@pytest.mark.parametrize("stage", ["match", "sweep", "assemble", "eval"])
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
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


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
        ("alpha", 0.0, 3),
        ("seed", -1, 3),
    ],
    ids=["proto-length-match", "n_classes-str", "image-rule-list", "radius-str", "threshold-str",
         "proto-entry-str", "bin-width-str", "bin-width-nan", "alpha-zero", "seed-negative"],
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


@pytest.mark.parametrize("given", ["caption-embeddings", "synset-embeddings"])
def test_match_with_one_embedding_file_is_config_error(pipeline_fixture, tmp_path, given):
    fx = pipeline_fixture
    argv = ["match", "--taxonomy", fx["taxonomy"], "--corpus", fx["corpus"],
            f"--{given}", fx[given.replace("-", "_")], "--out", tmp_path / "m"]
    assert run([str(a) for a in argv]) == 2
