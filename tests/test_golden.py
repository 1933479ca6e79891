"""Every stage's provenance.json on the pipeline fixture, against a table.

A stage's provenance.json digests its config, each input file and each
output file, and holds no path or time, so its entry in
`golden_provenance.json` pins the stage's whole output tree, and the
fixture's bytes through the input digests. The stages are those of
`test_cli.run_pipeline`, `diagnose false-class`, `diagnose intra
--hist-edges` and one small `simulate`.

A change that moves output bytes on purpose rewrites the table and names
each changed entry in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

The table records the numpy it was made with; a mismatch under another
numpy is a finding about the exactness contract, not noise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from test_cli import read_json, run_ok, run_pipeline

TABLE = Path(__file__).with_name("golden_provenance.json")

# The simulator's settings, digested under config_digest as any command's
# config is; `--out` is passed as a flag.
SIMULATE = {
    "n_classes": 2,
    "x_dim": 4,
    "text_noise_sd": 0.25,
    "class_sep": 1.5,
    "seed": 9,
    "n": 2000,
    "text_rule": {"kind": "text_threshold", "threshold": 0.8},
    "image_rule": {"kind": "image_ball", "radius": "match", "prototype": [1.06, 0.0, 0.0, 0.0]},
}


def stage_provenance(fx, out_root: Path) -> dict[str, dict]:
    """Each stage's name mapped to its parsed provenance.json."""
    dirs = run_pipeline(fx, out_root)
    dirs["false_class"] = out_root / "false_class"
    run_ok(["diagnose", "false-class", "--text-embeddings", fx["caption_embeddings"],
            "--pairs", dirs["match"] / "candidates.jsonl",
            "--synset-embeddings", fx["synset_embeddings"], "--bin-edges=-1:1:0.25",
            "--out", dirs["false_class"]])
    dirs["intra_hist"] = out_root / "intra_hist"
    run_ok(["diagnose", "intra", "--manifest", dirs["assemble"] / "manifest.jsonl",
            "--image-embeddings", fx["image_embeddings"], "--hist-edges=-1:1:0.25",
            "--out", dirs["intra_hist"]])
    config = out_root / "simulate.json"
    config.write_text(json.dumps(SIMULATE), encoding="utf-8")
    dirs["simulate"] = out_root / "simulate"
    run_ok(["simulate", "--config", config, "--out", dirs["simulate"]])
    return {name: read_json(d / "provenance.json") for name, d in sorted(dirs.items())}


def moved(expected: dict, got: dict) -> list[str]:
    """What differs between two provenance records: top-level keys, and
    each input or output file whose digest moved, appeared or went."""
    found = []
    for key in sorted(set(expected) | set(got)):
        want, have = expected.get(key), got.get(key)
        if want == have:
            continue
        if isinstance(want, dict) and isinstance(have, dict):
            found += [f"{key}/{name}" for name in sorted(set(want) | set(have))
                      if want.get(name) != have.get(name)]
        else:
            found.append(key)
    return found


@pytest.fixture(scope="module")
def golden_run(pipeline_fixture, tmp_path_factory) -> tuple[Path, dict[str, dict]]:
    """The output root of one run of the golden stages, and their provenance."""
    out_root = tmp_path_factory.mktemp("golden")
    return out_root, stage_provenance(pipeline_fixture, out_root)


def test_stage_provenance_matches_the_golden_table(golden_run):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    got = golden_run[1]
    expected = table["stages"]
    faults = [f"{name}: {', '.join(moved(expected.get(name, {}), got.get(name, {})))}"
              for name in sorted(set(expected) | set(got))
              if expected.get(name) != got.get(name)]
    if faults and table["numpy"] != np.__version__:
        faults.append(f"(table made with numpy {table['numpy']}, run with {np.__version__})")
    assert not faults, "provenance moved:\n" + "\n".join(faults)


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def test_every_json_output_is_strict_json(golden_run):
    # json.loads takes NaN, Infinity and -Infinity by default; no other
    # parser has to
    paths = sorted(golden_run[0].rglob("*.json"))
    assert any(path.parent.name == "simulate" for path in paths)
    for path in paths:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)


def main() -> int:
    """Rewrite the table from a fresh fixture."""
    import tempfile

    from conftest import build_pipeline_fixture

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        stages = stage_provenance(build_pipeline_fixture(root / "fixture"), root / "out")
    table = {"numpy": np.__version__, "stages": stages}
    TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(stages)} stages to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
