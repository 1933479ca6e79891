"""Time a workload's set-up in a fresh process and print it as JSON.

Set-up is `import capsieve.cli` plus loading every input file the
workload reads (and building the lemma automaton for `curate`), run from
the workload directory. Work that a change moves out of the stages and
into loading shows up here.
"""

from __future__ import annotations

import json
import sys
import time


def _jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(workload: str) -> int:
    start = time.perf_counter()
    import capsieve.cli  # noqa: F401  (the import is part of what is timed)
    from capsieve import corpus, curator, evalmetrics, matcher, taxonomy

    if workload == "curate":
        tax = taxonomy.load_taxonomy("taxonomy.jsonl")
        corpus.load_corpus("corpus.jsonl")
        corpus.load_embeddings("captions.emb")
        corpus.load_embeddings("synsets.emb")
        evalmetrics.load_predictions("predictions.jsonl")
        matcher.build_matcher(tax)
    elif workload == "diagnose":
        for name in ("texts", "images_a", "images_b", "synsets", "queries"):
            corpus.load_embeddings(f"{name}.emb")
        curator.load_manifest("manifest_a.jsonl")
        curator.load_manifest("manifest_b.jsonl")
        _jsonl("pairs.jsonl")
        _jsonl("query_labels.jsonl")
    elif workload == "simulate":
        with open("sim.json", encoding="utf-8") as fh:
            json.load(fh)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "capsieve": capsieve.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
