"""Seeded synthetic inputs and CLI stage lists for the benchmark workloads.

Each workload is a set of input files generated from a seed, plus the
sequence of `capsieve` CLI stages a curator would run on them. The
generator uses numpy only and writes every file format itself, so it
shares no code with the package under test or with its test suite.

    curate    match -> sweep -> assemble (x2) -> eval, over captions,
              a lemma taxonomy and correlated text embeddings
    diagnose  nearest-text, false-class, intra, compare, cross-modal
              over large binary embedding files
    simulate  the README's simulator config, which touches only causalsim

Stage arguments use paths relative to the workload directory; `{out}`
stands for the output root of one pass.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("curate", "diagnose", "simulate")

# Sizes are scaled so that one pass of each workload takes a few seconds
# on a 2-core machine and a whole run fits its time budget; `TINY` is the
# smoke-test scale.
SIZES = {
    "curate": {
        "captions": 12_000,
        "synsets": 1000,
        "dim": 256,
        "top_k": 8,
    },
    "diagnose": {
        "rows": 6000,
        "synsets": 1000,
        "dim": 512,
        "queries": 60,
        "pairs": 300,
        "classes": 12,
        "class_min": 12,
        "class_max": 24,
        "rows_b": 600,
    },
    "simulate": {"n": 200_000},
}

TINY = {
    "curate": {"captions": 300, "synsets": 40, "dim": 16, "top_k": 3},
    "diagnose": {
        "rows": 400,
        "synsets": 40,
        "dim": 16,
        "queries": 12,
        "pairs": 40,
        "classes": 4,
        "class_min": 5,
        "class_max": 12,
        "rows_b": 120,
    },
    "simulate": {"n": 20_000},
}

N_BOOT = 1000  # the CLI's default bootstrap replicate count, used by compare and cross-modal
MEMORY_LIMIT_BYTES = 1 << 30  # one bootstrap gather must stay far below the machine's RAM

_WORKLOAD_TAG = {name: i for i, name in enumerate(WORKLOADS)}

# Lemmas and filler words are built from disjoint syllable sets, so a
# filler word can never equal a lemma by accident.
_LEMMA_SYLLABLES = (
    "ka ro mi tu sel van dor pix lum gra zo fen qui bra mol tes nar hup cri "
    "wal bo dex jun pla sor vim gu tal ker os"
).split()
_FILLER_SYLLABLES = (
    "the an of in on by at for with from sky red old new big day car sea "
    "sun man her his our top low far bay hill"
).split()


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_TAG[workload]])


def _word(rng, syllables, lo: int, hi: int) -> str:
    n = int(rng.integers(lo, hi + 1))
    return "".join(syllables[int(i)] for i in rng.integers(0, len(syllables), size=n))


def write_emb(path: Path, rows: np.ndarray, ids: list[str]) -> None:
    """Write the EMB1 binary format: magic, u32 dim, u64 count, float32
    rows (little-endian, row-major), then one JSON id per line."""
    rows = np.ascontiguousarray(rows, dtype="<f4")
    count, dim = rows.shape
    with path.open("wb") as fh:
        fh.write(b"EMB1")
        fh.write(np.uint32(dim).astype("<u4").tobytes())
        fh.write(np.uint64(count).astype("<u8").tobytes())
        fh.write(rows.tobytes())
        fh.write("".join(json.dumps(i) + "\n" for i in ids).encode("utf-8"))


def read_emb(path: Path) -> tuple[np.ndarray, list[str]]:
    """Read the EMB1 format back as (float32 rows, ids)."""
    data = Path(path).read_bytes()
    if data[:4] != b"EMB1":
        raise ValueError(f"{path}: bad magic")
    dim = int(np.frombuffer(data, "<u4", 1, 4)[0])
    count = int(np.frombuffer(data, "<u8", 1, 8)[0])
    end = 16 + count * dim * 4
    rows = np.frombuffer(data[16:end], "<f4").reshape(count, dim)
    ids = [json.loads(line) for line in data[end:].decode("utf-8").splitlines() if line]
    return rows, ids


def write_jsonl(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _correlated(rng, anchors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Vectors whose cosine to each unit anchor is about its weight, at a
    random magnitude as an unnormalized encoder would produce."""
    noise = _unit(rng.standard_normal(anchors.shape))
    w = weights[:, None]
    vec = w * anchors + np.sqrt(1.0 - w * w) * noise
    return vec * rng.uniform(0.5, 2.0, size=(len(anchors), 1))


# -- curate -------------------------------------------------------------------


def _gen_curate(root: Path, rng, s: dict) -> dict:
    n_syn, n_cap, dim = s["synsets"], s["captions"], s["dim"]
    wnids = [f"n{10_000_000 + 37 * j:08d}" for j in range(n_syn)]
    seen: set[str] = set()
    lemma_lists: list[list[str]] = []
    for _ in range(n_syn):
        lemmas = []
        for _ in range(int(rng.integers(1, 4))):
            while True:
                parts = [_word(rng, _LEMMA_SYLLABLES, 2, 3)]
                if rng.random() < 0.3:  # multiword, underscore form
                    parts.append(_word(rng, _LEMMA_SYLLABLES, 1, 3))
                lemma = "_".join(parts)
                if lemma not in seen:
                    break
            seen.add(lemma)
            lemmas.append(lemma)
        lemma_lists.append(lemmas)
    # A few lemmas are shared by two synsets (polysemy), so one hit can
    # label a caption with two classes.
    for j in rng.choice(n_syn, size=n_syn // 25, replace=False):
        other = int(rng.integers(0, n_syn))
        if other != j and lemma_lists[other][0] not in lemma_lists[j]:
            lemma_lists[int(j)].append(lemma_lists[other][0])
    write_jsonl(
        root / "taxonomy.jsonl",
        (
            {"wnid": w, "lemmas": l, "name": l[0].replace("_", " "), "gloss": f"a kind of {w}"}
            for w, l in zip(wnids, lemma_lists)
        ),
    )

    planted = np.full((n_cap, 2), -1, dtype=np.int64)
    records, preds = [], []
    for i in range(n_cap):
        n_words = int(rng.integers(6, 19))
        words = [_word(rng, _FILLER_SYLLABLES, 1, 2) for _ in range(n_words)]
        roll = rng.random()
        n_plant = 0 if roll < 0.12 else (2 if roll > 0.85 else 1)
        for p in range(n_plant):
            j = int(rng.integers(0, n_syn))
            planted[i, p] = j
            lemma = lemma_lists[j][int(rng.integers(0, len(lemma_lists[j])))]
            if rng.random() < 0.5:
                lemma = lemma.replace("_", " ")
            if rng.random() < 0.05:
                lemma += "s"  # glued suffix: not a whole-token match
            words[int(rng.integers(0, n_words))] = lemma
        case = rng.random()
        if case < 0.3:
            words = [w.capitalize() for w in words]
        elif case < 0.4:
            words = [w.upper() for w in words]
        sep = "  " if rng.random() < 0.1 else " "
        rid = f"c{i:07d}"
        tii = rng.random()
        records.append(
            {
                "id": rid,
                "text": sep.join(words),
                "nsfw": bool(rng.random() < 0.03),
                "text_in_image": None if tii < 0.2 else bool(tii < 0.3),
                "meta": {"source": "synthetic"},
            }
        )
        truth = int(planted[i, 0]) if planted[i, 0] >= 0 else int(rng.integers(0, n_syn))
        ranked = [int(v) for v in rng.choice(n_syn, size=5, replace=False)]
        if rng.random() < 0.7 and truth not in ranked:
            ranked[int(rng.integers(0, 5)) if rng.random() < 0.3 else 0] = truth
        preds.append({"id": rid, "ranked": [wnids[v] for v in ranked]})
    write_jsonl(root / "corpus.jsonl", records)
    write_jsonl(root / "predictions.jsonl", preds)

    synsets = _unit(rng.standard_normal((n_syn, dim)))
    write_emb(root / "synsets.emb", synsets * rng.uniform(0.5, 2.0, size=(n_syn, 1)), wnids)
    # Captions lean toward the synset they mention, at a similarity spread
    # over 0..1; two-synset captions lean toward both.
    anchor = rng.standard_normal((n_cap, dim))  # captions that mention no synset
    for p in (0, 1):
        hit = planted[:, p] >= 0
        anchor[hit] = synsets[planted[hit, p]] + (anchor[hit] if p else 0.0)
    captions = _correlated(rng, _unit(anchor), rng.uniform(0.0, 1.0, size=n_cap) ** 0.7)
    write_emb(root / "captions.emb", captions, [r["id"] for r in records])
    return {"top_k": s["top_k"]}


# Stage parameters, shared with the output checks.
SWEEP = "0.0:0.95:0.01"
THRESHOLD = 0.3
VAL_THRESHOLD = 0.6
MIN_SIM = 0.7
BIN_EDGES = "0.0:1.0:0.1"
HIST_EDGES = "-1.0:1.0:0.05"


def _curate_stages(meta: dict) -> list[tuple[str, list[str]]]:
    return [
        ("match", ["match", "--taxonomy", "taxonomy.jsonl", "--corpus", "corpus.jsonl",
                   "--caption-embeddings", "captions.emb", "--synset-embeddings", "synsets.emb",
                   "--out", "{out}/match"]),
        ("sweep", ["sweep", "--candidates", "{out}/match/candidates.jsonl",
                   "--thresholds", SWEEP, "--out", "{out}/sweep"]),
        ("assemble", ["assemble", "--candidates", "{out}/match/candidates.jsonl",
                      "--corpus", "corpus.jsonl", "--threshold", str(THRESHOLD),
                      "--drop-multi-label", "--drop-nsfw", "--drop-text-in-image",
                      "--out", "{out}/dataset"]),
        ("assemble.top-k", ["assemble", "--candidates", "{out}/match/candidates.jsonl",
                            "--corpus", "corpus.jsonl", "--threshold", str(VAL_THRESHOLD),
                            "--top-k", str(meta["top_k"]), "--out", "{out}/val"]),
        ("eval", ["eval", "--manifest", "{out}/dataset/manifest.jsonl",
                  "--predictions", "predictions.jsonl", "--k", "1,5", "--out", "{out}/eval"]),
    ]


# -- diagnose -----------------------------------------------------------------


def _gen_diagnose(root: Path, rng, s: dict) -> dict:
    n_syn, n, dim = s["synsets"], s["rows"], s["dim"]
    wnids = [f"n{20_000_000 + 41 * j:08d}" for j in range(n_syn)]
    synsets = _unit(rng.standard_normal((n_syn, dim)))
    write_emb(root / "synsets.emb", synsets * rng.uniform(0.5, 2.0, size=(n_syn, 1)), wnids)
    # Image class centers sit partly along their synset's text direction,
    # so image-to-text similarity is positive but moderate.
    centers = _unit(0.5 * synsets + 0.5 * _unit(rng.standard_normal((n_syn, dim))))

    ids = [f"x{i:07d}" for i in range(n)]
    label = rng.integers(0, n_syn, size=n)
    # The compare classes get a block of rows each, so class sizes are exact.
    # Class sizes, in the wnid order the CLI visits classes, do not depend on
    # the seed: the sequence of bootstrap gathers, which sets the peak RSS,
    # is then the same for every seed.
    shared = np.sort(rng.choice(n_syn, size=s["classes"], replace=False))
    sizes = np.linspace(s["class_min"], s["class_max"], s["classes"]).round().astype(np.int64)
    start = 0
    members = {}
    for c, k in zip(shared, sizes):
        label[start : start + k] = c
        members[int(c)] = list(range(start, start + int(k)))
        start += int(k)
    text = _correlated(rng, synsets[label], rng.uniform(0.1, 1.0, size=n))
    write_emb(root / "texts.emb", text, ids)
    spread_a = rng.uniform(0.8, 1.6, size=n_syn)  # per-class image diversity
    images = centers[label] + spread_a[label, None] * rng.standard_normal((n, dim)) / np.sqrt(dim)
    write_emb(root / "images_a.emb", images, ids)

    # Dataset B: the same classes, each with its own diversity, so some
    # classes come out significantly more diverse on either side.
    ids_b = [f"y{i:07d}" for i in range(s["rows_b"])]
    label_b = rng.integers(0, n_syn, size=s["rows_b"])
    start = 0
    members_b = {}
    for c, k in zip(shared, sizes[::-1]):
        label_b[start : start + k] = c
        members_b[int(c)] = list(range(start, start + int(k)))
        start += int(k)
    spread_b = spread_a * rng.choice([0.6, 1.0, 1.5], size=n_syn)
    images_b = centers[label_b] + spread_b[label_b, None] * rng.standard_normal(
        (s["rows_b"], dim)
    ) / np.sqrt(dim)
    write_emb(root / "images_b.emb", images_b, ids_b)

    def manifest(path, member_map, row_ids):
        rows = []
        for c in sorted(member_map):
            for i in member_map[c]:
                rows.append({"id": row_ids[i], "wnid": wnids[c], "score": float(rng.uniform(0.5, 1.0))})
        write_jsonl(path, rows)

    manifest(root / "manifest_a.jsonl", members, ids)
    manifest(root / "manifest_b.jsonl", members_b, ids_b)

    # Nearest-text queries: most sit close to one caption (some to the
    # same caption, which the manifest collapses), the rest are far from all.
    q = s["queries"]
    targets = rng.integers(0, n, size=q)
    targets[q // 2 : q // 2 + q // 10] = targets[: q // 10]
    close = rng.random(q) < 0.8
    qvec = np.where(
        close[:, None],
        _correlated(rng, _unit(text[targets]), rng.uniform(0.85, 0.99, size=q)),
        rng.standard_normal((q, dim)),
    )
    write_emb(root / "queries.emb", qvec, [f"q{k:05d}" for k in range(q)])
    write_jsonl(
        root / "query_labels.jsonl",
        ({"id": f"q{k:05d}", "wnid": wnids[int(rng.integers(0, n_syn))]} for k in range(q)),
    )
    picks = rng.choice(n, size=s["pairs"], replace=False)
    write_jsonl(root / "pairs.jsonl", ({"id": ids[i], "wnid": wnids[int(label[i])]} for i in picks))
    largest = max(int(sizes.max()), max(len(v) for v in members_b.values()))
    return {"largest_class": largest, "dim": dim}


def _diagnose_stages(meta: dict) -> list[tuple[str, list[str]]]:
    return [
        ("diagnose.nearest-text", ["diagnose", "nearest-text", "--query-embeddings", "queries.emb",
                                   "--query-labels", "query_labels.jsonl",
                                   "--corpus-embeddings", "texts.emb", "--min-sim", str(MIN_SIM),
                                   "--out", "{out}/nearest"]),
        ("diagnose.false-class", ["diagnose", "false-class", "--text-embeddings", "texts.emb",
                                  "--pairs", "pairs.jsonl", "--synset-embeddings", "synsets.emb",
                                  "--bin-edges", BIN_EDGES, "--out", "{out}/false_class"]),
        ("diagnose.intra", ["diagnose", "intra", "--manifest", "manifest_a.jsonl",
                            "--image-embeddings", "images_a.emb", f"--hist-edges={HIST_EDGES}",
                            "--out", "{out}/intra"]),
        ("diagnose.compare", ["diagnose", "compare", "--manifest-a", "manifest_a.jsonl",
                              "--manifest-b", "manifest_b.jsonl",
                              "--image-embeddings-a", "images_a.emb",
                              "--image-embeddings-b", "images_b.emb", "--out", "{out}/compare"]),
        ("diagnose.cross-modal", ["diagnose", "cross-modal", "--manifest", "manifest_a.jsonl",
                                  "--image-embeddings", "images_a.emb",
                                  "--synset-embeddings", "synsets.emb", "--out", "{out}/cross_modal"]),
    ]


# -- simulate -----------------------------------------------------------------


def _gen_simulate(root: Path, rng, s: dict) -> dict:
    config = {
        "n_classes": 4, "x_dim": 8, "text_noise_sd": 0.25, "class_sep": 2.0,
        "seed": int(rng.integers(0, 2**31)), "n": s["n"],
        "text_rule": {"kind": "text_threshold", "threshold": 1.0},
        "image_rule": {"kind": "image_ball", "radius": "match",
                       "prototype": [1.41421356, 0, 0, 0, 0, 0, 0, 0]},
    }
    (root / "sim.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {}


def _simulate_stages(meta: dict) -> list[tuple[str, list[str]]]:
    return [("simulate", ["simulate", "--config", "sim.json", "--out", "{out}/sim"])]


_GENERATORS = {"curate": _gen_curate, "diagnose": _gen_diagnose, "simulate": _gen_simulate}
_STAGES = {"curate": _curate_stages, "diagnose": _diagnose_stages, "simulate": _simulate_stages}


def check_memory(workload: str, meta: dict) -> None:
    """Refuse sizes whose n_boot x n x d float64 bootstrap gather would
    come near the machine's memory."""
    if workload == "diagnose":
        need = N_BOOT * meta["largest_class"] * meta["dim"] * 8
        if need > MEMORY_LIMIT_BYTES:
            raise ValueError(
                f"compare bootstrap would gather {need / 2**20:.0f} MiB per class, "
                f"over the {MEMORY_LIMIT_BYTES / 2**20:.0f} MiB limit"
            )


def generate(workload: str, seed: int, root: Path, sizes: dict | None = None) -> dict:
    """Write the workload's inputs under `root` and return its metadata:
    sizes, per-file bytes and the stage list."""
    s = (sizes or SIZES)[workload]
    root.mkdir(parents=True, exist_ok=True)
    meta = _GENERATORS[workload](root, _rng(seed, workload), s)
    check_memory(workload, meta)
    files = {p.name: p.stat().st_size for p in sorted(root.iterdir()) if p.is_file()}
    return {
        "sizes": dict(s),
        "files": files,
        "stages": _STAGES[workload](meta),
    }


def stage_names(workload: str) -> list[str]:
    return [name for name, _ in _STAGES[workload]({"top_k": 0})]


def numpy_info() -> dict:
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"].get("openblas configuration") or deps["blas"]["name"]
    except (TypeError, KeyError):  # numpy builds without the dicts mode
        pass
    return {"version": np.__version__, "blas": blas}


def main(argv: list[str]) -> int:
    workload, seed, root, scale = argv
    meta = generate(workload, int(seed), Path(root), TINY if scale == "tiny" else SIZES)
    meta["numpy"] = numpy_info()
    print(json.dumps(meta))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
