"""Command-line front end.

Subcommands: match, sweep, assemble, eval, diagnose, simulate. Every value
can come from a JSON config file (--config); command-line flags win over
config entries. Every run writes a provenance.json next to its outputs
with the package version, the digest of the resolved configuration, and
content digests of all inputs and outputs. Nothing time- or host-
dependent is recorded, so identical runs produce identical bytes.

Exit codes, by the class of the bad input:

    0  ok
    2  a flag or config value: a missing option, a value of the wrong type
       or out of range, or a number list that is not strictly increasing
       (checked before any input is read), an input path
       that is not an existing file, or an --out that cannot be made a
       directory
    3  a data file: bad UTF-8, bad JSON, a row that is not an object, a
       missing or wrongly typed field, or data that break an invariant
       (duplicate ids, unknown ids, non-finite vectors or CSV cells, class
       weights that are not finite numbers >= 0)

Each error prints one "capsieve: config error: ..." or "capsieve: data
error: ..." line on stderr; no input ends in a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, causalsim, curator, diagnostics, evalmetrics, matcher, vectorops
from .corpus import _is_finite_number, load_corpus, load_embeddings, read_jsonl
from .errors import CapsieveError, FormatError
from .provenance import config_digest, file_digest
from .taxonomy import load_taxonomy


class ConfigError(CapsieveError):
    """Bad flags, malformed config, or out-of-range parameters."""


# The most values a:b:step may give, checked before any is generated.
MAX_RANGE_VALUES = 1_000_000


def _parse_thresholds(spec: str) -> list[float]:
    """An a:b:step range (a, a + step, ... up to b) or a comma list of
    numbers. The numbers must be finite and strictly increasing, and a range
    may give at most MAX_RANGE_VALUES values."""
    if not isinstance(spec, str):
        raise TypeError("a threshold spec is a string")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"threshold range must be a:b:step, got {spec!r}")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric threshold range {spec!r}") from None
        if not all(math.isfinite(v) for v in (a, b, step)):
            raise ConfigError(f"threshold range needs finite a, b and step, got {spec!r}")
        if step <= 0 or b < a:
            raise ConfigError(f"threshold range needs step > 0 and b >= a, got {spec!r}")
        if not (b + 1e-12 - a) / step < MAX_RANGE_VALUES:  # the loop's own bound; inf fails
            raise ConfigError(f"threshold range {spec!r} gives more than {MAX_RANGE_VALUES} values")
        values = []
        i = 0
        while True:
            v = a + i * step
            if v > b + 1e-12:
                break
            values.append(round(v, 12))
            i += 1
    else:
        try:
            values = [float(p) for p in spec.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"non-numeric thresholds {spec!r}") from None
        if not values:
            raise ConfigError("no thresholds given")
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"thresholds must be finite, got {spec!r}")
    if not all(a < b for a, b in zip(values, values[1:])):
        raise ConfigError(f"thresholds must be strictly increasing, got {spec!r}")
    return values


def _parse_cutoffs(spec) -> list[int]:
    ks = [int(v) for v in str(spec).split(",") if v.strip()]
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"--k must list integers >= 1, got {ks}")
    if len(set(ks)) != len(ks):
        raise ConfigError(f"--k lists a cutoff more than once: {ks}")
    return ks


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, bad UTF-8, bad JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config


def _typed(value, kind, what: str):
    """`value` as a `kind`, or ConfigError naming `what`.

    `bool` and `str` options take only JSON booleans and strings as they
    are; every other kind (float, int, Path, a spec parser) converts any
    value it can except a boolean. An int option takes no float it would
    truncate: 2.0 is 2, but 2.5 is an error.
    """
    if kind in (bool, str):
        if isinstance(value, kind):
            return value
    elif not isinstance(value, bool):
        try:
            converted = kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if kind is not int or not isinstance(value, float) or converted == value:
                return converted
    raise ConfigError(f"bad {what}: {value!r}")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class _Stage:
    """One run of a subcommand. Owns the config and `--out`, resolves typed
    options (a flag wins over its config entry), records the inputs and
    outputs, and writes provenance.json."""

    def __init__(self, args):
        self.args = args
        self.config = _load_config_file(args.config)
        self.inputs: dict[str, Path] = {}
        self.outputs: list[Path] = []
        self.out = self.get("out", Path, required=True)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file is in the way, or no permission
            raise ConfigError(f"--out: cannot make directory {self.out}: {exc.strerror}") from None

    def get(self, key: str, kind=str, default=None, required: bool = False):
        """Option `key` as a `kind`: its flag, else its config entry, else
        `default`."""
        attr = key.replace("-", "_")
        what = f"--{key}" if hasattr(self.args, attr) else key
        value = getattr(self.args, attr, None)
        if value is None:
            value = self.config.get(key, default)
        if value is None:
            if required:
                raise ConfigError(f"missing required option {what}")
            return None
        return _typed(value, kind, what)

    def input(self, key: str, required: bool = True) -> Path | None:
        """An input file, recorded in provenance under `key` with - as _."""
        path = self.get(key, Path, required=required)
        if path is not None:
            if not path.is_file():
                raise ConfigError(f"--{key}: no such file {path}")
            self.inputs[key.replace("-", "_")] = path
        return path

    def output(self, name: str) -> Path:
        path = self.out / name
        self.outputs.append(path)
        return path

    def write_provenance(self, params: dict) -> None:
        command = " ".join(filter(None, [self.args.command, getattr(self.args, "analysis", None)]))
        payload = {
            "artifact_version": __version__,
            "command": command,
            "config_digest": config_digest(params),
            "inputs": {name: file_digest(p) for name, p in sorted(self.inputs.items())},
            "outputs": {p.name: file_digest(p) for p in sorted(self.outputs)},
        }
        _write_json(self.out / "provenance.json", payload)


def _load_pairs(path) -> list[tuple[str, str]]:
    """JSONL of {"id": str, "wnid": str} pairs (extra keys ignored)."""
    _, columns = read_jsonl(path, {"id": str, "wnid": "wnid"})
    return list(zip(columns["id"], columns["wnid"]))


def _load_weights(path) -> dict[str, float]:
    """JSON object mapping wnid to class weight, a finite number >= 0."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or bad JSON
        raise FormatError(f"invalid JSON ({exc})", path=path) from None
    if not isinstance(document, dict):
        raise FormatError("expected a JSON object of class weights", path=path)
    weights = {}
    for wnid, value in document.items():
        if not (_is_finite_number(value) and value >= 0):
            raise FormatError(
                f"weight for {wnid!r} must be a finite number >= 0, got {value!r}", path=path
            )
        weights[wnid] = float(value)
    return weights


# -- subcommands ---------------------------------------------------------------
#
# Each takes the _Stage and returns the parameters whose digest goes into
# provenance.json.


def _cmd_match(stage: _Stage) -> dict:
    taxonomy_path = stage.input("taxonomy")
    corpus_path = stage.input("corpus")
    caption_emb_path = stage.input("caption-embeddings", required=False)
    synset_emb_path = stage.input("synset-embeddings", required=False)
    max_lemmas = stage.get("max-lemmas", int)
    if max_lemmas is not None and max_lemmas < 1:
        raise ConfigError(f"--max-lemmas must be >= 1, got {max_lemmas}")
    if (caption_emb_path is None) != (synset_emb_path is None):
        raise ConfigError(
            "scoring needs both --caption-embeddings and --synset-embeddings, or neither"
        )

    taxonomy = load_taxonomy(taxonomy_path)
    corpus = load_corpus(corpus_path)
    auto = matcher.build_matcher(taxonomy, max_lemmas_per_synset=max_lemmas)
    matches = matcher.find_matches(auto, corpus)

    matcher.write_matches(matches, stage.output("matches.jsonl"))

    if caption_emb_path is not None:
        candidates = curator.score_candidates(
            matches, load_embeddings(caption_emb_path), load_embeddings(synset_emb_path)
        )
        curator.write_candidates(candidates, stage.output("candidates.jsonl"))
    return {"command": "match", "max_lemmas": max_lemmas}


def _cmd_sweep(stage: _Stage) -> dict:
    candidates_path = stage.input("candidates")
    thresholds = stage.get("thresholds", _parse_thresholds, required=True)

    points = curator.threshold_sweep(curator.load_candidates(candidates_path), thresholds)
    curator.write_sweep_csv(points, stage.output("sweep.csv"))
    return {"command": "sweep", "thresholds": thresholds}


def _cmd_assemble(stage: _Stage) -> dict:
    candidates_path = stage.input("candidates")
    corpus_path = stage.input("corpus")
    threshold = stage.get("threshold", float, required=True)
    if not -1.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold {threshold} outside [-1, 1]")
    top_k = stage.get("top-k", int)
    if top_k is not None and top_k < 1:
        raise ConfigError(f"--top-k must be >= 1, got {top_k}")
    options = curator.AssembleOptions(
        drop_multi_label=stage.get("drop-multi-label", bool, default=False),
        drop_nsfw=stage.get("drop-nsfw", bool, default=False),
        drop_text_in_image=stage.get("drop-text-in-image", bool, default=False),
    )

    manifest = curator.assemble(
        curator.load_candidates(candidates_path), threshold, load_corpus(corpus_path), options
    )
    if top_k is not None:
        manifest = curator.top_k_per_class(manifest, top_k)
    curator.write_manifest(
        manifest, stage.output("manifest.jsonl"), stage.output("manifest.meta.json")
    )
    return {
        "command": "assemble",
        "threshold": threshold,
        "top_k": top_k,
        "drop_multi_label": options.drop_multi_label,
        "drop_nsfw": options.drop_nsfw,
        "drop_text_in_image": options.drop_text_in_image,
    }


def _cmd_eval(stage: _Stage) -> dict:
    manifest_path = stage.input("manifest")
    predictions_path = stage.input("predictions")
    weights_mode = stage.get("weights", default="freq")
    ks = stage.get("k", _parse_cutoffs, default="1,5")

    manifest = curator.load_manifest(manifest_path)
    predictions = evalmetrics.load_predictions(predictions_path)
    if weights_mode == "freq":
        weights = curator.relative_frequencies(manifest)
    elif weights_mode == "uniform":
        weights = {wnid: 1.0 / len(manifest.class_counts) for wnid in manifest.class_counts}
    else:
        weights = _load_weights(stage.input("weights"))

    summary: dict[str, dict] = {}
    for k in ks:
        stats = evalmetrics.per_class_recall(manifest, predictions, k)
        evalmetrics.write_class_stats_csv(stats, stage.output(f"recall_k{k}.csv"))
        summary[str(k)] = {
            "equally_weighted": evalmetrics.equally_weighted_accuracy(stats),
            "weighted": evalmetrics.weighted_accuracy(stats, weights),
            "n_classes": len(stats),
        }
    _write_json(stage.output("accuracy.json"), {"weights_mode": weights_mode, "topk": summary})
    return {"command": "eval", "k": ks, "weights_mode": weights_mode}


def _diagnose_intra(stage: _Stage, seed: int, n_boot: int) -> dict:
    manifest_path = stage.input("manifest")
    emb_path = stage.input("image-embeddings")
    edges = stage.get("hist-edges", _parse_thresholds)
    sets = diagnostics.intra_class_sims(
        curator.load_manifest(manifest_path), load_embeddings(emb_path)
    )
    with stage.output("intra_class_sims.csv").open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("wnid,n_images,n_pairs,mean_sim\n")
        for s in sets:
            mean = repr(float(s.sims.mean())) if len(s.sims) else ""
            fh.write(f"{s.wnid},{s.n_images},{len(s.sims)},{mean}\n")
    if edges is None:
        return {}
    pooled = np.concatenate([s.sims for s in sets]) if sets else np.empty(0)
    counts, _ = np.histogram(pooled, bins=np.asarray(edges))
    with stage.output("intra_hist.csv").open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("lo,hi,count\n")
        for i, count in enumerate(counts):
            fh.write(f"{edges[i]!r},{edges[i + 1]!r},{int(count)}\n")
    return {"hist_edges": edges}


def _diagnose_compare(stage: _Stage, seed: int, n_boot: int) -> dict:
    a_path = stage.input("manifest-a")
    b_path = stage.input("manifest-b")
    emb_a = stage.input("image-embeddings-a")
    emb_b = stage.input("image-embeddings-b")
    sets_a = diagnostics.intra_class_sims(curator.load_manifest(a_path), load_embeddings(emb_a))
    sets_b = diagnostics.intra_class_sims(curator.load_manifest(b_path), load_embeddings(emb_b))
    diffs = diagnostics.per_class_mean_diff_ci(sets_a, sets_b, n_boot=n_boot, seed=seed)
    comparison = diagnostics.compare_from_intervals(diffs)
    with stage.output("intra_class_diff.csv").open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("wnid,value,ci_low,ci_high\n")
        for d in diffs:
            fh.write(f"{d.wnid},{d.value!r},{d.ci_low!r},{d.ci_high!r}\n")
    _write_json(
        stage.output("comparison.json"),
        {
            "prop_A_lower": comparison.prop_A_lower,
            "prop_B_lower": comparison.prop_B_lower,
            "n_shared": comparison.n_shared,
        },
    )
    return {}


def _diagnose_false_class(stage: _Stage, seed: int, n_boot: int) -> dict:
    texts_path = stage.input("text-embeddings")
    pairs_path = stage.input("pairs")
    synset_path = stage.input("synset-embeddings")
    edges = stage.get("bin-edges", _parse_thresholds, required=True)
    texts_matrix = load_embeddings(texts_path)
    synsets = load_embeddings(synset_path)
    pairs = _load_pairs(pairs_path)
    rows = [vectorops.require_embedding(texts_matrix, i, "text") for i, _ in pairs]
    vectors = np.stack(rows) if rows else np.empty((0, texts_matrix.dim))
    intended = [wnid for _, wnid in pairs]
    bins = diagnostics.binned_false_class_means(vectors, intended, synsets, edges)
    with stage.output("false_class_bins.csv").open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("lo,hi,count,mean_false_class_proportion\n")
        for b in bins:
            mean = repr(b.mean) if b.mean is not None else ""
            fh.write(f"{b.lo!r},{b.hi!r},{b.count},{mean}\n")
    return {"bin_edges": edges}


def _diagnose_nearest_text(stage: _Stage, seed: int, n_boot: int) -> dict:
    queries_path = stage.input("query-embeddings")
    labels_path = stage.input("query-labels")
    corpus_emb_path = stage.input("corpus-embeddings")
    min_sim = stage.get("min-sim", float, default=0.7)
    if not -1.0 <= min_sim <= 1.0:
        raise ConfigError(f"--min-sim {min_sim} outside [-1, 1]")
    queries = load_embeddings(queries_path)
    query_texts = [
        (vectorops.require_embedding(queries, i, "query"), wnid)
        for i, wnid in _load_pairs(labels_path)
    ]
    manifest = diagnostics.nearest_text_dataset(
        query_texts, load_embeddings(corpus_emb_path), min_sim
    )
    curator.write_manifest(
        manifest, stage.output("manifest.jsonl"), stage.output("manifest.meta.json")
    )
    return {"min_sim": min_sim}


def _diagnose_cross_modal(stage: _Stage, seed: int, n_boot: int) -> dict:
    manifest_path = stage.input("manifest")
    image_path = stage.input("image-embeddings")
    synset_path = stage.input("synset-embeddings")
    stats = diagnostics.cross_modal_class_stats(
        curator.load_manifest(manifest_path),
        load_embeddings(image_path),
        load_embeddings(synset_path),
        n_boot=n_boot,
        seed=seed,
    )
    evalmetrics.write_class_stats_csv(stats, stage.output("cross_modal.csv"))
    return {}


def _diagnose_correlate(stage: _Stage, seed: int, n_boot: int) -> dict:
    csv_path = stage.input("csv")
    x_col = stage.get("x-col", required=True)
    y_col = stage.get("y-col", required=True)
    try:
        header, *lines = csv_path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 ({exc.reason})", path=csv_path) from None
    header = header.strip().split(",")
    try:
        xi, yi = header.index(x_col), header.index(y_col)
    except ValueError as exc:
        raise ConfigError(f"column not found in {csv_path}: {exc}") from None
    xs, ys = [], []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            x, y = float(cells[xi]), float(cells[yi])
        except (IndexError, ValueError):
            raise FormatError(
                f"missing or non-numeric {x_col!r}/{y_col!r} cell", path=csv_path, line=lineno
            ) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FormatError(f"non-finite {x_col!r}/{y_col!r} cell", path=csv_path, line=lineno)
        xs.append(x)
        ys.append(y)
    rho = diagnostics.spearman(xs, ys)
    _write_json(
        stage.output("correlation.json"), {"spearman": rho, "n": len(xs), "x": x_col, "y": y_col}
    )
    return {"x_col": x_col, "y_col": y_col}


_DIAGNOSE = {
    "intra": _diagnose_intra,
    "compare": _diagnose_compare,
    "false-class": _diagnose_false_class,
    "nearest-text": _diagnose_nearest_text,
    "cross-modal": _diagnose_cross_modal,
    "correlate": _diagnose_correlate,
}


def _cmd_diagnose(stage: _Stage) -> dict:
    params = {
        "command": "diagnose",
        "analysis": stage.args.analysis,
        "seed": stage.get("seed", int, default=0),
        "boot": stage.get("boot", int, default=diagnostics.DEFAULT_BOOTSTRAP_REPLICATES),
    }
    if params["boot"] < 1 or params["seed"] < 0:
        raise ConfigError(f"--boot must be >= 1 and --seed >= 0, got {params['boot']} and "
                          f"{params['seed']}")
    params.update(_DIAGNOSE[stage.args.analysis](stage, params["seed"], params["boot"]))
    return params


def _rule_from_config(spec) -> causalsim.SelectionRule:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"selection rule must be an object with a 'kind', got {spec!r}")

    def optional(key):
        value = spec.get(key)
        return None if value is None else _typed(value, float, f"selection rule {key}")

    prototype = spec.get("prototype")
    if prototype is not None:
        if not isinstance(prototype, list):
            raise ConfigError(f"selection rule prototype must be a list, got {prototype!r}")
        prototype = tuple(_typed(v, float, "selection rule prototype entry") for v in prototype)
    return causalsim.SelectionRule(
        kind=spec["kind"],
        threshold=optional("threshold"),
        radius=optional("radius"),
        prototype=prototype,
        text_threshold_also=optional("text_threshold_also"),
    )


def _cmd_simulate(stage: _Stage) -> dict:
    config = stage.config
    if not config:
        raise ConfigError("simulate needs --config with the generator and rule parameters")
    stage.inputs["config"] = Path(stage.args.config)
    gen = causalsim.GenConfig(
        n_classes=stage.get("n_classes", int, required=True),
        x_dim=stage.get("x_dim", int, required=True),
        text_noise_sd=stage.get("text_noise_sd", float, required=True),
        class_sep=stage.get("class_sep", float, required=True),
        seed=stage.get("seed", int, default=0),
    )
    n = stage.get("n", int, default=100_000)
    bin_width = stage.get("bin_width", float, default=0.05)
    alpha = stage.get("alpha", float, default=0.01)
    text_rule = _rule_from_config(config.get("text_rule"))
    image_spec = config.get("image_rule")
    # With "radius": "match", pick the ball radius so the image rule accepts
    # at the same rate as the text rule; selection strength would otherwise
    # confound the variance comparison.
    match_radius = (
        isinstance(image_spec, dict)
        and image_spec.get("kind") == "image_ball"
        and image_spec.get("radius") == "match"
    )
    image_rule = _rule_from_config({**image_spec, "radius": 0.0} if match_radius else image_spec)

    samples = causalsim.generate(gen, n)
    if match_radius:
        rate = len(causalsim.select(samples, text_rule)) / len(samples)
        radius = causalsim.matched_ball_radius(samples, image_rule.prototype, rate)
        image_rule = dataclasses.replace(image_rule, radius=radius)
        image_spec = {**image_spec, "radius": radius}
    report = causalsim.bottleneck_gap(samples, text_rule, image_rule, bin_width, alpha)

    _write_json(stage.output("report.json"), report.as_dict())
    with stage.output("variances.csv").open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("dim,baseline,text_rule,image_rule\n")
        for d in range(gen.x_dim):
            fh.write(
                f"{d},{report.baseline_var[d]!r},"
                f"{report.per_dim_var_text[d]!r},{report.per_dim_var_image[d]!r}\n"
            )
    return {
        "command": "simulate",
        "n": n,
        "n_classes": gen.n_classes,
        "x_dim": gen.x_dim,
        "text_noise_sd": gen.text_noise_sd,
        "class_sep": gen.class_sep,
        "seed": gen.seed,
        "text_rule": config["text_rule"],
        "image_rule": image_spec,
    }


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="capsieve", description=__doc__)
    parser.add_argument("--version", action="version", version=f"capsieve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("match", help="find lemma occurrences (and score candidates)")
    common(p)
    p.add_argument("--taxonomy")
    p.add_argument("--corpus")
    p.add_argument("--caption-embeddings")
    p.add_argument("--synset-embeddings")
    p.add_argument("--max-lemmas", type=int)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("sweep", help="candidate coverage per similarity threshold")
    common(p)
    p.add_argument("--candidates")
    p.add_argument("--thresholds", help="a:b:step or comma list")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("assemble", help="apply exclusion rules and emit the manifest")
    common(p)
    p.add_argument("--candidates")
    p.add_argument("--corpus")
    p.add_argument("--threshold", type=float)
    p.add_argument("--drop-multi-label", action="store_const", const=True)
    p.add_argument("--drop-nsfw", action="store_const", const=True)
    p.add_argument("--drop-text-in-image", action="store_const", const=True)
    p.add_argument("--top-k", type=int)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("eval", help="score ranked predictions against a manifest")
    common(p)
    p.add_argument("--manifest")
    p.add_argument("--predictions")
    p.add_argument("--weights", help="freq | uniform | JSON file of class weights")
    p.add_argument("--k", help="comma list of cutoffs, e.g. 1,5")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("diagnose", help="statistical analyses over curated datasets")
    p.add_argument(
        "analysis",
        choices=["intra", "compare", "false-class", "nearest-text", "cross-modal", "correlate"],
    )
    common(p)
    p.add_argument("--seed", type=int, help="root random seed")
    p.add_argument("--boot", type=int, help="bootstrap replicates")
    p.add_argument("--manifest")
    p.add_argument("--manifest-a")
    p.add_argument("--manifest-b")
    p.add_argument("--image-embeddings")
    p.add_argument("--image-embeddings-a")
    p.add_argument("--image-embeddings-b")
    p.add_argument("--synset-embeddings")
    p.add_argument("--text-embeddings")
    p.add_argument("--query-embeddings")
    p.add_argument("--query-labels")
    p.add_argument("--corpus-embeddings")
    p.add_argument("--pairs")
    p.add_argument("--bin-edges")
    p.add_argument("--hist-edges")
    p.add_argument("--min-sim", type=float)
    p.add_argument("--csv")
    p.add_argument("--x-col")
    p.add_argument("--y-col")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("simulate", help="run the selection-bias simulator")
    common(p)
    p.add_argument("--seed", type=int, help="root random seed")
    p.add_argument("--n", type=int, help="number of samples")
    p.set_defaults(func=_cmd_simulate)

    return parser


def run(argv: list[str]) -> int:
    """Parse argv, run the subcommand, map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        stage = _Stage(args)
        stage.write_provenance(args.func(stage))
    except ConfigError as exc:
        print(f"capsieve: config error: {exc}", file=sys.stderr)
        return 2
    except CapsieveError as exc:
        print(f"capsieve: data error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    logging.basicConfig(level=logging.WARNING)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
