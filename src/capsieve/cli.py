"""Command-line front end.

Subcommands: match, sweep, assemble, eval, diagnose, simulate. One table,
`_COMMANDS`, states the options of each (and of each diagnose analysis)
once; the parser, the config keys, the checks on each value and the config
digest derive from it. A value can come from a JSON --config; flags win
over it. Every run writes provenance.json beside its outputs: the package
version, the resolved configuration's digest and the content digests of
its inputs and outputs. Nothing time- or host-dependent is recorded, so
identical runs give identical bytes.

Exit codes, by the class of the bad input:

    0  ok
    2  a flag or config value: an unknown key or another analysis's
       option, a missing option, a value of the wrong type or out of
       range (a --boot, or simulate n or n_classes times x_dim, beyond the
       float64 values one numpy array holds), a number list that is not
       strictly increasing, a bad simulate rule, an input that is not a
       file, a correlate column the CSV lacks, or an --out that cannot be
       made a directory.
    3  a data file: bad UTF-8 or JSON, a row that is not an object, a
       missing or wrongly typed field, data that break an invariant
       (duplicate or unknown ids, non-finite vectors or CSV cells, class
       weights not finite and >= 0), or simulate settings the simulator
       refuses.

Each error prints one "capsieve: config error: ..." or "capsieve: data
error: ..." line on stderr, never a traceback. No failed run leaves a new
--out: a stage computes its results before its first write makes --out,
and an --out that is a file is refused before any input is read.

The CLI runs on one thread: it sets OPENBLAS_NUM_THREADS to 1 unless the
user has, which changes no output byte.

Each subcommand imports its own modules when it runs: `sweep`, `assemble`
and `eval` load no numpy, `simulate` loads only `causalsim` (and
`seeding`), no other stage loads `causalsim`, and none loads `numpy.ma`,
which `np.quantile` and `np.unique` import (`seeding.linear_quantiles`
stands in). A fresh child thus pays only for the code its stage runs.
"""

from __future__ import annotations

import os

# Set before numpy is first imported, which starts OpenBLAS's thread pool.
# capsieve calls no BLAS (see vectorops), so the pool's threads get no work
# and only burn CPU busy-waiting for it. A value the user sets still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import logging
import math
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .errors import CapsieveError, FormatError, ValidationError
from .provenance import config_digest, file_digest

if TYPE_CHECKING:
    from . import causalsim, evalmetrics


class ConfigError(CapsieveError):
    """Bad flags, malformed config, or out-of-range parameters."""


# The most values a:b:step may give, checked before any is generated.
MAX_RANGE_VALUES = 1_000_000
# The most float64 values one numpy array holds: numpy refuses, without
# allocating, an array of more than sys.maxsize bytes.
_MAX_FLOAT64S = sys.maxsize // 8


def _parse_thresholds(spec: str) -> list[float]:
    """An a:b:step range (a, a + step, ... up to b) or a comma list of
    numbers. The numbers must be finite and strictly increasing, and a range
    may give at most MAX_RANGE_VALUES values."""
    if not isinstance(spec, str):
        raise TypeError("a number list is a string")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be a:b:step, got {spec!r}")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric range {spec!r}") from None
        if not all(math.isfinite(v) for v in (a, b, step)):
            raise ConfigError(f"range needs finite a, b and step, got {spec!r}")
        if step <= 0 or b < a:
            raise ConfigError(f"range needs step > 0 and b >= a, got {spec!r}")
        if not (b + 1e-12 - a) / step < MAX_RANGE_VALUES:  # the loop's own bound; inf fails
            raise ConfigError(f"range {spec!r} gives more than {MAX_RANGE_VALUES} values")
        if a + step == a:  # a would repeat, and without end if a == b
            raise ConfigError(f"numbers must be strictly increasing, got {spec!r}")
        values = []
        for i in range(MAX_RANGE_VALUES + 1):  # the most the bound above allows
            v = a + i * step
            if v > b + 1e-12:
                break
            values.append(v if v.is_integer() else round(v, 12))  # round keeps an integer
    else:
        try:
            values = [float(p) for p in spec.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"non-numeric list {spec!r}") from None
        if not values:
            raise ConfigError("no numbers given")
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"numbers must be finite, got {spec!r}")
    if not all(a < b for a, b in zip(values, values[1:])):
        raise ConfigError(f"numbers must be strictly increasing, got {spec!r}")
    return values


def _parse_edges(spec) -> list[float]:
    """A `_parse_thresholds` list of at least two values: bin edges."""
    edges = _parse_thresholds(spec)
    if len(edges) < 2:
        raise ConfigError(f"needs at least two edges, got {spec!r}")
    return edges


def _parse_cutoffs(spec) -> list[int]:
    ks = [int(v) for v in str(spec).split(",") if v.strip()]
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"must list integers >= 1, got {ks}")
    if len(set(ks)) != len(ks):
        raise ConfigError(f"lists a cutoff more than once: {ks}")
    return ks


def _finite(value) -> float:
    """A float from any value float() takes, except NaN and the infinities,
    which Python's json reads from NaN and Infinity."""
    converted = float(value)
    if not math.isfinite(converted):
        raise ConfigError(f"{converted} is not finite")
    return converted


def _int(value) -> int:
    """An int from any value int() takes, except a float it would
    truncate: 2.0 is 2, but 2.5 is an error."""
    converted = int(value)
    if isinstance(value, float) and converted != value:
        raise ValueError(value)
    return converted


def _within(convert, low, high=math.inf):
    """A kind: `convert`, then a check that low <= value <= high."""

    def kind(value):
        converted = convert(value)
        if not low <= converted <= high:
            raise ConfigError(f"{converted} outside [{low}, {high}]")
        return converted

    return kind


def _weights(value) -> str | Path:
    """freq, uniform, or the path of a JSON file of class weights."""
    return value if value in ("freq", "uniform") else Path(value)


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
    are; every other kind converts any value it can except a boolean.
    """
    if kind in (bool, str):
        if isinstance(value, kind):
            return value
    elif not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):  # a value of the wrong kind
            pass
        except (ConfigError, ValidationError) as exc:  # one out of range or inconsistent
            raise ConfigError(f"{what}: {exc}") from None
    raise ConfigError(f"bad {what}: {value!r}")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # numpy float64 too, which is a float
        return float.__repr__(value)
    return str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    """`header`, then one line per row: an empty cell for None, `repr` for
    a float, `str` for anything else. LF line ends, UTF-8."""
    lines = [header + "\n"]
    lines.extend(",".join(map(_csv_cell, row)) + "\n" for row in rows)
    path.write_text("".join(lines), encoding="utf-8", newline="\n")


class _Option(NamedTuple):
    """One option of a subcommand. `kind` types its value and checks its
    range; an option of kind Path is an input file, which must exist. An
    option with no value gets `default`, or is refused if that is
    _REQUIRED. `flag` is False for a key that only a config file sets."""

    name: str
    kind: Callable = str
    default: object = None
    flag: bool = True
    help: str | None = None

    @property
    def key(self) -> str:
        """The name with - as _: the command's parameter and the digest key."""
        return self.name.replace("-", "_")


_REQUIRED = object()
_OUT = _Option("out", Path, _REQUIRED, help="output directory")


class _Stage:
    """One run of a subcommand or diagnose analysis. Resolves each option
    of its `_COMMANDS` entry (its flag, else its config entry, else its
    default), types it, checks its range and that each input file exists.
    The command's first `output` makes `--out`. Records the inputs and
    outputs, and writes provenance.json."""

    def __init__(self, command: str, flags: dict):
        self.command = command
        self.config = _load_config_file(flags.pop("config", None))
        options = _COMMANDS[command][1]
        names = {_OUT.name, *(o.name for o in options)}
        foreign = sorted(set(flags) - names)  # diagnose's parser holds every analysis's flags
        if foreign:
            raise ConfigError(f"{command} takes no {', '.join('--' + o for o in foreign)}")
        unknown = sorted(set(self.config) - names)
        if unknown:
            raise ConfigError(
                f"unknown config key(s) for {command}: {', '.join(map(repr, unknown))}"
            )
        self.values = {o.name: self._resolve(o, flags.get(o.name)) for o in options}
        self.inputs: dict[str, Path] = {}
        for o in options:
            value = self.values[o.name]
            if isinstance(value, Path):
                if not value.is_file():
                    raise ConfigError(f"--{o.name}: no such file {value}")
                self.inputs[o.key] = value
        self.outputs: list[Path] = []
        self.out = self._resolve(_OUT, flags.get(_OUT.name))
        if self.out.exists() and not self.out.is_dir():  # refused before any input is read
            raise ConfigError(f"--out: cannot make directory {self.out}: File exists")

    def _resolve(self, option: _Option, flag):
        value = self.config.get(option.name) if flag is None else flag
        if value is None:
            value = option.default
        what = f"--{option.name}" if option.flag else option.name
        if value is _REQUIRED:
            raise ConfigError(f"missing required option {what}")
        return None if value is None else _typed(value, option.kind, what)

    def output(self, name: str) -> Path:
        try:  # the first output makes --out
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file is in the way, or no permission
            raise ConfigError(f"--out: cannot make directory {self.out}: {exc.strerror}") from None
        path = self.out / name
        self.outputs.append(path)
        return path

    def run(self) -> None:
        """Run the command, then write provenance.json. The config digest
        covers the command and each option that is not an input file (a
        value that names a file as "file")."""
        function, options = _COMMANDS[self.command]
        function(self, **{o.key: self.values[o.name] for o in options})
        name, _, analysis = self.command.partition(" ")
        params = {"command": name, "analysis": analysis} if analysis else {"command": name}
        for o in options:
            if o.kind is not Path:  # an input's content is digested under inputs
                value = self.values[o.name]
                params[o.key] = "file" if isinstance(value, Path) else value
        payload = {
            "artifact_version": __version__,
            "command": self.command,
            "config_digest": config_digest(params),
            "inputs": {key: file_digest(p) for key, p in sorted(self.inputs.items())},
            "outputs": {p.name: file_digest(p) for p in sorted(self.outputs)},
        }
        _write_json(self.out / "provenance.json", payload)


def _labelled_rows(path, embeddings, role: str):
    """The rows of embedding file `embeddings` for the ids of a pairs
    file, JSONL of {"id": str, "wnid": str} (extra keys ignored), in file
    order, and their wnids. The pairs file is read first, and only its
    ids' rows are kept. An id the embedding file lacks is a missing `role`
    embedding."""
    from .corpus import load_embeddings, read_jsonl

    _, columns = read_jsonl(path, {"id": str, "wnid": "wnid"})
    matrix = load_embeddings(embeddings, keep=columns["id"])
    return matrix.rows[matrix.positions(columns["id"], role)], columns["wnid"]


def _classes(manifest, image_embeddings):
    """A manifest file, and the `intra_class_sims` stream of its classes
    over an image embedding file, of which only the manifest's rows are
    kept."""
    # `compare` and `cross-modal` import `diagnostics` only after this, so
    # `curator` is imported before numpy: the other order gives the same
    # outputs, but a heap layout that raised `compare`'s peak RSS by 0.2 MiB
    # on the bench's diagnose inputs.
    from . import curator, diagnostics
    from .corpus import load_embeddings

    manifest = curator.load_manifest(manifest)
    images = load_embeddings(image_embeddings, keep=manifest.rows.ids)
    return manifest, diagnostics.intra_class_sims(manifest, images)


def _load_weights(path) -> dict[str, float]:
    """JSON object mapping wnid to class weight, a finite number >= 0."""
    from .corpus import _is_finite_number

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
# Each takes the _Stage and its options' values, under their names with - as
# _, and computes its results before it asks for its first output. Each
# imports the modules it runs itself, so a child loads only its own stage's.


def _scan_captions(taxonomy, corpus, max_lemmas):
    """The lemma matches of a corpus file, found one chunk of captions at a
    time: only the file's ids are held beside the matches, and neither they
    nor the automaton outlive the scan."""
    from . import matcher
    from .corpus import caption_chunks
    from .taxonomy import load_taxonomy

    auto = matcher.build_matcher(load_taxonomy(taxonomy), max_lemmas_per_synset=max_lemmas)
    matches = matcher.Matches()
    for captions in caption_chunks(corpus):
        matches += matcher.find_matches(auto, captions)
        del captions  # freed before the next chunk is parsed
    return matches


def _cmd_match(stage, taxonomy, corpus, caption_embeddings, synset_embeddings, max_lemmas):
    if caption_embeddings is not None and synset_embeddings is None:
        raise ConfigError("--caption-embeddings needs --synset-embeddings")
    if synset_embeddings is not None and caption_embeddings is None:
        raise ConfigError("--synset-embeddings needs --caption-embeddings")
    from . import curator, matcher
    from .corpus import EmbeddingFile, load_embeddings

    matches = _scan_captions(taxonomy, corpus, max_lemmas)
    candidates = None
    if caption_embeddings is not None:  # captions scanned from disk; matched synsets' rows kept
        captions = EmbeddingFile(caption_embeddings)
        synsets = load_embeddings(synset_embeddings, keep=set(matches.wnids))
        candidates = curator.score_candidates(matches, captions, synsets)
    # written only once every match is scored: a caption with no embedding leaves no file
    matcher.write_matches(matches, stage.output("matches.jsonl"))
    if candidates is not None:
        curator.write_candidates(candidates, stage.output("candidates.jsonl"))


def _cmd_sweep(stage, candidates, thresholds):
    from . import curator

    points = curator.threshold_sweep(curator.load_candidates(candidates), thresholds)
    rows = ((p.threshold, p.n_classes, p.n_instances) for p in points)
    _write_csv(stage.output("sweep.csv"), "threshold,n_classes,n_instances", rows)


def _cmd_assemble(stage, candidates, corpus, threshold, drop_multi_label, drop_nsfw,
                  drop_text_in_image, top_k):
    from . import curator
    from .corpus import load_corpus

    options = curator.AssembleOptions(drop_multi_label, drop_nsfw, drop_text_in_image)
    scored = curator.load_candidates(candidates)
    flags = load_corpus(corpus, keep=set(scored.ids))  # only the candidates' flags are held
    manifest = curator.assemble(scored, threshold, flags, options)
    if top_k is not None:
        manifest = curator.top_k_per_class(manifest, top_k)
    curator.write_manifest(
        manifest, stage.output("manifest.jsonl"), stage.output("manifest.meta.json")
    )


def _write_class_stats(path: Path, stats: list[evalmetrics.ClassStat]) -> None:
    rows = ((s.wnid, s.value, s.ci_low, s.ci_high, s.n) for s in stats)
    _write_csv(path, "wnid,value,ci_low,ci_high,n", rows)


def _cmd_eval(stage, manifest, predictions, weights, k):
    from . import curator, evalmetrics

    manifest = curator.load_manifest(manifest)
    predictions = evalmetrics.load_predictions(predictions)
    if weights == "freq":
        class_weights = curator.relative_frequencies(manifest)
    elif weights == "uniform":
        class_weights = {wnid: 1.0 / len(manifest.class_counts) for wnid in manifest.class_counts}
    else:
        class_weights = _load_weights(weights)

    stats = {cutoff: evalmetrics.per_class_recall(manifest, predictions, cutoff) for cutoff in k}
    summary = {
        str(cutoff): {
            "equally_weighted": evalmetrics.equally_weighted_accuracy(s),
            "weighted": evalmetrics.weighted_accuracy(s, class_weights),
            "n_classes": len(s),
        }
        for cutoff, s in stats.items()
    }
    # written only once every cutoff is summed up: a class with no weight leaves no file
    for cutoff, s in stats.items():
        _write_class_stats(stage.output(f"recall_k{cutoff}.csv"), s)
    mode = "file" if isinstance(weights, Path) else weights
    _write_json(stage.output("accuracy.json"), {"weights_mode": mode, "topk": summary})


def _diagnose_intra(stage, manifest, image_embeddings, hist_edges):
    import numpy as np

    from . import diagnostics

    rows = []
    counts = None if hist_edges is None else np.zeros(len(hist_edges) - 1, dtype=np.int64)
    _, classes = _classes(manifest, image_embeddings)
    for c in classes:
        mean = diagnostics.mean_pair_similarity(c) if c.n_pairs else None
        rows.append((c.wnid, c.n_images, c.n_pairs, mean))
        if counts is not None:
            for sims in diagnostics.pair_similarity_blocks(c):
                counts += np.histogram(sims, bins=hist_edges)[0]
    # written only once every class is read: a missing embedding leaves no partial CSV
    _write_csv(stage.output("intra_class_sims.csv"), "wnid,n_images,n_pairs,mean_sim", rows)
    if counts is not None:
        _write_csv(stage.output("intra_hist.csv"), "lo,hi,count",
                   zip(hist_edges, hist_edges[1:], counts))


def _diagnose_compare(stage, seed, boot, manifest_a, manifest_b, image_embeddings_a,
                      image_embeddings_b):
    _, classes_a = _classes(manifest_a, image_embeddings_a)
    _, classes_b = _classes(manifest_b, image_embeddings_b)
    from . import diagnostics

    diffs = diagnostics.per_class_mean_diff_ci(classes_a, classes_b, n_boot=boot, seed=seed)
    comparison = diagnostics.compare_from_intervals(diffs)
    rows = ((d.wnid, d.value, d.ci_low, d.ci_high) for d in diffs)
    _write_csv(stage.output("intra_class_diff.csv"), "wnid,value,ci_low,ci_high", rows)
    _write_json(stage.output("comparison.json"), vars(comparison))


def _diagnose_false_class(stage, text_embeddings, pairs, synset_embeddings, bin_edges):
    from . import diagnostics
    from .corpus import EmbeddingFile

    texts, intended = _labelled_rows(pairs, text_embeddings, "text")
    synsets = EmbeddingFile(synset_embeddings)  # scanned from disk; only intended rows are kept
    bins = diagnostics.binned_false_class_means(texts, intended, synsets, bin_edges)
    rows = ((b.lo, b.hi, b.count, b.mean) for b in bins)
    header = "lo,hi,count,mean_false_class_proportion"
    _write_csv(stage.output("false_class_bins.csv"), header, rows)


def _diagnose_nearest_text(stage, query_embeddings, query_labels, corpus_embeddings, min_sim):
    from . import curator, diagnostics
    from .corpus import EmbeddingFile

    queries, wnids = _labelled_rows(query_labels, query_embeddings, "query")
    corpus = EmbeddingFile(corpus_embeddings)  # scanned from disk, never held whole
    manifest = diagnostics.nearest_text_dataset(queries, wnids, corpus, min_sim)
    curator.write_manifest(
        manifest, stage.output("manifest.jsonl"), stage.output("manifest.meta.json")
    )


def _diagnose_cross_modal(stage, seed, boot, manifest, image_embeddings, synset_embeddings):
    manifest, classes = _classes(manifest, image_embeddings)
    from . import diagnostics
    from .corpus import load_embeddings

    synsets = load_embeddings(synset_embeddings, keep=manifest.class_counts)
    stats = diagnostics.cross_modal_class_stats(classes, synsets, n_boot=boot, seed=seed)
    _write_class_stats(stage.output("cross_modal.csv"), stats)


def _diagnose_correlate(stage, csv, x_col, y_col):
    try:
        header, *lines = csv.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 ({exc.reason})", path=csv) from None
    header = header.strip().split(",")
    for column in (x_col, y_col):
        if column not in header:
            raise ConfigError(f"column {column!r} not found in {csv}; "
                              f"its columns are {', '.join(map(repr, header))}")
    xi, yi = header.index(x_col), header.index(y_col)
    xs, ys = [], []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            x, y = float(cells[xi]), float(cells[yi])
        except (IndexError, ValueError):
            raise FormatError(
                f"missing or non-numeric {x_col!r}/{y_col!r} cell", path=csv, line=lineno
            ) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise FormatError(f"non-finite {x_col!r}/{y_col!r} cell", path=csv, line=lineno)
        xs.append(x)
        ys.append(y)
    from .diagnostics import spearman

    rho = spearman(xs, ys)
    _write_json(
        stage.output("correlation.json"), {"spearman": rho, "n": len(xs), "x": x_col, "y": y_col}
    )


def _rule_from_config(spec) -> causalsim.SelectionRule:
    """The selection rule a config object describes. An image_ball radius
    of "match" gives None, which bottleneck_gap matches to the text rule."""
    from . import causalsim

    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"selection rule must be an object with a 'kind', got {spec!r}")
    stray = sorted(set(spec) - {"kind", "threshold", "radius", "prototype", "text_threshold_also"})
    if stray:
        raise ConfigError(f"unknown selection rule key(s): {', '.join(map(repr, stray))}")
    if spec["kind"] == "image_ball" and spec.get("radius") in (None, "match"):
        if spec.get("radius") is None:
            raise ConfigError('image_ball rule needs a radius >= 0 or "match"')
        spec = {**spec, "radius": None}

    def optional(key):
        value = spec.get(key)
        return None if value is None else _typed(value, _finite, f"selection rule {key}")

    prototype = spec.get("prototype")
    if prototype is not None:
        if not isinstance(prototype, list):
            raise ConfigError(f"selection rule prototype must be a list, got {prototype!r}")
        prototype = tuple(_typed(v, _finite, "selection rule prototype entry") for v in prototype)
    numbers = {key: optional(key) for key in ("threshold", "radius", "text_threshold_also")}
    return causalsim.SelectionRule(kind=spec["kind"], prototype=prototype, **numbers)


def _rule_spec(spec) -> dict:
    """A selection rule's config object, as given, once it builds a rule."""
    _rule_from_config(spec)
    return spec


def _cmd_simulate(stage, seed, n, n_classes, x_dim, text_noise_sd, class_sep, bin_width, alpha,
                  text_rule, image_rule):
    from . import causalsim

    gen = causalsim.GenConfig(n_classes, x_dim, text_noise_sd, class_sep, seed)
    for rows, name in ((n, "n"), (n_classes, "n_classes")):  # the images x, the class means
        if rows * x_dim > _MAX_FLOAT64S:
            raise ConfigError(f"{name} x x_dim, {rows} x {x_dim}, is over {_MAX_FLOAT64S} values")
    text = _rule_from_config(text_rule)
    image = _rule_from_config(image_rule)
    samples = causalsim.generate(gen, n)
    report = causalsim.bottleneck_gap(samples, text, image, bin_width, alpha)

    _write_json(stage.output("report.json"), report.as_dict())
    columns = (report.baseline_var, report.per_dim_var_text, report.per_dim_var_image)
    _write_csv(stage.output("variances.csv"), "dim,baseline,text_rule,image_rule",
               zip(range(gen.x_dim), *columns))


# -- the option table ----------------------------------------------------------

# Each subcommand's help line, in the order --help lists them.
_SUBCOMMANDS = {
    "match": "find lemma occurrences (and score candidates)",
    "sweep": "candidate coverage per similarity threshold",
    "assemble": "apply exclusion rules and emit the manifest",
    "eval": "score ranked predictions against a manifest",
    "diagnose": "statistical analyses over curated datasets",
    "simulate": "run the selection-bias simulator",
}

# The two analyses that draw a bootstrap take these, and simulate its seed.
# 1000 is diagnostics.DEFAULT_BOOTSTRAP_REPLICATES, stated here to load no numpy.
_SEED = _Option("seed", _within(_int, 0), 0, help="root random seed")
_BOOT = _Option("boot", _within(_int, 1, _MAX_FLOAT64S), 1000)

# Each subcommand, or diagnose analysis, with the function that runs it and
# its options besides --out.
_COMMANDS = {
    "match": (_cmd_match, (
        _Option("taxonomy", Path, _REQUIRED),
        _Option("corpus", Path, _REQUIRED),
        _Option("caption-embeddings", Path),
        _Option("synset-embeddings", Path),
        _Option("max-lemmas", _within(_int, 1)),
    )),
    "sweep": (_cmd_sweep, (
        _Option("candidates", Path, _REQUIRED),
        _Option("thresholds", _parse_thresholds, _REQUIRED, help="a:b:step or comma list"),
    )),
    "assemble": (_cmd_assemble, (
        _Option("candidates", Path, _REQUIRED),
        _Option("corpus", Path, _REQUIRED),
        _Option("threshold", _within(float, -1.0, 1.0), _REQUIRED),
        _Option("drop-multi-label", bool, False),
        _Option("drop-nsfw", bool, False),
        _Option("drop-text-in-image", bool, False),
        _Option("top-k", _within(_int, 1)),
    )),
    "eval": (_cmd_eval, (
        _Option("manifest", Path, _REQUIRED),
        _Option("predictions", Path, _REQUIRED),
        _Option("weights", _weights, "freq", help="freq | uniform | JSON file of class weights"),
        _Option("k", _parse_cutoffs, "1,5", help="comma list of cutoffs, e.g. 1,5"),
    )),
    "diagnose intra": (_diagnose_intra, (
        _Option("manifest", Path, _REQUIRED),
        _Option("image-embeddings", Path, _REQUIRED),
        _Option("hist-edges", _parse_edges),
    )),
    "diagnose compare": (_diagnose_compare, (
        _SEED,
        _BOOT,
        _Option("manifest-a", Path, _REQUIRED),
        _Option("manifest-b", Path, _REQUIRED),
        _Option("image-embeddings-a", Path, _REQUIRED),
        _Option("image-embeddings-b", Path, _REQUIRED),
    )),
    "diagnose false-class": (_diagnose_false_class, (
        _Option("text-embeddings", Path, _REQUIRED),
        _Option("pairs", Path, _REQUIRED),
        _Option("synset-embeddings", Path, _REQUIRED),
        _Option("bin-edges", _parse_edges, _REQUIRED),
    )),
    "diagnose nearest-text": (_diagnose_nearest_text, (
        _Option("query-embeddings", Path, _REQUIRED),
        _Option("query-labels", Path, _REQUIRED),
        _Option("corpus-embeddings", Path, _REQUIRED),
        _Option("min-sim", _within(float, -1.0, 1.0), 0.7),
    )),
    "diagnose cross-modal": (_diagnose_cross_modal, (
        _SEED,
        _BOOT,
        _Option("manifest", Path, _REQUIRED),
        _Option("image-embeddings", Path, _REQUIRED),
        _Option("synset-embeddings", Path, _REQUIRED),
    )),
    "diagnose correlate": (_diagnose_correlate, (
        _Option("csv", Path, _REQUIRED),
        _Option("x-col", str, _REQUIRED),
        _Option("y-col", str, _REQUIRED),
    )),
    "simulate": (_cmd_simulate, (
        _SEED,
        _Option("n", _within(_int, 1), 100_000, help="number of samples"),
        _Option("n_classes", _within(_int, 1), _REQUIRED, flag=False),
        _Option("x_dim", _within(_int, 2), _REQUIRED, flag=False),
        _Option("text_noise_sd", float, _REQUIRED, flag=False),
        _Option("class_sep", float, _REQUIRED, flag=False),
        _Option("bin_width", float, 0.05, flag=False),
        _Option("alpha", float, 0.01, flag=False),
        _Option("text_rule", _rule_spec, _REQUIRED, flag=False),
        _Option("image_rule", _rule_spec, _REQUIRED, flag=False),
    )),
}


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, with a flag per option. A flag not
    given sets no attribute, so the namespace holds only the flags given."""
    parser = argparse.ArgumentParser(prog="capsieve", description=__doc__)
    parser.add_argument("--version", action="version", version=f"capsieve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        commands = [c for c in _COMMANDS if c.partition(" ")[0] == name]
        if commands != [name]:
            p.add_argument("analysis", choices=[c.partition(" ")[2] for c in commands])
        p.add_argument("--config", help="JSON config file; flags override its entries")
        # diagnose holds every analysis's flags; _Stage refuses another analysis's
        flags = {o.name: o for c in commands for o in (_OUT, *_COMMANDS[c][1]) if o.flag}
        for o in flags.values():
            const = {"action": "store_const", "const": True} if o.kind is bool else {}
            p.add_argument(f"--{o.name}", dest=o.name, help=o.help, **const)
    return parser


def run(argv: list[str]) -> int:
    """Parse argv, run the subcommand, map errors to exit codes."""
    try:
        flags = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    command = flags.pop("command")
    if "analysis" in flags:
        command += " " + flags.pop("analysis")
    try:
        _Stage(command, flags).run()
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
