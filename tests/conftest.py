"""Shared builders for synthetic taxonomies, corpora, and embeddings."""

from __future__ import annotations

import numpy as np
import pytest

from capsieve.corpus import Corpus, EmbeddingMatrix
from capsieve.curator import Candidates
from capsieve.seeding import stream
from capsieve.taxonomy import Synset, Taxonomy


def make_synset(num: int, lemmas, name=None, gloss="a thing"):
    return Synset(
        wnid=f"n{num:08d}",
        lemmas=tuple(lemmas),
        name=name if name is not None else lemmas[0],
        gloss=gloss,
    )


def make_taxonomy(lemma_lists) -> Taxonomy:
    return Taxonomy([make_synset(i + 1, lemmas) for i, lemmas in enumerate(lemma_lists)])


def make_corpus(texts, ids=None, nsfw=None, text_in_image=None) -> Corpus:
    n = len(texts)
    return Corpus(
        ids=list(ids) if ids else [f"inst{i:04d}" for i in range(n)],
        texts=list(texts),
        nsfw=[bool(flag) for flag in nsfw] if nsfw else [False] * n,
        text_in_image=list(text_in_image) if text_in_image else [None] * n,
        meta=[{} for _ in range(n)],
    )


def make_candidates(rows) -> Candidates:
    """Candidates from (instance id, wnid, score) rows."""
    rows = list(rows)
    return Candidates(
        ids=[r[0] for r in rows], wnids=[r[1] for r in rows], scores=[r[2] for r in rows]
    )


def candidate_rows(candidates: Candidates) -> list[tuple[str, str, float]]:
    """The (instance id, wnid, score) rows of `candidates`, in order."""
    return list(zip(candidates.ids, candidates.wnids, candidates.scores.tolist()))


def random_matrix(rng, ids, dim) -> EmbeddingMatrix:
    rows = rng.standard_normal((len(ids), dim)).astype(np.float32)
    return EmbeddingMatrix(rows=rows, ids=list(ids))


def unit(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float32)
    return v / np.linalg.norm(v)


def random_word(rng, alphabet="abcdefgh"):
    length = int(rng.integers(1, 5))
    return "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=length))


def random_match_case(rng, max_captions=1000, max_lemmas=100):
    """A random (taxonomy, corpus) pair over a small alphabet, for matcher
    oracle-equivalence checks. Captions mix free words with planted lemmas
    (sometimes glued to other characters to exercise the boundary rule)."""
    n_lemmas = int(rng.integers(1, max_lemmas + 1))
    lemmas = []
    for _ in range(n_lemmas):
        words = [random_word(rng) for _ in range(int(rng.integers(1, 4)))]
        lemmas.append("_".join(words) if rng.integers(0, 2) else " ".join(words))
    n_synsets = int(rng.integers(1, max(2, n_lemmas)))
    lemma_lists = [[] for _ in range(n_synsets)]
    for i, lemma in enumerate(lemmas):
        lemma_lists[int(rng.integers(0, n_synsets))].append(lemma)
        if rng.integers(0, 10) == 0:  # shared lemma across two synsets
            lemma_lists[int(rng.integers(0, n_synsets))].append(lemma)
    lemma_lists = [lst if lst else [random_word(rng)] for lst in lemma_lists]
    taxonomy = make_taxonomy(lemma_lists)

    n_captions = int(rng.integers(1, max_captions + 1))
    texts = []
    for _ in range(n_captions):
        words = []
        for _ in range(int(rng.integers(1, 10))):
            roll = rng.integers(0, 4)
            if roll == 0:
                planted = lemmas[int(rng.integers(0, len(lemmas)))].replace("_", " ")
                if rng.integers(0, 3) == 0:
                    planted = planted + random_word(rng)  # break the right boundary
                words.append(planted)
            elif roll == 1:
                words.append(random_word(rng).upper())
            else:
                words.append(random_word(rng))
        texts.append("  ".join(words) if rng.integers(0, 5) == 0 else " ".join(words))
    return taxonomy, make_corpus(texts)


WORDS = [
    "puma", "cougar", "ice_bear", "polar_bear", "tabby", "egyptian_cat", "drake",
    "crane", "jay", "magpie", "terrier", "beagle", "retriever", "spaniel",
    "kit_fox", "red_fox", "lynx", "leopard", "jaguar", "cheetah", "snow", "tree",
    "river", "store", "logo", "statue", "poster", "art",
]


def build_pipeline_fixture(root, seed=777, n_instances=1000, n_synsets=20, dim=16):
    """Write a synthetic but structured dataset for end-to-end runs.

    Captions embed lemmas of known synsets; caption embeddings are noisy
    copies of their synset's text embedding so similarity thresholds bite;
    image embeddings cluster per class; predictions are a noisy classifier.
    Returns the path map. Deterministic in `seed`.
    """
    import json

    from capsieve.corpus import EmbeddingMatrix, write_embeddings
    from capsieve.evalmetrics import write_predictions
    from capsieve.taxonomy import Taxonomy, save_taxonomy

    root.mkdir(parents=True, exist_ok=True)
    rng = stream(seed)
    wnids = [f"n{j:08d}" for j in range(1, n_synsets + 1)]
    synsets = []
    for j, wnid in enumerate(wnids):
        lemmas = [WORDS[j % len(WORDS)]]
        if j % 3 == 0:
            lemmas.append(WORDS[(j + 7) % len(WORDS)])
        synsets.append(
            Synset(wnid=wnid, lemmas=tuple(dict.fromkeys(lemmas)), name=lemmas[0].replace("_", " "),
                   gloss=f"a kind of thing number {j}")
        )
    taxonomy = Taxonomy(synsets)
    taxonomy_path = root / "taxonomy.jsonl"
    save_taxonomy(taxonomy, taxonomy_path)

    # orthogonal-ish synset text directions
    basis = rng.standard_normal((n_synsets, dim))
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    synset_matrix = EmbeddingMatrix(rows=basis.astype(np.float32), ids=list(wnids))
    synset_emb_path = root / "synset_embeddings.emb"
    write_embeddings(synset_matrix, synset_emb_path)

    ids, texts, caption_rows, image_rows, nsfw, tii = [], [], [], [], [], []
    true_class = {}
    for i in range(n_instances):
        rid = f"inst{i:04d}"
        ids.append(rid)
        j = int(rng.integers(0, n_synsets))
        lemma = synsets[j].lemmas[int(rng.integers(0, len(synsets[j].lemmas)))]
        filler = [WORDS[int(w)].replace("_", " ") for w in rng.integers(20, len(WORDS), size=3)]
        if rng.random() < 0.75:
            words = [filler[0], lemma.replace("_", " "), filler[1]]
            true_class[rid] = j
        else:
            words = filler  # no lemma: never matched
            true_class[rid] = None
        texts.append(" ".join(words))
        noise = 0.1 + 0.9 * float(rng.random())  # similarity spread
        caption = basis[j] + noise * rng.standard_normal(dim)
        caption_rows.append(caption / np.linalg.norm(caption))
        image = basis[j] + 0.8 * rng.standard_normal(dim)
        image_rows.append(image / np.linalg.norm(image))
        nsfw.append(bool(rng.random() < 0.05))
        tii.append(bool(rng.random() < 0.05) if rng.random() < 0.5 else None)

    corpus = make_corpus(texts, ids=ids, nsfw=nsfw, text_in_image=tii)
    corpus_path = root / "corpus.jsonl"
    from capsieve.corpus import save_corpus

    save_corpus(corpus, corpus_path)

    caption_emb_path = root / "captions.emb"
    write_embeddings(
        EmbeddingMatrix(rows=np.stack(caption_rows).astype(np.float32), ids=list(ids)),
        caption_emb_path,
    )
    image_emb_path = root / "images.emb"
    write_embeddings(
        EmbeddingMatrix(rows=np.stack(image_rows).astype(np.float32), ids=list(ids)),
        image_emb_path,
    )

    predictions = {}
    for i, rid in enumerate(ids):
        j = true_class[rid]
        scores = rng.standard_normal(n_synsets)
        if j is not None and rng.random() < 0.7:
            scores[j] += 4.0  # classifier usually right
        predictions[rid] = [wnids[int(k)] for k in np.argsort(-scores)][:5]
    predictions_path = root / "predictions.jsonl"
    write_predictions(predictions, predictions_path)

    labels_path = root / "query_labels.jsonl"
    with labels_path.open("w", encoding="utf-8", newline="\n") as fh:
        for wnid in wnids:
            fh.write(json.dumps({"id": wnid, "wnid": wnid}) + "\n")

    return {
        "taxonomy": taxonomy_path,
        "corpus": corpus_path,
        "synset_embeddings": synset_emb_path,
        "caption_embeddings": caption_emb_path,
        "image_embeddings": image_emb_path,
        "predictions": predictions_path,
        "query_labels": labels_path,
    }


@pytest.fixture
def rng():
    return stream(2024)


@pytest.fixture(scope="session")
def pipeline_fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture")
    return build_pipeline_fixture(root)
