"""Workload definitions and the seeded generators that write their input files.

Every workload is a fixed recipe (model config, split sizes, sentence-length
profile) plus a generator that turns a seed into JSON-lines files. The
program under test only ever sees those files. Sentence lengths are
stratified: a split of ``k`` sentences always
holds the same ``k`` lengths (fixed quantiles of the workload's length
profile), and the seed shuffles them and draws the words, trees, relations,
aspects and labels. Throughput then depends on the code, not on how long the
sentences of one seed happen to be.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from sentigraph.config import TrainConfig
from sentigraph.corpus import LABELS, AspectSample, save_dataset
from sentigraph.synthetic import make_synthetic_sample

# Universal-Dependencies-style relation labels, most frequent first; a
# Zipfian weight per rank gives a realistic skew of edge types.
RELATIONS = ("punct", "det", "nsubj", "amod", "obj", "case", "advmod", "nmod",
             "conj", "cc", "compound", "aux", "cop", "mark", "obl", "xcomp",
             "acl", "nummod", "ccomp", "appos")
# Never generated for training splits, so a test file that uses them
# exercises the fallback for relations missing from the relation statistics.
UNSEEN_RELATIONS = ("vocative", "dislocated", "reparandum", "orphan")

FULL = TrainConfig(batch_size=8, max_epochs=1)
DESK = TrainConfig(d_w=32, d_h=32, gcn_layers=1, heads=4, ffn_width=64,
                   batch_size=32, max_epochs=4)
# smoke mode: every code path at toy width, for the harness's own test
SMOKE = TrainConfig(d_w=8, d_h=8, gcn_layers=1, heads=2, ffn_width=16,
                    batch_size=4, max_epochs=2)


@dataclass(frozen=True)
class Workload:
    name: str
    config: TrainConfig
    corpus: str          # "zipf" (random trees over a Zipfian vocabulary) or "desk"
    n_train: int
    n_dev: int
    n_test: int
    train_lengths: tuple[int, int]  # uniform length range of train/dev sentences
    test_lengths: tuple[int, int]
    test_tail: float     # 1 = uniform lengths; larger = longer tail of long sentences
    n_vocab_corpus: int  # sentences in the file the vocabulary is built from
    oov_rate: float      # share of test tokens replaced by words no file has
    unseen_rel_rate: float  # share of test edges given a relation training never saw
    probe_len: int       # sentence length of the isolated per-stage probe
    min_predictions: int = 200
    # desk test files: a minority of 9-token reviews, so p50 lies inside the
    # 4-token latencies and p95 inside the 9-token ones, not on the edge
    # between the two, where a few slow calls would move it
    test_decoy_share: float = 0.5


# why each workload exists: see BENCHMARK.json and README.md
WORKLOADS = {
    # The test file is the forward-only stress: a long length tail (4-80
    # tokens), OOV words and relations missing from the relation statistics.
    "train_full": Workload(
        name="train_full",
        config=FULL, corpus="zipf", n_train=8, n_dev=4, n_test=36,
        train_lengths=(8, 40), test_lengths=(4, 80), test_tail=2.5,
        n_vocab_corpus=1500, oov_rate=0.03, unseen_rel_rate=0.03,
        probe_len=32),
    "train_desk": Workload(
        name="train_desk",
        config=DESK, corpus="desk", n_train=64, n_dev=32, n_test=192,
        train_lengths=(4, 9), test_lengths=(4, 9), test_tail=1.0,
        n_vocab_corpus=0, oov_rate=0.0, unseen_rel_rate=0.0,
        probe_len=9, test_decoy_share=0.125),
}


def smoke_variant(workload: Workload) -> Workload:
    """The same recipe at toy sizes, run for one round."""
    lo, hi = workload.test_lengths
    return dataclasses.replace(
        workload, config=dataclasses.replace(SMOKE, max_epochs=workload.config.max_epochs),
        n_train=4, n_dev=2, n_test=6, n_vocab_corpus=40 if workload.n_vocab_corpus else 0,
        test_lengths=(lo, min(hi, 20)), min_predictions=1,
        probe_len=min(workload.probe_len, 12))


# ---------------------------------------------------------------------------
# generators

@dataclass(frozen=True)
class WorkloadFiles:
    train: str
    dev: str
    test: str
    vocab_corpus: str | None


def stratified_lengths(k: int, lo: int, hi: int, tail: float,
                       rng: np.random.Generator) -> list[int]:
    """k lengths at the fixed quantiles (i + 0.5) / k of lo + (hi - lo) * q**tail, shuffled."""
    q = (np.arange(k) + 0.5) / k
    lengths = np.rint(lo + (hi - lo) * q ** tail).astype(int)
    return [int(n) for n in rng.permutation(lengths)]


def _zipf_probs(n: int, exponent: float = 1.07) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


VOCAB_WORDS = 4000
_WORD_PROBS = _zipf_probs(VOCAB_WORDS)
_RELATION_PROBS = _zipf_probs(len(RELATIONS), exponent=0.9)


def zipf_tree_sample(rng: np.random.Generator, n: int, oov_rate: float = 0.0,
                     unseen_rel_rate: float = 0.0) -> AspectSample:
    """A random dependency tree of ``n`` tokens over a Zipfian vocabulary.

    Heads attach to a recently placed token more often than to a distant
    one, as in natural parses. ``oov_rate`` of the tokens are words outside
    the vocabulary and ``unseen_rel_rate`` of the edges carry relations
    that training splits never use.
    """
    ranks = rng.choice(VOCAB_WORDS, size=n, p=_WORD_PROBS)
    tokens = [f"w{r}" for r in ranks]
    for i in np.flatnonzero(rng.random(n) < oov_rate):
        tokens[i] = f"oov{int(rng.integers(10**9))}"
    order = rng.permutation(n)
    deps = [(-1, int(order[0]), "root")]
    for k in range(1, n):
        back = min(k, int(rng.geometric(0.5)))
        head = int(order[k - back])
        if rng.random() < unseen_rel_rate:
            relation = str(rng.choice(UNSEEN_RELATIONS))
        else:
            relation = RELATIONS[int(rng.choice(len(RELATIONS), p=_RELATION_PROBS))]
        deps.append((head, int(order[k]), relation))
    deps.sort(key=lambda d: d[1])
    start = int(rng.integers(0, n))
    length = int(rng.integers(1, min(3, n - start) + 1))
    return AspectSample(tokens=tuple(tokens), aspect_start=start, aspect_len=length,
                        label=str(rng.choice(LABELS)), deps=tuple(deps))


def zipf_split(rng: np.random.Generator, k: int, lengths: tuple[int, int],
               tail: float = 1.0, oov_rate: float = 0.0,
               unseen_rel_rate: float = 0.0) -> list[AspectSample]:
    return [zipf_tree_sample(rng, n, oov_rate, unseen_rel_rate)
            for n in stratified_lengths(k, *lengths, tail, rng)]


def desk_split(rng: np.random.Generator, k: int,
               decoy_share: float = 0.5) -> list[AspectSample]:
    """Synthetic reviews with balanced labels; exactly ``decoy_share`` carry a decoy clause.

    A review has 4 tokens, or 9 with the decoy clause.
    """
    decoys = rng.permutation(np.arange(k) < round(k * decoy_share))
    return [make_synthetic_sample(rng, LABELS[i % len(LABELS)], with_decoy=bool(decoys[i]))
            for i in range(k)]


def write_workload_files(workload: Workload, seed: int, directory: str) -> WorkloadFiles:
    """Generate the workload's splits from ``seed`` and write them as JSON lines."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    if workload.corpus == "desk":
        splits = {"train": desk_split(rng, workload.n_train),
                  "dev": desk_split(rng, workload.n_dev),
                  "test": desk_split(rng, workload.n_test, workload.test_decoy_share)}
    else:
        splits = {
            "train": zipf_split(rng, workload.n_train, workload.train_lengths),
            "dev": zipf_split(rng, workload.n_dev, workload.train_lengths),
            "test": zipf_split(rng, workload.n_test, workload.test_lengths,
                               workload.test_tail, workload.oov_rate,
                               workload.unseen_rel_rate),
        }
        if workload.n_vocab_corpus:
            splits["vocab_corpus"] = zipf_split(rng, workload.n_vocab_corpus,
                                                workload.train_lengths)
    paths = {}
    for name, samples in splits.items():
        paths[name] = os.path.join(directory, f"{name}.jsonl")
        save_dataset(paths[name], samples)
    return WorkloadFiles(train=paths["train"], dev=paths["dev"], test=paths["test"],
                         vocab_corpus=paths.get("vocab_corpus"))
