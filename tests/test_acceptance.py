"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v`; a pass/fail line per
criterion is printed by the conftest report hook.
"""

import dataclasses
import json
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from sentigraph import autodiff as ad
from sentigraph import head
from sentigraph.autodiff import Tensor
from sentigraph.config import GRAPHS, TrainConfig
from sentigraph.corpus import LABELS, AspectSample, build_vocab
from sentigraph.encoders import positional_encoding
from sentigraph.model import AspectSentimentModel, _op_checks, gradient_check_suite
from sentigraph.synthetic import CUES, make_synthetic_corpus
from sentigraph.syntax import build_adjacency, collect_sdi_stats
from sentigraph.training import (
    confusion_matrix,
    layer_sweep,
    metrics_from_confusion,
    train,
    write_scores,
)

from conftest import aspect_mask, random_tree_sample

def recorded_ops(graph: str) -> set[str]:
    """The ops on the tape of one training batch, named as the autodiff functions that made them.

    The loss is assembled as ``training.train`` assembles it, at two graph
    layers, so that a layer reading another's output is on the tape too.
    """
    corpus = make_synthetic_corpus(8, seed=51)
    config = TrainConfig(d_w=8, d_h=8, gcn_layers=2, heads=2, ffn_width=16, graph=graph,
                         seed=4)
    sdi = collect_sdi_stats(corpus) if config.edge_weighted else None
    model = AspectSentimentModel(config, build_vocab(corpus), sdi=sdi)
    batch = corpus[:4]
    loss = head.compute_loss(model.forward(batch).prob, [s.label for s in batch],
                             model.parameters, config.lambda_l2)
    # each op's backward function is defined inside it: "matmul.<locals>.backward"
    return {node._backward_fn.__qualname__.split(".")[0] for node in ad._toposort(loss)}


@pytest.mark.parametrize("graph", GRAPHS)
def test_gradcheck_checks_exactly_the_ops_a_training_step_records(graph):
    assert {name for name, _fn, _inputs in _op_checks()} == recorded_ops(graph)


def test_gradient_integrity():
    # one check per op a training step records, plus the composed forward-to-loss
    # pass on a 5+3-token batch at d_w = d_h = 8, one graph layer, two heads;
    # every one < 1e-4 at eps 1e-5
    started = time.monotonic()
    results = gradient_check_suite()
    elapsed = time.monotonic() - started
    names = [name for name, _ in results]
    assert sorted(names) == sorted(set().union(*map(recorded_ops, GRAPHS)) | {"composed_model"})
    for name, report in results:
        assert report.checked > 0, name
        assert report.max_rel_error < 1e-4, (name, report.max_rel_error)
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_overfit_sanity():
    # 32 synthetic samples whose label is carried by a cue token attached to
    # the aspect via a dependency edge; defaults scaled to d = 32, 1 layer
    corpus = make_synthetic_corpus(32, seed=11)
    for sample in corpus:
        aspect = sample.aspect_start
        cue_edges = [(h, d) for h, d, rel in sample.deps if d == aspect and rel == "nsubj"]
        assert len(cue_edges) == 1
        cue_token = sample.tokens[cue_edges[0][0]]
        assert cue_token in CUES[sample.label]

    config = TrainConfig(d_w=32, d_h=32, gcn_layers=1, heads=4, ffn_width=64,
                         learning_rate=0.001, batch_size=32, max_epochs=80, seed=3)
    started = time.monotonic()
    result = train(config, corpus, dev_samples=corpus)  # dev = train measures train accuracy
    elapsed = time.monotonic() - started
    best_train_acc = max(e.dev_acc for e in result.log)
    assert best_train_acc >= 0.95, f"train accuracy peaked at {best_train_acc:.3f}"
    assert len(result.log) <= 200
    assert elapsed < 300.0, f"training took {elapsed:.1f}s"


def _three_token_sentence(rel_a: str, rel_b: str) -> AspectSample:
    return AspectSample(tokens=("w0", "w1", "w2"), aspect_start=0, aspect_len=1,
                        label="neutral",
                        deps=((-1, 0, "root"), (0, 1, rel_a), (0, 2, rel_b)))


def test_sdi_oracle():
    # ten sentences, twenty non-root edges, counted by hand:
    # nsubj x8, dobj x4, amod x4, det x2, cop x2
    corpus = (
        [_three_token_sentence("nsubj", "nsubj")] * 4
        + [_three_token_sentence("dobj", "amod")] * 4
        + [_three_token_sentence("det", "cop")] * 2
    )
    assert len(corpus) == 10
    table = collect_sdi_stats(corpus)
    assert table.total_edges == 20
    assert dict(table.ratios) == {
        "nsubj": 0.4, "dobj": 0.2, "amod": 0.2, "det": 0.1, "cop": 0.1,
    }

    # zero-pattern equivalence on 1000 random trees
    rng = np.random.default_rng(99)
    trees = [random_tree_sample(rng, n=int(rng.integers(2, 10))) for _ in range(1000)]
    stats = collect_sdi_stats(trees)
    for sample in trees:
        binary = np.asarray(build_adjacency([sample], None, Counter())[0])
        weighted = np.asarray(build_adjacency([sample], stats, Counter())[0])
        assert np.array_equal(weighted != 0, binary != 0)


def test_metric_oracle():
    rng = np.random.default_rng(41)
    gold = rng.integers(0, 3, size=1000).tolist()
    predicted = rng.integers(0, 3, size=1000).tolist()
    report = metrics_from_confusion(confusion_matrix(gold, predicted))

    # brute-force recount, plain loops only
    count = [[0] * 3 for _ in range(3)]
    for g, p in zip(gold, predicted):
        count[g][p] += 1
    assert abs(report.acc - sum(count[c][c] for c in range(3)) / 1000) <= 1e-12
    f1_sum = 0.0
    for c in range(3):
        tp = count[c][c]
        col = sum(count[g][c] for g in range(3))
        row = sum(count[c][p] for p in range(3))
        precision = tp / col if col else 0.0
        recall = tp / row if row else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert abs(report.precision[c] - precision) <= 1e-12
        assert abs(report.recall[c] - recall) <= 1e-12
        assert abs(report.f1[c] - f1) <= 1e-12
        f1_sum += f1
    assert abs(report.macro_f1 - f1_sum / 3) <= 1e-12


def test_ablation_structure(transpose_calls):
    corpus = make_synthetic_corpus(8, seed=51)
    base = TrainConfig(d_w=8, d_h=8, gcn_layers=1, heads=2, ffn_width=16,
                       max_epochs=1, batch_size=8, seed=4)

    ew_config = dataclasses.replace(base, graph="no_edge_weights")
    ew_model = AspectSentimentModel(ew_config, build_vocab(corpus))
    for sample in corpus:
        adjacency = np.asarray(ew_model.adjacency(sample)[0])
        assert set(np.unique(adjacency)) <= {0.0, 1.0}
        assert np.array_equal(adjacency,
                              np.asarray(build_adjacency([sample], None, Counter())[0]))

    d_config = dataclasses.replace(base, graph="no_dependency")
    d_model = AspectSentimentModel(d_config, build_vocab(corpus))
    for sample in corpus:
        adjacency = np.asarray(d_model.adjacency(sample)[0])
        assert np.array_equal(adjacency, np.eye(sample.n))

    # the reversed message-passing path is counted: a full training step
    # under the unidirectional variant must never evaluate it
    train(dataclasses.replace(base, graph="no_bidirectional"), corpus, dev_samples=corpus)
    assert len(transpose_calls) == 0
    train(base, corpus, dev_samples=corpus)
    assert len(transpose_calls) > 0


def test_positional_encoding_closed_form():
    pe = positional_encoding(12, 16)
    assert np.array_equal(pe[0, 0::2], np.zeros(8))
    assert np.array_equal(pe[0, 1::2], np.ones(8))
    rng = np.random.default_rng(5)
    for _ in range(60):
        pos = int(rng.integers(0, 12))
        i = int(rng.integers(0, 8))
        angle = pos / 10000 ** (2 * i / 16)
        assert abs(pe[pos, 2 * i] - math.sin(angle)) <= 1e-12
        assert abs(pe[pos, 2 * i + 1] - math.cos(angle)) <= 1e-12


def test_masking():
    corpus = make_synthetic_corpus(6, seed=61)
    config = TrainConfig(d_w=8, d_h=8, gcn_layers=1, heads=2, ffn_width=16, seed=6)
    model = AspectSentimentModel(config, build_vocab(corpus),
                                 sdi=collect_sdi_stats(corpus))
    eps = 1e-5
    for sample in corpus:
        fp = model.forward([sample])
        lo, hi = sample.aspect_start, sample.aspect_start + sample.aspect_len
        outside = [i for i in range(sample.n) if not lo <= i < hi]

        # masked rows are exactly zero
        assert np.array_equal(fp.h_gcn.data[outside],
                              np.zeros((len(outside), fp.h_gcn.shape[1])))

        # loss as a function of the graph-convolution output along the mask path
        h_lstm = fp.h_lstm.data.copy()
        z_out = fp.z_out.data.copy()
        span, layout = [(sample.aspect_start, sample.aspect_len)], ad.segment_layout([sample.n])

        def mask_path_loss(h_gcn_values):
            masked = aspect_mask(Tensor(h_gcn_values), span, layout)
            _alpha, pooled = head.aspect_attention(Tensor(h_lstm), masked, layout)
            res = head.fuse(pooled, Tensor(z_out), model.fusion, layout)
            return head.nll(head.classify(res, model.classifier), [sample.label])

        # analytic gradient at masked coordinates is exactly zero
        probe = Tensor(fp.h_gcn.data.copy(), requires_grad=True)
        masked = aspect_mask(probe, span, layout)
        _alpha, pooled = head.aspect_attention(Tensor(h_lstm), masked, layout)
        res = head.fuse(pooled, Tensor(z_out), model.fusion, layout)
        ad.backward(head.nll(head.classify(res, model.classifier), [sample.label]))
        assert np.array_equal(probe.grad[outside],
                              np.zeros((len(outside), probe.shape[1])))

        # central finite differences at masked coordinates are exactly zero
        rng = np.random.default_rng(62)
        for _ in range(5):
            row = outside[int(rng.integers(0, len(outside)))]
            col = int(rng.integers(0, fp.h_gcn.shape[1]))
            plus = fp.h_gcn.data.copy()
            plus[row, col] += eps
            minus = fp.h_gcn.data.copy()
            minus[row, col] -= eps
            assert mask_path_loss(plus).item() == mask_path_loss(minus).item()


def test_determinism():
    corpus = make_synthetic_corpus(12, seed=71)
    dev = make_synthetic_corpus(6, seed=72)
    config = TrainConfig(d_w=8, d_h=8, gcn_layers=2, heads=2, ffn_width=16,
                         max_epochs=4, batch_size=4, seed=8)
    first = train(config, corpus, dev_samples=dev)
    second = train(config, corpus, dev_samples=dev)
    assert len(first.log) == len(second.log)
    for a, b in zip(first.log, second.log):
        assert abs(a.train_loss - b.train_loss) <= 1e-10
    for sample in dev:
        pa = first.model.predict(sample)
        pb = second.model.predict(sample)
        assert pa.predicted_label == pb.predicted_label
        assert np.array_equal(pa.prob, pb.prob)


def test_layer_sweep_harness(tmp_path):
    corpus = make_synthetic_corpus(9, seed=81)
    config = TrainConfig(d_w=8, d_h=8, gcn_layers=1, heads=2, ffn_width=16,
                         max_epochs=1, batch_size=8, seed=9)
    scores = layer_sweep(config, (1, 2, 3, 4), corpus, corpus, dev_samples=corpus)
    path = tmp_path / "sweep.tsv"
    write_scores(path, "gcn_layers", scores)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "gcn_layers\tacc\tmacro_f1"
    assert len(lines) == 5
    for line, k in zip(lines[1:], (1, 2, 3, 4)):
        fields = line.split("\t")
        assert int(fields[0]) == k
        assert math.isfinite(float(fields[1])) and math.isfinite(float(fields[2]))


FULL_DATA_DIR = os.environ.get("SENTIGRAPH_FULL_DATA_DIR")


@pytest.mark.skipif(not FULL_DATA_DIR,
                    reason="extended target: set SENTIGRAPH_FULL_DATA_DIR to a directory "
                           "with rest14_train.jsonl, rest14_test.jsonl, glove.300d.txt")
def test_full_scale_reference_extended():
    # hours-scale optional check against the published reference scores
    from sentigraph.corpus import load_dataset, load_pretrained_embeddings
    from sentigraph.training import evaluate, split_dev

    train_samples = load_dataset(os.path.join(FULL_DATA_DIR, "rest14_train.jsonl"))
    test_samples = load_dataset(os.path.join(FULL_DATA_DIR, "rest14_test.jsonl"))
    config = TrainConfig(max_epochs=30)
    vocab = build_vocab(train_samples, min_freq=config.min_freq)
    pretrained = load_pretrained_embeddings(
        os.path.join(FULL_DATA_DIR, "glove.300d.txt"), vocab, config.d_w)
    train_split, dev_split = split_dev(train_samples, config.dev_fraction, config.seed)
    result = train(config, train_split, dev_split, pretrained=pretrained, vocab=vocab)
    report = evaluate(result.restore_best(), test_samples)
    assert abs(report.acc * 100 - 81.70) <= 1.5
    assert abs(report.macro_f1 * 100 - 73.63) <= 2.0
