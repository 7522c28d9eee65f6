import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigraph import autodiff as ad
from sentigraph import bigcn, head
from sentigraph.config import TrainConfig
from sentigraph.corpus import EmbeddingTable, build_vocab
from sentigraph.model import AspectSentimentModel, gradient_check_suite
from sentigraph.synthetic import make_synthetic_corpus, random_tree_sample
from sentigraph.syntax import build_adjacency, collect_sdi_stats
from sentigraph.training import ABLATION_VARIANTS, apply_variant

from per_sample_reference import reference_loss, reference_probabilities

CONFIG = TrainConfig(d_w=8, d_h=8, gcn_layers=2, heads=2, ffn_width=16, seed=2)


@pytest.fixture(scope="module")
def corpus():
    return make_synthetic_corpus(10, seed=21)


@pytest.fixture(scope="module")
def fitted(corpus):
    vocab = build_vocab(corpus)
    sdi = collect_sdi_stats(corpus)
    return AspectSentimentModel(CONFIG, vocab, sdi=sdi)


class TestForwardPass:
    def test_shapes_and_finiteness(self, fitted, corpus):
        sample = corpus[0]
        n = sample.n
        fp = fitted.forward([sample])
        assert fp.embedded.shape == (n, 8)
        assert fp.h_lstm.shape == (n, 16)
        assert fp.z_out.shape == (n, 8)
        assert fp.h_gcn.shape == (n, 16)
        assert fp.alpha.shape == (n,)
        assert fp.pooled.shape == (1, 16)
        assert fp.res_out.shape == (1, 16)
        assert fp.prob.shape == (1, 3)
        assert head.predictions(fp.prob.data)[0].prob.shape == (3,)
        for t in (fp.h_lstm, fp.z_out, fp.h_gcn, fp.res_out):
            assert np.all(np.isfinite(t.data))

    def test_mask_rows_zero_outside_span(self, fitted, corpus):
        for sample in corpus:
            fp = fitted.forward([sample])
            lo, hi = sample.aspect_start, sample.aspect_start + sample.aspect_len
            outside = [i for i in range(sample.n) if not lo <= i < hi]
            assert np.array_equal(fp.h_mask.data[outside], np.zeros((len(outside), 16)))

    def test_weighted_adjacency_matches_builder(self, fitted, corpus):
        sample = corpus[1]
        adjacency, _ = fitted.adjacency(sample)
        assert np.array_equal(np.asarray(adjacency),
                              np.asarray(build_adjacency(sample, fitted.sdi, Counter())[0]))

    def test_prediction_probabilities_normalized(self, fitted, corpus):
        for sample in corpus:
            prob = fitted.predict(sample).prob
            assert prob.sum() == pytest.approx(1.0, abs=1e-12)

    def test_same_config_reinitializes_identically(self, corpus):
        vocab = build_vocab(corpus)
        sdi = collect_sdi_stats(corpus)
        a = AspectSentimentModel(CONFIG, vocab, sdi=sdi)
        b = AspectSentimentModel(CONFIG, vocab, sdi=sdi)
        for name in a.parameters.names():
            assert np.array_equal(a.parameters[name].data, b.parameters[name].data)


MIXED_LENGTHS = (9, 1, 40, 2)


def mixed_batch_model(variant, attention_states):
    """A model with perturbed parameters and a batch of very different sentence lengths."""
    rng = np.random.default_rng(31)
    batch = [random_tree_sample(rng, n=n) for n in MIXED_LENGTHS]
    config = dataclasses.replace(apply_variant(CONFIG, variant),
                                 attention_states=attention_states, lambda_l2=1e-3)
    model = AspectSentimentModel(config, build_vocab(batch), sdi=collect_sdi_stats(batch))
    for t in model.parameters.tensors():
        t.data = t.data + rng.normal(scale=0.2, size=t.shape)
    return model, batch


class TestPackedBatch:
    @pytest.mark.parametrize("attention_states", ["lstm", "gcn"])
    @pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS))
    def test_matches_per_sample_reference(self, variant, attention_states):
        model, batch = mixed_batch_model(variant, attention_states)
        params = model.parameters

        params.zero_grads()
        fp = model.forward(batch)
        ad.backward(head.compute_loss(fp.prob, [s.label for s in batch], params,
                                      model.config.lambda_l2))
        packed_grads = {name: t.grad.copy() for name, t in params.items()}

        params.zero_grads()
        reference = np.array([reference_probabilities(model, s).data for s in batch])
        ad.backward(reference_loss(model, batch))

        assert np.max(np.abs(fp.prob.data - reference)) < 1e-10
        for name, t in params.items():
            assert np.max(np.abs(packed_grads[name] - t.grad)) < 1e-10, name

    def test_probabilities_independent_of_batch_position(self):
        model, batch = mixed_batch_model("full", "lstm")
        alone = [model.predict(s).prob for s in batch]
        for shift in range(len(batch)):
            order = [(i + shift) % len(batch) for i in range(len(batch))]
            fp = model.forward([batch[i] for i in order])
            for row, i in enumerate(order):
                assert np.max(np.abs(fp.prob.data[row] - alone[i])) < 1e-12
        # a repeated sample also gets its own row
        fp = model.forward([batch[1], batch[1], batch[3]])
        assert np.max(np.abs(fp.prob.data[:2] - alone[1])) < 1e-12

    def test_predict_all_chunks_by_batch_size(self, monkeypatch):
        model, batch = mixed_batch_model("full", "lstm")
        model.config = dataclasses.replace(model.config, batch_size=3)
        chunks = []
        forward = model.forward
        monkeypatch.setattr(model, "forward",
                            lambda b: chunks.append([s.n for s in b]) or forward(b))
        predictions = model.predict_all(batch)
        assert chunks == [[1, 2, 9], [40]]  # sorted by length, then chunked
        for sample, prediction in zip(batch, predictions):  # back in input order
            assert np.max(np.abs(prediction.prob - model.predict(sample).prob)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_samples=st.integers(1, 3),
           variant=st.sampled_from(sorted(ABLATION_VARIANTS)),
           attention_states=st.sampled_from(["lstm", "gcn"]), n_layers=st.integers(1, 3))
    def test_pruned_graph_rows_match_the_all_rows_path(self, seed, n_samples, variant,
                                                       attention_states, n_layers):
        rng = np.random.default_rng(seed)
        # uniform lengths: drawn by hypothesis they would cluster at the small end
        batch = [random_tree_sample(rng, n=int(n)) for n in rng.integers(1, 41, n_samples)]
        config = dataclasses.replace(apply_variant(CONFIG, variant), gcn_layers=n_layers,
                                     attention_states=attention_states, lambda_l2=1e-3)
        # statistics from a wider corpus, so that length-1 batches have some
        sdi = collect_sdi_stats(batch + [random_tree_sample(rng, n=8)])
        model = AspectSentimentModel(config, build_vocab(batch), sdi=sdi)
        for t in model.parameters.tensors():
            t.data = t.data + rng.normal(scale=0.2, size=t.shape)

        def run():
            model.parameters.zero_grads()
            fp = model.forward(batch)
            ad.backward(head.compute_loss(fp.prob, [s.label for s in batch], model.parameters,
                                          config.lambda_l2))
            return fp, {name: t.grad.copy() for name, t in model.parameters.items()}

        pruned, pruned_grads = run()
        stack = bigcn.bigcn_stack

        def all_rows(h0, adjacency, degrees, layers, rows=None):
            # every row computed, then the rows outside ``rows`` zeroed by a mask node
            out = stack(h0, adjacency, degrees, layers)
            return out if rows is None else ad.scale_rows(out, ad.Tensor(rows))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bigcn, "bigcn_stack", all_rows)
            full, full_grads = run()

        if attention_states == "lstm":  # only the aspect rows are computed
            rows = head.aspect_rows([(s.aspect_start, s.aspect_len) for s in batch],
                                    pruned.lengths, pruned.h_gcn.shape[0])
            assert not pruned.h_gcn.data[~rows].any()
        assert np.max(np.abs(pruned.prob.data - full.prob.data)) <= 1e-12
        for name, want in full_grads.items():
            assert np.max(np.abs(pruned_grads[name] - want)) <= 1e-12 * np.max(np.abs(want)), name

    def test_empty_batch_rejected(self, fitted):
        with pytest.raises(ValueError, match="at least one"):
            fitted.forward([])


class TestConstruction:
    def test_missing_statistics_rejected(self, corpus):
        with pytest.raises(ValueError, match="statistics"):
            AspectSentimentModel(CONFIG, build_vocab(corpus), sdi=None)

    def test_embedding_shape_mismatch_rejected(self, corpus):
        vocab = build_vocab(corpus)
        sdi = collect_sdi_stats(corpus)
        bad = EmbeddingTable(vectors=np.zeros((3, 8)))
        with pytest.raises(ValueError, match="embedding table"):
            AspectSentimentModel(CONFIG, vocab, sdi=sdi, embeddings=bad)

    def test_unidirectional_config_skips_transpose_path(self, corpus, transpose_calls):
        vocab = build_vocab(corpus)
        config = dataclasses.replace(CONFIG, use_bidirectional_gcn=False)
        model = AspectSentimentModel(config, vocab, sdi=collect_sdi_stats(corpus))
        for sample in corpus[:3]:
            model.predict(sample)
        assert len(transpose_calls) == 0

    def test_gcn_attention_states_variant(self, corpus):
        vocab = build_vocab(corpus)
        sdi = collect_sdi_stats(corpus)
        config = dataclasses.replace(CONFIG, attention_states="gcn")
        model = AspectSentimentModel(config, vocab, sdi=sdi)
        prob = model.predict(corpus[0]).prob
        assert prob.sum() == pytest.approx(1.0, abs=1e-12)


def test_gradient_suite_smoke():
    # two cheap entries; the full suite is an acceptance gate
    results = dict((name, report) for name, report in
                   gradient_check_suite(seed=5, d=4, n_tokens=4, heads=2)
                   if name in ("matmul", "softmax"))
    for report in results.values():
        assert report.max_rel_error < 1e-6


class TestTapeFreeInference:
    def test_predictions_record_no_tape_and_match_the_training_forward(self, monkeypatch):
        model, batch = mixed_batch_model("full", "lstm")
        model.config = dataclasses.replace(model.config, batch_size=len(batch))
        grads = {name: t.grad for name, t in model.parameters.items()}
        by_length = sorted(batch, key=lambda s: s.n)
        want_all = model.forward(by_length).prob.data
        want_one = [model.forward([s]).prob.data[0] for s in batch]
        probs, forward = [], model.forward  # every prob the inference forwards return

        def recording(b):
            fp = forward(b)
            probs.append(fp.prob)
            return fp

        monkeypatch.setattr(model, "forward", recording)
        predictions = model.predict_all(batch)
        singles = [model.predict(s) for s in batch]

        assert len(probs) == 1 + len(batch)
        for prob in probs:
            assert prob._parents == () and not prob.requires_grad
        for prediction, sample in zip(predictions, batch):
            assert prediction.prob.tobytes() == want_all[by_length.index(sample)].tobytes()
        for prediction, want in zip(singles, want_one):
            assert prediction.prob.tobytes() == want.tobytes()
        for name, t in model.parameters.items():
            assert t.requires_grad and t.grad is grads[name], name

    @pytest.mark.parametrize("entry", ["predict", "predict_all"])
    def test_parameters_restored_after_a_forward_raises(self, entry):
        model, batch = mixed_batch_model("full", "lstm")
        grads = {name: t.grad for name, t in model.parameters.items()}
        model.parameters["classifier.w"].data[0, 0] = np.nan
        with pytest.raises(ad.NonFiniteError):
            getattr(model, entry)(batch[0] if entry == "predict" else batch)
        for name, t in model.parameters.items():
            assert t.requires_grad and t.grad is grads[name], name
