import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentigraph import autodiff as ad
from sentigraph import bigcn, head
from sentigraph.config import TrainConfig
from sentigraph.corpus import PAD_ID, build_vocab, load_pretrained_embeddings
from sentigraph.model import (INFERENCE_CHUNK_ROWS, AspectSentimentModel,
                              gradient_check_suite, inference_chunks)
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
        for name, _ in a.parameters.items():
            assert np.array_equal(a.parameters[name].data, b.parameters[name].data)


MIXED_LENGTHS = (9, 1, 40, 2)


def mixed_batch_model(variant, attention_states, lengths=MIXED_LENGTHS):
    """A model with perturbed parameters and a batch of very different sentence lengths."""
    rng = np.random.default_rng(31)
    batch = [random_tree_sample(rng, n=n) for n in lengths]
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

    def test_predict_all_cuts_chunks_at_the_row_cap(self, monkeypatch):
        # sorted: 1 2 9 256 | 256 256 256 | 300 | 1100; 4 x 256 rows fit the cap, 5 do not
        model, batch = mixed_batch_model("full", "lstm",
                                         lengths=(256, 9, 1100, 256, 1, 300, 256, 2, 256))
        chunks = []
        forward = model.forward
        monkeypatch.setattr(model, "forward",
                            lambda b: chunks.append([s.n for s in b]) or forward(b))
        predictions = model.predict_all(batch)
        assert chunks == [[1, 2, 9, 256], [256, 256, 256], [300], [1100]]
        assert INFERENCE_CHUNK_ROWS < 1100  # the longest sentence runs alone
        for sample, prediction in zip(batch, predictions):  # back in input order
            assert np.max(np.abs(prediction.prob - model.predict(sample).prob)) < 1e-12

    def test_predict_all_of_no_samples_runs_no_forward(self, fitted, monkeypatch):
        monkeypatch.setattr(fitted, "forward", lambda b: pytest.fail("forward called"))
        assert fitted.predict_all([]) == []

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(1, 2000), max_size=300))
    @example(lengths=[256] * 5)  # four fill the cap exactly
    def test_inference_chunks_are_sorted_greedy_and_within_the_cap(self, lengths):
        chunks = inference_chunks(lengths)
        flat = [i for chunk in chunks for i in chunk]
        # every sample once, in the stable sort by length
        assert flat == sorted(range(len(lengths)), key=lengths.__getitem__)
        for chunk, following in zip(chunks, chunks[1:] + [None]):
            longest = lengths[chunk[-1]]
            assert len(chunk) == 1 or len(chunk) * longest <= INFERENCE_CHUNK_ROWS
            if following is not None:  # greedy: the next sample would break the cap
                assert (len(chunk) + 1) * lengths[following[0]] > INFERENCE_CHUNK_ROWS

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


class TestEmbeddingTable:
    """Uniform rows from the "oov" stream, pretrained rows copied over them, the pad row zero."""

    def table(self, corpus, tmp_path=None, lines=()):
        vocab = build_vocab(corpus)
        pretrained = None
        if tmp_path is not None:
            path = tmp_path / "vectors.txt"
            path.write_text("".join(f"{token} {' '.join(repr(float(v)) for v in values)}\n"
                                    for token, values in lines))
            pretrained = load_pretrained_embeddings(path, vocab, CONFIG.d_w)
        model = AspectSentimentModel(CONFIG, vocab, sdi=collect_sdi_stats(corpus),
                                     pretrained=pretrained)
        return vocab, model.embedding.data

    def test_pretrained_rows_land_bit_exactly_and_every_other_row_is_the_plain_one(
            self, corpus, tmp_path):
        rng = np.random.default_rng(4)
        the, was, other, again = (rng.normal(size=CONFIG.d_w) * 10.0 ** rng.integers(-300, 300)
                                  for _ in range(4))
        lines = [("the", the), ("notaword", other), ("was", was), ("the", again)]
        vocab, table = self.table(corpus, tmp_path, lines)
        _, plain = self.table(corpus)
        assert table[vocab.id("the")].tobytes() == again.tobytes()  # the last vector wins
        assert table[vocab.id("was")].tobytes() == was.tobytes()
        rest = [i for i in range(len(vocab)) if i not in (vocab.id("the"), vocab.id("was"))]
        assert table[rest].tobytes() == plain[rest].tobytes()

    def test_padding_row_is_zero_even_with_a_pad_vector(self, corpus, tmp_path):
        vocab, table = self.table(corpus, tmp_path, [("<pad>", np.ones(CONFIG.d_w)),
                                                     ("the", np.ones(CONFIG.d_w))])
        assert np.array_equal(table[PAD_ID], np.zeros(CONFIG.d_w))
        assert np.array_equal(table[vocab.id("the")], np.ones(CONFIG.d_w))

    def test_random_table_zero_pad_row(self, corpus):
        vocab, table = self.table(corpus)
        assert np.array_equal(table[PAD_ID], np.zeros(CONFIG.d_w))
        assert table.shape == (len(vocab), CONFIG.d_w)
        assert np.all(np.abs(table) <= 0.25)

    def test_oov_rows_bounded_and_reproducible(self, corpus, tmp_path):
        lines = [("the", np.full(CONFIG.d_w, 0.5))]
        vocab, first = self.table(corpus, tmp_path, lines)
        _, second = self.table(corpus, tmp_path, lines)
        assert np.all(np.abs(np.delete(first, vocab.id("the"), axis=0)) <= 0.25)
        assert np.array_equal(first, second)


def test_gradient_suite_smoke():
    # two cheap entries; the full suite is an acceptance gate
    results = dict((name, report) for name, report in
                   gradient_check_suite(seed=5, d=4, n_tokens=4)
                   if name in ("matmul", "softmax"))
    for report in results.values():
        assert report.max_rel_error < 1e-6


class TestTapeFreeInference:
    def test_predictions_record_no_tape_and_match_the_training_forward(self, monkeypatch):
        model, batch = mixed_batch_model("full", "lstm")
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
