import dataclasses
import math
import os
import tracemalloc
import zipfile
from collections import Counter
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sentigraph import autodiff as ad
from sentigraph import training
from sentigraph.autodiff import ParameterStore
from sentigraph.config import (
    TrainConfig,
    config_to_text,
    load_config,
    parse_config_text,
)
from sentigraph.corpus import (
    LABELS,
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Vocab,
    build_vocab,
    load_dataset,
    save_dataset,
)
from sentigraph.model import AspectSentimentModel
from sentigraph.synthetic import make_synthetic_corpus
from sentigraph.syntax import SdiTable, build_adjacency, collect_sdi_stats
from sentigraph.training import (
    Adam,
    EpochStats,
    apply_variant,
    confusion_matrix,
    evaluate,
    layer_sweep,
    load_checkpoint,
    metrics_from_confusion,
    run_ablation,
    save_checkpoint,
    split_dev,
    train,
    write_epoch_log,
    write_scores,
)

TINY = TrainConfig(d_w=8, d_h=8, gcn_layers=1, heads=2, ffn_width=16,
                   max_epochs=3, batch_size=8, seed=5)


def tiny_corpus(n=12, seed=0):
    return make_synthetic_corpus(n, seed=seed)


def reference_adam_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The out-of-place Adam update, kept as the reference for the blocked in-place one."""
    for name in params:
        g = grads[name]
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1 ** t)
        v_hat = v[name] / (1 - b2 ** t)
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdam:
    def test_blocked_in_place_step_is_bit_identical_to_reference(self):
        rng = np.random.default_rng(11)
        shapes = {"multi_block": (2 * Adam.block_size + 1234,),  # two blocks and a ragged tail
                  "matrix": (301, 437), "single": (1,), "no_grad": (5, 7)}
        store = ParameterStore()
        for name, shape in shapes.items():
            store.add(name, rng.normal(size=shape))
        optimizer = Adam(store, learning_rate=3e-3)
        ref = store.state_dict()
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        arrays = {n: t.data for n, t in store.items()}
        for t in range(1, 4):
            store.zero_grads()
            grads = {n: rng.normal(scale=10.0 ** -t, size=s) for n, s in shapes.items()}
            grads["no_grad"][:] = 0.0
            for name, tensor in store.items():
                tensor.grad += grads[name]
            optimizer.step()
            reference_adam_step(ref, grads, m, v, t, lr=3e-3)
            for name, tensor in store.items():
                assert tensor.data is arrays[name]  # updated in place
                assert tensor.data.tobytes() == ref[name].tobytes(), name
                assert optimizer._m[name].tobytes() == m[name].tobytes(), name
                assert optimizer._v[name].tobytes() == v[name].tobytes(), name

    def test_step_allocates_nothing_parameter_sized(self):
        store = ParameterStore()
        p = store.add("p", np.random.default_rng(3).normal(size=1_000_000))
        store.add("small", np.ones(3))
        optimizer = Adam(store, learning_rate=1e-3)
        p.grad += 1e-2
        tracemalloc.start()
        try:
            optimizer.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # bytes; one full-size temporary alone would be 8 MB

    def test_scratch_fits_the_largest_parameter(self):
        store = ParameterStore()
        store.add("p", np.ones((3, 4)))
        optimizer = Adam(store, learning_rate=1e-3)
        assert [buf.size for buf in optimizer._scratch] == [12, 12]

    def test_step_updates_a_rebound_non_contiguous_parameter(self):
        store = ParameterStore()
        p = store.add("p", np.zeros((3, 4)))
        optimizer = Adam(store, learning_rate=0.1)
        p.data = np.ones((4, 3)).T  # Fortran order: its flat view would be a copy
        p.grad += 1.0
        optimizer.step()
        assert np.array_equal(p.data, np.full((3, 4), 1.0 - 0.1 / (1.0 + 1e-8)))

    def test_first_step_closed_form(self):
        # with constant gradient g, the bias-corrected first update is lr * g / (|g| + eps)
        store = ParameterStore()
        p = store.add("p", np.array([3.0]))
        optimizer = Adam(store, learning_rate=0.1)
        store.zero_grads()
        ad.backward(ad.reduce_sum(p))
        optimizer.step()
        expected = 3.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert p.data[0] == pytest.approx(expected, abs=1e-15)

    def test_converges_on_quadratic(self):
        store = ParameterStore()
        p = store.add("p", np.array([5.0]))
        optimizer = Adam(store, learning_rate=0.05)
        for _ in range(600):
            store.zero_grads()
            shifted = ad.add(p, ad.Tensor(np.array([-2.0])))
            ad.backward(ad.reduce_sum(ad.mul(shifted, shifted)))
            optimizer.step()
        assert p.data[0] == pytest.approx(2.0, abs=1e-3)


class _ReprFails(float):
    def __repr__(self):
        raise OSError("simulated failure half-way through the write")


def test_failed_epoch_log_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "epochs.tsv"
    write_epoch_log(path, [EpochStats(1, 0.9, 0.5, 0.4)])
    previous = path.read_text()
    with pytest.raises(OSError, match="half-way"):
        write_epoch_log(path, [EpochStats(1, 0.9, 0.5, 0.4),
                               EpochStats(2, _ReprFails(0.8), 0.6, 0.5)])
    assert path.read_text() == previous
    assert os.listdir(tmp_path) == ["epochs.tsv"]


class TestMetrics:
    def test_perfect_predictions(self):
        gold = [0, 1, 2, 0, 1, 2]
        report = metrics_from_confusion(confusion_matrix(gold, gold))
        assert report.acc == 1.0
        assert report.macro_f1 == 1.0

    def test_constant_prediction_on_balanced_data(self):
        gold = [0, 1, 2] * 10
        predicted = [0] * 30
        report = metrics_from_confusion(confusion_matrix(gold, predicted))
        assert report.acc == pytest.approx(1 / 3, abs=1e-12)
        assert report.f1[0] == pytest.approx(0.5, abs=1e-12)
        assert report.f1[1] == 0.0 and report.f1[2] == 0.0
        assert report.macro_f1 == pytest.approx(1 / 6, abs=1e-12)

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(17)
        gold = rng.integers(0, 3, size=1000).tolist()
        predicted = rng.integers(0, 3, size=1000).tolist()
        report = metrics_from_confusion(confusion_matrix(gold, predicted))

        # independent recount with plain loops
        count = [[0] * 3 for _ in range(3)]
        for g, p in zip(gold, predicted):
            count[g][p] += 1
        correct = sum(count[c][c] for c in range(3))
        assert abs(report.acc - correct / 1000) <= 1e-12
        f1s = []
        for c in range(3):
            tp = count[c][c]
            fp = sum(count[g][c] for g in range(3)) - tp
            fn = sum(count[c][p] for p in range(3)) - tp
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert abs(report.precision[c] - precision) <= 1e-12
            assert abs(report.recall[c] - recall) <= 1e-12
            assert abs(report.f1[c] - f1) <= 1e-12
            f1s.append(f1)
        assert abs(report.macro_f1 - sum(f1s) / 3) <= 1e-12

    def test_confusion_sums(self):
        rng = np.random.default_rng(3)
        gold = rng.integers(0, 3, size=200).tolist()
        predicted = rng.integers(0, 3, size=200).tolist()
        matrix = confusion_matrix(gold, predicted)
        assert matrix.sum() == 200
        for c in range(3):
            assert matrix[c].sum() == gold.count(c)
            assert matrix[:, c].sum() == predicted.count(c)

    def test_report_serializes(self):
        report = metrics_from_confusion(np.eye(3) * 5)
        d = report.as_dict()
        assert d["acc"] == 1.0
        assert d["labels"] == list(LABELS)


class TestTrain:
    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(TINY, [])

    def test_a_split_that_holds_out_every_sample_is_rejected(self):
        # the default dev fraction holds out the one sample, with or without statistics
        corpus = tiny_corpus(1, seed=4)
        for config, vocab in ((dataclasses.replace(TINY, use_sdi_weights=False),
                               build_vocab(corpus)), (TINY, None)):
            with pytest.raises(ValueError, match="^cannot train on an empty sample list$"):
                train(config, corpus, vocab=vocab)

    def test_callers_embedding_table_is_unchanged_by_training(self):
        corpus = tiny_corpus(8, seed=23)
        vocab = build_vocab(corpus)
        rng = np.random.default_rng(3)
        pretrained = {i: rng.uniform(-0.25, 0.25, TINY.d_w) for i in range(len(vocab))}
        before = np.array([pretrained[i] for i in range(len(vocab))])
        result = train(dataclasses.replace(TINY, max_epochs=1), corpus, dev_samples=corpus,
                       pretrained=pretrained, vocab=vocab)
        assert np.array_equal([pretrained[i] for i in range(len(vocab))], before)
        before[PAD_ID] = 0.0
        assert not np.array_equal(result.model.embedding.data, before)  # training moved its copy

    def test_loss_decreases_on_single_sample(self):
        corpus = tiny_corpus(1, seed=4)
        config = dataclasses.replace(TINY, max_epochs=10, batch_size=1)
        result = train(config, corpus, dev_samples=corpus)
        losses = [e.train_loss for e in result.log]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_same_seed_reproduces_losses_and_predictions(self):
        corpus = tiny_corpus(10, seed=6)
        dev = tiny_corpus(6, seed=7)
        first = train(TINY, corpus, dev_samples=dev)
        second = train(TINY, corpus, dev_samples=dev)
        for a, b in zip(first.log, second.log):
            assert abs(a.train_loss - b.train_loss) < 1e-10
        preds_a = [first.model.predict(s).predicted_label for s in dev]
        preds_b = [second.model.predict(s).predicted_label for s in dev]
        assert preds_a == preds_b

    def test_large_penalty_shrinks_parameter_norm(self):
        corpus = tiny_corpus(8, seed=8)
        config = dataclasses.replace(TINY, lambda_l2=10.0, max_epochs=4)
        model_before = AspectSentimentModel(config, build_vocab(corpus),
                                            sdi=collect_sdi_stats(corpus))
        norm_before = ad.sum_squares(model_before.parameters.tensors()).item()
        result = train(config, corpus, dev_samples=corpus)
        assert ad.sum_squares(result.model.parameters.tensors()).item() < norm_before

    def test_best_epoch_tracks_dev_accuracy(self):
        corpus = tiny_corpus(12, seed=9)
        result = train(TINY, corpus, dev_samples=corpus)
        accs = [e.dev_acc for e in result.log]
        assert result.best_dev_acc == max(accs)
        assert result.best_epoch == accs.index(max(accs)) + 1  # earliest tie wins

    def test_one_packed_forward_per_batch(self, monkeypatch):
        sizes = []
        forward = AspectSentimentModel.forward
        monkeypatch.setattr(AspectSentimentModel, "forward",
                            lambda self, batch: sizes.append(len(batch)) or forward(self, batch))
        config = dataclasses.replace(TINY, max_epochs=1, batch_size=3)
        train(config, tiny_corpus(7), dev_samples=tiny_corpus(4, seed=1))
        assert sizes == [3, 3, 1, 4]  # three training batches, then one dev chunk

    def test_best_state_copied_only_before_a_step_overwrites_it(self, monkeypatch):
        copies = []
        state_dict = ParameterStore.state_dict
        monkeypatch.setattr(ParameterStore, "state_dict",
                            lambda self: copies.append(1) or state_dict(self))

        def run(dev_accs):
            accs = iter(dev_accs)
            monkeypatch.setattr(training, "evaluate",
                                lambda model, samples: SimpleNamespace(acc=next(accs),
                                                                       macro_f1=0.0))
            copies.clear()
            return train(dataclasses.replace(TINY, max_epochs=len(dev_accs)), tiny_corpus(6),
                         dev_samples=tiny_corpus(3, seed=1))

        # the last epoch is the best: no copy, the model's own arrays
        for accs, n_copies in (([0.5], 0), ([0.5, 0.7], 1)):
            result = run(accs)
            assert (result.best_epoch, len(copies)) == (len(accs), n_copies)
            assert all(result.best_state[name] is t.data
                       for name, t in result.model.parameters.items())
        last_best = {name: a.copy() for name, a in result.best_state.items()}

        # epochs 1 and 2 improve, each before another step: two copies, epoch 2's values
        result = run([0.5, 0.7, 0.6])
        assert (result.best_epoch, len(copies)) == (2, 2)
        for name, t in result.model.parameters.items():
            assert np.array_equal(result.best_state[name], last_best[name])
            assert not np.array_equal(t.data, last_best[name])

    def test_holdout_split_is_seeded_and_disjoint(self):
        corpus = tiny_corpus(20, seed=10)
        train_a, dev_a = split_dev(corpus, 0.1, seed=3)
        train_b, dev_b = split_dev(corpus, 0.1, seed=3)
        assert dev_a == dev_b and train_a == train_b
        assert len(dev_a) == 2 and len(train_a) == 18

    def test_epoch_log_roundtrip(self, tmp_path):
        corpus = tiny_corpus(6, seed=11)
        result = train(dataclasses.replace(TINY, max_epochs=2), corpus,
                       dev_samples=corpus)
        path = tmp_path / "epochs.tsv"
        write_epoch_log(path, result.log)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch\ttrain_loss\tdev_acc\tdev_f1"
        assert len(lines) == 3


class TestAblation:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation variant"):
            apply_variant(TINY, "mystery")

    def test_variant_flags(self):
        assert not apply_variant(TINY, "no_dependency").use_dependency
        assert not apply_variant(TINY, "no_edge_weights").use_sdi_weights
        assert not apply_variant(TINY, "no_bidirectional").use_bidirectional_gcn
        assert apply_variant(TINY, "full") == TINY

    def test_no_edge_weights_consumes_binary_adjacency(self):
        corpus = tiny_corpus(6, seed=12)
        config = apply_variant(TINY, "no_edge_weights")
        model = AspectSentimentModel(config, build_vocab(corpus))
        for sample in corpus:
            adjacency = np.asarray(model.adjacency(sample)[0])
            assert set(np.unique(adjacency)) <= {0.0, 1.0}
            assert np.array_equal(adjacency,
                                  np.asarray(build_adjacency(sample, None, Counter())[0]))

    def test_no_dependency_consumes_identity(self):
        corpus = tiny_corpus(6, seed=13)
        config = apply_variant(TINY, "no_dependency")
        model = AspectSentimentModel(config, build_vocab(corpus))
        for sample in corpus:
            adjacency, deg = model.adjacency(sample)
            assert np.array_equal(np.asarray(adjacency), np.eye(sample.n))
            assert np.array_equal(deg, np.zeros(sample.n))
        # a batch: the packed self-loops, row-major
        adjacency, deg = model.adjacency(corpus)
        n = sum(s.n for s in corpus)
        assert adjacency.shape == (n, n)
        for entries in (adjacency.row, adjacency.col):
            assert np.array_equal(entries, np.arange(n))
        assert np.array_equal(adjacency.value, np.ones(n))
        assert np.array_equal(deg, np.zeros(n))

    def test_all_variants_produce_reports(self):
        corpus = tiny_corpus(9, seed=14)
        config = dataclasses.replace(TINY, max_epochs=1)
        results = run_ablation(config, corpus, corpus, dev_samples=corpus)
        assert set(results) == {"full", "no_dependency", "no_edge_weights",
                                "no_bidirectional"}
        for report in results.values():
            assert 0.0 <= report.acc <= 1.0
            assert math.isfinite(report.macro_f1)


class TestLayerSweep:
    def test_single_k_gives_single_row(self):
        corpus = tiny_corpus(6, seed=15)
        config = dataclasses.replace(TINY, max_epochs=1, layer_sweep_range=(1,))
        scores = layer_sweep(config, corpus, corpus, dev_samples=corpus)
        assert list(scores) == [1]

    def test_three_k_values_all_finite(self, tmp_path):
        corpus = tiny_corpus(6, seed=16)
        config = dataclasses.replace(TINY, max_epochs=1, layer_sweep_range=(1, 2, 3))
        scores = layer_sweep(config, corpus, corpus, dev_samples=corpus)
        assert list(scores) == [1, 2, 3]
        assert all(math.isfinite(r.acc) and math.isfinite(r.macro_f1) for r in scores.values())
        path = tmp_path / "sweep.tsv"
        write_scores(path, "gcn_layers", scores)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "gcn_layers\tacc\tmacro_f1"
        assert len(lines) == 4

    def test_empty_range_fails_before_training(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained a model")

        monkeypatch.setattr(training, "train", no_training)
        config = dataclasses.replace(TINY, layer_sweep_range=())
        with pytest.raises(ValueError, match="non-empty range"):
            layer_sweep(config, tiny_corpus(3, seed=15), [], dev_samples=[])


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        corpus = tiny_corpus(8, seed=18)
        result = train(dataclasses.replace(TINY, max_epochs=2), corpus,
                       dev_samples=corpus)
        save_checkpoint(tmp_path / "ckpt.npz", result.model, state=result.best_state)
        restored = load_checkpoint(tmp_path / "ckpt.npz")
        result.restore_best()
        for sample in corpus:
            a = result.model.predict(sample)
            b = restored.predict(sample)
            assert np.array_equal(a.prob, b.prob)
            assert a.predicted_label == b.predicted_label

    def test_dataset_with_reserved_tokens_trains_and_reloads(self, tmp_path):
        # a corpus's own <pad> and <unk> take the reserved ids instead of new entries
        corpus = [dataclasses.replace(s, tokens=("<pad>", "<unk>") + s.tokens[2:])
                  for s in tiny_corpus(8, seed=20) if s.n >= 2]
        save_dataset(tmp_path / "data.jsonl", corpus)
        corpus = load_dataset(tmp_path / "data.jsonl")
        result = train(dataclasses.replace(TINY, max_epochs=1), corpus, dev_samples=corpus)
        vocab = result.model.vocab
        assert (vocab.id("<pad>"), vocab.id("<unk>")) == (PAD_ID, UNK_ID)
        assert vocab.id_to_token.count("<pad>") == vocab.id_to_token.count("<unk>") == 1
        save_checkpoint(tmp_path / "ckpt.npz", result.model)
        restored = load_checkpoint(tmp_path / "ckpt.npz")
        for a, b in zip(result.model.predict_all(corpus), restored.predict_all(corpus)):
            assert np.array_equal(a.prob, b.prob)

    def test_checkpoint_contains_statistics(self, tmp_path):
        corpus = tiny_corpus(8, seed=19)
        result = train(dataclasses.replace(TINY, max_epochs=1), corpus,
                       dev_samples=corpus)
        save_checkpoint(tmp_path / "ckpt.npz", result.model)
        assert os.listdir(tmp_path) == ["ckpt.npz"]
        restored = load_checkpoint(tmp_path / "ckpt.npz")
        assert restored.sdi == result.model.sdi is not None
        assert restored.vocab.id_to_token == result.model.vocab.id_to_token
        assert restored.config == result.model.config

    def test_interrupted_save_keeps_the_previous_checkpoint_and_leaves_no_temp(self, tmp_path):
        corpus = tiny_corpus(8, seed=21)
        first = train(dataclasses.replace(TINY, max_epochs=1), corpus, dev_samples=corpus)
        path = tmp_path / "checkpoint.npz"
        save_checkpoint(path, first.model)
        previous = path.read_bytes()

        class FailsToConvert:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("simulated failure half-way through the save")

        second = train(dataclasses.replace(TINY, max_epochs=1, seed=6), corpus,
                       dev_samples=corpus)
        state = second.model.parameters.state_dict()
        state["classifier.b"] = FailsToConvert()  # after every other member is written
        with pytest.raises(RuntimeError, match="half-way"):
            save_checkpoint(path, second.model, state=state)
        assert path.read_bytes() == previous
        assert os.listdir(tmp_path) == ["checkpoint.npz"]
        restored = load_checkpoint(path)
        for name, t in first.model.parameters.items():
            assert restored.parameters[name].data.tobytes() == t.data.tobytes()

    def test_every_flipped_byte_fails_or_loads_what_was_saved(self, tmp_path):
        corpus = tiny_corpus(6, seed=22)
        config = TrainConfig(d_w=4, d_h=2, gcn_layers=1, heads=2, ffn_width=4, max_epochs=1)
        model = train(config, corpus, dev_samples=corpus).model
        saved = tmp_path / "saved.npz"
        save_checkpoint(saved, model)
        raw = saved.read_bytes()
        # every byte of the central directory and of the first member's zip and .npy
        # headers, and every 61st byte elsewhere
        central = int.from_bytes(raw[-6:-2], "little")  # the end record's directory offset
        name_len, extra_len = (int.from_bytes(raw[i:i + 2], "little") for i in (26, 28))
        with zipfile.ZipFile(saved) as archive, archive.open(archive.infolist()[0]) as member:
            np.lib.format.read_magic(member)
            np.lib.format.read_array_header_1_0(member)
            first_data = 30 + name_len + extra_len + member.tell()  # where its values start
        positions = sorted(set(range(first_data)) | set(range(central, len(raw)))
                           | set(range(0, len(raw), 61)))
        masks = np.random.default_rng(0).integers(1, 256, size=len(positions))

        def content(m):
            return (m.config, m.sdi, m.vocab.id_to_token,
                    [(name, t.data.tobytes()) for name, t in m.parameters.items()])

        expected = content(model)
        path = tmp_path / "flipped.npz"
        loaded = 0
        for pos, mask in zip(positions, masks):
            flipped = bytearray(raw)
            flipped[pos] ^= int(mask)
            path.write_bytes(bytes(flipped))
            try:
                restored = load_checkpoint(path)
            except ValueError as e:
                assert str(e).startswith(f"{path}: ") and "\n" not in str(e)
                continue
            loaded += 1
            assert content(restored) == expected, pos
        assert 0 < loaded < len(positions)


def _config_fields():
    """A strategy per TrainConfig field, over values that can pass validate()."""
    # in range of every float field half the time, any float (NaN included) otherwise
    number = st.floats(0.0, 1.0, exclude_max=True) | st.floats()
    return {
        "d_h": st.integers(1, 10**6), "gcn_layers": st.integers(1, 10**6),
        "ffn_width": st.integers(1, 10**6), "learning_rate": number,
        "batch_size": st.integers(1, 10**6), "max_epochs": st.integers(1, 10**6),
        "lambda_l2": number, "min_freq": st.integers(1, 10**6), "seed": st.integers(),
        "dev_fraction": number, "use_dependency": st.booleans(),
        "use_sdi_weights": st.booleans(), "use_bidirectional_gcn": st.booleans(),
        "attention_states": st.sampled_from(["lstm", "gcn"]),
        "count_root_edges": st.booleans(), "count_punct_edges": st.booleans(),
        "layer_sweep_range": st.lists(st.integers(), min_size=1, max_size=5).map(tuple),
    }


@st.composite
def train_configs(draw):
    # d_w must be even and a multiple of the head count
    heads = draw(st.integers(1, 12))
    d_w = math.lcm(2, heads) * draw(st.integers(1, 100))
    config = TrainConfig(d_w=d_w, heads=heads,
                         **{name: draw(s) for name, s in _config_fields().items()})
    try:
        config.validate()
    except ValueError:
        assume(False)
    return config


def test_config_strategy_sets_every_field():
    names = {f.name for f in dataclasses.fields(TrainConfig)}
    assert set(_config_fields()) | {"d_w", "heads"} == names


@settings(max_examples=200, deadline=None)
@given(config=train_configs())
def test_config_text_round_trips(config):
    assert parse_config_text(config_to_text(config)) == config


# any text, lone surrogates included, and the names a line-based file would trip on
_any_text = st.one_of(st.text(st.characters(exclude_categories=()), max_size=6),
                      st.sampled_from(["\t", "\0", "a\nb", "\r\n", "total_edges", "\ud800"]))
# -0.0, the smallest subnormal, both infinities and a NaN with a payload
_SPECIAL_VALUES = np.array([-0.0, 5e-324, math.inf, -math.inf,
                            np.frombuffer(b"\x01\0\0\0\0\0\xf8\x7f", np.float64)[0]])


@st.composite
def checkpoint_models(draw):
    """A model of any small config, any vocabulary and relation statistics, and any values."""
    heads = draw(st.integers(1, 3))
    config = dataclasses.replace(
        draw(train_configs()), heads=heads, d_w=math.lcm(2, heads) * draw(st.integers(1, 2)),
        d_h=draw(st.integers(1, 3)), gcn_layers=draw(st.integers(1, 2)),
        ffn_width=draw(st.integers(1, 4)))
    tokens = draw(st.lists(_any_text, unique=True, max_size=12))
    vocab = Vocab([PAD_TOKEN, UNK_TOKEN] + [t for t in tokens if t not in (PAD_TOKEN, UNK_TOKEN)])
    sdi = None
    if config.use_dependency and config.use_sdi_weights or draw(st.booleans()):
        ratios = draw(st.dictionaries(_any_text, st.floats(0, 1, exclude_min=True),
                                      min_size=1, max_size=6))
        sdi = SdiTable(MappingProxyType(ratios), draw(st.integers(1, 2**70)))
    model = AspectSentimentModel(config, vocab, sdi=sdi)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for i, t in enumerate(model.parameters.tensors()):  # every float64 bit pattern can occur
        values = np.frombuffer(rng.bytes(t.data.nbytes), np.float64)
        np.copyto(t.data, values.reshape(t.data.shape))
        t.data.flat[0] = _SPECIAL_VALUES[i % len(_SPECIAL_VALUES)]
    return model


@settings(max_examples=60, deadline=None)
@given(model=checkpoint_models())
def test_checkpoint_round_trips_any_parameters_config_vocabulary_and_relations(
        tmp_path_factory, model):
    path = tmp_path_factory.mktemp("checkpoint") / "checkpoint.npz"
    save_checkpoint(path, model)
    restored = load_checkpoint(path)
    assert restored.config == model.config
    assert restored.vocab.id_to_token == model.vocab.id_to_token
    assert restored.sdi == model.sdi
    if model.sdi is not None:
        assert list(restored.sdi.ratios.items()) == list(model.sdi.ratios.items())
    assert ([(name, t.data.tobytes()) for name, t in restored.parameters.items()]
            == [(name, t.data.tobytes()) for name, t in model.parameters.items()])


class TestConfigFile:
    def test_text_roundtrip(self, tmp_path):
        config = dataclasses.replace(TINY, learning_rate=0.0025,
                                     layer_sweep_range=(2, 5))
        path = tmp_path / "run.cfg"
        path.write_text(config_to_text(config), encoding="utf-8")
        assert load_config(path) == config

    def test_overrides_apply_over_base(self):
        base = TrainConfig()
        updated = parse_config_text("batch_size = 4\nuse_dependency = false\n", base=base)
        assert updated.batch_size == 4
        assert not updated.use_dependency
        assert updated.d_w == base.d_w

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            parse_config_text("mystery = 3\n")

    def test_bad_value_names_line_and_field(self):
        with pytest.raises(ValueError, match="config line 2: config field batch_size"):
            parse_config_text("seed = 3\nbatch_size = many\n")

    def test_validation_catches_bad_values(self):
        with pytest.raises(ValueError, match="divisible"):
            dataclasses.replace(TrainConfig(), d_w=10, heads=4).validate()
        with pytest.raises(ValueError, match="positive"):
            dataclasses.replace(TrainConfig(), gcn_layers=0).validate()
        for name in ("learning_rate", "lambda_l2"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    dataclasses.replace(TrainConfig(), **{name: value}).validate()
        with pytest.raises(ValueError, match="attention_states"):
            dataclasses.replace(TrainConfig(), attention_states="other").validate()
