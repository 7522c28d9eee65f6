import math
from collections import Counter

import numpy as np
import pytest

from sentigraph import autodiff as ad
from sentigraph import encoders, head
from sentigraph.autodiff import ParameterStore, Tensor
from sentigraph.corpus import UNK_ID, AspectSample, Vocab
from sentigraph.encoders import (
    bilstm_encode,
    embed_sequence,
    init_bilstm_params,
    init_transformer_params,
    positional_encoding,
    transformer_encode,
)

from per_sample_reference import reference_bilstm_encode, reference_transformer_encode


def packed_matches_per_sentence(encode_packed, encode_one, x, leaves, lengths, d_out):
    """Largest gap between a packed encoder and the per-sentence one, on output and grads."""
    weight = Tensor(np.random.default_rng(3).normal(size=(x.shape[0], d_out)))
    offsets = np.cumsum([0] + list(lengths))

    def value_and_grads(run):
        for t in leaves:
            t.zero_grad()
        out, loss = run()
        ad.backward(loss)
        return out, [t.grad.copy() for t in leaves]

    def packed():
        out = encode_packed(x, ad.segment_layout(lengths))
        return out.data, ad.reduce_sum(ad.mul(out, weight))

    def per_sentence():
        outs, loss = [], None
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            out = encode_one(ad.slice_axis(x, 0, lo, hi))
            part = ad.reduce_sum(ad.mul(out, Tensor(weight.data[lo:hi])))
            outs.append(out.data)
            loss = part if loss is None else ad.add(loss, part)
        return np.concatenate(outs), loss

    got, got_grads = value_and_grads(packed)
    want, want_grads = value_and_grads(per_sentence)
    return max([np.max(np.abs(got - want))]
               + [np.max(np.abs(a - b)) for a, b in zip(got_grads, want_grads)])


MIXED_LENGTHS = (9, 1, 40, 2)  # unsorted, with a one-token sentence


def sigmoid(x):
    """The logistic function through tanh, a formula independent of the library's."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def make_sample(tokens):
    n = len(tokens)
    deps = [(-1, 0, "root")] + [(0, i, "dep") for i in range(1, n)]
    return AspectSample(tokens=tuple(tokens), aspect_start=0, aspect_len=1,
                        label="neutral", deps=tuple(deps))


class TestEmbedSequence:
    vocab = Vocab(["<pad>", "<unk>", "menu", "staff", "good"])

    def table(self, rng):
        return Tensor(rng.normal(size=(len(self.vocab), 6)), requires_grad=True)

    def test_single_token_lookup(self, rng):
        table = self.table(rng)
        out = embed_sequence(make_sample(["menu"]), self.vocab, table)
        assert out.shape == (1, 6)
        assert np.array_equal(out.data[0], table.data[self.vocab.id("menu")])

    def test_unknown_tokens_share_unk_row(self, rng):
        table = self.table(rng)
        out = embed_sequence(make_sample(["qux", "zap"]), self.vocab, table)
        assert np.array_equal(out.data[0], table.data[UNK_ID])
        assert np.array_equal(out.data[1], table.data[UNK_ID])

    def test_list_of_samples_stacks_rows(self, rng):
        table = self.table(rng)
        a, b = make_sample(["menu", "good"]), make_sample(["staff"])
        out = embed_sequence([a, b], self.vocab, table)
        assert np.array_equal(out.data, np.concatenate(
            [embed_sequence(a, self.vocab, table).data, embed_sequence(b, self.vocab, table).data]))

    def test_permutation_equivariance(self, rng):
        table = self.table(rng)
        tokens = ["menu", "staff", "good"]
        base = embed_sequence(make_sample(tokens), self.vocab, table).data
        perm = [2, 0, 1]
        permuted = embed_sequence(make_sample([tokens[i] for i in perm]), self.vocab, table).data
        assert np.array_equal(permuted, base[perm])


class TestBiLstm:
    def params(self, d_in=4, d_h=3, seed=0):
        store = ParameterStore()
        p = init_bilstm_params(store, "lstm", d_in, d_h, np.random.default_rng(seed))
        return p, store

    def test_single_token_matches_manual_step(self):
        p, _ = self.params()
        x = np.random.default_rng(5).normal(size=(1, 4))
        out = bilstm_encode(Tensor(x), p).data
        for half, d in ((slice(0, 3), p.fwd), (slice(3, 6), p.bwd)):
            z = (x @ d.wx.data + np.zeros((1, 3)) @ d.wh.data + d.b.data)[0]
            i_g, f_g, g_g, o_g = z[:3], z[3:6], z[6:9], z[9:12]
            c = sigmoid(i_g) * np.tanh(g_g)
            h = sigmoid(o_g) * np.tanh(c)
            assert np.allclose(out[0, half], h, atol=1e-12)

    def test_reversal_symmetry_with_tied_directions(self):
        p, _ = self.params()
        # tie both directions so the symmetry is exact
        p.bwd.wx.data = p.fwd.wx.data.copy()
        p.bwd.wh.data = p.fwd.wh.data.copy()
        p.bwd.b.data = p.fwd.b.data.copy()
        e = np.random.default_rng(6).normal(size=(5, 4))
        straight = bilstm_encode(Tensor(e), p).data
        reverse = bilstm_encode(Tensor(e[::-1].copy()), p).data
        swapped = np.concatenate([straight[:, 3:], straight[:, :3]], axis=1)
        assert np.allclose(reverse, swapped[::-1], atol=1e-12)

    def test_forward_half_is_causal(self):
        p, _ = self.params()
        e = np.random.default_rng(7).normal(size=(6, 4))
        base = bilstm_encode(Tensor(e), p).data
        bumped = e.copy()
        bumped[3] += 0.37
        after = bilstm_encode(Tensor(bumped), p).data
        assert np.array_equal(base[:3, :3], after[:3, :3])     # forward half, earlier rows
        assert np.array_equal(base[4:, 3:], after[4:, 3:])     # backward half, later rows
        assert not np.array_equal(base[3:, :3], after[3:, :3])

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_matches_step_by_step_reference(self, n):
        d_in, d_h = 5, 3
        p, store = self.params(d_in=d_in, d_h=d_h, seed=n)
        rng = np.random.default_rng(100 + n)
        for t in store.tensors():  # nonzero biases, so db is exercised
            t.data = rng.normal(scale=0.5, size=t.shape)
        x = Tensor(rng.normal(size=(n, d_in)), requires_grad=True)
        weight = Tensor(rng.normal(size=(n, 2 * d_h)))
        leaves = [x] + store.tensors()

        def value_and_grads(encode):
            for t in leaves:
                t.zero_grad()
            out = encode(x, p)
            ad.backward(ad.reduce_sum(ad.mul(out, weight)))
            return out.data, [t.grad.copy() for t in leaves]

        fused, fused_grads = value_and_grads(bilstm_encode)
        reference, reference_grads = value_and_grads(reference_bilstm_encode)
        assert np.max(np.abs(fused - reference)) < 1e-10
        names = ["x"] + [name for name, _ in store.items()]
        assert names == ["x", "lstm.fwd.wx", "lstm.fwd.wh", "lstm.fwd.b",
                         "lstm.bwd.wx", "lstm.bwd.wh", "lstm.bwd.b"]
        for name, got, want in zip(names, fused_grads, reference_grads):
            assert np.max(np.abs(got - want)) < 1e-10, name

    def test_packed_batch_matches_step_by_step_reference(self):
        d_in, d_h = 5, 3
        p, store = self.params(d_in=d_in, d_h=d_h, seed=11)
        rng = np.random.default_rng(12)
        for t in store.tensors():
            t.data = rng.normal(scale=0.5, size=t.shape)
        x = Tensor(rng.normal(size=(sum(MIXED_LENGTHS), d_in)), requires_grad=True)
        gap = packed_matches_per_sentence(
            lambda x, layout: bilstm_encode(x, p, layout),
            lambda x: reference_bilstm_encode(x, p),
            x, [x] + store.tensors(), MIXED_LENGTHS, 2 * d_h)
        assert gap < 1e-10

    def test_records_one_node_per_direction(self):
        p, _ = self.params()
        x = Tensor(np.random.default_rng(9).normal(size=(6, 4)), requires_grad=True)
        out = bilstm_encode(x, p)
        directions = out._parents
        assert len(directions) == 2
        assert all(d._parents[0] is x and len(d._parents) == 4 for d in directions)

    def test_gradient_check_on_gate_weights(self):
        p, store = self.params(d_in=3, d_h=2, seed=1)
        e = np.random.default_rng(8).normal(size=(4, 3))

        def loss(*_params):
            return ad.reduce_sum(bilstm_encode(Tensor(e), p))

        report = ad.finite_diff_check(loss, store.tensors(), eps=1e-5)
        assert report.max_rel_error < 1e-4


@pytest.mark.parametrize("encoder", ["bilstm", "transformer"])
@pytest.mark.parametrize("n", [1, 6])
def test_no_lengths_is_one_sentence_bit_for_bit(encoder, n):
    # bilstm_encode(x, p) and transformer_encode(x, p), as perfbench/probes.py calls them,
    # are the calls with the layout of [n]: the same output and gradients, bit for bit
    store = ParameterStore()
    rng = np.random.default_rng(40 + n)
    if encoder == "bilstm":
        params, encode = init_bilstm_params(store, "lstm", 6, 3, rng), bilstm_encode
    else:
        params, encode = init_transformer_params(store, "tr", 6, 2, 8, rng), transformer_encode
    for t in store.tensors():  # nonzero biases and gains off 1, so every gradient is exercised
        t.data = rng.normal(scale=0.5, size=t.shape)
    x = Tensor(rng.normal(size=(n, 6)), requires_grad=True)
    leaves = [x] + store.tensors()

    def run(*layout):
        for t in leaves:
            t.zero_grad()
        out = encode(x, params, *layout)
        weight = Tensor(np.random.default_rng(7).normal(size=out.shape))
        ad.backward(ad.reduce_sum(ad.mul(out, weight)))
        return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]

    assert run() == run(ad.segment_layout([n]))


def packed_calls():
    """Each function that takes a layout, called on the same 5 input rows."""
    rng = np.random.default_rng(21)
    store = ParameterStore()
    lstm = init_bilstm_params(store, "lstm", 4, 2, rng)
    block = init_transformer_params(store, "tr", 4, 2, 8, rng)
    fusion = head.init_fusion_params(store, "fuse", 4, 3, rng)
    x = Tensor(rng.normal(size=(5, 4)))
    return {
        "segment_sum": lambda layout: ad.segment_sum(x, layout),
        "segment_softmax": lambda layout: ad.segment_softmax(Tensor(x.data[:, 0]), layout),
        "attention": lambda layout: ad.attention(x, x, x, 2, layout),
        "lstm": lambda layout: ad.lstm(x, lstm.fwd.wx, lstm.fwd.wh, lstm.fwd.b, layout),
        "bilstm_encode": lambda layout: bilstm_encode(x, lstm, layout),
        "multi_head_attention": lambda layout: encoders.multi_head_attention(x, block, layout),
        "transformer_encode": lambda layout: transformer_encode(x, block, layout),
        "aspect_attention": lambda layout: head.aspect_attention(x, x, layout),
        "fuse": lambda layout: head.fuse(Tensor(np.zeros((2, 3))), x, fusion, layout),
    }


@pytest.mark.parametrize("op", list(packed_calls()))
def test_packed_lengths_must_cover_the_rows(op):
    call = packed_calls()[op]
    call(ad.segment_layout([2, 3]))
    for lengths in ([2, 2], [5, 1]):  # a row short, a row over
        with pytest.raises(ad.ShapeError):
            call(ad.segment_layout(lengths))


class TestPositionalEncoding:
    def test_row_zero_is_zero_one_pattern(self):
        pe = positional_encoding(5, 8)
        assert np.array_equal(pe[0, 0::2], np.zeros(4))
        assert np.array_equal(pe[0, 1::2], np.ones(4))

    def test_position_three_closed_form(self):
        # first dimension pair uses the raw angle: sin(3) and cos(3)
        pe = positional_encoding(4, 10)
        assert pe[3, 0] == pytest.approx(math.sin(3.0), abs=1e-15)
        assert pe[3, 1] == pytest.approx(math.cos(3.0), abs=1e-15)
        assert pe[3, 0] == pytest.approx(0.1411200080598672, abs=1e-12)
        assert pe[3, 1] == pytest.approx(-0.9899924966004454, abs=1e-12)

    def test_general_entry_matches_formula(self):
        pe = positional_encoding(7, 6)
        for pos in range(7):
            for i in range(3):
                angle = pos / 10000 ** (2 * i / 6)
                assert pe[pos, 2 * i] == pytest.approx(math.sin(angle), abs=1e-12)
                assert pe[pos, 2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-12)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            positional_encoding(3, 5)


class TestScaledDotAttention:
    def test_single_position_returns_value_row(self, rng):
        q = Tensor(rng.normal(size=(1, 4)))
        k = Tensor(rng.normal(size=(1, 4)))
        v = Tensor(rng.normal(size=(1, 3)))
        out = ad.attention(q, k, v, 1, ad.segment_layout([1]))
        assert np.array_equal(out.data, v.data)

    def test_identical_keys_average_values(self, rng):
        key_row = rng.normal(size=4)
        k = Tensor(np.stack([key_row, key_row]))
        q = Tensor(np.ones((2, 4)))
        v = Tensor(rng.normal(size=(2, 3)))
        out = ad.attention(q, k, v, 1, ad.segment_layout([2]))
        for row in out.data:
            assert np.array_equal(row, v.data.mean(axis=0))

    def test_weight_rows_sum_to_one(self, rng):
        # with all-ones values the output exposes each row's total attention weight
        q = Tensor(rng.normal(size=(6, 4)))
        k = Tensor(rng.normal(size=(6, 4)))
        v = Tensor(np.ones((6, 1)))
        out = ad.attention(q, k, v, 1, ad.segment_layout([6]))
        assert np.allclose(out.data, 1.0, atol=1e-12)

    def test_packed_sentences_attend_only_within_themselves(self, rng):
        lengths = (3, 1, 4)
        q, k, v = (Tensor(rng.normal(size=(8, 4))) for _ in range(3))
        out = ad.attention(q, k, v, 1, ad.segment_layout(lengths)).data
        offsets = np.cumsum((0,) + lengths)
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            alone = ad.attention(*(Tensor(t.data[lo:hi]) for t in (q, k, v)), 1,
                                 ad.segment_layout([hi - lo])).data
            assert np.max(np.abs(out[lo:hi] - alone)) < 1e-14

    @pytest.mark.parametrize("lengths", [pytest.param((8,), id="one"), (3, 1, 4)])
    def test_heads_match_one_head_calls_on_column_blocks(self, rng, lengths):
        heads, d_k, d_v = 3, 2, 4
        q, k = (Tensor(rng.normal(size=(8, heads * d_k)), requires_grad=True) for _ in range(2))
        v = Tensor(rng.normal(size=(8, heads * d_v)), requires_grad=True)
        weight = Tensor(rng.normal(size=(8, heads * d_v)))
        layout = ad.segment_layout(lengths)

        def run(attend):
            for t in (q, k, v):
                t.zero_grad()
            out = attend()
            ad.backward(ad.reduce_sum(ad.mul(out, weight)))
            return out.data, [t.grad.copy() for t in (q, k, v)]

        def per_head():
            def cols(t, h, d):
                return ad.slice_axis(t, 1, h * d, (h + 1) * d)
            return ad.concat([ad.attention(cols(q, h, d_k), cols(k, h, d_k), cols(v, h, d_v),
                                           1, layout) for h in range(heads)], axis=1)

        fused, fused_grads = run(lambda: ad.attention(q, k, v, heads, layout))
        split, split_grads = run(per_head)
        assert np.max(np.abs(fused - split)) <= 1e-14
        for a, b in zip(fused_grads, split_grads):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_shape_mismatch_rejected(self, rng):
        # q and k of different widths; q and k of different rows, whichever rows the layout covers
        for q_shape, k_shape in (((2, 3), (2, 4)), ((3, 4), (2, 4))):
            with pytest.raises(ad.ShapeError, match="attention"):
                ad.attention(Tensor(np.ones(q_shape)), Tensor(np.ones(k_shape)),
                             Tensor(np.ones((2, 2))), 1, ad.segment_layout([q_shape[0]]))


class TestTransformerEncode:
    def setup_block(self, d_model=6, heads=2, ffn=8, seed=0):
        store = ParameterStore()
        params = init_transformer_params(store, "tr", d_model, heads, ffn,
                                         np.random.default_rng(seed))
        return params, store

    def test_output_rows_standardized_at_init(self, rng):
        params, _ = self.setup_block()
        out = transformer_encode(Tensor(rng.normal(size=(5, 6))), params).data
        assert np.all(np.abs(out.mean(axis=1)) < 1e-10)
        assert np.all(np.abs(out.var(axis=1) - 1.0) < 1e-10)

    def test_shape_for_any_length(self, rng):
        params, _ = self.setup_block()
        for n in (1, 2, 9):
            out = transformer_encode(Tensor(rng.normal(size=(n, 6))), params)
            assert out.shape == (n, 6)
            assert np.all(np.isfinite(out.data))

    def test_permutation_equivariance_without_positions(self, rng):
        params, _ = self.setup_block()
        x = rng.normal(size=(5, 6))
        perm = [3, 1, 4, 0, 2]
        # multi-head attention is the block's only step that mixes rows
        one = ad.segment_layout([5])
        base = encoders.multi_head_attention(Tensor(x), params, one).data
        permuted = encoders.multi_head_attention(Tensor(x[perm]), params, one).data
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_heads_are_column_blocks_of_per_head_draws(self):
        # each head drawn in turn as d_model x d_k blocks, wq then wk then wv
        params, _ = self.setup_block(d_model=6, heads=3, seed=2)
        rng = np.random.default_rng(2)
        bound = 1.0 / np.sqrt(6)
        for h in range(3):
            for w in (params.wq, params.wk, params.wv):
                draw = rng.uniform(-bound, bound, (6, 2))
                assert np.array_equal(w.data[:, 2 * h:2 * h + 2], draw)
        assert np.array_equal(params.wo.data, rng.uniform(-bound, bound, (6, 6)))

    def test_tape_is_the_same_for_any_head_count(self, rng):
        x = Tensor(rng.normal(size=(7, 8)), requires_grad=True)

        def ops(heads):
            params, _ = self.setup_block(d_model=8, heads=heads)
            out = transformer_encode(x, params, ad.segment_layout((3, 4)))
            # an op's backward function is named inside it, e.g. "attention.<locals>.backward"
            return Counter(node._backward_fn.__qualname__.split(".")[0]
                           for node in ad._toposort(out))

        assert ops(1) == ops(2) == ops(4)
        assert ops(4)["attention"] == 1

    def test_packed_batch_matches_per_sentence_reference(self):
        params, store = self.setup_block(seed=5)
        x = Tensor(np.random.default_rng(13).normal(size=(sum(MIXED_LENGTHS), 6)),
                   requires_grad=True)
        gap = packed_matches_per_sentence(
            lambda x, layout: transformer_encode(x, params, layout),
            lambda x: reference_transformer_encode(x, params),
            x, [x] + store.tensors(), MIXED_LENGTHS, 6)
        assert gap < 1e-10

    def test_indivisible_heads_rejected(self):
        store = ParameterStore()
        with pytest.raises(ValueError, match="divisible"):
            init_transformer_params(store, "tr", 6, 4, 8, np.random.default_rng(0))

    def test_gradient_check_through_block(self):
        params, store = self.setup_block(seed=3)
        e = Tensor(np.random.default_rng(11).normal(size=(5, 6)), requires_grad=True)

        def loss(*_inputs):
            return ad.reduce_sum(ad.tanh(transformer_encode(e, params)))

        report = ad.finite_diff_check(loss, [e] + store.tensors(), eps=1e-5)
        assert report.max_rel_error < 1e-4

    def test_bounded_inputs_stay_finite(self):
        params, _ = self.setup_block(seed=4)
        extreme = np.full((4, 6), 10.0)
        extreme[::2] *= -1
        out = transformer_encode(Tensor(extreme), params)
        assert np.all(np.isfinite(out.data))
