import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigraph import autodiff as ad
from sentigraph import head
from sentigraph.autodiff import ParameterStore, Tensor
from sentigraph.head import (
    aspect_attention,
    classify,
    compute_loss,
    fuse,
    init_classifier_params,
    init_fusion_params,
    nll,
    predictions,
)
from sentigraph.training import Adam

from conftest import aspect_mask
from reference_step import reference_adam_step


def classify_one(x, params):
    """The Prediction for one fused vector, through a batch of one."""
    return predictions(classify(Tensor(x[None]), params).data)[0]


class TestAspectMask:
    def test_full_span_is_identity(self, rng):
        h = rng.normal(size=(4, 3))
        out = aspect_mask(Tensor(h), [(0, 4)], ad.segment_layout([4]))
        assert np.array_equal(out.data, h)

    def test_single_token_span_keeps_one_row(self, rng):
        h = rng.normal(size=(5, 3))
        out = aspect_mask(Tensor(h), [(2, 1)], ad.segment_layout([5])).data
        assert np.array_equal(out[2], h[2])
        assert np.count_nonzero(out.sum(axis=1)) == 1

    def test_invalid_span_rejected(self, rng):
        with pytest.raises(ValueError, match="span"):
            aspect_mask(Tensor(rng.normal(size=(3, 2))), [(2, 2)], ad.segment_layout([3]))

    def test_packed_spans_count_from_each_sentence_start(self, rng):
        h = rng.normal(size=(5, 2))
        out = aspect_mask(Tensor(h), [(1, 1), (0, 2)], ad.segment_layout([2, 3])).data
        assert np.array_equal(out[[1, 2, 3]], h[[1, 2, 3]])
        assert np.array_equal(out[[0, 4]], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="span"):
            aspect_mask(Tensor(h), [(1, 2), (0, 1)], ad.segment_layout([2, 3]))

    def test_masked_rows_get_exactly_zero_gradient(self, rng):
        h = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ad.backward(ad.reduce_sum(ad.tanh(aspect_mask(h, [(1, 2)], ad.segment_layout([5])))))
        assert np.array_equal(h.grad[0], np.zeros(3))
        assert np.array_equal(h.grad[3:], np.zeros((2, 3)))
        assert np.any(h.grad[1:3] != 0)

    def test_masked_coordinates_leave_loss_bitwise_unchanged(self, rng):
        # central probes at masked coordinates see identical losses
        h = rng.normal(size=(4, 3))
        context = rng.normal(size=(4, 3))

        def loss_value(h_val):
            masked = aspect_mask(Tensor(h_val), [(1, 1)], ad.segment_layout([4]))
            _alpha, pooled = aspect_attention(Tensor(context), masked, ad.segment_layout([4]))
            return float(ad.reduce_sum(ad.tanh(pooled)).data)

        eps = 1e-5
        for row in (0, 2, 3):
            for col in range(3):
                plus = h.copy()
                plus[row, col] += eps
                minus = h.copy()
                minus[row, col] -= eps
                assert loss_value(plus) == loss_value(minus)


class TestAspectAttention:
    def test_alpha_sums_to_one(self, rng):
        alpha, _ = aspect_attention(Tensor(rng.normal(size=(6, 4))),
                                    Tensor(rng.normal(size=(6, 4))), ad.segment_layout([6]))
        assert alpha.data.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_mask_gives_uniform_alpha(self, rng):
        alpha, pooled = aspect_attention(Tensor(rng.normal(size=(5, 4))),
                                         Tensor(np.zeros((5, 4))), ad.segment_layout([5]))
        assert np.allclose(alpha.data, 0.2, atol=1e-12)
        assert pooled.shape == (1, 4)

    def test_three_token_hand_example(self):
        # beta_i = context_i . (sum of masked rows) = context_i . [2, 1]
        context = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        masked = np.array([[0.0, 0.0], [2.0, 1.0], [0.0, 0.0]])
        alpha, pooled = aspect_attention(Tensor(context), Tensor(masked), ad.segment_layout([3]))

        beta = [2.0, 1.0, 3.0]
        denominator = sum(math.exp(b) for b in beta)
        expected_alpha = [math.exp(b) / denominator for b in beta]
        assert np.allclose(alpha.data, expected_alpha, atol=1e-12)
        assert np.allclose(alpha.data, [0.24472847105479767, 0.09003057317038046,
                                        0.6652409557748219], atol=1e-12)
        expected_pooled = sum(a * context[i] for i, a in enumerate(expected_alpha))
        assert np.allclose(pooled.data, expected_pooled, atol=1e-12)

    def test_packed_sentences_pool_separately(self, rng):
        lengths = (2, 4, 1)
        context, masked = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
        alpha, pooled = aspect_attention(Tensor(context), Tensor(masked),
                                         ad.segment_layout(lengths))
        assert pooled.shape == (3, 3)
        for j, (lo, hi) in enumerate(((0, 2), (2, 6), (6, 7))):
            alone_alpha, alone_pooled = aspect_attention(Tensor(context[lo:hi]),
                                                         Tensor(masked[lo:hi]),
                                                         ad.segment_layout([hi - lo]))
            assert alpha.data[lo:hi].sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(alpha.data[lo:hi], alone_alpha.data, atol=1e-15)
            assert np.allclose(pooled.data[j], alone_pooled.data[0], atol=1e-15)

    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(ad.ShapeError, match="attention"):
            aspect_attention(Tensor(rng.normal(size=(3, 4))),
                             Tensor(rng.normal(size=(3, 5))), ad.segment_layout([3]))


class TestFuse:
    def setup_params(self, d_model=4, d_pooled=6, seed=0):
        store = ParameterStore()
        params = init_fusion_params(store, "fuse", d_model, d_pooled,
                                    np.random.default_rng(seed))
        return params, store

    def test_zero_transformer_passes_pooled_through(self, rng):
        params, _ = self.setup_params()
        pooled = rng.normal(size=(1, 6))
        out = fuse(Tensor(pooled), Tensor(np.zeros((3, 4))), params, ad.segment_layout([3]))
        assert np.array_equal(out.data, pooled)

    def test_zero_pooled_gives_projected_mean(self, rng):
        params, _ = self.setup_params()
        z = rng.normal(size=(3, 4))
        out = fuse(Tensor(np.zeros((1, 6))), Tensor(z), params, ad.segment_layout([3]))
        expected = z.mean(axis=0) @ params.w_proj.data + params.b_proj.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_gradient_check(self, rng):
        params, store = self.setup_params(seed=1)
        pooled = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
        z = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

        def loss(*_inputs):
            return ad.reduce_sum(ad.tanh(fuse(pooled, z, params, ad.segment_layout([3]))))

        report = ad.finite_diff_check(loss, [pooled, z] + store.tensors(), eps=1e-5)
        assert report.max_rel_error < 1e-4


class TestClassify:
    def zeroed_params(self, d_in=5):
        store = ParameterStore()
        params = init_classifier_params(store, "cls", d_in, 3, np.random.default_rng(0))
        params.w.data[:] = 0.0
        params.b.data[:] = 0.0
        return params

    def test_zero_weights_give_uniform_distribution(self, rng):
        params = self.zeroed_params()
        prediction = classify_one(rng.normal(size=5), params)
        assert np.allclose(prediction.prob, 1 / 3, atol=1e-12)
        assert prediction.predicted_label == "positive"  # first index wins ties

    def test_dominant_bias_wins(self, rng):
        params = self.zeroed_params()
        params.b.data[:] = [10.0, 0.0, -10.0]
        prediction = classify_one(rng.normal(size=5), params)
        assert prediction.predicted_label == "positive"
        assert np.argmax(prediction.prob) == 0

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_prob_sums_to_one(self, seed):
        gen = np.random.default_rng(seed)
        store = ParameterStore()
        params = init_classifier_params(store, "cls", 4, 3, gen)
        prediction = classify_one(gen.normal(size=4), params)
        assert prediction.prob.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(prediction.prob >= 0) and np.all(prediction.prob <= 1)

    def test_logit_shift_invariance(self, rng):
        logits = rng.normal(size=3)
        base = ad.softmax(Tensor(logits)).data
        shifted = ad.softmax(Tensor(logits + 7.5)).data
        assert np.allclose(base, shifted, atol=1e-12)

    def test_prediction_record_shape(self, rng):
        store = ParameterStore()
        params = init_classifier_params(store, "cls", 4, 3, rng)
        prediction = classify_one(rng.normal(size=4), params)
        record = prediction.as_record(gold_label="neutral")
        assert set(record) == {"prob", "predicted_label", "gold_label"}
        assert len(record["prob"]) == 3


class TestComputeLoss:
    def test_perfect_prediction_zero_loss(self):
        prob = Tensor(np.array([[1.0, 0.0, 0.0]]))
        loss = compute_loss(prob, ["positive"], ParameterStore(), 0.0)
        assert loss.item() == 0.0

    def test_uniform_prediction_is_log_three(self):
        prob = Tensor(np.full((1, 3), 1 / 3))
        loss = compute_loss(prob, ["neutral"], ParameterStore(), 0.0)
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_l2_term_adds_lambda_times_square(self):
        store = ParameterStore()
        store.add("w", np.array([2.0]))
        prob = Tensor(np.array([[1.0, 0.0, 0.0]]))
        loss = compute_loss(prob, ["positive"], store, 0.01)
        assert loss.item() == pytest.approx(0.04, abs=1e-15)

    def test_biases_excluded_from_penalty(self):
        store = ParameterStore()
        store.add("w", np.array([2.0]))
        store.add("cls.b", np.array([5.0]), no_decay=True)
        prob = Tensor(np.array([[1.0, 0.0, 0.0]]))
        loss = compute_loss(prob, ["positive"], store, 0.01)
        assert loss.item() == pytest.approx(0.04, abs=1e-15)

    def test_l2_penalty_is_a_constant_whose_gradient_adam_adds(self):
        store = ParameterStore()
        w = store.add("w", np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0]]))
        store.add("cls.b", np.array([5.0, -1.0, 2.0]), no_decay=True)
        store.add("v", np.array([0.25]))  # the tape never reaches it
        penalty = head.l2_penalty(store)
        assert penalty.item() == 1.0 + 4.0 + 0.25 + 9.0 + 0.0625 + 1.0 + 0.0625
        assert penalty._parents == () and not penalty.requires_grad

        lam, x = 0.5, Tensor(np.array([[0.5, -1.5]]))

        def loss():
            logits = ad.add(ad.matmul(x, w), store["cls.b"])
            return compute_loss(ad.softmax(logits, axis=1), ["neutral"], store, lam)

        store.zero_grads()
        ad.backward(loss())  # the tape's gradient: the cross-entropy's alone
        ref = store.state_dict()
        grads = {name: t.grad.copy() for name, t in store.items()}
        for name in ("w", "v"):
            grads[name] += (2.0 * lam) * ref[name]
        m = {name: np.zeros(a.shape) for name, a in ref.items()}
        v = {name: np.zeros(a.shape) for name, a in ref.items()}
        reference_adam_step(ref, grads, m, v, 1, lr=0.1)
        Adam(store, learning_rate=0.1, lambda_l2=lam).step(loss())
        for name, t in store.items():
            assert t.data.tobytes() == ref[name].tobytes(), name

    def test_batch_loss_is_the_mean_of_its_rows(self):
        prob = np.array([[0.5, 0.25, 0.25], [0.1, 0.2, 0.7]])
        loss = nll(Tensor(prob), ["neutral", "negative"]).item()
        assert loss == pytest.approx(-(math.log(0.25) + math.log(0.7)) / 2, abs=1e-15)

    def test_zero_probability_is_floored(self):
        prob = Tensor(np.array([[0.0, 1.0, 0.0]]))
        loss = nll(prob, ["positive"])
        assert loss.item() == pytest.approx(-math.log(1e-12), rel=1e-12)

    @settings(max_examples=40)
    @given(p=st.floats(1e-6, 1.0 - 1e-6))
    def test_loss_nonnegative_and_decreasing_in_gold_prob(self, p):
        prob = Tensor(np.array([[p, (1 - p) / 2, (1 - p) / 2]]))
        loss = nll(prob, ["positive"]).item()
        assert loss >= 0.0
        higher = nll(Tensor(np.array([[min(p + 1e-4, 1.0), 0.0, 0.0]])), ["positive"]).item()
        assert higher <= loss

    def test_gradient_flows_through_loss(self, rng):
        store = ParameterStore()
        params = init_classifier_params(store, "cls", 4, 3, rng)
        x = Tensor(rng.normal(size=(1, 4)), requires_grad=True)

        def loss(*_inputs):
            return compute_loss(classify(x, params), ["negative"], store, 1e-3)

        # the L2 gradient that Adam adds off the tape, to the weight and not the bias
        l2 = [0.0, (2.0 * 1e-3) * params.w.data, 0.0]
        report = ad.finite_diff_check(loss, [x] + store.tensors(), eps=1e-5, outside_tape=l2)
        assert report.max_rel_error < 1e-4
