import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigraph import autodiff as ad
from sentigraph.config import TrainConfig
from sentigraph.corpus import PAD_TOKEN, UNK_TOKEN, Vocab
from sentigraph.model import AspectSentimentModel
from sentigraph.training import load_checkpoint, save_checkpoint


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def check(fn, arrays, eps=1e-5, tol=1e-6):
    inputs = [ad.Tensor(a, requires_grad=True) for a in arrays]
    report = ad.finite_diff_check(fn, inputs, eps=eps)
    assert report.checked > 0
    assert report.max_rel_error < tol, f"max rel error {report.max_rel_error}"
    return report


def test_identity_gradient_is_exact():
    t = ad.Tensor(rand((4,)), requires_grad=True)
    report = ad.finite_diff_check(lambda x: ad.reduce_sum(x), [t], eps=1e-5)
    assert report.max_rel_error < 1e-10


def test_matmul_backward_matches_finite_differences():
    # random 3x4 . 4x2 inputs, projected to a scalar by a fixed weighting
    w = ad.Tensor(rand((3, 2), seed=9))
    check(lambda a, b: ad.reduce_sum(ad.mul(ad.matmul(a, b), w)),
          [rand((3, 4), seed=1), rand((4, 2), seed=2)])


def test_matmul_vector_cases():
    check(lambda a, b: ad.reduce_sum(ad.matmul(a, b)), [rand((3, 4), 3), rand((4,), 4)])
    check(lambda a, b: ad.reduce_sum(ad.matmul(a, b)), [rand((4,), 5), rand((4, 2), 6)])
    check(lambda a, b: ad.matmul(a, b), [rand((5,), 7), rand((5,), 8)])


def test_matmul_shape_mismatch():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_add_bias_row_broadcast():
    check(lambda a, b: ad.reduce_sum(ad.tanh(ad.add(a, b))), [rand((3, 4), 1), rand((4,), 2)])
    with pytest.raises(ad.ShapeError, match="add"):
        ad.add(ad.Tensor(np.ones((3, 4))), ad.Tensor(np.ones((3,))))


def test_mul_concat_slice_transpose():
    check(lambda a, b: ad.reduce_sum(ad.mul(a, b)), [rand((3, 3), 1), rand((3, 3), 2)])
    check(lambda a, b: ad.reduce_sum(ad.exp(ad.concat([a, b], axis=1))),
          [rand((2, 3), 3), rand((2, 2), 4)])
    check(lambda a: ad.reduce_sum(ad.slice_axis(a, 1, 1, 3)), [rand((3, 4), 5)])
    check(lambda a: ad.reduce_sum(ad.sigmoid(ad.transpose(a))), [rand((2, 5), 6)])


def test_elementwise_ops_gradients():
    x = rand((3, 3), 11) + 3.0  # keep log domain positive
    check(lambda a: ad.reduce_sum(ad.log(a)), [x])
    check(lambda a: ad.reduce_sum(ad.exp(a)), [rand((2, 2), 12)])
    check(lambda a: ad.reduce_sum(ad.scale(a, -2.5)), [rand((4,), 13)])
    check(lambda a: ad.reduce_sum(ad.relu(a)), [rand((4, 4), 14)])
    check(lambda a: ad.reduce_sum(ad.softmax(a, axis=1)), [rand((3, 4), 15)])
    check(lambda a: ad.reduce_mean(ad.softmax(a)), [rand((6,), 16)])


def test_composite_tanh_matmul_matches_finite_differences():
    check(lambda a, b: ad.reduce_sum(ad.tanh(ad.matmul(a, b))),
          [rand((3, 4), 21), rand((4, 2), 22)])


def test_relu_at_zero_has_zero_subgradient():
    t = ad.Tensor(np.zeros(3), requires_grad=True)
    out = ad.reduce_sum(ad.relu(t))
    assert out.item() == 0.0
    ad.backward(out)
    assert np.all(t.grad == 0.0)


def test_relu_kink_probe_reports_excluded_coordinates():
    t = ad.Tensor(np.array([0.0, 1.0, -1.0]), requires_grad=True)
    report = ad.finite_diff_check(lambda x: ad.reduce_sum(ad.relu(x)), [t], eps=1e-5)
    # perturbing the zero coordinate straddles the kink: skipped, not failed
    assert report.skipped == [(0, 0)]
    assert report.checked == 2
    assert report.max_rel_error < 1e-6


@pytest.mark.parametrize("fn, x", [
    (lambda x: ad.reduce_sum(ad.clamp_min(x, 0.1)), [0.1, 1.0, 0.5]),
    # the kinked node's input is an intermediate, not the checked leaf
    (lambda x: ad.reduce_sum(ad.relu(ad.scale(x, 0.5))), [0.0, 1.0, -1.0]),
    # behind a gain above 1 the probes land 2 * eps from the pivot
    (lambda x: ad.reduce_sum(ad.relu(ad.scale(x, 2.0))), [0.0, 1.0, -1.0]),
])
def test_kink_probe_skips_the_coordinate_at_the_pivot(fn, x):
    report = ad.finite_diff_check(fn, [ad.Tensor(np.array(x), requires_grad=True)], eps=1e-5)
    # only the coordinate at the pivot: the others are checked
    assert report.skipped == [(0, 0)]
    assert report.checked == 2
    assert report.max_rel_error < 1e-6


def _math_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def test_sigmoid_matches_math_reference():
    x = np.concatenate([np.linspace(-700.0, 40.0, 20001),
                        np.random.default_rng(0).normal(scale=20.0, size=20000)])
    got = ad.sigmoid(ad.Tensor(x)).data
    want = np.array([_math_sigmoid(v) for v in x])
    kept = want >= 1e-300
    assert kept.sum() > 39000
    assert np.max(np.abs(got[kept] - want[kept]) / want[kept]) <= 1e-15


def test_saturated_sigmoid_and_lstm_raise_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.sigmoid(ad.Tensor(np.array([-1000.0, 0.0, 1000.0]))).data
        assert out.tolist() == [0.0, 0.5, 1.0]
        # every pre-activation at -1000: the gates close and the state stays zero
        x, wx = ad.Tensor(np.ones((3, 1))), ad.Tensor(np.zeros((1, 8)))
        wh = ad.Tensor(np.zeros((2, 8)))
        b = ad.Tensor(np.full(8, -1000.0))
        for lengths in (None, (2, 1)):
            h = ad.lstm(x, wx, wh, b, lengths=lengths).data
            assert np.array_equal(h, np.zeros((3, 2)))


def test_layer_norm_rows_standardized_and_differentiable():
    x = rand((4, 6), 31)
    gain = np.ones(6)
    bias = np.zeros(6)
    out = ad.layer_norm(ad.Tensor(x), ad.Tensor(gain), ad.Tensor(bias))
    assert np.all(np.abs(out.data.mean(axis=1)) < 1e-10)
    assert np.all(np.abs(out.data.var(axis=1) - 1.0) < 1e-10)
    check(lambda a, g, b: ad.reduce_sum(ad.tanh(ad.layer_norm(a, g, b))),
          [x, rand((6,), 32), rand((6,), 33)])


def test_gather_rows_scatter_add_backward():
    table = ad.Tensor(rand((5, 3), 41), requires_grad=True)
    ids = np.array([0, 2, 2, 4])
    out = ad.reduce_sum(ad.gather_rows(table, ids))
    ad.backward(out)
    expected = np.zeros((5, 3))
    for i in ids:
        expected[i] += 1.0
    assert np.array_equal(table.grad, expected)


def test_gather_rows_into_a_leaf_adds_the_dense_scatter_bit_for_bit():
    rng = np.random.default_rng(43)
    ids = rng.integers(0, 6, 40)  # repeated ids, whose sum rounds differently by association
    g = rng.normal(size=(40, 3))
    dense = np.zeros((6, 3))
    np.add.at(dense, ids, g)

    table = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    table.grad[:] = rng.normal(size=(6, 3)) * 100  # an earlier contribution, such as the L2 term
    expected = table.grad + dense
    ad.backward(ad.reduce_sum(ad.mul(ad.gather_rows(table, ids), ad.Tensor(g))))
    assert np.array_equal(table.grad, expected)

    # an intermediate table takes the dense gradient through its own op
    leaf = ad.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    ad.backward(ad.reduce_sum(ad.mul(ad.gather_rows(ad.scale(leaf, 2.0), ids), ad.Tensor(g))))
    assert np.array_equal(leaf.grad, dense * 2.0)


def test_sparse_matmul_is_the_dense_product_in_both_orientations():
    rng = np.random.default_rng(44)
    # (2, 1) appears twice; row 1 and column 3 hold no entry
    m = ad.SparseMatrix(np.array([2, 0, 2, 2]), np.array([1, 2, 1, 0]), rng.normal(size=4),
                        (3, 4))
    dense = np.zeros((3, 4))
    np.add.at(dense, (m.row, m.col), m.value)
    x, y = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))

    out = ad.sparse_matmul(m, ad.Tensor(x)).data
    assert np.max(np.abs(out - dense @ x)) < 1e-15
    assert np.array_equal(out[1], np.zeros(2))
    out_t = ad.sparse_matmul(m, ad.Tensor(y), transpose=True).data
    assert np.max(np.abs(out_t - dense.T @ y)) < 1e-15
    assert np.array_equal(out_t[3], np.zeros(2))
    with pytest.raises(ad.ShapeError, match="sparse_matmul"):
        ad.sparse_matmul(m, ad.Tensor(y))


def test_clamp_min_blocks_gradient_below_floor():
    t = ad.Tensor(np.array([1e-20, 0.5]), requires_grad=True)
    out = ad.reduce_sum(ad.log(ad.clamp_min(t, 1e-12)))
    ad.backward(out)
    assert t.grad[0] == 0.0
    assert t.grad[1] == pytest.approx(2.0)


def test_backward_requires_scalar_loss():
    t = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ad.ShapeError, match="scalar"):
        ad.backward(ad.tanh(t))


def test_linear_loss_gives_all_ones_gradient():
    p = ad.Tensor(rand((3, 4)), requires_grad=True)
    ad.backward(ad.reduce_sum(p))
    assert np.array_equal(p.grad, np.ones((3, 4)))


def test_disconnected_parameter_keeps_zero_gradient():
    p = ad.Tensor(rand((2, 2)), requires_grad=True)
    q = ad.Tensor(rand((2, 2), 5), requires_grad=True)
    ad.backward(ad.reduce_sum(q))
    assert np.array_equal(p.grad, np.zeros((2, 2)))


def test_backward_accumulates_until_zeroed():
    p = ad.Tensor(np.ones(3), requires_grad=True)
    ad.backward(ad.reduce_sum(p))
    ad.backward(ad.reduce_sum(p))
    assert np.array_equal(p.grad, 2 * np.ones(3))
    p.zero_grad()
    assert np.array_equal(p.grad, np.zeros(3))


def test_backward_keeps_gradients_on_leaves_only():
    p = ad.Tensor(rand((3,), 52), requires_grad=True)
    hidden = ad.tanh(ad.scale(p, 2.0))
    loss = ad.reduce_sum(hidden)
    ad.backward(loss)
    accumulator = p.grad
    assert hidden.grad is None and loss.grad is None
    first = accumulator.copy()
    ad.backward(loss)
    assert p.grad is accumulator
    assert np.array_equal(p.grad, 2 * first)
    assert hidden.grad is None and loss.grad is None


def test_root_without_grad_receives_nothing():
    c = ad.Tensor(np.ones(2))
    loss = ad.reduce_sum(c)
    ad.backward(loss)
    assert loss.grad is None and c.grad is None


def test_sum_squares_value_and_gradient():
    a, b = rand((3, 4), 53), rand((5,), 54)
    out = ad.sum_squares([ad.Tensor(a), ad.Tensor(b)])
    assert out.item() == pytest.approx((a * a).sum() + (b * b).sum(), rel=1e-15)
    ta, tb = ad.Tensor(a, requires_grad=True), ad.Tensor(b, requires_grad=True)
    ad.backward(ad.scale(ad.sum_squares([ta, tb]), 0.5))
    assert np.array_equal(ta.grad, a) and np.array_equal(tb.grad, b)
    check(lambda x, y: ad.sum_squares([x, y]), [a, b])
    assert ad.sum_squares([]).item() == 0.0


def test_nonfinite_gradient_reaching_a_leaf_raises_and_leaves_it_untouched():
    p = ad.Tensor(np.array([1e-320, 1.0]), requires_grad=True)
    loss = ad.reduce_sum(ad.log(p))  # finite, but d/dp = 1/p overflows
    with np.errstate(over="ignore"), \
            pytest.raises(ad.NonFiniteError, match="backward: produced non-finite gradient"):
        ad.backward(loss)
    assert np.array_equal(p.grad, np.zeros(2))


def test_leaf_reached_by_several_paths_matches_summing_first():
    # the accumulator takes each contribution as it arrives; from zero that is
    # bit-identical to adding the summed contributions once
    x = ad.Tensor(rand((50,), 55), requires_grad=True)
    w = [rand((50,), 56 + i) for i in range(4)]
    terms = [ad.reduce_sum(ad.mul(ad.tanh(ad.scale(x, 1.0 + i)), ad.Tensor(wi)))
             for i, wi in enumerate(w)]
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    ad.backward(loss)
    parts = [wi * (1.0 - np.tanh(x.data * (1.0 + i)) ** 2) * (1.0 + i)
             for i, wi in enumerate(w)]
    summed = parts[0]
    for part in parts[1:]:  # contributions arrive in the order the terms were added
        summed = summed + part
    assert np.array_equal(x.grad, np.zeros(50) + summed)


def test_zero_grad_clears_in_place_and_allocates_nothing():
    store = ad.ParameterStore()
    tensors = [store.add(f"p{i}", rand((200, 50), i)) for i in range(4)]
    ad.backward(ad.sum_squares(tensors))
    accumulators = [t.grad for t in tensors]
    tracemalloc.start()
    try:
        store.zero_grads()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096
    assert all(t.grad is acc and not acc.any() for t, acc in zip(tensors, accumulators))
    tensors[0].data = rand((3, 3))  # a rebound array of another shape gets a new accumulator
    tensors[0].zero_grad()
    assert tensors[0].grad.shape == (3, 3) and not tensors[0].grad.any()


def test_sum_squares_backward_never_holds_all_gradients():
    # its 2*g*t terms are made one tensor at a time and added as they arrive
    size = 250_000  # 2 MB per tensor
    tensors = [ad.Tensor(rand((size,), i), requires_grad=True) for i in range(6)]
    loss = ad.sum_squares(tensors)
    tracemalloc.start()
    try:
        ad.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * size
    for t in tensors:
        assert np.array_equal(t.grad, 2.0 * t.data)


def test_shared_subexpression_gradient():
    # y = sum(x*x) + sum(x) -> dy/dx = 2x + 1
    x = ad.Tensor(rand((4,), 51), requires_grad=True)
    ad.backward(ad.add(ad.reduce_sum(ad.mul(x, x)), ad.reduce_sum(x)))
    assert np.allclose(x.grad, 2 * x.data + 1, atol=1e-12)


def test_deep_chain_avoids_recursion_limits():
    t = ad.Tensor(np.zeros(2), requires_grad=True)
    cur = t
    for _ in range(3000):
        cur = ad.scale(cur, 1.0)
    ad.backward(ad.reduce_sum(cur))
    assert np.array_equal(t.grad, np.ones(2))


def test_nonfinite_forward_raises():
    with np.errstate(over="ignore"):
        with pytest.raises(ad.NonFiniteError):
            ad.exp(ad.Tensor(np.array([1e5])))


@pytest.mark.parametrize("operand, value", [("wx", np.inf), ("x", np.nan)])
def test_lstm_nonfinite_pre_activation_raises(operand, value):
    # an infinite input-gate pre-activation saturates its sigmoid and would
    # otherwise leave every output finite
    arrays = {"x": rand((5, 3), seed=1), "wx": rand((3, 8), seed=2),
              "wh": rand((2, 8), seed=3), "b": rand((8,), seed=4)}
    arrays[operand][0, 0] = value
    tensors = {name: ad.Tensor(a) for name, a in arrays.items()}
    for reverse in (False, True):
        with pytest.raises(ad.NonFiniteError, match="lstm"):
            ad.lstm(tensors["x"], tensors["wx"], tensors["wh"], tensors["b"], reverse=reverse)


def test_lstm_shape_mismatch():
    x, wh, b = ad.Tensor(rand((4, 3))), ad.Tensor(rand((2, 8))), ad.Tensor(rand((8,)))
    with pytest.raises(ad.ShapeError, match="lstm"):
        ad.lstm(x, ad.Tensor(rand((3, 6))), wh, b)
    with pytest.raises(ad.ShapeError, match="lstm"):
        ad.lstm(x, ad.Tensor(rand((4, 8))), wh, b)


@settings(max_examples=50)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=12))
def test_softmax_sums_to_one(values):
    out = ad.softmax(ad.Tensor(np.array(values)))
    assert out.data.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out.data >= 0)


@settings(max_examples=30)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_determinism_same_inputs_same_values(rows, cols, seed):
    a = rand((rows, cols), seed)
    first = ad.softmax(ad.tanh(ad.Tensor(a)), axis=1).data
    second = ad.softmax(ad.tanh(ad.Tensor(a)), axis=1).data
    assert np.array_equal(first, second)


class TestParameterStore:
    def test_add_keeps_a_float64_array_without_a_copy(self):
        data = rand((3, 2))
        assert ad.ParameterStore().add("w", data).data is data

    def test_registration_and_order(self):
        store = ad.ParameterStore()
        store.add("b", np.zeros(2))
        store.add("a", np.ones(2))
        assert store.names() == ["b", "a"]
        with pytest.raises(ValueError, match="duplicate"):
            store.add("a", np.zeros(1))

    def test_zero_grads_and_decay_split(self):
        store = ad.ParameterStore()
        w = store.add("w", np.ones((2, 2)))
        store.add("bias", np.ones(2), no_decay=True)
        ad.backward(ad.reduce_sum(w))
        assert w.grad.sum() == 4.0
        store.zero_grads()
        assert w.grad.sum() == 0.0
        assert [n for n, _ in store.decayed_items()] == ["w"]

    def test_frozen_records_no_tape_and_restores_each_flag(self):
        store = ad.ParameterStore()
        w = store.add("w", np.ones((2, 2)))
        fixed = store.add("fixed", np.ones(2))
        fixed.requires_grad = False
        grads = (w.grad, fixed.grad)
        with pytest.raises(ad.NonFiniteError):
            with store.frozen():
                assert not w.requires_grad
                out = ad.relu(ad.matmul(w, fixed))
                assert not out.requires_grad and out._parents == () and out._kink is None
                ad.scale(out, np.inf)
        assert w.requires_grad and not fixed.requires_grad
        assert w.grad is grads[0] and fixed.grad is grads[1]

    def test_state_roundtrip(self):
        store = ad.ParameterStore()
        store.add("w", rand((3, 2)))
        state = store.state_dict()
        store["w"].data[:] = 0.0
        store.load_state_dict(state)
        assert np.array_equal(store["w"].data, state["w"])
        with pytest.raises(ValueError, match="state mismatch"):
            store.load_state_dict({})

    def test_load_copies_into_the_existing_arrays(self):
        store = ad.ParameterStore()
        w = store.add("w", rand((3, 2)))
        array = w.data
        state = {"w": rand((3, 2), 1)}
        store.load_state_dict(state)
        assert w.data is array and np.array_equal(w.data, state["w"])
        assert not np.shares_memory(w.data, state["w"])

    def test_shape_mismatch_on_the_last_tensor_loads_nothing(self):
        store = ad.ParameterStore()
        for i, shape in enumerate([(3, 2), (4,), (2, 2)]):
            store.add(f"p{i}", rand(shape, i))
        before = store.state_dict()
        state = {"p0": rand((3, 2), 7), "p1": rand((4,), 8), "p2": rand((2, 3), 9)}
        with pytest.raises(ad.ShapeError, match="'p2'"):
            store.load_state_dict(state)
        for name, t in store.items():
            assert np.array_equal(t.data, before[name])


def _small_model(heads=2, width=1, d_h=2, gcn_layers=1, ffn_width=3, vocab_size=3):
    config = TrainConfig(d_w=math.lcm(2, heads) * width, d_h=d_h, gcn_layers=gcn_layers,
                         heads=heads, ffn_width=ffn_width, use_sdi_weights=False)
    vocab = Vocab([PAD_TOKEN, UNK_TOKEN] + [f"w{i}" for i in range(vocab_size)])
    return AspectSentimentModel(config, vocab)


def test_tensor_container_roundtrip_is_bit_exact(tmp_path):
    # the parameter store's tensors travel to disk and back in the checkpoint
    model = _small_model()
    rng = np.random.default_rng(7)
    state = {name: rng.normal(size=t.data.shape) for name, t in model.parameters.items()}
    state["classifier.b"].flat[0] = np.pi
    path = tmp_path / "params.npz"
    save_checkpoint(path, model, state=state)
    loaded = load_checkpoint(path).parameters
    assert [name for name, _ in loaded.items()] == list(state)
    for name, arr in state.items():
        assert loaded[name].data.shape == arr.shape
        assert np.array_equal(loaded[name].data, arr)
        assert loaded[name].data.tobytes() == arr.tobytes()


_special_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                   1.7976931348623157e308, float("inf"), float("-inf")])
_tensor_values = st.one_of(st.floats(allow_nan=True, allow_infinity=True), _special_floats)


@st.composite
def _models_with_state(draw):
    """A model whose parameter names and shapes follow a drawn config, and a state for it.

    Each state array takes its values from a drawn pool and is laid out in C or
    Fortran order.
    """
    model = _small_model(heads=draw(st.integers(1, 3)), width=draw(st.integers(1, 2)),
                         d_h=draw(st.integers(1, 3)), gcn_layers=draw(st.integers(1, 3)),
                         ffn_width=draw(st.integers(1, 4)), vocab_size=draw(st.integers(0, 4)))
    pool = np.array(draw(st.lists(_tensor_values, min_size=1, max_size=16)), dtype=np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = {}
    for name, t in model.parameters.items():
        values = pool[rng.integers(0, len(pool), size=t.data.size)]
        state[name] = values.reshape(t.data.shape, order=draw(st.sampled_from("CF")))
    return model, state


@settings(max_examples=80, deadline=None)
@given(model_state=_models_with_state())
def test_tensor_container_round_trips_any_names_shapes_and_values(tmp_path_factory,
                                                                    model_state):
    model, state = model_state
    path = tmp_path_factory.mktemp("tensors") / "params.npz"
    save_checkpoint(path, model, state=state)
    loaded = load_checkpoint(path).parameters
    assert [name for name, _ in loaded.items()] == list(state)
    for name, arr in state.items():
        data = loaded[name].data
        assert data.dtype == np.float64 and data.shape == arr.shape
        assert data.tobytes() == arr.tobytes()  # bit-exact: -0.0, NaN, subnormals
        assert data.flags.writeable
    assert os.listdir(path.parent) == ["params.npz"]
