from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigraph import autodiff as ad
from sentigraph.autodiff import ParameterStore, Tensor
from sentigraph.bigcn import (
    bigcn_stack,
    init_gcn_layer,
    init_gcn_stack,
    receptive_field,
)
from sentigraph.corpus import AspectSample
from sentigraph.synthetic import random_tree_sample
from sentigraph.syntax import build_adjacency


def chain_sample(n):
    deps = [(-1, 0, "root")] + [(i - 1, i, "dep") for i in range(1, n)]
    return AspectSample(tokens=tuple(f"w{i}" for i in range(n)), aspect_start=0,
                        aspect_len=1, label="neutral", deps=tuple(deps))


def chain_graph(n):
    """The binary graph entries and out-degrees of an n-token chain."""
    return build_adjacency([chain_sample(n)], None, Counter())


def self_loops(n):
    """The entries of the n x n identity matrix."""
    return ad.SparseMatrix(np.arange(n), np.arange(n), np.ones(n), (n, n))


def one_layer(h, adj, deg, p):
    """A one-layer stack: the layer applied to every row."""
    return bigcn_stack(h, adj, deg, [p])


def graphs_of(samples):
    """Each sample's binary graph entries and out-degrees, as two lists."""
    graphs, degrees = zip(*(build_adjacency([s], None, Counter()) for s in samples))
    return list(graphs), list(degrees)


def packed(graphs):
    """The entries of the block-diagonal matrix of ``graphs``, read from its dense form."""
    n = sum(g.shape[0] for g in graphs)
    dense = np.zeros((n, n))
    lo = 0
    for g in graphs:
        dense[lo:lo + g.shape[0], lo:lo + g.shape[0]] = np.asarray(g)
        lo += g.shape[0]
    row, col = dense.nonzero()
    return ad.SparseMatrix(row, col, dense[row, col], (n, n))


def dense_oracle(h0, adj, deg, p):
    """Straight numpy transcription of one layer, independent of the autodiff path."""
    adj = np.asarray(adj)
    fwd = adj @ (h0 @ p.w_fwd.data)
    if p.w_bwd is not None:
        bwd = adj.T @ (h0 @ p.w_bwd.data)
        cat = np.concatenate([fwd, bwd], axis=1)
    else:
        cat = fwd
    normed = cat / (deg + 1.0)[:, None]
    return np.maximum(normed @ p.w_out.data + p.b_out.data, 0.0)


def layer(d_in=4, d_out=4, seed=0, bidirectional=True):
    store = ParameterStore()
    p = init_gcn_layer(store, "gcn", d_in, d_out, np.random.default_rng(seed),
                       bidirectional=bidirectional)
    return p, store


class TestBigcnLayer:
    def test_single_node_closed_form(self, rng):
        p, _ = layer()
        h = rng.normal(size=(1, 4))
        out = one_layer(Tensor(h), self_loops(1), np.zeros(1), p).data
        cat = np.concatenate([h @ p.w_fwd.data, h @ p.w_bwd.data], axis=1)
        expected = np.maximum(cat @ p.w_out.data + p.b_out.data, 0.0)
        assert np.allclose(out, expected, atol=1e-12)

    def test_all_zero_parameters_give_zero_output(self, rng):
        p, store = layer()
        for t in store.tensors():
            t.data[:] = 0.0
        adj, deg = chain_graph(3)
        out = one_layer(Tensor(rng.normal(size=(3, 4))), adj, deg, p)
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_three_node_chain_matches_dense_oracle(self, rng):
        p, _ = layer(seed=2)
        adj, deg = chain_graph(3)
        h0 = rng.normal(size=(3, 4))
        out = one_layer(Tensor(h0), adj, deg, p).data
        assert np.allclose(out, dense_oracle(h0, adj, deg, p), atol=1e-12)

    def test_unidirectional_variant_matches_oracle(self, rng):
        p, _ = layer(seed=3, bidirectional=False)
        adj, deg = chain_graph(4)
        h0 = rng.normal(size=(4, 4))
        out = one_layer(Tensor(h0), adj, deg, p).data
        assert np.allclose(out, dense_oracle(h0, adj, deg, p), atol=1e-12)

    def test_zero_inputs_yield_relu_bias_everywhere(self, rng):
        p, _ = layer(seed=4)
        p.b_out.data[:] = rng.normal(size=4)
        adj, deg = chain_graph(5)
        out = one_layer(Tensor(np.zeros((5, 4))), adj, deg, p)
        expected_row = np.maximum(p.b_out.data, 0.0)
        assert np.array_equal(out.data, np.tile(expected_row, (5, 1)))

    def test_shape_mismatch_rejected(self, rng):
        p, _ = layer()
        with pytest.raises(ad.ShapeError, match="adjacency"):
            one_layer(Tensor(rng.normal(size=(3, 4))), self_loops(2), np.zeros(2), p)
        with pytest.raises(ad.ShapeError, match="width"):
            one_layer(Tensor(rng.normal(size=(2, 5))), self_loops(2), np.zeros(2), p)
        with pytest.raises(ad.ShapeError, match="degrees"):
            one_layer(Tensor(rng.normal(size=(2, 4))), self_loops(2), np.zeros(3), p)

    def test_dense_sentence_matrix_equals_its_entries(self, rng):
        # one sentence's dense matrix as a Tensor enters as its nonzero entries
        p, _ = layer(seed=9)
        adj, deg = chain_graph(4)
        h0 = Tensor(rng.normal(size=(4, 4)))
        assert np.array_equal(one_layer(h0, Tensor(np.asarray(adj)), deg, p).data,
                              one_layer(h0, adj, deg, p).data)


class TestTransposePathCounter:
    def test_counts_bidirectional_evaluations_only(self, rng, transpose_calls):
        adj, deg = chain_graph(3)
        h = Tensor(rng.normal(size=(3, 4)))

        p_uni, _ = layer(bidirectional=False)
        one_layer(h, adj, deg, p_uni)
        assert len(transpose_calls) == 0

        p_bi, _ = layer()
        one_layer(h, adj, deg, p_bi)
        assert len(transpose_calls) == 1


class TestBigcnStack:
    def stack(self, n_layers, d=4, seed=5, bidirectional=True):
        store = ParameterStore()
        layers = init_gcn_stack(store, "gcn", d, n_layers,
                                np.random.default_rng(seed), bidirectional=bidirectional)
        return layers, store

    def test_three_layer_output_shape_and_finiteness(self, rng):
        layers, _ = self.stack(3)
        adj, deg = chain_graph(5)
        out = bigcn_stack(Tensor(rng.normal(size=(5, 4))), adj, deg, layers)
        assert out.shape == (5, 4)
        assert np.all(np.isfinite(out.data))

    def test_packed_blocks_match_each_sentence(self, rng):
        layers, store = self.stack(2, seed=10)
        graphs, degrees = graphs_of([chain_sample(n) for n in (3, 1, 5)])
        g = graphs[2]  # an entry off the tree, at a position whose transpose is empty
        graphs[2] = ad.SparseMatrix(np.append(g.row, 4), np.append(g.col, 0),
                                    np.append(g.value, 0.5), g.shape)
        h0 = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        weight = Tensor(rng.normal(size=(9, 4)))

        def grads(loss):
            for t in [h0] + store.tensors():
                t.zero_grad()
            ad.backward(loss)
            return [t.grad.copy() for t in [h0] + store.tensors()]

        batch = bigcn_stack(h0, packed(graphs), np.concatenate(degrees), layers)
        batch_grads = grads(ad.reduce_sum(ad.mul(batch, weight)))
        parts, loss = [], None
        for lo, hi, adj, deg in zip((0, 3, 4), (3, 4, 9), graphs, degrees):
            out = bigcn_stack(ad.slice_axis(h0, 0, lo, hi), adj, deg, layers)
            part = ad.reduce_sum(ad.mul(out, Tensor(weight.data[lo:hi])))
            parts.append(out.data)
            loss = part if loss is None else ad.add(loss, part)
        for got, want in zip([batch.data] + batch_grads, [np.concatenate(parts)] + grads(loss)):
            assert np.max(np.abs(got - want)) < 1e-12

    def test_rows_must_be_a_boolean_mask_of_every_row(self, rng):
        layers, _ = self.stack(2)
        adj, deg = chain_graph(3)
        h0 = Tensor(rng.normal(size=(3, 4)))
        for rows in (np.ones(4, dtype=bool), np.array([0, 2]), np.ones(3)):
            with pytest.raises(ad.ShapeError, match="rows"):
                bigcn_stack(h0, adj, deg, layers, rows)

    def test_empty_stack_rejected(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            bigcn_stack(Tensor(rng.normal(size=(2, 4))), self_loops(2), np.zeros(2), [])

    def test_gradient_check_through_two_layers(self):
        layers, store = self.stack(2, d=3, seed=6)
        adj, deg = chain_graph(4)
        h0 = Tensor(np.random.default_rng(9).normal(size=(4, 3)), requires_grad=True)

        def loss(*_inputs):
            return ad.reduce_sum(bigcn_stack(h0, adj, deg, layers))

        report = ad.finite_diff_check(loss, [h0] + store.tensors(), eps=1e-5)
        assert report.max_rel_error < 1e-4

    def test_locality_radius_bounded_by_depth(self, rng):
        # on a path graph, nodes farther than the layer count stay bitwise unchanged
        n = 6
        adj, deg = chain_graph(n)
        for n_layers in (1, 2):
            layers, _ = self.stack(n_layers, seed=7)
            h0 = rng.normal(size=(n, 4))
            base = bigcn_stack(Tensor(h0), adj, deg, layers).data
            bumped = h0.copy()
            bumped[n - 1] += 0.5
            after = bigcn_stack(Tensor(bumped), adj, deg, layers).data
            for i in range(n):
                if (n - 1) - i > n_layers:
                    assert np.array_equal(base[i], after[i]), (n_layers, i)

    def test_identity_adjacency_isolates_nodes(self, rng):
        layers, _ = self.stack(2, seed=8)
        n = 4
        adj = self_loops(n)
        h0 = rng.normal(size=(n, 4))
        base = bigcn_stack(Tensor(h0), adj, np.zeros(n), layers).data
        bumped = h0.copy()
        bumped[1] += 1.0
        after = bigcn_stack(Tensor(bumped), adj, np.zeros(n), layers).data
        for i in range(n):
            if i != 1:
                assert np.array_equal(base[i], after[i])
        assert not np.array_equal(base[1], after[1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_samples=st.integers(1, 3),
       n_layers=st.integers(1, 3), bidirectional=st.booleans(), share=st.floats(0.0, 1.0))
def test_receptive_field_matches_dense_bfs(seed, n_samples, n_layers, bidirectional, share):
    rng = np.random.default_rng(seed)
    graphs, _ = graphs_of([random_tree_sample(rng, n=int(n))
                           for n in rng.integers(1, 41, n_samples)])
    adjacency = packed(graphs)
    n, dense = adjacency.shape[0], np.asarray(adjacency)
    linked = (dense + dense.T) > 0 if bidirectional else dense > 0
    rows = rng.random(n) < share
    layers = init_gcn_stack(ParameterStore(), "gcn", 2, n_layers, rng,
                            bidirectional=bidirectional)

    hops = receptive_field(adjacency, rows, layers)
    reached = rows
    for l in range(n_layers - 1, -1, -1):
        # a layer computes what the next one reads: its rows plus their neighbours
        out = np.flatnonzero(reached)
        assert np.array_equal(hops[l].out, out)
        inputs = hops[l - 1].out if l else np.arange(n)
        assert np.array_equal(np.asarray(hops[l].forward), dense[np.ix_(out, inputs)])
        if bidirectional:
            assert np.array_equal(np.asarray(hops[l].reverse), dense[np.ix_(inputs, out)])
        else:
            assert hops[l].reverse is None
        reached = reached | linked[reached].any(axis=0)
