import dataclasses
import json
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigraph.corpus import AspectSample, load_dataset, save_dataset
from sentigraph.syntax import SdiTable, build_adjacency, collect_sdi_stats

from conftest import random_tree_sample
from per_sample_reference import reference_adjacency


def sample_with(deps, n=None):
    n = n if n is not None else max(max(h, d) for h, d, _ in deps) + 1
    return AspectSample(tokens=tuple(f"w{i}" for i in range(n)), aspect_start=0,
                        aspect_len=1, label="neutral", deps=tuple(deps))


TOY = [
    sample_with([(-1, 0, "root"), (0, 1, "nsubj"), (0, 2, "dobj")]),
    sample_with([(-1, 0, "root"), (0, 1, "nsubj"), (1, 2, "amod")]),
]


def json_round_trip(table) -> SdiTable:
    """The relation statistics as the checkpoint and the train manifest store and read them."""
    return SdiTable.from_dict(json.loads(json.dumps(table.as_dict())))


# any relation name load_dataset accepts: no tab, CR or LF (and, as text, no surrogates)
_relation = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n"),
                    max_size=12)


@settings(max_examples=60, deadline=None)
@given(relations=st.lists(st.one_of(st.just("total_edges"), _relation), min_size=1, max_size=8))
def test_sdi_table_save_load_round_trips(tmp_path_factory, relations):
    path = tmp_path_factory.mktemp("sdi") / "data.jsonl"
    save_dataset(path, [sample_with([(-1, 0, "root")]
                                    + [(0, i, rel) for i, rel in enumerate(relations, 1)])])
    table = collect_sdi_stats(load_dataset(path))
    restored = json_round_trip(table)
    assert restored == table
    assert list(restored.ratios.items()) == list(table.ratios.items())


class TestCollectSdiStats:
    def test_hand_counted_ratios(self):
        # 4 non-root edges: nsubj, dobj, nsubj, amod
        table = collect_sdi_stats(TOY)
        assert table.total_edges == 4
        assert table.ratios == {"nsubj": 0.5, "dobj": 0.25, "amod": 0.25}

    def test_single_label_corpus(self):
        table = collect_sdi_stats([sample_with([(-1, 0, "root"), (0, 1, "conj"), (0, 2, "conj")])])
        assert table.ratios == {"conj": 1.0}

    def test_zero_edges_rejected(self):
        single = sample_with([(-1, 0, "root")], n=1)
        with pytest.raises(ValueError, match="denominator"):
            collect_sdi_stats([single])

    def test_root_edges_are_never_counted(self):
        assert "root" not in collect_sdi_stats(TOY).ratios
        # a root pseudo-edge is known by its head, whatever its label
        table = collect_sdi_stats([sample_with([(-1, 0, "nsubj"), (0, 1, "nsubj")])])
        assert (table.total_edges, table.ratios) == (1, {"nsubj": 1.0})

    def test_punctuation_edges_are_counted(self):
        samples = [sample_with([(-1, 0, "root"), (0, 1, "punct"), (0, 2, "nsubj")])]
        assert collect_sdi_stats(samples).ratios == {"punct": 0.5, "nsubj": 0.5}

    def test_order_independence(self, rng):
        samples = [random_tree_sample(rng, n=6) for _ in range(30)]
        forward = collect_sdi_stats(samples)
        backward = collect_sdi_stats(list(reversed(samples)))
        assert forward == backward

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_ratios_sum_to_one(self, seed):
        gen = np.random.default_rng(seed)
        samples = [random_tree_sample(gen, n=int(gen.integers(2, 9))) for _ in range(5)]
        table = collect_sdi_stats(samples)
        assert sum(table.ratios.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(r > 0 for r in table.ratios.values())

    def test_save_load_roundtrip_exact(self):
        table = collect_sdi_stats(TOY)
        assert table.as_dict() == {"total_edges": 4,
                                   "ratios": {"nsubj": 0.5, "dobj": 0.25, "amod": 0.25}}
        assert json_round_trip(table) == table


def binary(sample):
    """The binary graph as a dense matrix, and the out-degrees."""
    adj, degrees = build_adjacency([sample], None, Counter())
    return np.asarray(adj), degrees


class TestBinaryAdjacency:
    def test_single_token(self):
        adj, degrees = binary(sample_with([(-1, 0, "root")], n=1))
        assert adj.tolist() == [[1.0]]
        assert degrees.tolist() == [0.0]

    def test_three_token_chain(self):
        # edges 0->1 and 1->2: ones at the diagonal plus (0,1) and (1,2)
        chain = sample_with([(-1, 0, "root"), (0, 1, "nsubj"), (1, 2, "dobj")])
        expected = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=float)
        assert np.array_equal(binary(chain)[0], expected)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_entries_are_binary(self, seed):
        rng = np.random.default_rng(seed)
        adj, _ = binary(random_tree_sample(rng, n=int(rng.integers(1, 9))))
        assert set(np.unique(adj)) <= {0.0, 1.0}
        assert np.all(np.diag(adj) == 1.0)

    def test_out_degrees_exclude_self_loop(self):
        chain = sample_with([(-1, 0, "root"), (0, 1, "nsubj"), (1, 2, "dobj")])
        assert binary(chain)[1].tolist() == [1.0, 1.0, 0.0]

    def test_binary_graph_counts_no_relation(self):
        unseen = Counter()
        build_adjacency([sample_with([(-1, 0, "root"), (0, 1, "xcomp")])], None, unseen)
        assert unseen == Counter()


class TestSdiAdjacency:
    def test_single_token(self):
        table = collect_sdi_stats(TOY)
        adj, degrees = build_adjacency([sample_with([(-1, 0, "root")], n=1)], table, Counter())
        assert np.asarray(adj).tolist() == [[1.0]]
        assert degrees.tolist() == [0.0]

    def test_edge_weight_is_relation_ratio(self):
        table = collect_sdi_stats(TOY)
        sample = sample_with([(-1, 0, "root"), (0, 1, "nsubj")])
        adj = np.asarray(build_adjacency([sample], table, Counter())[0])
        assert adj[0, 1] == 0.5
        assert adj[1, 0] == 0.0

    def test_unseen_relation_falls_back_with_warning(self):
        # the fallback is counted per relation, not warned about
        table = collect_sdi_stats(TOY)
        sample = sample_with([(-1, 0, "root"), (0, 1, "xcomp"), (0, 2, "xcomp")], n=3)
        unseen, other = Counter(), Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adj = np.asarray(build_adjacency([sample], table, unseen)[0])
            build_adjacency([sample], table, other)
        assert adj[0, 1] == adj[0, 2] == table.min_ratio
        assert unseen == other == Counter({"xcomp": 2})

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_each_unseen_edge_is_counted_once(self, seed):
        gen = np.random.default_rng(seed)
        table = collect_sdi_stats(TOY)
        sample = random_tree_sample(gen, n=int(gen.integers(1, 12)))
        sample = dataclasses.replace(sample, deps=tuple(
            (h, d, str(gen.choice(["nsubj", "rare_a", "rare_b"]))) for h, d, _ in sample.deps))
        unseen = Counter()
        adj = np.asarray(build_adjacency([sample], table, unseen)[0])
        edges = [(h, d, r) for h, d, r in sample.deps if h != -1]
        assert unseen == Counter(r for _, _, r in edges if r not in table.ratios)
        for h, d, r in edges:
            assert adj[h, d] == table.ratios.get(r, table.min_ratio)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_zero_pattern_matches_binary(self, seed):
        gen = np.random.default_rng(seed)
        samples = [random_tree_sample(gen, n=int(gen.integers(2, 9))) for _ in range(4)]
        table = collect_sdi_stats(samples)
        for sample in samples:
            binary_adj, binary_deg = binary(sample)
            weighted, weighted_deg = build_adjacency([sample], table, Counter())
            weighted = np.asarray(weighted)
            assert np.array_equal(weighted != 0, binary_adj != 0)
            assert np.all(weighted >= 0) and np.all(weighted <= 1)
            assert np.all(np.diag(weighted) == 1.0)
            assert weighted_deg.tobytes() == binary_deg.tobytes()
            assert np.array_equal(binary_deg, binary_adj.sum(axis=1) - 1.0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), weighted=st.booleans(), unseen_share=st.floats(0.0, 1.0))
def test_entries_equal_the_dense_oracles_nonzeros(seed, weighted, unseen_share):
    # entries, weights, degrees and unseen counts, byte for byte, in row-major order
    gen = np.random.default_rng(seed)
    sample = random_tree_sample(gen, n=int(gen.integers(1, 60)))
    table = collect_sdi_stats([sample, *TOY]) if weighted else None
    # a share of the edges carries relations the statistics lack
    sample = dataclasses.replace(sample, deps=tuple(
        (h, d, f"rare_{gen.integers(3)}" if gen.random() < unseen_share else r)
        for h, d, r in sample.deps))
    unseen, want_unseen = Counter(), Counter()
    got, degrees = build_adjacency([sample], table, unseen)
    dense, want_degrees = reference_adjacency(sample, table, want_unseen)
    row, col = dense.nonzero()
    assert got.shape == dense.shape
    assert got.row.tobytes() == row.tobytes() and got.col.tobytes() == col.tobytes()
    assert got.value.tobytes() == dense[row, col].tobytes()
    assert degrees.tobytes() == want_degrees.tobytes()
    assert unseen == want_unseen


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_samples=st.integers(1, 8), weighted=st.booleans(),
       unseen_share=st.floats(0.0, 1.0))
def test_batch_entries_equal_the_per_sample_builds_offset(seed, n_samples, weighted,
                                                          unseen_share):
    gen = np.random.default_rng(seed)
    batch = [random_tree_sample(gen, n=int(gen.integers(1, 12))) for _ in range(n_samples)]
    table = collect_sdi_stats([*batch, *TOY]) if weighted else None
    batch = [dataclasses.replace(sample, deps=tuple(
        (h, d, f"rare_{gen.integers(3)}" if gen.random() < unseen_share else r)
        for h, d, r in sample.deps)) for sample in batch]
    unseen, want_unseen = Counter(), Counter()
    got, degrees = build_adjacency(batch, table, unseen)
    graphs, want_degrees = zip(*(build_adjacency([s], table, want_unseen) for s in batch))
    offsets = np.cumsum([0] + [s.n for s in batch])[:-1]
    n = sum(s.n for s in batch)
    assert got.shape == (n, n)
    for part in ("row", "col"):
        want = np.concatenate([getattr(g, part) + lo for g, lo in zip(graphs, offsets)])
        assert getattr(got, part).tobytes() == want.tobytes()
    assert got.value.tobytes() == np.concatenate([g.value for g in graphs]).tobytes()
    assert degrees.tobytes() == np.concatenate(want_degrees).tobytes()
    assert list(unseen.items()) == list(want_unseen.items())  # the same counts, in order
