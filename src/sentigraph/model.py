"""Full classifier assembly: encoders -> graph convolution -> masked attention -> softmax.

The forward pass takes a batch of B samples. A training forward records
one tape for it; ``predict`` and ``predict_all`` run theirs with the
parameters frozen (``ParameterStore.frozen``), so they record none.
The token rows of all B sentences are stacked into one packed matrix of
N_total rows, laid out by one ``autodiff.SegmentLayout`` that the forward
builds and every packed function takes:

    embeddings -> Bi-LSTM context states      (N_total x 2*d_h)
               -> transformer global features (N_total x d_w, every head in one node)
    context states + the batch's weighted dependency graph (N_total x N_total entries)
    -> stacked Bi-GCN -> aspect masks
    -> retrieval attention within each sentence -> pooled rows (B x 2*d_h)
    -> fused with each sentence's projected transformer mean
    -> 3-way softmax, one row per sample (B x 3)

The attention is ASGCN's retrieval attention (Zhang et al. 2019,
arXiv:1909.03477): it scores and pools the Bi-LSTM states against the
aspect-masked Bi-GCN output. So the Bi-GCN output reaches the loss only
through the aspect masks. The stack computes, at each layer, only the
rows the aspect rows depend on, and its output, zero outside them, is
the mask.

Nothing mixes sentences: a sample's probabilities are the same alone and
at any position in any batch, up to rounding. ``predict(sample)`` is a
batch of one; ``predict_all`` sorts the samples by length and runs them in
chunks of at most ``INFERENCE_CHUNK_ROWS`` padded rows (``inference_chunks``).
``config.batch_size`` sizes training batches only.

The model owns its embedding table, one row per vocabulary id. Every row
is drawn uniform in [-0.25, 0.25] from the seed's ``"oov"`` stream; the
``pretrained`` vectors (vocabulary id -> row, as
``corpus.load_pretrained_embeddings`` returns them) are then copied over
their rows, and the padding row is set to zero, whatever a vectors file
gives it. The model holds copies, so training never writes to the
caller's arrays.

``adjacency`` builds the batch's graph, every sentence's at once, in one
pass. ``config.graph`` names the ablation variant: ``full`` weighs each edge
by its relation's training ratio and passes messages both ways,
``no_edge_weights`` weighs every edge 1, ``no_dependency`` keeps the
self-loops alone and ``no_bidirectional`` drops the reverse direction.
Edges whose relation the training statistics lack are weighted at the
smallest ratio and counted per relation in ``unseen_relations``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import bigcn, encoders, head
from .autodiff import FiniteDiffReport, ParameterStore, Tensor
from .config import TrainConfig
from .corpus import LABELS, PAD_ID, AspectSample, Vocab, build_vocab
from .head import Prediction
from .syntax import SdiTable, build_adjacency, collect_sdi_stats
from .synthetic import random_tree_sample
from .util import make_rng

# An inference chunk's padded size (sample count x longest sentence) stays
# within this cap. Each forward pays a fixed cost per op, which favours few
# large chunks; the Bi-LSTM's time-major blocks and the attention's score
# stacks grow with count x longest. Of the caps 512-2048 and one chunk, 1024
# evaluated both benchmark test files fastest.
INFERENCE_CHUNK_ROWS = 1024


@dataclass
class ForwardPass:
    """Intermediates of one batch's forward computation, packed as described above."""

    layout: ad.SegmentLayout     # the B samples' rows: lengths, offsets, seq, pos
    embedded: Tensor             # N_total x d_w
    h_lstm: Tensor               # N_total x 2*d_h
    z_out: Tensor                # N_total x d_w
    adjacency: ad.SparseMatrix   # N_total x N_total, every sample's graph entries
    degrees: np.ndarray          # (N_total,)
    h_gcn: Tensor                # N_total x 2*d_h; 0 outside the aspect rows: the mask
    alpha: Tensor                # (N_total,), sums to 1 within each sample
    pooled: Tensor               # B x 2*d_h
    res_out: Tensor              # B x 2*d_h
    prob: Tensor                 # B x 3


class AspectSentimentModel:
    """Bundles parameters, vocabulary, and relation statistics for one configuration."""

    def __init__(self, config: TrainConfig, vocab: Vocab,
                 sdi: SdiTable | None = None,
                 pretrained: dict[int, np.ndarray] | None = None):
        config.validate()
        if config.edge_weighted and sdi is None:
            raise ValueError("edge-weighted adjacency requires relation statistics")
        self.config = config
        self.vocab = vocab
        self.sdi = sdi
        # edges whose relation the statistics lack, per relation, over every forward
        self.unseen_relations: Counter[str] = Counter()

        vectors = make_rng(config.seed, "oov").uniform(-0.25, 0.25,
                                                       size=(len(vocab), config.d_w))
        for token_id, row in (pretrained or {}).items():
            vectors[token_id] = row
        vectors[PAD_ID] = 0.0

        rng = make_rng(config.seed, "init")
        store = ParameterStore()
        self.embedding = store.add("embedding", vectors)
        self.lstm = encoders.init_bilstm_params(store, "lstm", config.d_w, config.d_h, rng)
        self.transformer = encoders.init_transformer_params(
            store, "transformer", config.d_model, config.heads, config.ffn_width, rng)
        self.gcn_layers = bigcn.init_gcn_stack(
            store, "gcn", config.d_context, config.gcn_layers, rng,
            bidirectional=config.graph != "no_bidirectional")
        self.fusion = head.init_fusion_params(
            store, "fusion", config.d_model, config.d_context, rng)
        self.classifier = head.init_classifier_params(
            store, "classifier", config.d_context, len(LABELS), rng)
        self.parameters = store

    def adjacency(self, samples: AspectSample | list[AspectSample]
                  ) -> tuple[ad.SparseMatrix, np.ndarray]:
        """The packed graph entries and out-degrees this configuration consumes for a batch.

        ``samples`` is a list, as for ``syntax.build_adjacency``, or one sample
        (the form perfbench/probes.py passes).
        """
        samples = [samples] if isinstance(samples, AspectSample) else samples
        if self.config.graph == "no_dependency":  # the self-loops alone
            n = sum(s.n for s in samples)
            return ad.SparseMatrix(np.arange(n), np.arange(n), np.ones(n), (n, n)), np.zeros(n)
        sdi = self.sdi if self.config.edge_weighted else None
        return build_adjacency(samples, sdi, self.unseen_relations)

    def forward(self, samples: list[AspectSample]) -> ForwardPass:
        """One packed forward pass over a non-empty batch of samples."""
        layout = ad.segment_layout([s.n for s in samples])
        embedded = encoders.embed_sequence(samples, self.vocab, self.embedding)
        h_lstm = encoders.bilstm_encode(embedded, self.lstm, layout)
        z_out = encoders.transformer_encode(embedded, self.transformer, layout)
        adjacency, degrees = self.adjacency(samples)
        rows = head.aspect_rows([(s.aspect_start, s.aspect_len) for s in samples], layout)
        h_gcn = bigcn.bigcn_stack(h_lstm, adjacency, degrees, self.gcn_layers, rows)
        alpha, pooled = head.aspect_attention(h_lstm, h_gcn, layout)
        res_out = head.fuse(pooled, z_out, self.fusion, layout)
        prob = head.classify(res_out, self.classifier)
        return ForwardPass(layout=layout, embedded=embedded,
                           h_lstm=h_lstm, z_out=z_out, adjacency=adjacency,
                           degrees=degrees, h_gcn=h_gcn, alpha=alpha,
                           pooled=pooled, res_out=res_out, prob=prob)

    def predict(self, sample: AspectSample) -> Prediction:
        """The sample's prediction: ``predict_all`` of a batch of one, which records no tape."""
        return self.predict_all([sample])[0]

    def predict_all(self, samples) -> list[Prediction]:
        """Predictions for every sample, in input order, from forwards that record no tape.

        The samples run in the chunks of ``inference_chunks``: sorted by
        length, so a chunk's sentences pad the LSTM and attention blocks
        little, and cut at ``INFERENCE_CHUNK_ROWS`` padded rows.
        """
        samples = list(samples)
        predictions = [None] * len(samples)
        with self.parameters.frozen():
            for chunk in inference_chunks([s.n for s in samples]):
                prob = self.forward([samples[i] for i in chunk]).prob.data
                for i, p in zip(chunk, head.predictions(prob)):
                    predictions[i] = p
        return predictions


def inference_chunks(lengths: list[int]) -> list[list[int]]:
    """Index chunks for inference over sentences of these lengths.

    A stable sort by length, cut greedily: a chunk takes the next sentence
    while its count times its longest stays within ``INFERENCE_CHUNK_ROWS``.
    A sentence longer than the cap runs alone. No lengths give no chunks.
    """
    chunks: list[list[int]] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if chunks and (len(chunks[-1]) + 1) * lengths[i] <= INFERENCE_CHUNK_ROWS:
            chunks[-1].append(i)
        else:
            chunks.append([i])
    return chunks


# ---------------------------------------------------------------------------
# gradient-check suite

GRADCHECK_SEED = 7
GRADCHECK_EPS = 1e-5
GRADCHECK_THRESHOLD = 1e-4  # the largest relative error ``sentigraph gradcheck`` passes


def _op_checks() -> list[tuple[str, callable, list[np.ndarray]]]:
    """One ``(name, fn, inputs)`` check per op a training step records, named as the op.

    ``fn`` scores the op's output as ``reduce_sum(mul(out, w))`` with a fixed
    random ``w``; every draw comes from the ``"gradcheck.ops"`` stream.
    """
    rng = make_rng(GRADCHECK_SEED, "gradcheck.ops")

    def arr(*shape):
        return rng.normal(size=shape)

    # three packed sequences, given unsorted so the LSTM reorders them, and one sequence
    packed, one = ad.segment_layout((2, 3, 1)), ad.segment_layout([6])
    ids = np.array([0, 2, 2, 1])  # a repeated row and an unread one
    # 14 entries of a 6 x 6 matrix: unsorted, one position repeated, row and column 5 empty
    sparse = ad.SparseMatrix(np.arange(14) % 5, 2 * np.arange(14) % 5, arr(14), (6, 6))
    ops = [
        ("add", lambda a, b, c: ad.add(ad.add(a, b), c), [arr(3, 4), arr(4), arr(3, 4)]),
        # the packed sequences and one sequence
        ("attention", lambda q, k, v: ad.concat(
            [ad.attention(q, k, v, 2, packed), ad.attention(q, k, v, 2, one)], axis=1),
         [arr(6, 4), arr(6, 4), arr(6, 2)]),
        ("clamp_min", lambda a: ad.clamp_min(a, 0.1), [arr(3, 4)]),
        ("concat", lambda a, b: ad.concat([a, b], axis=1), [arr(3, 2), arr(3, 3)]),
        # a leaf table, as the embedding's, and an op's output, as the attention keys'
        ("gather_rows", lambda t, u: ad.concat(
            [ad.gather_rows(t, ids), ad.gather_rows(ad.scale(u, 1.5), ids)], axis=1),
         [arr(4, 3), arr(4, 2)]),
        ("layer_norm", ad.layer_norm, [arr(4, 6), arr(6), arr(6)]),
        ("log", ad.log, [np.abs(arr(3, 3)) + 0.5]),
        # both directions, over one sequence and over the packed sequences
        ("lstm", lambda x, wx, wh, b: ad.concat(
            [ad.lstm(x, wx, wh, b, layout, reverse=reverse)
             for layout in (one, packed) for reverse in (False, True)], axis=1),
         [arr(6, 3), arr(3, 8), arr(2, 8), arr(8)]),
        ("matmul", ad.matmul, [arr(3, 4), arr(4, 2)]),
        ("mul", ad.mul, [arr(4, 4), arr(4, 4)]),
        ("reduce_sum", lambda a: ad.reduce_sum(a, axis=1), [arr(4, 3)]),
        ("relu", ad.relu, [arr(5, 5)]),
        ("scale", lambda a: ad.scale(a, -1.7), [arr(6)]),
        ("scale_rows", ad.scale_rows, [arr(6, 3), arr(6)]),
        ("segment_softmax", lambda a: ad.segment_softmax(a, packed), [arr(6)]),
        ("segment_sum", lambda a: ad.segment_sum(a, packed), [arr(6, 3)]),
        ("softmax", lambda a: ad.softmax(a, axis=1), [arr(3, 4)]),
        ("sparse_matmul", lambda a: ad.concat(
            [ad.sparse_matmul(sparse, a), ad.sparse_matmul(sparse, a, transpose=True)], axis=1),
         [arr(6, 3)]),
    ]

    def scored(op, w):
        return lambda *inputs: ad.reduce_sum(ad.mul(op(*inputs), w))

    return [(name, scored(op, Tensor(arr(*op(*map(Tensor, arrays)).shape))), arrays)
            for name, op, arrays in ops]


def gradient_check_suite() -> list[tuple[str, FiniteDiffReport]]:
    """Finite differences against backward for each op a training step records, and the model.

    The 18 op checks are named as their ops. ``composed_model`` runs the full
    forward-to-loss pass on a packed batch of two random samples of 5 and 3
    tokens at width 8 (d_w = d_h = 8, one graph layer, two attention heads),
    drawn from its own ``"gradcheck.composed_model"`` stream, and
    differentiates with respect to every trainable parameter. Its analytic
    gradient is the tape's plus the (2.0·λ)·w that ``training.Adam`` adds
    to each decayed parameter for the L2 term, which is off the tape.
    """
    results = []
    for name, fn, arrays in _op_checks():
        inputs = [ad.Tensor(a, requires_grad=True) for a in arrays]
        results.append((name, ad.finite_diff_check(fn, inputs, eps=GRADCHECK_EPS)))

    rng = make_rng(GRADCHECK_SEED, "gradcheck.composed_model")
    samples = [random_tree_sample(rng, n=5 - 2 * (i % 2)) for i in range(4)]
    batch = samples[:2]
    config = TrainConfig(d_w=8, d_h=8, gcn_layers=1, heads=2, ffn_width=16,
                         seed=GRADCHECK_SEED, lambda_l2=1e-4)
    model = AspectSentimentModel(config, build_vocab(samples), sdi=collect_sdi_stats(samples))

    def loss(*_params):
        return head.compute_loss(model.forward(batch).prob, [s.label for s in batch],
                                 model.parameters, config.lambda_l2)

    params = model.parameters
    decayed = dict(params.decayed_items())
    l2 = [(2.0 * config.lambda_l2) * t.data if name in decayed else 0.0
          for name, t in params.items()]
    results.append(("composed_model", ad.finite_diff_check(
        loss, params.tensors(), eps=GRADCHECK_EPS, outside_tape=l2)))
    return results
