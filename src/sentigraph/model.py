"""Full classifier assembly: encoders -> graph convolution -> masked attention -> softmax.

The forward pass takes a batch of B samples. A training forward records
one tape for it; ``predict`` and ``predict_all`` run theirs with the
parameters frozen (``ParameterStore.frozen``), so they record none.
The token rows of all B sentences are stacked into one packed matrix of
N_total rows; sentence j owns rows ``offsets[j]:offsets[j + 1]``, where
``offsets`` is the running sum of ``lengths`` (the sentence lengths):

    embeddings -> Bi-LSTM context states      (N_total x 2*d_h)
               -> transformer global features (N_total x d_w, every head in one node)
    context states + the batch's weighted dependency graph (N_total x N_total entries)
    -> stacked Bi-GCN -> aspect masks
    -> retrieval attention within each sentence -> pooled rows (B x 2*d_h)
    -> fused with each sentence's projected transformer mean
    -> 3-way softmax, one row per sample (B x 3)

When the attention scores and pools the Bi-LSTM states (the default
``attention_states="lstm"``), the Bi-GCN output reaches the loss only
through the aspect masks. The stack then computes, at each layer, only
the rows the aspect rows depend on, and its output, zero outside them, is
the mask. With ``attention_states="gcn"`` it computes every row and is masked.

Nothing mixes sentences: a sample's probabilities are the same alone and
at any position in any batch, up to rounding. ``predict(sample)`` is a
batch of one; ``predict_all`` runs ``config.batch_size`` chunks of
samples sorted by length.

``adjacency`` builds the batch's graph, every sentence's at once, in one
pass. Ablation switches replace each graph with its binary form or with the
self-loops alone and can drop the reversed message-passing direction.
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
from .corpus import (
    LABELS,
    AspectSample,
    EmbeddingTable,
    Vocab,
    build_vocab,
    random_embeddings,
)
from .head import Prediction
from .syntax import SdiTable, build_adjacency, collect_sdi_stats
from .synthetic import random_tree_sample
from .util import make_rng


@dataclass
class ForwardPass:
    """Intermediates of one batch's forward computation, packed as described above."""

    lengths: np.ndarray          # (B,) tokens per sample
    embedded: Tensor             # N_total x d_w
    h_lstm: Tensor               # N_total x 2*d_h
    z_out: Tensor                # N_total x d_w
    adjacency: ad.SparseMatrix   # N_total x N_total, every sample's graph entries
    degrees: np.ndarray          # (N_total,)
    h_gcn: Tensor                # N_total x 2*d_h; 0 outside the aspect rows (lstm states)
    h_mask: Tensor               # N_total x 2*d_h
    alpha: Tensor                # (N_total,), sums to 1 within each sample
    pooled: Tensor               # B x 2*d_h
    res_out: Tensor              # B x 2*d_h
    prob: Tensor                 # B x 3


class AspectSentimentModel:
    """Bundles parameters, vocabulary, and relation statistics for one configuration."""

    def __init__(self, config: TrainConfig, vocab: Vocab,
                 sdi: SdiTable | None = None,
                 embeddings: EmbeddingTable | None = None):
        config.validate()
        if config.use_dependency and config.use_sdi_weights and sdi is None:
            raise ValueError("edge-weighted adjacency requires relation statistics")
        self.config = config
        self.vocab = vocab
        self.sdi = sdi
        # edges whose relation the statistics lack, per relation, over every forward
        self.unseen_relations: Counter[str] = Counter()

        if embeddings is None:
            vectors = random_embeddings(vocab, config.d_w, make_rng(config.seed, "oov")).vectors
        else:  # the caller's table: the parameter store owns its arrays and updates them in place
            vectors = embeddings.vectors.copy()
        if vectors.shape != (len(vocab), config.d_w):
            raise ValueError(
                f"embedding table {vectors.shape} does not match "
                f"vocab size {len(vocab)} and width {config.d_w}")

        rng = make_rng(config.seed, "init")
        store = ParameterStore()
        self.embedding = store.add("embedding", vectors)
        self.lstm = encoders.init_bilstm_params(store, "lstm", config.d_w, config.d_h, rng)
        self.transformer = encoders.init_transformer_params(
            store, "transformer", config.d_model, config.heads, config.ffn_width, rng)
        self.gcn_layers = bigcn.init_gcn_stack(
            store, "gcn", config.d_context, config.d_context, config.gcn_layers, rng,
            bidirectional=config.use_bidirectional_gcn)
        self.fusion = head.init_fusion_params(
            store, "fusion", config.d_model, config.d_context, rng)
        self.classifier = head.init_classifier_params(
            store, "classifier", config.d_context, len(LABELS), rng)
        self.parameters = store

    def adjacency(self, samples: AspectSample | list[AspectSample]
                  ) -> tuple[ad.SparseMatrix, np.ndarray]:
        """The packed graph entries and out-degrees this configuration consumes for a batch.

        ``samples`` is one sample or a list, as for ``syntax.build_adjacency``.
        """
        if not self.config.use_dependency:  # the self-loops alone
            n = samples.n if isinstance(samples, AspectSample) else sum(s.n for s in samples)
            return ad.SparseMatrix(np.arange(n), np.arange(n), np.ones(n), (n, n)), np.zeros(n)
        sdi = self.sdi if self.config.use_sdi_weights else None
        return build_adjacency(samples, sdi, self.unseen_relations)

    def forward(self, samples: list[AspectSample]) -> ForwardPass:
        """One packed forward pass over a non-empty batch of samples."""
        if not samples:
            raise ValueError("forward needs at least one sample")
        lengths = np.array([s.n for s in samples])
        embedded = encoders.embed_sequence(samples, self.vocab, self.embedding)
        h_lstm = encoders.bilstm_encode(embedded, self.lstm, lengths)
        z_out = encoders.transformer_encode(embedded, self.transformer, lengths)
        adjacency, degrees = self.adjacency(samples)
        rows = head.aspect_rows([(s.aspect_start, s.aspect_len) for s in samples], lengths,
                                h_lstm.shape[0])
        if self.config.attention_states == "lstm":  # only h_gcn's aspect rows are read
            h_gcn = bigcn.bigcn_stack(h_lstm, adjacency, degrees, self.gcn_layers, rows)
            states, h_mask = h_lstm, h_gcn  # zero outside the aspect rows: the mask itself
        else:
            h_gcn = bigcn.bigcn_stack(h_lstm, adjacency, degrees, self.gcn_layers)
            states, h_mask = h_gcn, ad.scale_rows(h_gcn, Tensor(rows))
        alpha, pooled = head.aspect_attention(states, h_mask, lengths)
        res_out = head.fuse(pooled, z_out, self.fusion, lengths)
        prob = head.classify(res_out, self.classifier)
        return ForwardPass(lengths=lengths, embedded=embedded,
                           h_lstm=h_lstm, z_out=z_out, adjacency=adjacency,
                           degrees=degrees, h_gcn=h_gcn, h_mask=h_mask, alpha=alpha,
                           pooled=pooled, res_out=res_out, prob=prob)

    def predict(self, sample: AspectSample) -> Prediction:
        """The sample's prediction: ``predict_all`` of a batch of one, which records no tape."""
        return self.predict_all([sample])[0]

    def predict_all(self, samples) -> list[Prediction]:
        """Predictions for every sample, in input order, from forwards that record no tape.

        The samples run in chunks of ``config.batch_size`` after a stable
        sort by length, so a chunk's sentences pad the LSTM and attention
        blocks little.
        """
        samples = list(samples)
        order = sorted(range(len(samples)), key=lambda i: samples[i].n)
        predictions = [None] * len(samples)
        size = self.config.batch_size
        with self.parameters.frozen():
            for start in range(0, len(order), size):
                chunk = order[start:start + size]
                prob = self.forward([samples[i] for i in chunk]).prob.data
                for i, p in zip(chunk, head.predictions(prob)):
                    predictions[i] = p
        return predictions


# ---------------------------------------------------------------------------
# gradient-check suite

def _op_checks(rng: np.random.Generator) -> list[tuple[str, callable, list[np.ndarray]]]:
    def arr(*shape):
        return rng.normal(size=shape)

    w = ad.Tensor(arr(3, 2))
    # three packed sequences, given unsorted so the LSTM reorders them
    lengths = (2, 3, 1)
    w6 = arr(6, 3)
    # 14 values, drawn as three blocks to leave the later entries' draws unchanged,
    # as the entries of a 6 x 6 matrix: unsorted, one position repeated, row and
    # column 5 empty
    values = np.concatenate([arr(n, n).ravel() for n in lengths])
    sparse = ad.SparseMatrix(np.arange(14) % 5, 2 * np.arange(14) % 5, values, (6, 6))
    return [
        ("matmul", lambda a, b: ad.reduce_sum(ad.mul(ad.matmul(a, b), w)),
         [arr(3, 4), arr(4, 2)]),
        ("add", lambda a, b: ad.reduce_sum(ad.exp(ad.add(a, b))), [arr(3, 4), arr(4)]),
        ("mul", lambda a, b: ad.reduce_sum(ad.mul(a, b)), [arr(4, 4), arr(4, 4)]),
        ("concat", lambda a, b: ad.reduce_sum(ad.tanh(ad.concat([a, b], axis=1))),
         [arr(3, 2), arr(3, 3)]),
        ("slice", lambda a: ad.reduce_sum(ad.sigmoid(ad.slice_axis(a, 1, 1, 3))),
         [arr(4, 5)]),
        ("transpose", lambda a: ad.reduce_sum(ad.tanh(ad.transpose(a))), [arr(3, 5)]),
        ("tanh", lambda a: ad.reduce_sum(ad.tanh(a)), [arr(4, 4)]),
        ("sigmoid", lambda a: ad.reduce_sum(ad.sigmoid(a)), [arr(4, 4)]),
        ("relu", lambda a: ad.reduce_sum(ad.relu(a)), [arr(5, 5)]),
        ("exp", lambda a: ad.reduce_sum(ad.exp(a)), [arr(3, 3)]),
        ("log", lambda a: ad.reduce_sum(ad.log(a)), [np.abs(arr(3, 3)) + 0.5]),
        ("scale", lambda a: ad.reduce_sum(ad.scale(a, -1.7)), [arr(6)]),
        ("clamp_min", lambda a: ad.reduce_sum(ad.clamp_min(a, 0.1)), [np.abs(arr(4)) + 0.5]),
        ("softmax", lambda a: ad.reduce_sum(ad.mul(ad.softmax(a, axis=1), w)), [arr(3, 2)]),
        ("reduce_sum", lambda a: ad.reduce_sum(ad.tanh(ad.reduce_sum(a, axis=0))), [arr(4, 3)]),
        ("reduce_mean", lambda a: ad.reduce_sum(ad.exp(ad.reduce_mean(a, axis=1))), [arr(4, 3)]),
        ("layer_norm", lambda a, g, b: ad.reduce_sum(ad.tanh(ad.layer_norm(a, g, b))),
         [arr(4, 6), arr(6), arr(6)]),
        ("gather_rows",
         lambda t: ad.reduce_sum(ad.tanh(ad.gather_rows(t, np.array([0, 2, 2, 1])))),
         [arr(4, 3)]),
        ("lstm", lambda x, wx, wh, b: ad.reduce_sum(ad.tanh(ad.concat(
            [ad.lstm(x, wx, wh, b), ad.lstm(x, wx, wh, b, reverse=True)], axis=1))),
         [arr(4, 3), arr(3, 8), arr(2, 8), arr(8)]),
        ("lstm_lengths", lambda x, wx, wh, b: ad.reduce_sum(ad.tanh(ad.concat(
            [ad.lstm(x, wx, wh, b, lengths=lengths),
             ad.lstm(x, wx, wh, b, reverse=True, lengths=lengths)], axis=1))),
         [arr(6, 3), arr(3, 8), arr(2, 8), arr(8)]),
        # two heads; v is cut from a 6 x 3 draw to leave the later entries' draws unchanged
        ("attention", lambda q, k, v: ad.reduce_sum(ad.mul(ad.attention(q, k, v, 2, lengths),
                                                           ad.Tensor(w6[:, :2]))),
         [arr(6, 2), arr(6, 2), arr(6, 3)[:, :2]]),
        ("sparse_matmul", lambda a: ad.reduce_sum(ad.tanh(ad.concat(
            [ad.sparse_matmul(sparse, a), ad.sparse_matmul(sparse, a, transpose=True)],
            axis=1))),
         [arr(6, 3)]),
        ("segment_sum", lambda a: ad.reduce_sum(ad.tanh(ad.segment_sum(a, lengths))),
         [arr(6, 3)]),
        ("segment_softmax", lambda a: ad.reduce_sum(ad.mul(ad.segment_softmax(a, lengths),
                                                           ad.Tensor(w6[:, 0]))), [arr(6)]),
        ("scale_rows", lambda a, s: ad.reduce_sum(ad.tanh(ad.scale_rows(a, s))),
         [arr(6, 3), arr(6)]),
        # no saturating wrapper: a wrong factor in its gradient must show in full
        ("sum_squares", lambda a, b: ad.sum_squares([a, b]), [arr(3, 4), arr(5)]),
    ]


def gradient_check_suite(seed: int = 7, eps: float = 1e-5,
                         d: int = 8, n_tokens: int = 5,
                         heads: int = 2) -> list[tuple[str, FiniteDiffReport]]:
    """Finite-difference validation of every primitive and the composed model.

    The composed check runs the full forward-to-loss pass on a packed batch
    of two random samples of different lengths at reduced width (one graph
    layer) and differentiates with respect to every trainable parameter.
    """
    rng = np.random.default_rng(seed)
    results = []
    for name, fn, arrays in _op_checks(rng):
        inputs = [ad.Tensor(a, requires_grad=True) for a in arrays]
        results.append((name, ad.finite_diff_check(fn, inputs, eps=eps)))

    samples = [random_tree_sample(rng, n=max(1, n_tokens - 2 * (i % 2))) for i in range(4)]
    batch = samples[:2]
    vocab = build_vocab(samples)
    sdi = collect_sdi_stats(samples)
    config = TrainConfig(d_w=d, d_h=d, gcn_layers=1, heads=heads, ffn_width=2 * d,
                         seed=seed, lambda_l2=1e-4)
    model = AspectSentimentModel(config, vocab, sdi=sdi)

    def loss(*_params):
        return head.compute_loss(model.forward(batch).prob, [s.label for s in batch],
                                 model.parameters, config.lambda_l2)

    results.append(("composed_model",
                    ad.finite_diff_check(loss, model.parameters.tensors(), eps=eps)))
    return results
