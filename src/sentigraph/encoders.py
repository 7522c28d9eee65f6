"""Sequence encoders: embedding lookup, Bi-LSTM, and a transformer block.

Every encoder works on a packed batch of B sentences, N_total token rows
laid out as an :class:`autodiff.SegmentLayout` says. :func:`bilstm_encode`
and :func:`transformer_encode` also take a single sentence's n x d matrix
without a layout, as the layout of ``[n]``.

The Bi-LSTM runs one pass left-to-right and one right-to-left over each
sentence from zero initial states and concatenates the per-token hidden
vectors, giving an N_total x 2*d_h context matrix. Each direction is one
:func:`autodiff.lstm` node for the whole batch, with gate columns ordered
i, f, g, o: one input GEMM over all rows, then one GEMM per time step over
the sentences still running. Its backward runs BPTT in numpy and returns
the input gradient and the wx, wh and bias gradients as single matmuls (a
sum for the bias) over all rows.

The transformer encoder adds sinusoidal position signals (restarting at
each sentence) to the raw embeddings, applies multi-head scaled dot-product
attention within each sentence and a position-wise feed-forward, each
followed by a residual connection and layer normalization, giving an
N_total x d_model matrix of global features. The heads share one d_model-wide
projection each for queries, keys and values, head h reading its column
block, and all of them run as one :func:`autodiff.attention` node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, SegmentLayout, Tensor
from .corpus import AspectSample, Vocab


def embed_sequence(samples: AspectSample | list[AspectSample], vocab: Vocab,
                   embedding: Tensor) -> Tensor:
    """Packed embedding rows of one sample or of a list of samples, in order.

    Row t of a sentence's block is the embedding of its token t (unknowns map
    to the unk row).
    """
    if isinstance(samples, AspectSample):
        samples = [samples]
    return ad.gather_rows(embedding, vocab.encode([t for s in samples for t in s.tokens]))


# ---------------------------------------------------------------------------
# Bi-LSTM

@dataclass
class LstmDirectionParams:
    wx: Tensor  # (d_in, 4*d_h), gate order i, f, g, o
    wh: Tensor  # (d_h, 4*d_h)
    b: Tensor   # (4*d_h,)


@dataclass
class BiLstmParams:
    fwd: LstmDirectionParams
    bwd: LstmDirectionParams


def init_bilstm_params(store: ParameterStore, prefix: str, d_in: int, d_h: int,
                       rng: np.random.Generator) -> BiLstmParams:
    bound = 1.0 / np.sqrt(d_h)

    def direction(name):
        return LstmDirectionParams(
            wx=store.add(f"{prefix}.{name}.wx", rng.uniform(-bound, bound, (d_in, 4 * d_h))),
            wh=store.add(f"{prefix}.{name}.wh", rng.uniform(-bound, bound, (d_h, 4 * d_h))),
            b=store.add(f"{prefix}.{name}.b", np.zeros(4 * d_h), no_decay=True),
        )

    return BiLstmParams(fwd=direction("fwd"), bwd=direction("bwd"))


def bilstm_encode(embedded: Tensor, params: BiLstmParams, layout=None) -> Tensor:
    """Concatenate forward-in-time and backward-in-time hidden states per token."""
    layout = ad.segment_layout([embedded.shape[0]]) if layout is None else layout
    fwd, bwd = params.fwd, params.bwd
    return ad.concat([ad.lstm(embedded, fwd.wx, fwd.wh, fwd.b, layout),
                      ad.lstm(embedded, bwd.wx, bwd.wh, bwd.b, layout, reverse=True)],
                     axis=1)


# ---------------------------------------------------------------------------
# transformer encoder

def positional_encoding(n: int, d_model: int) -> np.ndarray:
    """Sinusoidal position signals: sin at even dimensions, cos at odd ones."""
    if d_model % 2 != 0:
        raise ValueError(f"positional encoding needs an even width, got {d_model}")
    positions = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angles = positions / np.power(10000.0, 2.0 * i / d_model)
    out = np.empty((n, d_model), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


@dataclass
class TransformerParams:
    heads: int
    wq: Tensor  # (d_model, d_model), head h in columns h*d_k:(h+1)*d_k
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    @property
    def d_model(self) -> int:
        return self.wo.shape[0]


def init_transformer_params(store: ParameterStore, prefix: str, d_model: int,
                            n_heads: int, ffn_width: int,
                            rng: np.random.Generator) -> TransformerParams:
    if d_model % n_heads != 0:
        raise ValueError(f"model width {d_model} not divisible by {n_heads} heads")
    bound = 1.0 / np.sqrt(d_model)
    # drawn head by head, wq then wk then wv, and laid side by side per projection
    draws = rng.uniform(-bound, bound, (n_heads, 3, d_model, d_model // n_heads))
    wq, wk, wv = draws.transpose(1, 2, 0, 3).reshape(3, d_model, d_model)
    ffn_bound = 1.0 / np.sqrt(ffn_width)
    return TransformerParams(
        heads=n_heads,
        wq=store.add(f"{prefix}.wq", wq),
        wk=store.add(f"{prefix}.wk", wk),
        wv=store.add(f"{prefix}.wv", wv),
        wo=store.add(f"{prefix}.wo", rng.uniform(-bound, bound, (d_model, d_model))),
        ffn_w1=store.add(f"{prefix}.ffn.w1", rng.uniform(-bound, bound, (d_model, ffn_width))),
        ffn_b1=store.add(f"{prefix}.ffn.b1", np.zeros(ffn_width), no_decay=True),
        ffn_w2=store.add(f"{prefix}.ffn.w2", rng.uniform(-ffn_bound, ffn_bound, (ffn_width, d_model))),
        ffn_b2=store.add(f"{prefix}.ffn.b2", np.zeros(d_model), no_decay=True),
        ln1_gain=store.add(f"{prefix}.ln1.gain", np.ones(d_model)),
        ln1_bias=store.add(f"{prefix}.ln1.bias", np.zeros(d_model), no_decay=True),
        ln2_gain=store.add(f"{prefix}.ln2.gain", np.ones(d_model)),
        ln2_bias=store.add(f"{prefix}.ln2.bias", np.zeros(d_model), no_decay=True),
    )


def multi_head_attention(x: Tensor, params: TransformerParams, layout: SegmentLayout) -> Tensor:
    """Concat(head_1..head_H) wo, every head in one attention node."""
    heads = ad.attention(ad.matmul(x, params.wq), ad.matmul(x, params.wk),
                         ad.matmul(x, params.wv), params.heads, layout)
    return ad.matmul(heads, params.wo)


def transformer_encode(embedded: Tensor, params: TransformerParams, layout=None) -> Tensor:
    """One encoder block over embeddings + position signals, attending within each sentence."""
    n, d_model = embedded.shape
    layout = ad.segment_layout([n]) if layout is None else layout
    if d_model != params.d_model or n != layout.rows:
        raise ad.ShapeError(f"transformer_encode: input {embedded.shape} for model width "
                            f"{params.d_model} and {layout.rows} layout rows")
    signals = positional_encoding(int(layout.lengths.max()), d_model)[layout.pos]
    x = ad.add(embedded, Tensor(signals))
    attended = ad.add(x, multi_head_attention(x, params, layout))
    normed = ad.layer_norm(attended, params.ln1_gain, params.ln1_bias)
    hidden = ad.relu(ad.add(ad.matmul(normed, params.ffn_w1), params.ffn_b1))
    ff = ad.add(ad.matmul(hidden, params.ffn_w2), params.ffn_b2)
    return ad.layer_norm(ad.add(normed, ff), params.ln2_gain, params.ln2_bias)
