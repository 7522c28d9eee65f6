"""The classifier composed one sample at a time from primitive autodiff ops.

This is the per-sample forward pass the packed batch path replaced, kept
as the oracle for it: no packing, no lengths, no fused attention, graph or
segment ops, a Bi-LSTM built step by step from per-token slices, a dense
graph matrix, and an L2 term on the tape, built per decayed parameter,
where the model's loss leaves that gradient to the optimizer. Tests compare the packed model against it on
probabilities and on the gradient of the training loss, and the graph
builder's entries against :func:`reference_adjacency`.
"""

import numpy as np

from sentigraph import autodiff as ad
from sentigraph import head
from sentigraph.autodiff import Tensor
from sentigraph.corpus import LABELS
from sentigraph.encoders import positional_encoding


def _lstm_step(x, h_prev, c_prev, p):
    d_h = p.wh.shape[0]
    z = ad.add(ad.add(ad.matmul(x, p.wx), ad.matmul(h_prev, p.wh)), p.b)
    i = ad.sigmoid(ad.slice_axis(z, 1, 0, d_h))
    f = ad.sigmoid(ad.slice_axis(z, 1, d_h, 2 * d_h))
    g = ad.tanh(ad.slice_axis(z, 1, 2 * d_h, 3 * d_h))
    o = ad.sigmoid(ad.slice_axis(z, 1, 3 * d_h, 4 * d_h))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h = ad.mul(o, ad.tanh(c))
    return h, c


def _lstm_direction(rows, p):
    d_h = p.wh.shape[0]
    h = Tensor(np.zeros((1, d_h)))
    c = Tensor(np.zeros((1, d_h)))
    out = []
    for x in rows:
        h, c = _lstm_step(x, h, c, p)
        out.append(h)
    return out


def reference_bilstm_encode(embedded, params):
    """The Bi-LSTM composed step by step from primitive ops, one slice per token."""
    n = embedded.shape[0]
    rows = [ad.slice_axis(embedded, 0, t, t + 1) for t in range(n)]
    fwd_states = _lstm_direction(rows, params.fwd)
    bwd_states = list(reversed(_lstm_direction(list(reversed(rows)), params.bwd)))
    per_token = [ad.concat([f, b], axis=1) for f, b in zip(fwd_states, bwd_states)]
    return ad.concat(per_token, axis=0)


def reference_attention(q, k, v):
    """softmax(q k^T / sqrt(d_k)) v from matmul, transpose, scale and softmax."""
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(q.shape[1]))
    return ad.matmul(ad.softmax(scores, axis=1), v)


def reference_transformer_encode(embedded, params):
    n, d_model = embedded.shape
    x = ad.add(embedded, Tensor(positional_encoding(n, d_model)))
    d_k = d_model // params.heads

    def project(w, h):  # head h reads columns h*d_k:(h+1)*d_k of each projection
        return ad.matmul(x, ad.slice_axis(w, 1, h * d_k, (h + 1) * d_k))

    heads = [reference_attention(project(params.wq, h), project(params.wk, h),
                                 project(params.wv, h)) for h in range(params.heads)]
    attended = ad.add(x, ad.matmul(ad.concat(heads, axis=1), params.wo))
    normed = ad.layer_norm(attended, params.ln1_gain, params.ln1_bias)
    hidden = ad.relu(ad.add(ad.matmul(normed, params.ffn_w1), params.ffn_b1))
    ff = ad.add(ad.matmul(hidden, params.ffn_w2), params.ffn_b2)
    return ad.layer_norm(ad.add(normed, ff), params.ln2_gain, params.ln2_bias)


def reference_adjacency(sample, sdi, unseen):
    """The dense n x n graph matrix and out-degrees that ``build_adjacency`` gives entries of."""
    n = sample.n
    adj = np.eye(n, dtype=np.float64)
    degrees = np.zeros(n)
    for head_, dep, relation in sample.deps:
        if head_ == -1:
            continue
        weight = 1.0 if sdi is None else sdi.ratios.get(relation)
        if weight is None:
            weight = sdi.min_ratio
            unseen[relation] += 1
        adj[head_, dep] = weight
        degrees[head_] += 1.0
    return adj, degrees


def reference_gcn_layer(h_prev, adj, degrees, p):
    adj = Tensor(adj)
    combined = ad.matmul(adj, ad.matmul(h_prev, p.w_fwd))
    if p.w_bwd is not None:
        backward = ad.matmul(ad.transpose(adj), ad.matmul(h_prev, p.w_bwd))
        combined = ad.concat([combined, backward], axis=1)
    inv = 1.0 / (degrees + 1.0)
    normed = ad.mul(combined, Tensor(np.repeat(inv[:, None], combined.shape[1], axis=1)))
    return ad.relu(ad.add(ad.matmul(normed, p.w_out), p.b_out))


def reference_probabilities(model, sample):
    """The (3,) class distribution of one sample."""
    embedded = ad.gather_rows(model.embedding, model.vocab.encode(sample.tokens))
    h_lstm = reference_bilstm_encode(embedded, model.lstm)
    z_out = reference_transformer_encode(embedded, model.transformer)
    adjacency, degrees = model.adjacency(sample)
    adjacency = np.asarray(adjacency)
    h_gcn = h_lstm
    for layer in model.gcn_layers:
        h_gcn = reference_gcn_layer(h_gcn, adjacency, degrees, layer)
    mask = np.zeros(h_gcn.shape)
    mask[sample.aspect_start:sample.aspect_start + sample.aspect_len] = 1.0
    h_mask = ad.mul(h_gcn, Tensor(mask))
    alpha = ad.softmax(ad.matmul(h_lstm, ad.reduce_sum(h_mask, axis=0)))
    pooled = ad.matmul(ad.transpose(h_lstm), alpha)
    projected = ad.add(ad.matmul(ad.reduce_mean(z_out, axis=0), model.fusion.w_proj),
                       model.fusion.b_proj)
    res_out = ad.add(pooled, projected)
    return ad.softmax(ad.add(ad.matmul(res_out, model.classifier.w), model.classifier.b))


def reference_loss(model, batch):
    """Mean per-sample negative log likelihood plus the L2 penalty counted once."""
    total = None
    for sample in batch:
        index = LABELS.index(sample.label)
        picked = ad.slice_axis(reference_probabilities(model, sample), 0, index, index + 1)
        nll = ad.scale(ad.reduce_sum(ad.log(ad.clamp_min(picked, head.PROB_FLOOR))), -1.0)
        total = nll if total is None else ad.add(total, nll)
    loss = ad.scale(total, 1.0 / len(batch))
    if model.config.lambda_l2 != 0.0:
        # the L2 term as a mul/reduce_sum/add chain, one per decayed parameter
        l2 = Tensor(np.zeros(()))
        for _name, t in model.parameters.decayed_items():
            l2 = ad.add(l2, ad.reduce_sum(ad.mul(t, t)))
        loss = ad.add(loss, ad.scale(l2, model.config.lambda_l2))
    return loss
