"""Aspect masking, retrieval attention, fusion, and the classifier with its loss.

Everything works on a packed batch: the token rows of B sentences stacked
in one N_total x d matrix, sentence j owning rows ``offsets[j]:offsets[j + 1]``
with ``offsets`` the running sum of ``lengths`` (``lengths=None`` means one
sentence). Per-sentence reductions are :func:`autodiff.segment_sum` and
:func:`autodiff.segment_softmax`; per-token weights are
:func:`autodiff.scale_rows`. Each function is one set of tape nodes for the
whole batch.

Graph-convolution outputs are zeroed outside the aspect spans' rows
(:func:`aspect_rows`), so attention keys carry aspect-focused features only.
Each context state is scored by its dot products against its sentence's
masked rows, the softmax of those scores within the sentence pools its
context states into one vector, and the pooled vector is fused with a
projected mean of the sentence's transformer rows before the 3-way softmax
classifier: one row of the B x 3 probability matrix per sentence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import LABELS

PROB_FLOOR = 1e-12


def aspect_rows(spans, lengths, n: int) -> np.ndarray:
    """Boolean (n,) mask of the rows inside each sentence's aspect span.

    ``spans`` holds one ``(aspect_start, aspect_len)`` pair per sentence,
    with the start counted from the sentence's first row.
    """
    lengths, offsets = ad.segment_layout(lengths, n, "aspect_rows")
    if len(spans) != lengths.size:
        raise ValueError(f"{len(spans)} aspect spans for {lengths.size} sentences")
    keep = np.zeros(n, dtype=bool)
    for (start, span), first, length in zip(spans, offsets.tolist(), lengths.tolist()):
        if not (0 <= start and span >= 1 and start + span <= length):
            raise ValueError(f"aspect span [{start}, {start + span}) "
                             f"outside sentence of length {length}")
        keep[first + start:first + start + span] = True
    return keep


def aspect_attention(h_context: Tensor, h_mask: Tensor,
                     lengths=None) -> tuple[Tensor, Tensor]:
    """Score each context state against its sentence's masked features and pool.

    Returns (alpha, pooled): for token i of sentence j,
    alpha_i = softmax over sentence j of (sum_{k in j} context_i . mask_k),
    and row j of the B x d ``pooled`` is sum_{i in j} alpha_i * context_i.
    """
    if h_context.shape[0] != h_mask.shape[0] or h_context.shape[1] != h_mask.shape[1]:
        raise ad.ShapeError(
            f"aspect_attention: context {h_context.shape} vs masked {h_mask.shape}")
    lengths, _ = ad.segment_layout(lengths, h_context.shape[0], "aspect_attention")
    key_sums = ad.segment_sum(h_mask, lengths)
    keys = ad.gather_rows(key_sums, np.repeat(np.arange(lengths.size), lengths))
    beta = ad.reduce_sum(ad.mul(h_context, keys), axis=1)
    alpha = ad.segment_softmax(beta, lengths)
    pooled = ad.segment_sum(ad.scale_rows(h_context, alpha), lengths)
    return alpha, pooled


@dataclass
class FusionParams:
    w_proj: Tensor  # (d_model, d_pooled)
    b_proj: Tensor


def init_fusion_params(store: ParameterStore, prefix: str, d_model: int,
                       d_pooled: int, rng: np.random.Generator) -> FusionParams:
    bound = 1.0 / np.sqrt(d_model)
    return FusionParams(
        w_proj=store.add(f"{prefix}.w_proj", rng.uniform(-bound, bound, (d_model, d_pooled))),
        b_proj=store.add(f"{prefix}.b_proj", np.zeros(d_pooled), no_decay=True),
    )


def fuse(pooled: Tensor, z_out: Tensor, params: FusionParams, lengths=None) -> Tensor:
    """Row j: pooled row j + projected mean of sentence j's transformer rows."""
    lengths, _ = ad.segment_layout(lengths, z_out.shape[0], "fuse")
    global_mean = ad.scale_rows(ad.segment_sum(z_out, lengths), Tensor(1.0 / lengths))
    projected = ad.add(ad.matmul(global_mean, params.w_proj), params.b_proj)
    return ad.add(pooled, projected)


@dataclass
class ClassifierParams:
    w: Tensor  # (d_pooled, n_classes)
    b: Tensor


def init_classifier_params(store: ParameterStore, prefix: str, d_in: int,
                           n_classes: int, rng: np.random.Generator) -> ClassifierParams:
    bound = 1.0 / np.sqrt(d_in)
    return ClassifierParams(
        w=store.add(f"{prefix}.w", rng.uniform(-bound, bound, (d_in, n_classes))),
        b=store.add(f"{prefix}.b", np.zeros(n_classes), no_decay=True),
    )


@dataclass
class Prediction:
    """Class distribution for one sample."""

    prob: np.ndarray
    predicted_label: str

    def as_record(self, gold_label: str | None = None) -> dict:
        record = {
            "prob": [float(p) for p in self.prob],
            "predicted_label": self.predicted_label,
        }
        if gold_label is not None:
            record["gold_label"] = gold_label
        return record


def classify(res_out: Tensor, params: ClassifierParams) -> Tensor:
    """B x 3 class probabilities, one row per fused vector."""
    return ad.softmax(ad.add(ad.matmul(res_out, params.w), params.b), axis=1)


def predictions(prob: np.ndarray) -> list[Prediction]:
    """One Prediction per row of a B x 3 probability matrix."""
    prob = np.array(prob)  # one copy, whose rows the predictions hold
    # np.argmax resolves ties toward the first index
    return [Prediction(prob=row, predicted_label=LABELS[k])
            for row, k in zip(prob, prob.argmax(axis=1).tolist())]


def nll(prob: Tensor, labels) -> Tensor:
    """Mean negative log probability of each row's gold class, floored to keep log finite."""
    if prob.ndim != 2 or prob.shape != (len(labels), len(LABELS)):
        raise ad.ShapeError(f"nll: probabilities {prob.shape} for {len(labels)} labels")
    gold = np.zeros(prob.shape)
    gold[np.arange(len(labels)), [LABELS.index(label) for label in labels]] = 1.0
    log_prob = ad.log(ad.clamp_min(prob, PROB_FLOOR))
    return ad.scale(ad.reduce_sum(ad.mul(log_prob, Tensor(gold))), -1.0 / len(labels))


def l2_penalty(parameters: ParameterStore) -> Tensor:
    """Sum of squared entries over decayed parameters (biases exempt), one tape node."""
    return ad.sum_squares([t for _name, t in parameters.decayed_items()])


def compute_loss(prob: Tensor, labels, parameters: ParameterStore,
                 lambda_l2: float) -> Tensor:
    """Batch loss: mean cross-entropy over the rows plus the L2 penalty counted once."""
    loss = nll(prob, labels)
    if lambda_l2 != 0.0:
        loss = ad.add(loss, ad.scale(l2_penalty(parameters), lambda_l2))
    return loss
