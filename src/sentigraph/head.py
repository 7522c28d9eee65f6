"""Aspect masking, retrieval attention, fusion, and the classifier with its loss.

Everything works on a packed batch of B sentences, N_total token rows laid
out as the :class:`autodiff.SegmentLayout` every function takes says.
Per-sentence reductions are :func:`autodiff.segment_sum` and
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

The training loss (:func:`compute_loss`) puts only the cross-entropy on the
tape; the L2 penalty's gradient is added outside it, by the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, SegmentLayout, Tensor
from .corpus import LABELS

PROB_FLOOR = 1e-12


def aspect_rows(spans, layout: SegmentLayout) -> np.ndarray:
    """Boolean mask of the layout's rows inside each sentence's aspect span.

    ``spans`` holds one ``(aspect_start, aspect_len)`` pair per sentence,
    with the start counted from the sentence's first row.
    """
    lengths = layout.lengths
    if len(spans) != lengths.size:
        raise ValueError(f"{len(spans)} aspect spans for {lengths.size} sentences")
    keep = np.zeros(layout.rows, dtype=bool)
    for (start, span), first, length in zip(spans, layout.offsets.tolist(), lengths.tolist()):
        if not (0 <= start and span >= 1 and start + span <= length):
            raise ValueError(f"aspect span [{start}, {start + span}) "
                             f"outside sentence of length {length}")
        keep[first + start:first + start + span] = True
    return keep


def aspect_attention(h_context: Tensor, h_mask: Tensor,
                     layout: SegmentLayout) -> tuple[Tensor, Tensor]:
    """Score each context state against its sentence's masked features and pool.

    Returns (alpha, pooled): for token i of sentence j,
    alpha_i = softmax over sentence j of (sum_{k in j} context_i . mask_k),
    and row j of the B x d ``pooled`` is sum_{i in j} alpha_i * context_i.
    """
    if h_context.shape != h_mask.shape or h_context.shape[0] != layout.rows:
        raise ad.ShapeError(f"aspect_attention: context {h_context.shape} vs masked "
                            f"{h_mask.shape} over {layout.rows} layout rows")
    keys = ad.gather_rows(ad.segment_sum(h_mask, layout), layout.seq)
    beta = ad.reduce_sum(ad.mul(h_context, keys), axis=1)
    alpha = ad.segment_softmax(beta, layout)
    pooled = ad.segment_sum(ad.scale_rows(h_context, alpha), layout)
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


def fuse(pooled: Tensor, z_out: Tensor, params: FusionParams, layout: SegmentLayout) -> Tensor:
    """Row j: pooled row j + projected mean of sentence j's transformer rows."""
    global_mean = ad.scale_rows(ad.segment_sum(z_out, layout), Tensor(1.0 / layout.lengths))
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

    def as_record(self, gold_label: str) -> dict:
        return {
            "prob": [float(p) for p in self.prob],
            "predicted_label": self.predicted_label,
            "gold_label": gold_label,
        }


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
    """Sum of squared entries over decayed parameters (biases exempt), as a constant.

    It records no tape node: the gradient 2·w of each decayed tensor w is
    never taken through the tape (see :func:`compute_loss`).
    """
    return Tensor(sum((float(np.vdot(t.data, t.data)) for _name, t in parameters.decayed_items()),
                      0.0))


def compute_loss(prob: Tensor, labels, parameters: ParameterStore,
                 lambda_l2: float) -> Tensor:
    """Batch loss: mean cross-entropy over the rows plus the L2 penalty counted once.

    Only the cross-entropy is on the tape. The penalty λ·Σ‖w‖² enters the
    value as a constant, and its gradient (2.0·λ)·w is added to each decayed
    parameter's completed tape gradient by the optimizer
    (``training.Adam``), just before that parameter's update.
    """
    loss = nll(prob, labels)
    if lambda_l2 != 0.0:
        loss = ad.add(loss, ad.scale(l2_penalty(parameters), lambda_l2))
    return loss
