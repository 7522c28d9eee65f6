"""Aspect masking, retrieval attention, fusion, and the classifier with its loss.

Graph-convolution outputs are zeroed outside the aspect span, so attention
keys carry aspect-focused features only. Each context state is scored by
its dot products against the masked rows, the softmax of those scores pools
the context states into one vector, and the pooled vector is fused with a
projected mean of the transformer output before the 3-way softmax classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .corpus import LABELS

PROB_FLOOR = 1e-12


def aspect_mask(h_gcn: Tensor, aspect_start: int, aspect_len: int) -> Tensor:
    """Keep rows inside [aspect_start, aspect_start + aspect_len); zero the rest."""
    n, d = h_gcn.shape
    if not (0 <= aspect_start and aspect_len >= 1 and aspect_start + aspect_len <= n):
        raise ValueError(f"aspect span [{aspect_start}, {aspect_start + aspect_len}) "
                         f"outside sentence of length {n}")
    mask = np.zeros((n, d))
    mask[aspect_start:aspect_start + aspect_len] = 1.0
    return ad.mul(h_gcn, Tensor(mask))


def aspect_attention(h_context: Tensor, h_mask: Tensor) -> tuple[Tensor, Tensor]:
    """Score each context state against the masked features and pool.

    Returns (alpha, pooled): alpha_i = softmax_i(sum_j context_i . mask_j),
    pooled = sum_i alpha_i * context_i.
    """
    if h_context.shape[0] != h_mask.shape[0] or h_context.shape[1] != h_mask.shape[1]:
        raise ad.ShapeError(
            f"aspect_attention: context {h_context.shape} vs masked {h_mask.shape}")
    key_sum = ad.reduce_sum(h_mask, axis=0)
    beta = ad.matmul(h_context, key_sum)
    alpha = ad.softmax(beta)
    pooled = ad.matmul(ad.transpose(h_context), alpha)
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


def fuse(pooled: Tensor, z_out: Tensor, params: FusionParams) -> Tensor:
    """pooled + projected mean of the transformer rows."""
    global_mean = ad.reduce_mean(z_out, axis=0)
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
    """Class distribution for one sample; prob_tensor keeps the graph alive for the loss."""

    prob: np.ndarray
    predicted_label: str
    prob_tensor: Tensor

    def as_record(self, gold_label: str | None = None) -> dict:
        record = {
            "prob": [float(p) for p in self.prob],
            "predicted_label": self.predicted_label,
        }
        if gold_label is not None:
            record["gold_label"] = gold_label
        return record


def classify(res_out: Tensor, params: ClassifierParams) -> Prediction:
    prob = ad.softmax(ad.add(ad.matmul(res_out, params.w), params.b))
    # np.argmax resolves ties toward the first index
    predicted = LABELS[int(np.argmax(prob.data))]
    return Prediction(prob=prob.data.copy(), predicted_label=predicted, prob_tensor=prob)


def nll(prob: Tensor, label: str) -> Tensor:
    """Negative log probability of the gold class, floored to keep log finite."""
    index = LABELS.index(label)
    picked = ad.slice_axis(prob, 0, index, index + 1)
    return ad.scale(ad.reduce_sum(ad.log(ad.clamp_min(picked, PROB_FLOOR))), -1.0)


def l2_penalty(parameters: ParameterStore) -> Tensor:
    """Sum of squared entries over decayed parameters (biases exempt)."""
    total = Tensor(np.zeros(()))
    for _name, t in parameters.decayed_items():
        total = ad.add(total, ad.reduce_sum(ad.mul(t, t)))
    return total


def compute_loss(prob: Tensor, label: str, parameters: ParameterStore,
                 lambda_l2: float) -> Tensor:
    loss = nll(prob, label)
    if lambda_l2 != 0.0:
        loss = ad.add(loss, ad.scale(l2_penalty(parameters), lambda_l2))
    return loss
