"""The training step as it was formulated before the L2 gradient left the tape.

:func:`sum_squares` is the L2 penalty as the one tape node a training step
recorded, :func:`reference_compute_loss` the loss built with it, and
:func:`reference_adam_step` the per-tensor Adam update of ``.grad`` arrays
that followed a plain ``backward``. Tests rebuild training steps from them
and require ``training.Adam``, which steps each parameter inside backward
and adds the L2 gradient itself, to match them bit for bit.
"""

import numpy as np

from sentigraph import autodiff as ad
from sentigraph import head
from sentigraph.autodiff import Tensor


def sum_squares(tensors: list[Tensor]) -> Tensor:
    """Scalar sum of every squared entry of every tensor, as one tape node.

    The gradient reaching tensor t is ``2 * g * t``. Backward yields these
    one tensor at a time, so only one of them exists at once.
    """
    arrays = [t.data for t in tensors]
    out = np.array(sum((float(np.vdot(a, a)) for a in arrays), 0.0))

    def backward(g):
        two_g = 2.0 * g
        return (two_g * a for a in arrays)

    return ad._make(out, tuple(tensors), backward, "sum_squares")


def reference_compute_loss(prob: Tensor, labels, parameters, lambda_l2: float) -> Tensor:
    """The training loss as the tape held it: mean NLL plus λ times one sum_squares node."""
    loss = head.nll(prob, labels)
    if lambda_l2 != 0.0:
        decayed = [t for _name, t in parameters.decayed_items()]
        loss = ad.add(loss, ad.scale(sum_squares(decayed), lambda_l2))
    return loss


def reference_adam_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The out-of-place Adam update of each named array, the reference for the blocked in-place one."""
    for name in params:
        g = grads[name]
        m[name] = b1 * m[name] + (1 - b1) * g
        v[name] = b2 * v[name] + (1 - b2) * g * g
        m_hat = m[name] / (1 - b1 ** t)
        v_hat = v[name] / (1 - b2 ** t)
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
