"""Isolated forward and backward time of one pipeline stage at a time.

Each probe calls a stage's public function on leaf tensors (random inputs
of one sentence's shape, or the model's own parameters), reduces the output
to a scalar with a fixed random weighting and runs ``autodiff.backward`` on
it. Forward time covers the stage call alone; backward time covers the
backward pass from that scalar. Probes run with tracing switched off.

A stage whose function or parameters no longer exist (a refactor renamed
them) is reported in ``absent`` and reads 0; the other probes still run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from sentigraph import autodiff as ad
from sentigraph import bigcn, encoders, head
from sentigraph.autodiff import Tensor


def _stage_calls(model, sample, rng):
    n = sample.n
    x = Tensor(rng.normal(scale=0.1, size=(n, model.config.d_w)), requires_grad=True)
    h = Tensor(rng.normal(scale=0.1, size=(n, model.config.d_context)), requires_grad=True)
    adjacency = []  # built on the first call, so the median leaves its cost out

    def gcn():
        if not adjacency:
            adjacency.extend(model.adjacency(sample))
        return bigcn.bigcn_stack(h, Tensor(adjacency[0]), adjacency[1], model.gcn_layers)

    return {
        "encoders.embed_sequence":
            lambda: encoders.embed_sequence(sample, model.vocab, model.embedding),
        "encoders.bilstm_encode": lambda: encoders.bilstm_encode(x, model.lstm),
        "encoders.transformer_encode":
            lambda: encoders.transformer_encode(x, model.transformer),
        "bigcn.bigcn_stack": gcn,
        "head.l2_penalty": lambda: head.l2_penalty(model.parameters),
    }, (x, h)


def _scalar(out: Tensor, rng) -> Tensor:
    if out.shape == ():
        return out
    return ad.reduce_sum(ad.mul(out, Tensor(rng.normal(size=out.shape))))


def run_probes(model, sample, budget_s: float, min_reps: int = 3,
               max_reps: int = 30, seed: int = 0) -> tuple[dict, list[str]]:
    """{stage: {"fwd_ms", "bwd_ms", "reps"}} medians, plus the stages that could not run."""
    rng = np.random.default_rng(seed)
    calls, leaves = _stage_calls(model, sample, rng)
    per_stage = budget_s / len(calls)
    results, absent = {}, []
    for name, call in calls.items():
        fwd, bwd = [], []
        started = time.perf_counter()
        try:
            while len(fwd) < min_reps or (
                    len(fwd) < max_reps and time.perf_counter() - started < per_stage):
                model.parameters.zero_grads()
                for leaf in leaves:
                    leaf.zero_grad()
                t0 = time.perf_counter_ns()
                out = call()
                t1 = time.perf_counter_ns()
                loss = _scalar(out, rng)
                t2 = time.perf_counter_ns()
                ad.backward(loss)
                t3 = time.perf_counter_ns()
                fwd.append((t1 - t0) / 1e6)
                bwd.append((t3 - t2) / 1e6)
        except Exception as e:  # a renamed stage must not stop the other probes
            absent.append(f"{name}: {type(e).__name__}: {e}")
            continue
        results[name] = {"fwd_ms": statistics.median(fwd), "bwd_ms": statistics.median(bwd),
                         "reps": len(fwd)}
    model.parameters.zero_grads()
    return results, absent
