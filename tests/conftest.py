import numpy as np
import pytest

from sentigraph import autodiff as ad
from sentigraph import head
from sentigraph.synthetic import random_tree_sample

__all__ = ["aspect_mask", "log_backward", "random_tree_sample"]


def aspect_mask(h_gcn, spans, layout):
    """``h_gcn`` zeroed outside each sentence's aspect span, as the model masks it."""
    return ad.scale_rows(h_gcn, ad.Tensor(head.aspect_rows(spans, layout)))


def log_backward(loss, log):
    """Make each node on the tape of ``loss`` append itself to ``log`` as its backward runs."""
    def logged(node, backward_fn):
        def run(g):
            log.append(node)
            return backward_fn(g)
        return run

    for node in ad._toposort(loss):
        node._backward_fn = logged(node, node._backward_fn)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def transpose_calls(monkeypatch):
    """The matrix of every ``ad.sparse_matmul(..., transpose=True)`` call, in order.

    The reverse Bi-GCN aggregation is the only caller of the transposed
    form, so its length counts evaluations of the reverse message-passing
    path.
    """
    calls = []
    sparse_matmul = ad.sparse_matmul

    def counting(m, x, transpose=False):
        if transpose:
            calls.append(m)
        return sparse_matmul(m, x, transpose=transpose)

    monkeypatch.setattr(ad, "sparse_matmul", counting)
    return calls


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}", flush=True)
