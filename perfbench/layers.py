"""The traced run: which functions are wrapped, and how spans become per-layer metrics.

Layers are the package modules: corpus, syntax, encoders, bigcn, head, model,
autodiff and training. Span targets are timed per call; autodiff op
functions are only counted. The isolated probes (probes.py) add forward and
backward time per stage. A target or probe that no longer exists reads 0
and is listed under ``absent`` in the run record.
"""

from __future__ import annotations

from sentigraph import corpus

from probes import run_probes
from tracer import Tracer

SPAN_TARGETS = {
    "model.AspectSentimentModel.forward": None,
    "model.AspectSentimentModel.adjacency": None,
    "encoders.embed_sequence": None,
    "encoders.bilstm_encode": None,
    "encoders.transformer_encode": None,
    "bigcn.bigcn_stack": None,
    "head.aspect_attention": None,
    "head.classify": None,
    "head.l2_penalty": None,
    "autodiff.backward": None,
    "training.Adam.step": None,
    "training.evaluate": lambda args: len(args[1]),  # items = samples evaluated
    "training.save_checkpoint": None,
    "training.load_checkpoint": None,
    "corpus.load_dataset": None,
    "corpus.build_vocab": None,
    "syntax.collect_sdi_stats": None,
}

OPS = ("matmul", "add", "mul", "concat", "slice_axis", "transpose", "gather_rows",
       "tanh", "sigmoid", "relu", "exp", "log", "scale", "clamp_min", "softmax",
       "reduce_sum", "reduce_mean", "layer_norm")
COUNT_TARGETS = [f"autodiff.{op}" for op in OPS]


def make_tracer() -> Tracer:
    return Tracer(SPAN_TARGETS, COUNT_TARGETS)


def probe(workload, model, files, budget_s):
    """Per-stage probes on the test sentence whose length is nearest the workload's probe length."""
    test = corpus.load_dataset(files.test)
    sample = min(test, key=lambda s: (abs(s.n - workload.probe_len), s.n))
    return run_probes(model, sample, budget_s)


def _span_ms(tracer, path):
    return tracer.get(path).mean_ms()


def _ops_per_call(tracer, path, op=None):
    stats = tracer.get(path)
    if not stats.calls:
        return 0.0
    count = stats.ops[f"autodiff.{op}"] if op else sum(stats.ops.values())
    return count / stats.calls


def per_layer_values(tracer, probes, traced) -> dict:
    """Every per-layer metric by name (see README.md for definitions)."""
    train = tracer.get("phase.train")
    trained = traced["rounds"] * traced["train_samples_per_call"]

    def ops_per_sample(op=None):
        count = train.ops[f"autodiff.{op}"] if op else sum(train.ops.values())
        return count / trained if trained else 0.0

    def probe_ms(stage, key):
        return probes.get(stage, {}).get(key, 0.0)

    evaluate = tracer.get("training.evaluate")
    return {
        "encoders.embed_sequence.ms": _span_ms(tracer, "encoders.embed_sequence"),
        "encoders.embed_sequence.bwd_ms": probe_ms("encoders.embed_sequence", "bwd_ms"),
        "encoders.bilstm_encode.ms": _span_ms(tracer, "encoders.bilstm_encode"),
        "encoders.bilstm_encode.fwd_ms": probe_ms("encoders.bilstm_encode", "fwd_ms"),
        "encoders.bilstm_encode.bwd_ms": probe_ms("encoders.bilstm_encode", "bwd_ms"),
        "encoders.bilstm_encode.ops": _ops_per_call(tracer, "encoders.bilstm_encode"),
        "encoders.transformer_encode.ms": _span_ms(tracer, "encoders.transformer_encode"),
        "encoders.transformer_encode.bwd_ms":
            probe_ms("encoders.transformer_encode", "bwd_ms"),
        "bigcn.bigcn_stack.ms": _span_ms(tracer, "bigcn.bigcn_stack"),
        "bigcn.bigcn_stack.bwd_ms": probe_ms("bigcn.bigcn_stack", "bwd_ms"),
        "bigcn.transpose_ops": _ops_per_call(tracer, "bigcn.bigcn_stack", "transpose"),
        "head.aspect_attention.ms": _span_ms(tracer, "head.aspect_attention"),
        "head.classify.ms": _span_ms(tracer, "head.classify"),
        "head.l2_penalty.ms": _span_ms(tracer, "head.l2_penalty"),
        "head.l2_penalty.bwd_ms": probe_ms("head.l2_penalty", "bwd_ms"),
        "model.adjacency.ms": _span_ms(tracer, "model.AspectSentimentModel.adjacency"),
        "model.forward.ms": _span_ms(tracer, "model.AspectSentimentModel.forward"),
        "model.forward.self_ms":
            tracer.get("model.AspectSentimentModel.forward").mean_self_ms(),
        "autodiff.backward.ms": _span_ms(tracer, "autodiff.backward"),
        "autodiff.ops_per_sample": ops_per_sample(),
        "autodiff.ops_per_sample.matmul": ops_per_sample("matmul"),
        "autodiff.ops_per_sample.slice_axis": ops_per_sample("slice_axis"),
        "autodiff.ops_per_sample.concat": ops_per_sample("concat"),
        "training.Adam.step.ms": _span_ms(tracer, "training.Adam.step"),
        "training.evaluate.ms_per_sample":
            evaluate.total_ns / evaluate.items / 1e6 if evaluate.items else 0.0,
        "training.save_checkpoint.ms": _span_ms(tracer, "training.save_checkpoint"),
        "training.load_checkpoint.ms": _span_ms(tracer, "training.load_checkpoint"),
        "corpus.load_dataset.ms": _span_ms(tracer, "corpus.load_dataset"),
        "syntax.collect_sdi_stats.ms": _span_ms(tracer, "syntax.collect_sdi_stats"),
    }


def overhead(untraced: dict, traced: dict) -> dict:
    """Traced minus untraced time, as a percentage of the untraced time, per metric."""
    def pct(slow, fast):
        return round(100.0 * (slow / fast - 1.0), 2)

    return {
        "setup_s": pct(traced["setup_s"], untraced["setup_s"]),
        "train_samples_per_s": pct(untraced["train_samples_per_s"],
                                   traced["train_samples_per_s"]),
        "eval_samples_per_s": pct(untraced["eval_samples_per_s"],
                                  traced["eval_samples_per_s"]),
        "predict_ms_p50": pct(traced["predict_ms_p50"], untraced["predict_ms_p50"]),
        "predict_ms_p95": pct(traced["predict_ms_p95"], untraced["predict_ms_p95"]),
    }
