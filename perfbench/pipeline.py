"""One workload run: set-up, training, checkpoint round trip, prediction, evaluation.

Every call goes through the public library API. A run is a sequence of
rounds, and each round pays for what a user of the command line pays for:

* set-up: ``corpus.load_dataset`` on the generated files and
  ``corpus.build_vocab``, repeated SETUP_REPEATS times;
* training: ``training.train`` then ``training.save_checkpoint``, and
  ``training.load_checkpoint`` of what it saved;
* prediction: a closed loop with one caller and no think time, timing each
  ``model.predict`` over one pass of the test file;
* evaluation: ``training.evaluate`` over the whole test file.

Throughputs are the work of all the run's calls over their summed wall
time, latencies percentiles over all predictions, and set-up time the
median over rounds of a round's mean set-up time. On a shared virtual
machine the CPU's speed changes in phases of seconds to minutes, between
speeds up to 2x apart. A sum over the run moves in proportion to the time
spent at each speed, where a median over a few calls jumps between them.

Every operation is counted in a :class:`Ledger`; an exception, a non-finite
loss or probability, or a failed output check counts as a failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import statistics
import sys
import time
import traceback

import numpy as np

from sentigraph import corpus, training
from sentigraph.config import TrainConfig
from sentigraph.corpus import LABELS

from workloads import DESK, FULL, SMOKE, Workload, WorkloadFiles, desk_split, zipf_split

PROB_SUM_TOL = 1e-12
FINGERPRINT_TOL = 1e-10
FINGERPRINT_SEED = 20240403
SETUP_REPEATS = 5  # per round; set-up is short, so its mean per round is steadier


class Ledger:
    """Attempted and failed operation counts, with a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        print(f"benchmark: failed: {what}", file=sys.stderr)

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    @contextlib.contextmanager
    def op(self, what: str):
        """Count one operation; an exception inside fails it and is re-raised."""
        self.attempted += 1
        try:
            yield
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{what}: exception")
            raise


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _probs_ok(prob: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(prob)) and abs(prob.sum() - 1.0) <= PROB_SUM_TOL)


@dataclasses.dataclass
class TrainInputs:
    train: list
    dev: list
    vocab: corpus.Vocab | None  # None: training.train builds it from the train split


def _load_training_inputs(files: WorkloadFiles, config: TrainConfig) -> TrainInputs:
    train = corpus.load_dataset(files.train)
    dev = corpus.load_dataset(files.dev)
    vocab = None
    if files.vocab_corpus:
        # the vocabulary comes from the whole corpus, as a real training file's would
        vocab = corpus.build_vocab(corpus.load_dataset(files.vocab_corpus) + train,
                                   min_freq=config.min_freq)
    return TrainInputs(train, dev, vocab)


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


@dataclasses.dataclass
class Timings:
    setup_s: list = dataclasses.field(default_factory=list)  # mean set-up per round
    train_s: list = dataclasses.field(default_factory=list)  # wall time per training call
    eval_s: list = dataclasses.field(default_factory=list)   # wall time per evaluate call
    latencies_ns: list = dataclasses.field(default_factory=list)


class _Rounds:
    """Runs rounds of set-up, a training call, a predict pass and an evaluation."""

    def __init__(self, workload, config, files, checkpoint, ledger):
        self.workload = workload
        self.config = config
        self.files = files
        self.checkpoint = checkpoint
        self.ledger = ledger
        self.tracer = None
        self.timings = Timings()
        self.final_train_loss = None
        self.inputs = None

    def setup(self):
        """Set-up, timed SETUP_REPEATS times; returns the test samples."""
        total = 0.0
        for _ in range(SETUP_REPEATS):
            with self.ledger.op("set-up"), _span(self.tracer, "phase.setup"):
                t0 = time.perf_counter()
                test = corpus.load_dataset(self.files.test)
                self.inputs = _load_training_inputs(self.files, self.config)
                total += time.perf_counter() - t0
        self.timings.setup_s.append(total / SETUP_REPEATS)
        return test

    def train(self):
        """training.train then save_checkpoint, as ``sentigraph train`` pays for them."""
        config, inputs = self.config, self.inputs
        with self.ledger.op("train"), _span(self.tracer, "phase.train"):
            t0 = time.perf_counter()
            result = training.train(config, inputs.train, inputs.dev, vocab=inputs.vocab)
            training.save_checkpoint(self.checkpoint, result.model, state=result.best_state)
            self.timings.train_s.append(time.perf_counter() - t0)
        losses = [e.train_loss for e in result.log]
        self.ledger.check("train loss is finite", all(math.isfinite(x) for x in losses))
        if self.workload.corpus == "desk":
            self.ledger.check("desk train loss falls from the first epoch to the last",
                              losses[-1] < losses[0])
        self.final_train_loss = losses[-1]
        return result

    def predict_pass(self, model, test) -> list[str]:
        labels = []
        for sample in test:
            with self.ledger.op("predict"), _span(self.tracer, "phase.predict"):
                t0 = time.perf_counter_ns()
                prediction = model.predict(sample)
                self.timings.latencies_ns.append(time.perf_counter_ns() - t0)
            if not _probs_ok(prediction.prob):
                self.ledger.fail("predict probabilities are finite and sum to 1")
            labels.append(prediction.predicted_label)
        return labels

    def evaluate(self, model, test, labels) -> None:
        with self.ledger.op("evaluate"), _span(self.tracer, "phase.evaluate"):
            wall, report = _timed(lambda: training.evaluate(model, test))
        self.timings.eval_s.append(wall)
        gold = [LABELS.index(s.label) for s in test]
        expected = training.confusion_matrix(gold, [LABELS.index(x) for x in labels])
        self.ledger.check("evaluate confusion equals the predict labels",
                          np.array_equal(report.confusion, expected))

    def run(self, check_checkpoint: bool):
        test = self.setup()
        result = self.train()
        with self.ledger.op("load checkpoint"):
            model = training.load_checkpoint(self.checkpoint)
        if check_checkpoint:
            trained = result.restore_best()
            same = all(np.array_equal(trained.predict(s).prob, model.predict(s).prob)
                       for s in test[:4])
            self.ledger.check("loaded checkpoint gives bit-identical probabilities", same)
        del result
        self.evaluate(model, test, self.predict_pass(model, test))
        return model, test


def _summary(t: Timings, samples_per_call: int, n_test: int) -> dict:
    ms = np.array(t.latencies_ns) / 1e6
    p95 = float(np.percentile(ms, 95))
    return {
        "setup_s": statistics.median(t.setup_s),
        "train_samples_per_s": samples_per_call * len(t.train_s) / sum(t.train_s),
        "eval_samples_per_s": n_test * len(t.eval_s) / sum(t.eval_s),
        "predict_ms_p50": float(np.percentile(ms, 50)),
        "predict_ms_p95": p95,
        "rounds": len(t.train_s),
        "setup_s_each": t.setup_s,
        "train_s_each": t.train_s,
        "eval_s_each": t.eval_s,
        "train_samples_per_call": samples_per_call,
        "predictions": len(ms),
        "predictions_beyond_p95": int((ms > p95).sum()),
    }


def run_pipeline(workload: Workload, files: WorkloadFiles, seed: int, budget_s: float,
                 workdir: str, ledger: Ledger, tracer=None,
                 min_predictions: int | None = None):
    """Rounds of every phase until ``budget_s`` is spent.

    Returns (untraced measurements, traced measurements or None, last model).
    Interleaving the phases spreads each metric's samples over the whole
    run, so a burst of load on a shared machine does not fall on one metric.
    Rounds start while the next one fits in the budget; extra predict
    passes then top the untraced predictions up to
    ``min_predictions`` (default: the workload's). With a ``tracer``, rounds
    alternate between untraced and traced (the tracer installed for that
    round only), so the tracing overhead is measured over the same stretch
    of time.
    """
    config = dataclasses.replace(workload.config, seed=seed)
    rounds = _Rounds(workload, config, files, os.path.join(workdir, "checkpoint"), ledger)
    if min_predictions is None:
        min_predictions = workload.min_predictions
    timings = (Timings(), Timings())  # untraced, traced
    started = time.perf_counter()
    n_rounds, round_s, model, test = 0, 0.0, None, []
    while (n_rounds < (2 if tracer else 1)
           or time.perf_counter() - started + round_s <= budget_s):
        traced = tracer is not None and n_rounds % 2 == 1
        rounds.timings, rounds.tracer = timings[traced], (tracer if traced else None)
        model = None  # free the previous round's model first
        if traced:
            tracer.install()
        try:
            round_s, (model, test) = _timed(
                lambda: rounds.run(check_checkpoint=n_rounds == 0))
        finally:
            if traced:
                tracer.uninstall()
        n_rounds += 1
    rounds.timings, rounds.tracer = timings[0], None
    while len(timings[0].latencies_ns) < min_predictions:
        rounds.predict_pass(model, test)
    samples_per_call = len(rounds.inputs.train) * config.max_epochs
    untraced = _summary(timings[0], samples_per_call, len(test))
    untraced.update(final_train_loss=rounds.final_train_loss, n_test=len(test),
                    vocab_size=len(model.vocab))
    return (untraced, _summary(timings[1], samples_per_call, len(test)) if tracer else None,
            model)


# ---------------------------------------------------------------------------
# fixed-seed fingerprint

def fingerprint(kind: str, workdir: str) -> dict:
    """Final train loss and a probability checksum of a tiny fixed-seed run.

    ``kind`` picks the model config: "full", "desk" or "smoke". The data are
    generated from a constant seed, written to a file and read back, so the
    figures change only when the program's arithmetic does.
    """
    rng = np.random.default_rng(FINGERPRINT_SEED)
    if kind == "desk":
        config = dataclasses.replace(DESK, max_epochs=2, batch_size=8)
        samples = desk_split(rng, 16)
    else:
        config = dataclasses.replace(FULL if kind == "full" else SMOKE,
                                     max_epochs=1, batch_size=4)
        samples = zipf_split(rng, 4, (6, 12))
    config = dataclasses.replace(config, seed=FINGERPRINT_SEED)
    path = os.path.join(workdir, f"fingerprint-{kind}.jsonl")
    corpus.save_dataset(path, samples)
    samples = corpus.load_dataset(path)
    result = training.train(config, samples, samples)
    model = result.restore_best()
    probs = np.array([model.predict(s).prob for s in samples])
    return {"final_train_loss": float(result.log[-1].train_loss),
            "prob_checksum": float((probs[:, 0] - probs[:, 2]).sum())}


def check_fingerprint(kind: str, reference: dict, workdir: str, ledger: Ledger) -> dict:
    with ledger.op("fingerprint"):
        got = fingerprint(kind, workdir)
    want = reference[kind]
    for key in ("final_train_loss", "prob_checksum"):
        ledger.check(f"fingerprint {kind}.{key} = {want[key]!r} within "
                     f"{FINGERPRINT_TOL} (got {got[key]!r})",
                     abs(got[key] - want[key]) <= FINGERPRINT_TOL)
    return got
