"""End-to-end training: mini-batch Adam, evaluation metrics, the ablation over the
four ``graph`` variants and the sweep over the graph-layer counts its caller gives.

Each batch is one packed forward pass and one loss (mean cross-entropy
over the batch plus the L2 penalty counted once, from
:func:`head.compute_loss`), backpropagated once by :meth:`Adam.step`. The
walk steps each parameter as soon as its gradient is complete, so a step
never holds every gradient at once. Only the cross-entropy is on the tape:
Adam adds the L2 gradient (2.0·λ)·w to each decayed parameter's gradient
just before that parameter's update, and steps the parameters the walk
never reaches after it.
Evaluation and prediction files run through ``model.predict_all``, in
length-sorted chunks of at most ``model.INFERENCE_CHUNK_ROWS`` padded rows.
The caller supplies the dev split: ``split_dev`` holds one out of a
training file, and the CLI alone calls it, before it builds a vocabulary.
Model selection keeps the parameters with the best dev accuracy, earliest
epoch winning ties; an empty dev split keeps the last epoch. Relation
statistics always come from the training split only.

A checkpoint is one uncompressed ``.npz`` file of parameters, vocabulary,
relation statistics and config, CRC-checked on load; only
:func:`save_checkpoint` and :func:`load_checkpoint` know its layout.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import head
from .autodiff import ParameterStore
from .config import GRAPHS, TrainConfig, config_to_text, parse_config_text
from .corpus import LABELS, Vocab, build_vocab
from .model import AspectSentimentModel
from .syntax import SdiTable, collect_sdi_stats
from .util import atomic_write, make_rng

class Adam:
    """Standard Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8), each
    parameter stepped as soon as its gradient is complete.

    ``step(loss)`` runs the one backward walk of ``loss``, which hands each
    parameter's gradient over right after the last node reading it
    (``autodiff.backward``'s ``on_leaf``). The parameter is updated there,
    so a step holds only the gradients of parameters still being read. A
    decayed parameter's gradient first gets the L2 penalty's (2.0·λ)·w,
    which ``head.compute_loss`` leaves off the tape. After the walk, each
    parameter it never reached steps with a zero data gradient plus its L2
    term, so its moments decay as they always did.

    An update runs in place over the tensor's flat view in blocks of at
    most ``block_size`` elements (512 KB, small enough to stay in a
    per-core L2 cache), through two scratch buffers allocated once, so it
    allocates nothing the size of a parameter. Per element it computes, in
    this order,

        g += (2.0*λ)*w   (decayed parameters, when λ != 0)
        m = b1*m + (1-b1)*g,   v = b2*v + ((1-b2)*g)*g,
        w -= (lr*(m/c1)) / (sqrt(v/c2) + eps)

    with c1 = 1 - b1**t and c2 = 1 - b2**t: the operations and order of
    the out-of-place formula on a gradient that takes the L2 term last, as
    a tape ending in the penalty's node gave it, so the result is
    bit-identical to that.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    block_size = 65536

    def __init__(self, parameters: ParameterStore, learning_rate: float, lambda_l2: float):
        self.learning_rate = learning_rate
        self.t = 0
        decayed = {name for name, _t in parameters.decayed_items()}
        # per tensor: its moments m and v, and 2λ for its L2 gradient (0.0 when exempt);
        # np.zeros gets pages the OS has already zeroed instead of filling them
        self._state = {t: (np.zeros(t.data.shape), np.zeros(t.data.shape),
                           2.0 * lambda_l2 if name in decayed else 0.0)
                       for name, t in parameters.items()}
        largest = max((t.data.size for t in parameters.tensors()), default=0)
        scratch = min(self.block_size, largest)
        self._scratch = (np.empty(scratch), np.empty(scratch))

    def step(self, loss: ad.Tensor) -> None:
        """Backpropagate ``loss`` and update every parameter once, each as its gradient completes.

        An error raised by the walk (a ``NonFiniteError`` at a later node)
        leaves the parameters handed over before it already updated.
        """
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.learning_rate, self.eps
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        unreached = dict.fromkeys(self._state)  # in the store's order

        def update(tensor: ad.Tensor, grad: np.ndarray) -> None:
            del unreached[tensor]
            m, v, decay = self._state[tensor]
            if not tensor.data.flags.c_contiguous:  # a rebound array: its flat view must not copy
                tensor.data = tensor.data.copy()
            w, g, m, v = tensor.data.reshape(-1), grad.reshape(-1), m.reshape(-1), v.reshape(-1)
            for lo in range(0, w.size, self.block_size):
                span = slice(lo, lo + self.block_size)
                wb, gb, mb, vb = w[span], g[span], m[span], v[span]
                s1, s2 = (buf[:wb.size] for buf in self._scratch)
                if decay:
                    np.multiply(wb, decay, out=s1)
                    gb += s1
                mb *= b1
                np.multiply(gb, 1 - b1, out=s1)
                mb += s1
                vb *= b2
                np.multiply(gb, 1 - b2, out=s1)
                s1 *= gb
                vb += s1
                np.divide(mb, c1, out=s1)
                s1 *= lr
                np.divide(vb, c2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += eps
                s1 /= s2
                wb -= s1

        ad.backward(loss, on_leaf=update)
        for tensor in list(unreached):
            update(tensor, np.zeros(tensor.data.shape))


# ---------------------------------------------------------------------------
# metrics

@dataclass
class MetricsReport:
    """Confusion matrix (rows = gold, columns = predicted) and derived scores."""

    confusion: np.ndarray
    acc: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_f1: float

    def as_dict(self) -> dict:
        return {
            "labels": list(LABELS),
            "confusion": self.confusion.astype(int).tolist(),
            "acc": self.acc,
            "precision": self.precision.tolist(),
            "recall": self.recall.tolist(),
            "f1": self.f1.tolist(),
            "macro_f1": self.macro_f1,
        }


def confusion_matrix(gold: list[int], predicted: list[int]) -> np.ndarray:
    if len(gold) != len(predicted):
        raise ValueError("gold and predicted label lists differ in length")
    matrix = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for g, p in zip(gold, predicted):
        matrix[g, p] += 1
    return matrix


def metrics_from_confusion(confusion: np.ndarray) -> MetricsReport:
    """Micro accuracy plus one-vs-rest precision/recall/F1 and their macro mean.

    Undefined ratios (empty class or empty prediction column) count as 0.
    """
    confusion = np.asarray(confusion, dtype=np.float64)
    total = confusion.sum()
    acc = float(np.trace(confusion) / total) if total else 0.0
    tp = np.diag(confusion)
    col = confusion.sum(axis=0)
    row = confusion.sum(axis=1)
    precision = np.divide(tp, col, out=np.zeros_like(tp), where=col > 0)
    recall = np.divide(tp, row, out=np.zeros_like(tp), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros_like(tp), where=pr > 0)
    return MetricsReport(confusion=confusion.astype(np.int64), acc=acc,
                         precision=precision, recall=recall, f1=f1,
                         macro_f1=float(f1.mean()))


def evaluate(model: AspectSentimentModel, samples) -> MetricsReport:
    gold = [LABELS.index(s.label) for s in samples]
    predicted = [LABELS.index(p.predicted_label) for p in model.predict_all(samples)]
    return metrics_from_confusion(confusion_matrix(gold, predicted))


# ---------------------------------------------------------------------------
# training loop

@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_acc: float
    dev_f1: float


@dataclass
class TrainResult:
    """A training run's model, its best epoch's parameters and its epoch log.

    When the last epoch is the best, or there is no dev split,
    ``best_state`` holds the model's own parameter arrays rather than a
    copy: restoring it changes nothing, and further updates to the model
    change it too.
    """

    model: AspectSentimentModel          # holds the final-epoch parameters
    best_state: dict[str, np.ndarray]    # parameters at the best dev accuracy
    best_epoch: int
    best_dev_acc: float
    log: list[EpochStats]

    def restore_best(self) -> AspectSentimentModel:
        self.model.parameters.load_state_dict(self.best_state)
        return self.model


def split_dev(samples, fraction: float, seed: int):
    """Seeded holdout used when a corpus ships without a dev split.

    A fraction of 0 holds nothing out: training then keeps the last epoch.
    """
    if not 0 <= fraction < 1:
        raise ValueError("dev fraction must be in [0, 1)")
    if fraction == 0:
        return list(samples), []
    rng = make_rng(seed, "devsplit")
    order = rng.permutation(len(samples))
    n_dev = max(1, int(round(len(samples) * fraction)))
    dev_ids = set(order[:n_dev].tolist())
    train = [s for i, s in enumerate(samples) if i not in dev_ids]
    dev = [s for i, s in enumerate(samples) if i in dev_ids]
    return train, dev


def train(config: TrainConfig, train_samples, dev_samples,
          pretrained: dict[int, np.ndarray] | None = None,
          vocab: Vocab | None = None) -> TrainResult:
    """Mini-batch Adam over shuffled epochs with best-dev-accuracy selection.

    The caller supplies the dev split (see :func:`split_dev`); with no dev
    samples the last epoch is kept. ``vocab`` defaults to the training
    samples' vocabulary, and ``pretrained`` word vectors are keyed by its
    ids (see :class:`AspectSentimentModel`).

    An error returns nothing. Raised during a step's backward walk (a
    diverging run's ``NonFiniteError``), it leaves that step half taken in
    memory: the parameters handed over before it are updated, the rest are
    not, and the model it raised in is reachable only from the traceback.
    Nothing is written to disk; the caller saves what ``train`` returns.
    """
    config.validate()
    if not train_samples:
        raise ValueError("cannot train on an empty sample list")
    if vocab is None:
        vocab = build_vocab(train_samples, min_freq=config.min_freq)
    sdi = collect_sdi_stats(train_samples) if config.edge_weighted else None
    model = AspectSentimentModel(config, vocab, sdi=sdi, pretrained=pretrained)
    optimizer = Adam(model.parameters, config.learning_rate, config.lambda_l2)
    shuffle_rng = make_rng(config.seed, "shuffle")

    log: list[EpochStats] = []
    # while the live parameters are the best epoch's, best_state is copied only
    # before a step would overwrite them; the first dev epoch always improves on best_acc
    best_state = None
    best_is_live = False
    best_epoch = 0
    best_acc = -1.0
    n = len(train_samples)
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        total_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = [train_samples[i] for i in order[start:start + config.batch_size]]
            if best_is_live:
                best_state = model.parameters.state_dict()
                best_is_live = False
            loss = head.compute_loss(model.forward(batch).prob, [s.label for s in batch],
                                     model.parameters, config.lambda_l2)
            optimizer.step(loss)
            total_loss += loss.item() * len(batch)
        del loss  # the last tape, before dev evaluation (freed per step, its pages fault in again)
        dev_metrics = evaluate(model, dev_samples) if dev_samples else None
        stats = EpochStats(
            epoch=epoch,
            train_loss=total_loss / n,
            dev_acc=dev_metrics.acc if dev_metrics else float("nan"),
            dev_f1=dev_metrics.macro_f1 if dev_metrics else float("nan"),
        )
        log.append(stats)
        if dev_metrics and dev_metrics.acc > best_acc:
            best_acc = dev_metrics.acc
            best_epoch = epoch
            best_is_live = True
    if not dev_samples:
        best_epoch = len(log)
        best_acc = float("nan")
        best_is_live = True
    if best_is_live:
        best_state = {name: t.data for name, t in model.parameters.items()}
    return TrainResult(model=model, best_state=best_state, best_epoch=best_epoch,
                       best_dev_acc=best_acc, log=log)


def write_epoch_log(path, log: list[EpochStats]) -> None:
    with atomic_write(path) as f:
        f.write("epoch\ttrain_loss\tdev_acc\tdev_f1\n")
        for e in log:
            f.write(f"{e.epoch}\t{e.train_loss!r}\t{e.dev_acc!r}\t{e.dev_f1!r}\n")


# ---------------------------------------------------------------------------
# ablations and the layer sweep

def train_and_score(configs: dict, train_samples, eval_samples,
                    dev_samples) -> dict[object, MetricsReport]:
    """Train each named config on one split, restore its best epoch, score it on the eval split."""
    return {key: evaluate(train(config, list(train_samples), dev_samples).restore_best(),
                          eval_samples)
            for key, config in configs.items()}


def run_ablation(config: TrainConfig, train_samples, eval_samples,
                 dev_samples) -> dict[str, MetricsReport]:
    """Train each graph variant of ``GRAPHS`` from the same seed and score it on the eval split.

    The result is the same whatever variant ``config.graph`` names.
    """
    return train_and_score({graph: dataclasses.replace(config, graph=graph) for graph in GRAPHS},
                           train_samples, eval_samples, dev_samples)


def layer_sweep(config: TrainConfig, layers, train_samples, eval_samples,
                dev_samples) -> dict[int, MetricsReport]:
    """Train one model per graph-layer count in ``layers`` and score each.

    An empty list, a count below 1 or a repeated count fails before any training.
    """
    if not layers or min(layers) < 1 or len(set(layers)) != len(layers):
        raise ValueError(f"sweep layer counts must be distinct integers >= 1, got {layers}")
    return train_and_score({k: dataclasses.replace(config, gcn_layers=k) for k in layers},
                           train_samples, eval_samples, dev_samples)


def write_scores(path, key_column: str, scores: dict[object, MetricsReport]) -> None:
    """A ``key_column<TAB>acc<TAB>macro_f1`` header, then one line per scored key."""
    with atomic_write(path) as f:
        f.write(f"{key_column}\tacc\tmacro_f1\n")
        for key, report in scores.items():
            f.write(f"{key}\t{report.acc!r}\t{report.macro_f1!r}\n")


# ---------------------------------------------------------------------------
# checkpoints: one uncompressed .npz file

_META = "__meta__"  # the JSON entry; parameter names are dotted paths such as ``lstm.fwd.wx``


def save_checkpoint(path, model: AspectSentimentModel,
                    state: dict[str, np.ndarray] | None = None) -> None:
    """Write ``state`` (default: the model's parameters) to ``path`` as an uncompressed .npz.

    One member per parameter, named as in the model, and ``__meta__``: the
    UTF-8 JSON ``{"config": config text, "vocab": tokens by id, "relations":
    {"total_edges": n, "ratios": {relation: ratio}} or null}``. The file
    replaces ``path`` only once complete, so no reader sees two checkpoints.
    """
    meta = {"config": config_to_text(model.config), "vocab": model.vocab.id_to_token,
            "relations": None if model.sdi is None else model.sdi.as_dict()}
    if state is None:
        state = {name: t.data for name, t in model.parameters.items()}
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with atomic_write(path, "wb") as f:
        # a parameter named _META repeats the keyword: a TypeError, not a lost entry
        np.savez(f, **state, **{_META: meta_bytes})


def _read_member(archive: zipfile.ZipFile, info: zipfile.ZipInfo) -> np.ndarray:
    with archive.open(info) as member:
        try:
            data = member.read()
        except zipfile.BadZipFile as e:  # zipfile checks the CRC-32 at a member's end
            raise ValueError(f"member {info.filename!r} fails its CRC-32 check") from e
    header = io.BytesIO(data)
    version = np.lib.format.read_magic(header)
    shape, fortran, dtype = (np.lib.format.read_array_header_1_0(header)
                             if version == (1, 0) else
                             np.lib.format.read_array_header_2_0(header))
    size = len(data) - header.tell()
    if dtype.hasobject or math.prod(shape) * dtype.itemsize != size:
        raise ValueError(f"member {info.filename!r} declares shape {shape} "
                         f"of {dtype}, which its {size} bytes do not hold")
    values = np.frombuffer(data, dtype, offset=header.tell())
    return values.reshape(shape, order="F" if fortran else "C")


def load_checkpoint(path) -> AspectSentimentModel:
    """Rebuild the model :func:`save_checkpoint` wrote to ``path``, holding one member at a time.

    ``__meta__`` is read first and the model built from it; the parameter names must then
    match the file's exactly. Each member's CRC-32 is checked as it is read, then its ``.npy``
    header's size against its bytes, then its shape. Any failure is a ValueError naming ``path``.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            members = {info.filename.removesuffix(".npy"): info for info in archive.infolist()}
            meta = json.loads(_read_member(archive, members.pop(_META)).tobytes())
            relations = meta["relations"]
            sdi = None if relations is None else SdiTable.from_dict(relations)
            model = AspectSentimentModel(parse_config_text(meta["config"]),
                                         Vocab(meta["vocab"]), sdi=sdi)
            model.parameters.check_names(members)
            for name, info in members.items():
                values, target = _read_member(archive, info), model.parameters[name].data
                if values.shape != target.shape:
                    raise ValueError(f"parameter {name!r}: shape {values.shape} != {target.shape}")
                np.copyto(target, values)
    except Exception as e:  # outside input: zipfile and numpy raise many kinds of error
        raise ValueError(f"{path}: not a loadable checkpoint: {e}") from e
    return model


def predictions_to_jsonl(path, model: AspectSentimentModel, samples) -> None:
    """One JSON record per sample: class probabilities, predicted and gold labels."""
    samples = list(samples)
    with atomic_write(path) as f:
        for sample, prediction in zip(samples, model.predict_all(samples)):
            f.write(json.dumps(prediction.as_record(sample.label)) + "\n")
