"""Command-line entry point.

Subcommands::

    prepare    convert a CoNLL-U-style parse file + aspect annotations to JSON lines
    train      train a model, keeping the best-dev checkpoint
    eval       score a checkpoint on a dataset
    predict    write per-sample prediction records
    ablate     train and score the four graph variants (ablation.tsv)
    sweep      train once per graph-layer count of --layers and score each (sweep.tsv)
    gradcheck  finite-difference check of each op a training step records and of the model

``train`` writes ``<out-dir>/checkpoint.npz``, the one file ``eval`` and
``predict`` take as ``--checkpoint``; its manifest records the relation
statistics the checkpoint holds. ``ablate`` and ``sweep`` share one
handler: each trains its configs on one split and writes one
``key<TAB>acc<TAB>macro_f1`` line per config: ``ablate`` one per ``graph``
variant, whatever ``--graph`` says, and ``sweep`` one per ``gcn_layers``
count of ``--layers``, which its manifest records. Every file-producing run
writes a manifest first (marked incomplete) and completes it on success, so
interrupted runs are recognizable; a failure, a diverging run or a failed
write to stdout included, prints one ``error:`` line and exits 1. An error
at a line of an input file (dataset, parse, annotations, word vectors or
config) reads ``error: PATH:LINE: message``, LINE 1-based and counted at
``\n``. Config files use flat ``key = value`` lines; command-line flags
override file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, corpus, training
from .autodiff import NonFiniteError
from .config import TrainConfig, _parse_value, resolve_config
from .corpus import build_vocab, load_dataset, load_pretrained_embeddings
from .model import GRADCHECK_THRESHOLD, gradient_check_suite
from .training import (
    evaluate,
    layer_sweep,
    load_checkpoint,
    predictions_to_jsonl,
    run_ablation,
    save_checkpoint,
    train,
    write_epoch_log,
    write_scores,
)
from .util import atomic_write, file_sha256


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _flag_parser(field: dataclasses.Field):
    """The config file's parser for one field; argparse prefixes its error with the flag."""
    def parse(raw: str):
        try:
            return _parse_value(field, raw)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return parse


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    group = parser.add_argument_group("config overrides")
    for f in _CONFIG_FIELDS.values():
        group.add_argument("--" + f.name.replace("_", "-"), type=_flag_parser(f), default=None)


def _resolve_config(args: argparse.Namespace) -> TrainConfig:
    overrides = {name: getattr(args, name) for name in _CONFIG_FIELDS
                 if getattr(args, name) is not None}
    return resolve_config(args.config, overrides)


class Manifest:
    """Run record: effective config, seed, input hashes, artifact paths, status."""

    def __init__(self, path, command: str, config: TrainConfig | None,
                 inputs: dict[str, str]):
        self.path = path
        self.payload = {
            "command": command,
            "status": "incomplete",
            "seed": config.seed if config else None,
            "config": dataclasses.asdict(config) if config else None,
            "inputs": {name: {"path": str(p), "sha256": file_sha256(p)}
                       for name, p in inputs.items()},
            "artifacts": {},
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        self._flush()

    def _flush(self):
        with atomic_write(self.path) as f:
            json.dump(self.payload, f, indent=2)
            f.write("\n")

    def add_artifact(self, name: str, path) -> None:
        self.payload["artifacts"][name] = str(path)
        self._flush()

    def record(self, name: str, value) -> None:
        """Add a JSON value under ``name``, such as what a run learned from its data."""
        self.payload[name] = value
        self._flush()

    def complete(self) -> None:
        self.payload["status"] = "complete"
        self._flush()


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_prepare(args) -> int:
    samples = corpus.conllu_to_samples(args.conllu, args.labels)
    manifest = Manifest(str(args.out) + ".manifest.json", "prepare", None,
                        {"conllu": args.conllu, "labels": args.labels})
    corpus.save_dataset(args.out, samples)
    manifest.add_artifact("dataset", args.out)
    manifest.complete()
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _input_files(args, *names: str) -> dict[str, str]:
    """The manifest inputs: each named path argument that was given."""
    return {name: getattr(args, name) for name in names if getattr(args, name)}


def _load_split(args, config):
    """The training and dev samples: ``--dev`` if given, else a seeded holdout of ``--train``."""
    train_samples = load_dataset(args.train)
    if args.dev:
        dev_samples = load_dataset(args.dev)
    else:
        train_samples, dev_samples = training.split_dev(
            train_samples, config.dev_fraction, config.seed)
    if not train_samples:
        held_out = ("" if args.dev or config.dev_fraction == 0
                    else f" after holding out dev fraction {config.dev_fraction}")
        raise ValueError(f"{args.train}: no samples left to train on{held_out}")
    return train_samples, dev_samples


def _dev_score(value: float) -> float | None:
    """A dev score for JSON output; NaN (no dev samples to score) becomes null."""
    return None if math.isnan(value) else value


def cmd_train(args) -> int:
    config = _resolve_config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = Manifest(os.path.join(args.out_dir, "manifest.json"), "train", config,
                        _input_files(args, "train", "dev", "embeddings"))

    train_samples, dev_samples = _load_split(args, config)
    vocab = build_vocab(train_samples, min_freq=config.min_freq)
    pretrained = None
    if args.embeddings:
        pretrained = load_pretrained_embeddings(args.embeddings, vocab, config.d_w)
    result = train(config, train_samples, dev_samples, pretrained=pretrained, vocab=vocab)
    sdi = result.model.sdi  # the relation statistics the checkpoint holds, or none
    manifest.record("relations", None if sdi is None else sdi.as_dict())

    log_path = os.path.join(args.out_dir, "epochs.tsv")
    write_epoch_log(log_path, result.log)
    manifest.add_artifact("epoch_log", log_path)

    checkpoint_path = os.path.join(args.out_dir, "checkpoint.npz")
    save_checkpoint(checkpoint_path, result.model, state=result.best_state)
    manifest.add_artifact("checkpoint", checkpoint_path)

    final = result.log[-1]  # validate() makes max_epochs >= 1
    summary = {
        "best_epoch": result.best_epoch,
        "best_dev_acc": _dev_score(result.best_dev_acc),
        "final_epoch": final.epoch,
        "final_dev_acc": _dev_score(final.dev_acc),
        "final_dev_f1": _dev_score(final.dev_f1),
    }
    summary_path = os.path.join(args.out_dir, "summary.json")
    with atomic_write(summary_path) as f:
        json.dump(summary, f, indent=2, allow_nan=False)
        f.write("\n")
    manifest.add_artifact("summary", summary_path)
    manifest.complete()
    print(f"best dev accuracy {result.best_dev_acc:.4f} at epoch {result.best_epoch}; "
          f"checkpoint in {checkpoint_path}")
    return 0


def _report_unseen_relations(model) -> None:
    """One stderr line counting the edges whose relation the checkpoint's statistics lack."""
    unseen = model.unseen_relations
    if unseen:
        counts = ", ".join(f"{rel}={n}" for rel, n in unseen.most_common())
        print(f"note: {sum(unseen.values())} edges had relations unseen in training, "
              f"weighted at the minimum ratio: {counts}", file=sys.stderr)


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    samples = load_dataset(args.data)
    if not samples:
        raise ValueError(f"{args.data}: no samples to evaluate")
    report = evaluate(model, samples)
    _report_unseen_relations(model)
    text = json.dumps(report.as_dict(), indent=2)
    if args.out:
        manifest = Manifest(str(args.out) + ".manifest.json", "eval", model.config,
                            _input_files(args, "checkpoint", "data"))
        with atomic_write(args.out) as f:
            f.write(text + "\n")
        manifest.add_artifact("metrics", args.out)
        manifest.complete()
    print(text)
    return 0


def cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    samples = load_dataset(args.data)
    manifest = Manifest(str(args.out) + ".manifest.json", "predict", model.config,
                        _input_files(args, "checkpoint", "data"))
    predictions_to_jsonl(args.out, model, samples)
    _report_unseen_relations(model)
    manifest.add_artifact("predictions", args.out)
    manifest.complete()
    print(f"wrote {len(samples)} prediction records to {args.out}")
    return 0


def cmd_study(args) -> int:
    config = _resolve_config(args)
    try:
        layers = [int(k) for k in args.layers.split(",")] if args.command == "sweep" else None
    except ValueError:
        raise ValueError(f"sweep --layers: expected comma-separated integers, "
                         f"got {args.layers!r}") from None
    os.makedirs(args.out_dir, exist_ok=True)
    manifest = Manifest(os.path.join(args.out_dir, "manifest.json"), args.command,
                        config, _input_files(args, "train", "dev", "eval"))
    eval_samples = load_dataset(args.eval)
    if not eval_samples:
        raise ValueError(f"{args.eval}: no samples to evaluate")
    train_samples, dev_samples = _load_split(args, config)
    if layers is None:
        scores = run_ablation(config, train_samples, eval_samples, dev_samples)
        key_column, file_name, artifact = "variant", "ablation.tsv", "table"
    else:
        manifest.record("layers", layers)
        scores = layer_sweep(config, layers, train_samples, eval_samples, dev_samples)
        key_column, file_name, artifact = "gcn_layers", "sweep.tsv", "series"
    path = os.path.join(args.out_dir, file_name)
    write_scores(path, key_column, scores)
    manifest.add_artifact(artifact, path)
    manifest.complete()
    for key, report in scores.items():
        print(f"{key_column}={key} acc={report.acc:.4f} macro_f1={report.macro_f1:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    results = gradient_check_suite()
    worst = 0.0
    for name, report in results:
        skipped = f" skipped={len(report.skipped)}" if report.skipped else ""
        print(f"{name:16s} max_rel_error={report.max_rel_error:.3e} "
              f"checked={report.checked}{skipped}")
        worst = max(worst, report.max_rel_error)
    print(f"overall max relative error: {worst:.3e} (threshold {GRADCHECK_THRESHOLD:.0e})")
    return 0 if worst < GRADCHECK_THRESHOLD else 1


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentigraph",
        description="aspect-based sentiment classification over dependency parses")
    parser.add_argument("--version", action="version", version=f"sentigraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="convert parses + aspect annotations to JSON lines")
    p.add_argument("--conllu", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_prepare)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--train", required=True)
    p.add_argument("--dev")
    p.add_argument("--embeddings", help="pretrained word-vector text file")
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True, help="checkpoint.npz written by train")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("predict", help="write prediction records for a dataset")
    p.add_argument("--checkpoint", required=True, help="checkpoint.npz written by train")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_predict)

    for name, help_text in (("ablate", "train and score the four graph variants"),
                            ("sweep", "score one model per graph-layer count")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--train", required=True)
        p.add_argument("--dev")
        p.add_argument("--eval", required=True)
        p.add_argument("--out-dir", required=True)
        if name == "sweep":
            p.add_argument("--layers", default="1,2,3,4",
                           help="comma-separated graph-layer counts (default 1,2,3,4)")
        _add_config_flags(p)
        p.set_defaults(handler=cmd_study)

    p = sub.add_parser("gradcheck", help="finite-difference check of ops and model")
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # every op checks its result and raises NonFiniteError, reported below as one
        # line; numpy's overflow and invalid-value warnings would only print before it
        with np.errstate(over="ignore", invalid="ignore"):
            status = args.handler(args)
        sys.stdout.flush()  # a failed write to stdout surfaces here, not at interpreter exit
        return status
    except OSError as e:  # a missing input file, a directory in the way, a closed pipe
        print(f"error: {e}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout failed (a closed pipe, a full disk): the exit flush would too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, NonFiniteError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
