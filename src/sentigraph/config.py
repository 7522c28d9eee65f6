"""Run configuration: one flat dataclass of numbers and a graph variant, as key = value text.

A config file is read by ``corpus.read_lines``, as every line-based input is.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

from .corpus import line_error, parse_lines, read_lines

# the ablation's graph variants, in ablation.tsv's order; ``model`` says what each one is
GRAPHS = ("full", "no_dependency", "no_edge_weights", "no_bidirectional")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and the graph variant for one training run.

    Thirteen fields: the widths ``d_w``, ``d_h``, ``heads`` and ``ffn_width``,
    ``gcn_layers``, the optimizer's ``learning_rate``, ``batch_size``,
    ``max_epochs`` and ``lambda_l2``, the vocabulary's ``min_freq``,
    ``seed``, ``dev_fraction``, and ``graph``, one of :data:`GRAPHS`.
    Defaults follow the full-scale setup: 300-wide embeddings and hidden
    states, 3 graph-convolution layers, Adam at 0.001, batches of 32, up to
    100 epochs. Desk-scale runs shrink the widths and layer count.
    ``batch_size`` is the training mini-batch only; inference sizes its own
    chunks (``model.inference_chunks``). ``graph`` varies the graph alone;
    the attention always scores and pools the Bi-LSTM states (``model``),
    and the relation statistics always skip root pseudo-edges and count
    punctuation (``syntax.collect_sdi_stats``).
    """

    d_w: int = 300
    d_h: int = 300
    gcn_layers: int = 3
    heads: int = 6
    ffn_width: int = 600
    learning_rate: float = 0.001
    batch_size: int = 32
    max_epochs: int = 100
    lambda_l2: float = 1e-5
    min_freq: int = 1
    seed: int = 1
    dev_fraction: float = 0.1
    graph: str = "full"

    @property
    def d_model(self) -> int:
        # the transformer consumes raw embeddings, so its width is the embedding width
        return self.d_w

    @property
    def d_context(self) -> int:
        # Bi-LSTM output width; also the graph-convolution and pooled width
        return 2 * self.d_h

    @property
    def edge_weighted(self) -> bool:
        # the graphs whose edges the training split's relation statistics weigh
        return self.graph in ("full", "no_bidirectional")

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            _check_value(f.name, getattr(self, f.name))
        if self.d_w % self.heads != 0:
            raise ValueError(f"d_w={self.d_w} must be divisible by heads={self.heads}")


def _check_value(name: str, value) -> None:
    """Refuse a value outside the range of field ``name``, whatever the other fields hold."""
    if name == "graph":
        ok, rule = value in GRAPHS, f"one of {', '.join(GRAPHS)}"
    elif name == "lambda_l2":
        ok, rule = 0 <= value < math.inf, "finite and >= 0"
    elif name == "dev_fraction":
        ok, rule = 0 <= value < 1, "in [0, 1)"
    elif name == "d_w":
        ok, rule = 0 < value and value % 2 == 0, "positive and even for the positional encoding"
    else:  # NaN fails as well
        ok, rule = name == "seed" or 0 < value < math.inf, "positive and finite"
    if not ok:
        raise ValueError(f"config field {name} must be {rule}, got {value!r}")


def _parse_value(field: dataclasses.Field, raw: str):
    """The checked value of one config field from its text (config files and CLI flags)."""
    raw = raw.strip()
    if field.name == "graph":
        value = raw
    else:
        try:
            value = int(raw) if field.type == "int" else float(raw)
        except ValueError:
            kind = "an integer" if field.type == "int" else "a number"
            raise ValueError(f"config field {field.name}: expected {kind}, "
                             f"got {raw!r}") from None
    _check_value(field.name, value)
    return value


def config_to_text(config: TrainConfig) -> str:
    # str of a float is its shortest round-tripping repr
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in dataclasses.fields(config)]
    return "\n".join(lines) + "\n"


def _parse_line(line: str):
    """The ``(field, value)`` pair a ``key = value`` line sets; None for a blank or '#' line."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    if "=" not in line:
        raise ValueError("expected 'key = value'")
    key, raw = line.split("=", 1)
    key = key.strip()
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    if key not in fields:
        raise ValueError(f"unknown field {key!r}")
    return key, _parse_value(fields[key], raw)


def parse_config_text(text: str) -> TrainConfig:
    """The config that ``key = value`` lines give, read as a file is; errors say ``config:LINE:``."""
    return TrainConfig(**dict(parse_lines("config", text.encode("utf-8").split(b"\n"),
                                          _parse_line)))


def load_config(path) -> tuple[TrainConfig, dict[str, int]]:
    """The config a ``key = value`` file holds, and the line that last set each field it sets.

    Lines count from 1. An error names the file and the line.
    """
    line_numbers = itertools.count(1)  # parse_lines calls the parser once per line, in order

    def parse(line: str):
        line_no = next(line_numbers)
        pair = _parse_line(line)
        return None if pair is None else (*pair, line_no)

    settings = read_lines(path, parse)  # (field, value, line) per line that sets a field
    return (TrainConfig(**{key: value for key, value, _line_no in settings}),
            {key: line_no for key, _value, line_no in settings})


def resolve_config(path, overrides: dict) -> TrainConfig:
    """The config file at ``path`` (None: the defaults) with ``overrides`` applied, validated.

    Each value's own range was checked where its line or flag was read, so
    :meth:`TrainConfig.validate` can only fail on ``d_w`` and ``heads``
    together. That error names the file's line that set one of them and no
    override replaced, the later line if both; with both from overrides or
    defaults it names no file.
    """
    config, lines = load_config(path) if path else (TrainConfig(), {})
    config = dataclasses.replace(config, **overrides)
    try:
        config.validate()
    except ValueError as e:
        owned = [line_no for name, line_no in lines.items()
                 if name in ("d_w", "heads") and name not in overrides]
        if not owned:
            raise
        raise line_error(path, max(owned), e) from None
    return config
