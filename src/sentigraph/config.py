"""Run configuration: one flat dataclass of numbers and a graph variant, as key = value text."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

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
        positive = ["d_w", "d_h", "gcn_layers", "heads", "ffn_width", "learning_rate",
                    "batch_size", "max_epochs", "min_freq"]
        for name in positive:
            if not 0 < getattr(self, name) < math.inf:  # NaN fails as well
                raise ValueError(f"config field {name} must be positive and finite")
        if not 0 <= self.lambda_l2 < math.inf:
            raise ValueError("config field lambda_l2 must be finite and >= 0")
        if not 0 <= self.dev_fraction < 1:
            raise ValueError("config field dev_fraction must be in [0, 1)")
        if self.d_w % 2 != 0:
            raise ValueError("d_w must be even for the positional encoding")
        if self.d_w % self.heads != 0:
            raise ValueError(f"d_w={self.d_w} must be divisible by heads={self.heads}")
        if self.graph not in GRAPHS:
            raise ValueError(f"config field graph must be one of {', '.join(GRAPHS)}")


def _parse_value(field: dataclasses.Field, raw: str):
    """The typed value of one config field from its text (config files and CLI flags)."""
    raw = raw.strip()
    if field.name == "graph":
        if raw not in GRAPHS:
            raise ValueError(f"config field graph: expected one of {', '.join(GRAPHS)}, "
                             f"got {raw!r}")
        return raw
    try:
        return int(raw) if field.type == "int" else float(raw)
    except ValueError:
        kind = "an integer" if field.type == "int" else "a number"
        raise ValueError(f"config field {field.name}: expected {kind}, got {raw!r}") from None


def config_to_text(config: TrainConfig) -> str:
    # str of a float is its shortest round-tripping repr
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in dataclasses.fields(config)]
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> TrainConfig:
    """The config that ``key = value`` lines give; a line ends at ``\\n`` alone."""
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    overrides = {}
    for line_no, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected 'key = value'")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in fields:
            raise ValueError(f"config line {line_no}: unknown field {key!r}")
        try:
            overrides[key] = _parse_value(fields[key], raw)
        except ValueError as e:
            raise ValueError(f"config line {line_no}: {e}") from None
    return TrainConfig(**overrides)


def load_config(path) -> TrainConfig:
    """The config a ``key = value`` file holds; an error names the file and the line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return parse_config_text(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        # the line the bad byte is on, counted as parse_config_text counts lines
        line_no = data.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}: config line {line_no}: not UTF-8 text "
                         f"({e.reason} at byte {e.start} of the file)") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
