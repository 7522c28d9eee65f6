"""Run configuration: one flat dataclass, readable from key = value text files."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and ablation switches for one training run.

    Defaults follow the full-scale setup: 300-wide embeddings and hidden
    states, 3 graph-convolution layers, Adam at 0.001, batches of 32, up to
    100 epochs. Desk-scale runs shrink the widths and layer count.
    ``batch_size`` is the training mini-batch only; inference sizes its own
    chunks (``model.inference_chunks``). The switches vary the graph alone;
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
    use_dependency: bool = True
    use_sdi_weights: bool = True
    use_bidirectional_gcn: bool = True
    layer_sweep_range: tuple[int, ...] = (1, 2, 3, 4)

    @property
    def d_model(self) -> int:
        # the transformer consumes raw embeddings, so its width is the embedding width
        return self.d_w

    @property
    def d_context(self) -> int:
        # Bi-LSTM output width; also the graph-convolution and pooled width
        return 2 * self.d_h

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
        sweep = self.layer_sweep_range
        if not sweep or min(sweep) < 1 or len(set(sweep)) != len(sweep):
            raise ValueError("config field layer_sweep_range must be a non-empty range "
                             "of distinct layer counts >= 1")


def _parse_value(field: dataclasses.Field, raw: str):
    """The typed value of one config field from its text (config files and CLI flags)."""
    raw = raw.strip()
    try:
        if field.type in ("int", int):
            return int(raw)
        if field.type in ("float", float):
            return float(raw)
        if field.name == "layer_sweep_range":
            return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        kind = {"float": "a number", "tuple[int, ...]": "comma-separated integers"}.get(
            field.type, "an integer")
        raise ValueError(f"config field {field.name}: expected {kind}, got {raw!r}") from None
    # every other field is a bool
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"config field {field.name}: expected true/false, got {raw!r}")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def config_to_text(config: TrainConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}"
             for f in dataclasses.fields(config)]
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> TrainConfig:
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    overrides = {}
    for line_no, line in enumerate(text.splitlines(), 1):
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
        line_no = len((data[:e.start].decode("utf-8") + "x").splitlines())
        raise ValueError(f"{path}: config line {line_no}: not UTF-8 text "
                         f"({e.reason} at byte {e.start} of the file)") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
