"""Synthetic review corpus where the label is carried by a cue word attached
to the aspect through a dependency edge. Used by demos and end-to-end checks."""

from __future__ import annotations

import numpy as np

from .corpus import LABELS, AspectSample

ASPECTS = ("service", "menu", "pasta", "staff", "decor", "price")
OTHER_NOUNS = ("room", "music", "street", "waiter")
CUES = {
    "positive": ("excellent", "delicious", "friendly"),
    "negative": ("awful", "bland", "rude"),
    "neutral": ("ordinary", "average", "typical"),
}


def make_synthetic_sample(rng: np.random.Generator, label: str,
                          with_decoy: bool = False) -> AspectSample:
    """`the ASPECT was CUE [but the NOUN seemed DECOY]` with a copular parse.

    The cue word (sentence root) governs the aspect through an nsubj edge;
    the optional decoy cue hangs off an unrelated noun phrase, so bag-of-words
    alone cannot explain the label there.
    """
    aspect = str(rng.choice(ASPECTS))
    cue = str(rng.choice(CUES[label]))
    tokens = ["the", aspect, "was", cue]
    deps = [(1, 0, "det"), (3, 1, "nsubj"), (3, 2, "cop"), (-1, 3, "root")]
    if with_decoy:
        other = str(rng.choice(OTHER_NOUNS))
        decoy_label = str(rng.choice(LABELS))
        decoy = str(rng.choice(CUES[decoy_label]))
        tokens += ["but", "the", other, "seemed", decoy]
        deps += [(7, 4, "cc"), (6, 5, "det"), (7, 6, "nsubj"),
                 (3, 7, "conj"), (7, 8, "xcomp")]
    return AspectSample(tokens=tuple(tokens), aspect_start=1, aspect_len=1,
                        label=label, deps=tuple(deps))


def make_synthetic_corpus(n_samples: int, seed: int) -> list[AspectSample]:
    """Balanced corpus of ``n_samples`` reviews, deterministic for a given seed.

    Each review carries the decoy clause with probability one half.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n_samples):
        label = LABELS[i % len(LABELS)]
        with_decoy = rng.random() < 0.5
        samples.append(make_synthetic_sample(rng, label, with_decoy=with_decoy))
    return samples


RELATIONS = ("nsubj", "dobj", "amod", "det", "advmod", "cop", "punct")


def random_tree_sample(rng: np.random.Generator, n: int) -> AspectSample:
    """A valid ``n``-token sample over a uniformly attached random dependency tree.

    Tokens are synthetic placeholders; useful for structural property checks
    and gradient probes rather than for learning.
    """
    deps = [(-1, 0, "root")]
    for i in range(1, n):
        head = int(rng.integers(0, i))
        deps.append((head, i, str(rng.choice(RELATIONS))))
    start = int(rng.integers(0, n))
    length = int(rng.integers(1, n - start + 1))
    return AspectSample(
        tokens=tuple(f"w{i}" for i in range(n)),
        aspect_start=start,
        aspect_len=length,
        label=str(rng.choice(LABELS)),
        deps=tuple(deps),
    )
