"""Dataset ingestion: aspect-annotated sentences with dependency parses.

Dataset wire format is one JSON record per line::

    {"tokens": ["the", "menu", "was", "limited"],
     "aspect_start": 1, "aspect_len": 1, "label": "negative",
     "deps": [[1, 0, "det"], [3, 1, "nsubj"], [3, 2, "cop"], [-1, 3, "root"]]}

``deps`` holds one ``[head_index, dependent_index, relation]`` triple per
token (head ``-1`` marks the root). A sentence with several aspects appears
as one record per aspect. Word vectors load from the usual text format of
one token followed by its decimals per line; the loader returns only the
vectors of vocabulary tokens, and the model builds the whole table from
them (``model.AspectSentimentModel``). Every line-based input, config files
included, is read by :func:`read_lines`, and its errors name ``PATH:LINE:``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .util import atomic_write

LABELS = ("positive", "neutral", "negative")

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1


class DatasetError(ValueError):
    """An input file failed validation."""


@dataclass(frozen=True)
class AspectSample:
    """One (sentence, aspect span, polarity, dependency parse) unit."""

    tokens: tuple[str, ...]
    aspect_start: int
    aspect_len: int
    label: str
    deps: tuple[tuple[int, int, str], ...]

    @property
    def n(self) -> int:
        return len(self.tokens)

    def validate(self) -> None:
        n = self.n
        if n < 1:
            raise DatasetError("field 'tokens': empty sentence")
        if self.aspect_start < 0 or self.aspect_len < 1 \
                or self.aspect_start + self.aspect_len > n:
            raise DatasetError(
                f"field 'aspect_start'/'aspect_len': span [{self.aspect_start}, "
                f"{self.aspect_start + self.aspect_len}) outside sentence of length {n}")
        if self.label not in LABELS:
            raise DatasetError(f"field 'label': {self.label!r} not in {LABELS}")
        if len(self.deps) != n:
            raise DatasetError(f"field 'deps': {len(self.deps)} entries for {n} tokens")
        seen = set()
        roots = 0
        children: list[list[int]] = [[] for _ in range(n)]
        root = -1
        for head, dep, rel in self.deps:
            if not (-1 <= head < n) or not (0 <= dep < n):
                raise DatasetError(f"field 'deps': index out of range in ({head}, {dep}, {rel!r})")
            if head == dep:
                raise DatasetError(f"field 'deps': token {dep} is its own head")
            if dep in seen:
                raise DatasetError(f"field 'deps': token {dep} has more than one head")
            seen.add(dep)
            if head == -1:
                roots += 1
                root = dep
            else:
                children[head].append(dep)
        if roots != 1:
            raise DatasetError(f"field 'deps': expected exactly one root, found {roots}")
        # a full traversal from the root must reach every token exactly once
        reached = 0
        stack = [root]
        while stack:
            reached += 1
            stack.extend(children[stack.pop()])
        if reached != n:
            raise DatasetError("field 'deps': edges do not form a single-rooted tree")


# what would break the one-line unseen-relations note, which names each unseen
# relation on one UTF-8 stderr line: a line break in a relation, or a lone
# surrogate, which has no UTF-8 form; relations are kept free of tabs as well, and
# tokens are held to the same line-safe text
_BAD_TOKEN = re.compile("[\n\r\ud800-\udfff]")
_BAD_RELATION = re.compile("[\t\n\r\ud800-\udfff]")


def line_error(path, line_no: int, message) -> DatasetError:
    """The error for line ``line_no`` (from 1) of the file at ``path``: ``PATH:LINE: message``."""
    return DatasetError(f"{path}:{line_no}: {message}")


def parse_lines(path, lines, parse_line) -> list:
    """The non-None results of ``parse_line`` on each of ``lines`` decoded as UTF-8.

    ``lines`` are byte strings split at ``\\n`` alone, as a binary file iterates.
    A line that is not UTF-8, or a ValueError ``parse_line`` raises, becomes
    one DatasetError ``PATH:LINE: message``, LINE counted from 1.
    """
    results = []
    line_no = 0
    try:
        for line_no, raw in enumerate(lines, 1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise DatasetError(f"not UTF-8 text ({e.reason} at byte {e.start})") from None
            result = parse_line(text)
            if result is not None:
                results.append(result)
    except ValueError as e:
        raise line_error(path, line_no, e) from e
    return results


def read_lines(path, parse_line) -> list:
    """:func:`parse_lines` over the lines of the file at ``path``."""
    with open(path, "rb") as f:
        return parse_lines(path, f, parse_line)


def _parse_sample(line: str) -> AspectSample | None:
    """The validated sample a dataset line holds; None for a blank line."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except RecursionError:
        raise DatasetError("invalid JSON (nested too deeply)") from None
    except ValueError as e:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise DatasetError(f"invalid JSON ({getattr(e, 'msg', e)})") from None
    if not isinstance(record, dict):
        raise DatasetError("record is not an object")

    def need(field, kind):
        if field not in record:
            raise DatasetError(f"missing field {field!r}")
        value = record[field]
        if type(value) is not kind:  # JSON gives exact types; a bool is no int here
            raise DatasetError(f"field {field!r} has wrong type")
        return value

    tokens = need("tokens", list)
    if not all(isinstance(t, str) and t for t in tokens):
        raise DatasetError("field 'tokens' must be non-empty strings")
    deps = []
    for entry in need("deps", list):
        if (not isinstance(entry, list)) or len(entry) != 3 \
                or type(entry[0]) is not int or type(entry[1]) is not int \
                or type(entry[2]) is not str:
            raise DatasetError("field 'deps' entries must be [head, dependent, relation]")
        deps.append((entry[0], entry[1], entry[2]))
    sample = AspectSample(tuple(tokens), need("aspect_start", int), need("aspect_len", int),
                          need("label", str), tuple(deps))
    # a line break, a tab or a lone surrogate reaches a JSON string only escaped
    if "\\" in line:
        for i, token in enumerate(sample.tokens):
            if _BAD_TOKEN.search(token):
                raise DatasetError(f"field 'tokens': token {i} {token!r} contains a line "
                                   f"break or a lone surrogate")
        for _head, _dep, rel in sample.deps:
            if _BAD_RELATION.search(rel):
                raise DatasetError(f"field 'deps': relation {rel!r} contains a tab, a line "
                                   f"break or a lone surrogate")
    sample.validate()
    return sample


def load_dataset(path) -> list[AspectSample]:
    """Read and validate a JSON-lines dataset; an error names the file and the line."""
    return read_lines(path, _parse_sample)


def save_dataset(path, samples) -> None:
    with atomic_write(path) as f:
        for s in samples:
            f.write(json.dumps(vars(s)) + "\n")  # the fields in order; tuples dump as arrays


class Vocab:
    """Token ids with reserved slots: 0 = padding, 1 = unknown."""

    def __init__(self, id_to_token: list[str]):
        if id_to_token[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("vocab must start with the padding and unknown tokens")
        self.id_to_token = list(id_to_token)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocab contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def encode(self, tokens) -> np.ndarray:
        return np.array([self.id(t) for t in tokens], dtype=np.int64)


def build_vocab(samples, min_freq: int = 1) -> Vocab:
    """Frequency-filtered vocabulary, ordered by descending count then token."""
    if not samples:
        raise DatasetError("cannot build a vocabulary from an empty sample list")
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts = Counter()
    for s in samples:
        counts.update(s.tokens)
    # a dataset's own <pad> and <unk> map to the reserved ids
    kept = sorted((t for t, c in counts.items()
                   if c >= min_freq and t not in (PAD_TOKEN, UNK_TOKEN)),
                  key=lambda t: (-counts[t], t))
    return Vocab([PAD_TOKEN, UNK_TOKEN] + kept)


def load_pretrained_embeddings(path, vocab: Vocab, d_w: int) -> dict[int, np.ndarray]:
    """The file's vectors of vocabulary tokens, keyed by vocabulary id.

    A token listed twice keeps its last vector. Lines split on whitespace,
    so trailing spaces and tabs are harmless, and blank lines are skipped.
    A first line of exactly two integers is a word2vec-style header (vector
    count and width) and is skipped; its width must be ``d_w``. Every other
    line must carry a token and exactly ``d_w`` values, whether or not its
    token is in the vocabulary, and the values of vocabulary tokens must be
    finite numbers. Failures raise DatasetError naming ``PATH:LINE:``.
    """
    first_line = True

    def parse(line):
        nonlocal first_line
        is_first, first_line = first_line, False
        parts = line.split()
        if not parts:
            return None
        token, values = parts[0], parts[1:]
        # isdecimal, not isdigit: int() parses every decimal digit, but no superscript
        if is_first and len(parts) == 2 and all(p.isdecimal() for p in parts):
            if int(values[0]) != d_w:
                raise DatasetError(f"header declares width {values[0]}, expected {d_w}")
            return None
        if len(values) != d_w:
            raise DatasetError(f"expected {d_w} values, found {len(values)}")
        if token not in vocab:
            return None
        try:
            row = np.array([float(v) for v in values])
        except ValueError:
            row = None
        if row is None or not np.all(np.isfinite(row)):
            raise DatasetError(f"the vector of {token!r} holds a value "
                               f"that is not a finite number")
        return vocab.id(token), row

    return dict(read_lines(path, parse))


# ---------------------------------------------------------------------------
# converter for pre-parsed input

def read_conllu(path) -> list[dict]:
    """Parse a 10-column CoNLL-U-style file down to tokens and labeled edges.

    Only the index, form, head, and relation columns are used; multiword
    ranges and empty nodes are skipped. Heads convert from the 1-based
    convention (0 = root) to 0-based with -1 for the root. Forms and relations
    follow ``load_dataset``'s rules, so ``train`` reads what ``prepare`` writes.
    """
    sentences = []
    tokens: list[str] = []
    deps: list[tuple[int, int, str]] = []

    def flush():
        if tokens:
            sentences.append({"tokens": tuple(tokens), "deps": tuple(deps)})
            tokens.clear()
            deps.clear()

    def parse(line):
        line = line.rstrip("\r\n")  # the file is read in binary: CRLF stays
        if not line.strip():
            flush()
            return
        if line.startswith("#"):
            return
        cols = line.split("\t")
        if len(cols) < 8:
            raise DatasetError("expected >= 8 tab-separated columns")
        try:
            index = int(cols[0])
        except ValueError:
            return  # multiword range or empty node
        try:
            head = int(cols[6])
        except ValueError:
            raise DatasetError("head column is not an integer") from None
        form, relation = cols[1], cols[7]
        if not form or _BAD_TOKEN.search(form):
            raise DatasetError(f"FORM {form!r} is empty or contains a line break")
        if _BAD_RELATION.search(relation):
            raise DatasetError(f"DEPREL {relation!r} contains a line break")
        tokens.append(form)
        deps.append((head - 1, index - 1, relation))

    read_lines(path, parse)
    flush()
    return sentences


def conllu_to_samples(conllu_path, labels_path) -> list[AspectSample]:
    """Join parsed sentences with the aspect annotations of ``labels_path``.

    An annotation line holds four whitespace-separated columns: sentence
    index, aspect start, aspect length and label; '#' starts a comment line.
    Each annotation is validated as a sample; an error names the annotation's
    line, and a sample that fails validation also names its sentence.
    """
    sentences = read_conllu(conllu_path)

    def parse(line):
        line = line.strip()
        if not line or line.startswith("#"):
            return None
        parts = line.split()
        if len(parts) != 4:
            raise DatasetError(f"expected 4 columns, found {len(parts)}")
        try:
            sent_index, start, length = (int(p) for p in parts[:3])
        except ValueError:
            raise DatasetError("non-integer index column") from None
        if not 0 <= sent_index < len(sentences):
            raise DatasetError(f"sentence index {sent_index} is not among the "
                               f"{len(sentences)} sentences of {conllu_path}")
        sent = sentences[sent_index]
        sample = AspectSample(sent["tokens"], start, length, parts[3], sent["deps"])
        try:
            sample.validate()
        except DatasetError as e:
            raise DatasetError(f"{e} (sentence {sent_index} of {conllu_path})") from None
        return sample

    return read_lines(labels_path, parse)
