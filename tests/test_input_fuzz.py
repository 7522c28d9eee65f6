"""Mutation fuzzing of every line-based input the CLI reads, against its one error contract.

Each input kind starts from a valid seed file. Hypothesis mutates it with
byte flips, inserted line-break look-alikes (``\\r``, ``\\x0c``, ``\\x85``,
U+2028), NUL, a byte-order mark, deep nesting, truncation and repeated
lines, and ``cli.main`` runs in-process on the result. The run either
exits 0 with its manifest complete, or exits 1 printing exactly one stderr
line ``error: PATH:LINE: ...`` that names the mutated file, with LINE at
most the file's ``\\n`` count + 1, and leaves no manifest marked complete.
Two errors are placed otherwise: a CoNLL-U sentence that fails only when
joined to its annotation is reported at the annotation's line, in a message
that names the CoNLL-U file; and a dataset holding no sample line at all is
named alone, without a line. The runs are derandomized and write no example
database.
"""

import contextlib
import io
import itertools
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentigraph import cli
from sentigraph.config import TrainConfig, config_to_text
from sentigraph.corpus import save_dataset
from sentigraph.synthetic import make_synthetic_corpus

SIZE_FLAGS = ["--d-w", "4", "--d-h", "2", "--gcn-layers", "1", "--heads", "2",
              "--ffn-width", "4", "--max-epochs", "1"]
TRAIN_FLAGS = SIZE_FLAGS + ["--batch-size", "8", "--dev-fraction", "0"]

CONLLU = (
    "# sent_id = 1\n"
    "1\tthe\t_\t_\t_\t_\t2\tdet\t_\t_\n"
    "2\tmenu\t_\t_\t_\t_\t3\tnsubj\t_\t_\n"
    "3\tlimited\t_\t_\t_\t_\t0\troot\t_\t_\n"
    "\n"
    "1\tfriendly\t_\t_\t_\t_\t2\tamod\t_\t_\n"
    "2\tstaff\t_\t_\t_\t_\t0\troot\t_\t_\n"
)
LABELS = "# sentence start length label\n0 1 1 negative\n1 1 1 positive\n"
VECTORS = "3 4\nthe 0.1 0.2 0.3 0.4\nnotaword 1 1 1 1\nwas -0.5 0.25 0 1e-3\n"

INSERTS = [b"\r", b"\x0c", "\x85".encode(), "\u2028".encode(), b"\x00", "\ufeff".encode(),
           b"\n"]


@st.composite
def mutations(draw, seed: bytes) -> bytes:
    """``seed`` after one to three byte-level mutations."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "insert", "truncate", "repeat", "nest"]))
        pos = draw(st.integers(0, len(data)))
        if kind == "flip" and pos < len(data):
            data[pos] ^= 1 << draw(st.integers(0, 7))
        elif kind == "insert":
            data[pos:pos] = draw(st.sampled_from(INSERTS))
        elif kind == "truncate":
            del data[pos:]
        else:  # repeat a line, or nest it in arrays past the recursion limit
            lines = bytes(data).split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            if kind == "repeat":
                lines[i:i] = [lines[i]] * draw(st.integers(1, 2))
            else:
                lines[i] = b"[" * 5000 + lines[i] + b"]" * 5000
            data = bytearray(b"\n".join(lines))
    return bytes(data)


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """The valid seed files, and a counter that keeps each example's outputs apart."""
    root = tmp_path_factory.mktemp("fuzz")
    save_dataset(root / "train.jsonl", make_synthetic_corpus(4, seed=5))
    config = TrainConfig(d_w=4, d_h=2, gcn_layers=1, heads=2, ffn_width=4, max_epochs=1,
                         batch_size=8, dev_fraction=0.0)
    files = {"train.jsonl": (root / "train.jsonl").read_bytes(),
             "parses.conllu": CONLLU.encode(), "aspects.txt": LABELS.encode(),
             "vectors.txt": VECTORS.encode(), "run.cfg": config_to_text(config).encode()}
    for name, data in files.items():
        (root / name).write_bytes(data)
    return {"root": root, "files": files, "runs": itertools.count()}


def argv_for(kind: str, root, out) -> tuple[list[str], str]:
    """The command line that reads the files in ``root``, and the manifest it writes."""
    if kind == "conllu_with_labels":
        return (["prepare", "--conllu", str(root / "parses.conllu"),
                 "--labels", str(root / "aspects.txt"), "--out", str(out / "data.jsonl")],
                str(out / "data.jsonl") + ".manifest.json")
    argv = ["train", "--train", str(root / "train.jsonl"), "--out-dir", str(out)]
    if kind == "vectors":
        argv += ["--embeddings", str(root / "vectors.txt")] + TRAIN_FLAGS
    elif kind == "config":
        argv += ["--config", str(root / "run.cfg")] + SIZE_FLAGS
    else:
        argv += TRAIN_FLAGS
    return argv, str(out / "manifest.json")


def check_contract(seeds, kind: str, name: str, data: bytes) -> None:
    run = next(seeds["runs"])
    root = seeds["root"] / f"run{run}"
    root.mkdir()
    for other, seed in seeds["files"].items():
        (root / other).write_bytes(data if other == name else seed)
    out = root / "out"
    out.mkdir()
    argv, manifest = argv_for(kind, root, out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    err = stderr.getvalue()
    if code == 0:
        assert err == ""
        with open(manifest) as f:
            assert json.load(f)["status"] == "complete"
        return
    assert code == 1, err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    path = root / name
    if kind == "dataset" and not data.decode("utf-8", "replace").strip():
        assert err.startswith(f"error: {path}: no samples left to train on"), err
    else:
        match = re.match(r"error: (.*?):(\d+): ", err)
        assert match, err
        named = root / match.group(1).removeprefix(str(root) + "/")
        # a bad sentence is reported at the annotation that joins it, which names it
        assert named == path or (name == "parses.conllu" and named == root / "aspects.txt"
                                 and str(path) in err), err
        assert 1 <= int(match.group(2)) <= named.read_bytes().count(b"\n") + 1, err
    with contextlib.suppress(FileNotFoundError), open(manifest) as f:
        assert json.load(f)["status"] != "complete"


KINDS = {  # input kind: the files a run of it may mutate
    "dataset": ["train.jsonl"],
    "conllu_with_labels": ["parses.conllu", "aspects.txt"],
    "vectors": ["vectors.txt"],
    "config": ["run.cfg"],
}


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_input_runs_or_fails_in_one_line_naming_file_and_line(seeds, kind, data):
    name = data.draw(st.sampled_from(KINDS[kind]))
    check_contract(seeds, kind, name, data.draw(mutations(seeds["files"][name])))
