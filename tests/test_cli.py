import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import warnings
import zipfile

import numpy as np
import pytest

from sentigraph import autodiff as ad
from sentigraph import cli, training
from sentigraph.autodiff import FiniteDiffReport
from sentigraph.config import GRAPHS, TrainConfig
from sentigraph.corpus import load_dataset, save_dataset
from sentigraph.synthetic import make_synthetic_corpus
from sentigraph.util import atomic_write, file_sha256

CONLLU = """\
1\tthe\t_\t_\t_\t_\t2\tdet\t_\t_
2\tmenu\t_\t_\t_\t_\t4\tnsubj\t_\t_
3\twas\t_\t_\t_\t_\t4\tcop\t_\t_
4\tlimited\t_\t_\t_\t_\t0\troot\t_\t_
"""

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))  # for subprocesses

TINY_FLAGS = ["--d-w", "8", "--d-h", "8", "--gcn-layers", "1", "--heads", "2",
              "--ffn-width", "16", "--max-epochs", "2", "--batch-size", "8"]


@pytest.fixture
def data_dir(tmp_path):
    save_dataset(tmp_path / "train.jsonl", make_synthetic_corpus(18, seed=31))
    save_dataset(tmp_path / "test.jsonl", make_synthetic_corpus(6, seed=32))
    return tmp_path


def read_manifest(path):
    with open(path) as f:
        return json.load(f)


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def rewrite_members(path, edit) -> None:
    """Rewrite the archive at ``path`` after ``edit`` changed its ``{member name: bytes}``."""
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    edit(members)
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)


def huge_member(members):
    # a header declaring 2^20 x 2^20 float64 values (8 TiB) over 64 bytes of data
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (2**20, 2**20)})
    members["embedding.npy"] = buf.getvalue() + bytes(64)


def flip_last_embedding_byte(path):
    raw = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        first, second = archive.infolist()[:2]
    assert first.filename == "embedding.npy"  # its data ends where the next member starts
    raw[second.header_offset - 1] ^= 0x01
    path.write_bytes(bytes(raw))


def damage(kind, checkpoint):
    """The path of a checkpoint damaged as ``kind`` says, and a phrase its error holds."""
    if kind == "missing":
        return checkpoint.parent / "no_such.npz", "No such file"
    if kind == "old_directory":
        old = checkpoint.parent / "checkpoint"
        old.mkdir()
        (old / "params.tensors").write_bytes(b"SGTENS01")
        return old, "Is a directory"
    if kind == "not_a_zip":
        checkpoint.write_bytes(b"SGTENS01" + bytes(100))
        return checkpoint, "not a zip file"
    if kind == "truncated":
        checkpoint.write_bytes(checkpoint.read_bytes()[:-200])
        return checkpoint, "not a zip file"
    if kind == "crc_mismatch":
        flip_last_embedding_byte(checkpoint)
        return checkpoint, "member 'embedding.npy' fails its CRC-32 check"
    edits = {
        "huge_shape": (huge_member, "member 'embedding.npy' declares shape (1048576, 1048576)"),
        "missing_tensor": (lambda m: m.pop("classifier.b.npy"), "missing ['classifier.b']"),
        "extra_tensor": (lambda m: m.update({"classifier.c.npy": npy_bytes(np.zeros(3))}),
                         "unexpected ['classifier.c']"),
        "wrong_shape": (lambda m: m.update({"classifier.b.npy": npy_bytes(np.zeros(4))}),
                        "'classifier.b': shape (4,) != (3,)"),
    }
    edit, phrase = edits[kind]
    rewrite_members(checkpoint, edit)
    return checkpoint, phrase


class TestDispatch:
    def test_no_arguments_prints_usage_and_exits_2(self, capsys):
        assert cli.main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["mystery"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert cli.main(["gradcheck", "--frobnicate"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "q"), ("--learning-rate", "fast"),
        ("--graph", "maybe")])
    def test_bad_config_flag_value_names_the_flag(self, flag, value, capsys):
        assert cli.main(["train", "--train", "x", "--out-dir", "y", flag, value]) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert flag in last and repr(value) in last

    def test_config_flags_parse_like_config_files(self):
        args = cli.build_parser().parse_args(
            ["train", "--train", "x", "--out-dir", "y", "--graph", "no_dependency",
             "--lambda-l2", "0.5", "--batch-size", "3"])
        assert args.graph == "no_dependency"
        assert (args.lambda_l2, args.batch_size) == (0.5, 3)

    def test_missing_file_exits_1_with_path(self, tmp_path, capsys):
        code = cli.main(["train", "--train", str(tmp_path / "nope.jsonl"),
                         "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert "nope.jsonl" in capsys.readouterr().err


def test_runtime_imports_load_no_scipy():
    code = ("import sys, sentigraph.cli, sentigraph.training; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestPrepare:
    def test_converts_and_writes_manifest(self, tmp_path, capsys):
        conllu = tmp_path / "parses.conllu"
        conllu.write_text(CONLLU)
        labels = tmp_path / "aspects.txt"
        labels.write_text("0 1 1 negative\n")
        out = tmp_path / "data.jsonl"
        assert cli.main(["prepare", "--conllu", str(conllu), "--labels", str(labels),
                         "--out", str(out)]) == 0
        samples = load_dataset(out)
        assert samples[0].tokens == ("the", "menu", "was", "limited")
        manifest = read_manifest(str(out) + ".manifest.json")
        assert manifest["status"] == "complete"
        assert manifest["command"] == "prepare"
        assert set(manifest["inputs"]) == {"conllu", "labels"}
        assert all(len(v["sha256"]) == 64 for v in manifest["inputs"].values())

    def test_bad_parse_line_names_the_file_and_line(self, tmp_path, capsys):
        conllu = tmp_path / "parses.conllu"
        conllu.write_text(CONLLU + "\n1\tword\n")
        labels = tmp_path / "aspects.txt"
        labels.write_text("0 1 1 negative\n")
        assert cli.main(["prepare", "--conllu", str(conllu), "--labels", str(labels),
                         "--out", str(tmp_path / "data.jsonl")]) == 1
        assert capsys.readouterr().err == (
            f"error: {conllu}:6: expected >= 8 tab-separated columns\n")

    @pytest.mark.parametrize("line, message", [
        ("2\tfo\ro\t_\t_\t_\t_\t4\tnsubj\t_\t_",
         "FORM 'fo\\ro' is empty or contains a line break"),
        ("2\t\t_\t_\t_\t_\t4\tnsubj\t_\t_", "FORM '' is empty or contains a line break"),
        ("2\tmenu\t_\t_\t_\t_\t4\tns\rubj\t_\t_", "DEPREL 'ns\\rubj' contains a line break")],
        ids=["cr_in_form", "empty_form", "cr_in_deprel"])
    def test_a_form_or_relation_train_would_refuse_fails_naming_the_line(self, tmp_path, capsys,
                                                                        line, message):
        conllu = tmp_path / "parses.conllu"
        lines = CONLLU.splitlines()
        lines[1] = line
        conllu.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        labels = tmp_path / "aspects.txt"
        labels.write_text("0 1 1 negative\n")
        out = tmp_path / "data.jsonl"
        assert cli.main(["prepare", "--conllu", str(conllu), "--labels", str(labels),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {conllu}:2: {message}\n"
        assert not out.exists()


class TestTrain:
    def test_run_produces_checkpoint_log_and_manifest(self, data_dir):
        out_dir = data_dir / "run"
        code = cli.main(["train", "--train", str(data_dir / "train.jsonl"),
                         "--out-dir", str(out_dir)] + TINY_FLAGS)
        assert code == 0
        manifest = read_manifest(out_dir / "manifest.json")
        assert manifest["status"] == "complete"
        assert set(manifest["artifacts"]) == {"epoch_log", "checkpoint", "summary"}
        assert manifest["artifacts"]["checkpoint"] == str(out_dir / "checkpoint.npz")
        assert zipfile.is_zipfile(out_dir / "checkpoint.npz")
        epochs = (out_dir / "epochs.tsv").read_text().strip().splitlines()
        assert len(epochs) == 3  # header + 2 epochs

    @pytest.mark.parametrize("variant", ["full", "no_edge_weights"])
    def test_manifest_records_the_relations_the_checkpoint_holds(self, data_dir, variant):
        out_dir = data_dir / "run"
        assert cli.main(["train", "--train", str(data_dir / "train.jsonl"),
                         "--out-dir", str(out_dir), "--graph", variant] + TINY_FLAGS) == 0
        relations = read_manifest(out_dir / "manifest.json")["relations"]
        with np.load(out_dir / "checkpoint.npz") as archive:
            meta = json.loads(archive["__meta__"].tobytes())
        assert relations == meta["relations"]
        assert (relations is None) == (variant == "no_edge_weights")

    @pytest.mark.parametrize("problem", ["removed_field", "use_dependency", "layer_sweep_range",
                                         "byte_0xff"])
    def test_bad_config_file_fails_in_one_line_naming_file_and_line(self, data_dir, capsys,
                                                                     problem):
        cfg = data_dir / "run.cfg"
        removed = {"removed_field": "attention_states = lstm",  # fields earlier versions had
                   "use_dependency": "use_dependency = false",
                   "layer_sweep_range": "layer_sweep_range = 1,2"}
        if problem in removed:
            cfg.write_text(f"d_w = 8\n{removed[problem]}\n")
            field = removed[problem].split()[0]
            expected = f"error: {cfg}:2: unknown field '{field}'\n"
        else:
            cfg.write_bytes(b"d_w = 8\nd_h = \xff8\n")
            expected = f"error: {cfg}:2: not UTF-8 text (invalid start byte at byte 6)\n"
        out_dir = data_dir / "run_bad_config"
        code = cli.main(["train", "--config", str(cfg), "--train", str(data_dir / "train.jsonl"),
                         "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == expected
        assert not out_dir.exists()

    def test_a_config_value_outside_its_range_fails_naming_the_line(self, data_dir, capsys):
        # each field's own range is checked where its line is read; a flag's, where it is parsed
        cfg = data_dir / "run.cfg"
        cfg.write_text("d_w = 8\nlearning_rate = 0.000\n")
        out_dir = data_dir / "run_out_of_range"
        code = cli.main(["train", "--config", str(cfg), "--train", str(data_dir / "train.jsonl"),
                         "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: config field learning_rate must be positive and finite, got 0.0\n")
        assert not out_dir.exists()
        assert cli.main(["train", "--train", "x", "--out-dir", "y", "--dev-fraction", "1"]) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1].endswith(
            "argument --dev-fraction: config field dev_fraction must be in [0, 1), got 1.0")

    def test_manifest_echoes_training_defaults(self, data_dir):
        # dims shrink via config file; optimizer knobs stay at their defaults
        cfg = data_dir / "run.cfg"
        cfg.write_text("d_w = 8\nd_h = 8\nheads = 2\nffn_width = 16\nmax_epochs = 2\n")
        out_dir = data_dir / "run_defaults"
        code = cli.main(["train", "--config", str(cfg),
                         "--train", str(data_dir / "train.jsonl"),
                         "--out-dir", str(out_dir)])
        assert code == 0
        config = read_manifest(out_dir / "manifest.json")["config"]
        assert config["learning_rate"] == 0.001
        assert config["batch_size"] == 32
        assert config["max_epochs"] <= 100
        assert config["gcn_layers"] == 3

    def test_flags_override_config_file(self, data_dir):
        cfg = data_dir / "run.cfg"
        cfg.write_text("d_w = 8\nd_h = 8\nheads = 2\nffn_width = 16\n"
                       "max_epochs = 2\nbatch_size = 4\n")
        out_dir = data_dir / "run_override"
        code = cli.main(["train", "--config", str(cfg), "--batch-size", "6",
                         "--train", str(data_dir / "train.jsonl"),
                         "--out-dir", str(out_dir)])
        assert code == 0
        assert read_manifest(out_dir / "manifest.json")["config"]["batch_size"] == 6

    def test_bad_dev_file_is_named(self, data_dir, capsys):
        dev = data_dir / "dev.jsonl"
        dev.write_text((data_dir / "test.jsonl").read_text().replace('"neutral"', '"meh"'))
        code = cli.main(["train", "--train", str(data_dir / "train.jsonl"), "--dev", str(dev),
                         "--out-dir", str(data_dir / "run_bad_dev")] + TINY_FLAGS)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {dev}:2: field 'label': 'meh'")

    @pytest.mark.parametrize("no_dev", ["fraction_zero", "empty_dev_file"])
    def test_run_without_dev_samples_keeps_last_epoch(self, data_dir, no_dev):
        empty = data_dir / "empty.jsonl"
        empty.write_text("")
        dev_args = (["--dev-fraction", "0"] if no_dev == "fraction_zero"
                    else ["--dev", str(empty)])
        out_dir = data_dir / "run_no_dev"
        code = cli.main(["train", "--train", str(data_dir / "train.jsonl"),
                         "--out-dir", str(out_dir)] + dev_args + TINY_FLAGS)
        assert code == 0
        assert read_manifest(out_dir / "manifest.json")["status"] == "complete"
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary == {"best_epoch": 2, "best_dev_acc": None, "final_epoch": 2,
                           "final_dev_acc": None, "final_dev_f1": None}

    @pytest.mark.parametrize("bad_text", ["lone_surrogate", "byte_0xff"])
    def test_text_that_is_not_unicode_fails_before_training(self, data_dir, capsys, bad_text):
        path = data_dir / "bad.jsonl"
        lines = (data_dir / "train.jsonl").read_bytes().splitlines(keepends=True)
        start = lines[2].index(b'"tokens": ["') + len(b'"tokens": ["')
        lines[2] = lines[2][:start] + (b"\\ud800" if bad_text == "lone_surrogate" else b"\xff") \
            + lines[2][start:]
        path.write_bytes(b"".join(lines))
        out_dir = data_dir / "run_bad_text"
        code = cli.main(["train", "--train", str(path), "--out-dir", str(out_dir)] + TINY_FLAGS)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: ") and err.count("\n") == 1
        assert not (out_dir / "checkpoint.npz").exists()
        assert read_manifest(out_dir / "manifest.json")["status"] == "incomplete"

    def test_json_nested_past_the_recursion_limit_fails_in_one_line(self, data_dir, capsys):
        path = data_dir / "nested.jsonl"
        lines = (data_dir / "train.jsonl").read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "[" * 5000 + "]" * 5000 + "\n" + "".join(lines[1:]))
        out_dir = data_dir / "run_nested"
        code = cli.main(["train", "--train", str(path), "--out-dir", str(out_dir)] + TINY_FLAGS)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: invalid JSON ") and err.count("\n") == 1
        assert read_manifest(out_dir / "manifest.json")["status"] == "incomplete"

    def test_an_integer_past_the_digit_limit_fails_in_one_line_naming_the_line(self, data_dir,
                                                                             capsys):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for such an integer
        path = data_dir / "huge.jsonl"
        lines = (data_dir / "train.jsonl").read_text().splitlines(keepends=True)
        path.write_text(lines[0] + '{"aspect_start": ' + "9" * 5000 + "}\n" + "".join(lines[1:]))
        out_dir = data_dir / "run_huge"
        code = cli.main(["train", "--train", str(path), "--out-dir", str(out_dir)] + TINY_FLAGS)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: invalid JSON (Exceeds the limit (4300 digits)")
        assert err.count("\n") == 1
        assert read_manifest(out_dir / "manifest.json")["status"] == "incomplete"

    def test_diverging_run_fails_in_one_line(self, data_dir, capsys):
        out_dir = data_dir / "run_diverging"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would print a line of its own
            code = cli.main(["train", "--train", str(data_dir / "train.jsonl"),
                             "--out-dir", str(out_dir)]
                            + TINY_FLAGS + ["--learning-rate", "1e300"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1
        assert not (out_dir / "checkpoint.npz").exists()
        assert read_manifest(out_dir / "manifest.json")["status"] == "incomplete"

    def test_an_error_inside_the_backward_walk_fails_in_one_line(self, data_dir, capsys,
                                                                 monkeypatch):
        # a non-finite gradient at the embedding lookup, the walk's last node, is found
        # after every other parameter of that step has been updated in memory
        gather_rows = ad.gather_rows

        def poisoned(table, ids):
            out = gather_rows(table, ids)
            if table._backward_fn is None and out._backward_fn is not None:
                backward = out._backward_fn
                out._backward_fn = lambda g: backward(np.full_like(g, np.inf))
            return out

        monkeypatch.setattr(ad, "gather_rows", poisoned)
        out_dir = data_dir / "run_poisoned"
        code = cli.main(["train", "--train", str(data_dir / "train.jsonl"),
                         "--out-dir", str(out_dir)] + TINY_FLAGS)
        assert code == 1
        assert capsys.readouterr().err == "error: backward: produced non-finite gradient\n"
        assert not (out_dir / "checkpoint.npz").exists()
        assert read_manifest(out_dir / "manifest.json")["status"] == "incomplete"

    @pytest.mark.parametrize("lines, flags, line_no", [
        (["d_w = 8", "heads = 3"], [], 2),
        (["heads = 3", "seed = 2", "d_w = 8"], [], 3),  # the later of the two lines
        (["d_w = 8", "heads = 2"], ["--heads", "3"], 1),  # the line the flag left standing
        (["seed = 2", "heads = 3"], ["--d-w", "8"], 2),
        (["d_w = 8", "heads = 3"], ["--d-w", "8", "--heads", "3"], None),  # flags set both
        (["seed = 2"], ["--d-w", "8", "--heads", "3"], None),
    ], ids=["file_sets_both", "later_line", "flag_overrides_heads", "flag_sets_d_w",
            "flags_override_both", "flags_set_both"])
    def test_indivisible_heads_name_the_config_line_behind_them(self, data_dir, capsys, lines,
                                                                 flags, line_no):
        cfg = data_dir / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out_dir = data_dir / "run_heads"
        code = cli.main(["train", "--config", str(cfg), "--train", str(data_dir / "train.jsonl"),
                         "--out-dir", str(out_dir)] + flags)
        assert code == 1
        where = "" if line_no is None else f"{cfg}:{line_no}: "
        assert capsys.readouterr().err == f"error: {where}d_w=8 must be divisible by heads=3\n"
        assert not out_dir.exists()

    def test_an_empty_training_file_with_no_dev_fraction_says_nothing_was_held_out(
            self, data_dir, capsys):
        path = data_dir / "empty.jsonl"
        path.write_text("")
        code = cli.main(["train", "--train", str(path), "--out-dir", str(data_dir / "run_none"),
                         "--dev-fraction", "0"] + TINY_FLAGS)
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: no samples left to train on\n"

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("n_samples", [1, 0])
    def test_a_split_that_leaves_nothing_to_train_names_the_file(self, data_dir, capsys,
                                                                 command, n_samples):
        # the default dev fraction holds out a one-sample file's only sample
        path = data_dir / "few.jsonl"
        save_dataset(path, make_synthetic_corpus(n_samples, seed=33))
        eval_args = ["--eval", str(data_dir / "test.jsonl")] if command == "ablate" else []
        code = cli.main([command, "--train", str(path), "--out-dir", str(data_dir / "run_few")]
                        + eval_args + TINY_FLAGS)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: no samples left to train on after holding out "
            "dev fraction 0.1\n")

    def test_failed_run_leaves_incomplete_manifest(self, data_dir):
        empty = data_dir / "empty.jsonl"
        empty.write_text("")
        out_dir = data_dir / "run_fail"
        code = cli.main(["train", "--train", str(empty),
                         "--out-dir", str(out_dir)] + TINY_FLAGS)
        assert code == 1
        assert read_manifest(out_dir / "manifest.json")["status"] == "incomplete"


class TestEvalPredict:
    @pytest.fixture
    def checkpoint(self, data_dir):
        out_dir = data_dir / "run"
        assert cli.main(["train", "--train", str(data_dir / "train.jsonl"),
                         "--out-dir", str(out_dir)] + TINY_FLAGS) == 0
        return out_dir / "checkpoint.npz"

    def test_eval_prints_and_writes_metrics(self, data_dir, checkpoint, capsys):
        out = data_dir / "metrics.json"
        code = cli.main(["eval", "--checkpoint", str(checkpoint),
                         "--data", str(data_dir / "test.jsonl"), "--out", str(out)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(out.read_text())
        assert printed == on_disk
        assert sum(sum(row) for row in on_disk["confusion"]) == 6

    def test_predict_writes_records_with_gold_labels(self, data_dir, checkpoint):
        out = data_dir / "preds.jsonl"
        code = cli.main(["predict", "--checkpoint", str(checkpoint),
                         "--data", str(data_dir / "test.jsonl"), "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 6
        for record in records:
            assert set(record) == {"prob", "predicted_label", "gold_label"}
            assert len(record["prob"]) == 3
            assert abs(sum(record["prob"]) - 1.0) < 1e-9

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_manifest_names_the_checkpoint_it_read(self, data_dir, checkpoint, command):
        out = data_dir / f"{command}.out"
        assert cli.main([command, "--checkpoint", str(checkpoint),
                         "--data", str(data_dir / "test.jsonl"), "--out", str(out)]) == 0
        inputs = read_manifest(str(out) + ".manifest.json")["inputs"]
        assert set(inputs) == {"checkpoint", "data"}
        assert inputs["checkpoint"] == {"path": str(checkpoint),
                                        "sha256": file_sha256(checkpoint)}

    def test_an_empty_data_file_fails_eval_in_one_line(self, data_dir, checkpoint, capsys):
        empty = data_dir / "empty.jsonl"
        empty.write_text("")
        assert cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(empty)]) == 1
        assert capsys.readouterr() == ("", f"error: {empty}: no samples to evaluate\n")

    def test_an_empty_data_file_predicts_nothing(self, data_dir, checkpoint, capsys):
        empty = data_dir / "empty.jsonl"
        empty.write_text("")
        out = data_dir / "preds.jsonl"
        assert cli.main(["predict", "--checkpoint", str(checkpoint), "--data", str(empty),
                         "--out", str(out)]) == 0
        assert out.read_text() == ""
        assert capsys.readouterr().out == f"wrote 0 prediction records to {out}\n"

    def test_checkpoint_with_per_head_names_fails_in_one_line(self, data_dir, checkpoint,
                                                              capsys):
        # the layout with one projection tensor per head and kind; it is not converted
        def split_heads(members):
            for kind in ("wq", "wk", "wv"):
                joined = np.load(io.BytesIO(members.pop(f"transformer.{kind}.npy")))
                for h, block in enumerate(np.split(joined, 2, axis=1)):
                    members[f"transformer.head{h}.{kind}.npy"] = npy_bytes(block)

        rewrite_members(checkpoint, split_heads)
        capsys.readouterr()
        code = cli.main(["predict", "--checkpoint", str(checkpoint),
                         "--data", str(data_dir / "test.jsonl"),
                         "--out", str(data_dir / "preds.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {checkpoint}: not a loadable checkpoint: "
            "state mismatch: missing ['transformer.wk', 'transformer.wq', "
            "'transformer.wv'], unexpected ['transformer.head0.wk', 'transformer.head0.wq', "
            "'transformer.head0.wv', 'transformer.head1.wk', 'transformer.head1.wq', "
            "'transformer.head1.wv']\n")

    @pytest.mark.parametrize("kind", [
        "missing", "old_directory", "not_a_zip", "truncated", "crc_mismatch", "huge_shape",
        "missing_tensor", "extra_tensor", "wrong_shape"])
    def test_unloadable_checkpoint_fails_in_one_line_naming_it(self, data_dir, checkpoint,
                                                               kind, capsys):
        path, phrase = damage(kind, checkpoint)
        capsys.readouterr()
        code = cli.main(["predict", "--checkpoint", str(path),
                         "--data", str(data_dir / "test.jsonl"),
                         "--out", str(data_dir / "preds.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a loadable checkpoint: ")
        assert phrase in err and err.count("\n") == 1

    def test_output_onto_a_directory_names_it(self, data_dir, checkpoint, capsys):
        out = data_dir / "outdir"
        out.mkdir()
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(checkpoint),
                         "--data", str(data_dir / "test.jsonl"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{out}'\n"

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("stdout", ["full_device", "closed_pipe"])
    def test_failed_write_to_stdout_fails_in_one_line(self, data_dir, checkpoint,
                                                       stdout, buffered):
        if stdout == "full_device" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="" if buffered else "1")
        command = [sys.executable, "-m", "sentigraph", "eval", "--checkpoint", str(checkpoint),
                   "--data", str(data_dir / "test.jsonl")]
        if stdout == "full_device":
            with open("/dev/full", "w") as full:
                done = subprocess.run(command, env=env, stdout=full, stderr=subprocess.PIPE,
                                      text=True, timeout=120)
            status, err = done.returncode, done.stderr
        else:
            process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE, text=True)
            process.stdout.close()  # before the command can write anything
            err = process.communicate(timeout=120)[1]
            status = process.returncode
        assert status == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_unseen_relations_are_counted_in_one_line(self, data_dir, checkpoint, command,
                                                      capsys):
        samples = load_dataset(data_dir / "test.jsonl")
        renamed = [  # every non-root edge of samples 0 and 3
            dataclasses.replace(s, deps=tuple((h, d, r if h == -1 else "never_seen")
                                              for h, d, r in s.deps)) if i in (0, 3) else s
            for i, s in enumerate(samples)]
        expected = samples[0].n - 1 + samples[3].n - 1
        data = data_dir / "unseen.jsonl"
        save_dataset(data, renamed)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([command, "--checkpoint", str(checkpoint), "--data", str(data),
                             "--out", str(data_dir / f"{command}.out")])
        assert code == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if "unseen" in line]
        assert lines == [f"note: {expected} edges had relations unseen in training, "
                         f"weighted at the minimum ratio: never_seen={expected}"]
        if command == "eval":
            json.loads(captured.out)  # the metrics on stdout stay valid JSON


class TestArtifacts:
    def test_failed_manifest_write_keeps_the_previous_complete_file(self, tmp_path,
                                                                    monkeypatch):
        path = tmp_path / "run.manifest.json"
        manifest = cli.Manifest(path, "prepare", None, {})
        previous = path.read_text()

        def dump_half_then_fail(obj, f, **kwargs):
            f.write('{"command": ')
            raise OSError("simulated failure half-way through the write")

        monkeypatch.setattr(cli.json, "dump", dump_half_then_fail)
        with pytest.raises(OSError, match="half-way"):
            manifest.complete()
        assert path.read_text() == previous
        assert json.loads(previous)["status"] == "incomplete"
        assert os.listdir(tmp_path) == ["run.manifest.json"]

    def test_atomic_write_into_missing_directory_names_the_target(self, tmp_path):
        target = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_write(target) as f:
                f.write("never written")
        assert info.value.filename == str(target)
        assert ".tmp" not in str(info.value)

    def test_output_into_missing_directory_names_it(self, tmp_path, capsys):
        conllu = tmp_path / "parses.conllu"
        conllu.write_text(CONLLU)
        labels = tmp_path / "aspects.txt"
        labels.write_text("0 1 1 negative\n")
        out = tmp_path / "missing" / "data.jsonl"
        assert cli.main(["prepare", "--conllu", str(conllu), "--labels", str(labels),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(out) in err
        assert ".tmp" not in err


class TestAblateSweep:
    def test_ablate_writes_full_table(self, data_dir):
        out_dir = data_dir / "ablation"
        code = cli.main(["ablate", "--train", str(data_dir / "train.jsonl"),
                         "--eval", str(data_dir / "test.jsonl"),
                         "--out-dir", str(out_dir)] + TINY_FLAGS[:-2] + ["--max-epochs", "1"])
        assert code == 0
        lines = (out_dir / "ablation.tsv").read_text().strip().splitlines()
        assert lines[0] == "variant\tacc\tmacro_f1"
        variants = {line.split("\t")[0] for line in lines[1:]}
        assert variants == {"full", "no_dependency", "no_edge_weights", "no_bidirectional"}
        manifest = read_manifest(out_dir / "manifest.json")
        assert (manifest["command"], manifest["status"]) == ("ablate", "complete")
        assert manifest["artifacts"] == {"table": str(out_dir / "ablation.tsv")}

    def test_ablate_scores_the_four_variants_whatever_graph_the_config_names(self, data_dir):
        out_dir = data_dir / "ablation_nobi"
        train_path, dev_path = data_dir / "train.jsonl", data_dir / "test.jsonl"
        code = cli.main(["ablate", "--train", str(train_path), "--dev", str(dev_path),
                         "--eval", str(dev_path), "--out-dir", str(out_dir),
                         "--graph", "no_bidirectional"]
                        + TINY_FLAGS[:-4] + ["--max-epochs", "1", "--batch-size", "8"])
        assert code == 0
        rows = [line.split("\t")
                for line in (out_dir / "ablation.tsv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == list(GRAPHS)
        config = TrainConfig(d_w=8, d_h=8, gcn_layers=1, heads=2, ffn_width=16, max_epochs=1,
                             batch_size=8, graph="no_bidirectional")
        dev = load_dataset(dev_path)
        expected = training.train_and_score(
            {v: dataclasses.replace(config, graph=v) for v in GRAPHS},
            load_dataset(train_path), dev, dev)
        assert {row[0]: (float(row[1]), float(row[2])) for row in rows} == {
            v: (report.acc, report.macro_f1) for v, report in expected.items()}

    def test_sweep_emits_series(self, data_dir):
        out_dir = data_dir / "sweep"
        code = cli.main(["sweep", "--train", str(data_dir / "train.jsonl"),
                         "--eval", str(data_dir / "test.jsonl"),
                         "--out-dir", str(out_dir),
                         "--layers", "1,2"] + TINY_FLAGS[:-2] + ["--max-epochs", "1"])
        assert code == 0
        lines = (out_dir / "sweep.tsv").read_text().strip().splitlines()
        assert lines[0] == "gcn_layers\tacc\tmacro_f1"
        assert [line.split("\t")[0] for line in lines[1:]] == ["1", "2"]
        manifest = read_manifest(out_dir / "manifest.json")
        assert (manifest["command"], manifest["status"]) == ("sweep", "complete")
        assert manifest["artifacts"] == {"series": str(out_dir / "sweep.tsv")}
        assert manifest["layers"] == [1, 2]

    @pytest.mark.parametrize("command", ["ablate", "sweep"])
    def test_manifest_names_the_dev_file(self, data_dir, command):
        out_dir = data_dir / command
        dev = data_dir / "test.jsonl"
        code = cli.main([command, "--train", str(data_dir / "train.jsonl"), "--dev", str(dev),
                         "--eval", str(dev), "--out-dir", str(out_dir)]
                        + (["--layers", "1"] if command == "sweep" else [])
                        + TINY_FLAGS[:-2] + ["--max-epochs", "1"])
        assert code == 0
        inputs = read_manifest(out_dir / "manifest.json")["inputs"]
        assert set(inputs) == {"train", "dev", "eval"}
        assert inputs["dev"] == {"path": str(dev), "sha256": file_sha256(dev)}

    @pytest.mark.parametrize("sweep", ["1,2,0", "2,2,1", "1,a"])
    def test_a_bad_sweep_range_fails_before_training(self, data_dir, monkeypatch, capsys,
                                                     sweep):
        def no_training(*args, **kwargs):
            raise AssertionError("trained a model")

        monkeypatch.setattr(training, "train", no_training)
        out_dir = data_dir / "sweep_bad"
        code = cli.main(["sweep", "--train", str(data_dir / "train.jsonl"),
                         "--eval", str(data_dir / "test.jsonl"), "--out-dir", str(out_dir),
                         "--layers", sweep] + TINY_FLAGS)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep ") and err.count("\n") == 1
        assert not (out_dir / "sweep.tsv").exists()

    @pytest.mark.parametrize("command", ["ablate", "sweep"])
    def test_an_empty_eval_file_fails_before_training(self, data_dir, monkeypatch, capsys,
                                                      command):
        monkeypatch.setattr(training, "train", lambda *a, **k: pytest.fail("trained a model"))
        empty = data_dir / "empty.jsonl"
        empty.write_text("")
        out_dir = data_dir / "study_empty"
        code = cli.main([command, "--train", str(data_dir / "train.jsonl"), "--eval", str(empty),
                         "--out-dir", str(out_dir)] + TINY_FLAGS)
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty}: no samples to evaluate\n"
        assert read_manifest(out_dir / "manifest.json")["status"] == "incomplete"


class TestGradcheck:
    def stub_results(self, worst):
        return [("matmul", FiniteDiffReport(max_rel_error=1e-9, checked=10)),
                ("composed_model", FiniteDiffReport(max_rel_error=worst, checked=100))]

    def test_exit_zero_under_threshold(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "gradient_check_suite", lambda: self.stub_results(5e-6))
        assert cli.main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "overall max relative error" in out
        assert "composed_model" in out

    def test_exit_one_over_threshold(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "gradient_check_suite", lambda: self.stub_results(5e-3))
        assert cli.main(["gradcheck"]) == 1

    @pytest.mark.parametrize("option", ["--seed", "--eps", "--threshold"])
    def test_takes_no_option(self, monkeypatch, capsys, option):
        # the seed, step and threshold are constants: an option is a usage error
        monkeypatch.setattr(cli, "gradient_check_suite", lambda: pytest.fail("suite ran"))
        assert cli.main(["gradcheck", option, "7"]) == 2
        assert f"unrecognized arguments: {option} 7" in capsys.readouterr().err
