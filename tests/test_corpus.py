import json
import os
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentigraph import corpus
from sentigraph.config import TrainConfig
from sentigraph.corpus import (
    UNK_ID,
    AspectSample,
    DatasetError,
    Vocab,
    build_vocab,
    conllu_to_samples,
    load_dataset,
    load_pretrained_embeddings,
    save_dataset,
)
from sentigraph.model import AspectSentimentModel
from sentigraph.training import load_checkpoint, save_checkpoint

from conftest import random_tree_sample


def make_record(**overrides):
    record = {
        "tokens": ["the", "menu", "was", "limited"],
        "aspect_start": 1,
        "aspect_len": 1,
        "label": "negative",
        "deps": [[1, 0, "det"], [3, 1, "nsubj"], [3, 2, "cop"], [-1, 3, "root"]],
    }
    record.update(overrides)
    return record


def write_jsonl(path, records):
    with open(path, "w") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")


class TestLoadDataset:
    def test_valid_file_round_trips(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [make_record(), make_record(label="positive")])
        samples = load_dataset(path)
        assert len(samples) == 2
        assert samples[0].tokens == ("the", "menu", "was", "limited")
        assert samples[0].deps[1] == (3, 1, "nsubj")
        assert samples[1].label == "positive"

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_dataset(path) == []

    def test_span_violation_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        records = [make_record()] * 2
        records = records + [make_record(tokens=["a", "b", "c", "d", "e", "f"],
                                         aspect_start=5, aspect_len=2,
                                         deps=[[-1, 0, "root"]] + [[0, i, "dep"] for i in range(1, 6)])]
        write_jsonl(path, records)
        with pytest.raises(DatasetError, match=":3: .*aspect"):
            load_dataset(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [make_record(label="angry")])
        with pytest.raises(DatasetError, match=":1: .*label"):
            load_dataset(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = make_record()
        del record["deps"]
        write_jsonl(path, [record])
        with pytest.raises(DatasetError, match=":1: .*'deps'"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(make_record()) + "\n{not json\n")
        with pytest.raises(DatasetError, match=":2: "):
            load_dataset(path)

    @pytest.mark.parametrize("line, message", [
        ("{not json", "invalid JSON"),
        ("[1, 2]", "record is not an object"),
        (json.dumps({k: v for k, v in make_record().items() if k != "deps"}),
         "missing field 'deps'"),
        (json.dumps(make_record(label="angry")), "field 'label'"),
        (json.dumps(make_record(tokens=["the", "me\nnu", "was", "limited"])),
         "field 'tokens': token 1"),
        (json.dumps(make_record(aspect_start=True)), "field 'aspect_start' has wrong type"),
        (json.dumps(make_record(deps=[[True, False, "det"], [3, 1, "nsubj"], [3, 2, "cop"],
                                      [-1, 3, "root"]])),
         "field 'deps' entries must be [head, dependent, relation]"),
    ], ids=["json", "object", "field", "label", "line_break", "bool_index", "bool_edge"])
    def test_errors_start_with_the_file_and_name_the_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(make_record()) + "\n\n" + line + "\n")
        with pytest.raises(DatasetError, match="^" + re.escape(f"{path}:3: {message}")):
            load_dataset(path)

    def test_double_headed_token_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [make_record(deps=[[1, 0, "det"], [3, 1, "nsubj"],
                                             [3, 1, "dobj"], [-1, 3, "root"]])])
        with pytest.raises(DatasetError, match="more than one head"):
            load_dataset(path)

    def test_cycle_rejected(self, tmp_path):
        # 0 <-> 1 cycle detached from the root component
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [make_record(deps=[[1, 0, "det"], [0, 1, "nsubj"],
                                             [3, 2, "cop"], [-1, 3, "root"]])])
        with pytest.raises(DatasetError, match="tree"):
            load_dataset(path)

    @pytest.mark.parametrize("token", ["two\nlines", "carriage\rreturn"])
    def test_token_with_line_break_rejected(self, tmp_path, token):
        # tokens are held to the line-safe text the unseen-relations note needs of relations
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [make_record(), make_record(tokens=["the", token, "was", "limited"])])
        with pytest.raises(DatasetError, match=r":2: field 'tokens': token 1 .*line break"):
            load_dataset(path)

    def test_unicode_escaped_line_break_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(make_record()).replace('"menu"', '"me\\u000anu"') + "\n")
        with pytest.raises(DatasetError, match=r":1: field 'tokens': token 1 'me\\nnu'"):
            load_dataset(path)

    @pytest.mark.parametrize("relation", ["n\tsubj", "n\nsubj", "n\rsubj"])
    def test_relation_with_tab_or_line_break_rejected(self, tmp_path, relation):
        # a relation is named on the one-line unseen-relations note
        path = tmp_path / "bad.jsonl"
        deps = [[1, 0, "det"], [3, 1, relation], [3, 2, "cop"], [-1, 3, "root"]]
        write_jsonl(path, [make_record(deps=deps)])
        with pytest.raises(DatasetError, match=r":1: field 'deps': relation .*tab"):
            load_dataset(path)

    @pytest.mark.parametrize("field, name", [("tokens", '"menu"'), ("deps", '"nsubj"')])
    def test_escaped_lone_surrogate_rejected(self, tmp_path, field, name):
        # a lone surrogate has no UTF-8 form: no UTF-8 line could name it
        path = tmp_path / "bad.jsonl"
        line = json.dumps(make_record())
        path.write_text(line + "\n" + line.replace(name, '"\\ud800"') + "\n")
        with pytest.raises(DatasetError, match=f":2: field '{field}': .*lone surrogate"):
            load_dataset(path)

    def test_reload_is_identical(self, tmp_path, rng):
        path = tmp_path / "data.jsonl"
        save_dataset(path, [random_tree_sample(rng, n=int(rng.integers(1, 9)))
                            for _ in range(20)])
        assert load_dataset(path) == load_dataset(path)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_trees_always_validate(seed):
    rng = np.random.default_rng(seed)
    sample = random_tree_sample(rng, n=int(rng.integers(1, 9)))
    sample.validate()
    heads = [d[0] for d in sample.deps]
    assert heads.count(-1) == 1


# any token load_dataset accepts: no line breaks, no surrogates
_token_text = st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters="\n\r"), min_size=1, max_size=12)


def vocab_round_trip(path, vocab: Vocab) -> Vocab:
    """``vocab`` as a checkpoint stores and restores it, with a small model around it."""
    config = TrainConfig(d_w=2, d_h=1, gcn_layers=1, heads=1, ffn_width=1,
                         graph="no_edge_weights")
    save_checkpoint(path, AspectSentimentModel(config, vocab))
    return load_checkpoint(path).vocab


# any text, line breaks, NUL and lone surrogates included
_any_token = st.text(st.characters(exclude_categories=()), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(tokens=st.lists(_any_token, unique=True, max_size=20))
def test_vocab_save_load_round_trips(tmp_path_factory, tokens):
    tokens = [t for t in tokens if t not in (corpus.PAD_TOKEN, corpus.UNK_TOKEN)]
    vocab = Vocab([corpus.PAD_TOKEN, corpus.UNK_TOKEN] + tokens)
    path = tmp_path_factory.mktemp("vocab") / "checkpoint.npz"
    loaded = vocab_round_trip(path, vocab)
    assert loaded.id_to_token == vocab.id_to_token
    assert all(loaded.id(t) == i for i, t in enumerate(vocab.id_to_token))
    assert os.listdir(path.parent) == ["checkpoint.npz"]


_relation_text = st.text(st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters="\t\n\r"), max_size=8)


@st.composite
def aspect_samples(draw):
    """Any sample ``load_dataset`` accepts: a labelled span over a random dependency tree."""
    tokens = draw(st.lists(_token_text, min_size=1, max_size=8))
    n = len(tokens)
    # each token in a random order hangs from one placed before it
    order = draw(st.permutations(range(n)))
    heads = {order[0]: -1}
    for pos in range(1, n):
        heads[order[pos]] = order[draw(st.integers(0, pos - 1))]
    start = draw(st.integers(0, n - 1))
    deps = [(heads[d], d, draw(_relation_text)) for d in draw(st.permutations(range(n)))]
    return AspectSample(tokens=tuple(tokens), aspect_start=start,
                        aspect_len=draw(st.integers(1, n - start)),
                        label=draw(st.sampled_from(corpus.LABELS)), deps=tuple(deps))


@settings(max_examples=80, deadline=None)
@given(samples=st.lists(aspect_samples(), max_size=4))
def test_dataset_save_load_round_trips(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("data") / "data.jsonl"
    save_dataset(path, samples)
    assert load_dataset(path) == samples


class TestBuildVocab:
    def samples_for(self, token_lists):
        return [
            AspectSample(tokens=tuple(toks), aspect_start=0, aspect_len=1,
                         label="positive",
                         deps=tuple([(-1, 0, "root")] + [(0, i, "dep") for i in range(1, len(toks))]))
            for toks in token_lists
        ]

    def test_min_freq_filters(self):
        vocab = build_vocab(self.samples_for([["a", "a", "b"], ["a"]]), min_freq=2)
        assert vocab.id_to_token == ["<pad>", "<unk>", "a"]

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(self.samples_for([["a", "a", "b"], ["a"]]), min_freq=1)
        assert vocab.id_to_token == ["<pad>", "<unk>", "a", "b"]

    def test_tie_broken_lexicographically(self):
        vocab = build_vocab(self.samples_for([["zebra", "apple"]]), min_freq=1)
        assert vocab.id_to_token[2:] == ["apple", "zebra"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(DatasetError, match="empty"):
            build_vocab([], min_freq=1)

    def test_encode_maps_unknowns(self):
        vocab = build_vocab(self.samples_for([["a", "b"]]))
        ids = vocab.encode(["a", "mystery", "b"])
        assert ids.tolist() == [vocab.id("a"), UNK_ID, vocab.id("b")]

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab(self.samples_for([["a", "b", "c"]]))
        loaded = vocab_round_trip(tmp_path / "checkpoint.npz", vocab)
        assert loaded.id_to_token == vocab.id_to_token


class TestEmbeddings:
    def glove_file(self, tmp_path, rows, d=4):
        path = tmp_path / "vectors.txt"
        with open(path, "w") as f:
            for token, values in rows:
                f.write(token + " " + " ".join(str(v) for v in values) + "\n")
        return path

    def test_in_file_rows_copied_verbatim(self, tmp_path):
        vocab = Vocab(["<pad>", "<unk>", "hello", "world"])
        values = [0.125, -2.5, 3.0, 0.0625]
        path = self.glove_file(tmp_path, [("hello", values), ("skipme", [1, 2, 3, 4])])
        table = load_pretrained_embeddings(path, vocab, 4)
        assert table[vocab.id("hello")].tolist() == values

    def test_dimension_mismatch_names_line(self, tmp_path):
        vocab = Vocab(["<pad>", "<unk>", "hello"])
        path = self.glove_file(tmp_path, [("hello", [1, 2, 3, 4]), ("bad", [1, 2])])
        with pytest.raises(DatasetError, match=re.escape(f"{path}:2: expected 4 values, found 2")):
            load_pretrained_embeddings(path, vocab, 4)

    def test_word2vec_header_line_skipped(self, tmp_path):
        vocab = Vocab(["<pad>", "<unk>", "hello"])
        path = tmp_path / "vectors.txt"
        path.write_text("3 4\nhello 1 2 3 4\nworld 5 6 7 8\nagain 0 0 0 0\n")
        table = load_pretrained_embeddings(path, vocab, 4)
        assert table[vocab.id("hello")].tolist() == [1, 2, 3, 4]
        path.write_text("3 8\nhello 1 2 3 4\n")
        with pytest.raises(DatasetError, match=re.escape(f"{path}:1: header declares width 8")):
            load_pretrained_embeddings(path, vocab, 4)

    def test_a_header_int_cannot_parse_fails_naming_the_line(self, tmp_path):
        vocab = Vocab(["<pad>", "<unk>", "hello"])
        path = tmp_path / "vectors.txt"
        # a superscript two is a digit to str.isdigit, but int() refuses it
        path.write_text("2 \u00b2\nhello 1 2 3 4\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=re.escape(f"{path}:1: expected 4 values, found 1")):
            load_pretrained_embeddings(path, vocab, 4)
        # decimal digits of any script are what int() parses: a header
        path.write_text("\u0663 \u0664\nhello 1 2 3 4\n", encoding="utf-8")
        assert load_pretrained_embeddings(path, vocab, 4)[vocab.id("hello")].tolist() == [1, 2, 3, 4]

    def test_a_line_holding_only_a_token_fails_naming_the_line(self, tmp_path):
        vocab = Vocab(["<pad>", "<unk>", "the"])
        path = tmp_path / "vectors.txt"
        path.write_text("the\n")
        with pytest.raises(DatasetError,
                           match="^" + re.escape(f"{path}:1: expected 8 values, found 0")):
            load_pretrained_embeddings(path, vocab, 8)
        # blank lines, whitespace alone included, are the only lines skipped
        path.write_text("\n \t\nthe 1 2 3 4 5 6 7 8\n\n")
        assert load_pretrained_embeddings(path, vocab, 8)[vocab.id("the")].tolist() == [
            1, 2, 3, 4, 5, 6, 7, 8]

    def test_trailing_whitespace_tolerated(self, tmp_path):
        vocab = Vocab(["<pad>", "<unk>", "hello"])
        path = tmp_path / "vectors.txt"
        path.write_text("hello 1 2 3 4 \nworld\t5 6 7 8\t\n")
        table = load_pretrained_embeddings(path, vocab, 4)
        assert table[vocab.id("hello")].tolist() == [1, 2, 3, 4]

    def test_non_numeric_value_names_file_and_line(self, tmp_path):
        vocab = Vocab(["<pad>", "<unk>", "hello"])
        path = tmp_path / "vectors.txt"
        for bad in ("x", "nan"):
            path.write_text(f"other 1 2 3 4\nhello 1 {bad} 3 4\n")
            with pytest.raises(DatasetError, match=re.escape(f"{path}:2: ") + ".*'hello'.*not a finite number"):
                load_pretrained_embeddings(path, vocab, 4)


@pytest.mark.parametrize("reader", ["dataset", "conllu", "labels", "embeddings"])
def test_bytes_that_are_not_utf8_name_the_file_and_line(tmp_path, reader):
    conllu = tmp_path / "parses.conllu"
    conllu.write_text(CONLLU)
    first_line, read = {
        "dataset": (json.dumps(make_record()), load_dataset),
        "conllu": (CONLLU.splitlines()[1], corpus.read_conllu),
        "labels": ("0 1 1 negative", lambda p: conllu_to_samples(conllu, p)),
        "embeddings": ("menu 0.1 0.2 0.3 0.4", lambda p: load_pretrained_embeddings(
            p, Vocab(["<pad>", "<unk>", "menu"]), 4)),
    }[reader]
    path = tmp_path / "input.txt"
    path.write_bytes(first_line.encode() + b"\ncaf\xff\n")
    with pytest.raises(DatasetError, match="^" + re.escape(f"{path}:2: not UTF-8")):
        read(path)


FULL_DATA_DIR = os.environ.get("SENTIGRAPH_FULL_DATA_DIR")


@pytest.mark.skipif(not FULL_DATA_DIR,
                    reason="needs the converted restaurant-reviews benchmark")
def test_rest14_train_class_counts():
    samples = load_dataset(os.path.join(FULL_DATA_DIR, "rest14_train.jsonl"))
    counts = Counter(s.label for s in samples)
    assert len(samples) == 3608
    assert counts == {"positive": 2164, "neutral": 637, "negative": 807}


CONLLU = """\
# sent_id = 1
1\tthe\t_\t_\t_\t_\t2\tdet\t_\t_
2\tmenu\t_\t_\t_\t_\t4\tnsubj\t_\t_
3\twas\t_\t_\t_\t_\t4\tcop\t_\t_
4\tlimited\t_\t_\t_\t_\t0\troot\t_\t_

1\tfriendly\t_\t_\t_\t_\t2\tamod\t_\t_
2\tstaff\t_\t_\t_\t_\t0\troot\t_\t_
"""


class TestConlluConverter:
    def test_conversion_joins_labels(self, tmp_path):
        conllu = tmp_path / "parses.conllu"
        conllu.write_text(CONLLU)
        labels = tmp_path / "aspects.txt"
        labels.write_text("# sent aspect_start aspect_len label\n0 1 1 negative\n1 1 1 positive\n")
        samples = conllu_to_samples(conllu, labels)
        assert len(samples) == 2
        assert samples[0].tokens == ("the", "menu", "was", "limited")
        assert samples[0].deps == ((1, 0, "det"), (3, 1, "nsubj"), (3, 2, "cop"), (-1, 3, "root"))
        assert samples[1].label == "positive"

    def test_multiword_ranges_skipped(self, tmp_path):
        text = "1-2\tdella\t_\t_\t_\t_\t_\t_\t_\t_\n" \
               "1\tdi\t_\t_\t_\t_\t2\tcase\t_\t_\n" \
               "2\tcasa\t_\t_\t_\t_\t0\troot\t_\t_\n"
        conllu = tmp_path / "p.conllu"
        conllu.write_text(text)
        sentences = corpus.read_conllu(conllu)
        assert sentences[0]["tokens"] == ("di", "casa")

    def test_bad_sentence_index_reported(self, tmp_path):
        conllu = tmp_path / "p.conllu"
        conllu.write_text(CONLLU)
        labels = tmp_path / "a.txt"
        labels.write_text("7 0 1 positive\n")
        with pytest.raises(DatasetError, match="sentence index 7"):
            conllu_to_samples(conllu, labels)

    @pytest.mark.parametrize("bad_file, content, message", [
        ("conllu", "1\tword\n", "1: expected >= 8 tab-separated columns"),
        ("conllu", CONLLU.replace("\t2\tdet", "\tx\tdet"), "2: head column"),
        ("labels", "# comment\n0 1 1\n", "2: expected 4 columns"),
        ("labels", "0 1 1 negative\nx 1 1 positive\n", "2: non-integer index"),
        ("labels", "\n0 1 1 negative\n7 0 1 positive\n", "3: sentence index 7"),
        ("labels", "0 1 1 negative\n1 1 1 glad\n", "2: field 'label'"),
        ("labels", "0 3 2 negative\n", "1: field 'aspect_start'"),
    ], ids=["columns", "head", "label_columns", "index", "sentence", "label", "span"])
    def test_errors_start_with_the_file_and_name_the_line(self, tmp_path, bad_file,
                                                         content, message):
        paths = {"conllu": tmp_path / "p.conllu", "labels": tmp_path / "a.txt"}
        paths["conllu"].write_text(CONLLU)
        paths["labels"].write_text("0 1 1 negative\n")
        paths[bad_file].write_text(content)
        with pytest.raises(DatasetError, match="^" + re.escape(f"{paths[bad_file]}:{message}")):
            conllu_to_samples(paths["conllu"], paths["labels"])

    def test_a_parse_that_is_no_tree_fails_at_the_annotation_naming_the_sentence(self, tmp_path):
        conllu = tmp_path / "p.conllu"
        conllu.write_text(CONLLU.replace("\t4\tnsubj", "\t1\tnsubj"))  # "the" <-> "menu"
        labels = tmp_path / "a.txt"
        labels.write_text("1 1 1 positive\n0 1 1 negative\n")
        with pytest.raises(DatasetError, match="^" + re.escape(
                f"{labels}:2: field 'deps': edges do not form a single-rooted tree "
                f"(sentence 0 of {conllu})") + "$"):
            conllu_to_samples(conllu, labels)

    def test_short_line_rejected(self, tmp_path):
        conllu = tmp_path / "p.conllu"
        conllu.write_text("1\tword\n")
        with pytest.raises(DatasetError, match=":1: "):
            corpus.read_conllu(conllu)
