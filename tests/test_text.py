import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lama import synthetic, text
from lama.text import (PAD_ID, PAD_TOKEN, UNK_ID, UNK_TOKEN, Document, EmptyCorpusError,
                       MalformedLineError, build_vocab, encode, load_dataset,
                       read_pretrained, read_tsv, tokenize)
from lama.synthetic import pairs_to_dataset, write_tsv


class TestTokenize:
    def test_punctuation_becomes_standalone(self):
        assert tokenize("Great food!") == ["great", "food", "!"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_commas_split_midstream(self):
        assert tokenize("not amazing, not bad") == ["not", "amazing", ",", "not", "bad"]

    def test_lowercases_and_handles_unicode_space(self):
        assert tokenize("Café TIME") == ["café", "time"]

    def test_apostrophes_split(self):
        assert tokenize("don't") == ["don", "'", "t"]

    def test_deterministic(self):
        s = "Some, text; with?? punctuation-galore..."
        assert tokenize(s) == tokenize(s)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.one_of(
            st.sampled_from(["\r\n", *"aZ09 \t\r\n.,!?'\"-()\x1c\x1d\x1e\x1f\xa0\x00"
                                       "\x85\u2028\u3000éßİΣ中٣…—、¿"]),
            st.characters()), max_size=40).map("".join),
        # no punctuation: every word takes the alphanumeric shortcut
        st.text(st.characters(categories=["L", "N", "Zs"]), max_size=40)))
    def test_equals_per_character_reference(self, s):
        assert tokenize(s) == per_character_tokenize(s)


def per_character_tokenize(text_):
    """The reference: one pass over the lowercased characters, a word ends
    at whitespace and every character of Unicode category P is a token."""
    tokens, word = [], []
    for ch in text_.lower():
        if ch.isspace() or unicodedata.category(ch).startswith("P"):
            if word:
                tokens.append("".join(word))
                word = []
            if not ch.isspace():
                tokens.append(ch)
        else:
            word.append(ch)
    if word:
        tokens.append("".join(word))
    return tokens


class TestBuildVocab:
    def test_threshold_boundary(self):
        corpus = [["a"] * 5, ["b"] * 4]
        vocab = build_vocab(corpus, min_count=5)
        assert vocab.id_to_token == [PAD_TOKEN, UNK_TOKEN, "a"]

    def test_min_count_one_keeps_everything(self):
        corpus = [["x", "y"], ["z"]]
        vocab = build_vocab(corpus, min_count=1)
        assert set(vocab.id_to_token) == {PAD_TOKEN, UNK_TOKEN, "x", "y", "z"}

    def test_two_runs_assign_identical_ids(self):
        corpus = [["c", "a", "b", "a"], ["b", "a"]]
        v1 = build_vocab(corpus, min_count=1)
        v2 = build_vocab(corpus, min_count=1)
        assert v1.token_to_id == v2.token_to_id

    def test_frequency_then_lexicographic_order(self):
        corpus = [["b", "b", "a", "a", "c"]]
        vocab = build_vocab(corpus, min_count=1)
        assert vocab.id_to_token[2:] == ["a", "b", "c"]

    def test_order_is_descending_count_then_token(self):
        # many ties: the reference is the key (-count, token)
        rng = np.random.default_rng(1)
        for _ in range(10):
            docs = [[f"w{rng.integers(0, 60)}" for _ in range(20)] for _ in range(15)]
            counts = Counter(t for d in docs for t in d)
            kept = [t for t in counts if counts[t] >= 2]
            expected = sorted(kept, key=lambda t: (-counts[t], t))
            assert build_vocab(docs, min_count=2).id_to_token[2:] == expected

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_vocab([], min_count=1)

    def test_exclusions_match_brute_force_count(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            tokens = [f"w{rng.integers(0, 30)}" for _ in range(300)]
            docs = [tokens[i:i + 10] for i in range(0, 300, 10)]
            counts = Counter(t for d in docs for t in d)
            vocab = build_vocab(docs, min_count=3)
            expected = {t for t, c in counts.items() if c >= 3}
            assert set(vocab.id_to_token[2:]) == expected

    def test_reserved_tokens_in_text_are_not_kept(self, tmp_path):
        # tokenize leaves "<pad>" and "<unk>" whole; kept, they would list a
        # reserved token twice in vocab.txt, which then does not load
        corpus = [tokenize("a <pad> <UNK> <unk>")] * 5
        vocab = build_vocab(corpus, min_count=1)
        assert vocab.id_to_token == [PAD_TOKEN, UNK_TOKEN, "a"]
        vocab.save(tmp_path / "vocab.txt")
        assert text.Vocab.load(tmp_path / "vocab.txt").id_to_token == vocab.id_to_token

    def test_roundtrip_through_file(self, tmp_path):
        vocab = build_vocab([["a", "b", "a"]], min_count=1)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = text.Vocab.load(path)
        assert loaded.id_to_token == vocab.id_to_token

    @pytest.mark.parametrize("raw", [
        b"<pad>\r\n<unk>\r\na\r\nb\r\n",   # CRLF endings
        b"<pad>\n<unk>\na\nb",               # no trailing newline
        b"<pad>\n<unk>\na\n\n",              # a blank last line
        b"<pad>\n<unk>\ra\nb\r",             # lone CRs
    ], ids=["crlf", "no-final-newline", "blank-last-line", "lone-cr"])
    def test_load_reads_the_lines_iteration_reads(self, tmp_path, raw):
        path = tmp_path / "vocab.txt"
        path.write_bytes(raw)
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh]
        vocab = text.Vocab.load(path)
        assert vocab.id_to_token == lines
        assert vocab.token_to_id == {t: i for i, t in enumerate(lines)}


class TestEncode:
    def test_pads_to_max_len(self):
        vocab = build_vocab([["a"] * 5], min_count=1)
        ids, true_length = encode(["a"], vocab, max_len=4)
        np.testing.assert_array_equal(ids, [vocab.lookup("a"), PAD_ID, PAD_ID, PAD_ID])
        assert true_length == 1

    def test_unknown_token_maps_to_unk(self):
        vocab = build_vocab([["a"] * 5], min_count=1)
        ids, _ = encode(["zzz"], vocab, max_len=2)
        assert ids[0] == UNK_ID

    def test_reserved_tokens_in_text_map_to_unk(self):
        vocab = build_vocab([["a"] * 5], min_count=1)
        ids, true_length = encode([PAD_TOKEN, UNK_TOKEN], vocab, max_len=2)
        np.testing.assert_array_equal(ids, [UNK_ID, UNK_ID])
        assert true_length == 2

    def test_truncates_to_max_len(self):
        vocab = build_vocab([["a"] * 5], min_count=1)
        ids, true_length = encode(["a"] * 300, vocab, max_len=256)
        assert true_length == 256
        assert len(ids) == 256

    @settings(max_examples=200, deadline=None)
    @given(tokens=st.lists(st.sampled_from(["a", "b", "zzz", PAD_TOKEN, UNK_TOKEN, "!"]),
                           max_size=12),
           max_len=st.integers(1, 8))
    def test_length_and_no_pad_id_for_text(self, tokens, max_len):
        vocab = build_vocab([["a", "b", "!"] * 2], min_count=1)
        ids, true_length = encode(tokens, vocab, max_len)
        assert true_length == min(len(tokens), max_len)
        assert len(ids) == max_len
        assert PAD_ID not in ids[:true_length]
        assert (ids[true_length:] == PAD_ID).all()

    def test_encode_tokenize_deterministic(self):
        vocab = build_vocab([tokenize("the quick brown fox!")], min_count=1)
        a = encode(tokenize("The QUICK fox."), vocab, 8)
        b = encode(tokenize("The QUICK fox."), vocab, 8)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]


class TestDocument:
    @pytest.mark.parametrize("true_length", [0, -1, 5])
    def test_true_length_out_of_range_rejected_when_made(self, true_length):
        with pytest.raises(ValueError, match="true_length"):
            Document(np.array([4, 5, 6, PAD_ID]), true_length, 0)


@pytest.fixture
def tiny_vocab():
    return build_vocab([["good", "bad", "fine", "awful"] * 5], min_count=1)


class TestLoadDataset:
    def test_two_lines_two_classes(self, tmp_path, tiny_vocab):
        p = tmp_path / "data.tsv"
        p.write_text("pos\tgood good\nneg\tbad\n", encoding="utf-8")
        ds = load_dataset(p, tiny_vocab, max_len=8)
        assert ds.num_classes == 2
        assert len(ds) == 2
        assert ds.label_names == ["pos", "neg"]

    def test_line_missing_tab_names_line(self, tmp_path, tiny_vocab):
        p = tmp_path / "data.tsv"
        p.write_text("pos\tgood\nbroken line\n", encoding="utf-8")
        with pytest.raises(MalformedLineError, match=":2:"):
            load_dataset(p, tiny_vocab)

    def test_duplicate_texts_both_counted(self, tmp_path, tiny_vocab):
        p = tmp_path / "data.tsv"
        p.write_text("pos\tgood\npos\tgood\n", encoding="utf-8")
        assert len(load_dataset(p, tiny_vocab)) == 2

    def test_closed_label_map_rejects_unseen(self, tmp_path, tiny_vocab):
        p = tmp_path / "data.tsv"
        p.write_text("mystery\tgood\n", encoding="utf-8")
        with pytest.raises(MalformedLineError, match="mystery"):
            load_dataset(p, tiny_vocab, label_names=["pos", "neg"])

    def test_label_ids_by_first_appearance(self, tmp_path, tiny_vocab):
        p = tmp_path / "data.tsv"
        p.write_text("b\tbad\na\tgood\nb\tfine\n", encoding="utf-8")
        ds = load_dataset(p, tiny_vocab)
        assert ds.label_names == ["b", "a"]
        assert [d.label for d in ds.documents] == [0, 1, 0]

    def test_byte_order_mark_is_not_part_of_the_first_label(self, tmp_path, tiny_vocab):
        p = tmp_path / "data.tsv"
        p.write_bytes("\ufeffpos\tgood\nneg\tbad\npos\tfine\n".encode("utf-8"))
        ds = load_dataset(p, tiny_vocab, max_len=8)
        assert ds.label_names == ["pos", "neg"]

    @pytest.mark.parametrize("label", [" ", "\t", "\u3000 "])
    def test_whitespace_label_is_empty(self, tmp_path, tiny_vocab, label):
        p = tmp_path / "data.tsv"
        p.write_text(f"pos\tgood\n{label}\tgood day\n", encoding="utf-8")
        with pytest.raises(MalformedLineError, match=":2: empty label"):
            load_dataset(p, tiny_vocab)

    def test_missing_file_is_io_error(self, tiny_vocab):
        with pytest.raises(text.FileOpenError, match="cannot open"):
            load_dataset("/nonexistent/nope.tsv", tiny_vocab)

    def test_pairs_encode_like_the_same_tsv(self, tmp_path, tiny_vocab):
        pairs = [("b", "bad!"), ("a", "good fine"), ("b", "awful")]
        p = tmp_path / "data.tsv"
        write_tsv(pairs, p)
        from_tsv = load_dataset(p, tiny_vocab, max_len=4)
        from_pairs = pairs_to_dataset(pairs, tiny_vocab, max_len=4)
        assert from_pairs.label_names == from_tsv.label_names
        for a, b in zip(from_pairs.documents, from_tsv.documents):
            np.testing.assert_array_equal(a.ids, b.ids)
            assert (a.true_length, a.label) == (b.true_length, b.label)

    def test_pairs_with_no_tokens_rejected(self, tiny_vocab):
        with pytest.raises(MalformedLineError, match=":2: document has no tokens"):
            pairs_to_dataset([("pos", "good"), ("neg", "")], tiny_vocab, max_len=8)

    def test_make_task_tokenizes_each_document_once(self, monkeypatch):
        calls = []
        tokenize = text.tokenize
        # count calls made through any module that imported the function
        for module in (text, synthetic):
            monkeypatch.setattr(module, "tokenize",
                                lambda s: calls.append(s) or tokenize(s))
        train_set, valid_set, _ = synthetic.make_task("keyword", 50, 10, 1)
        assert (len(train_set), len(valid_set)) == (50, 10)
        assert len(calls) == 60


# labels hold no tab or line break (and no BOM, which a file may start
# with); texts hold no line break, tabs allowed; neither is blank
LABELS = st.text(st.characters(blacklist_categories=("Cs",),
                               blacklist_characters="\t\n\r\ufeff"), min_size=1).filter(str.strip)
TEXTS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                min_size=1).filter(str.strip)


class TestReadTsv:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(LABELS, TEXTS, st.integers(0, 2)), min_size=1, max_size=8),
           bom=st.booleans(), newline=st.sampled_from(["\n", "\r\n"]))
    def test_round_trip(self, tmp_path_factory, rows, bom, newline):
        lines, expected = [], []
        for label, body, blanks in rows:
            lines += [""] * blanks + [f"{label}\t{body}"]
            expected.append((len(lines), label, body))
        p = tmp_path_factory.mktemp("tsv") / "data.tsv"
        p.write_bytes(("\ufeff" if bom else "").encode("utf-8")
                      + (newline.join(lines) + newline).encode("utf-8"))
        assert read_tsv(p) == expected


class TestInitEmbeddings:
    """``read_pretrained``: the rows a vector file gives the trainer to
    write into ``W_e`` (see test_training's TestPretrained)."""

    def test_pretrained_coverage_ratio(self, tmp_path):
        tokens = [f"t{i}" for i in range(10)]
        vocab = build_vocab([tokens * 5], min_count=1)
        lines = [f"t{i} " + " ".join(["0.5"] * 4) for i in range(3)]
        p = tmp_path / "vecs.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ids, rows = read_pretrained(p, vocab, 4)
        assert len(ids) / (len(vocab) - 2) == pytest.approx(0.3)
        assert ids.tolist() == [vocab.lookup(f"t{i}") for i in range(3)]
        assert rows.dtype == np.float32 and rows.shape == (3, 4)
        np.testing.assert_array_equal(rows, 0.5)

    def test_byte_order_mark_does_not_hide_the_first_row(self, tmp_path, tiny_vocab):
        p = tmp_path / "vecs.txt"
        p.write_bytes("\ufeffgood 1 2 3 4\nbad 5 6 7 8\n".encode("utf-8"))
        ids, rows = read_pretrained(p, tiny_vocab, 4)
        assert ids.tolist() == [tiny_vocab.lookup("good"), tiny_vocab.lookup("bad")]
        np.testing.assert_array_equal(rows, [[1, 2, 3, 4], [5, 6, 7, 8]])

    def test_dimension_mismatch_is_error(self, tmp_path, tiny_vocab):
        p = tmp_path / "vecs.txt"
        p.write_text("good 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(text.TextError, match="expected 4 floats"):
            read_pretrained(p, tiny_vocab, 4)

    def test_out_of_vocab_rows_are_only_counted(self, tmp_path, tiny_vocab):
        # rows of tokens outside the vocabulary are not parsed, so a bad
        # value there passes; the same value in a listed row is an error
        p = tmp_path / "vecs.txt"
        p.write_text("zzz abc 1 2 3\ngood 1 2 3 4\n", encoding="utf-8")
        ids, rows = read_pretrained(p, tiny_vocab, 4)
        assert ids.tolist() == [tiny_vocab.lookup("good")]
        np.testing.assert_array_equal(rows, [[1, 2, 3, 4]])
        p.write_text("zzz 1 2 3 4\ngood abc 1 2 3\n", encoding="utf-8")
        with pytest.raises(text.TextError, match=":2: "):
            read_pretrained(p, tiny_vocab, 4)

    def test_reserved_tokens_are_not_listed(self, tmp_path, tiny_vocab):
        p = tmp_path / "vecs.txt"
        p.write_text(f"{PAD_TOKEN} nan 1 2 3\n{UNK_TOKEN} 9 9 9 9\n", encoding="utf-8")
        ids, rows = read_pretrained(p, tiny_vocab, 4)
        assert ids.shape == (0,) and rows.shape == (0, 4)

    def test_vocabulary_token_listed_twice_is_error(self, tmp_path, tiny_vocab):
        p = tmp_path / "vecs.txt"
        p.write_text("good 1 2 3 4\nzzz 1 2 3 4\nzzz 1 2 3 4\ngood 5 6 7 8\n",
                     encoding="utf-8")
        with pytest.raises(text.TextError, match=r":4: token 'good' listed twice"):
            read_pretrained(p, tiny_vocab, 4)

    def test_invalid_utf8_is_encoding_error(self, tmp_path, tiny_vocab):
        p = tmp_path / "vecs.txt"
        p.write_bytes(b"good 1 2 3 4\n\xff\xfe 1 2 3 4\n")
        with pytest.raises(text.EncodingError, match="invalid UTF-8"):
            read_pretrained(p, tiny_vocab, 4)
