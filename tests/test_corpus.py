import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tanloss.corpus import (DataError, Sample, SyntheticConfig, Vocabulary,
                            generate_synthetic_corpus, ingest_jsonl, load_vocab, make_batches,
                            pad_batch, save_vocab, split_dataset, synthetic_vocabs,
                            verb_to_states, write_jsonl)

token_lists = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6),
    min_size=1, max_size=20, unique=True,
).filter(lambda toks: "UNK" not in toks and "PAD" not in toks)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestVocabulary:
    def test_text_vocab_gains_unk_and_pad(self, tmp_path):
        write_lines(tmp_path / "v.txt", ["bake", "mix"])
        vocab = load_vocab(tmp_path / "v.txt", with_pad=True)
        assert vocab.tokens == ["bake", "mix", "UNK", "PAD"]
        assert len(vocab) == 4
        assert vocab.unk_index == 2 and vocab.pad_index == 3

    def test_label_vocab_has_no_pad(self, tmp_path):
        write_lines(tmp_path / "v.txt", ["bake", "mix"])
        vocab = load_vocab(tmp_path / "v.txt")
        assert len(vocab) == 3
        assert vocab.pad_index is None

    def test_existing_unk_is_not_duplicated(self, tmp_path):
        write_lines(tmp_path / "v.txt", ["bake", "UNK", "mix"])
        vocab = load_vocab(tmp_path / "v.txt")
        assert vocab.tokens == ["bake", "UNK", "mix"]
        assert vocab.unk_index == 1

    def test_duplicate_token_names_line(self, tmp_path):
        write_lines(tmp_path / "v.txt", ["bake", "bake"])
        with pytest.raises(DataError, match="line 2"):
            load_vocab(tmp_path / "v.txt")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_vocab(tmp_path / "nope.txt")

    def test_empty_file(self, tmp_path):
        (tmp_path / "v.txt").write_text("")
        with pytest.raises(DataError, match="empty"):
            load_vocab(tmp_path / "v.txt")

    def test_blank_line_rejected(self, tmp_path):
        (tmp_path / "v.txt").write_text("bake\n\nmix\n")
        with pytest.raises(DataError, match="blank line at line 2"):
            load_vocab(tmp_path / "v.txt")

    def test_unknown_token_maps_to_unk(self, tmp_path):
        write_lines(tmp_path / "v.txt", ["bake"])
        vocab = load_vocab(tmp_path / "v.txt")
        assert vocab.lookup("zzz") == vocab.unk_index

    def test_complete_file_round_trips_byte_for_byte(self, tmp_path):
        original = "bake\nmix\nUNK\nPAD\n"
        (tmp_path / "v.txt").write_text(original, encoding="utf-8")
        vocab = load_vocab(tmp_path / "v.txt", with_pad=True)
        save_vocab(vocab, tmp_path / "out.txt")
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == original

    @given(token_lists)
    def test_save_load_is_idempotent(self, tokens):
        vocab = Vocabulary.from_tokens(tokens, with_pad=True)
        assert vocab.tokens[: len(tokens)] == tokens
        rebuilt = Vocabulary.from_tokens(vocab.tokens, with_pad=True)
        assert rebuilt.tokens == vocab.tokens
        assert rebuilt.unk_index == vocab.unk_index
        assert rebuilt.pad_index == vocab.pad_index

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c",
                                           "\x1d", "\x1e"])
    def test_only_newline_ends_a_token(self, tmp_path, separator):
        # str.splitlines() would also break at these characters.
        save_vocab(Vocabulary.from_tokens(["x", f"a{separator}b"]), tmp_path / "v.txt")
        assert load_vocab(tmp_path / "v.txt").tokens == ["x", f"a{separator}b", "UNK"]

    @pytest.mark.parametrize("token", ["a\nb", "a\rb", "a\r\nb", "\n"])
    def test_save_refuses_a_token_holding_a_line_break(self, tmp_path, token):
        with pytest.raises(DataError) as err:
            save_vocab(Vocabulary.from_tokens(["x", token]), tmp_path / "v.txt")
        assert str(err.value) == (f"token {token!r} holds a line break, "
                                  "which a vocab file cannot store")
        assert not (tmp_path / "v.txt").exists()

    def test_crlf_and_cr_files_load_as_newline_files(self, tmp_path):
        for ending in (b"\r\n", b"\r"):
            (tmp_path / "v.txt").write_bytes(ending.join([b"bake", b"mix", b""]))
            assert load_vocab(tmp_path / "v.txt").tokens == ["bake", "mix", "UNK"]
        (tmp_path / "v.txt").write_bytes(b"bake\r\n\r\nmix\r\n")
        with pytest.raises(DataError, match="blank line at line 2"):
            load_vocab(tmp_path / "v.txt")

    @given(st.lists(st.text(min_size=1).filter(lambda t: "\n" not in t and "\r" not in t),
                    min_size=1, max_size=8, unique=True), st.booleans())
    def test_saved_vocab_loads_as_the_same_tokens(self, tmp_path_factory, tokens, with_pad):
        path = tmp_path_factory.mktemp("vocab") / "v.txt"
        vocab = Vocabulary.from_tokens(tokens, with_pad=with_pad)
        save_vocab(vocab, path)
        loaded = load_vocab(path, with_pad=with_pad)
        assert loaded.tokens == vocab.tokens
        assert (loaded.unk_index, loaded.pad_index) == (vocab.unk_index, vocab.pad_index)


class TestOneHot:
    def test_batch_rows_sum_to_true_length(self):
        # Each row selects one input column per token that is not PAD.
        samples, (text_vocab, _, _) = generate_synthetic_corpus(SyntheticConfig(count=12), seed=4)
        batch = pad_batch(samples, pad_index=text_vocab.pad_index)
        for r in range(len(batch)):
            assert np.count_nonzero(batch.token_matrix[r] != text_vocab.pad_index) == \
                batch.lengths[r]


GOOD_RECORD = '{"tokens":["bake"],"verbs":["bake"],"states":["shape"]}'


def make_vocabs(tmp_path):
    write_lines(tmp_path / "text.vocab", ["bake", "it", "mix"])
    write_lines(tmp_path / "verb.vocab", ["bake", "mix"])
    write_lines(tmp_path / "state.vocab", ["cookedness", "shape"])
    return (
        load_vocab(tmp_path / "text.vocab", with_pad=True),
        load_vocab(tmp_path / "verb.vocab"),
        load_vocab(tmp_path / "state.vocab"),
    )


class TestIngest:
    def test_basic_record(self, tmp_path):
        vocabs = make_vocabs(tmp_path)
        (tmp_path / "d.jsonl").write_text(
            '{"tokens":["bake","it"],"verbs":["bake"],"states":["cookedness"]}\n'
        )
        (sample,) = ingest_jsonl(tmp_path / "d.jsonl", *vocabs)
        assert sample.tokens == [0, 1]
        assert sample.verb_label.tolist() == [1.0, 0.0, 0.0]
        assert sample.state_label.tolist() == [1.0, 0.0, 0.0]

    def test_unknown_strings_map_to_unk(self, tmp_path):
        vocabs = make_vocabs(tmp_path)
        (tmp_path / "d.jsonl").write_text(
            '{"tokens":["zzz"],"verbs":["zzz"],"states":["zzz"]}\n'
        )
        (sample,) = ingest_jsonl(tmp_path / "d.jsonl", *vocabs)
        assert sample.tokens == [vocabs[0].unk_index]
        assert sample.verb_label[vocabs[1].unk_index] == 1.0
        assert sample.state_label[vocabs[2].unk_index] == 1.0

    def test_bad_json_names_line(self, tmp_path):
        vocabs = make_vocabs(tmp_path)
        (tmp_path / "d.jsonl").write_text(
            '{"tokens":["bake"],"verbs":["bake"],"states":["shape"]}\nnot json\n'
        )
        with pytest.raises(DataError, match="line 2"):
            ingest_jsonl(tmp_path / "d.jsonl", *vocabs)

    def test_missing_field(self, tmp_path):
        vocabs = make_vocabs(tmp_path)
        (tmp_path / "d.jsonl").write_text('{"tokens":["bake"],"verbs":["bake"]}\n')
        with pytest.raises(DataError, match="states"):
            ingest_jsonl(tmp_path / "d.jsonl", *vocabs)

    def test_empty_tokens_rejected(self, tmp_path):
        vocabs = make_vocabs(tmp_path)
        (tmp_path / "d.jsonl").write_text('{"tokens":[],"verbs":["bake"],"states":["shape"]}\n')
        with pytest.raises(DataError, match="empty tokens"):
            ingest_jsonl(tmp_path / "d.jsonl", *vocabs)

    # One line per kind of fault, after a valid record, an empty line, a
    # blank one, a tab-only one and CRLF endings, so the fault sits on line 5.
    @pytest.mark.parametrize("line, message", [
        ("not json", "not valid JSON (Expecting value)"),
        ('{"tokens":["bake"]', "not valid JSON (Expecting ',' delimiter)"),
        (GOOD_RECORD + ' {"tokens":["bake"]}', "not valid JSON (Extra data)"),
        (GOOD_RECORD + " x", "not valid JSON (Extra data)"),
        ("[" * 100000, "JSON nested too deeply"),
        ('["tokens", "verbs", "states"]', "record is not an object"),
        ("null", "record is not an object"),
        ('{"tokens":["bake"],"verbs":["bake"]}', "missing field 'states'"),
        ('{"tokens":["bake"],"verbs":"bake","states":["shape"]}',
         "field 'verbs' must be a list of strings"),
        ('{"tokens":["bake"],"verbs":["bake"],"states":{"shape":1}}',
         "field 'states' must be a list of strings"),
        ('{"tokens":["bake",3],"verbs":["bake"],"states":["shape"]}',
         "field 'tokens' must be a list of strings"),
        ('{"tokens":["bake"],"verbs":[["bake"]],"states":["shape"]}',
         "field 'verbs' must be a list of strings"),
        ('{"tokens":[],"verbs":["bake"],"states":["shape"]}', "empty tokens field"),
        # Two faults: the first field in tokens/verbs/states order is named,
        # whatever the record's key order, and the fields come before
        # the empty-tokens check.
        ('{"states":"shape","verbs":[null],"tokens":[1]}',
         "field 'tokens' must be a list of strings"),
        ('{"states":["shape"],"verbs":[null],"tokens":[]}',
         "field 'verbs' must be a list of strings"),
        ('{"verbs":[],"tokens":[]}', "missing field 'states'"),
    ])
    def test_malformed_line_names_its_fault_and_line(self, tmp_path, line, message):
        vocabs = make_vocabs(tmp_path)
        path = tmp_path / "d.jsonl"
        path.write_bytes(f"{GOOD_RECORD}\r\n\r\n   \r\n\t\n{line}\r\n{GOOD_RECORD}\n".encode())
        with pytest.raises(DataError) as err:
            ingest_jsonl(path, *vocabs)
        assert str(err.value) == f"{path}: line 5: {message}"

    def test_first_line_with_a_byte_order_mark(self, tmp_path):
        vocabs = make_vocabs(tmp_path)
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + GOOD_RECORD.encode() + b"\n")
        with pytest.raises(DataError) as err:
            ingest_jsonl(path, *vocabs)
        assert str(err.value) == (f"{path}: line 1: not valid JSON "
                                  "(Unexpected UTF-8 BOM (decode using utf-8-sig))")

    def test_blank_and_crlf_lines_are_skipped(self, tmp_path):
        vocabs = make_vocabs(tmp_path)
        path = tmp_path / "d.jsonl"
        path.write_bytes(f"\r\n {GOOD_RECORD} \r\n\t\r\n\n{GOOD_RECORD}".encode())
        samples = ingest_jsonl(path, *vocabs)
        assert [s.tokens for s in samples] == [[0], [0]]
        assert [s.verb_label.tolist() for s in samples] == [[1.0, 0.0, 0.0]] * 2

    def test_label_arrays_are_rows_of_one_matrix_per_file(self, tmp_path):
        samples, vocabs = generate_synthetic_corpus(SyntheticConfig(count=6), seed=3)
        write_jsonl(samples, tmp_path / "d.jsonl", *vocabs)
        loaded = ingest_jsonl(tmp_path / "d.jsonl", *vocabs)
        for field in ("verb_label", "state_label"):
            matrix = getattr(loaded[0], field).base
            assert matrix.shape == (6, len(getattr(samples[0], field)))
            assert all(getattr(s, field).base is matrix for s in loaded)
            assert matrix.tobytes() == np.stack([getattr(s, field) for s in samples]).tobytes()

    def test_round_trip_through_jsonl(self, tmp_path):
        samples, vocabs = generate_synthetic_corpus(SyntheticConfig(count=25), seed=9)
        write_jsonl(samples, tmp_path / "d.jsonl", *vocabs)
        loaded = ingest_jsonl(tmp_path / "d.jsonl", *vocabs)
        assert len(loaded) == len(samples)
        for a, b in zip(samples, loaded):
            assert a.tokens == b.tokens
            assert np.array_equal(a.verb_label, b.verb_label)
            assert np.array_equal(a.state_label, b.state_label)


def toy_samples(n):
    return [Sample(tokens=[i % 3], verb_label=np.array([1.0]), state_label=np.array([1.0]))
            for i in range(n)]


class TestSplit:
    def test_nine_one_split_is_reproducible(self):
        samples = toy_samples(10)
        a = split_dataset(samples, 0.1, seed=7)
        b = split_dataset(samples, 0.1, seed=7)
        assert len(a.train) == 9 and len(a.validation) == 1
        assert [id(s) for s in a.train] == [id(s) for s in b.train]
        assert [id(s) for s in a.validation] == [id(s) for s in b.validation]

    def test_protocol_scale_split(self):
        split = split_dataset(toy_samples(10000), 0.1, seed=0)
        assert len(split.train) == 9000
        assert len(split.validation) == 1000

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="fraction"):
            split_dataset(toy_samples(10), 1.5, seed=0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            split_dataset(toy_samples(1), 0.5, seed=0)

    def test_partition_is_disjoint_and_complete(self):
        samples = toy_samples(17)
        for seed in (0, 1, 99):
            split = split_dataset(samples, 0.25, seed=seed)
            train_ids = {id(s) for s in split.train}
            val_ids = {id(s) for s in split.validation}
            assert not train_ids & val_ids
            assert train_ids | val_ids == {id(s) for s in samples}


class TestBatches:
    def test_sizes_two_two_one(self):
        batches = make_batches(toy_samples(5), 2, seed=0, pad_index=9)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_padding_to_batch_max(self):
        samples = [
            Sample(tokens=[1, 2, 3], verb_label=np.array([1.0]), state_label=np.array([1.0])),
            Sample(tokens=[4, 5, 6, 7, 8], verb_label=np.array([1.0]), state_label=np.array([1.0])),
        ]
        (batch,) = make_batches(samples, 2, pad_index=9)
        assert batch.token_matrix.shape == (2, 5)
        assert batch.token_matrix[0].tolist() == [1, 2, 3, 9, 9]
        assert batch.lengths.tolist() == [3, 5]

    def test_no_seed_keeps_input_order(self):
        samples = [Sample(tokens=[i] * (1 + i % 3), verb_label=np.array([1.0]),
                          state_label=np.array([1.0])) for i in range(7)]
        batches = make_batches(samples, 3, pad_index=9)
        assert [len(b) for b in batches] == [3, 3, 1]
        assert [int(row[0]) for b in batches for row in b.token_matrix] == list(range(7))

    def test_same_seed_same_batches(self):
        samples = toy_samples(11)
        a = make_batches(samples, 4, seed=3, pad_index=9)
        b = make_batches(samples, 4, seed=3, pad_index=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.token_matrix, y.token_matrix)

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            make_batches(toy_samples(3), 0, seed=0, pad_index=9)

    @given(st.lists(st.integers(1, 12), max_size=60), st.integers(1, 8), st.integers(1, 20),
           st.sampled_from([None, 4]))
    def test_batches_take_samples_until_a_cap_breaks(self, lengths, batch_size, max_tokens,
                                                     seed):
        samples = [Sample(tokens=[i] * n, verb_label=np.array([1.0]),
                          state_label=np.array([1.0])) for i, n in enumerate(lengths)]
        batches = make_batches(samples, batch_size, pad_index=99, seed=seed,
                               max_tokens=max_tokens)
        order = [int(row[0]) for b in batches for row in b.token_matrix]
        assert sorted(order) == list(range(len(samples)))
        if seed is None:
            assert order == list(range(len(samples)))
        sizes = [b.lengths.tolist() for b in batches]
        for batch, after in zip(sizes, sizes[1:] + [None]):
            assert len(batch) <= batch_size
            assert len(batch) == 1 or sum(batch) <= max_tokens
            if after is not None:
                assert len(batch) == batch_size or sum(batch) + after[0] > max_tokens


    @given(st.lists(st.integers(1, 9), min_size=1, max_size=20), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 60), st.integers(0, 2**32 - 1))
    def test_pad_batch_matches_a_per_row_reference(self, lengths, verb_width, state_width,
                                                   pad_index, seed):
        rng = np.random.default_rng(seed)
        tokens = [rng.integers(0, 60, size=n).tolist() for n in lengths]
        verbs = rng.random((len(lengths), verb_width))
        states = (rng.random((len(lengths), state_width)) < 0.5).astype(np.float64)
        token_ref = np.full((len(lengths), max(lengths)), pad_index, dtype=np.int64)
        verb_ref, state_ref = np.empty_like(verbs), np.empty_like(states)
        for r, row in enumerate(tokens):
            token_ref[r, :len(row)] = row
            verb_ref[r], state_ref[r] = verbs[r], states[r]
        # Label rows as separate arrays and as the rows of one matrix,
        # which is what ingest_jsonl returns.
        for verb_rows, state_rows in (([v.copy() for v in verbs], [s.copy() for s in states]),
                                      (list(verbs), list(states))):
            batch = pad_batch([Sample(t, v, s) for t, v, s in zip(tokens, verb_rows, state_rows)],
                              pad_index)
            for got, want in ((batch.token_matrix, token_ref),
                              (batch.lengths, np.array(lengths, dtype=np.int64)),
                              (batch.verb_labels, verb_ref), (batch.state_labels, state_ref)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()


class TestSyntheticCorpus:
    def test_deterministic_in_seed(self):
        config = SyntheticConfig(count=200)
        a, _ = generate_synthetic_corpus(config, seed=1)
        b, _ = generate_synthetic_corpus(config, seed=1)
        assert len(a) == 200
        for x, y in zip(a, b):
            assert x.tokens == y.tokens
            assert np.array_equal(x.verb_label, y.verb_label)

    def test_bake_triggers_cookedness(self):
        samples, (text_vocab, verb_vocab, state_vocab) = generate_synthetic_corpus(
            SyntheticConfig(count=300), seed=2)
        bake_text = text_vocab.index_of["bake"]
        cooked = state_vocab.index_of["cookedness"]
        hits = [s for s in samples if bake_text in s.tokens]
        assert hits, "expected at least one bake sentence in 300 samples"
        for sample in hits:
            assert sample.state_label[cooked] == 1.0

    def test_count_zero_gives_empty_list_and_valid_vocabs(self):
        samples, (text_vocab, verb_vocab, state_vocab) = generate_synthetic_corpus(
            SyntheticConfig(count=0), seed=1)
        assert samples == []
        assert len(text_vocab) == 62 and len(verb_vocab) == 9 and len(state_vocab) == 7

    def test_vocab_too_small_for_triggers(self):
        with pytest.raises(ValueError, match="cannot host"):
            generate_synthetic_corpus(SyntheticConfig(count=1, text_size=8, verb_count=8), seed=0)

    def test_vocabs_do_not_depend_on_seed(self):
        config = SyntheticConfig(count=5)
        _, (t1, v1, s1) = generate_synthetic_corpus(config, seed=1)
        _, (t2, v2, s2) = generate_synthetic_corpus(config, seed=2)
        assert t1.tokens == t2.tokens and v1.tokens == v2.tokens and s1.tokens == s2.tokens

    def test_trigger_lookup_achieves_perfect_labels(self):
        # The oracle the end-to-end tests rely on: labels are an exact
        # function of the trigger tokens present in the sentence.
        config = SyntheticConfig(count=400)
        samples, (text_vocab, verb_vocab, state_vocab) = generate_synthetic_corpus(config, seed=5)
        for sample in samples:
            verbs = sorted({t for t in sample.tokens if t < config.verb_count})
            verb_expected = np.zeros(len(verb_vocab))
            state_expected = np.zeros(len(state_vocab))
            for v in verbs:
                verb_expected[v] = 1.0
                for s in verb_to_states(v, config.state_count):
                    state_expected[s] = 1.0
            assert np.array_equal(sample.verb_label, verb_expected)
            assert np.array_equal(sample.state_label, state_expected)

    def test_sentence_lengths_respect_range(self):
        config = SyntheticConfig(count=100, min_len=4, max_len=6)
        samples, _ = generate_synthetic_corpus(config, seed=3)
        assert all(4 <= len(s.tokens) <= 6 for s in samples)

    def test_labels_always_nonempty(self):
        samples, _ = generate_synthetic_corpus(SyntheticConfig(count=100), seed=6)
        assert all(s.verb_label.any() and s.state_label.any() for s in samples)
