import contextlib
import dataclasses
import io
import json
import os
import queue
import struct
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tanloss
from tanloss import cli, network, training
from tanloss.corpus import DataError, Vocabulary, ingest_jsonl, load_vocab
from tanloss.evaluation import INFERENCE_BATCH, INFERENCE_ROWS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenSynthetic:
    def test_is_reproducible(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, out, _ = run(capsys, "gen-synthetic", "--out", str(tmp_path / name),
                               "--count", "200", "--seed", "1")
            assert code == 0
            assert "200 samples" in out
        assert (tmp_path / "a" / "samples.jsonl").read_bytes() == \
            (tmp_path / "b" / "samples.jsonl").read_bytes()
        for vocab in ("text.vocab", "verb.vocab", "state.vocab"):
            assert (tmp_path / "a" / vocab).exists()

    def test_count_zero(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen-synthetic", "--out", str(tmp_path / "z"), "--count", "0")
        assert code == 0
        assert (tmp_path / "z" / "samples.jsonl").read_text() == ""
        assert (tmp_path / "z" / "text.vocab").read_text().splitlines()[-1] == "PAD"

    def test_unwritable_out_dir(self, tmp_path, capsys):
        # A directory under a regular file cannot be made, whatever the user.
        (tmp_path / "file").write_text("")
        code, _, err = run(capsys, "gen-synthetic", "--out", str(tmp_path / "file" / "dir"))
        assert code == 1
        assert "error" in err.lower()

    def test_makes_missing_parent_directories(self, tmp_path, capsys):
        out = tmp_path / "a" / "b"
        code, _, _ = run(capsys, "gen-synthetic", "--out", str(out), "--count", "5")
        assert code == 0
        assert len((out / "samples.jsonl").read_text().splitlines()) == 5

    def test_rejected_settings_make_no_directory(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-synthetic", "--out", str(tmp_path / "a" / "b"),
                           "--min-len", "0")
        assert code == 2
        assert err.startswith("config error:") and "min_len" in err
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("flags", [["--min-len", "5", "--max-len", "2"],
                                       ["--text-vocab", "0"], ["--verbs", "0"],
                                       ["--states", "1"], ["--count", "-5"]],
                             ids=lambda flags: " ".join(flags))
    def test_out_of_range_settings_are_usage_errors(self, tmp_path, capsys, flags):
        code, _, err = run(capsys, "gen-synthetic", "--out", str(tmp_path / "a"), *flags)
        assert code == 2
        assert err.startswith("config error:")
        assert not (tmp_path / "a").exists()


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """A deliberately short CLI training run for interface-level tests."""
    root = tmp_path_factory.mktemp("mini")
    corpus = root / "corpus"
    ckpt = root / "ckpt"
    assert cli.main(["gen-synthetic", "--out", str(corpus), "--count", "80", "--seed", "3"]) == 0
    code = cli.main(["train", "--data", str(corpus / "samples.jsonl"),
                     "--vocab-dir", str(corpus), "--ckpt-dir", str(ckpt),
                     "--epochs", "6", "--validate-every", "2", "--batch-size", "16",
                     "--gru1", "8", "--gru2", "6", "--head-hidden", "6", "--quiet"])
    assert code == 0
    return {"corpus": corpus, "ckpt": ckpt}


class TestTrain:
    def test_missing_data_flag_is_usage_error(self, capsys):
        assert cli.main(["train", "--vocab-dir", "x", "--ckpt-dir", "y"]) == 2

    def test_nonexistent_data_file_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        assert cli.main(["gen-synthetic", "--out", str(corpus), "--count", "10"]) == 0
        # A missing dataset, and a dataset or a vocab file that is not UTF-8.
        (tmp_path / "latin1.jsonl").write_bytes(b'{"tokens": ["caf\xe9"]}\n')
        bad_vocab = tmp_path / "v"
        bad_vocab.mkdir()
        for name in ("text.vocab", "verb.vocab", "state.vocab"):
            (bad_vocab / name).write_bytes((corpus / name).read_bytes())
        (bad_vocab / "verb.vocab").write_bytes(b"stir\n\xff\n")
        for data, vocab_dir, named in [
            (tmp_path / "missing.jsonl", corpus, tmp_path / "missing.jsonl"),
            (tmp_path / "latin1.jsonl", corpus, tmp_path / "latin1.jsonl"),
            (corpus / "samples.jsonl", bad_vocab, bad_vocab / "verb.vocab"),
        ]:
            code, _, err = run(capsys, "train", "--data", str(data), "--vocab-dir", str(vocab_dir),
                               "--ckpt-dir", str(tmp_path / "k"), "--epochs", "1")
            assert code == 3
            assert "data error" in err and str(named) in err

    def test_non_finite_gradient_exits_1_naming_where(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "c"
        assert cli.main(["gen-synthetic", "--out", str(corpus), "--count", "20"]) == 0
        monkeypatch.setattr(training, "tangent_loss_grad",
                            lambda y, p: np.full(np.shape(p), np.nan))
        code, _, err = run(capsys, "train", "--data", str(corpus / "samples.jsonl"),
                           "--vocab-dir", str(corpus), "--ckpt-dir", str(tmp_path / "k"),
                           "--epochs", "1", "--gru1", "4", "--gru2", "3", "--head-hidden", "3",
                           "--quiet")
        assert code == 1
        assert "epoch 1, batch 1: non-finite gradient at gru1.W_z[0, " in err

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        cases = [(line.encode(), "unknown key") for line in (
            "no_such_key = 5", "batch_reduction = sum", "rho = 0.5", "eps = 1e-6",
            "grad_clip = 1.0")]
        for content, named in cases + [(b"epochs = 2 # \xe9poques", "not UTF-8")]:
            (tmp_path / "bad.cfg").write_bytes(content + b"\n")
            code, _, err = run(capsys, "train", "--data", "x", "--vocab-dir", "y",
                               "--ckpt-dir", "z", "--config", str(tmp_path / "bad.cfg"))
            assert code == 2
            assert named in err and str(tmp_path / "bad.cfg") in err

    def test_config_file_keys_are_the_train_flags(self):
        args = cli._build_parser().parse_args(["train", "--data", "d", "--vocab-dir", "v",
                                               "--ckpt-dir", "c"])
        flags = set(vars(args)) - {"command", "data", "vocab_dir", "ckpt_dir", "config",
                                   "resume", "quiet"}
        assert set(cli._CONFIG_TYPES) == flags

    @pytest.mark.parametrize("flag, key, value", [
        ("--epochs", "epochs", "0"), ("--batch-size", "batch_size", "0"),
        ("--validate-every", "validate_every", "0"), ("--gru1", "gru1_hidden", "0"),
        ("--gru2", "gru2_hidden", "-1"), ("--head-hidden", "head_hidden", "0"),
        ("--val-fraction", "val_fraction", "1.5"), ("--val-fraction", "val_fraction", "0"),
        ("--lr", "lr", "-1"), ("--lr", "lr", "0"), ("--lr", "lr", "nan"), ("--lr", "lr", "inf"),
        ("--init-seed", "init_seed", "-1"), ("--split-seed", "split_seed", "-1"),
        ("--shuffle-seed", "shuffle_seed", "-5"),
    ])
    def test_out_of_range_setting_is_usage_error(self, tmp_path, capsys, flag, key, value):
        # The data and vocabulary paths do not exist: the settings are
        # checked before anything is read.
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n")
        common = ["train", "--data", str(tmp_path / "d"), "--vocab-dir", str(tmp_path / "v"),
                  "--ckpt-dir", str(tmp_path / "k")]
        for argv in ([*common, f"{flag}={value}"], [*common, "--config", str(config)]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("config error:") and key in err
            assert len(err.splitlines()) == 1, err
        assert not (tmp_path / "k").exists()

    def test_config_file_values_with_flag_overrides(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["gen-synthetic", "--out", str(corpus), "--count", "40",
                         "--seed", "2"]) == 0
        (tmp_path / "run.cfg").write_text(
            "epochs = 8          # overridden by the flag below\n"
            "validate_every = 2\n"
            "gru1_hidden = 6\ngru2_hidden = 4\nhead_hidden = 4\nbatch_size = 16\n"
        )
        code, out, _ = run(capsys, "train", "--data", str(corpus / "samples.jsonl"),
                           "--vocab-dir", str(corpus), "--ckpt-dir", str(tmp_path / "k"),
                           "--config", str(tmp_path / "run.cfg"), "--epochs", "4", "--quiet")
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["epochs_run"] == 4
        assert summary["validations"] == 2

    def test_log_has_floor_epochs_over_cadence_validations(self, mini_run):
        log = (mini_run["ckpt"] / "train_log.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in log]
        assert len(records) == 6
        assert sum(r["validation_error"] is not None for r in records) == 6 // 2

    def test_keep_all_writes_epoch_checkpoints(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["gen-synthetic", "--out", str(corpus), "--count", "30"]) == 0
        code, _, _ = run(capsys, "train", "--data", str(corpus / "samples.jsonl"),
                         "--vocab-dir", str(corpus), "--ckpt-dir", str(tmp_path / "k"),
                         "--epochs", "2", "--gru1", "4", "--gru2", "3", "--head-hidden", "3",
                         "--keep-all", "--quiet")
        assert code == 0
        assert (tmp_path / "k" / "ckpt_epoch_1.bin").exists()
        assert (tmp_path / "k" / "ckpt_epoch_2.bin").exists()

    def test_resume_continues_to_requested_epoch(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["gen-synthetic", "--out", str(corpus), "--count", "30"]) == 0
        base = ["--data", str(corpus / "samples.jsonl"), "--vocab-dir", str(corpus),
                "--ckpt-dir", str(tmp_path / "k"), "--gru1", "4", "--gru2", "3",
                "--head-hidden", "3", "--keep-all", "--quiet"]
        assert cli.main(["train", *base, "--epochs", "2"]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "train", *base, "--epochs", "5",
                           "--resume", str(tmp_path / "k" / "ckpt_epoch_2.bin"))
        assert code == 0
        assert json.loads(out.splitlines()[-1])["epochs_run"] == 3
        log = [json.loads(line)
               for line in (tmp_path / "k" / "train_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in log] == [1, 2, 3, 4, 5]

    def test_resume_names_a_configured_lr_it_does_not_use(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["gen-synthetic", "--out", str(corpus), "--count", "30"]) == 0
        base = ["--data", str(corpus / "samples.jsonl"), "--vocab-dir", str(corpus),
                "--gru1", "4", "--gru2", "3", "--head-hidden", "3", "--keep-all", "--quiet"]
        assert cli.main(["train", *base, "--ckpt-dir", str(tmp_path / "k"), "--epochs", "2",
                         "--lr", "0.001"]) == 0
        capsys.readouterr()
        (tmp_path / "lr.cfg").write_text("lr = 0.05\n")
        # How lr is given to the resumed run, and the lr a note must name.
        runs = {"unset": ([], None), "same": (["--lr", "0.001"], None),
                "flag": (["--lr", "0.01"], "0.01"),
                "config": (["--config", str(tmp_path / "lr.cfg")], "0.05")}
        for name, (extra, configured) in runs.items():
            code, _, err = run(capsys, "train", *base, "--ckpt-dir", str(tmp_path / name),
                               "--epochs", "4", "--resume",
                               str(tmp_path / "k" / "ckpt_epoch_2.bin"), *extra)
            assert code == 0
            if configured is None:
                assert err == ""
            else:
                (note,) = err.splitlines()
                assert "checkpoint's lr 0.001" in note and f"configured {configured}" in note
        final = {(tmp_path / name / "ckpt_epoch_4.bin").read_bytes() for name in runs}
        assert len(final) == 1

    def test_resume_with_reordered_vocab_fails(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert cli.main(["gen-synthetic", "--out", str(corpus), "--count", "30"]) == 0
        base = ["--data", str(corpus / "samples.jsonl"), "--vocab-dir", str(corpus),
                "--ckpt-dir", str(tmp_path / "k"), "--gru1", "4", "--gru2", "3",
                "--head-hidden", "3", "--keep-all", "--quiet"]
        assert cli.main(["train", *base, "--epochs", "2"]) == 0
        capsys.readouterr()
        verbs = (corpus / "verb.vocab").read_text().splitlines()
        (corpus / "verb.vocab").write_text("\n".join(verbs[1:] + verbs[:1]) + "\n")
        code, _, err = run(capsys, "train", *base, "--epochs", "4",
                           "--resume", str(tmp_path / "k" / "ckpt_epoch_2.bin"))
        assert code == 1
        assert "verb vocabulary differs" in err
        assert not (tmp_path / "k" / "ckpt_epoch_3.bin").exists()


class TestEval:
    def test_report_shape(self, mini_run, capsys):
        code, out, _ = run(capsys, "eval", "--ckpt", str(mini_run["ckpt"] / "ckpt_best.bin"),
                           "--data", str(mini_run["corpus"] / "samples.jsonl"))
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"action_accuracy", "state_accuracy", "n_samples"}
        assert report["n_samples"] == 80

    def test_threshold_flag_validation(self, mini_run, capsys):
        code, _, _ = run(capsys, "eval", "--ckpt", str(mini_run["ckpt"] / "ckpt_best.bin"),
                         "--data", str(mini_run["corpus"] / "samples.jsonl"),
                         "--threshold", "1.5")
        assert code == 2

    def test_per_sample_csv(self, mini_run, tmp_path, capsys):
        csv_path = tmp_path / "flags.csv"
        code, out, _ = run(capsys, "eval", "--ckpt", str(mini_run["ckpt"] / "ckpt_best.bin"),
                           "--data", str(mini_run["corpus"] / "samples.jsonl"),
                           "--per-sample-csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "sample,action_ok,state_ok"
        assert len(lines) == 81

    def test_symmetric_tolerance_never_scores_lower(self, mini_run, capsys):
        reports = {}
        for mode in ("subset", "symmetric"):
            code, out, _ = run(capsys, "eval", "--ckpt", str(mini_run["ckpt"] / "ckpt_best.bin"),
                               "--data", str(mini_run["corpus"] / "samples.jsonl"),
                               "--tolerance", mode)
            assert code == 0
            reports[mode] = json.loads(out)
        assert reports["symmetric"]["action_accuracy"] >= reports["subset"]["action_accuracy"]
        assert reports["symmetric"]["state_accuracy"] >= reports["subset"]["state_accuracy"]

    def test_missing_checkpoint(self, mini_run, capsys):
        code, _, err = run(capsys, "eval", "--ckpt", "/no/such.bin",
                           "--data", str(mini_run["corpus"] / "samples.jsonl"))
        assert code == 1
        assert "not found" in err

    def test_stored_vocabulary_unlike_the_layout_fails(self, mini_run, tmp_path, capsys,
                                                        monkeypatch):
        # Eval and predict size the model from the stored vocabularies, so
        # one text token more than the fingerprint counts must be refused.
        ckpt = network.load_checkpoint(mini_run["ckpt"] / "ckpt_best.bin")
        ckpt.vocabs["text"].insert(0, "extra")
        network.save_checkpoint(ckpt, tmp_path / "extra.bin")
        stored = ckpt.params.sizes
        wider = dataclasses.replace(stored, input_dim=stored.input_dim + 1)
        code, _, err = run(capsys, "eval", "--ckpt", str(tmp_path / "extra.bin"),
                           "--data", str(mini_run["corpus"] / "samples.jsonl"))
        assert code == 1
        assert stored.fingerprint() in err and wider.fingerprint() in err
        monkeypatch.setattr(sys, "stdin", io.StringIO("mix it\n"))
        code, out, err = run(capsys, "predict", "--ckpt", str(tmp_path / "extra.bin"))
        assert code == 1 and out == ""
        assert stored.fingerprint() in err and wider.fingerprint() in err


def with_gru1(meta, size):
    return {**meta, "fingerprint": meta["fingerprint"].replace("-gru8x", f"-gru{size}x")}


def with_second_token(meta, token):
    """``meta`` with ``token`` in place of the text vocabulary's second entry."""
    text = meta["vocabs"]["text"]
    return {**meta, "vocabs": {**meta["vocabs"], "text": [text[0], token, *text[2:]]}}


class TestCheckpointMetadata:
    """A checkpoint whose metadata cannot be used fails eval, predict and
    resume with exit 1 and one line naming the file and what is wrong, not a
    traceback.  A layout too big for the file (4000000 hidden units would
    need hundreds of TiB) is refused before anything is allocated."""

    @pytest.mark.parametrize("command", ["eval", "resume", "predict"])
    @pytest.mark.parametrize("edit, named", [
        (lambda meta: {k: v for k, v in meta.items() if k != "epoch"}, "lacks 'epoch'"),
        (lambda meta: {**meta, "rmsprop": {"lr": 1e-4, "rho": 0.9}}, "lacks 'rmsprop.eps'"),
        (lambda meta: {**meta, "epoch": "3"}, "'epoch' has the wrong type"),
        (lambda meta: list(meta.items()), "not a JSON object"),
        (lambda meta: b"not json", "unreadable checkpoint metadata"),
        (lambda meta: with_gru1(meta, 4000000), "too small for layout"),
        (lambda meta: with_gru1(meta, 0), "unrecognized layout fingerprint"),
        (lambda meta: with_second_token(meta, {}), "'vocabs.text' is not a list of distinct"),
        (lambda meta: with_second_token(meta, meta["vocabs"]["text"][0]),
         "'vocabs.text' is not a list of distinct"),
        (lambda meta: {**meta, "best_val_error": 10 ** 400},
         "'best_val_error' is too large for a float"),
        (lambda meta: {**meta, "best_val_error": True}, "'best_val_error' has the wrong type"),
        (lambda meta: {**meta, "epoch": True}, "'epoch' has the wrong type"),
        (lambda meta: {**meta, "rmsprop": {**meta["rmsprop"], "rho": False}},
         "'rmsprop.rho' has the wrong type"),
    ], ids=["no-epoch", "no-rmsprop-eps", "text-epoch", "list", "not-json", "huge-layout",
            "zero-size", "vocab-entry-not-text", "vocab-duplicate", "huge-best-error",
            "bool-best-error", "bool-epoch", "bool-rho"])
    def test_bad_metadata_is_named(self, mini_run, tmp_path, capsys, monkeypatch, command, edit,
                                   named):
        blob = (mini_run["ckpt"] / "ckpt_best.bin").read_bytes()
        (meta_len,) = struct.unpack("<I", blob[8:12])
        meta = edit(json.loads(blob[12:12 + meta_len]))
        meta = meta if isinstance(meta, bytes) else json.dumps(meta).encode()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(meta)) + meta + blob[12 + meta_len:])
        corpus = mini_run["corpus"]
        monkeypatch.setattr("sys.stdin", io.StringIO("mix the batter\n"))
        if command == "eval":
            argv = ["eval", "--ckpt", str(bad), "--data", str(corpus / "samples.jsonl")]
        elif command == "predict":
            argv = ["predict", "--ckpt", str(bad)]
        else:
            argv = ["train", "--data", str(corpus / "samples.jsonl"), "--vocab-dir", str(corpus),
                    "--ckpt-dir", str(tmp_path / "k"), "--epochs", "8", "--batch-size", "16",
                    "--gru1", "8", "--gru2", "6", "--head-hidden", "6", "--quiet",
                    "--resume", str(bad)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert named in err and str(bad) in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not (tmp_path / "k").exists()


@pytest.fixture(scope="module")
def parser_inputs(tmp_path_factory):
    """A directory with a valid corpus (samples and vocab files) to put
    fuzzed files next to."""
    root = tmp_path_factory.mktemp("parsers")
    assert cli.main(["gen-synthetic", "--out", str(root / "corpus"), "--count", "5"]) == 0
    return root


def fails_only_with(error, parse, argv, code):
    """``parse()`` returns or raises ``error``; when it raises, ``cli.main``
    on ``argv`` exits with ``code`` and one stderr line."""
    try:
        parse()
    except error:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(argv) == code
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["tokens", "verbs", "states", "x"]), inner, max_size=4),
    max_leaves=8)
# Arbitrary bytes, arbitrary text, and lines of JSON with the dataset's keys.
dataset_bytes = (st.binary(max_size=200) | st.text(max_size=60).map(str.encode)
                 | st.lists(json_values.map(json.dumps), max_size=4).map(
                     lambda lines: "\n".join(lines).encode()))
config_lines = st.lists(st.tuples(st.sampled_from([*cli._CONFIG_TYPES, "x", "#", ""]),
                                  st.sampled_from(["=", " = ", ""]), st.text(max_size=8)),
                        max_size=4).map(lambda lines: "\n".join(map("".join, lines)).encode())


class TestParsersFailOnlyWithTheirOwnError:
    """Any file content makes each text parser return or raise its own
    error, which ``cli.main`` turns into exit 3 (data) or 2 (config) with
    one stderr line."""

    @settings(max_examples=150, deadline=None)
    @given(blob=dataset_bytes)
    @example(blob=b"[" * 100000)    # nested deeper than the JSON decoder recurses
    def test_ingest_jsonl(self, parser_inputs, blob):
        corpus, data = parser_inputs / "corpus", parser_inputs / "data.jsonl"
        data.write_bytes(blob)
        vocabs = cli._load_vocab_dir(corpus)
        fails_only_with(DataError, lambda: ingest_jsonl(data, *vocabs),
                        ["train", "--data", str(data), "--vocab-dir", str(corpus),
                         "--ckpt-dir", str(parser_inputs / "k")], cli.EXIT_DATA)

    @settings(max_examples=150, deadline=None)
    @given(blob=st.binary(max_size=100) | st.text(max_size=40).map(str.encode))
    def test_load_vocab(self, parser_inputs, blob):
        corpus, vocab_dir = parser_inputs / "corpus", parser_inputs / "vocab"
        vocab_dir.mkdir(exist_ok=True)
        for name in ("verb.vocab", "state.vocab"):
            (vocab_dir / name).write_bytes((corpus / name).read_bytes())
        (vocab_dir / "text.vocab").write_bytes(blob)
        fails_only_with(DataError, lambda: load_vocab(vocab_dir / "text.vocab", with_pad=True),
                        ["train", "--data", str(corpus / "samples.jsonl"), "--vocab-dir",
                         str(vocab_dir), "--ckpt-dir", str(parser_inputs / "k")], cli.EXIT_DATA)

    @settings(max_examples=150, deadline=None)
    @given(blob=st.binary(max_size=100) | config_lines)
    def test_parse_config_file(self, parser_inputs, blob):
        config = parser_inputs / "run.cfg"
        config.write_bytes(blob)
        fails_only_with(cli.ConfigError, lambda: cli.parse_config_file(config),
                        ["train", "--data", "d", "--vocab-dir", "v", "--ckpt-dir", "c",
                         "--config", str(config)], cli.EXIT_USAGE)


class TestPredict:
    def test_trained_model_matches_generator_table(self, toy_run, capsys, monkeypatch):
        # bake -> cookedness; freeze -> cleanliness + cookedness; mix ->
        # temperature + shape; all per the fixed trigger table.
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "bake it slowly then freeze it\nmix the batter well\n"))
        code, out, _ = run(capsys, "predict", "--ckpt", str(toy_run["ckpt"]))
        assert code == 0
        first, second = (json.loads(line) for line in out.splitlines())
        assert first["verbs"] == ["bake", "freeze"]
        assert first["states"] == ["cleanliness", "cookedness"]
        assert second["verbs"] == ["mix"]
        assert second["states"] == ["shape", "temperature"]

    def test_unknown_words_still_produce_output(self, mini_run, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("zzz qqq xxx\n"))
        code, out, _ = run(capsys, "predict", "--ckpt", str(mini_run["ckpt"] / "ckpt_best.bin"))
        assert code == 0
        record = json.loads(out)
        assert record["tokens"] == ["zzz", "qqq", "xxx"]
        assert isinstance(record["verbs"], list)

    def test_empty_stdin_fails(self, mini_run, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, _, err = run(capsys, "predict", "--ckpt", str(mini_run["ckpt"] / "ckpt_best.bin"))
        assert code == 1
        assert "no input" in err

    def test_blank_line_fails(self, mini_run, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("bake it\n\n"))
        code, _, err = run(capsys, "predict", "--ckpt", str(mini_run["ckpt"] / "ckpt_best.bin"))
        assert code == 1
        assert "empty input line" in err

    def predict_recording(self, monkeypatch, capsys, ckpt, text):
        """Run predict on ``text`` and keep what each forward call returned."""
        calls = []
        original = network.forward

        def recording(params, batch):
            verb, state, trace = original(params, batch)
            calls.append((verb, state))
            return verb, state, trace

        monkeypatch.setattr(network, "forward", recording)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "predict", "--ckpt", str(ckpt))
        return code, out, err, calls

    @staticmethod
    def sentences(corpus, count, seed):
        words = (corpus / "text.vocab").read_text().split() + ["zzz"]
        rng = np.random.default_rng(seed)
        return [" ".join(rng.choice(words, size=rng.integers(1, 12)).tolist())
                for _ in range(count)]

    def test_groups_match_line_by_line(self, mini_run, capsys, monkeypatch):
        ckpt = mini_run["ckpt"] / "ckpt_best.bin"
        lines = self.sentences(mini_run["corpus"], 2 * INFERENCE_BATCH + 2, seed=5)
        code, out, _, calls = self.predict_recording(monkeypatch, capsys, ckpt,
                                                     "\n".join(lines) + "\n")
        assert code == 0
        assert [len(verb) for verb, _ in calls] == [1, INFERENCE_BATCH, INFERENCE_BATCH, 1]
        grouped = out.splitlines()
        batched_verb = np.concatenate([verb for verb, _ in calls])
        batched_state = np.concatenate([state for _, state in calls])
        for r, line in enumerate(lines):
            code, alone, _, single = self.predict_recording(monkeypatch, capsys, ckpt, line + "\n")
            assert code == 0
            assert json.loads(alone) == json.loads(grouped[r])
            assert np.allclose(single[0][0][0], batched_verb[r], rtol=0, atol=1e-12)
            assert np.allclose(single[0][1][0], batched_state[r], rtol=0, atol=1e-12)

    def test_long_lines_run_in_chunks_of_at_most_inference_rows_tokens(self, mini_run, capsys,
                                                                       monkeypatch):
        words = (mini_run["corpus"] / "text.vocab").read_text().split()
        rng = np.random.default_rng(8)
        lines = [" ".join(rng.choice(words, size=40).tolist()) for _ in range(60)]
        code, out, _, calls = self.predict_recording(monkeypatch, capsys,
                                                     mini_run["ckpt"] / "ckpt_best.bin",
                                                     "\n".join(lines) + "\n")
        assert code == 0
        per_call = INFERENCE_ROWS // 40
        assert [len(verb) for verb, _ in calls] == [1, per_call, per_call, 59 - 2 * per_call]
        assert [json.loads(line)["tokens"] for line in out.splitlines()] == \
            [line.split() for line in lines]

    def test_lines_come_back_in_input_order(self, mini_run, capsys, monkeypatch):
        lines = self.sentences(mini_run["corpus"], 130, seed=6)
        # Mixed line ends, and a last line without one.
        text = "".join(line + ("\r\n" if i % 3 else "\n") for i, line in enumerate(lines[:-1]))
        code, out, _, _ = self.predict_recording(monkeypatch, capsys,
                                                 mini_run["ckpt"] / "ckpt_best.bin",
                                                 text + lines[-1])
        assert code == 0
        assert [json.loads(line)["tokens"] for line in out.splitlines()] == \
            [line.split() for line in lines]

    def test_blank_line_inside_a_group_prints_the_lines_before_it(self, mini_run, capsys,
                                                                  monkeypatch):
        lines = self.sentences(mini_run["corpus"], 6, seed=7)
        text = "\n".join(lines[:4] + ["   "] + lines[4:]) + "\n"
        code, out, err, calls = self.predict_recording(monkeypatch, capsys,
                                                       mini_run["ckpt"] / "ckpt_best.bin", text)
        assert code == 1
        assert "empty input line" in err
        assert [json.loads(line)["tokens"] for line in out.splitlines()] == \
            [line.split() for line in lines[:4]]
        assert [len(verb) for verb, _ in calls] == [1, 3]

    label_names = st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=6, unique=True)

    @settings(max_examples=50, deadline=None)
    @given(verb_names=label_names, state_names=label_names, n_lines=st.integers(1, 140),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(verb_names=["whisk", "Bake", '"q"', "b\\ake", "caf\u00e9", "\u2028"],
             state_names=["zeta", "a\nb", "A", "\x00"], n_lines=130, seed=0)
    def test_output_is_each_rows_sorted_names_as_json(self, verb_names, state_names, n_lines,
                                                      seed):
        # Label names out of alphabetical order or in need of JSON escapes;
        # each line must print as json.dumps of its sorted predicted names.
        vocabs = (Vocabulary.from_tokens(["word"], with_pad=True),
                  Vocabulary.from_tokens(verb_names), Vocabulary.from_tokens(state_names))
        rng = np.random.default_rng(seed)
        rows = [rng.random((n_lines, len(vocab))) < 0.5 for vocab in vocabs[1:]]
        served = 0

        def forward(params, batch):
            nonlocal served
            served += len(batch)
            return tuple(r[served - len(batch):served].astype(float) for r in rows) + (None,)

        lines = [f"word {i}" for i in range(n_lines)]
        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
            patch.setattr(cli, "_load_eval_ckpt",
                          lambda path: (SimpleNamespace(params=None), vocabs))
            patch.setattr(network, "forward", forward)
            patch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines)))
            assert cli.main(["predict", "--ckpt", "unused"]) == 0
        assert served == n_lines
        assert out.getvalue() == "".join(json.dumps({
            "tokens": line.split(),
            "verbs": sorted(vocabs[1].tokens[i] for i in np.flatnonzero(verb)),
            "states": sorted(vocabs[2].tokens[i] for i in np.flatnonzero(state)),
        }) + "\n" for line, verb, state in zip(lines, *rows))

    def test_names_patched_after_a_call_are_used_by_the_next(self, mini_run, monkeypatch):
        ckpt = str(mini_run["ckpt"] / "ckpt_best.bin")
        monkeypatch.setattr("sys.stdin", io.StringIO("bake it\n"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["predict", "--ckpt", ckpt]) == 0
            calls = []
            original = cli.binarize

            def counting(pred, threshold):
                calls.append(len(pred))
                return original(pred, threshold)

            monkeypatch.setattr(cli, "binarize", counting)
            monkeypatch.setattr(cli, "cmd_eval", lambda args: calls.append(args.data) or 0)
            monkeypatch.setattr("sys.stdin", io.StringIO("bake it\nmix it\nstir\n"))
            assert cli.main(["predict", "--ckpt", ckpt]) == 0
            assert cli.main(["eval", "--ckpt", ckpt, "--data", "held.jsonl"]) == 0
        # One call per head: the first line alone, then the two lines after it.
        assert calls == [1, 1, 2, 2, "held.jsonl"]

    def test_line_groups_over_chunked_bytes(self):
        chunks = [b"ab", b"c\r", b"\nd\xc3", b"\xa9 e\n\rg\n", b"h\n" * (INFERENCE_BATCH + 6),
                  b"last"]

        class Stream:
            encoding, errors = "utf-8", "strict"

            class buffer:
                @staticmethod
                def read1(size):
                    return chunks.pop(0) if chunks else b""

        groups = list(cli._line_groups(Stream()))
        assert groups == [["abc"], ["d\u00e9 e", "", "g"], ["h"] * INFERENCE_BATCH, ["h"] * 6,
                          ["last"]]

    def test_answers_each_line_on_a_live_pipe(self, mini_run):
        # Line 2 is sent only after line 1's answer came back, and stdin stays
        # open: the answer must not wait for more input or for the end.
        src = str(Path(tanloss.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])), TANLOSS_THREADS="1")
        proc = subprocess.Popen(
            [sys.executable, "-m", "tanloss.cli", "predict", "--ckpt",
             str(mini_run["ckpt"] / "ckpt_best.bin")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        answers = queue.Queue()
        reader = threading.Thread(target=lambda: [answers.put(line) for line in proc.stdout],
                                  daemon=True)
        reader.start()
        try:
            for sentence in ("bake it slowly", "mix the batter"):
                proc.stdin.write(sentence.encode() + b"\n")
                proc.stdin.flush()
                answer = json.loads(answers.get(timeout=60))
                assert answer["tokens"] == sentence.split()
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            proc.wait()
        reader.join(timeout=10)
        assert answers.empty()


class TestGradcheck:
    def test_default_sizes_pass(self, capsys):
        code, out, _ = run(capsys, "gradcheck")
        assert code == 0
        assert "max relative gradient error" in out

    def test_hidden_size_one_still_passes(self, capsys):
        code, _, _ = run(capsys, "gradcheck", "--sizes", "6,1,1,1,2")
        assert code == 0

    def test_corrupted_backward_fails(self, capsys, wrong_backward):
        code, _, _ = run(capsys, "gradcheck")
        assert code == 1

    def test_bad_sizes_flag(self, capsys):
        assert cli.main(["gradcheck", "--sizes", "1,2"]) == 2

    def test_size_below_one_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "gradcheck", "--sizes", "0,1,1,1,1")
        assert code == 2
        assert err.startswith("config error:") and out == ""


class TestParser:
    def test_unknown_subcommand(self):
        assert cli.main(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert cli.main(["gradcheck", "--bogus"]) == 2

    def test_help_exits_cleanly(self):
        assert cli.main(["--help"]) == 0

    def test_each_call_parses_unaffected_by_the_ones_before(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "cmd_predict", lambda args: seen.append(vars(args)) or 0)
        assert cli.main(["predict", "--ckpt", "a", "--threshold", "0.9"]) == 0
        assert cli.main(["predict", "--ckpt", "b", "--threshold", "2"]) == 2
        assert cli.main(["predict", "--threshold", "0.7"]) == 2
        assert cli.main(["predict", "--ckpt", "c"]) == 0
        assert seen == [{"command": "predict", "ckpt": "a", "threshold": 0.9},
                        {"command": "predict", "ckpt": "c", "threshold": 0.5}]
        assert cli._build_parser() is cli._build_parser()

    def test_train_flags_keep_their_names_dests_and_types(self):
        parser = cli._build_parser()
        (subcommands,) = [a for a in parser._actions if a.dest == "command"]
        flags = {action.option_strings[-1]: (action.dest, action.type, action.default,
                                             type(action).__name__)
                 for action in subcommands.choices["train"]._actions
                 if action.dest != "help"}
        given, switch = "_StoreAction", "_StoreTrueAction"
        assert flags == {
            "--data": ("data", None, None, given),
            "--vocab-dir": ("vocab_dir", None, None, given),
            "--ckpt-dir": ("ckpt_dir", None, None, given),
            "--config": ("config", None, None, given),
            "--resume": ("resume", None, None, given),
            "--epochs": ("epochs", int, None, given),
            "--validate-every": ("validate_every", int, None, given),
            "--lr": ("lr", float, None, given),
            "--batch-size": ("batch_size", int, None, given),
            "--gru1": ("gru1_hidden", int, None, given),
            "--gru2": ("gru2_hidden", int, None, given),
            "--head-hidden": ("head_hidden", int, None, given),
            "--split-seed": ("split_seed", int, None, given),
            "--init-seed": ("init_seed", int, None, given),
            "--shuffle-seed": ("shuffle_seed", int, None, given),
            "--val-fraction": ("val_fraction", float, None, given),
            "--keep-all": ("keep_all", None, None, switch),
            "--quiet": ("quiet", None, False, switch),
        }


def test_thread_cap_env_var():
    import os
    import subprocess
    import sys

    env = dict(os.environ, TANLOSS_THREADS="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env.pop(var, None)
    probe = ("import tanloss.cli, os; "
             "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.split() == ["1", "1"]


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

# Records the BLAS thread variables at the moment numpy is first imported,
# which is when BLAS reads them.
NUMPY_IMPORT_PROBE = """
import importlib.abc, json, os, sys
seen = {}
class Probe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((v, os.environ.get(v)) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
        return None
sys.meta_path.insert(0, Probe())
import tanloss.cli
print(json.dumps(seen))
"""


def test_tanloss_threads_is_set_before_numpy_is_imported():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["TANLOSS_THREADS"] = "3"
    src = str(Path(tanloss.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "3"}
