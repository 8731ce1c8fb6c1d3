"""Command-line entry point: gen-synthetic | train | eval | predict | gradcheck.

Exit codes: 0 success, 1 runtime or check failure, 2 usage/config error,
3 data error.  TANLOSS_THREADS caps BLAS worker threads when set before
launch (see the package's __init__).  The argument parser is built once per
process; ``main`` looks each command's handler up in this module at every
call, so a wrapper set on one applies from the next call on.

``eval`` and ``predict`` load the parameters only and skip the checkpoint's
optimizer cache.  ``predict`` reads stdin as a stream: it answers the first
line alone as soon as it is read, then each group of up to INFERENCE_BATCH
complete lines already read, with one forward pass per chunk of at most
INFERENCE_ROWS tokens, printing the lines in input order and flushing stdout
after each forward.  Each line prints as one JSON object: its tokens and the
predicted verb and state names, each list in sorted order.  A blank line
prints every line before it, then fails.
"""

import argparse
import codecs
import csv
import dataclasses
import functools
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import network
from .corpus import (DataError, Sample, SyntheticConfig, generate_synthetic_corpus,
                     ingest_jsonl, load_vocab, make_batches, read_utf8, save_vocab,
                     split_dataset, write_jsonl)
from .evaluation import INFERENCE_BATCH, INFERENCE_ROWS, TOLERANCE_MODES, binarize, evaluate
from .network import CheckpointError, ModelSizes, check_fingerprint, load_checkpoint
from .training import TrainConfig, check_config, gradient_check, resume, train, vocabs_from_meta

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DATA = 3

GRADCHECK_TOLERANCE = 1e-4


class ConfigError(ValueError):
    """Bad config file or invalid flag combination."""


def _threshold(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"threshold must be in (0, 1), got {value}")
    return value


def _sizes(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("--sizes expects vocab,gru1,gru2,head,labels")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--sizes must be integers, got {text!r}") from None


# The config-file keys and their types: every TrainConfig field but
# checkpoint_dir, each also the dest of a `train` flag.
_CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)
                 if f.name != "checkpoint_dir"}
# The `train` flags that are not their key with "-" for "_".
_FLAGS = {"gru1_hidden": "--gru1", "gru2_hidden": "--gru2"}


def parse_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines are ignored."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, raw in enumerate(read_utf8(path, ConfigError).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[key] = _coerce(key, value)
        except ValueError:
            raise ConfigError(f"{path}: line {lineno}: bad value {value!r} for {key}") from None
    return values


def _coerce(key: str, value: str):
    target = _CONFIG_TYPES[key]
    if target is bool:
        if value.lower() in ("true", "1", "yes", "on"):
            return True
        if value.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(value)
    return target(value)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="tanloss")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synthetic", help="write a synthetic dataset and vocab files")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--count", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--text-vocab", type=int, default=60)
    gen.add_argument("--verbs", type=int, default=8)
    gen.add_argument("--states", type=int, default=6)
    gen.add_argument("--min-len", type=int, default=3)
    gen.add_argument("--max-len", type=int, default=8)

    tr = sub.add_parser("train", help="train on a JSONL dataset")
    tr.add_argument("--data", required=True, help="dataset JSONL")
    tr.add_argument("--vocab-dir", required=True,
                    help="directory with text.vocab, verb.vocab, state.vocab")
    tr.add_argument("--ckpt-dir", required=True, help="checkpoint/log output directory")
    tr.add_argument("--config", help="key=value config file")
    tr.add_argument("--resume", help="checkpoint to continue from")
    for key, kind in _CONFIG_TYPES.items():
        flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
        if kind is bool:
            tr.add_argument(flag, dest=key, action="store_true", default=None)
        else:
            tr.add_argument(flag, dest=key, type=kind)
    tr.add_argument("--quiet", action="store_true")

    ev = sub.add_parser("eval", help="report per-head one-missing accuracy")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--threshold", type=_threshold, default=0.5)
    ev.add_argument("--tolerance", choices=TOLERANCE_MODES, default="subset")
    ev.add_argument("--per-sample-csv", help="also write per-sample flags as CSV")

    pr = sub.add_parser("predict", help="predict verb/state sets for stdin sentences")
    pr.add_argument("--ckpt", required=True)
    pr.add_argument("--threshold", type=_threshold, default=0.5)

    gc = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--sizes", type=_sizes, default=(10, 5, 4, 7, 3),
                    help="vocab,gru1,gru2,head,labels")
    return parser


def cmd_gen_synthetic(args) -> int:
    config = SyntheticConfig(count=args.count, text_size=args.text_vocab,
                             verb_count=args.verbs, state_count=args.states,
                             min_len=args.min_len, max_len=args.max_len)
    try:
        samples, vocabs = generate_synthetic_corpus(config, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    text_vocab, verb_vocab, state_vocab = vocabs
    # Only after the settings proved valid, so that a rejected call makes no directory.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(samples, out / "samples.jsonl", text_vocab, verb_vocab, state_vocab)
    save_vocab(text_vocab, out / "text.vocab")
    save_vocab(verb_vocab, out / "verb.vocab")
    save_vocab(state_vocab, out / "state.vocab")
    print(f"wrote {len(samples)} samples to {out / 'samples.jsonl'}")
    print(f"vocab sizes: text={len(text_vocab)} verb={len(verb_vocab)} state={len(state_vocab)}")
    return EXIT_OK


def _load_vocab_dir(vocab_dir) -> tuple:
    vocab_dir = Path(vocab_dir)
    return (
        load_vocab(vocab_dir / "text.vocab", with_pad=True),
        load_vocab(vocab_dir / "verb.vocab"),
        load_vocab(vocab_dir / "state.vocab"),
    )


def cmd_train(args) -> int:
    overrides = parse_config_file(args.config) if args.config else {}
    for key in _CONFIG_TYPES:
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    config = TrainConfig(checkpoint_dir=args.ckpt_dir, **overrides)
    try:
        check_config(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    vocabs = _load_vocab_dir(args.vocab_dir)
    samples = ingest_jsonl(args.data, *vocabs)
    split = split_dataset(samples, config.val_fraction, config.split_seed)
    if not args.quiet:
        print(f"training on {len(split.train)} samples, validating on "
              f"{len(split.validation)}, {config.epochs} epochs", file=sys.stderr)
    if args.resume:
        result = resume(args.resume, config, split, vocabs, lr_configured="lr" in overrides)
    else:
        result = train(config, split, vocabs)
    validations = [r for r in result.records if r.validation_error is not None]
    best = result.best.best_val_error if result.best else None
    print(json.dumps({
        "epochs_run": len(result.records),
        "validations": len(validations),
        "best_val_error": best,
        "checkpoint": str(Path(args.ckpt_dir) / "ckpt_best.bin") if result.best else None,
    }))
    return EXIT_OK


def _load_eval_ckpt(path):
    ckpt = load_checkpoint(path, optimizer=False)
    if ckpt.vocabs is None:
        raise CheckpointError(f"{path} carries no vocabulary metadata")
    vocabs = vocabs_from_meta(ckpt.vocabs)
    sizes = dataclasses.replace(ckpt.params.sizes, input_dim=len(vocabs[0]),
                                verb_dim=len(vocabs[1]), state_dim=len(vocabs[2]))
    check_fingerprint(ckpt.params.sizes.fingerprint(), sizes.fingerprint())
    return ckpt, vocabs


def cmd_eval(args) -> int:
    ckpt, vocabs = _load_eval_ckpt(args.ckpt)
    text_vocab = vocabs[0]
    samples = ingest_jsonl(args.data, *vocabs)
    report = evaluate(ckpt.params, samples, pad_index=text_vocab.pad_index,
                      threshold=args.threshold, mode=args.tolerance)
    if args.per_sample_csv:
        with open(args.per_sample_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample", "action_ok", "state_ok"])
            for i, (action_ok, state_ok) in enumerate(report.per_sample_flags):
                writer.writerow([i, int(action_ok), int(state_ok)])
    print(json.dumps(report.to_dict()))
    return EXIT_OK


def _line_groups(stream):
    """Yield the lines of ``stream`` in groups as they become readable.

    The first line comes alone; after it, a group holds the complete lines
    already read, at most INFERENCE_BATCH.  A read returns whatever input is
    available (``read1`` on the byte buffer), so no complete line waits for
    more.  Lines end at \\n, \\r\\n or \\r, as in a text-mode read; a last
    line needs no newline.  Streams without a byte buffer, such as
    ``io.StringIO``, are read whole.
    """
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        reads, decoder, end = [stream.read()], None, ""
    else:
        reads, end = iter(lambda: buffer.read1(1 << 16), b""), b""
        decoder = codecs.getincrementaldecoder(stream.encoding)(stream.errors)
    newlines = io.IncrementalNewlineDecoder(decoder, translate=True)
    pending, first = "", True
    for data in itertools.chain(reads, [None]):
        text = newlines.decode(end, final=True) if data is None else newlines.decode(data)
        *lines, pending = (pending + text).split("\n")
        if data is None and pending:
            lines.append(pending)
        if first and lines:
            yield lines[:1]
            del lines[0]
            first = False
        for i in range(0, len(lines), INFERENCE_BATCH):
            yield lines[i:i + INFERENCE_BATCH]


def _sorted_labels(vocab) -> tuple[list[str], list[int]]:
    """The vocabulary's names in sorted order, and the output column of each."""
    columns = sorted(range(len(vocab)), key=vocab.tokens.__getitem__)
    return [vocab.tokens[i] for i in columns], columns


def cmd_predict(args) -> int:
    ckpt, (text_vocab, verb_vocab, state_vocab) = _load_eval_ckpt(args.ckpt)
    no_verbs, no_states = np.zeros(len(verb_vocab)), np.zeros(len(state_vocab))
    verb_names, verb_columns = _sorted_labels(verb_vocab)
    state_names, state_columns = _sorted_labels(state_vocab)
    answered = False
    for group in _line_groups(sys.stdin):
        # The lines up to the first blank one.
        sentences = list(itertools.takewhile(bool, (line.split() for line in group)))
        samples = [Sample([text_vocab.lookup(t) for t in tokens], no_verbs, no_states)
                   for tokens in sentences]
        for batch in make_batches(samples, INFERENCE_BATCH, pad_index=text_vocab.pad_index,
                                  max_tokens=INFERENCE_ROWS):
            chunk, sentences = sentences[:len(batch)], sentences[len(batch):]
            # Through the module, so that a wrapper set on network.forward applies.
            verb_pred, state_pred = network.forward(ckpt.params, batch)[:2]
            # Each row's flags as Python bools, in the order of the sorted names.
            verbs = binarize(verb_pred, args.threshold)[:, verb_columns].tolist()
            states = binarize(state_pred, args.threshold)[:, state_columns].tolist()
            sys.stdout.write("".join(json.dumps({
                "tokens": tokens,
                "verbs": list(itertools.compress(verb_names, verb)),
                "states": list(itertools.compress(state_names, state)),
            }) + "\n" for tokens, verb, state in zip(chunk, verbs, states)))
            sys.stdout.flush()
            answered = True
        if len(samples) < len(group):
            print("error: empty input line", file=sys.stderr)
            return EXIT_FAILURE
    if not answered:
        print("error: no input on stdin", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if min(args.sizes) < 1:
        raise ConfigError(f"--sizes must all be at least 1, got {args.sizes}")
    vocab, gru1, gru2, head, labels = args.sizes
    sizes = ModelSizes(input_dim=vocab, verb_dim=labels, state_dim=labels,
                       gru1_hidden=gru1, gru2_hidden=gru2, head_hidden=head)
    worst = gradient_check(sizes, seed=args.seed)
    print(f"max relative gradient error: {worst:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    return EXIT_OK if worst < GRADCHECK_TOLERANCE else EXIT_FAILURE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "gen-synthetic": cmd_gen_synthetic,
        "train": cmd_train,
        "eval": cmd_eval,
        "predict": cmd_predict,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (CheckpointError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
