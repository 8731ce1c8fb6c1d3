"""The two workloads: set-up, timed rounds and their metrics.

Every round of every workload is the same user pipeline, at the workload's
own sizes: ``train()`` writes ``ckpt_best.bin``, then the ``eval`` command
scores a held-out set with it and the ``predict`` command answers one line
per input sentence.  The sizes decide which layers dominate (see README.md).
Rounds repeat until the requested seconds have passed; a round is never cut
short, so every run attempts whole rounds of identical operations.

All rounds write into one directory, emptied before each round, so a run
keeps one 233 MB checkpoint on disk, not one per round.  A round keeps what
the checks need of its files (the checkpoint's SHA-256, the eval flags)
before the next one removes them.
"""

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

import tanloss.cli
import tanloss.corpus
import tanloss.network
import tanloss.training
from inputs import InputFiles, write_inputs

LR = 1e-4
BATCH_SIZE = 32
# Set-ups before each round; set-up is short, so it is timed many times.
SETUP_REPEATS = 3
# Each round runs ``predict`` this many times, so that a run holds enough
# predict timings for a steady fast end.
PREDICT_CALLS = 3


@dataclass(frozen=True)
class Spec:
    gru1: int
    gru2: int
    head: int
    n_val: int
    n_train: int
    epochs: int
    validate_every: int
    n_eval: int
    n_predict: int
    gradient_check: bool = False


SPECS = {
    "toy-train": Spec(64, 32, 32, n_val=100, n_train=900, epochs=2, validate_every=2,
                      n_eval=200, n_predict=100, gradient_check=True),
    "full-train": Spec(1600, 800, 500, n_val=32, n_train=32, epochs=2, validate_every=2,
                       n_eval=128, n_predict=8),
}

# Same pipelines at a size that runs in seconds, for the self-test.
TINY_SPECS = {
    "toy-train": Spec(8, 6, 5, n_val=8, n_train=40, epochs=2, validate_every=1,
                      n_eval=10, n_predict=6, gradient_check=True),
    "full-train": Spec(12, 8, 6, n_val=8, n_train=32, epochs=2, validate_every=2,
                       n_eval=70, n_predict=6),
}


@dataclass
class Prepared:
    """What set-up hands to the rounds: the written files and the program's
    own view of the corpus."""

    files: InputFiles
    vocabs: tuple
    split: tanloss.corpus.DatasetSplit


def set_up(spec: Spec, seed: int, work: Path) -> Prepared:
    """Write the seeded inputs and load the corpus through the program."""
    files = write_inputs(work / "inputs", seed, spec.n_val + spec.n_train, spec.n_eval,
                         spec.n_predict)
    vocab_dir = files.vocab_dir
    vocabs = (tanloss.corpus.load_vocab(vocab_dir / "text.vocab", with_pad=True),
              tanloss.corpus.load_vocab(vocab_dir / "verb.vocab"),
              tanloss.corpus.load_vocab(vocab_dir / "state.vocab"))
    samples = tanloss.corpus.ingest_jsonl(files.corpus_path, *vocabs)
    split = tanloss.corpus.DatasetSplit(train=samples[spec.n_val:],
                                        validation=samples[:spec.n_val], split_seed=seed)
    return Prepared(files=files, vocabs=vocabs, split=split)


def digest(obj) -> str:
    """Hash of every array and scalar reachable from a checkpoint object, so
    a returned checkpoint and a reloaded one compare bit for bit without
    keeping either in memory."""
    h = hashlib.sha256()

    def walk(x, path):
        if isinstance(x, np.ndarray):
            h.update(f"{path}{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).data)
        elif is_dataclass(x):
            for f in fields(x):
                walk(getattr(x, f.name), f"{path}.{f.name}")
        elif isinstance(x, dict):
            for key in sorted(x):
                walk(x[key], f"{path}[{key}]")
        elif isinstance(x, (list, tuple)):
            for i, item in enumerate(x):
                walk(item, f"{path}[{i}]")
        elif isinstance(x, (float, np.floating)):
            h.update(f"{path}={float(x).hex()};".encode())
        else:
            h.update(f"{path}={x!r};".encode())

    walk(obj, "")
    return h.hexdigest()


class _LineClock(io.StringIO):
    """Captured stdout that remembers when its first line ended."""

    def __init__(self):
        super().__init__()
        self.first_line_at = None

    def write(self, s):
        if self.first_line_at is None and "\n" in s:
            self.first_line_at = time.perf_counter()
        return super().write(s)


@contextlib.contextmanager
def _perturb_first_prediction():
    """Fault injection for the self-test: flip the first verb output of the
    first ``forward`` call that ``predict`` makes."""
    original = tanloss.network.forward
    calls = []

    def faulty(params, batch):
        verb, state, trace = original(params, batch)
        if not calls:
            verb = verb.copy()
            verb[0, 0] = 1.0 - verb[0, 0]
        calls.append(1)
        return verb, state, trace

    tanloss.network.forward = faulty
    try:
        yield
    finally:
        tanloss.network.forward = original


@dataclass
class PredictCall:
    seconds: float
    first_line_s: float
    code: int
    stdout: str


@dataclass
class RoundResult:
    train_s: float
    eval_s: float
    records: list
    best: dict | None            # best_val_error and digest of the returned best
    ckpt_sha256: str | None      # of the ckpt_best.bin the round left
    eval_code: int
    eval_stdout: str
    eval_flags_csv: str
    predicts: list[PredictCall]


def _sha256(path: Path) -> str | None:
    try:
        with path.open("rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    except FileNotFoundError:
        return None


def _predict(ckpt: str, lines: list[str], inject_fault: bool) -> PredictCall:
    out = _LineClock()
    fault = _perturb_first_prediction() if inject_fault else contextlib.nullcontext()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO("".join(line + "\n" for line in lines))
    try:
        with fault, contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = tanloss.cli.main(["predict", "--ckpt", ckpt])
            seconds = time.perf_counter() - t0
    finally:
        sys.stdin = saved_stdin
    first_line = (out.first_line_at or time.perf_counter()) - t0
    return PredictCall(seconds=seconds, first_line_s=first_line, code=code,
                       stdout=out.getvalue())


def run_round(spec: Spec, seed: int, prep: Prepared, directory: Path,
              inject_fault: bool = False, before_step=lambda: None) -> RoundResult:
    """One train -> eval -> predict pipeline; ``before_step`` runs, untimed,
    before each timed step."""
    shutil.rmtree(directory, ignore_errors=True)
    config = tanloss.training.TrainConfig(
        epochs=spec.epochs, validate_every=spec.validate_every, lr=LR,
        batch_size=BATCH_SIZE, gru1_hidden=spec.gru1, gru2_hidden=spec.gru2,
        head_hidden=spec.head, split_seed=seed, init_seed=seed, shuffle_seed=seed,
        checkpoint_dir=str(directory))
    before_step()
    t0 = time.perf_counter()
    result = tanloss.training.train(config, prep.split, prep.vocabs)
    train_s = time.perf_counter() - t0
    records = [json.loads(r.to_json()) for r in result.records]
    best = None
    if result.best is not None:
        best = {"best_val_error": result.best.best_val_error, "digest": digest(result.best)}
    del result

    ckpt = str(directory / "ckpt_best.bin")
    flags = directory / "eval_flags.csv"
    eval_out = io.StringIO()
    before_step()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(eval_out):
        eval_code = tanloss.cli.main(["eval", "--ckpt", ckpt, "--data",
                                      str(prep.files.held_path), "--per-sample-csv",
                                      str(flags)])
    eval_s = time.perf_counter() - t0

    predicts = []
    for _ in range(PREDICT_CALLS):
        before_step()
        predicts.append(_predict(ckpt, prep.files.predict_lines, inject_fault))
    return RoundResult(train_s=train_s, eval_s=eval_s, records=records, best=best,
                       ckpt_sha256=_sha256(Path(ckpt)), eval_code=eval_code,
                       eval_stdout=eval_out.getvalue(),
                       eval_flags_csv=flags.read_text(encoding="utf-8") if flags.exists() else "",
                       predicts=predicts)


def fast_end(values: list[float]) -> float:
    """The 10th percentile: the time a step takes when the shared host is
    not slowing it.  The host's speed wanders by about 20 % within seconds,
    so a median over one run follows the host's load as much as the
    program; the fast end of many short steps follows the program."""
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def end_to_end(spec: Spec, setup_times: list[float], rounds: list[RoundResult],
               peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """Set-up at the median of its repeats, every other timing at the fast
    end of its rounds (the ``predict`` metrics: of every call), with units."""
    predicts = [p for r in rounds for p in r.predicts]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_samples_per_s": (spec.epochs * spec.n_train
                                / fast_end([r.train_s for r in rounds]), "samples/s"),
        "eval_samples_per_s": (spec.n_eval / fast_end([r.eval_s for r in rounds]),
                               "samples/s"),
        "predict_lines_per_s": (spec.n_predict / fast_end([p.seconds for p in predicts]),
                                "lines/s"),
        "predict_first_line_s": (fast_end([p.first_line_s for p in predicts]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# Per-layer metrics: (metric, span name, what to read, unit).  Values are
# per round, the median over the traced rounds.
LAYER_METRICS = [
    ("network.forward_s", "network.forward", "total_s", "s"),
    ("network.forward_calls", "network.forward", "calls", "count"),
    ("network.backward_s", "network.backward", "total_s", "s"),
    ("optim.rmsprop_step_s", "optim.rmsprop_step", "total_s", "s"),
    ("optim.steps", "optim.rmsprop_step", "calls", "count"),
    ("losses.tangent_loss_s", "losses.tangent_loss", "total_s", "s"),
    ("losses.tangent_loss_calls", "losses.tangent_loss", "calls", "count"),
    ("losses.tangent_loss_grad_s", "losses.tangent_loss_grad", "total_s", "s"),
    ("losses.batch_error_s", "losses.batch_error", "total_s", "s"),
    ("training.total_loss_s", "training.total_loss", "total_s", "s"),
    ("training.validation_error_self_s", "training.validation_error", "self_s", "s"),
    ("training.validations", "training.validation_error", "calls", "count"),
    ("training.train_self_s", "training.train", "self_s", "s"),
    ("network.save_checkpoint_s", "network.save_checkpoint", "total_s", "s"),
    ("network.checkpoint_bytes_written", None, "network.checkpoint_bytes_written", "bytes"),
    ("network.checkpoint_writes", "network.save_checkpoint", "calls", "count"),
    ("network.load_checkpoint_s", "network.load_checkpoint", "total_s", "s"),
    ("corpus.make_batches_s", "corpus.make_batches", "total_s", "s"),
    ("corpus.batches", None, "corpus.batches", "count"),
    ("corpus.ingest_jsonl_s", "corpus.ingest_jsonl", "total_s", "s"),
    ("evaluation.evaluate_self_s", "evaluation.evaluate", "self_s", "s"),
    ("evaluation.binarize_calls", "evaluation.binarize", "calls", "count"),
    ("cli.predict_self_s", "cli.predict", "self_s", "s"),
    ("cli.eval_self_s", "cli.eval", "self_s", "s"),
]


def per_layer(summaries: list, untraced_s: list[float], traced_s: list[float]):
    """Per-layer metrics from the span summaries of the traced rounds, and
    the round wall times with and without tracing (the tracing overhead)."""
    out = {}
    for metric, span, key, unit in LAYER_METRICS:
        values = []
        for per_name, counters in summaries:
            if span is None:
                values.append(counters.get(key, 0))
            else:
                values.append(per_name[span][key] if span in per_name else 0)
        out[metric] = (statistics.median(values), unit)
    out["bench.round_untraced_s"] = (statistics.median(untraced_s), "s")
    out["bench.round_traced_s"] = (statistics.median(traced_s), "s")
    return out
