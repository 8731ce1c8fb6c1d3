"""Training protocol: summed action/state tangent loss, RMSProp updates,
periodic validation by the cross-entropy-gap error, checkpoint on strict
improvement, and exact resume; and the finite-difference check of the
backward pass against the same objective (``gradient_check``).

Epoch shuffling is reseeded as shuffle_seed + epoch, so a run resumed from a
checkpoint at epoch k replays epochs k+1..N exactly as a straight run would.

Memory: the parameters and the RMSProp cache are one flat buffer each.  A
batch's gradient is what ``backward`` returns, a small dense buffer and the
factors of the large weight gradients, which ``rmsprop_step`` forms a row
panel at a time; it is freed after the step.  Every checkpoint is written straight
from the live buffers, and no copy of the best state is kept: when updates
followed the best validation, the best checkpoint is read back from
``ckpt_best.bin``.  Each epoch's log record is appended to
``train_log.jsonl`` and flushed when the epoch ends; ``train`` starts that
log anew, ``resume`` appends to it.  Both need ``checkpoint_dir``.  A
non-finite gradient stops the run before its step moves any parameter, with
a ValueError that names the epoch, the batch (counted from 1) and the
coordinate.
"""

import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .corpus import DataError, DatasetSplit, Sample, Vocabulary, make_batches, pad_batch
from .evaluation import predictions
from .losses import batch_error, tangent_loss, tangent_loss_grad
from .network import (Checkpoint, CheckpointError, ModelParams, ModelSizes, backward,
                      check_fingerprint, forward, init_params, load_checkpoint,
                      save_checkpoint)
from .optim import RmsPropState, rmsprop_step


@dataclass
class TrainConfig:
    epochs: int = 201
    validate_every: int = 2
    lr: float = 1e-4
    batch_size: int = 32
    gru1_hidden: int = 1600
    gru2_hidden: int = 800
    head_hidden: int = 500
    split_seed: int = 0
    init_seed: int = 0
    shuffle_seed: int = 0
    keep_all: bool = False
    val_fraction: float = 0.1
    checkpoint_dir: str | None = None

    def sizes_for(self, text_vocab, verb_vocab, state_vocab) -> ModelSizes:
        return ModelSizes(
            input_dim=len(text_vocab), verb_dim=len(verb_vocab), state_dim=len(state_vocab),
            gru1_hidden=self.gru1_hidden, gru2_hidden=self.gru2_hidden,
            head_hidden=self.head_hidden,
        )


@dataclass
class TrainLogRecord:
    epoch: int
    mean_total_loss: float
    validation_error: float | None
    checkpoint_saved: bool
    wall_time_ms: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class TrainResult:
    """``best`` is the checkpoint of the lowest validation error.  When it
    is from the last epoch, it shares its arrays with ``final_params`` and
    ``final_state``; an earlier best is read back from ``ckpt_best.bin``."""

    best: Checkpoint | None
    records: list[TrainLogRecord]
    final_params: ModelParams
    final_state: RmsPropState


def total_loss(verb_pred, verb_label, state_pred, state_label) -> float:
    """Action loss plus state loss: the training objective, for one sample
    (vectors) or summed over a batch (matrices, one row per sample)."""
    return tangent_loss(verb_label, verb_pred) + tangent_loss(state_label, state_pred)


def validation_error(params: ModelParams, samples, pad_index: int) -> float:
    """Mean over samples of the two heads' cross-entropy-gap errors."""
    return batch_error(*predictions(params, samples, pad_index))


def check_config(config: TrainConfig) -> None:
    """Raise ValueError unless every count and size is >= 1, every seed is
    >= 0, lr is finite and positive, val_fraction is in (0, 1) and
    checkpoint_dir is set."""
    for keys, low in ((("epochs", "validate_every", "batch_size", "gru1_hidden",
                        "gru2_hidden", "head_hidden"), 1),
                      (("split_seed", "init_seed", "shuffle_seed"), 0)):
        for key in keys:
            if getattr(config, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(config, key)}")
    if not 0.0 < config.lr < np.inf:
        raise ValueError(f"lr must be finite and > 0, got {config.lr}")
    if not 0.0 < config.val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {config.val_fraction}")
    if not config.checkpoint_dir:
        raise ValueError("checkpoint_dir must be set")


def _check_split(split: DatasetSplit) -> None:
    if not split.train or not split.validation:
        raise DataError("train and validation sets must both be nonempty")
    for i, sample in enumerate(split.train):
        if not sample.verb_label.any() or not sample.state_label.any():
            raise DataError(f"training sample {i} has an empty verb or state label")


def _write_with_context(ckpt: Checkpoint, path: Path) -> None:
    try:
        save_checkpoint(ckpt, path)
    except OSError as exc:
        raise RuntimeError(f"failed to write checkpoint {path}: {exc}") from exc


def _vocab_meta(text_vocab, verb_vocab, state_vocab) -> dict:
    return {"text": text_vocab.tokens, "verb": verb_vocab.tokens, "state": state_vocab.tokens}


def vocabs_from_meta(meta: dict) -> tuple[Vocabulary, Vocabulary, Vocabulary]:
    return (
        Vocabulary.from_tokens(meta["text"], with_pad=True),
        Vocabulary.from_tokens(meta["verb"]),
        Vocabulary.from_tokens(meta["state"]),
    )


def _run_epochs(config: TrainConfig, split: DatasetSplit, vocabs, params: ModelParams,
                opt: RmsPropState, start_epoch: int, best_err: float) -> TrainResult:
    pad_index = vocabs[0].pad_index
    seeds = {"split": config.split_seed, "init": config.init_seed,
             "shuffle": config.shuffle_seed}
    ckpt_dir = Path(config.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    def checkpoint(epoch: int, err: float) -> Checkpoint:
        """The live buffers, not copies of them."""
        return Checkpoint(params=params, epoch=epoch, best_val_error=err, seeds=seeds,
                          rmsprop=opt, vocabs=_vocab_meta(*vocabs))

    best_ckpt: Checkpoint | None = None
    records: list[TrainLogRecord] = []
    n_train = len(split.train)

    for epoch in range(start_epoch + 1, config.epochs + 1):
        t0 = time.perf_counter()
        loss_sum = 0.0
        for number, batch in enumerate(make_batches(
                split.train, config.batch_size, seed=config.shuffle_seed + epoch,
                pad_index=pad_index), start=1):
            verb_pred, state_pred, trace = forward(params, batch)
            loss_sum += total_loss(verb_pred, batch.verb_labels, state_pred, batch.state_labels)
            # The gradient of the batch mean, so that lr does not depend on
            # the batch size.
            verb_grad = tangent_loss_grad(batch.verb_labels, verb_pred) / len(batch)
            state_grad = tangent_loss_grad(batch.state_labels, state_pred) / len(batch)
            grads = backward(params, batch, trace, verb_grad, state_grad)
            # Free the trace now and the gradient after its step, before the
            # next batch's forward allocates.
            del trace
            try:
                rmsprop_step(params, grads, opt)
            except ValueError as exc:
                # Raised before any parameter moves: name where it happened.
                raise ValueError(f"epoch {epoch}, batch {number}: {exc}") from None
            del grads

        val_err = None
        saved = False
        if epoch % config.validate_every == 0:
            val_err = validation_error(params, split.validation, pad_index)
            if val_err < best_err:
                best_err = val_err
                best_ckpt = checkpoint(epoch, val_err)
                saved = True
                _write_with_context(best_ckpt, ckpt_dir / "ckpt_best.bin")
        if config.keep_all:
            _write_with_context(checkpoint(epoch, best_err), ckpt_dir / f"ckpt_epoch_{epoch}.bin")

        records.append(TrainLogRecord(
            epoch=epoch,
            mean_total_loss=loss_sum / n_train,
            validation_error=val_err,
            checkpoint_saved=saved,
            wall_time_ms=int(round((time.perf_counter() - t0) * 1000)),
        ))
        with (ckpt_dir / "train_log.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(records[-1].to_json() + "\n")

    if best_ckpt is not None and best_ckpt.epoch != config.epochs:
        # Updates followed the best, so its state is only in its file.
        best_ckpt = load_checkpoint(ckpt_dir / "ckpt_best.bin")
    return TrainResult(best=best_ckpt, records=records, final_params=params, final_state=opt)


def train(config: TrainConfig, split: DatasetSplit, vocabs) -> TrainResult:
    """Run the full protocol from a fresh initialization.

    Validation happens at epochs divisible by ``validate_every``; a
    checkpoint is saved only when the validation error is strictly lower
    than the best seen so far.
    """
    check_config(config)
    _check_split(split)
    # A fresh run starts its own log; a resumed one appends to it.
    (Path(config.checkpoint_dir) / "train_log.jsonl").unlink(missing_ok=True)
    params = init_params(config.sizes_for(*vocabs), config.init_seed)
    opt = RmsPropState.fresh(params, lr=config.lr)
    return _run_epochs(config, split, vocabs, params, opt, start_epoch=0, best_err=np.inf)


def resume(checkpoint_path, config: TrainConfig, split: DatasetSplit, vocabs,
           lr_configured: bool = False) -> TrainResult:
    """Continue training from a stored checkpoint up to config.epochs.

    The checkpoint's layout fingerprint must match the configured layer
    sizes, and the vocabularies it stores must equal ``vocabs`` token for
    token; optimizer hyperparameters and state come from the checkpoint so
    the continuation is exact.  With ``lr_configured`` (config.lr was set
    by the user), a config.lr that differs from the checkpoint's is named
    in one line on stderr.  Resuming with config.epochs equal to the stored
    epoch runs nothing and leaves parameters untouched.
    """
    check_config(config)
    _check_split(split)
    ckpt = load_checkpoint(checkpoint_path)
    sizes = config.sizes_for(*vocabs)
    check_fingerprint(ckpt.params.sizes.fingerprint(), sizes.fingerprint())
    if ckpt.vocabs is not None:
        given = _vocab_meta(*vocabs)
        for name in ("text", "verb", "state"):
            if ckpt.vocabs[name] != given[name]:
                raise CheckpointError(f"{checkpoint_path}: stored {name} vocabulary differs "
                                      f"from the one given")
    if ckpt.rmsprop is None:
        raise CheckpointError(f"{checkpoint_path} carries no optimizer state; cannot resume")
    if lr_configured and config.lr != ckpt.rmsprop.lr:
        print(f"note: resuming with the checkpoint's lr {ckpt.rmsprop.lr!r}, not the "
              f"configured {config.lr!r}", file=sys.stderr)
    return _run_epochs(config, split, vocabs, ckpt.params, ckpt.rmsprop,
                       start_epoch=ckpt.epoch, best_err=ckpt.best_val_error)


def gradient_check(sizes: ModelSizes, seed: int, n_coords: int = 100,
                   lengths: tuple[int, ...] = (3, 5)) -> float:
    """Max relative error between backward() and central finite differences
    of the batch-summed training objective (``total_loss``), over sampled
    parameter coordinates, on one batch of random sentences of the given
    lengths."""
    step = 1e-5
    rng = np.random.default_rng(seed)
    params = init_params(sizes, seed)
    samples = []
    for length in lengths:
        verb = np.zeros(sizes.verb_dim)
        verb[rng.integers(0, sizes.verb_dim)] = 1.0
        state = np.zeros(sizes.state_dim)
        state[rng.integers(0, sizes.state_dim)] = 1.0
        samples.append(Sample(
            tokens=rng.integers(0, max(1, sizes.input_dim - 1), size=length).tolist(),
            verb_label=verb, state_label=state,
        ))
    batch = pad_batch(samples, pad_index=sizes.input_dim - 1)

    def objective():
        verb_pred, state_pred, _ = forward(params, batch)
        return total_loss(verb_pred, batch.verb_labels, state_pred, batch.state_labels)

    verb_pred, state_pred, trace = forward(params, batch)
    grads = params.like(np.empty_like(params.data))
    backward(params, batch, trace, tangent_loss_grad(batch.verb_labels, verb_pred),
             tangent_loss_grad(batch.state_labels, state_pred), out=grads)

    theta = params.data
    worst = 0.0
    for coord in rng.choice(theta.size, size=min(n_coords, theta.size), replace=False):
        original = theta[coord]
        theta[coord] = original + step
        up = objective()
        theta[coord] = original - step
        down = objective()
        theta[coord] = original
        fd = (up - down) / (2.0 * step)
        analytic = grads.data[coord]
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-3)
        worst = max(worst, rel)
    return worst
