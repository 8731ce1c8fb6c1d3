"""Output checks, made after the timed rounds against the independent
reference in ``reference.py`` and against properties the method must have.
Nothing is compared with a stored copy of earlier output.

Operations and how each one fails:
  * a training epoch: every epoch of a round fails when the round's
    ``train()`` result fails any training check;
  * an ``eval`` sample: its forward outputs or its per-sample flags differ
    from the reference (every sample fails when the command failed or its
    accuracies differ from the reference accuracies);
  * a ``predict`` line: its forward outputs or its verb/state sets differ
    from the reference, or the line is missing.
"""

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

import reference
import tanloss.corpus
import tanloss.losses
import tanloss.network
import tanloss.training
from workloads import BATCH_SIZE, PREDICT_CALLS, Prepared, RoundResult, Spec, digest

FORWARD_TOL = 1e-9
VAL_ERROR_TOL = 1e-9
GRADIENT_TOL = 1e-4
FD_STEP = 1e-5
ONE_SIDED_STEP = 1e-6


@dataclass
class Expected:
    """What one checkpoint should produce, from the reference model."""

    val_error: float
    held_flags: list[tuple[bool, bool]]
    held_forward_ok: list[bool]
    predict_sets: list[tuple[set, set]]
    predict_forward_ok: list[bool]
    gradient_ok: bool


def _program_forward(params, text_vocab, verb_dim, state_dim, sentences):
    """The program's ``forward`` over the sentences, in batches of 64."""
    verb, state = [], []
    for start in range(0, len(sentences), 64):
        chunk = [tanloss.corpus.Sample(tokens=[text_vocab.lookup(t) for t in s],
                                       verb_label=np.zeros(verb_dim),
                                       state_label=np.zeros(state_dim))
                 for s in sentences[start:start + 64]]
        batch = tanloss.corpus.pad_batch(chunk, pad_index=text_vocab.pad_index)
        v, s, _ = tanloss.network.forward(params, batch)
        verb.append(v)
        state.append(s)
    return np.concatenate(verb), np.concatenate(state)


def _forward_agrees(program, ref) -> list[bool]:
    gap = np.maximum(np.abs(program[0] - ref[0]).max(axis=1),
                     np.abs(program[1] - ref[1]).max(axis=1))
    return (gap <= FORWARD_TOL).tolist()


def _gradient_ok(spec: Spec, prep: Prepared, ckpt, params: dict, vocabs: dict,
                 seed: int) -> bool:
    """Finite differences of the reference loss against the program's
    ``backward`` on the first training batch, at one sampled coordinate of
    every parameter array."""
    sentences = prep.files.corpus[spec.n_val:spec.n_val + BATCH_SIZE]
    batch = tanloss.corpus.pad_batch(prep.split.train[:BATCH_SIZE],
                                     pad_index=prep.vocabs[0].pad_index)
    verb, state, trace = tanloss.network.forward(ckpt.params, batch)
    grads = tanloss.network.backward(
        ckpt.params, batch, trace,
        tanloss.losses.tangent_loss_grad(batch.verb_labels, verb),
        tanloss.losses.tangent_loss_grad(batch.state_labels, state))
    verb_y = np.array([reference.multi_hot(vocabs["verb"], s.verbs) for s in sentences])
    state_y = np.array([reference.multi_hot(vocabs["state"], s.states) for s in sentences])
    tokens = [s.tokens for s in sentences]

    def loss_terms():
        # The batch loss as its separate terms: differencing term by term
        # keeps rounding far below the tolerance, where differencing two
        # sums of ~5000 would not.
        v, st = reference.predict(params, vocabs["text"], tokens)
        return np.concatenate([reference.tangent_terms(verb_y, v).ravel(),
                               reference.tangent_terms(state_y, st).ravel()])

    def differences(arr, coord):
        """Central difference at FD_STEP, and the left and right one-sided
        differences at ONE_SIDED_STEP."""
        original = arr.flat[coord]
        base = loss_terms()
        shifted = {}
        for step in (FD_STEP, -FD_STEP, ONE_SIDED_STEP, -ONE_SIDED_STEP):
            arr.flat[coord] = original + step
            shifted[step] = loss_terms()
        arr.flat[coord] = original
        return (float(np.sum(shifted[FD_STEP] - shifted[-FD_STEP])) / (2 * FD_STEP),
                float(np.sum(base - shifted[-ONE_SIDED_STEP])) / ONE_SIDED_STEP,
                float(np.sum(shifted[ONE_SIDED_STEP] - base)) / ONE_SIDED_STEP)

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-3)

    # The heads' ReLUs make the loss piecewise smooth.  Where a kink lies
    # within FD_STEP of the coordinate, or on it, the central difference
    # mixes two slopes, but one one-sided difference stays on a single
    # piece and gives the derivative that backward computes there.
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in sorted(params):
        coord = int(rng.integers(params[name].size))
        analytic = grads[name].flat[coord]
        worst = max(worst, min(rel(analytic, fd) for fd in differences(params[name], coord)))
    return worst < GRADIENT_TOL


def expected_for(spec: Spec, prep: Prepared, path, ckpt, seed: int) -> Expected:
    """Reference results for the checkpoint at ``path``, which the program
    loaded as ``ckpt``."""
    params, meta = reference.read_checkpoint(path)
    vocabs = meta["vocabs"]
    text_vocab, verb_vocab, state_vocab = tanloss.training.vocabs_from_meta(ckpt.vocabs)

    def labels(sentences):
        return ([reference.multi_hot(vocabs["verb"], s.verbs) for s in sentences],
                [reference.multi_hot(vocabs["state"], s.states) for s in sentences])

    val = prep.files.corpus[:spec.n_val]
    v, s = reference.predict(params, vocabs["text"], [x.tokens for x in val])
    vy, sy = labels(val)
    val_error = sum(reference.error_gap(vy[i], v[i]) + reference.error_gap(sy[i], s[i])
                    for i in range(len(val))) / len(val)

    held_tokens = [x.tokens for x in prep.files.held]
    held_ref = reference.predict(params, vocabs["text"], held_tokens)
    vy, sy = labels(prep.files.held)
    held_flags = [(reference.one_missing(reference.above(held_ref[0][i]),
                                         reference.above(vy[i])),
                   reference.one_missing(reference.above(held_ref[1][i]),
                                         reference.above(sy[i])))
                  for i in range(len(held_tokens))]
    held_prog = _program_forward(ckpt.params, text_vocab, len(verb_vocab), len(state_vocab),
                                 held_tokens)

    lines = [line.split() for line in prep.files.predict_lines]
    pred_ref = reference.predict(params, vocabs["text"], lines)
    predict_sets = [({vocabs["verb"][j] for j in reference.above(pred_ref[0][i])},
                     {vocabs["state"][j] for j in reference.above(pred_ref[1][i])})
                    for i in range(len(lines))]
    pred_prog = _program_forward(ckpt.params, text_vocab, len(verb_vocab), len(state_vocab),
                                 lines)

    gradient_ok = (not spec.gradient_check
                   or _gradient_ok(spec, prep, ckpt, params, vocabs, seed))
    return Expected(val_error=val_error, held_flags=held_flags,
                    held_forward_ok=_forward_agrees(held_prog, held_ref),
                    predict_sets=predict_sets,
                    predict_forward_ok=_forward_agrees(pred_prog, pred_ref),
                    gradient_ok=gradient_ok)


def _train_ok(spec: Spec, r: RoundResult, checked_sha256: str, loaded_digest: str,
              exp: Expected) -> bool:
    if (r.best is None or r.ckpt_sha256 != checked_sha256
            or r.best["digest"] != loaded_digest):
        return False
    logged = [rec["validation_error"] for rec in r.records
              if rec["validation_error"] is not None]
    losses = [rec["mean_total_loss"] for rec in r.records]
    return (len(r.records) == spec.epochs
            and r.best["best_val_error"] == min(logged)
            and abs(r.best["best_val_error"] - exp.val_error) <= VAL_ERROR_TOL
            and (spec.epochs < 2 or losses[-1] < losses[0])
            and exp.gradient_ok)


def _eval_failures(spec: Spec, r: RoundResult, exp: Expected) -> int:
    try:
        report = json.loads(r.eval_stdout)
        rows = csv.DictReader(io.StringIO(r.eval_flags_csv))
        flags = [(row["action_ok"] == "1", row["state_ok"] == "1") for row in rows]
    except (ValueError, KeyError):
        return spec.n_eval
    n = len(exp.held_flags)
    action = 100.0 * sum(f[0] for f in exp.held_flags) / n
    state = 100.0 * sum(f[1] for f in exp.held_flags) / n
    if (r.eval_code != 0 or len(flags) != n or report.get("n_samples") != n
            or abs(report.get("action_accuracy", -1) - action) > 1e-9
            or abs(report.get("state_accuracy", -1) - state) > 1e-9):
        return spec.n_eval
    return sum(not (ok and got == want)
               for ok, got, want in zip(exp.held_forward_ok, flags, exp.held_flags))


def _predict_failures(spec: Spec, prep: Prepared, call, exp: Expected) -> int:
    out = call.stdout.splitlines()
    if call.code != 0 or len(out) != spec.n_predict:
        return spec.n_predict
    failed = 0
    for line, text, ok, (verbs, states) in zip(out, prep.files.predict_lines,
                                               exp.predict_forward_ok, exp.predict_sets):
        try:
            got = json.loads(line)
            good = (got["tokens"] == text.split() and set(got["verbs"]) == verbs
                    and set(got["states"]) == states)
        except (ValueError, KeyError, TypeError):
            good = False
        failed += not (ok and good)
    return failed


def failed_operations(spec: Spec, prep: Prepared, rounds: list[RoundResult],
                      directory, seed: int) -> int:
    """Count failed operations over all rounds.

    Only the last round's checkpoint is still on disk, so it is checked in
    full.  Training is deterministic, so every round must have left a
    byte-identical file (same SHA-256); each round's outputs are then checked
    against the reference results of that one file."""
    per_round = spec.epochs + spec.n_eval + spec.n_predict * PREDICT_CALLS
    path = directory / "ckpt_best.bin"
    try:
        ckpt = tanloss.network.load_checkpoint(path)
        loaded_digest = digest(ckpt)
        exp = expected_for(spec, prep, path, ckpt, seed)
    except (tanloss.network.CheckpointError, ValueError):
        return per_round * len(rounds)
    del ckpt
    failed = 0
    for r in rounds:
        train_ok = _train_ok(spec, r, rounds[-1].ckpt_sha256, loaded_digest, exp)
        failed += 0 if train_ok else spec.epochs
        failed += _eval_failures(spec, r, exp)
        failed += sum(_predict_failures(spec, prep, call, exp) for call in r.predicts)
    return failed
