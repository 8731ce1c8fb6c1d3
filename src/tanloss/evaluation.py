"""Binarization of head outputs and one-missing-tolerance accuracy.

A sentence-level prediction counts as correct when at most one label item is
absent from the predicted set.  Under the default "subset" tolerance extra
predicted items disqualify the match; the "symmetric" tolerance instead
allows any single-item symmetric difference.  Empty label sets count as
correct only when the prediction is empty too.  Predicted and label sets are
boolean arrays over the last axis, as ``binarize`` makes them, so
``evaluate`` matches every row at once.  ``predictions`` runs a sample set
through the model in input order; validation and ``evaluate`` both read it.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import Sample, make_batches
from .network import ModelParams, forward

TOLERANCE_MODES = ("subset", "symmetric")
# Most sentences one inference forward runs (validation, ``eval`` and
# ``predict``).  Each recurrent step is one GEMM over the sentences still
# running, and a GEMM over more rows runs faster per row.
INFERENCE_BATCH = 128
# Most packed rows (tokens) one inference forward runs, unless one sentence
# alone is longer.  Its trace keeps 4 * (gru1 + gru2) float64 per packed row,
# 79 MB for 1024 rows at paper size, whatever the sentences' length:
# INFERENCE_BATCH sentences of up to 8 tokens fill a forward, longer ones
# fill it with fewer sentences.
INFERENCE_ROWS = 1024


def binarize(pred, threshold: float = 0.5) -> np.ndarray:
    """The boolean predicted set ``pred >= threshold`` (inclusive boundary),
    over the last axis: one vector for a vector, one row per row for a
    matrix."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return np.asarray(pred, dtype=np.float64) >= threshold


def one_missing_match(pred: np.ndarray, label: np.ndarray, mode: str = "subset"):
    """Whether the boolean ``pred`` matches the boolean ``label`` under the
    tolerance ``mode``, over the last axis: one bool for two vectors, one per
    row for two matrices."""
    if mode not in TOLERANCE_MODES:
        raise ValueError(f"unknown tolerance mode {mode!r}")
    missing = np.count_nonzero(label & ~pred, axis=-1)
    extra = np.count_nonzero(pred & ~label, axis=-1)
    if mode == "subset":
        # An empty label has nothing missing, so this asks for an empty prediction.
        return (extra == 0) & (missing <= 1)
    return np.where(label.any(axis=-1), missing + extra <= 1, extra == 0)


@dataclass
class EvalReport:
    action_accuracy: float
    state_accuracy: float
    n_samples: int
    per_sample_flags: list[tuple[bool, bool]]

    def to_dict(self) -> dict:
        return {
            "action_accuracy": self.action_accuracy,
            "state_accuracy": self.state_accuracy,
            "n_samples": self.n_samples,
        }


def predictions(params: ModelParams, samples: list[Sample], pad_index: int,
                batch_size: int = INFERENCE_BATCH):
    """``((verb_labels, state_labels), (verb_outputs, state_outputs))`` for
    ``samples``: four matrices with one row per sample, in input order."""
    # [:2] drops each batch's trace before the next batch's forward runs.
    rows = [(batch.verb_labels, batch.state_labels, *forward(params, batch)[:2])
            for batch in make_batches(samples, batch_size, pad_index=pad_index,
                                      max_tokens=INFERENCE_ROWS)]
    verb_labels, state_labels, verb_outputs, state_outputs = map(np.concatenate, zip(*rows))
    return (verb_labels, state_labels), (verb_outputs, state_outputs)


def evaluate(params: ModelParams, test_set: list[Sample], pad_index: int,
             threshold: float = 0.5, mode: str = "subset",
             batch_size: int = INFERENCE_BATCH) -> EvalReport:
    """Per-head one-missing accuracy over a test set."""
    if not test_set:
        raise ValueError("cannot evaluate an empty test set")
    (verb_labels, state_labels), (verb_outputs, state_outputs) = predictions(
        params, test_set, pad_index, batch_size)
    verb_ok = one_missing_match(binarize(verb_outputs, threshold), verb_labels != 0, mode)
    state_ok = one_missing_match(binarize(state_outputs, threshold), state_labels != 0, mode)
    n = len(verb_ok)
    return EvalReport(
        action_accuracy=100.0 * int(np.count_nonzero(verb_ok)) / n,
        state_accuracy=100.0 * int(np.count_nonzero(state_ok)) / n,
        n_samples=n,
        per_sample_flags=list(zip(verb_ok.tolist(), state_ok.tolist())),
    )
