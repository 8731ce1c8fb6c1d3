"""Binarization of head outputs and one-missing-tolerance accuracy.

A sentence-level prediction counts as correct when at most one label item is
absent from the predicted set.  Under the default "subset" tolerance extra
predicted items disqualify the match; the "symmetric" tolerance instead
allows any single-item symmetric difference.  Empty label sets count as
correct only when the prediction is empty too.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import Sample, make_batches
from .network import ModelParams, forward

TOLERANCE_MODES = ("subset", "symmetric")


def binarize(pred, threshold: float = 0.5) -> set[int]:
    """Indices with prediction >= threshold (inclusive boundary)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    pred = np.asarray(pred, dtype=np.float64)
    return set(np.flatnonzero(pred >= threshold).tolist())


def one_missing_match(pred: set[int], label: set[int], mode: str = "subset") -> bool:
    if mode not in TOLERANCE_MODES:
        raise ValueError(f"unknown tolerance mode {mode!r}")
    if not label:
        return not pred
    if mode == "subset":
        return pred <= label and len(label - pred) <= 1
    return len(pred ^ label) <= 1


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


def evaluate(params: ModelParams, test_set: list[Sample], pad_index: int,
             threshold: float = 0.5, mode: str = "subset",
             batch_size: int = 64) -> EvalReport:
    """Per-head one-missing accuracy over a test set."""
    if not test_set:
        raise ValueError("cannot evaluate an empty test set")
    flags: list[tuple[bool, bool]] = []
    for batch in make_batches(test_set, batch_size, seed=0, pad_index=pad_index, shuffle=False):
        # [:2] drops the trace now, not when the next batch's forward returns.
        verb_pred, state_pred = forward(params, batch)[:2]
        for r in range(len(batch)):
            verb_ok = one_missing_match(
                binarize(verb_pred[r], threshold),
                set(np.flatnonzero(batch.verb_labels[r]).tolist()), mode)
            state_ok = one_missing_match(
                binarize(state_pred[r], threshold),
                set(np.flatnonzero(batch.state_labels[r]).tolist()), mode)
            flags.append((verb_ok, state_ok))
    return EvalReport(
        action_accuracy=100.0 * sum(f[0] for f in flags) / len(flags),
        state_accuracy=100.0 * sum(f[1] for f in flags) / len(flags),
        n_samples=len(flags),
        per_sample_flags=flags,
    )
