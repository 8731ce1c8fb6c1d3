"""Tangent loss, its analytic gradient, and the cross-entropy-gap error.

The training loss is ``sum_i SCALE * tan(BOUNDED_COEFF * |y_i - p_i|)`` over
label components, with predictions in [0, 1] and labels in {0, 1}.  The
0.499*pi coefficient keeps the loss finite at |y - p| = 1.

The error function used for validation is the absolute gap between the cross
entropy of the prediction pmf against the label pmf and the self entropy of
the label pmf, where both pmfs come from a softmax over the raw vectors.
``error_epsilon`` works over the last axis, so two matrices give one error
per row.
"""

import numpy as np

# Multiplier and angle coefficients of the tangent loss.  SCALE is part of
# the loss definition, not a tunable.
SCALE = 10.0
BOUNDED_COEFF = 0.499 * np.pi


def _check_same_shape(y, p):
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if y.shape != p.shape:
        raise ValueError(f"dimension mismatch: label {y.shape} vs prediction {p.shape}")
    return y, p


def tangent_loss(y, p) -> float:
    """Sum of SCALE * tan(BOUNDED_COEFF * |y_i - p_i|) over all components.

    Zero exactly when y == p; bounded above by m * SCALE * tan(BOUNDED_COEFF)
    for inputs in [0, 1]^m.
    """
    y, p = _check_same_shape(y, p)
    return float(np.sum(SCALE * np.tan(BOUNDED_COEFF * np.abs(y - p))))


def tangent_loss_grad(y, p) -> np.ndarray:
    """Derivative of the tangent loss with respect to each p_i.

    Component i is SCALE * BOUNDED_COEFF * sign(p_i - y_i)
    / cos^2(BOUNDED_COEFF * |y_i - p_i|).
    At p_i == y_i the absolute value has a kink; the subgradient 0 is returned
    there (the kink sits exactly at zero loss, so a zero step is the fixed
    point the optimizer should keep).

    Accepts arrays of any shape; the result has the same shape, so a whole
    batch of per-head rows can be differentiated in one call.
    """
    y, p = _check_same_shape(y, p)
    diff = p - y
    sec2 = 1.0 / np.cos(BOUNDED_COEFF * np.abs(diff)) ** 2
    return np.where(diff == 0.0, 0.0, SCALE * BOUNDED_COEFF * np.sign(diff) * sec2)


def error_epsilon(y, p):
    """|H(softmax(p), softmax(y)) - H(softmax(y), softmax(y))| over the last
    axis: one value for two vectors, one per row for two matrices.

    Computed from log-softmaxes as |sum_x (Q(x) - P(x)) log2 Q(x)|, with Q
    the label pmf and P the prediction pmf, so a label component whose
    softmax underflows still counts.  Used only for validation and model
    selection, never for gradients.  Zero exactly when p == y.
    """
    y, p = _check_same_shape(y, p)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(p))):
        raise ValueError("softmax input must be finite")

    def log_softmax(v):
        shifted = v - v.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    log_q = log_softmax(y)
    gap = np.sum((np.exp(log_q) - np.exp(log_softmax(p))) * log_q, axis=-1)
    return np.abs(gap) / np.log(2.0)


def batch_error(labels, preds) -> float:
    """Mean over samples of error_epsilon(verb head) + error_epsilon(state head).

    ``labels`` and ``preds`` are (verb, state) pairs of matrices, one row per
    sample: (N, verb_dim) and (N, state_dim).
    """
    (y_verb, y_state), (p_verb, p_state) = labels, preds
    y_verb, p_verb = _check_same_shape(y_verb, p_verb)
    y_state, p_state = _check_same_shape(y_state, p_state)
    if y_verb.ndim != 2 or y_state.ndim != 2 or len(y_verb) != len(y_state):
        raise ValueError(f"verb rows {y_verb.shape} and state rows {y_state.shape} do not pair up")
    if not len(y_verb):
        raise ValueError("batch_error over an empty sample set is undefined")
    return float(np.mean(error_epsilon(y_verb, p_verb) + error_epsilon(y_state, p_state)))
