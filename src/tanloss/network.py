"""Two stacked GRU layers over one-hot input, two MLP decoder heads, and
hand-written reverse-mode gradients.

Conventions fixed here and relied on by the test suite:
  * GRU update: z = sig(W_z x + U_z h + b_z), r = sig(W_r x + U_r h + b_r),
    hc = tanh(W_h x + U_h (r*h) + b_h), h' = (1-z)*h + z*hc.
  * Each GRU layer stores its gates fused: one W (3n x in), one U (3n x n)
    and one b (3n), with row blocks in [z; r; h] order.  W_z ... b_h are
    row-block views into these arrays, never copies, so writing through a
    view changes the model.
  * All parameters live in one flat float64 buffer (``ModelParams.data``),
    laid out from ``ModelSizes`` in checkpoint order: gru1 W, U, b, gru2 W,
    U, b, verb head, state head.  The fused arrays are slices of it, so the
    per-gate arrays tile it in the order the checkpoint stores them.  A
    ``ModelParams`` is only ever built as this layout over a buffer, never
    packed from separate arrays.  The RMSProp cache is a second buffer with
    that layout.  The gradient is not a third: ``backward`` returns it as
    pieces that tile the layout in order (``Gradients``): the gru1.U,
    gru2.W, gru2.U and head W1 gradients as the factor pairs whose products
    they are, the gru1.W gradient as the columns of the tokens present, and
    the biases and the heads' W2 as small flat arrays of their own.  The
    optimizer forms the large pieces a row panel at a time.
  * Heads: sigmoid(W2 @ relu(W1 @ h + b1) + b2), so outputs live in (0, 1)
    and match the loss domain.
  * A batch is unrolled to max(lengths) steps, whatever it is padded to, and
    each step updates only the rows whose sequence is still running: rows
    are ordered by decreasing length, so the running rows of step t are a
    prefix of k_t rows.  A finished row keeps its state bit for bit, so
    outputs and gradients cannot depend on padding.
  * Work is laid out layer by layer over the "packed" steps (step-major, the
    k_t running rows of each step, sum(lengths) rows in all): layer 1 runs
    over every step, then layer 2's input projections for all steps are two
    GEMMs (z and r, then hc).  Backward sweeps layer 2, turns its gate deltas into layer 1's
    input gradient with one GEMM, sweeps layer 1, and leaves the U and
    gru2.W gradients as the factors of products over all packed steps.
  * A layer's trace holds z and r in one array, hc in another and h' in a
    third: 4n values per packed row, so the rows of a step are one
    contiguous block of each and the step's numpy calls run on contiguous
    memory.  A forward step reads the state entering it as a view of the
    previous step's h' rows, and r * h goes into one buffer that every step
    reuses; neither is kept.
  * BPTT hoists what depends on the trace alone.  With g = dL/dh', the
    deltas are dz = g (hc - h) z (1 - z), dhc = g z (1 - hc^2) and
    dr = (dhc U_h) h r (1 - r), and g (1 - z) carries g back to h.  Each
    layer's entering state h is rebuilt from its h' before its sweep (and
    r * h with one multiply after it, for the U_h gradient), one layer at a
    time.  The trace factors are formed for every packed row before the
    sweep, the first three in the deltas buffer itself, so a step is a few
    elementwise calls and its two GEMMs; step 0, which starts from the zero
    state, needs neither GEMM.
  * A forward product h @ M.T whose h has 2 to PANEL_MAX_ROWS rows (the
    recurrent products of a step with few running rows, or layer 2's
    input projection of a short sentence) is formed as M @ h.T, one row
    panel of M at a time, when it has more than SMALL_GEMM_MNK
    multiply-adds.  Each panel then fits OpenBLAS's small-matrix kernel,
    which reads M where it lies, where one GEMM would first pack all of
    M: 1.6-2.2x faster on the paper-size blocks (scripts/step_probe.py).
    A split product differs from one GEMM in the last bits; whether it
    splits depends only on the sizes and the step's row count, so padding
    still cannot change a bit.  Backward's products stay one GEMM each.
  * The one-hot input is never materialized in forward: input-to-hidden
    products select a column of W.  Its gradient is one GEMM of layer 1's
    deltas with a one-hot matrix over the tokens present in the batch, kept
    as those tokens' columns (``optim.Columns``): the columns of absent
    tokens are zero and are never stored, so its cost and size are bounded
    by the batch, not the vocabulary.

Everything is float64 so finite-difference gradient checks are meaningful.
"""

import functools
import itertools
import json
import math
import os
import re
import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .optim import BLOCK, Columns, Product, RmsPropState, form_gradient

CKPT_MAGIC = b"TANL"
CKPT_VERSION = 1
# The RMSProp settings a checkpoint stores next to the cache.
RMSPROP_SETTINGS = ("lr", "rho", "eps")
# The metadata a checkpoint load reads besides the fingerprint: each key,
# dotted for a member of "rmsprop" or "vocabs" (read when they are not null),
# with the JSON types its value may take.  "vocabs" may be absent.
META_TYPES = {
    "epoch": int, "best_val_error": (int, float, type(None)), "seeds": dict,
    "rmsprop": (dict, type(None)), **{f"rmsprop.{k}": (int, float) for k in RMSPROP_SETTINGS},
    "vocabs": (dict, type(None)), **{f"vocabs.{k}": list for k in ("text", "verb", "state")},
}

GATES = "zrh"
# Per-gate parameter names of a GRU layer, in checkpoint order.
GRU_NAMES = tuple(f"{kind}_{gate}" for kind in "WUb" for gate in GATES)
HEAD_NAMES = ("W1", "b1", "W2", "b2")
PARAM_NAMES = tuple([f"{p}.{n}" for p in ("gru1", "gru2") for n in GRU_NAMES]
                    + [f"{p}.{n}" for p in ("verb_head", "state_head") for n in HEAD_NAMES])


class CheckpointError(RuntimeError):
    """Unreadable checkpoint file or layout mismatch with the current config."""


_HALF, _ONE = np.float64(0.5), np.float64(1.0)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5*tanh(x/2) + 0.5: one transcendental call and
    no overflow branch."""
    out = np.multiply(x, _HALF, out=out)
    np.tanh(out, out=out)
    out *= _HALF
    out += _HALF
    return out


@dataclass(frozen=True)
class ModelSizes:
    """Layer sizes; defaults follow the full-scale training setup."""

    input_dim: int
    verb_dim: int
    state_dim: int
    gru1_hidden: int = 1600
    gru2_hidden: int = 800
    head_hidden: int = 500

    def fingerprint(self) -> str:
        return (
            f"in{self.input_dim}-gru{self.gru1_hidden}x{self.gru2_hidden}"
            f"-head{self.head_hidden}-v{self.verb_dim}-s{self.state_dim}"
        )

    @classmethod
    def from_fingerprint(cls, fingerprint) -> "ModelSizes | None":
        """The sizes a ``fingerprint()`` string names; None if it is not one
        or names a size of 0."""
        found = re.fullmatch(r"in(\d+)-gru(\d+)x(\d+)-head(\d+)-v(\d+)-s(\d+)",
                             str(fingerprint))
        if found is None or 0 in map(int, found.groups()):
            return None
        inp, gru1, gru2, head, verb, state = map(int, found.groups())
        return cls(input_dim=inp, verb_dim=verb, state_dim=state, gru1_hidden=gru1,
                   gru2_hidden=gru2, head_hidden=head)


def _gate_view(kind: str, gate: int) -> property:
    def view(self) -> np.ndarray:
        n = self.U.shape[1]
        return getattr(self, kind)[gate * n:(gate + 1) * n]
    return property(view)


@dataclass
class GruLayerParams:
    """One GRU layer: W (3n, in), U (3n, n) and b (3n,), gate blocks in
    [z; r; h] order; W_z ... b_h are row-block views of them."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    W_z, W_r, W_h = (_gate_view("W", g) for g in range(3))
    U_z, U_r, U_h = (_gate_view("U", g) for g in range(3))
    b_z, b_r, b_h = (_gate_view("b", g) for g in range(3))


@dataclass
class MlpHeadParams:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray


@dataclass
class ModelParams:
    """Every parameter in one contiguous float64 buffer, ``data``, laid out
    by ``sizes`` in checkpoint order: gru1 W, U, b, gru2 W, U, b, then each
    head's W1, b1, W2, b2.  ``gru1``, ``gru2``, ``verb_head`` and
    ``state_head`` are views into it, set on construction and not fields,
    and so are the per-gate arrays, which tile it in the same order.  The
    same layout over another buffer (``like``) holds gradients or the
    RMSProp cache."""

    data: np.ndarray
    sizes: ModelSizes

    def __post_init__(self):
        size = _count(self.sizes)
        data = self.data
        if data.dtype != np.float64 or data.shape != (size,) or not data.flags.c_contiguous:
            raise ValueError(f"parameter buffer must be contiguous float64 of shape ({size},), "
                             f"got {data.dtype} of shape {data.shape}")
        arrays = _split(data, _shapes(self.sizes))
        self.gru1, self.gru2 = GruLayerParams(*arrays[:3]), GruLayerParams(*arrays[3:6])
        self.verb_head, self.state_head = MlpHeadParams(*arrays[6:10]), MlpHeadParams(*arrays[10:])

    @classmethod
    def new(cls, sizes: ModelSizes) -> "ModelParams":
        """Parameters of the given sizes over a new, unfilled buffer."""
        return cls(np.empty(_count(sizes)), sizes)

    def like(self, data: np.ndarray) -> "ModelParams":
        """This layout over another flat buffer, such as a gradient buffer."""
        return ModelParams(data, self.sizes)

    def flat(self) -> dict[str, np.ndarray]:
        """Ordered name -> array view of every parameter (PARAM_NAMES)."""
        return dict(zip(PARAM_NAMES, [getattr(layer, n) for layer in (self.gru1, self.gru2)
                                      for n in GRU_NAMES]
                        + [getattr(head, n) for head in (self.verb_head, self.state_head)
                           for n in HEAD_NAMES]))


def _shapes(s: ModelSizes) -> list[tuple[int, ...]]:
    """Shapes of the fused arrays, in buffer order."""
    def gru(n, inp):
        return [(3 * n, inp), (3 * n, n), (3 * n,)]

    def head(out):
        return [(s.head_hidden, s.gru2_hidden), (s.head_hidden,), (out, s.head_hidden), (out,)]

    return (gru(s.gru1_hidden, s.input_dim) + gru(s.gru2_hidden, s.gru1_hidden)
            + head(s.verb_dim) + head(s.state_dim))


def _count(s: ModelSizes) -> int:
    """Number of parameters in the layout."""
    return sum(map(math.prod, _shapes(s)))


def _split(data: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the flat buffer ``data`` with the given shapes."""
    ends = itertools.accumulate(map(math.prod, shapes))
    return [data[end - math.prod(s):end].reshape(s) for end, s in zip(ends, shapes)]


def init_params(sizes: ModelSizes, seed: int) -> ModelParams:
    """Uniform(-s, s) weights with s = sqrt(6 / (fan_in + fan_out)); zero biases.

    The weights are drawn in PARAM_NAMES order (gru1 W_z ... U_h, gru2
    likewise, then each head's W1 and W2), each per gate with the draws of
    rng.uniform(-s, s, shape) from one ``np.random.default_rng(seed)``.
    """
    for field, value in vars(sizes).items():
        if value <= 0:
            raise ValueError(f"size {field} must be positive, got {value}")
    rng = np.random.default_rng(seed)
    params = ModelParams.new(sizes)
    for arr in params.flat().values():
        flat = arr.reshape(-1)
        if arr.ndim == 1:
            flat.fill(0.0)
            continue
        # In place, BLOCK draws at a time so that scaling them finds them in
        # cache: the same stream, so the same values, as one call.
        limit = np.sqrt(6.0 / sum(arr.shape))
        for lo in range(0, flat.size, BLOCK):
            block = flat[lo:lo + BLOCK]
            rng.random(out=block)
            block *= 2.0 * limit
            block -= limit
    return params


@dataclass
class LayerTrace:
    """One GRU layer's activations over the packed steps (see the module
    docstring), row block [lo, hi) per step.  The gates are two arrays, so
    that a step's rows of each are one contiguous block.  The state entering
    a step and r * h are not kept: backward rebuilds them from h_out and r."""

    zr: np.ndarray        # (N, 2n) z, r after their sigmoid
    hc: np.ndarray        # (N, n) candidate state after its tanh
    h_out: np.ndarray     # (N, n) state leaving the step


@dataclass
class ForwardTrace:
    """What backpropagation through time needs from ``forward``."""

    token_matrix: np.ndarray
    order: np.ndarray     # batch rows by decreasing length (stable)
    blocks: list          # per step, the [lo, hi) packed rows of the running prefix
    tokens: np.ndarray    # (N,) packed input tokens
    gru1: LayerTrace
    gru2: LayerTrace
    h_final: np.ndarray   # (B, n2) last layer-2 state of each row, in batch order
    verb_head: tuple      # (a_pre, a, out)
    state_head: tuple


# OpenBLAS (0.3.31 on an AVX-512 Xeon) computes an (m x p) @ (p x n) product
# of two row-major operands with its small-matrix kernel, which reads them
# where they lie instead of packing them first, while m*n*p <= SMALL_GEMM_MNK.
# One row more makes a product 2-3x slower.
SMALL_GEMM_MNK = 10**6
# Up to this many rows of h the panels beat one GEMM on the paper-size
# recurrent blocks; from about 24 rows on one GEMM is as fast or faster.
PANEL_MAX_ROWS = 16


def _few_row_product(h: np.ndarray, M: np.ndarray) -> np.ndarray:
    """h @ M.T.  When h has 2 to PANEL_MAX_ROWS rows and the product exceeds
    SMALL_GEMM_MNK, it is formed as M @ h.T one row panel of M at a time,
    each panel within that bound, and the transpose of the result is
    returned; otherwise it is one GEMM (a GEMV for one row), bit for bit
    ``h @ M.T``."""
    k, width = h.shape
    if not 2 <= k <= PANEL_MAX_ROWS or k * width * len(M) <= SMALL_GEMM_MNK:
        return h @ M.T
    # A row-major copy: with the view h.T, OpenBLAS takes its transposed
    # small kernel, which is slower from 5 rows on and also needs m*n <= 1200.
    hT = np.ascontiguousarray(h.T)
    out = np.empty((len(M), k))
    panel = max(1, SMALL_GEMM_MNK // (k * width))
    for lo in range(0, len(M), panel):
        np.matmul(M[lo:lo + panel], hT, out=out[lo:lo + panel])
    return out.T


def _layer_forward(layer: GruLayerParams, project, blocks: list) -> LayerTrace:
    """Run one layer over every packed step; ``project(W)`` is the input
    projection of every packed row by a row block ``W`` of the layer's W."""
    U, n = layer.U, layer.U.shape[1]
    zr = project(layer.W[:2 * n])
    zr += layer.b[:2 * n]
    hc = project(layer.W[2 * n:])
    hc += layer.b[2 * n:]
    lt = LayerTrace(zr, hc, np.empty((len(zr), n)))
    # r * h of one step, reused; step 0 has the most rows.
    rh = np.empty((blocks[0][1], n))
    for t, (lo, hi) in enumerate(blocks):
        z_r, c, h_out = zr[lo:hi], hc[lo:hi], lt.h_out[lo:hi]
        # The running rows of step t are the first hi-lo rows of step t-1.
        # Step 0 starts from the zero state, whose recurrent products vanish.
        h = lt.h_out[blocks[t - 1][0]:][:hi - lo] if t else np.zeros((hi - lo, n))
        if t:
            z_r += _few_row_product(h, U[:2 * n])
        _sigmoid(z_r, out=z_r)
        if t:
            c += _few_row_product(np.multiply(z_r[:, n:], h, out=rh[:hi - lo]), U[2 * n:])
        np.tanh(c, out=c)
        # h' = h + z * (hc - h)
        np.subtract(c, h, out=h_out)
        h_out *= z_r[:, :n]
        h_out += h
    return lt


def _head_forward(head: MlpHeadParams, h: np.ndarray):
    a_pre = h @ head.W1.T + head.b1
    a = np.maximum(a_pre, 0.0)
    out = _sigmoid(a @ head.W2.T + head.b2)
    return a_pre, a, out


def forward(params: ModelParams, batch):
    """Run both GRU layers over each row's true length and decode the final
    layer-2 state with both heads.

    Returns (verb_pred, state_pred, trace) with predictions in (0, 1).
    """
    tokens = batch.token_matrix
    lengths = np.asarray(batch.lengths)
    if np.any(lengths < 1):
        raise ValueError("every sample must have length >= 1")
    if lengths.max() > tokens.shape[1]:
        raise ValueError(f"length {lengths.max()} exceeds the padded width {tokens.shape[1]}")
    g1, g2 = params.gru1, params.gru2
    input_dim = g1.W.shape[1]
    if tokens.min() < 0 or tokens.max() >= input_dim:
        raise ValueError(
            f"token index out of range: [{tokens.min()}, {tokens.max()}] vs input dim {input_dim}"
        )

    # Rows by decreasing length: the rows still running at step t are then a
    # prefix of k_t rows, packed step-major as the block [starts[t], ends[t]).
    B, T = len(lengths), int(lengths.max())
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    running = np.arange(B) < (sorted_lengths > np.arange(T)[:, None]).sum(axis=1)[:, None]
    ends = np.cumsum(running.sum(axis=1))
    starts = ends - running.sum(axis=1)
    blocks = list(zip(starts.tolist(), ends.tolist()))
    packed = tokens[order, :T].T[running]

    # One-hot input: the projection of token j is column j of W.
    l1 = _layer_forward(g1, lambda W: W.T[packed], blocks)
    # Contiguous, as the trace keeps each step's rows in one block.
    l2 = _layer_forward(g2, lambda W: np.ascontiguousarray(_few_row_product(l1.h_out, W)),
                        blocks)

    h_final = np.empty((B, g2.U.shape[1]))
    h_final[order] = l2.h_out[starts[sorted_lengths - 1] + np.arange(B)]
    verb_head = _head_forward(params.verb_head, h_final)
    state_head = _head_forward(params.state_head, h_final)
    trace = ForwardTrace(tokens, order, blocks, packed, l1, l2, h_final, verb_head, state_head)
    return verb_head[2], state_head[2], trace


def _head_backward(head: MlpHeadParams, h_final, head_trace, out_grad) -> tuple[list, np.ndarray]:
    """Returns one head's gradient pieces in layout order (its W1 gradient
    as the factor pair (d_a, h_final), then its b1, raveled W2 and b2
    gradients as flat arrays) and its gradient with respect to ``h_final``."""
    a_pre, a, out = head_trace
    d_opre = np.asarray(out_grad, dtype=np.float64) * out * (1.0 - out)
    d_a = (d_opre @ head.W2) * (a_pre > 0)
    return ([Product(d_a, h_final), d_a.sum(axis=0), (d_opre.T @ a).ravel(),
             d_opre.sum(axis=0)], d_a @ head.W1)


def _entering_state(h_out: np.ndarray, blocks: list) -> np.ndarray:
    """The state entering each packed row, rebuilt from the layer's
    ``h_out``: zero on step 0, and on step t the first k_t rows of step
    t-1's h_out, as in ``_layer_forward``."""
    h = np.empty_like(h_out)
    h[:blocks[0][1]] = 0.0
    for (prev, _), (lo, hi) in zip(blocks, blocks[1:]):
        h[lo:hi] = h_out[prev:prev + hi - lo]
    return h


def _layer_backward(U: np.ndarray, lt: LayerTrace, blocks: list, dh: np.ndarray,
                    dx: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """Sweep one layer back over the packed steps, starting from dL/dh in
    ``dh`` (B, n, running order; updated in place).  ``dx`` adds the
    gradient that arrives through each step's output from the layer above.
    Returns the pre-activation deltas [dz; dr; dhc] (N, 3n) and the layer's
    U and b gradient pieces in layout order: U as two products, its z/r
    rows and its h rows, and b as a flat array.

    The trace factors of the deltas (see the module docstring) are formed
    for every packed row before the sweep, in the deltas buffer itself, and
    each step scales its rows of them into deltas."""
    n = U.shape[1]
    z, r, hc = lt.zr[:, :n], lt.zr[:, n:], lt.hc
    h = _entering_state(lt.h_out, blocks)
    deltas = np.empty((len(h), 3 * n))
    dz, dr, dhc = deltas[:, :n], deltas[:, n:2 * n], deltas[:, 2 * n:]
    # In place, as a temporary per factor would raise the peak memory.
    keep = np.subtract(_ONE, z)             # dh'/dh along h' = (1 - z) h + z hc
    np.subtract(hc, h, out=dz)              # (hc - h) z (1 - z)
    dz *= z
    dz *= keep
    np.subtract(_ONE, r, out=dr)            # h r (1 - r): zero at step 0, where h is
    dr *= r
    dr *= h
    np.multiply(hc, hc, out=dhc)            # z (1 - hc^2)
    np.subtract(_ONE, dhc, out=dhc)
    dhc *= z
    for i, (lo, hi) in reversed(list(enumerate(blocks))):
        g = dh[:hi - lo]
        if dx is not None:
            g += dx[lo:hi]
        dz[lo:hi] *= g
        dhc[lo:hi] *= g
        if i == 0:
            break   # nothing needs the zero state's gradient
        d_rh = dhc[lo:hi] @ U[2 * n:]
        dr[lo:hi] *= d_rh
        # dL/dh = dh' (1 - z) + d_rh r + [dz; dr] U_zr
        g *= keep[lo:hi]
        d_rh *= r[lo:hi]
        g += d_rh
        g += deltas[lo:hi, :2 * n] @ U[:2 * n]
    del keep
    # U's rows are products over the packed steps, of the deltas with h
    # (z, r) and with r h (h).  Step 0's rows have h = r h = 0: they start
    # after it.
    lo = blocks[1][0] if len(blocks) > 1 else len(deltas)
    return deltas, [Product(deltas[lo:, :2 * n], h[lo:]),
                    Product(deltas[lo:, 2 * n:], h[lo:] * r[lo:]), deltas.sum(axis=0)]


class Gradients(Mapping):
    """The gradient ``backward`` returns.  ``pieces`` tile the parameters'
    layout in order, the form ``rmsprop_step`` takes: the gru1.W gradient
    as ``optim.Columns`` (the columns of the tokens in the batch), the
    gru1.U, gru2.W, gru2.U and head W1 gradients as ``optim.Product``
    factor pairs, and the biases and the heads' W2 as flat arrays.  As a
    mapping, PARAM_NAMES -> array, it reads ``formed``.  Reading it leaves
    ``pieces`` as they were."""

    def __init__(self, sizes: ModelSizes, pieces: list):
        self.sizes, self.pieces = sizes, pieces

    @functools.cached_property
    def formed(self) -> ModelParams:
        """The whole gradient, formed once into a buffer laid out like the
        parameters."""
        formed = ModelParams.new(self.sizes)
        form_gradient(self.pieces, formed.data)
        return formed

    def __getitem__(self, name: str) -> np.ndarray:
        return self.formed.flat()[name]

    def __iter__(self):
        return iter(PARAM_NAMES)

    def __len__(self) -> int:
        return len(PARAM_NAMES)


def backward(params: ModelParams, batch, trace: ForwardTrace,
             verb_out_grad: np.ndarray, state_out_grad: np.ndarray) -> Gradients:
    """Exact reverse-mode gradients of the batch-summed loss with respect to
    every parameter, given dLoss/dOutput for each head.

    The gradient comes as its pieces in layout order (see ``Gradients``):
    the gru1.W gradient as the columns of the tokens present, the gru1.U,
    gru2.W, gru2.U and head W1 gradients as factor pairs, and the biases
    and the heads' W2 as eight small flat arrays, so that no piece grows
    with the vocabulary.
    """
    if trace.token_matrix is not batch.token_matrix and not np.array_equal(
        trace.token_matrix, batch.token_matrix
    ):
        raise ValueError("trace does not belong to this batch")
    g1, g2 = params.gru1, params.gru2
    verb, dh_verb = _head_backward(params.verb_head, trace.h_final, trace.verb_head,
                                   verb_out_grad)
    state, dh_state = _head_backward(params.state_head, trace.h_final, trace.state_head,
                                     state_out_grad)

    dh2 = (dh_verb + dh_state)[trace.order]
    d2, ub2 = _layer_backward(g2.U, trace.gru2, trace.blocks, dh2)
    dx1 = d2 @ g2.W

    dh1 = np.zeros((len(trace.order), g1.U.shape[1]))
    d1, ub1 = _layer_backward(g1.U, trace.gru1, trace.blocks, dh1, dx=dx1)
    # Sum each token's input deltas with one one-hot GEMM over the tokens
    # present (in increasing order): the values of those tokens' columns.
    present = np.flatnonzero(np.bincount(trace.tokens))
    which = np.zeros(present[-1] + 1, dtype=np.intp)
    which[present] = np.arange(len(present))
    one_hot = np.zeros((len(present), len(trace.tokens)))
    one_hot[which[trace.tokens], np.arange(len(trace.tokens))] = 1.0
    W1 = Columns((one_hot @ d1).T, present, g1.W.shape)
    return Gradients(params.sizes, [W1, *ub1, Product(d2, trace.gru1.h_out), *ub2, *verb,
                                    *state])


# ---------------------------------------------------------------------------
# Checkpointing: magic "TANL", u32 version, u32 metadata length, JSON
# metadata, u32 array count, then the array table ``_table`` lists, each
# array as its ``_header`` and raw little-endian float64 data, for a
# bit-exact round trip.  GRU parameters are stored one array per gate.  Only
# this table loads: the fingerprinted layout fixes every header and so the
# file's length.
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: ModelParams
    epoch: int
    best_val_error: float
    seeds: dict
    rmsprop: RmsPropState | None = None
    vocabs: dict | None = None      # {"text": [...], "verb": [...], "state": [...]}


def _table(params: ModelParams, cache: ModelParams | None = None) -> dict[str, np.ndarray]:
    """The file's arrays in order: every parameter (PARAM_NAMES), then, with
    a cache, each of its arrays as ``rmsprop.<name>``."""
    table = params.flat()
    if cache is not None:
        table.update((f"rmsprop.{name}", arr) for name, arr in cache.flat().items())
    return table


def _header(name: str, arr: np.ndarray) -> bytes:
    """An array's header: u16 name length, name, u8 ndim, u64 dims."""
    name_bytes = name.encode()
    return struct.pack(f"<H{len(name_bytes)}sB{arr.ndim}Q", len(name_bytes), name_bytes,
                       arr.ndim, *arr.shape)


@functools.cache
def _headers(stored: bool) -> tuple[int, int]:
    """The count and total length of a file's array headers, with or without
    the optimizer's.  Neither depends on the sizes, so a one-unit model's
    table gives them."""
    unit = ModelParams.new(ModelSizes(1, 1, 1, 1, 1, 1))
    headers = [_header(*item) for item in _table(unit, unit if stored else None).items()]
    return len(headers), sum(map(len, headers))


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` as a v1 file, one header and body per array, straight
    from its arrays.  The file is written under a temporary name in the same
    directory and renamed over ``path`` only when complete, so an error or a
    crash mid-write leaves any earlier file at ``path`` as it was."""
    opt = ckpt.rmsprop
    arrays = _table(ckpt.params, None if opt is None else opt.cache)
    meta = {
        "fingerprint": ckpt.params.sizes.fingerprint(),
        "epoch": ckpt.epoch,
        "best_val_error": None if np.isinf(ckpt.best_val_error) else ckpt.best_val_error,
        "seeds": ckpt.seeds,
        "rmsprop": None if opt is None else {k: getattr(opt, k) for k in RMSPROP_SETTINGS},
        "vocabs": ckpt.vocabs,
    }
    meta_bytes = json.dumps(meta).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<II", CKPT_VERSION, len(meta_bytes)))
            fh.write(meta_bytes)
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                fh.write(_header(name, arr))
                fh.write(np.ascontiguousarray(arr, dtype="<f8").data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_meta(meta, path) -> None:
    """Raise CheckpointError, naming ``path`` and the key, unless the dict
    ``meta`` holds every key of META_TYPES with a type it allows, each integer
    where a float may stand converts to one (in place), and each stored
    vocabulary is a list of distinct strings."""
    meta.setdefault("vocabs", None)
    for name, types in META_TYPES.items():
        parent, _, key = name.rpartition(".")
        obj = meta[parent] if parent else meta
        if obj is None:
            continue
        if key not in obj:
            raise CheckpointError(f"checkpoint metadata lacks {name!r} in {path}")
        value = obj[key]
        # A JSON boolean decodes as a Python int, but is no number here.
        if isinstance(value, bool) or not isinstance(value, types):
            raise CheckpointError(f"checkpoint metadata {name!r} has the wrong type "
                                  f"({type(value).__name__}) in {path}")
        if isinstance(value, int) and isinstance(0.0, types):
            try:
                obj[key] = float(value)
            except OverflowError:
                raise CheckpointError(f"checkpoint metadata {name!r} is too large for a float "
                                      f"in {path}") from None
        # Fewer distinct strings than entries: a duplicate or a non-string.
        if parent == "vocabs" and len({t for t in value if isinstance(t, str)}) != len(value):
            raise CheckpointError(f"checkpoint metadata {name!r} is not a list of distinct "
                                  f"strings in {path}")


def load_checkpoint(path, optimizer: bool = True) -> Checkpoint:
    """Stream a checkpoint from disk, reading each array straight into its
    place in one flat parameter buffer (see ``ModelParams``) and, for the
    optimizer, one cache buffer with the same layout: no second copy.

    The metadata must name a layout fingerprint and hold the keys and types
    of META_TYPES.  The layout then fixes the file: only the table that
    ``save_checkpoint`` writes for it loads, with each array's header as
    written, and the file's length must be that table's to the byte.  The
    length is checked before anything is allocated.

    With ``optimizer=False`` the read stops after the parameters and
    ``rmsprop`` is None: what inference needs, for half the bytes read.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    size = path.stat().st_size
    with path.open("rb") as fh:
        def take(n):
            if n > size - fh.tell() or len(chunk := fh.read(n)) < n:
                raise CheckpointError(f"truncated checkpoint: {path}")
            return chunk

        def expect(data, what):
            if take(len(data)) != data:
                raise CheckpointError(f"{what}: {path}")

        expect(CKPT_MAGIC, "not a checkpoint file (bad magic)")
        version, meta_len = struct.unpack("<II", take(8))
        if version != CKPT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} in {path}")
        try:
            meta = json.loads(take(meta_len).decode("utf-8"))
        except ValueError as exc:
            raise CheckpointError(f"unreadable checkpoint metadata in {path}: {exc}") from None
        if not isinstance(meta, dict):
            raise CheckpointError(f"checkpoint metadata is not a JSON object in {path}")
        sizes = ModelSizes.from_fingerprint(meta.get("fingerprint"))
        if sizes is None:
            raise CheckpointError(f"unrecognized layout fingerprint {meta.get('fingerprint')!r} "
                                  f"in {path}")
        _check_meta(meta, path)

        stored = meta["rmsprop"] is not None
        count, header_bytes = _headers(stored)
        expected = fh.tell() + 4 + header_bytes + 8 * _count(sizes) * (1 + stored)
        if size != expected:
            small = size < expected
            raise CheckpointError(f"{'truncated' if small else 'trailing bytes in'} checkpoint: "
                                  f"{path} is too {'small' if small else 'large'} for layout "
                                  f"{meta['fingerprint']} ({size} bytes, not {expected})")
        expect(struct.pack("<I", count), f"checkpoint does not hold {count} arrays")

        params = ModelParams.new(sizes)
        cache = params.like(np.empty_like(params.data)) if optimizer and stored else None
        for name, arr in _table(params, cache).items():
            kind = "optimizer" if name.startswith("rmsprop.") else "parameter"
            expect(_header(name, arr), f"checkpoint missing {kind} array {name!r}")
            if fh.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"truncated checkpoint: {path}")
            if sys.byteorder != "little":
                arr.byteswap(inplace=True)

    best = meta["best_val_error"]
    return Checkpoint(
        params=params,
        epoch=meta["epoch"],
        best_val_error=np.inf if best is None else best,
        seeds=meta["seeds"],
        rmsprop=None if cache is None else RmsPropState(
            cache, **{k: meta["rmsprop"][k] for k in RMSPROP_SETTINGS}),
        vocabs=meta["vocabs"],
    )


def check_fingerprint(found: str, expected: str) -> None:
    if found != expected:
        raise CheckpointError(
            f"checkpoint layout {found} does not match configured layout {expected}"
        )
