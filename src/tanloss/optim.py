"""RMSProp: divide each gradient by a running average of its recent magnitude.

Per coordinate: cache <- rho*cache + (1-rho)*g^2, then
theta <- theta - lr * g / (sqrt(cache) + eps).

Parameters and cache are ``ModelParams``, the same layout over one flat
buffer each.  The gradient is an ordered list of pieces that tile the
layout, as ``backward`` returns it: each piece a flat array or an array
held in a form whose size is bounded by the batch, a factor pair
(``Product``: the array is a.T @ b) or the columns of the tokens present
(``Columns``: zero outside them).  A flat gradient buffer is the list of
one piece.  One walk (``_walk``) visits the pieces in order, each flat
array as it lies and each other piece one row panel of about CHUNK
elements at a time, formed into one scratch buffer: a product by one GEMM,
columns by a zero fill and a scatter.  Forming the whole gradient, the
finite scan and the step all take that walk, so no such piece exists whole
on any path; the step updates each array and panel while it is in cache.
A gradient of at most CHUNK elements (toy size) is formed whole first and
updated as one array.  ``ModelParams`` (from ``network``) is named in
annotations only, so that ``network`` can import from here.
"""

import math
from dataclasses import dataclass

import numpy as np

# Elements per block of the in-place update: a block's operands and
# temporaries stay in cache between its passes.  2**16 updates a toy-size
# model (36 k parameters) in one block; at paper size 2**15 and 2**16 time
# the same.
BLOCK = 1 << 16
# Product elements formed at a time (2**18: 163 rows of 1600).  A row
# panel of a product then runs near the whole GEMM's rate: on one thread,
# the paper-size gru1.U and gru2.W gradients of a 32-sentence batch took
# 1.1-1.2x as long in panels of 128-256 rows as whole, and 1.7x in panels
# of 20 rows (2**15 elements).
CHUNK = 1 << 18


@dataclass
class RmsPropState:
    """``cache`` holds each parameter's running average of squared
    gradients: the parameters' layout over a buffer of its own."""

    cache: "ModelParams"
    lr: float = 1e-4
    rho: float = 0.9
    eps: float = 1e-8

    @classmethod
    def fresh(cls, params: "ModelParams", lr: float = 1e-4) -> "RmsPropState":
        return cls(cache=params.like(np.zeros_like(params.data)), lr=lr)


def _norm(x: np.ndarray) -> float:
    """The Frobenius norm of ``x``: inf or nan when an element is, and may
    be inf for finite elements above about 1e154."""
    strided = x.ndim == 2 and not x.flags.c_contiguous
    return math.sqrt(np.einsum("ij,ij->", x, x) if strided else np.vdot(x, x))


@dataclass(eq=False, slots=True)
class Product:
    """A gradient array held as two factors: it is a.T @ b, row-major."""

    a: np.ndarray     # (K, rows)
    b: np.ndarray     # (K, cols)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape[1], self.b.shape[1]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def panel(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows [lo, hi) of the array, formed into ``out``."""
        return np.matmul(self.a[:, lo:hi].T, self.b, out=out)

    def proven_finite(self) -> bool:
        """True when |a| |b| < 1e300 in the Frobenius norm, which bounds
        every element and every partial sum of a.T @ b (Cauchy-Schwarz): no
        element can then overflow.  A non-finite factor fails the test."""
        return _norm(self.a) * _norm(self.b) < 1e300


@dataclass(eq=False, slots=True)
class Columns:
    """A gradient array of the given ``shape`` that is zero but in the
    columns ``index`` (increasing), which hold ``values``."""

    values: np.ndarray    # (rows, len(index))
    index: np.ndarray
    shape: tuple[int, int]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def panel(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows [lo, hi) of the array, formed into ``out``."""
        out.fill(0.0)
        out[:, self.index] = self.values[lo:hi]
        return out

    def proven_finite(self) -> bool:
        """True when the values' sum of squares is finite."""
        return math.isfinite(_norm(self.values))


def _panels(rows: int, cols: int, limit: int):
    """The row panels [lo, hi) of a product: max(2, limit // cols) rows
    each, the last one taking a lone leftover row.  Which rows share a GEMM
    can change the kernel BLAS takes and so the last bits, so a product is
    only ever formed in these panels, and a GEMM of one row (a GEMV) is
    never one of them unless the product has one row."""
    step = max(2, limit // cols)
    lo = 0
    while lo < rows:
        hi = rows if rows - lo <= step + 1 else lo + step
        yield lo, hi
        lo = hi


def _walk(pieces: list):
    """The gradient whose ``pieces`` tile the layout in order, as (offset,
    values) pairs: a flat array as it lies, a ``Product`` or
    ``Columns`` one row panel (``_panels`` of CHUNK elements) at a time,
    formed into one scratch buffer, which the next panel overwrites."""
    # A panel of ``_panels`` holds at most its step plus one row.
    formed = np.empty(max((min(rows, max(2, CHUNK // cols) + 1) * cols for rows, cols in
                           (p.shape for p in pieces if not isinstance(p, np.ndarray))), default=0))
    at = 0
    for piece in pieces:
        if isinstance(piece, np.ndarray):
            yield at, piece
        else:
            cols = piece.shape[1]
            for lo, hi in _panels(*piece.shape, CHUNK):
                out = formed[:(hi - lo) * cols].reshape(-1, cols)
                yield at + lo * cols, piece.panel(lo, hi, out).ravel()
        at += piece.size


def form_gradient(pieces: list, out: np.ndarray) -> np.ndarray:
    """Write the whole gradient into the flat buffer ``out``."""
    for at, g in _walk(pieces):
        out[at:at + g.size] = g
    return out


def _coordinate(params: "ModelParams", i: int) -> str:
    """The name and coordinate of element ``i`` of the flat buffer."""
    for name, theta in params.flat().items():
        if i < theta.size:
            return f"{name}{[int(c) for c in np.unravel_index(i, theta.shape)]}"
        i -= theta.size
    raise IndexError(i)


def _check_finite(params: "ModelParams", pieces: list):
    """Raise ValueError naming the first non-finite gradient element in
    layout order, if there is one.  A finite sum of squares proves a flat
    array finite, and ``proven_finite`` any other; unless every piece is
    proven, the walk scans the whole gradient, so a product or columns piece
    too is scanned one row panel at a time."""
    if all(math.isfinite(_norm(p)) if isinstance(p, np.ndarray) else p.proven_finite()
           for p in pieces):
        return
    for at, g in _walk(pieces):
        bad = np.flatnonzero(~np.isfinite(g))
        if bad.size:
            raise ValueError(f"non-finite gradient at {_coordinate(params, at + int(bad[0]))}")


def _update(theta: np.ndarray, cache: np.ndarray, g: np.ndarray, state: RmsPropState,
            scratch: np.ndarray):
    """The update of ``theta`` and ``cache`` by the gradient ``g`` (flat
    views of one length), in place, BLOCK elements at a time."""
    for b in range(0, g.size, BLOCK):
        gb, buf = g[b:b + BLOCK], scratch[:min(BLOCK, g.size - b)]
        th, c = theta[b:b + buf.size], cache[b:b + buf.size]
        # cache <- rho*cache + (1-rho)*g^2; theta -= lr*g / (sqrt(cache) + eps)
        c *= state.rho
        np.multiply(gb, gb, out=buf)
        buf *= 1.0 - state.rho
        c += buf
        np.sqrt(c, out=buf)
        buf += state.eps
        np.divide(gb, buf, out=buf)
        buf *= state.lr
        th -= buf


def rmsprop_step(params: "ModelParams", pieces: list, state: RmsPropState):
    """Apply one update in place; returns (params, state) for convenience.

    ``pieces`` tile the parameters' layout in order, as ``backward``
    returns them (``Gradients.pieces``): flat arrays, ``Product``s and
    ``Columns``.  Non-finite gradients are rejected with the offending
    array and coordinate named, before any parameter moves.
    """
    theta, cache = params.data, state.cache.data
    size = sum(p.size for p in pieces)
    if (size != theta.size or cache.shape != theta.shape
            or any(isinstance(p, np.ndarray) and p.ndim != 1 for p in pieces)):
        raise ValueError(f"gradient of {size} elements in flat pieces and cache shape "
                         f"{cache.shape} must match the parameters' shape {theta.shape}")
    if theta.size <= CHUNK:
        # The whole gradient fits in CHUNK: formed, it is one flat piece.
        # Walking its pieces instead (eight, when measured) cost toy-train
        # 5 % of its train_samples_per_s (medians of ten runs, one BLAS
        # thread).
        pieces = [form_gradient(pieces, np.empty(theta.size))]
    _check_finite(params, pieces)
    scratch = np.empty(min(BLOCK, theta.size))
    for at, g in _walk(pieces):
        _update(theta[at:at + g.size], cache[at:at + g.size], g, state, scratch)
    return params, state
