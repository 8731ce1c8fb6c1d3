"""RMSProp: divide each gradient by a running average of its recent magnitude.

Per coordinate: cache <- rho*cache + (1-rho)*g^2, then
theta <- theta - lr * g / (sqrt(cache) + eps).

Parameters and cache are ``ModelParams``, the same layout over one flat
buffer each.  The gradient comes as ``backward`` produces it: the large
weight gradients as factor pairs (``Product``: the array is a.T @ b), every
other element in one dense buffer.  A step walks the layout in order: it
updates each run of dense elements straight from the dense buffer, and
forms each product one row panel of about CHUNK elements at a time (one
GEMM into a scratch buffer) and updates that panel, so no product exists
whole.  A gradient of at most CHUNK elements (toy size) is formed whole
first.  A flat gradient buffer is the case with no products.
``ModelParams`` (from ``network``) is named in annotations only, so that
``network`` can import from here.
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


@dataclass(eq=False, slots=True)
class Product:
    """A gradient array held as two factors: it is a.T @ b, row-major, and
    starts at element ``start`` of the layout."""

    start: int
    a: np.ndarray     # (K, rows)
    b: np.ndarray     # (K, cols)

    def rows(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows [lo, hi) of the array, one GEMM."""
        return np.matmul(self.a[:, lo:hi].T, self.b, out=out)

    def form(self, out: np.ndarray | None = None) -> np.ndarray:
        """The whole array, formed in the row panels a step forms it in."""
        rows, cols = self.a.shape[1], self.b.shape[1]
        out = np.empty((rows, cols)) if out is None else out
        for lo, hi in _panels(rows, cols, CHUNK):
            self.rows(lo, hi, out=out[lo:hi])
        return out

    def proven_finite(self) -> bool:
        """True when |a| |b| < 1e300 in the Frobenius norm, which bounds
        every element and every partial sum of a.T @ b (Cauchy-Schwarz): no
        element can then overflow.  A non-finite factor fails the test."""
        def norm(x):
            return math.sqrt(np.vdot(x, x) if x.flags.c_contiguous
                             else np.einsum("ij,ij->", x, x))
        return norm(self.a) * norm(self.b) < 1e300


def _panels(rows: int, cols: int, limit: int):
    """The row panels [lo, hi) of a product: max(2, limit // cols) rows
    each, the last one taking a lone leftover row.  Which rows share a GEMM
    can change the kernel BLAS takes and so the last bits, so every caller
    forms a product in these panels, and a GEMV (one row) is never one."""
    step = max(2, limit // cols)
    lo = 0
    while lo < rows:
        hi = rows if rows - lo <= step + 1 else lo + step
        yield lo, hi
        lo = hi


def _segments(size: int, shapes: tuple):
    """The layout [0, size) in order as pieces (lo, hi, i, first): layout
    elements [lo, hi), which are the whole of product i (``first`` None)
    or, with i None, a run of dense elements from offset ``first`` of the
    dense buffer.  ``shapes`` holds each product's (start, rows, cols), by
    start."""
    pos = offset = 0
    for i, (start, rows, cols) in enumerate([*shapes, (size, 0, 0)]):
        if pos < start:
            yield pos, start, None, offset
            offset += start - pos
        if rows:
            yield start, start + rows * cols, i, None
        pos = start + rows * cols


def _shapes(products: list[Product]) -> tuple:
    """Each product's (start, rows, cols): all that ``_segments`` reads."""
    return tuple((p.start, p.a.shape[1], p.b.shape[1]) for p in products)


def form_gradient(dense: np.ndarray, products: list[Product], out: np.ndarray) -> np.ndarray:
    """Write the whole gradient into the flat buffer ``out``."""
    for lo, hi, i, first in _segments(out.size, _shapes(products)):
        if i is None:
            out[lo:hi] = dense[first:first + hi - lo]
        else:
            products[i].form(out[lo:hi].reshape(-1, products[i].b.shape[1]))
    return out


def _coordinate(params: "ModelParams", i: int) -> str:
    """The name and coordinate of element ``i`` of the flat buffer."""
    for name, theta in params.flat().items():
        if i < theta.size:
            return f"{name}{[int(c) for c in np.unravel_index(i, theta.shape)]}"
        i -= theta.size
    raise IndexError(i)


def _check_finite(params: "ModelParams", dense: np.ndarray, products: list[Product]):
    """Raise ValueError naming the first non-finite gradient element in
    layout order, if there is one.  A finite sum of squares (one BLAS dot
    product) proves the dense buffer finite, and ``proven_finite`` a
    product; only what is not proven is scanned, a product formed whole for
    it."""
    dense_ok = np.isfinite(np.vdot(dense, dense))
    unproven = [p for p in products if not p.proven_finite()]
    if dense_ok and not unproven:
        return
    for lo, hi, i, first in _segments(params.data.size, _shapes(products)):
        if i is None:
            part = None if dense_ok else dense[first:first + hi - lo]
        else:
            p = products[i]
            part = p.form().ravel() if p in unproven else None
        if part is not None and not np.all(np.isfinite(part)):
            bad = lo + int(np.flatnonzero(~np.isfinite(part))[0])
            raise ValueError(f"non-finite gradient at {_coordinate(params, bad)}")


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


def rmsprop_step(params: "ModelParams", grads, state: RmsPropState):
    """Apply one update in place; returns (params, state) for convenience.

    ``grads`` is what ``backward`` returns, an object with ``dense`` (every
    gradient element outside its products, in layout order) and
    ``products`` (``Product``s by start), or a flat gradient buffer laid out
    like ``params.data``.  Non-finite gradients are rejected with the
    offending array and coordinate named, before any parameter moves.
    """
    theta, cache = params.data, state.cache.data
    dense, products = (grads, []) if isinstance(grads, np.ndarray) else (grads.dense,
                                                                         grads.products)
    shapes = _shapes(products)
    n_dense = theta.size - sum(rows * cols for _, rows, cols in shapes)
    if dense.shape != (n_dense,) or cache.shape != theta.shape:
        raise ValueError(f"gradient shape {dense.shape} and cache shape {cache.shape} must "
                         f"match the parameters' {theta.shape}")
    if products and theta.size <= CHUNK:
        # The whole gradient fits in CHUNK: formed, it is a flat buffer.
        dense, products = form_gradient(dense, products, np.empty(theta.size)), []
        shapes = ()
    formed = np.empty(max(((hi - lo) * cols for _, rows, cols in shapes
                           for lo, hi in _panels(rows, cols, CHUNK)), default=0))
    _check_finite(params, dense, products)
    scratch = np.empty(min(BLOCK, theta.size))
    for lo, hi, i, first in _segments(theta.size, shapes):
        if i is None:
            _update(theta[lo:hi], cache[lo:hi], dense[first:first + hi - lo], state, scratch)
            continue
        p, cols = products[i], shapes[i][2]
        for r, end in _panels(shapes[i][1], cols, CHUNK):
            g = p.rows(r, end, out=formed[:(end - r) * cols].reshape(-1, cols)).ravel()
            at = lo + r * cols
            _update(theta[at:at + g.size], cache[at:at + g.size], g, state, scratch)
    return params, state
