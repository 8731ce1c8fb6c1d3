"""RMSProp: divide each gradient by a running average of its recent magnitude.

Per coordinate: cache <- rho*cache + (1-rho)*g^2, then
theta <- theta - lr * g / (sqrt(cache) + eps).

Parameters and cache are ``ModelParams``, the same layout over one flat
buffer each, and the gradient is a third flat buffer with that layout, so a
step is one finite check and one pass over the three buffers, whatever the
number of named arrays.  ``ModelParams`` (from ``network``) is named in
annotations only, so that ``network`` can import ``RmsPropState`` for its
checkpoints.
"""

from dataclasses import dataclass

import numpy as np

# Elements per block of the in-place update.
BLOCK = 1 << 15


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


def _coordinate(params: "ModelParams", i: int) -> str:
    """The name and coordinate of element ``i`` of the flat buffer."""
    for name, theta in params.flat().items():
        if i < theta.size:
            return f"{name}{[int(c) for c in np.unravel_index(i, theta.shape)]}"
        i -= theta.size
    raise IndexError(i)


def rmsprop_step(params: "ModelParams", grads: np.ndarray, state: RmsPropState):
    """Apply one update in place; returns (params, state) for convenience.

    ``grads`` is a flat gradient buffer laid out like ``params.data``, such
    as the ``data`` of the buffer ``backward`` fills.  Non-finite gradients
    are rejected with the offending array and coordinate named, before any
    parameter moves.
    """
    theta, cache, g = params.data, state.cache.data, grads
    if g.shape != theta.shape or cache.shape != theta.shape:
        raise ValueError(f"gradient shape {g.shape} and cache shape {cache.shape} must "
                         f"match the parameters' {theta.shape}")
    # A finite sum proves every term finite; only otherwise look closer.
    if not np.isfinite(g.sum()) and not np.all(np.isfinite(g)):
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise ValueError(f"non-finite gradient at {_coordinate(params, bad)}")

    # The update runs over blocks of BLOCK elements, so that a block's
    # operands and temporaries stay in cache between the passes.
    scratch = np.empty(min(BLOCK, g.size))
    for lo in range(0, g.size, BLOCK):
        th, gb, c = theta[lo:lo + BLOCK], g[lo:lo + BLOCK], cache[lo:lo + BLOCK]
        buf = scratch[:gb.size]
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
    return params, state
