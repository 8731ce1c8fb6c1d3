"""RMSProp: divide each gradient by a running average of its recent magnitude.

Per coordinate: cache <- rho*cache + (1-rho)*g^2, then
theta <- theta - lr * g / (sqrt(cache) + eps).

Parameters, gradients and cache are each one flat buffer with the layout of
``ModelParams.data``, so a step is one finite check and one pass over the
three buffers, whatever the number of named arrays.
"""

from dataclasses import dataclass

import numpy as np

from .network import PARAM_NAMES, ModelParams, as_flat

# Elements per block of the in-place update.
BLOCK = 1 << 15


@dataclass
class RmsPropState:
    """``cache`` maps each parameter name to its running average; the arrays
    are views of one flat buffer, ``data``, laid out like the parameters'.
    A cache given as separate arrays is packed into a new buffer."""

    cache: dict[str, np.ndarray]
    lr: float = 1e-4
    rho: float = 0.9
    eps: float = 1e-8

    def __post_init__(self):
        self.data, views = as_flat([self.cache[name] for name in PARAM_NAMES])
        self.cache = dict(zip(PARAM_NAMES, views))

    @classmethod
    def fresh(cls, params: ModelParams, lr: float = 1e-4, rho: float = 0.9,
              eps: float = 1e-8) -> "RmsPropState":
        return cls(cache=params.like(np.zeros_like(params.data)).flat(), lr=lr, rho=rho, eps=eps)


def _flat_grads(params: ModelParams, grads: dict[str, np.ndarray]) -> np.ndarray:
    """A name -> array gradient mapping packed into one flat buffer."""
    views = params.flat()
    for name, theta in views.items():
        if np.shape(grads[name]) != theta.shape:
            raise ValueError(f"gradient shape {np.shape(grads[name])} does not match "
                             f"{name} {theta.shape}")
    return np.concatenate([np.ravel(grads[name]) for name in views], dtype=np.float64)


def _coordinate(params: ModelParams, i: int) -> str:
    """The name and coordinate of element ``i`` of the flat buffer."""
    for name, theta in params.flat().items():
        if i < theta.size:
            return f"{name}{[int(c) for c in np.unravel_index(i, theta.shape)]}"
        i -= theta.size
    raise IndexError(i)


def rmsprop_step(params: ModelParams, grads, state: RmsPropState,
                 clip: float | None = None):
    """Apply one update in place; returns (params, state) for convenience.

    ``grads`` is a flat gradient buffer laid out like ``params.data`` (such
    as the ``data`` of the buffer ``backward`` fills) or a name -> array
    mapping, which is packed into one first.  Non-finite gradients are
    rejected with the offending array and coordinate named, before any
    parameter moves.  ``clip`` optionally bounds each gradient component
    before the update (off by default).
    """
    theta, cache = params.data, state.data
    g = grads if isinstance(grads, np.ndarray) else _flat_grads(params, grads)
    if g.shape != theta.shape or cache.shape != theta.shape:
        raise ValueError(f"gradient shape {g.shape} and cache shape {cache.shape} must "
                         f"match the parameters' {theta.shape}")
    # A finite sum proves every term finite; only otherwise look closer.
    if not np.isfinite(g.sum()) and not np.all(np.isfinite(g)):
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise ValueError(f"non-finite gradient at {_coordinate(params, bad)}")

    # The update runs over blocks of BLOCK elements, so that a block's
    # operands and temporaries stay in cache between the passes.
    scratch = np.empty((1 if clip is None else 2, min(BLOCK, g.size)))
    for lo in range(0, g.size, BLOCK):
        th, gb, c = theta[lo:lo + BLOCK], g[lo:lo + BLOCK], cache[lo:lo + BLOCK]
        buf = scratch[0, :gb.size]
        if clip is not None:
            gb = np.clip(gb, -clip, clip, out=scratch[1, :gb.size])
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
