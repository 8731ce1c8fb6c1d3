"""RMSProp: divide each gradient by a running average of its recent magnitude.

Per coordinate: cache <- rho*cache + (1-rho)*g^2, then
theta <- theta - lr * g / (sqrt(cache) + eps).
"""

from dataclasses import dataclass

import numpy as np

from .network import ModelParams

# Elements per block of the in-place update.
BLOCK = 1 << 15


@dataclass
class RmsPropState:
    cache: dict[str, np.ndarray]
    lr: float = 1e-4
    rho: float = 0.9
    eps: float = 1e-8

    @classmethod
    def fresh(cls, params: ModelParams, lr: float = 1e-4, rho: float = 0.9,
              eps: float = 1e-8) -> "RmsPropState":
        return cls(cache={name: np.zeros_like(arr) for name, arr in params.flat().items()},
                   lr=lr, rho=rho, eps=eps)


def rmsprop_step(params: ModelParams, grads: dict[str, np.ndarray],
                 state: RmsPropState, clip: float | None = None):
    """Apply one update in place; returns (params, state) for convenience.

    Non-finite gradients are rejected with the offending coordinate named,
    before any parameter moves.  ``clip`` optionally bounds each gradient
    component before the update (off by default).
    """
    flat = params.flat()
    for name, theta in flat.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} does not match {name} {theta.shape}")
        # A finite sum proves every term finite; only otherwise look closer.
        if not np.isfinite(g.sum()) and not np.all(np.isfinite(g)):
            bad = np.argwhere(~np.isfinite(np.atleast_1d(g)))[0]
            raise ValueError(f"non-finite gradient at {name}{bad.tolist()}")

    # The update runs over row blocks of about BLOCK elements, so that a
    # block's operands and temporaries stay in cache between the passes.
    rows = {name: max(1, BLOCK * len(t) // t.size) for name, t in flat.items()}
    size = max(min(rows[name], len(t)) * (t.size // len(t)) for name, t in flat.items())
    scratch = np.empty((1 if clip is None else 2, size))
    for name, theta in flat.items():
        step = rows[name]
        for i in range(0, len(theta), step):
            th, g, cache = (a[i:i + step] for a in (theta, grads[name], state.cache[name]))
            buf = scratch[0, :g.size].reshape(g.shape)
            if clip is not None:
                g = np.clip(g, -clip, clip, out=scratch[1, :g.size].reshape(g.shape))
            # cache <- rho*cache + (1-rho)*g^2; theta -= lr*g / (sqrt(cache) + eps)
            cache *= state.rho
            np.multiply(g, g, out=buf)
            buf *= 1.0 - state.rho
            cache += buf
            np.sqrt(cache, out=buf)
            buf += state.eps
            np.divide(g, buf, out=buf)
            buf *= state.lr
            th -= buf
    return params, state
