#!/usr/bin/env python3
"""Time one training step per phase, for several text vocabulary sizes, and
the recurrent products of the forward pass, on one BLAS thread.

    python scripts/step_probe.py

For each text vocabulary size V in ``VOCABS`` the probe builds a model at
the paper's sizes (GRU 1600/800, heads of 500; 8 verbs, 6 states), draws one
batch of ``ROWS`` sentences of 4 to 8 tokens, and runs ``REPEATS`` training
steps on it, as the trainer runs them: ``forward``, ``backward`` of the
batch-mean tangent loss, and ``rmsprop_step`` on the gradient ``backward``
returns.  Each phase is reported at its fastest repeat, and the step at its
fastest whole repeat.  At V = 8000 the parameters and optimizer cache take
843 MB, and the gradient about 30 MB more.

It then times ``h @ M.T`` for each recurrent weight block M of the two GRU
layers (``U[:2n]`` and ``U[2n:]``: 3200 x 1600, 1600 x 1600, 1600 x 800 and
800 x 800) and each row count of h in ``PRODUCT_ROWS``, as one product and
through the forward pass's ``_few_row_product``, best of ``REPEATS`` each.

Prints one JSON line: the BLAS threads, the sizes, per V the parameter
count, the size of ``gru1.W``, the bytes the gradient holds (the arrays
its flat arrays, factors and present columns lie in) and the seconds of
each phase,
and per block and row count the seconds of both products.  The BLAS variables are set to
one thread before numpy is imported, whatever they were.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from tanloss.corpus import Sample, pad_batch
from tanloss.losses import tangent_loss_grad
from tanloss.network import ModelSizes, _few_row_product, backward, forward, init_params
from tanloss.optim import Columns, Product, RmsPropState, rmsprop_step

VERBS, STATES = 8, 6
VOCABS = [62, 2000, 8000]
SIZES = [1600, 800, 500]  # gru1, gru2, head
ROWS, REPEATS, SEED = 32, 5, 0
PRODUCT_ROWS = [1, 2, 4, 7, 8, 16, 24, 32, 128]


def probe(vocab: int, sizes: list[int], rows: int, repeats: int, seed: int) -> dict:
    """Best-of-``repeats`` seconds of each phase of one step at vocabulary
    size ``vocab``."""
    gru1, gru2, head = sizes
    model = ModelSizes(input_dim=vocab, verb_dim=VERBS, state_dim=STATES,
                       gru1_hidden=gru1, gru2_hidden=gru2, head_hidden=head)
    params = init_params(model, seed)
    opt = RmsPropState.fresh(params)
    rng = np.random.default_rng(seed)
    # The last index is the padding token, as in a text vocabulary.
    batch = pad_batch([Sample(rng.integers(0, vocab - 1, size=rng.integers(4, 9)).tolist(),
                              rng.integers(0, 2, VERBS).astype(float),
                              rng.integers(0, 2, STATES).astype(float))
                       for _ in range(rows)], pad_index=vocab - 1)
    times = {"forward_s": [], "backward_s": [], "rmsprop_step_s": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        verb_pred, state_pred, trace = forward(params, batch)
        t1 = time.perf_counter()
        grads = backward(params, batch, trace,
                         tangent_loss_grad(batch.verb_labels, verb_pred) / rows,
                         tangent_loss_grad(batch.state_labels, state_pred) / rows)
        t2 = time.perf_counter()
        del trace
        rmsprop_step(params, grads.pieces, opt)
        t3 = time.perf_counter()
        held = gradient_bytes(grads)
        del grads
        for key, seconds in zip(times, (t1 - t0, t2 - t1, t3 - t2)):
            times[key].append(seconds)
    steps = [sum(phases) for phases in zip(*times.values())]
    return {"vocab": vocab, "parameters": int(params.data.size),
            "gru1_W": int(params.gru1.W.size), "gradient_bytes": held,
            **{key: min(values) for key, values in times.items()}, "step_s": min(steps)}


def gradient_bytes(grads) -> int:
    """Bytes of the arrays a gradient from ``backward`` holds: once each,
    the arrays its pieces (small flat arrays, factors, and present columns
    with their indices) are or are views of."""
    def held(p):
        if isinstance(p, Product):
            return p.a, p.b
        return (p.values, p.index) if isinstance(p, Columns) else (p,)

    arrays = [f for p in grads.pieces for f in held(p)]
    owners = {id(o): o for o in (a if a.base is None else a.base for a in arrays)}
    return sum(o.nbytes for o in owners.values())


def best_of(repeats: int, call) -> float:
    """The fastest of ``repeats`` timed calls, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def products(sizes: list[int], row_counts: list[int], repeats: int, seed: int) -> list[dict]:
    """Best-of-``repeats`` seconds of ``h @ M.T`` for each recurrent block M
    of both GRU layers and each row count of h, as one product and through
    ``_few_row_product``."""
    rng = np.random.default_rng(seed)
    results = []
    for n in sizes[:2]:
        for M in (rng.standard_normal((2 * n, n)), rng.standard_normal((n, n))):
            for k in row_counts:
                h = rng.standard_normal((k, n))
                results.append({"block": list(M.shape), "rows": k,
                                "plain_s": best_of(repeats, lambda: h @ M.T),
                                "panels_s": best_of(repeats, lambda: _few_row_product(h, M))})
    return results


def main() -> int:
    results = [probe(v, SIZES, ROWS, REPEATS, SEED) for v in VOCABS]
    print(json.dumps({"blas_threads": 1, "sizes": SIZES, "rows": ROWS,
                      "repeats": REPEATS, "results": results,
                      "products": products(SIZES, PRODUCT_ROWS, REPEATS, SEED)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
