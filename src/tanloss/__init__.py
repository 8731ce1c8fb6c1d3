"""tanloss: a from-scratch GRU sequence classifier trained with a bounded
tangent loss and validated by a cross-entropy-gap error.

TANLOSS_THREADS=<n> caps BLAS worker threads.  BLAS libraries read their
thread settings once, when numpy is first imported, so the variable is
copied into them here, before any import of numpy; a BLAS variable that is
already set wins.
"""

import os

if os.environ.get("TANLOSS_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["TANLOSS_THREADS"])

__version__ = "0.1.0"
