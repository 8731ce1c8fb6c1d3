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

from .corpus import (Batch, DataError, DatasetSplit, Sample, SyntheticConfig, Vocabulary,
                     generate_synthetic_corpus, ingest_jsonl, load_vocab, make_batches,
                     pad_batch, save_vocab, split_dataset)
from .evaluation import EvalReport, binarize, evaluate, one_missing_match
from .losses import (batch_error, cross_entropy, error_epsilon, softmax_pmf, tangent_loss,
                     tangent_loss_grad)
from .network import (Checkpoint, CheckpointError, ForwardTrace, GruLayerParams, MlpHeadParams,
                      ModelParams, ModelSizes, backward, forward, init_params, load_checkpoint,
                      save_checkpoint)
from .optim import RmsPropState, rmsprop_step
from .training import (TrainConfig, TrainLogRecord, TrainResult, gradient_check, resume,
                       total_loss, train, validation_error)

__version__ = "0.1.0"
