"""Vocabularies, samples, batching, dataset ingestion, and the synthetic corpus.

Three vocabularies are in play: text (input tokens, with UNK and PAD), verb
and state change (label tokens, with UNK only).  Unknown tokens always map to
UNK; PAD exists only on the input side.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

UNK_TOKEN = "UNK"
PAD_TOKEN = "PAD"


class DataError(ValueError):
    """Malformed vocab file, dataset record, or label content."""


@dataclass
class Vocabulary:
    """Ordered token <-> index map with reserved UNK (and PAD for text)."""

    tokens: list[str]
    index_of: dict[str, int]
    unk_index: int
    pad_index: int | None = None

    @classmethod
    def from_tokens(cls, tokens: list[str], with_pad: bool = False) -> "Vocabulary":
        seen: dict[str, int] = {}
        for i, tok in enumerate(tokens):
            if tok in seen:
                raise DataError(f"duplicate token {tok!r} at line {i + 1}")
            seen[tok] = i
        ordered = list(tokens)
        if UNK_TOKEN not in seen:
            seen[UNK_TOKEN] = len(ordered)
            ordered.append(UNK_TOKEN)
        pad_index = None
        if with_pad:
            if PAD_TOKEN not in seen:
                seen[PAD_TOKEN] = len(ordered)
                ordered.append(PAD_TOKEN)
            pad_index = seen[PAD_TOKEN]
        return cls(tokens=ordered, index_of=seen, unk_index=seen[UNK_TOKEN], pad_index=pad_index)

    def __len__(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        return self.index_of.get(token, self.unk_index)


def read_utf8(path: Path, error: type[Exception]) -> str:
    """The text of the file ``path``; raises ``error`` naming the file if it
    is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_vocab(path, with_pad: bool = False) -> Vocabulary:
    """Read a newline-delimited vocab file; UNK (and PAD if ``with_pad``)
    are appended when absent.  Blank lines and duplicates are rejected with
    their line number."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"vocab file not found: {path}")
    lines = read_utf8(path, DataError).splitlines()
    if not lines:
        raise DataError(f"vocab file is empty: {path}")
    for i, line in enumerate(lines):
        if line == "":
            raise DataError(f"{path}: blank line at line {i + 1}")
    try:
        return Vocabulary.from_tokens(lines, with_pad=with_pad)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_vocab(vocab: Vocabulary, path) -> None:
    """Write one token per line, preserving index order."""
    Path(path).write_text("\n".join(vocab.tokens) + "\n", encoding="utf-8")


@dataclass
class Sample:
    tokens: list[int]
    verb_label: np.ndarray
    state_label: np.ndarray


@dataclass
class Batch:
    """Padded token matrix (B x T) plus true lengths and label matrices."""

    token_matrix: np.ndarray
    lengths: np.ndarray
    verb_labels: np.ndarray
    state_labels: np.ndarray

    def __len__(self) -> int:
        return self.token_matrix.shape[0]


@dataclass
class DatasetSplit:
    train: list[Sample]
    validation: list[Sample]
    split_seed: int


def _multi_hot(names: list[str], vocab: Vocabulary) -> np.ndarray:
    vec = np.zeros(len(vocab), dtype=np.float64)
    for name in names:
        vec[vocab.lookup(name)] = 1.0
    return vec


def ingest_jsonl(path, text_vocab: Vocabulary, verb_vocab: Vocabulary,
                 state_vocab: Vocabulary) -> list[Sample]:
    """Load samples from a JSONL file with fields "tokens", "verbs", "states".

    Unknown tokens map to UNK; unknown label names set the UNK position of
    the multi-hot vector.  Malformed lines are rejected with their line
    number.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    samples = []
    for lineno, line in enumerate(read_utf8(path, DataError).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {lineno}: not valid JSON ({exc.msg})") from None
        except RecursionError:
            raise DataError(f"{path}: line {lineno}: JSON nested too deeply") from None
        if not isinstance(record, dict):
            raise DataError(f"{path}: line {lineno}: record is not an object")
        for key in ("tokens", "verbs", "states"):
            if key not in record:
                raise DataError(f"{path}: line {lineno}: missing field {key!r}")
            if not isinstance(record[key], list) or not all(isinstance(x, str)
                                                             for x in record[key]):
                raise DataError(f"{path}: line {lineno}: field {key!r} must be a list of strings")
        if not record["tokens"]:
            raise DataError(f"{path}: line {lineno}: empty tokens field")
        samples.append(Sample(tokens=[text_vocab.lookup(t) for t in record["tokens"]],
                              verb_label=_multi_hot(record["verbs"], verb_vocab),
                              state_label=_multi_hot(record["states"], state_vocab)))
    return samples


def sample_to_record(sample: Sample, text_vocab: Vocabulary, verb_vocab: Vocabulary,
                     state_vocab: Vocabulary) -> dict:
    """Inverse of ingestion for writing datasets back to JSONL."""
    return {
        "tokens": [text_vocab.tokens[i] for i in sample.tokens],
        "verbs": [verb_vocab.tokens[i] for i in np.flatnonzero(sample.verb_label)],
        "states": [state_vocab.tokens[i] for i in np.flatnonzero(sample.state_label)],
    }


def write_jsonl(samples: list[Sample], path, text_vocab: Vocabulary,
                verb_vocab: Vocabulary, state_vocab: Vocabulary) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample_to_record(sample, text_vocab, verb_vocab, state_vocab)))
            fh.write("\n")


def split_dataset(samples: list[Sample], validation_fraction: float, seed: int) -> DatasetSplit:
    """Deterministic shuffle by seed; the first ceil(N * fraction) of the
    shuffled order become the validation set."""
    if not 0.0 < validation_fraction < 1.0:
        raise ValueError(f"validation_fraction must be in (0, 1), got {validation_fraction}")
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to split")
    order = np.random.default_rng(seed).permutation(len(samples))
    n_val = math.ceil(len(samples) * validation_fraction)
    validation = [samples[i] for i in order[:n_val]]
    train = [samples[i] for i in order[n_val:]]
    return DatasetSplit(train=train, validation=validation, split_seed=seed)


def pad_batch(chunk: list[Sample], pad_index: int) -> Batch:
    """Assemble one Batch, padding rows with ``pad_index`` to the chunk
    maximum length."""
    lengths = np.array([len(s.tokens) for s in chunk], dtype=np.int64)
    matrix = np.full((len(chunk), int(lengths.max())), pad_index, dtype=np.int64)
    for r, sample in enumerate(chunk):
        matrix[r, : len(sample.tokens)] = sample.tokens
    return Batch(
        token_matrix=matrix,
        lengths=lengths,
        verb_labels=np.stack([s.verb_label for s in chunk]),
        state_labels=np.stack([s.state_label for s in chunk]),
    )


def make_batches(samples: list[Sample], batch_size: int, pad_index: int,
                 seed: int | None = None, max_tokens: float = math.inf) -> list[Batch]:
    """Batches of up to ``batch_size`` samples and ``max_tokens`` tokens (a
    longer sample is a batch alone), each padded to its maximum length: in
    input order, or in the order of a deterministic shuffle by ``seed``.
    Each batch takes samples until the next one would break a cap."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = (np.arange(len(samples)) if seed is None
             else np.random.default_rng(seed).permutation(len(samples)))
    batches, chunk, tokens = [], [], 0
    for sample in (samples[i] for i in order):
        if chunk and (len(chunk) == batch_size or tokens + len(sample.tokens) > max_tokens):
            batches.append(pad_batch(chunk, pad_index))
            chunk, tokens = [], 0
        chunk.append(sample)
        tokens += len(sample.tokens)
    if chunk:
        batches.append(pad_batch(chunk, pad_index))
    return batches


# ---------------------------------------------------------------------------
# Synthetic corpus generator: a desk-scale, perfectly learnable stand-in.
# Trigger tokens (the verb names themselves) determine the verb label, and a
# fixed verb -> state table determines the state label; filler tokens carry
# no label information.  An exact lookup over triggers therefore achieves
# 100% accuracy, which the end-to-end tests use as their oracle.
# ---------------------------------------------------------------------------

_VERB_NAMES = ["bake", "mix", "chop", "whisk", "boil", "freeze", "knead", "grate"]
_STATE_NAMES = ["cookedness", "temperature", "shape", "composition", "location", "cleanliness"]
_FILLER_NAMES = [
    "the", "a", "and", "then", "until", "into", "with", "over",
    "it", "slowly", "gently", "well", "again", "carefully",
]


@dataclass
class SyntheticConfig:
    count: int = 1000
    text_size: int = 60
    verb_count: int = 8
    state_count: int = 6
    min_len: int = 3
    max_len: int = 8


def verb_to_states(verb_index: int, state_count: int) -> tuple[int, ...]:
    """Fixed verb -> state-change table; even verbs cause one state change,
    odd verbs cause two."""
    first = verb_index % state_count
    if verb_index % 2 == 0:
        return (first,)
    return tuple(sorted({first, (verb_index + 1) % state_count}))


def _name_list(fixed: list[str], prefix: str, n: int) -> list[str]:
    names = fixed[:n]
    names += [f"{prefix}{i}" for i in range(len(names), n)]
    return names


def synthetic_vocabs(config: SyntheticConfig) -> tuple[Vocabulary, Vocabulary, Vocabulary]:
    """Vocabularies are a pure function of the config sizes (seed-free), so
    corpora generated with different seeds stay mutually compatible."""
    verbs = _name_list(_VERB_NAMES, "verb", config.verb_count)
    states = _name_list(_STATE_NAMES, "state", config.state_count)
    n_fillers = config.text_size - config.verb_count
    fillers = _name_list(_FILLER_NAMES, "word", n_fillers)
    text_vocab = Vocabulary.from_tokens(verbs + fillers, with_pad=True)
    return text_vocab, Vocabulary.from_tokens(verbs), Vocabulary.from_tokens(states)


def generate_synthetic_corpus(config: SyntheticConfig, seed: int):
    """Return (samples, (text_vocab, verb_vocab, state_vocab)).

    Each sentence embeds 1-2 trigger tokens at random positions among
    fillers; triggers sit at text indices [0, verb_count) and verb i sits at
    verb-vocab index i.
    """
    if config.count < 0:
        raise ValueError(f"count must be at least 0, got {config.count}")
    if config.verb_count < 1:
        raise ValueError("need at least one verb")
    if config.state_count < 2:
        raise ValueError("the verb->state table needs at least 2 state types")
    if config.text_size < config.verb_count + 1:
        raise ValueError(
            f"text vocab of {config.text_size} cannot host {config.verb_count} "
            "trigger tokens plus a filler"
        )
    if not 2 <= config.min_len <= config.max_len:
        raise ValueError("need 2 <= min_len <= max_len")

    text_vocab, verb_vocab, state_vocab = synthetic_vocabs(config)
    rng = np.random.default_rng(seed)
    n_verbs, n_states = config.verb_count, config.state_count
    samples = []
    for _ in range(config.count):
        length = int(rng.integers(config.min_len, config.max_len + 1))
        n_triggers = int(rng.integers(1, min(2, n_verbs) + 1))
        verbs = sorted(rng.choice(n_verbs, size=n_triggers, replace=False).tolist())
        positions = rng.choice(length, size=n_triggers, replace=False)
        tokens = (n_verbs + rng.integers(0, config.text_size - n_verbs, size=length)).tolist()
        for pos, verb in zip(positions, verbs):
            tokens[pos] = verb
        verb_label = np.zeros(len(verb_vocab), dtype=np.float64)
        state_label = np.zeros(len(state_vocab), dtype=np.float64)
        for verb in verbs:
            verb_label[verb] = 1.0
            for state in verb_to_states(verb, n_states):
                state_label[state] = 1.0
        samples.append(Sample(tokens=tokens, verb_label=verb_label, state_label=state_label))
    return samples, (text_vocab, verb_vocab, state_vocab)
