"""Independent reference model used to check the program's outputs.

Written from the equations in PAPER.md and the ``tanloss.network``
docstring, not from the program's code, and imports nothing from
``tanloss``: it reads TANL v1 checkpoints with its own parser, builds
explicit one-hot input vectors, and runs each group of equal-length
sentences for exactly its length, so no padding or masking is involved.

  z  = sig(W_z x + U_z h + b_z)        r = sig(W_r x + U_r h + b_r)
  hc = tanh(W_h x + U_h (r*h) + b_h)   h' = (1-z)*h + z*hc
  head(h) = sig(W2 relu(W1 h + b1) + b2)
  loss   = sum_i 10 tan(0.499 pi |y_i - p_i|)      (verb head + state head)
  error  = |H(softmax(p), softmax(y)) - H(softmax(y), softmax(y))| in bits
"""

import json
import struct
from pathlib import Path

import numpy as np

UNK = "UNK"
SCALE = 10.0
COEFF = 0.499 * np.pi


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Model arrays (optimizer state skipped) and metadata of a TANL v1 file."""
    data = Path(path).read_bytes()
    if data[:4] != b"TANL":
        raise ValueError(f"{path}: not a TANL checkpoint")
    version, meta_len = struct.unpack_from("<II", data, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    pos = 12
    meta = json.loads(data[pos:pos + meta_len])
    pos += meta_len
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2:pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        ndim = data[pos]
        shape = struct.unpack_from(f"<{ndim}Q", data, pos + 1)
        pos += 1 + 8 * ndim
        nbytes = 8 * int(np.prod(shape, dtype=np.int64))
        if not name.startswith("rmsprop."):
            arrays[name] = np.frombuffer(data, "<f8", nbytes // 8, pos).reshape(shape).copy()
        pos += nbytes
    if pos != len(data):
        raise ValueError(f"{path}: trailing bytes")
    return arrays, meta


def index_of(vocab: list[str], token: str) -> int:
    return vocab.index(token) if token in vocab else vocab.index(UNK)


def sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _gru(p, layer, x, h):
    def gate(g, hh):
        return x @ p[f"{layer}.W_{g}"].T + hh @ p[f"{layer}.U_{g}"].T + p[f"{layer}.b_{g}"]
    z = sigmoid(gate("z", h))
    r = sigmoid(gate("r", h))
    hc = np.tanh(gate("h", r * h))
    return (1.0 - z) * h + z * hc


def _head(p, head, h):
    a = np.maximum(h @ p[f"{head}.W1"].T + p[f"{head}.b1"], 0.0)
    return sigmoid(a @ p[f"{head}.W2"].T + p[f"{head}.b2"])


def predict(params: dict, text_vocab: list[str], sentences) -> tuple[np.ndarray, np.ndarray]:
    """(verb, state) head outputs, one row per sentence (a token sequence)."""
    n_in = params["gru1.W_z"].shape[1]
    n1, n2 = params["gru1.U_z"].shape[0], params["gru2.U_z"].shape[0]
    verb = np.empty((len(sentences), params["verb_head.W2"].shape[0]))
    state = np.empty((len(sentences), params["state_head.W2"].shape[0]))
    by_length: dict[int, list[int]] = {}
    for i, tokens in enumerate(sentences):
        by_length.setdefault(len(tokens), []).append(i)
    for length, rows in by_length.items():
        h1, h2 = np.zeros((len(rows), n1)), np.zeros((len(rows), n2))
        for t in range(length):
            x = np.zeros((len(rows), n_in))
            for j, i in enumerate(rows):
                x[j, index_of(text_vocab, sentences[i][t])] = 1.0
            h1 = _gru(params, "gru1", x, h1)
            h2 = _gru(params, "gru2", h1, h2)
        verb[rows] = _head(params, "verb_head", h2)
        state[rows] = _head(params, "state_head", h2)
    return verb, state


def multi_hot(vocab: list[str], names) -> np.ndarray:
    out = np.zeros(len(vocab))
    for name in names:
        out[index_of(vocab, name)] = 1.0
    return out


def tangent_terms(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The loss's per-component terms; the loss is their sum."""
    return SCALE * np.tan(COEFF * np.abs(y - p))


def softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def error_gap(y: np.ndarray, p: np.ndarray) -> float:
    q_label, p_pred = softmax(y), softmax(p)
    return abs(-np.sum(p_pred * np.log2(q_label)) + np.sum(q_label * np.log2(q_label)))


def one_missing(pred: set, label: set) -> bool:
    """Correct when nothing extra is predicted and at most one label is missing."""
    if not label:
        return not pred
    return pred <= label and len(label - pred) <= 1


def above(row: np.ndarray) -> set[int]:
    """Indices at or above the 0.5 decision threshold."""
    return {i for i, v in enumerate(row) if v >= 0.5}
