"""Seeded benchmark inputs, written in the program's file formats.

A trigger-word task in the spirit of recipe text: each sentence holds one or
two verb tokens among fillers; the verbs are the verb labels and a fixed
verb -> state-change table gives the state labels.  The generator is the
benchmark's own, so a change to the program's synthetic corpus cannot change
what the benchmark measures.  Held-out and predict sentences sometimes carry
a word outside the text vocabulary, which exercises the UNK mapping.

Sentence lengths do not come from the seed: sentence ``i`` of every set has
``MAX_LEN - i % 6`` tokens.  Batch-1 ``predict`` takes time in proportion to
the tokens it reads, so seeded lengths made its timings differ from seed to
seed (the mean length of 8 lines varies by about 10 %), and its first line
took as long as the first sentence happened to be.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

VERBS = ["bake", "mix", "chop", "whisk", "boil", "freeze", "knead", "grate"]
STATES = ["cookedness", "temperature", "shape", "composition", "location", "cleanliness"]
FILLERS = [f"w{i}" for i in range(52)]
MIN_LEN, MAX_LEN = 3, 8
OOV_WORD = "saffron"
OOV_RATE = 0.03


def verb_states(verb: int) -> set[int]:
    """Even verbs change one state, odd verbs two."""
    first = verb % len(STATES)
    return {first} if verb % 2 == 0 else {first, (3 * verb + 1) % len(STATES)}


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    verbs: tuple[str, ...]
    states: tuple[str, ...]

    def record(self) -> str:
        return json.dumps({"tokens": list(self.tokens), "verbs": list(self.verbs),
                           "states": list(self.states)})


def make_sentences(rng: random.Random, count: int, oov_rate: float) -> list[Sentence]:
    out = []
    for i in range(count):
        length = MAX_LEN - i % (MAX_LEN - MIN_LEN + 1)
        verbs = sorted(rng.sample(range(len(VERBS)), rng.randint(1, 2)))
        tokens = [OOV_WORD if rng.random() < oov_rate else rng.choice(FILLERS)
                  for _ in range(length)]
        for pos, verb in zip(rng.sample(range(length), len(verbs)), verbs):
            tokens[pos] = VERBS[verb]
        states = sorted(set().union(*(verb_states(v) for v in verbs)))
        out.append(Sentence(tuple(tokens), tuple(VERBS[v] for v in verbs),
                            tuple(STATES[s] for s in states)))
    return out


@dataclass
class InputFiles:
    """Paths and contents of one workload's inputs.  ``corpus`` lists the
    validation sentences first, then the training sentences."""

    vocab_dir: Path
    corpus_path: Path
    held_path: Path
    corpus: list[Sentence]
    held: list[Sentence]
    predict_lines: list[str]


def write_inputs(out_dir: Path, seed: int, n_corpus: int, n_held: int,
                 n_predict: int) -> InputFiles:
    """Generate and write every input of a workload from ``seed``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = make_sentences(random.Random(4 * seed), n_corpus, oov_rate=0.0)
    held = make_sentences(random.Random(4 * seed + 1), n_held, OOV_RATE)
    predict = make_sentences(random.Random(4 * seed + 2), n_predict, OOV_RATE)
    for name, tokens in (("text", VERBS + FILLERS), ("verb", VERBS), ("state", STATES)):
        (out_dir / f"{name}.vocab").write_text("\n".join(tokens) + "\n", encoding="utf-8")
    corpus_path = out_dir / "corpus.jsonl"
    held_path = out_dir / "held.jsonl"
    corpus_path.write_text("".join(s.record() + "\n" for s in corpus), encoding="utf-8")
    held_path.write_text("".join(s.record() + "\n" for s in held), encoding="utf-8")
    return InputFiles(vocab_dir=out_dir, corpus_path=corpus_path, held_path=held_path,
                      corpus=corpus, held=held,
                      predict_lines=[" ".join(s.tokens) for s in predict])
