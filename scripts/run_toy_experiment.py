#!/usr/bin/env python3
"""End-to-end toy experiment: generate a synthetic corpus, train a small
model, report held-out accuracy, and show a few predictions.

Usage: python scripts/run_toy_experiment.py [--workdir DIR] [--epochs N]

Finishes in a few minutes on a laptop CPU with the defaults.
"""

import argparse
import io
import sys
from pathlib import Path

from tanloss import cli

TOY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy.cfg"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="toy_experiment")
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--epochs", type=int, default=200)
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    corpus = work / "corpus"
    held = work / "held"
    ckpt = work / "ckpt"
    corpus.mkdir(exist_ok=True)
    held.mkdir(exist_ok=True)

    steps = [
        ["gen-synthetic", "--out", str(corpus), "--count", str(args.count), "--seed", "1"],
        ["gen-synthetic", "--out", str(held), "--count", "200", "--seed", "2"],
        ["train", "--data", str(corpus / "samples.jsonl"), "--vocab-dir", str(corpus),
         "--ckpt-dir", str(ckpt), "--config", str(TOY_CONFIG), "--epochs", str(args.epochs)],
        ["eval", "--ckpt", str(ckpt / "ckpt_best.bin"), "--data", str(held / "samples.jsonl")],
    ]
    for argv in steps:
        print(f"\n$ tanloss {' '.join(argv)}")
        code = cli.main(argv)
        if code != 0:
            return code

    print("\nsample predictions:")
    sys.stdin = io.StringIO("bake it slowly then freeze it\nmix the batter well\nchop it\n")
    return cli.main(["predict", "--ckpt", str(ckpt / "ckpt_best.bin")])


if __name__ == "__main__":
    sys.exit(main())
