#!/usr/bin/env python3
"""Run the flagship N=100, q=3 experiment end to end.

Simulates the 300-run ensemble, builds the certificates and bound
curves, and writes the comparison tables — everything the result plots
need — into the config's output directory (override with --out). One
``simulate analyze compare`` CLI call does it all, so the ensemble and
the certificate are each computed once.

Usage:
    python scripts/run_flagship_experiment.py [--config configs/paper.json]
                                              [--out results/flagship]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from asyncheat.cli import main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/paper.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    commands = ["simulate", "analyze", "compare"]
    argv = [*commands, "--config", args.config]
    code = cli_main(argv + (["--out", args.out] if args.out else []))
    if code != 0:
        print(f"{' '.join(commands)} failed with exit code {code}",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
