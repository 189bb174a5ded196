#!/usr/bin/env python3
"""Cross-check the enumeration-free pipeline on a small system.

Enumerates every switching mode of a small configuration and verifies
the shared eigenstructure, the factorized expected matrix, the mode
probabilities, and bit-exact simulator/matrix agreement. Mode counts
grow as q^(2(N-2)), so keep N and q small here; the config's
``mode_cap`` bounds the enumeration.

Usage:
    python scripts/run_verification.py [--config configs/small_verify.json]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from asyncheat.cli import main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="configs/small_verify.json")
    args = parser.parse_args()
    return cli_main(["verify", "--config", args.config])


if __name__ == "__main__":
    sys.exit(main())
