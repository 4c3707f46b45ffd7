#!/usr/bin/env python3
"""Emit the census and series tables as CSV files.

Produces three files in --out-dir, each written by the matching
`plft-forest` subcommand:

  census.csv     D,nu2,sigma,tau,h            (one row per determinant)
  summatory.csv  x,summatory,reference,ratio  (summatory vs x^2 log^2 x / 4)
  aux.csv        x,sum,reference,ratio        (double harmonic sum vs log^2 x / 2)

The census rows are verified three ways while being produced, so this
doubles as a slow self-check for larger --max values.  The exit status
is that of the first subcommand that fails, else 0.
"""

import argparse
import sys
from pathlib import Path

from plft_forest import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="data", help="output directory (default: data)")
    parser.add_argument("--max", type=int, default=200, help="largest census determinant")
    parser.add_argument("--points", default="100,1000,10000", help="x values for the summatory series")
    parser.add_argument("--aux-points", default="100,1000", help="x values for the harmonic double sum")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [
        ("census.csv", ["census", "--max", str(args.max)]),
        ("summatory.csv", ["series", "--points", args.points]),
        ("aux.csv", ["aux", "--points", args.aux_points]),
    ]
    for name, argv in jobs:
        status = cli.main([*argv, "--out", str(out / name)])
        if status:
            return status
        print(f"wrote {out / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
