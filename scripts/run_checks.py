#!/usr/bin/env python3
"""Run the identity-check registry through `qschur check`.

A CI-style front end whose defaults are the full sweep:

    python scripts/run_checks.py                 # symbolic backend
    python scripts/run_checks.py --backend 5/3   # specialized backend
    python scripts/run_checks.py --n 2 --ell 1,2 # smaller sweep

Each run is `qschur check <--only> --n --ell --seed --backend`, with the
bare t of --backend written as `rational:<t>`; the output, the exit status
and the refusal of bad input are that command's.  The last line,
`details sha256: <hex>`, hashes every check's id, verdict and details in
the order run, without timings: two sweeps with the same arguments print
the same line exactly when they reached the same results, on any code
version.
"""

import argparse
import sys

from qschur import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", default="2,3", help="comma-separated ranks")
    ap.add_argument("--ell", default="1,2,3", help="comma-separated sizes")
    ap.add_argument("--seed", default="0")
    ap.add_argument("--backend", default=None,
                    help="rational t value, e.g. 5/3 (default: symbolic)")
    ap.add_argument("--only", default="all", help="comma-separated check ids (default: all)")
    args = ap.parse_args(argv)
    backend = "symbolic" if args.backend is None else f"rational:{args.backend}"
    return cli.main(["check", args.only, f"--n={args.n}", f"--ell={args.ell}",
                     f"--seed={args.seed}", f"--backend={backend}"])


if __name__ == "__main__":
    sys.exit(main())
