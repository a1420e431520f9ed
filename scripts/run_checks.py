#!/usr/bin/env python3
"""Run the full identity-check registry and print a summary table.

This is the batch driver used for CI-style runs:

    python scripts/run_checks.py                 # symbolic backend
    python scripts/run_checks.py --backend 5/3   # specialized backend
    python scripts/run_checks.py --n 2 --ell 1,2 # smaller sweep

Exit status 0 iff every check passes.  A check whose irreducibility
decision stays undecided prints one UNDECIDED line and the sweep goes on.

The last line, `details sha256: <hex>`, is a SHA-256 over every check's id,
pass flag and details in the order run, without timings: two sweeps with the
same arguments print the same line exactly when they reached the same
results, on any code version.
"""

import argparse
import hashlib
import json
import sys
import time

from qschur.checks import CHECKS, RunConfig, run_check
from qschur.cli import _int_list, _parse_backend
from qschur.module_tools import Undecided


def _backend(text: str):
    """The t of the specialized backend, written bare (5/3)."""
    return _parse_backend(f"rational:{text}")


def _check_ids(text: str) -> list:
    ids = [x for x in text.split(",") if x]
    unknown = [x for x in ids if x not in CHECKS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown check id(s) {', '.join(unknown)}; choose from {', '.join(CHECKS)}"
        )
    return ids


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=_int_list, default="2,3", help="comma-separated ranks")
    ap.add_argument("--ell", type=_int_list, default="1,2,3", help="comma-separated sizes")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--backend", type=_backend, default=None,
                    help="rational t value, e.g. 5/3 (default: symbolic)")
    ap.add_argument("--only", type=_check_ids, default=list(CHECKS),
                    help="comma-separated check ids (default: all)")
    args = ap.parse_args()

    cfg = RunConfig(
        n_values=args.n,
        ell_values=args.ell,
        seed=args.seed,
        t0=args.backend,
    )
    ids = args.only
    print(f"backend: {'symbolic' if cfg.t0 is None else f'rational t={cfg.t0}'}"
          f"   n={cfg.n_values} ell={cfg.ell_values} seed={cfg.seed}")
    print(f"{'check':<12} {'status':<6} {'cases':>5} {'time':>8}")
    print("-" * 36)
    all_ok = True
    records = []
    total = time.time()
    for cid in ids:
        try:
            r = run_check(cid, cfg)
        except Undecided as e:
            all_ok = False
            print(f"UNDECIDED {cid}: {e}")
            records.append({"check": cid, "undecided": str(e)})
            continue
        all_ok = all_ok and r.passed
        record = r.to_json()
        del record["seconds"]
        records.append(record)
        print(f"{cid:<12} {'PASS' if r.passed else 'FAIL':<6} "
              f"{len(r.details):>5} {r.seconds:>7.2f}s")
        if not r.passed:
            for label, ok, extra in r.details:
                if not ok:
                    print(f"    FAIL {label} {extra}")
    print("-" * 36)
    print(f"{'all' if all_ok else 'SOME FAILED':<12} "
          f"{'PASS' if all_ok else 'FAIL':<6} {'':>5} {time.time()-total:>7.2f}s")
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    print(f"details sha256: {digest}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
