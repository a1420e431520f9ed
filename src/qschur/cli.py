"""Batch command-line front end.

Subcommands:

  relations   build the affine module for a segment list (or a module file)
              and verify every quantum affine defining relation
  build       emit JSON descriptors for V_a and its affinization
  drinfeld    emit the Drinfeld polynomial tuple of a segment list
  check       run one named identity check (or `all`)
  character   weight multiplicity table of the affinized segment module
  isomorphic  test two module descriptor files for isomorphism

Exit status: 0 when every requested check passes, 1 when a mathematical
check fails or an irreducibility decision stays undecided, 2 on usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .affine_hecke import RightModule, verify_module_relations
from .affinization import functor_F, verify_affine_relations
from .checks import CHECKS, RunConfig, run_all, run_check
from .classification import (
    SegmentSpecError,
    drinfeld_polys,
    irreducible_V_a,
    parse_segments,
)
from .module_tools import Undecided, are_isomorphic, character
from .scalars import ScalarContext
from .uq_rep import UqModule

USAGE_ERROR = 2
CHECK_FAILED = 1

# Largest Jimbo ambient dimension ell! * (n+1)^ell a segment list may need.
# Building V_a for three generic singletons takes minutes at 384 (n = 3) and
# 750 (n = 4) on a 2-core x86-64 host; 1944 (n = 2, four singletons) does
# not finish in 15 minutes.  Larger lists are refused, --force or not.
MAX_JIMBO_AMBIENT = 1000


def _parse_backend(text: str):
    if text == "symbolic":
        return None
    if text.startswith("rational:"):
        try:
            t0 = Fraction(text.split(":", 1)[1])
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"bad backend value {text!r}")
        if t0 in (0, 1, -1):
            raise argparse.ArgumentTypeError("rational backend needs t outside {0, 1, -1}")
        return t0
    raise argparse.ArgumentTypeError(
        f"backend must be 'symbolic' or 'rational:<t0>', got {text!r}"
    )


def _int_list(text: str):
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def _rank(text: str) -> int:
    values = _int_list(text)
    if len(values) != 1:
        raise argparse.ArgumentTypeError(
            f"this command takes one rank, got {text!r} (only `check` takes a list)")
    return values[0]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qschur", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, as_json=True):
        """--backend on every command; --json where it is read."""
        sp.add_argument("--backend", type=_parse_backend, default=None,
                        help="symbolic (default) or rational:<t0>")
        if as_json:
            sp.add_argument("--json", action="store_true", help="machine-readable output")

    def single_rank(sp, **flags):
        sp.add_argument("--n", type=_rank, default=2, help="rank")
        common(sp, **flags)

    sp = sub.add_parser("relations", help="verify the affine relation suite")
    single_rank(sp)
    sp.add_argument("--segments", help="segment spec, e.g. 1@0:2,1@4:1")
    sp.add_argument("--module-file", help="module descriptor JSON to affinize")
    sp.add_argument("--force", action="store_true",
                    help="allow total segment length above the rank")

    sp = sub.add_parser("build", help="emit V_a and F(V_a) descriptors (always JSON)")
    single_rank(sp, as_json=False)
    sp.add_argument("--segments", required=True)
    sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("drinfeld", help="emit the Drinfeld polynomials")
    single_rank(sp)
    sp.add_argument("--segments", required=True)

    sp = sub.add_parser("check", help="run a named identity check")
    sp.add_argument("--n", type=_int_list, default=[2, 3], help="ranks, comma separated")
    sp.add_argument("--ell", type=_int_list, default=[1, 2, 3],
                    help="module sizes, comma separated")
    common(sp)
    sp.add_argument("--seed", type=int, default=0, help="draws the check parameters")
    sp.add_argument("check_id", choices=sorted(CHECKS) + ["all"])
    sp.add_argument("--segments", default=None)

    sp = sub.add_parser("character", help="weight table of F(V_a)")
    single_rank(sp)
    sp.add_argument("--segments", required=True)
    sp.add_argument("--force", action="store_true")

    sp = sub.add_parser("isomorphic", help="test two module files for isomorphism")
    single_rank(sp)
    sp.add_argument("files", nargs=2, metavar="FILE")
    return p


def _context(args, n: int) -> ScalarContext:
    return ScalarContext(n, t0=args.backend)


def _segments_or_die(ctx, spec, n, force):
    """Parse a segment spec; refuse a total length above n unless forced.

    A list whose Jimbo ambient dimension ell! * (n+1)^ell exceeds
    MAX_JIMBO_AMBIENT is refused even when forced.

    force=None marks a command without --force, whose refusal has no hint.
    """
    try:
        segs = parse_segments(ctx, spec)
    except SegmentSpecError as e:
        print(f"segment spec error: {e}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    size = 1
    for k in range(1, segs.ell + 1):
        size *= k * (n + 1)
        if size > MAX_JIMBO_AMBIENT:
            print(f"segment list too large: ell!*(n+1)^ell exceeds {MAX_JIMBO_AMBIENT} "
                  f"at ell={segs.ell}, n={n}", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
    if segs.ell > n and not force:
        hint = "" if force is None else "; pass --force to proceed"
        print(f"total segment length {segs.ell} exceeds n={n}{hint}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return segs


def _load_module(ctx, path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read module file {path}: {e}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    if isinstance(data, dict) and "V_a" in data:
        data = data["V_a"]
    algebra = data.get("algebra") if isinstance(data, dict) else None
    species = {"H": RightModule, "Hhat": RightModule, "Uq": UqModule,
               "Uq-affine": UqModule}.get(algebra)
    if species is None:
        print(f"unknown module descriptor in {path}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    try:
        return species.from_json(ctx, data)
    except KeyError as e:
        print(f"bad module descriptor in {path}: missing key {e}", file=sys.stderr)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        print(f"bad module descriptor in {path}: {e}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _report_relations(report, as_json) -> int:
    if as_json:
        print(json.dumps({"pass": report.passed, "relations": report.to_json()},
                         indent=2))
    else:
        for name, ok, _ in report.results:
            print(f"{'ok  ' if ok else 'FAIL'} {name}")
        print(f"{'PASS' if report.passed else 'FAIL'}: "
              f"{sum(1 for _, ok, _ in report.results if ok)}/{len(report.results)} relations")
    return 0 if report.passed else CHECK_FAILED


def cmd_relations(args) -> int:
    n = args.n
    ctx = _context(args, n)
    if bool(args.segments) == bool(args.module_file):
        print("need exactly one of --segments / --module-file", file=sys.stderr)
        return USAGE_ERROR
    if args.segments:
        segs = _segments_or_die(ctx, args.segments, n, args.force)
        vmod, _, _ = irreducible_V_a(segs, ctx)
        W = functor_F(vmod, n)
    else:
        mod = _load_module(ctx, args.module_file)
        if isinstance(mod, UqModule):
            W = mod
            if not W.is_affine():
                print("module file holds a finite module; nothing to verify",
                      file=sys.stderr)
                return USAGE_ERROR
        else:
            if mod.kind != "Hhat":
                print("module file holds a finite Hecke module; need y actions",
                      file=sys.stderr)
                return USAGE_ERROR
            source = verify_module_relations(mod)
            if not source.passed:
                return _report_relations(source, args.json)
            W = functor_F(mod, n, check_source=False)
    return _report_relations(verify_affine_relations(W), args.json)


def cmd_build(args) -> int:
    n = args.n
    ctx = _context(args, n)
    segs = _segments_or_die(ctx, args.segments, n, args.force)
    vmod, _, _ = irreducible_V_a(segs, ctx)
    W = functor_F(vmod, n)
    out = {"n": n, "segments": args.segments, "V_a": vmod.to_json(), "F": W.to_json()}
    print(json.dumps(out, indent=2))
    return 0


def cmd_drinfeld(args) -> int:
    n = args.n
    ctx = _context(args, n)
    try:
        segs = parse_segments(ctx, args.segments)
    except SegmentSpecError as e:
        print(f"segment spec error: {e}", file=sys.stderr)
        return USAGE_ERROR
    try:
        dp = drinfeld_polys(segs, n)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    if args.json:
        print(json.dumps({"n": n, "polynomials": dp.to_json()}, indent=2))
    else:
        for line in dp.render():
            print(line)
    return 0


def cmd_check(args) -> int:
    if args.segments:
        # a check skips a segment list longer than its rank, so refuse it here
        for n in args.n:
            _segments_or_die(_context(args, n), args.segments, n, force=None)
    cfg = RunConfig(
        n_values=args.n,
        ell_values=args.ell,
        seed=args.seed,
        t0=args.backend,
        segments_spec=args.segments,
    )
    results = run_all(cfg) if args.check_id == "all" else [run_check(args.check_id, cfg)]
    if args.json:
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.check_id} "
                  f"({len(r.details)} cases, {r.seconds:.2f}s)")
            for label, ok, extra in r.details:
                if not ok:
                    print(f"    FAIL {label} {extra}")
    return 0 if all(r.passed for r in results) else CHECK_FAILED


def cmd_character(args) -> int:
    n = args.n
    ctx = _context(args, n)
    segs = _segments_or_die(ctx, args.segments, n, args.force)
    vmod, _, _ = irreducible_V_a(segs, ctx)
    W = functor_F(vmod, n)
    table = character(W)
    if args.json:
        print(json.dumps({"dim": W.dim,
                          "character": [[list(w), m] for w, m in sorted(table.items())]},
                         indent=2))
    else:
        print(f"dim {W.dim}")
        for w, m in sorted(table.items(), reverse=True):
            print(f"  weight {w}: multiplicity {m}")
    return 0


def cmd_isomorphic(args) -> int:
    n = args.n
    ctx = _context(args, n)
    A = _load_module(ctx, args.files[0])
    B = _load_module(ctx, args.files[1])
    try:
        T = are_isomorphic(A, B)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    if args.json:
        print(json.dumps({"isomorphic": T is not None}))
    else:
        print("isomorphic" if T is not None else "not isomorphic")
    return 0 if T is not None else CHECK_FAILED


COMMANDS = {
    "relations": cmd_relations,
    "build": cmd_build,
    "drinfeld": cmd_drinfeld,
    "check": cmd_check,
    "character": cmd_character,
    "isomorphic": cmd_isomorphic,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    except Undecided as e:
        print(f"undecided: {e}", file=sys.stderr)
        return CHECK_FAILED
    return code


if __name__ == "__main__":
    sys.exit(main())
