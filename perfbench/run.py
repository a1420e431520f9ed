"""qschur benchmark: seeded verification workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload relations --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One process, one thread, one client in a closed loop: each case starts only
after the previous verdict is in.  Rounds of the workload's stratified mix
run until ``--seconds`` is used up.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` every round runs twice, untraced and then traced on the same
inputs, and the JSON object carries the per-layer metrics instead.  Spans of
a traced run are written to ``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, rounds_for  # noqa: E402

LIB_MODULES = ("scalars", "linalg", "hecke", "affine_hecke", "uq_rep", "affinization",
               "classification", "module_tools")
E2E_UNITS = {"wall_s": "s", "case_p50_s": "s", "case_tail_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}
SETUP_REPEATS = 5
HARD_LIMIT_S = 170        # a run that is still going by then is cut and fails
REF_PROBE_S = 0.008       # host_reference() on an unloaded 2-core x86-64 host, Python 3.11


class BenchmarkError(Exception):
    """The program under test could not be loaded or a run could not finish."""


def _import_lib():
    """Import qschur afresh from the checkout's src/ and return its modules."""
    src = ROOT / "src"
    if not (src / "qschur" / "__init__.py").is_file():
        raise BenchmarkError(f"no qschur sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "qschur" or m.startswith("qschur.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{m: importlib.import_module(f"qschur.{m}") for m in LIB_MODULES})


def setup(workload, seed: int):
    """Import, contexts and the first round's cases: everything before the first case.

    Returns the library, the first round and the generator of the later
    rounds, which the loop draws from between rounds.
    """
    lib = _import_lib()
    lib.contexts = {n: lib.scalars.ScalarContext(n, t0=workload.t0) for n in (2, 3)}
    rounds = rounds_for(workload, seed)
    return lib, next(rounds), rounds


def host_reference() -> float:
    """Time a fixed stdlib-only Fraction/dict kernel that never touches qschur.

    Garbage collection is off while it runs, so the size of the library's
    heap does not leak into the probe.
    """
    gc.disable()
    try:
        start = perf_counter()
        a = {i: Fraction(i + 1, 2 * i + 3) for i in range(24)}
        b = {i: Fraction(3 * i - 7, i + 5) for i in range(24)}
        for _ in range(4):
            prod: dict = {}
            for i, x in a.items():
                for j, y in b.items():
                    prod[i + j] = prod.get(i + j, 0) + x * y
            a = {k: v / (k + 1) for k, v in prod.items() if k < 24}
        return perf_counter() - start
    finally:
        gc.enable()


class HostClock:
    """Scales measured seconds to a reference host speed.

    The shared host changes speed by up to 2x over seconds to minutes, and
    CPU time moves with wall time, so neither hides it.  The probe runs
    after every measured interval; the interval's seconds are multiplied by
    ``REF_PROBE_S`` over the mean of the probes just before and just after
    it.  The result reads as seconds on a host where the probe takes
    ``REF_PROBE_S``; the raw seconds are printed beside it.
    """

    def __init__(self):
        self.samples = [host_reference()]

    def scale(self, seconds: float) -> float:
        before = self.samples[-1]
        self.samples.append(host_reference())
        return seconds * REF_PROBE_S / ((before + self.samples[-1]) / 2)


def _percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(round(pct * len(ordered), 6)) - 1)]


def _run_round(lib, workload, cases, rnd, state, clock, tracer=None):
    """Run one round in a closed loop: each case starts after the previous verdict.

    Returns (raw case seconds, host-scaled case seconds, outcomes).
    """
    raw, scaled, outcomes = [], [], []
    for i, case in enumerate(cases):
        ctx = lib.contexts[case["n"]]
        if tracer is not None:
            tracer.case_id = f"r{rnd}.{i}"
        start = perf_counter()
        try:
            outcome = workload.run(lib, ctx, case)
        except BenchmarkError:
            raise
        except Exception:  # a case that raises is a failed case, not a crashed run
            outcome = None
            state["errors"].append(f"r{rnd}.{i} {case['stratum']}: "
                                   + traceback.format_exc(limit=3))
        raw.append(perf_counter() - start)
        scaled.append(clock.scale(raw[-1]))
        if tracer is not None:
            tracer.end_case(scaled[-1] / raw[-1])
        outcomes.append(outcome)
    return raw, scaled, outcomes


def _score(lib, cases, outcomes, rnd, state):
    """Oracle verdicts and independent re-checks, outside the timed window."""
    for i, (case, outcome) in enumerate(zip(cases, outcomes)):
        state["attempted"] += 1
        if outcome is None:
            state["failed"] += 1
            continue
        if not outcome.ok:
            state["failed"] += 1
            state["errors"].append(f"r{rnd}.{i} {case['stratum']}: wrong verdict "
                                   f"{outcome.verdict!r}")
        elif not oracle.recheck(lib, outcome):
            state["failed"] += 1
            state["errors"].append(f"r{rnd}.{i} {case['stratum']}: witness failed re-check")


def _compare_backends(workload, lib, cases, outcomes, state):
    """relations-rational: verdicts must equal the symbolic ones case by case.

    The symbolic verdicts of the first round are recomputed here, outside the
    timed window, in symbolic contexts of the same import.
    """
    symbolic = {n: lib.scalars.ScalarContext(n) for n in (2, 3)}
    for i, (case, outcome) in enumerate(zip(cases, outcomes)):
        if outcome is None:
            continue
        try:
            reference = workload.run(lib, symbolic[case["n"]], case).verdict
        except BenchmarkError:
            raise
        except Exception:  # a symbolic failure is a failed comparison, not a crash
            reference = traceback.format_exc(limit=3)
        if reference != outcome.verdict:
            state["failed"] += 1
            state["errors"].append(f"r0.{i} {case['stratum']}: rational verdict differs "
                                   "from symbolic")


def measure(workload, seed: int, seconds: float, trace: bool, case_filter=None) -> dict:
    clock = HostClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib, first, later = setup(workload, seed)
        setups.append(clock.scale(perf_counter() - start))
    if case_filter is not None:
        first = [c for c in first if case_filter(c)]

    state = {"attempted": 0, "failed": 0, "errors": []}
    walls, raw_walls, case_times, traced_walls, first_outcomes = [], [], [], [], None
    by_stratum: dict = {}
    tracer = tracing.Tracer(lib) if trace else None
    uncovered: list = []
    loop_start = perf_counter()
    for rnd, cases in enumerate(itertools.chain([first], later)):
        round_start = perf_counter()
        raw, scaled, outcomes = _run_round(lib, workload, cases, rnd, state, clock)
        walls.append(sum(scaled))
        raw_walls.append(sum(raw))
        case_times.extend(scaled)
        for case, t in zip(cases, scaled):
            by_stratum.setdefault(case["stratum"], []).append(t)
        _score(lib, cases, outcomes, rnd, state)
        if first_outcomes is None:
            first_outcomes = outcomes
        if tracer is not None:
            uncovered = tracer.install()
            try:
                _, traced, traced_outcomes = _run_round(lib, workload, cases, rnd, state,
                                                        clock, tracer)
            finally:
                tracer.uninstall()
            tracer.rounds += 1
            traced_walls.append(sum(traced))
            _score(lib, cases, traced_outcomes, rnd, state)
        elapsed = perf_counter() - loop_start
        if elapsed + (perf_counter() - round_start) > seconds:
            break
    if workload.t0 is not None:
        _compare_backends(workload, lib, first, first_outcomes, state)

    tail = _percentile(case_times, workload.tail_pct)
    result = {
        "attempted": state["attempted"],
        "failed": state["failed"],
        "errors": state["errors"],
        "rounds": len(walls),
        "cases": len(case_times),
        "tail_pct": workload.tail_pct,
        "beyond_tail": sum(1 for t in case_times if t > tail),
        "host_ref_s": statistics.median(clock.samples),
        "raw_wall_s": statistics.fmean(raw_walls),
        "strata_p50_s": {k: statistics.median(v) for k, v in by_stratum.items()},
        "e2e": {
            "wall_s": statistics.fmean(walls),
            "case_p50_s": statistics.median(case_times),
            "case_tail_s": tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if tracer is not None:
        layers = tracer.metrics(sum(traced_walls))
        layers["env.host_ref_s"] = result["host_ref_s"]
        # The first pair runs on cold caches; leave it out when there are others.
        pairs = list(zip(traced_walls, walls))[1:] or list(zip(traced_walls, walls))
        layers["env.trace_overhead"] = statistics.median(t / u for t, u in pairs)
        result["layers"] = layers
        result["uncovered"] = uncovered
        expect = tracing.EXPECT[workload.name]
        result["expect_violations"] = (
            [f"{k} is 0" for k in expect["nonzero"] if not layers[k]]
            + [f"{k} is {layers[k]}, expected 0" for k in expect["zero"] if layers[k]])
        out_dir = Path.cwd() / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    return result


def _metric_block(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def report(workload, result, trace: bool) -> dict:
    """Print the human-readable summary; return the final JSON object."""
    e2e = result["e2e"]
    fail_rate = result["failed"] / max(result["attempted"], 1)
    print(f"workload {workload.name}: {result['rounds']} rounds, {result['cases']} cases, "
          f"tail p{result['tail_pct'] * 100:g} with {result['beyond_tail']} cases beyond")
    print("  " + "  ".join(f"{k}={v:.6g} {E2E_UNITS[k]}" for k, v in e2e.items())
          + f"  fail_rate={fail_rate:.6g} ({result['failed']}/{result['attempted']})"
          + f"  host_ref_s={result['host_ref_s']:.6g} s  raw wall_s={result['raw_wall_s']:.6g} s")
    print("  stratum p50 s: " + "  ".join(f"{k}={v:.4g}"
                                           for k, v in result["strata_p50_s"].items()))
    for line in result["errors"]:
        print("  FAIL " + line.strip().replace("\n", "\n       "), file=sys.stderr)
    correct = result["failed"] == 0
    if trace:
        layers = result["layers"]
        for k, v in layers.items():
            print(f"  {k} = {v:.6g} {tracing.PER_LAYER_UNITS[k]}")
        for problem in result["uncovered"]:
            print(f"  TRACE escaped wrapper: {problem}", file=sys.stderr)
        for problem in result["expect_violations"]:
            print(f"  TRACE expectation failed: {problem}", file=sys.stderr)
        correct = correct and not result["uncovered"] and not result["expect_violations"]
        metrics = _metric_block(layers, tracing.PER_LAYER_UNITS)
    else:
        metrics = _metric_block(e2e, E2E_UNITS)
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke() -> int:
    """A few cheap cases per workload, both modes; metric names must match BENCHMARK.json."""
    spec = _spec()
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            out = report(workload, measure(workload, 1, 0.0, trace, workload.smoke), trace)
            emitted = {k: v["unit"] for k, v in out["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{name} trace={int(trace)}: emitted metrics differ from "
                                f"BENCHMARK.json: {sorted(set(emitted) ^ set(declared[trace]))}")
            if not out["correct"]:
                problems.append(f"{name} trace={int(trace)}: not correct")
    for p in problems:
        print("SMOKE " + p, file=sys.stderr)
    print("smoke " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def _timeout(signum, frame):
    raise BenchmarkError(f"run exceeded {HARD_LIMIT_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(_spec()["run_seconds"]),
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="quick self-check, then exit")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(HARD_LIMIT_S * (4 if args.smoke else 1))
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        workload = WORKLOADS[args.workload]
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
        out = report(workload, result, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
