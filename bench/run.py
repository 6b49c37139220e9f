"""Time-to-verdict benchmark for centrum.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads (see bench/workloads.py): ``grid``, ``tensor``, ``center-gfp``
and ``cli``.  One run sets the workload up from the seed (import centrum,
build the field, generate every instance), then times one verdict per pool
item in a single thread.  Pool sizes are proportional to ``--seconds``
(at 15 the seed code's timed loops take 10-25 s on a 2-CPU x86_64 VM); a
faster program finishes the same pool sooner, so two versions time the
same instances.  A slower one is cut off 150 s after start, so that every
run ends in time.

Every time the benchmark reports is scaled to reference speed: between
verdicts, and before and after set-up, the run times a fixed piece of
reference work that shares no code with centrum, and each time is
multiplied by ``speed.REFERENCE_S`` over the reference time measured
nearest to it (see bench/speed.py).  A drift in the speed of a shared
machine moves both and cancels; the unscaled wall times are printed in the
metadata line under ``raw``.

With ``--trace 0`` the last stdout line is the end-to-end result:

- ``verdicts_per_s``: verdicts / summed verdict time over the run;
- ``verdict_ms_p50``: median time per verdict;
- ``verdict_ms_tail``: the verdict time with exactly ten samples above it,
  i.e. the highest percentile that leaves ten samples beyond it (the
  percentile and sample count are printed in the metadata line);
- ``correct_frac``: verdicts that matched their known answer / attempted
  (1 - failed fraction; a failure is a wrong answer or an exception);
- ``setup_s``: time from process start to the end of set-up; the median
  of this process's set-up and of two more cold ones, each in a fresh
  process that only sets up;
- ``peak_rss_mib``: ``ru_maxrss`` of the process.

With ``--trace 1`` the run times a quarter-size pool twice, untraced and
then traced (each on its own pool built from the seed), checks that both
give the same verdicts, writes the spans to ``.bench_out/`` and prints the
per-layer metrics of ``bench/tracer.py``.

The program must run with its assertions on: ``python -O`` is refused.
A run with a wrong or raising verdict prints its result, names the first
failing verdict on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

STARTED = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3            # cold set-ups per run; setup_s is their median
SETUP_TICKS = 5       # reference timings before and after each set-up
TRACE_SCALE = 0.25    # pool size of a traced run, relative to --seconds 20
DEADLINE_S = 150.0    # stop timing this long after start, to exit in time
MODULES = ("centrum", "centrum.cli")


class BenchError(Exception):
    pass


def import_centrum():
    """Import centrum from this checkout's src/; returns a namespace of its
    modules."""
    if not os.path.isfile(os.path.join(SRC, "centrum", "__init__.py")):
        raise BenchError(f"no centrum sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in MODULES:
        importlib.import_module(name)
    pkg = sys.modules["centrum"]
    home = os.path.dirname(os.path.abspath(pkg.__file__))
    if home != os.path.join(SRC, "centrum"):
        raise BenchError(f"imported centrum from {pkg.__file__}, not {SRC}")
    ns = argparse.Namespace()
    for name, mod in sys.modules.items():
        if name.startswith("centrum."):
            setattr(ns, name.split(".", 1)[1], mod)
    return ns


def set_up(workload, seed, scale):
    """Import centrum and build the workload's pool from the seed."""
    C = import_centrum()
    return WORKLOADS[workload](C, random.Random(f"{workload}:{seed}"), scale)


def timed_set_up(args, meter):
    """The pool, and (scaled, raw) seconds from process start to the end of
    set-up.  The reference is timed SETUP_TICKS times before set-up and
    after it; the time the ticks before it took is not counted."""
    before = perf_counter()
    meter.sample(SETUP_TICKS)
    ticked = perf_counter() - before
    pool = set_up(args.workload, args.seed, args.seconds / 20.0)
    raw = perf_counter() - STARTED - ticked
    meter.sample(SETUP_TICKS)
    return pool, raw * meter.factor(meter.at[0], meter.at[-1]), raw


def cold_set_up(args):
    """(scaled, raw) set-up seconds of a fresh process."""
    left = DEADLINE_S - (perf_counter() - STARTED)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=max(left, 1.0),
            check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"cold set-up failed: {exc}") from exc
    return json.loads(proc.stdout)


def fingerprint(obj):
    """A digest of a verdict's evidence: matrices by their entries."""
    def flat(x):
        if hasattr(x, "data") and hasattr(x, "rows"):
            return ("Matrix", x.rows, x.cols,
                    [[str(v) for v in row] for row in x.data])
        if isinstance(x, (list, tuple)):
            return [flat(v) for v in x]
        return str(x)
    return hashlib.sha256(repr(flat(obj)).encode()).hexdigest()[:16]


def time_pool(pool, meter, trace=None, deadline=DEADLINE_S):
    """Time one verdict per item, stopping early once ``deadline`` seconds
    have passed since the process started, and the reference work between
    verdicts; returns (times, raw, outcomes, failures) where times are
    scaled to reference speed, raw are wall times, an outcome is (answer,
    evidence digest) and a failure is (index, kind, reason)."""
    spans, outcomes, failures = [], [], []
    # Keep the pool out of the cyclic collector's scans: a collection then costs what the verdicts
    # allocate, not what the benchmark holds for later verdicts.
    gc.collect()
    gc.freeze()
    for index, item in enumerate(pool.items):
        if spans and perf_counter() - STARTED > deadline:
            break
        meter.maybe_tick()
        if trace is not None:
            trace.verdict = index
            trace.active = True
        t0 = perf_counter()
        try:
            result = item.run()
        except Exception as exc:  # a verdict that raises counts as failed
            spans.append((t0, perf_counter()))
            outcomes.append(("raised", type(exc).__name__))
            failures.append((index, item.kind, f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            if trace is not None:
                trace.active = False
        spans.append((t0, perf_counter()))
        try:
            answer, evidence = item.check(result) if item.check else result
            outcome = (answer, fingerprint(evidence))
        except Exception as exc:
            outcome = ("raised", type(exc).__name__)
            answer = exc
        outcomes.append(outcome)
        if answer != item.expected:
            failures.append((index, item.kind,
                             f"answer {answer!r}, expected {item.expected!r}"))
    gc.unfreeze()
    meter.sample(SETUP_TICKS)  # so that the last verdicts have ticks after
    raw = [end - start for start, end in spans]
    times = [(end - start) * meter.factor(start, end) for start, end in spans]
    return times, raw, outcomes, failures


def tail(times):
    """(value, percentile, samples beyond): the time with ten samples
    above it, or the maximum when there are fewer than eleven."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = 10 if n > 10 else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timings(times, setups):
    """The timed end-to-end metrics, from verdict and set-up seconds."""
    return {
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "verdict_ms_p50": (1000.0 * statistics.median(times), "ms"),
        "verdict_ms_tail": (1000.0 * tail(times)[0], "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def run_end_to_end(args):
    meter = Speedometer()
    pool, *setup = timed_set_up(args, meter)
    setups = [setup] + [cold_set_up(args) for _ in range(SETUPS - 1)]
    times, raw, _, failures = time_pool(pool, meter)
    attempted = len(times)
    _, pct, beyond = tail(times)
    metrics = timings(times, [scaled for scaled, _ in setups])
    metrics.update({
        "correct_frac": ((attempted - len(failures)) / attempted, "ratio"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    })
    by_kind = {}
    for item, t in zip(pool.items, times):
        by_kind.setdefault(item.kind, []).append(t)
    meta = {"tail_percentile": round(pct, 2), "tail_samples_beyond": beyond,
            "samples": attempted, "segments": len(pool.segments),
            "setups_s": [scaled for scaled, _ in setups],
            "raw": {name: value for name, (value, _) in
                    timings(raw, [r for _, r in setups]).items()},
            **meter.summary(),
            "kind_ms_p50": {k: round(1000 * statistics.median(v), 3)
                            for k, v in sorted(by_kind.items())}}
    return pool, attempted, failures, metrics, meta


def run_traced(args):
    workload, seed = args.workload, args.seed
    scale = TRACE_SCALE * args.seconds / 20.0
    meter = Speedometer()
    pool = set_up(workload, seed, scale)
    plain_times, _, plain, failures = time_pool(pool, meter,
                                                deadline=DEADLINE_S / 2)
    pool = set_up(workload, seed, scale)
    trace = tracing.Tracer()
    trace.install()
    try:
        traced_times, _, traced, traced_failures = time_pool(pool, meter,
                                                             trace)
    finally:
        trace.uninstall()
    failures += [f for f in traced_failures if f not in failures]
    both = min(len(plain), len(traced))
    differ = [i for i in range(both) if plain[i] != traced[i]]
    if differ:
        failures.append((differ[0], pool.items[differ[0]].kind,
                         "traced and untraced verdicts differ"))
    overhead = sum(traced_times[:both]) / sum(plain_times[:both]) - 1.0
    units = dict(tracing.metric_names())
    metrics = {name: (value, units[name])
               for name, value in trace.metrics(overhead).items()}
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
    trace.write_spans(spans_path)
    meta = {"spans": len(trace.spans),
            "spans_file": os.path.relpath(spans_path, ROOT),
            "untraced_verdicts_per_s": len(plain_times) / sum(plain_times),
            "traced_verdicts_per_s": len(traced_times) / sum(traced_times)}
    return pool, len(traced_times), failures, metrics, meta


def run_one(args):
    """Run one workload and print its result; returns the failures."""
    runner = run_traced if args.trace else run_end_to_end
    pool, attempted, failures, metrics, extra = runner(args)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "field": pool.field,
        "instances": len(pool.items),
        "mix": pool.mix(),
        **extra,
    }
    if failures:
        index, kind, reason = failures[0]
        meta["first_failure"] = {"workload": args.workload, "seed": args.seed,
                                 "index": index, "kind": kind,
                                 "reason": reason}
        print(f"first failing verdict: workload {args.workload}, seed"
              f" {args.seed}, index {index} ({kind}): {reason}; rebuild it"
              f" with --workload {args.workload} --seed {args.seed}"
              f" --seconds {args.seconds:g} --trace {args.trace}",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len({f[0] for f in failures}),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return failures


def run_all(args):
    """Each workload in its own process, one after the other."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="pool size, in proportion (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: centrum checks its"
              " certificates with assert, which -O removes", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_only:
            print(json.dumps(timed_set_up(args, Speedometer())[1:]))
            return 0
        failures = run_one(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
