"""Write a benchmark ledger entry: every workload on several seeds, plus one
traced run per workload.

    python3 bench/ledger.py --seeds 1-10 --out bench/ledger/BENCH_0002.json

For each end-to-end metric the entry records the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median; for the traced run (seed 1) it records every per-layer metric.
``setup_s_first`` gives the same summary for each run's own set-up alone,
to show what the median of three cold set-ups does to the spread,
``raw`` for the timings before scaling to reference speed, to show what
the scaling does to it, and ``run_wall_s`` for each run's wall time.  Runs go one at a time, each in
its own process, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_SEED = 1


def bench(workload, seed, seconds, trace):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(x for x in lines if x.startswith("# meta "))[7:])
    meta["wall_s"] = time.perf_counter() - started
    return json.loads(lines[-1]), meta


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--note", default="",
                        help="what was measured, e.g. the commit")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    entry = {
        "note": args.note,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs, firsts, raws, walls = [], [], [], []
        for seed in args.seeds:
            result, meta = bench(workload, seed, seconds, 0)
            runs.append(result)
            firsts.append(meta["setups_s"][0])
            raws.append(meta["raw"])
            walls.append(meta["wall_s"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        traced, trace_meta = bench(workload, TRACE_SEED, seconds, 1)
        entry["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "field": meta["field"],
            "mix": meta["mix"],
            "tail_percentile": meta["tail_percentile"],
            "tail_samples_beyond": meta["tail_samples_beyond"],
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summary(
                    [r["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]},
            "setup_s_first": summary(firsts),
            "raw": {name: summary([r[name] for r in raws])
                    for name in raws[0]},
            "run_wall_s": summary(walls),
            "traced": {"seed": TRACE_SEED,
                       "correct": traced["correct"],
                       "attempted": traced["attempted"],
                       "spans": trace_meta["spans"],
                       "per_layer": {k: v["value"] for k, v in
                                     traced["metrics"].items()}},
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
