"""Steadiness check: two sets of benchmark runs of the same tree.

    python3 perfbench/steady.py [--runs 10] [--workloads pilot-9800,observed-dense]

Runs ``run.py`` exactly as a benchmark driver does (one fresh command per
run, a different ``--seed`` each time, ``run_seconds`` from
BENCHMARK.json), cycling through the workloads run by run, and prints,
per workload and end-to-end metric, each set's median and quartiles, its
spread (quartile distance over median) and the gap between the set
medians: their absolute difference as a share of the smaller median, so
that it reads the same whichever set is taken as the baseline.
A set fails a metric when its spread or the gap exceeds the metric's
bound. The last column proposes a bound: the larger of three times the
wider spread and twice the gap, rounded up to 0.05 and capped at 0.25.
Raw values go to ``.bench_build/perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETS = 2


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    env = next((json.loads(l[6:]) for l in lines if l.startswith("# env ")), {})
    return {"result": json.loads(lines[-1]), "env": env}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--seed-base", type=int, default=1, help="set k uses seeds base + k*runs ...")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "perfbench", "steady.json"))
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs: dict = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        seeds = [args.seed_base + s * args.runs + r for r in range(args.runs)]
        for workload, seed in [(w, seed) for seed in seeds for w in names]:
            out = run_once(bench, workload, seed)
            runs[workload][s].append(out)
            res = out["result"]
            print(
                f"set {s + 1} {workload} seed {seed}: correct={res['correct']} "
                f"failed={res['failed']}/{res['attempted']} steal={out['env'].get('steal_share')} "
                + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                file=sys.stderr, flush=True,
            )
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=1)

    ok = True
    header = f"{'workload':<16}{'metric':<18}" + "".join(
        f"{'set ' + str(s + 1) + ' median [q1, q3] spread':<40}" for s in range(SETS)
    ) + f"{'gap':>8}{'bound':>7}{'proposed':>10}"
    print(header)
    for workload in names:
        shares = {o["result"]["failed"] / o["result"]["attempted"] for sr in runs[workload] for o in sr}
        if len(shares) != 1 or any(not o["result"]["correct"] for sr in runs[workload] for o in sr):
            ok = False
            print(f"{workload}: failed shares {sorted(shares)} or incorrect runs")
        for name, spec in metrics.items():
            cells, medians, spreads = [], [], []
            for set_runs in runs[workload]:
                values = [o["result"]["metrics"][name]["value"] for o in set_runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                spreads.append((q3 - q1) / med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {spreads[-1]:.3f}")
            gap = abs(medians[1] - medians[0]) / min(medians)
            proposed = min(0.25, math.ceil(max(3 * max(spreads), 2 * gap) * 20) / 20)
            if gap > spec["bound"] or max(spreads) > spec["bound"]:
                ok = False
            print(
                f"{workload:<16}{name:<18}" + "".join(f"{c:<40}" for c in cells)
                + f"{gap:>8.3f}{spec['bound']:>7.2f}{proposed:>10.2f}"
            )
    print("steady" if ok else "NOT steady within the bounds of BENCHMARK.json")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
