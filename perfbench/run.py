"""The locator benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload pilot-9800 --seed 2021 --seconds 30 --trace 0

Run from the repository root. Each round is a fresh interpreter
(``round.py``) that sets up, measures, serves and checks one workload;
whole rounds repeat until ``--seconds`` of wall time have passed (at
least one round, or one untraced and one traced round with
``--trace 1``; see ``OVERRUN_S``). The
last line of standard output is the result, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over rounds (or over epochs); with ``--trace 1`` they are the
per-layer ones from traced rounds. The line before it stamps the
environment. Exits 2 without a result when the program's sources are
missing, and 1 when a round fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKDIR = os.path.join(ROOT, ".bench_build", "perfbench")
#: Wall-time budget of a whole run: no round may end after it.
RUN_BUDGET_S = 170
#: A new round starts only if the longest round so far would end within
#: this many seconds past ``--seconds``.
OVERRUN_S = 10



def load_benchmark() -> dict:
    """BENCHMARK.json: the workload names and every metric with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def read_steal() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_round(workload: str, seed: int, rdir: str, trace: bool, timeout: float) -> dict:
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "round.py"),
        "--workload", workload, "--seed", str(seed), "--workdir", rdir,
    ]
    if trace:
        cmd.append("--trace")
    # A fixed hash seed makes every round's string hashing, and so its
    # dict and set layouts, the same from run to run.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    # Its own session, so that a timeout also ends the round's server.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    # Keep the spans of traced rounds; drop the stores and exports.
    for name in ("store", "study.json"):
        path = os.path.join(rdir, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    return result


def probes_per_cpu_s(rounds: list[dict]) -> float:
    """Probes measured over all rounds per CPU second of their measuring
    phases: a ratio of totals, which averages host contention over the
    whole run instead of picking one round."""
    return sum(r["probes"] for r in rounds) / sum(r["measure_cpu_s"] for r in rounds)


def end_to_end(rounds: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "probes_per_cpu_s": probes_per_cpu_s(rounds),
        "epoch_s": statistics.median(e for r in rounds for e in r["epoch_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(plain: list[dict], traced: list[dict], names) -> dict:
    # median_low keeps counts whole; they repeat exactly round to round.
    values = {
        name: statistics.median_low(r["layers"][name] for r in traced)
        for name in names
        if not name.startswith("trace.") or name == "trace.spans"
    }
    values["trace.probes_per_cpu_s"] = probes_per_cpu_s(traced)
    values["trace.overhead_x"] = probes_per_cpu_s(plain) / values["trace.probes_per_cpu_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = load_benchmark()
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: program sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    run_dir = os.path.join(WORKDIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    steal0, total0 = read_steal()
    start = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    try:
        while True:
            for trace in ((False, True) if args.trace else (False,)):
                rdir = os.path.join(run_dir, f"round{len(plain) + len(traced)}")
                began = time.perf_counter()
                timeout = RUN_BUDGET_S - (began - start)
                result = run_round(args.workload, args.seed, rdir, trace, timeout)
                longest = max(longest, time.perf_counter() - began)
                (traced if trace else plain).append(result)
                print(
                    f"# round {len(plain) + len(traced)}{' traced' if trace else ''}: "
                    f"setup {result['setup_s']:.3f} s, measure {result['measure_cpu_s']:.3f} "
                    f"CPU-s for {result['probes']} probes, problems {len(result['problems'])}",
                    file=sys.stderr,
                )
            # Whole rounds only; skip one that would likely end more
            # than OVERRUN_S past --seconds, to bound a run's wall time.
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds or elapsed + longest > args.seconds + OVERRUN_S:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload} round failed: {exc}", file=sys.stderr)
        return 1
    steal1, total1 = read_steal()
    if not args.trace:
        shutil.rmtree(run_dir, ignore_errors=True)

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems[:20]:
        print(f"# check failed: {problem}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    values = per_layer(plain, traced, units) if args.trace else end_to_end(plain)
    stamp = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "wall_s": round(time.perf_counter() - start, 3),
        "steal_share": (steal1 - steal0) / (total1 - total0) if total1 > total0 else None,
    }
    print("# env " + json.dumps(stamp))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
