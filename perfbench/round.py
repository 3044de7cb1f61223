"""One measured round of a benchmark workload, in a fresh interpreter.

Run by ``run.py``; prints the round's result as one JSON line::

    PYTHONPATH=src python3 perfbench/round.py --workload pilot-9800 \
        --seed 2021 --workdir .bench_build/perfbench/r0 [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if os.path.isdir(args.workdir) and os.listdir(args.workdir):
        parser.error(f"workdir {args.workdir} is not empty; each round needs a fresh one")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    result = workloads.WORKLOADS[args.workload](
        args.workload, args.seed, workloads.SIZES[args.workload], args.workdir, tracer
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
