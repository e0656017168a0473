"""Desk benchmark of vnact: train and eval throughput of three model families.

Run from the repository root:

    python3 perfbench/run.py --workload lsta-gru --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the traced
per-layer split. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: at or below nproc on any machine, and measured faster
# than two on these small matrices.
BLAS_THREADS = 1


def parse_args(spec, argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec, argv)
    # Must precede the first numpy import, which reads them once.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "vnact" / "__init__.py").is_file():
        print(f"perfbench: no vnact sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import vnact

    if not Path(vnact.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported vnact from {vnact.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench

    print(json.dumps({"env": bench.environment(BLAS_THREADS), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    if args.trace:
        for name, value in result["metrics"].items():
            print(f"{name:34s} {value:14.6g}")
    print(bench.report(result, spec, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
