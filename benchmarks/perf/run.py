"""Seeded end-to-end and per-layer benchmark of the FX-TM controllers.

Usage, from the repository root::

    python benchmarks/perf/run.py [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]

Each workload runs in its own subprocess (``measure.py``) with
``PYTHONHASHSEED=0`` and this checkout's ``src`` first on
``PYTHONPATH``.  Without ``--trace`` every workload runs twice: an
untraced pass for the end-to-end metrics, then a traced pass for the
per-layer ones.  Without ``--workload`` all four workloads run.  Without
``--seed`` each workload uses its generator's default seed.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  For a single workload and
pass it is that run's result; otherwise metric names are prefixed with
``<workload>/``.  Any failed run stops the benchmark with its exit code
and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Seconds one workload subprocess may take before it is stopped.
CHILD_TIMEOUT = 170
DEFAULT_SECONDS = 12


def run_child(workload: str, seed: Optional[int], seconds: float, trace: int) -> Dict[str, Any]:
    """Run one workload pass in a subprocess; echo its output, return its result."""
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seconds", str(seconds), "--trace", str(trace),
    ]
    if seed is not None:
        command += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    lines = child.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(child.stderr)
    if child.returncode != 0 or not lines:
        raise SystemExit(child.returncode or 1)
    return json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    """Run the selected workloads and passes; print their results."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    passes = [args.trace] if args.trace is not None else [0, 1]
    results = {
        (workload, trace): run_child(workload, args.seed, args.seconds, trace)
        for workload in workloads
        for trace in passes
    }
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}/{name}": metric
                for (workload, _trace), r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
