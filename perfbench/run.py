#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study-hybrid --seed 17 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics from a traced stretch, preceded by an
untraced stretch of the same traffic that gives the tracing overhead.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any reply was wrong, 2 when the
program under test is missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("study-hybrid", "pull-hot", "cluster-push-cold")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "study-hybrid":
        from perfbench import study

        return study.run(seed, seconds, trace)
    from perfbench import loadgen

    return loadgen.run(name, seed, seconds, trace)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.metrics import END_TO_END, PER_LAYER

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in result.get("notes", ()):
        print(f"  note: {line}")
    samples = result.get("samples", {})
    for name, unit, _better in wanted:
        value, measured_unit = result["metrics"][name]
        if measured_unit != unit:
            raise RuntimeError(f"{name}: unit {measured_unit} != {unit}")
        metrics[name] = {"value": value, "unit": unit}
        detail = f"  [{samples[name]}]" if name in samples else ""
        print(f"  {name:<28} {value:>14.6g} {unit}{detail}")
    for name, text in samples.items():
        if name not in metrics:
            print(f"  {name:<28} {text}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
