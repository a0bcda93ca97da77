"""The command ``BENCHMARK.json`` names: one workload, one run, one JSON line.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`` from
the root of a checkout.  ``--trace 0`` prints every end-to-end metric of the
untraced run, ``--trace 1`` every per-layer metric of the traced run that
follows it.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; failed output checks make
``correct`` false and are listed on standard error.  The full report — both
metric sets, the checks and the environment — is written to
``<out>/<workload>.json`` beside the span file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    """Run one workload and print its result line."""
    started = time.perf_counter()
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--out", type=Path, help="directory for reports, span files and scratch stores")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    for entry in (ROOT / "src", ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

    from perfbench import harness

    harness.pin_blas_threads()  # before numpy is imported, and inherited by children
    harness.limit_address_space()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = args.out or harness.DEFAULT_OUT
    result = harness.run_workload(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        out_dir=out_dir,
        import_s=time.perf_counter() - started,
    )
    for problem in result.problems:
        print(f"perfbench: {args.workload}: CHECK FAILED: {problem}", file=sys.stderr)
    report = {
        "workload": result.workload,
        "seed": result.seed,
        "seconds": args.seconds,
        "samples": result.samples,
        "tail_level": result.tail_level,
        "problems": result.problems,
        "environment": harness.environment(),
        "untraced": result.report(traced=False),
        "traced": result.report(traced=True) if args.trace else None,
    }
    (out_dir / f"{args.workload}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report["traced"] or report["untraced"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
