"""``python -m perfbench run`` and ``python -m perfbench compare``.

``run`` executes ``perfbench/run.py`` once per workload, each in its own process
(so peak memory and children are per workload) and for the ``run_seconds`` that
``BENCHMARK.json`` fixes, prints every metric by name with its unit, and writes
``result.json`` plus one report and one span file per workload under ``--out``.
It exits 1 when a workload crashes or fails an output check or an operation; a
crashed workload is recorded in ``result.json`` as incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from perfbench.compare import compare
from perfbench.harness import BENCHMARK_JSON, DEFAULT_OUT, ROOT


def run(args: argparse.Namespace) -> int:
    """Run the chosen workloads; returns the process exit code."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    chosen = [args.workload] if args.workload else [entry["name"] for entry in spec["workloads"]]
    args.out.mkdir(parents=True, exist_ok=True)
    result: dict = {
        "seed": args.seed,
        "seconds": spec["run_seconds"],
        "traced": not args.no_trace,
        "workloads": {},
    }
    failures = 0
    for name in chosen:
        report_path = args.out / f"{name}.json"
        report_path.unlink(missing_ok=True)  # a crash must not be read as an earlier run's report
        command = [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
            "--trace", "0" if args.no_trace else "1", "--out", str(args.out),
        ]
        code = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
        if code != 0 or not report_path.exists():
            print(f"\n== {name}: exited with code {code} and no report", file=sys.stderr)
            result["workloads"][name] = {
                "correct": False, "problems": [f"exited with code {code}"],
                "attempted": 0, "failed": 0, "end_to_end": {}, "per_layer": None,
            }
            failures += 1
            continue
        report = json.loads(report_path.read_text(encoding="utf-8"))
        result["environment"] = report["environment"]
        untraced, traced = report["untraced"], report["traced"]
        result["workloads"][name] = {
            "correct": untraced["correct"],
            "problems": report["problems"],
            "samples": report["samples"],
            "tail_level": report["tail_level"],
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "end_to_end": {metric: entry["value"] for metric, entry in untraced["metrics"].items()},
            "per_layer": traced and {metric: entry["value"] for metric, entry in traced["metrics"].items()},
        }
        failures += (not untraced["correct"]) or untraced["failed"] > 0
        print(f"\n== {name}: {report['samples']} samples (op_ms_tail is p{report['tail_level']:g}), "
              f"checks {'passed' if untraced['correct'] else 'FAILED'}")
        print(f"{'failed_share':<36} {untraced['failed'] / untraced['attempted']:>16.6g} "
              f"({untraced['failed']} of {untraced['attempted']} operations)")
        for section in (untraced, traced):
            for metric, entry in (section or {"metrics": {}})["metrics"].items():
                print(f"{metric:<36} {entry['value']:>16.6g} {entry['unit']}")
    path = args.out / "result.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"\nresult written to {path}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m perfbench``."""
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run the workloads and print every metric")
    run_parser.add_argument("--workload", help="one workload (default: all)")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    run_parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    compare_parser = commands.add_parser("compare", help="judge change B against parent A")
    compare_parser.add_argument("parent", type=Path)
    compare_parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
