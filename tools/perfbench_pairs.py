"""Alternating parent/change runs of one perfbench workload, judged by ``compare``.

What every performance PR does by hand (choosing-metrics, section 8): run the
benchmark at two revisions in turns — A, B, B, A, A, B … so that neither side
always runs first or always runs into the same noisy minute — and read the
medians, the quartiles, how many pairs the change won and the verdict of
``python -m perfbench compare``::

    python tools/perfbench_pairs.py A B --workload fig4_sweep_tcp [--pairs 5] [--keep DIR]
    make perfbench-pairs A=HEAD~1 B=HEAD W=fig4_sweep_tcp N=5

``A`` and ``B`` are git revisions, each checked out as a detached ``git
worktree`` under a temporary directory and removed afterwards, or directories
that already hold a checkout (an uncommitted working tree, a ``git archive``
export).  Each run is ``perfbench/run.py --trace 0`` *of that checkout*, with
the ``run_seconds`` of its ``BENCHMARK.json`` and the pair's number as seed.
The exit code is ``compare``'s: 1 when an end-to-end metric regressed beyond
its bound, a run was incorrect or operations failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]


@contextmanager
def checkout(revision: str, parent_dir: Path, label: str) -> Iterator[Path]:
    """The directory of ``revision``: itself if it is one, else a worktree removed on exit."""
    if Path(revision).is_dir():
        yield Path(revision).resolve()
        return
    path = parent_dir / label
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(path), revision],
                   check=True, stdout=subprocess.DEVNULL)
    try:
        yield path
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)], check=False)


def run_once(tree: Path, workload: str, seed: int, out_dir: Path) -> dict:
    """One untraced run of ``workload`` at ``tree``, as a ``compare`` result document."""
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0", "--out", str(out_dir / "scratch"),
    ]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        outcome = {"correct": False, "attempted": 0, "failed": 0, "end_to_end": {}}
    else:
        line = json.loads(lines[-1])
        outcome = {
            "correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
            "end_to_end": {name: entry["value"] for name, entry in line["metrics"].items()},
        }
    return {"seed": seed, "workloads": {workload: outcome}}


def summary(workload: str, runs: dict[str, list[dict]]) -> Iterator[str]:
    """One line per end-to-end metric: each side's median [quartiles] and the pairs B won."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    yield f"{'metric':<14} {'A median [q1..q3]':>34} {'B median [q1..q3]':>34}  B better in"
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = [
            [run["workloads"][workload]["end_to_end"].get(name) for run in runs[side]] for side in "AB"
        ]
        pairs = [(a, b) for a, b in zip(*sides) if a is not None and b is not None]
        if not pairs:
            yield f"{name:<14} no value"
            continue
        cells = []
        for values in zip(*pairs):
            quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
            cells.append(f"{statistics.median(values):.6g} [{quartiles[0]:.6g}..{quartiles[2]:.6g}]")
        wins = sum((b < a) if lower else (b > a) for a, b in pairs)
        yield f"{name:<14} {cells[0]:>34} {cells[1]:>34}  {wins}/{len(pairs)} pairs"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", metavar="A", help="parent: a git revision or a checkout directory")
    parser.add_argument("b", metavar="B", help="change: a git revision or a checkout directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--keep", type=Path, help="keep the per-run result files in this directory")
    args = parser.parse_args(argv)
    with ExitStack() as stack:
        scratch = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="perfbench-pairs-")))
        results = args.keep or scratch / "results"
        trees = {
            "A": stack.enter_context(checkout(args.a, scratch, "A")),
            "B": stack.enter_context(checkout(args.b, scratch, "B")),
        }
        runs: dict[str, list[dict]] = {"A": [], "B": []}
        for pair in range(args.pairs):
            for side in ("AB", "BA")[pair % 2]:
                run = run_once(trees[side], args.workload, pair + 1, scratch)
                runs[side].append(run)
                path = results / side / f"pair-{pair + 1:02d}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
                values = run["workloads"][args.workload]["end_to_end"]
                print(f"pair {pair + 1} {side}: " + ", ".join(f"{k} {v:.6g}" for k, v in values.items()),
                      flush=True)
        print()
        print("\n".join(summary(args.workload, runs)))
        print()
        # The change's compare and BENCHMARK.json judge: this tool lives outside perfbench/.
        verdict = subprocess.run(
            [sys.executable, "-m", "perfbench", "compare", str(results / "A"), str(results / "B")],
            cwd=trees["B"], stdout=subprocess.PIPE, text=True,
        )
        # compare also reports the workloads that were not run as missing: keep this one's lines.
        kept = [
            line for line in verdict.stdout.splitlines()
            if line.startswith(("workload ", f"{args.workload} ")) or f" {args.workload} " in line
        ]
        print("\n".join(kept))
        regressed = any(line.rstrip().endswith("regressed") for line in kept)
        unhealthy = any(
            not run["workloads"][args.workload]["correct"] or run["workloads"][args.workload]["failed"]
            for side in runs.values() for run in side
        )
        return 1 if regressed or unhealthy else 0


if __name__ == "__main__":
    sys.exit(main())
