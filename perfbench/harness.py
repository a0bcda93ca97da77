"""Runs one workload the same way every time and turns it into named metrics.

One run is: set-up (repeated, median reported), a short untimed warm-up, an
**untraced** measured run — the only source of end-to-end metrics — and, when
tracing is asked for, a second **traced** run that is the only source of
per-layer metrics.  ``trace_overhead_share`` is the latency ratio of the traced
run and an untraced reference of the same size that runs right before it.
Output checks run outside every timed region.

The sandbox this benchmark was defined on slows down by 30-70% for 5-15 s at a
time, every minute or so.  An untraced run therefore repeats its operations in
at least ``MIN_PASSES`` whole passes and reports each operation at its fastest:
such an episode adds time to one pass of an operation and rarely to both.

``op_ms_tail`` is the highest percentile with at least ``SAMPLES_BEYOND``
samples beyond it, at the level each workload fixes for its number of distinct
operations.  ``peak_rss_mb`` is read right after the untraced run, so that the
traced run and the checks cannot raise it.

Metric names and units are read from ``BENCHMARK.json``; a workload that fails
to produce a declared metric is an error, not a silent omission.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.trace import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Everything the benchmark writes (span files, results, scratch stores).
DEFAULT_OUT = ROOT / ".perfbench_out"

#: Result bytes depend on the BLAS thread count (neo cell ``total_end_to_end_ms``
#: 121.7 at one thread vs 122.8 at the default) and 2 workers x N BLAS threads
#: oversubscribe 2 cores, so every process of a run is pinned to one thread.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Address-space cap inherited by every child: a runaway plan becomes a
#: ``MemoryError`` counted in ``failed``, not a host OOM kill.
ADDRESS_SPACE_LIMIT = 8 << 30

#: Whole passes an untraced run makes at least, however long one takes.
MIN_PASSES = 2

#: A percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10
PERCENTILE_LEVELS = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)


def pin_blas_threads() -> None:
    """Pin BLAS/OpenMP to one thread; call before numpy is first imported."""
    for variable in BLAS_PINS:
        os.environ[variable] = "1"


def limit_address_space() -> None:
    """Lower this process's (and its children's) ``RLIMIT_AS`` to ``ADDRESS_SPACE_LIMIT``."""
    limit = ADDRESS_SPACE_LIMIT
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def percentile(samples: list[float], level: float) -> float:
    """Nearest-rank percentile (``level`` in percent) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p50_or_zero(samples: list[float], scale: float = 1.0) -> float:
    """Median times ``scale``; ``0.0`` when the layer was never called."""
    return percentile(samples, 50.0) * scale if samples else 0.0


def supported_percentile(count: int) -> float:
    """Highest reportable level for ``count`` samples.

    The rule: report the highest percentile that still has at least
    ``SAMPLES_BEYOND`` samples above it; the median is always reportable.
    """
    best = PERCENTILE_LEVELS[0]
    for level in PERCENTILE_LEVELS:
        if count * (100.0 - level) / 100.0 >= SAMPLES_BEYOND - 1e-9:
            best = level
    return best


def peak_rss_mb(who: int) -> float:
    """Peak resident set so far of ``RUSAGE_SELF`` or the largest reaped of ``RUSAGE_CHILDREN``."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    """Machine facts recorded beside every result."""
    import numpy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {variable: os.environ.get(variable) for variable in BLAS_PINS},
        "address_space_limit": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``({end-to-end name: unit}, {per-layer name: unit})`` from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return (
        {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    )


@dataclass
class Measured:
    """What one measured run of a workload observed."""

    #: One latency per distinct operation, in milliseconds: its fastest pass.
    latencies_ms: list[float]
    #: What each of those operations was (query id, plan key, SQL text, sweep).
    keys: list[str]
    #: Seconds those operations kept the system busy (throughput denominator).
    busy_s: float
    #: Seconds the operations of *every* pass took (denominator of layer shares).
    total_s: float
    attempted: int
    failed: int
    #: Simulated milliseconds (planning + reported execution); never host time.
    sim_ms: float
    #: Workload-specific observations used by checks and per-layer metrics.
    details: dict = field(default_factory=dict)
    #: Operations completed, where that is not one per latency sample.
    completed: int | None = None

    def median_by_key(self) -> dict[str, float]:
        """Median latency of each distinct operation."""
        grouped: dict[str, list[float]] = {}
        for key, latency in zip(self.keys, self.latencies_ms):
            grouped.setdefault(key, []).append(latency)
        return {key: statistics.median(values) for key, values in grouped.items()}


def run_passes(one_pass, seconds: float, fixed: int | None = None) -> list:
    """Call ``one_pass(index)`` for whole passes and return what each returned.

    ``fixed`` passes when given (traced runs: counts must repeat exactly);
    otherwise at least ``MIN_PASSES``, and more until ``seconds`` have passed.
    """
    outcomes = []
    deadline = time.perf_counter() + seconds
    while len(outcomes) < (fixed or MIN_PASSES) or (fixed is None and time.perf_counter() < deadline):
        outcomes.append(one_pass(len(outcomes)))
    return outcomes


def fastest_of_passes(passes: list[tuple[dict[str, float], int]], operations: int, sim_ms: float) -> Measured:
    """Fold ``[(latency in ms by operation, failures)]``, one entry per pass, into a result.

    Every operation is reported at its lowest latency over the passes that
    completed it; ``operations`` is how many one pass attempts.
    """
    fastest: dict[str, float] = {}
    for latencies, _ in passes:
        for key, latency in latencies.items():
            if latency < fastest.get(key, float("inf")):
                fastest[key] = latency
    return Measured(
        latencies_ms=list(fastest.values()),
        keys=list(fastest),
        busy_s=sum(fastest.values()) / 1000.0,
        total_s=sum(sum(latencies.values()) for latencies, _ in passes) / 1000.0,
        attempted=len(passes) * operations,
        failed=sum(failed for _, failed in passes),
        sim_ms=sim_ms,
        details={"passes": len(passes)},
    )


class Workload:
    """One benchmark workload; subclasses live in :mod:`perfbench.workloads`."""

    name = ""
    #: How often set-up is repeated; the median is reported as ``setup_s``.
    setup_repeats = 3
    #: Level of ``op_ms_tail``: the highest percentile with ``SAMPLES_BEYOND``
    #: samples beyond it at this workload's number of distinct operations.
    tail_level = 50.0

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        #: Set-up time charged to single layers (``catalog.generate_s`` ...).
        self.setup_layers: dict[str, float] = {}

    def setup(self) -> None:
        """Build everything the measured run needs (timed as ``setup_s``)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop every child process and wait for it; safe to call twice."""

    def warmup(self) -> None:
        """Short untimed run that fills caches and finishes lazy set-up."""

    def measure(self, seconds: float, tracer: Tracer | None) -> Measured:
        """Untraced: whole passes for at least ``seconds``.  Traced: a fixed amount of work."""
        raise NotImplementedError

    def install(self, tracer: Tracer) -> None:
        """Install this workload's wrappers for the traced run."""
        from perfbench import layers

        layers.install(tracer)

    def layer_metrics(self, tracer: Tracer, untraced: Measured, traced: Measured) -> dict[str, float]:
        """Per-layer metrics only this workload can compute."""
        return {}

    def trace_reference(self, untraced: Measured) -> Measured:
        """The traced run's work without wrappers; runs right before the traced run."""
        raise NotImplementedError

    def check(self, untraced: Measured, traced: Measured | None) -> list[str]:
        """Output checks; returns one line per problem found."""
        return []


class PassWorkload(Workload):
    """A workload measured in whole passes over a fixed list of operations.

    The untraced run makes at least ``MIN_PASSES`` passes; the traced run and
    the untraced reference it is compared with make ``traced_passes`` each,
    back to back, so that ``trace_overhead_share`` compares like with like and
    every call count repeats exactly.
    """

    traced_passes = 1

    def __init__(self, seed: int, smoke: bool, scratch: Path) -> None:
        super().__init__(seed, smoke, scratch)
        #: ``{pass label: {operation: simulated ms}}``, filled by ``run_pass``.
        self.sim_ms: dict[str, dict[str, float]] = {}

    def operations(self) -> int:
        """How many operations one pass attempts."""
        raise NotImplementedError

    def run_pass(self, label: str, tracer: Tracer | None) -> tuple[dict[str, float], int]:
        """One pass: ``({operation: latency in ms}, failures)``; fills ``sim_ms[label]``."""
        raise NotImplementedError

    def _passes(self, prefix: str, seconds: float, fixed: int | None, tracer: Tracer | None) -> Measured:
        passes = run_passes(lambda index: self.run_pass(f"{prefix}-{index}", tracer), seconds, fixed)
        first = self.sim_ms[f"{prefix}-0"]
        return fastest_of_passes(passes, self.operations(), math.fsum(first[key] for key in sorted(first)))

    def measure(self, seconds: float, tracer: Tracer | None) -> Measured:
        """Whole passes: ``traced_passes`` when traced, else two or more until ``seconds`` have passed."""
        if tracer is not None:
            return self._passes("traced", 0.0, self.traced_passes, tracer)
        return self._passes("untraced", seconds, None, None)

    def trace_reference(self, untraced: Measured) -> Measured:
        """As many untraced passes as the traced run makes, right before it."""
        return self._passes("reference", 0.0, self.traced_passes, None)

    def check(self, untraced: Measured, traced: Measured | None) -> list[str]:
        """Simulated time of every operation is the same in every pass."""
        reference = self.sim_ms["untraced-0"]
        return [
            f"simulated time of {key} differs in {label}"
            for label, sim_ms in self.sim_ms.items()
            for key, value in sim_ms.items()
            if reference.get(key, value) != value
        ]


def trace_overhead(reference: Measured, traced: Measured) -> float:
    """Share by which tracing slowed the run.

    The median, over the operations both runs executed, of traced over
    untraced median latency: a burst of host noise moves a few operations,
    not the median ratio.
    """
    plain, wrapped = reference.median_by_key(), traced.median_by_key()
    ratios = [wrapped[key] / plain[key] for key in plain.keys() & wrapped.keys() if plain[key] > 0]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


@dataclass
class RunResult:
    """Outcome of one harness run of one workload."""

    workload: str
    seed: int
    correct: bool
    problems: list[str]
    attempted: int
    failed: int
    samples: int
    #: The percentile ``op_ms_tail`` was read at.
    tail_level: float
    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None

    def report(self, traced: bool) -> dict:
        """The one-line JSON object the benchmark contract asks for."""
        end_to_end_units, per_layer_units = declared_metrics()
        values, units = (
            (self.per_layer, per_layer_units) if traced else (self.end_to_end, end_to_end_units)
        )
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }


def end_to_end_metrics(measured: Measured, tail_level: float, setup_s: float, rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics every workload reports from its untraced run."""
    latencies = measured.latencies_ms
    return {
        "op_ms_p50": percentile(latencies, 50.0),
        "op_ms_tail": percentile(latencies, tail_level),
        "ops_per_s": (measured.completed or len(latencies)) / measured.busy_s,
        "sim_ms_total": measured.sim_ms,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def run_workload(
    workload_cls: type[Workload],
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    out_dir: Path = DEFAULT_OUT,
    import_s: float = 0.0,
) -> RunResult:
    """Set up, warm up, measure (untraced, then traced) and check one workload."""
    from perfbench import layers

    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload_cls.name}-", dir=out_dir))
    workload = workload_cls(seed, smoke, scratch)
    atexit.register(workload.teardown)
    traced = per_layer = None
    try:
        setups = []
        for _ in range(1 if smoke else workload.setup_repeats):
            workload.teardown()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        setup_s = import_s + statistics.median(setups)
        workload.warmup()
        untraced = workload.measure(seconds, None)
        if not untraced.latencies_ms:
            raise RuntimeError(f"{workload.name}: none of {untraced.attempted} operations completed")
        # Before the traced run and the checks (oracles, in-process cells) can raise it.
        own_rss_mb = peak_rss_mb(resource.RUSAGE_SELF)
        if trace:
            reference = workload.trace_reference(untraced)
            tracer = Tracer()
            workload.install(tracer)
            try:
                traced = workload.measure(seconds, tracer)
            finally:
                tracer.uninstall()
            per_layer = layers.summarize(tracer, traced)
            per_layer.update(workload.setup_layers)
            per_layer.update(workload.layer_metrics(tracer, untraced, traced))
            per_layer["trace_overhead_share"] = trace_overhead(reference, traced)
            per_layer["trace_spans_total"] = len(tracer.spans)
            tracer.write_jsonl(out_dir / f"{workload.name}.spans.jsonl")
        problems = workload.check(untraced, traced)
    finally:
        workload.teardown()
        atexit.unregister(workload.teardown)
        shutil.rmtree(scratch, ignore_errors=True)
    samples = len(untraced.latencies_ms)
    # Never above the level the sample supports (a smoke run has too few operations).
    tail_level = min(workload.tail_level, supported_percentile(samples))
    return RunResult(
        workload=workload.name,
        seed=seed,
        correct=not problems,
        problems=problems,
        attempted=untraced.attempted,
        failed=untraced.failed,
        samples=samples,
        tail_level=tail_level,
        # Children count once reaped, which teardown has seen to: the largest of them.
        end_to_end=end_to_end_metrics(
            untraced, tail_level, setup_s, own_rss_mb + peak_rss_mb(resource.RUSAGE_CHILDREN)
        ),
        per_layer=per_layer,
    )
