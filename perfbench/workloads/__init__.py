"""The benchmark's workloads, by the names ``BENCHMARK.json`` gives them."""

from perfbench.workloads.fig4_sweep_tcp import Fig4SweepTcp
from perfbench.workloads.job_cold_path import JobColdPath
from perfbench.workloads.prepared_hot_exec import PreparedHotExec
from perfbench.workloads.serve_miss import ServeMiss
from perfbench.workloads.serve_replay import ServeReplay

WORKLOADS = {
    cls.name: cls for cls in (JobColdPath, PreparedHotExec, Fig4SweepTcp, ServeReplay, ServeMiss)
}
