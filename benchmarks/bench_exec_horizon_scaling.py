"""Horizon-scaling guard for the RTSJ execution arm.

Not a paper table — this pins how the framework servers' cost grows
with the run horizon.  The densest paper set (task density 3, cost
standard deviation 2) is overloaded, so its pending backlog grows
linearly with the horizon; a ``chooseNextEvent`` that rescans the
backlog on every decision makes the execution arm quadratic in it.
The same ten systems are executed under the Deferrable and the Polling
Server at the paper's horizon (1x, ten server periods) and at 40x.

The ``bench-smoke`` CI job divides each 40x median by 40 and by the 1x
median (the ``fast_systems``/``default_systems`` normalisation of
``benchmarks/BENCH_engine.json``): the per-horizon cost ratio, 1.0 for
perfectly linear scaling.  Measured on a 2-vCPU x86-64 VM (Python
3.11, median of 3 runs), the indexed pending queue keeps it at ~1.24
(DS) and ~1.35 (PS); the linear-scan queue it replaced measured ~2.5
for both, which the guards (max 1.55 and 1.69) reject.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.campaign import execute_system
from repro.workload import PAPER_SETS, RandomSystemGenerator

#: the densest set: task density 3, cost standard deviation 2
DENSEST = max(PAPER_SETS, key=lambda p: (p.task_density, p.std_deviation))


def _systems(multiplier: int) -> list:
    params = replace(DENSEST,
                     horizon_periods=DENSEST.horizon_periods * multiplier)
    return RandomSystemGenerator(params).generate()


def _execute(systems: list, policy: str) -> int:
    """Execute every system; the total count of execution trace events."""
    return sum(len(execute_system(system, policy).trace.events)
               for system in systems)


def _bench(benchmark, policy: str, multiplier: int) -> None:
    systems = _systems(multiplier)
    events = benchmark(_execute, systems, policy)
    releases = sum(len(system.events) for system in systems)
    print(f"\n{policy} {multiplier}x: {releases} releases, "
          f"{events} trace events over {len(systems)} systems")
    assert events > releases


def bench_exec_horizon_ds_1x(benchmark):
    _bench(benchmark, "deferrable", 1)


def bench_exec_horizon_ds_40x(benchmark):
    _bench(benchmark, "deferrable", 40)


def bench_exec_horizon_ps_1x(benchmark):
    _bench(benchmark, "polling", 1)


def bench_exec_horizon_ps_40x(benchmark):
    _bench(benchmark, "polling", 40)
