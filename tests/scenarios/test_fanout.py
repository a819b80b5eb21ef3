"""Where a matrix job forks its process pool.

Parallelism lives in exactly one place.  A one-cell grid runs its cell
and its single metric task in the calling process, and only the cell's
own sub-attacks may fan out (``inner_parallel=True``).  A grid of two
or more cells fans out over the runner's pool.

Every ``ProcessPoolExecutor`` construction appends the constructing
process's pid to a log file; forked pool workers inherit the patch, so
a pool built inside a worker is logged too.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.runner import Runner
from repro.scenarios import ScenarioSpec, run_matrix


class _LoggedPool(ProcessPoolExecutor):
    log = None

    def __init__(self, *args, **kwargs):
        with open(self.log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        super().__init__(*args, **kwargs)


@pytest.fixture
def pool_log(tmp_path, monkeypatch):
    """The pids that built a process pool, one per construction."""
    log = tmp_path / "pools.log"
    log.touch()
    monkeypatch.setattr(_LoggedPool, "log", str(log))
    monkeypatch.setattr("repro.runner.executor.ProcessPoolExecutor", _LoggedPool)
    return lambda: [int(line) for line in log.read_text().split()]


def _spec(seeds=(0,)) -> ScenarioSpec:
    # The reference engine runs 2^N independent sub-tasks, so an inner
    # fan-out at N=1 has two tasks to spread over its pool.
    return ScenarioSpec(
        schemes=[("sarlock", {"key_size": 3})],
        engines=("reference",),
        circuits=("c432",),
        scale=0.12,
        efforts=(1,),
        seeds=seeds,
        metrics=("corruption",),
        key_samples=0,
    )


def test_one_cell_with_metrics_forks_no_pool(pool_log):
    spec = _spec()
    assert spec.size == 1 and len(spec.expand_metrics()) == 1
    result = run_matrix(spec, runner=Runner(jobs=2))
    assert [cell.status for cell in result.cells] == ["ok"]
    assert result.cells[0].metrics is not None
    assert pool_log() == []


def test_inner_parallel_one_cell_forks_only_its_own_pool(pool_log):
    result = run_matrix(_spec(), runner=Runner(jobs=2), inner_parallel=True)
    assert [cell.status for cell in result.cells] == ["ok"]
    assert result.cells[0].metrics is not None
    assert pool_log() == [os.getpid()]


def test_two_cells_fan_out_over_the_runner_pool(pool_log):
    spec = _spec(seeds=(0, 1))
    assert spec.size == 2
    result = run_matrix(spec, runner=Runner(jobs=2))
    assert [cell.status for cell in result.cells] == ["ok", "ok"]
    assert pool_log() == [os.getpid()]
