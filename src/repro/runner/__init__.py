"""Parallel experiment runner with an on-disk result cache.

The orchestration seam for every experiment driver: drivers describe
their rows/cells as declarative :class:`~repro.runner.task.TaskSpec`
objects, and a :class:`~repro.runner.executor.Runner` executes them —
checking the content-hash-keyed :class:`~repro.runner.cache.ResultCache`
first, fanning misses out over a process pool, and persisting fresh
artifacts as JSON for the next run.

Typical use::

    from repro.runner import ResultCache, Runner
    from repro.experiments.table2 import run_table2

    runner = Runner(jobs=4, cache=ResultCache("~/.cache/repro-lock"))
    result = run_table2(circuits=("c880", "c1355"), runner=runner)
"""

from repro.runner.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.runner.executor import (
    Runner,
    chunk_evenly,
    print_progress,
    progress_line,
)
from repro.runner.task import (
    CACHE_FORMAT_VERSION,
    TaskResult,
    TaskSpec,
    canonical_json,
    register_task,
    registered_kinds,
    task_worker,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "ResultCache",
    "Runner",
    "TaskResult",
    "TaskSpec",
    "canonical_json",
    "chunk_evenly",
    "default_cache_dir",
    "print_progress",
    "progress_line",
    "register_task",
    "registered_kinds",
    "task_worker",
]
