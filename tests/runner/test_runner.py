"""Runner subsystem tests: cache behavior, key stability, parallel parity."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner import (
    ResultCache,
    Runner,
    TaskSpec,
    default_cache_dir,
    register_task,
    task_worker,
)

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


@register_task("_test_double")
def _double_task(params: dict) -> dict:
    """Test worker: doubles a value; optionally logs each execution to a
    file so tests can count real computations across processes."""
    log = params.get("log_file")
    if log:
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{params['value']}\n")
    return {"doubled": params["value"] * 2, "pid": os.getpid()}


@register_task("_test_stamped_sleep")
def _stamped_sleep_task(params: dict) -> dict:
    """Test worker: sleeps briefly, logging timestamped enter/exit
    marks so tests can measure execution overlap across runners."""
    import time

    log = params["log_file"]
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(f"{time.monotonic():.6f} enter\n")
    time.sleep(params["seconds"])
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(f"{time.monotonic():.6f} exit\n")
    return {"value": params["value"]}


def _spec(value: int, log_file: str | None = None) -> TaskSpec:
    return TaskSpec(
        kind="_test_double",
        params={"value": value},
        context={"log_file": log_file} if log_file else None,
        label=f"double {value}",
    )


class TestTaskSpec:
    def test_cache_key_is_content_hash(self):
        a = TaskSpec("k", {"x": 1, "y": [1, 2]})
        b = TaskSpec("k", {"y": [1, 2], "x": 1})  # insertion order differs
        assert a.cache_key == b.cache_key
        assert len(a.cache_key) == 64

    def test_key_distinguishes_kind_and_params(self):
        base = TaskSpec("k", {"x": 1})
        assert base.cache_key != TaskSpec("k2", {"x": 1}).cache_key
        assert base.cache_key != TaskSpec("k", {"x": 2}).cache_key

    def test_context_excluded_from_key(self):
        plain = TaskSpec("k", {"x": 1})
        with_ctx = TaskSpec("k", {"x": 1}, context={"parallel": True})
        assert plain.cache_key == with_ctx.cache_key
        assert with_ctx.worker_params == {"x": 1, "parallel": True}

    def test_non_json_params_rejected(self):
        with pytest.raises(TypeError):
            TaskSpec("k", {"x": object()}).cache_key

    def test_key_stable_across_processes(self):
        """The same spec must hash identically in a fresh interpreter
        with a different PYTHONHASHSEED — that is what makes the
        on-disk cache shareable between runs."""
        spec = TaskSpec(
            "table2_row", {"circuit": "c880", "scale": 0.2, "seed": 1}
        )
        code = (
            "from repro.runner import TaskSpec\n"
            "print(TaskSpec('table2_row', "
            "{'circuit': 'c880', 'scale': 0.2, 'seed': 1}).cache_key)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == spec.cache_key

    def test_unknown_kind_lists_known(self):
        with pytest.raises(KeyError, match="_test_double"):
            task_worker("_no_such_kind")


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(21)
        assert cache.load(spec) is None
        cache.store(spec, {"doubled": 42}, elapsed_seconds=0.5)
        entry = cache.load(spec)
        assert entry["artifact"] == {"doubled": 42}
        assert entry["elapsed_seconds"] == 0.5
        assert cache.hits == 1 and cache.misses == 1

    def test_artifact_layout_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(1)
        path = cache.store(spec, {"doubled": 2}, elapsed_seconds=0.0)
        assert path == tmp_path / "_test_double" / f"{spec.cache_key}.json"
        entry = json.loads(path.read_text())
        assert entry["kind"] == "_test_double"
        assert entry["params"] == {"value": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(3)
        path = cache.store(spec, {"doubled": 6}, elapsed_seconds=0.0)
        path.write_text("{not json")
        assert cache.load(spec) is None

    def test_clear_by_kind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(_spec(1), {"doubled": 2}, 0.0)
        cache.store(TaskSpec("_other", {"v": 1}), {}, 0.0)
        assert cache.clear(kind="_test_double") == 1
        assert cache.entry_count() == 1

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_dir() == tmp_path / "env-cache"

    def test_explicit_root_expands_tilde(self):
        root = ResultCache("~/some-cache").root
        assert "~" not in str(root)
        assert root.is_absolute()

    def test_orphaned_tmp_files_not_counted_but_reaped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(_spec(1), {"doubled": 2}, 0.0)
        stray = tmp_path / "_test_double" / ".tmp-dead.json"
        stray.write_text("{half-written")
        assert cache.entry_count() == 1
        assert cache.clear() == 1  # the stray doesn't inflate the count
        assert not stray.exists()  # ... but it does get reaped


class TestRunner:
    def test_second_run_is_cached_without_recompute(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        log = tmp_path / "executions.log"
        runner = Runner(jobs=1, cache=cache)

        first = runner.run([_spec(5, str(log))])
        second = runner.run([_spec(5, str(log))])

        assert first[0].artifact["doubled"] == 10
        assert second[0].artifact["doubled"] == 10
        assert not first[0].cached and second[0].cached
        # Exactly one real execution: the second run never ran the worker.
        assert log.read_text().splitlines() == ["5"]

    def test_no_cache_recomputes(self, tmp_path):
        log = tmp_path / "executions.log"
        runner = Runner(jobs=1, cache=None)
        runner.run([_spec(5, str(log))])
        runner.run([_spec(5, str(log))])
        assert log.read_text().splitlines() == ["5", "5"]

    def test_results_in_submission_order(self, tmp_path):
        runner = Runner(jobs=2, cache=None)
        results = runner.run([_spec(v) for v in (9, 3, 7, 1)])
        assert [r.artifact["doubled"] for r in results] == [18, 6, 14, 2]

    def test_parallel_uses_worker_processes(self):
        results = Runner(jobs=2).run([_spec(v) for v in range(4)])
        pids = {r.artifact["pid"] for r in results}
        assert os.getpid() not in pids

    def test_parallel_populates_cache_for_serial_reader(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(jobs=2, cache=cache).run([_spec(v) for v in (1, 2, 3)])
        results = Runner(jobs=1, cache=ResultCache(tmp_path)).run(
            [_spec(v) for v in (1, 2, 3)]
        )
        assert all(r.cached for r in results)

    def test_pending_count_reflects_cache_state(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [_spec(v) for v in (1, 2, 3)]
        uncached = Runner(jobs=1)
        assert uncached.pending_count(specs) == 3
        runner = Runner(jobs=1, cache=cache)
        runner.run(specs[:2])
        assert runner.pending_count(specs) == 1

    def test_progress_callback_sees_every_task(self):
        seen = []
        runner = Runner(
            jobs=1, progress=lambda res, done, total: seen.append((done, total))
        )
        runner.run([_spec(v) for v in (1, 2, 3)])
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestExperimentParity:
    """Parallel and serial execution produce identical experiment rows."""

    @staticmethod
    def _table2(runner):
        from repro.experiments.table2 import run_table2
        from repro.locking.lut_lock import LutModuleSpec

        return run_table2(
            circuits=("c880", "c1355"),
            scale=0.2,
            spec=LutModuleSpec.tiny(),
            effort=2,
            parallel=False,
            time_limit_per_task=60.0,
            runner=runner,
        )

    def test_table2_parallel_matches_serial(self):
        serial = self._table2(Runner(jobs=1))
        fanned = self._table2(Runner(jobs=2))
        for a, b in zip(serial.cells, fanned.cells):
            assert a.circuit == b.circuit
            assert a.dips_per_task == b.dips_per_task
            assert a.baseline_dips == b.baseline_dips
            assert a.baseline_status == b.baseline_status
            assert a.status == b.status
            assert a.composition_equivalent == b.composition_equivalent

    def test_table2_warm_cache_replays_identically(self, tmp_path):
        from repro.experiments.table2 import format_table2

        cold = self._table2(Runner(jobs=1, cache=ResultCache(tmp_path)))
        warm = self._table2(Runner(jobs=1, cache=ResultCache(tmp_path)))
        # Timing fields included: a cache hit replays the artifact verbatim,
        # so the formatted table is byte-identical.
        assert cold.cells == warm.cells
        assert format_table2(cold) == format_table2(warm)

    def test_table1_parallel_matches_serial(self):
        from repro.experiments.table1 import run_table1

        kwargs = dict(key_sizes=(3, 4), efforts=(0, 1), scale=0.12)
        serial = run_table1(runner=Runner(jobs=1), **kwargs)
        fanned = run_table1(runner=Runner(jobs=2), **kwargs)
        # Every deterministic column (timings are measurements).
        def grid(result):
            return [
                (c.key_size, c.effort, c.dips_per_task, c.uniform,
                 c.max_dips, c.status)
                for c in result.cells
            ]

        assert grid(serial) == grid(fanned)

    def test_figure1_cache_round_trip(self, tmp_path):
        from repro.experiments.figure1 import run_figure1

        cold = run_figure1(runner=Runner(cache=ResultCache(tmp_path)))
        warm = run_figure1(runner=Runner(cache=ResultCache(tmp_path)))
        assert cold == warm
        assert isinstance(warm.incorrect_pair, tuple)


class TestRunIter:
    """The streaming surface behind the service layer's event bridge."""

    def test_yields_index_result_pairs_for_every_spec(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        specs = [_spec(v) for v in (1, 2, 3)]
        pairs = list(runner.run_iter(specs))
        assert sorted(index for index, _ in pairs) == [0, 1, 2]
        by_index = dict(pairs)
        assert [by_index[i].artifact["doubled"] for i in range(3)] == [2, 4, 6]

    def test_run_is_run_iter_in_submission_order(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        specs = [_spec(v) for v in (5, 1, 9)]
        results = runner.run(specs)
        assert [r.artifact["doubled"] for r in results] == [10, 2, 18]

    def test_cache_hits_stream_first_without_dispatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(cache=cache).run([_spec(1)])
        dispatched = []
        runner = Runner(
            cache=cache,
            on_dispatch=lambda spec, index: dispatched.append(index),
        )
        pairs = list(runner.run_iter([_spec(2), _spec(1)]))
        # The hit (index 1) streams before the miss executes ...
        assert pairs[0][0] == 1 and pairs[0][1].cached
        assert pairs[1][0] == 0 and not pairs[1][1].cached
        # ... and only the miss dispatched.
        assert dispatched == [0]

    def test_on_dispatch_fires_per_miss_in_pool_mode(self):
        dispatched = []
        runner = Runner(
            jobs=2, on_dispatch=lambda spec, index: dispatched.append(index)
        )
        results = runner.run([_spec(v) for v in (1, 2, 3)])
        assert len(results) == 3
        assert sorted(dispatched) == [0, 1, 2]

    def test_progress_fires_before_each_yield(self):
        order = []
        runner = Runner(
            progress=lambda result, done, total: order.append(("cb", done, total))
        )
        for index, _ in runner.run_iter([_spec(v) for v in (1, 2)]):
            order.append(("yield", index))
        assert order == [("cb", 1, 2), ("yield", 0), ("cb", 2, 2), ("yield", 1)]

    def test_should_stop_before_start_runs_nothing(self):
        runner = Runner(should_stop=lambda: True)
        assert runner.run([_spec(1), _spec(2)]) == []

    def test_should_stop_mid_run_keeps_finished_results(self):
        stop = {"now": False}

        def progress(result, done, total):
            stop["now"] = True  # trip after the first completion

        runner = Runner(progress=progress, should_stop=lambda: stop["now"])
        results = runner.run([_spec(v) for v in (1, 2, 3)])
        assert len(results) == 1
        assert results[0].artifact["doubled"] == 2

    def test_should_stop_mid_run_in_pool_mode(self, tmp_path):
        stop = {"now": False}

        def progress(result, done, total):
            stop["now"] = True

        runner = Runner(
            jobs=2, progress=progress, should_stop=lambda: stop["now"]
        )
        results = runner.run([_spec(v) for v in range(8)])
        # At least the first completion is kept; queued work was
        # dropped once the stop tripped.
        assert 1 <= len(results) < 8

    def test_stop_on_first_completion_keeps_at_most_jobs_results(self):
        """Only ``jobs`` tasks are ever in flight, so a stop tripped by
        the first completion can keep at most the ones already running."""
        stop = {"now": False}

        def progress(result, done, total):
            stop["now"] = True

        runner = Runner(
            jobs=2, progress=progress, should_stop=lambda: stop["now"]
        )
        for _ in range(3):
            stop["now"] = False
            results = runner.run([_spec(v) for v in range(8)])
            assert 1 <= len(results) <= runner.jobs

    def test_stopped_pool_run_still_caches_what_finished(self, tmp_path):
        cache = ResultCache(tmp_path)
        stop = {"now": False}

        def progress(result, done, total):
            stop["now"] = True

        runner = Runner(
            jobs=2, cache=cache, progress=progress,
            should_stop=lambda: stop["now"],
        )
        finished = runner.run([_spec(v) for v in range(6)])
        assert all(cache.contains(r.spec) for r in finished)


class TestSharedSlots:
    """The service-wide worker budget: one semaphore across runners."""

    def test_serial_runs_in_two_threads_never_overlap_with_one_slot(
        self, tmp_path
    ):
        import threading

        log = tmp_path / "overlap.log"

        specs = [
            TaskSpec(
                kind="_test_stamped_sleep",
                params={"value": v, "seconds": 0.05},
                context={"log_file": str(log)},
            )
            for v in range(3)
        ]
        slots = threading.Semaphore(1)
        runners = [Runner(slots=slots), Runner(slots=slots)]
        threads = [
            threading.Thread(target=runner.run, args=(specs[i::2],))
            for i, runner in enumerate(runners)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        events = []
        for line in log.read_text().splitlines():
            stamp, kind = line.split()
            events.append((float(stamp), kind))
        events.sort()
        depth = 0
        for _, kind in events:
            depth += 1 if kind == "enter" else -1
            assert depth <= 1, "two tasks executed concurrently despite 1 slot"
        assert sum(kind == "enter" for _, kind in events) == 3

    def test_pool_mode_bounds_inflight_tasks_to_slots(self, tmp_path):
        import threading

        log = tmp_path / "pool-overlap.log"
        specs = [
            TaskSpec(
                kind="_test_stamped_sleep",
                params={"value": v, "seconds": 0.05},
                context={"log_file": str(log)},
            )
            for v in range(5)
        ]
        runner = Runner(jobs=4, slots=threading.Semaphore(2))
        results = runner.run(specs)
        assert len(results) == 5
        events = sorted(
            (float(line.split()[0]), line.split()[1])
            for line in log.read_text().splitlines()
        )
        depth = 0
        for _, kind in events:
            depth += 1 if kind == "enter" else -1
            assert depth <= 2, "more in-flight tasks than shared slots"

    def test_results_carry_submission_index(self, tmp_path):
        cache = ResultCache(tmp_path)
        Runner(cache=cache).run([_spec(7)])
        runner = Runner(cache=cache)
        for index, result in runner.run_iter([_spec(8), _spec(7)]):
            assert result.index == index


class TestStopDrainsInflight:
    def test_pool_stop_keeps_inflight_results_and_caches_them(self, tmp_path):
        # Two workers, two tasks: both are on a worker when the first
        # completion trips the stop, so BOTH results must come back
        # (the pool shutdown waits for the second anyway) and both
        # must land in the cache.
        cache = ResultCache(tmp_path / "cache")
        log = tmp_path / "drain.log"
        stop = {"now": False}

        def progress(result, done, total):
            stop["now"] = True

        specs = [
            TaskSpec(
                kind="_test_stamped_sleep",
                params={"value": v, "seconds": 0.05},
                context={"log_file": str(log)},
            )
            for v in range(2)
        ]
        runner = Runner(
            jobs=2, cache=cache, progress=progress,
            should_stop=lambda: stop["now"],
        )
        results = runner.run(specs)
        assert len(results) == 2
        assert all(cache.contains(r.spec) for r in results)
