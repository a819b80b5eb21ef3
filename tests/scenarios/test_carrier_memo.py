"""How often a one-cell job prepares its carrier.

``resolve_circuit`` and ``lock_carrier`` keep small per-process memos,
so a job's cell task and its metric task share one parsed, locked and
optimized carrier, and a later job on the same carrier reuses it.  The
gate is on exact call counts, not wall-clock: parses
(``parse_bench``), locks (the scheme's lock function) and structural
optimizations (``optimize_compiled``) per job.
"""

import pytest

from repro.bench_circuits import corpus
from repro.circuit import opt
from repro.locking import registry
from repro.runner import Runner
from repro.scenarios import ScenarioSpec, run_matrix


@pytest.fixture
def calls(monkeypatch):
    """Per-name call counts of the patched carrier-preparation steps."""
    counts = {"parse": 0, "lock": 0, "optimize": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(corpus, "parse_bench", counted("parse", corpus.parse_bench))
    monkeypatch.setattr(
        registry, "sarlock_lock", counted("lock", registry.sarlock_lock)
    )
    monkeypatch.setattr(
        opt, "optimize_compiled", counted("optimize", opt.optimize_compiled)
    )
    corpus._prepared.cache_clear()
    registry._locked.cache_clear()
    yield counts
    corpus._prepared.cache_clear()
    registry._locked.cache_clear()


def _job(seed: int, effort: int) -> None:
    spec = ScenarioSpec(
        schemes=[("sarlock", {"key_size": 3})],
        circuits=("real_c432",),
        efforts=(effort,),
        seeds=(seed,),
        metrics=("corruption",),
        key_samples=0,
    )
    result = run_matrix(spec, runner=Runner(jobs=2, cache=None))
    assert [cell.status for cell in result.cells] == ["ok"]
    assert result.cells[0].metrics is not None


def test_one_cell_jobs_prepare_each_carrier_once(calls):
    def delta(seed, effort):
        before = dict(calls)
        _job(seed, effort)
        return {name: calls[name] - before[name] for name in calls}

    # The cell task and its metric task share one parse, one lock, and
    # one optimization each of the original and the locked circuit.
    assert delta(seed=1, effort=0) == {"parse": 1, "lock": 1, "optimize": 2}
    # Another effort on the same locked carrier prepares nothing.
    assert delta(seed=1, effort=2) == {"parse": 0, "lock": 0, "optimize": 0}
    # Another lock seed reuses the original: one lock, one optimization.
    assert delta(seed=2, effort=0) == {"parse": 0, "lock": 1, "optimize": 1}
