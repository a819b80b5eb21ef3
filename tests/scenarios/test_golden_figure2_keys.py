"""Pinned ``corruption_cell`` cache keys of the Figure 2 driver.

Figure 2's points are ``corruption_cell`` tasks; a change to how the
driver builds them (a hashed param's name, value or shape) moves these
digests and orphans every cached Figure 2 point.  The driver's runner
is replaced by one that records the submitted tasks and stops, so the
keys are pinned without evaluating any metric.
"""

import pytest

from repro.experiments.figure2 import run_figure2


class _Submitted(Exception):
    """Raised by :class:`_RecordingRunner` once the tasks are in."""


class _RecordingRunner:
    def run(self, specs):
        self.specs = list(specs)
        raise _Submitted


PARAMS = {
    "default": {},
    "small": dict(key_size=3, scale=0.12, efforts=(0, 1), key_samples=0),
}

GOLDEN_FIGURE2_KEYS = {
    "default": [
        ("corruption_cell", "cfacc10b7d89723995517717b2e182675ccac43f56f3f271b8d50bfe29926c43"),
        ("corruption_cell", "763c2022d484d8b402b4eb6a6c3bd7335d04d5d197d1bcc15c4e8487644bddc4"),
        ("corruption_cell", "a15b3839fc9bc849d3fa6b6535cf6784c540eb401708e01a6df7a14d25f43e24"),
        ("corruption_cell", "ce877af68ecf4bf4eeac6557c9bb260b178f8828e9c58fb464f2e9bfe35cb50b"),
    ],
    "small": [
        ("corruption_cell", "0c0f831731e6953eff0e64035510b7ca5bbf8099271f25b81bf2f484c6c4ea03"),
        ("corruption_cell", "9b5bd746278c64dba2d02c8856dc3b5053e667018f6b95d31f743e5c3f83f020"),
    ],
}


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_figure2_cells_hash_as_pinned(name, monkeypatch):
    monkeypatch.delenv("REPRO_SOLVER", raising=False)
    runner = _RecordingRunner()
    with pytest.raises(_Submitted):
        run_figure2(runner=runner, **PARAMS[name])
    assert [
        (task.kind, task.cache_key) for task in runner.specs
    ] == GOLDEN_FIGURE2_KEYS[name]
