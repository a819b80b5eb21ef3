"""Tier-1 gate for the runnable docstring examples.

CI also runs ``pytest --doctest-modules`` over these modules directly;
this test keeps the same examples from rotting on machines that only
run the plain tier-1 suite.
"""

import doctest

import repro.circuit.compiled
import repro.circuit.lanes
import repro.circuit.opt
import repro.core.sharded
import repro.metrics.engine
import repro.oracle.oracle
import repro.registry
import repro.rng
import repro.sat.solver
import repro.synth.optimize

_DOCTEST_MODULES = (
    repro.circuit.compiled,
    repro.circuit.lanes,
    repro.circuit.opt,
    repro.synth.optimize,
    repro.oracle.oracle,
    repro.core.sharded,
    repro.metrics.engine,
    repro.registry,
    repro.rng,
    repro.sat.solver,
)


def test_doctests_pass():
    total_attempted = 0
    for module in _DOCTEST_MODULES:
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
        total_attempted += result.attempted
    # Guard against the examples being silently dropped.
    assert total_attempted >= 8
