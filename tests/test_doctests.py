"""Tier-1 gate for the runnable docstring examples.

CI also runs ``pytest --doctest-modules`` over these modules directly;
this test keeps the same examples from rotting on machines that only
run the plain tier-1 suite, and checks that the two lists name exactly
the ``src/repro`` files that hold an example.
"""

import doctest
import re
from pathlib import Path

import repro.bench_circuits.corpus
import repro.circuit.cnf
import repro.circuit.compiled
import repro.circuit.opt
import repro.core.sharded
import repro.metrics.engine
import repro.oracle.oracle
import repro.registry
import repro.rng
import repro.sat.solver
import repro.synth.optimize

ROOT = Path(__file__).resolve().parents[1]


def _module_name(path: str) -> str:
    """``src/repro/circuit/cnf.py`` -> ``repro.circuit.cnf``."""
    return path.removeprefix("src/").removesuffix(".py").replace("/", ".")


_DOCTEST_MODULES = (
    repro.bench_circuits.corpus,
    repro.circuit.cnf,
    repro.circuit.compiled,
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


def test_doctest_lists_match_the_examples():
    """Files with a ``>>>`` example == this module's list == CI's list."""
    with_examples = {
        _module_name(path.relative_to(ROOT).as_posix())
        for path in (ROOT / "src" / "repro").rglob("*.py")
        if ">>>" in path.read_text()
    }
    listed = {module.__name__ for module in _DOCTEST_MODULES}
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    step = ci[ci.index("--doctest-modules") :]
    step = step[: step.index("\n\n")]
    in_ci = {_module_name(p) for p in re.findall(r"src/repro/\S+\.py", step)}
    assert with_examples == listed == in_ci
