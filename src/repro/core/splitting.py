"""Splitting-input selection (paper §4).

    "The selection of which N input ports to apply the splitting
    condition is determined through a fan-out cone analysis of the
    netlist's input ports, prioritizing those with the most
    key-controlled gates in their fan-out cones."

``random`` and ``first`` exist for the A1 ablation that justifies
this design choice.
"""

from __future__ import annotations

import random

from repro.circuit.analysis import rank_inputs_by_key_influence
from repro.locking.base import LockedCircuit

#: The selection strategies :func:`select_splitting_inputs` knows.
STRATEGIES = ("fanout", "random", "first")


def check_strategy(strategy: str) -> None:
    """Raise ``ValueError`` with the roster unless ``strategy`` is known."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown splitting strategy {strategy!r} "
            f"(known: {', '.join(STRATEGIES)})"
        )


def select_splitting_inputs(
    locked: LockedCircuit,
    effort: int,
    strategy: str = "fanout",
    seed: int = 0,
) -> list[str]:
    """Choose the ``N = effort`` primary inputs to split on.

    Strategies:
        ``fanout``  — the paper's heuristic: rank inputs by the number
                      of key-controlled gates in their fan-out cone.
        ``random``  — uniform random choice (ablation baseline).
        ``first``   — the first ``N`` primary inputs (deterministic
                      strawman).
    """
    check_strategy(strategy)
    if effort < 0:
        raise ValueError("splitting effort must be non-negative")
    if effort > len(locked.original_inputs):
        raise ValueError(
            f"effort {effort} exceeds {len(locked.original_inputs)} inputs"
        )
    if effort == 0:
        return []
    if strategy == "fanout":
        ranked = rank_inputs_by_key_influence(
            locked.netlist, locked.key_inputs, candidates=locked.original_inputs
        )
        return [net for net, _count in ranked[:effort]]
    if strategy == "random":
        rng = random.Random(seed)
        return rng.sample(list(locked.original_inputs), effort)
    return list(locked.original_inputs[:effort])  # "first"


def splitting_assignments(
    splitting_inputs: list[str],
) -> list[dict[str, bool]]:
    """All ``2^N`` constant assignments, indexed as in Algorithm 1.

    Bit ``j`` of the task index gives the value of
    ``splitting_inputs[j]`` (the algorithm's
    ``convert_to_binary_and_pad``).
    """
    n = len(splitting_inputs)
    return [
        {net: bool((index >> j) & 1) for j, net in enumerate(splitting_inputs)}
        for index in range(1 << n)
    ]
