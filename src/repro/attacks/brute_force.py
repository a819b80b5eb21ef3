"""Exhaustive key search, for cross-validating the SAT attack on
small instances (and for enumerating *all* functionally correct keys,
which the SAT attack does not do).

Every key is evaluated through :func:`repro.metrics.engine.key_diffs`:
one exhaustive stimulus sweep over the unpinned inputs (pinned inputs
held as constant words), one compile of the locked circuit, and each
candidate key pinned as constant lanes.  A key is correct on the
sub-space exactly when all of its diff words are zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.circuit.compiled import exhaustive_words
from repro.locking.base import LockedCircuit
from repro.metrics.engine import key_diffs
from repro.oracle.oracle import Oracle


@dataclass
class BruteForceResult:
    """Every functionally correct key on a (possibly pinned) sub-space.

    Attributes:
        keys: All key integers matching the oracle on every input
            consistent with :attr:`pinned`, in ascending order.
        elapsed_seconds: Wall-clock time of the enumeration.
        oracle_queries: Oracle queries issued (one per sub-space input
            pattern; the golden sweep is batched but still counted
            per pattern).
        key_order: Key port names fixing the bit order of each entry
            in :attr:`keys`.
        pinned: The sub-space restriction the search ran under.
    """

    keys: list[int]
    elapsed_seconds: float
    oracle_queries: int
    key_order: list[str] = field(default_factory=list)
    pinned: dict[str, bool] = field(default_factory=dict)

    @property
    def key_int(self) -> int | None:
        """The smallest correct key (``None`` when nothing matched)."""
        return self.keys[0] if self.keys else None

    @property
    def num_keys(self) -> int:
        """How many keys unlock the sub-space."""
        return len(self.keys)


def brute_force_attack(
    locked: LockedCircuit,
    oracle: Oracle,
    pin: Mapping[str, bool] | None = None,
) -> BruteForceResult:
    """All keys matching the oracle on every input consistent with ``pin``.

    Exhaustive over both the key space and the input space; only
    sensible when ``|I| + |K|`` is small (~20 bits).  The golden
    responses come from ONE bit-parallel oracle sweep over the
    ``2^(|I|-|pin|)`` sub-space patterns, counted as one query each.
    """
    start = time.perf_counter()
    queries_before = oracle.query_count
    num_inputs = len(locked.original_inputs)
    if num_inputs + locked.key_size > 22:
        raise ValueError("brute force limited to ~22 total input+key bits")
    pin = dict(pin or {})
    for net in pin:
        if net not in locked.original_inputs:
            raise ValueError(f"pinned net {net!r} is not an original input")

    free = [net for net in locked.original_inputs if net not in pin]
    width = 1 << len(free)
    stimuli = dict(zip(free, exhaustive_words(len(free))))
    for net, value in pin.items():
        stimuli[net] = (1 << width) - 1 if value else 0
    keys = range(1 << locked.key_size)
    diffs = key_diffs(locked, oracle, keys, stimuli, width)
    good_keys = [key for key, words in zip(keys, diffs) if not any(words)]
    return BruteForceResult(
        keys=good_keys,
        elapsed_seconds=time.perf_counter() - start,
        oracle_queries=oracle.query_count - queries_before,
        key_order=list(locked.key_inputs),
        pinned=pin,
    )


def brute_force_keys(
    locked: LockedCircuit,
    oracle: Oracle,
    pin: Mapping[str, bool] | None = None,
) -> list[int]:
    """The bare key list of :func:`brute_force_attack` (compat shim)."""
    return brute_force_attack(locked, oracle, pin=pin).keys
