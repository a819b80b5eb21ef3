"""Black-box functional oracle.

The SAT attack threat model grants the attacker a working unlocked
chip that can be queried with input patterns ("obtainable through
querying a commercially available chip").  :class:`Oracle` simulates
that chip from the original netlist while hiding its structure behind
a query-only interface, and counts queries so experiments can report
oracle usage.

The original netlist is compiled once at construction; every query —
single-pattern or bit-parallel — evaluates through the integer-indexed
:class:`repro.circuit.compiled.CompiledCircuit` core.

Query accounting: every *pattern* applied to the chip counts as one
query.  ``query`` and ``query_int`` add 1; ``query_batch`` adds
``len(patterns)``; ``query_vector`` adds ``width``.  A batched call is
therefore cost-equivalent to the per-pattern loop it replaces — the
batching buys wall-clock speed, not a lower reported oracle count.

Wide sweeps run behind the lane-backend lever (see
:mod:`repro.circuit.lanes`): ``query_batch`` chunks its patterns at
the active backend's preferred sweep width — one giant big-int sweep
thrashes the cache on the python backend, while numpy wants batches
wide enough to amortize its stage overhead — and ``query_vector``
dispatches through the same lever.  Chunking is invisible in results
*and* in accounting: responses are concatenated in pattern order and
the query count stays one per pattern.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.circuit.lanes import preferred_chunk_lanes, resolve_lanes
from repro.circuit.netlist import Netlist
from repro.circuit.opt import resolve_opt


class Oracle:
    """Query-only wrapper around the original circuit.

    Bit-parallel queries evaluate on the process lane backend
    (``REPRO_LANES``); results are backend-independent by the
    lane-parity contract.  ``opt`` runs the structural optimizer
    (:mod:`repro.circuit.opt`) on the compiled circuit once at
    construction — fewer gates shrink both the big-int sweep and the
    numpy stage matrices; responses are identical by the optimizer's
    parity contract.
    """

    def __init__(self, original: Netlist, opt: str | None = None):
        self._netlist = original
        self._compiled = original.compile()
        level = resolve_opt(opt)
        if level != "off":
            self._compiled = self._compiled.optimized(level).compiled
        self.query_count = 0

    @property
    def input_names(self) -> list[str]:
        return list(self._compiled.inputs)

    @property
    def output_names(self) -> list[str]:
        return list(self._compiled.outputs)

    def query(self, input_bits: Mapping[str, int] | Sequence[int]) -> dict[str, int]:
        """Apply one input pattern; returns output name -> bit."""
        self.query_count += 1
        return self._compiled.eval_single(input_bits)

    def query_int(self, pattern: int) -> int:
        """Integer convenience: bit ``j`` of ``pattern`` drives input ``j``.

        Returns the outputs packed the same way (output ``j`` = bit ``j``).
        """
        self.query_count += 1
        return self._compiled.evaluate_pattern(pattern)

    def query_batch(self, patterns: Sequence[int]) -> list[int]:
        """Apply many packed patterns in ONE bit-parallel sweep.

        ``patterns[p]`` is an integer whose bit ``j`` drives input
        ``j``; the result holds one packed output word per pattern
        (bit ``k`` = output ``k``, as in :meth:`query_int`).  Counts
        ``len(patterns)`` queries — see the module docstring.

        ::

            >>> from repro.circuit.netlist import Netlist
            >>> from repro.circuit.gates import GateType
            >>> netlist = Netlist("toy")
            >>> _ = netlist.add_input("a")
            >>> _ = netlist.add_input("b")
            >>> _ = netlist.add_gate("x", GateType.AND, ["a", "b"])
            >>> netlist.set_outputs(["x"])
            >>> oracle = Oracle(netlist)
            >>> oracle.query_batch([0b00, 0b01, 0b10, 0b11])
            [0, 0, 0, 1]
            >>> oracle.query_count
            4
        """
        self.query_count += len(patterns)
        compiled = self._compiled
        backend = resolve_lanes(
            num_gates=compiled.num_gates,
            width=len(patterns),
            stages=compiled.lane_stage_hint()[1],
        )
        chunk = preferred_chunk_lanes(backend)
        if len(patterns) <= chunk:
            return compiled.eval_batch(patterns, lanes=backend)
        results: list[int] = []
        for start in range(0, len(patterns), chunk):
            results.extend(
                compiled.eval_batch(
                    patterns[start : start + chunk], lanes=backend
                )
            )
        return results

    def query_vector(
        self, stimuli: Mapping[str, int], width: int
    ) -> dict[str, int]:
        """Bit-parallel query keyed by net name.

        ``stimuli`` maps every primary input to a ``width``-lane word;
        returns output name -> word.  Counts ``width`` queries.
        """
        if width < 1:
            raise ValueError("width must be positive")
        self.query_count += width
        compiled = self._compiled
        try:
            words = [stimuli[name] for name in compiled.inputs]
        except KeyError as exc:
            raise KeyError(
                f"missing value for primary input {exc.args[0]!r}"
            ) from None
        outputs = compiled.eval_outputs_wide(words, width)
        return dict(zip(compiled.outputs, outputs))
