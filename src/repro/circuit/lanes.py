"""Vectorized wide-word simulation lanes (optional numpy backend).

The pure-python evaluation core (:meth:`CompiledCircuit.eval_words`)
carries every net as one arbitrary-precision integer.  CPython big-int
bitwise ops are tight C loops, so that path is *hard to beat*: on deep,
narrow circuits (the c6288-style multiplier array) and on very wide
sweeps (where both substrates are memory-bound) it wins outright.  What
it pays for every gate is interpreter dispatch plus, on inverted gates
(NAND/NOR/XNOR), an extra mask operation — roughly 50-130ns per gate
regardless of how wide the level is.

That per-gate constant is the numpy backend's opening.  This module
lowers a compiled circuit a second time, into a :class:`LaneProgram`:
the gate program is levelized and grouped into opcode-homogeneous
*stages*, values live in one ``uint64`` array of shape
``(num_lane_slots, n_words)``, and each stage is a handful of
vectorized gather/op calls over a contiguous output block.  When the
circuit is *wide and shallow* — thousands of same-opcode gates per
level, as in PLA planes, match/decode fabrics, parity networks — a
whole level costs a few numpy calls and the per-gate constant drops
to a few nanoseconds.  Measured on the ~25k-gate
:func:`~repro.bench_circuits.generators.keyed_match_plane` the numpy
program is ~11x the big-int path at 64 lanes and ~5-6x at 256; the
large-circuit tier of ``benchmarks/test_bench_sim.py`` enforces a 5x
floor.  On the ~13k-gate multiplier (deep, ~20 gates per stage) the
same program *loses* at every width — which is exactly why ``auto``
is shape-aware rather than size-triggered.

Backend selection is one lever everywhere::

    lanes="python"   # the big-int path, always available
    lanes="numpy"    # the LaneProgram (raises if numpy is missing)
    lanes="auto"     # numpy iff available AND the sweep shape wins

``auto`` is the default and is deliberately conservative: numpy is
picked only when the circuit is big enough (``num_gates >=
AUTO_MIN_GATES``), the levels are wide enough to amortize stage
dispatch (``num_gates / stages >= AUTO_MIN_STAGE_OPS``), and the
sweep is narrow enough that gather traffic stays cache-resident
(``width <= AUTO_MAX_LANES``).  Unknown shape means python, the
backend that is never a regression.  The process default ("auto") can
be overridden with the ``REPRO_LANES`` environment variable (declared
in :mod:`repro.levers`), which the CLI's ``--lanes`` flag sets so
runner worker processes inherit the choice.

Parity is contractual, not aspirational: a :class:`LaneProgram`
computes bit-for-bit the same values as ``eval_words``, property-tested
in ``tests/circuit/test_lanes.py`` and asserted before every timed
benchmark comparison.  Backends therefore never affect result-cache
identity — ``lanes`` is part of no task, hashed or not.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.levers import LANES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.circuit.compiled import CompiledCircuit

#: ``lanes="auto"`` never picks numpy below this gate count — tiny
#: circuits cannot pay back the fixed fill/extract cost of a sweep.
AUTO_MIN_GATES = 2048

#: Minimum average ops per vector stage (``num_gates / stages``) for
#: ``auto`` to pick numpy.  Measured crossover: a deep multiplier
#: (~20 ops/stage) loses at every width, a mixed-opcode fabric
#: (~130-290 ops/stage) roughly breaks even, and opcode-homogeneous
#: planes (800+ ops/stage) win 3-11x.
AUTO_MIN_STAGE_OPS = 512

#: ``auto`` stays on python above this lane count.  Past a few hundred
#: lanes the per-stage gathers start missing cache while the big-int
#: path's C loops stream, and the numpy advantage collapses (measured:
#: 11.6x at 64 lanes -> 5.6x at 256 -> below 1x by 4096 on the match
#: plane).  Explicit ``lanes="numpy"`` is honored at any width.
AUTO_MAX_LANES = 256

#: Preferred lane count for one chunked bit-parallel sweep, per
#: backend.  Each value sits at the top of the backend's measured
#: throughput plateau: python big-ints keep near-peak patterns/sec up
#: to a few thousand lanes, while the numpy program peaks earlier —
#: past ~1k lanes its stage gathers fall out of cache.
PREFERRED_CHUNK_LANES = {"python": 4096, "numpy": 1024}

_numpy = None
_numpy_probed = False


def _load_numpy():
    """Import numpy once; ``None`` (not an error) when unavailable."""
    global _numpy, _numpy_probed
    if not _numpy_probed:
        _numpy_probed = True
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy = numpy
    return _numpy


def numpy_available() -> bool:
    """True when the numpy lane backend can be built in this process."""
    return _load_numpy() is not None


def available_lane_backends() -> tuple[str, ...]:
    """The lane backends usable right now (``"python"`` is always in)."""
    return ("python", "numpy") if numpy_available() else ("python",)


def default_lanes() -> str:
    """The process-wide lane lever: ``REPRO_LANES`` or ``"auto"``."""
    return LANES.current()


def resolve_lanes(
    lanes: str | None = None,
    *,
    num_gates: int | None = None,
    width: int | None = None,
    stages: int | None = None,
) -> str:
    """Resolve a lane lever to a concrete backend name.

    ``None`` means the process default (:func:`default_lanes`).
    ``"auto"`` picks numpy only when it is importable *and* the sweep
    shape wins: at least :data:`AUTO_MIN_GATES` gates, levels wide
    enough that ``num_gates / stages`` reaches
    :data:`AUTO_MIN_STAGE_OPS` (``stages`` is the vector-stage count,
    see :meth:`CompiledCircuit.lane_stage_hint`), and no more than
    :data:`AUTO_MAX_LANES` lanes.  With any of the three unknown it
    stays on python, the backend that is never a regression.  numpy is
    probed only once the shape qualifies, so a process whose sweeps are
    all small never imports it.  ``"numpy"`` is an explicit demand and
    raises :class:`ModuleNotFoundError` when the import fails — silent
    degradation is reserved for ``"auto"``.

    >>> resolve_lanes("auto", num_gates=100, width=64, stages=10)
    'python'
    >>> resolve_lanes("python", num_gates=50_000, width=64, stages=4)
    'python'
    """
    lanes = LANES.resolve(lanes)
    if lanes == "numpy":
        if not numpy_available():
            raise ModuleNotFoundError(
                "lanes='numpy' requested but numpy is not installed "
                "(use lanes='auto' to fall back silently)"
            )
        return "numpy"
    if lanes == "python":
        return "python"
    # auto
    if num_gates is None or width is None or not stages:
        return "python"
    if num_gates < AUTO_MIN_GATES or width > AUTO_MAX_LANES:
        return "python"
    if num_gates / stages < AUTO_MIN_STAGE_OPS:
        return "python"
    return "numpy" if numpy_available() else "python"


def preferred_chunk_lanes(backend: str) -> int:
    """Chunk width (in lanes) one bit-parallel sweep should use."""
    return PREFERRED_CHUNK_LANES[backend]


# ----------------------------------------------------------------------
# The lane program
# ----------------------------------------------------------------------

# Stage kernels.  N-ary gates are binarized at build time (left fold,
# with the inverted form fused into the last node), so only these
# survive into stages.
_K_AND = 0
_K_OR = 1
_K_XOR = 2
_K_NAND = 3
_K_NOR = 4
_K_XNOR = 5
_K_NOT = 6
_K_MUX = 7
_K_CONST0 = 8
_K_CONST1 = 9

_BASE_OF_NARY = {}  # filled below from compiled opcodes


def _int_to_row(value: int, n_words: int, np):
    """One big-int lane word as a little-endian uint64 row."""
    return np.frombuffer(
        value.to_bytes(n_words * 8, "little"), dtype=np.uint64
    )


def _row_to_int(row) -> int:
    """Inverse of :func:`_int_to_row` (no masking)."""
    return int.from_bytes(row.tobytes(), "little")


class _Stage:
    """One vectorized step: ``kernel`` over a contiguous output block."""

    __slots__ = ("kernel", "lo", "hi", "a", "b", "c")

    def __init__(self, kernel, lo, hi, a=None, b=None, c=None):
        self.kernel = kernel
        self.lo = lo
        self.hi = hi
        self.a = a
        self.b = b
        self.c = c


class LaneProgram:
    """Levelized, opcode-grouped numpy form of a compiled circuit.

    Built once per :class:`CompiledCircuit` (see
    :meth:`CompiledCircuit.lane_program`) and reused across sweeps.
    Like the compiled core's ``_scratch``, the preallocated gather
    buffers make a program instance single-threaded; build one per
    thread if you must share a circuit across threads.
    """

    def __init__(self, compiled: "CompiledCircuit"):
        np = _load_numpy()
        if np is None:  # pragma: no cover - guarded by callers
            raise ModuleNotFoundError("numpy is required for LaneProgram")
        self._np = np
        self._compiled = compiled
        self.num_inputs = len(compiled.inputs)
        self._build(compiled, np)
        self._values = None  # lazily sized (num_lane_slots, n_words)
        self._buf_a = None
        self._buf_b = None

    # -- construction --------------------------------------------------
    def _build(self, compiled: "CompiledCircuit", np) -> None:
        from repro.circuit import compiled as cc

        n_inputs = self.num_inputs
        # Pass 1: binarize into (kernel, out_vid, operand_vids) ops with
        # levels; BUF collapses to an alias (no stage work at all).
        alias: dict[int, int] = {}  # vid -> canonical vid
        level = [0] * n_inputs  # per vid
        ops: list[tuple[int, int, tuple[int, ...]]] = []
        slot_vid = list(range(n_inputs)) + [-1] * (
            compiled.num_slots - n_inputs
        )

        def canon(vid: int) -> int:
            return alias.get(vid, vid)

        def emit(kernel: int, operands: tuple[int, ...]) -> int:
            vid = len(level)
            level.append(1 + max((level[v] for v in operands), default=0))
            ops.append((kernel, vid, operands))
            return vid

        binary_kernel = {
            cc._AND2: _K_AND, cc._OR2: _K_OR, cc._XOR2: _K_XOR,
            cc._NAND2: _K_NAND, cc._NOR2: _K_NOR, cc._XNOR2: _K_XNOR,
        }
        nary_fold = {
            cc._AND_N: (_K_AND, _K_AND), cc._NAND_N: (_K_AND, _K_NAND),
            cc._OR_N: (_K_OR, _K_OR), cc._NOR_N: (_K_OR, _K_NOR),
            cc._XOR_N: (_K_XOR, _K_XOR), cc._XNOR_N: (_K_XOR, _K_XNOR),
        }

        for op, out, operands in compiled._program:
            if op == cc._BUF:
                vid = canon(slot_vid[operands])
                slot_vid[out] = vid
                continue
            if op == cc._NOT:
                vid = emit(_K_NOT, (canon(slot_vid[operands]),))
            elif op == cc._CONST0:
                vid = emit(_K_CONST0, ())
            elif op == cc._CONST1:
                vid = emit(_K_CONST1, ())
            elif op == cc._MUX:
                s, d1, d0 = (canon(slot_vid[v]) for v in operands)
                vid = emit(_K_MUX, (s, d1, d0))
            elif op in binary_kernel:
                a, b = (canon(slot_vid[v]) for v in operands)
                vid = emit(binary_kernel[op], (a, b))
            else:  # n-ary: left fold, inverted form fused into the tail
                base, last = nary_fold[op]
                vids = [canon(slot_vid[v]) for v in operands]
                acc = vids[0]
                for nxt in vids[1:-1]:
                    acc = emit(base, (acc, nxt))
                vid = emit(last, (acc, vids[-1]))
            slot_vid[out] = vid

        # Pass 2: group by (level, kernel); lane slots are inputs first,
        # then each stage's outputs as one contiguous block, so every
        # stage writes a slice of the value matrix (no scatter).
        groups: dict[tuple[int, int], list[tuple[int, tuple[int, ...]]]] = {}
        for kernel, vid, operands in ops:
            groups.setdefault((level[vid], kernel), []).append(
                (vid, operands)
            )
        lane_of = [0] * len(level)
        for vid in range(n_inputs):
            lane_of[vid] = vid
        stages: list[_Stage] = []
        nxt = n_inputs
        for (lvl, kernel) in sorted(groups):
            items = groups[(lvl, kernel)]
            lo = nxt
            for vid, _ in items:
                lane_of[vid] = nxt
                nxt += 1
            # Operands are strictly lower-level, so their lane slots are
            # already final when this stage is laid out.
            if kernel in (_K_CONST0, _K_CONST1):
                stages.append(_Stage(kernel, lo, nxt))
                continue
            columns = [
                np.array(
                    [lane_of[operands[j]] for _, operands in items],
                    dtype=np.intp,
                )
                for j in range(len(items[0][1]))
            ]
            stages.append(_Stage(kernel, lo, nxt, *columns))

        self._stages = stages
        self.num_lane_slots = nxt
        self.max_stage = max(
            (s.hi - s.lo for s in stages), default=0
        )
        #: compiled slot index -> lane slot index (for extraction).
        self.lane_of_slot = np.array(
            [lane_of[canon(vid)] if vid >= 0 else 0 for vid in slot_vid],
            dtype=np.intp,
        )
        self.output_lanes = np.array(
            [self.lane_of_slot[s] for s in compiled.output_slots],
            dtype=np.intp,
        )

    # -- evaluation ----------------------------------------------------
    def _matrix(self, n_words: int):
        """The reusable value/gather buffers, (re)sized to ``n_words``."""
        np = self._np
        if self._values is None or self._values.shape[1] != n_words:
            self._values = np.empty(
                (self.num_lane_slots, n_words), dtype=np.uint64
            )
            self._buf_a = np.empty(
                (max(self.max_stage, 1), n_words), dtype=np.uint64
            )
            self._buf_b = np.empty_like(self._buf_a)
        return self._values

    def _run(self, input_words: Sequence[int], n_words: int):
        np = self._np
        if len(input_words) != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} input words, "
                f"got {len(input_words)}"
            )
        values = self._matrix(n_words)
        if self.num_inputs:
            # One blob + one frombuffer: per-row numpy assignments cost
            # ~1.5us each, which dominates sweeps on input-heavy
            # circuits (a 1000-PI fabric pays ~1.5ms filled row by row).
            row_bytes = n_words * 8
            blob = b"".join(
                word.to_bytes(row_bytes, "little") for word in input_words
            )
            values[: self.num_inputs] = np.frombuffer(
                blob, dtype=np.uint64
            ).reshape(self.num_inputs, n_words)
        band = np.bitwise_and
        bor = np.bitwise_or
        bxor = np.bitwise_xor
        bnot = np.bitwise_not
        take = np.take
        for stage in self._stages:
            kernel = stage.kernel
            out = values[stage.lo : stage.hi]
            if kernel == _K_NOT:
                bnot(values[stage.a], out=out)
                continue
            if kernel == _K_CONST0:
                out.fill(0)
                continue
            if kernel == _K_CONST1:
                out.fill(0xFFFFFFFFFFFFFFFF)
                continue
            g = stage.hi - stage.lo
            ba = self._buf_a[:g]
            bb = self._buf_b[:g]
            take(values, stage.a, axis=0, out=ba)
            take(values, stage.b, axis=0, out=bb)
            if kernel == _K_AND:
                band(ba, bb, out=out)
            elif kernel == _K_OR:
                bor(ba, bb, out=out)
            elif kernel == _K_XOR:
                bxor(ba, bb, out=out)
            elif kernel == _K_NAND:
                band(ba, bb, out=out)
                bnot(out, out=out)
            elif kernel == _K_NOR:
                bor(ba, bb, out=out)
                bnot(out, out=out)
            elif kernel == _K_XNOR:
                bxor(ba, bb, out=out)
                bnot(out, out=out)
            else:  # _K_MUX: out = (s & d1) | (~s & d0)
                band(ba, bb, out=out)  # s & d1
                bnot(ba, out=ba)  # ~s
                take(values, stage.c, axis=0, out=bb)  # d0
                band(ba, bb, out=ba)
                bor(out, ba, out=out)
        return values

    def eval_words(self, input_words: Sequence[int], mask: int) -> list[int]:
        """Bit-parallel sweep, full slot list — parity twin of
        :meth:`CompiledCircuit.eval_words` (same arguments, same
        result, different substrate).  Inactive lanes are masked on
        extraction; intermediate stages run unmasked because every
        gate is lane-independent.
        """
        n_words = max(1, (mask.bit_length() + 63) // 64)
        values = self._run(
            [w & mask for w in input_words], n_words
        )
        lane_of = self.lane_of_slot
        return [
            _row_to_int(values[lane_of[s]]) & mask
            for s in range(self._compiled.num_slots)
        ]

    def eval_outputs(self, input_words: Sequence[int], mask: int) -> list[int]:
        """Like :meth:`eval_words` but converts only primary outputs."""
        n_words = max(1, (mask.bit_length() + 63) // 64)
        values = self._run([w & mask for w in input_words], n_words)
        return [
            _row_to_int(values[lane]) & mask for lane in self.output_lanes
        ]

    def eval_batch(self, patterns: Sequence[int]) -> list[int]:
        """Packed-pattern sweep — parity twin of
        :meth:`CompiledCircuit.eval_batch`."""
        width = len(patterns)
        if width == 0:
            return []
        words = []
        for j in range(self.num_inputs):
            word = 0
            for lane, pattern in enumerate(patterns):
                if (pattern >> j) & 1:
                    word |= 1 << lane
            words.append(word)
        n_words = (width + 63) // 64
        values = self._run(words, n_words)
        out_words = [
            _row_to_int(values[lane]) for lane in self.output_lanes
        ]
        results = []
        for lane in range(width):
            packed = 0
            for k, word in enumerate(out_words):
                if (word >> lane) & 1:
                    packed |= 1 << k
            results.append(packed)
        return results
