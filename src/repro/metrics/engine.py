"""Bit-parallel corruption evaluation under sampled wrong keys.

The paper's one-key premise asks *where* a key unlocks correct
function; the confidentiality question is the complement — *how wrong*
is the locked circuit under a wrong key, and how is that wrongness
distributed over input sub-spaces?  This module computes both from a
single shared sweep:

1. Golden outputs come from :class:`repro.oracle.Oracle.query_vector`
   (the original circuit behind the lanes/opt levers).
2. The locked circuit is compiled once (and structurally optimized
   when the ``opt`` lever says so), then evaluated bit-parallel via
   :meth:`~repro.circuit.compiled.CompiledCircuit.eval_outputs_wide`
   with each sampled wrong key pinned as constant lanes.  Steps 1 and
   2 are :func:`key_diffs`, the repository's one keyed-evaluation
   path (brute force, AppSAT checkpoints, oracle key verification and
   Fig. 1's :func:`error_matrix` share it).
3. Every registered metric (:mod:`repro.metrics.registry`) is pure
   popcount arithmetic over the resulting XOR diff words — which is
   why metric values are *bit-identical* across lanes backends, opt
   levels and multi-key engines: the levers change how fast the sweep
   runs, never which bits it produces.

Sampling is deterministic end-to-end (:mod:`repro.rng` streams keyed
by the metrics seed).  Circuits with at most :data:`EXHAUSTIVE_INPUT_LIMIT`
inputs are swept exhaustively; larger ones get ``input_samples``
stratified patterns — stratified over the ``2^N`` sub-spaces induced
by the fanout-ranked splitting inputs
(:func:`repro.core.splitting.select_splitting_inputs`), so the
``subspace`` metric sees every sub-space even at modest widths.  Key
spaces with at most ``key_samples`` wrong keys are enumerated
exhaustively instead of sampled.

::

    >>> from repro.bench_circuits.iscas85 import c17
    >>> from repro.locking.registry import lock_circuit
    >>> locked = lock_circuit("xor", c17(), key_size=2, seed=1)
    >>> report = evaluate_corruption(locked, c17(), key_samples=0)
    >>> report.keys_sampled, report.exhaustive_keys, report.exhaustive_inputs
    (3, True, True)
    >>> 0.0 < report.value("corruption") <= 1.0
    True
    >>> report.metrics == evaluate_corruption(locked, c17(), key_samples=0).metrics
    True
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from operator import or_

from repro.circuit.compiled import exhaustive_words
from repro.circuit.netlist import Netlist
from repro.circuit.opt import resolve_opt
from repro.locking.base import LockedCircuit
from repro.metrics.registry import MetricValue, metric_info, register_metric
from repro.oracle import Oracle
from repro.rng import make_rng, sample_wrong_keys

__all__ = [
    "CorruptionReport",
    "DEFAULT_INPUT_SAMPLES",
    "DEFAULT_KEY_SAMPLES",
    "EXHAUSTIVE_INPUT_LIMIT",
    "SampleSweep",
    "error_matrix",
    "evaluate_corruption",
    "key_diffs",
]

#: Wrong keys sampled per cell unless the caller says otherwise.
DEFAULT_KEY_SAMPLES = 64

#: Stratified input patterns per sweep when the input space is large.
DEFAULT_INPUT_SAMPLES = 256

#: Input counts up to this are swept exhaustively (2^12 = 4096 lanes).
EXHAUSTIVE_INPUT_LIMIT = 12


@dataclass
class SampleSweep:
    """The shared diff material every metric consumes.

    ``diff_words[k][o]`` is the XOR of golden and locked output ``o``
    over all lanes under wrong key ``wrong_keys[k]``;
    ``diff_any[k]`` ORs the per-output diffs (lane set where *any*
    output mismatches).  ``subspace_masks[s]`` selects the lanes whose
    splitting-input bits decode to sub-space ``s``.
    """

    width: int
    mask: int
    input_names: list[str]
    output_names: list[str]
    wrong_keys: list[int]
    correct_key: int
    key_size: int
    splitting_inputs: list[str]
    subspace_masks: list[int]
    diff_words: list[list[int]]
    diff_any: list[int]
    exhaustive_inputs: bool
    exhaustive_keys: bool
    seed: int


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


@register_metric(
    "corruption",
    description="output error rate: fraction of sampled inputs with any "
    "output wrong, averaged over sampled wrong keys",
)
def _corruption_metric(sweep: SampleSweep) -> MetricValue:
    per_key = [d.bit_count() / sweep.width for d in sweep.diff_any]
    return MetricValue(
        value=_mean(per_key),
        detail={
            "per_key": per_key,
            "min": min(per_key),
            "max": max(per_key),
        },
    )


@register_metric(
    "bit_flip",
    description="per-output bit-flip rate under sampled wrong keys, "
    "averaged over outputs",
)
def _bit_flip_metric(sweep: SampleSweep) -> MetricValue:
    total = sweep.width * len(sweep.wrong_keys)
    per_output = {
        name: sum(diffs[o].bit_count() for diffs in sweep.diff_words) / total
        for o, name in enumerate(sweep.output_names)
    }
    return MetricValue(
        value=_mean(list(per_output.values())),
        detail={"per_output": per_output},
    )


@register_metric(
    "avalanche",
    description="binary entropy of each output's flip rate (bits; 1.0 = "
    "coin-flip corruption), averaged over outputs",
)
def _avalanche_metric(sweep: SampleSweep) -> MetricValue:
    total = sweep.width * len(sweep.wrong_keys)
    per_output = {
        name: _binary_entropy(
            sum(diffs[o].bit_count() for diffs in sweep.diff_words) / total
        )
        for o, name in enumerate(sweep.output_names)
    }
    return MetricValue(
        value=_mean(list(per_output.values())),
        detail={"per_output": per_output},
    )


@register_metric(
    "subspace",
    description="corruption rate per splitting-input sub-space, plus the "
    "fraction of (wrong key, sub-space) pairs the key unlocks exactly",
)
def _subspace_metric(sweep: SampleSweep) -> MetricValue:
    rates = []
    unlocked = 0
    for mask in sweep.subspace_masks:
        lanes = mask.bit_count()
        per_key = [(d & mask).bit_count() / lanes for d in sweep.diff_any]
        rates.append(_mean(per_key))
        unlocked += sum(1 for d in sweep.diff_any if d & mask == 0)
    pairs = len(sweep.subspace_masks) * len(sweep.wrong_keys)
    return MetricValue(
        value=_mean(rates),
        detail={
            "num_subspaces": len(sweep.subspace_masks),
            "splitting_inputs": list(sweep.splitting_inputs),
            "rates": rates,
            "min": min(rates),
            "max": max(rates),
            "unlock_fraction": unlocked / pairs,
        },
    )


@dataclass
class CorruptionReport:
    """Every requested metric for one (scheme, circuit, seed) cell."""

    scheme: str
    circuit: str
    key_size: int
    num_inputs: int
    num_outputs: int
    input_samples: int
    exhaustive_inputs: bool
    key_samples: int
    keys_sampled: int
    exhaustive_keys: bool
    seed: int
    effort: int
    splitting_inputs: list[str]
    opt: str
    oracle_queries: int
    elapsed_seconds: float
    metrics: dict[str, dict] = field(default_factory=dict)

    def value(self, name: str) -> float:
        """The headline value of one computed metric."""
        try:
            return self.metrics[name]["value"]
        except KeyError:
            computed = ", ".join(sorted(self.metrics)) or "<none>"
            raise KeyError(
                f"metric {name!r} not in this report (computed: {computed})"
            ) from None

    def detail(self, name: str) -> dict:
        """The detail mapping of one computed metric."""
        self.value(name)  # raises with the computed roster on a miss
        return self.metrics[name]["detail"]

    def to_payload(self) -> dict:
        """JSON-shaped form (the ``corruption_cell`` task artifact)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "CorruptionReport":
        return cls(**payload)

    def format(self) -> str:
        """Human-readable metric table for one cell."""
        from repro.experiments.report import format_table, seconds

        rows = [
            [name, f"{self.metrics[name]['value']:.6g}"]
            for name in self.metrics
        ]
        title = (
            f"Corruption: {self.scheme} on {self.circuit} "
            f"(|K|={self.key_size}, {self.keys_sampled} wrong keys"
            f"{' exhaustive' if self.exhaustive_keys else ''}, "
            f"{self.input_samples} patterns"
            f"{' exhaustive' if self.exhaustive_inputs else ''}, "
            f"N={self.effort}, {seconds(self.elapsed_seconds)})"
        )
        return format_table(["Metric", "Value"], rows, title=title)


def _stimulus_words(
    input_names: Sequence[str],
    splitting: Sequence[str],
    input_samples: int,
    seed: int,
) -> tuple[dict[str, int], int, bool]:
    """Per-input stimulus words: exhaustive when small, else stratified.

    Stratified mode assigns lane ``i`` to sub-space ``i % 2^N`` on the
    splitting inputs and draws every other input bit from the seeded
    stream, so each sub-space receives an equal share of the lanes.
    """
    n = len(input_names)
    if n <= EXHAUSTIVE_INPUT_LIMIT:
        width = 1 << n
        return dict(zip(input_names, exhaustive_words(n))), width, True
    width = input_samples
    rng = make_rng("metrics", "stimuli", seed)
    words = {name: rng.getrandbits(width) for name in input_names}
    num_subspaces = 1 << len(splitting)
    for j, name in enumerate(splitting):
        word = 0
        for lane in range(width):
            if ((lane % num_subspaces) >> j) & 1:
                word |= 1 << lane
        words[name] = word
    return words, width, False


def _subspace_masks(
    words: dict[str, int], splitting: Sequence[str], width: int
) -> list[int]:
    """Lane mask per sub-space, decoded from the splitting-input words."""
    full = (1 << width) - 1
    masks = []
    for s in range(1 << len(splitting)):
        mask = full
        for j, name in enumerate(splitting):
            word = words[name]
            mask &= word if (s >> j) & 1 else ~word & full
        masks.append(mask)
    return masks


def key_diffs(
    locked: LockedCircuit,
    oracle: Oracle,
    keys: Iterable[int | Mapping[str, bool]],
    stimuli: Mapping[str, int],
    width: int,
    opt: str | None = None,
) -> list[list[int]]:
    """Where the locked circuit, under each key, disagrees with the oracle.

    ``stimuli`` maps every oracle input to a ``width``-lane word (one
    :meth:`~repro.oracle.Oracle.query_vector` call, counted as
    ``width`` queries, supplies the golden outputs).  The locked
    circuit is compiled once, optimized at ``opt``, and each key is
    pinned as constant lanes.  ``result[k][o]`` is the lane mask where
    output ``oracle.output_names[o]`` is wrong under ``keys[k]``; a key
    is correct on the stimuli exactly when all its words are zero.

    This is the one keyed-evaluation path: the metrics sweep, brute
    force, AppSAT's checkpoints, oracle key verification and
    :func:`error_matrix` all run through it, so each inherits the
    lanes/opt parity contract.

    ::

        >>> from repro.bench_circuits.iscas85 import c17
        >>> from repro.circuit.compiled import exhaustive_words
        >>> from repro.locking.sarlock import sarlock_lock
        >>> locked = sarlock_lock(c17(), 2, correct_key=0b10, seed=0)
        >>> oracle = Oracle(c17())
        >>> stimuli = dict(zip(oracle.input_names, exhaustive_words(5)))
        >>> diffs = key_diffs(locked, oracle, range(4), stimuli, 32)
        >>> [sum(word.bit_count() for word in per_key) for per_key in diffs]
        [8, 8, 0, 8]
        >>> oracle.query_count
        32
    """
    mask = (1 << width) - 1
    golden = oracle.query_vector(stimuli, width)
    output_names = oracle.output_names
    compiled = locked.netlist.compile()
    level = resolve_opt(opt)
    if level != "off":
        compiled = compiled.optimized(level).compiled
    key_ports = set(locked.key_inputs)
    diffs: list[list[int]] = []
    for key in keys:
        assignment = locked.key_assignment(key)
        words = [
            (mask if assignment[name] else 0)
            if name in key_ports
            else stimuli[name]
            for name in compiled.inputs
        ]
        outs = dict(
            zip(compiled.outputs, compiled.eval_outputs_wide(words, width))
        )
        diffs.append(
            [(golden[name] ^ outs[name]) & mask for name in output_names]
        )
    return diffs


def error_matrix(locked: LockedCircuit, original: Netlist) -> list[list[bool]]:
    """Fig. 1(a): ``matrix[i][k]`` is True iff key ``k`` errs on input ``i``.

    Exhaustive over inputs and keys: bit ``j`` of ``i`` drives
    ``locked.original_inputs[j]`` and bit ``j`` of ``k`` drives
    ``locked.key_inputs[j]``.  Small circuits only.
    """
    total_bits = len(locked.netlist.inputs)
    if total_bits > 22:
        raise ValueError(
            f"exhaustive analysis of {total_bits} total input bits is too large"
        )
    num_inputs = len(locked.original_inputs)
    stimuli = dict(zip(locked.original_inputs, exhaustive_words(num_inputs)))
    errs = [
        reduce(or_, diffs, 0)
        for diffs in key_diffs(
            locked,
            Oracle(original),
            range(1 << locked.key_size),
            stimuli,
            1 << num_inputs,
        )
    ]
    return [[bool(err >> i & 1) for err in errs] for i in range(1 << num_inputs)]


def build_sweep(
    locked: LockedCircuit,
    original: Netlist,
    key_samples: int = DEFAULT_KEY_SAMPLES,
    seed: int = 0,
    effort: int = 0,
    opt: str | None = None,
    input_samples: int = DEFAULT_INPUT_SAMPLES,
) -> tuple[SampleSweep, int]:
    """The shared :class:`SampleSweep` plus the oracle query count."""
    from repro.core.splitting import select_splitting_inputs

    if input_samples < 1:
        raise ValueError("input_samples must be positive")
    if key_samples < 0:
        raise ValueError("key_samples must be non-negative")
    splitting = select_splitting_inputs(locked, effort)
    input_names = list(locked.original_inputs)
    words, width, exhaustive_inputs = _stimulus_words(
        input_names, splitting, input_samples, seed
    )
    if (1 << len(splitting)) > width:
        raise ValueError(
            f"effort {effort} needs {1 << len(splitting)} sub-spaces but the "
            f"sweep has only {width} lanes; raise input_samples"
        )
    oracle = Oracle(original, opt=opt)
    wrong_keys = sample_wrong_keys(
        locked.key_size,
        key_samples,
        locked.correct_key_int,
        "metrics",
        "keys",
        locked.key_size,
        seed,
    )
    exhaustive_keys = len(wrong_keys) == (1 << locked.key_size) - 1

    diff_words = key_diffs(locked, oracle, wrong_keys, words, width, opt=opt)
    sweep = SampleSweep(
        width=width,
        mask=(1 << width) - 1,
        input_names=input_names,
        output_names=oracle.output_names,
        wrong_keys=wrong_keys,
        correct_key=locked.correct_key_int,
        key_size=locked.key_size,
        splitting_inputs=splitting,
        subspace_masks=_subspace_masks(words, splitting, width),
        diff_words=diff_words,
        diff_any=[reduce(or_, diffs, 0) for diffs in diff_words],
        exhaustive_inputs=exhaustive_inputs,
        exhaustive_keys=exhaustive_keys,
        seed=seed,
    )
    return sweep, oracle.query_count


def evaluate_corruption(
    locked: LockedCircuit,
    original: Netlist,
    metrics: Sequence[str] = ("corruption",),
    key_samples: int = DEFAULT_KEY_SAMPLES,
    seed: int = 0,
    effort: int = 0,
    opt: str | None = None,
    input_samples: int = DEFAULT_INPUT_SAMPLES,
) -> CorruptionReport:
    """Compute the requested registered metrics for one locked circuit.

    ``metrics`` names entries of :mod:`repro.metrics.registry`;
    ``key_samples=0`` forces exhaustive wrong-key enumeration (any
    value at least the wrong-key count does too).  ``effort`` is the
    splitting effort ``N`` — the ``subspace`` metric reports one rate
    per ``2^N`` sub-space, other metrics ignore it.  ``opt`` changes
    the evaluated structure (hashed into cell identity upstream).
    Values are deterministic in ``(locked, original, metrics,
    key_samples, seed, effort, opt, input_samples)`` and independent of
    the lane backend (``REPRO_LANES``) by the lane-parity contract.
    """
    names: list[str] = []
    for name in metrics:
        metric_info(name)
        if name not in names:
            names.append(name)
    if not names:
        raise ValueError("at least one metric name is required")
    start = time.perf_counter()
    sweep, oracle_queries = build_sweep(
        locked,
        original,
        key_samples=key_samples,
        seed=seed,
        effort=effort,
        opt=opt,
        input_samples=input_samples,
    )
    computed = {}
    for name in names:
        result = metric_info(name).fn(sweep)
        computed[name] = {"value": result.value, "detail": result.detail}
    return CorruptionReport(
        scheme=locked.scheme,
        circuit=original.name,
        key_size=locked.key_size,
        num_inputs=len(sweep.input_names),
        num_outputs=len(sweep.output_names),
        input_samples=sweep.width,
        exhaustive_inputs=sweep.exhaustive_inputs,
        key_samples=key_samples,
        keys_sampled=len(sweep.wrong_keys),
        exhaustive_keys=sweep.exhaustive_keys,
        seed=seed,
        effort=effort,
        splitting_inputs=list(sweep.splitting_inputs),
        opt=resolve_opt(opt),
        oracle_queries=oracle_queries,
        elapsed_seconds=time.perf_counter() - start,
        metrics=computed,
    )
