"""The shared-encoding sharded multi-key attack engine.

This is the fast arm of Algorithm 1:
:func:`repro.core.multikey.multikey_attack` selects the splitting
inputs and hands them to :func:`run_shards` when
:func:`~repro.core.multikey.engine_for` picks ``"sharded"``.  The
reference arm (``engine="reference"``) treats the ``2^N`` sub-spaces as fully
independent attacks: each one synthesizes a conditional netlist
(:mod:`repro.core.conditional`), Tseitin-encodes a fresh miter and
cold-starts a SAT solver.  All of that work is structurally identical
across sub-spaces — the miter encoding depends only on the locked
circuit, not on the splitting assignment — so this engine pays for it
exactly once:

* the locked circuit's miter is encoded **once** from the compiled IR
  (:func:`repro.attacks.sat_attack.build_miter_encoding`);
* each sub-space is expressed by *assumption literals* pinning the
  splitting inputs — no per-sub-space conditional synthesis on the hot
  path (``generate_conditional_netlist`` stays as the parity /
  reference arm);
* every shard's learned I/O constraints hang off a per-shard *guard*
  literal, so shards can share one solver: clauses learned while
  solving shard *i* are sound for shard *j* (guards keep the
  sub-space-specific facts apart) and carry over as warm state;
* given a runner (``parallel=True`` builds one) the shards fan out
  through :mod:`repro.runner` as registered ``multikey_shard_chunk``
  tasks — ``--jobs`` shards a single attack across cores, partial-key
  results stream back per chunk through the runner's progress
  callback, and a pilot shard's learned clauses prime every worker's
  solver (:meth:`repro.sat.solver.Solver.export_learnts`).

The trade: the reference arm's synthesis can *shrink* each sub-problem
(the paper's "smaller SAT instances"), while this engine keeps the
full-size encoding but never rebuilds it.  On every benchmark here the
shared encoding wins by far more than synthesis saves —
``benchmarks/test_bench_multikey.py`` enforces a >=2x wall-clock floor
and records the trajectory in ``BENCH_multikey.json``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import asdict

from repro.attacks.registry import attack_info
from repro.attacks.sat_attack import build_miter_encoding
from repro.circuit.netlist import Netlist
from repro.circuit.opt import resolve_opt
from repro.core.conditional import ConditionalNetlist
from repro.core.multikey import (
    MultiKeyResult,
    SubTaskResult,
    _circuit_params,
    multikey_attack,
)
from repro.locking.base import LockedCircuit
from repro.oracle.oracle import Oracle
from repro.runner import Runner, TaskSpec, register_task
from repro.runner.executor import chunk_evenly

#: LBD cap for pilot-shard clauses shipped to worker solvers.
_WARM_START_MAX_LBD = 4


class ShardEngine:
    """One shared miter encoding, many sub-space shards.

    Build it once per (locked circuit, splitting inputs) pair, then
    call :meth:`run_shard` for any subset of the ``2^N`` sub-space
    indices.  Shards executed on the same engine share a single
    incremental solver, so later shards start from the learned-clause
    state of earlier ones.

    Args:
        locked: The locked design under attack.
        oracle: Black-box oracle for the original function.
        splitting_inputs: The ``N`` pinned primary inputs; bit ``j`` of
            a shard index gives the value of ``splitting_inputs[j]``
            (the indexing of
            :func:`repro.core.splitting.splitting_assignments`).
        prime_learnts: Optional DIMACS clauses from another engine's
            :meth:`export_warm_clauses` — imported as learned clauses
            before the first shard runs (silently skipped when the
            backend declares ``learnt_export`` off).
        solver: Registered solver backend name (``None`` -> process
            default).  The backend must declare the ``checkpoint`` and
            ``assumptions`` capabilities — shards are solver frames —
            or construction raises ``ValueError``.
        opt: Structural optimization level for the shared miter
            (``None`` -> process default; see :mod:`repro.circuit.opt`).
            Resolved once here — the optimized circuit fixes the
            variable numbering every shard and warm-start import
            relies on.
    """

    def __init__(
        self,
        locked: LockedCircuit,
        oracle: Oracle,
        splitting_inputs: Sequence[str],
        prime_learnts: Sequence[Sequence[int]] | None = None,
        solver: str | None = None,
        opt: str | None = None,
    ):
        from repro.sat.registry import resolve_solver_name, solver_info

        for net in splitting_inputs:
            if net not in locked.original_inputs:
                raise ValueError(
                    f"splitting input {net!r} is not an original primary input"
                )
        self.solver_name = resolve_solver_name(solver)
        backend = solver_info(self.solver_name)
        if not backend.supports_sharding:
            raise ValueError(
                f"solver backend {self.solver_name!r} cannot run the sharded "
                "engine (needs the checkpoint and assumptions capabilities); "
                "use engine='reference' (multikey_attack falls back "
                "automatically)"
            )
        self._can_exchange_learnts = backend.capabilities.learnt_export
        self.locked = locked
        self.oracle = oracle
        self.splitting_inputs = list(splitting_inputs)
        self.opt = resolve_opt(opt)
        start = time.perf_counter()
        self.enc = build_miter_encoding(
            locked, solver=self.solver_name, opt=self.opt
        )
        if prime_learnts and self._can_exchange_learnts:
            self.enc.solver.import_learnts(prime_learnts)
        # Imported units (and the encoding's own constants) assign
        # variables at the root; shed the clauses they satisfy before
        # the first shard starts paying for them on every propagation.
        if hasattr(self.enc.solver, "simplify"):
            self.enc.solver.simplify()
        self.encode_seconds = time.perf_counter() - start

    @property
    def num_shards(self) -> int:
        """``2^N`` for ``N`` splitting inputs."""
        return 1 << len(self.splitting_inputs)

    def assignment(self, index: int) -> dict[str, bool]:
        """The splitting-input constants of shard ``index``."""
        return {
            net: bool((index >> j) & 1)
            for j, net in enumerate(self.splitting_inputs)
        }

    def run_shard(
        self,
        index: int,
        time_limit: float | None = None,
        max_dips: int | None = None,
        attack: str = "sat",
        attack_params: dict | None = None,
        seed: int = 0,
    ) -> SubTaskResult:
        """Attack sub-space ``index`` against the shared encoding.

        The sub-space is selected purely with assumptions (splitting
        pins + a fresh guard literal for this shard's I/O constraints);
        nothing is re-encoded.  The shard runs inside a solver frame
        (:meth:`repro.sat.solver.Solver.checkpoint` /
        :meth:`~repro.attacks.sat_attack.MiterEncoding.rollback`): its
        DIP constraint copies and shared copy gates vanish afterwards,
        even when the shard raises, while clauses learned about the
        base miter carry over warm to the next shard.

        ``attack`` must be a registered attack with a ``shard_fn``
        (today: ``"sat"``); attacks that cannot run against a shared
        encoding are rejected here — ``multikey_attack`` routes them
        to the reference per-sub-space path instead.

        Returns a :class:`~repro.core.multikey.SubTaskResult` whose
        ``solver_stats`` / ``oracle_queries`` are this shard's deltas.
        """
        if not 0 <= index < self.num_shards:
            raise ValueError(
                f"shard index {index} out of range for {self.num_shards} shards"
            )
        info = attack_info(attack)
        if info.shard_fn is None:
            raise ValueError(
                f"attack {attack!r} cannot run against a shared encoding; "
                "use engine='reference' (multikey_attack falls back "
                "automatically)"
            )
        assignment = self.assignment(index)
        input_vars = self.enc.input_vars
        assume = [
            input_vars[net] if value else -input_vars[net]
            for net, value in assignment.items()
        ]
        solver = self.enc.solver
        frame = solver.checkpoint()
        try:
            guard = solver.new_var()
            # Root facts accumulated by earlier shards (kept across
            # rollback) satisfy base clauses for good; shed them now.
            # Inside the frame this marks clauses deleted in place — the
            # clause-list length the mark snapshot relies on is untouched.
            if hasattr(solver, "simplify"):
                solver.simplify()
            outcome = info.shard_fn(
                self.enc,
                self.oracle,
                pin=assignment,
                assume=assume,
                guard=guard,
                time_limit=time_limit,
                max_dips=max_dips,
                seed=seed,
                **(attack_params or {}),
            )
        finally:
            # Drop this shard's variables, constraints and copy gates —
            # also when the shard raised; keep what the solver learned
            # about the shared base encoding.
            self.enc.rollback(frame)
        unsynthesized = ConditionalNetlist(self.locked, assignment, None)
        return SubTaskResult.from_outcome(
            outcome, index, unsynthesized, attack
        )

    def export_warm_clauses(
        self, max_lbd: int = _WARM_START_MAX_LBD
    ) -> list[list[int]]:
        """Learned clauses safe to prime another engine's solver with.

        Only clauses confined to the base miter variables are exported
        (they cannot depend on any shard's guarded constraints), so the
        result is implied by the encoding alone and sound to import
        into any engine built for the same circuit.  Backends without
        the ``learnt_export`` capability return an empty list — the
        shards still run, just without warm-start priming.
        """
        if not self._can_exchange_learnts:
            return []
        return self.enc.solver.export_learnts(
            max_var=self.enc.base_vars, max_lbd=max_lbd
        )


@register_task("multikey_shard_chunk")
def _shard_chunk_task(params: dict) -> dict:
    """Worker: run a contiguous chunk of shards on one warm engine.

    The chunk shares a single :class:`ShardEngine` (one encoding, one
    solver), so learned clauses carry over between the shards executed
    on this worker.  The unhashed context carries the parent's circuits
    with their compiled, already-optimized forms, so the worker parses,
    compiles and optimizes nothing, and ``prime_learnts`` — exported
    from an encoding of that very circuit — import as they are.  The
    ``.bench`` text of the hashed params only keys the cache.
    """
    locked, oracle_netlist = params["locked"], params["oracle_netlist"]
    locked.netlist.adopt_compiled(params["locked_compiled"])
    oracle_netlist.adopt_compiled(params["oracle_compiled"])
    engine = ShardEngine(
        locked,
        Oracle(oracle_netlist, opt=params["opt"]),  # this chunk's queries
        params["splitting_inputs"],
        prime_learnts=params["prime_learnts"],
        solver=params["solver"],
        opt=params["opt"],
    )
    shards = _run_chunk(engine, params["shard_indices"], params)
    return {
        "shards": [asdict(shard) for shard in shards],
        "encode_seconds": engine.encode_seconds,
    }


def _run_chunk(
    engine: ShardEngine, indices: Sequence[int], shared: dict
) -> list[SubTaskResult]:
    """Run shards ``indices`` on ``engine`` under the per-shard budgets,
    attack and seed in ``shared`` (``multikey_attack``'s hashed params)."""
    return [
        engine.run_shard(
            index,
            time_limit=shared["time_limit_per_task"],
            max_dips=shared["max_dips_per_task"],
            attack=shared["attack"],
            attack_params=shared["attack_params"],
            seed=shared["seed"],
        )
        for index in indices
    ]


def run_shards(
    locked: LockedCircuit,
    oracle_netlist: Netlist,
    splitting_inputs: Sequence[str],
    shared: dict,
    runner: Runner | None,
) -> tuple[list[SubTaskResult], float]:
    """Attack all ``2^N`` sub-spaces on shared miter encodings.

    The sharded arm of :func:`repro.core.multikey.multikey_attack`,
    which passes the resolved budgets, attack, seed, solver and opt as
    ``shared``.  Without a ``runner`` every shard runs in-process on
    one :class:`ShardEngine`.  With one, a pilot shard runs in-process
    and its learned clauses prime ``multikey_shard_chunk`` tasks that
    split the other shards evenly over ``runner.jobs``.  The hashed
    chunk params are plain JSON (circuits as ``.bench`` text), so the
    runner's cache can replay a chunk.  What changes speed, never
    results, rides in the unhashed context: the warm-start clauses and
    the parent's circuits with their compiled, optimized forms.

    Returns the sub-task records in index order and the encoding cost
    on the critical path: the parent encode, plus the slowest worker's
    re-encode when the shards fanned out.
    """
    opt = shared["opt"]
    engine = ShardEngine(
        locked, Oracle(oracle_netlist, opt=opt), splitting_inputs,
        solver=shared["solver"], opt=opt,
    )
    if runner is None or engine.num_shards == 1:
        subtasks = _run_chunk(engine, range(engine.num_shards), shared)
        return subtasks, engine.encode_seconds
    # Pilot shard in-process: its result is shard 0's, and its
    # learned clauses become every worker's warm start.
    subtasks = _run_chunk(engine, [0], shared)
    context = {
        "prime_learnts": engine.export_warm_clauses(),
        "locked": locked,
        "oracle_netlist": oracle_netlist,
        "locked_compiled": locked.netlist.compile(),
        "oracle_compiled": oracle_netlist.compile(),
    }
    params = {**_circuit_params(locked, oracle_netlist), **shared}
    params["splitting_inputs"] = list(splitting_inputs)
    specs = [
        TaskSpec(
            kind="multikey_shard_chunk",
            params={**params, "shard_indices": chunk},
            context=context,
            label=f"shards {chunk[0]}-{chunk[-1]}",
        )
        for chunk in chunk_evenly(
            list(range(1, engine.num_shards)), max(1, runner.jobs)
        )
    ]
    worker_encode = 0.0
    for task in runner.run(specs):
        subtasks.extend(
            SubTaskResult(**shard) for shard in task.artifact["shards"]
        )
        worker_encode = max(worker_encode, task.artifact["encode_seconds"])
    subtasks.sort(key=lambda task: task.index)
    return subtasks, engine.encode_seconds + worker_encode


def sharded_multikey_attack(
    locked: LockedCircuit, oracle_netlist: Netlist, effort: int, **options
) -> MultiKeyResult:
    """Run Algorithm 1 through the shared-encoding sharded engine.

    Shorthand for :func:`repro.core.multikey.multikey_attack` with
    ``engine="sharded"``; every other option passes through unchanged.
    Like any sharded request, an attack or solver that cannot share an
    encoding runs the reference path (see
    :func:`~repro.core.multikey.engine_for`).

    ``effort=0`` degenerates to the baseline single-key SAT attack on
    a single shard.

    Example (a 2-bit XOR-locked toy, split on one input)::

        >>> from repro.circuit.random_circuits import random_netlist
        >>> from repro.locking.xor_lock import xor_lock
        >>> original = random_netlist(4, 12, seed=7)
        >>> locked = xor_lock(original, 2, seed=1)
        >>> result = sharded_multikey_attack(locked, original, effort=1)
        >>> result.engine, result.status, len(result.subtasks)
        ('sharded', 'ok', 2)
        >>> all(task.key is not None for task in result.subtasks)
        True
    """
    return multikey_attack(
        locked, oracle_netlist, effort, engine="sharded", **options
    )
