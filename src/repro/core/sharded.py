"""The shared-encoding sharded multi-key attack engine.

This is the fast arm of Algorithm 1.  The reference arm
(:func:`repro.core.multikey.multikey_attack` with
``engine="reference"``) treats the ``2^N`` sub-spaces as fully
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
* under ``parallel=True`` the shards fan out through
  :mod:`repro.runner` as registered ``multikey_shard_chunk`` tasks —
  ``--jobs`` shards a single attack across cores, partial-key results
  stream back per chunk through the runner's progress callback, and a
  pilot shard's learned clauses prime every worker's solver
  (:meth:`repro.sat.solver.Solver.export_learnts`).

The trade: the reference arm's synthesis can *shrink* each sub-problem
(the paper's "smaller SAT instances"), while this engine keeps the
full-size encoding but never rebuilds it.  On every benchmark here the
shared encoding wins by far more than synthesis saves —
``benchmarks/test_bench_multikey.py`` enforces a >=2x wall-clock floor
and records the trajectory in ``BENCH_multikey.json``.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Sequence
from dataclasses import asdict

from repro.attacks.registry import attack_info
from repro.attacks.sat_attack import build_miter_encoding
from repro.circuit.bench import format_bench, parse_bench
from repro.circuit.netlist import Netlist
from repro.circuit.opt import resolve_opt
from repro.core.multikey import MultiKeyResult, SubTaskResult
from repro.core.splitting import select_splitting_inputs, splitting_assignments
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
        self._num_gates = locked.netlist.num_gates

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
        return SubTaskResult(
            index=index,
            assignment=assignment,
            key=outcome.key,
            status=outcome.status,
            num_dips=outcome.num_dips,
            elapsed_seconds=outcome.elapsed_seconds,
            synthesis_seconds=0.0,
            gates_before=self._num_gates,
            gates_after=self._num_gates,
            oracle_queries=outcome.oracle_queries,
            solver_stats=outcome.solver_stats,
            key_order=list(self.locked.key_inputs),
            attack=attack,
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


def _encoding_identity(locked: LockedCircuit, opt: str) -> str:
    """Content hash of the compiled circuit the miter is encoded from.

    With optimization on, the *optimized* circuit fixes the variable
    numbering, so its hash — not the raw netlist's — is the identity
    that warm-start clause imports must match.
    """
    compiled = locked.netlist.compile()
    if opt != "off":
        compiled = compiled.optimized(opt).compiled
    return compiled.content_hash()


def _locked_to_params(locked: LockedCircuit) -> dict:
    """JSON-serializable reconstruction recipe for a locked circuit."""
    return {
        "locked_bench": format_bench(locked.netlist),
        "key_inputs": list(locked.key_inputs),
        "correct_key": [int(b) for b in locked.correct_key],
        "original_inputs": list(locked.original_inputs),
        "scheme": locked.scheme,
    }


def _locked_from_params(params: dict) -> LockedCircuit:
    """Inverse of :func:`_locked_to_params` (runs in worker processes)."""
    return LockedCircuit(
        netlist=parse_bench(params["locked_bench"], name="locked"),
        key_inputs=list(params["key_inputs"]),
        correct_key=tuple(int(b) for b in params["correct_key"]),
        original_inputs=list(params["original_inputs"]),
        scheme=params.get("scheme", "generic"),
    )


@register_task("multikey_shard_chunk")
def _shard_chunk_task(params: dict) -> dict:
    """Worker: run a contiguous chunk of shards on one warm engine.

    The chunk shares a single :class:`ShardEngine` (one encoding, one
    solver), so learned clauses carry over between the shards executed
    on this worker.  ``prime_learnts`` arrives through the unhashed
    execution context and is only imported when the worker's encoding
    provably matches the exporter's (compiled content hash).
    """
    locked = _locked_from_params(params)
    opt = resolve_opt(params.get("opt", "off"))
    oracle = Oracle(
        parse_bench(params["oracle_bench"], name="oracle"), opt=opt
    )
    prime = params.get("prime_learnts")
    if prime and params.get("encoding_hash"):
        if _encoding_identity(locked, opt) != params["encoding_hash"]:
            prime = None  # pragma: no cover - defensive: never import blind
    engine = ShardEngine(
        locked,
        oracle,
        params["splitting_inputs"],
        prime_learnts=prime,
        solver=params.get("solver"),
        opt=opt,
    )
    shards = [
        asdict(
            engine.run_shard(
                index,
                time_limit=params.get("time_limit_per_task"),
                max_dips=params.get("max_dips_per_task"),
                attack=params.get("attack", "sat"),
                attack_params=params.get("attack_params"),
                seed=params.get("seed", 0),
            )
        )
        for index in params["shard_indices"]
    ]
    return {"shards": shards, "encode_seconds": engine.encode_seconds}


def shard_chunk_task(
    locked: LockedCircuit,
    oracle_netlist: Netlist,
    splitting_inputs: Sequence[str],
    shard_indices: Sequence[int],
    time_limit_per_task: float | None,
    max_dips_per_task: int | None,
    prime_learnts: list[list[int]] | None = None,
    encoding_hash: str | None = None,
    attack: str = "sat",
    attack_params: dict | None = None,
    seed: int = 0,
    solver: str | None = None,
    opt: str | None = None,
) -> TaskSpec:
    """The :class:`TaskSpec` for one worker's chunk of shards.

    Circuits travel as ``.bench`` text, so the params are plain JSON:
    the same attack hashes identically across processes and the
    runner's on-disk cache can replay shard chunks.  The solver backend
    is hashed too — different backends may return different (equally
    valid) partial keys, so their artifacts must not alias.  The
    optimization level is hashed for the same reason: it changes the
    encoding a shard solves against (and the structural stats a result
    may carry), so opt-on and opt-off artifacts must not alias either
    — callers pass the *resolved* level so ``"auto"`` never leaks into
    the hash.  Warm-start clauses ride in the unhashed execution
    context — they change how fast a chunk solves, never what it
    returns.
    """
    return TaskSpec(
        kind="multikey_shard_chunk",
        params={
            **_locked_to_params(locked),
            "oracle_bench": format_bench(oracle_netlist),
            "splitting_inputs": list(splitting_inputs),
            "shard_indices": list(shard_indices),
            "time_limit_per_task": time_limit_per_task,
            "max_dips_per_task": max_dips_per_task,
            "attack": attack,
            "attack_params": attack_params,
            "seed": seed,
            "solver": solver,
            "opt": resolve_opt(opt),
        },
        context={
            "prime_learnts": prime_learnts,
            "encoding_hash": encoding_hash,
        },
        label=(
            f"shards {shard_indices[0]}-{shard_indices[-1]}"
            if shard_indices
            else "shards <empty>"
        ),
    )


def sharded_multikey_attack(
    locked: LockedCircuit,
    oracle_netlist: Netlist,
    effort: int,
    selection: str = "fanout",
    parallel: bool = False,
    processes: int | None = None,
    time_limit_per_task: float | None = None,
    max_dips_per_task: int | None = None,
    seed: int = 0,
    splitting_inputs: list[str] | None = None,
    runner: Runner | None = None,
    attack: str = "sat",
    attack_params: dict | None = None,
    solver: str | None = None,
    opt: str | None = None,
) -> MultiKeyResult:
    """Run Algorithm 1 through the shared-encoding sharded engine.

    Drop-in alternative to
    :func:`repro.core.multikey.multikey_attack` (same
    :class:`~repro.core.multikey.MultiKeyResult` shape, same sub-space
    indexing, same partial-key semantics) that encodes the miter once
    and runs the ``2^N`` sub-spaces as assumption-pinned shards.

    Args:
        locked: The locked design (attacker's netlist).
        oracle_netlist: The original design; each engine instantiates
            its own :class:`~repro.oracle.oracle.Oracle` from it.
        effort: ``N``; the input space splits into ``2^N`` sub-spaces.
        selection: Splitting-input strategy (see
            :func:`repro.core.splitting.select_splitting_inputs`).
        parallel: Fan shard chunks out through :mod:`repro.runner`.
        processes: Worker count for the default runner (ignored when
            ``runner`` is supplied).
        time_limit_per_task / max_dips_per_task: Per-shard budgets.
        seed: Seed for the ``random`` selection strategy.
        splitting_inputs: Override the selection entirely.
        runner: Runner to submit shard chunks through (its progress
            callback streams each chunk's partial keys as it lands; its
            cache, when enabled, replays identical attacks).  A plain
            uncached pool is built when omitted.
        attack: Registered per-shard attack; must carry a ``shard_fn``
            (today: ``"sat"``).  Attacks without one are rejected —
            :func:`repro.core.multikey.multikey_attack` falls back to
            the reference per-sub-space path for those.
        attack_params: Extra keyword params for the attack
            (JSON-serializable; they are part of the task hash).
        solver: Registered solver backend name (``None`` -> process
            default); must support sharding (checkpoint frames +
            assumptions) or the :class:`ShardEngine` raises.
        opt: Structural optimization level for the shared miter and
            the oracle's compiled circuit (``None`` -> process
            default; see :mod:`repro.circuit.opt`).  Resolved once
            here and hashed into the shard-chunk tasks; with opt on,
            the warm-start encoding identity is the *optimized*
            circuit's content hash.

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
    from repro.sat.registry import resolve_solver_name

    start = time.perf_counter()
    attack_info(attack)  # fail fast on unknown names
    solver = resolve_solver_name(solver)  # pinned: the backend is hashed
    opt = resolve_opt(opt)  # pinned: the level is hashed too
    if splitting_inputs is None:
        splitting_inputs = select_splitting_inputs(
            locked, effort, strategy=selection, seed=seed
        )
    elif len(splitting_inputs) != effort:
        raise ValueError("splitting_inputs length must equal effort")
    assignments = splitting_assignments(splitting_inputs)
    num_shards = len(assignments)

    fan_out = (parallel or runner is not None) and num_shards > 1
    oracle = Oracle(oracle_netlist, opt=opt)
    engine = ShardEngine(
        locked, oracle, splitting_inputs, solver=solver, opt=opt
    )
    encode_seconds = engine.encode_seconds

    if not fan_out:
        subtasks = [
            engine.run_shard(
                index,
                time_limit=time_limit_per_task,
                max_dips=max_dips_per_task,
                attack=attack,
                attack_params=attack_params,
                seed=seed,
            )
            for index in range(num_shards)
        ]
    else:
        # Pilot shard in-process: its result is shard 0's, and its
        # learned clauses become every worker's warm start.
        pilot = engine.run_shard(
            0,
            time_limit=time_limit_per_task,
            max_dips=max_dips_per_task,
            attack=attack,
            attack_params=attack_params,
            seed=seed,
        )
        prime = engine.export_warm_clauses()
        encoding_hash = _encoding_identity(locked, opt)
        if runner is None:
            runner = Runner(jobs=processes or multiprocessing.cpu_count())
        chunks = chunk_evenly(
            list(range(1, num_shards)), max(1, runner.jobs)
        )
        specs = [
            shard_chunk_task(
                locked,
                oracle_netlist,
                splitting_inputs,
                chunk,
                time_limit_per_task,
                max_dips_per_task,
                prime_learnts=prime,
                encoding_hash=encoding_hash,
                attack=attack,
                attack_params=attack_params,
                seed=seed,
                solver=solver,
                opt=opt,
            )
            for chunk in chunks
        ]
        subtasks = [pilot]
        worker_encode = 0.0
        for task in runner.run(specs):
            for shard in task.artifact["shards"]:
                subtasks.append(SubTaskResult(**shard))
            worker_encode = max(
                worker_encode, task.artifact.get("encode_seconds", 0.0)
            )
        # Workers re-encode concurrently, so the critical path carries
        # the parent encode plus the slowest worker's re-encode.
        encode_seconds += worker_encode
        subtasks.sort(key=lambda task: task.index)

    return MultiKeyResult(
        effort=effort,
        splitting_inputs=list(splitting_inputs),
        subtasks=subtasks,
        wall_seconds=time.perf_counter() - start,
        parallel=fan_out,
        selection=selection,
        engine="sharded",
        encode_seconds=encode_seconds,
        attack=attack,
        solver=solver,
    )
