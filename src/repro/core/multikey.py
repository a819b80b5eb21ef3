"""Algorithm 1: the multi-key attack (paper §3, Tables 1 and 2).

For splitting effort ``N`` the input space splits into ``2^N``
sub-spaces, and each sub-space yields its own partial key (it may be
"incorrect" globally — that is the point of the paper).
:func:`multikey_attack` is the one front end: it resolves the solver and
opt levers, asks :func:`engine_for` which engine runs, selects the
splitting inputs and assembles the :class:`MultiKeyResult`.  Two
engines attack the sub-spaces:

* ``engine="reference"`` (this module) follows Algorithm 1 literally:
  each sub-task synthesizes a conditional netlist
  (:mod:`repro.core.conditional`) and cold-starts a pinned attack.
  Each sub-task is a registered ``multikey_subtask`` task (circuits
  travel as ``.bench`` text), so the ``2^N`` sub-tasks run through
  :mod:`repro.runner` — its pool, cache and shared worker slots.
* ``engine="sharded"`` (:func:`repro.core.sharded.run_shards`) encodes
  the miter once and runs the ``2^N`` sub-spaces as assumption-pinned
  shards against warm solver state — same partial keys, a fraction of
  the wall-clock.

The per-sub-space strategy is *any* attack registered in
:mod:`repro.attacks.registry` (``attack="sat"`` by default): the
paper's one-key critique applies to every oracle-guided attack, and
generalizing the sub-space step is what lets the scenario matrix
evaluate e.g. multi-key AppSAT.  Attacks that can run against a shared
miter encoding keep the sharded fast path; the rest transparently fall
back to the reference per-sub-space flow (:func:`engine_for`).

Both engines report cost following the paper's convention: *"our
attack's efficiency is determined by the runtime of the most
time-intensive sub-task"*.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import asdict, dataclass, field
from statistics import fmean

from repro.attacks.registry import SUCCESS_STATUSES, attack_info, run_attack
from repro.circuit.bench import format_bench, parse_bench
from repro.circuit.netlist import Netlist
from repro.circuit.opt import resolve_opt
from repro.core.conditional import ConditionalNetlist, generate_conditional_netlist
from repro.core.splitting import select_splitting_inputs, splitting_assignments
from repro.locking.base import LockedCircuit, key_to_int
from repro.oracle.oracle import Oracle
from repro.runner import Runner, TaskSpec, register_task
from repro.sat.registry import resolve_solver_name, solver_info

#: The multi-key engines; :func:`engine_for` picks the one that runs.
ENGINES = ("sharded", "reference")


@dataclass
class SubTaskResult:
    """One of the ``2^N`` sub-attacks (a reference sub-task or a shard).

    Attributes:
        index: Sub-space index; bit ``j`` gives the value of splitting
            input ``j`` (Algorithm 1's task numbering).
        assignment: The splitting-input constants of this sub-space.
        key: The recovered partial key (``None`` on a budget stop).
        status: The sub-attack's :class:`AttackOutcome` status.
        num_dips: DIP iterations this sub-attack executed.
        elapsed_seconds: The attack loop's wall-clock time.
        synthesis_seconds: Conditional-synthesis time (0 for shards —
            the sharded engine never synthesizes).
        gates_before / gates_after: Netlist size around synthesis.
        oracle_queries: Oracle queries issued by this sub-attack.
        solver_stats: This sub-attack's solver counter deltas
            (conflicts, decisions, learned, ...).
        key_order: Key port names fixing :attr:`key_int` bit order.
        attack: Registered name of the per-sub-space attack that ran.
    """

    index: int
    assignment: dict[str, bool]
    key: dict[str, bool] | None
    status: str
    num_dips: int
    elapsed_seconds: float
    synthesis_seconds: float
    gates_before: int
    gates_after: int
    oracle_queries: int
    solver_stats: dict[str, int] = field(default_factory=dict)
    key_order: list[str] = field(default_factory=list)
    attack: str = "sat"

    @property
    def key_int(self) -> int | None:
        """Partial key packed as an integer (``None`` without a key)."""
        if self.key is None:
            return None
        return key_to_int([int(self.key[net]) for net in self.key_order])

    @property
    def total_seconds(self) -> float:
        """Attack plus synthesis time — the sub-task's full cost."""
        return self.elapsed_seconds + self.synthesis_seconds

    @classmethod
    def from_payload(cls, payload: dict) -> "SubTaskResult":
        """Rebuild from ``asdict`` output (a JSON round trip is lossless)."""
        return cls(**payload)

    @classmethod
    def from_outcome(
        cls, outcome, index: int, conditional: ConditionalNetlist, attack: str
    ) -> "SubTaskResult":
        """The record of one sub-attack's :class:`AttackOutcome`.

        ``conditional`` is the netlist the sub-attack ran on: the
        synthesized one of a reference sub-task, or the unsynthesized
        locked circuit of a shard (its sub-space is pinned by
        assumptions), which reports no synthesis time.
        """
        return cls(
            index=index,
            assignment=dict(conditional.assignment),
            key=outcome.key,
            status=outcome.status,
            num_dips=outcome.num_dips,
            elapsed_seconds=outcome.elapsed_seconds,
            synthesis_seconds=getattr(
                conditional.synthesis, "elapsed_seconds", 0.0
            ),
            gates_before=conditional.gates_before,
            gates_after=conditional.gates_after,
            oracle_queries=outcome.oracle_queries,
            solver_stats=outcome.solver_stats,
            key_order=list(conditional.locked.key_inputs),
            attack=attack,
        )


@dataclass
class MultiKeyResult:
    """Everything Algorithm 1 returns, plus the paper's runtime metrics.

    Attributes:
        effort: The splitting effort ``N``.
        splitting_inputs: The ``N`` pinned primary inputs.
        subtasks: One :class:`SubTaskResult` per sub-space, in index
            order.
        wall_seconds: End-to-end wall-clock of the whole attack.
        parallel: Whether sub-tasks fanned out across processes.
        selection: The splitting-input strategy used.
        engine: ``"reference"`` (per-sub-space synthesis + cold SAT)
            or ``"sharded"`` (shared encoding, warm shards).
        encode_seconds: Miter encoding cost on the critical path
            (sharded engine only: one encode when serial, the parent
            encode plus the slowest worker's re-encode when parallel;
            the reference arm pays encoding per sub-task inside
            ``elapsed_seconds``).
        attack: Registered name of the per-sub-space attack.
        solver: Registered solver backend the sub-attacks ran on.
    """

    effort: int
    splitting_inputs: list[str]
    subtasks: list[SubTaskResult]
    wall_seconds: float
    parallel: bool
    selection: str
    engine: str = "reference"
    encode_seconds: float = 0.0
    attack: str = "sat"
    solver: str = "python"

    @property
    def status(self) -> str:
        """``"ok"`` when every sub-task succeeded, else ``"partial"``.

        A sub-task succeeds when its status is in
        :data:`repro.attacks.registry.SUCCESS_STATUSES` — ``"ok"``
        (exact) or ``"settled"`` (AppSAT's acceptance criterion).
        """
        return (
            "ok"
            if all(t.status in SUCCESS_STATUSES for t in self.subtasks)
            else "partial"
        )

    @property
    def keys(self) -> list[dict[str, bool]]:
        """The recovered partial keys (budget-stopped sub-tasks omitted)."""
        return [t.key for t in self.subtasks if t.key is not None]

    @property
    def key_ints(self) -> list[int | None]:
        """Partial keys packed as integers, one entry per sub-space."""
        return [t.key_int for t in self.subtasks]

    @property
    def max_subtask_seconds(self) -> float:
        """Slowest sub-task — the paper's attack-cost metric."""
        return max((t.total_seconds for t in self.subtasks), default=0.0)

    @property
    def min_subtask_seconds(self) -> float:
        """Fastest sub-task (Table 2's "Minimum" column)."""
        return min((t.total_seconds for t in self.subtasks), default=0.0)

    @property
    def mean_subtask_seconds(self) -> float:
        """Mean sub-task cost (Table 2's "Mean" column)."""
        if not self.subtasks:
            return 0.0
        return fmean(t.total_seconds for t in self.subtasks)

    @property
    def total_dips(self) -> int:
        """DIP iterations summed over all sub-tasks."""
        return sum(t.num_dips for t in self.subtasks)

    @property
    def dips_per_task(self) -> list[int]:
        """#DIP per sub-space, in index order (Table 1's columns)."""
        return [t.num_dips for t in self.subtasks]

    @property
    def solver_stats(self) -> dict[str, int]:
        """Solver counters aggregated across every sub-task.

        Monotone counters (conflicts, decisions, propagations,
        learned, ...) are summed; ``max_decision_level`` is the
        maximum over sub-tasks.  Per-shard numbers stay available on
        each :class:`SubTaskResult` — nothing is lost when results
        cross the process-pool boundary.
        """
        totals: dict[str, int] = {}
        for task in self.subtasks:
            for name, value in task.solver_stats.items():
                if name == "max_decision_level":
                    totals[name] = max(totals.get(name, 0), value)
                else:
                    totals[name] = totals.get(name, 0) + value
        return totals

    def to_payload(self) -> dict:
        """The result as one JSON-shaped dict (the service's wire form)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "MultiKeyResult":
        """Rebuild from :meth:`to_payload` output.

        The round trip is lossless: every derived metric (``status``,
        ``max_subtask_seconds``, ``solver_stats`` aggregation, ...) is
        a property over the stored fields, so a result reconstructed
        from a daemon response reports identical numbers.
        """
        data = dict(payload)
        data["subtasks"] = [
            SubTaskResult.from_payload(task) for task in data["subtasks"]
        ]
        return cls(**data)


def _circuit_params(locked: LockedCircuit, oracle_netlist: Netlist) -> dict:
    """JSON-serializable recipe for the locked and oracle circuits: the
    ``.bench`` params of every dispatched sub-task and shard chunk."""
    return {
        "locked_bench": format_bench(locked.netlist),
        "key_inputs": list(locked.key_inputs),
        "correct_key": [int(b) for b in locked.correct_key],
        "original_inputs": list(locked.original_inputs),
        "scheme": locked.scheme,
        "oracle_bench": format_bench(oracle_netlist),
    }


def _locked_from_params(params: dict) -> LockedCircuit:
    """The locked circuit of :func:`_circuit_params` (runs in workers)."""
    return LockedCircuit(
        netlist=parse_bench(params["locked_bench"], name="locked"),
        key_inputs=list(params["key_inputs"]),
        correct_key=tuple(int(b) for b in params["correct_key"]),
        original_inputs=list(params["original_inputs"]),
        scheme=params.get("scheme", "generic"),
    )


@register_task("multikey_subtask")
def _subtask_task(params: dict) -> dict:
    """Worker: one reference sub-task — synthesize the conditional
    netlist of sub-space ``index``, then cold-start a pinned attack."""
    locked = _locked_from_params(params)
    assignment = params["assignment"]
    opt = params["opt"]
    conditional = generate_conditional_netlist(
        locked, assignment, run_synthesis=params["run_synthesis"]
    )
    oracle = Oracle(parse_bench(params["oracle_bench"], name="oracle"), opt=opt)
    outcome = run_attack(
        params["attack"],
        conditional.locked,
        oracle,
        pin=assignment,
        time_limit=params["time_limit_per_task"],
        max_dips=params["max_dips_per_task"],
        seed=params["seed"],
        solver=params["solver"],
        opt=opt,
        **(params["attack_params"] or {}),
    )
    return asdict(
        SubTaskResult.from_outcome(
            outcome, params["index"], conditional, params["attack"]
        )
    )


def engine_for(engine: str, attack: str, solver: str | None = None) -> str:
    """The multi-key engine that really runs when ``engine`` is asked for.

    ``"sharded"`` runs only when ``attack`` can share one miter
    encoding (it registers a ``shard_fn``) and the ``solver`` backend
    (``None`` -> the process default) has checkpoint/rollback frames
    and assumptions; every other combination runs ``"reference"``.
    This is the one place engine names are checked.

    Raises:
        ValueError: ``engine`` is not one of :data:`ENGINES`.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} (known: {', '.join(ENGINES)})"
        )
    shareable = (
        attack_info(attack).supports_shared_encoding
        and solver_info(resolve_solver_name(solver)).supports_sharding
    )
    return "sharded" if engine == "sharded" and shareable else "reference"


def multikey_attack(
    locked: LockedCircuit,
    oracle_netlist: Netlist,
    effort: int,
    selection: str = "fanout",
    run_synthesis: bool = True,
    parallel: bool = False,
    processes: int | None = None,
    time_limit_per_task: float | None = None,
    max_dips_per_task: int | None = None,
    seed: int = 0,
    splitting_inputs: list[str] | None = None,
    engine: str = "reference",
    attack: str = "sat",
    attack_params: dict | None = None,
    solver: str | None = None,
    opt: str | None = None,
    runner=None,
) -> MultiKeyResult:
    """Run Algorithm 1 with splitting effort ``N = effort``.

    Args:
        locked: The locked design (attacker's netlist).
        oracle_netlist: The original design, used only to *simulate*
            the black-box oracle inside each sub-task (each sub-task
            instantiates its own :class:`Oracle` from it).
        effort: ``N``; the input space splits into ``2^N`` sub-spaces.
        selection: Splitting-input strategy (see
            :func:`repro.core.splitting.select_splitting_inputs`).
        run_synthesis: Synthesize each conditional netlist (line 4 of
            Algorithm 1).  Disabling this is the A2 ablation.
            Reference engine only.
        parallel: Fan the sub-tasks out over a process pool.
        processes: Worker count of the default runner (defaults to
            ``cpu_count``; ignored when ``runner`` is supplied).
        time_limit_per_task / max_dips_per_task: Sub-attack budgets.
        seed: Seed of the ``random`` selection strategy and of every
            sub-attack.
        splitting_inputs: Override the selection entirely (used by
            tests and the composition example).
        engine: ``"reference"`` runs Algorithm 1 literally (one
            synthesized conditional netlist and one cold per-sub-space
            attack, each a ``multikey_subtask`` task); ``"sharded"``
            hands the sub-spaces to
            :func:`repro.core.sharded.run_shards`, which shares a
            single miter encoding across all of them.
            :func:`engine_for` decides which one really runs — a
            ``"sharded"`` request whose ``attack`` or ``solver`` cannot
            share an encoding runs the reference path, and the
            result's ``engine`` field reports ``"reference"``.
        attack: Registered per-sub-space attack name (see
            :func:`repro.attacks.registry.registered_attacks`).
        attack_params: Extra keyword params for the attack (e.g.
            AppSAT's ``error_threshold``); must be JSON-serializable
            when the runner caches (they are part of the task hash).
        solver: Registered solver backend name for the sub-attacks
            (``None`` -> the process default; see
            :mod:`repro.sat.registry`).
        opt: Structural optimization level for the circuits each
            sub-attack encodes and simulates (``None`` -> the process
            default; see :mod:`repro.circuit.opt`).  Resolved here so
            every sub-task and shard chunk hashes one concrete level.
        runner: Optional :class:`repro.runner.Runner` the sub-tasks
            (reference) or shard chunks (sharded) are submitted
            through; its cache, when enabled, replays identical
            sub-attacks.  Without one, ``parallel`` builds
            ``Runner(jobs=processes or cpu_count)``; otherwise the
            reference engine runs its sub-tasks on a serial runner and
            the sharded engine runs every shard in-process.

    ``effort=0`` degenerates to the baseline single-key attack.
    """
    start = time.perf_counter()
    solver = resolve_solver_name(solver)  # pinned: the backend is hashed
    opt = resolve_opt(opt)  # pinned: the level is hashed too
    runs = engine_for(engine, attack, solver)
    if splitting_inputs is None:
        splitting_inputs = select_splitting_inputs(
            locked, effort, strategy=selection, seed=seed
        )
    elif len(splitting_inputs) != effort:
        raise ValueError("splitting_inputs length must equal effort")
    shared = {
        "time_limit_per_task": time_limit_per_task,
        "max_dips_per_task": max_dips_per_task,
        "attack": attack,
        "attack_params": attack_params,
        "seed": seed,
        "solver": solver,
        "opt": opt,
    }
    if runner is None and parallel:
        runner = Runner(jobs=processes or multiprocessing.cpu_count())

    encode_seconds = 0.0
    if runs == "sharded":
        from repro.core.sharded import run_shards

        subtasks, encode_seconds = run_shards(
            locked, oracle_netlist, splitting_inputs, shared, runner
        )
        # Shards fan out exactly when a runner is at hand.
        parallel = runner is not None
    else:
        shared.update(
            _circuit_params(locked, oracle_netlist),
            run_synthesis=run_synthesis,
        )
        specs = [
            TaskSpec(
                kind="multikey_subtask",
                params={**shared, "index": index, "assignment": assignment},
                label=f"sub-task {index}",
            )
            for index, assignment in enumerate(
                splitting_assignments(splitting_inputs)
            )
        ]
        subtasks = [
            SubTaskResult(**task.artifact)
            for task in (runner or Runner()).run(specs)
        ]

    return MultiKeyResult(
        effort=effort,
        splitting_inputs=list(splitting_inputs),
        subtasks=subtasks,
        wall_seconds=time.perf_counter() - start,
        parallel=parallel and bool(splitting_inputs),
        selection=selection,
        engine=runs,
        encode_seconds=encode_seconds,
        attack=attack,
        solver=solver,
    )
