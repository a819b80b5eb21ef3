"""Declarative scenario grids: ``scheme x attack x engine x circuit``.

A :class:`ScenarioSpec` names *what* to evaluate — locking schemes and
attacks by their registry names, multi-key engines, splitting-input
selections, conditional synthesis on or off, carrier circuits,
splitting efforts, seeds — and expands into one content-hashed
``scenario_cell`` task per grid point (:mod:`repro.scenarios.matrix`).
Because every cell is a plain :class:`repro.runner.TaskSpec`, a matrix
run fans out across processes under ``--jobs`` and warm re-runs replay
from the on-disk result cache like any other experiment.

Axis entries are JSON-shaped: a scheme or attack axis entry is either
a bare registry name (``"sarlock"``), a ``(name, params)`` pair
(``("sarlock", {"key_size": 8})``) or a mapping with a ``"name"`` key
(``{"name": "sarlock", "key_size": 8}``) — whatever reads best in the
calling code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from collections.abc import Mapping, Sequence

from repro.circuit.opt import OPT_LEVEL
from repro.core.multikey import engine_for
from repro.core.splitting import check_strategy
from repro.locking.registry import scheme_info
from repro.runner import TaskSpec
from repro.sat.registry import resolve_solver_name


def normalize_axis(entry) -> tuple[str, dict]:
    """Normalize one scheme/attack axis entry to ``(name, params)``."""
    if isinstance(entry, str):
        return entry, {}
    if isinstance(entry, Mapping):
        params = dict(entry)
        try:
            name = params.pop("name")
        except KeyError:
            raise ValueError(
                f"axis mapping {entry!r} needs a 'name' key"
            ) from None
        return str(name), params
    name, params = entry
    return str(name), dict(params)


@dataclass
class ScenarioSpec:
    """One declarative grid of multi-key attack scenarios.

    Attributes:
        schemes: Locking-scheme axis (registry names + params).
        attacks: Per-sub-space attack axis (registry names + params).
        engines: Multi-key engine axis (``"sharded"`` and/or
            ``"reference"``; a sharded cell whose attack cannot share
            an encoding runs the reference path and reports it).
        selections: Splitting-input strategies
            (:data:`repro.core.splitting.STRATEGIES`); metric cells and
            resistance levers always use the paper's ``"fanout"``.
        synthesis: Conditional-netlist synthesis flags (Algorithm 1
            line 4); shards never synthesize, so sharded cells run
            ``False`` as ``True``.
        circuits: Carrier-circuit names — corpus entries (e.g. the
            shipped ``real_c432``) or ISCAS-class stand-ins, resolved
            via :func:`repro.bench_circuits.corpus.resolve_circuit`.
        scale: Carrier-circuit scale factor.
        efforts: Splitting efforts ``N`` (``2^N`` sub-spaces each).
        seeds: Seeds; each feeds the scheme (unless its params pin
            one), the splitting selection and the attack.
        solver: Registered solver backend for every cell (``None`` ->
            the process default, resolved to a concrete name at
            construction so cells hash the backend that actually runs).
        time_limit_per_task / max_dips_per_task: Sub-attack budgets.
        include_baseline: Also run the ``N = 0`` exact-SAT baseline
            per cell and report the max-subtask/baseline ratio
            (Table 2's metric).
        verify_composition: CEC the composed multi-key netlist against
            the original for cells whose attack recovered *exact* keys
            on every sub-space (approximate "settled" AppSAT keys skip
            CEC — composition equivalence is an exact-key property).
        measure_resistance: Measure the defense levers per cell
            (BDD-exact sub-space key count, conditional shrink, area
            overhead) — the D1 experiment's columns.
        metrics: Corruption-metric roster (registry names from
            :mod:`repro.metrics`); empty means no metric columns.
            Metric cells are keyed by (scheme, circuit, effort, seed)
            only, so the attack/engine/solver axes share one
            ``corruption_cell`` task per point.
        key_samples: Wrong keys sampled per metric cell (``0`` =
            exhaustive); hashed into metric-cell identity.
        metrics_seed: Sample-stream seed for metric cells (``None`` ->
            each cell's own seed); the resolved value is hashed.

    ``expand()`` is deterministic: cells enumerate in axis order
    scheme -> attack -> engine -> selection -> synthesis -> circuit ->
    effort -> seed.  For an attack without a registered ``shard_fn``
    every requested engine resolves to the reference path, so the
    engine axis collapses to one ``"reference"`` cell per grid point,
    and the synthesis axis collapses the same way on sharded cells —
    the same computation is never run (or cached) twice under two
    labels.
    """

    schemes: Sequence[object]
    attacks: Sequence[object] = ("sat",)
    engines: Sequence[str] = ("sharded",)
    selections: Sequence[str] = ("fanout",)
    synthesis: Sequence[bool] = (True,)
    circuits: Sequence[str] = ("c432",)
    scale: float = 0.25
    efforts: Sequence[int] = (1,)
    seeds: Sequence[int] = (0,)
    solver: str | None = None
    time_limit_per_task: float | None = None
    max_dips_per_task: int | None = None
    include_baseline: bool = False
    verify_composition: bool = False
    measure_resistance: bool = False
    metrics: Sequence[str] = ()
    key_samples: int = 64
    metrics_seed: int | None = None

    def __post_init__(self) -> None:
        self.schemes = [normalize_axis(entry) for entry in self.schemes]
        self.attacks = [normalize_axis(entry) for entry in self.attacks]
        self.engines = list(self.engines)
        self.selections = [str(name) for name in self.selections]
        self.synthesis = [bool(flag) for flag in self.synthesis]
        self.circuits = list(self.circuits)
        self.efforts = [int(n) for n in self.efforts]
        self.seeds = [int(s) for s in self.seeds]
        # Cells hash the backend that actually runs.
        self.solver = resolve_solver_name(self.solver)
        self.metrics = [str(name) for name in self.metrics]
        self.key_samples = int(self.key_samples)
        if self.metrics_seed is not None:
            self.metrics_seed = int(self.metrics_seed)
        self.validate()

    def validate(self) -> None:
        """Resolve every axis name now, not inside worker processes."""
        for name, _ in self.schemes:
            scheme_info(name)  # raises with the roster on a miss
        for name, _ in self.attacks:
            self.effective_engines(name)  # raises on an unknown attack/engine
        for name in self.selections:
            check_strategy(name)
        from repro.bench_circuits.corpus import circuit_names, known_circuit

        for circuit in self.circuits:
            if not known_circuit(circuit):
                raise ValueError(
                    f"unknown circuit {circuit!r} (known: "
                    f"{', '.join(circuit_names())})"
                )
        if not (self.schemes and self.attacks and self.engines
                and self.selections and self.synthesis
                and self.circuits and self.efforts and self.seeds):
            raise ValueError("every ScenarioSpec axis needs at least one entry")
        if self.metrics:
            from repro.metrics import metric_info

            for name in self.metrics:
                metric_info(name)  # raises with the roster on a miss
        if self.key_samples < 0:
            raise ValueError("key_samples must be non-negative")

    def effective_engines(self, attack: str) -> list[str]:
        """The engine axis as it runs for ``attack`` (:func:`engine_for`).

        Engines that run the same path collapse to one entry: a
        ``"sharded"`` request the attack or solver cannot serve runs
        the reference path, so it is not a second ``"reference"`` cell
        — otherwise identical cells would execute (and cache) twice
        under two engine labels.
        """
        return list(dict.fromkeys(
            engine_for(engine, attack, self.solver) for engine in self.engines
        ))

    def _variants(self) -> list[tuple[str, dict, str, str, bool]]:
        """Every (attack, params, engine, selection, synthesis) to run.

        Shards never synthesize, so on a sharded cell ``False`` is the
        same computation as the default ``True`` and collapses into it.
        """
        return [
            (attack, attack_params, engine, selection, synthesis)
            for attack, attack_params in self.attacks
            for engine in self.effective_engines(attack)
            for selection in self.selections
            for synthesis in dict.fromkeys(
                flag or engine == "sharded" for flag in self.synthesis
            )
        ]

    @property
    def size(self) -> int:
        """Number of grid cells this spec expands into."""
        return len(self._variants()) * self._points

    @property
    def _points(self) -> int:
        """Number of (scheme, circuit, effort, seed) grid points."""
        return (
            len(self.schemes)
            * len(self.circuits)
            * len(self.efforts)
            * len(self.seeds)
        )

    def expand(self) -> list[TaskSpec]:
        """The grid as one ``scenario_cell`` :class:`TaskSpec` per point."""
        from repro.scenarios.matrix import scenario_cell_task

        return [
            scenario_cell_task(
                scheme=scheme,
                scheme_params=scheme_params,
                attack=attack,
                attack_params=attack_params,
                engine=engine,
                selection=selection,
                run_synthesis=synthesis,
                circuit=circuit,
                scale=self.scale,
                effort=effort,
                seed=seed,
                solver=self.solver,
                time_limit_per_task=self.time_limit_per_task,
                max_dips_per_task=self.max_dips_per_task,
                include_baseline=self.include_baseline,
                verify=self.verify_composition,
                measure_resistance=self.measure_resistance,
            )
            for scheme, scheme_params in self.schemes
            for attack, attack_params, engine, selection, synthesis
            in self._variants()
            for circuit in self.circuits
            for effort in self.efforts
            for seed in self.seeds
        ]

    def expand_metrics(self) -> list[TaskSpec]:
        """One ``corruption_cell`` task per (scheme, circuit, N, seed).

        Metric values do not depend on the attack, engine or solver
        axes — only on what was locked and how it is sampled — so the
        metric grid is the scheme x circuit x effort x seed projection
        of the full grid: every attack/engine/solver cell at a point
        shares that point's single cached metric task.  Empty when the
        spec requests no metrics.
        """
        if not self.metrics:
            return []
        from repro.metrics import corruption_cell_task

        return [
            corruption_cell_task(
                scheme=scheme,
                scheme_params=scheme_params,
                circuit=circuit,
                scale=self.scale,
                effort=effort,
                seed=seed,
                metrics=self.metrics,
                key_samples=self.key_samples,
                metrics_seed=self.metrics_seed,
            )
            for scheme, scheme_params in self.schemes
            for circuit in self.circuits
            for effort in self.efforts
            for seed in self.seeds
        ]

    @property
    def metrics_size(self) -> int:
        """Number of metric cells (0 when no metrics are requested)."""
        return self._points if self.metrics else 0

    @property
    def total_tasks(self) -> int:
        """Grid cells plus metric cells — the run's task count."""
        return self.size + self.metrics_size

    @classmethod
    def from_payload(cls, payload: Mapping) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`describe` output (or any superset).

        The inverse of :meth:`describe`: derived keys (``size``), the
        fixed ``opt`` level and unknown extras are ignored, so payloads
        decoded from older or newer exports reconstruct as long as the
        axis fields are there.
        """
        known = {spec_field.name for spec_field in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def describe(self) -> dict:
        """JSON-shaped summary (embedded in matrix exports)."""
        return {
            "schemes": [[name, params] for name, params in self.schemes],
            "attacks": [[name, params] for name, params in self.attacks],
            "engines": list(self.engines),
            "selections": list(self.selections),
            "synthesis": list(self.synthesis),
            "circuits": list(self.circuits),
            "scale": self.scale,
            "efforts": list(self.efforts),
            "seeds": list(self.seeds),
            "solver": self.solver,
            "opt": OPT_LEVEL,
            "time_limit_per_task": self.time_limit_per_task,
            "max_dips_per_task": self.max_dips_per_task,
            "include_baseline": self.include_baseline,
            "verify_composition": self.verify_composition,
            "measure_resistance": self.measure_resistance,
            "metrics": list(self.metrics),
            "key_samples": self.key_samples,
            "metrics_seed": self.metrics_seed,
            "size": self.size,
        }
