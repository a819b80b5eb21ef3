"""Versioned request/response envelopes: the typed half of the API.

Every way of asking this system for work — a scenario-matrix grid, a
single multi-key attack, one of the paper's experiments, a benchmark
emission — is a small dataclass here with ``to_json``/``from_json``
and **fail-fast validation**: scheme, attack and engine names resolve
against the live registries at construction time, so a typo raises
with the roster before any job starts (and before a daemon accepts the
request), never inside a worker process.

The wire shape is one JSON object per envelope::

    {"schema_version": 1, "kind": "matrix", "schemes": [["sarlock", {"key_size": 4}]], ...}
    {"schema_version": 1, "kind": "response", "request_kind": "matrix", "status": "ok", ...}
    {"schema_version": 1, "kind": "event", "type": "cell_done", ...}

``schema_version`` is checked on decode: a payload from a different
schema generation is rejected loudly (:class:`EnvelopeError`) instead
of being half-understood.  Unknown *fields* are tolerated and ignored,
so adding fields is forward-compatible without a version bump; bump
:data:`SCHEMA_VERSION` only when existing fields change meaning.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from typing import ClassVar

from repro.core.multikey import engine_for
from repro.sat.registry import resolve_solver_name
from repro.scenarios.spec import ScenarioSpec, normalize_axis

#: The envelope schema generation.  Decoders reject other versions.
SCHEMA_VERSION = 1

#: Terminal job statuses a Response may carry.
RESPONSE_STATUSES = ("ok", "partial", "error", "cancelled")

#: The experiments an ExperimentRequest may name: each is the module
#: ``repro.experiments.<name>``, here with its driver and its text
#: renderer (imported on first use, see :func:`experiment_entry`).  The
#: grid experiments' drivers return a MatrixResult that a plain
#: formatter renders; a figure's result class formats itself.
EXPERIMENTS = {
    "figure1": ("run_figure1", "Figure1Result.format"),
    "figure2": ("run_figure2", "Figure2Result.format"),
    "table1": ("run_table1", "format_table1"),
    "table2": ("run_table2", "format_table2"),
    "ablation_splitting": ("run_splitting_ablation", "format_splitting_ablation"),
    "ablation_synthesis": ("run_synthesis_ablation", "format_synthesis_ablation"),
    "defense": ("run_defense_experiment", "format_defense"),
}


class EnvelopeError(ValueError):
    """A payload that cannot be decoded into a valid envelope."""


def experiment_entry(name: str) -> tuple:
    """Experiment ``name``'s ``(driver, renderer)``, imported now."""
    driver, renderer = EXPERIMENTS[name]
    module = importlib.import_module(f"repro.experiments.{name}")
    return getattr(module, driver), attrgetter(renderer)(module)


@dataclass
class MatrixRequest:
    """Evaluate a ``scheme x attack x engine x circuit`` scenario grid.

    Mirrors :class:`repro.scenarios.ScenarioSpec` field-for-field, but
    in a JSON-normal form: scheme/attack axes are ``[name, params]``
    pairs (any :func:`~repro.scenarios.spec.normalize_axis` shape is
    accepted on input).  ``to_spec()`` produces the validated spec.
    ``circuits`` accepts corpus names (e.g. ``real_c432``) next to
    stand-ins; ``scale`` applies to stand-ins only.
    """

    kind: ClassVar[str] = "matrix"

    schemes: list = field(default_factory=lambda: [["sarlock", {}]])
    attacks: list = field(default_factory=lambda: [["sat", {}]])
    engines: list = field(default_factory=lambda: ["sharded"])
    selections: list = field(default_factory=lambda: ["fanout"])
    synthesis: list = field(default_factory=lambda: [True])
    circuits: list = field(default_factory=lambda: ["c432"])
    scale: float = 0.25
    efforts: list = field(default_factory=lambda: [1])
    seeds: list = field(default_factory=lambda: [0])
    solver: str | None = None
    time_limit_per_task: float | None = None
    max_dips_per_task: int | None = None
    include_baseline: bool = False
    verify_composition: bool = False
    measure_resistance: bool = False
    metrics: list = field(default_factory=list)
    key_samples: int = 64
    metrics_seed: int | None = None

    def __post_init__(self) -> None:
        self.schemes = [
            [name, dict(params)]
            for name, params in (normalize_axis(e) for e in self.schemes)
        ]
        self.attacks = [
            [name, dict(params)]
            for name, params in (normalize_axis(e) for e in self.attacks)
        ]
        self.engines = [str(e) for e in self.engines]
        self.selections = [str(s) for s in self.selections]
        self.synthesis = [bool(flag) for flag in self.synthesis]
        self.circuits = [str(c) for c in self.circuits]
        self.scale = float(self.scale)
        self.efforts = [int(n) for n in self.efforts]
        self.seeds = [int(s) for s in self.seeds]
        self.metrics = [str(m) for m in self.metrics]
        self.key_samples = int(self.key_samples)
        if self.metrics_seed is not None:
            self.metrics_seed = int(self.metrics_seed)
        self.to_spec()  # fail-fast: registry + axis validation

    def to_spec(self) -> ScenarioSpec:
        """The validated :class:`ScenarioSpec` this request describes."""
        return ScenarioSpec.from_payload(asdict(self))


@dataclass
class AttackRequest:
    """Lock one carrier circuit and run the multi-key attack on it.

    The service-level twin of the CLI ``attack`` subcommand: scheme and
    attack names resolve against the registries at construction.
    ``circuit`` resolves corpus-first (``real_c432`` names the genuine
    ``.bench`` file; ``c432`` the stand-in) and ``scale`` only applies
    to stand-ins.
    """

    kind: ClassVar[str] = "attack"

    circuit: str = "c6288"
    scheme: str = "sarlock"
    scheme_params: dict = field(default_factory=dict)
    attack: str = "sat"
    attack_params: dict = field(default_factory=dict)
    engine: str = "sharded"
    effort: int = 2
    scale: float = 0.25
    seed: int = 0
    solver: str | None = None
    time_limit_per_task: float | None = None
    parallel: bool = False

    def __post_init__(self) -> None:
        from repro.attacks.registry import attack_info
        from repro.locking.registry import scheme_info

        scheme_info(self.scheme)
        attack_info(self.attack)
        resolve_solver_name(self.solver)  # raises with the roster on a miss
        try:
            engine_for(self.engine, self.attack, self.solver)
        except ValueError as error:
            raise EnvelopeError(str(error)) from None
        self.scheme_params = dict(self.scheme_params)
        self.attack_params = dict(self.attack_params)
        self.effort = int(self.effort)
        self.seed = int(self.seed)
        self.scale = float(self.scale)
        if self.effort < 0:
            raise EnvelopeError("effort must be non-negative")
        if self.scale <= 0:
            raise EnvelopeError("scale must be positive")


@dataclass
class MetricsRequest:
    """Evaluate corruption metrics for one locked circuit.

    The service-level twin of the CLI ``metrics`` subcommand: lock
    ``circuit`` with ``scheme`` and run the named registered metrics
    (:mod:`repro.metrics`) over ``key_samples`` wrong keys.  ``seed``
    feeds the scheme (unless ``scheme_params`` pins one);
    ``metrics_seed`` feeds the sample streams and defaults to ``seed``.
    ``effort`` is the splitting effort ``N`` the ``subspace`` metric
    partitions on.  Metric and scheme names resolve against the live
    registries at construction.
    """

    kind: ClassVar[str] = "metrics"

    circuit: str = "c432"
    scheme: str = "sarlock"
    scheme_params: dict = field(default_factory=dict)
    metrics: list = field(default_factory=lambda: ["corruption"])
    key_samples: int = 64
    seed: int = 0
    metrics_seed: int | None = None
    effort: int = 0
    scale: float = 0.25

    def __post_init__(self) -> None:
        from repro.bench_circuits.corpus import circuit_names, known_circuit
        from repro.locking.registry import scheme_info
        from repro.metrics import metric_info

        scheme_info(self.scheme)
        self.metrics = [str(m) for m in self.metrics]
        if not self.metrics:
            raise EnvelopeError("metrics request needs at least one metric")
        for name in self.metrics:
            metric_info(name)  # raises with the roster on a miss
        if not known_circuit(self.circuit):
            raise EnvelopeError(
                f"unknown circuit {self.circuit!r} (known: "
                f"{', '.join(circuit_names())})"
            )
        self.scheme_params = dict(self.scheme_params)
        self.key_samples = int(self.key_samples)
        self.seed = int(self.seed)
        if self.metrics_seed is not None:
            self.metrics_seed = int(self.metrics_seed)
        self.effort = int(self.effort)
        self.scale = float(self.scale)
        if self.key_samples < 0:
            raise EnvelopeError("key_samples must be non-negative")
        if self.effort < 0:
            raise EnvelopeError("effort must be non-negative")
        if self.scale <= 0:
            raise EnvelopeError("scale must be positive")


@dataclass
class ExperimentRequest:
    """Run one of the paper's experiment drivers.

    ``experiment`` names a driver from :data:`EXPERIMENTS`; ``params``
    are its keyword arguments (JSON values only — e.g. table2's
    ``spec`` is a preset name or a plain dict, coerced by the job
    executor).  Parameter *names* are validated against the driver's
    signature here, so a misspelled knob fails before submission.
    """

    kind: ClassVar[str] = "experiment"

    experiment: str = "figure1"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            known = ", ".join(EXPERIMENTS)
            raise EnvelopeError(
                f"unknown experiment {self.experiment!r} (known: {known})"
            )
        self.params = dict(self.params)
        driver, _ = experiment_entry(self.experiment)
        accepted = set(inspect.signature(driver).parameters) - {"runner"}
        unknown = sorted(set(self.params) - accepted)
        if unknown:
            raise EnvelopeError(
                f"experiment {self.experiment!r} does not accept "
                f"{', '.join(unknown)} (accepted: {', '.join(sorted(accepted))})"
            )


@dataclass
class BenchRequest:
    """Emit a named circuit (stand-in or corpus entry) as ``.bench`` text."""

    kind: ClassVar[str] = "bench"

    circuit: str = "c7552"
    scale: float = 1.0

    def __post_init__(self) -> None:
        self.scale = float(self.scale)
        if not self.circuit:
            raise EnvelopeError("bench request needs a circuit name")
        if self.scale <= 0:
            raise EnvelopeError("scale must be positive")


@dataclass
class Response:
    """The terminal envelope of every job.

    Attributes:
        request_kind: The ``kind`` of the request that produced this
            response (empty for protocol-level errors, e.g. a daemon
            rejecting a malformed line).
        status: One of :data:`RESPONSE_STATUSES`.
        job_id: The job that produced it (empty outside job context).
        result: Kind-specific JSON payload (see
            :mod:`repro.service.render` for how each renders back to
            the classic CLI text).  An experiment's is
            ``{"experiment": name, "result": ...}``: Table 1, Table 2,
            D1, A1 and A2 send their grid's
            :meth:`~repro.scenarios.matrix.MatrixResult.to_payload`,
            the figures their result's ``asdict``.
        error: Human-readable failure description when ``status`` is
            ``"error"``.
    """

    kind: ClassVar[str] = "response"

    request_kind: str = ""
    status: str = "ok"
    job_id: str = ""
    result: dict | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            known = ", ".join(RESPONSE_STATUSES)
            raise EnvelopeError(
                f"unknown response status {self.status!r} (known: {known})"
            )

    @property
    def succeeded(self) -> bool:
        return self.status == "ok"


#: Every request kind a daemon/service accepts, by wire name.
REQUEST_KINDS = {
    MatrixRequest.kind: MatrixRequest,
    AttackRequest.kind: AttackRequest,
    MetricsRequest.kind: MetricsRequest,
    ExperimentRequest.kind: ExperimentRequest,
    BenchRequest.kind: BenchRequest,
}

_ENVELOPE_KINDS = {**REQUEST_KINDS, Response.kind: Response}

#: Union type for documentation purposes.
Request = (
    MatrixRequest
    | AttackRequest
    | MetricsRequest
    | ExperimentRequest
    | BenchRequest
)


def to_dict(envelope) -> dict:
    """The wire shape of any envelope (version + kind + fields)."""
    payload = {"schema_version": SCHEMA_VERSION, "kind": envelope.kind}
    payload.update(asdict(envelope))
    return payload


def to_json(envelope) -> str:
    """One JSON line (sorted keys, so output is deterministic)."""
    return json.dumps(to_dict(envelope), sort_keys=True)


def from_dict(payload: Mapping):
    """Decode a wire dict into its envelope (or :class:`Event`).

    Raises :class:`EnvelopeError` for non-mappings, missing/mismatched
    ``schema_version``, unknown ``kind`` or missing required fields;
    registry validation errors (unknown scheme/attack names) propagate
    as the registries' own ``ValueError`` with the roster attached.
    Unknown fields are ignored.
    """
    if not isinstance(payload, Mapping):
        raise EnvelopeError(
            f"envelope must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise EnvelopeError(
            f"unsupported schema_version {version!r} "
            f"(this build speaks {SCHEMA_VERSION})"
        )
    kind = payload.get("kind")
    if kind == "event":
        from repro.service.events import Event

        return Event.from_dict(dict(payload))
    try:
        cls = _ENVELOPE_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(_ENVELOPE_KINDS) + ["event"])
        raise EnvelopeError(
            f"unknown envelope kind {kind!r} (known: {known})"
        ) from None
    names = {f.name for f in fields(cls)}
    kwargs = {k: v for k, v in payload.items() if k in names}
    try:
        return cls(**kwargs)
    except TypeError as error:
        raise EnvelopeError(f"bad {kind} envelope: {error}") from None


def from_json(text: str):
    """Decode one JSON line into its envelope (or :class:`Event`)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise EnvelopeError(f"envelope is not valid JSON: {error}") from None
    return from_dict(payload)
