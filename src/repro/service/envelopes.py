"""Versioned request/response envelopes: the typed half of the API.

Every way of asking this system for work — a scenario-matrix grid, a
single multi-key attack, one of the paper's experiments, a benchmark
emission — is a small dataclass with ``to_json``/``from_json`` and
**fail-fast validation**: names resolve against the live registries
and numbers are range-checked at construction time, so a typo raises
with the roster before any job starts (and before a daemon accepts the
request), never inside a worker process.

The grid schema is declared once, in
:class:`~repro.scenarios.ScenarioSpec`: it *is* the ``matrix``
envelope (``MatrixRequest`` names it), and the single-cell ``attack``
and ``metrics`` requests validate by building the one-point spec they
describe.

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
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import ClassVar, Union

from repro.scenarios.spec import ScenarioSpec, field_values

#: The envelope schema generation.  Decoders reject other versions.
SCHEMA_VERSION = 1

#: Terminal job statuses a Response may carry.
RESPONSE_STATUSES = ("ok", "partial", "error", "cancelled")

#: The experiments an ExperimentRequest may name: each is the module
#: ``repro.experiments.<name>``, here with its driver and its text
#: renderer (imported on first use, see :func:`experiment_entry`).  The
#: grid experiments' drivers return a MatrixResult, Figure 2's its
#: metrics-only spec and reports, and a plain formatter renders each;
#: Figure 1's result class formats itself.
EXPERIMENTS = {
    "figure1": ("run_figure1", "Figure1Result.format"),
    "figure2": ("run_figure2", "format_figure2"),
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


#: The ``matrix`` envelope is the scenario grid itself.
MatrixRequest = ScenarioSpec


def _point_spec(request, **axes) -> ScenarioSpec:
    """The validated one-point grid a single-cell ``request`` describes.

    The request is rejected, as :class:`EnvelopeError`, for exactly
    what would reject that grid.
    """
    try:
        return ScenarioSpec(
            schemes=[(request.scheme, request.scheme_params)],
            circuits=[request.circuit],
            scale=request.scale,
            efforts=[request.effort],
            seeds=[request.seed],
            **axes,
        )
    except ValueError as error:
        raise EnvelopeError(str(error)) from None


@dataclass
class AttackRequest:
    """Lock one carrier circuit and run the multi-key attack on it.

    The service-level twin of the CLI ``attack`` subcommand: the one
    cell of the grid :meth:`spec` returns, which it validates as and
    answers with (the job's ``result`` is that one-cell
    ``MatrixResult`` payload).  ``circuit`` resolves corpus-first
    (``real_c432`` names the genuine ``.bench`` file; ``c432`` the
    stand-in) and ``scale`` only applies to stand-ins.  ``parallel``
    fans the ``2^N`` sub-attacks out through the service's runner; it
    does not change the cell.
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
        self.scheme_params = dict(self.scheme_params)
        self.attack_params = dict(self.attack_params)
        self.effort = int(self.effort)
        self.seed = int(self.seed)
        self.scale = float(self.scale)
        self.spec()

    def spec(self) -> ScenarioSpec:
        """The one-point grid whose single cell this request is, with
        the composed keys checked by CEC."""
        return _point_spec(
            self,
            attacks=[(self.attack, self.attack_params)],
            engines=[self.engine],
            solver=self.solver,
            time_limit_per_task=self.time_limit_per_task,
            verify_composition=True,
        )


@dataclass
class MetricsRequest:
    """Evaluate corruption metrics for one locked circuit.

    The service-level twin of the CLI ``metrics`` subcommand: lock
    ``circuit`` with ``scheme`` and run the named registered metrics
    (:mod:`repro.metrics`) over ``key_samples`` wrong keys.  ``seed``
    feeds the scheme (unless ``scheme_params`` pins one);
    ``metrics_seed`` feeds the sample streams and defaults to ``seed``.
    ``effort`` is the splitting effort ``N`` the ``subspace`` metric
    partitions on.  The request is the metric cell of the one-point
    grid :meth:`spec` returns, and validates as that grid.
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
        self.scheme_params = dict(self.scheme_params)
        self.metrics = [str(m) for m in self.metrics]
        self.key_samples = int(self.key_samples)
        self.seed = int(self.seed)
        if self.metrics_seed is not None:
            self.metrics_seed = int(self.metrics_seed)
        self.effort = int(self.effort)
        self.scale = float(self.scale)
        if not self.metrics:
            raise EnvelopeError("metrics request needs at least one metric")
        self.spec()

    def spec(self) -> ScenarioSpec:
        """The one-point grid whose single metric cell this request is."""
        return _point_spec(
            self,
            metrics=self.metrics,
            key_samples=self.key_samples,
            metrics_seed=self.metrics_seed,
        )


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
        from repro.bench_circuits.corpus import circuit_names, known_circuit

        self.scale = float(self.scale)
        if not known_circuit(self.circuit):
            raise EnvelopeError(
                f"unknown circuit {self.circuit!r} (known: "
                f"{', '.join(circuit_names())})"
            )
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
            the figures their result's ``asdict`` (Figure 2's is its
            spec's fields and its ``corruption_cell`` reports).
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
    ScenarioSpec.kind: ScenarioSpec,
    AttackRequest.kind: AttackRequest,
    MetricsRequest.kind: MetricsRequest,
    ExperimentRequest.kind: ExperimentRequest,
    BenchRequest.kind: BenchRequest,
}

_ENVELOPE_KINDS = {**REQUEST_KINDS, Response.kind: Response}

#: Any request envelope: the union of :data:`REQUEST_KINDS`.
Request = Union[tuple(REQUEST_KINDS.values())]


def to_dict(envelope) -> dict:
    """The wire shape of any envelope (version + kind + fields), sharing
    the field values (:func:`~repro.scenarios.spec.field_values`)."""
    payload = {"schema_version": SCHEMA_VERSION, "kind": envelope.kind}
    payload.update(field_values(envelope))
    return payload


def to_json(envelope) -> str:
    """One JSON line (sorted keys, so output is deterministic)."""
    return json.dumps(to_dict(envelope), sort_keys=True)


def from_dict(payload: Mapping):
    """Decode a wire dict into its envelope (or :class:`Event`).

    Raises :class:`EnvelopeError` for non-mappings, missing/mismatched
    ``schema_version``, unknown ``kind`` or missing required fields,
    and ``ValueError`` (with the roster, for a name) for a field the
    envelope's own validation rejects.  Unknown fields are ignored.
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
