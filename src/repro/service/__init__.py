"""``repro.service`` — the canonical typed job API.

Every way of running this system's work — CLI subcommands, the
``repro serve`` daemon, library callers — goes through one surface:

1. Describe the work as a **request envelope**
   (:mod:`repro.service.envelopes`): versioned, JSON-round-trippable
   dataclasses validated at construction time.  A ``matrix`` request
   is a :class:`~repro.scenarios.ScenarioSpec` (``MatrixRequest``
   names it), so the grid schema is declared once.
2. :meth:`Service.submit` it and get a :class:`Job`: a stream of typed
   events (``job_started`` ... ``cell_done`` ... ``job_done``) plus a
   terminal :class:`Response` envelope, with ``cancel()`` and
   partial-result ``snapshot()`` along the way.
3. Render machine payloads to the classic human text with
   :mod:`repro.service.render` — or skip rendering and ship the
   envelopes (that is all ``repro serve`` does).

Typical use::

    from repro.runner import ResultCache
    from repro.service import MatrixRequest, Service

    service = Service(jobs=4, cache=ResultCache("/tmp/repro-cache"))
    job = service.submit(MatrixRequest(
        schemes=[["sarlock", {"key_size": 4}]],
        circuits=["c432"], scale=0.2, efforts=[1],
    ))
    for event in job.events():
        print(event.type, event.data)
    response = job.result()           # a Response envelope

The daemon (:mod:`repro.service.daemon`) speaks exactly these
envelopes as JSON lines over stdio or TCP; the HTTP gateway
(:mod:`repro.service.http`, ``repro serve --http``) streams the same
lines as chunked responses, with explicit ``queue_full`` backpressure
when admission control (``Service(max_pending=...)``) refuses a burst.
:mod:`repro.service.loadgen` replays request mixes from many
concurrent clients against a live gateway and reports the
latency/throughput trajectory (``BENCH_service.json``).
"""

from repro.service.envelopes import (
    EXPERIMENTS,
    REQUEST_KINDS,
    RESPONSE_STATUSES,
    SCHEMA_VERSION,
    AttackRequest,
    BenchRequest,
    EnvelopeError,
    ExperimentRequest,
    MatrixRequest,
    MetricsRequest,
    Request,
    Response,
    from_dict,
    from_json,
    to_dict,
    to_json,
)
from repro.service.events import EVENT_TYPES, Event, EventError
from repro.service.jobs import Job, QueueFullError, Service
from repro.service.render import render_event, render_response

__all__ = [
    "EVENT_TYPES",
    "EXPERIMENTS",
    "REQUEST_KINDS",
    "RESPONSE_STATUSES",
    "SCHEMA_VERSION",
    "AttackRequest",
    "BenchRequest",
    "EnvelopeError",
    "Event",
    "EventError",
    "ExperimentRequest",
    "Job",
    "MatrixRequest",
    "MetricsRequest",
    "QueueFullError",
    "Request",
    "Response",
    "Service",
    "from_dict",
    "from_json",
    "render_event",
    "render_response",
    "to_dict",
    "to_json",
]
