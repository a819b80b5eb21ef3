"""Typed job events: the streaming half of the service API.

Every job executed through :class:`repro.service.Service` narrates its
life as a sequence of :class:`Event` values — machine-readable, JSON
line-serializable, and ordered by a per-job ``seq`` counter so clients
can detect gaps.  The taxonomy is deliberately small and stable:

====================  ==================================================
``job_started``       First event of every job.  ``data`` carries the
                      request ``kind``, ``queued_seconds`` (submit ->
                      execution start: time spent in the admission
                      queue) and, when known up front, the ``total``
                      number of work units (matrix cells, experiment
                      rows).
``cell_started``      A unit of work began executing (cache hits never
                      start — they complete directly).  ``data``:
                      ``label``, submission ``index``.
``cell_done``         A unit of work completed.  ``data``: ``label``,
                      ``index``, ``cached``, ``elapsed_seconds``,
                      ``done``/``total`` counters and — when the
                      artifact reports one — its ``status``.
``progress``          Aggregate counters after each completion:
                      ``done``, ``total``, ``fraction``.
``warning``           A non-fatal condition (``data["message"]``).
``job_done``          Last event of every job.  ``data``: final
                      ``status`` (``ok`` | ``partial`` | ``error`` |
                      ``cancelled``) plus the latency breakdown —
                      ``queued_seconds`` and ``run_seconds``.
====================  ==================================================

Renderers live in :mod:`repro.service.render`; nothing here prints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: The complete event taxonomy, in lifecycle order.
EVENT_TYPES = (
    "job_started",
    "cell_started",
    "cell_done",
    "progress",
    "warning",
    "job_done",
)


class EventError(ValueError):
    """A malformed event payload (unknown type, missing fields)."""


@dataclass
class Event:
    """One streamed job event.

    Attributes:
        type: One of :data:`EVENT_TYPES`.
        job_id: The job this event belongs to.
        seq: Per-job sequence number, starting at 0 and gapless.
        data: Type-specific JSON-serializable payload (see the module
            docstring for the per-type keys).
    """

    type: str
    job_id: str
    seq: int
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.type not in EVENT_TYPES:
            known = ", ".join(EVENT_TYPES)
            raise EventError(f"unknown event type {self.type!r} (known: {known})")

    def to_dict(self) -> dict:
        """The JSON-lines wire shape (see ``envelopes.SCHEMA_VERSION``)."""
        from repro.service.envelopes import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "event",
            "type": self.type,
            "job_id": self.job_id,
            "seq": self.seq,
            "data": dict(self.data),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        """Decode the wire shape.  Unknown extra keys and an unknown
        ``type`` (a newer server's event) are tolerated; only the
        emitting side, construction, enforces :data:`EVENT_TYPES`."""
        event = cls.__new__(cls)
        try:
            event.type = str(payload["type"])
        except KeyError as missing:
            raise EventError(f"event payload missing {missing}") from None
        event.job_id = str(payload.get("job_id", ""))
        event.seq = int(payload.get("seq", 0))
        event.data = dict(payload.get("data") or {})
        return event

    @classmethod
    def from_json(cls, text: str) -> "Event":
        return cls.from_dict(json.loads(text))
