"""Envelope schema tests: round trips, tolerance, fail-fast validation."""

from __future__ import annotations

import json

import pytest

from repro.service import (
    SCHEMA_VERSION,
    AttackRequest,
    BenchRequest,
    EnvelopeError,
    Event,
    ExperimentRequest,
    MatrixRequest,
    Response,
    from_dict,
    from_json,
    to_dict,
    to_json,
)

#: One representative instance per envelope type, defaults and
#: non-defaults mixed, used by the generic round-trip tests.
ENVELOPES = [
    MatrixRequest(),
    MatrixRequest(
        schemes=[["sarlock", {"key_size": 4}], "xor"],
        attacks=["sat", ("appsat", {"error_threshold": 0.0})],
        engines=["sharded", "reference"],
        circuits=["c432", "c880"],
        scale=0.2,
        efforts=[1, 2],
        seeds=[0, 7],
        time_limit_per_task=30.0,
        max_dips_per_task=100,
        include_baseline=True,
        verify_composition=True,
        measure_resistance=True,
    ),
    AttackRequest(),
    AttackRequest(
        circuit="c1908",
        scheme="antisat",
        scheme_params={"key_size": 4},
        attack="appsat",
        attack_params={"error_threshold": 0.0},
        engine="reference",
        effort=1,
        scale=0.15,
        seed=3,
        time_limit_per_task=10.0,
        parallel=True,
    ),
    ExperimentRequest(),
    ExperimentRequest(experiment="table1", params={"key_sizes": [3], "scale": 0.12}),
    ExperimentRequest(experiment="defense", params={"key_size": 4}),
    BenchRequest(),
    BenchRequest(circuit="c432", scale=0.3),
    Response(request_kind="matrix", status="ok", job_id="j1", result={"cells": []}),
    Response(request_kind="attack", status="error", error="boom"),
    Response(request_kind="experiment", status="cancelled"),
]


class TestRoundTrips:
    @pytest.mark.parametrize(
        "envelope", ENVELOPES, ids=lambda e: type(e).__name__
    )
    def test_json_round_trip_is_identity(self, envelope):
        assert from_json(to_json(envelope)) == envelope

    @pytest.mark.parametrize(
        "envelope", ENVELOPES, ids=lambda e: type(e).__name__
    )
    def test_wire_shape_is_versioned_and_json_pure(self, envelope):
        payload = json.loads(to_json(envelope))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == type(envelope).kind

    def test_event_round_trip(self):
        event = Event(
            type="cell_done",
            job_id="j9",
            seq=4,
            data={"label": "x", "done": 2, "total": 4},
        )
        decoded = from_json(event.to_json())
        assert decoded == event

    def test_unknown_event_type_decodes_and_renders_nothing(self):
        from repro.service import render_event

        line = json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "event",
                "type": "heartbeat",
                "job_id": "j1",
                "seq": 3,
                "data": {"elapsed_seconds": 60.0},
            }
        )
        event = from_json(line)
        assert (event.type, event.job_id, event.seq) == ("heartbeat", "j1", 3)
        assert event.data == {"elapsed_seconds": 60.0}
        assert render_event(event) is None

    def test_axis_shapes_normalize_to_one_form(self):
        # str / (name, params) / {"name": ...} all decode equal.
        a = MatrixRequest(schemes=["sarlock"])
        b = MatrixRequest(schemes=[("sarlock", {})])
        c = MatrixRequest(schemes=[{"name": "sarlock"}])
        assert a == b == c


class TestTolerance:
    def test_unknown_fields_are_ignored(self):
        payload = json.loads(to_json(BenchRequest(circuit="c432")))
        payload["added_in_a_future_version"] = {"nested": True}
        assert from_dict(payload) == BenchRequest(circuit="c432")

    def test_unknown_event_data_keys_survive(self):
        payload = json.loads(
            Event(type="progress", job_id="j", seq=0, data={"done": 1}).to_json()
        )
        payload["extra"] = "ignored"
        assert from_dict(payload).data == {"done": 1}


class TestVersioning:
    def test_wrong_schema_version_is_rejected(self):
        payload = json.loads(to_json(BenchRequest()))
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(EnvelopeError, match="schema_version"):
            from_dict(payload)

    def test_missing_schema_version_is_rejected(self):
        payload = json.loads(to_json(BenchRequest()))
        del payload["schema_version"]
        with pytest.raises(EnvelopeError, match="schema_version"):
            from_dict(payload)

    def test_unknown_kind_lists_the_roster(self):
        with pytest.raises(EnvelopeError, match="matrix"):
            from_dict({"schema_version": SCHEMA_VERSION, "kind": "nope"})

    def test_non_object_payloads_are_rejected(self):
        with pytest.raises(EnvelopeError, match="JSON object"):
            from_dict([1, 2, 3])
        with pytest.raises(EnvelopeError, match="not valid JSON"):
            from_json("{nope")


class TestFailFastValidation:
    def test_matrix_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown locking scheme"):
            MatrixRequest(schemes=["nope"])

    def test_matrix_unknown_attack(self):
        with pytest.raises(ValueError, match="unknown attack"):
            MatrixRequest(attacks=["nope"])

    def test_matrix_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            MatrixRequest(engines=["warp"])

    def test_attack_unknown_names(self):
        with pytest.raises(ValueError, match="unknown locking scheme"):
            AttackRequest(scheme="nope")
        with pytest.raises(ValueError, match="unknown attack"):
            AttackRequest(attack="nope")
        with pytest.raises(EnvelopeError, match="unknown engine"):
            AttackRequest(engine="warp")

    def test_experiment_roster(self):
        with pytest.raises(EnvelopeError, match="unknown experiment"):
            ExperimentRequest(experiment="table9")

    def test_experiment_param_names_checked_against_driver(self):
        with pytest.raises(EnvelopeError, match="key_sizes"):
            ExperimentRequest(experiment="defense", params={"key_sizes": [4]})
        # ... and the real knob is accepted.
        ExperimentRequest(experiment="defense", params={"key_size": 4})

    def test_bench_validation(self):
        with pytest.raises(EnvelopeError, match="circuit"):
            BenchRequest(circuit="")
        with pytest.raises(EnvelopeError, match="scale"):
            BenchRequest(scale=0)

    def test_response_status_roster(self):
        with pytest.raises(EnvelopeError, match="status"):
            Response(status="exploded")

    def test_unknown_event_type(self):
        from repro.service import EventError

        with pytest.raises(EventError, match="unknown event type"):
            Event(type="cell_exploded", job_id="j", seq=0)

    def test_validation_happens_on_decode_too(self):
        payload = json.loads(to_json(MatrixRequest()))
        payload["schemes"] = [["nope", {}]]
        with pytest.raises(ValueError, match="unknown locking scheme"):
            from_dict(payload)
